"""Small dense complex linear algebra: tensor products and the named unitaries.

Everything here is plain numpy on complex128 arrays.  Dimensions in the
shipped experiments never exceed 4, but nothing below assumes that.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

UNITARY_TOL = 1e-12
DIAG_TOL = 1e-10

_SQRT2 = np.sqrt(2.0)


class NotUnitary(ValueError):
    """U†U deviates from the identity beyond tolerance."""


class NotDiagonalized(ValueError):
    """U†AU has off-diagonal residue beyond tolerance."""


def _as_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("matrix has non-finite entries")
    return m


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two square complex matrices."""
    return np.kron(_as_matrix(a), _as_matrix(b))


def is_unitary(u) -> bool:
    u = _as_matrix(u)
    err = np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()
    return bool(err <= UNITARY_TOL)


def verify_diagonalization(u, a) -> np.ndarray:
    """Return the real diagonal of U†AU, in column order.

    Raises NotUnitary if U fails the unitarity check and NotDiagonalized if
    U†AU has off-diagonal magnitudes above ``DIAG_TOL``.  No sorting is
    applied: downstream sign patterns depend on the column order of U.
    """
    u = _as_matrix(u)
    a = _as_matrix(a)
    if u.shape != a.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {a.shape}")
    err = np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()
    if err > UNITARY_TOL:
        raise NotUnitary(f"max |U†U - I| = {err:.3e} > {UNITARY_TOL:g}")
    m = u.conj().T @ a @ u
    off = m - np.diag(np.diag(m))
    if np.abs(off).max() > DIAG_TOL:
        raise NotDiagonalized(
            f"max off-diagonal |U†AU| = {np.abs(off).max():.3e} > {DIAG_TOL:g}")
    return np.real(np.diag(m))


# Pauli matrices, Hadamard, and the Y-diagonalizing beamsplitter analog.
I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / _SQRT2
V = np.array([[1, 1], [1j, -1j]], dtype=complex) / _SQRT2


def _w_matrix(sign: int) -> np.ndarray:
    p = np.sqrt(4.0 + sign * np.sqrt(8.0))
    m = np.sqrt(4.0 - sign * np.sqrt(8.0))
    return np.array([[(_SQRT2 + sign) / p, -(_SQRT2 - sign) / m],
                     [1.0 / p, 1.0 / m]], dtype=complex)


# Diagonalizers for B± = ∓(X ± Z)/√2.
W_PLUS = _w_matrix(+1)
W_MINUS = _w_matrix(-1)

B_PLUS = -(X + Z) / _SQRT2
B_MINUS = (X - Z) / _SQRT2

# Common diagonalizers for the magic-square rows and columns.
U_R1 = tensor(H, H)
U_R2 = tensor(V, V)
U_R3 = np.array([[1, 0, 1, 0],
                 [0, -1j, 0, -1j],
                 [0, -1, 0, 1],
                 [1j, 0, -1j, 0]], dtype=complex) / _SQRT2
U_C1 = tensor(H, V)
U_C2 = tensor(V, H)
U_C3 = np.array([[1, 0, 1, 0],
                 [0, -1, 0, -1],
                 [0, -1, 0, 1],
                 [1, 0, -1, 0]], dtype=complex) / _SQRT2


def standard_unitaries() -> dict[str, np.ndarray]:
    """The named unitaries used throughout the experiments, by name."""
    return {
        "I": I2.copy(), "X": X.copy(), "Y": Y.copy(), "Z": Z.copy(),
        "H": H.copy(), "V": V.copy(),
        "W+": W_PLUS.copy(), "W-": W_MINUS.copy(),
        "U_R1": U_R1.copy(), "U_R2": U_R2.copy(), "U_R3": U_R3.copy(),
        "U_C1": U_C1.copy(), "U_C2": U_C2.copy(), "U_C3": U_C3.copy(),
    }


@dataclass(frozen=True)
class ObservableSpec:
    """A measurement basis: diagonalizing unitary plus eigenvalues in column order."""

    unitary: np.ndarray
    eigenvalues: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        u = _as_matrix(self.unitary)
        if not is_unitary(u):
            raise NotUnitary("observable unitary fails the unitarity check")
        eig = np.asarray(self.eigenvalues, dtype=float)
        if eig.shape != (u.shape[0],):
            raise ValueError("eigenvalue count must match dimension")
        object.__setattr__(self, "unitary", u)
        object.__setattr__(self, "eigenvalues", eig)

    @classmethod
    def from_observable(cls, unitary, hermitian) -> "ObservableSpec":
        """Build a spec from (U, A), validating U†AU = diag(Λ)."""
        eig = verify_diagonalization(unitary, hermitian)
        return cls(unitary=np.asarray(unitary, dtype=complex), eigenvalues=eig)

    @property
    def dim(self) -> int:
        return self.unitary.shape[0]


# Pauli measurement bases: Z, X and Y through I, H and V, eigenvalues +1, -1.
PAULI_SPECS = {
    "Z": ObservableSpec(I2, [1.0, -1.0]),
    "X": ObservableSpec(H, [1.0, -1.0]),
    "Y": ObservableSpec(V, [1.0, -1.0]),
}
