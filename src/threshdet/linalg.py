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


def check_unitary(u) -> np.ndarray:
    """``u`` as a complex matrix, after checking that max |U†U - I| is at
    most ``UNITARY_TOL`` (NotUnitary otherwise)."""
    u = _as_matrix(u)
    err = np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()
    if err > UNITARY_TOL:
        raise NotUnitary(f"U fails the unitarity check: max |U†U - I| = "
                         f"{err:.3e} > {UNITARY_TOL:g}")
    return u


def verify_diagonalization(u, a) -> np.ndarray:
    """Return the real diagonal of U†AU, in column order.

    Raises NotUnitary if U fails the unitarity check and NotDiagonalized if
    U†AU has off-diagonal magnitudes above ``DIAG_TOL``.  No sorting is
    applied: downstream sign patterns depend on the column order of U.
    """
    u = check_unitary(u)
    a = _as_matrix(a)
    if u.shape != a.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {a.shape}")
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


@dataclass(frozen=True, eq=False)
class Measurement:
    """One threshold measurement: rotate by U†, then report group n when the
    magnitude of group n alone strictly exceeds the threshold.

    ``groups`` partition the rotated components 0..N-1 (singletons, in
    order, when omitted); ``values[n]`` is the value row reported with
    group n, a scalar eigenvalue or a row of several co-measured ones.  A
    measurement without ``values`` reports only which group detected.
    Everything is checked here, once, and the arrays it keeps are
    read-only.
    """

    unitary: np.ndarray
    groups: tuple[tuple[int, ...], ...] = None  # type: ignore[assignment]
    values: np.ndarray | None = None
    # Decided at construction: skip the rotation, and detect on |b_n|.
    is_identity: bool = field(init=False)
    singletons: bool = field(init=False)

    def __post_init__(self):
        u = np.array(check_unitary(self.unitary))
        dim = u.shape[0]
        basis = tuple((i,) for i in range(dim))
        groups = basis if self.groups is None else tuple(
            tuple(int(i) for i in g) for g in self.groups)
        if (any(not g for g in groups)
                or sorted(i for g in groups for i in g) != list(range(dim))):
            raise ValueError(f"groups must partition 0..{dim - 1} "
                             "without overlap")
        values = self.values
        if values is not None:
            values = np.array(values, dtype=float)
            if values.ndim == 0 or len(values) != len(groups):
                raise ValueError(f"expected one value row per group "
                                 f"({len(groups)}), got shape {values.shape}")
            values.flags.writeable = False
        u.flags.writeable = False
        # The instance is frozen, so the checked fields go in directly.
        vars(self).update(unitary=u, groups=groups, values=values,
                          is_identity=bool(np.array_equal(u, np.eye(dim))),
                          singletons=groups == basis)

    @classmethod
    def from_observable(cls, unitary, hermitian) -> "Measurement":
        """Measure A in the eigenbasis U, after checking that U†AU is diagonal;
        the values are that diagonal, in column order."""
        return cls(unitary, values=verify_diagonalization(unitary, hermitian))

    @property
    def dim(self) -> int:
        return self.unitary.shape[0]


# Pauli measurement bases: Z, X and Y through I, H and V, eigenvalues +1, -1.
PAULI_SPECS = {
    "Z": Measurement(I2, values=[1.0, -1.0]),
    "X": Measurement(H, values=[1.0, -1.0]),
    "Y": Measurement(V, values=[1.0, -1.0]),
}
