"""Matrix kernel tests: named unitaries, tensor products, diagonalization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshdet import linalg
from threshdet.linalg import (B_MINUS, B_PLUS, H, I2, U_C1, U_C2, U_C3, U_R1,
                              U_R2, U_R3, V, W_MINUS, W_PLUS, X, Y, Z,
                              Measurement, NotDiagonalized, NotUnitary,
                              tensor, verify_diagonalization)


def test_tensor_identity():
    assert np.array_equal(tensor(I2, I2), np.eye(4))


def test_tensor_builds_row1_unitary():
    assert np.allclose(tensor(H, H), U_R1, atol=1e-15)


def test_tensor_dimension():
    t = tensor(np.eye(3), I2)
    assert t.shape == (6, 6)


def test_all_named_unitaries_are_unitary():
    named = {"I": I2, "X": X, "Y": Y, "Z": Z, "H": H, "V": V, "W+": W_PLUS,
             "W-": W_MINUS, "U_R1": U_R1, "U_R2": U_R2, "U_R3": U_R3,
             "U_C1": U_C1, "U_C2": U_C2, "U_C3": U_C3}
    for name, u in named.items():
        err = np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()
        assert err <= 1e-12, name


def test_hadamard_on_basis_state():
    out = H @ np.array([1.0, 0.0])
    assert np.allclose(out, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_w_plus_diagonalizes_b_plus():
    diag = verify_diagonalization(W_PLUS, B_PLUS)
    assert np.allclose(diag, [-1.0, 1.0], atol=1e-12)


def test_w_minus_diagonalizes_b_minus():
    # Column order of W- puts the +1 eigenvector first, matching the
    # diagonal sign patterns used by the four-dimensional correlation runs.
    diag = verify_diagonalization(W_MINUS, B_MINUS)
    assert np.allclose(diag, [1.0, -1.0], atol=1e-12)


def test_uc3_diagonalizes_yy():
    diag = verify_diagonalization(U_C3, tensor(Y, Y))
    assert np.allclose(diag, [-1, 1, 1, -1], atol=1e-12)


def test_ur3_diagonalizes_zz():
    diag = verify_diagonalization(U_R3, tensor(Z, Z))
    assert np.allclose(diag, [1, -1, 1, -1], atol=1e-12)


def test_verify_diagonalization_trivial():
    assert np.allclose(verify_diagonalization(I2, Z), [1.0, -1.0])


def test_verify_diagonalization_chsh_ab_prime():
    u2 = tensor(I2, W_MINUS)
    ab_prime = tensor(Z, B_MINUS)
    assert np.allclose(verify_diagonalization(u2, ab_prime), [1, -1, -1, 1],
                       atol=1e-12)


def test_verify_diagonalization_rejects_nonunitary():
    with pytest.raises(NotUnitary):
        verify_diagonalization(2 * I2, Z)


def test_verify_diagonalization_rejects_wrong_basis():
    with pytest.raises(NotDiagonalized):
        verify_diagonalization(I2, X)


def test_pauli_algebra():
    for p in (X, Y, Z):
        assert np.abs(p @ p - I2).max() <= 1e-14
    assert np.abs(X @ Y - 1j * Z).max() <= 1e-14


def test_magic_square_operator_products():
    rows = [(tensor(X, I2), tensor(I2, X), tensor(X, X)),
            (tensor(I2, Y), tensor(Y, I2), tensor(Y, Y)),
            (tensor(X, Y), tensor(Y, X), tensor(Z, Z))]
    cols = [(tensor(X, I2), tensor(I2, Y), tensor(X, Y)),
            (tensor(I2, X), tensor(Y, I2), tensor(Y, X)),
            (tensor(X, X), tensor(Y, Y), tensor(Z, Z))]
    eye4 = np.eye(4)
    for a, b, c in rows + cols[:2]:
        assert np.abs(a @ b @ c - eye4).max() <= 1e-14
    a, b, c = cols[2]
    assert np.abs(a @ b @ c + eye4).max() <= 1e-14


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_norm_preservation_under_named_unitaries(seed):
    rng = np.random.default_rng(seed)
    for u in (H, V, W_PLUS, U_R3):
        n = u.shape[0]
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.linalg.norm(u @ a) == pytest.approx(np.linalg.norm(a),
                                                      rel=1e-12)


def test_measurement_from_observable():
    m = Measurement.from_observable(W_PLUS, B_PLUS)
    assert m.dim == 2 and m.groups == ((0,), (1,)) and m.singletons
    assert np.allclose(m.values, [-1.0, 1.0])
    with pytest.raises(NotDiagonalized):
        Measurement.from_observable(I2, X)


def test_measurement_rejects_bad_unitary():
    with pytest.raises(NotUnitary):
        Measurement(np.ones((2, 2)), values=[1.0, -1.0])


def test_measurement_is_read_only_and_leaves_its_inputs_alone():
    u, values = H.copy(), np.array([1.0, -1.0])
    m = Measurement(u, values=values)
    with pytest.raises(ValueError):
        m.unitary[0, 0] = 0
    with pytest.raises(ValueError):
        m.values[0] = 0
    assert u.flags.writeable and values.flags.writeable
    assert Measurement(np.eye(2)).is_identity and not m.is_identity


def test_measurement_owns_its_values():
    # Writing to the caller's array afterwards must not reach the
    # measurement, and a strided input is stored contiguous.
    v = np.array([1.0, -1.0])
    m = Measurement(I2, values=v)
    v[0] = 5.0
    assert m.values.tolist() == [1.0, -1.0]
    strided = np.array([[1.0, 0.0], [-1.0, 0.0]])[:, 0]
    assert not strided.flags.c_contiguous
    assert Measurement(I2, values=strided).values.flags.c_contiguous


def test_row3_sign_structure():
    # Detected Row-3 trials with Z(x)Z = +1 force the other two outcomes to
    # agree: the diagonals pair as (+1,+1) or (-1,-1) on those components.
    from threshdet.experiments import MAGIC_CONTEXTS
    d1, d2, d3 = MAGIC_CONTEXTS["R3"].values.T
    for n in range(4):
        if d3[n] == 1.0:
            assert (d1[n], d2[n]) in {(1.0, 1.0), (-1.0, -1.0)}
