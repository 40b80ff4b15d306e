"""State inference from conditional statistics, and where it breaks."""

import numpy as np
import pytest

from threshdet import noise
from threshdet.linalg import B_PLUS
from threshdet.noise import GAUSSIAN, SPHERE, NoiseModel
from threshdet.probability import exact_hists
from threshdet.tomography import (MIN_DETECTIONS, QUANTUM_BPLUS_EXPECTATION,
                                  InsufficientDetections,
                                  bplus_counterexample, infer_state,
                                  pauli_records)

SQRT2 = np.sqrt(2.0)
TRIALS = 1 << 20
S = SQRT2 - 1.0


def _model():
    return NoiseModel(SPHERE, 1.0, 2)


def _bloch(alpha):
    x = 2 * np.real(np.conj(alpha[0]) * alpha[1])
    y = 2 * np.imag(np.conj(alpha[0]) * alpha[1])
    z = np.abs(alpha[0]) ** 2 - np.abs(alpha[1]) ** 2
    return x, y, z


@pytest.mark.parametrize("alpha", [
    np.array([1.0, 0.0]),
    np.array([0.0, 1.0]),
    np.array([1.0, 1.0]) / SQRT2,
])
def test_inferred_expectations_match_quantum_values(alpha):
    inf = infer_state(alpha, S, _model(), 1.0, TRIALS, seed=21)
    assert set(inf.stats) == {"X", "Y", "Z"}
    assert all(v.n_detected > 0 for v in inf.stats.values())
    x, y, z = _bloch(alpha)
    assert inf.stats["X"].mean == pytest.approx(x, abs=0.01)
    assert inf.stats["Y"].mean == pytest.approx(y, abs=0.01)
    assert inf.stats["Z"].mean == pytest.approx(z, abs=0.01)


def test_inferred_density_operator_structure():
    alpha = np.array([1.0, 1.0]) / SQRT2
    inf = infer_state(alpha, S, _model(), 1.0, TRIALS, seed=21)
    rho = inf.rho_tilde
    assert np.abs(rho - rho.conj().T).max() < 1e-10
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
    assert abs(np.trace(rho).imag) < 1e-10
    # close to the pure projector for this state
    proj = np.outer(alpha, alpha.conj())
    assert np.abs(rho - proj).max() < 0.02


def test_dimension_guard():
    with pytest.raises(ValueError):
        infer_state(np.array([0, 1, 1, 0]) / SQRT2, S,
                    NoiseModel(noise.GAUSSIAN, 1.0, 4), 1.0, 100, seed=0)


def test_insufficient_detections():
    # A huge threshold yields no detections at all.
    with pytest.raises(InsufficientDetections,
                       match=r"^only 0 detections \(need 100\)$"):
        infer_state(np.array([1.0, 0.0]), S, _model(), 50.0, 1 << 12, seed=0)


def test_counterexample_departs_from_quantum_prediction():
    res = bplus_counterexample(TRIALS, seed=21)
    # The conditional frequency of the -1 outcome sits near 0.7048, far from
    # the quantum value (1 - 1/sqrt(2))/2 + 1/2 = 0.8536 implied by the
    # inferred state.
    assert res.p_hat[0] == pytest.approx(0.7048, abs=0.005)
    assert res.p_hat[1] == pytest.approx(1.0 - res.p_hat[0], abs=1e-12)
    assert res.mean == pytest.approx(-0.41, abs=0.01)
    gap = abs(res.mean - QUANTUM_BPLUS_EXPECTATION)
    assert gap > 10 * res.mean_stderr
    # Tr(rho B+) for rho = |0><0|, the quantum value the gap is taken from.
    assert QUANTUM_BPLUS_EXPECTATION == pytest.approx(B_PLUS[0, 0].real)


def test_counterexample_reproducible():
    a = bplus_counterexample(1 << 16, seed=9)
    b = bplus_counterexample(1 << 16, seed=9, workers=4)
    assert (a.p_hat[0], a.n_detected) == (b.p_hat[0], b.n_detected)


def test_exact_records_pass_no_count_guard():
    # At s = 0 and gamma = 4 a basis detects with probability 2.2e-7: a
    # run of 4096 trials has too few detections, while the exact records,
    # whose cells are probabilities, give every conditional.
    alpha, model = np.array([1.0, 0.0]), NoiseModel(GAUSSIAN, 1.0, 2)
    with pytest.raises(InsufficientDetections):
        infer_state(alpha, 0.0, model, 4.0, 4096, seed=1)
    exact = pauli_records(alpha, 0.0, model, 4.0, exact_hists)
    for st in exact.values():
        assert 0.0 < st.n_detected < MIN_DETECTIONS
        assert st.mean == pytest.approx(0.0, abs=1e-12)
