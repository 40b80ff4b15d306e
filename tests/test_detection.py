"""Measurement rule tests: threshold crossings, rotations, subspaces."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from threshdet import detection, linalg, noise
from threshdet.detection import (MULTIPLE_DETECTIONS, NO_DETECTION,
                                 DetectionOutcome, Outcome, SubspacePartition,
                                 detect_standard_block, group_magnitudes,
                                 measure_observable, measure_projective,
                                 measure_standard, measure_triple)
from threshdet.experiments import (ALICE_SETTINGS, BOB_SETTINGS,
                                   MAGIC_CONTEXTS, replay_local,
                                   replay_magic_square, replay_pauli)
from threshdet.linalg import H, I2, V, ObservableSpec
from threshdet.noise import NoiseModel, draw_noise_block

SQRT2 = np.sqrt(2.0)


def test_zero_noise_basis_state_detects():
    res = measure_standard(np.array([1.0, 0.0]), 0.5)
    assert res.tag is Outcome.DETECTED and res.index == 0


def test_no_detection_when_all_below():
    res = measure_standard(np.array([0.3, 0.2, 0.1]), 0.5)
    assert res.tag is Outcome.NO_DETECTION


def test_multiple_detections_tracked_separately():
    res = measure_standard(np.array([1.0, 1.0]), 0.5)
    assert res.tag is Outcome.MULTIPLE_DETECTIONS


def test_threshold_is_strict():
    # |a_n| == gamma does not cross.
    res = measure_standard(np.array([1.0, 0.0]), 1.0)
    assert res.tag is Outcome.NO_DETECTION


def test_first_printed_realization_is_a_nondetection():
    w = np.array([0.2197 - 0.7169j, -0.5290 + 0.3974j])
    a = noise.inject(np.array([1.0, 0.0]), SQRT2 - 1.0, w)
    assert measure_standard(a, 1.0).tag is Outcome.NO_DETECTION


def test_second_printed_realization_measures_all_three_paulis():
    w = np.array([0.5186 + 0.3818j, -0.6876 + 0.3354j])
    outcomes = replay_pauli(w)
    assert outcomes["Z"].value == +1.0
    assert outcomes["X"].value == -1.0
    assert outcomes["Y"].value == +1.0
    # intermediate rotated amplitudes match the printed ones
    a = noise.inject(np.array([1.0, 0.0]), SQRT2 - 1.0, w)
    ha = H.conj().T @ a
    assert np.abs(ha) == pytest.approx([0.5360, 1.1463], abs=5e-4)
    va = V.conj().T @ a
    assert np.abs(va) == pytest.approx([1.1730, 0.4745], abs=5e-4)


def test_measure_observable_carries_eigenvalue():
    spec = ObservableSpec(I2, [7.0, -3.0])
    res = measure_observable(np.array([2.0, 0.0]), spec, 1.0)
    assert res.value == 7.0


def test_partition_validation():
    with pytest.raises(ValueError):
        SubspacePartition(((0, 1), (1, 2)), (1.0, -1.0))
    with pytest.raises(ValueError):
        SubspacePartition(((0, 1),), (1.0, -1.0))


def test_partition_consistency():
    part = SubspacePartition(((0, 2), (1, 3)), (1.0, -1.0))
    b = draw_noise_block(NoiseModel(noise.GAUSSIAN, 1.0, 4), 1, 0, 100)
    mags = group_magnitudes(b, part)
    assert np.allclose((mags**2).sum(axis=1),
                       (np.abs(b) ** 2).sum(axis=1), atol=1e-12)


def test_projective_reduces_to_observable_with_singletons():
    part = SubspacePartition(((0,), (1,)), (1.0, -1.0))
    spec = ObservableSpec(H, [1.0, -1.0])
    block = draw_noise_block(NoiseModel(noise.SPHERE, 1.2, 2), 3, 0, 200)
    for a in block[:50]:
        p = measure_projective(a, H, part, 0.7)
        o = measure_observable(a, spec, 0.7)
        assert p.tag == o.tag
        if p.detected:
            assert p.index == o.index and p.value == o.value


def test_local_game_printed_realization():
    a = np.array([-0.165 + 0.2046j, 0.8316 + 0.6696j,
                  0.5690 - 0.2230j, 0.2321 - 0.1111j])
    ua, parta = ALICE_SETTINGS["A"]
    res = measure_projective(a, ua, parta, 1.0)
    assert res.detected and res.value == +1.0
    mags = group_magnitudes(a.reshape(1, -1), parta)[0] ** 2
    assert mags == pytest.approx([1.209, 0.4397], abs=5e-4)

    ub, partb = BOB_SETTINGS["B"]
    resb = measure_projective(a, ub, partb, 1.0)
    assert resb.tag is Outcome.NO_DETECTION
    magsb = group_magnitudes((a @ np.conj(ub)).reshape(1, -1), partb)[0] ** 2
    assert magsb == pytest.approx([0.9836, 0.6651], abs=5e-4)

    ubp, partbp = BOB_SETTINGS["B'"]
    resbp = measure_projective(a, ubp, partbp, 1.0)
    assert resbp.detected and resbp.value == +1.0
    magsp = group_magnitudes((a @ np.conj(ubp)).reshape(1, -1), partbp)[0] ** 2
    assert magsp == pytest.approx([1.2051, 0.4436], abs=5e-4)

    assert replay_local(a) == {"A": "+1", "A'": "NaN", "B": "NaN", "B'": "+1"}


def test_magic_square_printed_realization():
    a = np.array([-0.3151 + 0.5498j, -0.9092 + 0.1208j,
                  -0.0581 - 0.5120j, 0.4560 - 0.3460j])
    out = replay_magic_square(a)
    assert out["R1"] == (-1.0, 1.0, -1.0)
    assert out["R2"] == (1.0, 1.0, 1.0)
    assert out["R3"] == (-1.0, 1.0, -1.0)
    assert out["C1"] == (-1.0, 1.0, -1.0)
    assert out["C2"] == (1.0, 1.0, 1.0)
    assert out["C3"] is None
    # all four rotated column-3 magnitudes sit below the threshold
    u = MAGIC_CONTEXTS["C3"][0]
    assert np.abs(a @ np.conj(u)).max() < 1.0


def test_measure_triple_requires_three_diagonals():
    with pytest.raises(ValueError):
        measure_triple(np.zeros(4), np.eye(4), [[1, 1, 1, 1]], 1.0)


def test_bounded_noise_never_double_detects():
    # gamma >= sigma and s <= (sqrt(2)-1) sigma excludes double crossings.
    model = NoiseModel(noise.SPHERE, 1.0, 4)
    alpha = np.array([0, 1, 1, 0]) / SQRT2
    a = noise.realize_block(alpha, SQRT2 - 1.0, model, seed=8, start=0,
                            count=10**5)
    codes = detect_standard_block(a, 1.0)
    assert not np.any(codes == MULTIPLE_DETECTIONS)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_detection_is_counterfactually_definite(seed):
    # Pure functions of (a, U, gamma): re-evaluation never disagrees.
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    first = measure_standard(a, 0.8)
    assert measure_standard(a, 0.8) == first
    spec = ObservableSpec(H, [1.0, -1.0])
    assert measure_observable(a, spec, 0.8) == measure_observable(a, spec, 0.8)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=6).flatmap(lambda n: st.tuples(
           arrays(float, (8, n), elements=st.floats(0.0, 3.0)),
           st.permutations(range(n)))),
       st.floats(0.0, 3.0))
def test_crossing_codes_permutation_equivariance(mags_perm, gamma):
    mags, perm = mags_perm
    perm = np.array(perm)
    codes = detection.crossing_codes(mags, gamma)
    # Column j of the permuted input is column perm[j] of the original.
    permuted = detection.crossing_codes(mags[:, perm], gamma)
    expected = np.where(codes >= 0, np.argsort(perm)[codes], codes)
    assert np.array_equal(permuted, expected)


_complex = st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                              allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([ObservableSpec(H, [1.0, -1.0]),
                        ObservableSpec(linalg.tensor(H, V),
                                       [1.0, -1.0, -1.0, 1.0])]).flatmap(
           lambda spec: st.tuples(
               st.just(spec),
               st.lists(_complex, min_size=spec.dim, max_size=spec.dim))),
       st.floats(0.0, 2.0 * np.pi), st.floats(0.0, 3.0))
def test_measurement_is_global_phase_invariant(spec_comps, phi, gamma):
    spec, comps = spec_comps
    a = np.array(comps)
    for mags in (np.abs(a), np.abs(a @ np.conj(spec.unitary))):
        assume(np.all(np.abs(mags - gamma) > 1e-9))
    b = np.exp(1j * phi) * a
    assert measure_standard(b, gamma) == measure_standard(a, gamma)
    assert measure_observable(b, spec, gamma) == \
        measure_observable(a, spec, gamma)


def test_codes_cover_all_outcomes():
    mags = np.array([[2.0, 0.0], [0.0, 0.0], [2.0, 2.0]])
    codes = detection.crossing_codes(mags, 1.0)
    assert codes.tolist() == [0, NO_DETECTION, MULTIPLE_DETECTIONS]


def test_outcome_dataclass_flags():
    det = DetectionOutcome(Outcome.DETECTED, index=1, value=-1.0)
    assert det.detected
    assert not DetectionOutcome(Outcome.NO_DETECTION).detected


@pytest.mark.parametrize("gamma", [np.nan, -1.0, np.inf])
def test_single_vector_measurements_reject_bad_gamma(gamma):
    a2, a4 = np.array([0.1, 0.2]), np.array([0.5, 0.5, 0.5, 0.5])
    spec = linalg.PAULI_SPECS["Z"]
    u, part = ALICE_SETTINGS[next(iter(ALICE_SETTINGS))]
    u_ctx, diags, _ = next(iter(MAGIC_CONTEXTS.values()))
    calls = [lambda: measure_standard(a2, gamma),
             lambda: measure_observable(a2, spec, gamma),
             lambda: measure_projective(a4, u, part, gamma),
             lambda: measure_triple(a4, u_ctx, diags, gamma),
             lambda: replay_pauli(a2, gamma=gamma),
             lambda: replay_magic_square(a4, gamma=gamma),
             lambda: replay_local(a4, gamma=gamma)]
    for call in calls:
        with pytest.raises(ValueError, match="gamma must be non-negative"):
            call()


def _reference_codes(mags, gamma):
    # The sum/argmax rule, written out independently of crossing_codes.
    cross = mags > gamma
    ncross = cross.sum(axis=1)
    codes = np.where(ncross == 1, np.argmax(cross, axis=1), NO_DETECTION)
    codes[ncross > 1] = MULTIPLE_DETECTIONS
    return codes


# Magnitudes on a coarse grid, so many equal gamma exactly and do not cross.
_GRID = (0.0, 0.5, 1.0, 1.5, 2.0)


@pytest.mark.parametrize("dim", range(1, 11))
@settings(max_examples=40, deadline=None)
@given(data=st.data(), gamma=st.sampled_from(_GRID))
def test_crossing_codes_match_sum_argmax_reference(dim, data, gamma):
    # d <= 8 goes through the bitmask table, d = 9 and 10 through the
    # fallback; both must give the reference codes and dtype.
    mags = data.draw(arrays(float, (data.draw(st.integers(0, 40)), dim),
                            elements=st.sampled_from(_GRID),
                            fill=st.nothing()))
    codes = detection.crossing_codes(mags, gamma)
    assert (NO_DETECTION, MULTIPLE_DETECTIONS) == (-1, -2)
    assert codes.dtype == np.intp and codes.shape == (len(mags),)
    assert np.array_equal(codes, _reference_codes(mags, gamma))

