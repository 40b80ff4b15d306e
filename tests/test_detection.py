"""Measurement rule tests: threshold crossings, rotations, subspaces."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from threshdet import detection, linalg, noise
from threshdet.detection import (MULTIPLE_DETECTIONS, NO_DETECTION,
                                 detect_observable_block,
                                 detect_standard_block, group_magnitudes,
                                 measure)
from threshdet.experiments import LOCAL_SETTINGS, MAGIC_CONTEXTS, replay
from threshdet.linalg import H, I2, U_R1, V, Measurement
from threshdet.noise import CHUNK, NoiseModel, draw_noise_block

SQRT2 = np.sqrt(2.0)


def basis(dim):
    return Measurement(np.eye(dim))


def test_zero_noise_basis_state_detects():
    assert measure(np.array([1.0, 0.0]), basis(2), 0.5) == 0


def test_no_detection_when_all_below():
    assert measure(np.array([0.3, 0.2, 0.1]), basis(3), 0.5) == NO_DETECTION


def test_multiple_detections_tracked_separately():
    assert measure(np.array([1.0, 1.0]), basis(2), 0.5) == MULTIPLE_DETECTIONS


def test_threshold_is_strict():
    # |a_n| == gamma does not cross.
    assert measure(np.array([1.0, 0.0]), basis(2), 1.0) == NO_DETECTION


def test_first_printed_realization_is_a_nondetection():
    w = np.array([0.2197 - 0.7169j, -0.5290 + 0.3974j])
    a = noise.inject(np.array([1.0, 0.0]), SQRT2 - 1.0, w)
    assert measure(a, basis(2), 1.0) == NO_DETECTION


def test_second_printed_realization_measures_all_three_paulis():
    w = np.array([0.5186 + 0.3818j, -0.6876 + 0.3354j])
    a = noise.inject(np.array([1.0, 0.0]), SQRT2 - 1.0, w)
    codes = replay(a, linalg.PAULI_SPECS)
    values = {name: linalg.PAULI_SPECS[name].values[code]
              for name, code in codes.items()}
    assert values == {"Z": +1.0, "X": -1.0, "Y": +1.0}
    # intermediate rotated amplitudes match the printed ones
    ha = H.conj().T @ a
    assert np.abs(ha) == pytest.approx([0.5360, 1.1463], abs=5e-4)
    va = V.conj().T @ a
    assert np.abs(va) == pytest.approx([1.1730, 0.4745], abs=5e-4)


def test_measure_observable_carries_eigenvalue():
    m = Measurement(I2, values=[7.0, -3.0])
    assert m.values[measure(np.array([2.0, 0.0]), m, 1.0)] == 7.0


def test_partition_validation():
    with pytest.raises(ValueError, match="partition"):   # overlapping
        Measurement(np.eye(3), ((0, 1), (1, 2)), (1.0, -1.0))
    with pytest.raises(ValueError, match="partition"):   # missing
        Measurement(np.eye(4), ((0, 1), (2,)))
    with pytest.raises(ValueError, match="partition"):   # empty group
        Measurement(np.eye(2), ((0, 1), ()))
    for values in ((1.0, -1.0), 1.0):
        with pytest.raises(ValueError, match="value row per group"):
            Measurement(np.eye(2), ((0, 1),), values)


def test_partition_consistency():
    groups = ((0, 2), (1, 3))
    b = draw_noise_block(NoiseModel(noise.GAUSSIAN, 1.0, 4), 1, 0, 0, 100)
    mags = group_magnitudes(b, groups)
    assert np.allclose((mags**2).sum(axis=1),
                       (np.abs(b) ** 2).sum(axis=1), atol=1e-12)


def test_projective_reduces_to_observable_with_singletons():
    # Singleton groups listed out of order take the subspace path; they
    # must report the component the standard path reports, relabelled.
    swapped = Measurement(H, ((1,), (0,)), (-1.0, 1.0))
    m = Measurement(H, values=[1.0, -1.0])
    assert not swapped.singletons and m.singletons
    block = draw_noise_block(NoiseModel(noise.SPHERE, 1.2, 2), 3, 0, 0, 200)
    p = detect_observable_block(block, swapped, 0.7)
    o = detect_observable_block(block, m, 0.7)
    assert np.array_equal(p, np.where(o >= 0, 1 - o, o))
    assert np.array_equal(swapped.values[p[p >= 0]], m.values[o[o >= 0]])


def test_local_game_printed_realization():
    a = np.array([-0.165 + 0.2046j, 0.8316 + 0.6696j,
                  0.5690 - 0.2230j, 0.2321 - 0.1111j])
    codes = replay(a, LOCAL_SETTINGS)
    values = {name: "NaN" if code < 0
              else f"{LOCAL_SETTINGS[name].values[code]:+.0f}"
              for name, code in codes.items()}
    assert values == {"A": "+1", "A'": "NaN", "B": "NaN", "B'": "+1"}

    ma, mb, mbp = (LOCAL_SETTINGS[k] for k in ("A", "B", "B'"))
    mags = group_magnitudes(a.reshape(1, -1), ma.groups)[0] ** 2
    assert mags == pytest.approx([1.209, 0.4397], abs=5e-4)
    magsb = group_magnitudes((a @ np.conj(mb.unitary)).reshape(1, -1),
                             mb.groups)[0] ** 2
    assert magsb == pytest.approx([0.9836, 0.6651], abs=5e-4)
    magsp = group_magnitudes((a @ np.conj(mbp.unitary)).reshape(1, -1),
                             mbp.groups)[0] ** 2
    assert magsp == pytest.approx([1.2051, 0.4436], abs=5e-4)


def test_magic_square_printed_realization():
    a = np.array([-0.3151 + 0.5498j, -0.9092 + 0.1208j,
                  -0.0581 - 0.5120j, 0.4560 - 0.3460j])
    out = {name: None if code < 0 else tuple(MAGIC_CONTEXTS[name].values[code])
           for name, code in replay(a, MAGIC_CONTEXTS).items()}
    assert out["R1"] == (-1.0, 1.0, -1.0)
    assert out["R2"] == (1.0, 1.0, 1.0)
    assert out["R3"] == (-1.0, 1.0, -1.0)
    assert out["C1"] == (-1.0, 1.0, -1.0)
    assert out["C2"] == (1.0, 1.0, 1.0)
    assert out["C3"] is None
    # all four rotated column-3 magnitudes sit below the threshold
    u = MAGIC_CONTEXTS["C3"].unitary
    assert np.abs(a @ np.conj(u)).max() < 1.0


def test_measure_triple_requires_three_diagonals():
    # Three diagonals are three value columns, one row per component.
    with pytest.raises(ValueError, match="value row per group"):
        Measurement(U_R1, values=np.ones((3, 4)))
    assert Measurement(U_R1, values=np.ones((4, 3))).values.shape == (4, 3)


def test_bounded_noise_never_double_detects():
    # gamma >= sigma and s <= (sqrt(2)-1) sigma excludes double crossings.
    model = NoiseModel(noise.SPHERE, 1.0, 4)
    alpha = np.array([0, 1, 1, 0]) / SQRT2
    sa, trials = noise.signal(alpha, SQRT2 - 1.0), 10**5
    for chunk in range(-(-trials // CHUNK)):
        a = noise.realize_block(sa, model, 8, 0, chunk,
                                min(CHUNK, trials - chunk * CHUNK))
        codes = detect_standard_block(a, 1.0)
        assert not np.any(codes == MULTIPLE_DETECTIONS)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_detection_is_counterfactually_definite(seed):
    # Pure functions of (a, U, gamma): re-evaluation never disagrees.
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    for m in (basis(2), Measurement(H, values=[1.0, -1.0])):
        assert measure(a, m, 0.8) == measure(a, m, 0.8)


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
@given(st.sampled_from([Measurement(H, values=[1.0, -1.0]),
                        Measurement(linalg.tensor(H, V),
                                    values=[1.0, -1.0, -1.0, 1.0])]).flatmap(
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
    standard = basis(spec.dim)
    assert measure(b, standard, gamma) == measure(a, standard, gamma)
    assert measure(b, spec, gamma) == measure(a, spec, gamma)


def test_codes_cover_all_outcomes():
    mags = np.array([[2.0, 0.0], [0.0, 0.0], [2.0, 2.0]])
    codes = detection.crossing_codes(mags, 1.0)
    assert codes.tolist() == [0, NO_DETECTION, MULTIPLE_DETECTIONS]


@pytest.mark.parametrize("gamma", [np.nan, -1.0, np.inf])
def test_single_vector_measurements_reject_bad_gamma(gamma):
    a2, a4 = np.array([0.1, 0.2]), np.array([0.5, 0.5, 0.5, 0.5])
    calls = [lambda: measure(a2, basis(2), gamma),
             lambda: measure(a2, linalg.PAULI_SPECS["Z"], gamma),
             lambda: measure(a4, LOCAL_SETTINGS["A"], gamma),
             lambda: measure(a4, MAGIC_CONTEXTS["R1"], gamma),
             lambda: replay(a2, linalg.PAULI_SPECS, gamma=gamma),
             lambda: replay(a4, MAGIC_CONTEXTS, gamma=gamma),
             lambda: replay(a4, LOCAL_SETTINGS, gamma=gamma)]
    for call in calls:
        with pytest.raises(ValueError, match="gamma must be non-negative"):
            call()


def test_measure_rejects_a_dimension_mismatch():
    with pytest.raises(ValueError, match="4 components"):
        measure(np.array([1.0, 0.0]), MAGIC_CONTEXTS["R1"], 1.0)
    with pytest.raises(ValueError, match="2 components"):
        measure(np.ones((1, 2)), basis(2), 1.0)


def test_identity_rotation_is_skipped_bit_for_bit():
    # The identity is decided once; skipping the product a @ conj(I)
    # leaves every code, and every subspace magnitude, unchanged.
    m = LOCAL_SETTINGS["A"]
    assert m.is_identity and not MAGIC_CONTEXTS["R1"].is_identity
    model = NoiseModel(noise.SPHERE, 1.0, 4)
    drawn = noise.realize_block(noise.signal(np.eye(4)[1], SQRT2 - 1.0),
                                model, 5, 0, 0, 20 * 500)
    for start in range(0, 20 * 500, 500):
        a = drawn[start:start + 500]
        rotated = a @ np.conj(m.unitary)
        assert np.array_equal(group_magnitudes(rotated, m.groups),
                              group_magnitudes(a, m.groups))
        assert np.array_equal(detect_observable_block(a, m, 1.0),
                              detection.detect_projective_block(
                                  rotated, m.groups, 1.0))


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



def _layouts(mags):
    # The same rows as a C-contiguous block, the transpose of a C-contiguous
    # (N, trials) block, a column slice of a wider block and a reversed-row
    # view.
    rows, dim = mags.shape
    wide = np.zeros((rows, dim + 2))
    wide[:, 1:-1] = mags
    yield np.ascontiguousarray(mags)
    yield np.ascontiguousarray(mags.T).T
    yield wide[:, 1:-1]
    yield np.ascontiguousarray(mags[::-1])[::-1]


@pytest.mark.parametrize("dim", range(1, 9))
def test_packed_crossing_codes_match_the_column_rule(dim):
    # Every bitmask of the dim columns, plus random rows with values on
    # the threshold, in every memory layout and as an empty block.
    bits = (np.arange(1 << dim)[:, None] >> np.arange(dim)) & 1
    rng = np.random.default_rng(dim)
    mags = np.concatenate([2.0 * bits, rng.choice(_GRID, size=(300, dim))])
    for gamma in (1.0, 1.5):
        expected = detection._codes_from_crossings(mags > gamma)
        for view in _layouts(mags):
            codes = detection.crossing_codes(view, gamma)
            assert codes.dtype == np.intp
            assert np.array_equal(codes, expected)
        for view in _layouts(np.empty((0, dim))):
            codes = detection.crossing_codes(view, gamma)
            assert codes.dtype == np.intp and codes.shape == (0,)


def _stacked_group_magnitudes(b, groups):
    # The fancy-index, sum and stack formula that group_magnitudes replaced.
    mags2 = np.abs(b) ** 2
    return np.sqrt(np.stack([mags2[:, list(g)].sum(axis=1) for g in groups],
                            axis=1))


@pytest.mark.parametrize("groups", [((0,), (1,), (2,), (3,)),
                                    ((0, 1), (2, 3)), ((1, 2), (3, 0)),
                                    ((0, 2, 3), (1,)), ((3, 1, 0), (2,))])
def test_group_magnitudes_match_the_stacked_sum_bit_for_bit(groups):
    model = NoiseModel(noise.GAUSSIAN, 1.3, 4)
    b = draw_noise_block(model, 9, 0, 0, 2000)
    b[:3] = 0.0
    b[3, 1] = -0.0
    for view in (b, b[::-1], np.asfortranarray(b)):
        assert (group_magnitudes(view, groups).tobytes()
                == _stacked_group_magnitudes(view, groups).tobytes())
