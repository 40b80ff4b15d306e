"""Noise family distributions, reproducibility, and realization replay."""

import functools
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from threshdet import linalg, noise
from threshdet.noise import (ANTICORRELATED_PHASE, BLOCH_UNIFORM, CHUNK,
                             GAUSSIAN, KINDS, SINGLE_PHASE, SPHERE,
                             InvalidModel, NoiseModel, UnnormalizedState,
                             chunk_rng, draw_noise_block, inject,
                             realize_block)
from threshdet.probability import estimate

SQRT2 = np.sqrt(2.0)


def _draw(model, seed, trials, stream=0):
    """Noise of a stream's first ``trials`` trials, drawn chunk by chunk."""
    return np.concatenate([
        draw_noise_block(model, chunk_rng(seed, stream, chunk),
                         min(CHUNK, trials - chunk * CHUNK))
        for chunk in range(-(-trials // CHUNK))])


def test_invalid_kind_rejected():
    with pytest.raises(InvalidModel):
        NoiseModel("white", 1.0, 2)


def test_negative_sigma_rejected():
    with pytest.raises(InvalidModel):
        NoiseModel(GAUSSIAN, -0.5, 2)


@pytest.mark.parametrize("sigma", [5e-324, 1e-320,
                                   np.nextafter(np.finfo(float).tiny, 0.0)])
def test_subnormal_sigma_rejected(sigma):
    # Scaling a subnormal by 1 - 2^-50 leaves it unchanged, so the
    # single_phase clamp could never bring its magnitude down to sigma.
    for kind in KINDS:
        with pytest.raises(InvalidModel, match="subnormal"):
            NoiseModel(kind, sigma, 2)


def test_smallest_normal_sigma_is_drawn_and_clamped():
    tiny = np.finfo(float).tiny
    w = draw_noise_block(NoiseModel(SINGLE_PHASE, tiny, 2), chunk_rng(1, 0, 0),
                         CHUNK)
    assert np.all(np.abs(w[:, 1]) <= tiny)
    assert np.all(w[:, 1] != 0)


def test_scripted_models_require_dim_two():
    for kind in (SINGLE_PHASE, ANTICORRELATED_PHASE, BLOCH_UNIFORM):
        with pytest.raises(InvalidModel):
            NoiseModel(kind, 1.0, 4)


def test_sphere_norm_is_sigma_exactly():
    model = NoiseModel(SPHERE, 0.7, 4)
    w = draw_noise_block(model, chunk_rng(1, 0, 0), 500)
    assert np.allclose(np.linalg.norm(w, axis=1), 0.7, atol=1e-12)


def test_gaussian_component_moments():
    # E[|w_n|^2] = sigma^2 for every component.
    model = NoiseModel(GAUSSIAN, 1.3, 3)
    w = _draw(model, seed=2, trials=10**6)
    second = (np.abs(w) ** 2).mean(axis=0)
    assert np.allclose(second, 1.3**2, rtol=0.01)
    assert np.abs(w.mean(axis=0)).max() < 0.01


def test_bloch_uniform_polar_moment():
    # quadrature oracle: integral of cos^2(t)*sin(2t) over [0, pi/2] = 1/2
    oracle, _ = integrate.quad(
        lambda t: np.cos(t) ** 2 * np.sin(2 * t), 0.0, np.pi / 2)
    model = NoiseModel(BLOCH_UNIFORM, 1.0, 2)
    w = _draw(model, seed=3, trials=10**6)
    cos2 = np.abs(w[:, 0]) ** 2
    assert cos2.mean() == pytest.approx(oracle, abs=0.005)
    assert oracle == pytest.approx(0.5, abs=1e-12)


def test_single_phase_structure():
    model = NoiseModel(SINGLE_PHASE, 2.0, 2)
    w = draw_noise_block(model, chunk_rng(4, 0, 0), 100)
    assert np.all(w[:, 0] == 0)
    assert np.allclose(np.abs(w[:, 1]), 2.0, atol=1e-12)


def test_anticorrelated_phase_structure():
    model = NoiseModel(ANTICORRELATED_PHASE, 1.0, 2)
    w = draw_noise_block(model, chunk_rng(5, 0, 0), 100)
    assert np.allclose(w[:, 0], -w[:, 1], atol=1e-15)
    assert np.allclose(np.abs(w[:, 0]), 1.0 / SQRT2, atol=1e-12)


def test_per_trial_reproducibility_is_order_independent():
    model = NoiseModel(SPHERE, 1.0, 4)
    block = _draw(model, seed=11, trials=200000)
    # Trial t is row t % CHUNK of chunk t // CHUNK, and a draw that ends at
    # that row sees the value a draw of all the trials sees.
    for trial in (0, 1, 70000, 2 * CHUNK - 1, 2 * CHUNK, 199999):
        chunk, row = trial // CHUNK, trial % CHUNK
        single = draw_noise_block(model, chunk_rng(11, 0, chunk), row + 1)
        assert np.array_equal(single[row], block[trial])
    # Both sides of the boundary between chunks 0 and 1.
    assert np.array_equal(draw_noise_block(model, chunk_rng(11, 0, 0),
                                           CHUNK)[-6:],
                          block[CHUNK - 6:CHUNK])
    assert np.array_equal(draw_noise_block(model, chunk_rng(11, 0, 1), 6),
                          block[CHUNK:CHUNK + 6])


def test_streams_are_independent():
    model = NoiseModel(GAUSSIAN, 1.0, 2)
    a = draw_noise_block(model, chunk_rng(11, 0, 0), 10)
    b = draw_noise_block(model, chunk_rng(11, 1, 0), 10)
    assert not np.allclose(a, b)


@pytest.mark.parametrize("kind,expected", [(GAUSSIAN, 1.0), (SPHERE, 0.5)])
def test_unitary_invariance_of_noise(kind, expected):
    # Uw has the same per-component second moments as w.
    model = NoiseModel(kind, 1.0, 2)
    n = 10**5
    w = _draw(model, seed=6, trials=n)
    for u in (linalg.H, linalg.V, linalg.W_PLUS):
        uw = w @ u.T
        for vecs in (w, uw):
            m2 = np.abs(vecs) ** 2
            se = m2.std(axis=0) / np.sqrt(n)
            assert np.all(np.abs(m2.mean(axis=0) - expected) < 5 * se)


def test_realize_zero_noise():
    model = NoiseModel(GAUSSIAN, 0.0, 2)
    a = realize_block(noise.signal(np.array([1.0, 0.0]), 1.0), model,
                      chunk_rng(0, 0, 0), 1)
    assert np.allclose(a, [[1.0, 0.0]], atol=1e-15)


def test_realize_rejects_unnormalized_state():
    # realize_block takes a checked signal: the check is signal's, made once
    # per ensemble before any noise is drawn.
    model = NoiseModel(GAUSSIAN, 1.0, 2)
    with pytest.raises(UnnormalizedState):
        noise.signal(np.array([1.0, 1.0]), 1.0)
    with pytest.raises(UnnormalizedState):
        estimate(np.array([1.0, 1.0]), 1.0, model, 1.0, trials=1, seed=0)


def test_check_seed_takes_integers_only(monkeypatch):
    # A float or a string is refused, as SeedSequence refuses it, before any
    # draw; it used to be truncated, so seed=1.5 and '1' drew as seed=1.
    monkeypatch.setattr(noise, "chunk_rng", None)  # any draw would fail
    model = NoiseModel(GAUSSIAN, 1.0, 2)
    for seed in (1.5, "1", 1.0, np.float64(1.0)):
        with pytest.raises(TypeError, match="cannot be interpreted"):
            noise.check_seed(seed)
        with pytest.raises(TypeError, match="cannot be interpreted"):
            estimate(np.array([0.6, 0.8]), 1.0, model, 1.0, 10, seed)
    for seed in (2**64 - 1, np.uint64(2**64 - 1)):
        assert type(noise.check_seed(seed)) is int
        assert noise.check_seed(seed) == 2**64 - 1
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="outside"):
            noise.check_seed(seed)


def test_inject_reproduces_printed_magnitudes():
    w = np.array([0.2197 - 0.7169j, -0.5290 + 0.3974j])
    a = inject(np.array([1.0, 0.0]), SQRT2 - 1.0, w)
    assert np.abs(a[0]) == pytest.approx(0.9570, abs=5e-5)
    assert np.abs(a[1]) == pytest.approx(0.6616, abs=5e-5)


def test_inject_reproduces_bell_state_realization():
    w_plus_signal = np.array([-0.165 + 0.2046j, 0.8316 + 0.6696j,
                              0.5690 - 0.2230j, 0.2321 - 0.1111j])
    alpha = np.array([0, 1, 1, 0]) / SQRT2
    # The printed vector already includes the signal: subtracting it must
    # leave a noise vector on the sigma-sphere.
    w = w_plus_signal - (SQRT2 - 1.0) * alpha
    assert np.linalg.norm(w) == pytest.approx(1.0, abs=5e-4)
    assert np.allclose(inject(alpha, SQRT2 - 1.0, w), w_plus_signal)


def test_negative_signal_strength_rejected():
    model = NoiseModel(GAUSSIAN, 1.0, 2)
    alpha = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="signal strength"):
        inject(alpha, -1.0, np.array([0.2, 0.1]))
    with pytest.raises(ValueError, match="signal strength"):
        noise.signal(alpha, -1.0)
    with pytest.raises(ValueError, match="signal strength"):
        estimate(alpha, -1.0, model, 1.0, trials=1, seed=0)


def test_load_vector(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("# comment\n0.5,-0.25\n1.0,0.0\n")
    v = noise.load_vector(path)
    assert np.array_equal(v, [0.5 - 0.25j, 1.0 + 0.0j])


def test_realize_block_matches_single_draws():
    model = NoiseModel(SPHERE, 1.0, 2)
    alpha = np.array([1.0, 0.0])
    sa = noise.signal(alpha, 0.5)
    block = realize_block(sa, model, chunk_rng(9, 0, 0), 8)
    for row in range(5, 8):
        single = realize_block(sa, model, chunk_rng(9, 0, 0), row + 1)
        assert np.array_equal(single[row], block[row])


# Every noise family, with an odd and an even dimension where both exist.
PREFIX_MODELS = (
    NoiseModel(GAUSSIAN, 1.3, 3),
    NoiseModel(SPHERE, 1.0, 2),
    NoiseModel(SPHERE, 0.7, 4),
    NoiseModel(SINGLE_PHASE, 1.0, 2),
    NoiseModel(ANTICORRELATED_PHASE, 2.0, 2),
    NoiseModel(BLOCH_UNIFORM, 1.0, 2),
)


@functools.lru_cache(maxsize=8)
def _full_chunk(model, seed, stream, chunk_index):
    return draw_noise_block(model, chunk_rng(seed, stream, chunk_index), CHUNK)


@settings(max_examples=60, deadline=None)
@given(model=st.sampled_from(PREFIX_MODELS),
       chunk=st.integers(min_value=0, max_value=2),
       rows=st.integers(min_value=0, max_value=CHUNK),
       seed=st.sampled_from([0, 20140731, 2**64 - 1]))
@example(model=PREFIX_MODELS[2], chunk=0, rows=CHUNK - 1, seed=0)
@example(model=PREFIX_MODELS[0], chunk=1, rows=0, seed=0)
@example(model=PREFIX_MODELS[5], chunk=0, rows=1, seed=20140731)
def test_block_equals_slice_of_full_chunk_draws(model, chunk, rows, seed):
    # Drawing only a chunk's leading rows must give bit-for-bit the values a
    # full-chunk draw gives those rows, for every family and row count, and
    # the next draw from the same generator the rows after them.
    stream = 3
    rng = chunk_rng(seed, stream, chunk)
    block = draw_noise_block(model, rng, rows)
    rest = draw_noise_block(model, rng, CHUNK - rows)
    assert block.shape == (rows, model.dim)
    full = _full_chunk(model, seed, stream, chunk)
    assert block.tobytes() == full[:rows].tobytes()
    assert rest.tobytes() == full[rows:].tobytes()


@pytest.mark.parametrize("model", PREFIX_MODELS)
def test_consecutive_blocks_join_into_the_full_chunk_draw(model):
    # A chunk job draws its chunk in blocks from one generator; split after
    # 1, 8192 (a d=4 block) or 16383 rows, or at all three, the blocks give
    # the bytes of one full-chunk draw.
    full = _full_chunk(model, 20140731, 3, 1)
    for splits in ([1], [8192], [CHUNK - 1], [1, 8192, CHUNK - 1]):
        rng = chunk_rng(20140731, 3, 1)
        bounds = [0, *splits, CHUNK]
        blocks = [draw_noise_block(model, rng, hi - lo)
                  for lo, hi in zip(bounds, bounds[1:])]
        assert [len(b) for b in blocks] == np.diff(bounds).tolist()
        assert np.concatenate(blocks).tobytes() == full.tobytes(), splits


def _sphere_chunk(sigma, dim, seed, stream, chunk_index):
    model = NoiseModel(SPHERE, sigma, dim)
    return draw_noise_block(model, chunk_rng(seed, stream, chunk_index), CHUNK)


@pytest.mark.parametrize("kind", [BLOCH_UNIFORM, SINGLE_PHASE,
                                  ANTICORRELATED_PHASE])
@pytest.mark.parametrize("sigma", [1.0, 0.7, 2.3])
def test_two_dim_noise_is_the_sphere_draw(kind, sigma):
    # bloch_uniform is the d=2 sphere draw; the phase families take their
    # phase factor from the d=1 sphere draw.  Signed zeros included: the
    # bytes must agree, not just the values.
    model = NoiseModel(kind, sigma, 2)
    for stream in range(3):
        for ci in range(6):
            drawn = draw_noise_block(model, chunk_rng(20140731, stream, ci),
                                     CHUNK)
            if kind == BLOCH_UNIFORM:
                reference = _sphere_chunk(sigma, 2, 20140731, stream, ci)
            elif kind == SINGLE_PHASE:
                reference = np.zeros((CHUNK, 2), dtype=complex)
                reference[:, 1] = noise._clamp_magnitude(
                    _sphere_chunk(sigma, 1, 20140731, stream, ci)[:, 0],
                    sigma)
            else:
                w0 = _sphere_chunk(sigma / np.sqrt(2.0), 1, 20140731, stream,
                                   ci)[:, 0]
                reference = np.stack([w0, -w0], axis=1)
            assert drawn.tobytes() == reference.tobytes(), (stream, ci)


def _clamp_every_entry(values, target):
    # The whole-array loop: re-test every entry after each nudge.
    scale = 1.0 - 2.0**-50
    mask = np.abs(values) > target
    while np.any(mask):
        values[mask] *= scale
        mask = np.abs(values) > target
    return values


@pytest.mark.parametrize("sigma", [1.0, 0.7, 2.3])
def test_clamp_magnitude_equals_the_whole_array_loop(sigma):
    # Re-testing only the entries just nudged gives the same bytes, on the
    # single_phase inputs above, as a (rows, 1) block and as one column.
    for stream in range(3):
        for ci in range(6):
            z = _sphere_chunk(sigma, 1, 20140731, stream, ci)
            assert np.count_nonzero(np.abs(z) > sigma) > 1000
            expected = _clamp_every_entry(z.copy(), sigma).tobytes()
            assert noise._clamp_magnitude(z.copy(), sigma).tobytes() \
                == expected
            assert noise._clamp_magnitude(z[:, 0].copy(), sigma).tobytes() \
                == expected
            assert np.abs(noise._clamp_magnitude(z, sigma)).max() <= sigma


@pytest.mark.parametrize("kind,column,radius", [
    (SINGLE_PHASE, 1, 1.0), (ANTICORRELATED_PHASE, 0, 1.0 / SQRT2)])
def test_phase_families_have_uniform_phases(kind, column, radius):
    # A phase factor u uniform on the circle has E[u^k] = 0 for k >= 1.
    n = 1 << 18
    w = _draw(NoiseModel(kind, 1.0, 2), seed=8, trials=n)
    u = w[:, column] / radius
    for k in (1, 2, 3):
        uk = u ** k
        se = np.sqrt(np.mean(np.abs(uk - uk.mean()) ** 2) / n)
        assert abs(uk.mean()) < 5 * se, k


@pytest.mark.parametrize("model", PREFIX_MODELS)
def test_realize_block_adds_the_signal_bit_for_bit(model):
    # realize_block adds s·alpha one component at a time; a broadcast add
    # of the whole row must give the same bytes.
    alpha = np.exp(0.3j * np.arange(model.dim)) / np.sqrt(model.dim)
    a = realize_block(noise.signal(alpha, 0.7), model, chunk_rng(5, 2, 0),
                      3100)[100:]
    w = draw_noise_block(model, chunk_rng(5, 2, 0), 3100)[100:]
    assert a.tobytes() == (w + 0.7 * alpha).tobytes()


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_seed_range_edges_accepted(seed):
    model = NoiseModel(GAUSSIAN, 1.0, 2)
    assert draw_noise_block(model, chunk_rng(seed, 0, 0), 4).shape == (4, 2)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_range_rejected(seed):
    # Seeds are never reduced mod 2^64: -1 must not alias 2^64 - 1.
    # chunk_rng is the only place a seed becomes a generator.
    with pytest.raises(ValueError, match="outside"):
        chunk_rng(seed, 0, 0)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_load_vector_rejects_non_finite(tmp_path, bad):
    for line in (f"{bad},0", f"0,{bad}"):
        path = tmp_path / "vec.txt"
        path.write_text(f"{line}\n0,0\n")
        with pytest.raises(ValueError, match="non-finite"):
            noise.load_vector(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
def test_inject_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        inject(np.array([1.0, 0.0]), 0.5, np.array([bad, 0.0]))
    with pytest.raises(ValueError, match="non-finite"):
        inject(np.array([bad, 0.0]), 0.5, np.array([0.0, 0.0]))


def test_stream_fingerprint():
    # Every golden digest rests on these streams, and numpy does not promise
    # them across releases (this digest is from numpy 2.4.6).  If this test
    # fails, the random stream changed, not the program.
    rng = chunk_rng(20140731, 3, 1)
    draws = np.concatenate([rng.standard_normal(64), rng.random(64),
                            rng.uniform(0.0, 2.0 * np.pi, 64)])
    assert hashlib.sha256(draws.astype("<f8").tobytes()).hexdigest() == \
        "470e7ecfeccc6413e28f709da975b8671c0ae4a364b5ef9d5272e71b6db2553d"
