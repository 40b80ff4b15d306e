"""End-to-end experiment runs at reduced trial counts."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshdet import (detection, experiments, linalg, noise, probability,
                       tomography)
from threshdet.experiments import (BELL_STATE, BELL_TILTED, JOINT_OBSERVABLES,
                                   LOCAL_PAIRS, LOCAL_SETTINGS,
                                   MAGIC_CONTEXTS, MAGIC_PRODUCTS,
                                   QUANTUM_TILTED, TWO_DIM_SETUPS,
                                   random_state, replay,
                                   run_bell_state_checks, run_chsh_joint,
                                   run_chsh_local, run_magic_square,
                                   run_two_dim_examples)
from threshdet.linalg import Measurement
from threshdet.noise import CHUNK, NoiseModel

TRIALS = 1 << 17  # enough statistics for coarse checks, fast in CI


def test_joint_observable_diagonals():
    expected = {
        "AB": [-1, 1, 1, -1],
        "AB'": [1, -1, -1, 1],
        "A'B": [-1, 1, 1, -1],
        "A'B'": [1, -1, -1, 1],
    }
    for name, m in JOINT_OBSERVABLES.items():
        assert np.allclose(m.values, expected[name], atol=1e-12)


def test_magic_context_products():
    # elementwise triple product equals the expected sign on every component
    for name, m in MAGIC_CONTEXTS.items():
        assert m.values.shape == (4, 3)
        assert np.allclose(m.values.prod(axis=1), MAGIC_PRODUCTS[name]), name
    assert list(MAGIC_PRODUCTS) == list(MAGIC_CONTEXTS)
    assert list(MAGIC_PRODUCTS.values()) == [1, 1, 1, 1, 1, -1]


def test_two_dim_examples_limits():
    by_name = run_two_dim_examples(TRIALS, seed=31)
    assert list(by_name) == list(TWO_DIM_SETUPS)
    sp = by_name["single-phase basis state"]
    # noise alone can never cross; only the signal component can.
    assert sp.P_hat[1] == 0.0 and sp.Pinf_hat == 0.0
    assert sp.P0_hat + sp.P_hat[0] == pytest.approx(1.0)
    ac = by_name["anti-correlated superposition"]
    # symmetric components: equal single-detection rates near 1/2; the
    # double-detection window shrinks to zero as s approaches sigma
    assert ac.P0_hat == 0.0
    assert ac.P_hat[0] == pytest.approx(ac.P_hat[1], abs=0.01)
    assert ac.P_hat[0] == pytest.approx(0.5, abs=0.01)
    assert ac.Pinf_hat < 0.002
    bu = by_name["bloch-uniform basis state"]
    assert bu.P_hat[0] > bu.P_hat[1]
    bs = by_name["bloch-uniform superposition"]
    assert bs.P_hat[0] == pytest.approx(bs.P_hat[1], abs=0.01)


def _assert_s_d_from_records(res):
    # S_D and its error, recomputed from the four records AB, AB', A'B, A'B'.
    m = [st.mean for st in res.stats.values()]
    assert res.s_d == abs(m[0] + m[1]) + abs(m[2] - m[3])
    assert res.s_d_err == sum(1 / np.sqrt(st.n_detected)
                              for st in res.stats.values())


def test_chsh_joint_sphere_violates_classical_bound():
    res = run_chsh_joint(noise.SPHERE, TRIALS, seed=41)
    _assert_s_d_from_records(res)
    assert res.s_d > 2.0 + 10 * res.s_d_err
    assert res.s_d < 4.0
    signs = [np.sign(st.mean) for st in res.stats.values()]
    assert signs == [1.0, 1.0, -1.0, 1.0]


def test_chsh_joint_gaussian_violates_classical_bound():
    res = run_chsh_joint(noise.GAUSSIAN, 1 << 20, seed=41)
    assert res.s_d > 2.0 + 5 * res.s_d_err


def test_chsh_joint_rejects_unsupported_noise():
    with pytest.raises(ValueError):
        run_chsh_joint(noise.SINGLE_PHASE, 100, seed=0)


def test_chsh_local_game():
    res = run_chsh_local(TRIALS, seed=51)
    assert res.s_d > 2.0 + 10 * res.s_d_err
    assert list(res.stats) == list(LOCAL_PAIRS)
    # detection is rare: coincidences are a small fraction of all trials
    assert 0.05 < res.coincidence_fraction < 0.2
    assert 0.0 < res.efficiency < 1.0
    assert res.efficiency == pytest.approx(
        res.coincidence_fraction / res.singles_fraction, rel=1e-12)


def test_chsh_local_gaussian_shows_no_violation():
    res = run_chsh_local(TRIALS, seed=51, noise_kind=noise.GAUSSIAN)
    assert res.s_d < 2.0


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**64 - 1),
       noise_kind=st.sampled_from([noise.SPHERE, noise.GAUSSIAN]))
def test_chsh_local_obeys_detection_loophole_bound(seed, noise_kind):
    # chsh-local is a local hidden-variable model, so it can pass 2 only
    # through the detection loophole: S_D <= 4/eta - 2 with
    # eta = 2e/(1+e) (Garg & Mermin 1987; Larsson 1998).
    res = run_chsh_local(1 << 14, seed, noise_kind=noise_kind)
    eta = 2.0 * res.efficiency / (1.0 + res.efficiency)
    assert res.s_d <= 4.0 / eta - 2.0


def test_magic_square_no_violations_and_empty_overlap():
    res = run_magic_square(num_states=8, trials_per_state=1 << 12, seed=61)
    assert res.violation_count == 0
    assert res.six_way_overlap == 0
    assert all(stat.n_detected > 0 for stat in res.stats.values())


def test_magic_square_violation_counter_counts(monkeypatch):
    # C3's three values multiply to -1 on every component, so requiring +1
    # makes every C3 detection a violation, and no other context's.
    monkeypatch.setitem(experiments.MAGIC_PRODUCTS, "C3", +1)
    res = run_magic_square(num_states=2, trials_per_state=1 << 12, seed=61)
    assert res.violation_count == res.stats["C3"].n_detected > 0


def test_magic_square_memory_does_not_grow_with_states():
    # All states share one 46 656-cell total, added into as each job ends:
    # 32 states peak within 2 MB of 2.  A total per state, or every job's
    # histogram kept until the map ends, would add about 11.9 MB.  One
    # worker runs the same job closure as a pool, with one job alive at a
    # time; on a pool the peak would also count how many jobs overlap.
    run_magic_square(2, 1 << 14, 7, workers=1)  # warm: tables
    peaks = []
    tracemalloc.start()
    try:
        for states in (2, 32):
            tracemalloc.reset_peak()
            run_magic_square(states, 1 << 14, 7, workers=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 2 << 20, peaks


def test_magic_square_rejects_zero_states():
    with pytest.raises(ValueError):
        run_magic_square(num_states=0, trials_per_state=10, seed=61)


def test_random_state_is_normalized_and_deterministic():
    s1 = random_state(7, 3)
    s2 = random_state(7, 3)
    assert np.array_equal(s1, s2)
    assert np.linalg.norm(s1) == pytest.approx(1.0, rel=1e-12)
    assert not np.allclose(s1, random_state(7, 4))


def test_bell_state_checks():
    standard, tilted = run_bell_state_checks(TRIALS, seed=71)
    # perfect anti-correlation in the standard basis
    assert standard.counts[0] == 0 and standard.counts[3] == 0
    assert standard.p_hat[1] == pytest.approx(0.5, abs=0.02)
    # tilted-basis frequencies differ from the quantum weights but keep the
    # coarse structure: outer components rare, inner components dominant
    assert tilted.p_hat[0] == pytest.approx(tilted.p_hat[3], abs=0.01)
    assert tilted.p_hat[0] < 0.1
    assert 0.4 < tilted.p_hat[1] < 0.5
    assert 0.4 < tilted.p_hat[2] < 0.5
    assert QUANTUM_TILTED == pytest.approx(
        [0.0732233, 0.4267767, 0.4267767, 0.0732233], abs=1e-6)
    assert QUANTUM_TILTED.sum() == pytest.approx(1.0, rel=1e-12)
    assert np.abs(tilted.p_hat - QUANTUM_TILTED).max() > 0.02


def test_local_violation_below_joint():
    joint = run_chsh_joint(noise.SPHERE, TRIALS, seed=81)
    local = run_chsh_local(TRIALS, seed=81)
    assert local.s_d < joint.s_d


def test_bell_state_is_normalized():
    assert np.linalg.norm(BELL_STATE) == pytest.approx(1.0, rel=1e-15)


def test_worker_invariance_of_experiment_runs():
    one = run_magic_square(2, 1 << 12, seed=91, workers=1)
    four = run_magic_square(2, 1 << 12, seed=91, workers=4)
    assert (one.violation_count, one.six_way_overlap) \
        == (four.violation_count, four.six_way_overlap)
    assert all(np.array_equal(a.hist, b.hist)
               for a, b in zip(one.stats.values(), four.stats.values()))
    l1 = run_chsh_local(1 << 16, seed=91, workers=1)
    l4 = run_chsh_local(1 << 16, seed=91, workers=4)
    assert l1.s_d == l4.s_d
    assert all(np.array_equal(a.hist, b.hist)
               for a, b in zip(l1.stats.values(), l4.stats.values()))


def _codes(alpha, stream, seed, trials, table, names):
    # Codes of each named measurement of ``table`` on the stream's trials.
    model = NoiseModel(noise.SPHERE, 1.0, 4)
    sa = noise.signal(alpha, noise.S_BOUNDED)
    blocks = [noise.realize_block(sa, model,
                                  noise.chunk_rng(seed, stream, chunk),
                                  min(CHUNK, trials - chunk * CHUNK))
              for chunk in range(-(-trials // CHUNK))]
    return [np.concatenate([detection.detect_observable_block(a, table[name],
                                                              1.0)
                            for a in blocks]).tolist()
            for name in names]


@pytest.mark.parametrize("workers", [1, 2])
def test_chsh_local_recounts_row_by_row(workers):
    # The pair counts and the fractions, recounted trial by trial from the
    # two parties' codes, past a chunk boundary.
    trials, seed = CHUNK + 3, 93
    res = run_chsh_local(trials, seed, workers=workers)
    singles = coincidences = 0
    for i, (pair, stat) in enumerate(res.stats.items()):
        counts = [0, 0, 0, 0]
        for ca, cb in zip(*_codes(BELL_STATE, experiments._STREAM_LOCAL_BASE
                                  + i, seed, trials, LOCAL_SETTINGS, pair)):
            singles += ca >= 0 or cb >= 0
            if ca >= 0 and cb >= 0:
                counts[2 * ca + cb] += 1
        n = sum(counts)
        assert stat.counts.tolist() == counts
        assert stat.n_detected == n
        assert stat.no_detection == trials - n
        # Pair values are the product of the parties' values; the mean is
        # their dot product with the frequencies, bit for bit, and within
        # 4 ulp of the exact integer numerator over n.
        assert stat.values.tolist() == [1, -1, -1, 1]
        assert stat.mean == float(np.dot([1, -1, -1, 1],
                                         np.array(counts) / n))
        exact = (counts[0] - counts[1] - counts[2] + counts[3]) / n
        assert abs(stat.mean - exact) <= 4 * np.spacing(abs(exact))
        coincidences += n
    n_total = trials * len(LOCAL_PAIRS)
    assert res.singles_fraction == singles / n_total
    assert res.coincidence_fraction == coincidences / n_total
    _assert_s_d_from_records(res)


@pytest.mark.parametrize("workers", [1, 2])
def test_magic_square_recounts_row_by_row(workers):
    # Context detections and the six-way overlap, recounted trial by trial.
    states, trials, seed = 2, CHUNK + 3, 95
    res = run_magic_square(states, trials, seed, workers=workers)
    detections = dict.fromkeys(MAGIC_CONTEXTS, 0)
    counts = {name: [0, 0, 0, 0] for name in MAGIC_CONTEXTS}
    overlap = 0
    for i in range(states):
        codes = _codes(random_state(seed, i),
                       experiments._STREAM_MAGIC_NOISE_BASE + i, seed, trials,
                       MAGIC_CONTEXTS, MAGIC_CONTEXTS)
        for row in zip(*codes):
            for name, code in zip(MAGIC_CONTEXTS, row):
                detections[name] += code >= 0
                if code >= 0:
                    counts[name][code] += 1
            overlap += all(code >= 0 for code in row)
    assert {name: stat.n_detected for name, stat in res.stats.items()} \
        == detections
    for name, stat in res.stats.items():
        assert stat.counts.tolist() == counts[name]
        assert stat.hist.sum() == states * trials
    assert res.six_way_overlap == overlap


# Every shipped measurement table; the measurements of one table share a
# dimension.
TABLES = {
    "basis-4": {"basis": Measurement(np.eye(4))},
    "magic": MAGIC_CONTEXTS,
    "local": LOCAL_SETTINGS,
    "joint": JOINT_OBSERVABLES,
    "tilted": {"tilted": BELL_TILTED},
    "basis-2": {"basis": Measurement(np.eye(2))},
    "pauli": linalg.PAULI_SPECS,
    "bplus": {"B+": tomography.BPLUS},
}
REPLAY_MODELS = {4: (NoiseModel(noise.SPHERE, 1.0, 4),
                     NoiseModel(noise.GAUSSIAN, 1.0, 4)),
                 2: (NoiseModel(noise.SPHERE, 1.0, 2),
                     NoiseModel(noise.GAUSSIAN, 1.0, 2))}


def test_replay_tables_cover_every_shipped_measurement():
    # Every Measurement a module holds, alone or in a table, is replayed.
    shipped = {id(m) for module in (linalg, experiments, tomography)
               for value in vars(module).values()
               for m in (value.values() if isinstance(value, dict)
                         else [value])
               if isinstance(m, Measurement)}
    assert shipped <= {id(m) for t in TABLES.values() for m in t.values()}


@settings(max_examples=160, deadline=None)
@given(table=st.sampled_from(sorted(TABLES)), data=st.data(),
       seed=st.sampled_from([0, 20140731, 2**64 - 1]),
       start=st.one_of(st.integers(0, 64),
                       st.integers(CHUNK - 3, CHUNK + 1)),
       gamma=st.floats(0.0, 1.5),
       design=st.booleans())
def test_replay_of_a_drawn_trial_matches_the_simulation(table, data, seed,
                                                        start, gamma, design):
    # Replaying trial t through inject and the single-vector measurement
    # gives, for every measurement of every table, the outcome the block
    # kernel of a Monte Carlo run gives row t, within a chunk and across its
    # boundary.
    measurements = TABLES[table]
    dim = next(iter(measurements.values())).dim
    model = data.draw(st.sampled_from(REPLAY_MODELS[dim]))
    if dim == 4:
        alpha = BELL_STATE if design else random_state(seed, 0)
    else:
        alpha = np.array([1.0, 0.0]) if design else np.array([0.6, 0.8j])
    s, count, stream = np.sqrt(2.0) - 1.0, 3, 7
    sa = noise.signal(alpha, s)
    for trial in range(start, start + count):
        # Trial t is row t % CHUNK of chunk t // CHUNK: the last row of a
        # run of t + 1 trials.
        chunk, row = trial // CHUNK, trial % CHUNK
        block = noise.realize_block(sa, model,
                                    noise.chunk_rng(seed, stream, chunk),
                                    row + 1)
        w = noise.draw_noise_block(model, noise.chunk_rng(seed, stream, chunk),
                                   row + 1)[row]
        a = noise.inject(alpha, s, w)
        assert replay(a, measurements, gamma=gamma) == {
            name: int(detection.detect_observable_block(block, m, gamma)[row])
            for name, m in measurements.items()}


# Each run and its pool jobs, at two chunks per ensemble.
_TWO_CHUNKS = CHUNK + 1
_MAP_RUNS = {
    "chsh-joint sphere": (lambda: run_chsh_joint(
        noise.SPHERE, _TWO_CHUNKS, 3, workers=2), 4 * 2),
    "chsh-joint gaussian": (lambda: run_chsh_joint(
        noise.GAUSSIAN, _TWO_CHUNKS, 3, workers=2), 4 * 2),
    "chsh-local": (lambda: run_chsh_local(_TWO_CHUNKS, 3, workers=2), 4 * 2),
    "magic-square": (lambda: run_magic_square(3, _TWO_CHUNKS, 3, workers=2),
                     3 * 2),
    "two-dim": (lambda: run_two_dim_examples(_TWO_CHUNKS, 3, workers=2),
                4 * 2),
    "bell-state": (lambda: run_bell_state_checks(_TWO_CHUNKS, 3, workers=2),
                   2 * 2),
    "tomography": (lambda: tomography.infer_state(
        np.array([0.6, 0.8]), np.sqrt(2.0) - 1.0,
        NoiseModel(noise.SPHERE, 1.0, 2), 1.0, _TWO_CHUNKS, 3, workers=2),
        3 * 2),
}


@pytest.mark.parametrize("name", _MAP_RUNS)
def test_each_run_makes_one_pool_map(name):
    # All of a run's tallies go through one tally_chunks call, so one map
    # and one barrier, however many ensembles and measurements it has.
    run, jobs = _MAP_RUNS[name]
    calls = []
    real = probability.map_chunks

    def spy(fn, chunk_jobs, workers=1):
        chunk_jobs = list(chunk_jobs)
        calls.append(len(chunk_jobs))
        return real(fn, chunk_jobs, workers)

    with mock.patch.object(probability, "map_chunks", spy):
        run()
    assert calls == [jobs]
