"""Estimator accounting identities and the analytic Gaussian oracle."""

import contextlib
import csv
import ctypes
import json
import math
import mmap
import os
import platform
import re
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special

import threshdet
from threshdet import detection, noise, probability
from threshdet.cli import main
from threshdet.experiments import (BELL_STATE, CHSH_JOINT_PARAMS,
                                   JOINT_OBSERVABLES, LOCAL_PAIRS,
                                   LOCAL_SETTINGS, MAGIC_CONTEXTS,
                                   random_state, run_chsh_joint,
                                   run_magic_square, run_two_dim_examples)
from threshdet.linalg import PAULI_SPECS, H, Measurement
from threshdet.noise import CHUNK, GAUSSIAN, SPHERE, NoiseModel
from threshdet.probability import (DetectionStats, NoExactLaw,
                                   detection_probs, estimate, exact_hists,
                                   marcum_q1, single_detection_probs)

SQRT2 = np.sqrt(2.0)


def _q1_quadrature(a, b):
    # Independent oracle: integrate the Rician density tail directly, using
    # the exponentially scaled Bessel function for stability.
    val, _ = integrate.quad(
        lambda x: x * np.exp(-0.5 * (x - a) ** 2) * special.i0e(a * x),
        b, np.inf, limit=200)
    return val


def test_marcum_against_quadrature_grid():
    for a in (0.1, 0.5, 1.0, 2.0, 4.0):
        for b in (0.2, 1.0, 2.5, 5.0):
            assert marcum_q1(a, b) == pytest.approx(_q1_quadrature(a, b),
                                                    abs=1e-10)


def test_marcum_limits():
    assert marcum_q1(3.0, 0.0) == 1.0
    assert marcum_q1(0.0, 2.0) == pytest.approx(np.exp(-2.0), abs=1e-15)
    with pytest.raises(ValueError):
        marcum_q1(-1.0, 1.0)


def _criterion_10_cells():
    # The (a, b) pairs of criterion 10's oracle grid.
    alpha, sigma = np.array([0.8, 0.6]), 1.0
    for s in (0.5, 1.0, 2.0):
        for gamma in (2.0, 3.0, 4.0):
            b = np.sqrt(2.0) * gamma / sigma
            for lam in 2.0 * np.abs(s * alpha / sigma) ** 2:
                yield np.sqrt(lam), b


# (a, b, Q1(a, b), 1 - Q1(a, b)), the last two 50-digit sums rounded to
# double, from make_marcum_table.py.
MARCUM_TABLE = [tuple(map(float, row)) for row in csv.reader(
    (Path(__file__).with_name("marcum_q1_table.csv")
     .read_text().splitlines()[2:]))]


def test_marcum_matches_high_precision_table():
    # Q and 1 - Q each within 1e-12 relative, or within the smallest normal
    # double where that is wider (below 2.2e-296): on criterion 10's cells,
    # a/b within 1e-9 of 1 and both tails out past underflow.
    assert len(MARCUM_TABLE) > 100
    got = [probability._marcum(a, b) for a, b, *_ in MARCUM_TABLE]
    for (a, b, q, f), qf in zip(MARCUM_TABLE, got):
        assert qf == pytest.approx((q, f), rel=1e-12,
                                   abs=sys.float_info.min), (a, b)
    # The table holds both tails to 1e-12 relative below 1e-280, and goes
    # on past underflow...
    for tail in np.array(MARCUM_TABLE)[:, 2:].T:
        assert ((1e12 * sys.float_info.min < tail) & (tail < 1e-280)).any()
        assert ((0 < tail) & (tail < sys.float_info.min)).any()
    # ...and a/b within 1e-9 of 1.
    assert sum(0 < abs(a / b - 1) < 2e-9 for a, b, *_ in MARCUM_TABLE
               if b) >= 10
    # marcum_q1 is its Q, in array form too (on the cheap rows).
    a, b = np.array(MARCUM_TABLE)[:60, :2].T
    assert marcum_q1(a, b).tolist() == [q for q, _ in got[:60]]


def test_marcum_near_public_ncx2_sf():
    # scipy's ncx2 (Boost) is accurate here for Q1 and its complement
    # alike: on a 4x finer grid they agreed within 1.7e-14 relative.
    from scipy import stats

    grid_a, grid_b = np.meshgrid(np.linspace(0.0, 10.0, 11)[1:],
                                 np.linspace(0.0, 12.0, 13), indexing="ij")
    a, b = np.array([*zip(grid_a.ravel(), grid_b.ravel()),
                     *_criterion_10_cells()]).T
    q, f = np.array([probability._marcum(x, y) for x, y in zip(a, b)]).T
    assert q == pytest.approx(stats.ncx2.sf(b * b, 2, a * a), rel=1e-13)
    assert f == pytest.approx(stats.ncx2.cdf(b * b, 2, a * a), rel=1e-13)


def test_marcum_special_cases_hold_elementwise():
    # Each cell of an array call takes the branch a scalar call would.
    a = np.array([3.0, 0.0, 1.0, 0.0, 2.0])
    b = np.array([0.0, 2.0, 60.0, 0.0, 1.0])
    q = marcum_q1(a, b)
    assert [marcum_q1(x, y) for x, y in zip(a, b)] == q.tolist()
    # b = 0 gives exactly 1, a = 0 the closed form exp(-b²/2), and windows
    # that do not overlap exactly 0.
    assert q[[0, 2, 3]].tolist() == [1.0, 0.0, 1.0]
    assert q[1] == pytest.approx(math.exp(-2.0), rel=1e-15)
    # A signal whose a²/2 is below 1e-300 counts as none.
    assert marcum_q1(1e-161, 2.0) == q[1]
    assert marcum_q1(1e-161, 1e-161) == 1.0
    assert probability._marcum(1.0, 60.0) == (0.0, 1.0)
    assert probability._marcum(60.0, 1.0) == (1.0, 0.0)
    # One bad cell rejects the call, and names itself.
    with pytest.raises(ValueError, match="finite"):
        marcum_q1([1.0, np.nan], 1.0)
    with pytest.raises(ValueError, match="non-negative"):
        marcum_q1(1.0, [1.0, -1.0])
    with pytest.raises(ValueError, match=r"a=1197\.0, b=1\.0"):
        marcum_q1([1.0, 1197.0], 1.0)


@pytest.mark.parametrize("a, b", [(np.nan, 1.0), (np.inf, 1.0),
                                  (1.0, np.nan), (1.0, np.inf),
                                  (0.0, np.inf), (np.nan, 0.0),
                                  (-np.inf, 1.0)])
def test_marcum_and_bounds_reject_non_finite(a, b):
    with pytest.raises(ValueError, match="finite"):
        marcum_q1(a, b)


def test_marcum_rejects_a_past_the_window_limit():
    # Past a = 1196.41 the Poisson window of a²/2 holds more than 2^16
    # terms, even at b = 1 where Q1 is 1 to double precision; so past
    # b = 1196.41, or past a²/2 = inf.
    assert marcum_q1(1196.0, 1.0) == 1.0
    for a, b in [(1197.0, 1.0), (1.0, 1197.0), (1e155, 1.0)]:
        with pytest.raises(ValueError,
                           match=re.escape(f"a={a}, b={b}: its Poisson")):
            marcum_q1(a, b)


def test_stats_outcome_accounting():
    # hist: multiple, none, then one cell per group.
    stats = DetectionStats(np.array([10, 40, 30, 20]))
    assert stats.n_detected == 50
    assert stats.detection_fraction == 0.5
    assert stats.p_hat == pytest.approx([0.6, 0.4])
    assert stats.P_hat == pytest.approx([0.3, 0.2])
    assert stats.P0_hat == 0.4 and stats.Pinf_hat == 0.1


def test_stats_mean_requires_values():
    stats = DetectionStats(np.array([0, 0, 3, 1]), values=[1.0, -1.0])
    assert stats.mean == pytest.approx(0.5)
    assert stats.mean_stderr == pytest.approx(0.5)
    bare = DetectionStats(np.array([0, 0, 1, 0]))
    with pytest.raises(ValueError):
        bare.mean


def test_stats_of_a_float_histogram_are_probabilities():
    # An exact record's cells are probabilities: nothing rounds to a count.
    stats = DetectionStats(np.array([0.1, 0.4, 0.3, 0.2]), values=[1.0, -1.0])
    assert stats.trials == pytest.approx(1.0)
    assert stats.n_detected == pytest.approx(0.5)
    assert stats.no_detection == 0.4 and stats.multiple_detections == 0.1
    assert stats.p_hat == pytest.approx([0.6, 0.4])
    assert stats.mean == pytest.approx(0.2)


def test_no_detections_yields_nan_frequencies():
    stats = DetectionStats(np.array([0, 10, 0, 0]))
    assert np.all(np.isnan(stats.p_hat))
    assert stats.mean_stderr == np.inf


def test_estimate_counts_sum_to_trials():
    model = NoiseModel(GAUSSIAN, 1.0, 2)
    stats = estimate(np.array([0.6, 0.8]), 1.0, model, 3.0,
                     trials=200_000, seed=77)
    assert stats.counts.sum() + stats.no_detection \
        + stats.multiple_detections == 200_000


def test_estimate_worker_invariance():
    model = NoiseModel(SPHERE, 1.0, 2)
    kw = dict(gamma=1.0, trials=3 * (1 << 16) + 123, seed=5)
    alpha = np.array([1.0, 0.0])
    one = estimate(alpha, SQRT2 - 1.0, model, workers=1, **kw)
    four = estimate(alpha, SQRT2 - 1.0, model, workers=4, **kw)
    assert np.array_equal(one.counts, four.counts)
    assert one.no_detection == four.no_detection


def test_estimate_tallies_the_measurement_it_is_given():
    # Two groups of a 4-dim measurement give two counts, and the mean is
    # weighted by the measurement's values.
    model = NoiseModel(SPHERE, 1.0, 4)
    alpha = np.array([1.0, 0.0, 0.0, 0.0])
    m = Measurement(np.eye(4), ((0, 1), (2, 3)), (1.0, -1.0))
    stats = estimate(alpha, SQRT2 - 1.0, model, 1.0, 20_000, 3,
                     measurement=m)
    assert stats.counts.shape == (2,)
    assert stats.mean == pytest.approx(stats.p_hat[0] - stats.p_hat[1])
    standard = estimate(alpha, SQRT2 - 1.0, model, 1.0, 20_000, 3)
    assert standard.counts.shape == (4,) and standard.values is None
    with pytest.raises(ValueError, match="no values"):
        standard.mean


def test_estimate_rejects_invalid_measurements():
    model = NoiseModel(GAUSSIAN, 1.0, 2)
    alpha = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="dimension 4 on a noise model "
                                         "of dimension 2"):
        estimate(alpha, 1.0, model, 1.0, 100, 0,
                 measurement=Measurement(np.eye(4)))
    # Checked when the measurement is built, before any noise is drawn.
    with pytest.raises(ValueError, match="unitarity"):
        estimate(alpha, 1.0, model, 1.0, 100, 0,
                 measurement=Measurement(np.ones((2, 2)), values=[1, -1]))
    with pytest.raises(ValueError, match="value row per group"):
        estimate(alpha, 1.0, model, 1.0, 100, 0,
                 measurement=Measurement(H, values=[1, -1, 0]))


# (alpha, s, gamma, unitary) at sigma = 1 of the Monte Carlo comparison.
U3 = np.linalg.qr(np.arange(9.0).reshape(3, 3) + 1j * np.eye(3))[0]
ORACLE_STATES = [
    ([0.8, 0.6], 1.0, 3.0, None), ([0.6, 0.64, 0.48], 2.0, 2.0, None),
    ([0.1, 0.3, 0.5, np.sqrt(0.65)], 2.0, 2.0, None),
    ([0.6, 0.64j, 0.48], 2.0, 2.0, U3)]


def test_oracle_is_the_per_component_formula():
    # The old per-component formula, F_i = 1 - Q1 and P_n = (1 - F_n) *
    # prod_{i != n} F_i, loses relative accuracy as F_i or Q_i nears 0,
    # about 1e-16 / min(F_i, Q_i).  Where that is at most 1e-12, it agrees
    # with the oracle within that bound, on every state the oracle tests
    # below and criterion 10 use, all at sigma = 1.
    states = [(np.array(alpha) if u is None else alpha @ np.conj(u), s, g)
              for alpha, s, g, u in ORACLE_STATES]
    states += [([0.8, 0.6], s, g) for s in (0.5, 1.0, 2.0)
               for g in (2.0, 3.0, 4.0)]
    states += [(np.eye(dim)[0], 0.0, 1.5) for dim in (2, 3, 4)]
    states += [(np.array([1.0, 1.0, 0.0, 0.0]) / SQRT2, 1.0, g)
               for g in (2.0, 3.0, 4.0)]
    states += [([0.6, 0.8], 1.0, g)
               for g in (1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0)]
    compared = 0
    for beta, s, gamma in states:
        sa = s * np.asarray(beta, dtype=complex)
        q = marcum_q1(np.sqrt(2.0 * np.abs(sa) ** 2), np.sqrt(2.0) * gamma)
        f = 1.0 - q
        bound = 1e-16 / min(f.min(), q.min())
        if bound > 1e-12:
            continue
        compared += 1
        old = np.array([(1.0 - f[n]) * np.prod(np.delete(f, n))
                        for n in range(len(f))])
        assert single_detection_probs(beta, s, 1.0, gamma) == \
            pytest.approx(old, rel=bound, abs=0)
        cells = detection_probs(beta, s, 1.0, gamma)
        assert cells[1:] == pytest.approx([np.prod(f), *old], rel=bound,
                                          abs=0)
    assert compared >= 15


def test_oracle_cells_are_probabilities():
    # Every cell >= 0 and the cells sum to 1 within 1e-15: on criterion
    # 10's grid, on each point of the Marcum table as the first component
    # of a qubit (a = sqrt(2) s, b = sqrt(2) gamma at sigma = 1), on one
    # state where P_inf ~ 1 and on the cells of the small-cell regression.
    states = [([0.8, 0.6], s, g) for s in (0.5, 1.0, 2.0)
              for g in (2.0, 3.0, 4.0)]
    states += [([1.0, 0.0], a / SQRT2, b / SQRT2)
               for a, b, *_ in MARCUM_TABLE if max(a, b) < 100]
    states += [(np.array([1.0, 1.0]) / SQRT2, 10.0, 1.0),
               ([0.8, 0.6], 10.0, 2.0)]
    for beta, s, gamma in states:
        cells = detection_probs(beta, s, 1.0, gamma)
        assert (cells >= 0.0).all(), (beta, s, gamma)
        assert abs(cells.sum() - 1.0) <= 1e-15, (beta, s, gamma)
    beta, s, gamma = states[-2]
    assert detection_probs(beta, s, 1.0, gamma)[0] > 1.0 - 1e-12


def test_oracle_small_cells_keep_their_relative_accuracy(tmp_path):
    # Component 1 of `oracle --alpha 0.8,0.6 --s 10 --gamma 2` stays below
    # gamma with probability 5.3e-18, and 1 - Q1 used to round that to 0.
    # Exact cells, from 50-digit sums (make_marcum_table.py's q1_pair).
    exact = {"P_0": 2.2957207416786384e-26, "P_1": 4.339477715448884e-09,
             "P_2": 5.2903157528461584e-18}
    cells = detection_probs([0.8, 0.6], 10.0, 1.0, 2.0)
    assert cells[1:].tolist() == pytest.approx(list(exact.values()),
                                               rel=1e-12, abs=0)
    path = tmp_path / "oracle.json"
    assert main(["oracle", "--alpha", "0.8,0.6", "--s", "10", "--gamma", "2",
                 "--format", "json", "--output", str(path)]) == 0
    [table] = json.loads(path.read_text())["tables"]
    printed = [row["analytic_raw"] for row in table["rows"]]
    assert printed == pytest.approx([exact["P_1"], exact["P_2"]], rel=1e-12,
                                    abs=0)


def test_oracle_matches_monte_carlo():
    # Every cell, P_inf and P_0 included, within 5 standard errors; the
    # rotated state U†alpha predicts the measurement through U.
    trials = 1 << 21
    for alpha, s, gamma, u in ORACLE_STATES:
        alpha = np.array(alpha)
        model = NoiseModel(GAUSSIAN, 1.0, alpha.shape[0])
        m = None if u is None else Measurement(u)
        stats = estimate(alpha, s, model, gamma, trials, seed=13,
                         measurement=m)
        cells = detection_probs(alpha if u is None else alpha @ np.conj(u),
                                s, 1.0, gamma)
        se = np.sqrt(cells * (1 - cells) / trials)
        assert np.all(np.abs(stats.hist / stats.trials - cells) < 5 * se)


def test_oracle_zero_signal_closed_form():
    # At s = 0 every component is symmetric and
    # P_n = exp(-(gamma/sigma)^2) * (1 - exp(-(gamma/sigma)^2))^(N-1).
    sigma, gamma = 1.0, 1.5
    r = np.exp(-((gamma / sigma) ** 2))
    for dim in (2, 3, 4):
        alpha = np.zeros(dim)
        alpha[0] = 1.0
        probs = single_detection_probs(alpha, 0.0, sigma, gamma)
        expected = r * (1 - r) ** (dim - 1)
        assert probs == pytest.approx(np.full(dim, expected), rel=1e-12)
        assert detection_probs(alpha, 0.0, sigma, gamma)[1] == \
            pytest.approx((1 - r) ** dim, rel=1e-12)


def test_oracle_born_asymptotic_regime():
    # Equal-magnitude states with Gaussian noise: the conditional share of
    # each nonzero component climbs monotonically toward 1/K as the
    # threshold grows, while the zero components die off.
    alpha = np.array([1.0, 1.0, 0.0, 0.0]) / SQRT2
    shares = []
    for g in (2.0, 3.0, 4.0):
        p = single_detection_probs(alpha, 1.0, 1.0, g)
        cond = p / p.sum()
        assert cond[0] == pytest.approx(cond[1], rel=1e-12)
        shares.append(cond[0])
    assert shares[0] < shares[1] < shares[2]
    assert shares[2] == pytest.approx(0.5, abs=0.02)


def test_oracle_ratio_decay_with_threshold():
    # Smaller-amplitude component loses ground monotonically as gamma grows
    # (ratio P_small / P_large strictly decreasing toward zero).
    alpha = np.array([0.6, 0.8])
    s, sigma = 1.0, 1.0
    ratios = []
    for g in (1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0):
        assert g > s * sigma
        p = single_detection_probs(alpha, s, sigma, g)
        ratios.append(p[0] / p[1])
    assert all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:]))
    assert ratios[-1] < 0.15


def test_oracle_input_validation():
    for oracle in (single_detection_probs, detection_probs):
        for sigma, gamma in [(0.0, 1.0), (-1.0, 1.0), (1.0, -1.0)]:
            with pytest.raises(ValueError):
                oracle(np.array([1.0, 0.0]), 1.0, sigma, gamma)


def test_oracle_overflow_names_its_cause():
    # s/sigma or gamma/sigma past the float range: each error names the
    # ratio that overflows and both of its values.
    alpha = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match=r"s/sigma .* s=1e\+308, sigma=1.0"):
        detection_probs(alpha, 1e308, 1.0, 1.0)
    with pytest.raises(ValueError,
                       match=r"gamma/sigma .* gamma=1e\+307, sigma=0.01"):
        detection_probs(alpha, 1.0, 0.01, 1e307)


def test_oracle_rejects_negative_signal_strength():
    # |s·alpha| alone would read s = -1 as s = 1.
    for oracle in (single_detection_probs, detection_probs):
        with pytest.raises(ValueError, match="signal strength"):
            oracle(np.array([1.0, 0.0]), -1.0, 1.0, 1.0)


# Every Gaussian singleton tally the CLI runs, as (alpha, s, measurement,
# gamma): detect-probs' and born's standard bases at their default alphas,
# tomography's three bases and chsh-joint's four observables.
_CHSH_SIGMA, _CHSH_S, _CHSH_GAMMA = CHSH_JOINT_PARAMS[GAUSSIAN]
EXACT_TALLIES = {
    "detect-probs": (np.array([1.0, 0.0]), SQRT2 - 1.0,
                     Measurement(np.eye(2)), 1.0),
    "born": (np.array([0.0, 1.0, 1.0, 0.0]) / SQRT2, SQRT2 - 1.0,
             Measurement(np.eye(4)), 1.0),
    **{f"tomography-{name}": (np.array([1.0, 0.0]), SQRT2 - 1.0, m, 1.0)
       for name, m in PAULI_SPECS.items()},
    **{f"chsh-joint-{name}": (BELL_STATE, _CHSH_S, m, _CHSH_GAMMA)
       for name, m in JOINT_OBSERVABLES.items()},
}


@pytest.mark.parametrize("name", EXACT_TALLIES)
def test_exact_hist_has_the_cells_of_the_monte_carlo_histogram(name):
    # Same shape and cell order as tally_chunks: at 2^16 trials every
    # frequency lies within 5 standard errors of its exact cell.
    alpha, s, m, gamma = EXACT_TALLIES[name]
    tally = ([(alpha, s, NoiseModel(GAUSSIAN, 1.0, m.dim), 0)], (m,))
    [exact] = exact_hists([tally], gamma)
    trials = 1 << 16
    [counts] = probability.tally_chunks([tally], gamma, 7, trials)
    assert exact.shape == counts.shape
    assert (exact >= 0).all()
    assert exact.sum() == pytest.approx(1.0, abs=1e-12)
    se = np.sqrt(exact * (1.0 - exact) / trials)
    assert (np.abs(counts / trials - exact) <= 5 * se + 1e-12).all()


def test_exact_hist_raises_where_no_exact_law_is_known():
    # Bounded noise gives the Born cells, which test_cli.py pins in
    # test_exact_records_give_the_oracle_under_gaussian_noise_and_born_otherwise.
    gaussian, basis = NoiseModel(GAUSSIAN, 1.0, 4), Measurement(np.eye(4))
    bell = (BELL_STATE, SQRT2 - 1.0, gaussian, 0)
    for tally in [([bell], (LOCAL_SETTINGS["A"],)),  # subspace groups
                  ([bell], (basis, JOINT_OBSERVABLES["AB"])),  # two
                  ([bell, (BELL_STATE, 0.5, gaussian, 1)], (basis,))]:
        with pytest.raises(NoExactLaw):
            exact_hists([tally], 1.0)
    with pytest.raises(ValueError, match="dimension 2 on a noise model"):
        exact_hists([([(np.array([0.5, 0.5, 0.5, 0.5]), 1.0, gaussian, 0)],
                      (Measurement(np.eye(2)),))], 1.0)


@pytest.mark.parametrize("trials, gamma", [(0, 1.0), (10, -1.0)])
def test_estimate_input_validation(trials, gamma):
    with pytest.raises(ValueError):
        estimate(np.array([1.0, 0.0]), 1.0, NoiseModel(GAUSSIAN, 1.0, 2),
                 gamma, trials=trials, seed=0)


@contextlib.contextmanager
def _chunk_draws():
    """Per ``noise.chunk_rng`` call made inside the block, its address and
    the rows of each ``noise.draw_noise_block`` call on its generator, in
    order: ``(seed, stream, chunk, [rows, ...])``.  ``realize_block`` draws
    through the module attribute, so its draws are seen too."""
    draws, blocks = [], {}
    make, draw = noise.chunk_rng, noise.draw_noise_block

    def rng_spy(seed, stream, chunk):
        rng = make(seed, stream, chunk)
        # Holding the generator keeps its id from being reused.
        blocks[id(rng)] = rng, []
        draws.append((seed, stream, chunk, blocks[id(rng)][1]))
        return rng

    def draw_spy(model, rng, rows):
        w = draw(model, rng, rows)
        assert w.shape == (rows, model.dim)
        # At most 2^15 amplitudes (BLOCK) per block, or one row of more.
        assert w.size <= max(1 << 15, model.dim)
        blocks[id(rng)][1].append(rows)
        return w

    with mock.patch.object(noise, "chunk_rng", rng_spy), \
            mock.patch.object(noise, "draw_noise_block", draw_spy):
        yield draws


def _chunk_rows(draws):
    """Per generator, its address and the rows realized from it, sorted."""
    return sorted((seed, stream, chunk, sum(rows))
                  for seed, stream, chunk, rows in draws)


def _chunk_calls(ensembles, seed, trials):
    """The chunks of CHUNK that tile each ensemble's trials at ``seed``,
    with their rows."""
    return sorted((seed, stream, chunk, min(CHUNK, trials - chunk * CHUNK))
                  for _, _, _, stream in ensembles
                  for chunk in range(-(-trials // CHUNK)))


def _shape(measurements):
    return tuple(len(m.groups) + 2 for m in measurements)


def _recount(ensembles, measurements, gamma, seed, trials):
    # Independent of the driver: one chunk at a time, one row at a time.
    hist = np.zeros(_shape(measurements), dtype=np.int64)
    for alpha, s, model, stream in ensembles:
        for chunk in range(-(-trials // CHUNK)):
            a = noise.realize_block(noise.signal(alpha, s), model,
                                    noise.chunk_rng(seed, stream, chunk),
                                    min(CHUNK, trials - chunk * CHUNK))
            codes = [detection.detect_observable_block(a, m, gamma)
                     for m in measurements]
            np.add.at(hist, tuple(c + 2 for c in codes), 1)
    return hist


def _measurement_tuples(dim):
    """Tuples of K = 1, 2 and 6 measurements on ``dim`` components."""
    if dim != 4:
        # Axes of 4 and 3 cells: the second has one group, |a| itself.
        return [(Measurement(np.eye(dim)),),
                (Measurement(np.eye(dim)), Measurement(H, ((0, 1),)))]
    return [(Measurement(np.eye(4)),),
            *((LOCAL_SETTINGS[a], LOCAL_SETTINGS[b]) for a, b in LOCAL_PAIRS),
            tuple(MAGIC_CONTEXTS.values())]


def test_tally_chunks_sums_chunks_per_ensemble():
    # Ensembles crossing chunk boundaries, or smaller than a chunk: each
    # seed and trial count is its own call.
    for seed, trials in ((3, CHUNK + 5), (3, 17), (4, 2 * CHUNK + 1)):
        _check_sums_chunks_per_ensemble(seed, trials)


def _check_sums_chunks_per_ensemble(seed, trials):
    model = NoiseModel(SPHERE, 1.0, 2)
    alpha = np.array([0.6, 0.8])
    ensembles = [(alpha, 0.4, model, 7), (alpha, 0.4, model, 8)]
    measurements = _measurement_tuples(2)[1]
    expected = _recount(ensembles, measurements, 0.9, seed, trials)
    assert expected.sum() == 2 * trials
    for workers in (1, 2, 3):
        with _chunk_draws() as calls:
            [total] = probability.tally_chunks([(ensembles, measurements)],
                                               0.9, seed, trials, workers)
        assert np.array_equal(total, expected)
        # Every row lands in the total once, read from its own ensemble.
        assert _chunk_rows(calls) == _chunk_calls(ensembles, seed, trials)
    # In one call beside tallies of other shapes and dimensions, each
    # histogram is its tally's alone, and each tally reads its rows once.
    d4 = (np.array([0.5, 0.5, 0.5, 0.5]), 0.4, NoiseModel(SPHERE, 1.0, 4))
    tallies = [(ensembles, measurements),
               (ensembles[:1], _measurement_tuples(2)[0]),
               ([(*d4, 9)], _measurement_tuples(4)[1])]
    assert len({_shape(ms) for _, ms in tallies}) == 3
    alone = [probability.tally_chunks([t], 0.9, seed, trials)[0]
             for t in tallies]
    assert np.array_equal(alone[0], expected)
    for workers in (1, 2, 3):
        with _chunk_draws() as calls:
            hists = probability.tally_chunks(tallies, 0.9, seed, trials,
                                             workers)
        assert len(hists) == 3
        assert all(np.array_equal(h, a) for h, a in zip(hists, alone))
        assert _chunk_rows(calls) == sorted(
            c for ens, _ in tallies for c in _chunk_calls(ens, seed, trials))


def test_tally_chunks_sees_at_most_chunk_rows_per_call():
    # One job, and one generator, per chunk, realized in consecutive blocks
    # of BLOCK // dim rows: no block holds more than BLOCK amplitudes, which
    # bounds a job's arrays.  A d=4 chunk is two blocks, a d=2 chunk one.
    assert probability.BLOCK == 1 << 15
    for model, step in ((NoiseModel(SPHERE, 1.0, 4), CHUNK // 2),
                        (NoiseModel(GAUSSIAN, 1.0, 2), CHUNK),
                        (NoiseModel(GAUSSIAN, 1.0, 3), (1 << 15) // 3)):
        alpha = np.ones(model.dim) / np.sqrt(model.dim)
        ensemble = (alpha, 0.5, model, 0)
        for workers in (1, 2):
            with _chunk_draws() as calls:
                [total] = probability.tally_chunks(
                    [([ensemble], (Measurement(np.eye(model.dim)),))], 1.0,
                    1, 3 * CHUNK + 7, workers)
            assert total.sum() == 3 * CHUNK + 7
            assert _chunk_rows(calls) == _chunk_calls([ensemble], 1,
                                                      3 * CHUNK + 7)
            for *_, blocks in calls:
                rows = sum(blocks)
                assert blocks == [step] * (rows // step) + (
                    [rows % step] if rows % step else [])


@pytest.mark.parametrize("run, trials, streams", [
    (lambda w: run_chsh_joint(SPHERE, CHUNK + 5, 3, workers=w), CHUNK + 5,
     range(100, 104)),
    (lambda w: run_magic_square(3, 2 * CHUNK + 1, 3, workers=w),
     2 * CHUNK + 1, range(1000, 1003)),
    (lambda w: run_two_dim_examples(CHUNK - 1, 3, workers=w), CHUNK - 1,
     range(400, 404))], ids=["chsh-joint", "magic-square", "two-dim"])
def test_runs_draw_blocks_of_at_most_block_that_sum_to_trials(run, trials,
                                                              streams):
    # What the benchmark's trace step checks, per experiment: no drawn block
    # holds more than BLOCK amplitudes (the spy's check), every chunk of
    # every ensemble is drawn once, and its blocks sum to the trials.
    chunks = [(3, stream, chunk, min(CHUNK, trials - chunk * CHUNK))
              for stream in streams for chunk in range(-(-trials // CHUNK))]
    for workers in (1, 2):
        with _chunk_draws() as calls:
            run(workers)
        # magic-square's random states take a generator and draw no noise.
        assert _chunk_rows(c for c in calls if c[3]) == chunks


def _peak_mib(tallies):
    """tracemalloc peak, in MiB, of a warm serial ``tally_chunks`` call of
    one chunk at seed 7."""
    probability.tally_chunks(tallies, 1.0, 7, CHUNK)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        probability.tally_chunks(tallies, 1.0, 7, CHUNK)
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        if not tracing:
            tracemalloc.stop()


def test_one_chunk_job_keeps_a_small_working_set():
    # A d=4 chunk is realized in two blocks, so its arrays peak under 2 MiB
    # (3.3 and 2.9 MiB in one block); a d=2 chunk is one block, as before.
    d4 = NoiseModel(SPHERE, 1.0, 4)
    magic = ([(random_state(7, 0), noise.S_BOUNDED, d4, 1000)],
             tuple(MAGIC_CONTEXTS.values()))
    local = ([(BELL_STATE, noise.S_BOUNDED, d4, 200)],
             (LOCAL_SETTINGS["A"], LOCAL_SETTINGS["B"]))
    gaussian = ([(np.array([0.6, 0.8]), 1.0, NoiseModel(GAUSSIAN, 1.0, 2),
                  0)], (Measurement(np.eye(2)),))
    assert _peak_mib([magic]) < 2.0
    assert _peak_mib([local]) < 2.0
    assert _peak_mib([gaussian]) <= 1.04


def test_tally_chunks_caps_workers_before_any_thread_starts():
    # The pool's threads live as long as the process, so the library, not
    # only the CLI, refuses more than MAX_WORKERS workers.
    ensemble = (np.array([1.0, 0.0]), 1.0, NoiseModel(GAUSSIAN, 1.0, 2), 0)
    tally = ([ensemble], (Measurement(np.eye(2)),))
    threads = threading.active_count()
    with _chunk_draws() as calls:
        with pytest.raises(ValueError, match="workers must be <= 64"):
            probability.tally_chunks([tally], 1.0, 1, 2 * CHUNK,
                                     probability.MAX_WORKERS + 1)
    assert calls == []
    assert threading.active_count() == threads


@pytest.mark.parametrize("trials, workers, error, message", [
    (2 * CHUNK, 0, ValueError, "workers must be >= 1"),
    (2 * CHUNK, -1, ValueError, "workers must be >= 1"),
    (2 * CHUNK, 2.5, TypeError, "'float' object cannot be interpreted"),
    (2.5, 1, TypeError, "'float' object cannot be interpreted")],
    ids=["0-workers", "-1-workers", "2.5-workers", "2.5-trials"])
def test_tally_chunks_refuses_a_count_that_is_not_a_positive_int(
        trials, workers, error, message):
    # The library refuses, before any draw, a count the CLI would not pass:
    # no worker count below 1 runs serially, and no float is truncated.
    ensemble = (np.array([1.0, 0.0]), 1.0, NoiseModel(GAUSSIAN, 1.0, 2), 0)
    with _chunk_draws() as calls:
        with pytest.raises(error, match=message):
            probability.tally_chunks([([ensemble], (Measurement(np.eye(2)),))],
                                     1.0, 1, trials, workers)
    assert calls == []


# Every noise family, at each dimension the workloads use.
TALLY_MODELS = (
    NoiseModel(GAUSSIAN, 1.0, 2),
    NoiseModel(SPHERE, 1.0, 4),
    NoiseModel(noise.SINGLE_PHASE, 1.0, 2),
    NoiseModel(noise.ANTICORRELATED_PHASE, 1.0, 2),
    NoiseModel(noise.BLOCH_UNIFORM, 1.0, 2),
)


_SETUPS = st.sampled_from(TALLY_MODELS).flatmap(
    lambda model: st.tuples(st.just(model),
                            st.sampled_from(_measurement_tuples(model.dim))))


@settings(max_examples=25, deadline=None)
@example(setup=(TALLY_MODELS[1], _measurement_tuples(4)[1]),
         other=(TALLY_MODELS[0], _measurement_tuples(2)[0]),
         trials=CHUNK + 1, seed=11, stream=2)
@example(setup=(TALLY_MODELS[1], _measurement_tuples(4)[-1]),
         other=(TALLY_MODELS[1], _measurement_tuples(4)[-1]),
         trials=2 * CHUNK + 3, seed=2**64 - 1, stream=50)
@given(setup=_SETUPS, other=_SETUPS,
       trials=st.sampled_from([1, CHUNK - 1, CHUNK + 1, 70000])
       | st.integers(min_value=1, max_value=2 * CHUNK + 3),
       seed=st.integers(min_value=0, max_value=2**64 - 1),
       stream=st.integers(min_value=0, max_value=50))
def test_tallies_equal_per_chunk_tallies(setup, other, trials, seed, stream):
    model, measurements = setup
    alpha = np.ones(model.dim) / np.sqrt(model.dim)
    ensemble = (alpha, 0.5, model, stream)
    expected = _recount([ensemble], measurements, 1.0, seed, trials)
    assert expected.sum() == trials
    for workers in (1, 2):
        with _chunk_draws() as calls:
            [total] = probability.tally_chunks([([ensemble], measurements)],
                                               1.0, seed, trials, workers)
        assert _chunk_rows(calls) == _chunk_calls([ensemble], seed, trials)
        assert np.array_equal(total, expected)
    # Axis k's marginal is the tally of measurement k alone.
    for k, m in enumerate(measurements):
        others = tuple(j for j in range(total.ndim) if j != k)
        [alone] = probability.tally_chunks([([ensemble], (m,))], 1.0, seed,
                                           trials)
        assert np.array_equal(total.sum(axis=others), alone)
    # Beside a tally of another shape, on the next stream, in one call: each
    # histogram is its tally's alone.
    other_model, other_ms = other
    if _shape(other_ms) == _shape(measurements):
        other_ms += (Measurement(np.eye(other_model.dim)),)
    beside = ([(np.ones(other_model.dim) / np.sqrt(other_model.dim), 0.5,
                other_model, stream + 1)], other_ms)
    [beside_alone] = probability.tally_chunks([beside], 1.0, seed, trials)
    for workers in (1, 2, 3):
        hists = probability.tally_chunks([([ensemble], measurements), beside],
                                         1.0, seed, trials, workers)
        assert len(hists) == 2
        assert np.array_equal(hists[0], expected)
        assert np.array_equal(hists[1], beside_alone)


def test_tally_chunks_rejects_empty_ensembles():
    model = NoiseModel(SPHERE, 1.0, 2)
    alpha = np.array([1.0, 0.0])
    for ensembles, trials in (([], 10), ([(alpha, 0.4, model, 7),
                                         (alpha, 0.4, model, 8)], 0)):
        with pytest.raises(ValueError):
            probability.tally_chunks(
                [(ensembles, (Measurement(np.eye(2)),))], 1.0, 3, trials)


def test_tally_chunks_rejects_no_tally_or_no_measurement_before_drawing():
    # Checked before any job: a pool job would draw noise, then fail on a
    # tuple with no measurement to index.
    ensemble = (np.array([1.0, 0.0]), 1.0, NoiseModel(GAUSSIAN, 1.0, 2), 0)
    good = ([ensemble], (Measurement(np.eye(2)),))
    cases = [([], "no tally"), ([([ensemble], ())], "1 measurement"),
             ([good, ([ensemble], ())], "1 measurement")]
    for tallies, message in cases:
        for workers in (1, 2):
            with _chunk_draws() as calls:
                with pytest.raises(ValueError, match=message):
                    probability.tally_chunks(tallies, 1.0, 1, 10, workers)
            assert calls == []


@pytest.mark.parametrize("alpha, s, seed, error, message", [
    ([1.0, 1.0], 1.0, 1, noise.UnnormalizedState,
     r"\|alpha\| = 1.41421356237, expected 1"),
    ([1.0, 0.0], -1.0, 1, ValueError, "signal strength must be non-negative"),
    ([0.5, 0.5, 0.5, 0.5], 1.0, 1, noise.InvalidModel,
     "state dimension does not match noise model"),
    ([1.0, 0.0], 1.0, 2**64, ValueError, "outside")],
    ids=["unnormalized", "negative-s", "dimension", "seed"])
def test_tally_chunks_checks_every_ensemble_before_any_job(alpha, s, seed,
                                                           error, message):
    # The first ensemble is valid; a bad signal or dimension in a later one,
    # of the same tally or of the next, or a bad seed for the call, is found
    # before any job draws.
    model = NoiseModel(GAUSSIAN, 1.0, 2)
    good = (np.array([1.0, 0.0]), 1.0, model, 0)
    bad = (np.array(alpha), s, model, 1)
    basis = (Measurement(np.eye(2)),)
    for tallies in ([([good, bad], basis)],
                    [([good], basis), ([good, bad], basis)]):
        for workers in (1, 2):
            with _chunk_draws() as calls:
                with pytest.raises(ValueError, match=message) as raised:
                    probability.tally_chunks(tallies, 1.0, seed, 2 * CHUNK,
                                             workers)
            assert type(raised.value) is error
            assert calls == []


def test_tally_chunks_rejects_a_measurement_of_another_dimension():
    # Every measurement of the tuple must match every ensemble's model,
    # not only the first: a 2-dim one would read 2 of 4 columns.
    ensemble = (np.array([0.5, 0.5, 0.5, 0.5]), 0.5,
                NoiseModel(SPHERE, 1.0, 4), 0)
    with pytest.raises(ValueError, match="measurement of dimension 2 on a "
                                         "noise model of dimension 4"):
        probability.tally_chunks(
            [([ensemble], (LOCAL_SETTINGS["A"], Measurement(np.eye(2))))],
            1.3, 1, 100)


def _refused_tallies(model):
    """Tally lists and gammas that a law must refuse, one per check of
    ``tally_chunks`` on the tally list, on ``model`` of dimension 2."""
    good = (np.array([1.0, 0.0]), 1.0, model, 0)
    basis = (Measurement(np.eye(2)),)
    other = NoiseModel(model.kind, 1.0, 4)
    return {
        "no-tally": ([], 1.0),
        "no-measurement": ([([good], ())], 1.0),
        "no-ensemble": ([([], basis)], 1.0),
        "unnormalized": ([([(np.array([1.0, 1.0]), 1.0, model, 0)], basis)],
                         1.0),
        "negative-s": ([([(np.array([1.0, 0.0]), -1.0, model, 0)], basis)],
                       1.0),
        "state-dimension": ([([(np.full(4, 0.5), 1.0, model, 0)], basis)],
                            1.0),
        "measurement-dimension": ([([(np.full(4, 0.5), 1.0, other, 0)],
                                    basis)], 1.0),
        "negative-gamma": ([([good], basis)], -5.0),
        "nan-gamma": ([([good], basis)], np.nan),
    }


@pytest.mark.parametrize("kind", [SPHERE, GAUSSIAN])
@pytest.mark.parametrize("case", _refused_tallies(NoiseModel(SPHERE, 1.0, 2)))
def test_both_laws_refuse_the_same_tally_lists(kind, case):
    tallies, gamma = _refused_tallies(NoiseModel(kind, 1.0, 2))[case]
    with pytest.raises(Exception) as sampled:
        probability.tally_chunks(tallies, gamma, 1, 10)
    with pytest.raises(Exception) as exact:
        exact_hists(tallies, gamma)
    assert type(exact.value) is type(sampled.value)
    assert str(exact.value) == str(sampled.value)


def test_tally_chunks_loses_no_job_under_thread_switches():
    # 96 one-trial jobs over three tallies on 5 threads, more than the
    # cores, with frequent thread switches: each adds its histogram (up to
    # 46 656 cells) into its tally's shared total, so a lost update would
    # leave a total short of its trials.
    model = NoiseModel(SPHERE, 1.0, 4)
    ensembles = [(np.array([0.5, 0.5, 0.5, 0.5]), 0.5, model, stream)
                 for stream in range(96)]
    contexts = tuple(MAGIC_CONTEXTS.values())
    tallies = [(ensembles[:48], contexts), (ensembles[48:80], contexts[:5]),
               (ensembles[80:], contexts[5:])]
    expected = probability.tally_chunks(tallies, 1.0, 9, 1)
    assert [h.sum() for h in expected] == [48, 32, 16]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            hists = probability.tally_chunks(tallies, 1.0, 9, 1, 5)
            assert all(np.array_equal(h, e) for h, e in zip(hists, expected))
    finally:
        sys.setswitchinterval(interval)


def _slow_square(x):
    # Later jobs finish first, so job order has to be restored on return.
    time.sleep(0.002 * (8 - x))
    return x * x


def test_map_chunks_reuses_one_thread_pool():
    jobs = list(range(8))
    expected = [x * x for x in jobs]
    assert probability.map_chunks(_slow_square, jobs, 3) == expected
    threads = threading.active_count()
    for _ in range(5):
        assert probability.map_chunks(_slow_square, jobs, 3) == expected
        assert threading.active_count() == threads


def test_map_chunks_serial_path_starts_no_threads():
    threads = threading.active_count()
    assert probability.map_chunks(_slow_square, [1, 2], 1) == [1, 4]
    assert probability.map_chunks(_slow_square, [3], 4) == [9]
    assert threading.active_count() == threads


def test_map_chunks_raises_a_job_error():
    with pytest.raises(ZeroDivisionError):
        probability.map_chunks(lambda x: 1 // x, [1, 0, 2], 2)


def test_map_chunks_runs_jobs_on_the_calling_thread():
    # The caller takes jobs beside its one helper instead of sleeping.
    def job(x):
        time.sleep(0.01)
        return x, threading.get_ident()

    results = probability.map_chunks(job, range(6), 2)
    assert [x for x, _ in results] == list(range(6))
    assert threading.get_ident() in {ident for _, ident in results}


def test_map_chunks_of_w_workers_adds_at_most_w_minus_1_threads():
    # 21 slow jobs keep every worker busy: the caller and at most 6 helpers
    # run them, however many idle helpers the pool already holds.
    def job(x):
        return _slow_square(x), threading.get_ident()

    jobs = [x % 8 for x in range(21)]
    results = probability.map_chunks(job, jobs, 7)
    assert [y for y, _ in results] == [x * x for x in jobs]
    assert 1 < len({ident for _, ident in results}) <= 7


@pytest.mark.parametrize("workers, error, message", [
    (0, ValueError, "workers must be >= 1"),
    (-3, ValueError, "workers must be >= 1"),
    (2.5, TypeError, "'float' object cannot be interpreted"),
    (65, ValueError, "workers must be <= 64")])
def test_map_chunks_refuses_a_worker_count_before_any_job(workers, error,
                                                          message):
    calls = []
    threads = threading.active_count()
    with pytest.raises(error, match=message):
        probability.map_chunks(calls.append, range(4), workers)
    assert calls == []
    assert threading.active_count() == threads


def test_a_narrower_map_reuses_the_helpers_of_a_wider_one():
    # 11 and 10 are counts no other test maps with.  One pool serves every
    # worker count, so the 10-worker map finds 9 idle helpers.
    jobs = [x % 8 for x in range(22)]
    assert probability.map_chunks(_slow_square, jobs, 11) == \
        [x * x for x in jobs]
    time.sleep(0.05)  # each helper marks itself idle after its last job
    threads = threading.active_count()
    assert probability.map_chunks(_slow_square, jobs, 10) == \
        [x * x for x in jobs]
    assert threading.active_count() == threads


def test_back_to_back_maps_of_instant_jobs_reuse_idle_helpers():
    # The caller often runs every instant job before a helper starts; it
    # still waits for that helper, which so counts as idle again before the
    # next map submits.  Cancelled instead, such a helper stayed queued,
    # and these maps started about 30 threads.  One may start: a helper
    # counts as idle only just after its result is in.
    for _ in range(2):  # the pool now holds at least 3 idle helpers
        probability.map_chunks(abs, range(8), 4)
        time.sleep(0.05)
    threads = threading.active_count()
    for _ in range(200):
        assert probability.map_chunks(abs, range(-2, 2), 4) == [2, 1, 0, 1]
    assert threading.active_count() <= threads + 1


def test_map_chunks_starts_no_job_after_one_raises_and_waits_for_helpers():
    # Job 0 raises at once, while job 1 is slow: whichever worker runs job
    # 1 finishes it before the error is raised, and jobs 2-9 never start.
    log, lock = [], threading.Lock()

    def job(x):
        with lock:
            log.append(("start", x))
        if x == 0:
            raise RuntimeError("job 0")
        time.sleep(0.05)
        with lock:
            log.append(("end", x))

    with pytest.raises(RuntimeError, match="job 0"):
        probability.map_chunks(job, range(10), 2)
    returned = list(log)
    started = {x for event, x in returned if event == "start"}
    assert started <= {0, 1}
    assert {x for event, x in returned if event == "end"} == started - {0}
    time.sleep(0.1)
    assert log == returned  # no helper went on after the return


def test_concurrent_callers_share_one_pool_and_agree():
    # Six callers map at 5 workers at once, with frequent thread switches;
    # each must get the serial tallies.  Each call has 3 chunks, so it
    # submits 2 helpers, and the pool starts at most 12 threads for them.
    # They are also the first callers to set BLAS to one thread.
    model = NoiseModel(SPHERE, 1.0, 2)
    alpha = np.array([1.0, 0.0])
    args = (alpha, SQRT2 - 1.0, model, 1.0, 2 * CHUNK + 5, 21)
    expected = estimate(*args, workers=1).counts
    probability._tune_process.cache_clear()
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(6) as callers:
            futures = [callers.submit(estimate, *args, workers=5)
                       for _ in range(6)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(r.counts, expected) for r in results)
    assert threading.active_count() <= threads + 6 * 2
    assert probability._tune_process.cache_info().currsize == 1
    time.sleep(0.05)  # each helper marks itself idle after its last job
    threads = threading.active_count()
    assert np.array_equal(estimate(*args, workers=5).counts, expected)
    assert threading.active_count() == threads


def _openblas_thread_controls():
    """(setter, getter) of the thread count of each loaded OpenBLAS."""
    pairs = []
    for path in probability._loaded_openblas():
        lib = ctypes.CDLL(path)
        name = next(n for n in probability._OPENBLAS_SETTERS
                    if hasattr(lib, n))
        setter = getattr(lib, name)
        getter = getattr(lib, name.replace("_set_", "_get_"))
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        pairs.append((setter, getter))
    return pairs


@pytest.mark.parametrize("workers", [1, 2])
def test_tally_chunks_runs_openblas_on_one_thread(workers):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if "openblas" not in blas:
        pytest.skip(f"numpy is built on {blas}")
    libs = _openblas_thread_controls()
    assert libs, "numpy's OpenBLAS not found in /proc/self/maps"
    for setter, _ in libs:
        setter(2)
    probability._tune_process.cache_clear()
    model = NoiseModel(SPHERE, 1.0, 4)
    alpha = np.array([0.5, 0.5, 0.5, 0.5])
    u = np.linalg.qr(np.arange(16.0).reshape(4, 4) + np.eye(4))[0]
    [total] = probability.tally_chunks(
        [([(alpha, 0.5, model, 0)], (Measurement(u),))], 1.0, 3, 2 * CHUNK,
        workers)
    assert total.sum() == 2 * CHUNK
    assert [getter() for _, getter in libs] == [1] * len(libs)


def test_single_thread_blas_without_openblas(monkeypatch):
    # Another BLAS: nothing to set.  No /proc: not Linux.
    monkeypatch.setattr(probability, "_loaded_openblas", lambda: [])
    probability._tune_process.cache_clear()
    assert probability._tune_process() is None
    assert probability._tune_process.cache_info().currsize == 1

    def no_proc(*_):
        raise FileNotFoundError("/proc/self/maps")

    monkeypatch.undo()
    probability._tune_process.cache_clear()  # the next map scans for real
    monkeypatch.setattr(probability, "open", no_proc, raising=False)
    assert probability._loaded_openblas() == []


@pytest.mark.skipif(not Path("/proc/self/maps").exists(),
                    reason="reads Linux's memory maps")
def test_loaded_openblas_reads_a_mapped_file_name_that_is_not_utf8(tmp_path):
    # Read as text, such a name in the maps raised UnicodeDecodeError, and
    # with it the first Monte Carlo run of the process.
    expected = probability._loaded_openblas()
    path = os.path.join(os.fsencode(tmp_path), b"map\xe9.bin")
    with open(path, "wb") as f:
        f.write(bytes(mmap.PAGESIZE))
    with open(path, "rb") as f, \
            mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ):
        assert path in Path("/proc/self/maps").read_bytes()
        assert probability._loaded_openblas() == expected


def test_a_process_setup_that_raised_runs_again(monkeypatch):
    # The cache keeps a setup only once it has returned: after the first
    # scan raised, the next map scans again, and later maps do not.
    scans = []
    loaded_openblas = probability._loaded_openblas

    def scan_failing_once():
        scans.append(None)
        if len(scans) == 1:
            raise RuntimeError("scan failed")
        return loaded_openblas()

    monkeypatch.setattr(probability, "_loaded_openblas", scan_failing_once)
    probability._tune_process.cache_clear()
    args = (np.array([1.0, 0.0]), 0.5, NoiseModel(SPHERE, 1.0, 2), 1.0, 64)
    with pytest.raises(RuntimeError, match="scan failed"):
        estimate(*args, seed=1)
    estimate(*args, seed=1)
    assert len(scans) == 2
    estimate(*args, seed=1)
    assert len(scans) == 2
    assert probability._tune_process.cache_info().currsize == 1


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="sets glibc's malloc thresholds")
def test_chunk_blocks_reuse_freed_pages():
    # Returning each chunk's freed temporaries to the kernel cost these four
    # rotated 16 384-row chunks about 2650 page faults, against 0 with
    # _tune_process's malloc settings.  Counted in a fresh process: in this
    # one, earlier tests' allocations have already raised glibc's dynamic
    # thresholds, and the faults would not show.
    code = textwrap.dedent("""\
        import resource, sys
        sys.path.insert(0, sys.argv[1])
        import numpy as np
        from threshdet.linalg import Measurement
        from threshdet.noise import CHUNK, SPHERE, NoiseModel
        from threshdet.probability import estimate
        model = NoiseModel(SPHERE, 1.0, 4)
        alpha = np.array([0.5, 0.5, 0.5, 0.5])
        u = np.linalg.qr(np.arange(16.0).reshape(4, 4) + np.eye(4))[0]
        m = Measurement(u)
        estimate(alpha, 0.5, model, 1.0, CHUNK, seed=1, measurement=m)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        estimate(alpha, 0.5, model, 1.0, 4 * CHUNK, seed=1, stream=1,
                 measurement=m)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)
    src = Path(threshdet.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", code, str(src)],
                          capture_output=True, text=True, check=True,
                          timeout=120)
    assert int(done.stdout) < 4 * 200


def test_cli_import_defers_scipy_stats():
    # A fresh `import threshdet.cli` loads no package outside the standard
    # library but numpy and threshdet itself, scipy included.
    src = Path(threshdet.__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "before = set(sys.modules); import threshdet.cli; "
            "print(*sorted({name.split('.')[0] for name in sys.modules} "
            "- {name.split('.')[0] for name in before} "
            "- set(sys.stdlib_module_names)))")
    done = subprocess.run([sys.executable, "-c", code, str(src)],
                          capture_output=True, text=True, check=True,
                          timeout=120)
    assert set(done.stdout.split()) <= {"numpy", "threshdet"}
    assert "threshdet" in done.stdout.split()


ORACLE_ARGV = ["oracle", "--alpha", "0.8,0.6", "--s", "1", "--gamma", "3"]


# Runs that reach the oracle, and runs that do not.
SCIPY_CASES = [
    ORACLE_ARGV,
    [*ORACLE_ARGV, "--mc-trials", "4096", "--check"],
    ["born", "--noise", "gaussian", "--trials", "65536", "--check"],
    ["tomography", "--noise", "gaussian", "--trials", "65536", "--check"],
    ["two-dim", "--trials", "4096"],
    ["chsh-joint", "--trials", "4096"],
    ["born", "--trials", "4096"]]


@pytest.mark.parametrize("argv", [
    pytest.param(argv, id=f"argv{i}") for i, argv in enumerate(SCIPY_CASES)])
def test_oracle_never_imports_scipy_stats(argv):
    # No run loads any scipy module: the oracle's Marcum Q is threshdet's
    # own, and the Gaussian checks of born and tomography reach it too.
    # Importing scipy.special took 0.31 s cold and 16-18 MB of RSS.
    src = Path(threshdet.__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from threshdet import cli; code = cli.main(sys.argv[2:]); "
            "print(code, sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code, str(src), *argv],
                          capture_output=True, text=True, check=True,
                          timeout=120)
    assert done.stdout.splitlines()[-1] == "0 []"
