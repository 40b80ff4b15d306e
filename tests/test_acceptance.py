"""Acceptance suite: one test per headline criterion, each printing a
single PASS/FAIL line with the measured values."""

import os

import numpy as np
import pytest
from scipy import integrate, special

from threshdet import noise, probability, tomography
from threshdet.cli import main as cli_main
from threshdet.experiments import (LOCAL_SETTINGS, MAGIC_CONTEXTS, replay,
                                   run_bell_state_checks, run_chsh_joint,
                                   run_chsh_local, run_magic_square)
from threshdet.linalg import PAULI_SPECS
from threshdet.noise import GAUSSIAN, SPHERE, NoiseModel
from threshdet.probability import estimate, marcum_q1, single_detection_probs

SQRT2 = np.sqrt(2.0)
SEED = 20140731
TRIALS = 1 << 20
WORKERS = min(8, os.cpu_count() or 1)


def _criterion(num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} {status}: {desc}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def test_criterion_01_no_multiple_detections():
    bad = 0
    for alpha in (np.array([1.0, 0.0]),
                  np.array([0, 1, 1, 0]) / SQRT2):
        model = NoiseModel(SPHERE, 1.0, alpha.shape[0])
        stats = estimate(alpha, SQRT2 - 1.0, model, 1.0, 10**6, SEED,
                         workers=WORKERS)
        bad += stats.multiple_detections
    _criterion(1, "bounded noise never double-detects (dims 2 and 4, 1e6 "
                  "trials each)", bad == 0, f"multiple detections = {bad}")


def test_criterion_02_born_rule_exact_regime():
    alpha = np.array([0, 1, 1, 0]) / SQRT2
    model = NoiseModel(SPHERE, 1.0, 4)
    stats = estimate(alpha, SQRT2 - 1.0, model, 1.0, TRIALS, SEED,
                     workers=WORKERS)
    tol = 4.0 / np.sqrt(stats.n_detected)
    ok = (stats.counts[0] == 0 and stats.counts[3] == 0
          and abs(stats.p_hat[1] - 0.5) < tol
          and abs(stats.p_hat[2] - 0.5) < tol)
    _criterion(2, "equal-magnitude frequencies match the squared amplitudes "
                  "exactly", ok,
               f"p_hat = {np.round(stats.p_hat, 5).tolist()}, tol = {tol:.5f}")


def test_criterion_03_inference_counterexample():
    res = tomography.bplus_counterexample(TRIALS, SEED)
    gap = abs(res.mean - tomography.QUANTUM_BPLUS_EXPECTATION)
    ok = (abs(res.p_hat[0] - 0.7048) < 0.01
          and abs(res.mean - (-0.4096)) < 0.01
          and gap > 10 * res.mean_stderr)
    _criterion(3, "tilted-observable statistics depart from the inferred "
                  "state's prediction", ok,
               f"p1 = {res.p_hat[0]:.4f}, E = {res.mean:.4f}, "
               f"gap = {gap:.4f} > 10*{res.mean_stderr:.4f}")


def test_criterion_04_tilted_bell_distribution():
    _, tilted = run_bell_state_checks(TRIALS, SEED, workers=WORKERS)
    target = np.array([0.0364, 0.4608, 0.4641, 0.0388])
    errs = np.abs(tilted.p_hat - target)
    ok = bool(np.all(errs < 0.01))
    _criterion(4, "four-outcome tilted-basis distribution matches the "
                  "reference values within 0.01", ok,
               f"p_hat = {np.round(tilted.p_hat, 4).tolist()}")


def test_criterion_05_magic_square():
    res = run_magic_square(256, 1 << 14, SEED, workers=WORKERS)
    ok = res.violation_count == 0 and res.six_way_overlap == 0
    _criterion(5, "256 random states x 2^14 trials x 6 contexts: no product "
                  "violations and empty six-way overlap", ok,
               f"violations = {res.violation_count}, "
               f"overlap = {res.six_way_overlap}")


def test_criterion_06_chsh_joint_sphere():
    res = run_chsh_joint(SPHERE, TRIALS, SEED, workers=WORKERS)
    fracs = [st.detection_fraction for st in res.stats.values()]
    ok = (abs(res.s_d - 3.39) < 0.05
          and res.s_d > 2.0 * SQRT2
          and all(abs(f - 0.05) < 0.01 for f in fracs))
    _criterion(6, "joint correlations with bounded noise exceed the "
                  "Tsirelson value", ok,
               f"S_D = {res.s_d:.4f} +- {res.s_d_err:.4f}, "
               f"fractions = {np.round(fracs, 4).tolist()}")


def test_criterion_07_chsh_joint_gaussian():
    res = run_chsh_joint(GAUSSIAN, TRIALS, SEED, workers=WORKERS)
    fracs = [st.detection_fraction for st in res.stats.values()]
    ok = (abs(res.s_d - 2.63) < 0.15
          and all(abs(f - 0.0025) < 0.001 for f in fracs))
    _criterion(7, "joint correlations with unbounded noise still violate "
                  "the classical bound", ok,
               f"S_D = {res.s_d:.4f} +- {res.s_d_err:.4f}")


def test_criterion_08_chsh_local():
    res = run_chsh_local(TRIALS, SEED, workers=WORKERS)
    means_ok = all(abs(abs(mean) - 0.583) < 0.01
                   for mean in res.means.values())
    ok = (abs(res.s_d - 2.34) < 0.02
          and abs(res.coincidence_fraction - 0.10) < 0.02
          and abs(res.efficiency - 0.33) < 0.05
          and means_ok)
    _criterion(8, "separated measurements still violate the classical bound",
               ok, f"S_D = {res.s_d:.4f}, "
                   f"coinc = {res.coincidence_fraction:.4f}, "
                   f"eta = {res.efficiency:.4f}")


def test_criterion_09_chsh_local_gaussian():
    res = run_chsh_local(TRIALS, SEED, noise_kind=GAUSSIAN, workers=WORKERS)
    ok = res.s_d <= 2.0 + 3.0 * res.s_d_err
    _criterion(9, "unbounded noise yields no violation under separated "
                  "measurements", ok,
               f"S_D = {res.s_d:.4f} +- {res.s_d_err:.4f}")


def test_criterion_10_oracle_equivalence():
    alpha = np.array([0.8, 0.6])
    sigma = 1.0
    trials = 10**7
    worst = 0.0
    ok = True
    for s in (0.5, 1.0, 2.0):
        for gamma in (2.0, 3.0, 4.0):
            pred = single_detection_probs(alpha, s, sigma, gamma)
            model = NoiseModel(GAUSSIAN, sigma, 2)
            stats = estimate(alpha, s, model, gamma, trials, SEED,
                             workers=WORKERS)
            se = np.sqrt(pred * (1 - pred) / trials)
            z = np.abs(stats.P_hat - pred) / np.maximum(se, 1e-12)
            worst = max(worst, float(z.max()))
            ok = ok and bool(np.all(z < 5.0))

    rng = np.random.default_rng(SEED)
    q_err = 0.0
    for _ in range(100):
        a = rng.uniform(0.05, 5.0)
        b = rng.uniform(0.0, 6.0)
        ref, _ = integrate.quad(
            lambda x: x * np.exp(-0.5 * (x - a) ** 2) * special.i0e(a * x),
            b, np.inf, limit=200)
        q_err = max(q_err, abs(marcum_q1(a, b) - ref))
    ok = ok and q_err < 1e-10
    _criterion(10, "analytic probabilities agree with Monte Carlo on the "
                   "3x3 grid and with quadrature on 100 pairs", ok,
               f"worst |z| = {worst:.2f}, worst quadrature error = {q_err:.2e}")


def _replayed_values(a, table):
    """Each measurement's value row, or None when it reports no outcome."""
    return {name: None if code < 0 else tuple(np.atleast_1d(
                table[name].values[code]))
            for name, code in replay(a, table).items()}


def test_criterion_11_replay():
    pauli = _replayed_values(
        noise.inject(np.array([1.0, 0.0]), SQRT2 - 1.0,
                     np.array([0.5186 + 0.3818j, -0.6876 + 0.3354j])),
        PAULI_SPECS)
    pauli_ok = (pauli["Z"], pauli["X"], pauli["Y"]) == ((1.0,), (-1.0,), (1.0,))

    square = _replayed_values(
        np.array([-0.3151 + 0.5498j, -0.9092 + 0.1208j,
                  -0.0581 - 0.5120j, 0.4560 - 0.3460j]), MAGIC_CONTEXTS)
    square_ok = (square["R1"] == (-1.0, 1.0, -1.0)
                 and square["R2"] == (1.0, 1.0, 1.0)
                 and square["R3"] == (-1.0, 1.0, -1.0)
                 and square["C1"] == (-1.0, 1.0, -1.0)
                 and square["C2"] == (1.0, 1.0, 1.0)
                 and square["C3"] is None)

    local = _replayed_values(np.array([-0.165 + 0.2046j, 0.8316 + 0.6696j,
                                       0.5690 - 0.2230j, 0.2321 - 0.1111j]),
                             LOCAL_SETTINGS)
    local_ok = (local["A"], local["B"], local["B'"]) == ((1.0,), None, (1.0,))

    ok = pauli_ok and square_ok and local_ok
    _criterion(11, "injected published realizations replay exactly", ok,
               f"pauli = {pauli_ok}, square = {square_ok}, local = {local_ok}")


def test_criterion_12_determinism(tmp_path):
    p1, p8 = tmp_path / "w1.csv", tmp_path / "w8.csv"
    base = ["chsh-joint", "--trials", str(TRIALS), "--seed", str(SEED)]
    assert cli_main(base + ["--workers", "1", "--output", str(p1)]) == 0
    assert cli_main(base + ["--workers", "8", "--output", str(p8)]) == 0
    ok = p1.read_bytes() == p8.read_bytes()
    _criterion(12, "worker counts 1 and 8 produce byte-identical output "
                   "files", ok, f"{p1.stat().st_size} bytes compared")
