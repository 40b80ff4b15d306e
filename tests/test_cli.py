"""Command-line interface: exit codes, precedence, output formats."""

import json
import os
import shlex
import shutil
import subprocess
import sys
import textwrap
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import threshdet
from threshdet import cli, probability
from threshdet.cli import (DEFAULT_SEED, CheckFailure, _check_chsh,
                           _check_mean, _check_s_d, build_parser, main,
                           parse_alpha)
from threshdet.experiments import ChshResult, chsh_joint_records
from threshdet.noise import GAUSSIAN, S_BOUNDED, SPHERE, NoiseModel
from threshdet.probability import DetectionStats, exact_hists
from threshdet.tomography import pauli_records

TRIALS = str(1 << 16)

# Realizations printed in the paper, keyed by the experiment they belong to.
# The 2-component one is a noise vector w for alpha = (1, 0); the
# 4-component ones already include the signal, so they replay with --s 0.
PRINTED = {
    "detect-probs": "0.2197,-0.7169\n-0.5290,0.3974\n",
    "magic-square": "-0.3151,0.5498\n-0.9092,0.1208\n"
                    "-0.0581,-0.5120\n0.4560,-0.3460\n",
    "chsh-local": "-0.165,0.2046\n0.8316,0.6696\n"
                  "0.5690,-0.2230\n0.2321,-0.1111\n",
}


def run(argv):
    return main(argv)


def test_unknown_subcommand_exits_1(capsys):
    assert run(["frobnicate"]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_flag_exits_1(capsys):
    assert run(["born", "--frobnicate"]) == 1


def test_bad_trials_exits_1(capsys):
    assert run(["born", "--trials", "0"]) == 1
    assert "config error" in capsys.readouterr().err


def test_missing_config_file_exits_1(capsys):
    assert run(["born", "--config", "/nonexistent/conf"]) == 1


def test_parse_alpha():
    a = parse_alpha("1,0")
    assert np.array_equal(a, [1, 0])
    b = parse_alpha("0.5+0.5i, 0.5-0.5i")
    assert np.allclose(b, [0.5 + 0.5j, 0.5 - 0.5j])
    c = parse_alpha("3,4", normalize=True)
    assert np.allclose(c, [0.6, 0.8])
    assert np.array_equal(parse_alpha("0.6,0.8i"), [0.6, 0.8j])
    assert np.array_equal(parse_alpha("inf,-infi"),
                          [np.inf, complex(0.0, -np.inf)])


def test_detect_probs_runs_and_prints(capsys):
    assert run(["detect-probs", "--trials", TRIALS, "--check"]) == 0
    out = capsys.readouterr().out
    assert "detection_probabilities" in out
    assert "P1" in out and "Pinf" in out


def test_born_check_passes_in_exact_regime(capsys):
    assert run(["born", "--trials", TRIALS, "--check"]) == 0
    assert "born_rule" in capsys.readouterr().out


def test_born_check_fails_for_unequal_magnitudes(capsys):
    code = run(["born", "--trials", TRIALS, "--check",
                "--alpha", "0.6,0.8"])
    assert code == 2
    assert "check failed" in capsys.readouterr().err


SWEEP_SEEDS = (DEFAULT_SEED, *range(1, 24))
# Each statistical --check at a size that resolves its claim: Z standard
# errors of S_D no longer reach across a CHSH bound, and the frequencies the
# other checks compare are well populated.
RESOLVING_RUNS = {
    # Gaussian noise reaches the Born rule only approximately, so these
    # checks compare against the oracle; against the Born value both
    # exited 2 on working code, at the default seed too.
    "born-gaussian": ["born", "--noise", "gaussian", "--trials", TRIALS],
    "tomography-gaussian": ["tomography", "--noise", "gaussian",
                            "--trials", TRIALS],
    "born-sphere": ["born", "--trials", "4096"],
    "tomography-sphere": ["tomography", "--alpha", "1,0", "--trials", "4096"],
    "chsh-joint-sphere": ["chsh-joint", "--noise", "sphere",
                          "--trials", str(1 << 14)],
    # About 650 detections per observable against S_D = 2.62: at 2^16
    # trials most seeds cannot tell S_D > 2 (exit 1).
    "chsh-joint-gaussian": ["chsh-joint", "--noise", "gaussian",
                            "--trials", str(1 << 18), "--workers", "2"],
    "chsh-local-sphere": ["chsh-local", "--trials", str(1 << 14)],
    "chsh-local-gaussian": ["chsh-local", "--noise", "gaussian",
                            "--trials", "4096"],
    "oracle": ["oracle", "--alpha", "0.8,0.6", "--s", "1", "--gamma", "3",
               "--mc-trials", TRIALS],
}


@pytest.mark.parametrize("name", RESOLVING_RUNS)
def test_check_passes_over_seeds(name, capsys):
    codes = {seed: run([*RESOLVING_RUNS[name], "--seed", str(seed),
                        "--check"]) for seed in SWEEP_SEEDS}
    assert codes == dict.fromkeys(SWEEP_SEEDS, 0), capsys.readouterr().err


def test_chsh_joint_gaussian_check_with_too_few_trials_exits_1(capsys):
    # About 10 detections per observable put S_D = 2.62 +- 0.55 either
    # side of 2.  The check used to exit 2 at seeds 1, 19, 27 and 42 (S_D
    # = 1.68, 1.82, 1.93, 1.48) and pass the rest without testing anything.
    for seed in (*SWEEP_SEEDS, 27, 42):
        assert run(["chsh-joint", "--noise", "gaussian", "--trials", "4096",
                    "--seed", str(seed), "--check"]) == 1
        assert "too few trials to check S_D > 2" in capsys.readouterr().err


def test_few_agreeing_detections_keep_a_standard_error():
    # Three detections per observable, all agreeing: S_D = 4, and every
    # observed +-1 mean has sample variance 0.  The claim's standard error
    # still spans both bounds, so the run shows nothing.
    agree = DetectionStats(np.array([0, 0, 3, 0]), np.array([1, -1]))
    disagree = DetectionStats(np.array([0, 0, 0, 3]), np.array([1, -1]))
    result = ChshResult({"AB": agree, "AB'": agree, "A'B": agree,
                         "A'B'": disagree})
    assert result.s_d == 4.0
    for bound in (2.0, 2.0 * np.sqrt(2.0)):
        with pytest.raises(ValueError, match="too few trials"):
            _check_chsh(result, bound)
    # A frequency of 1 in 3 detections is consistent with p = 0.5; an exact
    # claim (p = 0 or a mean of +-1) demands equality.
    _check_mean("p", 1.0, 0.5, 3)
    _check_mean("E", 1.0, 1.0, 3, low=-1.0)
    with pytest.raises(CheckFailure):
        _check_mean("p", 1e-9, 0.0, 1 << 30)
    with pytest.raises(CheckFailure):
        _check_mean("E", 1.0 - 1e-9, 1.0, 1 << 30, low=-1.0)
    # An expected value rounded just past an end still demands that end.
    _check_mean("E", -1.0, -1.0 - 1e-12, 3, low=-1.0)
    with pytest.raises(CheckFailure):
        _check_mean("p", 1.0 - 1e-9, 1.0 + 1e-12, 1 << 30)


@pytest.mark.parametrize("alpha", ["0.707106781187,0.707106781187",
                                   "1.00000000005,0"])
def test_tomography_check_of_alpha_just_past_unit_norm(alpha, capsys):
    # alpha is accepted within 1e-10 of unit norm, so the bounded-noise
    # E[X] (first) or E[Z] (second) rounds just past 1, while every
    # detection reads +1 and the observed mean is exactly 1.
    assert run(["tomography", "--alpha", alpha, "--trials", "4096",
                "--check"]) == 0


def test_chsh_check_fails_beyond_z_standard_errors_on_the_wrong_side():
    # 1000 detections per observable: the standard error at the bound 2
    # is sqrt(4/1000 - 4/4000) = 0.0548, so 5 of them span 0.27.
    def result(s_d):
        stats = [DetectionStats(np.array([0, 0, c, 1000 - c]),
                                np.array([1, -1]))
                 for c in [round(500 * (1 + s_d / 4))] * 3
                 + [round(500 * (1 - s_d / 4))]]
        return ChshResult(dict(zip(("AB", "AB'", "A'B", "A'B'"), stats)))

    _check_chsh(result(2.4), 2.0)
    _check_chsh(result(1.6), 2.0, above=False)
    with pytest.raises(ValueError, match="too few trials"):
        _check_chsh(result(2.2), 2.0)
    with pytest.raises(CheckFailure, match="S_D > 2.0000"):
        _check_chsh(result(1.6), 2.0)
    with pytest.raises(CheckFailure, match="S_D <= 2.0000"):
        _check_chsh(result(2.4), 2.0, above=False)


def test_chsh_joint_gaussian_check_expects_its_exact_record():
    # The exact record's four means give S_D = 2.6206953760.  With 654
    # detections per observable, as at 2^18 trials, S_D's standard error
    # under them is sqrt(4 (1 - E^2) / 654) = 0.0591, so an S_D moved by
    # 0.35 either way fails, while one moved by 0.25 passes.
    exact = chsh_joint_records(GAUSSIAN, exact_hists)
    assert [st.mean for st in exact.stats.values()] == pytest.approx(
        [0.6551738440, 0.6551738440, -0.6551738440, 0.6551738440], abs=1e-10)
    assert exact.s_d == pytest.approx(2.6206953760, abs=1e-10)

    def result(s_d):
        plus = round(327 * (1 + s_d / 4))
        stats = [DetectionStats(np.array([0, 0, c, 654 - c]),
                                np.array([1, -1]))
                 for c in (plus, plus, 654 - plus, plus)]
        return ChshResult(dict(zip(("AB", "AB'", "A'B", "A'B'"), stats)))

    for shift in (0.0, -0.25, 0.25):
        _check_s_d(result(exact.s_d + shift), exact)
    for shift in (-0.35, 0.35):
        with pytest.raises(CheckFailure, match=r"expected 2\.6207 \+- 5 x "
                                               r"0\.0591"):
            _check_s_d(result(exact.s_d + shift), exact)


def test_exact_records_give_the_oracle_under_gaussian_noise_and_born_otherwise():
    # born's and tomography's exact records at the defaults (s = sqrt(2) -
    # 1, sigma = gamma = 1), from the tallies their runs make.
    alpha = parse_alpha("0,1,1,0", normalize=True)
    born = probability.record(alpha, S_BOUNDED, NoiseModel(GAUSSIAN, 1.0, 4),
                              1.0, exact_hists)
    assert born.p_hat == pytest.approx([0.23368, 0.26632, 0.26632, 0.23368],
                                       abs=5e-6)
    z = pauli_records(np.array([1.0, 0.0]), S_BOUNDED,
                      NoiseModel(GAUSSIAN, 1.0, 2), 1.0, exact_hists)["Z"]
    assert z.mean == pytest.approx(0.125685, abs=5e-7)
    # Bounded noise has no exact law yet: its single detections are the
    # Born values |alpha|^2, and there are no others.
    sphere = probability.record(alpha, S_BOUNDED, NoiseModel(SPHERE, 1.0, 4),
                                1.0, exact_hists)
    assert np.array_equal(sphere.counts, np.abs(alpha) ** 2)
    assert sphere.no_detection == sphere.multiple_detections == 0.0
    assert sphere.p_hat == pytest.approx(np.abs(alpha) ** 2, abs=1e-15)


def _tally_key(tallies):
    """A tally list as nested lists of plain values, for comparison."""
    return [([[np.asarray(x).tolist() for x in ensemble]
              for ensemble in ensembles],
             [(m.unitary.tolist(), m.groups,
               None if m.values is None else m.values.tolist())
              for m in measurements]) for ensembles, measurements in tallies]


@pytest.mark.parametrize("name", ["born-gaussian", "tomography-gaussian",
                                  "chsh-joint-gaussian", "oracle"])
def test_a_checks_exact_record_is_built_from_its_runs_tallies(name,
                                                              monkeypatch):
    # Every --check that reads an exact record asks exact_hists for the law
    # of the very tallies its Monte Carlo run sampled, at the same gamma.
    seen = {}

    def spy(fn):
        def wrapper(tallies, gamma, *args, **kwargs):
            tallies = list(tallies)
            seen.setdefault(fn.__name__, []).append((_tally_key(tallies),
                                                     gamma))
            return fn(tallies, gamma, *args, **kwargs)
        return wrapper

    for fn in (probability.tally_chunks, probability.exact_hists):
        monkeypatch.setattr(probability, fn.__name__, spy(fn))
    assert run([*RESOLVING_RUNS[name], "--check"]) == 0
    assert len(seen["tally_chunks"]) == 1
    assert seen["exact_hists"] == seen["tally_chunks"]


# A shift of one exact cell that lies beyond Z standard errors of every
# --check with an exact record, at the sizes of the 24-seed sweep.
EXACT_SHIFT = 0.03


@pytest.mark.parametrize("name", ["born-gaussian", "tomography-gaussian",
                                  "oracle", "chsh-joint-gaussian"])
def test_check_fails_when_one_exact_cell_is_off(name, monkeypatch, capsys):
    # The first single-detection cell of the first exact histogram a check
    # asks for (born's component 1, E[Z]'s +1, the oracle's P_1, E(AB)'s
    # first outcome) moves by EXACT_SHIFT.  At these sizes that moves the
    # expected p_1 by 0.059 (20 standard errors), E[Z] by 0.051 (9), P_1
    # by 0.03 (44) and S_D by -1.09, so the check exits 2 where the true
    # exact record gives 0.
    argv = [*RESOLVING_RUNS[name], "--check"]
    assert run(argv) == 0
    calls = []

    def off(*args):
        hists = exact_hists(*args)
        if not calls:
            hists[0][2] += EXACT_SHIFT
        calls.append(args)
        return hists

    monkeypatch.setattr(probability, "exact_hists", off)
    assert run(argv) == 2
    assert calls
    assert "check failed" in capsys.readouterr().err


def test_oracle_prints_the_exact_record_it_checks(tmp_path, monkeypatch):
    # The analytic column is read off the one exact record that --check
    # expects, so a shifted record shows in it.
    out = tmp_path / "oracle.json"
    argv = ["oracle", "--alpha", "0.8,0.6", "--s", "1", "--gamma", "3",
            "--format", "json", "--output", str(out)]

    def analytic():
        assert run(argv) == 0
        [table] = json.loads(out.read_text())["tables"]
        return [row["analytic_raw"] for row in table["rows"]]

    true = analytic()

    def off(*args):
        hists = exact_hists(*args)
        hists[0][2] += EXACT_SHIFT
        return hists

    monkeypatch.setattr(probability, "exact_hists", off)
    assert analytic() == [true[0] + EXACT_SHIFT, true[1]]


def test_two_dim_check(capsys):
    assert run(["two-dim", "--trials", TRIALS, "--check"]) == 0


def test_magic_square_check(capsys):
    assert run(["magic-square", "--states", "4", "--trials", str(1 << 12),
                "--check"]) == 0
    out = capsys.readouterr().out
    assert "violation_count" in out


def replay_tables(tmp_path, vector, *flags) -> dict:
    """The rows of each table ``replay`` writes for one realization."""
    vec, out = tmp_path / "a.txt", tmp_path / "out.json"
    vec.write_text(vector)
    assert run(["replay", str(vec), *flags, "--format", "json",
                "--output", str(out)]) == 0
    return {t["name"]: [tuple(row.values()) for row in t["rows"]]
            for t in json.loads(out.read_text())["tables"]}


def test_replay_of_the_printed_qubit_realization(tmp_path, capsys):
    # At gamma 0.9 only component 1 of s*(1, 0) + w crosses.
    assert replay_tables(tmp_path, PRINTED["detect-probs"], "--gamma",
                         "0.9") == {
        "injected_outcome": [("detected", 1)],
        "pauli_outcomes": [("Z", "+1"), ("X", "-1"), ("Y", "NaN")]}


def test_replay_of_the_printed_pauli_realization(tmp_path, capsys):
    # Acceptance criterion 11's qubit realization, for alpha = (1, 0) at the
    # default s and gamma.
    tables = replay_tables(tmp_path, "0.5186,0.3818\n-0.6876,0.3354\n")
    assert tables["pauli_outcomes"] == [("Z", "+1"), ("X", "-1"), ("Y", "+1")]


def test_magic_square_inject(tmp_path, capsys):
    assert replay_tables(tmp_path, PRINTED["magic-square"], "--s", "0") == {
        "injected_outcome": [("no_detection", -1)],
        "context_outcomes": [("R1", -1, 1, -1, 1), ("R2", 1, 1, 1, 1),
                             ("R3", -1, 1, -1, 1), ("C1", -1, 1, -1, 1),
                             ("C2", 1, 1, 1, 1),
                             ("C3", "NaN", "NaN", "NaN", "NaN")],
        "local_outcomes": [("A", "+1"), ("A'", "-1"), ("B", "-1"),
                           ("B'", "+1")]}


def test_chsh_local_inject(tmp_path, capsys):
    assert replay_tables(tmp_path, PRINTED["chsh-local"], "--s", "0") == {
        "injected_outcome": [("detected", 2)],
        "context_outcomes": [("R1", "NaN", "NaN", "NaN", "NaN"),
                             ("R2", "NaN", "NaN", "NaN", "NaN"),
                             ("R3", 1, -1, -1, 1),
                             ("C1", "NaN", "NaN", "NaN", "NaN"),
                             ("C2", "NaN", "NaN", "NaN", "NaN"),
                             ("C3", 1, 1, -1, -1)],
        "local_outcomes": [("A", "+1"), ("A'", "NaN"), ("B", "NaN"),
                           ("B'", "+1")]}


def test_replay_alpha_defaults_to_the_first_basis_state(tmp_path, capsys):
    vector = PRINTED["magic-square"]
    assert replay_tables(tmp_path, vector) == replay_tables(
        tmp_path, vector, "--alpha", "1,0,0,0")
    # --s 0 drops the signal, so any alpha of the right dimension will do.
    assert replay_tables(tmp_path, vector, "--s", "0") == replay_tables(
        tmp_path, vector, "--s", "0", "--alpha", "1,1,1,1", "--normalize")


def test_replay_alpha_of_another_dimension_exits_1(tmp_path, capsys):
    vec = tmp_path / "a.txt"
    vec.write_text(PRINTED["magic-square"])
    assert run(["replay", str(vec), "--alpha", "1,0"]) == 1
    assert "does not match" in capsys.readouterr().err


def test_oracle_check(capsys):
    assert run(["oracle", "--alpha", "0.8,0.6", "--s", "1", "--gamma", "3",
                "--mc-trials", str(1 << 18), "--check"]) == 0
    out = capsys.readouterr().out
    assert "analytic" in out and "monte_carlo" in out


def test_oracle_past_the_marcum_range_exits_1(capsys):
    assert run(["oracle", "--alpha", "0.8,0.6", "--s", "3e9",
                "--gamma", "3"]) == 1
    captured = capsys.readouterr()
    assert "Marcum Q1 is not computable" in captured.err
    assert "nan" not in captured.out


def test_csv_output_with_raw_columns(tmp_path, capsys):
    path = tmp_path / "out.csv"
    assert run(["bell-state", "--trials", TRIALS, "--output", str(path)]) == 0
    text = path.read_text()
    assert text.startswith("# {")
    assert "# table: standard_basis" in text
    assert "_raw" in text


def test_json_output(tmp_path, capsys):
    path = tmp_path / "out.json"
    assert run(["tomography", "--trials", TRIALS, "--format", "json",
                "--output", str(path), "--check"]) == 0
    doc = json.loads(path.read_text())
    assert doc["meta"]["experiment"] == "tomography"
    names = [t["name"] for t in doc["tables"]]
    assert names == ["pauli_expectations", "rho_tilde"]


def test_seed_env_and_flag_precedence(tmp_path, capsys, monkeypatch):
    p1, p2, p3 = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    monkeypatch.setenv("SEED", "777")
    assert run(["detect-probs", "--trials", TRIALS, "--output", str(p1)]) == 0
    assert run(["detect-probs", "--trials", TRIALS, "--seed", "777",
                "--output", str(p2)]) == 0
    assert p1.read_text() == p2.read_text()
    # flag wins over env
    assert run(["detect-probs", "--trials", TRIALS, "--seed", "778",
                "--output", str(p3)]) == 0
    assert p1.read_text() != p3.read_text()


def test_default_seed_without_env(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("SEED", raising=False)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["detect-probs", "--trials", TRIALS, "--output", str(p1)]) == 0
    assert run(["detect-probs", "--trials", TRIALS,
                "--seed", str(DEFAULT_SEED), "--output", str(p2)]) == 0
    assert p1.read_text() == p2.read_text()


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\ntrials = 65536\nseed = 99\n")
    p1, p2, p3 = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    assert run(["detect-probs", "--config", str(cfg),
                "--output", str(p1)]) == 0
    assert run(["detect-probs", "--trials", TRIALS, "--seed", "99",
                "--output", str(p2)]) == 0
    assert p1.read_text() == p2.read_text()
    # explicit flag overrides the config value
    assert run(["detect-probs", "--config", str(cfg), "--seed", "100",
                "--output", str(p3)]) == 0
    assert p1.read_text() != p3.read_text()


def test_worker_count_does_not_change_output(tmp_path, capsys):
    p1, p2 = tmp_path / "w1.csv", tmp_path / "w4.csv"
    base = ["chsh-joint", "--trials", str(3 * (1 << 16) + 17)]
    assert run(base + ["--workers", "1", "--output", str(p1)]) == 0
    assert run(base + ["--workers", "4", "--output", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_parser_lists_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in ("detect-probs", "born", "tomography", "magic-square",
                 "chsh-joint", "chsh-local", "bell-state", "two-dim",
                 "oracle", "replay"):
        assert name in text


def test_oracle_check_passes_when_monte_carlo_sees_no_detections(capsys):
    # The analytic P = 1.1e-7 is consistent with 0 of 1000 trials; the
    # standard error must come from the analytic p, not the zero frequency.
    assert run(["oracle", "--alpha", "1,0", "--s", "0", "--gamma", "4",
                "--mc-trials", "1000", "--check"]) == 0


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_outside_range_exits_1(seed, capsys, monkeypatch):
    assert run(["detect-probs", "--trials", "10", "--seed", seed]) == 1
    assert "outside [0, 2^64)" in capsys.readouterr().err
    monkeypatch.setenv("SEED", seed)
    assert run(["detect-probs", "--trials", "10"]) == 1


def test_seed_range_edges_are_distinct(tmp_path, capsys):
    paths = {}
    for seed in ("0", str(2**64 - 1)):
        paths[seed] = tmp_path / f"{seed}.csv"
        assert run(["detect-probs", "--trials", "1000", "--seed", seed,
                    "--output", str(paths[seed])]) == 0
    # Output differs by more than the seed written in the metadata line.
    bodies = {p.read_text().split("\n", 1)[1] for p in paths.values()}
    assert len(bodies) == 2


@pytest.mark.parametrize("command", sorted(PRINTED))
@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_inject_exits_1(command, bad, tmp_path, capsys):
    # The printed realization of that experiment with one component spoiled.
    vec = tmp_path / "a.txt"
    vec.write_text(f"{bad},0\n" + PRINTED[command].split("\n", 1)[1])
    assert run(["replay", str(vec), "--s", "0"]) == 1
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["1,2,3", "abc,1", "0.5"])
def test_malformed_inject_line_exits_1(line, tmp_path, capsys):
    vec = tmp_path / "a.txt"
    vec.write_text(f"# w\n0.5,0\n{line}\n")
    assert run(["replay", str(vec)]) == 1
    assert f"{vec}, line 3: expected 're,im', got '{line}'" in \
        capsys.readouterr().err


def test_malformed_alpha_exits_1(capsys):
    assert run(["detect-probs", "--alpha", "1,x", "--trials", "10"]) == 1
    assert "--alpha: bad component 'x'" in capsys.readouterr().err


def test_non_finite_alpha_exits_1(capsys):
    assert run(["detect-probs", "--alpha", "nan,0", "--trials", "10"]) == 1
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["inf,0", "0,-inf", "0,infi"])
def test_infinite_alpha_is_non_finite_not_malformed(alpha, capsys):
    # The i of inf is not the imaginary unit: inf parses, then is rejected
    # as a non-finite design state.
    assert run(["detect-probs", "--alpha", alpha, "--trials", "10"]) == 1
    assert "non-finite" in capsys.readouterr().err


def test_zero_states_exits_1(capsys):
    assert run(["magic-square", "--states", "0", "--trials", "10"]) == 1
    assert "states must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "chsh-joint --trials 1", "magic-square --states 1 --trials 1",
    "oracle --mc-trials 1"])
def test_workers_above_the_ceiling_exit_1_before_any_thread_starts(argv,
                                                                   capsys):
    # Unchecked, each run would start a thread per job on a new pool.
    assert probability.MAX_WORKERS >= 8  # criterion 12 runs 8 workers
    threads = threading.active_count()
    workers = str(probability.MAX_WORKERS + 1)
    assert run([*argv.split(), "--workers", workers]) == 1
    captured = capsys.readouterr()
    assert f"workers must be <= {probability.MAX_WORKERS}" in captured.err
    assert captured.out == ""
    assert threading.active_count() == threads


def test_tomography_without_enough_detections_exits_1(capsys):
    assert run(["tomography", "--trials", "10"]) == 1
    err = capsys.readouterr().err
    assert "threshdet: error:" in err and "detections" in err


def test_negative_gamma_exits_1(capsys):
    assert run(["detect-probs", "--gamma", "-1", "--trials", "10"]) == 1
    assert "gamma must be non-negative" in capsys.readouterr().err


def test_unknown_config_key_exits_1(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trails = 5\n")
    assert run(["born", "--config", str(cfg)]) == 1
    assert "trails" in capsys.readouterr().err


# Flags each subcommand used to accept without reading them in some run.
IGNORED_FLAGS = {
    "detect-probs": "--inject",
    "born": "--normalize --inject",
    "tomography": "--inject",
    "magic-square": "--sigma --s --noise --alpha --normalize --gamma --inject",
    "chsh-joint": "--sigma --gamma --s --alpha --normalize --inject",
    "chsh-local": "--sigma --s --alpha --normalize --gamma --inject",
    "bell-state": "--sigma --gamma --s --noise --alpha --normalize --inject",
    "two-dim": "--sigma --gamma --s --noise --alpha --normalize --inject",
    "oracle": "--trials --noise --inject",
    "replay a.txt": "--seed --workers --trials --check",
}
# The sizes each subcommand reads, kept small: a flag accepted by mistake
# then runs for a moment, not at the default size, before the test fails.
SMALL_SIZES = {"magic-square": ["--states", "1", "--trials", "16"],
               "oracle": [], "replay a.txt": []}
FLAG_VALUES = {"--sigma": ["2"], "--gamma": ["3"], "--s": ["0.5"],
               "--noise": ["gaussian"], "--alpha": ["1,0"], "--normalize": [],
               "--inject": ["a.txt"], "--trials": ["5"], "--seed": ["1"],
               "--workers": ["2"], "--check": []}


@pytest.mark.parametrize("command,flag", [
    (command, flag) for command, flags in IGNORED_FLAGS.items()
    for flag in flags.split()])
def test_flag_the_subcommand_does_not_read_exits_1(command, flag, capsys):
    assert run([*command.split(), *SMALL_SIZES.get(command, ["--trials", "16"]),
                flag, *FLAG_VALUES[flag]]) == 1
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


# An empty --alpha is a malformed state, not a request for the default one.
EMPTY_ALPHA = {"detect-probs": ["--trials", "100"],
               "born": ["--trials", "100"],
               "tomography": ["--trials", "4096"],
               "oracle": [],
               "replay": []}


@pytest.mark.parametrize("command", sorted(EMPTY_ALPHA))
def test_empty_alpha_exits_1(command, tmp_path, capsys):
    vec = tmp_path / "a.txt"
    vec.write_text(PRINTED["detect-probs"])
    file = [str(vec)] if command == "replay" else []
    assert run([command, *file, *EMPTY_ALPHA[command], "--alpha", ""]) == 1
    assert "threshdet: error:" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["sigma = 2", "mc-trials = 5", "inject = a"])
def test_config_key_the_subcommand_does_not_take_exits_1(line, tmp_path,
                                                         capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"trials = 10\n{line}\n")
    assert run(["two-dim", "--config", str(cfg)]) == 1
    assert line.split()[0] in capsys.readouterr().err


def test_config_spells_mc_trials_with_an_underscore(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mc_trials = 1000\n")
    argv = ["oracle", "--alpha", "0.8,0.6", "--check"]
    assert run([*argv, "--config", str(cfg)]) == 0
    from_config = capsys.readouterr().out
    assert run([*argv, "--mc-trials", "1000"]) == 0
    assert capsys.readouterr().out == from_config


@pytest.mark.parametrize("mc_trials", ["0", "-5"])
def test_oracle_mc_trials_below_1_exits_1(mc_trials, capsys):
    assert run(["oracle", "--mc-trials", mc_trials]) == 1
    assert "mc_trials must be >= 1" in capsys.readouterr().err


def test_oracle_check_without_monte_carlo_exits_1(capsys):
    assert run(["oracle", "--alpha", "0.8,0.6", "--check"]) == 1
    captured = capsys.readouterr()
    assert "--check needs --mc-trials" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flags", ["--seed 5", "--seed 6 --workers 3",
                                   "--workers 1"])
def test_oracle_seed_or_workers_without_monte_carlo_exits_1(flags, capsys):
    assert run(["oracle", *flags.split()]) == 1
    captured = capsys.readouterr()
    assert "needs --mc-trials" in captured.err
    assert captured.out == ""


def test_oracle_without_monte_carlo_ignores_seed_env(capsys, monkeypatch):
    monkeypatch.setenv("SEED", "5")
    assert run(["oracle"]) == 0
    assert "seed=5" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["oracle", "replay"])
def test_negative_signal_strength_exits_1(command, tmp_path, capsys):
    vec = tmp_path / "w.txt"
    vec.write_text(PRINTED["detect-probs"])
    file = [str(vec)] if command == "replay" else []
    assert run([command, *file, "--s", "-1"]) == 1
    assert "signal strength must be non-negative" in capsys.readouterr().err


# The signal, noise and threshold flags of each subcommand, and the start of
# the error a value outside their range gives.
RANGE_FLAGS = {"detect-probs": "--s --sigma --gamma",
               "oracle": "--s --sigma --gamma", "replay": "--s --gamma"}
RANGE_ERRORS = {"--s": "signal strength must be", "--sigma": "sigma must be",
                "--gamma": "gamma must be"}


@pytest.mark.parametrize("command,flag", [
    (command, flag) for command, flags in RANGE_FLAGS.items()
    for flag in flags.split()])
@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_signal_noise_or_threshold_exits_1(command, flag, bad,
                                                      tmp_path, capsys):
    vec = tmp_path / "w.txt"
    vec.write_text(PRINTED["detect-probs"])
    extra = {"detect-probs": ["--trials", "1000"], "oracle": [],
             "replay": [str(vec)]}[command]
    assert run([command, *extra, flag, bad]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert RANGE_ERRORS[flag] in captured.err


def test_subnormal_sigma_exits_1_without_hanging():
    # A subnormal sigma once made the single_phase clamp loop forever; run
    # the CLI in a child process so that a regression times out and fails.
    src = Path(threshdet.__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from threshdet.cli import main; sys.exit(main(sys.argv[2:]))")
    done = subprocess.run(
        [sys.executable, "-c", code, str(src), "detect-probs", "--noise",
         "single_phase", "--sigma", "1e-320", "--trials", "16384"],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert done.stdout == ""
    assert "1e-320" in done.stderr


@pytest.mark.parametrize("sigma", ["1e-300", "1e-320"])
def test_oracle_tiny_sigma_exits_1_naming_sigma(sigma, capsys):
    # s/sigma or gamma/sigma overflows: the error names sigma, and numpy's
    # overflow warnings stay inside the oracle.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["oracle", "--alpha", "0.8,0.6", "--sigma", sigma]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"sigma={sigma} is too small for the analytic oracle"
            in captured.err)


@pytest.mark.parametrize("command", ["born", "chsh-joint", "chsh-local",
                                     "bell-state"])
def test_check_without_detections_exits_1(command, capsys):
    # One trial at the default seed leaves some ensemble of each run with no
    # detection, so there is nothing for the check to test.
    assert run([command, "--trials", "1", "--check"]) == 1
    assert "no detections to check" in capsys.readouterr().err


def test_magic_square_check_without_detections_exits_1(capsys):
    # One trial cannot detect in all six contexts (their six-way overlap is
    # always empty), so some context has nothing for the check to test.
    assert run(["magic-square", "--states", "1", "--trials", "1", "--check",
                "--seed", "3"]) == 1
    assert "no detections to check" in capsys.readouterr().err


def test_zero_alpha_with_normalize_exits_1(capsys):
    # Rejected before it is divided by its zero norm: numpy warns of
    # nothing, so turning warnings into errors changes nothing.
    for argv in (["born"], ["detect-probs", "--normalize"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([*argv, "--alpha", "0,0", "--trials", "10"]) == 1
        err = capsys.readouterr().err
        assert "zero vector" in err and "RuntimeWarning" not in err
    with pytest.raises(ValueError, match="zero vector"):
        parse_alpha("0,0", normalize=True)


@pytest.mark.parametrize("argv", [["bell-state"],
                                  ["chsh-joint", "--noise", "sphere"],
                                  ["chsh-local", "--noise", "sphere"]])
def test_check_passes_at_a_fixed_seed(argv, capsys):
    assert run([*argv, "--trials", TRIALS, "--seed", "20140731",
                "--check"]) == 0


def test_readme_cli_lines_parse():
    readme = Path(__file__).parents[1] / "README.md"
    block = readme.read_text().split("## CLI", 1)[1].split("```sh", 1)[1]
    lines = [line.split("#", 1)[0] for line in block.split("```", 1)[0]
             .splitlines() if line.startswith("threshdet ")]
    assert len(lines) == 10
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


WORKFLOW = Path(__file__).resolve().parents[1] / ".github/workflows/tests.yml"


def _workflow_step_script(name: str) -> str:
    """The ``run: |`` block of the workflow step ``name``, dedented.

    Read without a YAML parser: the block is every line after ``run: |``
    that is blank or indented deeper than ``run:``.
    """
    lines = WORKFLOW.read_text().splitlines()
    step = next(i for i, line in enumerate(lines)
                if line.strip() == f"- name: {name}")
    key = next(i for i in range(step + 1, len(lines))
               if lines[i].strip() == "run: |")
    indent = len(lines[key]) - len(lines[key].lstrip())
    body = []
    for line in lines[key + 1:]:
        if line.strip() and len(line) - len(line.lstrip()) <= indent:
            break
        body.append(line)
    return textwrap.dedent("\n".join(body)) + "\n"


@pytest.mark.skipif(shutil.which("bash") is None, reason="runs a bash step")
def test_ci_console_script_step_passes(tmp_path):
    # CI's "Console script" step, run as GitHub runs a bash step (bash -e)
    # through a `threshdet` on PATH, so its exit codes come from real
    # processes.
    script = _workflow_step_script("Console script")
    assert "threshdet " in script
    bin_dir, work = tmp_path / "bin", tmp_path / "work"
    bin_dir.mkdir()
    work.mkdir()
    for name, argv in (("threshdet", "-m threshdet.cli"), ("python", "")):
        shim = bin_dir / name
        shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" {argv} "$@"\n')
        shim.chmod(0o755)
    (tmp_path / "step.sh").write_text(script)
    src = str(Path(threshdet.__file__).resolve().parents[1])
    env = {**os.environ, "TMPDIR": str(tmp_path),
           "PATH": os.pathsep.join([str(bin_dir), os.environ["PATH"]]),
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(["bash", "-e", str(tmp_path / "step.sh")],
                          cwd=work, env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    # Nothing is written into the checkout the step runs in.
    assert list(work.iterdir()) == []
