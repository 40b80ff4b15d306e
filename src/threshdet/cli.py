"""Command-line front end for the threshold-detection simulator."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import (detection, experiments, linalg, noise, output, probability,
               tomography)
from .noise import NoiseModel

DEFAULT_SEED = 12345
# A statistical --check rejects its claim beyond Z standard errors.
Z = 5.0

# argparse keywords of every flag.  A subcommand takes the flags listed next
# to its handler in _COMMANDS plus _COMMON_FLAGS; its --config file is parsed
# as those same flags (see _config_argv).  The upper-case key is a positional
# argument, not a flag.
_FLAGS = {
    "FILE": {"metavar": "FILE",
             "help": "noise realization w, one 're,im' component per line"},
    "trials": {"type": int, "default": 1 << 20},
    "seed": {"type": int},  # unset: SEED environment variable, DEFAULT_SEED
    "workers": {"type": int, "default": 1},
    "sigma": {"type": float, "default": 1.0},
    "gamma": {"type": float, "default": 1.0},
    "s": {"type": float, "default": noise.S_BOUNDED},
    "noise": {"choices": noise.KINDS, "default": noise.SPHERE},
    "alpha": {"default": "1,0",
              "help": "state components, comma separated (complex ok)"},
    "normalize": {"action": "store_true",
                  "help": "normalize --alpha instead of requiring unit norm"},
    "states": {"type": int, "default": 256},
    "mc_trials": {"type": int},
    "output": {},
    "format": {"choices": ("csv", "json"), "default": "csv"},
    "config": {"help": "flat 'key = value' configuration file"},
    "check": {"action": "store_true",
              "help": "assert the documented sanity conditions"},
}
_COMMON_FLAGS = ("output", "format", "config")
# Flags of every subcommand that runs a Monte Carlo simulation.
_RUN_FLAGS = "seed workers check"


class CheckFailure(AssertionError):
    """A --check assertion did not hold."""


class _Parser(argparse.ArgumentParser):
    # Usage text plus exit code 1 on any bad flag or subcommand.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def parse_alpha(text: str, normalize: bool = False) -> np.ndarray:
    comps = []
    for token in text.split(","):
        token = token.strip()
        # Only a trailing i is the imaginary unit: the i of inf is not.
        if token.endswith("i"):
            token = token[:-1] + "j"
        try:
            comps.append(complex(token))
        except ValueError:
            raise ValueError(f"--alpha: bad component {token!r}") from None
    alpha = np.array(comps, dtype=complex)
    if normalize:
        norm = np.linalg.norm(alpha)
        if norm == 0:
            raise ValueError("design state is the zero vector; "
                             "it cannot be normalized")
        alpha = alpha / norm
    return alpha


def _config_argv(path: str) -> list[str]:
    """The ``key = value`` lines of a config file as ``--key=value`` tokens."""
    tokens = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        # Keys are flag names spelled with underscores; a config file does
        # not name another config file.
        if "-" in key or key == "config":
            raise ValueError(f"unknown config key: {key}")
        tokens.append(f"--{key.replace('_', '-')}={value}")
    return tokens


def _resolve(args) -> argparse.Namespace:
    """Fall back to the SEED environment variable and check value ranges."""
    # Without --mc-trials, oracle draws no noise for these flags to act on.
    if args.command == "oracle" and args.mc_trials is None:
        for key in ("seed", "workers", "check"):
            if vars(args)[key] not in (None, False):
                raise ValueError(f"--{key} needs --mc-trials")
    if "seed" in args:
        if args.seed is None:
            env = os.environ.get("SEED")
            args.seed = int(env) if env else DEFAULT_SEED
        noise.check_seed(args.seed)
    for key in ("trials", "workers", "states", "mc_trials"):
        value = vars(args).get(key)
        if value is not None and value < 1:
            raise ValueError(f"{key} must be >= 1")
    return args


def _emit(args, tables: dict, **meta) -> None:
    """Print the report and write it to --output: one table per entry."""
    seed = {"seed": args.seed} if "seed" in args else {}  # replay draws none
    report = {"meta": {"experiment": args.command, **seed, **meta},
              "tables": [output.make_table(name, rows)
                         for name, rows in tables.items()]}
    sys.stdout.write(output.render_text(report))
    if args.output:
        Path(args.output).write_text(output.render(report, args.format))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def _require_detections(*stats: probability.DetectionStats) -> None:
    """Refuse a check with nothing to test: an input error, not a failure."""
    if min(st.n_detected for st in stats) == 0:
        raise ValueError("no detections to check")


def _stderr(p: float, n: int, low=0.0) -> float:
    """Standard error of a mean of ``n`` draws of ``low`` or 1 with mean p."""
    return float(np.sqrt((p - low) * (1.0 - p) / n))


def _check_mean(name: str, observed, expected, n: int, low=0.0) -> None:
    """Two-sided test that ``observed``, a frequency (``low`` 0) or +-1 mean
    (``low`` -1) of ``n`` draws, has mean ``expected``, clipped to [low, 1]
    as alpha is unit only to 1e-10.  A ``_stderr`` of 0 demands equality."""
    expected = min(max(expected, low), 1.0)
    se = _stderr(expected, n, low)
    _require(abs(observed - expected) <= Z * se, f"{name} = {observed:.4g}, "
             f"expected {expected:.4g} +- {Z:g} x {se:.3g}")


def _check_chsh(result, bound: float, above: bool = True) -> None:
    """Test the claim S_D > ``bound`` (<= if not ``above``).  S_D sums four
    independent +-1 means of n_i detections; where S_D = bound, Cauchy-Schwarz
    caps its standard error at sqrt(sum 1/n_i - bound^2 / sum n_i)."""
    _require_detections(*result.stats.values())
    n = np.array([st.n_detected for st in result.stats.values()], float)
    se = np.sqrt((1.0 / n).sum() - bound ** 2 / n.sum())  # > 0: bound < 4
    z = (result.s_d - bound) / se * (1 if above else -1)
    claim = (f"S_D {'>' if above else '<='} {bound:.4f} (S_D = "
             f"{result.s_d:.4f}, z = {z:+.2f} at standard error {se:.3g})")
    _require(z > -Z, f"{claim} is false")
    if z <= Z:
        raise ValueError(f"too few trials to check {claim}")


def _check_s_d(result, exact) -> None:
    """Two-sided test that S_D has the value of ``exact``, the exact record
    of the run.  Its standard error is taken under the exact +-1 means E_i:
    sqrt(sum (1 - E_i^2) / n_i) for the n_i detections of the four records."""
    _require_detections(*result.stats.values())
    n = np.array([st.n_detected for st in result.stats.values()], float)
    e = np.array([st.mean for st in exact.stats.values()])
    se = np.sqrt(((1.0 - e * e) / n).sum())
    _require(abs(result.s_d - exact.s_d) <= Z * se, f"S_D = {result.s_d:.4f}"
             f", expected {exact.s_d:.4f} +- {Z:g} x {se:.3g}")


# --- subcommand handlers ------------------------------------------------

def _cmd_detect_probs(args) -> None:
    alpha = parse_alpha(args.alpha, args.normalize)
    model = NoiseModel(args.noise, args.sigma, alpha.shape[0])
    stats = probability.estimate(alpha, args.s, model, args.gamma,
                                 args.trials, args.seed, workers=args.workers)
    rows = [{"outcome": f"P{n + 1}", "frequency": float(stats.P_hat[n]),
             "conditional": float(stats.p_hat[n]),
             "stderr": float(stats.stderr[n])}
            for n in range(model.dim)]
    rows.append({"outcome": "P0", "frequency": stats.P0_hat,
                 "conditional": float("nan"), "stderr": float("nan")})
    rows.append({"outcome": "Pinf", "frequency": stats.Pinf_hat,
                 "conditional": float("nan"), "stderr": float("nan")})
    _emit(args, {"detection_probabilities": rows}, trials=args.trials,
          noise=args.noise, s=args.s, sigma=args.sigma, gamma=args.gamma)
    if args.check:
        total = stats.P0_hat + stats.P_hat.sum() + stats.Pinf_hat
        _require(abs(total - 1.0) < 1e-12, "counting identity violated")


def _cmd_born(args) -> None:
    alpha = parse_alpha(args.alpha, True)
    model = NoiseModel(args.noise, args.sigma, alpha.shape[0])
    stats = probability.estimate(alpha, args.s, model, args.gamma,
                                 args.trials, args.seed, workers=args.workers)
    born = np.abs(alpha) ** 2
    rows = [{"component": n + 1, "p_hat": float(stats.p_hat[n]),
             "born": float(born[n]),
             "error": float(abs(stats.p_hat[n] - born[n]))}
            for n in range(model.dim)]
    _emit(args, {"born_rule": rows}, trials=args.trials, noise=args.noise,
          s=args.s, sigma=args.sigma, gamma=args.gamma,
          n_detected=stats.n_detected)
    if args.check:
        _require_detections(stats)
        exact = probability.record(alpha, args.s, model, args.gamma,
                                   probability.exact_hists)
        for n, (p_hat, p) in enumerate(zip(stats.p_hat, exact.p_hat), 1):
            _check_mean(f"component {n}: p_hat", p_hat, p, stats.n_detected)


def _cmd_tomography(args) -> None:
    alpha = parse_alpha(args.alpha, args.normalize)
    model = NoiseModel(args.noise, args.sigma, 2)
    inferred = tomography.infer_state(alpha, args.s, model, args.gamma,
                                      args.trials, args.seed,
                                      workers=args.workers)
    exp_rows = [{"pauli": p, "estimate": inferred.stats[p].mean,
                 "stderr": inferred.stats[p].mean_stderr,
                 "detections": inferred.stats[p].n_detected}
                for p in ("X", "Y", "Z")]
    rho = inferred.rho_tilde
    rho_rows = [{"row": i + 1, "col": j + 1,
                 "re": float(rho[i, j].real), "im": float(rho[i, j].imag)}
                for i in range(2) for j in range(2)]
    _emit(args, {"pauli_expectations": exp_rows, "rho_tilde": rho_rows},
          trials=args.trials, noise=args.noise, s=args.s, sigma=args.sigma,
          gamma=args.gamma)
    if args.check:
        _require(abs(np.trace(rho) - 1.0) < 1e-10, "trace(rho) != 1")
        _require(np.abs(rho - rho.conj().T).max() < 1e-10, "rho not Hermitian")
        exact = tomography.pauli_records(alpha, args.s, model, args.gamma,
                                         probability.exact_hists)
        for p, st in inferred.stats.items():
            _check_mean(f"E[{p}]", st.mean, exact[p].mean, st.n_detected,
                        low=-1.0)


def _cmd_magic_square(args) -> None:
    result = experiments.run_magic_square(args.states, args.trials, args.seed,
                                          workers=args.workers)
    rows = [{"context": name, "detections": st.n_detected}
            for name, st in result.stats.items()]
    summary = [{"states": args.states, "trials_per_state": args.trials,
                "violation_count": result.violation_count,
                "six_way_overlap": result.six_way_overlap}]
    _emit(args, {"context_detections": rows, "summary": summary})
    if args.check:
        _require_detections(*result.stats.values())
        _require(result.violation_count == 0, "product relation violated")
        _require(result.six_way_overlap == 0,
                 "six-way index intersection is not empty")


def _cmd_chsh_joint(args) -> None:
    result = experiments.run_chsh_joint(args.noise, args.trials, args.seed,
                                        workers=args.workers)
    rows = [{"observable": name,
             "n_1": int(st.counts[0]), "n_2": int(st.counts[1]),
             "n_3": int(st.counts[2]), "n_4": int(st.counts[3]),
             "n": st.n_detected, "mean": st.mean, "stderr": st.mean_stderr,
             "detection_fraction": st.detection_fraction}
            for name, st in result.stats.items()]
    summary = [{"S_D": result.s_d, "S_D_err": result.s_d_err,
                "S_quantum": experiments.TSIRELSON_BOUND}]
    _emit(args, {"correlations": rows, "summary": summary},
          trials=args.trials, noise=args.noise)
    if args.check:
        # First against the exact value, so that a wrong S_D exits 2 even
        # where too few trials resolve the claim.
        if args.noise == noise.GAUSSIAN:
            _check_s_d(result, experiments.chsh_joint_records(
                args.noise, probability.exact_hists))
        # Clearing the Tsirelson value by Z standard errors clears 2 too.
        _check_chsh(result, experiments.TSIRELSON_BOUND
                    if args.noise == noise.SPHERE else 2.0)


def _cmd_chsh_local(args) -> None:
    result = experiments.run_chsh_local(args.trials, args.seed,
                                        noise_kind=args.noise,
                                        workers=args.workers)
    rows = [{"alice": alice, "bob": bob,
             "n_uu": int(st.counts[0]), "n_ud": int(st.counts[1]),
             "n_du": int(st.counts[2]), "n_dd": int(st.counts[3]),
             "total": st.n_detected, "mean": st.mean,
             "stderr": st.mean_stderr}
            for (alice, bob), st in result.stats.items()]
    summary = [{"S_D": result.s_d, "S_D_err": result.s_d_err,
                "singles_fraction": result.singles_fraction,
                "coincidence_fraction": result.coincidence_fraction,
                "efficiency": result.efficiency}]
    _emit(args, {"correlations": rows, "summary": summary},
          trials=args.trials, noise=args.noise)
    if args.check:
        # Bounded noise violates the classical bound; Gaussian noise does not.
        _check_chsh(result, 2.0, above=args.noise == noise.SPHERE)


def _cmd_bell_state(args) -> None:
    std, tilted = experiments.run_bell_state_checks(args.trials, args.seed,
                                                    workers=args.workers)
    std_rows = [{"component": n + 1, "count": int(std.counts[n]),
                 "p_hat": float(std.p_hat[n])}
                for n in range(4)]
    tilt_rows = [{"component": n + 1, "count": int(tilted.counts[n]),
                  "p_hat": float(tilted.p_hat[n]),
                  "stderr": float(tilted.stderr[n]),
                  "quantum": float(experiments.QUANTUM_TILTED[n])}
                 for n in range(4)]
    _emit(args, {"standard_basis": std_rows, "tilted_observable": tilt_rows},
          trials=args.trials)
    if args.check:
        _require_detections(std, tilted)
        _require(std.counts[0] == 0 and std.counts[3] == 0,
                 "components 1/4 of the Bell state should never detect")


def _cmd_two_dim(args) -> None:
    stats = experiments.run_two_dim_examples(args.trials, args.seed,
                                             workers=args.workers)
    rows = [{"name": name, "noise": kind, "s": s, "gamma": 1.0,
             "P0": st.P0_hat, "P1": float(st.P_hat[0]),
             "P2": float(st.P_hat[1]), "Pinf": st.Pinf_hat}
            for (name, (kind, _, s)), st
            in zip(experiments.TWO_DIM_SETUPS.items(), stats.values())]
    _emit(args, {"two_dim_examples": rows}, trials=args.trials)
    if args.check:
        by_name = {r["name"]: r for r in rows}
        _require(by_name["single-phase basis state"]["P1"] == 1.0,
                 "single-phase config should always detect component 1")
        _require(all(r["Pinf"] == 0.0 for r in rows
                     if r["noise"] != noise.ANTICORRELATED_PHASE),
                 "bounded-noise configs must not produce double detections")


def _cmd_oracle(args) -> None:
    alpha = parse_alpha(args.alpha, args.normalize)
    analytic = probability.single_detection_probs(alpha, args.s, args.sigma,
                                                  args.gamma)
    rows = [{"component": n + 1, "analytic": float(analytic[n])}
            for n in range(alpha.shape[0])]
    if args.mc_trials:
        model = NoiseModel(noise.GAUSSIAN, args.sigma, alpha.shape[0])
        mc_stats = probability.estimate(alpha, args.s, model, args.gamma,
                                        args.mc_trials, args.seed,
                                        workers=args.workers or 1)
        for n, row in enumerate(rows):
            row["monte_carlo"] = float(mc_stats.P_hat[n])
            row["mc_stderr"] = _stderr(row["analytic"], args.mc_trials)
    _emit(args, {"single_detection_probs": rows}, s=args.s, sigma=args.sigma,
          gamma=args.gamma)
    if args.check:
        exact = probability.record(alpha, args.s, model, args.gamma,
                                   probability.exact_hists)
        for n, (P, p) in enumerate(zip(mc_stats.P_hat, exact.P_hat), 1):
            _check_mean(f"component {n}: Monte Carlo P", P, p, args.mc_trials)


# Tags of the codes that are not a detection, as replay prints them.
_TAGS = {detection.NO_DETECTION: "no_detection",
         detection.MULTIPLE_DETECTIONS: "multiple_detections"}


def _outcome_rows(a, table, gamma) -> list[dict]:
    """The value each measurement of ``table`` reports on ``a``, or NaN."""
    codes = experiments.replay(a, table, gamma=gamma)
    return [{"setting": name, "outcome": "NaN" if code < 0
             else f"{table[name].values[code]:+.0f}"}
            for name, code in codes.items()]


def _cmd_replay(args) -> None:
    w = noise.load_vector(args.file)
    if args.alpha is None:  # the first basis state of the file's dimension
        args.alpha = ",".join(["1"] + ["0"] * (len(w) - 1))
    a = noise.inject(parse_alpha(args.alpha, args.normalize), args.s, w)
    code = detection.measure(a, linalg.Measurement(np.eye(len(a))),
                             args.gamma)
    tables = {"injected_outcome": [
        {"tag": _TAGS.get(code, "detected"),
         "index": code + 1 if code >= 0 else -1}]}
    if len(a) == 2:
        tables["pauli_outcomes"] = _outcome_rows(a, linalg.PAULI_SPECS,
                                                 args.gamma)
    if len(a) == 4:
        rows = []
        contexts = experiments.MAGIC_CONTEXTS
        codes = experiments.replay(a, contexts, gamma=args.gamma)
        for name, code in codes.items():
            if code < 0:
                rows.append({"context": name, "g1": "NaN", "g2": "NaN",
                             "g3": "NaN", "product": "NaN"})
            else:
                g = [int(v) for v in contexts[name].values[code]]
                rows.append({"context": name, "g1": g[0], "g2": g[1],
                             "g3": g[2], "product": g[0] * g[1] * g[2]})
        tables["context_outcomes"] = rows
        tables["local_outcomes"] = _outcome_rows(a, experiments.LOCAL_SETTINGS,
                                                 args.gamma)
    _emit(args, tables, s=args.s, gamma=args.gamma)


# Each handler with the flags it reads, on top of _COMMON_FLAGS.
_COMMANDS = {
    "detect-probs": (_cmd_detect_probs,
                     f"trials sigma gamma s noise alpha normalize {_RUN_FLAGS}"),
    "born": (_cmd_born, f"trials sigma gamma s noise alpha {_RUN_FLAGS}"),
    "tomography": (_cmd_tomography,
                   f"trials sigma gamma s noise alpha normalize {_RUN_FLAGS}"),
    "magic-square": (_cmd_magic_square, f"trials states {_RUN_FLAGS}"),
    "chsh-joint": (_cmd_chsh_joint, f"trials noise {_RUN_FLAGS}"),
    "chsh-local": (_cmd_chsh_local, f"trials noise {_RUN_FLAGS}"),
    "bell-state": (_cmd_bell_state, f"trials {_RUN_FLAGS}"),
    "two-dim": (_cmd_two_dim, f"trials {_RUN_FLAGS}"),
    "oracle": (_cmd_oracle,
               f"sigma gamma s alpha normalize mc_trials {_RUN_FLAGS}"),
    "replay": (_cmd_replay, "FILE alpha normalize s gamma"),
}
# Defaults that differ from _FLAGS.  replay's --alpha depends on its FILE;
# oracle's --workers is unset so that _resolve sees whether it was given.
_OWN_DEFAULTS = {"born": {"alpha": "0,1,1,0"}, "replay": {"alpha": None},
                 "oracle": {"workers": None}}


def build_parser() -> _Parser:
    parser = _Parser(prog="threshdet",
                     description="Threshold-detection hidden-variable "
                                 "measurement simulator")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    for name, (_, flags) in _COMMANDS.items():
        # No abbreviations: two-dim would read --s as --seed.
        p = sub.add_parser(name, allow_abbrev=False)
        for key in (*flags.split(), *_COMMON_FLAGS):
            p.add_argument(key.lower() if key.isupper()
                           else "--" + key.replace("_", "-"), **_FLAGS[key])
        p.set_defaults(**_OWN_DEFAULTS.get(name, {}))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # Config values go before the user's flags, so the flags win.
            at = argv.index(args.command) + 1
            args = parser.parse_args([*argv[:at], *_config_argv(args.config),
                                      *argv[at:]])
        args = _resolve(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"threshdet: config error: {exc}\n")
        return 1
    try:
        _COMMANDS[args.command][0](args)
    except CheckFailure as exc:
        sys.stderr.write(f"threshdet: check failed: {exc}\n")
        return 2
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"threshdet: error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
