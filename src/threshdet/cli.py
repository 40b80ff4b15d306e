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
DEFAULTS = {
    "trials": 1 << 20,
    "workers": 1,
    "sigma": 1.0,
    "gamma": 1.0,
    "s": float(np.sqrt(2.0) - 1.0),
    "noise": noise.SPHERE,
    "format": "csv",
    "states": 256,
}


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
        token = token.strip().replace("i", "j")
        comps.append(complex(token))
    alpha = np.array(comps, dtype=complex)
    if normalize:
        alpha = alpha / np.linalg.norm(alpha)
    return alpha


def _load_config(path: str) -> dict:
    cfg = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {line!r}")
        key, value = line.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


_CONFIG_TYPES = {
    "trials": int, "seed": int, "workers": int, "states": int,
    "sigma": float, "gamma": float, "s": float, "mc_trials": int,
    "noise": str, "format": str, "output": str, "alpha": str,
}


def _resolve(args) -> argparse.Namespace:
    """Apply precedence: flags > config file > SEED env > built-in defaults."""
    cfg = _load_config(args.config) if getattr(args, "config", None) else {}
    unknown = sorted(set(cfg) - set(_CONFIG_TYPES))
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    for key, caster in _CONFIG_TYPES.items():
        if getattr(args, key, None) is None and key in cfg:
            setattr(args, key, caster(cfg[key]))
    if getattr(args, "seed", None) is None:
        env = os.environ.get("SEED")
        args.seed = int(env) if env else DEFAULT_SEED
    for key, value in DEFAULTS.items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)
    noise.check_seed(args.seed)
    if args.trials < 1:
        raise ValueError("trials must be >= 1")
    if args.workers < 1:
        raise ValueError("workers must be >= 1")
    if args.states < 1:
        raise ValueError("states must be >= 1")
    return args


def _emit(report: dict, args) -> None:
    sys.stdout.write(output.render_text(report))
    if getattr(args, "output", None):
        Path(args.output).write_text(output.render(report, args.format))


def _meta(args, experiment: str, **extra) -> dict:
    meta = {"experiment": experiment, "seed": args.seed}
    meta.update(extra)
    return meta


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


# --- subcommand handlers ------------------------------------------------

def _cmd_detect_probs(args) -> None:
    alpha = parse_alpha(args.alpha or "1,0", args.normalize)
    model = NoiseModel(args.noise, args.sigma, alpha.shape[0])
    if args.inject:
        w = noise.load_vector(args.inject)
        a = noise.inject(alpha, args.s, w)
        res = detectionoutcome_row(a, args.gamma)
        report = {"meta": _meta(args, "detect-probs", mode="inject"),
                  "tables": [output.make_table("injected_outcome", [res])]}
        _emit(report, args)
        return
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
    report = {"meta": _meta(args, "detect-probs", trials=args.trials,
                            noise=args.noise, s=args.s, sigma=args.sigma,
                            gamma=args.gamma),
              "tables": [output.make_table("detection_probabilities", rows)]}
    _emit(report, args)
    if args.check:
        total = stats.P0_hat + stats.P_hat.sum() + stats.Pinf_hat
        _require(abs(total - 1.0) < 1e-12, "counting identity violated")


def detectionoutcome_row(a, gamma) -> dict:
    res = detection.measure_standard(a, gamma)
    return {"tag": res.tag.value,
            "index": -1 if res.index is None else res.index + 1}


def _cmd_born(args) -> None:
    alpha = parse_alpha(args.alpha or "0,1,1,0", True)
    model = NoiseModel(args.noise, args.sigma, alpha.shape[0])
    stats = probability.estimate(alpha, args.s, model, args.gamma,
                                 args.trials, args.seed, workers=args.workers)
    born = np.abs(alpha) ** 2
    tol = 4.0 / np.sqrt(stats.n_detected) if stats.n_detected else np.inf
    rows = [{"component": n + 1, "p_hat": float(stats.p_hat[n]),
             "born": float(born[n]),
             "error": float(abs(stats.p_hat[n] - born[n]))}
            for n in range(model.dim)]
    report = {"meta": _meta(args, "born", trials=args.trials,
                            noise=args.noise, s=args.s, sigma=args.sigma,
                            gamma=args.gamma,
                            n_detected=stats.n_detected),
              "tables": [output.make_table("born_rule", rows)]}
    _emit(report, args)
    if args.check:
        for row in rows:
            if row["born"] == 0.0:
                _require(row["p_hat"] == 0.0,
                         f"component {row['component']}: expected exact zero")
            else:
                _require(row["error"] <= tol,
                         f"component {row['component']}: off by {row['error']:.4g}"
                         f" > {tol:.4g}")


def _cmd_tomography(args) -> None:
    alpha = parse_alpha(args.alpha or "1,0", args.normalize)
    model = NoiseModel(args.noise, args.sigma, 2)
    inferred = tomography.infer_state(alpha, args.s, model, args.gamma,
                                      args.trials, args.seed,
                                      workers=args.workers)
    exp_rows = [{"pauli": p, "estimate": inferred.expectations[p],
                 "stderr": getattr(inferred, f"stderr_{p.lower()}"),
                 "detections": inferred.detections[p]}
                for p in ("X", "Y", "Z")]
    rho = inferred.rho_tilde
    rho_rows = [{"row": i + 1, "col": j + 1,
                 "re": float(rho[i, j].real), "im": float(rho[i, j].imag)}
                for i in range(2) for j in range(2)]
    report = {"meta": _meta(args, "tomography", trials=args.trials,
                            noise=args.noise, s=args.s, sigma=args.sigma,
                            gamma=args.gamma),
              "tables": [output.make_table("pauli_expectations", exp_rows),
                         output.make_table("rho_tilde", rho_rows)]}
    _emit(report, args)
    if args.check:
        _require(abs(np.trace(rho) - 1.0) < 1e-10, "trace(rho) != 1")
        _require(np.abs(rho - rho.conj().T).max() < 1e-10, "rho not Hermitian")
        for p, op in (("X", linalg.X), ("Y", linalg.Y), ("Z", linalg.Z)):
            target = float(np.real(alpha.conj() @ op @ alpha))
            est = inferred.expectations[p]
            err = getattr(inferred, f"stderr_{p.lower()}")
            _require(abs(est - target) <= 5 * err,
                     f"E[{p}] = {est:.4f} vs quantum {target:.4f}")


def _cmd_magic_square(args) -> None:
    if args.inject:
        a = noise.load_vector(args.inject)
        outcomes = experiments.replay_magic_square(a, gamma=args.gamma)
        rows = []
        for name, triple in outcomes.items():
            if triple is None:
                rows.append({"context": name, "g1": "NaN", "g2": "NaN",
                             "g3": "NaN", "product": "NaN"})
            else:
                rows.append({"context": name,
                             "g1": int(triple[0]), "g2": int(triple[1]),
                             "g3": int(triple[2]),
                             "product": int(triple[0] * triple[1] * triple[2])})
        report = {"meta": _meta(args, "magic-square", mode="inject"),
                  "tables": [output.make_table("context_outcomes", rows)]}
        _emit(report, args)
        return
    result = experiments.run_magic_square(args.states, args.trials, args.seed,
                                          workers=args.workers)
    rows = [{"context": name, "detections": n}
            for name, n in result.context_detections.items()]
    summary = [{"states": result.num_states,
                "trials_per_state": result.trials_per_state,
                "violation_count": result.violation_count,
                "six_way_overlap": result.six_way_overlap}]
    report = {"meta": _meta(args, "magic-square"),
              "tables": [output.make_table("context_detections", rows),
                         output.make_table("summary", summary)]}
    _emit(report, args)
    if args.check:
        _require(result.violation_count == 0, "product relation violated")
        _require(result.six_way_intersection_empty,
                 "six-way index intersection is not empty")


def _chsh_tables(result, meta):
    if isinstance(result, experiments.ChshJointResult):
        rows = [{"observable": r.name,
                 "n_1": int(r.counts[0]), "n_2": int(r.counts[1]),
                 "n_3": int(r.counts[2]), "n_4": int(r.counts[3]),
                 "n": r.n, "mean": r.mean, "stderr": r.stderr,
                 "detection_fraction": r.detection_fraction}
                for r in result.rows]
        summary = [{"S_D": result.s_d, "S_D_err": result.s_d_err,
                    "S_quantum": result.s_quantum}]
    else:
        rows = [{"alice": r.alice, "bob": r.bob,
                 "n_uu": int(r.counts[0]), "n_ud": int(r.counts[1]),
                 "n_du": int(r.counts[2]), "n_dd": int(r.counts[3]),
                 "total": r.total, "mean": r.mean, "stderr": r.stderr}
                for r in result.rows]
        summary = [{"S_D": result.s_d, "S_D_err": result.s_d_err,
                    "singles_fraction": result.singles_fraction,
                    "coincidence_fraction": result.coincidence_fraction,
                    "efficiency": result.efficiency}]
    return {"meta": meta,
            "tables": [output.make_table("correlations", rows),
                       output.make_table("summary", summary)]}


def _cmd_chsh_joint(args) -> None:
    result = experiments.run_chsh_joint(args.noise, args.trials, args.seed,
                                        workers=args.workers)
    report = _chsh_tables(result, _meta(args, "chsh-joint", trials=args.trials,
                                        noise=args.noise))
    _emit(report, args)
    if args.check:
        _require(result.s_d > 2.0, f"S_D = {result.s_d:.4f} <= 2")
        if args.noise == noise.SPHERE:
            _require(result.s_d > experiments.TSIRELSON_BOUND,
                     f"S_D = {result.s_d:.4f} below the Tsirelson value")


def _cmd_chsh_local(args) -> None:
    if args.inject:
        a = noise.load_vector(args.inject)
        outcomes = experiments.replay_local(a, gamma=args.gamma)
        rows = [{"setting": k, "outcome": v} for k, v in outcomes.items()]
        report = {"meta": _meta(args, "chsh-local", mode="inject"),
                  "tables": [output.make_table("local_outcomes", rows)]}
        _emit(report, args)
        return
    result = experiments.run_chsh_local(args.trials, args.seed,
                                        noise_kind=args.noise,
                                        workers=args.workers)
    report = _chsh_tables(result, _meta(args, "chsh-local", trials=args.trials,
                                        noise=args.noise))
    _emit(report, args)
    if args.check:
        if args.noise == noise.SPHERE:
            _require(result.s_d > 2.0, f"S_D = {result.s_d:.4f} <= 2")
        else:
            bound = 2.0 + 3.0 * result.s_d_err
            _require(result.s_d <= bound,
                     f"S_D = {result.s_d:.4f} unexpectedly above {bound:.4f}")


def _cmd_bell_state(args) -> None:
    result = experiments.run_bell_state_checks(args.trials, args.seed,
                                               workers=args.workers)
    std_rows = [{"component": n + 1, "count": int(result.standard_counts[n]),
                 "p_hat": float(result.standard_p_hat[n])}
                for n in range(4)]
    tilt_rows = [{"component": n + 1, "count": int(result.tilted_counts[n]),
                  "p_hat": float(result.tilted_p_hat[n]),
                  "stderr": float(result.tilted_stderr[n]),
                  "quantum": float(result.quantum_tilted[n])}
                 for n in range(4)]
    report = {"meta": _meta(args, "bell-state", trials=args.trials),
              "tables": [output.make_table("standard_basis", std_rows),
                         output.make_table("tilted_observable", tilt_rows)]}
    _emit(report, args)
    if args.check:
        _require(result.standard_counts[0] == 0
                 and result.standard_counts[3] == 0,
                 "components 1/4 of the Bell state should never detect")


def _cmd_two_dim(args) -> None:
    rows = [{"name": r.name, "noise": r.kind, "s": r.s, "gamma": r.gamma,
             "P0": r.p0, "P1": r.p1, "P2": r.p2, "Pinf": r.p_inf}
            for r in experiments.run_two_dim_examples(args.trials, args.seed,
                                                      workers=args.workers)]
    report = {"meta": _meta(args, "two-dim", trials=args.trials),
              "tables": [output.make_table("two_dim_examples", rows)]}
    _emit(report, args)
    if args.check:
        by_name = {r["name"]: r for r in rows}
        _require(by_name["single-phase basis state"]["P1"] == 1.0,
                 "single-phase config should always detect component 1")
        _require(all(r["Pinf"] == 0.0 for r in rows
                     if r["noise"] != noise.ANTICORRELATED_PHASE),
                 "bounded-noise configs must not produce double detections")


def _cmd_oracle(args) -> None:
    alpha = parse_alpha(args.alpha or "1,0", args.normalize)
    analytic = probability.single_detection_probs(alpha, args.s, args.sigma,
                                                  args.gamma)
    rows = [{"component": n + 1, "analytic": float(analytic[n])}
            for n in range(alpha.shape[0])]
    mc_stats = None
    if args.mc_trials:
        model = NoiseModel(noise.GAUSSIAN, args.sigma, alpha.shape[0])
        mc_stats = probability.estimate(alpha, args.s, model, args.gamma,
                                        args.mc_trials, args.seed,
                                        workers=args.workers)
        for n, row in enumerate(rows):
            p = float(mc_stats.P_hat[n])
            row["monte_carlo"] = p
            row["mc_stderr"] = float(np.sqrt(p * (1 - p) / args.mc_trials))
    report = {"meta": _meta(args, "oracle", s=args.s, sigma=args.sigma,
                            gamma=args.gamma),
              "tables": [output.make_table("single_detection_probs", rows)]}
    _emit(report, args)
    if args.check and mc_stats is not None:
        for row in rows:
            # Standard error under the analytic p being tested, as in
            # acceptance criterion 10: the Monte Carlo frequency can be 0.
            p = row["analytic"]
            se = max(float(np.sqrt(p * (1 - p) / args.mc_trials)), 1e-12)
            _require(abs(row["analytic"] - row["monte_carlo"]) <= 5 * se,
                     f"component {row['component']}: analytic vs Monte Carlo"
                     " disagreement beyond 5 standard errors")


_COMMANDS = {
    "detect-probs": _cmd_detect_probs,
    "born": _cmd_born,
    "tomography": _cmd_tomography,
    "magic-square": _cmd_magic_square,
    "chsh-joint": _cmd_chsh_joint,
    "chsh-local": _cmd_chsh_local,
    "bell-state": _cmd_bell_state,
    "two-dim": _cmd_two_dim,
    "oracle": _cmd_oracle,
}


def build_parser() -> _Parser:
    parser = _Parser(prog="threshdet",
                     description="Threshold-detection hidden-variable "
                                 "measurement simulator")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--sigma", type=float, default=None)
        p.add_argument("--gamma", type=float, default=None)
        p.add_argument("--s", type=float, default=None)
        p.add_argument("--noise", choices=noise.KINDS, default=None)
        p.add_argument("--alpha", type=str, default=None,
                       help="state components, comma separated (complex ok)")
        p.add_argument("--normalize", action="store_true",
                       help="normalize --alpha instead of requiring unit norm")
        p.add_argument("--inject", type=str, default=None,
                       help="text file with one 're,im' component per line")
        p.add_argument("--output", type=str, default=None)
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--config", type=str, default=None,
                       help="flat 'key = value' configuration file")
        p.add_argument("--check", action="store_true",
                       help="assert the documented sanity conditions")
        if name == "magic-square":
            p.add_argument("--states", type=int, default=None)
        if name == "oracle":
            p.add_argument("--mc-trials", dest="mc_trials", type=int,
                           default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args = _resolve(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"threshdet: config error: {exc}\n")
        return 1
    try:
        _COMMANDS[args.command](args)
    except CheckFailure as exc:
        sys.stderr.write(f"threshdet: check failed: {exc}\n")
        return 2
    except (ValueError, OSError, tomography.InsufficientDetections) as exc:
        sys.stderr.write(f"threshdet: error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
