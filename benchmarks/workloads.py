"""The benchmark's workloads: fixed sequences of checked CLI operations.

Every operation runs ``threshdet.cli.main`` with ``--seed``, ``--workers``,
``--check`` and ``--output`` appended, so its exit code says whether the
documented check held and its output file can be hashed.

A realization is one amplitude vector ``a = s*alpha + w``.  Each operation
states how many it realizes; the traced run checks that count against the
rows ``noise.draw_noise_block`` actually returned.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

DEFAULT_SEED = 20140731

# Default sizes.  Each workload's sequence takes about two seconds on a
# 2-core Xeon, so one run of the benchmark times several sequences.
SIZES = {
    # 2^18 trials: four full 2^16-row chunks per ensemble, no draws wasted.
    "chsh": {"trials": 1 << 18},
    # 2^14 trials per state: three quarters of every drawn chunk is discarded.
    "magic-square": {"states": 32, "trials": 1 << 14},
    "qubit": {"mc_trials": 1 << 20, "trials": 1 << 19},
}

# Criterion 10's 3x3 grid without (s, gamma) = (0.5, 4) and (1, 4).  There
# a component's expected count at 2^20 trials is 0.3 to 7, and
# `oracle --check`, which takes its standard error from the Monte Carlo
# frequency, fails on 86% and 12% of seeds.  Each kept cell fails on fewer
# than 3e-5 of seeds.
ORACLE_GRID = tuple((s, gamma) for s in (0.5, 1.0, 2.0)
                    for gamma in (2.0, 3.0, 4.0)
                    if (s, gamma) not in ((0.5, 4.0), (1.0, 4.0)))


@dataclass(frozen=True)
class Op:
    """One CLI invocation, without the flags the runner appends."""

    label: str
    argv: tuple[str, ...]
    realizations: int


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    workers: int

    @property
    def realizations(self) -> int:
        return sum(op.realizations for op in self.ops)


def available_cpus() -> int:
    return len(os.sched_getaffinity(0))


def cli_argv(op: Op, seed: int, workers: int, output) -> list[str]:
    return [*op.argv, "--seed", str(seed), "--workers", str(workers),
            "--check", "--output", str(output)]


def _chsh(trials: int) -> tuple[Op, ...]:
    # Four ensembles each: one per joint observable, one per local pair.
    return (
        Op("chsh-joint", ("chsh-joint", "--noise", "sphere",
                          "--trials", str(trials)), 4 * trials),
        Op("chsh-local", ("chsh-local", "--trials", str(trials)), 4 * trials),
    )


def _magic_square(states: int, trials: int) -> tuple[Op, ...]:
    return (Op("magic-square", ("magic-square", "--states", str(states),
                                "--trials", str(trials)), states * trials),)


def _qubit(mc_trials: int, trials: int) -> tuple[Op, ...]:
    oracle = tuple(
        Op(f"oracle-s{s:g}-g{gamma:g}",
           ("oracle", "--alpha", "0.8,0.6", "--s", repr(s), "--gamma",
            repr(gamma), "--mc-trials", str(mc_trials)), mc_trials)
        for s, gamma in ORACLE_GRID)
    # tomography: Z, X and Y ensembles; two-dim: four scripted setups.
    return oracle + (
        Op("tomography", ("tomography", "--alpha", "1,0",
                          "--trials", str(trials)), 3 * trials),
        Op("two-dim", ("two-dim", "--trials", str(trials)), 4 * trials),
    )


_BUILDERS = {"chsh": _chsh, "magic-square": _magic_square, "qubit": _qubit}
NAMES = tuple(_BUILDERS)


def build(name: str, sizes: dict | None = None) -> Workload:
    """The workload ``name`` at its default sizes, or at ``sizes`` if given."""
    ops = _BUILDERS[name](**(SIZES[name] if sizes is None else sizes))
    # The serial baseline bypasses the pool; the others use every core up to 2.
    workers = 1 if name == "qubit" else min(2, available_cpus())
    return Workload(name, ops, workers)
