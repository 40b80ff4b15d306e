"""Scripted end-to-end experiment reproductions.

Covers the two-dimensional warm-up configurations, the magic-square
contextuality Monte Carlo, joint and local CHSH runs, and the Bell-state
statistics checks, plus exact replay of injected realizations.

Every Monte Carlo run makes one ``probability.tally_chunks`` call, so one
pool map, for all its tallies: joint histograms of the shifted outcome
codes (see ``detection``) of measurements made on each realization.  Their
cells and marginals become ``DetectionStats`` records, and coincidences,
singles, product violations and the six-way overlap are sums of cells.
Result records hold only what a run measured, not its arguments or module
constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import detection, linalg, noise, probability
from .linalg import (H, I2, U_C1, U_C2, U_C3, U_R1, U_R2, U_R3, W_MINUS,
                     W_PLUS, X, Y, Z, Measurement, tensor,
                     verify_diagonalization)
from .noise import NoiseModel
from .probability import DetectionStats

SQRT2 = np.sqrt(2.0)
BELL_STATE = np.array([0, 1, 1, 0], dtype=complex) / SQRT2
TSIRELSON_BOUND = 2.0 * SQRT2

# Stream ids keep every ensemble in an experiment statistically independent
# while staying reproducible from a single seed.
_STREAM_JOINT_BASE = 100
_STREAM_LOCAL_BASE = 200
_STREAM_BELL_BASE = 300     # standard basis, then tilted
_STREAM_TWODIM_BASE = 400
_STREAM_MAGIC_STATES = 500
_STREAM_MAGIC_NOISE_BASE = 1000


def _context(u, *observables) -> Measurement:
    # Value row n: the signs the three observables take at component n.
    return Measurement(u, values=np.stack(
        [np.sign(verify_diagonalization(u, o)) for o in observables], axis=1))


# Magic-square contexts: one common diagonalizer per row and column, whose
# values are the three sign diagonals, validated at import time against the
# operator definitions; beside them, the product each context must give.
MAGIC_CONTEXTS: dict[str, Measurement] = {
    "R1": _context(U_R1, tensor(X, I2), tensor(I2, X), tensor(X, X)),
    "R2": _context(U_R2, tensor(I2, Y), tensor(Y, I2), tensor(Y, Y)),
    "R3": _context(U_R3, tensor(X, Y), tensor(Y, X), tensor(Z, Z)),
    "C1": _context(U_C1, tensor(X, I2), tensor(I2, Y), tensor(X, Y)),
    "C2": _context(U_C2, tensor(I2, X), tensor(Y, I2), tensor(Y, X)),
    "C3": _context(U_C3, tensor(X, X), tensor(Y, Y), tensor(Z, Z)),
}
MAGIC_PRODUCTS = {"R1": +1, "R2": +1, "R3": +1, "C1": +1, "C2": +1, "C3": -1}

# Joint CHSH observables: A = Z(x)I, A' = X(x)I paired with the tilted
# B = I(x)B+ and B' = I(x)B-, measured through one product unitary each.
JOINT_OBSERVABLES: dict[str, Measurement] = {
    "AB": Measurement.from_observable(tensor(I2, W_PLUS),
                                      tensor(Z, linalg.B_PLUS)),
    "AB'": Measurement.from_observable(tensor(I2, W_MINUS),
                                       tensor(Z, linalg.B_MINUS)),
    "A'B": Measurement.from_observable(tensor(H, W_PLUS),
                                       tensor(X, linalg.B_PLUS)),
    "A'B'": Measurement.from_observable(tensor(H, W_MINUS),
                                        tensor(X, linalg.B_MINUS)),
}

# Local CHSH: Alice (A, A') measures the left factor and Bob (B, B') the
# right one, each through a subspace partition whose groups follow the
# diagonals of the rotated operators.
LOCAL_SETTINGS: dict[str, Measurement] = {
    "A": Measurement(tensor(I2, I2), ((0, 1), (2, 3)), (+1.0, -1.0)),
    "A'": Measurement(tensor(H, I2), ((0, 1), (2, 3)), (+1.0, -1.0)),
    "B": Measurement(tensor(I2, W_PLUS), ((1, 3), (0, 2)), (+1.0, -1.0)),
    "B'": Measurement(tensor(I2, W_MINUS), ((0, 2), (1, 3)), (+1.0, -1.0)),
}
LOCAL_PAIRS = (("A", "B"), ("A", "B'"), ("A'", "B"), ("A'", "B'"))

# The tilted Bell-state observable I(x)B+, and the quantum probabilities of
# its four outcomes on the Bell state.
BELL_TILTED = Measurement.from_observable(tensor(I2, W_PLUS),
                                          tensor(I2, linalg.B_PLUS))
QUANTUM_TILTED = np.abs(BELL_STATE @ np.conj(BELL_TILTED.unitary)) ** 2

# Joint CHSH parameters (sigma, s, gamma) by noise kind.
CHSH_JOINT_PARAMS = {noise.SPHERE: (1.0, noise.S_BOUNDED, 1.0),
                     noise.GAUSSIAN: (1.0, 1.0, 3.0)}

# Two-dim setups, all at sigma = gamma = 1: noise kind, state and s.  Setup
# i runs on stream _STREAM_TWODIM_BASE + i.
_BASIS_2 = np.array([1.0, 0.0], dtype=complex)
_PLUS_2 = np.array([1.0, 1.0], dtype=complex) / SQRT2
TWO_DIM_SETUPS = {
    "single-phase basis state": (noise.SINGLE_PHASE, _BASIS_2, 1.1),
    "anti-correlated superposition": (noise.ANTICORRELATED_PHASE, _PLUS_2,
                                      1.001),
    "bloch-uniform basis state": (noise.BLOCH_UNIFORM, _BASIS_2,
                                  noise.S_BOUNDED),
    "bloch-uniform superposition": (noise.BLOCH_UNIFORM, _PLUS_2,
                                    noise.S_BOUNDED),
}


@dataclass
class ChshResult:
    """The four CHSH records, in the order AB, AB', A'B, A'B'."""

    stats: dict    # by JOINT_OBSERVABLES name or LOCAL_PAIRS entry

    @property
    def s_d(self) -> float:
        """S_D = |E(AB) + E(AB')| + |E(A'B) - E(A'B')|."""
        m = [st.mean for st in self.stats.values()]
        return abs(m[0] + m[1]) + abs(m[2] - m[3])

    @property
    def s_d_err(self) -> float:
        return sum(st.mean_stderr for st in self.stats.values())


@dataclass
class ChshLocalResult(ChshResult):
    singles_fraction: float
    coincidence_fraction: float
    efficiency: float


@dataclass
class MagicSquareResult:
    stats: dict[str, DetectionStats]    # by MAGIC_CONTEXTS name, all states
    violation_count: int
    six_way_overlap: int


def run_two_dim_examples(trials: int, seed: int, *,
                         workers: int = 1) -> dict[str, DetectionStats]:
    """Detection statistics for each of TWO_DIM_SETUPS, by name."""
    hists = probability.tally_chunks(
        [([(alpha, s, NoiseModel(kind, 1.0, 2), seed,
            _STREAM_TWODIM_BASE + i, trials)], (Measurement(np.eye(2)),))
         for i, (kind, alpha, s) in enumerate(TWO_DIM_SETUPS.values())],
        1.0, workers)
    return {name: DetectionStats(h) for name, h in zip(TWO_DIM_SETUPS, hists)}


def run_chsh_joint(noise_kind: str, trials: int, seed: int, *,
                   workers: int = 1) -> ChshResult:
    """Joint four-dimensional CHSH run with independent ensembles per observable."""
    if noise_kind not in CHSH_JOINT_PARAMS:
        raise ValueError(f"unsupported noise kind for this run: {noise_kind}")
    sigma, s, gamma = CHSH_JOINT_PARAMS[noise_kind]
    model = NoiseModel(noise_kind, sigma, 4)
    hists = probability.tally_chunks(
        [([(BELL_STATE, s, model, seed, _STREAM_JOINT_BASE + i, trials)],
          (obs,)) for i, obs in enumerate(JOINT_OBSERVABLES.values())],
        gamma, workers)
    return ChshResult({name: DetectionStats(h, obs.values) for (name, obs), h
                       in zip(JOINT_OBSERVABLES.items(), hists)})


def run_chsh_local(trials: int, seed: int, *, noise_kind: str = noise.SPHERE,
                   workers: int = 1) -> ChshLocalResult:
    """Local CHSH game: Alice and Bob measure the shared realization
    separately through subspace partitions; only coincidences are scored."""
    gamma = 1.0
    model = NoiseModel(noise_kind, 1.0, 4)
    # h[x, y] of a pair: trials where Alice's shifted code is x and Bob's y.
    hists = probability.tally_chunks(
        [([(BELL_STATE, noise.S_BOUNDED, model, seed, _STREAM_LOCAL_BASE + i,
            trials)], (LOCAL_SETTINGS[alice], LOCAL_SETTINGS[bob]))
         for i, (alice, bob) in enumerate(LOCAL_PAIRS)], gamma, workers)
    stats, singles = {}, 0
    for (alice, bob), h in zip(LOCAL_PAIRS, hists):
        # Coincidences (++, +-, -+, --) are single detections, valued by the
        # product of the two parties' values; the rest count as none.
        c = h[2:, 2:].ravel()
        stats[alice, bob] = DetectionStats(
            np.r_[0, trials - c.sum(), c],
            np.outer(LOCAL_SETTINGS[alice].values,
                     LOCAL_SETTINGS[bob].values).ravel())
        # Singles: Alice or Bob detects, so not both shifted codes are below 2.
        singles += trials - int(h[:2, :2].sum())
    n_total = trials * len(stats)
    coincidences = sum(st.n_detected for st in stats.values())
    return ChshLocalResult(
        stats=stats, singles_fraction=singles / n_total,
        coincidence_fraction=coincidences / n_total,
        efficiency=coincidences / singles if singles else np.nan)


def random_state(seed: int, state_index: int) -> np.ndarray:
    """Deterministic random design state z/||z|| for one magic-square run."""
    rng = noise.chunk_rng(seed, _STREAM_MAGIC_STATES, state_index)
    x = rng.standard_normal(8)
    z = x[:4] + 1j * x[4:]
    return z / np.linalg.norm(z)


def run_magic_square(num_states: int, trials_per_state: int, seed: int, *,
                     workers: int = 1) -> MagicSquareResult:
    """Measure all six magic-square contexts on shared realizations of
    random four-dimensional states; tally product violations (always zero)
    and the six-way detection overlap (always empty)."""
    if num_states < 1:
        raise ValueError("num_states must be at least 1")
    sigma = gamma = 1.0
    model = NoiseModel(noise.SPHERE, sigma, 4)
    ensembles = [(random_state(seed, i), noise.S_BOUNDED, model, seed,
                  _STREAM_MAGIC_NOISE_BASE + i, trials_per_state)
                 for i in range(num_states)]
    # joint[x_1, ..., x_6]: trials where context k's shifted code is x_k.
    [joint] = probability.tally_chunks([(ensembles, MAGIC_CONTEXTS.values())],
                                       gamma, workers)
    stats = {}
    for k, (name, m) in enumerate(MAGIC_CONTEXTS.items()):
        others = tuple(j for j in range(joint.ndim) if j != k)
        stats[name] = DetectionStats(joint.sum(axis=others), m.values)
    # A violation is a detection of a component whose three values multiply
    # to other than the product the context's operators require.
    violations = sum(
        int(st.counts[st.values.prod(axis=1) != MAGIC_PRODUCTS[name]].sum())
        for name, st in stats.items())
    # The six-way overlap: every context detects, every shifted code >= 2.
    overlap = int(joint[(slice(2, None),) * joint.ndim].sum())
    return MagicSquareResult(stats, violations, overlap)


def run_bell_state_checks(trials: int, seed: int, *, workers: int = 1
                          ) -> tuple[DetectionStats, DetectionStats]:
    """Bell-state statistics, standard then tilted: perfect
    anti-correlation in the standard basis and the four-outcome conditional
    distribution of the tilted observable."""
    sigma = gamma = 1.0
    s = noise.S_BOUNDED
    model = NoiseModel(noise.SPHERE, sigma, 4)
    ms = (Measurement(np.eye(4)), BELL_TILTED)
    hists = probability.tally_chunks(
        [([(BELL_STATE, s, model, seed, _STREAM_BELL_BASE + i, trials)], (m,))
         for i, m in enumerate(ms)], gamma, workers)
    return tuple(DetectionStats(h, m.values) for m, h in zip(ms, hists))


def replay(a, table: dict[str, Measurement], *,
           gamma: float = 1.0) -> dict[str, int]:
    """Outcome code of every measurement of ``table`` on one amplitude
    vector, such as an injected realization."""
    return {name: detection.measure(a, m, gamma) for name, m in table.items()}
