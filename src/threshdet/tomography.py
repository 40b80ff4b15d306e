"""Single-qubit state inference from conditional detection statistics."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import linalg, noise, probability
from .noise import NoiseModel
from .probability import DetectionStats

# Basis streams keep the three measurement ensembles independent.
_STREAMS = {"Z": 10, "X": 11, "Y": 12}
_STREAM_BPLUS = 13

# Fewest detections in a basis for its mean to count as an estimate.
MIN_DETECTIONS = 100

# B+ = -(X+Z)/sqrt(2), measured in its eigenbasis W+.
BPLUS = linalg.Measurement.from_observable(linalg.W_PLUS, linalg.B_PLUS)
QUANTUM_BPLUS_EXPECTATION = -1.0 / np.sqrt(2.0)


class InsufficientDetections(ValueError):
    """Too few detections in some basis to form a usable estimate."""


@dataclass
class InferredState:
    """Per-basis detection statistics and the inferred density operator."""

    stats: dict[str, DetectionStats]    # by linalg.PAULI_SPECS name
    rho_tilde: np.ndarray


def infer_state(alpha, s: float, model: NoiseModel, gamma: float, trials: int,
                seed: int, *, workers: int = 1) -> InferredState:
    """Estimate E[X], E[Y], E[Z] from three independent ensembles and
    assemble the inferred density operator (I + ExX + EyY + EzZ)/2."""
    stats = pauli_records(alpha, s, model, gamma, functools.partial(
        probability.tally_chunks, seed=seed, trials=trials, workers=workers))
    for st in stats.values():
        if st.n_detected < MIN_DETECTIONS:
            raise InsufficientDetections(
                f"only {st.n_detected} detections (need {MIN_DETECTIONS})")
    e = {name: st.mean for name, st in stats.items()}
    rho = 0.5 * (linalg.I2 + e["X"] * linalg.X + e["Y"] * linalg.Y
                 + e["Z"] * linalg.Z)
    return InferredState(stats=stats, rho_tilde=rho)


def pauli_records(alpha, s: float, model: NoiseModel, gamma: float,
                  hists_of) -> dict[str, DetectionStats]:
    """``infer_state``'s record of each basis over ``hists_of(tallies,
    gamma)``: over ``probability.tally_chunks`` at a seed and trial count,
    or over ``probability.exact_hists``."""
    if noise.signal(alpha, s).shape != (2,) or model.dim != 2:
        raise ValueError("state inference is defined for dimension 2 only")
    hists = hists_of(
        [([(alpha, s, model, _STREAMS[name])], (spec,))
         for name, spec in linalg.PAULI_SPECS.items()], gamma)
    return {name: DetectionStats(h, spec.values) for (name, spec), h
            in zip(linalg.PAULI_SPECS.items(), hists)}


def bplus_counterexample(trials: int, seed: int, *,
                         workers: int = 1) -> DetectionStats:
    """Measure B+ = -(X+Z)/sqrt(2) on the basis state [1, 0].

    The inferred density operator for this state is correct, yet the
    conditional statistics of this observable do not match Tr(rho B+),
    whose value is ``QUANTUM_BPLUS_EXPECTATION``.
    """
    sigma = gamma = 1.0
    model = NoiseModel(noise.SPHERE, sigma, 2)
    return probability.estimate(np.array([1.0, 0.0]), noise.S_BOUNDED, model,
                                gamma, trials, seed, measurement=BPLUS,
                                stream=_STREAM_BPLUS, workers=workers)
