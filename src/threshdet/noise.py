"""Seedable generation of the hidden-variable noise vector w.

Every draw is addressed by ``(seed, stream, chunk)`` and a row count.
Chunk c of a stream holds its trials [c·CHUNK, (c + 1)·CHUNK), ``CHUNK`` =
2^14, drawn by its own SFC64 generator, ``chunk_rng(seed, stream, chunk)``,
keyed by ``SeedSequence(seed, spawn_key=(stream, chunk))``.  Each draw from
a generator returns the next rows of its chunk, so consecutive draws join
bit for bit into one full-chunk draw, and a draw of fewer rows, such as a
run's partial last chunk, is the leading rows of the full draw.  Trial t of
a stream therefore always receives the same noise vector, independent of
worker count, evaluation order or how its chunk is split into blocks.
Standard normals are the only random draw: every family is a scaled or
normalized block of them, so no family calls a trigonometric function.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CHUNK = 1 << 14

# s at sigma = gamma = 1: the largest s at which noise of norm sigma never
# takes two components over gamma, since ||a|| <= s + sigma.
S_BOUNDED = float(np.sqrt(2.0) - 1.0)

GAUSSIAN = "gaussian"
SPHERE = "sphere"
SINGLE_PHASE = "single_phase"
ANTICORRELATED_PHASE = "anticorrelated_phase"
BLOCH_UNIFORM = "bloch_uniform"

KINDS = (GAUSSIAN, SPHERE, SINGLE_PHASE, ANTICORRELATED_PHASE, BLOCH_UNIFORM)
_TWO_DIM_ONLY = (SINGLE_PHASE, ANTICORRELATED_PHASE, BLOCH_UNIFORM)

_SQRT_HALF = np.sqrt(0.5)
_NORM_TOL = 1e-10


class InvalidModel(ValueError):
    """Noise kind / dimension combination is not defined."""


class UnnormalizedState(ValueError):
    """Design state vector is not normalized to unit length."""


@dataclass(frozen=True)
class NoiseModel:
    """Noise family with scale ``sigma`` acting on dimension ``dim``."""

    kind: str
    sigma: float
    dim: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidModel(f"unknown noise kind {self.kind!r}")
        if not 0 <= self.sigma < np.inf:
            raise InvalidModel("sigma must be non-negative")
        if 0 < self.sigma < np.finfo(float).tiny:
            raise InvalidModel(f"sigma must be 0 or a normal float, not the "
                               f"subnormal {self.sigma!r}")
        if self.dim < 1:
            raise InvalidModel("dim must be positive")
        if self.kind in _TWO_DIM_ONLY and self.dim != 2:
            raise InvalidModel(f"{self.kind} noise is only defined for dim = 2")


def check_seed(seed) -> int:
    """Return ``seed`` as an int, rejecting a value that is not an integer,
    such as 1.5 or '1' (TypeError), and one outside [0, 2^64)."""
    seed = operator.index(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} is outside [0, 2^64)")
    return seed


def chunk_rng(seed: int, stream: int, chunk: int) -> np.random.Generator:
    """The generator of chunk ``chunk`` of a stream: the one place where a
    stream address becomes random draws."""
    ss = np.random.SeedSequence(entropy=check_seed(seed),
                                spawn_key=(int(stream), int(chunk)))
    return np.random.Generator(np.random.SFC64(ss))


def _clamp_magnitude(values: np.ndarray, target: float) -> np.ndarray:
    """Nudge entries whose computed magnitude rounds above ``target``.

    A normalized draw has magnitude exactly ``target`` in exact arithmetic,
    but rounding can push ``abs`` a few ulps above it, which would break the
    strict threshold comparison at gamma equal to the noise scale.  The
    relative nudge of 2^-50 is orders of magnitude below any statistical
    resolution used here.  It shrinks any entry of normal magnitude, which
    is why NoiseModel rejects a subnormal sigma.
    """
    scale = 1.0 - 2.0**-50
    flat = values.reshape(-1)  # a view of a contiguous array, else a copy
    # After one full pass only the entries just nudged can still be above,
    # and each is nudged until it is not, as by a whole-array loop.
    nudge = np.flatnonzero(np.abs(flat) > target)
    while nudge.size:
        nudged = flat[nudge] * scale
        flat[nudge] = nudged
        nudge = nudge[np.abs(nudged) > target]
    return flat.reshape(values.shape)


def draw_noise_block(model: NoiseModel, rng: np.random.Generator,
                     rows: int) -> np.ndarray:
    """Noise vectors for the next ``rows`` trials drawn from ``rng``, one
    row per trial.

    Standard normals are the only random draw, taken in C order, and every
    transform works row by row, so consecutive calls on one ``chunk_rng``
    return exactly the consecutive rows of one (CHUNK, ·) draw from it.
    """
    # bloch_uniform is the sphere draw at d = 2: uniform phases, with
    # |w_0|^2 / sigma^2 uniform on [0, 1].  The phase families take their
    # one phase factor from the sphere draw at d = 1.
    sigma, dim = model.sigma, model.dim
    if model.kind == SINGLE_PHASE:
        dim = 1
    elif model.kind == ANTICORRELATED_PHASE:
        sigma, dim = sigma / np.sqrt(2.0), 1
    # Consecutive normals are (re, im) of one component.  E[z z†] = I:
    # real and imaginary parts i.i.d. with variance 1/2.  The sphere
    # divides by ||z|| = sqrt(1/2)·||x||, so its sqrt(1/2) cancels.
    x = rng.standard_normal((rows, 2 * dim))
    if model.kind == GAUSSIAN:
        x *= sigma * _SQRT_HALF
    else:
        x *= sigma / np.sqrt(np.einsum("ij,ij->i", x, x))[:, None]
    z = x.view(complex)
    if model.kind == SINGLE_PHASE:
        return np.concatenate([np.zeros_like(z),
                               _clamp_magnitude(z, sigma)], axis=1)
    if model.kind == ANTICORRELATED_PHASE:
        return np.concatenate([z, -z], axis=1)
    return z


def _check_finite(v: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{what} has non-finite components")
    return v


def signal(alpha, s: float) -> np.ndarray:
    """The signal s·alpha, after checking that alpha is a finite unit vector
    and that 0 <= s < inf."""
    alpha = np.asarray(alpha, dtype=complex)
    if alpha.ndim != 1:
        raise UnnormalizedState("design state must be a vector")
    _check_finite(alpha, "design state")
    norm = np.linalg.norm(alpha)
    if abs(norm - 1.0) > _NORM_TOL:
        raise UnnormalizedState(f"|alpha| = {norm:.12g}, expected 1")
    if not 0 <= s < np.inf:
        raise ValueError("signal strength must be non-negative")
    return s * alpha


def realize_block(sa: np.ndarray, model: NoiseModel, rng: np.random.Generator,
                  rows: int) -> np.ndarray:
    """Amplitude vectors s·alpha + w for the next ``rows`` trials drawn from
    ``rng``, where ``sa`` is a ``signal`` already checked against ``model``."""
    a = draw_noise_block(model, rng, rows)
    # One strided add per component is cheaper than broadcasting a 2- or
    # 4-wide row, and adds the same numbers.
    for k, c in enumerate(sa):
        a[:, k] += c
    return a


def inject(alpha, s: float, w) -> np.ndarray:
    """Amplitude vector for an externally supplied noise realization."""
    sa = signal(alpha, s)
    w = np.asarray(w, dtype=complex)
    if w.shape != sa.shape:
        raise ValueError("noise vector shape does not match state")
    _check_finite(w, "noise vector")
    return sa + w


def load_vector(path) -> np.ndarray:
    """Read a complex vector from a text file with one ``re,im`` pair per line."""
    comps = []
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            re_s, im_s = line.split(",")
            comps.append(complex(float(re_s), float(im_s)))
        except ValueError:
            raise ValueError(f"{path}, line {number}: expected 're,im', "
                             f"got {line!r}") from None
    if not comps:
        raise ValueError(f"no components found in {path}")
    return _check_finite(np.array(comps, dtype=complex), str(path))
