"""Seedable generation of the hidden-variable noise vector w.

Trials are grouped into fixed chunks of ``CHUNK`` = 2^14 draws, and each
chunk is generated by its own SFC64 generator keyed by
``SeedSequence(seed, spawn_key=(stream, chunk))``.  Trial t of a stream
therefore always receives the same noise vector, independent of worker
count or evaluation order.  Standard normals are the only random draw:
every family is a scaled or normalized block of them, so no family calls a
trigonometric function.  A chunk is realized in one block.  Its arrays
peak, by tracemalloc, at about 1.1 MB for a Gaussian d=2 chunk and 3.1 MB
for a magic-square chunk (six contexts), so on a Xeon with 2 MiB of L2 per
core the larger kernels spill to L3.
"""

from __future__ import annotations

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
    """Return ``seed`` as an int, rejecting values outside [0, 2^64)."""
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} is outside [0, 2^64)")
    return seed


def _chunk_rng(seed: int, stream: int, chunk_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=check_seed(seed),
                                spawn_key=(int(stream), int(chunk_index)))
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
    mask = np.abs(values) > target
    while np.any(mask):
        values[mask] *= scale
        mask = np.abs(values) > target
    return values


def _chunk_noise(model: NoiseModel, seed: int, stream: int, chunk_index: int,
                 rows: int) -> np.ndarray:
    """Noise vectors for the first ``rows`` trials of one chunk, one row per
    trial.

    Standard normals are the only random draw, taken in C order, and every
    transform works row by row, so these are exactly the leading rows of a
    (CHUNK, ·) draw from the same generator.
    """
    rng = _chunk_rng(seed, stream, chunk_index)
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


def draw_noise_block(model: NoiseModel, seed: int, start: int, count: int,
                     stream: int = 0) -> np.ndarray:
    """Noise vectors for trials [start, start+count) of one stream."""
    if start < 0 or count < 0:
        raise ValueError("start and count must be non-negative")
    parts = []
    t = start
    end = start + count
    while t < end:
        ci, offset = divmod(t, CHUNK)
        take = min(CHUNK - offset, end - t)
        # A later row cannot be reached without drawing the rows before it
        # (the ziggurat normal sampler consumes a variable number of random
        # words per value), so an unaligned start draws the chunk's prefix
        # and drops its first ``offset`` rows.
        parts.append(_chunk_noise(model, seed, stream, ci,
                                  offset + take)[offset:])
        t += take
    if not parts:
        return np.empty((0, model.dim), dtype=complex)
    return np.concatenate(parts) if len(parts) > 1 else parts[0]


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


def realize_block(alpha, s: float, model: NoiseModel, seed: int, start: int,
                  count: int, stream: int = 0) -> np.ndarray:
    """Amplitude vectors s·alpha + w for a block of trials."""
    sa = signal(alpha, s)
    if sa.shape[0] != model.dim:
        raise InvalidModel("state dimension does not match noise model")
    a = draw_noise_block(model, seed, start, count, stream)
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
