"""The measurement rule: single-threshold-crossing detection.

A component detects when its magnitude strictly exceeds the threshold; a
measurement outcome exists only when exactly one component (or subspace)
crosses.  Every measurement is a ``linalg.Measurement`` and goes through
one block kernel, ``detect_observable_block``; all functions are pure in
(a, measurement, gamma), so repeated evaluation of the same realization
under any measurement always agrees with itself.

Kernels return integer codes per trial: the detected group index,
``NO_DETECTION`` (-1), or ``MULTIPLE_DETECTIONS`` (-2).  The one Monte
Carlo chunk kernel, in ``probability.tally_chunks``, tallies the codes of a
tuple of measurements as their joint histogram of shifted codes, code + 2:
along each measurement's axis, cell 0 counts multiple detections, cell 1 no
detection and cell 2 + n single detections of group n.  Every statistic of
a run is a sum of such cells.
"""

from __future__ import annotations

import functools

import numpy as np

from .linalg import Measurement

NO_DETECTION = -1
MULTIPLE_DETECTIONS = -2


# Widest row whose crossings fit one uint8 bitmask.
_MASK_BITS = 8


@functools.cache
def _code_table(dim: int) -> np.ndarray:
    """Detection code of every crossing bitmask of ``dim`` components."""
    bits = (np.arange(1 << dim)[:, None] >> np.arange(dim)) & 1
    table = _codes_from_crossings(bits.astype(bool))
    table.flags.writeable = False  # shared by every caller
    return table


def _codes_from_crossings(cross: np.ndarray) -> np.ndarray:
    ncross = cross.sum(axis=1)
    codes = np.where(ncross == 1, np.argmax(cross, axis=1), NO_DETECTION)
    codes[ncross > 1] = MULTIPLE_DETECTIONS
    return codes


def crossing_codes(mags: np.ndarray, gamma: float) -> np.ndarray:
    """Detection codes for an array of magnitudes with shape (trials, N)."""
    rows, dim = mags.shape
    if dim > _MASK_BITS:
        return _codes_from_crossings(mags > gamma)
    # One byte per crossing flag, in a row as wide as a word: N rounded up
    # to a power of two, the padding bytes zero.
    width = 1 << (dim - 1).bit_length()
    cross = np.zeros((rows, width), dtype=bool)
    np.greater(mags, gamma, out=cross[:, :dim])
    # Read as a little-endian word, byte j of a row is 0 or 1 at bit 8j.  The
    # multiplier's term 2^(8(w-1)-7j) moves it to bit 8(w-1)+j; every other
    # product lands below bit 8(w-1) or past the word, each at its own bit,
    # so nothing carries and the top byte is the row's bitmask.
    word = cross.view(f"<u{width}").reshape(rows)
    uint = word.dtype.type
    word *= uint(sum(1 << (8 * (width - 1) - 7 * j) for j in range(width)))
    word >>= uint(8 * (width - 1))
    return np.take(_code_table(dim), word)


def detect_standard_block(b: np.ndarray, gamma: float) -> np.ndarray:
    """Codes for the components of a (trials, N) block: singleton groups."""
    return crossing_codes(np.abs(b), gamma)


def group_magnitudes(b: np.ndarray, groups) -> np.ndarray:
    """Subspace amplitudes ||Π_m b|| of each group m, for each row of b."""
    mags2 = np.abs(b)
    mags2 *= mags2
    # Each group's squares are added left to right into its own column.
    sums = np.empty((len(b), len(groups)))
    for m, (first, *rest) in enumerate(groups):
        sums[:, m] = mags2[:, first]
        for k in rest:
            sums[:, m] += mags2[:, k]
    return np.sqrt(sums, out=sums)


def detect_projective_block(b: np.ndarray, groups, gamma: float) -> np.ndarray:
    """Codes (group indices) for a subspace measurement of a rotated block."""
    return crossing_codes(group_magnitudes(b, groups), gamma)


def detect_observable_block(a: np.ndarray, m: Measurement,
                            gamma: float) -> np.ndarray:
    """Codes of measurement ``m`` for a (trials, N) block of amplitudes."""
    # Row-vector form of U†a: (U†a)_n = sum_k conj(U_kn) a_k.
    b = a if m.is_identity else a @ np.conj(m.unitary)
    # Singleton groups give the same magnitudes either way (short of
    # overflow, the square root of a rounded square is exact), but abs alone
    # is 4x cheaper.
    if m.singletons:
        return detect_standard_block(b, gamma)
    return detect_projective_block(b, m.groups, gamma)


def check_gamma(gamma: float) -> None:
    """Reject a threshold outside [0, inf), nan included."""
    if not 0 <= gamma < np.inf:
        raise ValueError(f"gamma must be non-negative and finite, got {gamma}")


def measure(a, m: Measurement, gamma: float) -> int:
    """Outcome code of measurement ``m`` on a single amplitude vector."""
    check_gamma(gamma)
    a = np.asarray(a, dtype=complex)
    if a.shape != (m.dim,):
        raise ValueError(f"expected an amplitude vector of {m.dim} components,"
                         f" got shape {a.shape}")
    return int(detect_observable_block(a.reshape(1, -1), m, gamma)[0])
