"""The measurement rule: single-threshold-crossing detection.

A component detects when its magnitude strictly exceeds the threshold; a
measurement outcome exists only when exactly one component (or subspace)
crosses.  All functions are pure in (a, U, gamma), so repeated evaluation of
the same realization under any observable always agrees with itself.

Batch kernels return integer codes per trial: the detected component index,
``NO_DETECTION`` (-1), or ``MULTIPLE_DETECTIONS`` (-2).
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .linalg import ObservableSpec, _as_matrix, is_unitary

NO_DETECTION = -1
MULTIPLE_DETECTIONS = -2


class Outcome(enum.Enum):
    DETECTED = "detected"
    NO_DETECTION = "no_detection"
    MULTIPLE_DETECTIONS = "multiple_detections"


@dataclass(frozen=True)
class DetectionOutcome:
    tag: Outcome
    index: int | None = None
    value: float | None = None

    @property
    def detected(self) -> bool:
        return self.tag is Outcome.DETECTED


@dataclass(frozen=True)
class SubspacePartition:
    """Disjoint index groups covering 0..N-1, with one eigenvalue per group."""

    groups: tuple[tuple[int, ...], ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.groups) != len(self.values):
            raise ValueError("one eigenvalue per group is required")
        flat = sorted(i for g in self.groups for i in g)
        if flat != list(range(len(flat))):
            raise ValueError("groups must partition 0..N-1 without overlap")
        object.__setattr__(self, "groups",
                           tuple(tuple(int(i) for i in g) for g in self.groups))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    @property
    def dim(self) -> int:
        return sum(len(g) for g in self.groups)


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
    cross = mags > gamma
    dim = cross.shape[1]
    if dim > _MASK_BITS:
        return _codes_from_crossings(cross)
    # Bit j of a row's mask is set when component j crosses.
    bits = cross.view(np.uint8)
    mask = bits[:, 0].copy()
    for j in range(1, dim):
        mask |= bits[:, j] << np.uint8(j)
    return _code_table(dim)[mask]


def detect_standard_block(a: np.ndarray, gamma: float) -> np.ndarray:
    """Codes for standard-basis measurement of a (trials, N) block."""
    return crossing_codes(np.abs(a), gamma)


def detect_observable_block(a: np.ndarray, unitary: np.ndarray,
                            gamma: float) -> np.ndarray:
    """Codes after rotating each row by U†."""
    # Row-vector form of U†a: (U†a)_n = sum_m conj(U_mn) a_m.
    return crossing_codes(np.abs(a @ np.conj(unitary)), gamma)


def group_magnitudes(b: np.ndarray, part: SubspacePartition) -> np.ndarray:
    """Subspace amplitudes ||Π_m b|| for each row of b."""
    mags2 = np.abs(b) ** 2
    return np.sqrt(np.stack([mags2[:, list(g)].sum(axis=1)
                             for g in part.groups], axis=1))


def detect_projective_block(a: np.ndarray, unitary: np.ndarray,
                            part: SubspacePartition, gamma: float) -> np.ndarray:
    """Codes (group indices) for a projective subspace measurement block."""
    b = a @ np.conj(unitary)
    return crossing_codes(group_magnitudes(b, part), gamma)


def check_gamma(gamma: float) -> None:
    """Reject a threshold outside [0, inf), nan included."""
    if not 0 <= gamma < np.inf:
        raise ValueError(f"gamma must be non-negative and finite, got {gamma}")


def _scalar(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 1:
        raise ValueError("expected a single amplitude vector")
    return a.reshape(1, -1)


def _outcome_from_code(code: int, values=None) -> DetectionOutcome:
    if code == NO_DETECTION:
        return DetectionOutcome(Outcome.NO_DETECTION)
    if code == MULTIPLE_DETECTIONS:
        return DetectionOutcome(Outcome.MULTIPLE_DETECTIONS)
    value = None if values is None else float(values[code])
    return DetectionOutcome(Outcome.DETECTED, index=int(code), value=value)


def measure_standard(a, gamma: float) -> DetectionOutcome:
    """Standard-basis measurement of a single amplitude vector."""
    check_gamma(gamma)
    code = int(detect_standard_block(_scalar(a), gamma)[0])
    return _outcome_from_code(code)


def measure_observable(a, obs: ObservableSpec, gamma: float) -> DetectionOutcome:
    """Measure an observable by rotating into its eigenbasis first."""
    check_gamma(gamma)
    a = _scalar(a)
    if a.shape[1] != obs.dim:
        raise ValueError("dimension mismatch between state and observable")
    code = int(detect_observable_block(a, obs.unitary, gamma)[0])
    return _outcome_from_code(code, obs.eigenvalues)


def measure_projective(a, unitary, part: SubspacePartition,
                       gamma: float) -> DetectionOutcome:
    """Projective subspace measurement of a single amplitude vector."""
    check_gamma(gamma)
    unitary = _as_matrix(unitary)
    if not is_unitary(unitary):
        raise ValueError("projective measurement requires a unitary basis change")
    a = _scalar(a)
    if a.shape[1] != part.dim or part.dim != unitary.shape[0]:
        raise ValueError("dimension mismatch in projective measurement")
    code = int(detect_projective_block(a, unitary, part, gamma)[0])
    return _outcome_from_code(code, part.values)


def measure_triple(a, unitary, sign_lists, gamma: float):
    """Measure three co-diagonalized observables off one shared rotation.

    ``sign_lists`` are the three diagonals of U†A_iU.  A unique crossing at
    component n assigns all three observables their n-th signs at once;
    otherwise None is returned (no detection, or rejected multiples).
    """
    check_gamma(gamma)
    a = _scalar(a)
    signs = [np.asarray(d, dtype=float) for d in sign_lists]
    if len(signs) != 3 or any(d.shape != (a.shape[1],) for d in signs):
        raise ValueError("expected three diagonals matching the dimension")
    code = int(detect_observable_block(a, _as_matrix(unitary), gamma)[0])
    if code < 0:
        return None
    return tuple(float(d[code]) for d in signs)
