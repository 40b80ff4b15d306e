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


def crossing_codes(mags: np.ndarray, gamma: float) -> np.ndarray:
    """Detection codes for an array of magnitudes with shape (trials, N)."""
    cross = mags > gamma
    ncross = cross.sum(axis=1)
    codes = np.where(ncross == 1, np.argmax(cross, axis=1), NO_DETECTION)
    codes[ncross > 1] = MULTIPLE_DETECTIONS
    return codes


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
    if not 0 <= gamma < np.inf:
        raise ValueError("gamma must be non-negative")
    code = int(detect_standard_block(_scalar(a), gamma)[0])
    return _outcome_from_code(code)


def measure_observable(a, obs: ObservableSpec, gamma: float) -> DetectionOutcome:
    """Measure an observable by rotating into its eigenbasis first."""
    a = _scalar(a)
    if a.shape[1] != obs.dim:
        raise ValueError("dimension mismatch between state and observable")
    code = int(detect_observable_block(a, obs.unitary, gamma)[0])
    return _outcome_from_code(code, obs.eigenvalues)


def measure_projective(a, unitary, part: SubspacePartition,
                       gamma: float) -> DetectionOutcome:
    """Projective subspace measurement of a single amplitude vector."""
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
    a = _scalar(a)
    signs = [np.asarray(d, dtype=float) for d in sign_lists]
    if len(signs) != 3 or any(d.shape != (a.shape[1],) for d in signs):
        raise ValueError("expected three diagonals matching the dimension")
    code = int(detect_observable_block(a, _as_matrix(unitary), gamma)[0])
    if code < 0:
        return None
    return tuple(float(d[code]) for d in signs)
