"""Deterministic threshold-detection model of quantum measurement.

A design state is represented by the complex random vector a = s*alpha + w;
a measurement is a single threshold crossing of component (or subspace)
magnitudes after an optional basis rotation.  Conditioning on
single-detection events recovers Born-rule statistics, magic-square
contextuality, and CHSH violations.
"""

from . import (detection, experiments, linalg, noise, probability,
               tomography)
from .detection import measure
from .linalg import Measurement, tensor, verify_diagonalization
from .noise import NoiseModel
from .probability import (DetectionStats, estimate, marcum_q1,
                          single_detection_probs)
from .tomography import bplus_counterexample, infer_state

__version__ = "0.1.0"

__all__ = [
    "DetectionStats", "Measurement", "NoiseModel", "bplus_counterexample",
    "detection", "estimate", "experiments", "infer_state", "linalg",
    "marcum_q1", "measure", "noise", "probability", "single_detection_probs",
    "tensor", "tomography", "verify_diagonalization",
]
