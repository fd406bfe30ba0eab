"""Verdict records shared by all entanglement criteria."""

from __future__ import annotations

from dataclasses import dataclass

from .config import DEFAULT_TOLERANCES, Tolerances, _check_tolerances
from .errors import DomainError

DETECTED_NONE = "none"
DETECTED_ENTANGLED = "entangled"
DETECTED_GENUINE = "genuine_multipartite"


@dataclass(frozen=True)
class WitnessVerdict:
    """Outcome of one criterion evaluation.

    ``margin`` is always ``value - bound``; ``detected`` is non-trivial exactly
    when the margin strictly exceeds the detection tolerance in force.
    """

    criterion_id: str
    value: float
    bound: float
    margin: float
    detected: str


def make_verdict(
    criterion_id: str,
    value: float,
    bound: float,
    detection_class: str,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> WitnessVerdict:
    if detection_class not in (DETECTED_ENTANGLED, DETECTED_GENUINE):
        raise DomainError(f"detection_class must be a positive class, got {detection_class!r}")
    _check_tolerances(tol)
    margin = value - bound
    detected = detection_class if margin > tol.detection_tolerance else DETECTED_NONE
    return WitnessVerdict(criterion_id, float(value), float(bound), float(margin), detected)
