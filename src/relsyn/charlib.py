"""Soft-error-based component characterization.

Converts critical-charge measurements into relative soft-error rates,
failure rates, and per-component reliabilities.  The error rate of a
component falls off exponentially with its critical charge,
SER ~ exp(-Q_critical / Q_s), so two components built in the same
process relate by a pure exponential ratio and all flux/cross-section
factors cancel.  Reliability over a mission time t follows
R(t) = exp(-lambda * t) with the soft-error rate taken as the failure
rate lambda.

Absolute rates are never computed: one reference component is pinned to
a known reliability and everything else is expressed relative to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .model import ParseError, ValidationError, _content_lines


@dataclass(frozen=True)
class CharInput:
    """A component name with its measured critical charge (coulombs)."""

    name: str
    q_critical: float

    def __post_init__(self) -> None:
        if not 0 < self.q_critical < math.inf:
            raise ValidationError(f"{self.name!r}: q_critical must be > 0 and finite")


@dataclass(frozen=True)
class CharModel:
    """Calibration anchor and charge-collection efficiency.

    q_s: charge-collection efficiency (coulombs), process dependent.
    reference / reference_reliability: the pinned component.
    t: mission time; reliabilities are per-mission-time values.
    """

    q_s: float
    reference: str
    reference_reliability: float
    t: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.q_s < math.inf:
            raise ValidationError("q_s must be > 0 and finite")
        if not 0 < self.reference_reliability < 1:
            raise ValidationError("reference reliability must be in (0, 1)")
        if not 0 < self.t < math.inf:
            raise ValidationError("time horizon must be finite and > 0")


@dataclass(frozen=True)
class CharRecord:
    name: str
    q_critical: float
    ser_ratio_to_reference: float
    failure_rate: float
    reliability: float


def ser_ratio(q_crit_a: float, q_crit_b: float, q_s: float) -> float:
    """Soft-error-rate ratio SER_a / SER_b for two same-process components.

    Larger critical charge means a smaller error rate:
    ratio = exp((q_crit_b - q_crit_a) / q_s), inf past the float range.
    """
    if not all(0 < q < math.inf for q in (q_crit_a, q_crit_b, q_s)):
        raise ValidationError("ser_ratio requires finite positive inputs")
    try:
        return math.exp((q_crit_b - q_crit_a) / q_s)
    except OverflowError:
        return math.inf


def reliability_from_failure_rate(failure_rate: float, t: float) -> float:
    """R(t) = exp(-lambda * t)."""
    if not (0 <= failure_rate < math.inf and 0 <= t < math.inf):
        raise ValidationError("failure rate and time must be non-negative and finite")
    return math.exp(-failure_rate * t)


def calibrate_qs(
    ref: tuple[float, float], other: tuple[float, float], t: float = 1.0
) -> float:
    """Fit the charge-collection efficiency from two known components.

    Each argument is a (q_critical, reliability) pair.  Inverting the
    exponential rate model gives

        q_s = (q_ref - q_other) / ln(lambda_other / lambda_ref)

    with lambda = -ln(R) / t, so t cancels.  The result is positive
    exactly when the component with the higher critical charge is the
    more reliable one; any other ordering contradicts the model and
    raises, as does a fit past the float range.
    """
    (q_ref, r_ref), (q_other, r_other) = ref, other
    if not 0 < t < math.inf:
        raise ValidationError("time horizon must be finite and > 0")
    for q, r in (ref, other):
        if not 0 < q < math.inf:
            raise ValidationError("critical charges must be positive and finite")
        if not 0 < r < 1:
            raise ValidationError("calibration reliabilities must be in (0, 1)")
    log_ratio = math.log(math.log(r_other) / math.log(r_ref))  # ln(lambda_other / lambda_ref)
    if log_ratio == 0:
        raise ValidationError("calibration requires distinct reliabilities")
    if q_ref == q_other:
        raise ValidationError("calibration requires distinct critical charges")
    q_s = (q_ref - q_other) / log_ratio
    if q_s <= 0:
        raise ValidationError(
            "inconsistent calibration points: higher critical charge must "
            "pair with higher reliability"
        )
    if q_s == math.inf:
        raise ValidationError("calibration gives a q_s past the float range")
    return q_s


def characterize(inputs: Sequence[CharInput], model: CharModel) -> list[CharRecord]:
    """Derive per-component SER ratios, failure rates, and reliabilities.

    The failure rate of each component is the reference failure rate
    scaled by its SER ratio to the reference; the reference component
    itself reproduces the anchor reliability exactly.
    """
    by_name = {inp.name: inp for inp in inputs}
    if model.reference not in by_name:
        raise ValidationError(f"reference {model.reference!r} not among inputs")
    q_ref = by_name[model.reference].q_critical
    lam_ref = -math.log(model.reference_reliability) / model.t
    records = []
    for inp in inputs:
        ratio = ser_ratio(inp.q_critical, q_ref, model.q_s)
        failure_rate = lam_ref * ratio
        if not math.isfinite(failure_rate):
            raise ValidationError(
                f"{inp.name!r}: SER ratio {ratio:g} and failure rate {failure_rate:g} must be finite"
            )
        if inp.name == model.reference:
            reliability = model.reference_reliability
        else:
            reliability = reliability_from_failure_rate(failure_rate, model.t)
        records.append(
            CharRecord(inp.name, inp.q_critical, ratio, failure_rate, reliability)
        )
    return records


def parse_qcrit(text: str) -> list[CharInput]:
    """Parse critical-charge lines of the form 'qcrit <name> <coulombs>'."""
    inputs: list[CharInput] = []
    names: set[str] = set()
    for lineno, fields in _content_lines(text):
        if fields[0] != "qcrit" or len(fields) != 3:
            raise ParseError(f"line {lineno}: expected 'qcrit <name> <coulombs>'")
        name = fields[1]
        if name in names:
            raise ParseError(f"line {lineno}: duplicate component {name!r}")
        names.add(name)
        try:
            q = float(fields[2])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        try:
            inputs.append(CharInput(name, q))
        except ValidationError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
    return inputs
