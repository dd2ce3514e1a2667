"""Machine-readable results for single verification checks."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one numerical verification.

    ``measured`` is the deviation actually observed (max-norm, relative
    residual, ... depending on the check), ``tolerance`` the threshold it
    was compared against.  ``negative_control`` marks checks that are
    *expected* to fail; for those, ``passed`` records whether the failure
    happened as predicted.
    """

    name: str
    measured: float
    tolerance: float
    passed: bool
    inputs: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    negative_control: bool = False

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "measured": self.measured,
            "tolerance": self.tolerance,
            "passed": bool(self.passed),
            "inputs": self.inputs,
            "details": self.details,
            "negative_control": self.negative_control,
        }


def make_report(name, measured, tolerance, inputs=None, details=None,
                negative_control=False) -> CheckReport:
    """Build a report; a negative control passes when measured > tolerance.

    A NaN or infinite measurement never passes, control or not.
    """
    measured = float(measured)
    ok = measured > tolerance if negative_control else measured <= tolerance
    ok = ok and math.isfinite(measured)
    return CheckReport(
        name=name,
        measured=measured,
        tolerance=float(tolerance),
        passed=ok,
        inputs=dict(inputs or {}),
        details=dict(details or {}),
        negative_control=negative_control,
    )
