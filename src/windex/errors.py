"""Exception types and validation reports.

Builders (surfaces, connections, fields) collect every rule violation into a
ValidationReport and raise ValidationFailed carrying it, so a caller sees all
problems at once.  Violations name their rule as a string (DuplicateFace,
BoundaryEdge, OrientationClash, NonPolygonLink, BadFiberMode, SizeMismatch,
BadEdge, MissingEdge, NotInverse, OrientationReversing, UnknownLabel,
NotAnInteger, LiftIncongruent, EndpointIncongruent, AntisymmetryViolation,
TooManyDigits, ...).  Every other failure raises WindexError or one of its
subclasses below directly.
"""

from __future__ import annotations

from dataclasses import dataclass


class WindexError(Exception):
    """Base class for all errors raised by this package."""


# -- fiber labels -----------------------------------------------------------------

class UnknownLabel(WindexError):
    pass


# -- surfaces ------------------------------------------------------------------

class NotIncident(WindexError):
    pass


# -- connections, flatness, fields ------------------------------------------------

class NonIntegralTotal(WindexError):
    pass


class NonIntegralIndex(WindexError):
    pass


@dataclass(frozen=True)
class Violation:
    """One broken rule: which rule, on which element, and why."""

    rule: str
    element: str
    message: str

    def __str__(self) -> str:
        return f"{self.rule} [{self.element}]: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validating a composite structure.

    ``ok`` is true exactly when ``violations`` is empty.
    """

    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def pretty(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(str(v) for v in self.violations)


class ValidationFailed(WindexError):
    """Raised by builders; carries the full report."""

    def __init__(self, what: str, report: ValidationReport):
        super().__init__(f"{what}: {report.pretty()}")
        self.report = report


class ReportCollector:
    """Accumulates violations while a builder runs."""

    def __init__(self) -> None:
        self._violations: list[Violation] = []

    def add(self, rule: str, element: object, message: str) -> None:
        self._violations.append(Violation(rule, str(element), message))

    def raise_if_failed(self, what: str) -> None:
        if self._violations:
            raise ValidationFailed(what, ValidationReport(tuple(self._violations)))
