"""Audit rows: one record per checked inequality instance."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

AUDIT_REL_TOL = 1e-6
AUDIT_ABS_TOL = 1e-12


@dataclass(frozen=True)
class AuditRow:
    """Result of one inequality check, constants already folded into rhs.

    passed is None for inconclusive rows (a truncated series whose tail
    heuristic failed); those count as neither pass nor fail.
    """

    theorem_id: str
    case_id: str
    lhs: float
    rhs: float
    constant_used: float
    ratio: float
    passed: Optional[bool]
    surrogate_flags: tuple[str, ...] = ()
    truncation_bounds: dict = field(default_factory=dict)

    @property
    def status(self) -> str:
        if self.passed is None:
            return "inconclusive"
        return "true" if self.passed else "false"


def make_row(theorem_id: str, case_id: str, lhs: float, rhs: float,
             constant_used: float, flags: tuple[str, ...] = (),
             truncation_bounds: Optional[dict] = None,
             inconclusive: bool = False) -> AuditRow:
    """Build a row with the standard pass rule lhs <= rhs*(1+tol) + tol_abs."""
    if rhs == 0.0 and lhs == 0.0:
        ratio = 0.0
        passed = True
    else:
        ratio = lhs / rhs if rhs != 0.0 else float("inf")
        passed = bool(lhs <= rhs * (1.0 + AUDIT_REL_TOL) + AUDIT_ABS_TOL)  # not np.bool_
    return AuditRow(
        theorem_id=theorem_id, case_id=case_id, lhs=lhs, rhs=rhs,
        constant_used=constant_used, ratio=ratio,
        passed=None if inconclusive else passed,
        surrogate_flags=tuple(sorted(flags)),
        truncation_bounds=dict(truncation_bounds or {}),
    )
