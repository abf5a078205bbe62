"""Report records returned by the inequality checkers.

Checkers measure both sides and the slack instead of returning a bare bool:
the inequalities hold with enormous margins at desk scale, and regression
tests pin those margins.  A failed inequality is data, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any


@dataclass
class IneqReport:
    part: str
    lhs: float
    rhs: float
    holds: bool
    hypothesis_ok: bool = True
    details: dict[str, Any] = field(default_factory=dict)

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    def to_dict(self) -> dict[str, Any]:
        """Every field but details, the slack, then the details."""
        shown = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "details"}
        return shown | {"slack": self.slack} | self.details
