"""Pass/fail report for a checked inequality."""

from __future__ import annotations

from dataclasses import dataclass, field
import math

CAVEAT_NONE = "none"
CAVEAT_RHS_GRID_LOWER_BOUND = "rhs_is_grid_lower_bound"
CAVEAT_FROZEN_WEIGHTED_MODULUS = "rhs_uses_frozen_weighted_modulus"
CAVEAT_GRID_ESTIMATE = "value_is_grid_estimate"  # an estimate, not a check

# Absorbs floating-point noise on exactly-tight cases (e.g. constants, where
# both sides are 0).
_HOLD_SLACK = 1e-12


@dataclass(frozen=True)
class BoundReport:
    """LHS/RHS of an inequality, its margin and whether it holds.

    Raises RuntimeError naming a side that is not finite: an infinite RHS
    would pass any check, and a NaN would fail it as if the bound were false.
    """

    lhs: float
    rhs: float
    caveat: str = CAVEAT_NONE
    margin: float = field(init=False)
    holds: bool = field(init=False)

    def __post_init__(self):
        for side, value in (("lhs", self.lhs), ("rhs", self.rhs)):
            if not math.isfinite(value):
                raise RuntimeError(f"the bound's {side} is not finite, got {value}")
        margin = self.rhs - self.lhs
        object.__setattr__(self, "margin", margin)
        object.__setattr__(
            self, "holds", margin >= -_HOLD_SLACK * max(1.0, abs(self.rhs))
        )
