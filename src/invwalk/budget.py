"""Work-budget guard and argument range rules shared by the exact routes
and Monte Carlo.

Exact DP, the binomial sum, the generating-function build and Monte Carlo
can be asked for absurdly large inputs; every such entry point estimates its
work up front and refuses jobs above the budget instead of hanging.
"""

import os
from fractions import Fraction

DEFAULT_BUDGET = 10**9
ENV_VAR = "INVWALK_BUDGET"


class WorkBudgetError(Exception):
    """Raised when a requested exact computation exceeds the work budget."""

    def __init__(self, estimated: int, budget: int, what: str):
        self.estimated = estimated
        self.budget = budget
        self.what = what
        super().__init__(
            f"{what}: estimated work {estimated} exceeds budget {budget} "
            f"(override with {ENV_VAR})"
        )


def work_budget() -> int:
    """Current budget in cell-updates, from the environment or the default."""
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{ENV_VAR} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ValueError(f"{ENV_VAR} must be positive, got {value}")
    return value


def check_walk_args(m: int, n: int) -> None:
    """The one range rule for a walk of n steps on S_{m+1}."""
    if m < 1 or n < 0:
        raise ValueError(f"need m >= 1 and n >= 0, got m={m}, n={n}")


def check_probability(p, name: str = "p") -> Fraction:
    """p as a Fraction, checked to lie in (0, 1]; ``name`` labels the error.
    The one range rule for the lazy chain's move probability."""
    p = Fraction(p)
    if not (0 < p <= 1):
        raise ValueError(f"{name} must lie in (0, 1], got {p}")
    return p


def check_budget(estimated: int, what: str) -> None:
    budget = work_budget()
    if estimated > budget:
        raise WorkBudgetError(estimated, budget, what)
