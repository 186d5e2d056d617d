"""Search budgets. Exceeding one is a first-class outcome, never a silent timeout."""

from __future__ import annotations

from dataclasses import dataclass


class BudgetExceeded(Exception):
    """A search refused to run or stopped because a configured bound was hit."""

    def __init__(self, bound: str, limit: int, value: int | None = None):
        self.bound = bound
        self.limit = limit
        self.value = value
        detail = f"{bound} limit {limit}"
        if value is not None:
            detail += f" (needed {value})"
        super().__init__(detail)


@dataclass(frozen=True)
class SearchBudget:
    """Bounds for one verdict.

    max_points caps q**n for a single code: each verdict checks it once, on
    entry, since its certificate or group holds q**n * n symbols.
    max_nodes caps assignments tried in one backtracking search, and so the
    base-word stabilizer it can list.
    """

    max_points: int = 6**5
    max_nodes: int = 2_000_000

    def check_points(self, q: int, n: int) -> None:
        if q**n > self.max_points:
            raise BudgetExceeded("points", self.max_points, q**n)


DEFAULT_BUDGET = SearchBudget()
