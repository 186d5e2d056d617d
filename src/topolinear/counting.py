"""Counting reports: integer partitions driving the length sweep of the
splice construction, and quadratic-form counts for the pair-alphabet
construction, with machine-checked inequivalence exhibits at desk scale."""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .budget import DEFAULT_BUDGET, BudgetExceeded, SearchBudget
from .constructions import QuadraticSpec, quadratic_code
from .isometry import equivalent_codes


# ---------------------------------------------------------------------------
# integer partitions

def partition_table(N: int) -> list[int]:
    """[p(0), ..., p(N)] by the pentagonal-number recurrence, in exact integers."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    p = [1] + [0] * N
    for n in range(1, N + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def partition_exact(N: int) -> int:
    """p(N), the last entry of `partition_table(N)`."""
    return partition_table(N)[N]


def partitions_of(N: int):
    """All partitions of N as non-increasing tuples."""
    def rec(rest, most):
        if rest == 0:
            yield ()
            return
        for part in range(min(rest, most), 0, -1):
            for tail in rec(rest - part, part):
                yield (part,) + tail

    yield from rec(N, N)


def partition_asymptotic(N: int) -> float:
    """The exponential main term exp(pi sqrt(2N/3)) / (4 N sqrt(3))."""
    if N < 1:
        raise ValueError("N must be positive")
    return math.exp(math.pi * math.sqrt(2 * N / 3)) / (4 * N * math.sqrt(3))


# p(N) takes about 0.4 s at N = 10^4 and its float estimate overflows near
# N = 76 000; Python converts at most 4300 digits of an integer to a string;
# the pairwise sweep over the 64 forms of GF(2), n=4 takes minutes
MAX_PARTITION, MAX_COUNT_DIGITS, MAX_FORM_PAIRS = 10_000, 4300, 64 * 63 // 2


@dataclass(frozen=True)
class PartitionCount:
    N: int
    exact: int
    estimate: float

    @property
    def ratio(self) -> float:
        return self.exact / self.estimate


def ratio_report(Ns) -> list[PartitionCount]:
    """Exact versus estimate for each N, for eyeballing the trend toward 1;
    every p(N) is read from one table up to the largest N."""
    Ns = list(Ns)
    if min(Ns, default=1) < 1:
        raise ValueError("N must be positive")
    if max(Ns, default=0) > MAX_PARTITION:
        raise BudgetExceeded("partition size", MAX_PARTITION, max(Ns))
    table = partition_table(max(Ns, default=0))
    return [PartitionCount(N, table[N], partition_asymptotic(N)) for N in Ns]


# ---------------------------------------------------------------------------
# quadratic-form counting

def quadratic_form_count(q: int, n: int) -> int:
    """Upper-triangular quadratic parts on n variables over a q-element
    field: one free entry per unordered pair. A count of more than
    MAX_COUNT_DIGITS digits is refused before it is computed."""
    pairs = math.comb(n, 2)
    # an int-float comparison is exact: pairs may be too large for a float
    if pairs >= MAX_COUNT_DIGITS / math.log10(q):
        digits = int(pairs * math.log10(q)) + 1 if pairs < 2**1000 else None
        raise BudgetExceeded("form count digits", MAX_COUNT_DIGITS, digits)
    return q ** pairs


def upper_triangular_forms(q: int, n: int):
    """All alpha tables: n x n, zero on and below the diagonal."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for values in itertools.product(range(q), repeat=len(pairs)):
        alpha = [[0] * n for _ in range(n)]
        for (i, j), v in zip(pairs, values):
            alpha[i][j] = v
        yield tuple(tuple(row) for row in alpha)


@dataclass
class FormEquivalenceReport:
    """Pairwise equivalence resolution for the codes of all upper-triangular
    forms at one parameter point. `classes` lists form indices grouped by
    code equivalence; `witnesses` maps (representative, i) to the isometry
    carrying the code of its class's first form onto the code of form i.
    When the budget refuses the sweep, `verified` is False and only the raw
    count stands; `forms` is empty when it was refused before listing."""
    q: int
    s: int
    n: int
    form_count: int
    forms: list
    classes: list | None
    witnesses: dict
    verified: bool
    note: str = ""


def lower_bound_report(q: int, s: int, n: int,
                       budget: SearchBudget = DEFAULT_BUDGET) -> FormEquivalenceReport:
    """Count the upper-triangular forms over GF(q^s) and, within budget and
    MAX_FORM_PAIRS, resolve the pairwise equivalence of their codes: each
    code is compared with the first code of every class found so far."""
    size = q ** s
    count = quadratic_form_count(size, n)
    try:
        # the codes are over pairs of field symbols; refused before any is listed
        budget.check_points(size * size, n)
        pairs = count * (count - 1) // 2
        if pairs > MAX_FORM_PAIRS:
            raise BudgetExceeded("form pairs", MAX_FORM_PAIRS, pairs)
    except BudgetExceeded as exc:
        return FormEquivalenceReport(q, s, n, count, [], None, {}, False,
                                     f"unverified: {exc}")
    forms = list(upper_triangular_forms(size, n))
    assert len(forms) == count
    codes = [quadratic_code(QuadraticSpec.make(q, s, n, alpha=alpha)) for alpha in forms]
    witnesses: dict = {}
    classes: list[list[int]] = []
    try:
        for i in range(count):
            for cls in classes:
                w = equivalent_codes(codes[cls[0]], codes[i], budget=budget)
                if w is not None:
                    witnesses[(cls[0], i)] = w
                    cls.append(i)
                    break
            else:
                classes.append([i])
    except BudgetExceeded as exc:
        return FormEquivalenceReport(q, s, n, count, forms, None, witnesses,
                                     False, f"unverified: {exc}")
    return FormEquivalenceReport(q, s, n, count, forms, classes, witnesses, True)
