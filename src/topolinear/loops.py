"""Principal isotopes and the G-loop verdict.

A loop f with identity e is a G-loop when every loop isotopic to it is
isomorphic to it. Every such loop is isomorphic to a principal isotope, and
an isotopism of graph(f) onto graph(`principal_isotope(f, a, b)`) carries
(a, b, ab) to the isotope's identity word. So f is isomorphic to that isotope
exactly when some autotopism of graph(f) carries (e, e, e) to (a, b, ab), and
f is a G-loop exactly when its graph is isotopically transitive (Kunen,
G-loops and permutation groups, J. Algebra 220, 1999). The verdict is the
orbit walk of `isometry.is_isotopically_transitive` on that graph.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .budget import BudgetExceeded, SearchBudget
# make_cp, make_dihedral and twisted_graph_code stay bound here for callers
# that read them as loops.*; they live in codes with the other loop tables
from .codes import (BinaryQuasigroup, Loop, NAryQuasigroup, cyclic_loop, graph_of,
                    make_cp, make_dihedral, twisted_graph_code)
from .isometry import is_isotopically_transitive


def _swap(q: int, i: int, j: int) -> np.ndarray:
    """The transposition of the symbols i and j of 0..q-1, as an array."""
    out = np.arange(q)
    out[[i, j]] = j, i
    return out


def principal_isotope(f: BinaryQuasigroup, a: int, b: int) -> Loop:
    """Loop with identity 0 isotopic to f, built from the parameter pair (a, b).

    Exchange 0 with a in the rows, 0 with b in the columns, f(a, b) with 0 in
    the values, then renormalize by the unit translations so 0 becomes a
    two-sided identity. Up to conjugation by the value transposition this is
    the classical principal isotope f(x / b, a \\ y), so ranging over all
    (a, b) reaches every loop isotopic to f up to isomorphism. The exchanges
    are gathers; the renormalization is one scatter, which puts row r and
    column c of the exchanged table at row fp[r, 0] and column fp[0, c].
    """
    q, t = f.q, f.table
    fp = _swap(q, t[a, b], 0)[t[_swap(q, 0, a)][:, _swap(q, 0, b)]]
    table = np.empty_like(fp)
    table[fp[:, :1], fp[:1]] = fp
    return Loop(table, identity=0)


@dataclass
class GLoopVerdict:
    is_g_loop: bool
    counterexample: tuple[int, int, Loop] | None = None

    def __bool__(self):
        return self.is_g_loop


def is_g_loop(f: Loop, bound: int = 12) -> GLoopVerdict:
    """True iff every principal isotope of f is isomorphic to f; else a
    counterexample (a, b, principal_isotope(f, a, b)).

    The symbols 0 and e are exchanged first, so (e, e, e) becomes the zero
    word, the base of the orbit walk, which then runs pinned on the graph
    with no provenance; its first word outside the orbit, mapped back,
    gives (a, b), the least such pair when e = 0. `bound` caps the loop
    order, and the graph's q^3 points are then admitted.
    """
    q = f.q
    if q > bound:
        raise BudgetExceeded("loop order", bound, q)
    swap = _swap(q, 0, f.identity)
    table = swap[f.table[swap][:, swap]]
    verdict = is_isotopically_transitive(graph_of(NAryQuasigroup(table)), "pinned",
                                         SearchBudget(max_points=q ** 3))
    if verdict:
        return GLoopVerdict(True)
    a, b = (int(swap[s]) for s in verdict.failing_word[:2])
    return GLoopVerdict(False, (a, b, principal_isotope(f, a, b)))


def find_non_g_loop_order6() -> Loop:
    """First intercalate flip of the cyclic order-6 table (rows/cols >= 1,
    keeping 0 an identity) that fails the G-loop test. Deterministic; the
    builtin loop "non-g-6" is its table, written out."""
    z6 = cyclic_loop(6)
    base = z6.table.tolist()
    for r1, r2 in itertools.combinations(range(1, 6), 2):
        for c1, c2 in itertools.combinations(range(1, 6), 2):
            if base[r1][c1] == base[r2][c2] and base[r1][c2] == base[r2][c1]:
                t = [row[:] for row in base]
                t[r1][c1], t[r1][c2] = t[r1][c2], t[r1][c1]
                t[r2][c1], t[r2][c2] = t[r2][c2], t[r2][c1]
                loop = Loop(t, identity=0)
                if not is_g_loop(loop):
                    return loop
    raise RuntimeError("no non-G-loop found among intercalate flips")
