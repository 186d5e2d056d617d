"""Binary quasigroups and loops; the three order-2p operations; G-loop test.

Elements of the order-2p tables are two-indexed: index u = x + p*bit encodes
x_bit with x mod p and bit mod 2, so 0 is the identity 0_0. The three built-in
operations on that set are

  direct product   x_s + y_t = (x + y)_(s^t)
  dihedral         x_s o y_t = ((-1)^t x + y)_(s^t)
  twisted loop     x_s * y_t = ((-1)^t x + y + s*t)_(s^t)

The twisted loop is a loop but not a group for odd p >= 3; it is the main
source of nonlinear transitive codes here.
"""

from __future__ import annotations

import itertools
import random
import warnings
from dataclasses import dataclass

import numpy as np

from .alphabet import from_residue_bit, to_residue_bit
from .budget import BudgetExceeded
from .codes import MdsCode, NAryQuasigroup, _integers, graph_of
from .perms import cycle_type, invert, transposition


class BinaryQuasigroup:
    """q x q Latin square; value(x, y) = table[x][y]."""

    def __init__(self, table, check=True):
        rows = tuple(_integers(row, "table entry must be an integer") for row in table)
        q = len(rows)
        if check:
            if any(len(r) != q for r in rows):
                raise ValueError("table must be square")
            full = set(range(q))
            for r in rows:
                if set(r) != full:
                    raise ValueError("row is not a permutation")
            for c in range(q):
                if {r[c] for r in rows} != full:
                    raise ValueError("column is not a permutation")
        self.table = rows
        self.q = q

    def value(self, x: int, y: int) -> int:
        return self.table[x][y]

    def row_perm(self, x: int) -> tuple[int, ...]:
        """Left translation y -> f(x, y)."""
        return self.table[x]

    def col_perm(self, y: int) -> tuple[int, ...]:
        """Right translation x -> f(x, y)."""
        return tuple(row[y] for row in self.table)

    def as_nary(self) -> NAryQuasigroup:
        return NAryQuasigroup(np.array(self.table, dtype=np.int64))

    def find_identity(self) -> int | None:
        for e in range(self.q):
            if self.table[e] == tuple(range(self.q)) and all(
                self.table[x][e] == x for x in range(self.q)
            ):
                return e
        return None

    def __eq__(self, other):
        return isinstance(other, BinaryQuasigroup) and self.table == other.table

    def __hash__(self):
        return hash(self.table)


class Loop(BinaryQuasigroup):
    """Binary quasigroup with a two-sided identity."""

    def __init__(self, table, identity: int | None = None, check=True):
        super().__init__(table, check=check)
        if identity is None:
            identity = self.find_identity()
            if identity is None:
                raise ValueError("table has no two-sided identity")
        else:
            if self.table[identity] != tuple(range(self.q)) or any(
                self.table[x][identity] != x for x in range(self.q)
            ):
                raise ValueError(f"{identity} is not a two-sided identity")
        self.identity = identity


def _two_indexed_table(p: int, component) -> Loop:
    q = 2 * p
    table = [[0] * q for _ in range(q)]
    for u in range(q):
        x, s = to_residue_bit(u, p)
        for v in range(q):
            y, t = to_residue_bit(v, p)
            table[u][v] = from_residue_bit(component(x, s, y, t), s ^ t, p)
    return Loop(table, identity=0, check=False)


def make_zp_z2(p: int) -> Loop:
    """Direct product of the p-cycle with the 2-cycle on two-indexed symbols."""
    if p < 2:
        raise ValueError("p must be >= 2")
    return _two_indexed_table(p, lambda x, s, y, t: (x + y) % p)


def make_dihedral(p: int) -> Loop:
    """Dihedral group of order 2p on two-indexed symbols."""
    if p < 2:
        raise ValueError("p must be >= 2")
    return _two_indexed_table(p, lambda x, s, y, t: ((-1) ** t * x + y) % p)


def make_cp(p: int) -> Loop:
    """The twisted loop of order 2p: x_s * y_t = ((-1)^t x + y + s*t)_(s^t).

    For odd p >= 3 this is a nonassociative loop whose graph is still
    isotopically transitive. p = 2 is accepted but degenerates to a group.
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    if p == 2:
        warnings.warn("p = 2 twisted loop is associative (no new structure)", stacklevel=2)
    return _two_indexed_table(p, lambda x, s, y, t: ((-1) ** t * x + y + s * t) % p)


def cyclic_loop(q: int) -> Loop:
    return Loop([[(x + y) % q for y in range(q)] for x in range(q)], identity=0, check=False)


def graph_code(loop: BinaryQuasigroup, provenance=None) -> MdsCode:
    if provenance is None:
        provenance = {"construction": "graph",
                      "table": [list(row) for row in loop.table]}
        if isinstance(loop, Loop):
            provenance["identity"] = loop.identity
    return graph_of(loop.as_nary(), provenance=provenance)


def twisted_graph_code(p: int) -> MdsCode:
    """Graph of the twisted loop, with provenance for the witness machinery."""
    return graph_code(make_cp(p), provenance={"construction": "graph", "loop": "cp", "p": p})


def is_associative(f: BinaryQuasigroup) -> bool:
    t = np.array(f.table, dtype=np.int64)
    # one x at a time, so memory stays q^2 for tables read from files:
    # t[t[x]][y, z] = (xy)z and t[x][t][y, z] = x(yz)
    return all(np.array_equal(t[t[x]], t[x][t]) for x in range(f.q))


def principal_isotope(f: BinaryQuasigroup, a: int, b: int) -> Loop:
    """Loop with identity 0 isotopic to f, built from the parameter pair (a, b).

    Exchange 0 with a in the rows, 0 with b in the columns, f(a, b) with 0 in
    the values, then renormalize by the unit translations so 0 becomes a
    two-sided identity. Up to conjugation by the value transposition this is
    the classical principal isotope f(x / b, a \\ y), so ranging over all
    (a, b) reaches every loop isotopic to f up to isomorphism.
    """
    q = f.q
    xi = transposition(q, 0, a)
    psi = transposition(q, 0, b)
    phi = transposition(q, f.value(a, b), 0)
    fp = [[phi[f.value(xi[x], psi[y])] for y in range(q)] for x in range(q)]
    xi0 = tuple(fp[x][0] for x in range(q))
    psi0 = tuple(fp[0][y] for y in range(q))
    xi0_inv, psi0_inv = invert(xi0), invert(psi0)
    table = [[fp[xi0_inv[x]][psi0_inv[y]] for y in range(q)] for x in range(q)]
    return Loop(table, identity=0, check=False)


def _translation_profile(f: BinaryQuasigroup):
    """Per element: cycle types of its left and right translations."""
    return [
        (cycle_type(f.row_perm(x)), cycle_type(f.col_perm(x)))
        for x in range(f.q)
    ]


def loop_isomorphic(f: Loop, g: Loop):
    """A permutation tau with g(tau x, tau y) = tau f(x, y) for all x, y,
    or None. Backtracking with translation cycle-type pruning and product
    propagation."""
    if f.q != g.q:
        return None
    q = f.q
    pf, pg = _translation_profile(f), _translation_profile(g)
    if sorted(pf) != sorted(pg):
        return None
    cands = [[u for u in range(q) if pg[u] == pf[x]] for x in range(q)]
    cands[f.identity] = [g.identity]

    tau = [-1] * q
    used = [False] * q

    def propagate(assigned: list[int]) -> list[int] | None:
        """Close the partial map under products; return newly assigned
        elements, or None on contradiction."""
        added = []
        queue = list(assigned)
        while queue:
            x = queue.pop()
            for y in range(q):
                if tau[y] == -1:
                    continue
                for u, v in ((x, y), (y, x)):
                    z = f.table[u][v]
                    w = g.table[tau[u]][tau[v]]
                    if tau[z] == -1:
                        # profile match subsumes the identity constraint: only
                        # the identity has all-fixed translation cycle types
                        if used[w] or pg[w] != pf[z]:
                            for t in added:
                                used[tau[t]] = False
                                tau[t] = -1
                            return None
                        tau[z] = w
                        used[w] = True
                        added.append(z)
                        queue.append(z)
                    elif tau[z] != w:
                        for t in added:
                            used[tau[t]] = False
                            tau[t] = -1
                        return None
        return added

    order = sorted(range(q), key=lambda x: len(cands[x]))

    def dfs(k: int) -> bool:
        while k < q and tau[order[k]] != -1:
            k += 1
        if k == q:
            return True
        x = order[k]
        for u in cands[x]:
            if used[u]:
                continue
            tau[x] = u
            used[u] = True
            added = propagate([x])
            if added is not None:
                if dfs(k + 1):
                    return True
                for t in added:
                    used[tau[t]] = False
                    tau[t] = -1
            tau[x] = -1
            used[u] = False
        return False

    if dfs(0):
        return tuple(tau)
    return None


@dataclass
class GLoopVerdict:
    is_g_loop: bool
    counterexample: tuple[int, int, Loop] | None = None

    def __bool__(self):
        return self.is_g_loop


def is_g_loop(f: Loop, bound: int = 12) -> GLoopVerdict:
    """True iff every principal isotope of f is isomorphic to f.

    Every loop isotopic to f is isomorphic to some principal isotope, so this
    decides whether f is isomorphic to all loops isotopic to it.
    """
    if f.q > bound:
        raise BudgetExceeded("loop order", bound, f.q)
    for a in range(f.q):
        for b in range(f.q):
            iso = principal_isotope(f, a, b)
            if loop_isomorphic(f, iso) is None:
                return GLoopVerdict(False, (a, b, iso))
    return GLoopVerdict(True)


def random_latin_square(q: int, rng: random.Random) -> BinaryQuasigroup:
    """Row-by-row randomized backtracking filler; fine for q <= 8."""
    while True:
        rows: list[list[int]] = []
        cols = [set(range(q)) for _ in range(q)]
        ok = True
        for _ in range(q):
            row = _random_row(q, cols, rng)
            if row is None:
                ok = False
                break
            rows.append(row)
            for c, v in enumerate(row):
                cols[c].discard(v)
        if ok:
            return BinaryQuasigroup(rows, check=False)


def _random_row(q, cols, rng):
    row = [-1] * q
    def fill(c):
        if c == q:
            return True
        options = [v for v in cols[c] if v not in row[:c]]
        rng.shuffle(options)
        for v in options:
            row[c] = v
            if fill(c + 1):
                return True
        row[c] = -1
        return False
    if fill(0):
        return row
    return None


def find_non_g_loop_order6() -> Loop:
    """First intercalate flip of the cyclic order-6 table (rows/cols >= 1,
    keeping 0 an identity) that fails the G-loop test. Deterministic."""
    z6 = cyclic_loop(6)
    base = [list(r) for r in z6.table]
    for r1, r2 in itertools.combinations(range(1, 6), 2):
        for c1, c2 in itertools.combinations(range(1, 6), 2):
            if base[r1][c1] == base[r2][c2] and base[r1][c2] == base[r2][c1]:
                t = [row[:] for row in base]
                t[r1][c1], t[r1][c2] = t[r1][c2], t[r1][c1]
                t[r2][c1], t[r2][c2] = t[r2][c2], t[r2][c1]
                loop = Loop(t, identity=0, check=False)
                if not is_g_loop(loop):
                    return loop
    raise RuntimeError("no non-G-loop found among intercalate flips")
