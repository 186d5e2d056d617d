"""Isotopisms, isometries, autotopism search, and transitivity certificates.

An isotopism of length-n codes over {0..q-1} is an n-tuple of symbol
permutations applied coordinatewise; an isometry additionally permutes the
coordinates first. A code M is isotopically transitive when for every codeword
there is an isotopism of M onto itself carrying a fixed base word to it,
propelinear when some sharply transitive (regular) group of isometries sits
inside the symmetry group, and topolinear when isotopisms alone suffice.

Both verdicts rest on one orbit algorithm (Seress, Permutation Group
Algorithms, ch. 4; Holt, Eick and O'Brien, Handbook of Computational Group
Theory, 4.1). The base word is 0..0 when M holds it, else the first
codeword. A symmetry carrying the base word to a codeword is looked for
only when the orbit of the base word has not reached that codeword yet; it
becomes a generator, and the orbit is closed under the generators, each new
word keeping a Schreier witness (generator composed with the witness of the
word it came from). The explicit route asks the witness formula of the
construction a code's provenance records and checks each answer; the pinned
route runs a backtracking search that knows nothing about how the code was
built. Provenance is a hint, not a fact: when it does not parse, or a
witness fails its checks, the verdict drops it, says so in its reason, and
falls back to search. The topolinear verdict looks for a sharply transitive
group among the witnesses, then among the cosets witness[w]·H of the
base-word stabilizer H, which one pinned search lists.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .budget import BudgetExceeded, DEFAULT_BUDGET, EQUIVALENCE_BUDGET, SearchBudget
from .codes import Isotopism, MdsCode
from .constructions import construction_hint, dropped_hint
from .perms import compose, invert


def permute_word(w, eps) -> tuple[int, ...]:
    """Coordinate j of w moves to position eps[j]."""
    out = [0] * len(w)
    for j, s in enumerate(w):
        out[eps[j]] = s
    return tuple(out)


def parastrophe(M: MdsCode, eps) -> MdsCode:
    prov = {"construction": "parastrophe", "eps": list(eps), "of": M.provenance}
    return MdsCode(M.q, M.n, [permute_word(w, eps) for w in M.words],
                   provenance=prov, check_symbols=False)


class Isometry:
    """Coordinate permutation followed by an isotopism."""

    __slots__ = ("iso", "eps")

    def __init__(self, iso: Isotopism, eps):
        self.iso = iso
        self.eps = tuple(int(v) for v in eps)

    def apply_word(self, w) -> tuple[int, ...]:
        return self.iso.apply_word(permute_word(w, self.eps))

    def apply_code(self, M: MdsCode) -> MdsCode:
        return self.iso.apply_code(parastrophe(M, self.eps))

    def compose(self, other: "Isometry") -> "Isometry":
        """(self o other): other is applied first; isotopism parts braid past
        the coordinate permutation."""
        eps = compose(self.eps, other.eps)
        inv_self = invert(self.eps)
        taus = tuple(
            compose(self.iso.taus[i], other.iso.taus[inv_self[i]])
            for i in range(len(self.eps))
        )
        return Isometry(Isotopism(taus), eps)

    def __eq__(self, other):
        return isinstance(other, Isometry) and self.iso == other.iso and self.eps == other.eps

    def __hash__(self):
        return hash((self.iso, self.eps))

    def __repr__(self):
        return f"Isometry(eps={self.eps}, q={self.iso.q})"


# ---------------------------------------------------------------------------
# group closure

GROUP_CAP = 1_000_000


def mulclose(gens, cap: int = GROUP_CAP) -> list[Isotopism]:
    """Closure under composition (inverses come for free in a finite group),
    sorted by `taus`; BudgetExceeded("group closure", cap) when the group has
    more than `cap` elements.

    A generator already in the group closed so far is skipped, and each kept
    one at least doubles it, so closing G costs |G|*k compositions for
    k <= log2|G| kept generators, however many generators are listed."""
    gens = list(gens)
    if not gens:
        return []
    ident = Isotopism.identity(gens[0].q, gens[0].n)
    group, kept = {ident.taus: ident}, []
    for g in gens:
        if g.taus not in group:
            group = _extend(group, kept, g, lambda x: x.taus, cap)
            kept.append(g)
    return [group[taus] for taus in sorted(group)]


def _extend(group: dict, kept: list, g: Isotopism, key, cap: int) -> dict | None:
    """The group generated by `group` (key(x) -> x, generated by `kept`) and
    g, as a new dict; None when two distinct elements share a key;
    BudgetExceeded("group closure", cap) past `cap` elements. g multiplies
    each old element once and every generator each new element once, so the
    result is closed under every generator."""
    gens = (*kept, g)
    grown = dict(group)
    todo = [(a, (g,)) for a in group.values()]  # (element, generators still to apply)
    while todo:
        a, hs = todo.pop()
        for h in hs:
            b = h.compose(a)
            k = key(b)
            prev = grown.get(k)
            if prev is None:
                if len(grown) >= cap:
                    raise BudgetExceeded("group closure", cap)
                grown[k] = b
                todo.append((b, gens))
            elif prev.taus != b.taus:
                return None
    return grown


# ---------------------------------------------------------------------------
# backtracking search for isotopisms carrying src onto dst

def search_isotopisms(src: MdsCode, dst: MdsCode, pins=None,
                      budget: SearchBudget = DEFAULT_BUDGET):
    """Yield every isotopism tau with tau(src) = dst, in deterministic order.

    Slot assignment tau_i(a) = b propagates through line completion: once a
    word has a single undetermined coordinate image, the target word is forced
    (or shown absent). Pins are pre-assigned slots {(coord, sym): sym}.
    """
    if (src.q, src.n) != (dst.q, dst.n):
        raise ValueError("codes live on different point sets")
    budget.check_points(src.q, src.n)
    if len(src) != len(dst):
        return

    q, n = src.q, src.n
    words = src.words
    nwords = len(words)
    comp = dst.completion_maps()
    dst_set = dst.word_set
    slots = src.slots()

    tau = [[-1] * q for _ in range(n)]
    tinv = [[-1] * q for _ in range(n)]
    img = [[-1] * n for _ in range(nwords)]
    unk = [n] * nwords
    trail: list[tuple[int, int, int]] = []
    nodes = 0

    def assign(i0: int, a0: int, b0: int) -> bool:
        nonlocal nodes
        queue = [(i0, a0, b0)]
        while queue:
            i, a, b = queue.pop()
            cur = tau[i][a]
            if cur != -1:
                if cur != b:
                    return False
                continue
            if tinv[i][b] != -1:
                return False
            nodes += 1
            if nodes > budget.max_nodes:
                raise BudgetExceeded("search nodes", budget.max_nodes)
            tau[i][a] = b
            tinv[i][b] = a
            trail.append((i, a, b))
            pending = []
            for widx in slots.get((i, a), ()):
                img[widx][i] = b
                unk[widx] -= 1
                if unk[widx] <= 1:
                    pending.append(widx)
            for widx in pending:
                im = img[widx]
                if unk[widx] == 1:
                    j = im.index(-1)
                    val = comp[j].get(tuple(im[:j] + im[j + 1:]))
                    if val is None:
                        return False
                    queue.append((j, words[widx][j], val))
                elif tuple(im) not in dst_set:
                    return False
        return True

    def undo_to(mark: int) -> None:
        while len(trail) > mark:
            i, a, b = trail.pop()
            tau[i][a] = -1
            tinv[i][b] = -1
            for widx in slots.get((i, a), ()):
                img[widx][i] = -1
                unk[widx] += 1

    def pick_word():
        best, best_u = -1, n + 1
        for widx in range(nwords):
            u = unk[widx]
            if 0 < u < best_u:
                best, best_u = widx, u
                if u == 2:
                    break
        return best

    def dfs():
        widx = pick_word()
        if widx == -1:
            yield Isotopism(tuple(tuple(t) for t in tau))
            return
        im = img[widx]
        i = im.index(-1)
        a = words[widx][i]
        for b in range(q):
            if tinv[i][b] != -1:
                continue
            mark = len(trail)
            if assign(i, a, b):
                yield from dfs()
            undo_to(mark)

    if all(assign(i, a, b) for (i, a), b in (pins or {}).items()):
        yield from dfs()


def autotopism_search(M: MdsCode, pins=None, budget: SearchBudget = DEFAULT_BUDGET):
    """Stream of all isotopisms of M onto itself honoring the pins."""
    return search_isotopisms(M, M, pins=pins, budget=budget)


# ---------------------------------------------------------------------------
# transitivity

def _witness_fault(M: MdsCode, base, w, g: Isotopism) -> str | None:
    """Why g is no witness for codeword w of M, or None."""
    if g.apply_word(base) != w:
        return f"witness for {w} misses its word"
    if not g.is_automorphism_of(M):
        return f"witness for {w} is not a symmetry of the code"
    return None


@dataclass
class TransitivityCertificate:
    """One symmetry per codeword, each carrying the base word to it. In
    topolinear mode the witness set must itself be a sharply transitive
    group."""

    mode: str
    base: tuple
    witnesses: dict = field(default_factory=dict)  # word -> Isotopism

    def verify(self, M: MdsCode) -> tuple[bool, str | None]:
        """(True, None), or (False, the first check that failed). In
        topolinear mode the witnesses must close under composition within |M|
        elements (`mulclose` capped at |M|), which costs O(|M| log|M|)
        compositions."""
        if tuple(self.base) not in M:
            return False, "base word not in code"
        for w in M.words:
            g = self.witnesses.get(w)
            if g is None:
                return False, f"no witness for {w}"
            fault = _witness_fault(M, self.base, w, g)
            if fault:
                return False, fault
        if len(self.witnesses) != len(M):
            return False, "extra witnesses for words outside the code"
        if self.mode == "topolinear":
            # one witness per base image, so |M| distinct: a group iff closed within |M|
            try:
                mulclose(set(self.witnesses.values()), cap=len(M))
            except BudgetExceeded:
                return False, "witness set is not closed under composition"
        return True, None


@dataclass
class TransitivityResult:
    transitive: bool
    certificate: TransitivityCertificate | None = None
    failing_word: tuple | None = None
    method: str = "search"
    reason: str = ""  # names a provenance hint the verdict dropped
    generators: list = field(default_factory=list)  # checked symmetries found

    def __bool__(self):
        return self.transitive

    @property
    def searches(self) -> int:
        """Pinned searches run: one per generator, plus the one that failed."""
        if self.method != "pinned":
            return 0
        return len(self.generators) + (self.failing_word is not None)


def is_isotopically_transitive(M: MdsCode, method: str = "auto",
                               budget: SearchBudget = DEFAULT_BUDGET) -> TransitivityResult:
    """Decide whether some symmetry carries the base word to every codeword.

    Both routes close the orbit of the base word (see `_orbit_closure`).
    Method "explicit" finds a symmetry for a word outside the orbit by the
    recorded construction's witness formula, checked as `verify` checks a
    witness; the formula starts from 0..0, so it is asked only when that is
    the base word. "pinned" finds one by a pinned search; "auto" tries
    explicit, then pinned. `generators` holds the symmetries found, which
    generate the group of the witnesses.
    """
    if method not in ("auto", "explicit", "pinned"):
        raise ValueError(f"unknown method {method!r}")
    zero = (0,) * M.n
    base = zero if zero in M else M.words[0]
    note = ""
    if method in ("auto", "explicit"):
        formula, note = construction_hint(M) if base == zero else (None, "")

        def explicit(w):
            g = formula(w)
            fault = _witness_fault(M, base, w, g)
            if fault:
                raise ValueError(fault)
            return g

        if formula is not None:
            try:
                witnesses, generators, _ = _orbit_closure(M, base, explicit)
            except (ValueError, KeyError, TypeError) as exc:
                note = dropped_hint(M, exc)
            else:
                cert = TransitivityCertificate("isotopic", base, witnesses)
                return TransitivityResult(True, cert, method="explicit",
                                          generators=generators)
        if method == "explicit":
            raise ValueError(note or "no explicit witness family for this provenance")

    def pinned(w):
        pins = {(i, base[i]): w[i] for i in range(M.n)}
        return next(autotopism_search(M, pins=pins, budget=budget), None)

    try:
        witnesses, generators, failing = _orbit_closure(M, base, pinned)
    except BudgetExceeded as exc:
        if note:  # a refusal still names the hint it dropped
            exc.args = (f"{exc}; {note}",)
        raise
    cert = None if failing else TransitivityCertificate("isotopic", base, witnesses)
    return TransitivityResult(failing is None, cert, failing, method="pinned",
                              reason=note, generators=generators)


def _orbit_closure(M: MdsCode, base, find):
    """(Schreier witnesses of the orbit of `base`, the generators found, the
    first word no symmetry reaches or None). `find(w)` gives a symmetry
    carrying `base` to w, or None when it shows there is none.

    Words are visited in order; `find` runs only for a word outside the
    orbit so far. Its symmetry joins the generators and the orbit is closed
    again: the new generator moves every word reached before, and every
    generator moves each newly reached word. The new generator carries the
    base word, whose witness is the identity, to the word it was found for,
    so it becomes that word's witness: the witnesses generate the same group
    as the generators. A failed `find` names the first word outside the full
    orbit, since every earlier word was reached or found."""
    witnesses = {base: Isotopism.identity(M.q, M.n)}
    generators: list[Isotopism] = []
    for w in M.words:
        if w in witnesses:
            continue
        g = find(w)
        if g is None:
            return witnesses, generators, w
        generators.append(g)
        fresh = []
        for u, h in list(witnesses.items()):
            v = g.apply_word(u)
            if v not in witnesses:
                witnesses[v] = g.compose(h)
                fresh.append(v)
        while fresh:
            u = fresh.pop()
            for gen in generators:
                v = gen.apply_word(u)
                if v not in witnesses:
                    witnesses[v] = gen.compose(witnesses[u])
                    fresh.append(v)
    return witnesses, generators, None


# ---------------------------------------------------------------------------
# topolinearity

@dataclass
class TopolinearResult:
    status: bool | None  # None = inconclusive within budget
    group: list | None = None
    reason: str = ""

    def __bool__(self):
        return bool(self.status)


def _regular_subgroup_search(M: MdsCode, base, witnesses, stabilizer=None):
    """A sharply transitive group of symmetries, or None. Every symmetry
    carrying `base` to w is witnesses[w]·h, h in the stabilizer of `base`
    (the witnesses alone when no stabilizer is given). The DFS tries these
    for the first word its group has not reached, pruning a closure with two
    elements over one image of `base`; each step at least doubles the group,
    so it is at most log2|M| deep."""
    target = len(M)

    def dfs(group: dict, kept: list):
        if len(group) == target:
            return list(group.values())
        w = next(w for w in M.words if w not in group)
        wit = witnesses[w]
        for g in ((wit,) if stabilizer is None else (wit.compose(h) for h in stabilizer)):
            grown = _extend(group, kept, g, lambda x: x.apply_word(base), target)
            if grown is not None:
                found = dfs(grown, [*kept, g])
                if found is not None:
                    return found
        return None

    return dfs({base: Isotopism.identity(M.q, M.n)}, [])


def is_topolinear(M: MdsCode, budget: SearchBudget = DEFAULT_BUDGET) -> TopolinearResult:
    """Three-way verdict: True with a regular witness group, False after an
    exhaustive refusal, None when a budget stopped the deciding search.

    `_regular_subgroup_search` runs over the transitivity witnesses alone,
    then over the cosets of the base-word stabilizer, which one pinned
    search lists."""
    try:
        trans = is_isotopically_transitive(M, budget=budget)
    except BudgetExceeded as exc:
        return TopolinearResult(None, None, f"inconclusive: {exc}")
    note = f"; {trans.reason}" if trans.reason else ""
    if not trans:
        return TopolinearResult(False, None,
                                f"not isotopically transitive at {trans.failing_word}{note}")
    base, witnesses = trans.certificate.base, trans.certificate.witnesses
    group = _regular_subgroup_search(M, base, witnesses)
    if group is not None:
        route = "construction group" if trans.method == "explicit" else "witness closure"
        return TopolinearResult(True, group, route + note)
    try:
        stabilizer = list(autotopism_search(M, pins={(i, b): b for i, b in enumerate(base)},
                                            budget=budget))
    except BudgetExceeded as exc:
        return TopolinearResult(None, None, f"inconclusive: {exc}{note}")
    group = _regular_subgroup_search(M, base, witnesses, stabilizer)
    if group is not None:
        return TopolinearResult(True, group, f"regular subgroup of the full group{note}")
    return TopolinearResult(False, None, "full symmetry group holds no sharply "
                                         f"transitive subgroup{note}")


# ---------------------------------------------------------------------------
# code equivalence

def equivalent_codes(M1: MdsCode, M2: MdsCode,
                     budget: SearchBudget = EQUIVALENCE_BUDGET):
    """Isometry carrying M1 onto M2, or None after exhausting all coordinate
    permutations and isotopism searches."""
    if (M1.q, M1.n) != (M2.q, M2.n):
        return None
    budget.check_points(M1.q, M1.n)
    if len(M1) != len(M2):
        return None
    for eps in itertools.permutations(range(M1.n)):
        permuted = parastrophe(M1, eps)
        found = next(search_isotopisms(permuted, M2, budget=budget), None)
        if found is not None:
            return Isometry(found, eps)
    return None
