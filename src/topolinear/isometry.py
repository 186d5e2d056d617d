"""Isotopisms, isometries, autotopism search, and transitivity certificates.

An isotopism of length-n codes over {0..q-1} is an n-tuple of symbol
permutations applied coordinatewise; an isometry additionally permutes the
coordinates first. A code M is isotopically transitive when for every codeword
there is an isotopism of M onto itself carrying a fixed base word (0..0) to it,
propelinear when some sharply transitive (regular) group of isometries sits
inside the symmetry group, and topolinear when isotopisms alone suffice.

Both verdicts rest on one orbit algorithm (Seress, Permutation Group
Algorithms, ch. 4; Holt, Eick and O'Brien, Handbook of Computational Group
Theory, 4.1). A symmetry carrying the base word to a codeword is looked for
only when the orbit of the base word has not reached that codeword yet; it
becomes a generator, and the orbit is closed under the generators, each new
word keeping a Schreier witness (generator composed with the witness of the
word it came from). The explicit route asks the witness formula of the
construction a code's provenance records and checks each answer; the pinned
route runs a backtracking search that knows nothing about how the code was
built. Provenance is a hint, not a fact: when it does not parse, or a
witness fails its checks, the verdict drops it, says so in its reason, and
falls back to search. The topolinear verdict closes the group of the few
generators, capped at |M| elements.
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

    def inverse(self) -> "Isometry":
        taus = tuple(invert(self.iso.taus[self.eps[j]]) for j in range(len(self.eps)))
        return Isometry(Isotopism(taus), invert(self.eps))

    def __eq__(self, other):
        return isinstance(other, Isometry) and self.iso == other.iso and self.eps == other.eps

    def __hash__(self):
        return hash((self.iso, self.eps))

    def __repr__(self):
        return f"Isometry(eps={self.eps}, q={self.iso.q})"


# ---------------------------------------------------------------------------
# group closure and the sharply-transitive criterion

def mulclose(gens, cap: int = DEFAULT_BUDGET.max_group) -> list[Isotopism]:
    """Closure under composition (inverses come for free in a finite group),
    sorted by `taus`; BudgetExceeded("group closure", cap) when the group has
    more than `cap` elements.

    Incremental: a generator already in the group closed so far is skipped.
    A kept generator g multiplies the elements already there once, and each
    new element is multiplied by every kept generator, so every element meets
    every kept generator once: closing G costs |G|*k compositions for k kept
    generators. The group closed so far is a proper subgroup of the one a
    kept generator closes to, so each kept generator at least doubles it and
    k <= log2|G|, however many generators are listed."""
    gens = list(gens)
    if not gens:
        return []
    seen = {Isotopism.identity(gens[0].q, gens[0].n)}
    kept: list[Isotopism] = []
    for g in gens:
        if g in seen:
            continue
        kept.append(g)
        todo = [(a, (g,)) for a in seen]  # (element, generators still to apply)
        while todo:
            a, hs = todo.pop()
            for h in hs:
                b = h.compose(a)
                if b not in seen:
                    if len(seen) >= cap:
                        raise BudgetExceeded("group closure", cap)
                    seen.add(b)
                    todo.append((b, kept))
    return sorted(seen, key=lambda x: x.taus)


@dataclass
class RegularVerdict:
    ok: bool
    group_size: int
    reason: str | None = None
    fiber_witness: tuple | None = None

    def __bool__(self):
        return self.ok


def check_regular_condition(M: MdsCode, witnesses, coord: int,
                            cap: int = DEFAULT_BUDGET.max_group) -> RegularVerdict:
    """Sharply-transitive test. Closes `witnesses` under composition, then
    requires: the closure acts transitively on M and equal action on the base
    word forces equal component at `coord`. When it holds, the closure is
    regular of order |M| (two elements agreeing on the base word then agree
    everywhere, one line at a time)."""
    elements = mulclose(witnesses, cap)
    base = (0,) * M.n
    if base not in M:
        return RegularVerdict(False, len(elements), "base word not in code")
    fibers: dict[tuple, tuple] = {}
    for g in elements:
        if not g.is_automorphism_of(M):
            return RegularVerdict(False, len(elements),
                                  "element is not a symmetry of the code")
        img = g.apply_word(base)
        comp = g.taus[coord]
        prev = fibers.get(img)
        if prev is None:
            fibers[img] = comp
        elif prev != comp:
            return RegularVerdict(False, len(elements),
                                  "two elements agree on the base word but differ "
                                  f"at coordinate {coord}", img)
    if len(fibers) != len(M):
        return RegularVerdict(False, len(elements),
                              f"orbit of base word has size {len(fibers)} < {len(M)}")
    if len(elements) != len(M):
        return RegularVerdict(False, len(elements),
                              "criterion held per fiber but the group is not sharply "
                              "transitive; closure was not a group?")
    return RegularVerdict(True, len(elements))


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

    mark0 = len(trail)
    ok = True
    for (i, a), b in (pins or {}).items():
        if not assign(i, a, b):
            ok = False
            break
    if ok:
        yield from dfs()
    undo_to(mark0)


def autotopism_search(M: MdsCode, pins=None, budget: SearchBudget = DEFAULT_BUDGET):
    """Stream of all isotopisms of M onto itself honoring the pins."""
    return search_isotopisms(M, M, pins=pins, budget=budget)


# ---------------------------------------------------------------------------
# transitivity

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
        topolinear mode the |M| witnesses must be distinct and close under
        composition within |M| elements (`mulclose` capped at |M|), which
        costs O(|M| log|M|) compositions."""
        if tuple(self.base) not in M:
            return False, "base word not in code"
        for w in M.words:
            g = self.witnesses.get(w)
            if g is None:
                return False, f"no witness for {w}"
            if g.apply_word(self.base) != w:
                return False, f"witness for {w} misses its word"
            if not g.is_automorphism_of(M):
                return False, f"witness for {w} is not a symmetry of the code"
        if len(self.witnesses) != len(M):
            return False, "extra witnesses for words outside the code"
        if self.mode == "topolinear":
            elems = set(self.witnesses.values())
            if len(elems) != len(M):
                return False, "witness set is not sharply transitive"
            # |M| distinct witnesses close within |M| elements exactly when
            # they are closed under composition
            try:
                mulclose(elems, cap=len(M))
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


def _shift_to_base(M: MdsCode):
    """(isotope of M holding the base word 0..0, the shift carrying M onto
    it), or None when M already holds it. Both verdicts are isotopy
    invariant: they decide the isotope and conjugate the evidence back."""
    base = (0,) * M.n
    if base in M:
        return None
    w0 = M.words[0]
    shift = Isotopism(tuple(
        tuple((s - w0[i]) % M.q for s in range(M.q)) for i in range(M.n)
    ))
    return shift.apply_code(M), shift


def is_isotopically_transitive(M: MdsCode, method: str = "auto",
                               budget: SearchBudget = DEFAULT_BUDGET) -> TransitivityResult:
    """Decide whether some symmetry carries the base word to every codeword.

    Both routes close the orbit of the base word (see `_orbit_closure`).
    Method "explicit" finds a symmetry for a word outside the orbit by the
    recorded construction's witness formula, checked as `verify` checks a
    witness; "pinned" by a pinned search; "auto" tries explicit, then
    pinned. `generators` holds the symmetries found, which generate the
    group of the witnesses.
    """
    if method not in ("auto", "explicit", "pinned"):
        raise ValueError(f"unknown method {method!r}")
    moved = _shift_to_base(M)
    if moved is not None:
        shifted, shift = moved
        res = is_isotopically_transitive(shifted, method=method, budget=budget)
        inv = shift.inverse()

        def back(g):
            return inv.compose(g).compose(shift)

        if res.certificate is not None:
            wits = {inv.apply_word(w): back(g)
                    for w, g in res.certificate.witnesses.items()}
            res.certificate = TransitivityCertificate(
                res.certificate.mode, inv.apply_word(res.certificate.base), wits)
        res.generators = [back(g) for g in res.generators]
        if res.failing_word is not None:
            res.failing_word = inv.apply_word(res.failing_word)
        return res

    base = (0,) * M.n
    note = ""
    if method in ("auto", "explicit"):
        formula, note = construction_hint(M)

        def explicit(w):
            g = formula(w)
            if g.apply_word(base) != w:
                raise ValueError(f"witness for {w} misses its word")
            if not g.is_automorphism_of(M):
                raise ValueError(f"witness for {w} is not a symmetry of the code")
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


def _regular_subgroup_search(M: MdsCode, elements):
    """DFS for a sharply transitive subgroup inside a listed symmetry group.
    Prunes as soon as a closure holds two elements over one base-word image."""
    base = (0,) * M.n
    fibers: dict[tuple, list[Isotopism]] = {w: [] for w in M.words}
    for g in elements:
        fibers[g.apply_word(base)].append(g)
    if any(not fs for fs in fibers.values()):
        return None
    order = sorted(fibers, key=lambda w: len(fibers[w]))

    target = len(M)

    def close_with(current: dict, g: Isotopism):
        new = dict(current)
        queue = [g]
        while queue:
            a = queue.pop()
            img = a.apply_word(base)
            prev = new.get(img)
            if prev is not None:
                if prev != a:
                    return None
                continue
            new[img] = a
            if len(new) > target:
                return None
            for b in list(new.values()):
                for c in (a.compose(b), b.compose(a)):
                    i2 = c.apply_word(base)
                    prev2 = new.get(i2)
                    if prev2 is None:
                        queue.append(c)
                    elif prev2 != c:
                        return None
        return new

    ident = Isotopism.identity(M.q, M.n)
    start = {base: ident}

    def dfs(current: dict):
        if len(current) == target:
            return list(current.values())
        w = next(w for w in order if w not in current)
        for g in fibers[w]:
            ext = close_with(current, g)
            if ext is not None:
                out = dfs(ext)
                if out is not None:
                    return out
        return None

    return dfs(start)


def is_topolinear(M: MdsCode, budget: SearchBudget = DEFAULT_BUDGET) -> TopolinearResult:
    """Three-way verdict: True with a regular witness group, False after an
    exhaustive refusal, None when a budget stopped the deciding search.

    The transitivity generators are checked symmetries whose group is
    transitive, so it is sharply transitive exactly when it closes within
    |M| elements; otherwise the full symmetry group is searched."""
    moved = _shift_to_base(M)
    if moved is not None:
        shifted, shift = moved
        res = is_topolinear(shifted, budget=budget)
        if res.group is not None:
            inv = shift.inverse()
            res.group = [inv.compose(g).compose(shift) for g in res.group]
        return res

    try:
        trans = is_isotopically_transitive(M, budget=budget)
    except BudgetExceeded as exc:
        return TopolinearResult(None, None, f"inconclusive: {exc}")
    note = f"; {trans.reason}" if trans.reason else ""
    if not trans:
        return TopolinearResult(False, None,
                                f"not isotopically transitive at {trans.failing_word}{note}")
    route = "construction group" if trans.method == "explicit" else "witness closure"
    cap = min(len(M), budget.max_group)
    stopped = ""
    try:
        # the identity closes the empty generator list of a one-word code
        group = mulclose([Isotopism.identity(M.q, M.n), *trans.generators], cap=cap)
    except BudgetExceeded as exc:
        if cap < len(M):
            stopped = f"; {route} stopped: {exc}"
    else:
        return TopolinearResult(True, group, route + note)

    try:
        found = _regular_subgroup_search(M, list(autotopism_search(M, budget=budget)))
    except BudgetExceeded as exc:
        return TopolinearResult(None, None, f"inconclusive: {exc}{stopped}{note}")
    if found is not None:
        return TopolinearResult(True, found, f"regular subgroup of the full group{stopped}{note}")
    return TopolinearResult(False, None, "full symmetry group holds no sharply "
                                         f"transitive subgroup{stopped}{note}")


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
