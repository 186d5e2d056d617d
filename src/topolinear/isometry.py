"""Isotopisms, isometries, autotopism search, and transitivity certificates.

An isotopism of length-n codes over {0..q-1} is an n-tuple of symbol
permutations applied coordinatewise; an isometry additionally permutes the
coordinates first. A code M is isotopically transitive when for every codeword
there is an isotopism of M onto itself carrying a fixed base word to it,
propelinear when some sharply transitive (regular) group of isometries sits
inside the symmetry group, and topolinear when isotopisms alone suffice.

Both verdicts rest on one orbit algorithm (Seress, Permutation Group
Algorithms, ch. 4; Holt, Eick and O'Brien, Handbook of Computational Group
Theory, 4.1). The base word is the first codeword, which is 0..0 when
M holds it. A symmetry carrying the base word to a codeword is looked for
only when the orbit of the base word has not reached that codeword yet; it
becomes a generator, and the orbit is closed under the generators breadth
first, each new word keeping a Schreier witness (generator composed with the
witness of the word it came from). The explicit route asks the witness formula of the
construction a code's provenance records and checks each answer; the pinned
route runs a backtracking search that knows nothing about how the code was
built. Provenance is a hint, not a fact: when it does not parse, or a
witness fails its checks, the verdict drops it, says so in its reason, and
falls back to search. The topolinear verdict takes the witnesses when they
form a group, else looks among the cosets witness[w]·H of the base-word
stabilizer H, which one pinned search lists.

Group closure, the Schreier witnesses and certificate replay share one
array kernel: a set of isotopisms is an (m, n, q) integer array, and
composing a layer of elements with the generators is one gather. The walk
keeps its tree as index arrays, the witnesses of one tree level are one
gather, and a certificate holds them as a code holds its words, as arrays in
word order (`Witnesses`; only witnesses that cannot stack stay a dict). Replay
walks the same orbit, taking a certificate's own witnesses as generators,
and checks in one gather per generator, through the walk's word permutation,
that every witness derives from the base word's, whatever Schreier tree
wrote it; topolinear replay, and the topolinear verdict, also check that
each generator maps the witnesses onto themselves.
A certificate that fails there is checked witness by witness, as the verdict
checks a generator, to name its first fault; `MdsCode.symmetries` is the one
symmetry test.

Code equivalence checks an invariant before it searches. Over each k-set U
of coordinates, every assignment of the other coordinates leaves an MDS
code of length k, whose count of full boxes, order-2 subcodes, is kept by
isotopy and by permuting U (`MdsCode.box_profiles(k)`). For k = 3 it is the
count of intercalates, 2x2 subsquares, of a Latin square (McKay, Meynert
and Myrvold, Small Latin squares, quasigroups and loops, J. Combin. Des.
15, 2007). An isometry with coordinate permutation eps therefore carries
the multiset of counts over U onto the multiset over eps(U): 3-set profiles
that differ prove two codes inequivalent, and only the eps that keep them,
the first step of partition refinement (McKay and Piperno, J. Symb. Comput.
60, 2014), are searched. When the first of them fails, the 4-set profiles
refine the rest (McKay, Practical graph isomorphism, Congr. Numer. 30,
1981). They tell r2 = x0x1 + x2x3 (8 boxes) from the pair code H (none),
whose intercalate counts agree.

Line completion and the box counts are defined on MDS codes only, so the
searches, and every verdict that runs one, raise ValueError naming the
`is_mds` reason on any other word set. The explicit route and certificate
replay search nothing: they check witnesses on any word set.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .budget import BudgetExceeded, DEFAULT_BUDGET, SearchBudget
from .codes import Isotopism, MdsCode, _frozen, _integers, _lex_order, _row_dtype, require_mds
from .constructions import construction_hint, dropped_hint


def permute_word(w, eps) -> tuple[int, ...]:
    """Coordinate j of w moves to position eps[j]."""
    out = [0] * len(w)
    for j, s in enumerate(w):
        out[eps[j]] = s
    return tuple(out)


def _coordinate_permutation(eps, n: int) -> tuple[int, ...]:
    """eps as a tuple of ints: ValueError unless it permutes range(n)."""
    eps = _integers(eps, "eps must be a permutation of the coordinates")
    if sorted(eps) != list(range(n)):
        raise ValueError("eps must be a permutation of the coordinates")
    return eps


def parastrophe(M: MdsCode, eps) -> MdsCode:
    """M with coordinate j of every word moved to position eps[j]: one column
    gather of its word array. ValueError unless eps permutes range(n)."""
    eps = _coordinate_permutation(eps, M.n)
    prov = {"construction": "parastrophe", "eps": list(eps), "of": M.provenance}
    return MdsCode(M.q, M.n, M.word_array()[:, np.argsort(eps)], prov)


class Isometry:
    """Coordinate permutation eps, checked, followed by an isotopism."""

    __slots__ = ("iso", "eps")

    def __init__(self, iso: Isotopism, eps):
        self.iso = iso
        self.eps = _coordinate_permutation(eps, iso.n)

    def apply_word(self, w) -> tuple[int, ...]:
        return self.iso.apply_word(permute_word(w, self.eps))

    def apply_code(self, M: MdsCode) -> MdsCode:
        return self.iso.apply_code(parastrophe(M, self.eps))

    def compose(self, other: "Isometry") -> "Isometry":
        """(self o other): other is applied first; its isotopism part braids
        past self's coordinate permutation, one gather of its rows."""
        moved = Isotopism._of(other.iso.rows[np.argsort(self.eps)])
        return Isometry(self.iso.compose(moved), tuple(self.eps[j] for j in other.eps))

    def __eq__(self, other):
        return isinstance(other, Isometry) and self.iso == other.iso and self.eps == other.eps

    def __hash__(self):
        return hash((self.iso, self.eps))

    def __repr__(self):
        return f"Isometry(eps={self.eps}, q={self.iso.q})"


# ---------------------------------------------------------------------------
# group closure: row k of an (m, n, q) array is the `rows` of one element, so
# a stack of isotopisms' rows is a kernel array and an Isotopism of the
# kernel views one of its rows

GROUP_CAP = 1_000_000


def _isotopisms(rows: np.ndarray) -> list[Isotopism]:
    """The isotopisms of an (m, n, q) kernel array: views of its rows, which
    it makes read-only."""
    return list(map(Isotopism._of, _frozen(rows)))


def _compose_rows(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Every a o b (b applied first) for a in `left`, b in `right`, in
    left-major order: one gather from the flattened rows of `left`."""
    a, n, q = left.shape
    at = right + (np.arange(n) * q)[:, None]
    return np.take(left.reshape(a, n * q), at, axis=1).reshape(-1, n, q)


def _compose_pairs(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left[k] o right[k] (right[k] applied first) for each k: one gather."""
    m, n, q = left.shape
    at = (np.arange(m) * (n * q))[:, None, None] + (np.arange(n) * q)[:, None] + right
    return np.take(left, at)


def _row_bytes(rows: np.ndarray) -> list[bytes]:
    buf, step = rows.tobytes(), rows[0].nbytes if len(rows) else 1
    return [buf[k:k + step] for k in range(0, len(buf), step)]


def _close(group: np.ndarray, index: dict, gens: np.ndarray, key, cap: int):
    """(rows, index) of the group generated by `group` and the last of
    `gens`, where `group` is closed under the others and `index` maps the key
    of each of its rows to the row's bytes; None when two different rows
    share a key; BudgetExceeded("group closure", cap) past `cap` rows.

    The last generator multiplies every old row, and every generator each
    new row, so the result is closed under all of them: one layer of new
    rows per gather. `key(rows)` lists a hashable key per row."""
    index = dict(index)
    parts = [group]
    fresh = _compose_rows(gens[-1:], group)
    while len(fresh):
        new = []
        for j, (k, b) in enumerate(zip(key(fresh), _row_bytes(fresh))):
            prev = index.get(k)
            if prev is None:
                if len(index) >= cap:
                    raise BudgetExceeded("group closure", cap)
                index[k] = b
                new.append(j)
            elif prev != b:
                return None
        parts.append(fresh[new])
        fresh = _compose_rows(gens, parts[-1])
    return np.concatenate(parts), index


def mulclose(gens, cap: int = GROUP_CAP) -> list[Isotopism]:
    """Closure under composition (inverses come for free in a finite group),
    in the lexicographic order of the rows, which is that of `taus`;
    BudgetExceeded("group closure", cap) when the group has more than `cap`
    elements.

    A generator already in the group closed so far is skipped, and each kept
    one at least doubles it; closing a group of order |G| under k kept
    generators (k <= log2|G|) takes one gather per layer of new elements,
    |G|*k element compositions in all, however many generators are listed."""
    gens = list(gens)
    if not gens:
        return []
    rows = np.stack([g.rows for g in gens])
    group = Isotopism.identity(gens[0].q, gens[0].n).rows[None]
    index = {b: b for b in _row_bytes(group)}
    kept = []
    for j, b in enumerate(_row_bytes(rows)):
        if b not in index:
            kept.append(j)
            group, index = _close(group, index, rows[kept], _row_bytes, cap)
    return _isotopisms(group[_lex_order(group)])


# ---------------------------------------------------------------------------
# backtracking search for isotopisms carrying src onto dst

def search_isotopisms(src: MdsCode, dst: MdsCode, pins=None,
                      budget: SearchBudget = DEFAULT_BUDGET):
    """Yield every isotopism tau with tau(src) = dst, in deterministic order.

    dst must be MDS (ValueError "not an MDS code: ..." otherwise); src may be
    any word set of its shape, and yields nothing unless it is an isotope of
    dst. Slot assignment tau_i(a) = b propagates through line completion.
    Each word of src keeps one int, value + Q*miss + QR*unk (Q = q^n, QR =
    Q*(C(n,2)+1)): the base-q value of its images assigned so far, the sum
    and the count of its unassigned coordinates, so an assignment adds one
    delta to each word of slot (i, a). With one coordinate j left, miss is
    j, and the line key in direction j reads the forced image off
    `dst.completion_maps()`: it must equal tau_j when that slot is set, else
    it sets and queues it, so a full image needs no check. A slot counts as
    a node when its propagation starts; a DFS level undoes by one copy of
    the ints and the trail of slots. Pins are pre-assigned slots {(coord,
    sym): sym}. Only `budget.max_nodes` applies here: the verdicts that run
    a search check the code's size on entry.
    """
    if (src.q, src.n) != (dst.q, dst.n):
        raise ValueError("codes live on different point sets")
    require_mds(dst)
    if len(src) != len(dst) or len(src.repeats()):
        return

    q, n = src.q, src.n
    column = src.word_array().T.tolist()  # column[i][widx]: n lists, not one per word
    comp = dst.completion_maps()
    slots = src.slots()
    low = [q ** (n - 1 - i) for i in range(n)]  # weight of coordinate i
    high = [q * w for w in low]
    Q = q ** n  # bounds the images' value
    QR = Q * (n * (n - 1) // 2 + 1)  # bounds value + Q * (sum of the unknowns)
    QR2 = 2 * QR
    delta = [[b * low[i] - i * Q - QR for b in range(q)] for i in range(n)]

    tau = [[-1] * q for _ in range(n)]
    dtype = _row_dtype(q)  # a found tau permutes: no check
    tinv = [[-1] * q for _ in range(n)]
    state = [Q * (n * (n - 1) // 2) + QR * n] * len(src)
    trail: list[tuple[int, int]] = []
    limit, nodes = budget.max_nodes, 0

    def assign(i: int, a: int, b: int) -> bool:
        nonlocal nodes
        cur = tau[i][a]
        if cur != -1:
            return cur == b
        tau[i][a] = b
        trail.append((i, a))
        queue = [(i, a, b)]
        while queue:
            i, a, b = queue.pop()
            if tinv[i][b] != -1:
                return False
            nodes += 1
            if nodes > limit:
                raise BudgetExceeded("search nodes", limit)
            tinv[i][b] = a
            d = delta[i][b]
            for widx in slots[i][a]:
                s = state[widx] + d
                state[widx] = s
                if QR <= s < QR2:  # one unknown j: its image is forced
                    j, k = (s - QR) // Q, s % Q
                    val = comp[j][k // high[j] * low[j] + k % low[j]]
                    c = column[j][widx]
                    cur = tau[j][c]
                    if cur == -1:
                        tau[j][c] = val
                        trail.append((j, c))
                        queue.append((j, c, val))
                    elif cur != val:
                        return False
        return True

    def undo_to(mark: int) -> None:
        while len(trail) > mark:
            i, a = trail.pop()
            b = tau[i][a]
            if tinv[i][b] == a:
                tinv[i][b] = -1
            tau[i][a] = -1

    def pick_word():
        if len(trail) == n * q:
            return -1
        best, bound = -1, (n + 1) * QR
        for widx, s in enumerate(state):
            if QR <= s < bound:  # fewer unknowns than the best so far
                best, bound = widx, s - s % QR
                if bound == QR2:
                    break
        return best

    def dfs():
        widx = pick_word()
        if widx == -1:
            yield Isotopism._of(_frozen(np.array(tau, dtype)))
            return
        i = next(i for i in range(n) if tau[i][column[i][widx]] == -1)
        a = column[i][widx]
        saved = state[:]
        for b in range(q):
            if tinv[i][b] != -1:
                continue
            mark = len(trail)
            if assign(i, a, b):
                yield from dfs()
            undo_to(mark)
            state[:] = saved

    if all(assign(i, a, b) for (i, a), b in (pins or {}).items()):
        yield from dfs()


def autotopism_search(M: MdsCode, pins=None, budget: SearchBudget = DEFAULT_BUDGET):
    """Stream of all isotopisms of M onto itself honoring the pins."""
    return search_isotopisms(M, M, pins=pins, budget=budget)


# ---------------------------------------------------------------------------
# transitivity

class Witnesses(Mapping):
    """Word tuple -> witness, read-only: the (k, m) int64 `word_rows` and the
    (k, n, q) kernel `rows` of k witnesses, in word order; a view per word read."""

    __slots__ = ("word_rows", "rows", "_index")

    def __init__(self, word_rows: np.ndarray, rows: np.ndarray):
        self.word_rows, self.rows, self._index = _frozen(word_rows), _frozen(rows), None

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return map(tuple, self.word_rows.tolist())

    def __getitem__(self, w):
        self._index = self._index or {key: j for j, key in enumerate(self)}
        return Isotopism._of(self.rows[self._index[w]])


def _witness_map(words, rows: np.ndarray):
    """The witnesses of checked kernel rows: `Witnesses` in word order for an
    int64 word array, else a dict keyed by the words."""
    if not isinstance(words, np.ndarray):
        return dict(zip(words, _isotopisms(rows)))
    order = _lex_order(words)
    return Witnesses(words[order], rows[order])


@dataclass
class TransitivityCertificate:
    """One symmetry per codeword, each carrying the base word to it. In
    topolinear mode the witness set must itself be a sharply transitive
    group."""

    mode: str
    base: tuple
    witnesses: Mapping = field(default_factory=dict)  # word -> Isotopism

    def __post_init__(self):
        """Witnesses keyed by integer tuples of one length, in int64, and of one
        shape become `Witnesses`; others, which cannot stack, stay as given."""
        wits = self.witnesses
        if isinstance(wits, Witnesses):
            return
        try:
            words = np.array([_integers(w, "not a word") for w in wits], np.int64)
            rows = np.stack([g.rows for g in wits.values()])
        except (ValueError, OverflowError):  # two lengths, past int64, two shapes, none
            return
        self.witnesses = _witness_map(words, rows)

    def verify(self, M: MdsCode) -> tuple[bool, str | None]:
        """(True, None), or (False, the first check that failed), in word
        order: each codeword needs a witness of the code's n and q that
        carries the base word to it and maps the code onto itself.

        Replay walks the orbit of the base word as the verdict does
        (`_orbit_closure`), each witness it takes as a generator checked
        alone (`_witness_fault`). The witnesses W pass when each derives from
        the base word's, W[v] = g o W[u] for a generator g, v = pi_g(u) and u
        derived before: isotopic replay first tries the walk's own tree
        (`_tree_holds`), and `_derivation` takes any other Schreier tree.
        In topolinear mode each generator must also map W onto itself: then
        W[pi_h(base)] = h for every h in the group the generators make, so W
        is that group. Otherwise `_witness_fault` runs word by word to name
        the first fault."""
        base, W = tuple(self.base), self.witnesses
        if base not in M:
            return False, "base word not in code"
        if (isinstance(W, Witnesses) and W.rows.shape == (len(M), M.n, M.q)
                and np.array_equal(W.word_rows, M.word_array())):
            def find(w):
                g = Isotopism._of(W.rows[np.searchsorted(M.encoded(), M.encode(np.asarray(w)))])
                return None if _witness_fault(M, base, w, g) else g

            tree, gens, perms, failing = _orbit_closure(M, base, find)
            if failing is None and self.mode == "isotopic" and _tree_holds(tree, gens, W.rows):
                return True, None
            derived, closed = ((False, False) if failing else
                               _derivation(perms, gens, W.rows, tree[0][0]))
            if derived:
                if self.mode == "isotopic" or closed:
                    return True, None
                return False, "witness set is not closed under composition"
        for w in M.words:
            g = W.get(w)
            fault = f"no witness for {w}" if g is None else _witness_fault(M, base, w, g)
            if fault:
                return False, fault
        if len(W) != len(M):
            return False, "extra witnesses for words outside the code"
        if self.mode == "topolinear":  # every witness is a symmetry: the group check failed
            return False, "witness set is not closed under composition"
        return True, None


def _witness_fault(M: MdsCode, base, w, g: Isotopism) -> str | None:
    """Why g is no witness for the codeword w, or None when it has the
    code's n and q, carries `base` to w and maps the code onto itself."""
    if (g.n, g.q) == (M.n, M.q) and g.apply_word(base) != w:
        return f"witness for {w} misses its word"
    return None if g.is_automorphism_of(M) else f"witness for {w} is not a symmetry of the code"


def _tree_holds(tree, gens: np.ndarray, rows: np.ndarray) -> bool:
    """Whether witness rows, one per word index, hold on the walk's tree: the
    identity at its root, gens[gen[v]] o rows[parent[v]] at v, one gather."""
    order, gen, parent, _ = tree
    rest = order[1:]
    return bool((rows[order[0]] == np.arange(rows.shape[2])).all()) and np.array_equal(
        rows[rest], _compose_pairs(gens[gen[rest]], rows[parent[rest]]))


def _derivation(perms: np.ndarray, gens: np.ndarray, rows: np.ndarray, first: int):
    """(derived, closed) for witness rows, one per word index. Closed: every
    g o rows[u] == rows[pi_g(u)] (pi_g: row g of `perms`), one gather for all
    generators. Derived: rows[first] is the identity and steps u -> pi_g(u)
    that keep that equation reach every word from it."""
    k, m = perms.shape
    moved = _compose_rows(gens, rows).reshape(k, m, rows[0].size)
    kept = (moved == rows[perms].reshape(k, m, rows[0].size)).all(axis=2)
    reached = np.full(m, kept.all())  # all steps kept: the generators reach every word
    reached[first] = True
    while not reached.all():
        grown = reached.copy()
        grown[perms[kept & reached]] = True
        if np.array_equal(grown, reached):
            break
        reached = grown
    return reached.all() and (rows[first] == np.arange(rows.shape[2])).all(), kept.all()


@dataclass
class TransitivityResult:
    transitive: bool
    certificate: TransitivityCertificate | None = None
    failing_word: tuple | None = None
    method: str = "search"
    reason: str = ""  # names a provenance hint the verdict dropped
    generators: list = field(default_factory=list)  # checked symmetries found
    _walk: tuple = field(default=(), repr=False, compare=False)  # their rows and word permutations

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
    recorded construction's witness formula, checked as replay checks a
    generator (`_witness_fault`); the formula starts from 0..0, so it is
    asked only when that is the base word. "pinned" finds one by a pinned
    search; "auto" tries explicit, then pinned. `generators` holds the
    symmetries found, which generate the group of the witnesses. Either
    route holds |M| witnesses, so a code of more than `budget.max_points`
    points is refused first.
    """
    if method not in ("auto", "explicit", "pinned"):
        raise ValueError(f"unknown method {method!r}")
    budget.check_points(M.q, M.n)
    base = M.words[0]  # 0..0 whenever M holds it: words are sorted and nonnegative
    note = ""
    if method in ("auto", "explicit"):
        formula, note = construction_hint(M) if not any(base) else (None, "")

        def explicit(w):
            g = formula(w)
            if fault := _witness_fault(M, base, w, g):
                raise ValueError(fault)
            return g

        if formula is not None:
            try:
                tree, gens, perms, _ = _orbit_closure(M, base, explicit)
            except (ValueError, KeyError, TypeError) as exc:
                note = dropped_hint(M, exc)
            else:
                cert = TransitivityCertificate("isotopic", base,
                                               _schreier_witnesses(M, tree, gens))
                return TransitivityResult(True, cert, method="explicit",
                                          generators=_isotopisms(gens), _walk=(gens, perms))
        if method == "explicit":
            raise ValueError(note or "no explicit witness family for this provenance")

    def pinned(w):
        pins = {(i, base[i]): w[i] for i in range(M.n)}
        return next(autotopism_search(M, pins=pins, budget=budget), None)

    try:
        tree, gens, perms, failing = _orbit_closure(M, base, pinned)
    except BudgetExceeded as exc:
        if note:  # a refusal still names the hint it dropped
            exc.args = (f"{exc}; {note}",)
        raise
    cert = None if failing else TransitivityCertificate(
        "isotopic", base, _schreier_witnesses(M, tree, gens))
    return TransitivityResult(failing is None, cert, failing, method="pinned", reason=note,
                              generators=_isotopisms(gens), _walk=(gens, perms))


def _orbit_closure(M: MdsCode, base, find):
    """(tree, gens, perms, failing): the Schreier tree of the orbit of `base`
    as index arrays (order, gen, parent, depth), the word indices in visit
    order, base first, and per word index its generator index, parent and
    depth (-1 where none); the generators found, as rows, and their word
    permutations, one (k, |M|) array; the first word no symmetry reaches, or
    None. `find(w)` gives a symmetry carrying `base` to w, or None when it
    shows there is none.

    Words are visited in order; `find` runs only for a word outside the
    orbit so far. Its symmetry joins the generators and the orbit is closed
    again breadth first, so the tree stays shallow: the new generator moves
    every word reached before, and every generator moves each newly reached
    word, first in, first out. The new generator carries the base word to
    the word it was found for, so it is that word's Schreier witness, and
    the witnesses generate the same group as the generators. A failed
    `find` names the first word outside the full orbit, since every earlier
    word was reached or found."""
    words, n, q = M.words, M.n, M.q
    first = int(np.searchsorted(M.encoded(), M.encode(np.asarray(base))))
    order, gen, parent, depth = [first], [-1] * len(words), [-1] * len(words), [-1] * len(words)
    depth[first] = 0
    gens = Isotopism.identity(q, n).rows[None][:0]
    perm_rows, perms = [], []  # each as an array, and as a list read by the walk
    failing = None
    for w in range(len(words)):
        if depth[w] >= 0:
            continue
        g = find(words[w])
        if g is None:
            failing = words[w]
            break
        gens = np.concatenate([gens, g.rows[None]])
        perm_rows.append(np.searchsorted(M.encoded(), M.images(gens[-1:], M.word_array())[0]))
        perms.append(perm_rows[-1].tolist())
        k, pk, at = len(perms) - 1, perms[-1], len(order)
        for u in order[:at]:  # the new generator moves every word reached before
            v = pk[u]
            if depth[v] < 0:
                gen[v], parent[v], depth[v] = k, u, depth[u] + 1
                order.append(v)
        while at < len(order):  # the queue is `order` itself, read as it grows
            u = order[at]
            for k, pk in enumerate(perms):
                v = pk[u]
                if depth[v] < 0:
                    gen[v], parent[v], depth[v] = k, u, depth[u] + 1
                    order.append(v)
            at += 1
    perm_rows = np.array(perm_rows, np.intp).reshape(len(gens), len(words))
    return tuple(map(np.array, (order, gen, parent, depth))), gens, perm_rows, failing


def _schreier_witnesses(M: MdsCode, tree, gens: np.ndarray) -> Witnesses:
    """The witness of each word the Schreier tree `tree` reached, in word
    order: the identity for the base word, else its generator composed with
    its parent's witness, one gather per tree level. The witnesses of a
    regular group do not depend on the tree; other witness sets do."""
    order, gen, parent, depth = tree
    rows = np.empty((len(M), M.n, M.q), dtype=gens.dtype)
    rows[order[0]] = Isotopism.identity(M.q, M.n).rows
    level = depth[order]
    for d in range(1, level.max() + 1):
        layer = order[level == d]
        rows[layer] = _compose_pairs(gens[gen[layer]], rows[parent[layer]])
    return Witnesses(M.word_array(), rows)


# ---------------------------------------------------------------------------
# topolinearity

@dataclass
class TopolinearResult:
    status: bool | None  # None = inconclusive within budget
    group: list | None = None
    reason: str = ""

    def __bool__(self):
        return bool(self.status)


def _regular_subgroup_search(M: MdsCode, base, witnesses, stabilizer,
                             budget: SearchBudget = DEFAULT_BUDGET):
    """A sharply transitive group of symmetries, or None. Every symmetry
    carrying `base` to w is witnesses[w]·h, h in the stabilizer of `base`,
    listed in `stabilizer`; `witnesses` is a `Witnesses`. The DFS tries these
    for the first word its group has not reached, all built by one gather,
    pruning a closure with two elements over one image of `base`; each step
    at least doubles the group, so it is at most log2|M| deep. Each
    candidate tried counts against `budget.max_nodes`."""
    n, q, target = M.n, M.q, len(M)
    wits = witnesses.rows
    coset = np.stack([h.rows for h in stabilizer])
    enc, base = M.encoded(), np.asarray(base)

    def key(rows):  # word index of the base image: every row is a symmetry
        return np.searchsorted(enc, M.images(rows, base)).tolist()

    tried = 0

    def dfs(group, index, kept):
        nonlocal tried
        if len(index) == target:
            return group
        w = next(w for w in range(target) if w not in index)
        for g in _compose_rows(wits[w:w + 1], coset):
            tried += 1
            if tried > budget.max_nodes:
                raise BudgetExceeded("search nodes", budget.max_nodes)
            gens = np.concatenate([kept, g[None]])
            grown = _close(group, index, gens, key, target)
            if grown is not None:
                found = dfs(*grown, gens)
                if found is not None:
                    return found
        return None

    ident = Isotopism.identity(q, n).rows[None]
    found = dfs(ident, dict(zip(key(ident), _row_bytes(ident))), ident[:0])
    return None if found is None else _isotopisms(found)


def is_topolinear(M: MdsCode, budget: SearchBudget = DEFAULT_BUDGET) -> TopolinearResult:
    """Three-way verdict: True with a regular witness group, False after an
    exhaustive refusal, None when a budget stopped the deciding search.

    The transitivity witnesses are the group when the walk's generators map
    them onto themselves (`_derivation`). Otherwise `_regular_subgroup_search`
    runs over the cosets of the base-word stabilizer, which one pinned search
    lists; the search and the DFS are bounded by `budget.max_nodes`."""
    try:
        trans = is_isotopically_transitive(M, budget=budget)
    except BudgetExceeded as exc:
        return TopolinearResult(None, None, f"inconclusive: {exc}")
    note = f"; {trans.reason}" if trans.reason else ""
    if not trans:
        return TopolinearResult(False, None,
                                f"not isotopically transitive at {trans.failing_word}{note}")
    cert, rows = trans.certificate, trans.certificate.witnesses.rows
    gens, perms = trans._walk
    if _derivation(perms, gens, rows, 0)[1]:  # the base word is the first codeword
        route = "construction group" if trans.method == "explicit" else "witness closure"
        return TopolinearResult(True, _isotopisms(rows), route + note)
    try:
        stabilizer = list(autotopism_search(M, pins={(i, b): b for i, b in enumerate(cert.base)},
                                            budget=budget))
        group = _regular_subgroup_search(M, cert.base, cert.witnesses, stabilizer, budget)
    except BudgetExceeded as exc:
        return TopolinearResult(None, None, f"inconclusive: {exc}{note}")
    if group is not None:
        return TopolinearResult(True, group, f"regular subgroup of the full group{note}")
    return TopolinearResult(False, None, "full symmetry group holds no sharply "
                                         f"transitive subgroup{note}")


# ---------------------------------------------------------------------------
# code equivalence

def _profile_permutations(profiles, n: int):
    """The coordinate permutations eps with p1[S] == p2[eps(S)] for every
    pair (p1, p2) of `profiles` and every coordinate set S that p1 keys, in
    lexicographic order; a prefix is dropped at the first S inside it that
    fails. Sets are looked up in p2 by their bit masks."""
    masked = [(p1, {sum(1 << i for i in S): v for S, v in p2.items()})
              for p1, p2 in profiles]
    ending = [[(value, by_mask, S[:-1])
               for p1, by_mask in masked for S, value in p1.items() if S[-1] == j]
              for j in range(n)]

    def extend(eps, bits):
        j = len(eps)
        if j == n:
            yield tuple(eps)
            return
        for v in range(n):
            if v not in eps:
                bit = 1 << v
                if all(value == by_mask[bit + sum(map(bits.__getitem__, head))]
                       for value, by_mask, head in ending[j]):
                    yield from extend([*eps, v], [*bits, bit])

    return extend([], [])


def equivalent_codes(M1: MdsCode, M2: MdsCode,
                     budget: SearchBudget = DEFAULT_BUDGET):
    """Isometry carrying M1 onto M2, or None after exhausting the coordinate
    permutations and isotopism searches (at once for another shape). Both
    codes must be MDS: ValueError "not an MDS code: ..." otherwise. Codes of
    more than `budget.max_points` points are refused before any profile.

    Their intercalate profiles (`MdsCode.box_profiles(3)`) come first: None
    at once when their multisets differ, else only the permutations that
    carry each profile onto an equal one are searched, in lexicographic
    order. When the search at the first of them fails, the profiles of
    4-sets (`MdsCode.box_profiles(4)`) refine the rest the same way, so a
    pair found at its first candidate never builds them. Every None is a proof,
    since an isometry keeps both profiles, and the isometry found is the
    first in that order."""
    if (M1.q, M1.n) != (M2.q, M2.n):
        return None
    budget.check_points(M1.q, M1.n)
    require_mds(M1)
    require_mds(M2)

    def search(eps):  # the identity searches from M1 itself
        src = M1 if eps == tuple(range(M1.n)) else parastrophe(M1, eps)
        found = next(search_isotopisms(src, M2, budget=budget), None)
        return None if found is None else Isometry(found, eps)

    def kept(p1, p2):
        return sorted(p1.values()) == sorted(p2.values())

    triples = M1.box_profiles(3), M2.box_profiles(3)
    if not kept(*triples):
        return None
    first = next(_profile_permutations([triples], M1.n), None)
    if first is None:
        return None
    found = search(first)
    if found is not None:
        return found
    boxes = M1.box_profiles(4), M2.box_profiles(4)
    if not kept(*boxes):
        return None
    for eps in _profile_permutations([triples, boxes], M1.n):
        if eps > first:
            found = search(eps)
            if found is not None:
                return found
    return None
