"""Distance-2 MDS codes over dense integer alphabets, their isotopisms, and
n-ary quasigroups.

A code M over {0..q-1}^n is MDS here when |M| = q^(n-1) and every line (all n-1
coordinates fixed except one) carries exactly one codeword; equivalently the
pairwise Hamming distance is at least 2. Such codes are exactly the graphs of
(n-1)-ary quasigroups once an output coordinate is chosen. An isotopism
permutes the symbols of each coordinate separately.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .perms import compose, identity_perm, invert


class MdsCode:
    """Immutable word set with cached line-completion and membership indexes.

    Words are stored sorted lexicographically; that sorted tuple is the
    canonical form used for equality, hashing and serialization.
    """

    def __init__(self, q, n, words, provenance=None, check_symbols=True):
        self.q = int(q)
        self.n = int(n)
        ws = sorted(tuple(int(s) for s in w) for w in words)
        if check_symbols:
            for w in ws:
                if len(w) != self.n:
                    raise ValueError(f"word {w} has length {len(w)}, expected {self.n}")
                for s in w:
                    if not 0 <= s < self.q:
                        raise ValueError(f"symbol {s} out of range in {w}")
        self.words: tuple[tuple[int, ...], ...] = tuple(ws)
        self.provenance = dict(provenance) if provenance else {"construction": "literal"}
        self._word_set = None
        self._complete = None
        self._slots = None
        self._arr = None
        self._enc = None

    def __len__(self):
        return len(self.words)

    def __contains__(self, w):
        return tuple(w) in self.word_set

    def __eq__(self, other):
        return (
            isinstance(other, MdsCode)
            and self.q == other.q
            and self.n == other.n
            and self.words == other.words
        )

    def __hash__(self):
        return hash((self.q, self.n, self.words))

    def __repr__(self):
        return f"MdsCode(q={self.q}, n={self.n}, words={len(self.words)})"

    @property
    def word_set(self) -> set:
        if self._word_set is None:
            self._word_set = set(self.words)
        return self._word_set

    def word_array(self) -> np.ndarray:
        """The words as a read-only (|M|, n) integer array, built once."""
        if self._arr is None:
            self._arr = np.array(self.words, dtype=np.int64)
            self._arr.flags.writeable = False
        return self._arr

    def encoded(self) -> np.ndarray:
        """Sorted base-q integer encodings of the words."""
        if self._enc is None:
            arr = self.word_array()
            weights = self.q ** np.arange(self.n - 1, -1, -1, dtype=np.int64)
            self._enc = np.sort(arr @ weights)
        return self._enc

    def completion_maps(self):
        """For each direction i: dict from the word with coordinate i dropped
        to the value at i. In an MDS code each has one key per word; on a
        line holding several words, the last of them wins."""
        if self._complete is None:
            maps = [dict() for _ in range(self.n)]
            for w in self.words:
                for i in range(self.n):
                    maps[i][w[:i] + w[i + 1:]] = w[i]
            self._complete = maps
        return self._complete

    def slots(self):
        """(coordinate, symbol) -> indices of words carrying that symbol there."""
        if self._slots is None:
            table: dict[tuple[int, int], list[int]] = {}
            for idx, w in enumerate(self.words):
                for i, s in enumerate(w):
                    table.setdefault((i, s), []).append(idx)
            self._slots = table
        return self._slots


class Isotopism:
    """Tuple of per-coordinate symbol permutations."""

    __slots__ = ("taus",)

    def __init__(self, taus):
        self.taus = tuple(tuple(int(v) for v in t) for t in taus)

    @classmethod
    def _of(cls, taus: tuple) -> "Isotopism":
        """Isotopism of `taus`, already tuples of ints: skips normalising."""
        g = object.__new__(cls)
        g.taus = taus
        return g

    @property
    def n(self) -> int:
        return len(self.taus)

    @property
    def q(self) -> int:
        return len(self.taus[0])

    @staticmethod
    def identity(q: int, n: int) -> "Isotopism":
        return Isotopism._of((identity_perm(q),) * n)

    def apply_word(self, w) -> tuple[int, ...]:
        return tuple(t[s] for t, s in zip(self.taus, w))

    def apply_code(self, M: MdsCode) -> MdsCode:
        prov = {"construction": "isotopism-image", "of": M.provenance}
        return MdsCode(M.q, M.n, [self.apply_word(w) for w in M.words],
                       provenance=prov, check_symbols=False)

    def compose(self, other: "Isotopism") -> "Isotopism":
        """(self o other): other is applied first."""
        return Isotopism._of(tuple(compose(a, b) for a, b in zip(self.taus, other.taus)))

    def inverse(self) -> "Isotopism":
        return Isotopism._of(tuple(invert(t) for t in self.taus))

    def is_automorphism_of(self, M: MdsCode) -> bool:
        arr = M.word_array()
        out = np.empty_like(arr)
        for i, t in enumerate(self.taus):
            out[:, i] = np.asarray(t, dtype=np.int64)[arr[:, i]]
        weights = M.q ** np.arange(M.n - 1, -1, -1, dtype=np.int64)
        return np.array_equal(np.sort(out @ weights), M.encoded())

    def __eq__(self, other):
        return isinstance(other, Isotopism) and self.taus == other.taus

    def __hash__(self):
        return hash(self.taus)

    def __repr__(self):
        return f"Isotopism(q={self.q}, n={self.n})"


@dataclass
class MdsVerdict:
    ok: bool
    reason: str | None = None
    witness: tuple | None = None

    def __bool__(self):
        return self.ok


def is_mds(M: MdsCode) -> MdsVerdict:
    """Check size q^(n-1) and exactly one codeword per line, from the cached
    `word_set` and `completion_maps` (a map with fewer keys than words has a
    line holding two words). A repeated word or a shared line is witnessed
    by the first such pair, found by scanning the words again."""
    words, q, n = M.words, M.q, M.n
    if n < 2:
        raise ValueError("codes of length < 2 are out of scope")
    if len(M.word_set) != len(words):
        w = next(a for a, b in zip(words, words[1:]) if a == b)  # words are sorted
        return MdsVerdict(False, "duplicate word", (w, w))
    # multiply up to q^(n-1) only while the power is at most the size, so a
    # huge q is refused without building or printing a huge power
    expected, e = 1, 0
    while e < n - 1 and expected <= len(words):
        expected, e = expected * q, e + 1
    if e < n - 1:
        return MdsVerdict(False, f"size {len(words)} < q^(n-1)")
    if len(words) != expected:
        return MdsVerdict(False, f"size {len(words)} != q^(n-1) = {expected}")
    for i, m in enumerate(M.completion_maps()):
        if len(m) < len(words):
            first = {}
            for w in words:
                a = first.setdefault(w[:i] + w[i + 1:], w)
                if a is not w:
                    return MdsVerdict(False, "two words on one line", (a, w))
    return MdsVerdict(True)


class NAryQuasigroup:
    """Total n-ary operation on {0..q-1} that is a bijection in each argument
    when the others are fixed. The table has shape (q,)*arity."""

    def __init__(self, table):
        arr = np.asarray(table, dtype=np.int64)
        if arr.ndim < 1:
            raise ValueError("table must have at least one axis")
        q = arr.shape[0]
        if any(s != q for s in arr.shape):
            raise ValueError("table must be q**arity entries with equal axes")
        self.table = arr
        self.q = q
        self.arity = arr.ndim

    def __eq__(self, other):
        return isinstance(other, NAryQuasigroup) and np.array_equal(self.table, other.table)

    def __hash__(self):
        return hash((self.q, self.arity, self.table.tobytes()))


def graph_of(f: NAryQuasigroup, provenance=None) -> MdsCode:
    """All (x_1..x_m, f(x)); the output is the last coordinate."""
    q, m = f.q, f.arity
    words = []
    for xs in itertools.product(range(q), repeat=m):
        words.append(xs + (int(f.table[xs]),))
    return MdsCode(q, m + 1, words, provenance=provenance, check_symbols=False)


def quasigroup_of(M: MdsCode, output_coord: int) -> NAryQuasigroup:
    """Invert graph_of: read coordinate output_coord as a function of the rest
    (kept in coordinate order)."""
    if not 0 <= output_coord < M.n:
        raise ValueError("output coordinate out of range")
    verdict = is_mds(M)
    if not verdict:
        raise ValueError(f"not an MDS code: {verdict.reason}")
    shape = (M.q,) * (M.n - 1)
    table = np.zeros(shape, dtype=np.int64)
    for w in M.words:
        key = w[:output_coord] + w[output_coord + 1:]
        table[key] = w[output_coord]
    return NAryQuasigroup(table)


def pair_code(f: NAryQuasigroup, g: NAryQuasigroup, provenance=None) -> MdsCode:
    """All (x, y) with f(x) = g(y); MDS of length arity(f) + arity(g)."""
    if f.q != g.q:
        raise ValueError("operand alphabets differ")
    q = f.q
    fibers: dict[int, list[tuple[int, ...]]] = {v: [] for v in range(q)}
    for ys in itertools.product(range(q), repeat=g.arity):
        fibers[int(g.table[ys])].append(ys)
    words = []
    for xs in itertools.product(range(q), repeat=f.arity):
        for ys in fibers[int(f.table[xs])]:
            words.append(xs + ys)
    return MdsCode(q, f.arity + g.arity, words, provenance=provenance,
                   check_symbols=False)


def subcode(M: MdsCode, fixed: dict[int, int]) -> MdsCode:
    """Fix coordinates per `fixed`, project the matching words onto the rest."""
    if not fixed:
        return M
    for c, v in fixed.items():
        if not 0 <= c < M.n:
            raise ValueError(f"coordinate {c} out of range")
        if not 0 <= v < M.q:
            raise ValueError(f"value {v} out of range")
    free = [i for i in range(M.n) if i not in fixed]
    if len(free) < 2:
        raise ValueError("fixing n-1 or more coordinates degenerates the code")
    words = []
    for w in M.words:
        if all(w[c] == v for c, v in fixed.items()):
            words.append(tuple(w[i] for i in free))
    prov = {"construction": "subcode", "fixed": {str(k): v for k, v in sorted(fixed.items())},
            "of": M.provenance}
    return MdsCode(M.q, len(free), words, provenance=prov, check_symbols=False)


def parity_code(q: int, n: int, provenance=None) -> MdsCode:
    """Words summing to 0 mod q; the basic linear example."""
    words = []
    for xs in itertools.product(range(q), repeat=n - 1):
        words.append(xs + ((-sum(xs)) % q,))
    prov = provenance or {"construction": "parity", "q": q, "n": n}
    return MdsCode(q, n, words, provenance=prov, check_symbols=False)
