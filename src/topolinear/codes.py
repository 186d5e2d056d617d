"""Distance-2 MDS codes over dense integer alphabets, their isotopisms,
n-ary quasigroups, and the loop tables whose graphs the constructions build.

A code M over {0..q-1}^n is MDS here when |M| = q^(n-1) and every line (all n-1
coordinates fixed except one) carries exactly one codeword; equivalently the
pairwise Hamming distance is at least 2. Such codes are exactly the graphs of
(n-1)-ary quasigroups once an output coordinate is chosen. An isotopism
permutes the symbols of each coordinate separately.
"""

from __future__ import annotations

import itertools
import operator
import warnings
from dataclasses import dataclass

import numpy as np


def _integers(values, message: str) -> tuple[int, ...]:
    """values as Python ints, from one scan of their types; ValueError(message)
    for a bool, a float or any other non-integer (numpy integers pass)."""
    try:
        values = tuple(values)
        types = set(map(type, values))
        if bool not in types:
            return values if types <= {int} else tuple(map(operator.index, values))
    except TypeError:
        pass
    raise ValueError(message)


def _frozen(rows: np.ndarray) -> np.ndarray:
    rows.flags.writeable = False
    return rows


def _row_dtype(q: int) -> np.dtype:
    """The dtype of isotopism rows: the least unsigned one holding q - 1 (files do not bound q)."""
    return np.min_scalar_type(q - 1)


def _lex_sorted(rows: np.ndarray) -> np.ndarray:
    """rows, of shape (k, ...), in the lexicographic order of their entries."""
    return rows[np.lexsort(rows.reshape(len(rows), -1).T[::-1])]


def _word_rows(words, end: int, n: int) -> np.ndarray:
    """An iterable of integer sequences as one (|M|, length) int64 array:
    one scan of all the symbols' types, then one `np.fromiter`. Words of
    different lengths, or a symbol past int64, are refused as `_first_fault`
    names them."""
    words = list(words)
    flat = _integers(itertools.chain.from_iterable(words), "symbol must be an integer")
    lengths = set(map(len, words))
    if len(lengths) <= 1:
        try:
            return np.fromiter(flat, np.int64, len(flat)).reshape(
                len(words), lengths.pop() if lengths else n)
        except OverflowError:
            pass
    raise ValueError(_first_fault(words, end, n))


def _first_fault(words, end: int, n: int) -> str:
    """The refusal of the first word of `words`, in sorted order, that has
    another length than n or a symbol outside 0..end-1; the caller knows
    one of them does."""
    for w in sorted(tuple(map(operator.index, w)) for w in words):
        if len(w) != n:
            return f"word {w} has length {len(w)}, expected {n}"
        for s in w:
            if not 0 <= s < end:
                return f"symbol {s} out of range in {w}"


class MdsCode:
    """Immutable word set with cached line, membership and profile indexes.

    The words are stored once, as a read-only (|M|, n) int64 array sorted
    lexicographically (`word_array`); that sorted array is the canonical
    form used for equality, hashing and serialization, and every index is
    built from it. `words`, the same words as tuples of Python ints, is a
    view built on first read.

    Every code is checked on construction, on one path, else ValueError: q
    and n are integers, q >= 1 and n >= 2, and `words` is an integer numpy
    array of shape (|M|, n) or an iterable of words, each a sequence of
    integer symbols (numpy integers pass, bools do not), whose symbols'
    types one scan checks before one array build. The array gets one shape
    check, one lexsort and one min/max test: every symbol is in 0..q-1 and
    below 2^63, which int64 holds. Only a refusal walks the words, to name
    the first bad one in sorted order.
    """

    def __init__(self, q, n, words, provenance=None):
        self.q, self.n = _integers((q, n), "q and n must be integers")
        if self.q < 1 or self.n < 2:
            raise ValueError("q must be positive and n at least 2")
        end = min(self.q, 1 << 63)  # a symbol must fit int64
        if not (isinstance(words, np.ndarray) and words.dtype.kind in "iu"):
            words = _word_rows(words, end, self.n)
        if words.ndim != 2 or words.shape[1] != self.n:
            raise ValueError(f"word array has shape {words.shape}, expected (k, {self.n})")
        rows = _lex_sorted(words) if words.size else words.copy()  # an empty array is sorted
        if rows.size and not (0 <= int(rows.min()) and int(rows.max()) < end):
            raise ValueError(_first_fault(rows.tolist(), end, self.n))
        self._arr = _frozen(rows.astype(np.int64, copy=False))
        self.provenance = dict(provenance) if provenance else {"construction": "literal"}
        self._words = None
        self._repeats = None
        self._word_set = None
        self._complete = None
        self._slots = None
        self._enc = None
        self._profiles = None
        self._subcubes = None

    def __len__(self):
        return len(self._arr)

    def __contains__(self, w):
        return tuple(w) in self.word_set

    def __eq__(self, other):
        return (
            isinstance(other, MdsCode)
            and self.q == other.q
            and self.n == other.n
            and np.array_equal(self._arr, other._arr)
        )

    def __hash__(self):
        return hash((self.q, self.n, self._arr.tobytes()))

    def __repr__(self):
        return f"MdsCode(q={self.q}, n={self.n}, words={len(self)})"

    @property
    def words(self) -> tuple[tuple[int, ...], ...]:
        """The words as tuples of Python ints, in word order: built from the
        word array on first read, for readers outside the package and for a
        word that leaves as a tuple (a certificate key, a base or failing
        word, the pair `is_mds` names)."""
        if self._words is None:
            self._words = tuple(map(tuple, self._arr.tolist()))
        return self._words

    @property
    def word_set(self) -> set:
        """The membership index behind `w in M`."""
        if self._word_set is None:
            self._word_set = set(self.words)
        return self._word_set

    def word_array(self) -> np.ndarray:
        """The words as a read-only (|M|, n) int64 array, in word order."""
        return self._arr

    def repeats(self) -> np.ndarray:
        """The indices k with word k equal to word k + 1, read off adjacent
        rows of the sorted word array once: the words listed more than once."""
        if self._repeats is None:
            arr = self._arr
            self._repeats = np.flatnonzero((arr[1:] == arr[:-1]).all(axis=1))
        return self._repeats

    def encode(self, rows) -> np.ndarray:
        """Big-endian base-q values of the length-n rows of an integer array."""
        return rows @ (self.q ** np.arange(self.n - 1, -1, -1, dtype=np.int64))

    def images(self, rows, words) -> np.ndarray:
        """Encoded images of `words` (an integer array of (..., n) symbols)
        under each of `rows`, an (m, n, q) array of isotopisms of the code's
        n and q: shape (m,) + words.shape[:-1]."""
        at = np.arange(self.n) * self.q + words
        return self.encode(np.take(rows.reshape(len(rows), self.n * self.q), at, axis=1))

    def symmetries(self, rows) -> np.ndarray:
        """Which of `rows` (as in `images`) map the code onto itself: the
        sorted encoded images of its words equal `encoded()`. The one
        symmetry test of the package."""
        images = np.sort(self.images(rows, self.word_array()), axis=1)
        return (images == self.encoded()).all(axis=1)

    def encoded(self) -> np.ndarray:
        """The words' big-endian base-q values, in word order, which is
        sorted order."""
        if self._enc is None:
            self._enc = self.encode(self.word_array())
        return self._enc

    def completion_maps(self) -> list[list[int]]:
        """The line index: for each direction i, a list from line key to the
        symbol at i of the word on that line. A word's line key in direction
        i is its `encoded()` value with digit i dropped, so the keys of a
        code of q^(n-1) words run over 0..q^(n-1)-1, the size `is_mds`
        checks before building this. The build, one scatter per direction,
        records in `_lost_line` the first direction in which a line holds no
        word (its entry is -1, and another line holds two), or None: an MDS
        code has no such line."""
        if self._complete is None:
            enc, arr = self.encoded(), self.word_array()
            maps, self._lost_line = [], None
            for i in range(self.n):
                low = self.q ** (self.n - 1 - i)
                line = np.full(len(enc), -1, dtype=np.int64)
                line[enc // (low * self.q) * low + enc % low] = arr[:, i]
                if self._lost_line is None and line.min() < 0:
                    self._lost_line = i
                maps.append(line.tolist())
            self._complete = maps
        return self._complete

    def slots(self) -> list[list[list[int]]]:
        """slots()[i][s]: indices of the words carrying symbol s at coordinate i."""
        if self._slots is None:
            table = [[[] for _ in range(self.q)] for _ in range(self.n)]
            for i, column in enumerate(self._arr.T.tolist()):
                for idx, s in enumerate(column):
                    table[i][s].append(idx)
            self._slots = table
        return self._slots

    def triple_profiles(self) -> dict:
        """3-set T of coordinates (sorted) -> the sorted intercalate counts of
        the Latin squares left over T, one per assignment of the other
        coordinates; computed once per code. The code must be MDS, so each
        of those squares is full.

        Rows r1 < r2 of a square link its columns by sigma: the symbol at
        (r1, x) sits at (r2, sigma(x)). An intercalate on those rows is a
        2-cycle of sigma, so a square costs O(q^3)."""
        if self._profiles is None:
            q, n = self.q, self.n
            arr = self.word_array()
            rows = np.array(list(itertools.combinations(range(q), 2)),
                            dtype=np.int64).reshape(-1, 2)
            r1, r2 = rows[:, 0], rows[:, 1:]
            pair = np.arange(len(rows))[:, None]
            x = np.arange(q)
            profiles = {}
            for T in itertools.combinations(range(n), 3):
                a, b, c = T
                rest = [i for i in range(n) if i not in T]
                key = arr[:, rest] @ q ** np.arange(len(rest), dtype=np.int64)
                square = np.arange(q ** len(rest))[:, None, None]
                symbol = np.empty((len(square), q, q), dtype=np.int64)  # [square, row, column]
                symbol[key, arr[:, a], arr[:, b]] = arr[:, c]
                column = np.empty_like(symbol)  # [square, row, symbol]
                column[key, arr[:, a], arr[:, c]] = arr[:, b]
                sigma = column[square, r2, symbol[:, r1, :]]  # [square, row pair, x]
                back = sigma[square, pair, sigma]
                counts = ((back == x) & (sigma != x)).sum(axis=(1, 2)) // 2
                profiles[T] = tuple(sorted(counts.tolist()))
            self._profiles = profiles
        return self._profiles

    def subcube_profiles(self) -> dict:
        """4-set U of coordinates (sorted) -> the sorted counts of full boxes
        of the codes of length 4 left over U, one per assignment of the other
        coordinates; computed once per code, and {} for n < 4. A box picks
        two symbols at each coordinate of U and is full when it holds 8
        words, an order-2 subcode. The code must be MDS.

        Read with U = (a, b, c, d), the slice d = t of such a code is a Latin
        square, and a full box is an intercalate on rows x0 < x1 and columns
        y0 < y1 of one slice whose swapped symbols sit on the same cells of
        another slice t'. Starting from the intercalate in the slice t < t',
        each box is counted once, and the arrays hold O(|M|·q) entries."""
        if self._subcubes is None:
            q, n = self.q, self.n
            arr = self.word_array()
            rows = np.array(list(itertools.combinations(range(q), 2)),
                            dtype=np.int64).reshape(-1, 2)
            x0, x1 = rows[:, :1] * q, rows[:, 1:] * q  # [row pair, 1], row offsets
            y0 = np.arange(q)
            # candidates [slice (code, t), row pair, y0] index flat arrays
            # [code, t, x, y] and [code, x, y, z] from these offsets
            square = np.arange(len(arr) // (q * q))[:, None, None]
            t, code = square % q, square // q * q ** 3
            row0, row1 = square * q * q + x0, square * q * q + x1
            line = code + (x0 + y0) * q
            profiles = {}
            for U in itertools.combinations(range(n), 4):
                a, b, c, d = U
                rest = [i for i in range(n) if i not in U]
                key = arr[:, rest] @ q ** np.arange(len(rest), dtype=np.int64)
                # [code, t, x, y] -> z, [code, t, x, z] -> y, [code, x, y, z] -> t
                at = ((key * q + arr[:, d]) * q + arr[:, a]) * q
                symbol = np.empty(len(arr), dtype=np.int64)
                symbol[at + arr[:, b]] = arr[:, c]
                column = np.empty_like(symbol)
                column[at + arr[:, c]] = arr[:, b]
                slice_ = np.empty_like(symbol)
                slice_[((key * q + arr[:, a]) * q + arr[:, b]) * q + arr[:, c]] = arr[:, d]
                z0, z1 = symbol[row0 + y0], symbol[row1 + y0]
                y1 = column[row0 + z1]
                t2 = slice_[line + z1]  # the slice holding z1 at (x0, y0)
                other = code + t2 * q * q
                box = ((y0 < y1) & (t < t2)
                       & (symbol[row1 + y1] == z0)
                       & (symbol[other + x0 + y1] == z0)
                       & (symbol[other + x1 + y0] == z0)
                       & (symbol[other + x1 + y1] == z1))
                counts = box.reshape(len(arr) // q ** 3, -1).sum(axis=1)
                profiles[U] = tuple(sorted(counts.tolist()))
            self._subcubes = profiles
        return self._subcubes


class Isotopism:
    """n permutations of one alphabet 0..q-1, the read-only (n, q) array
    `rows`: rows[i, a] is the image of the symbol a at coordinate i. Its
    dtype, the smallest unsigned one holding q - 1, is the group kernel's,
    whose rows an isotopism views without a copy. Built from taus given as
    integers or as an integer (n, q) array, checked as `isotopisms` checks
    them."""

    __slots__ = ("rows",)

    def __init__(self, taus):
        if not isinstance(taus, np.ndarray):
            taus = list(taus)
        self.rows = isotopisms(taus, len(taus))[0].rows

    @classmethod
    def _of(cls, rows: np.ndarray) -> "Isotopism":
        """Isotopism viewing `rows`, an (n, q) array in the dtype of q whose
        rows permute 0..q-1: no check and no copy."""
        g = object.__new__(cls)
        g.rows = rows
        return g

    @property
    def taus(self) -> tuple[tuple[int, ...], ...]:
        """The permutations as tuples of Python ints, one per coordinate."""
        return tuple(map(tuple, self.rows.tolist()))

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def q(self) -> int:
        return self.rows.shape[1]

    @staticmethod
    def identity(q: int, n: int) -> "Isotopism":
        return Isotopism._of(np.broadcast_to(np.arange(q, dtype=_row_dtype(q)), (n, q)))

    def apply_word(self, w) -> tuple[int, ...]:
        return tuple(self.rows[np.arange(self.n), w].tolist())

    def apply_code(self, M: MdsCode) -> MdsCode:
        """The image of M: one gather of its word array through the rows."""
        if (self.n, self.q) != (M.n, M.q):
            raise ValueError("the isotopism acts on another n or q than the code")
        prov = {"construction": "isotopism-image", "of": M.provenance}
        return MdsCode(M.q, M.n, self.rows[np.arange(M.n), M.word_array()], prov)

    def compose(self, other: "Isotopism") -> "Isotopism":
        """(self o other): other is applied first."""
        return Isotopism._of(_frozen(np.take_along_axis(self.rows, other.rows, axis=1)))

    def inverse(self) -> "Isotopism":
        out = np.empty(self.rows.shape, self.rows.dtype)
        np.put_along_axis(out, self.rows, np.arange(self.q, dtype=out.dtype), axis=1)
        return Isotopism._of(_frozen(out))

    def is_automorphism_of(self, M: MdsCode) -> bool:
        """Whether this maps M onto itself; False for another n or q."""
        return (self.n, self.q) == (M.n, M.q) and bool(M.symmetries(self.rows[None])[0])

    def __eq__(self, other):
        return (isinstance(other, Isotopism) and self.rows.shape == other.rows.shape
                and self.rows.tobytes() == other.rows.tobytes())

    def __hash__(self):
        return hash((self.rows.shape, self.rows.tobytes()))

    def __repr__(self):
        return f"Isotopism(q={self.q}, n={self.n})"


def isotopisms(taus, n: int) -> list[Isotopism]:
    """The isotopisms that `taus` gives, n taus each, as views of one
    read-only (k, n, q) array, all checked by one sort. `taus` is a list of
    taus, whose entries' types are checked by one scan before one array
    build, or an integer array of shape (k*n, q), checked by the sort alone,
    as `MdsCode` checks a word array. ValueError "each tau must be a list of
    integers" unless every tau is a sequence of integers (numpy integers
    pass, bools do not), else "each tau must be a permutation of the same
    0..q-1" unless every tau permutes one alphabet 0..q-1, the same for all."""
    if isinstance(taus, np.ndarray) and taus.dtype.kind in "iu":
        rows = taus if taus.ndim == 2 and taus.size else None
    else:
        flat = _integers(itertools.chain.from_iterable(taus),
                         "each tau must be a list of integers")
        lengths = set(map(len, taus))
        q = lengths.pop() if len(lengths) == 1 else 0
        try:  # built in int64 first: an entry past it is outside 0..q-1
            rows = np.fromiter(flat, np.int64, len(flat)).reshape(-1, q) if q else None
        except OverflowError:
            rows = None
    q = 0 if rows is None else rows.shape[1]
    if rows is None or not (np.sort(rows, axis=1) == np.arange(q)).all():
        raise ValueError("each tau must be a permutation of the same 0..q-1")
    rows = rows.astype(_row_dtype(q)).reshape(-1, n, q)
    return list(map(Isotopism._of, _frozen(rows)))


@dataclass
class MdsVerdict:
    ok: bool
    reason: str | None = None
    witness: tuple | None = None

    def __bool__(self):
        return self.ok


def is_mds(M: MdsCode) -> MdsVerdict:
    """Check size q^(n-1) and exactly one codeword per line, from the word
    array and the record the `completion_maps` build keeps of a line that
    lost its word. A repeated word, found on adjacent rows of the sorted
    array, or a shared line is witnessed by the first such pair (for a line,
    in the first direction that record names, found by scanning the words
    again)."""
    arr, q, n = M.word_array(), M.q, M.n
    repeated = M.repeats()
    if len(repeated):
        w = tuple(arr[repeated[0]].tolist())
        return MdsVerdict(False, "duplicate word", (w, w))
    # multiply up to q^(n-1) only while the power is at most the size, so a
    # huge q is refused without building or printing a huge power
    expected, e = 1, 0
    while e < n - 1 and expected <= len(arr):
        expected, e = expected * q, e + 1
    if e < n - 1:
        return MdsVerdict(False, f"size {len(arr)} < q^(n-1)")
    if len(arr) != expected:
        return MdsVerdict(False, f"size {len(arr)} != q^(n-1) = {expected}")
    M.completion_maps()
    i = M._lost_line
    if i is not None:
        first = {}
        for w in M.words:
            a = first.setdefault(w[:i] + w[i + 1:], w)
            if a is not w:
                return MdsVerdict(False, "two words on one line", (a, w))
    return MdsVerdict(True)


def require_mds(M: MdsCode) -> None:
    """ValueError "not an MDS code: <the is_mds reason>" unless M is MDS."""
    verdict = is_mds(M)
    if not verdict:
        raise ValueError(f"not an MDS code: {verdict.reason}")


def _unpermuted_axes(table: np.ndarray) -> list[int]:
    """The axes of a table of shape (q,)*arity along which its entries,
    sorted, are not 0..q-1: the arguments in which the operation is not a
    bijection when the others are fixed."""
    symbols = np.arange(table.shape[0])
    return [i for i in range(table.ndim)
            if not (np.sort(np.moveaxis(table, i, -1)) == symbols).all()]


class NAryQuasigroup:
    """Total n-ary operation on {0..q-1} that is a bijection in each argument
    when the others are fixed. `table` is a read-only int64 array of shape
    (q,)*arity, copied from integer entries: ValueError for anything else.
    An integer array is checked by its shape and the one Latin check, with
    no per-entry type pass."""

    def __init__(self, table):
        ints = isinstance(table, np.ndarray) and table.dtype.kind in "iu"
        entries = table if ints else np.asarray(table, dtype=object)
        self._check_shape(entries.shape)
        if not ints:
            entries = np.reshape(_integers(entries.ravel(), "table entry must be an integer"),
                                 entries.shape)
        try:
            arr = np.array(entries, dtype=np.int64)
            bad = _unpermuted_axes(arr)
        except OverflowError:  # an entry past int64 is out of range in every argument
            bad = list(range(entries.ndim))
        if bad:
            raise ValueError(self._not_latin(bad))
        self.table = _frozen(arr)
        self.q = arr.shape[0]
        self.arity = arr.ndim

    @staticmethod
    def _check_shape(shape):
        if not shape:
            raise ValueError("table must have at least one axis")
        if any(s != shape[0] for s in shape):
            raise ValueError("table must be q**arity entries with equal axes")

    @staticmethod
    def _not_latin(bad: list[int]) -> str:
        return f"table is not a bijection in argument {bad[0]}"

    def __eq__(self, other):
        return isinstance(other, NAryQuasigroup) and np.array_equal(self.table, other.table)

    def __hash__(self):
        return hash((self.q, self.arity, self.table.tobytes()))


def graph_of(f: NAryQuasigroup, provenance=None) -> MdsCode:
    """All (x_1..x_m, f(x)); the output is the last coordinate."""
    q, m = f.q, f.arity
    xs = np.indices(f.table.shape).reshape(m, -1)
    return MdsCode(q, m + 1, np.vstack([xs, f.table.reshape(1, -1)]).T, provenance)


def quasigroup_of(M: MdsCode, output_coord: int) -> NAryQuasigroup:
    """Invert graph_of: read coordinate output_coord as a function of the rest
    (kept in coordinate order). Its line key is the table's flat index."""
    if not 0 <= output_coord < M.n:
        raise ValueError("output coordinate out of range")
    require_mds(M)
    table = np.reshape(M.completion_maps()[output_coord], (M.q,) * (M.n - 1))
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
    return MdsCode(q, f.arity + g.arity, words, provenance=provenance)


def subcode(M: MdsCode, fixed: dict[int, int]) -> MdsCode:
    """Fix coordinates per `fixed`, project the matching words onto the rest."""
    if not fixed:
        return M
    message = "fixed coordinates and values must be integers"
    fixed = dict(zip(_integers(fixed, message), _integers(fixed.values(), message)))
    for c, v in fixed.items():
        if not 0 <= c < M.n:
            raise ValueError(f"coordinate {c} out of range")
        if not 0 <= v < M.q:
            raise ValueError(f"value {v} out of range")
    free = [i for i in range(M.n) if i not in fixed]
    if len(free) < 2:
        raise ValueError("fixing n-1 or more coordinates degenerates the code")
    arr = M.word_array()
    kept = (arr[:, list(fixed)] == list(fixed.values())).all(axis=1)
    prov = {"construction": "subcode", "fixed": {str(k): v for k, v in sorted(fixed.items())},
            "of": M.provenance}
    return MdsCode(M.q, len(free), arr[kept][:, free], prov)


def parity_code(q: int, n: int, provenance=None) -> MdsCode:
    """Words summing to 0 mod q; the basic linear example."""
    xs = np.indices((q,) * (n - 1)).reshape(n - 1, q ** (n - 1))
    prov = provenance or {"construction": "parity", "q": q, "n": n}
    return MdsCode(q, n, np.vstack([xs, -xs.sum(axis=0) % q]).T, prov)


# ---------------------------------------------------------------------------
# binary quasigroups and loops
#
# Elements of the order-2p tables are two-indexed: index u = x + p*bit encodes
# x_bit with x mod p and bit mod 2, so 0 is the identity 0_0. The three
# built-in operations on that set are
#
#   direct product   x_s + y_t = (x + y)_(s^t)
#   dihedral         x_s o y_t = ((-1)^t x + y)_(s^t)
#   twisted loop     x_s * y_t = ((-1)^t x + y + s*t)_(s^t)
#
# The twisted loop is a loop but not a group for odd p >= 3; it is the main
# source of nonlinear transitive codes here.

class BinaryQuasigroup(NAryQuasigroup):
    """q x q Latin square: the arity-2 `NAryQuasigroup`, whose refusals name
    the square, its rows and its columns."""

    @staticmethod
    def _check_shape(shape):
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError("table must be square")

    @staticmethod
    def _not_latin(bad: list[int]) -> str:
        # a row of the table runs over argument 1, a column over argument 0
        return "row is not a permutation" if 1 in bad else "column is not a permutation"


def _identity_of(table: np.ndarray) -> int | None:
    """The two-sided identity of a square table (compared, not checked): the
    e whose row and column are 0..q-1, or None. A magma has at most one."""
    symbols = np.arange(len(table))
    units = np.flatnonzero((table == symbols).all(axis=1) & (table.T == symbols).all(axis=1))
    return int(units[0]) if len(units) else None


class Loop(BinaryQuasigroup):
    """Binary quasigroup with a two-sided identity. A given `identity` must
    be an integer in 0..q-1 and be that identity, else ValueError."""

    def __init__(self, table, identity: int | None = None):
        super().__init__(table)
        unit = _identity_of(self.table)
        if identity is None:
            if unit is None:
                raise ValueError("table has no two-sided identity")
            identity = unit
        else:
            (identity,) = _integers((identity,), "identity must be an integer")
            if not 0 <= identity < self.q:
                raise ValueError(f"identity {identity} out of range")
            if identity != unit:
                raise ValueError(f"{identity} is not a two-sided identity")
        self.identity = identity


def _two_indexed_table(p: int, component) -> Loop:
    """The loop x_s . y_t = component(x, s, y, t)_(s^t), by one broadcast over
    the rows (x, s) and the columns (y, t) of the symbols u = x + p*s."""
    s, x = divmod(np.arange(2 * p), p)
    rows_s, rows_x = s[:, None], x[:, None]
    return Loop(component(rows_x, rows_s, x, s) % p + p * (rows_s ^ s), identity=0)


def make_zp_z2(p: int) -> Loop:
    """Direct product of the p-cycle with the 2-cycle on two-indexed symbols."""
    if p < 2:
        raise ValueError("p must be >= 2")
    return _two_indexed_table(p, lambda x, s, y, t: x + y)


def make_dihedral(p: int) -> Loop:
    """Dihedral group of order 2p on two-indexed symbols."""
    if p < 2:
        raise ValueError("p must be >= 2")
    return _two_indexed_table(p, lambda x, s, y, t: (1 - 2 * t) * x + y)


def make_cp(p: int) -> Loop:
    """The twisted loop of order 2p: x_s * y_t = ((-1)^t x + y + s*t)_(s^t).

    For odd p >= 3 this is a nonassociative loop whose graph is still
    isotopically transitive. p = 2 is accepted but degenerates to a group.
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    if p == 2:
        warnings.warn("p = 2 twisted loop is associative (no new structure)", stacklevel=2)
    return _two_indexed_table(p, lambda x, s, y, t: (1 - 2 * t) * x + y + s * t)


def cyclic_loop(q: int) -> Loop:
    symbols = np.arange(q)
    return Loop((symbols[:, None] + symbols) % q, identity=0)


def graph_code(loop: BinaryQuasigroup, provenance=None) -> MdsCode:
    if provenance is None:
        provenance = {"construction": "graph", "table": loop.table.tolist()}
        if isinstance(loop, Loop):
            provenance["identity"] = loop.identity
    return graph_of(loop, provenance=provenance)


def twisted_graph_code(p: int) -> MdsCode:
    """Graph of the twisted loop, with provenance for the witness machinery."""
    return graph_code(make_cp(p), provenance={"construction": "graph", "loop": "cp", "p": p})


def is_associative(f: BinaryQuasigroup) -> bool:
    t = f.table
    # one x at a time, so memory stays q^2 for tables read from files:
    # t[t[x]][y, z] = (xy)z and t[x][t][y, z] = x(yz)
    return all(np.array_equal(t[t[x]], t[x][t]) for x in range(f.q))
