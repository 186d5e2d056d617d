"""Transitivity classification over the four-symbol alphabet.

Symbols are read as bit pairs u = x + 2y. A code is in standard form when its
words satisfy two parity equations: the x-bits sum to zero and the y-bits sum
to a Boolean function r of the x-bits. Codes isotopic to a standard form are
called semilinear; transitivity is decided by the degree of r after reducing
modulo the x-parity equation.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .codes import Isotopism, MdsCode, NAryQuasigroup, pair_code, require_mds, subcode
from .isometry import equivalent_codes, is_isotopically_transitive

# the six ways to split the four symbols into a labeled pair of pairs
_BALANCED_LABELINGS = tuple(
    labels for labels in itertools.product((0, 1), repeat=4) if sum(labels) == 2
)
# each labeling's relabeling onto bit pairs: the smaller symbol labeled x goes
# to x, the larger to x + 2
_TAUS = {lab: tuple(x + 2 * (x in lab[:u]) for u, x in enumerate(lab))
         for lab in _BALANCED_LABELINGS}


# ---------------------------------------------------------------------------
# Boolean functions and normal forms

def form_function(monomials):
    """Boolean function x -> xor of the given monomials, each a tuple of
    0-based variable indices. () is the constant-zero function."""
    mono = tuple(tuple(m) for m in monomials)

    def r(xs):
        v = 0
        for m in mono:
            t = 1
            for i in m:
                t &= xs[i]
            v ^= t
        return v

    return r


def truth_table(r, n: int) -> tuple[int, ...]:
    """Truth bits indexed by variable mask (bit i of the index = value of
    variable i)."""
    return tuple(
        r(tuple((mask >> i) & 1 for i in range(n))) & 1 for mask in range(1 << n)
    )


def anf(truth) -> frozenset[int]:
    """Moebius transform of a truth table of length 2^m; returns the set of
    monomials present, each encoded as a variable mask."""
    c = list(truth)
    m = len(c).bit_length() - 1
    if len(c) != 1 << m:
        raise ValueError("truth table length must be a power of two")
    for i in range(m):
        step = 1 << i
        for a in range(len(c)):
            if a & step:
                c[a] ^= c[a ^ step]
    return frozenset(a for a in range(len(c)) if c[a] & 1)


def anf_degree(monomials) -> int:
    return max((bin(m).count("1") for m in monomials), default=0)


# ---------------------------------------------------------------------------
# standard forms and the pair-code obstruction

def standard_semilinear_code(n: int, r, provenance=None) -> MdsCode:
    """Words u_i = x_i + 2 y_i with sum of x zero and sum of y equal to
    r(x_1..x_n); 4^(n-1) words. `r` is a Boolean callable on n bits or a
    collection of monomials for form_function."""
    if n < 2:
        raise ValueError("need length at least 2")
    if not callable(r):
        r = form_function(r)
    words = []
    for xs in itertools.product((0, 1), repeat=n - 1):
        full = xs + (sum(xs) % 2,)
        target = r(full) & 1
        for yhead in itertools.product((0, 1), repeat=n - 1):
            ys = yhead + ((sum(yhead) + target) % 2,)
            words.append(tuple(x + 2 * y for x, y in zip(full, ys)))
    prov = provenance or {
        "construction": "semilinear",
        "n": n,
        "r_truth": list(truth_table(r, n)),
    }
    return MdsCode(4, n, words, provenance=prov)


def code_h(provenance=None) -> MdsCode:
    """Length-4 code x1 * x2 = x3 <> x4 pairing two loops that share the
    identity 0 but have different squares: * is addition mod 4 (order-2
    element 2) and <> is its conjugate by the transposition of 1 and 2
    (order-2 element 1).

    This code has no standard form, yet it is isotopically transitive: its
    full symmetry group has order 64 and acts regularly, so the degree
    shortcut of `classify` does not extend to codes without a standard form.
    """
    star = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    sigma = (0, 2, 1, 3)
    diamond = [[sigma[(sigma[a] + sigma[b]) % 4] for b in range(4)] for a in range(4)]
    prov = provenance or {"construction": "pair", "left": star, "right": diamond}
    return pair_code(NAryQuasigroup(star), NAryQuasigroup(diamond), provenance=prov)


# ---------------------------------------------------------------------------
# semilinearity search

@dataclass(frozen=True)
class SemilinearForm:
    """Witness relabeling onto the standard form of `monomials`: the terms of
    r of degree 2 or more on the n-1 free variables, as masks (affine r: 0)."""
    witness: Isotopism
    monomials: frozenset[int]
    degree: int


def _x_labelings(M: MdsCode):
    """One joint balanced bit labeling of the coordinates per pair partition
    of coordinate 0's symbols under which every word has x-parity zero,
    read off the slices of the MDS code M: at most three.

    Fixing every coordinate except 0 and j leaves q words, which pair the
    symbols of coordinate 0 with those of coordinate j by a bijection s_j.
    The x-parity is constant on those words only if lab_j = lab_0 o s_j^-1
    up to a complement. So each labeling lab_0 fixes a base labeling at
    every coordinate, and its partition is valid only if the base x-parity
    is constant on all words. lab_0 runs over the three of
    _BALANCED_LABELINGS that label symbol 0 with 0, one per partition (the
    other three are their complements). The first word w0 starts with 0, so
    every base label of w0 is lab_0[0] = 0, and a constant parity is 0.
    """
    n, arr = M.n, M.word_array()
    w0 = arr[0].tolist()
    at_first = M.completion_maps()[0]
    rest = int(M.encoded()[0]) % 4 ** (n - 1)  # w0's line key in direction 0
    # per coordinate j: symbol b at j -> symbol at 0 on w0's slice through b
    to_first = [[0, 1, 2, 3]] + [
        [at_first[rest + (b - w0[j]) * 4 ** (n - 1 - j)] for b in range(4)]
        for j in range(1, n)]
    found = []
    for lab0 in _BALANCED_LABELINGS[:3]:
        base = [tuple(lab0[a] for a in inv) for inv in to_first]
        if not (np.asarray(base)[np.arange(n), arr].sum(axis=1) & 1).any():
            found.append(tuple(base))
    return found


def _y_parity_by_pattern(M: MdsCode, taus):
    """Array over x-patterns of the y-parity of the words of M relabeled by
    taus, or None when two words with one x-pattern differ in y-parity.
    Every word has x-parity 0, so its pattern is the mask of its first n-1
    x-bits (bit i = x-bit of coordinate i), and M holds every mask."""
    n = M.n
    img = np.asarray(taus)[np.arange(n), M.word_array()]
    patterns = (img[:, :-1] & 1) @ (1 << np.arange(n - 1))
    parity = (img >> 1).sum(axis=1) & 1
    table = np.zeros(1 << (n - 1), dtype=np.int64)
    table[patterns] = parity
    return table if np.array_equal(table[patterns], parity) else None


def semilinearity_test(M: MdsCode) -> SemilinearForm | None:
    """Search per-coordinate relabelings carrying M onto a standard form and
    return a minimum-degree one, or None when no relabeling works. M must be
    an MDS code (ValueError "not an MDS code: ..." otherwise).

    Stage 1 (_x_labelings) gives one joint balanced bit labeling per pair
    partition under which every word has x-parity 0. Each labeling becomes
    an isotopism that sends the two symbols labeled x to x and x + 2, the
    smaller one first. Stage 2 checks that the y-parity is constant on each
    x-pattern, which depends only on the partition. So one labeling per
    partition decides: complementing one coordinate's labels keeps every
    y-bit, since the smaller symbol of each pair goes to y = 0, and turns r
    into r(x + e_i), a translation, which keeps the degree. The affine part
    of r is then folded into the witness: the constant by y -> y + 1 on
    coordinate 0, and each linear x_i by y -> y + x on coordinate i. The
    monomials left have degree 2 or more, and an affine r has degree 0. The
    partitions are tried in stage 1's order and the first of minimum degree
    is kept; a degree of at most 1 ends the search.
    """
    if M.q != 4:
        raise ValueError("classification is specific to alphabet size 4")
    require_mds(M)
    best: SemilinearForm | None = None
    for labels in _x_labelings(M):
        taus = np.array([_TAUS[lab] for lab in labels])
        table = _y_parity_by_pattern(M, taus)
        if table is None:
            continue
        monos = anf(table.tolist())
        # symbols are x + 2y: y -> y + 1 is u ^ 2, and y -> y + x is u ^ 2x
        taus[0] ^= 2 * (0 in monos)
        for i in range(M.n - 1):
            taus[i] ^= 2 * (taus[i] & 1) * ((1 << i) in monos)
        monos = frozenset(m for m in monos if m & (m - 1))
        degree = anf_degree(monos)
        if best is None or degree < best.degree:
            best = SemilinearForm(Isotopism(taus), monos, degree)
            if degree <= 1:
                break
    return best


# ---------------------------------------------------------------------------
# the classification verdict

@dataclass
class Q4Verdict:
    semilinear: bool
    degree: int | None
    transitive: bool
    evidence: object = None

    def __bool__(self):
        return self.transitive


def h_subcode_witness(M: MdsCode):
    """Length-4 subcode of M isotopic to the pair code, as a pair
    (fixed coordinates, isometry), or None. Evidence that can accompany a
    non-semilinear verdict; every code without a standard form holds such a
    subcode."""
    H = code_h()
    if M.n == 4:
        w = equivalent_codes(M, H)
        return ({}, w) if w is not None else None
    for coords in itertools.combinations(range(M.n), M.n - 4):
        for vals in itertools.product(range(4), repeat=len(coords)):
            fixed = dict(zip(coords, vals))
            w = equivalent_codes(subcode(M, fixed), H)
            if w is not None:
                return (fixed, w)
    return None


def classify(M: MdsCode) -> Q4Verdict:
    """Transitivity verdict for a code over the four-symbol alphabet.

    Semilinear codes are decided by the degree of the reduced form: degree at
    most 2 means transitive (the standard form carries explicit witnesses),
    degree 3 or more embeds the cubic code, whose transitivity fails. No
    degree shortcut exists for codes without a standard form; code_h() is a
    transitive one, so those fall back to the pinned witness search
    (`h_subcode_witness` finds the pair-code subcode such a code holds). M
    must be an MDS code (ValueError "not an MDS code: ..." otherwise)."""
    form = semilinearity_test(M)
    if form is not None:
        return Q4Verdict(True, form.degree, form.degree <= 2, form)
    searched = is_isotopically_transitive(M, method="pinned")
    return Q4Verdict(False, None, searched.transitive)


def all_latin_squares(n: int):
    """Every n x n Latin square as a tuple of rows (576 for n = 4)."""
    perms = list(itertools.permutations(range(n)))
    out = []

    def rec(rows):
        if len(rows) == n:
            out.append(tuple(rows))
            return
        for p in perms:
            if all(p[j] != r[j] for r in rows for j in range(n)):
                rec(rows + [p])

    rec([])
    return out
