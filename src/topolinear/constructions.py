"""Constructions of isotopically transitive codes with explicit witnesses.

Four families, one table (`CONSTRUCTIONS`) mapping each kind to its parser,
build function and witness formula:

  * the graph of the twisted loop C_p, with three explicit families of
    autotopisms (A1-A3) and a sharply transitive group built from them;
  * iterated group codes: words whose left group product folds to the
    identity, carrying a sharply transitive group of conjugation-twisted
    translations (the star group);
  * composition codes: an outer order-2p operation fed by iterated dihedral
    products over disjoint blocks, with witnesses assembled block by block;
  * quadratic codes: pairs of linear words over a finite field coupled by a
    quadratic form, with two-stage translation witnesses.

Every witness here is constructive: it is computed from its word by formula,
never searched for, and links that word with the all-zero word; all of them
are verified symmetries in the tests. The transitivity verdict asks a
formula only for the few words its orbit closure has not reached. One parser
per kind reads both construction spec files and the provenance its build
function records, so a code file's provenance is checked like any other
input.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .budget import BudgetExceeded
from .codes import (BinaryQuasigroup, Isotopism, Loop, MdsCode, _frozen, _identity_of,
                    _integers, graph_code, is_associative, make_cp, make_dihedral, make_zp_z2,
                    twisted_graph_code)
from .fields import field_make, field_order


class MalformedInput(ValueError):
    """Input file or spec that fails schema validation."""


def _require(cond: bool, msg: str):
    if not cond:
        raise MalformedInput(msg)


def _as_int(value, what: str) -> int:
    # bool is an int subtype; reject it explicitly
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"{what} must be an integer")
    return value


# ---------------------------------------------------------------------------
# loops named or tabulated in specs and provenance

# a spec file describes a code of at most this many symbols |M|*n =
# q^(n-1)*n, over an alphabet of at most its square root (a loop of order q
# is a q x q table)
MAX_SPEC_SYMBOLS = 2**18


def _fits(shape, q: int, n: int):
    """Provenance must describe codes of its code's shape (q, n), and a spec
    (shape None) a code within MAX_SPEC_SYMBOLS; checked on the raw fields,
    before anything sized by them is built."""
    _require(shape in (None, (q, n)), f"describes codes of shape {(q, n)}, not {shape}")
    if shape is None and q >= 1 and n >= 2:
        # capped power: q >= 2 words longer than the bound's bit length are too many
        symbols = q ** min(n - 1, MAX_SPEC_SYMBOLS.bit_length()) * n
        if max(symbols, q * q) > MAX_SPEC_SYMBOLS:
            raise BudgetExceeded("code symbols", MAX_SPEC_SYMBOLS)


def loop_from_json(obj, loop_only: bool = True) -> BinaryQuasigroup:
    """The loop a table object holds. With `loop_only` False, a Latin square
    with no two-sided identity is read as its quasigroup instead."""
    _require(isinstance(obj, dict), "loop file must be a JSON object")
    table = obj.get("table")
    _require(isinstance(table, list) and table, "table must be a nonempty matrix")
    q = len(table)
    for row in table:
        _require(isinstance(row, list) and len(row) == q, "table must be square")
    identity = obj.get("identity")
    try:  # Loop checks the identity as well
        if identity is not None or loop_only:
            return Loop(table, identity=identity)
        f = BinaryQuasigroup(table)  # a loop's table is checked once more, as an array
        return f if _identity_of(f.table) is None else Loop(f.table)
    except ValueError as exc:
        raise MalformedInput(str(exc)) from exc


# the first intercalate flip of the cyclic order-6 table that is not a G-loop,
# as `loops.find_non_g_loop_order6` derives it
NON_G_6 = ((0, 1, 2, 3, 4, 5), (1, 5, 3, 4, 2, 0), (2, 3, 4, 5, 0, 1),
           (3, 4, 5, 0, 1, 2), (4, 2, 0, 1, 5, 3), (5, 0, 1, 2, 3, 4))

BUILTIN_LOOPS = {"cp": make_cp, "dihedral": make_dihedral, "zpz2": make_zp_z2,
                 "non-g-6": lambda p: Loop(NON_G_6, identity=0)}


def builtin_order(name: str, p: int | None = None) -> int:
    """Order of a named loop, known before it is built."""
    _require(isinstance(name, str) and name in BUILTIN_LOOPS, f"unknown builtin loop {name!r}")
    if name == "non-g-6":
        return 6
    _require(p is not None, f"builtin loop {name!r} needs a parameter p")
    _require(_as_int(p, "p") >= 2, "p must be >= 2")
    return 2 * p


def builtin_loop(name: str, p: int | None = None) -> Loop:
    """Loops addressable by name from the command line."""
    builtin_order(name, p)
    return BUILTIN_LOOPS[name](p)


@lru_cache(maxsize=None)
def _shared_loop(name: str, p: int) -> Loop:
    """The builtin loop of a composition code, built once per p: its table is
    read-only, so every witness can share it."""
    return BUILTIN_LOOPS[name](p)


def _parse_loop(obj, n: int, shape=None, loop_only: bool = True) -> BinaryQuasigroup:
    """Loop of a spec or provenance for codes of length n."""
    if isinstance(obj, dict) and "table" in obj:
        loop = loop_from_json(obj, loop_only)
        _fits(shape, loop.q, n)
        return loop
    if isinstance(obj, dict) and "name" in obj:
        name, p = obj["name"], obj.get("p")
        _fits(shape, builtin_order(name, p), n)
        return builtin_loop(name, p)
    raise MalformedInput("loop spec needs a table or a builtin name")


# ---------------------------------------------------------------------------
# explicit symmetry families of the twisted-loop graph

@dataclass(frozen=True)
class GraphSpec:
    """Graph of the twisted loop C_p when `p` is set, whose explicit families
    then apply for odd p, else of the quasigroup `loop`."""

    p: int | None = None
    loop: BinaryQuasigroup | None = None


def _residue_bit(p: int):
    """(x, s) of every symbol u = x + p*s of the order-2p alphabet, as arrays."""
    s, x = divmod(np.arange(2 * p), p)
    return x, s


def _cp_isotopism(p: int, residues, bits) -> Isotopism:
    """The isotopism sending x_s to r_b at coordinate i, where r and b are
    residues[i] and bits[i], arrays over the symbols x_s."""
    return Isotopism(np.array(residues) % p + p * (np.array(bits) & 1))


def cp_autotopism_a1(p: int, beta: int) -> Isotopism:
    """First family: x_s -> ((-1)^beta x + s*beta)_s, and the second and third
    coordinates get their index bit flipped by beta."""
    x, s = _residue_bit(p)
    sign = -1 if beta & 1 else 1
    return _cp_isotopism(p, [sign * x + s * beta, x, x], [s, s ^ beta, s ^ beta])


def cp_autotopism_a2(p: int, a1: int, b: int, alpha: int) -> Isotopism:
    """Second family: translations whose first and third components flip sign
    with the index bit relative to alpha."""
    x, s = _residue_bit(p)
    shift = a1 * (1 - 2 * ((s ^ alpha) & 1))  # a1 * (-1)^(s ^ alpha)
    return _cp_isotopism(p, [x - shift, x - b, x - shift - b], [s] * 3)


def cp_autotopism_a3(p: int, alpha: int) -> Isotopism:
    """Third family: global sign flip with an index-bit swap on the outer
    coordinates and a shear on the middle one."""
    x, s = _residue_bit(p)
    signed = -x if alpha & 1 else x
    return _cp_isotopism(p, [signed, signed - alpha * s, signed], [s ^ alpha, s, s ^ alpha])


def ic_p_generators(p: int) -> list[Isotopism]:
    """All members of the three families over all parameter choices."""
    gens = [cp_autotopism_a1(p, beta) for beta in (0, 1)]
    gens += [
        cp_autotopism_a2(p, a1, b, alpha)
        for a1 in range(p)
        for b in range(p)
        for alpha in (0, 1)
    ]
    gens += [cp_autotopism_a3(p, alpha) for alpha in (0, 1)]
    return gens


@lru_cache(maxsize=None)
def _cp_members(p: int) -> tuple:
    """(family, shears): the members of `ic_p_generators(p)`, in its order,
    and the powers 0..p-1 of `cp_shear(p)`, built and checked once per p."""
    return tuple(ic_p_generators(p)), tuple(cp_shear(p, t) for t in range(p))


def chase_to_zero_cp(p: int, word) -> Isotopism:
    """Compose one member of each family so the given graph word lands on
    (0, 0, 0). Parameters are read off the word itself, and the members
    from `_cp_members`: a1(beta), a2(a1, b, alpha), a3(alpha)."""
    family = _cp_members(p)[0]
    alpha, a = divmod(word[0], p)
    beta, b = divmod(word[1], p)
    a1 = ((-a if beta & 1 else a) + alpha * beta) % p
    g2 = family[2 + 2 * (a1 * p + b) + alpha]
    return family[2 + 2 * p * p + alpha].compose(g2.compose(family[beta]))


def cp_shear(p: int, t: int = 1) -> Isotopism:
    """The t-th power of the family composite a2(p, p-1, 1, 0)·k·k, k =
    a3(p, 1)·a1(p, 1), which fixes (0, 0, 0) but is not the identity: on
    every coordinate it sends a symbol with upper bit s to itself minus 2ts.
    Its powers are the full stabilizer of the base word inside the closure of
    the three families, which is therefore p times larger than sharply
    transitive."""
    x, s = _residue_bit(p)
    return _cp_isotopism(p, [x - 2 * t * s] * 3, [s] * 3)


def cp_regular_generators(p: int) -> list[Isotopism]:
    """Composites of family maps generating a sharply transitive group of
    symmetries of graph(C_p), of order (2p)^2 = one element per codeword.

    Closing every family member over all parameters gives a group p times
    larger that contains cp_shear(p), so it cannot be sharply transitive.
    The shear moves the first components of its non-identity elements by
    different amounts on the two halves of the alphabet; the maps whose first
    component shifts both halves equally form a complement to the shear
    powers, and the four products below generate exactly that subgroup.
    """
    g1 = cp_autotopism_a1(p, 1)
    g3 = cp_autotopism_a3(p, 1)
    k = g3.compose(g1)
    m = k.compose(k)  # first component x - 1, no bit flips
    w = g1.compose(cp_shear(p, (p - 1) // 2))  # first component becomes plain negation
    return [cp_autotopism_a2(p, 0, 1, 0), m, g3, w]


def cp_regular_witness(p: int, word) -> Isotopism:
    """The unique member of the sharply transitive group carrying (0, 0, 0)
    to `word`. The inverted chase composite already does the carrying but may
    land outside the group; composing with the right power of cp_shear(p),
    which fixes the base word, repairs membership without any search."""
    c = chase_to_zero_cp(p, word).inverse()
    tx = c.rows[0].tolist()
    sgn = 1 if (tx[1] - tx[0]) % p == 1 else -1
    delta = (tx[p] - tx[0]) % p
    return c.compose(_cp_members(p)[1][delta * pow(2 * sgn, -1, p) % p])


def _inverses(loop: Loop) -> np.ndarray:
    """inv[x]: the w with x * w = identity, the group inverse in a group."""
    return (loop.table == loop.identity).argmax(axis=1)


def fold(loop: Loop, zs):
    """Left-to-right product, starting at the identity; fold(()) = identity.
    zs is a word, or an (m, ...) array whose columns are words, folded by one
    gather per coordinate."""
    acc = loop.identity
    for z in zs:
        acc = loop.table[acc, z]
    return acc


# ---------------------------------------------------------------------------
# star machinery over an associative loop

def star_isotopism(loop: Loop, ys) -> Isotopism:
    """x -> x star y, the componentwise twisted product: component k is
    P^-1 x_k P y_k where P runs over the prefix products y_1 .. y_(k-1). Folds
    multiply, fold(x star y) = fold(x) fold(y), and the all-identity word goes
    to y. Over a group the star translations form a sharply transitive group."""
    t = loop.table
    prefixes, acc = [], loop.identity
    for y in ys:
        prefixes.append(acc)
        acc = t[acc, y]
    pref = np.array(prefixes, dtype=np.int64)[:, None]
    ys = np.array(ys, dtype=np.int64)[:, None]
    return Isotopism(t[t[t[_inverses(loop)[pref], np.arange(loop.q)], pref], ys])


@dataclass(frozen=True)
class IteratedGroupSpec:
    loop: Loop
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("length must be at least 2")
        if not is_associative(self.loop):
            raise ValueError("iterated codes need an associative operation")


def iterated_code(spec: IteratedGroupSpec) -> MdsCode:
    """Words whose full left product is the identity."""
    loop, n = spec.loop, spec.n
    xs = np.indices((loop.q,) * (n - 1)).reshape(n - 1, -1)
    words = np.vstack([xs, _inverses(loop)[fold(loop, xs)]]).T
    prov = {"construction": "iterated", "table": loop.table.tolist(),
            "identity": loop.identity, "n": n}
    return MdsCode(loop.q, n, words, provenance=prov)


# ---------------------------------------------------------------------------
# the fold-equivariance equation on a block

def sigma_compatibility_failure(loop: Loop, sigma):
    """First (x, y) with sigma(xy) != sigma(x) sigma(e)^-1 sigma(y), or None.

    That identity on sigma alone decides solvability of the block equation
    below: it says sigma is a left translation composed with an automorphism.
    """
    t, sigma = loop.table, np.asarray(sigma)
    left = t[sigma, _inverses(loop)[sigma[loop.identity]]]  # sigma(x) sigma(e)^-1
    bad = np.argwhere(sigma[t] != t[left[:, None], sigma])
    return tuple(bad[0].tolist()) if len(bad) else None


def solve_condition_c(loop: Loop, m: int, sigma, tail=None) -> np.ndarray:
    """Coordinate maps (tau_1..tau_m), the rows of a read-only (m, q) int64
    array, with fold(tau(z)) = sigma(fold(z)) for every z in Q^m.

    Solutions are parameterized completely by the images of the identity in
    positions 2..m (the tail): writing R_j for the suffix product
    u_(j+1) .. u_m, they are tau_1 = sigma(.) R_1^-1 and
    tau_j = R_(j-1) sigma(e)^-1 sigma(.) R_j^-1. The default tail is all
    identities. sigma must list a permutation of the symbols and the tail
    m - 1 symbols, as integers, else ValueError; so does a sigma failing the
    compatibility identity, in which case no solution exists for m >= 2.
    """
    q = loop.q
    sigma = _integers(sigma, "sigma must be a permutation of the symbols")
    if sorted(sigma) != list(range(q)):
        raise ValueError("sigma must be a permutation of the symbols")
    if m < 1:
        raise ValueError("m must be positive")
    sigma = np.array(sigma, dtype=np.int64)
    if m == 1:
        return _frozen(sigma[None])
    bad = sigma_compatibility_failure(loop, sigma)
    if bad is not None:
        raise ValueError(f"sigma is not fold-compatible at {bad}; no solution")
    e = loop.identity
    tail = (e,) * (m - 1) if tail is None else _integers(tail, "tail entries must be symbols")
    if len(tail) != m - 1:
        raise ValueError("tail must list the identity images at positions 2..m")
    if not all(0 <= v < q for v in tail):
        raise ValueError("tail entries must be symbols")
    t, inv = loop.table, _inverses(loop)
    suffix = [e] * (m + 1)  # suffix[j] = u_(j+1) ... u_m, suffix[m] = e
    for j in range(m - 1, 0, -1):
        suffix[j] = t[tail[j - 1], suffix[j + 1]]
    suffix = np.array(suffix, dtype=np.int64)
    taus = np.empty((m, q), dtype=np.int64)
    taus[0] = t[sigma, inv[suffix[1]]]
    head = t[suffix[1:m], inv[sigma[e]]][:, None]  # R_(j-1) sigma(e)^-1 for j = 2..m
    taus[1:] = t[t[head, sigma], inv[suffix[2:]][:, None]]
    return _frozen(taus)


# ---------------------------------------------------------------------------
# composition codes

@dataclass(frozen=True)
class CompositionSpec:
    """Outer operation ("cp" twisted loop or "zpz2" direct product) of order
    2p, fed by iterated dihedral folds over blocks of the listed arities."""

    outer: str
    p: int
    inner: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "inner", _integers(self.inner, "block arities must be integers"))
        if self.outer not in ("cp", "zpz2"):
            raise ValueError("outer must be 'cp' or 'zpz2'")
        if self.p < 2:
            raise ValueError("p must be >= 2")
        if any(m < 1 for m in self.inner):
            raise ValueError("block arities must be positive")
        if self.outer == "cp" and len(self.inner) != 2:
            raise ValueError("the twisted loop is binary: exactly two blocks")
        if self.outer == "zpz2" and not self.inner:
            raise ValueError("at least one block")

    @property
    def q(self) -> int:
        return 2 * self.p

    @property
    def length(self) -> int:
        return 1 + sum(self.inner)


def _split_blocks(spec: CompositionSpec, word):
    blocks = []
    pos = 1
    for m in spec.inner:
        blocks.append(tuple(word[pos:pos + m]))
        pos += m
    return word[0], blocks


def composition_code(spec: CompositionSpec) -> MdsCode:
    """Coordinate 0 equals the outer operation applied to the dihedral folds
    of the blocks, for all words at once."""
    dih = _shared_loop("dihedral", spec.p)
    m = sum(spec.inner)
    zs = np.indices((spec.q,) * m).reshape(m, -1)
    ends = itertools.accumulate(spec.inner)
    vs = [fold(dih, zs[end - k:end]) for k, end in zip(spec.inner, ends)]
    words = np.vstack([fold(_shared_loop(spec.outer, spec.p), vs), zs]).T
    prov = {"construction": "composition", "outer": spec.outer, "p": spec.p,
            "inner": list(spec.inner)}
    return MdsCode(spec.q, spec.length, words, provenance=prov)


@lru_cache(maxsize=None)
def _solve_block(p: int, m: int, sigma: tuple) -> np.ndarray:
    return solve_condition_c(_shared_loop("dihedral", p), m, sigma)


def composition_witness(spec: CompositionSpec, word) -> Isotopism:
    """Symmetry of the composition code carrying the given word to all zeros.

    The outer symbols transform by a symmetry of the outer operation's graph
    killing (fold values, coordinate 0); each block then gets a solution of
    the fold-equivariance equation for its outer component, followed by the
    inverse star translation of the block's image, a fiber-preserving shift
    flattening the block itself.
    """
    dih = _shared_loop("dihedral", spec.p)
    b0, blocks = _split_blocks(spec, word)
    vs = [fold(dih, b) for b in blocks]
    if spec.outer == "cp":
        *sigmas, sigma0 = chase_to_zero_cp(spec.p, (vs[0], vs[1], b0)).rows
    else:  # right translations by the inverses
        zp = _shared_loop("zpz2", spec.p)
        sigma0, *sigmas = zp.table[:, _inverses(zp)[[b0, *vs]]].T
    rows = [sigma0]
    for m, sigma, block in zip(spec.inner, sigmas, blocks):
        taus = _solve_block(spec.p, m, tuple(sigma.tolist()))
        shift = star_isotopism(dih, taus[np.arange(m), block]).inverse()
        rows.extend(np.take_along_axis(shift.rows, taus, axis=1))
    out = Isotopism(np.vstack(rows))
    if out.apply_word(word) != (0,) * spec.length:
        raise ValueError(f"{word} is not a word of the composition code")
    return out


# ---------------------------------------------------------------------------
# quadratic codes over a field

@dataclass(frozen=True)
class QuadraticSpec:
    """Code over paired field symbols (x, y): the x-parts sum to zero and the
    y-parts sum to -r(x), r a quadratic form plus arbitrary per-coordinate
    functions vanishing at 0."""

    p: int
    k: int
    n: int
    alpha: tuple[tuple[int, ...], ...]
    beta: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        q = self.p ** self.k
        if self.n < 2:
            raise ValueError("length must be at least 2")
        alpha = tuple(_integers(row, "alpha entries must be field elements") for row in self.alpha)
        beta = tuple(_integers(row, "beta values must be field elements") for row in self.beta)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        if len(alpha) != self.n or any(len(r) != self.n for r in alpha):
            raise ValueError("alpha must be n x n")
        if len(beta) != self.n or any(len(b) != q for b in beta):
            raise ValueError("beta must give one length-q table per coordinate")
        if any(v < 0 or v >= q for row in alpha for v in row):
            raise ValueError("alpha entries must be field elements")
        if any(v < 0 or v >= q for row in beta for v in row):
            raise ValueError("beta values must be field elements")
        if any(b[0] != 0 for b in beta):
            raise ValueError("beta must vanish at 0")

    @staticmethod
    def make(p: int, k: int, n: int, alpha=None, beta=None) -> "QuadraticSpec":
        q = p ** k
        if alpha is None:
            alpha = [[0] * n for _ in range(n)]
        if beta is None:
            beta = [[0] * q for _ in range(n)]
        return QuadraticSpec(p, k, n, tuple(map(tuple, alpha)), tuple(map(tuple, beta)))

    @property
    def q(self) -> int:
        return self.p ** self.k

    @property
    def field(self):
        return field_make(self.p, self.k)


def _field_sum(add: np.ndarray, parts, acc=0):
    """The field sum of the rows of `parts` (and acc), one gather per row."""
    for part in parts:
        acc = add[acc, part]
    return acc


def _quadratic_form(spec: QuadraticSpec, xs):
    """r(x), the quadratic form plus the beta tables, of the x-parts xs, an
    (n, ...) array, by one gather per term."""
    F, beta = spec.field, np.array(spec.beta, dtype=np.int64)
    r = 0
    for i in range(spec.n):
        for j in range(spec.n):
            r = F.add[r, F.mul[spec.alpha[i][j], F.mul[xs[i], xs[j]]]]
        r = F.add[r, beta[i, xs[i]]]
    return r


def quadratic_code(spec: QuadraticSpec) -> MdsCode:
    """Every word of paired symbols x_i*q + y_i whose x-parts sum to zero
    and whose y-parts sum to -r(x), built for all words at once by gathers
    on the field's add, mul and neg tables."""
    F = spec.field
    q, n = spec.q, spec.n
    free = np.indices((q,) * (n - 1)).reshape(n - 1, -1)  # [coordinate, vector]
    total = _field_sum(F.add, free)
    xs = np.vstack([free, F.neg[total]])  # [coordinate, x-part]
    r = _quadratic_form(spec, xs)
    words = np.empty((free.shape[1], free.shape[1], n), dtype=np.int64)  # [x-part, y-part]
    words[..., :-1] = xs[:-1].T[:, None] * q + free.T
    words[..., -1] = xs[-1][:, None] * q + F.neg[F.add[r[:, None], total]]
    prov = {"construction": "quadratic", "p": spec.p, "k": spec.k, "n": n,
            "alpha": [list(r_) for r_ in spec.alpha],
            "beta": [list(b) for b in spec.beta]}
    return MdsCode(q * q, n, words.reshape(-1, n), provenance=prov)


def quadratic_witness(spec: QuadraticSpec, word) -> Isotopism:
    """Two translation stages: shift the x-parts by the word's x-parts a with
    a compensating y-shear keeping both defining sums invariant, then shift
    the y-parts by the image's y-parts. Coordinate i is one gather over every
    paired symbol (x, y): stage one sends it to (x - a_i, y + x*shear_i -
    beta_i(x - a_i) + beta_i(x) - a_i*row_i), where row_i = sum_j alpha_ij a_j
    and shear_i = row_i + sum_j alpha_ji a_j."""
    F, q, n = spec.field, spec.q, spec.n
    add, mul, neg = F.add, F.mul, F.neg
    a, b = np.divmod(np.array(word, dtype=np.int64), q)
    # the stages carry any word to zero, so membership is checked up front
    if _field_sum(add, a) or add[_quadratic_form(spec, a), _field_sum(add, b)]:
        raise ValueError(f"{word} is not a word of the quadratic code")
    alpha, beta = np.array(spec.alpha, dtype=np.int64), np.array(spec.beta, dtype=np.int64)
    row = _field_sum(add, mul[alpha, a].T)
    shear = add[row, _field_sum(add, mul[alpha.T, a].T)][:, None]
    x, y = np.divmod(np.arange(q * q), q)
    xp = add[x, neg[a][:, None]]  # [coordinate, paired symbol]
    yp = add[add[y, mul[x, shear]], neg[beta[np.arange(n)[:, None], xp]]]
    yp = add[add[yp, beta[:, x]], neg[mul[a, row]][:, None]]
    c = yp[np.arange(n), a * q + b]  # stage one's image of the word's own y-parts
    return Isotopism(xp * q + add[yp, neg[c][:, None]])


# ---------------------------------------------------------------------------
# the construction table

def _normalized_inner(outer: str, inner) -> tuple[int, ...]:
    _require(isinstance(inner, list) and inner, "inner must be a nonempty list")
    arities = tuple(_as_int(m, "inner arity") for m in inner)
    if outer == "cp" and len(arities) == 1:
        # single entry read as the total of the block arities; only accepted
        # when the split over the two outer arguments is forced
        total = arities[0]
        _require(total == 2, f"inner total {total} has no unique split over "
                             "a binary outer; list both block arities")
        return (1, 1)
    return arities


_TERM_RE = re.compile(r"^(\d+)?((?:x\d+)+)$")


def parse_r_expression(text: str, n: int, q: int) -> list[list[int]]:
    """Quadratic part written as a sum of pair products, e.g. "x1x2+x3x4".
    Returns the upper-triangular alpha table. Indices are 1-based in the
    expression. "0" or "" denote the zero form."""
    alpha = [[0] * n for _ in range(n)]
    s = text.replace(" ", "")
    if s in ("", "0"):
        return alpha
    for term in s.split("+"):
        m = _TERM_RE.match(term)
        _require(m is not None, f"bad term {term!r}")
        coeff = int(m.group(1)) if m.group(1) else 1
        _require(0 <= coeff < q, f"coefficient {coeff} out of range")
        idxs = sorted(int(d) - 1 for d in re.findall(r"x(\d+)", m.group(2)))
        _require(len(idxs) == 2 and idxs[0] != idxs[1],
                 f"term {term!r} must be a product of two distinct variables")
        i, j = idxs
        _require(0 <= i and j < n, f"variable index out of range in {term!r}")
        _require(alpha[i][j] == 0, f"duplicate pair in {term!r}")
        alpha[i][j] = coeff
    return alpha


# Each parser reads a spec file object and the provenance its build function
# records. A spec nests the loop ({"loop": {"name": "cp", "p": 5}}); the
# provenance spells it inline ({"loop": "cp", "p": 5} or a top-level table).
# Given the (q, n) of the code a provenance came with, a parser checks it
# before it builds anything, so forged sizes cost no work.

def _parse_graph(obj, shape=None) -> GraphSpec:
    loop = obj.get("loop", obj)
    if loop == "cp":
        loop = {"name": "cp", "p": obj.get("p")}
    if isinstance(loop, dict) and loop.get("name") == "cp":
        p = _as_int(loop.get("p"), "p")
        _require(p >= 2, "p must be >= 2")
        _fits(shape, 2 * p, 3)
        return GraphSpec(p=p)
    return GraphSpec(loop=_parse_loop(loop, 3, shape, loop_only=False))


def _parse_iterated(obj, shape=None) -> IteratedGroupSpec:
    n = _as_int(obj.get("n"), "n")
    return IteratedGroupSpec(_parse_loop(obj.get("loop", obj), n, shape), n)


def _parse_composition(obj, shape=None) -> CompositionSpec:
    outer, p = obj.get("outer"), _as_int(obj.get("p"), "p")
    inner = _normalized_inner(outer, obj.get("inner"))
    _fits(shape, 2 * p, 1 + sum(inner))
    return CompositionSpec(outer, p, inner)


def _parse_quadratic(obj, shape=None) -> QuadraticSpec:
    p, k, n = (_as_int(obj.get(key), key) for key in ("p", "k", "n"))
    q = field_order(p, k)  # rejects a bad field before any table is built or sized by it
    _fits(shape, q * q, n)
    if "alpha" in obj:
        alpha = obj["alpha"]
        _require(isinstance(alpha, list), "alpha must be a matrix")
    else:
        r = obj.get("r")
        _require(isinstance(r, str), "r must be an expression string")
        alpha = parse_r_expression(r, n, q)
    return QuadraticSpec.make(p, k, n, alpha=alpha, beta=obj.get("beta"))


def _build_graph(spec: GraphSpec) -> MdsCode:
    return twisted_graph_code(spec.p) if spec.loop is None else graph_code(spec.loop)


def _star_witness(loop: Loop, src):
    """Word -> the star translation carrying `src` to it, star(w) o star(src)^-1."""
    back = star_isotopism(loop, src).inverse()
    return lambda w: star_isotopism(loop, w).compose(back)


def _graph_witness(spec: GraphSpec):
    if spec.loop is None:  # the cp families halve by 2 mod p
        return None if spec.p % 2 == 0 else lambda w: cp_regular_witness(spec.p, w)
    loop = spec.loop
    if not isinstance(loop, Loop) or not is_associative(loop):
        return None
    # the graph is the length-3 iterated code with its last coordinate
    # relabeled by inversion; conjugate the star translation through the relabel
    symbols = np.arange(loop.q)
    relabel = Isotopism(np.stack([symbols, symbols, _inverses(loop)]))
    star = _star_witness(loop, relabel.apply_word((0, 0, 0)))
    return lambda w: relabel.compose(star(relabel.apply_word(w))).compose(relabel)


def _inverted(to_zero):
    """Witness column of a formula carrying each word to 0..0."""
    return lambda spec: lambda w: to_zero(spec, w).inverse()


@dataclass(frozen=True)
class Construction:
    """How one construction kind is read, built and certified.

    `parse(obj, shape=None)` reads a spec file object, or a provenance
    recorded for codes of `shape` (q, n), into a spec; `build(spec)` makes
    the code. `witness(spec)` is a function taking a word of the code to a
    symmetry carrying the base word 0..0 to it, or None when the kind offers
    no such family. Nothing returned is trusted: the verdicts check it.
    """

    parse: Callable[..., object]
    build: Callable[[object], MdsCode]
    witness: Callable[[object], Callable[[tuple], Isotopism] | None]


CONSTRUCTIONS = {
    "graph": Construction(_parse_graph, _build_graph, _graph_witness),
    "iterated": Construction(_parse_iterated, iterated_code,
                             lambda spec: _star_witness(spec.loop, (0,) * spec.n)),
    "composition": Construction(_parse_composition, composition_code,
                                _inverted(composition_witness)),
    "quadratic": Construction(_parse_quadratic, quadratic_code, _inverted(quadratic_witness)),
}


def dropped_hint(M: MdsCode, why) -> str:
    return f"provenance hint dropped ({M.provenance.get('construction')}): {why}"


def construction_hint(M: MdsCode):
    """(the witness function of the construction M's provenance records, "").
    Provenance is untrusted: when it does not parse, describes codes of
    another shape than M, or its witness family cannot be set up, the result
    is (None, a note that the hint was dropped). It is (None, "") when the
    provenance names no kind in the table or the kind has no witness family.
    The witnesses themselves are checked by the verdict that asks for them."""
    kind = M.provenance.get("construction")
    entry = CONSTRUCTIONS.get(kind) if isinstance(kind, str) else None
    if entry is None:
        return None, ""
    try:
        return entry.witness(entry.parse(M.provenance, (M.q, M.n))), ""
    except (ValueError, KeyError, TypeError) as exc:
        return None, dropped_hint(M, exc)
