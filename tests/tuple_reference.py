"""The construction formulas as tuple code, one symbol at a time.

Loop and field tables are tuples of tuples of Python ints, a permutation is a
tuple and an isotopism a tuple of them, and every formula is the word-by-word
statement of its construction. The array gathers of `codes`, `constructions`
and `loops`, and the field tables of `fields`, are compared with these byte
for byte; nothing here imports the package.
"""
import itertools
import random


# ---------------------------------------------------------------------------
# polynomials over GF(p) as little-endian coefficient lists: the trial
# division oracle for the field tables

def _poly_mod(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of num by monic den, coefficients mod p, little-endian."""
    num = num[:]
    dn = len(den) - 1
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i] % p
        if c:
            shift = i - dn
            for j, dj in enumerate(den):
                num[shift + j] = (num[shift + j] - c * dj) % p
    out = [c % p for c in num[:dn]]
    return out + [0] * (dn - len(out))


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _monic_polys(p: int, deg: int):
    """All monic degree-deg polynomials, lexicographic in index order."""
    for idx in range(p**deg):
        coeffs = []
        t = idx
        for _ in range(deg):
            coeffs.append(t % p)
            t //= p
        yield coeffs + [1]


def _is_irreducible(poly: list[int], p: int) -> bool:
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for cand in _monic_polys(p, d):
            if not any(_poly_mod(poly, cand, p)):
                return False
    return True


def _index_to_poly(idx: int, p: int, k: int) -> list[int]:
    out = []
    for _ in range(k):
        out.append(idx % p)
        idx //= p
    return out


def _poly_to_index(poly: list[int], p: int) -> int:
    idx = 0
    for c in reversed(poly):
        idx = idx * p + (c % p)
    return idx


def least_irreducible(p, k):
    """The lexicographically least monic irreducible polynomial of degree k
    over GF(p), by trial division."""
    return tuple(next(m for m in _monic_polys(p, k) if _is_irreducible(m, p)))


# ---------------------------------------------------------------------------
# permutations and isotopisms as tuples

def compose(a, b):
    """(a o b)(x) = a(b(x)); b is applied first."""
    return tuple(a[b[x]] for x in range(len(a)))


def invert(a):
    out = [0] * len(a)
    for x, y in enumerate(a):
        out[y] = x
    return tuple(out)


def random_permutation(q: int, rng: random.Random):
    out = list(range(q))
    rng.shuffle(out)
    return tuple(out)


def transposition(q, i, j):
    out = list(range(q))
    out[i], out[j] = j, i
    return tuple(out)


def compose_iso(g, h):
    return tuple(compose(a, b) for a, b in zip(g, h))


def inverse_iso(g):
    return tuple(invert(a) for a in g)


def apply_word(g, w):
    return tuple(t[s] for t, s in zip(g, w))


# ---------------------------------------------------------------------------
# loop tables over the two-indexed alphabet u = x + p*bit

def to_residue_bit(u, p):
    return u % p, u // p


def from_residue_bit(x, bit, p):
    return x % p + p * (bit & 1)


def pair_split(s, q2):
    return s // q2, s % q2


def pair_join(a, b, q2):
    return a * q2 + b


def two_indexed_table(p, component):
    q = 2 * p
    table = [[0] * q for _ in range(q)]
    for u in range(q):
        x, s = to_residue_bit(u, p)
        for v in range(q):
            y, t = to_residue_bit(v, p)
            table[u][v] = from_residue_bit(component(x, s, y, t), s ^ t, p)
    return tuple(map(tuple, table))


def zp_z2_table(p):
    return two_indexed_table(p, lambda x, s, y, t: (x + y) % p)


def dihedral_table(p):
    return two_indexed_table(p, lambda x, s, y, t: ((-1) ** t * x + y) % p)


def cp_table(p):
    return two_indexed_table(p, lambda x, s, y, t: ((-1) ** t * x + y + s * t) % p)


def cyclic_table(q):
    return tuple(tuple((x + y) % q for y in range(q)) for x in range(q))


class TupleLoop:
    """A loop table as tuples, with its identity."""

    def __init__(self, table, identity=0):
        self.table = tuple(map(tuple, table))
        self.q = len(self.table)
        self.identity = identity


def tuple_loop(loop):
    """The tuple form of a package loop."""
    return TupleLoop(loop.table.tolist(), loop.identity)


def element_inverse(loop, x):
    """Group inverse: the w with x * w = identity."""
    return invert(loop.table[x])[loop.identity]


def fold(loop, zs):
    acc = loop.identity
    for z in zs:
        acc = loop.table[acc][z]
    return acc


# ---------------------------------------------------------------------------
# the twisted loop's families

def signed(p, sign_bit, x):
    return (-x if sign_bit & 1 else x) % p


def cp_autotopism_a1(p, beta):
    q = 2 * p
    tx, ty, tz = [0] * q, [0] * q, [0] * q
    for u in range(q):
        x, s = to_residue_bit(u, p)
        tx[u] = from_residue_bit(signed(p, beta, x) + s * beta, s, p)
        ty[u] = from_residue_bit(x, s ^ beta, p)
        tz[u] = from_residue_bit(x, s ^ beta, p)
    return tuple(tx), tuple(ty), tuple(tz)


def cp_autotopism_a2(p, a1, b, alpha):
    q = 2 * p
    tx, ty, tz = [0] * q, [0] * q, [0] * q
    for u in range(q):
        x, s = to_residue_bit(u, p)
        tx[u] = from_residue_bit(x - a1 * (-1) ** (s ^ alpha), s, p)
        ty[u] = from_residue_bit(x - b, s, p)
        tz[u] = from_residue_bit(x - a1 * (-1) ** (s ^ alpha) - b, s, p)
    return tuple(tx), tuple(ty), tuple(tz)


def cp_autotopism_a3(p, alpha):
    q = 2 * p
    tx, ty, tz = [0] * q, [0] * q, [0] * q
    for u in range(q):
        x, s = to_residue_bit(u, p)
        tx[u] = from_residue_bit(signed(p, alpha, x), s ^ alpha, p)
        ty[u] = from_residue_bit(signed(p, alpha, x) - alpha * s, s, p)
        tz[u] = from_residue_bit(signed(p, alpha, x), s ^ alpha, p)
    return tuple(tx), tuple(ty), tuple(tz)


def chase_to_zero_cp(p, word):
    a, alpha = to_residue_bit(word[0], p)
    b, beta = to_residue_bit(word[1], p)
    g1 = cp_autotopism_a1(p, beta)
    a1 = (signed(p, beta, a) + alpha * beta) % p
    g2 = cp_autotopism_a2(p, a1, b, alpha)
    g3 = cp_autotopism_a3(p, alpha)
    return compose_iso(g3, compose_iso(g2, g1))


def cp_shear(p, t=1):
    tau = tuple(from_residue_bit(u % p - 2 * t * (u // p), u // p, p) for u in range(2 * p))
    return tau, tau, tau


def cp_regular_witness(p, word):
    c = inverse_iso(chase_to_zero_cp(p, word))
    tx = c[0]
    sgn = 1 if (tx[1] - tx[0]) % p == 1 else -1
    delta = (tx[p] - tx[0]) % p
    return compose_iso(c, cp_shear(p, delta * pow(2 * sgn, -1, p)))


# ---------------------------------------------------------------------------
# star machinery and iterated codes

def star_product(loop, xs, ys):
    t = loop.table
    out = []
    pref = loop.identity
    for xk, yk in zip(xs, ys):
        pinv = element_inverse(loop, pref)
        out.append(t[t[t[pinv][xk]][pref]][yk])
        pref = t[pref][yk]
    return tuple(out)


def star_isotopism(loop, ys):
    t = loop.table
    taus = []
    pref = loop.identity
    for yk in ys:
        pinv = element_inverse(loop, pref)
        taus.append(tuple(t[t[t[pinv][v]][pref]][yk] for v in range(loop.q)))
        pref = t[pref][yk]
    return tuple(taus)


def star_inverse(loop, bs):
    """The c with b star c = all-identity word."""
    t = loop.table
    cs = []
    pref = loop.identity
    for bk in bs:
        pinv = element_inverse(loop, pref)
        ck = t[t[pinv][element_inverse(loop, bk)]][pref]
        cs.append(ck)
        pref = t[pref][ck]
    return tuple(cs)


def shift_isotopism(loop, bs):
    return star_isotopism(loop, star_inverse(loop, bs))


def star_witness(loop, src):
    src_inv = star_inverse(loop, src)
    return lambda w: star_isotopism(loop, star_product(loop, src_inv, w))


def graph_witness(loop):
    """The graph code's witness of a group: the star witness conjugated by
    inversion on the last coordinate."""
    ident = tuple(range(loop.q))
    relabel = (ident, ident, tuple(element_inverse(loop, v) for v in range(loop.q)))
    star = star_witness(loop, apply_word(relabel, (0, 0, 0)))
    return lambda w: compose_iso(compose_iso(relabel, star(apply_word(relabel, w))), relabel)


def iterated_words(loop, n):
    return sorted(xs + (element_inverse(loop, fold(loop, xs)),)
                  for xs in itertools.product(range(loop.q), repeat=n - 1))


# ---------------------------------------------------------------------------
# the block equation and composition codes

def sigma_compatibility_failure(loop, sigma):
    t = loop.table
    mid = element_inverse(loop, sigma[loop.identity])
    for x in range(loop.q):
        left = t[sigma[x]][mid]
        for y in range(loop.q):
            if sigma[t[x][y]] != t[left][sigma[y]]:
                return (x, y)
    return None


def solve_condition_c(loop, m, sigma, tail=None):
    q, e, t = loop.q, loop.identity, loop.table
    sigma = tuple(sigma)
    if m == 1:
        return (sigma,)
    tail = (e,) * (m - 1) if tail is None else tuple(tail)
    suffix = [e] * (m + 1)
    for j in range(m - 1, 0, -1):
        suffix[j] = t[tail[j - 1]][suffix[j + 1]]
    mid = element_inverse(loop, sigma[e])
    taus = [tuple(t[sigma[z]][element_inverse(loop, suffix[1])] for z in range(q))]
    for j in range(2, m + 1):
        head = suffix[j - 1]
        rinv = element_inverse(loop, suffix[j])
        taus.append(tuple(t[t[t[head][mid]][sigma[z]]][rinv] for z in range(q)))
    return tuple(taus)


def split_blocks(inner, word):
    blocks, pos = [], 1
    for m in inner:
        blocks.append(tuple(word[pos:pos + m]))
        pos += m
    return word[0], blocks


def composition_words(outer, p, inner):
    dih = TupleLoop(dihedral_table(p))
    out = TupleLoop(cp_table(p) if outer == "cp" else zp_z2_table(p))
    words = []
    for zs in itertools.product(range(2 * p), repeat=sum(inner)):
        vs, pos = [], 0
        for m in inner:
            vs.append(fold(dih, zs[pos:pos + m]))
            pos += m
        words.append((fold(out, vs),) + zs)
    return sorted(words)


def composition_witness(outer, p, inner, word):
    dih = TupleLoop(dihedral_table(p))
    b0, blocks = split_blocks(inner, word)
    vs = [fold(dih, b) for b in blocks]
    if outer == "cp":
        *sigmas, sigma0 = chase_to_zero_cp(p, (vs[0], vs[1], b0))
    else:
        zp = TupleLoop(zp_z2_table(p))

        def col_perm(y):
            return tuple(row[y] for row in zp.table)

        sigma0 = col_perm(element_inverse(zp, b0))
        sigmas = [col_perm(element_inverse(zp, v)) for v in vs]
    taus = [tuple(sigma0)]
    for m, sig, blk in zip(inner, sigmas, blocks):
        block_taus = solve_condition_c(dih, m, sig)
        moved = tuple(t[z] for t, z in zip(block_taus, blk))
        shift = shift_isotopism(dih, moved)
        taus.extend(compose(a, b) for a, b in zip(shift, block_taus))
    return tuple(taus)


# ---------------------------------------------------------------------------
# quadratic codes over a field

class TupleField:
    """GF(p^k) with add, mul and neg tables as tuples, by polynomial
    arithmetic on the index digits."""

    def __init__(self, p, k):
        q = self.q = p ** k
        modulus = list(least_irreducible(p, k))
        polys = [_index_to_poly(i, p, k) for i in range(q)]
        self.add = tuple(tuple(_poly_to_index([(x + y) % p for x, y in zip(polys[a], polys[b])], p)
                               for b in range(q)) for a in range(q))
        self.mul = tuple(tuple(_poly_to_index(_poly_mod(_poly_mul(polys[a], polys[b], p),
                                                        modulus, p), p)
                               for b in range(q)) for a in range(q))
        self.neg = tuple(next(b for b in range(q) if self.add[a][b] == 0) for a in range(q))

    def a(self, x, y):
        return self.add[x][y]

    def s(self, x, y):
        return self.add[x][self.neg[y]]

    def m(self, x, y):
        return self.mul[x][y]


def quadratic_r(F, alpha, beta, xs):
    n = len(xs)
    acc = 0
    for i in range(n):
        for j in range(n):
            acc = F.a(acc, F.m(alpha[i][j], F.m(xs[i], xs[j])))
        acc = F.a(acc, beta[i][xs[i]])
    return acc


def quadratic_words(F, alpha, beta, n):
    q, words = F.q, []
    for xs in itertools.product(range(q), repeat=n - 1):
        tot = 0
        for v in xs:
            tot = F.a(tot, v)
        full_x = xs + (F.s(0, tot),)
        r = quadratic_r(F, alpha, beta, full_x)
        for ys in itertools.product(range(q), repeat=n - 1):
            tot = r
            for v in ys:
                tot = F.a(tot, v)
            full_y = ys + (F.s(0, tot),)
            words.append(tuple(x * q + y for x, y in zip(full_x, full_y)))
    return sorted(words)


def quadratic_witness(F, alpha, beta, word):
    q, n = F.q, len(word)
    axs = [pair_split(s, q)[0] for s in word]
    bys = [pair_split(s, q)[1] for s in word]
    taus = []
    for i in range(n):
        ai = axs[i]
        row = col = 0
        for j in range(n):
            row = F.a(row, F.m(alpha[i][j], axs[j]))
            col = F.a(col, F.m(alpha[j][i], axs[j]))
        shear = F.a(row, col)
        const = F.m(ai, row)
        beta_i = beta[i]

        def stage1(x, y):
            xp = F.s(x, ai)
            yp = F.a(y, F.m(x, shear))
            yp = F.a(F.s(yp, beta_i[xp]), beta_i[x])
            return xp, F.s(yp, const)

        _, ci = stage1(ai, bys[i])
        perm = [0] * (q * q)
        for s in range(q * q):
            x, y = pair_split(s, q)
            xp, yp = stage1(x, y)
            perm[s] = pair_join(xp, F.s(yp, ci), q)
        taus.append(tuple(perm))
    return tuple(taus)


# ---------------------------------------------------------------------------
# principal isotopes

def principal_isotope(table, a, b):
    q = len(table)
    xi = transposition(q, 0, a)
    psi = transposition(q, 0, b)
    phi = transposition(q, table[a][b], 0)
    fp = [[phi[table[xi[x]][psi[y]]] for y in range(q)] for x in range(q)]
    xi0_inv = invert(tuple(fp[x][0] for x in range(q)))
    psi0_inv = invert(tuple(fp[0][y] for y in range(q)))
    return tuple(tuple(fp[xi0_inv[x]][psi0_inv[y]] for y in range(q)) for x in range(q))


# ---------------------------------------------------------------------------
# certificate files: the loader that walked the rows one at a time

class Refused(ValueError):
    """The reference loader's refusal; its text is the package's."""


def _require(cond: bool, msg: str):
    if not cond:
        raise Refused(msg)


def _as_int(value, what: str) -> int:
    # bool is an int subtype; reject it explicitly
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"{what} must be an integer")
    return value


def _isotopism_taus(flat, n):
    """The taus of `flat`, n per isotopism, refused as `codes.isotopisms`
    refuses them: entry types first, over all taus, then one alphabet."""
    _require(all(isinstance(s, int) and not isinstance(s, bool) for t in flat for s in t),
             "each tau must be a list of integers")
    lengths = {len(t) for t in flat}
    _require(len(lengths) == 1 and lengths != {0}
             and all(sorted(t) == list(range(len(t))) for t in flat),
             "each tau must be a permutation of the same 0..q-1")
    taus = [tuple(t) for t in flat]
    return [tuple(taus[i:i + n]) for i in range(0, len(taus), n)]


def certificate_from_json(obj):
    """(mode, base, {word: taus}) of a certificate document, or Refused with
    the text of the first fault in file order: the row walk the package's
    loader made before it checked all rows at once, verbatim, with the
    isotopism check in tuple code."""
    _require(isinstance(obj, dict), "certificate must be a JSON object")
    mode = obj.get("mode")
    _require(mode in ("isotopic", "topolinear"), "mode must be isotopic or topolinear")
    base = obj.get("base")
    _require(isinstance(base, list), "base must be a word")
    rows = obj.get("witnesses")
    _require(isinstance(rows, list), "witnesses must be a list")
    words, flat = {}, []
    for row in rows:
        _require(isinstance(row, dict) and isinstance(row.get("word"), list)
                 and isinstance(row.get("taus"), list), "bad witness row")
        word = tuple(_as_int(s, "symbol") for s in row["word"])
        _require(word not in words, f"two witnesses for {word}")
        words[word] = taus = row["taus"]
        _require(len(taus) == len(base), "one permutation per coordinate")
        _require(all(isinstance(t, list) for t in taus), "each tau must be a list of integers")
        flat += taus
    witnesses = dict(zip(words, _isotopism_taus(flat, len(base)))) if words else {}
    return mode, tuple(_as_int(s, "symbol") for s in base), witnesses


# ---------------------------------------------------------------------------
# the isotopism search as it ran on per-word lists undone by trailing

class NodeLimit(Exception):
    """The reference search stopped: args are ("search nodes", limit)."""


def search_isotopisms(q, n, src_words, dst_words, pins=None, max_nodes=2_000_000):
    """Every isotopism (a tuple of n symbol permutations) carrying the word
    set `src_words` onto the MDS word set `dst_words`, honoring the pins
    {(coord, sym): sym}, in the order of the backtracking search that keeps
    three lists per word: the base-q value of its images assigned so far,
    the sum of its unassigned coordinates and their count. A word left with
    one unknown queues its forced image, read off the line index of dst; a
    word left with none is checked against the line in the direction
    assigned last. Every assignment pushes a trail entry that undo pops,
    and NodeLimit("search nodes", max_nodes) stops the search past that many
    assignments."""
    words = sorted(map(tuple, src_words))
    if len(words) != len(dst_words) or len(set(words)) != len(words):
        return
    column = [[w[i] for w in words] for i in range(n)]
    nwords = len(words)
    low = [q ** (n - 1 - i) for i in range(n)]
    high = [q * w for w in low]
    comp = [[-1] * (q ** (n - 1)) for _ in range(n)]
    for w in dst_words:
        value = 0
        for s in w:
            value = value * q + s
        for i in range(n):
            comp[i][value // high[i] * low[i] + value % low[i]] = w[i]
    slots = [[[] for _ in range(q)] for _ in range(n)]
    for widx, w in enumerate(words):
        for i, s in enumerate(w):
            slots[i][s].append(widx)

    tau = [[-1] * q for _ in range(n)]
    tinv = [[-1] * q for _ in range(n)]
    acc = [0] * nwords
    miss = [n * (n - 1) // 2] * nwords
    unk = [n] * nwords
    trail = []
    nodes = 0

    def assign(i0, a0, b0):
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
            if nodes > max_nodes:
                raise NodeLimit("search nodes", max_nodes)
            tau[i][a] = b
            tinv[i][b] = a
            trail.append((i, a, b))
            pending = []
            step = b * low[i]
            for widx in slots[i][a]:
                acc[widx] += step
                miss[widx] -= i
                unk[widx] -= 1
                if unk[widx] <= 1:
                    pending.append(widx)
            for widx in pending:
                u, k = unk[widx], acc[widx]
                j = miss[widx] if u else i
                val = comp[j][k // high[j] * low[j] + k % low[j]]
                if u:
                    queue.append((j, column[j][widx], val))
                elif val != b:
                    return False
        return True

    def undo_to(mark):
        while len(trail) > mark:
            i, a, b = trail.pop()
            tau[i][a] = -1
            tinv[i][b] = -1
            step = b * low[i]
            for widx in slots[i][a]:
                acc[widx] -= step
                miss[widx] += i
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
            yield tuple(map(tuple, tau))
            return
        i = next(i for i in range(n) if tau[i][column[i][widx]] == -1)
        a = column[i][widx]
        for b in range(q):
            if tinv[i][b] != -1:
                continue
            mark = len(trail)
            if assign(i, a, b):
                yield from dfs()
            undo_to(mark)

    if all(assign(i, a, b) for (i, a), b in (pins or {}).items()):
        yield from dfs()
