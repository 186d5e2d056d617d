"""Finite fields GF(p^k) as dense integer-indexed tables.

Elements are indices 0..q-1; index sum(c_i * p**i) stands for the coefficient
vector (c_0..c_{k-1}) over GF(p). Addition and multiplication are full
tables; the monic irreducible modulus is chosen as the lexicographically
least one and recorded so outputs are reproducible.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


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


def field_order(p: int, k: int) -> int:
    """The order p^k of a supported field GF(p^k), checked without building
    its tables: ValueError unless k >= 1, p is prime and p^k <= 256."""
    if k < 1:
        raise ValueError("k must be >= 1")
    # bound first: p and k may come from an untrusted file, and both the
    # power and the primality test cost time that grows with them
    if p > 256 or k > 8 or p**k > 256:
        raise ValueError(f"order {p}^{k} exceeds the supported bound 256")
    if not _is_prime(p):
        raise ValueError(f"p={p} is not prime")
    return p**k


class FieldTable:
    """GF(p^k) with its add, mul and neg tables: read-only int64 arrays,
    add[x, y] = x + y, mul[x, y] = x * y and neg[x] = -x."""

    def __init__(self, p: int, k: int):
        q = self.q = field_order(p, k)
        self.p, self.k = p, k

        modulus = next(m for m in _monic_polys(p, k) if _is_irreducible(m, p))
        self.modulus: tuple[int, ...] = tuple(modulus)
        polys = [_index_to_poly(i, p, k) for i in range(q)]
        digits, weights = np.array(polys, dtype=np.int64), p ** np.arange(k)

        def mul(a: int, b: int) -> int:
            return _poly_to_index(_poly_mod(_poly_mul(polys[a], polys[b], p), modulus, p), p)

        # coefficients add digit by digit, so add and neg are one broadcast each
        self.add = (digits[:, None] + digits) % p @ weights
        self.mul = np.array([[mul(a, b) for b in range(q)] for a in range(q)], dtype=np.int64)
        self.neg = -digits % p @ weights
        for table in (self.add, self.mul, self.neg):
            table.flags.writeable = False

    def __repr__(self):
        return f"FieldTable(p={self.p}, k={self.k})"


@lru_cache(maxsize=None)
def field_make(p: int, k: int = 1) -> FieldTable:
    return FieldTable(p, k)
