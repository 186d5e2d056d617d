"""Finite fields GF(p^k) as dense integer-indexed tables.

Elements are indices 0..q-1; index sum(c_i * p**i) stands for the
polynomial sum(c_i x^i) over GF(p) modulo a monic modulus m of degree k.
GF(p)[x]/(m) is a field exactly when m is irreducible (Lidl and
Niederreiter, *Finite Fields*, ch. 1), so m is the first monic x^k + low,
low in index order, whose ring has no zero divisor: the lexicographically
least irreducible one, recorded so outputs are reproducible.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


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
    add[x, y] = x + y, mul[x, y] = x * y and neg[x] = -x.

    Multiplication by x is one gather table, times_x: shift the digits up
    one place and fold the top digit back through x^k = -low. Then x^i * b
    is i gathers of it, and a * b = sum_i a_i (x^i * b), digit by digit."""

    def __init__(self, p: int, k: int):
        q = self.q = field_order(p, k)
        self.p, self.k = p, k
        weights = p ** np.arange(k)
        digits = np.arange(q)[:, None] // weights % p  # row b: the digits of b
        shifted = digits[np.arange(q) * p % q]  # x * b before x^k folds back: index b * p mod q
        for low in digits:  # the modulus x^k + low, low in index order
            times_x = (shifted - digits[:, -1:] * low) % p @ weights
            powers = [np.arange(q)]
            for _ in range(k - 1):
                powers.append(times_x[powers[-1]])
            mul = np.tensordot(digits, digits[np.array(powers)], 1) % p @ weights
            if (mul[1:, 1:] != 0).all():
                break
        self.modulus: tuple[int, ...] = tuple(low.tolist()) + (1,)
        # coefficients add digit by digit, so add and neg are one broadcast each
        self.add = (digits[:, None] + digits) % p @ weights
        self.mul = mul
        self.neg = -digits % p @ weights
        for table in (self.add, self.mul, self.neg):
            table.flags.writeable = False

    def __repr__(self):
        return f"FieldTable(p={self.p}, k={self.k})"


@lru_cache(maxsize=None)
def field_make(p: int, k: int = 1) -> FieldTable:
    return FieldTable(p, k)
