"""Permutations of {0..q-1} as tuples, with 0-based index conventions."""

from __future__ import annotations

import random


def compose(a, b) -> tuple[int, ...]:
    """(a o b)(x) = a(b(x)); b is applied first."""
    return tuple(a[b[x]] for x in range(len(a)))


def invert(a) -> tuple[int, ...]:
    out = [0] * len(a)
    for x, y in enumerate(a):
        out[y] = x
    return tuple(out)


def random_permutation(q: int, rng: random.Random) -> tuple[int, ...]:
    out = list(range(q))
    rng.shuffle(out)
    return tuple(out)

