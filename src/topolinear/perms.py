"""Permutations of {0..q-1} as tuples, with 0-based index conventions."""

from __future__ import annotations

import random


def identity_perm(q: int) -> tuple[int, ...]:
    return tuple(range(q))


def compose(a, b) -> tuple[int, ...]:
    """(a o b)(x) = a(b(x)); b is applied first."""
    return tuple(a[b[x]] for x in range(len(a)))


def invert(a) -> tuple[int, ...]:
    out = [0] * len(a)
    for x, y in enumerate(a):
        out[y] = x
    return tuple(out)


def transposition(q: int, i: int, j: int) -> tuple[int, ...]:
    """The permutation interchanging i and j, fixing everything else."""
    out = list(range(q))
    out[i], out[j] = j, i
    return tuple(out)


def random_permutation(q: int, rng: random.Random) -> tuple[int, ...]:
    out = list(range(q))
    rng.shuffle(out)
    return tuple(out)

