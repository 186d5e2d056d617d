"""Index lenses over structured alphabets.

Symbols are always dense integers 0..q-1. Structured views (residue-bit pairs
over a 2p-element set, pairs over a product set) are conversions on top of the
integer index, not separate element types.
"""

from __future__ import annotations


# two-indexed lens over Q_{2p}: index u = residue + p * bit, so 0_0 is 0

def to_residue_bit(u: int, p: int) -> tuple[int, int]:
    return u % p, u // p


def from_residue_bit(x: int, bit: int, p: int) -> int:
    return x % p + p * (bit & 1)


# pair lens over Q_{q1*q2}: index s = a * q2 + b

def pair_split(s: int, q2: int) -> tuple[int, int]:
    return s // q2, s % q2


def pair_join(a: int, b: int, q2: int) -> int:
    return a * q2 + b
