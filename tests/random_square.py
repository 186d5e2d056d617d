"""Seeded random Latin squares for tests: a row-by-row randomized
backtracking filler, fine for q <= 8. A seed always gives the same square."""
import random

from topolinear.codes import BinaryQuasigroup


def random_latin_square(q: int, rng: random.Random) -> BinaryQuasigroup:
    while True:
        rows: list[list[int]] = []
        cols = [set(range(q)) for _ in range(q)]
        ok = True
        for _ in range(q):
            row = _random_row(q, cols, rng)
            if row is None:
                ok = False
                break
            rows.append(row)
            for c, v in enumerate(row):
                cols[c].discard(v)
        if ok:
            return BinaryQuasigroup(rows)


def _random_row(q, cols, rng):
    row = [-1] * q
    def fill(c):
        if c == q:
            return True
        options = [v for v in cols[c] if v not in row[:c]]
        rng.shuffle(options)
        for v in options:
            row[c] = v
            if fill(c + 1):
                return True
        row[c] = -1
        return False
    if fill(0):
        return row
    return None
