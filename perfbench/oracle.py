"""Known-answer checks that never call the code paths they judge.

Codes arrive as plain word tuples and symmetries as per-coordinate symbol
permutations (tuples of ints). Every check reimplements what it needs with
numpy lookups: images of words under a symmetry are looked up in the sorted
word encodings, group closure is checked by composing permutation tables, and
isometries are applied coordinate by coordinate. Each check returns None when
the evidence holds and a short reason when it does not.
"""
from __future__ import annotations

import itertools

import numpy as np


def _weights(q: int, n: int) -> np.ndarray:
    return q ** np.arange(n - 1, -1, -1, dtype=np.int64)


def _encode(arr: np.ndarray, q: int) -> np.ndarray:
    return arr @ _weights(q, arr.shape[-1])


def _table(words) -> np.ndarray:
    return np.asarray(words, dtype=np.int64)


def _perms(taus_list, n: int, q: int) -> np.ndarray | None:
    """Stack symmetries into an (k, n, q) array, or None if any entry is not
    n permutations of 0..q-1."""
    arr = np.asarray(taus_list, dtype=np.int64)
    if arr.ndim != 3 or arr.shape[1:] != (n, q):
        return None
    if not np.array_equal(np.sort(arr, axis=2), np.broadcast_to(np.arange(q), arr.shape)):
        return None
    return arr


def mds_reason(q: int, n: int, words) -> str | None:
    """Size q^(n-1), distinct words, one word on every line."""
    W = _table(words)
    if W.shape != (q ** (n - 1), n):
        return f"shape {W.shape} is not ({q ** (n - 1)}, {n})"
    if W.min() < 0 or W.max() >= q:
        return "symbol out of range"
    for i in range(n):
        rest = np.delete(W, i, axis=1)
        if len(np.unique(_encode(rest, q))) != len(W):
            return f"two words on one line in direction {i}"
    return None


def _images_in_code(W: np.ndarray, enc: np.ndarray, T: np.ndarray, q: int) -> np.ndarray:
    """For each symmetry T[k], whether it maps every word into the code."""
    n = W.shape[1]
    images = np.stack([T[:, i, :][:, W[:, i]] for i in range(n)], axis=2)
    return np.isin(_encode(images, q), enc).all(axis=1)


def certificate_reason(q: int, n: int, words, base, witnesses: dict) -> str | None:
    """Transitivity evidence: one symmetry per word, each carrying the base
    word to its word. `witnesses` maps word tuples to taus."""
    W = _table(words)
    keys = [tuple(int(s) for s in w) for w in words]
    enc = np.sort(_encode(W, q))
    base = tuple(int(s) for s in base)
    if base not in set(keys):
        return "base word not in code"
    if set(witnesses) != set(keys):
        return "witness words differ from the code"
    T = _perms([witnesses[w] for w in keys], n, q)
    if T is None:
        return "a witness is not a tuple of permutations"
    base_img = T[:, np.arange(n), np.asarray(base)]
    if not np.array_equal(base_img, W):
        return "a witness misses its word"
    ok = _images_in_code(W, enc, T, q)
    if not ok.all():
        return f"witness for {keys[int(np.argmin(ok))]} is not a symmetry"
    return None


def regular_group_reason(q: int, n: int, words, elements) -> str | None:
    """Sharply transitive group on the code: |M| symmetries whose images of
    one codeword (the zero word when present) are the code, once each, and
    which are closed under composition."""
    W = _table(words)
    m = len(W)
    enc = np.sort(_encode(W, q))
    G = _perms(list(elements), n, q)
    if G is None:
        return "an element is not a tuple of permutations"
    if len(G) != m:
        return f"group has {len(G)} elements, code has {m} words"
    base = np.zeros(n, dtype=np.int64) if enc[0] == 0 else W[0]
    coords = np.arange(n)
    base_enc = _encode(G[:, coords, base], q)
    order = np.argsort(base_enc)
    if not np.array_equal(base_enc[order], enc):
        return "images of the base word are not the code, once each"
    if not _images_in_code(W, enc, G, q).all():
        return "an element is not a symmetry"
    idx = coords[:, None]
    for a in range(m):
        comp = G[a][idx, G]  # comp[b] = G[a] o G[b], coordinatewise
        which = order[np.searchsorted(enc, _encode(comp[:, coords, base], q))]
        if not np.array_equal(comp, G[which]):
            return "not closed under composition"
    return None


def apply_isometry(words, eps, taus) -> np.ndarray:
    """Coordinate j moves to position eps[j], then coordinate i is relabelled
    by taus[i]."""
    W = _table(words)
    out = np.empty_like(W)
    out[:, list(eps)] = W
    T = np.asarray(taus, dtype=np.int64)
    return np.stack([T[i][out[:, i]] for i in range(W.shape[1])], axis=1)


def isometry_reason(q: int, n: int, words1, words2, eps, taus) -> str | None:
    if sorted(int(v) for v in eps) != list(range(n)):
        return "coordinate map is not a permutation"
    if _perms([taus], n, q) is None:
        return "symbol maps are not permutations"
    moved = np.sort(_encode(apply_isometry(words1, eps, taus), q))
    if not np.array_equal(moved, np.sort(_encode(_table(words2), q))):
        return "isometry image differs from the target code"
    return None


def word_in_code(words, word) -> bool:
    return word is not None and tuple(word) in {tuple(w) for w in words}


# ---------------------------------------------------------------------------
# q = 4 standard forms: u = x + 2y, x-bits sum to 0, y-bits sum to r(x)

def anf_degree(masks) -> int:
    return max((bin(m).count("1") for m in masks), default=0)


def form_degree(monomials, n: int) -> int:
    """Degree of a form whose monomials use only the first n-1 variables,
    so reduction modulo the x-parity equation leaves it unchanged."""
    if any(i >= n - 1 for m in monomials for i in m):
        raise ValueError("monomials must avoid the eliminated last variable")
    if len(set(monomials)) != len(monomials):
        raise ValueError("repeated monomial")
    return max((len(m) for m in monomials), default=0)


def standard_form_reason(words, taus, masks, n: int) -> str | None:
    """After relabelling by taus every word has x-parity 0 and y-parity equal
    to the xor of the reported monomials (masks over the first n-1 x-bits)."""
    if _perms([taus], n, 4) is None:
        return "relabelling is not a tuple of permutations"
    img = np.stack([np.asarray(taus[i])[_table(words)[:, i]] for i in range(n)], axis=1)
    x, y = img & 1, img >> 1
    if (x.sum(axis=1) % 2).any():
        return "x-parity is not zero"
    head = x[:, : n - 1] @ (1 << np.arange(n - 1))
    r = np.zeros(len(img), dtype=np.int64)
    for m in masks:
        r ^= ((head & m) == m).astype(np.int64)
    if not np.array_equal(y.sum(axis=1) % 2, r):
        return "y-parity differs from the reported form"
    return None


# ---------------------------------------------------------------------------
# quadratic codes over a prime field, rebuilt from first principles

def prime_quadratic_words(p: int, n: int, alpha) -> list[tuple[int, ...]]:
    """Pairs (x, y) over Z_p: x sums to 0, y sums to -r(x) with
    r(x) = sum alpha[i][j] x_i x_j; symbol x * p + y."""
    words = []
    for xs in itertools.product(range(p), repeat=n - 1):
        x = xs + ((-sum(xs)) % p,)
        r = sum(alpha[i][j] * x[i] * x[j] for i in range(n) for j in range(n)) % p
        for ys in itertools.product(range(p), repeat=n - 1):
            y = ys + ((-(r + sum(ys))) % p,)
            words.append(tuple(a * p + b for a, b in zip(x, y)))
    return sorted(words)
