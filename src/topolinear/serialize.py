"""JSON interchange: canonical code files, loop tables, transitivity
certificates, and construction spec files consumed by the batch commands.

Code files are bit-exact canonical: words sorted lexicographically, keys
sorted, two-space indent, trailing newline. Everything read from disk is
validated before use; schema violations raise MalformedInput.
"""
from __future__ import annotations

import json

from .codes import Loop, MdsCode, isotopisms
from .constructions import (CONSTRUCTIONS, MalformedInput, _as_int, _require,
                            loop_from_json)
from .isometry import TransitivityCertificate


def dumps_canonical(obj) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True) + "\\n"`, byte for byte.
    That call always runs the pure-Python encoder, so the lists of ints that
    make up code files and certificates are written here with one join each;
    any other value goes through `json.dumps`, re-indented to its depth."""
    out: list[str] = []
    _encode(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _encode(obj, newline: str, out: list) -> None:
    """Append obj as `json.dumps(indent=2, sort_keys=True)` writes it at the
    depth whose line break (with indent) is `newline`."""
    inner = newline + "  "
    if type(obj) is list and obj:
        if set(map(type, obj)) == {int}:  # no bools, no int subclasses
            out.append("[" + inner + ("," + inner).join(map(str, obj)) + newline + "]")
            return
        out.append("[")
        for k, item in enumerate(obj):
            out.append(inner if k == 0 else "," + inner)
            _encode(item, inner, out)
        out.append(newline + "]")
    elif type(obj) is dict and obj and set(map(type, obj)) == {str}:
        out.append("{")
        for k, key in enumerate(sorted(obj)):
            out.append((inner if k == 0 else "," + inner) + json.dumps(key) + ": ")
            _encode(obj[key], inner, out)
        out.append(newline + "}")
    else:
        out.append(json.dumps(obj, indent=2, sort_keys=True).replace("\n", newline))


# ---------------------------------------------------------------------------
# code files

def code_to_json(M: MdsCode) -> dict:
    return {
        "q": M.q,
        "n": M.n,
        "structure": M.provenance.get("construction", "literal"),
        "words": M.word_array().tolist(),
        "provenance": M.provenance,
    }


def code_from_json(obj) -> MdsCode:
    _require(isinstance(obj, dict), "code file must be a JSON object")
    q = _as_int(obj.get("q"), "q")
    n = _as_int(obj.get("n"), "n")
    _require(q >= 1 and n >= 2, "q must be positive and n at least 2")
    words = obj.get("words")
    _require(isinstance(words, list) and words, "words must be a nonempty list")
    _require(all(isinstance(w, list) and len(w) == n for w in words),
             f"every word must be a list of {n} symbols")
    prov = obj.get("provenance")
    _require(prov is None or isinstance(prov, dict), "provenance must be an object")
    try:
        return MdsCode(q, n, words, provenance=prov)
    except ValueError as exc:
        raise MalformedInput(str(exc)) from exc


def save_code(M: MdsCode, path: str):
    with open(path, "w") as fh:
        fh.write(dumps_canonical(code_to_json(M)))


def load_code(path: str) -> MdsCode:
    return code_from_json(_load(path))


def _load(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to parse
        raise MalformedInput(f"not valid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# loop tables

def loop_to_json(loop: Loop) -> dict:
    return {"q": loop.q, "table": loop.table.tolist(), "identity": loop.identity}


def save_loop(loop: Loop, path: str):
    with open(path, "w") as fh:
        fh.write(dumps_canonical(loop_to_json(loop)))


def load_loop(path: str) -> Loop:
    return loop_from_json(_load(path))


# ---------------------------------------------------------------------------
# certificates

def certificate_to_json(cert: TransitivityCertificate) -> dict:
    rows = [{"word": list(w), "taus": g.rows.tolist()}
            for w, g in sorted(cert.witnesses.items())]
    return {"mode": cert.mode, "base": list(cert.base), "witnesses": rows}


def certificate_from_json(obj) -> TransitivityCertificate:
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
    try:  # every witness at once, over one alphabet
        witnesses = dict(zip(words, isotopisms(flat, len(base)))) if words else {}
    except ValueError as exc:
        raise MalformedInput(str(exc)) from exc
    return TransitivityCertificate(mode, tuple(_as_int(s, "symbol") for s in base), witnesses)


def save_certificate(cert: TransitivityCertificate, path: str):
    with open(path, "w") as fh:
        fh.write(dumps_canonical(certificate_to_json(cert)))


def load_certificate(path: str) -> TransitivityCertificate:
    return certificate_from_json(_load(path))


# ---------------------------------------------------------------------------
# construction spec files

def build_from_spec(obj) -> MdsCode:
    """Build the code a construction spec describes.

    Schemas: composition {outer, p, inner}, quadratic {p, k, n, r|alpha
    [, beta]}, iterated {loop, n}, graph {loop}. The `construction` key is
    optional when the fields identify the schema.
    """
    _require(isinstance(obj, dict), "construction spec must be a JSON object")
    kind = obj.get("construction")
    if kind is None:
        if "outer" in obj:
            kind = "composition"
        elif "r" in obj or "alpha" in obj:
            kind = "quadratic"
        elif "loop" in obj and "n" in obj:
            kind = "iterated"
        elif "loop" in obj:
            kind = "graph"
        else:
            raise MalformedInput("cannot identify the construction schema")
    _require(isinstance(kind, str) and kind in CONSTRUCTIONS,
             f"unknown construction {kind!r}")
    entry = CONSTRUCTIONS[kind]
    try:
        return entry.build(entry.parse(obj))
    except MalformedInput:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise MalformedInput(str(exc)) from exc


def load_spec(path: str) -> MdsCode:
    return build_from_spec(_load(path))
