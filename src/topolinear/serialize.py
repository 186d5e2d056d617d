"""JSON interchange: canonical code files, loop tables, transitivity
certificates, and construction spec files consumed by the batch commands.

Files are `json.dumps(doc, indent=2, sort_keys=True) + "\\n"` byte for byte
(words sorted, keys sorted, two-space indent), written from the code's word
array and the certificate's witness rows, each through one template per shape
and depth filled by one `%`. Everything read is validated before use; schema
violations, unreadable files and JSON nested too deep raise MalformedInput.
A certificate's rows are checked at once, and load as arrays in word order
(`isometry.Witnesses`); only a refusal walks them. Witnesses that cannot
stack load, and are written, as a dict.
"""
from __future__ import annotations

import itertools
import json
from json.encoder import encode_basestring_ascii

import numpy as np

from .codes import Loop, MdsCode, isotopism_rows
from .constructions import (CONSTRUCTIONS, MalformedInput, _as_int, _require,
                            loop_from_json)
from .isometry import TransitivityCertificate, Witnesses, _witness_map


def dumps_canonical(obj) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True) + "\\n"`, byte for byte, an
    integer array as its `tolist()`. That call always runs the pure-Python
    encoder, so integer arrays and lists of ints are written here by one
    `_template` each; any other value goes through `json.dumps`, re-indented."""
    out: list[str] = []
    _encode(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _encode(obj, newline: str, out: list) -> None:
    """Append obj as `json.dumps(indent=2, sort_keys=True)` writes it at the
    depth whose line break (with indent) is `newline`."""
    inner = newline + "  "
    if isinstance(obj, np.ndarray) and obj.dtype.kind in "iu":
        out.append(_template(obj.shape, newline) % tuple(obj.ravel().tolist()))
    elif type(obj) is list and obj and set(map(type, obj)) == {int}:  # no bools
        out.append(_template((len(obj),), newline) % tuple(obj))
    elif type(obj) is list and obj:
        out.append("[")
        for k, item in enumerate(obj):
            out.append(inner if k == 0 else "," + inner)
            _encode(item, inner, out)
        out.append(newline + "]")
    elif type(obj) is dict and obj and set(map(type, obj)) == {str}:
        out.append("{")
        for k, key in enumerate(sorted(obj)):
            out.append((inner if k == 0 else "," + inner) + encode_basestring_ascii(key) + ": ")
            _encode(obj[key], inner, out)
        out.append(newline + "}")
    else:
        out.append(json.dumps(obj, indent=2, sort_keys=True).replace("\n", newline))


def _template(shape: tuple, newline: str) -> str:
    """An integer array of `shape` as `json.dumps(indent=2)` writes it at the
    depth of `newline`, with `%d` for each entry in ravel order."""
    if not shape:
        return "%d"
    inner = newline + "  "
    items = ("," + inner).join([_template(shape[1:], inner)] * shape[0])
    return "[" + inner + items + newline + "]" if items else "[]"


# ---------------------------------------------------------------------------
# code files

def code_to_json(M: MdsCode) -> dict:
    return _code_document(M, M.word_array().tolist())


def _code_document(M: MdsCode, words) -> dict:
    return {"q": M.q, "n": M.n, "structure": M.provenance.get("construction", "literal"),
            "words": words, "provenance": M.provenance}


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
    _write(path, dumps_canonical(_code_document(M, M.word_array())))


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:  # a directory, a missing folder, no permission
        raise MalformedInput(f"cannot write {path}: {exc.strerror}") from exc


def load_code(path: str) -> MdsCode:
    return code_from_json(_load(path))


def _load(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:  # bad JSON, an integer too long, too deep
        raise MalformedInput(f"not valid JSON: {exc}") from exc
    except FileNotFoundError:
        raise
    except OSError as exc:  # a directory, no permission, a name too long, a symlink loop
        raise MalformedInput(f"cannot read {path}: {exc.strerror}") from exc


# ---------------------------------------------------------------------------
# loop tables

def loop_to_json(loop: Loop) -> dict:
    return {"q": loop.q, "table": loop.table.tolist(), "identity": loop.identity}


def save_loop(loop: Loop, path: str):
    _write(path, dumps_canonical(loop_to_json(loop)))


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
    words, flat = _witness_rows(rows, len(base))
    try:  # every witness at once, over one alphabet
        witnesses = _witness_map(words, isotopism_rows(flat, len(base))) if len(words) else {}
    except ValueError as exc:
        raise MalformedInput(str(exc)) from exc
    return TransitivityCertificate(mode, tuple(_as_int(s, "symbol") for s in base), witnesses)


def _witness_rows(rows: list, n: int) -> tuple:
    """The words (one int64 array, else tuples) and all the taus, every row
    checked at once; only a refusal walks the rows, to name its first fault."""
    if set(map(type, rows)) <= {dict}:
        words, taus = [row.get("word") for row in rows], [row.get("taus") for row in rows]
        if set(map(type, words)) | set(map(type, taus)) <= {list}:
            keys, flat = list(map(tuple, words)), list(itertools.chain.from_iterable(taus))
            if (set(map(type, itertools.chain.from_iterable(words))) <= {int}
                    and len(set(keys)) == len(keys) and set(map(len, taus)) <= {n}
                    and set(map(type, flat)) <= {list}):
                try:
                    return np.array(words, np.int64).reshape(len(words), -1), flat
                except (ValueError, OverflowError):  # words of two lengths, a symbol past int64
                    return keys, flat
    words, flat = {}, []
    for row in rows:
        _require(isinstance(row, dict) and isinstance(row.get("word"), list)
                 and isinstance(row.get("taus"), list), "bad witness row")
        word = tuple(_as_int(s, "symbol") for s in row["word"])
        _require(word not in words, f"two witnesses for {word}")
        words[word] = taus = row["taus"]
        _require(len(taus) == n, "one permutation per coordinate")
        _require(all(isinstance(t, list) for t in taus), "each tau must be a list of integers")
        flat += taus
    return list(words), flat


def save_certificate(cert: TransitivityCertificate, path: str):
    """One record template per witness, filled by one `%` over the (k, n, q)
    rows and (k, n) words of `Witnesses`; a dict through `certificate_to_json`."""
    if not isinstance(cert.witnesses, Witnesses):  # witnesses that cannot stack
        return _write(path, dumps_canonical(certificate_to_json(cert)))
    head, _, tail = dumps_canonical({"base": list(cert.base), "mode": cert.mode,
                                     "witnesses": []}).rpartition("[]")
    words, rows, at = cert.witnesses.word_rows, cert.witnesses.rows, "\n      "
    record = '{%s"taus": %s,%s"word": %s\n    }' % (
        at, _template(rows.shape[1:], at), at, _template(words.shape[1:], at))
    values = np.hstack([rows.reshape(len(words), -1), words]).ravel().tolist()
    listing = ("[\n    " + ",\n    ".join([record] * len(words)) + "\n  ]") % tuple(values)
    _write(path, head + listing + tail)


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
