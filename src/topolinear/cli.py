"""Batch commands over the JSON formats: construct, verify, classify,
equivalent, count, gloop.

Exit codes: 0 verdict true / command succeeded, 1 verdict false, 2 malformed
input (a certificate that does not fit the code, a non-MDS code to search),
3 budget exhausted or inconclusive, 4 internal error: any other exception,
reported on one line. A crash never exits 1. Every command is deterministic
given its inputs; verdict paths never consult randomness.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .budget import DEFAULT_BUDGET, BudgetExceeded, SearchBudget
from .classify_q4 import classify
from .codes import is_mds, require_mds
from .counting import lower_bound_report, quadratic_form_count, ratio_report
from .fields import field_order
from .isometry import (TransitivityCertificate, equivalent_codes,
                       is_isotopically_transitive, is_topolinear)
from .loops import is_g_loop
from .constructions import BUILTIN_LOOPS, MalformedInput, builtin_loop, builtin_order
from .serialize import (load_certificate, load_code, load_loop, load_spec,
                        save_certificate, save_code)

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_MALFORMED = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _budget(args) -> SearchBudget:
    nodes = getattr(args, "budget_states", None)
    return DEFAULT_BUDGET if nodes is None else replace(DEFAULT_BUDGET, max_nodes=nodes)


def _emit(args, human: str, payload: dict):
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_construct(args) -> int:
    M = load_spec(args.spec)
    if args.certificate:
        res = is_isotopically_transitive(M, budget=_budget(args))
        if not res.transitive or res.certificate is None:
            print(f"no transitivity certificate: code is not transitive "
                  f"(failing word {res.failing_word})", file=sys.stderr)
            return EXIT_FALSE
        cert = res.certificate
        upgraded = TransitivityCertificate("topolinear", cert.base, cert.witnesses)
        if upgraded.verify(M)[0]:
            cert = upgraded
    save_code(M, args.out)  # after the verdict: a refusal leaves no file
    if args.certificate:
        save_certificate(cert, args.certificate)
    _emit(args, f"wrote {len(M)} words (q={M.q}, n={M.n}) to {args.out}",
          {"q": M.q, "n": M.n, "words": len(M), "out": args.out})
    return EXIT_TRUE


def _require_fit(cert: TransitivityCertificate, M) -> None:
    """A certificate for other word lengths or another alphabet is malformed
    input for this code, not a false verdict."""
    if len(cert.base) != M.n or any(len(w) != M.n for w in cert.witnesses):
        raise MalformedInput(f"certificate words do not have the code's length {M.n}")
    if any(g.q != M.q for g in cert.witnesses.values()):
        raise MalformedInput(f"certificate permutations do not act on the code's "
                             f"{M.q} symbols")


def _require_mds(M):
    """The searches rest on line completion, which is sound only on MDS codes."""
    try:
        require_mds(M)
    except ValueError as exc:
        raise MalformedInput(str(exc)) from None
    return M


def _cmd_verify(args) -> int:
    M = load_code(args.code)
    if args.mode == "mds":
        verdict = is_mds(M)
        _emit(args, f"mds: {bool(verdict)}" + (f" ({verdict.reason})" if verdict.reason else ""),
              {"mode": "mds", "ok": bool(verdict), "reason": verdict.reason})
        return EXIT_TRUE if verdict else EXIT_FALSE

    if args.certificate:
        cert = load_certificate(args.certificate)
        _require_fit(cert, M)
        if args.mode == "topolinear" and cert.mode != "topolinear":
            # replay the stronger group checks regardless of the stored tag
            cert = TransitivityCertificate("topolinear", cert.base, cert.witnesses)
        ok, why = cert.verify(M)
        _emit(args, f"{args.mode} (certificate replay): {ok}" + (f" ({why})" if why else ""),
              {"mode": args.mode, "ok": ok, "reason": why, "replay": True})
        return EXIT_TRUE if ok else EXIT_FALSE

    _require_mds(M)
    budget = _budget(args)
    if args.mode == "transitive":
        res = is_isotopically_transitive(M, budget=budget)
        detail = "" if res.transitive else f" (failing word {res.failing_word})"
        if res.reason:
            detail += f" ({res.reason})"
        _emit(args, f"transitive: {res.transitive}{detail}",
              {"mode": "transitive", "ok": res.transitive, "method": res.method,
               "reason": res.reason, "searches": res.searches,
               "failing_word": list(res.failing_word) if res.failing_word else None})
        return EXIT_TRUE if res.transitive else EXIT_FALSE
    res = is_topolinear(M, budget=budget)
    _emit(args, f"topolinear: {res.status} ({res.reason})",
          {"mode": "topolinear", "ok": res.status, "reason": res.reason})
    if res.status is None:
        return EXIT_BUDGET
    return EXIT_TRUE if res.status else EXIT_FALSE


def _cmd_classify(args) -> int:
    M = _require_mds(load_code(args.code))
    if M.q != 4:
        raise MalformedInput("classification is implemented for q = 4 only")
    verdict = classify(M)
    payload = {
        "semilinear": verdict.semilinear,
        "degree": verdict.degree,
        "transitive": verdict.transitive,
    }
    human = (f"semilinear: {verdict.semilinear}, degree: {verdict.degree}, "
             f"transitive: {verdict.transitive}")
    _emit(args, human, payload)
    return EXIT_TRUE if verdict.transitive else EXIT_FALSE


def _cmd_equivalent(args) -> int:
    M1 = _require_mds(load_code(args.code1))
    M2 = _require_mds(load_code(args.code2))
    w = equivalent_codes(M1, M2, budget=_budget(args))
    if w is None:
        _emit(args, "equivalent: False", {"equivalent": False})
        return EXIT_FALSE
    payload = {"equivalent": True,
               "coordinate_permutation": list(w.eps),
               "taus": w.iso.rows.tolist()}
    _emit(args, f"equivalent: True (coordinate permutation {w.eps})", payload)
    return EXIT_TRUE


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise MalformedInput(f"bad integer list {text!r}") from exc


def _cmd_count(args) -> int:
    Ns = _parse_int_list(args.partitions)
    if any(N < 1 for N in Ns):
        raise MalformedInput("partition sizes must be positive")
    params = _parse_int_list(args.forms)
    if len(params) != 3 or params[2] < 2:
        raise MalformedInput("--forms needs q,s,n with n >= 2")
    q, s, n = params
    try:
        field_order(q, s)  # bounds q^s before anything is sized by it
    except ValueError as exc:
        raise MalformedInput(f"--forms: {exc}") from exc
    quadratic_form_count(q ** s, n)  # refuses an oversized count before either report
    rows = ratio_report(Ns)
    rep = lower_bound_report(q, s, n)
    payload = {
        "partitions": [{"N": r.N, "exact": r.exact, "estimate": r.estimate,
                        "ratio": r.ratio} for r in rows],
        "forms": {"q": q, "s": s, "n": n, "count": rep.form_count,
                  "verified": rep.verified,
                  "classes": rep.classes, "note": rep.note},
    }
    if args.json:
        print(json.dumps(payload, sort_keys=True))
        return EXIT_TRUE
    print(f"{'N':>5} {'exact':>15} {'estimate':>18} {'ratio':>8}")
    for r in rows:
        print(f"{r.N:>5} {r.exact:>15} {r.estimate:>18.1f} {r.ratio:>8.4f}")
    print(f"quadratic parts over GF({q}^{s}), n={n}: {rep.form_count}")
    if rep.verified:
        print(f"pairwise equivalence resolved: {len(rep.classes)} classes "
              f"{[len(c) for c in rep.classes]}")
    else:
        print(f"count {rep.note}")
    return EXIT_TRUE


def _cmd_gloop(args) -> int:
    if args.loop in BUILTIN_LOOPS:
        loop, order = None, builtin_order(args.loop, args.p)
    else:
        loop = load_loop(args.loop)
        order = loop.q
    if order > args.bound:
        print(f"order {order} over bound {args.bound}", file=sys.stderr)
        return EXIT_BUDGET
    if loop is None:
        loop = builtin_loop(args.loop, args.p)
    verdict = is_g_loop(loop, bound=args.bound)
    if verdict:
        _emit(args, "g-loop: True", {"g_loop": True})
        return EXIT_TRUE
    a, b, _iso = verdict.counterexample
    _emit(args, f"g-loop: False (principal isotope at a={a}, b={b} is not isomorphic)",
          {"g_loop": False, "counterexample": {"a": a, "b": b}})
    return EXIT_FALSE


# ---------------------------------------------------------------------------
# parser

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="topolinear",
        description="Construct, certify and classify distance-2 MDS codes.")
    sub = ap.add_subparsers(dest="command", required=True)

    def budget_flag(p):
        p.add_argument("--budget-states", type=int, default=None,
                       help="search-node budget (default %d)" % DEFAULT_BUDGET.max_nodes)

    def json_flag(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("construct", help="build a code from a construction spec file")
    p.add_argument("spec", help="construction spec JSON")
    p.add_argument("out", help="output code file")
    p.add_argument("--certificate", help="also emit a transitivity certificate here")
    budget_flag(p); json_flag(p)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="check a code file, optionally by certificate replay")
    p.add_argument("code", help="code file JSON")
    p.add_argument("--mode", choices=("mds", "transitive", "topolinear"),
                   default="mds")
    p.add_argument("--certificate", help="certificate file to replay (no search)")
    budget_flag(p); json_flag(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("classify", help="structure verdict for a q=4 code file")
    p.add_argument("code")
    json_flag(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("equivalent", help="search for an isometry between two code files")
    p.add_argument("code1")
    p.add_argument("code2")
    budget_flag(p); json_flag(p)
    p.set_defaults(func=_cmd_equivalent)

    p = sub.add_parser("count", help="partition ratios and quadratic-form reports")
    p.add_argument("--partitions", default="10,20,30,40,50,60,70,80,90,100",
                   help="comma-separated N values")
    p.add_argument("--forms", default="2,1,3", help="q,s,n for the form sweep")
    json_flag(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("gloop", help="G-loop verdict for a builtin or loop table file")
    p.add_argument("loop", help="builtin name (%s) or a loop JSON file"
                   % "/".join(BUILTIN_LOOPS))
    p.add_argument("--p", type=int, default=None, help="parameter for builtin loops")
    p.add_argument("--bound", type=int, default=12, help="largest order searched")
    json_flag(p)
    p.set_defaults(func=_cmd_gloop)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except MalformedInput as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except Exception as exc:  # noqa: BLE001 - the exit-code contract's last resort
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
