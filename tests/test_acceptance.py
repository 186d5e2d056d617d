"""Acceptance gate: one test per release criterion, one report line each.

Each test evaluates its criterion as stated and records a PASS/FAIL line
(printed after the run by conftest). The assertions pin the machine-verified
facts, so a FAIL line here means the stated criterion itself is wrong, not
that the build is broken; the one such case carries a pointer to the
decision ledger.
"""
import itertools
import random
import time

from topolinear.budget import SearchBudget
from topolinear.classify_q4 import (all_latin_squares, classify, code_h,
                                    standard_semilinear_code)
from topolinear.codes import MdsCode, NAryQuasigroup, graph_of, is_mds
from topolinear.constructions import (CompositionSpec, QuadraticSpec,
                                      chase_to_zero_cp, composition_code,
                                      cp_regular_witness, ic_p_generators,
                                      quadratic_code, quadratic_witness)
from topolinear.counting import partition_exact, lower_bound_report, ratio_report
from topolinear.isometry import (TransitivityCertificate, autotopism_search,
                                 equivalent_codes, is_isotopically_transitive,
                                 is_topolinear, mulclose)
from topolinear.codes import (cyclic_loop, graph_code, make_cp, make_dihedral,
                              twisted_graph_code)
from topolinear.loops import find_non_g_loop_order6, is_g_loop
from random_square import random_latin_square

REPORT: list[tuple[int, bool, str]] = []


def record(number: int, passed: bool, detail: str):
    REPORT.append((number, passed, detail))


def lines(q, n):
    for free in range(n):
        for rest in itertools.product(range(q), repeat=n - 1):
            yield frozenset(rest[:free] + (s,) + rest[free:] for s in range(q))


def test_criterion_1_mds_certification():
    t0 = time.monotonic()
    M = composition_code(CompositionSpec("cp", 3, (1, 1)))
    ok = len(M) == 36
    words = set(M.words)
    line_count = 0
    for line in lines(6, 3):
        line_count += 1
        ok = ok and len(words & line) == 1
    ok = ok and line_count == 3 * 36 and bool(is_mds(M))
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    record(1, ok, f"36-word composition code, one point on each of {line_count} "
                  f"lines, {elapsed:.2f}s")
    assert ok


def test_criterion_2_explicit_autotopisms():
    t0 = time.monotonic()
    failures = 0
    checked_maps = 0
    checked_words = 0
    for p in (3, 5):
        M = twisted_graph_code(p)
        for g in ic_p_generators(p):
            checked_maps += 1
            if not g.is_automorphism_of(M):
                failures += 1
        base = (0, 0, 0)
        for w in M.words:
            checked_words += 1
            if chase_to_zero_cp(p, w).apply_word(w) != base:
                failures += 1
    elapsed = time.monotonic() - t0
    ok = failures == 0 and checked_words == 36 + 100 and elapsed < 1.0
    record(2, ok, f"{checked_maps} family maps and {checked_words} chases, "
                  f"{failures} failures, {elapsed:.2f}s")
    assert ok


def test_criterion_3_topolinearity_of_the_twisted_loop():
    details = []
    ok = True
    for p in (3, 5):
        M = twisted_graph_code(p)
        witnesses = {w: cp_regular_witness(p, w) for w in M.words}
        replay = TransitivityCertificate("topolinear", (0, 0, 0), witnesses).verify(M)
        order = len(mulclose(witnesses.values()))
        ok = ok and replay == (True, None) and order == (2 * p) ** 2 == len(M)
        details.append(f"p={p}: order {order}")
        # control: the three families together overshoot, so their closure
        # is transitive but not sharply transitive
        full = mulclose(ic_p_generators(p))
        ok = ok and len(full) == 4 * p ** 3 == p * len(M)
    record(3, ok, "the closed-form witnesses replay as a topolinear certificate, "
                  "a sharply transitive group (" + ", ".join(details) + "); the "
                  "unrestricted family closure is p times larger than the code")
    assert ok


def test_criterion_4_quadratic_family():
    t0 = time.monotonic()
    cases = []
    for n in (3, 4):
        cases.append((n, []))
        cases.append((n, [(0, 1)]))
        if n == 4:
            cases.append((n, [(0, 1), (2, 3)]))
    ok = True
    for n, pairs in cases:
        alpha = [[0] * n for _ in range(n)]
        for i, j in pairs:
            alpha[i][j] = 1
        spec = QuadraticSpec.make(2, 1, n, alpha=alpha)
        M = quadratic_code(spec)
        ok = ok and bool(is_mds(M))
        base = (0,) * n
        for w in M.words:
            g = quadratic_witness(spec, w)
            if g.apply_word(w) != base or not g.is_automorphism_of(M):
                ok = False
                break
        ok = ok and is_topolinear(M).status is True
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 10.0
    record(4, ok, f"{len(cases)} (n, r) cases: mds, per-word witnesses, "
                  f"topolinear, {elapsed:.1f}s")
    assert ok


def test_criterion_5_q4_classification_sweep():
    t0 = time.monotonic()
    squares = all_latin_squares(4)
    disagreements = 0
    for table in squares:
        M = graph_of(NAryQuasigroup(table))
        fast = classify(M)
        brute = is_isotopically_transitive(M, method="pinned")
        if bool(fast) != bool(brute):
            disagreements += 1
    elapsed = time.monotonic() - t0
    ok = len(squares) == 576 and disagreements == 0 and elapsed < 300.0
    record(5, ok, f"576 order-4 squares, classify vs brute force: "
                  f"{disagreements} disagreements, {elapsed:.1f}s")
    assert ok


def test_criterion_6_negative_results():
    H = code_h()
    r_codes = {name: standard_semilinear_code(4, mono) for name, mono in
               [("r1", []), ("r2", [(0, 1), (2, 3)]), ("r3", [(0, 1)]),
                ("r4", [(0, 1, 2)])]}

    h_res = is_isotopically_transitive(H, method="pinned")
    r4_res = is_isotopically_transitive(r_codes["r4"], method="pinned")
    positives = {name: is_isotopically_transitive(r_codes[name], method="pinned")
                 for name in ("r1", "r2", "r3")}
    fives = list(r_codes.values()) + [H]
    inequivalent = all(equivalent_codes(a, b) is None
                       for a, b in itertools.combinations(fives, 2))

    as_stated = ((not h_res.transitive) and (not r4_res.transitive)
                 and all(v.transitive for v in positives.values())
                 and inequivalent)
    record(6, as_stated,
           "r4 fails with pinned-search word "
           f"{r4_res.failing_word}, r1-r3 pass, all five codes pairwise "
           "inequivalent; but the pair code H is isotopically transitive "
           "(sharply transitive group of order 64, certificate replay "
           "verified), so this criterion's H clause cannot hold")

    # machine truth, independently re-verified elsewhere in the suite
    assert not r4_res.transitive and r4_res.failing_word is not None
    assert all(v.transitive for v in positives.values())
    assert inequivalent
    assert h_res.transitive
    assert h_res.certificate.verify(H) == (True, None)
    assert not as_stated


def test_criterion_7_g_loop_suite():
    verdicts = {
        "C3": is_g_loop(make_cp(3)),
        "C5": is_g_loop(make_cp(5)),
        "Z6": is_g_loop(cyclic_loop(6)),
        "D3": is_g_loop(make_dihedral(3)),
        "D5": is_g_loop(make_dihedral(5)),
    }
    fixture = find_non_g_loop_order6()
    neg = is_g_loop(fixture)
    ok = all(bool(v) for v in verdicts.values()) and not neg
    ok = ok and neg.counterexample is not None
    a, b, _ = neg.counterexample
    record(7, ok, f"C3 C5 Z6 D3 D5 all G-loops; order-6 fixture fails at "
                  f"principal isotope ({a}, {b})")
    assert ok


def test_criterion_8_counting():
    def dp(N):
        table = [1] + [0] * N
        for part in range(1, N + 1):
            for total in range(part, N + 1):
                table[total] += table[total - part]
        return table[N]

    ok = all(partition_exact(N) == dp(N) for N in range(31))
    ok = ok and partition_exact(10) == 42 and partition_exact(20) == 627
    rows = ratio_report([10, 100])
    ok = ok and abs(1 - rows[1].ratio) < abs(1 - rows[0].ratio)
    rep = lower_bound_report(2, 1, 3)
    resolved = rep.verified and rep.classes is not None
    pairs_with_witness = len(rep.witnesses)
    ok = ok and resolved and rep.form_count == 8
    record(8, ok, f"recurrence = oracle to N=30, ratio tightens 10 -> 100, "
                  f"8 forms fully resolved into {len(rep.classes)} classes "
                  f"({pairs_with_witness} witnessed pairs)")
    assert ok


def test_criterion_9_property_suites():
    rng = random.Random(17)
    flips_ok = True
    for _ in range(5):
        q = rng.randrange(4, 7)
        sq = random_latin_square(q, rng)
        M = graph_code(sq)
        i, j = rng.randrange(q), rng.randrange(q)
        old = sq.table[i][j]
        new = (old + 1 + rng.randrange(q - 1)) % q
        words = [w for w in M.words if w[:2] != (i, j)] + [(i, j, new)]
        flips_ok = flips_ok and not is_mds(MdsCode(q, 3, words))

    from topolinear.codes import parity_code
    group = list(autotopism_search(parity_code(4, 3)))
    elems = set(group)
    closed = all(a.compose(b) in elems for a in elems for b in elems)
    inverted = all(g.inverse() in elems for g in elems)
    ok = flips_ok and closed and inverted and len(elems) == 32
    record(9, ok, f"5 single-entry flips all break the mds property; the "
                  f"q=4 parity symmetry group ({len(elems)} elements) is "
                  f"closed under composition and inversion")
    assert ok
