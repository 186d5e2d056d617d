import dataclasses
import functools
import itertools
import math
import random
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from topolinear import isometry
from topolinear.budget import DEFAULT_BUDGET, BudgetExceeded, SearchBudget
from topolinear.classify_q4 import (all_latin_squares, code_h,
                                    standard_semilinear_code)
from topolinear.codes import MdsCode, NAryQuasigroup, graph_of, is_mds, parity_code
from topolinear.constructions import (CONSTRUCTIONS, CompositionSpec,
                                      IteratedGroupSpec, QuadraticSpec,
                                      chase_to_zero_cp, composition_code,
                                      composition_witness, cp_autotopism_a1,
                                      cp_autotopism_a2, cp_autotopism_a3,
                                      cp_regular_generators, cp_regular_witness,
                                      cp_shear, ic_p_generators,
                                      iterated_code, quadratic_code,
                                      quadratic_witness)
from topolinear.counting import upper_triangular_forms
from topolinear.isometry import (Isometry, Isotopism, TransitivityCertificate,
                                 _regular_subgroup_search, autotopism_search,
                                 equivalent_codes, is_isotopically_transitive,
                                 is_topolinear, mulclose, search_isotopisms)
from topolinear.codes import Loop, graph_code, make_dihedral, twisted_graph_code
from topolinear.serialize import build_from_spec
from test_constructions import regular_group_iterated
import tuple_reference
from tuple_reference import random_permutation


def random_isotopism(q, n, rng):
    return Isotopism(tuple(random_permutation(q, rng) for _ in range(n)))


def test_isotopism_compose_applies_right_factor_first():
    rng = random.Random(0)
    f = random_isotopism(3, 2, rng)
    g = random_isotopism(3, 2, rng)
    w = (1, 2)
    assert f.compose(g).apply_word(w) == f.apply_word(g.apply_word(w))


def test_isotopism_inverse():
    rng = random.Random(1)
    for _ in range(10):
        f = random_isotopism(4, 3, rng)
        w = tuple(rng.randrange(4) for _ in range(3))
        assert f.inverse().apply_word(f.apply_word(w)) == w


def test_search_round_trips_random_isotopisms():
    rng = random.Random(2)
    M = parity_code(3, 3)
    for _ in range(10):
        f = random_isotopism(3, 3, rng)
        image = f.apply_code(M)
        found = next(search_isotopisms(M, image), None)
        assert found is not None
        assert found.apply_code(M).words == image.words


def brute_autotopisms(M):
    """Independent full enumeration over all permutation tuples; tiny q only."""
    perms = list(itertools.permutations(range(M.q)))
    out = []
    words = set(M.words)
    for taus in itertools.product(perms, repeat=M.n):
        g = Isotopism(taus)
        if all(g.apply_word(w) in words for w in M.words):
            out.append(g)
    return out


def test_autotopism_search_agrees_with_brute_force_on_q2():
    M = parity_code(2, 3)
    found = sorted(g.taus for g in autotopism_search(M))
    brute = sorted(g.taus for g in brute_autotopisms(M))
    assert found == brute
    assert len(found) == 4  # translations by the code itself, nothing more


def by_base_image(group, base):
    """Base-word image -> the elements of `group` carrying the base word there."""
    fibres = {}
    for g in group:
        fibres.setdefault(g.apply_word(base), []).append(g)
    return fibres


def test_parity_q2_group_is_regular_so_criterion_holds():
    M = parity_code(2, 3)
    full = list(autotopism_search(M))
    assert len(mulclose(full)) == 4 == len(M)
    wits = {w: g for w, [g] in by_base_image(full, (0, 0, 0)).items()}
    assert topolinear_replay(M, wits) == (True, None)


def test_parity_q4_group_is_larger_than_regular_and_criterion_fails():
    M = parity_code(4, 3)
    full = list(autotopism_search(M))
    assert len(full) == 32 == len(mulclose(full))  # 16 translations times a stabilizer of order 2
    fibres = by_base_image(full, (0, 0, 0))
    assert set(fibres) == set(M.words)
    # two elements agree on the base word but differ at coordinate 1
    assert any(a.taus[1] != b.taus[1] for a, b in fibres.values())


@pytest.mark.parametrize("p", [3, 5])
def test_cp_families_are_automorphisms(p):
    M = twisted_graph_code(p)
    q = 2 * p
    maps = ic_p_generators(p)
    assert len(maps) == 2 + 2 * p * p + 2
    for g in maps:
        assert g.n == 3 and all(len(t) == q for t in g.taus)
        assert g.is_automorphism_of(M)


@pytest.mark.parametrize("p", [3, 5])
def test_chase_to_zero_lands_on_the_base_word(p):
    M = twisted_graph_code(p)
    base = (0, 0, 0)
    for w in M.words:
        assert chase_to_zero_cp(p, w).apply_word(w) == base


@pytest.mark.parametrize("p", [3, 5])
def test_cp_full_closure_overshoots_and_fails_regularity(p):
    # the three families together close to p times the code size: the shear
    # fixes the base word without being the identity
    g1 = cp_autotopism_a1(p, 1)
    g2 = cp_autotopism_a2(p, 1, 0, 0)
    g3 = cp_autotopism_a3(p, 1)
    g2b = cp_autotopism_a2(p, 0, 1, 1)
    closure = mulclose([g1, g2, g3, g2b])
    M = twisted_graph_code(p)
    assert len(closure) == 4 * p ** 3 == p * len(M)
    fibres = by_base_image(closure, (0, 0, 0))
    assert set(fibres) == set(M.words) and {len(f) for f in fibres.values()} == {p}


@pytest.mark.parametrize("p", [3, 5])
def test_cp_regular_generators_close_to_a_sharply_transitive_group(p):
    M = twisted_graph_code(p)
    gens = cp_regular_generators(p)
    group = mulclose(gens)
    assert len(group) == (2 * p) ** 2 == len(M)
    assert topolinear_replay(M, {g.apply_word((0, 0, 0)): g for g in group}) == (True, None)


def family_shear(p):
    """The shear as the family composite a2(p, p-1, 1, 0)·k·k, k = a3·a1."""
    k = cp_autotopism_a3(p, 1).compose(cp_autotopism_a1(p, 1))
    return cp_autotopism_a2(p, p - 1, 1, 0).compose(k.compose(k))


@pytest.mark.parametrize("p", [3, 5, 7, 9, 11, 13, 15, 21])
def test_cp_shear_is_a_power_of_the_family_composite(p):
    shear, power = family_shear(p), Isotopism.identity(2 * p, 3)
    assert cp_shear(p) == shear
    for t in range(p + 1):
        assert cp_shear(p, t) == power, t
        power = power.compose(shear)


def shear_loop_witness(p, word):
    """cp_regular_witness composing the family shear one power at a time."""
    c = chase_to_zero_cp(p, word).inverse()
    tx = c.taus[0]
    sgn = 1 if (tx[1] - tx[0]) % p == 1 else -1
    for _ in range((tx[p] - tx[0]) % p * pow(2 * sgn, -1, p) % p):
        c = c.compose(family_shear(p))
    return c


@pytest.mark.parametrize("p", [3, 5, 7, 9])
def test_cp_regular_witnesses_match_the_shear_loop(p):
    assert all(cp_regular_witness(p, w) == shear_loop_witness(p, w)
               for w in twisted_graph_code(p).words)
    w = cp_autotopism_a1(p, 1)
    for _ in range((p - 1) // 2):
        w = w.compose(family_shear(p))
    assert cp_regular_generators(p)[3] == w


def family_witness(p, word):
    """cp_regular_witness as it was written before the family members were
    cached: one checked member of each family and one checked shear power,
    built for this word."""
    alpha, a = divmod(word[0], p)
    beta, b = divmod(word[1], p)
    a1 = ((-a if beta & 1 else a) + alpha * beta) % p
    chase = cp_autotopism_a3(p, alpha).compose(
        cp_autotopism_a2(p, a1, b, alpha).compose(cp_autotopism_a1(p, beta)))
    c = chase.inverse()
    tx = c.rows[0].tolist()
    sgn = 1 if (tx[1] - tx[0]) % p == 1 else -1
    return c.compose(cp_shear(p, (tx[p] - tx[0]) % p * pow(2 * sgn, -1, p)))


@pytest.mark.parametrize("p", [3, 5, 7, 9, 11])
def test_cp_regular_witnesses_compose_the_cached_members_as_the_formula_did(p):
    for w in twisted_graph_code(p).words:
        got, want = cp_regular_witness(p, w), family_witness(p, w)
        assert got == want and got.rows.dtype == want.rows.dtype, w
        assert not got.rows.flags.writeable, w


@pytest.mark.parametrize("p", [3, 5])
def test_cp_regular_witnesses_are_the_group_elements(p):
    M = twisted_graph_code(p)
    group = set(mulclose(cp_regular_generators(p)))
    base = (0, 0, 0)
    seen = set()
    for w in M.words:
        g = cp_regular_witness(p, w)
        assert g.apply_word(base) == w
        assert g in group
        seen.add(g)
    assert len(seen) == len(M)


def test_transitivity_methods_agree_on_the_twisted_graph():
    M = twisted_graph_code(3)
    explicit = is_isotopically_transitive(M, method="explicit")
    pinned = is_isotopically_transitive(M, method="pinned")
    assert explicit.transitive and pinned.transitive
    ok, why = explicit.certificate.verify(M)
    assert ok, why
    ok, why = pinned.certificate.verify(M)
    assert ok, why


def test_transitivity_handles_codes_missing_the_base_word():
    M = parity_code(3, 3)
    shifted = MdsCode(3, 3, [((w[0] + 1) % 3,) + w[1:] for w in M.words])
    assert (0, 0, 0) not in shifted
    res = is_isotopically_transitive(shifted, method="pinned")
    assert res.transitive
    ok, why = res.certificate.verify(shifted)
    assert ok, why


def scrambled(M, seed):
    """Random isotope of M with no provenance, so only search can decide it."""
    image = random_isotopism(M.q, M.n, random.Random(seed)).apply_code(M)
    return MdsCode(M.q, M.n, image.words)


def without_base_word(M):
    """Translate of M by a point outside it, so the code misses 0..0."""
    off = next(w for w in itertools.product(range(M.q), repeat=M.n) if w not in M)
    return MdsCode(M.q, M.n, [tuple((s - c) % M.q for s, c in zip(w, off))
                              for w in M.words])


def per_word_pinned(M):
    """The loop the orbit closure replaces: one pinned search for every
    codeword in order, on the translate that carries the first word to 0..0.
    Returns (verdict, first failing word of M or None)."""
    w0 = M.words[0]
    moved = sorted(tuple((s - c) % M.q for s, c in zip(w, w0)) for w in M.words)
    T = MdsCode(M.q, M.n, moved)
    for w in T.words:
        pins = {(i, 0): w[i] for i in range(M.n)}
        if next(autotopism_search(T, pins=pins), None) is None:
            return False, tuple((s + c) % M.q for s, c in zip(w, w0))
    return True, None


def oracle_cases():
    squares = all_latin_squares(4)
    cases = [("twisted-3", scrambled(twisted_graph_code(3), 31)),
             ("twisted-5", scrambled(twisted_graph_code(5), 32)),
             ("H", code_h()),
             ("quadratic-2-4", quadratic_code(
                 QuadraticSpec.make(2, 1, 4, alpha=[[0, 1, 0, 0], [0, 0, 0, 0],
                                                    [0, 0, 0, 1], [0, 0, 0, 0]]))),
             ("shifted-cubic", without_base_word(scrambled(
                 standard_semilinear_code(4, [(0, 1, 2)]), 33)))]
    for name, mono in [("r1", []), ("r2", [(0, 1), (2, 3)]), ("r3", [(0, 1)]),
                       ("r4", [(0, 1, 2)])]:
        cases.append((name, standard_semilinear_code(4, mono)))
    cases += [(f"square-{k}", graph_of(NAryQuasigroup(squares[k])))
              for k in range(0, len(squares), 9)]
    return cases


def test_orbit_closure_agrees_with_the_per_word_search():
    cases = oracle_cases()
    assert sum(name.startswith("square-") for name, _ in cases) >= 50
    verdicts = set()  # every order-4 square is transitive: r4 and the cubic code are not
    for name, M in cases:
        res = is_isotopically_transitive(M, method="pinned")
        expected, failing = per_word_pinned(M)
        assert (res.transitive, res.failing_word) == (expected, failing), name
        verdicts.add(expected)
        if expected:
            assert res.certificate.verify(M) == (True, None), name
            assert (set(mulclose(res.generators))
                    == set(mulclose(res.certificate.witnesses.values()))), name
    assert verdicts == {True, False}


def test_orbit_closure_needs_few_searches_on_a_large_code():
    M = scrambled(twisted_graph_code(9), 34)
    res = is_isotopically_transitive(M, method="pinned")
    assert res.transitive and len(M) == 324
    assert res.searches <= 8  # 4 when written, against 324 per-word searches
    assert res.certificate.verify(M) == (True, None)


def test_generators_of_a_shifted_code_are_its_symmetries():
    M = without_base_word(scrambled(twisted_graph_code(3), 35))
    assert (0, 0, 0) not in M
    res = is_isotopically_transitive(M, method="pinned")
    assert res.transitive and res.generators
    assert all(g.is_automorphism_of(M) for g in res.generators)
    assert res.certificate.verify(M) == (True, None)


def test_is_topolinear_reports_an_exhausted_node_budget_as_inconclusive():
    # the pinned transitivity searches fit in 20 nodes; enumerating the
    # base-word stabilizer (24 nodes) does not
    res = is_topolinear(parity_code(4, 3), budget=SearchBudget(max_nodes=20))
    assert res.status is None and res.group is None
    assert res.reason.startswith("inconclusive")


def test_is_topolinear_falls_back_when_the_witness_group_outgrows_the_code():
    # the pinned generators close to the full autotopy group, five times the
    # code, so the first pass over the witnesses alone finds no regular group
    M = scrambled(twisted_graph_code(5), 36)
    res = is_topolinear(M)
    assert res.status is True and len(res.group) == len(M)
    assert res.reason == "regular subgroup of the full group"


def test_one_word_code_is_topolinear():
    M = MdsCode(1, 3, [(0, 0, 0)])
    res = is_topolinear(M)
    assert res.status is True and res.group == [Isotopism.identity(1, 3)]


def test_is_topolinear_on_a_code_without_the_base_word():
    M = without_base_word(scrambled(twisted_graph_code(3), 8))
    assert (0, 0, 0) not in M
    res = is_topolinear(M)
    assert res.status is True
    assert len(res.group) == len(M)
    assert all(g.is_automorphism_of(M) for g in res.group)
    assert len({g.apply_word(M.words[0]) for g in res.group}) == len(M)


def test_is_topolinear_twisted_graph():
    res = is_topolinear(twisted_graph_code(3))
    assert res.status is True
    assert len(res.group) == 36


def test_is_topolinear_parity_q4():
    # the full group is bigger than the code but contains a regular subgroup
    res = is_topolinear(parity_code(4, 3))
    assert res.status is True


def test_equivalent_codes_finds_a_random_isometry():
    rng = random.Random(6)
    M = twisted_graph_code(3)
    eps = (2, 0, 1)
    iso = random_isotopism(6, 3, rng)
    image = Isometry(iso, eps).apply_code(M)
    w = equivalent_codes(M, image)
    assert w is not None
    assert w.apply_code(M).words == image.words


def test_equivalent_codes_none_on_mismatched_sizes():
    assert equivalent_codes(parity_code(2, 3), parity_code(4, 3)) is None


def test_mulclose_budget():
    with pytest.raises(BudgetExceeded):
        mulclose(cp_regular_generators(3), cap=10)


def test_check_points_budget_guard():
    small = SearchBudget(max_points=10, max_nodes=100)
    with pytest.raises(BudgetExceeded):
        small.check_points(6, 3)


def test_every_verdict_checks_the_points_on_entry():
    # 22^3 points, past 6^5; the explicit route runs no search, but would
    # still hold |M| witnesses, so it is refused before the hint is read
    M = twisted_graph_code(11)
    refusal = "points limit 7776 (needed 10648)"
    for method in ("auto", "explicit", "pinned"):
        with pytest.raises(BudgetExceeded, match=re.escape(refusal)):
            is_isotopically_transitive(M, method=method)
    res = is_topolinear(M)
    assert res.status is None and res.reason == f"inconclusive: {refusal}"
    with pytest.raises(BudgetExceeded, match=re.escape(refusal)):
        equivalent_codes(M, M)
    # the search itself is bounded by its nodes only
    pins = {(i, 0): 0 for i in range(3)}
    found = next(autotopism_search(M, pins=pins, budget=SearchBudget(max_points=1)))
    assert found.is_automorphism_of(M)


def test_is_topolinear_reports_a_stopped_pinned_search_as_inconclusive():
    # 10 nodes stop the pinned transitivity search itself, before any group
    # is closed; the verdict is inconclusive, as when the stabilizer search
    # is cut
    res = is_topolinear(parity_code(4, 3), budget=SearchBudget(max_nodes=10))
    assert res.status is None and res.group is None
    assert res.reason == "inconclusive: search nodes limit 10"


# ---------------------------------------------------------------------------
# group closure against an all-pairs oracle, and the cost of replay

def naive_closure(gens):
    """Sorted taus of the group generated by `gens`: every pair of elements
    known so far is composed both ways until nothing new appears. Works on
    raw permutation tuples, independent of Isotopism.compose."""
    def comp(f, g):
        return tuple(tuple(a[b[x]] for x in range(len(a))) for a, b in zip(f, g))

    gens = [g.taus for g in gens]
    elems = {tuple(tuple(range(len(gens[0][0]))) for _ in gens[0]), *gens}
    frontier = list(elems)
    while frontier:
        known = list(elems)
        new = {c for a in frontier for b in known for c in (comp(a, b), comp(b, a))
               if c not in elems}
        elems |= new
        frontier = list(new)
    return sorted(elems)


QUADRATIC_4 = {"construction": "quadratic", "p": 2, "k": 1, "n": 4,
               "alpha": [[0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]]}
QUADRATIC_5 = {"construction": "quadratic", "p": 2, "k": 1, "n": 5,
               "alpha": [[0, 1, 1, 0, 1], [0, 0, 1, 1, 0], [0, 0, 0, 1, 1],
                         [0, 0, 0, 0, 1], [0, 0, 0, 0, 0]]}
COMPOSITION = {"construction": "composition", "outer": "zpz2", "p": 3, "inner": [2, 1]}
QUADRATIC_GF4_3 = {"construction": "quadratic", "p": 2, "k": 2, "n": 3,
                   "alpha": [[0, 3, 2], [0, 0, 1], [0, 0, 0]]}
ITERATED_D3 = {"construction": "iterated", "loop": {"name": "dihedral", "p": 3}, "n": 4}
TWISTED_5 = {"construction": "graph", "loop": {"name": "cp", "p": 5}}
TWISTED_9 = {"construction": "graph", "loop": {"name": "cp", "p": 9}}


Z3_IDENTITY_1 = Loop([[(x + y - 1) % 3 for y in range(3)] for x in range(3)], identity=1)


def star_witnesses(spec, relabel=None):
    """Word -> the member of the star group carrying 0..0 to it, the group
    conjugated through `relabel` when one is given."""
    group = regular_group_iterated(spec)
    if relabel is not None:
        group = [relabel.compose(g).compose(relabel) for g in group]
    return {g.apply_word((0,) * spec.n): g for g in group}.__getitem__


def graph_relabel(loop):
    """Inversion on the last coordinate: the graph of a group onto its
    length-3 iterated code."""
    ident = tuple(range(loop.q))
    return Isotopism((ident, ident, tuple(row.index(loop.identity) for row in loop.table.tolist())))


def formula_cases():
    """(code, per-word formula witness) for each kind of construction."""
    yield pytest.param(build_from_spec(TWISTED_5), lambda w: cp_regular_witness(5, w),
                       id="graph-cp-5")
    D3 = make_dihedral(3)
    yield pytest.param(graph_code(D3), star_witnesses(IteratedGroupSpec(D3, 3),
                                                      graph_relabel(D3)), id="graph-D3")
    yield pytest.param(build_from_spec(ITERATED_D3),
                       star_witnesses(IteratedGroupSpec(D3, 4)), id="iterated-D3-4")
    spec = IteratedGroupSpec(Z3_IDENTITY_1, 3)
    yield pytest.param(iterated_code(spec), star_witnesses(spec), id="iterated-Z3-identity-1")
    for name, obj in (("composition", COMPOSITION), ("quadratic-4", QUADRATIC_4),
                      ("quadratic-GF4-3", QUADRATIC_GF4_3)):
        kind = obj["construction"]
        spec = CONSTRUCTIONS[kind].parse(obj)
        witness = composition_witness if kind == "composition" else quadratic_witness
        yield pytest.param(build_from_spec(obj),
                           lambda w, spec=spec, witness=witness: witness(spec, w).inverse(),
                           id=name)


@pytest.mark.parametrize("M,formula", formula_cases())
def test_explicit_witnesses_are_the_formula_witnesses(M, formula):
    # the orbit closure asks the formula for a few words and composes the
    # rest; on a sharply transitive family that rebuilds the formula exactly
    res = is_isotopically_transitive(M, method="explicit")
    assert res.method == "explicit" and res.reason == ""
    wits = res.certificate.witnesses
    assert set(wits) == set(M.words)
    assert all(wits[w] == formula(w) for w in M.words)


def test_a_witness_that_misses_its_word_drops_the_hint(monkeypatch):
    # the identity is a symmetry of every code, but carries 0..0 to no other word
    M = build_from_spec(ITERATED_D3)
    monkeypatch.setitem(CONSTRUCTIONS, "iterated", dataclasses.replace(
        CONSTRUCTIONS["iterated"], witness=lambda spec: lambda w: Isotopism.identity(6, 4)))
    res = is_isotopically_transitive(M)
    assert res.transitive and res.method == "pinned"
    assert res.reason == (f"provenance hint dropped (iterated): witness for {M.words[1]} "
                          "misses its word")
    assert res.certificate.verify(M) == (True, None)


def explicit_witnesses(M):
    """The construction's witness of each word, in word order."""
    wits = is_isotopically_transitive(M, method="explicit").certificate.witnesses
    return [wits[w] for w in M.words]


def redundant(gens, q, n, rng):
    """`gens` shuffled with duplicates and the identity mixed in."""
    out = list(gens) + [rng.choice(gens) for _ in range(len(gens))]
    out += [Isotopism.identity(q, n)] * 3
    rng.shuffle(out)
    return out


def mulclose_cases():
    rng = random.Random(41)
    star = regular_group_iterated(IteratedGroupSpec(make_dihedral(3), 4))
    yield "iterated-D3-4", star
    yield "quadratic-4", explicit_witnesses(build_from_spec(QUADRATIC_4))
    yield "composition", explicit_witnesses(build_from_spec(COMPOSITION))
    for p in (3, 5):
        yield f"cp-regular-{p}", redundant(cp_regular_generators(p), 2 * p, 3, rng)
    yield "ic-3", redundant(ic_p_generators(3), 6, 3, rng)


def test_mulclose_matches_the_all_pairs_oracle():
    sizes = {}
    for name, gens in mulclose_cases():
        got = mulclose(gens)
        assert [g.taus for g in got] == naive_closure(gens), name
        sizes[name] = len(got)
    assert sizes == {"iterated-D3-4": 216, "quadratic-4": 64, "composition": 216,
                     "cp-regular-3": 36, "cp-regular-5": 100, "ic-3": 4 * 27}


def test_kernel_views_equal_and_hash_like_isotopisms_built_from_taus():
    # the explicit route (twisted p=3) and the pinned one (its scramble)
    for M in (twisted_graph_code(3), scrambled(twisted_graph_code(3), 31)):
        trans, top = is_isotopically_transitive(M), is_topolinear(M)
        sources = {"mulclose": mulclose(trans.generators), "group": top.group,
                   "witnesses": list(trans.certificate.witnesses.values()),
                   "generators": trans.generators}
        for name, views in sources.items():
            for g in views:
                h = Isotopism(g.taus)
                assert h == g and hash(h) == hash(g) and h.rows.dtype == g.rows.dtype, name
                with pytest.raises(ValueError, match="read-only"):
                    g.rows[0, 0] = g.rows[0, 1]
            assert len(set(views) | {Isotopism(g.taus) for g in views}) == len(views), name
        assert set(sources["mulclose"]) >= set(sources["witnesses"]) | set(sources["group"])


def test_mulclose_cap_is_the_largest_group_it_returns():
    for name, gens in mulclose_cases():
        size = len(mulclose(gens))
        assert len(mulclose(gens, cap=size)) == size, name
        with pytest.raises(BudgetExceeded) as exc:
            mulclose(gens, cap=size - 1)
        assert (exc.value.bound, exc.value.limit) == ("group closure", size - 1), name


def topolinear_replay(M, witnesses):
    return TransitivityCertificate("topolinear", (0,) * M.n, witnesses).verify(M)


def test_topolinear_replay_rejects_the_pinned_witnesses_of_a_twisted_code():
    # the Schreier witnesses of the orbit closure generate the whole
    # autotopy group, five times the code: they are no group themselves
    M = scrambled(twisted_graph_code(5), 36)
    res = is_isotopically_transitive(M, method="pinned")
    assert res.certificate.verify(M) == (True, None)
    cert = res.certificate
    assert (TransitivityCertificate("topolinear", cert.base, cert.witnesses).verify(M)
            == (False, "witness set is not closed under composition"))


def test_topolinear_replay_rejects_a_regular_set_with_one_witness_swapped():
    p = 5
    M = twisted_graph_code(p)
    wits = {w: cp_regular_witness(p, w) for w in M.words}
    assert topolinear_replay(M, wits) == (True, None)
    w = M.words[7]
    fibre = list(autotopism_search(M, pins={(i, 0): w[i] for i in range(3)}))
    assert len(fibre) == p and wits[w] in fibre
    wits[w] = next(g for g in fibre if g != wits[w])
    assert topolinear_replay(M, wits) == (False, "witness set is not closed under composition")
    # the isotopic checks alone still pass: only the group check catches it
    assert TransitivityCertificate("isotopic", (0, 0, 0), wits).verify(M) == (True, None)


@pytest.mark.parametrize("spec", [QUADRATIC_5, COMPOSITION, ITERATED_D3],
                         ids=["quadratic", "composition", "iterated"])
def test_topolinear_replay_accepts_the_explicit_regular_sets(spec):
    M = build_from_spec(spec)
    wits = is_isotopically_transitive(M, method="explicit").certificate.witnesses
    assert topolinear_replay(M, wits) == (True, None)


@pytest.fixture
def compositions(monkeypatch):
    """Counter of element compositions made while the fixture is live:
    Isotopism.compose calls and the rows the closure kernel composes."""
    count = [0]
    original = Isotopism.compose

    def counted(self, other):
        count[0] += 1
        return original(self, other)

    monkeypatch.setattr(Isotopism, "compose", counted)
    for name in ("_compose_rows", "_compose_pairs"):
        kernel = getattr(isometry, name)

        def counted_rows(left, right, kernel=kernel):
            out = kernel(left, right)
            count[0] += len(out)
            return out

        monkeypatch.setattr(isometry, name, counted_rows)
    return count


def count_formula_calls(monkeypatch, kind):
    """Counter of calls to the witness formula of construction `kind`."""
    count = [0]
    entry = CONSTRUCTIONS[kind]

    def witness(spec):
        formula = entry.witness(spec)

        def counted(w):
            count[0] += 1
            return formula(w)
        return counted

    monkeypatch.setitem(CONSTRUCTIONS, kind, dataclasses.replace(entry, witness=witness))
    return count


@pytest.mark.parametrize("spec", [TWISTED_9, QUADRATIC_5, ITERATED_D3],
                         ids=["twisted-9", "quadratic-5", "iterated-D3-4"])
def test_group_checks_cost_m_log_m_compositions(spec, compositions, monkeypatch):
    # an all-pairs check costs |M|^2: 46k to 105k compositions on these codes;
    # one formula witness per codeword would cost |M| formula calls
    M = build_from_spec(spec)
    log = math.ceil(math.log2(len(M)))
    bound = len(M) * (log + 1)
    calls = count_formula_calls(monkeypatch, spec["construction"])
    compositions[0] = 0
    wits = is_isotopically_transitive(M, method="explicit").certificate.witnesses
    assert 0 < compositions[0] <= bound
    assert calls[0] <= log + 1
    compositions[0] = 0
    assert topolinear_replay(M, wits) == (True, None)
    assert 0 < compositions[0] <= bound
    compositions[0] = 0
    res = is_topolinear(M)
    assert res.status is True and res.reason == "construction group"
    assert 0 < compositions[0] <= bound


# ---------------------------------------------------------------------------
# the topolinear fallback: a DFS over the cosets of the base-word stabilizer

COMPOSITION_CP = {"construction": "composition", "outer": "cp", "p": 3, "inner": [1, 2]}


def at_base(M):
    """Translate of M carrying its first word to 0..0."""
    w0 = M.words[0]
    return MdsCode(M.q, M.n, [tuple((s - c) % M.q for s, c in zip(w, w0)) for w in M.words])


def base_stabilizer(M):
    return list(autotopism_search(M, pins={(i, 0): 0 for i in range(M.n)}))


def replays_as_a_group(M, group):
    """|M| symmetries with distinct images of a codeword, closed under
    composition."""
    base = M.words[0]
    wits = {g.apply_word(base): g for g in group}
    return (len(group) == len(M)
            and TransitivityCertificate("topolinear", base, wits).verify(M) == (True, None))


def full_group_regular_subgroup(M):
    """Reference: the fallback the coset search replaced. It enumerates the
    whole symmetry group with an unpinned search, buckets it by the image of
    0..0 (which M must hold) and searches the fibres with an all-pairs
    closure."""
    base = (0,) * M.n
    fibers = {w: [] for w in M.words}
    for g in autotopism_search(M):
        fibers[g.apply_word(base)].append(g)
    if any(not fs for fs in fibers.values()):
        return None
    order = sorted(fibers, key=lambda w: len(fibers[w]))
    target = len(M)

    def close_with(current, g):
        new = dict(current)
        queue = [g]
        while queue:
            a = queue.pop()
            img = a.apply_word(base)
            prev = new.get(img)
            if prev is not None:
                if prev != a:
                    return None
                continue
            new[img] = a
            if len(new) > target:
                return None
            for b in list(new.values()):
                for c in (a.compose(b), b.compose(a)):
                    prev2 = new.get(c.apply_word(base))
                    if prev2 is None:
                        queue.append(c)
                    elif prev2 != c:
                        return None
        return new

    def dfs(current):
        if len(current) == target:
            return list(current.values())
        w = next(w for w in order if w not in current)
        for g in fibers[w]:
            ext = close_with(current, g)
            if ext is not None:
                out = dfs(ext)
                if out is not None:
                    return out
        return None

    return dfs({base: Isotopism.identity(M.q, M.n)})


@pytest.mark.parametrize("make", [lambda: scrambled(twisted_graph_code(5), 36),
                                  lambda: build_from_spec(COMPOSITION_CP)],
                         ids=["scrambled-twisted-5", "composition-cp"])
def test_is_topolinear_runs_only_pinned_searches(make, monkeypatch):
    # both codes reach the fallback; it lists the stabilizer of the base
    # word, never the whole symmetry group
    M = make()
    pins_seen = []
    search = isometry.search_isotopisms

    def recording(src, dst, pins=None, **kwargs):
        pins_seen.append(pins)
        return search(src, dst, pins=pins, **kwargs)

    monkeypatch.setattr(isometry, "search_isotopisms", recording)
    res = is_topolinear(M)
    assert res.status is True and res.reason == "regular subgroup of the full group"
    assert pins_seen
    assert all(pins is not None and {i for i, _ in pins} == set(range(M.n))
               for pins in pins_seen)


def test_regular_subgroup_search_with_a_trivial_stabilizer():
    # with H = {identity} the candidates are the witnesses themselves
    base, ident = (0, 0, 0), [Isotopism.identity(10, 3)]
    T = at_base(scrambled(twisted_graph_code(5), 36))
    pinned = is_isotopically_transitive(T, method="pinned").certificate.witnesses
    assert _regular_subgroup_search(T, base, pinned, ident) is None
    M = twisted_graph_code(5)
    regular = TransitivityCertificate("isotopic", base, {
        w: cp_regular_witness(5, w) for w in M.words}).witnesses
    group = _regular_subgroup_search(M, base, regular, ident)
    assert len(group) == len(M) and replays_as_a_group(M, group)


def test_coset_search_agrees_with_the_full_group_enumeration():
    checked = 0
    for name, M in oracle_cases():
        T = at_base(M)
        trans = is_isotopically_transitive(T, method="pinned")
        if not trans:
            continue
        found = _regular_subgroup_search(T, trans.certificate.base, trans.certificate.witnesses,
                                         base_stabilizer(T))
        expected = full_group_regular_subgroup(T)
        assert (found is None) == (expected is None), name
        if found is not None:
            assert replays_as_a_group(T, found), name
        res = is_topolinear(M)
        assert res.status is (expected is not None), name
        if res.group is not None:
            assert replays_as_a_group(M, res.group), name
        checked += 1
    assert checked >= 50


@pytest.mark.parametrize("make", [
    lambda: scrambled(twisted_graph_code(9), 37),
    lambda: scrambled(standard_semilinear_code(6, [(0, 1), (2, 3)]), 38)],
    ids=["twisted-9", "semilinear-6"])
def test_stripped_codes_get_a_topolinear_verdict_from_the_coset_search(make):
    # 324 and 1024 words; the full-group enumeration took seconds on both
    M = make()
    res = is_topolinear(M)
    assert res.status is True and res.reason == "regular subgroup of the full group"
    assert replays_as_a_group(M, res.group)


@pytest.mark.parametrize("make", [
    lambda: scrambled(twisted_graph_code(13), 39),
    lambda: scrambled(standard_semilinear_code(7, [(0, 1), (2, 3)]), 40)],
    ids=["twisted-13", "semilinear-7"])
def test_twisted_13_and_semilinear_7_are_decided_under_a_2_15_points_cap(make):
    # 17576 and 16384 points: past the default cap of 6^5; the verdict
    # needs no other bound raised to decide them
    M = make()
    assert DEFAULT_BUDGET.max_points < M.q ** M.n <= 2 ** 15
    start = time.perf_counter()
    res = is_topolinear(M, budget=dataclasses.replace(DEFAULT_BUDGET, max_points=2 ** 15))
    assert time.perf_counter() - start < 2
    assert res.status is True and replays_as_a_group(M, res.group)


# ---------------------------------------------------------------------------
# the base word: 0..0 when the code holds it, else the first codeword

ISOTOPE_SOURCES = {
    "twisted-3": lambda: twisted_graph_code(3),
    "H": code_h,
    "r4": lambda: standard_semilinear_code(4, [(0, 1, 2)]),
    "parity-4-3": lambda: parity_code(4, 3),
    "composition-cp": lambda: build_from_spec(COMPOSITION_CP),
}


@functools.cache
def isotope_source(name):
    """(code, its transitivity verdict, its topolinear status)."""
    M = ISOTOPE_SOURCES[name]()
    return M, is_isotopically_transitive(M).transitive, is_topolinear(M).status


def translate(M, off, provenance=None):
    return MdsCode(M.q, M.n, [tuple((s - c) % M.q for s, c in zip(w, off)) for w in M.words],
                   provenance=provenance)


@st.composite
def points_off(draw, M):
    """A point outside the MDS code M: the line along the last coordinate
    through a random head holds one codeword, and this is another point of
    that line."""
    head = tuple(draw(st.integers(0, M.q - 1)) for _ in range(M.n - 1))
    return next(head + (s,) for s in range(M.q) if head + (s,) not in M)


@st.composite
def isotopes(draw):
    """(source name, random isotope of the source, with no provenance); half
    of them translated by a codeword, so they hold 0..0, half by a point off
    the code, so they miss it."""
    name = draw(st.sampled_from(sorted(ISOTOPE_SOURCES)))
    M = isotope_source(name)[0]
    taus = tuple(tuple(draw(st.permutations(range(M.q)))) for _ in range(M.n))
    image = Isotopism(taus).apply_code(M)
    on_code = draw(st.booleans())
    off = draw(st.sampled_from(image.words) if on_code else points_off(image))
    return name, translate(image, off)


@settings(max_examples=60)
@given(isotopes())
def test_verdicts_and_evidence_survive_isotopy(case):
    name, T = case
    _, transitive, topolinear = isotope_source(name)
    trans = is_isotopically_transitive(T)
    top = is_topolinear(T)
    assert (trans.transitive, top.status) == (transitive, topolinear), name
    zero = (0,) * T.n
    if transitive:
        assert trans.certificate.base == (zero if zero in T else T.words[0])
        assert trans.certificate.verify(T) == (True, None)
    else:
        assert trans.failing_word in T
    if top.group is not None:
        assert replays_as_a_group(T, top.group)


def test_isotope_sources_cover_both_verdicts():
    statuses = {isotope_source(name)[1:] for name in ISOTOPE_SOURCES}
    assert statuses == {(True, True), (False, False)}


@settings(max_examples=15)
@given(st.sampled_from(["twisted-3", "composition-cp"]).flatmap(
    lambda name: points_off(isotope_source(name)[0]).map(lambda off: (name, off))))
def test_provenance_bearing_code_translated_off_zero_is_searched_without_a_note(case):
    # the recorded formula carries 0..0, which the translate misses: the
    # explicit route does not run, and no hint is reported as dropped
    name, off = case
    M = isotope_source(name)[0]
    T = translate(M, off, provenance=M.provenance)
    assert (0,) * T.n not in T and T.provenance == M.provenance
    res = is_isotopically_transitive(T)
    assert res.transitive and (res.method, res.reason) == ("pinned", "")
    assert res.certificate.verify(T) == (True, None)
    top = is_topolinear(T)
    assert top.status is True and "hint" not in top.reason
    assert replays_as_a_group(T, top.group)


# ---------------------------------------------------------------------------
# code equivalence: intercalate profiles before any search

def random_isometry(M, rng):
    eps = list(range(M.n))
    rng.shuffle(eps)
    return Isometry(random_isotopism(M.q, M.n, rng), eps)


def exhaustive_equivalence(M1, M2):
    """Reference: every coordinate permutation searched in turn, with no
    invariant to rule one out."""
    if (M1.q, M1.n) != (M2.q, M2.n) or len(M1) != len(M2):
        return None
    for eps in itertools.permutations(range(M1.n)):
        found = next(search_isotopisms(isometry.parastrophe(M1, eps), M2), None)
        if found is not None:
            return Isometry(found, eps)
    return None


def test_intercalate_count_matches_the_definition_on_all_order_4_squares():
    def intercalates(L):
        pairs = list(itertools.combinations(range(len(L)), 2))
        return sum(L[r][c] == L[s][d] and L[r][d] == L[s][c]
                   for r, s in pairs for c, d in pairs)

    squares = all_latin_squares(4)
    assert len(squares) == 576
    for L in squares:
        M = MdsCode(4, 3, [(r, c, L[r][c]) for r in range(4) for c in range(4)])
        assert M.box_profiles(3) == {(0, 1, 2): (intercalates(L),)}


PROFILE_SOURCES = {
    "twisted-3": lambda: twisted_graph_code(3),
    "twisted-5": lambda: twisted_graph_code(5),
    "r1": lambda: standard_semilinear_code(4, []),
    "r2": lambda: standard_semilinear_code(4, [(0, 1), (2, 3)]),
    "r3": lambda: standard_semilinear_code(4, [(0, 1)]),
    "r4": lambda: standard_semilinear_code(4, [(0, 1, 2)]),
    "H": code_h,
    "partition-3": lambda: composition_code(CompositionSpec("zpz2", 3, (3,))),
    "partition-21": lambda: composition_code(CompositionSpec("zpz2", 3, (2, 1))),
    "partition-111": lambda: composition_code(CompositionSpec("zpz2", 3, (1, 1, 1))),
    "parity-4-3": lambda: parity_code(4, 3),
}


@functools.cache
def profile_source(name):
    return PROFILE_SOURCES[name]()


@settings(max_examples=60)
@given(st.sampled_from(sorted(PROFILE_SOURCES)), st.randoms(use_true_random=False))
def test_triple_profiles_follow_an_isometry(name, rng):
    M = profile_source(name)
    g = random_isometry(M, rng)
    before = M.box_profiles(3)
    after = g.apply_code(M).box_profiles(3)
    for T, profile in before.items():
        assert after[tuple(sorted(g.eps[i] for i in T))] == profile, name


def brute_box_profiles(M, k):
    """Reference: over each k-set U and each assignment of the other
    coordinates, every box of two symbols per coordinate of U, counted when
    all 2^(k-1) words it can hold lie in the sub-code the assignment leaves."""
    pairs = np.array(list(itertools.combinations(range(M.q), 2)))
    profiles = {}
    for U in itertools.combinations(range(M.n), k):
        rest = [i for i in range(M.n) if i not in U]
        counts = []
        for fixed in itertools.product(range(M.q), repeat=len(rest)):
            inside = np.zeros((M.q,) * k, dtype=np.int64)
            for w in M.words:
                if all(w[i] == v for i, v in zip(rest, fixed)):
                    inside[tuple(w[i] for i in U)] = 1
            held = sum(inside[np.ix_(*(pairs[:, e] for e in corner))]
                       for corner in itertools.product((0, 1), repeat=k))
            counts.append(int((held == 2 ** (k - 1)).sum()))
        profiles[U] = tuple(sorted(counts))
    return profiles


def test_subcube_profiles_match_the_box_enumeration():
    cases = {name: profile_source(name)
             for name in ["r1", "r2", "r3", "r4", "H", "partition-21"]}
    cases["q4-std-5"] = scrambled(standard_semilinear_code(5, [(0, 1), (2, 3)]), 7)
    for name, M in cases.items():
        for k in (3, 4):
            assert M.box_profiles(k) == brute_box_profiles(M, k), (name, k)
    # r1..r4 and H apart: the pair whose intercalate profiles tie, r2 and H
    assert {name: cases[name].box_profiles(4)[(0, 1, 2, 3)]
            for name in ["r1", "r2", "r3", "r4", "H"]} == {
        "r1": (24,), "r2": (8,), "r3": (8,), "r4": (8,), "H": (0,)}
    assert profile_source("r2").box_profiles(3) == profile_source("H").box_profiles(3)
    assert profile_source("twisted-3").box_profiles(4) == {}


@settings(max_examples=60)
@given(st.sampled_from(sorted(PROFILE_SOURCES)), st.randoms(use_true_random=False))
def test_subcube_profiles_follow_an_isometry(name, rng):
    M = profile_source(name)
    g = random_isometry(M, rng)
    before = M.box_profiles(4)
    after = g.apply_code(M).box_profiles(4)
    assert len(after) == len(before)
    for U, profile in before.items():
        assert after[tuple(sorted(g.eps[i] for i in U))] == profile, name


def count_profile_work(monkeypatch):
    """Lists that record each isotopism search, as (source, coordinate
    permutation of the source), and each build of box profiles of 4-sets. A
    source that no parastrophe made is searched under the identity."""
    searches, builds, made = [], [], {}
    search, build, parastrophe = (isometry.search_isotopisms, MdsCode.box_profiles,
                                  isometry.parastrophe)

    def counted_parastrophe(M, eps):
        P = parastrophe(M, eps)
        made[id(P)] = (P, tuple(eps))
        return P

    def counted_search(*args, **kwargs):
        src = args[0]
        P, eps = made.get(id(src), (None, None))
        searches.append((src, eps if P is src else tuple(range(src.n))))
        return search(*args, **kwargs)

    def counted_build(M, k):
        if k == 4 and k not in M._boxes:
            builds.append(M)
        return build(M, k)

    monkeypatch.setattr(isometry, "search_isotopisms", counted_search)
    monkeypatch.setattr(isometry, "parastrophe", counted_parastrophe)
    monkeypatch.setattr(MdsCode, "box_profiles", counted_build)
    return searches, builds


def test_r2_and_h_are_told_apart_after_one_search(monkeypatch):
    searches, builds = count_profile_work(monkeypatch)
    r2, H = standard_semilinear_code(4, [(0, 1), (2, 3)]), code_h()
    assert equivalent_codes(r2, H) is None
    assert (len(searches), len(builds)) == (1, 2)


def test_box_profiles_are_built_only_after_a_failed_first_candidate(monkeypatch):
    searches, builds = count_profile_work(monkeypatch)
    rng = random.Random(82)
    refined = 0
    for name, make in sorted(PROFILE_SOURCES.items()):
        M = make()
        for isotope in (True, False):
            g = (Isometry(random_isotopism(M.q, M.n, rng), range(M.n)) if isotope
                 else random_isometry(M, rng))
            image = g.apply_code(M)
            del searches[:], builds[:]
            found = equivalent_codes(M, image)
            assert found.apply_code(M).words == image.words, name
            # the identity is the first candidate, and an isotope is found there
            assert len(searches) == 1 or not isotope, name
            assert len(builds) == (0 if len(searches) == 1 else 2), name
            tried = [eps for _, eps in searches]
            assert tried == sorted(set(tried)), name  # in order, none twice
            # the identity, tried first, searches from M itself: no parastrophe
            assert [src is M for src, _ in searches] == [
                eps == tuple(range(M.n)) for eps in tried], name
            refined += len(searches) > 1
    assert refined > 0


def test_equivalence_round_trips_a_random_isometry_of_every_oracle_code():
    rng = random.Random(83)
    moved = 0
    for name, M in oracle_cases():
        g = random_isometry(M, rng)
        image = g.apply_code(M)
        found = equivalent_codes(M, image)
        assert found is not None and found.apply_code(M).words == image.words, name
        moved += g.eps != tuple(range(M.n))
    assert moved > len(oracle_cases()) // 2


NON_PERMUTATIONS = pytest.mark.parametrize(
    "eps", [(0, 0, 1), (0, 1), (0, 1, 3), (0, 1.0, 2), (True, 0, 2), "012", (0, 1.7, 2.2)],
    ids=["repeat", "short", "out-of-range", "float", "bool", "string", "truncated"])


@NON_PERMUTATIONS
def test_parastrophe_refuses_a_non_permutation(eps):
    with pytest.raises(ValueError, match="^eps must be a permutation of the coordinates$"):
        isometry.parastrophe(parity_code(3, 3), eps)


@NON_PERMUTATIONS
def test_an_isometry_refuses_a_non_permutation(eps):
    with pytest.raises(ValueError, match="^eps must be a permutation of the coordinates$"):
        Isometry(Isotopism.identity(3, 3), eps)


def test_an_isometry_reads_its_eps_as_ints():
    g = Isometry(Isotopism.identity(3, 3), np.array([2, 0, 1]))
    assert g.eps == (2, 0, 1) and {type(v) for v in g.eps} == {int}
    assert g.apply_word((1, 2, 0)) == (2, 0, 1)


def test_parastrophe_moves_each_coordinate_to_its_image():
    for name in ["twisted-3", "H", "partition-21"]:
        M = profile_source(name)
        for eps in itertools.permutations(range(M.n)):
            P = isometry.parastrophe(M, eps)
            assert P == MdsCode(M.q, M.n, [isometry.permute_word(w, eps) for w in M.words])
            assert P.provenance == {"construction": "parastrophe", "eps": list(eps),
                                    "of": M.provenance}


def equivalence_pairs():
    """(id, M1, M2): every pair of r1..r4 and H, every pair of GF(2) n=3
    form codes, and seeded isometric images."""
    rc = {name: profile_source(name) for name in ["r1", "r2", "r3", "r4", "H"]}
    for a, b in itertools.combinations(rc, 2):
        yield f"{a}-{b}", rc[a], rc[b]
    forms = [quadratic_code(QuadraticSpec.make(2, 1, 3, alpha=alpha))
             for alpha in upper_triangular_forms(2, 3)]
    for i, j in itertools.combinations(range(len(forms)), 2):
        yield f"gf2-n3-{i}-{j}", forms[i], forms[j]
    rng = random.Random(81)
    for name in ["twisted-3", "twisted-5", "H", "r4", "parity-4-3", "partition-21"]:
        M = profile_source(name)
        yield f"image-{name}", M, random_isometry(M, rng).apply_code(M)
    # the triples holding coordinates 1 and 2 count 27 intercalates per
    # square, those holding 0 and 3 count 9: this eps trades them, so only
    # a profile compared at eps(T), not at T, matches
    M = profile_source("partition-21")
    swap = Isometry(random_isotopism(M.q, M.n, rng), (1, 0, 3, 2))
    yield "image-partition-21-swapped", M, swap.apply_code(M)


def test_profile_pruned_equivalence_matches_the_exhaustive_oracle():
    verdicts = set()
    for name, M1, M2 in equivalence_pairs():
        found = equivalent_codes(M1, M2)
        # both try permutations in lexicographic order, so the first hit is the same
        assert found == exhaustive_equivalence(M1, M2), name
        if found is not None:
            assert found.apply_code(M1).words == M2.words, name
        verdicts.add(found is not None)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# the searches take MDS codes only

def oracle_mds(M):
    """(ok, reason, witness) that `is_mds` must give, by comparing every pair
    of words: the first repeated word, else a wrong size, else, direction by
    direction, the first word sharing its line with an earlier one."""
    words = M.words
    for a, b in zip(words, words[1:]):
        if a == b:
            return False, "duplicate word", (a, a)
    if len(words) != M.q ** (M.n - 1):
        return False, f"size {len(words)} != q^(n-1) = {M.q ** (M.n - 1)}", None
    for i in range(M.n):
        for k, b in enumerate(words):
            for a in words[:k]:
                if all(x == y for j, (x, y) in enumerate(zip(a, b)) if j != i):
                    return False, "two words on one line", (a, b)
    return True, None, None


@st.composite
def flipped_codes(draw):
    """(source code, the source with one entry of one word changed)."""
    M = profile_source(draw(st.sampled_from(["H", "parity-4-3", "r4", "twisted-3"])))
    k = draw(st.integers(0, len(M) - 1))
    i = draw(st.integers(0, M.n - 1))
    w = M.words[k]
    s = draw(st.sampled_from([s for s in range(M.q) if s != w[i]]))
    words = list(M.words)
    words[k] = w[:i] + (s,) + w[i + 1:]
    return M, MdsCode(M.q, M.n, words)


def refusals(M, F):
    """Each search entry point run with F where an MDS code belongs."""
    base = F.words[0]
    return [
        lambda: next(autotopism_search(F)),
        lambda: equivalent_codes(F, M),
        lambda: equivalent_codes(M, F),
        lambda: is_isotopically_transitive(F, method="pinned"),
        lambda: is_topolinear(F),
        # the base-word stabilizer search of is_topolinear
        lambda: next(autotopism_search(F, pins={(i, b): b for i, b in enumerate(base)})),
    ]


@settings(max_examples=30)
@given(flipped_codes())
def test_searches_refuse_a_flipped_code(case):
    M, F = case
    assert oracle_mds(M) == (True, None, None) and is_mds(M)
    verdict = is_mds(F)
    assert (verdict.ok, verdict.reason, verdict.witness) == oracle_mds(F)
    assert verdict.reason == "two words on one line"
    for call in refusals(M, F):
        with pytest.raises(ValueError, match=re.escape(f"not an MDS code: {verdict.reason}")):
            call()
    assert list(search_isotopisms(F, M)) == []


def test_a_repeated_word_is_refused_and_never_searched_onto_a_code():
    M = parity_code(4, 3)
    words = list(M.words)
    words[1] = words[0]  # size kept, one word missing
    D = MdsCode(M.q, M.n, words)
    verdict = is_mds(D)
    assert ((verdict.ok, verdict.reason, verdict.witness) == oracle_mds(D)
            == (False, "duplicate word", (words[0], words[0])))
    # each word of D lies in M, but D misses one word of M
    assert list(search_isotopisms(D, M)) == []
    for call in refusals(M, D):
        with pytest.raises(ValueError, match="not an MDS code: duplicate word"):
            call()



# ---------------------------------------------------------------------------
# the integer line index and the search that reads it

def dict_search(src, dst, pins=None, budget=isometry.DEFAULT_BUDGET):
    """Reference: the search as it ran on a dict index keyed by the word with
    one coordinate dropped, a per-word image matrix and a word-set probe of
    dst. Same DFS order, so the same isotopisms in the same order."""
    if len(src) != len(dst) or len(set(src.words)) != len(src):
        return
    q, n, words = src.q, src.n, src.words
    comp = [{w[:i] + w[i + 1:]: w[i] for w in dst.words} for i in range(n)]
    dst_set = set(dst.words)
    slots = {}
    for idx, w in enumerate(words):
        for i, s in enumerate(w):
            slots.setdefault((i, s), []).append(idx)
    tau = [[-1] * q for _ in range(n)]
    tinv = [[-1] * q for _ in range(n)]
    img = [[-1] * n for _ in words]
    unk = [n] * len(words)
    trail = []
    nodes = 0

    def assign(i0, a0, b0):
        nonlocal nodes
        queue = [(i0, a0, b0)]
        while queue:
            i, a, b = queue.pop()
            if tau[i][a] != -1:
                if tau[i][a] != b:
                    return False
                continue
            if tinv[i][b] != -1:
                return False
            nodes += 1
            if nodes > budget.max_nodes:
                raise BudgetExceeded("search nodes", budget.max_nodes)
            tau[i][a], tinv[i][b] = b, a
            trail.append((i, a, b))
            pending = []
            for widx in slots.get((i, a), ()):
                img[widx][i] = b
                unk[widx] -= 1
                if unk[widx] <= 1:
                    pending.append(widx)
            for widx in pending:
                im = img[widx]
                if unk[widx] == 1:
                    j = im.index(-1)
                    val = comp[j].get(tuple(im[:j] + im[j + 1:]))
                    if val is None:
                        return False
                    queue.append((j, words[widx][j], val))
                elif tuple(im) not in dst_set:
                    return False
        return True

    def undo_to(mark):
        while len(trail) > mark:
            i, a, b = trail.pop()
            tau[i][a] = tinv[i][b] = -1
            for widx in slots.get((i, a), ()):
                img[widx][i] = -1
                unk[widx] += 1

    def pick_word():
        best, best_u = -1, n + 1
        for widx in range(len(words)):
            u = unk[widx]
            if 0 < u < best_u:
                best, best_u = widx, u
                if u == 2:
                    break
        return best

    def dfs():
        widx = pick_word()
        if widx == -1:
            yield Isotopism(tau)
            return
        i = img[widx].index(-1)
        for b in range(q):
            if tinv[i][b] == -1:
                mark = len(trail)
                if assign(i, words[widx][i], b):
                    yield from dfs()
                undo_to(mark)

    if all(assign(i, a, b) for (i, a), b in (pins or {}).items()):
        yield from dfs()


def search_cases():
    """(name, code) pairs for the reference comparison."""
    cases = [("twisted-3", scrambled(twisted_graph_code(3), 41)),
             ("twisted-5", scrambled(twisted_graph_code(5), 42)),
             ("H", code_h()), ("parity-4-3", parity_code(4, 3))]
    cases += [(name, profile_source(name)) for name in ["r1", "r2", "r3", "r4"]]
    return cases


def test_search_matches_the_dict_keyed_reference():
    rng = random.Random(43)
    pinned_hits = set()
    for name, M in search_cases():
        base = M.words[0]
        image = random_isotopism(M.q, M.n, rng).apply_code(M)
        for src, dst in [(M, M), (image, M), (M, image)]:
            found = list(search_isotopisms(src, dst))
            assert found and found == list(dict_search(src, dst)), name
        for w in (base, M.words[1], M.words[len(M) // 2], M.words[-1]):
            pins = {(i, b): w[i] for i, b in enumerate(base)}
            found = list(search_isotopisms(M, M, pins=pins))
            assert found == list(dict_search(M, M, pins=pins)), (name, w)
            pinned_hits.add(bool(found))
    assert pinned_hits == {True, False}  # r4 is not transitive


def test_search_over_parastrophes_matches_the_dict_keyed_reference():
    M1 = profile_source("H")
    M2 = random_isometry(M1, random.Random(44)).apply_code(M1)
    hits = 0
    for eps in itertools.permutations(range(M1.n)):
        src = isometry.parastrophe(M1, eps)
        found = list(search_isotopisms(src, M2))
        assert found == list(dict_search(src, M2)), eps
        hits += bool(found)
    assert 0 < hits < 24


def test_search_stops_at_the_same_node_as_the_reference():
    M = scrambled(twisted_graph_code(5), 42)
    budget = SearchBudget(max_nodes=400)
    runs = []
    for search in (search_isotopisms, dict_search):
        found = []
        with pytest.raises(BudgetExceeded, match="search nodes limit 400"):
            for g in search(M, M, budget=budget):
                found.append(g)
        runs.append(found)
    assert runs[0] == runs[1] and runs[0]


# ---------------------------------------------------------------------------
# the packed search core against the search that trailed three lists per word

def both_streams(src, dst, pins=None):
    """The complete isotopism streams of the package's search and of the
    frozen trailing search, as tuples of permutations."""
    packed = [g.taus for g in search_isotopisms(src, dst, pins=pins)]
    trailed = list(tuple_reference.search_isotopisms(src.q, src.n, src.words, dst.words, pins))
    return packed, trailed


def base_pins(M, w):
    return {(i, b): w[i] for i, b in enumerate(M.words[0])}


@pytest.mark.parametrize("p", [3, 5, 7])
def test_pinned_searches_match_the_trailing_search(p):
    M = scrambled(twisted_graph_code(p), 60 + p)
    for w in M.words[::len(M) // 6]:
        packed, trailed = both_streams(M, M, base_pins(M, w))
        assert packed == trailed and packed, w


def test_stabilizer_listings_match_the_trailing_search():
    for name in ["twisted-3", "twisted-5", "H", "r2", "r4", "parity-4-3"]:
        M = scrambled(profile_source(name), 61)
        packed, trailed = both_streams(M, M, base_pins(M, M.words[0]))
        assert packed == trailed and packed, name


def test_parastrophe_searches_match_the_trailing_search():
    H = profile_source("H")
    for M1, M2, equivalent in [(H, random_isometry(H, random.Random(62)).apply_code(H), True),
                               (profile_source("r2"), scrambled(H, 63), False)]:
        hits = 0
        for eps in itertools.permutations(range(M1.n)):
            packed, trailed = both_streams(isometry.parastrophe(M1, eps), M2)
            assert packed == trailed, eps
            hits += bool(packed)
        assert (hits > 0) == equivalent


def test_no_isotope_yields_nothing_from_either_search():
    M = profile_source("twisted-3")
    words = list(M.words)
    words[5] = words[5][:2] + ((words[5][2] + 1) % M.q,)  # same size, one line holds two
    for src, dst in [(MdsCode(M.q, M.n, words), M), (profile_source("r4"), profile_source("r1"))]:
        assert both_streams(src, dst) == ([], [])


def test_pins_that_clash_at_once_yield_nothing_from_either_search():
    M = scrambled(twisted_graph_code(5), 64)
    w = M.words[7]
    clash = base_pins(M, w)
    clash[(M.n - 1, M.words[0][-1])] = (w[-1] + 1) % M.q  # the base word's image leaves M
    for pins in [{(0, 0): 1, (0, 1): 1}, clash]:
        assert both_streams(M, M, pins) == ([], [])


def test_both_searches_refuse_a_tiny_node_budget_alike():
    M = scrambled(twisted_graph_code(5), 65)
    for limit in [0, 1, M.n * M.q - 1]:
        with pytest.raises(BudgetExceeded) as packed:
            list(search_isotopisms(M, M, budget=SearchBudget(max_nodes=limit)))
        with pytest.raises(tuple_reference.NodeLimit) as trailed:
            list(tuple_reference.search_isotopisms(M.q, M.n, M.words, M.words, max_nodes=limit))
        assert (packed.value.bound, packed.value.limit) == trailed.value.args == ("search nodes",
                                                                                   limit)


UNREFUTED = {  # a code, its scrambling seed, and a word k whose pinned search refutes no branch
    "twisted-9": (lambda: twisted_graph_code(9), 9, 270),
    "quadratic-5": (lambda: quadratic_code(QuadraticSpec.make(2, 1, 5, alpha=[
        [0, 1, 0, 1, 1], [0, 0, 1, 0, 1], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1], [0] * 5])), 5, 252),
}


@pytest.mark.parametrize("name", sorted(UNREFUTED))
def test_a_search_with_no_refuted_branch_assigns_each_slot_once(name):
    """Each of the n*q slots is assigned once on the way to the first
    isotopism, so n*q nodes find it and one fewer refuses, in both searches."""
    build, seed, k = UNREFUTED[name]
    M = scrambled(build(), seed)
    pins, nq = base_pins(M, M.words[k]), M.n * M.q
    found = next(search_isotopisms(M, M, pins=pins, budget=SearchBudget(max_nodes=nq)))
    assert found.apply_word(M.words[0]) == M.words[k]
    assert next(tuple_reference.search_isotopisms(M.q, M.n, M.words, M.words, pins, nq)) == \
        found.taus
    with pytest.raises(BudgetExceeded, match=f"search nodes limit {nq - 1}"):
        next(search_isotopisms(M, M, pins=pins, budget=SearchBudget(max_nodes=nq - 1)))
    with pytest.raises(tuple_reference.NodeLimit):
        next(tuple_reference.search_isotopisms(M.q, M.n, M.words, M.words, pins, nq - 1))


def test_line_keys_read_back_each_words_own_symbol():
    for name, M in oracle_cases():
        maps = M.completion_maps()
        assert M._lost_line is None, name
        for i in range(M.n):
            assert len(maps[i]) == len(M), name
            for w in M.words:
                key = 0
                for s in w[:i] + w[i + 1:]:
                    key = key * M.q + s
                assert maps[i][key] == w[i], (name, i, w)
