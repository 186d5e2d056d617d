import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from topolinear.classify_q4 import (_BALANCED_LABELINGS, _x_labelings,
                                    all_latin_squares, anf, anf_degree,
                                    classify, code_h, form_function,
                                    h_subcode_witness,
                                    semilinearity_test,
                                    standard_semilinear_code, truth_table)
from topolinear.codes import (Isotopism, MdsCode, NAryQuasigroup, graph_of,
                              is_mds)
from topolinear.isometry import (Isometry, autotopism_search, equivalent_codes,
                                 is_isotopically_transitive, is_topolinear, parastrophe)

R0 = []
R_PAIR = [(0, 1), (2, 3)]     # product of two disjoint pairs
R_ONE = [(0, 1)]              # single pair product
R_CUBIC = [(0, 1, 2)]         # triple product


def test_anf_round_trip_degrees():
    # oracle: evaluate the polynomial directly, then recover it
    for monomials, deg in [(R0, 0), (R_ONE, 2), (R_PAIR, 2), (R_CUBIC, 3),
                           ([(0,), (1, 2)], 2)]:
        r = form_function(monomials)
        truth = truth_table(r, 4)
        masks = anf(truth)
        assert anf_degree(masks) == deg
        # replay: xor of recovered monomials reproduces the table
        for m in range(16):
            val = 0
            for mono in masks:
                val ^= int(mono & m == mono)
            assert val == truth[m]


@pytest.mark.parametrize("monomials,degree,transitive", [
    (R0, 0, True),
    (R_ONE, 2, True),
    (R_PAIR, 2, True),
    (R_CUBIC, 3, False),
])
def test_standard_codes_classify_as_frozen(monomials, degree, transitive):
    M = standard_semilinear_code(4, monomials)
    assert is_mds(M)
    v = classify(M)
    assert v.semilinear is True
    assert v.degree == degree
    assert v.transitive is transitive
    assert bool(v) is transitive


def test_standard_code_degrees_are_isotopy_stable():
    # relabeling symbols at one coordinate must not change the verdict
    M = standard_semilinear_code(4, R_CUBIC)
    swapped = [(w[0], w[1], w[2], (2, 3, 0, 1)[w[3]]) for w in M.words]
    from topolinear.codes import MdsCode
    v = classify(MdsCode(4, 4, swapped))
    assert v.semilinear and v.degree == 3 and not v.transitive


def test_cubic_code_fails_with_a_concrete_word():
    M = standard_semilinear_code(4, R_CUBIC)
    res = is_isotopically_transitive(M, method="pinned")
    assert not res.transitive
    assert res.failing_word == (0, 0, 1, 1)


def test_cubic_code_symmetry_group_and_orbit():
    M = standard_semilinear_code(4, R_CUBIC)
    group = list(autotopism_search(M))
    assert len(group) == 16
    orbit = {g.apply_word((0, 0, 0, 0)) for g in group}
    assert len(orbit) == 8


def test_pair_code_is_transitive_but_not_semilinear():
    H = code_h()
    assert is_mds(H)
    assert semilinearity_test(H) is None
    v = classify(H)
    assert v.semilinear is False and v.transitive is True
    assert is_topolinear(H).status is True


def test_pair_code_group_is_regular():
    H = code_h()
    group = list(autotopism_search(H))
    assert len(group) == 64 == len(H)
    assert {g.apply_word((0, 0, 0, 0)) for g in group} == set(H.words)


def test_pair_code_not_equivalent_to_any_standard_form():
    H = code_h()
    for monomials in (R0, R_ONE, R_PAIR, R_CUBIC):
        M = standard_semilinear_code(4, monomials)
        assert equivalent_codes(H, M) is None


def test_symmetry_group_orders_separate_the_standard_codes():
    orders = {}
    for name, monomials in [("r0", R0), ("one", R_ONE),
                            ("pair", R_PAIR), ("cubic", R_CUBIC)]:
        M = standard_semilinear_code(4, monomials)
        orders[name] = sum(1 for _ in autotopism_search(M))
    assert orders == {"r0": 384, "one": 128, "pair": 128, "cubic": 16}


def test_semilinearity_test_returns_a_replayable_form():
    M = standard_semilinear_code(4, R_PAIR)
    form = semilinearity_test(M)
    assert form is not None and form.degree == 2
    image = form.witness.apply_code(M)
    rebuilt = standard_semilinear_code(4, frozenset(
        tuple(i for i in range(4) if mono >> i & 1) for mono in form.monomials))
    assert image.words == rebuilt.words


def test_h_subcode_witness_is_direct():
    fixed, witness = h_subcode_witness(code_h())
    assert fixed == {}
    assert witness is not None


def test_all_latin_squares_of_order_4():
    squares = all_latin_squares(4)
    assert len(squares) == 576
    assert len(set(squares)) == 576
    for sq in squares[:20]:
        for row in sq:
            assert sorted(row) == [0, 1, 2, 3]
        for col in zip(*sq):
            assert sorted(col) == [0, 1, 2, 3]


def test_classify_rejects_non_q4_codes():
    from topolinear.codes import parity_code
    with pytest.raises(ValueError):
        classify(parity_code(3, 3))


def test_classify_refuses_a_code_that_is_not_mds():
    # the 63 words left after dropping one were called semilinear, degree 2
    M = MdsCode(4, 4, standard_semilinear_code(4, R_PAIR).words[1:])
    for decide in (semilinearity_test, classify):
        with pytest.raises(ValueError, match=re.escape(
                "not an MDS code: size 63 != q^(n-1) = 64")):
            decide(M)


# ---------------------------------------------------------------------------
# reference: labelings enumerated coordinate by coordinate

def dfs_x_labelings(M):
    """Every tuple of balanced labelings of coordinates 0..n-2, depth first in
    the order of _BALANCED_LABELINGS, with the last coordinate's labeling
    forced word by word; the tuples under which every word has x-parity 0."""
    words, n = M.words, M.n
    found = []

    def rec(i, labels, parities):
        if i == n - 1:
            forced = [-1, -1, -1, -1]
            for w, par in zip(words, parities):
                u = w[-1]
                if forced[u] == -1:
                    forced[u] = par
                elif forced[u] != par:
                    return
            if sum(forced) != 2 or -1 in forced:
                return
            found.append(labels + (tuple(forced),))
            return
        for lab in _BALANCED_LABELINGS:
            rec(i + 1, labels + (lab,),
                tuple((p ^ lab[w[i]]) for p, w in zip(parities, words)))

    rec(0, (), (0,) * len(words))
    return found


def reference_form(M, labelings):
    """(taus, monomials, degree) of the first minimum-degree labeling in
    `labelings` whose y-parity is constant on every x-pattern, read word by
    word; None when there is none."""
    n = M.n
    best = None
    for labels in labelings:
        taus = []
        for lab in labels:
            tau = [0] * 4
            for x in (0, 1):
                low, high = [u for u in range(4) if lab[u] == x]
                tau[low], tau[high] = x, x + 2
            taus.append(tuple(tau))
        per_pattern = {}
        ok = True
        for w in M.words:
            img = tuple(taus[i][w[i]] for i in range(n))
            parity = sum(u >> 1 for u in img) % 2  # symbol u = x + 2y
            if per_pattern.setdefault(tuple(u & 1 for u in img), parity) != parity:
                ok = False
                break
        if not ok:
            continue
        reduced = tuple(
            per_pattern[tuple((mask >> i) & 1 for i in range(n - 1))
                        + (bin(mask).count("1") % 2,)]
            for mask in range(1 << (n - 1)))
        monos = anf(reduced)
        if best is None or anf_degree(monos) < best[2]:
            best = (tuple(taus), monos, anf_degree(monos))
            if best[2] <= 1:
                break
    return best


def partition(lab):
    """The pair partition of a balanced labeling, as the labeling of the
    pair that labels symbol 0 with 0."""
    return lab if lab[0] == 0 else tuple(1 - b for b in lab)


def assert_replays_onto_its_standard_form(M, form):
    image = form.witness.apply_code(M)
    rebuilt = standard_semilinear_code(M.n, frozenset(
        tuple(i for i in range(M.n - 1) if mono >> i & 1) for mono in form.monomials))
    assert image.words == rebuilt.words


def assert_matches_reference(M):
    labelings = dfs_x_labelings(M)
    got = _x_labelings(M)
    # one of the enumerated labelings for each pair partition of coordinate
    # 0 they cover, in the order of _BALANCED_LABELINGS
    assert all(labels in labelings for labels in got)
    assert [labels[0] for labels in got] == sorted({partition(labels[0]) for labels in labelings})
    form, expected = semilinearity_test(M), reference_form(M, labelings)
    assert (form is None) == (expected is None)
    if form is not None:
        # the reference keeps the affine part of r; the witness folds it away
        assert form.degree == (expected[2] if expected[2] >= 2 else 0)
        assert all(bin(mono).count("1") >= 2 for mono in form.monomials)
        assert_replays_onto_its_standard_form(M, form)
    return form


def test_slice_labelings_match_the_enumeration_on_every_order_4_square():
    semilinear = 0
    for sq in all_latin_squares(4):
        semilinear += assert_matches_reference(graph_of(NAryQuasigroup(sq))) is not None
    assert semilinear == 576  # every Latin square of order 4 is semilinear


@pytest.mark.parametrize("M", [
    standard_semilinear_code(4, R0), standard_semilinear_code(4, R_PAIR),
    standard_semilinear_code(4, R_ONE), standard_semilinear_code(4, R_CUBIC),
    code_h()], ids=["r1", "r2", "r3", "r4", "H"])
def test_slice_labelings_match_the_enumeration_on_r1_to_r4_and_h(M):
    form = assert_matches_reference(M)
    assert (form is None) == (M == code_h())


def scrambled(M, rng):
    """Image of M under a random coordinate permutation and symbol relabeling."""
    eps = rng.sample(range(M.n), M.n)
    taus = [rng.sample(range(4), 4) for _ in range(M.n)]
    return Isometry(Isotopism(taus), eps).apply_code(M)


def form_degree(n, monomials):
    """The degree of the terms of degree 2 or more of r on the n-1 free
    x-bits, the last bit read as their parity: 0 when r is affine."""
    r = form_function(monomials)
    truth = [r([mask >> i & 1 for i in range(n - 1)] + [bin(mask).count("1") & 1])
             for mask in range(1 << (n - 1))]
    return max((d for d in (bin(mono).count("1") for mono in anf(truth)) if d >= 2), default=0)


@st.composite
def scrambled_standard_forms(draw):
    """A standard form of length 4..6 with a monomial of degree 0..3 and up to
    three more of at most that degree (or 1), with the degree of its form,
    and its images under a random symbol relabeling, a random coordinate
    permutation and both."""
    n = draw(st.integers(4, 6))
    degree = draw(st.integers(0, 3))
    top = tuple(draw(st.permutations(range(n)))[:degree])
    rest = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=max(degree, 1),
                                  unique=True).map(tuple), max_size=3))
    source = standard_semilinear_code(n, [top] + rest)
    rng = draw(st.randoms(use_true_random=False))
    eps = rng.sample(range(n), n)
    taus = Isotopism([rng.sample(range(4), 4) for _ in range(n)])
    images = (taus.apply_code(source), parastrophe(source, eps),
              Isometry(taus, eps).apply_code(source))
    return source, form_degree(n, [top] + rest), images


@settings(max_examples=8)
@given(scrambled_standard_forms())
def test_slice_labelings_match_the_enumeration_on_scrambled_standard_forms(case):
    # every isotope and parastrophe prints its source's degree, 0 when affine
    source, degree, (isotope, permuted, both) = case
    assert classify(source).degree == degree
    for M in (isotope, permuted):
        v = classify(M)
        assert (v.semilinear, v.degree) == (True, degree)
        assert_replays_onto_its_standard_form(M, v.evidence)
    form = assert_matches_reference(both)
    assert form is not None and form.degree == degree


def test_the_order_4_squares_print_the_degrees_of_their_two_isotopy_classes():
    # the 144 squares isotopic to the Klein group have an affine form, and
    # the 432 isotopic to the cyclic group one of degree 2
    degrees = Counter(classify(graph_of(NAryQuasigroup(sq))).degree for sq in all_latin_squares(4))
    assert degrees == {0: 144, 2: 432}


def test_an_affine_form_prints_degree_0_on_every_isotope():
    # the printed degree was 1 on each of these isotopes and 0 on the source
    M = standard_semilinear_code(4, R0)
    assert classify(M).degree == 0
    for seed in range(6):
        rng = random.Random(seed)
        isotope = Isotopism([rng.sample(range(4), 4) for _ in range(4)]).apply_code(M)
        v = classify(isotope)
        assert (v.semilinear, v.degree, v.transitive) == (True, 0, True)
        assert v.evidence.monomials == frozenset()
        assert v.evidence.witness.apply_code(isotope) == M


def test_a_scrambled_length_7_cubic_form_classifies_and_replays():
    # 4096 words: enumerating the 6^6 labelings of coordinates 0..5 took
    # tens of seconds; the slices leave one per pair partition, three at most
    M = scrambled(standard_semilinear_code(7, [(0, 1, 2), (3, 4)]), random.Random(7))
    v = classify(M)
    assert (v.semilinear, v.degree, v.transitive) == (True, 3, False)
    assert_replays_onto_its_standard_form(M, v.evidence)
