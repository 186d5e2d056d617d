import itertools
import random
import re

import numpy as np
import pytest

from topolinear import constructions

from topolinear.budget import SearchBudget
from topolinear.codes import (BinaryQuasigroup, graph_code, is_mds, make_cp, make_dihedral,
                              twisted_graph_code)
from topolinear.counting import partitions_of
from topolinear.constructions import (CompositionSpec, IteratedGroupSpec,
                                      QuadraticSpec, _inverses, composition_code,
                                      composition_witness,
                                      fold, iterated_code, quadratic_code,
                                      quadratic_witness,
                                      sigma_compatibility_failure,
                                      solve_condition_c, star_isotopism)
from topolinear.isometry import (TransitivityCertificate, equivalent_codes,
                                 is_isotopically_transitive, is_topolinear)
from tuple_reference import TupleField, quadratic_words, random_permutation


def regular_group_iterated(spec: IteratedGroupSpec, M=None):
    """The star translations by all codewords; a sharply transitive group."""
    if M is None:
        M = iterated_code(spec)
    return [star_isotopism(spec.loop, w) for w in M.words]


def condition_c_solutions(loop, m: int, sigma):
    """All solutions of the block equation, one per tail in Q^(m-1)."""
    for tail in itertools.product(range(loop.q), repeat=m - 1):
        yield solve_condition_c(loop, m, sigma, tail=tail)


# ---------------------------------------------------------------------------
# star machinery

def test_folds_multiply_under_star():
    L = make_dihedral(3)
    rng = random.Random(0)
    for _ in range(30):
        xs = tuple(rng.randrange(6) for _ in range(4))
        ys = tuple(rng.randrange(6) for _ in range(4))
        prod = star_isotopism(L, ys).apply_word(xs)  # x star y
        assert fold(L, prod) == L.table[fold(L, xs)][fold(L, ys)]


def test_shift_isotopism_preserves_fold_fibers():
    # the inverse star translation of b, once `shift_isotopism`, carries b
    # to the identity word
    L = make_dihedral(3)
    M = iterated_code(IteratedGroupSpec(L, 3))
    for b in list(M.words)[:8]:
        g = star_isotopism(L, b).inverse()
        assert g.apply_word(b) == (L.identity,) * 3
        assert g.is_automorphism_of(M)


def test_iterated_code_is_topolinear_by_its_regular_group():
    spec = IteratedGroupSpec(make_dihedral(3), 3)
    M = iterated_code(spec)
    assert is_mds(M) and len(M) == 36
    group = regular_group_iterated(spec, M)
    assert len(set(group)) == len(M)
    wits = {g.apply_word(M.words[0]): g for g in group}
    assert TransitivityCertificate("topolinear", M.words[0], wits).verify(M) == (True, None)
    assert is_topolinear(M).status is True


def test_iterated_rejects_nonassociative_loops():
    with pytest.raises(ValueError):
        IteratedGroupSpec(make_cp(3), 3)


# ---------------------------------------------------------------------------
# the block equation

def test_condition_c_solutions_count_and_replay():
    L = make_dihedral(3)
    # left translations compose with automorphisms, so they are compatible
    sigma = tuple(L.table[2][z] for z in range(6))
    assert sigma_compatibility_failure(L, sigma) is None
    m = 2
    sols = list(condition_c_solutions(L, m, sigma))
    assert len(sols) == 6 ** (m - 1)
    assert len({taus.tobytes() for taus in sols}) == len(sols)
    for taus in sols:
        for zs in itertools.product(range(6), repeat=m):
            image = tuple(t[z] for t, z in zip(taus, zs))
            assert fold(L, image) == sigma[fold(L, zs)]


def test_condition_c_rejects_incompatible_sigmas():
    L = make_dihedral(3)
    rng = random.Random(4)
    rejected = 0
    for _ in range(20):
        sigma = random_permutation(6, rng)
        if sigma_compatibility_failure(L, sigma) is not None:
            rejected += 1
            with pytest.raises(ValueError):
                solve_condition_c(L, 2, sigma)
    assert rejected > 0


def test_condition_c_tail_controls_the_solution():
    L = make_dihedral(3)
    sigma = tuple(L.table[1][z] for z in range(6))
    a = solve_condition_c(L, 3, sigma, tail=(0, 0))
    b = solve_condition_c(L, 3, sigma, tail=(2, 5))
    assert not np.array_equal(a, b)
    # the tail really is the image of the identity at positions 2..m
    e = L.identity
    assert (b[1][e], b[2][e]) == (2, 5)


@pytest.mark.parametrize("sigma,tail,message", [
    ((0, 1, 2, 3, 4, 5.5), None, "sigma must be a permutation of the symbols"),
    ((0, 1, 2, 3, 4, True), None, "sigma must be a permutation of the symbols"),
    ((0, 1, 2, 3, 4, 6), None, "sigma must be a permutation of the symbols"),
    (tuple(range(6)), (-1,), "tail entries must be symbols"),
    (tuple(range(6)), (6,), "tail entries must be symbols"),
    (tuple(range(6)), (1.7,), "tail entries must be symbols"),
    (tuple(range(6)), (True,), "tail entries must be symbols"),
    (tuple(range(6)), (1, 1), "tail must list the identity images at positions 2..m")],
    ids=["float-sigma", "bool-sigma", "sigma-out-of-range", "negative-tail",
         "tail-out-of-range", "float-tail", "bool-tail", "long-tail"])
def test_condition_c_refuses_what_is_not_a_symbol(sigma, tail, message):
    # sigma and the tail were read with int(): 5.5 passed as 5, a tail entry
    # -1 read the last row, and 1.7 and True read row 1
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        solve_condition_c(make_dihedral(3), 2, sigma, tail=tail)


def compatible_sigmas(L):
    """Every sigma x -> c·a(x) of the dihedral loop L = D_p, c an element
    and a an automorphism. The images of the generators 1 and p fix a, which
    is kept when it is a well-defined bijective homomorphism."""
    T, q, e = np.array(L.table), L.q, L.identity
    sigmas = set()
    for images in itertools.product(range(q), repeat=2):
        a, todo = {e: e}, [e]
        while todo and a is not None:
            u = todo.pop()
            for g, image in zip((1, q // 2), images):
                v, w = L.table[u][g], L.table[a[u]][image]
                if v not in a:
                    a[v] = w
                    todo.append(v)
                elif a[v] != w:
                    a = None
                    break
        if a is not None and len(a) == q and len(set(a.values())) == q:
            a = np.array([a[x] for x in range(q)])
            assert np.array_equal(a[T], T[a][:, a])
            sigmas |= {tuple(T[c, a].tolist()) for c in range(q)}
    return sigmas


@pytest.mark.parametrize("p", [3, 5])
def test_condition_c_solutions_replay_for_every_compatible_sigma(p):
    # solve_condition_c checks none of its solutions: each is replayed here
    # on all of Q^m for m <= 3
    L = make_dihedral(p)
    T, q, e = np.array(L.table), L.q, L.identity
    sigmas = compatible_sigmas(L)
    assert len(sigmas) == q * p * (p - 1)  # |Aut(D_p)| = p(p - 1) for odd p
    if p == 3:  # the defining identity sigma(xy) = sigma(x) sigma(e)^-1 sigma(y) on S_6
        inverse = {x: L.table[x].tolist().index(e) for x in range(q)}
        assert sigmas == {s for s in itertools.permutations(range(q)) if all(
            s[L.table[x][y]] == L.table[L.table[s[x]][inverse[s[e]]]][s[y]]
            for x in range(q) for y in range(q))}
    for sigma in sigmas:
        assert sigma_compatibility_failure(L, sigma) is None
        for m in (1, 2, 3):
            taus = np.array(solve_condition_c(L, m, sigma))
            zs = np.indices((q,) * m).reshape(m, -1)
            folded = image = np.full(zs.shape[1], e)
            for j in range(m):
                folded, image = T[folded, zs[j]], T[image, taus[j][zs[j]]]
            assert np.array_equal(image, np.array(sigma)[folded]), (sigma, m)


# ---------------------------------------------------------------------------
# composition codes

def test_composition_code_sizes_and_mds():
    for inner, n in [((1, 1), 3), ((1, 2), 4), ((2, 2), 5)]:
        M = composition_code(CompositionSpec("cp", 3, inner))
        assert M.n == n and len(M) == 6 ** (n - 1)
    assert is_mds(composition_code(CompositionSpec("cp", 3, (1, 2))))


def test_composition_witnesses_flatten_every_word():
    spec = CompositionSpec("cp", 3, (1, 1))
    M = composition_code(spec)
    base = (0,) * M.n
    seen = set()
    for w in M.words:
        g = composition_witness(spec, w)
        assert g.apply_word(w) == base
        assert g.is_automorphism_of(M)
        seen.add(g.inverse())
    # the inverses hit every word from the base, one each
    assert len(seen) == len(M)
    assert {g.apply_word(base) for g in seen} == set(M.words)


def test_a_composition_witness_consults_no_randomness(monkeypatch):
    # a block solution once checked itself on words drawn from random.Random
    # when q^m > 10000, as for cp p=11 with blocks (3, 1): 22^3 = 10648
    spec, rng = CompositionSpec("cp", 11, (3, 1)), random.Random(5)
    dih, cp = make_dihedral(11), make_cp(11)

    def word(blocks):
        return (fold(cp, [fold(dih, b) for b in blocks]),) + sum(blocks, ())

    words = [word(((rng.randrange(22), rng.randrange(22), rng.randrange(22)),
                   (rng.randrange(22),))) for _ in range(20)]

    def refuse(*args):
        raise AssertionError("random.Random was called")

    monkeypatch.setattr(random, "Random", refuse)
    constructions._solve_block.cache_clear()
    for w in words[:4]:
        g = composition_witness(spec, w)
        assert g.apply_word(w) == (0,) * 5
        for v in words:  # g maps code words to code words
            image = g.apply_word(v)
            assert image == word((image[1:4], image[4:])), (w, v)


@pytest.mark.parametrize("inner", [(1.5, 1), (True, 1), ("1", 1), (1.0, 1)],
                         ids=["truncated", "bool", "string", "float"])
def test_a_composition_spec_refuses_non_integer_arities(inner):
    with pytest.raises(ValueError, match="^block arities must be integers$"):
        CompositionSpec("cp", 3, inner)


@pytest.mark.parametrize("alpha,beta,message", [
    ([[0, 1.9], [0, 0]], None, "alpha entries must be field elements"),
    ([[0, True], [0, 0]], None, "alpha entries must be field elements"),
    (None, [[0, "1"], [0, 0]], "beta values must be field elements"),
    (None, [[0, 1.0], [0, 0]], "beta values must be field elements")],
    ids=["truncated-alpha", "bool-alpha", "string-beta", "float-beta"])
def test_a_quadratic_spec_refuses_non_integer_entries(alpha, beta, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        QuadraticSpec.make(2, 1, 2, alpha=alpha, beta=beta)


def test_composition_zpz2_outer():
    M = composition_code(CompositionSpec("zpz2", 3, (2,)))
    assert M.n == 3 and is_mds(M)
    assert is_isotopically_transitive(M).transitive


def test_distinct_partitions_of_3_give_inequivalent_codes():
    codes = [composition_code(CompositionSpec("zpz2", 3, inner))
             for inner in ((3,), (2, 1), (1, 1, 1))]
    for a, b in itertools.combinations(codes, 2):
        assert equivalent_codes(a, b) is None


@pytest.mark.parametrize("N,points", [(4, 6**5), (5, 6**6)])
def test_distinct_partitions_of_4_and_5_give_inequivalent_codes(N, points):
    # lengths 5 and 6 over 6 symbols: their intercalate profiles differ,
    # so each pair is decided before any isotopism search
    budget = SearchBudget(max_points=points)
    codes = [composition_code(CompositionSpec("zpz2", 3, inner))
             for inner in partitions_of(N)]
    assert len(codes) == {4: 5, 5: 7}[N]
    for a, b in itertools.combinations(codes, 2):
        assert equivalent_codes(a, b, budget=budget) is None


def test_partitions_of_4_are_decided_under_the_default_budget():
    # 6^5 points: the library's default budget, the command line's, admits
    # the pair, and the profiles decide it
    a = composition_code(CompositionSpec("zpz2", 3, (4,)))
    b = composition_code(CompositionSpec("zpz2", 3, (2, 2)))
    assert equivalent_codes(a, b) is None


# ---------------------------------------------------------------------------
# quadratic codes

@pytest.mark.parametrize("n,pairs", [(3, []), (3, [(0, 1)]),
                                     (4, [(0, 1)]), (4, [(0, 1), (2, 3)])])
def test_quadratic_codes_verify_end_to_end(n, pairs):
    alpha = [[0] * n for _ in range(n)]
    for i, j in pairs:
        alpha[i][j] = 1
    spec = QuadraticSpec.make(2, 1, n, alpha=alpha)
    M = quadratic_code(spec)
    assert is_mds(M)
    rng = random.Random(n)
    sample = [M.words[rng.randrange(len(M))] for _ in range(10)]
    base = (0,) * n
    for w in sample:
        g = quadratic_witness(spec, w)
        assert g.apply_word(w) == base
        assert g.is_automorphism_of(M)
    assert is_topolinear(M).status is True


def quadratic_words_one_by_one(spec):
    """Reference: the quadratic code word by word, through scalar
    operations on the field's tuple tables and the form r one term at a time."""
    return quadratic_words(TupleField(spec.p, spec.k), spec.alpha, spec.beta, spec.n)


@pytest.mark.parametrize("p,k,n", [(2, 1, 2), (2, 1, 4), (3, 1, 2), (3, 1, 3),
                                   (2, 2, 3), (5, 1, 2), (2, 1, 5)])
def test_quadratic_code_matches_the_word_by_word_build(p, k, n):
    rng = random.Random(p * 100 + k * 10 + n)
    q = p ** k
    for _ in range(3):
        alpha = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
        beta = [[0] + [rng.randrange(q) for _ in range(q - 1)] for _ in range(n)]
        spec = QuadraticSpec.make(p, k, n, alpha=alpha, beta=beta)
        M = quadratic_code(spec)
        assert list(M.words) == quadratic_words_one_by_one(spec)
        assert M.provenance == {"construction": "quadratic", "p": p, "k": k, "n": n,
                                "alpha": alpha, "beta": beta}
        assert {type(s) for w in M.words[:3] for s in w} == {int}


def test_quadratic_beta_tables_are_respected():
    beta = [[0, 1], [0, 0], [0, 1]]
    spec = QuadraticSpec.make(2, 1, 3, beta=beta)
    M = quadratic_code(spec)
    assert is_mds(M)
    plain = quadratic_code(QuadraticSpec.make(2, 1, 3))
    assert M.words != plain.words
    assert is_topolinear(M).status is True


@pytest.mark.parametrize("build,witness,spec", [
    (composition_code, composition_witness, CompositionSpec("cp", 3, (1, 1))),
    (quadratic_code, quadratic_witness, QuadraticSpec.make(2, 1, 3, alpha=[[0, 1, 0],
                                                                        [0, 0, 0],
                                                                        [0, 0, 0]])),
])
def test_witnesses_reject_words_outside_the_code(build, witness, spec):
    M = build(spec)
    w = M.words[1]
    outside = ((w[0] + 1) % M.q,) + w[1:]
    assert outside not in M
    with pytest.raises(ValueError):
        witness(spec, outside)


def test_graph_codes_of_groups_take_the_construction_group():
    res = is_topolinear(graph_code(make_dihedral(3)))
    assert res.status is True
    assert res.reason == "construction group"


def test_graph_code_of_a_quasigroup_has_no_hint_to_drop():
    # x, y -> -x - y mod 3: a Latin square with no identity element
    M = graph_code(BinaryQuasigroup([[0, 2, 1], [2, 1, 0], [1, 0, 2]]))
    assert "identity" not in M.provenance
    trans = is_isotopically_transitive(M)
    assert trans.transitive and trans.reason == ""
    res = is_topolinear(M)
    assert res.status is True and "dropped" not in res.reason


def test_twisted_graph_of_even_p_has_no_hint_to_drop():
    # the cp witness formula halves mod p, so it is set up for odd p only
    M = twisted_graph_code(4)
    trans = is_isotopically_transitive(M)
    assert trans.transitive and trans.method == "pinned" and trans.reason == ""
    assert trans.certificate.verify(M) == (True, None)


def test_element_inverse_is_two_sided_in_groups():
    L = make_dihedral(5)
    inverses = _inverses(L)
    for x in range(L.q):
        w = inverses[x]
        assert L.table[x][w] == L.identity == L.table[w][x]
