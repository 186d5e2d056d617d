"""Loop and field tables are read-only int64 arrays, and the construction
formulas are gathers on them: each is compared byte for byte with its tuple
statement in `tuple_reference`, symbol by symbol and word by word."""
import itertools
import random
import warnings

import numpy as np
import pytest

import tuple_reference as ref
from test_constructions import regular_group_iterated
from test_loops import has_identity, latin_squares, seeded_loops
from topolinear.codes import Loop, cyclic_loop, graph_code, make_cp, make_dihedral, make_zp_z2
from topolinear.constructions import (CONSTRUCTIONS, CompositionSpec, IteratedGroupSpec,
                                      QuadraticSpec, _star_witness, chase_to_zero_cp,
                                      composition_code, composition_witness,
                                      cp_autotopism_a1, cp_autotopism_a2, cp_autotopism_a3,
                                      cp_regular_witness, cp_shear, iterated_code,
                                      quadratic_code, quadratic_witness,
                                      solve_condition_c, star_isotopism)
from topolinear.fields import field_make
from topolinear.loops import principal_isotope

MAKERS = [(make_cp, ref.cp_table), (make_dihedral, ref.dihedral_table),
          (make_zp_z2, ref.zp_z2_table), (lambda p: cyclic_loop(2 * p),
                                          lambda p: ref.cyclic_table(2 * p))]


def same_table(loop, table):
    """The loop's table is the read-only int64 array of the tuple table."""
    return (loop.table.dtype == np.int64 and not loop.table.flags.writeable
            and loop.table.tolist() == [list(row) for row in table])


@pytest.mark.parametrize("p", range(2, 10))
def test_every_builtin_table_is_its_tuple_formula(p):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # p = 2 twisted loop is associative
        for make, table in MAKERS:
            loop = make(p)
            assert same_table(loop, table(p)) and loop.identity == 0
            assert type(loop.identity) is int


@pytest.mark.parametrize("p", [3, 5, 7, 9])
def test_the_cp_families_and_witnesses_are_their_tuple_formulas(p):
    for beta in (0, 1):
        assert cp_autotopism_a1(p, beta).taus == ref.cp_autotopism_a1(p, beta)
        assert cp_autotopism_a3(p, beta).taus == ref.cp_autotopism_a3(p, beta)
        for a1, b in itertools.product(range(p), repeat=2):
            assert cp_autotopism_a2(p, a1, b, beta).taus == ref.cp_autotopism_a2(p, a1, b, beta)
    for t in range(p):
        assert cp_shear(p, t).taus == ref.cp_shear(p, t)
    for w in graph_code(make_cp(p)).words:  # every word of the graph
        assert chase_to_zero_cp(p, w).taus == ref.chase_to_zero_cp(p, w)
        g = cp_regular_witness(p, w)
        assert g.taus == ref.cp_regular_witness(p, w)
        assert g.rows.dtype == np.uint8


@pytest.mark.parametrize("name,loop", [("D3", make_dihedral(3)), ("Z5", cyclic_loop(5))])
@pytest.mark.parametrize("n", [3, 4])
def test_iterated_codes_and_star_witnesses_are_their_tuple_formulas(name, loop, n):
    spec, tl = IteratedGroupSpec(loop, n), ref.tuple_loop(loop)
    M = iterated_code(spec)
    assert list(M.words) == ref.iterated_words(tl, n)
    assert M.provenance["table"] == [list(row) for row in tl.table]
    witness, expected = CONSTRUCTIONS["iterated"].witness(spec), ref.star_witness(tl, (0,) * n)
    for w in M.words:
        assert witness(w).taus == expected(w)
    assert [g.taus for g in regular_group_iterated(spec, M)] == [
        ref.star_isotopism(tl, w) for w in M.words]


def test_the_graph_witness_of_a_group_is_its_tuple_formula():
    loop = make_dihedral(3)
    M = graph_code(loop)
    witness = CONSTRUCTIONS["graph"].witness(CONSTRUCTIONS["graph"].parse(M.provenance))
    expected = ref.graph_witness(ref.tuple_loop(loop))
    for w in M.words:
        assert witness(w).taus == expected(w)


STAR_LOOPS = [make_dihedral(3), make_zp_z2(3), cyclic_loop(5), make_dihedral(4)]


@pytest.mark.parametrize("loop", STAR_LOOPS, ids=["D3", "Z3xZ2", "Z5", "D4"])
def test_the_deleted_star_helpers_are_star_translation_inverses(loop):
    # star_inverse(b) is star(b)^-1 applied to the identity word, and
    # shift_isotopism(b) is star(b)^-1: every word for n <= 3, a sample at n = 4
    tl, e, rng = ref.tuple_loop(loop), loop.identity, random.Random(loop.q)
    for n in (1, 2, 3, 4):
        words = list(itertools.product(range(loop.q), repeat=n))
        for b in words if n < 4 else rng.sample(words, 200):
            back = star_isotopism(loop, b).inverse()
            assert ref.star_inverse(tl, b) == back.apply_word((e,) * n)
            assert ref.shift_isotopism(tl, b) == back.taus


@pytest.mark.parametrize("loop", STAR_LOOPS, ids=["D3", "Z3xZ2", "Z5", "D4"])
def test_a_star_witness_is_star_of_the_word_after_star_of_the_source_inverted(loop):
    tl, rng = ref.tuple_loop(loop), random.Random(loop.q + 1)
    for n in (2, 3, 4):
        words = list(itertools.product(range(loop.q), repeat=n))
        for src in rng.sample(words, 6):
            ours, theirs = _star_witness(loop, src), ref.star_witness(tl, src)
            for w in rng.sample(words, min(30, len(words))):
                g = ours(w)
                assert g.taus == theirs(w)
                assert g == star_isotopism(loop, w).compose(star_isotopism(loop, src).inverse())


def test_block_solutions_are_their_tuple_formula():
    loop = make_dihedral(3)
    tl = ref.tuple_loop(loop)
    sigmas = [tuple(row) for row in tl.table]  # the left translations are compatible
    for sigma, m in itertools.product(sigmas, (1, 2, 3)):
        for tail in itertools.product(range(loop.q), repeat=m - 1):
            got = solve_condition_c(loop, m, sigma, tail)
            assert got.dtype == np.int64 and not got.flags.writeable
            assert tuple(map(tuple, got.tolist())) == ref.solve_condition_c(tl, m, sigma, tail)


COMPOSITIONS = ([("zpz2", inner) for n in (1, 2, 3) for inner in
                 itertools.product(range(1, n + 1), repeat=n) if sum(inner) <= 3]
                + [("cp", inner) for inner in ((1, 1), (1, 2), (2, 1))])


@pytest.mark.parametrize("outer,inner", sorted(set(COMPOSITIONS)))
def test_composition_codes_and_witnesses_are_their_tuple_formulas(outer, inner):
    spec = CompositionSpec(outer, 3, inner)
    M = composition_code(spec)
    assert list(M.words) == ref.composition_words(outer, 3, inner)
    for w in M.words:
        assert composition_witness(spec, w).taus == ref.composition_witness(outer, 3, inner, w)


@pytest.mark.parametrize("p,k,n", [(2, 1, 4), (2, 2, 3)])
def test_quadratic_codes_and_witnesses_are_their_tuple_formulas(p, k, n):
    F, rng = ref.TupleField(p, k), random.Random(p * 100 + k * 10 + n)
    q = p ** k
    for _ in range(2):
        alpha = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
        beta = [[0] + [rng.randrange(q) for _ in range(q - 1)] for _ in range(n)]
        spec = QuadraticSpec.make(p, k, n, alpha=alpha, beta=beta)
        M = quadratic_code(spec)
        assert list(M.words) == ref.quadratic_words(F, alpha, beta, n)
        for w in M.words:
            assert quadratic_witness(spec, w).taus == ref.quadratic_witness(F, alpha, beta, w)


SUPPORTED_FIELDS = [(p, k) for p in range(2, 257) if all(p % d for d in range(2, p))
                    for k in range(1, 9) if p ** k <= 256]


def test_field_moduli_are_the_least_irreducible_polynomials():
    # the zero-divisor test picks the modulus trial division picks
    assert len(SUPPORTED_FIELDS) == 70
    for p, k in SUPPORTED_FIELDS:
        assert field_make(p, k).modulus == ref.least_irreducible(p, k)


# (2, 8) and (3, 5) are the costliest modulus searches: 28 candidates at q = 256, 8 at q = 243
@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2),
                                 (2, 8), (3, 5)])
def test_field_tables_are_their_tuple_formulas(p, k):
    F, expected = field_make(p, k), ref.TupleField(p, k)
    for got, want in ((F.add, expected.add), (F.mul, expected.mul), (F.neg, expected.neg)):
        assert got.dtype == np.int64 and not got.flags.writeable
        assert got.tolist() == (list(map(list, want)) if got.ndim == 2 else list(want))


def test_principal_isotopes_are_their_tuple_formula_on_the_enumerated_loops():
    loops = [Loop(t) for q in range(1, 5) for t in latin_squares(q) if has_identity(t)]
    for f in loops + seeded_loops():
        table = tuple(map(tuple, f.table.tolist()))
        for a, b in itertools.product(range(f.q), repeat=2):
            assert same_table(principal_isotope(f, a, b), ref.principal_isotope(table, a, b))
