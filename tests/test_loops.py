import random
from contextlib import nullcontext

import pytest

from topolinear.codes import is_mds
from topolinear.loops import (Loop, cyclic_loop, find_non_g_loop_order6,
                              graph_code, is_associative, is_g_loop,
                              loop_isomorphic, make_cp, make_dihedral,
                              make_zp_z2, principal_isotope,
                              random_latin_square, twisted_graph_code)


def direct_associative(loop):
    t = loop.table
    return all(t[t[x][y]][z] == t[x][t[y][z]]
               for x in range(loop.q) for y in range(loop.q) for z in range(loop.q))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_twisted_loop_is_a_loop(p):
    associative = pytest.warns(UserWarning, match="associative") if p == 2 else nullcontext()
    with associative:
        L = make_cp(p)
    assert L.q == 2 * p
    e = L.identity
    assert all(L.table[e][x] == x and L.table[x][e] == x for x in range(L.q))
    assert is_associative(L) == direct_associative(L)


def test_twisted_loop_differs_from_both_groups_of_its_order():
    # isomorphism would make the G-loop facts vacuous
    for p in (3, 5):
        L = make_cp(p)
        assert loop_isomorphic(L, cyclic_loop(2 * p)) is None
        assert loop_isomorphic(L, make_dihedral(p)) is None


@pytest.mark.parametrize("factory", [make_dihedral, make_zp_z2])
def test_group_factories_are_associative(factory):
    for p in (2, 3, 5):
        assert direct_associative(factory(p))


def test_principal_isotope_at_identity_is_the_loop():
    L = make_dihedral(3)
    e = L.identity
    P = principal_isotope(L, e, e)
    assert [list(r) for r in P.table] == [list(r) for r in L.table]


def test_principal_isotopes_of_groups_are_isomorphic():
    L = make_zp_z2(3)
    for a in range(L.q):
        for b in range(L.q):
            assert loop_isomorphic(L, principal_isotope(L, a, b)) is not None


@pytest.mark.parametrize("loop", [make_cp(3), make_dihedral(3), cyclic_loop(6)])
def test_g_loops_small(loop):
    assert is_g_loop(loop)


def test_non_g_fixture_fails_with_replayable_counterexample():
    L = find_non_g_loop_order6()
    assert L.q == 6
    v = is_g_loop(L)
    assert not v
    a, b, iso = v.counterexample
    assert [list(r) for r in iso.table] == [list(r) for r in principal_isotope(L, a, b).table]
    assert loop_isomorphic(L, iso) is None


def test_loop_isomorphic_finds_a_real_isomorphism():
    L = make_dihedral(3)
    rng = random.Random(5)
    relab = list(range(6))
    rng.shuffle(relab)
    table = [[0] * 6 for _ in range(6)]
    for x in range(6):
        for y in range(6):
            table[relab[x]][relab[y]] = relab[L.table[x][y]]
    other = Loop(table)
    tau = loop_isomorphic(L, other)
    assert tau is not None
    assert all(other.table[tau[x]][tau[y]] == tau[L.table[x][y]]
               for x in range(6) for y in range(6))


def test_loop_isomorphic_distinguishes_the_two_order6_groups():
    assert loop_isomorphic(cyclic_loop(6), make_dihedral(3)) is None


def test_graph_codes_are_mds():
    rng = random.Random(1)
    for q in (4, 5, 6):
        sq = random_latin_square(q, rng)
        assert is_mds(graph_code(sq))
    M = twisted_graph_code(3)
    assert is_mds(M) and len(M) == 36
    assert M.provenance == {"construction": "graph", "loop": "cp", "p": 3}


def test_random_latin_square_is_seed_deterministic():
    a = random_latin_square(5, random.Random(42)).table
    b = random_latin_square(5, random.Random(42)).table
    assert [list(r) for r in a] == [list(r) for r in b]
