import itertools
import random
from contextlib import nullcontext
from functools import lru_cache

import numpy as np
import pytest

from topolinear.codes import (Loop, cyclic_loop, graph_code, is_associative, is_mds,
                              make_cp, make_dihedral, make_zp_z2, twisted_graph_code)
from topolinear.constructions import NON_G_6, builtin_loop
from topolinear.loops import find_non_g_loop_order6, is_g_loop, principal_isotope
from random_square import random_latin_square


def direct_associative(loop):
    t = loop.table
    return all(t[t[x][y]][z] == t[x][t[y][z]]
               for x in range(loop.q) for y in range(loop.q) for z in range(loop.q))


@lru_cache(maxsize=None)
def relabellings(q):
    return np.array(list(itertools.permutations(range(q))), dtype=np.int64).reshape(-1, q)


def isomorphic(f, g):
    """Independent check: some relabelling tau has g(tau x, tau y) =
    tau f(x, y), all q! of them tried at once."""
    F, G, taus = np.array(f.table), np.array(g.table), relabellings(f.q)
    return bool((G[taus[:, :, None], taus[:, None, :]] == taus[:, F]).all(axis=(1, 2)).any())


def first_non_isomorphic_isotope(f):
    """The definition of a G-loop, pair by pair: the least (a, b) whose
    principal isotope is not isomorphic to f, or None."""
    return next(((a, b) for a, b in itertools.product(range(f.q), repeat=2)
                 if not isomorphic(f, principal_isotope(f, a, b))), None)


def relabel(f, sigma):
    """The loop f carried by the symbol permutation sigma."""
    table = [[0] * f.q for _ in range(f.q)]
    for x, y in itertools.product(range(f.q), repeat=2):
        table[sigma[x]][sigma[y]] = sigma[f.table[x][y]]
    return Loop(table)


def latin_squares(q):
    """Every Latin square of order q, rows picked from the permutations."""
    perms = list(itertools.permutations(range(q)))

    def extend(rows):
        if len(rows) == q:
            yield rows
            return
        for row in perms:
            if all(row[c] != r[c] for r in rows for c in range(q)):
                yield from extend(rows + [row])

    return extend([])


def has_identity(table):
    q = len(table)
    return any(table[e] == tuple(range(q)) and all(table[x][e] == x for x in range(q))
               for e in range(q))


def seeded_loops():
    """Loops of orders 5 and 6 from random Latin squares, made loops by a
    principal isotope and then relabelled, half with an identity other than 0."""
    rng = random.Random(18)
    out = []
    for k in range(24):
        q = 5 + k % 2
        loop = principal_isotope(random_latin_square(q, rng), rng.randrange(q), rng.randrange(q))
        sigma = list(range(q))
        rng.shuffle(sigma)
        j = sigma.index(0) if k % 4 < 2 else int(sigma[0] == 0)
        sigma[0], sigma[j] = sigma[j], sigma[0]  # the identity goes to sigma[0]
        out.append(relabel(loop, sigma))
    return out


def assert_matches_the_definition(f):
    verdict = is_g_loop(f)
    first = first_non_isomorphic_isotope(f)
    assert bool(verdict) == (first is None)
    if not verdict:
        a, b, iso = verdict.counterexample
        assert np.array_equal(iso.table, principal_isotope(f, a, b).table)
        assert not isomorphic(f, iso)
        if f.identity == 0:
            assert (a, b) == first


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
    # isomorphism would make the G-loop facts vacuous: the groups are
    # associative and the twisted loop is not
    for p in (3, 5):
        assert not is_associative(make_cp(p))
        assert is_associative(cyclic_loop(2 * p)) and is_associative(make_dihedral(p))


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
    assert first_non_isomorphic_isotope(L) is None


@pytest.mark.parametrize("loop", [make_cp(3), make_dihedral(3), cyclic_loop(6)])
def test_g_loops_small(loop):
    assert is_g_loop(loop)


def test_non_g_fixture_fails_with_replayable_counterexample():
    L = find_non_g_loop_order6()
    assert L.q == 6
    v = is_g_loop(L)
    assert not v
    a, b, iso = v.counterexample
    assert (a, b) == (0, 1) == first_non_isomorphic_isotope(L)
    assert [list(r) for r in iso.table] == [list(r) for r in principal_isotope(L, a, b).table]
    assert not isomorphic(L, iso)


def test_the_non_g_6_builtin_is_the_derived_fixture():
    fixture = [list(row) for row in NON_G_6]
    assert find_non_g_loop_order6().table.tolist() == fixture == builtin_loop("non-g-6").table.tolist()


def test_is_g_loop_matches_the_definition_on_every_loop_of_order_at_most_4():
    loops = [Loop(t) for q in range(1, 5) for t in latin_squares(q) if has_identity(t)]
    assert [sum(f.q == q for f in loops) for q in range(1, 5)] == [1, 2, 3, 16]
    for f in loops:
        assert_matches_the_definition(f)


def test_is_g_loop_matches_the_definition_on_seeded_loops_of_orders_5_and_6():
    loops = seeded_loops()
    assert {f.q for f in loops} == {5, 6}
    assert sum(f.identity != 0 for f in loops) == len(loops) // 2
    for f in loops:
        assert_matches_the_definition(f)


def test_a_relabelled_loop_keeps_its_g_loop_verdict():
    sigma = (3, 0, 5, 1, 4, 2)  # the identity 0 goes to 3
    for f, g_loop in ((find_non_g_loop_order6(), False), (make_dihedral(3), True),
                      (make_cp(3), True)):
        g = relabel(f, sigma)
        assert g.identity == 3 and isomorphic(f, g)
        assert bool(is_g_loop(g)) == g_loop
        assert_matches_the_definition(g)


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
