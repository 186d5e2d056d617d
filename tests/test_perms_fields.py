import random

import pytest

from topolinear.fields import field_make
from tuple_reference import compose, invert, random_permutation


def test_compose_applies_right_factor_first():
    a = (1, 2, 0)
    b = (0, 2, 1)
    assert compose(a, b) == tuple(a[b[x]] for x in range(3))
    assert compose(a, (0, 1, 2)) == a
    assert compose((0, 1, 2), a) == a


def test_invert_round_trip():
    rng = random.Random(7)
    for _ in range(25):
        q = rng.randrange(2, 12)
        a = random_permutation(q, rng)
        assert compose(a, invert(a)) == tuple(range(q))
        assert compose(invert(a), a) == tuple(range(q))


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2)])
def test_field_axioms(p, k):
    F = field_make(p, k)
    q, add, mul = F.q, F.add, F.mul
    for a in range(q):
        assert add[a, 0] == a
        assert mul[a, 1] == a
        assert add[a, F.neg[a]] == 0
        if a:  # every nonzero element has an inverse
            assert mul[a].tolist().count(1) == 1
        for b in range(q):
            assert add[a, b] == add[b, a]
            assert mul[a, b] == mul[b, a]
            assert add[add[a, b], F.neg[b]] == a
    rng = random.Random(q)
    for _ in range(60):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert mul[a, mul[b, c]] == mul[mul[a, b], c]
        assert mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]


def powers(F, g):
    seen, x = set(), 1
    for _ in range(F.q - 1):
        x = int(F.mul[x, g])
        seen.add(x)
    return seen


def test_field_generator_order():
    # the nonzeros form a cyclic group: some element's powers exhaust them
    for p, k in [(2, 2), (3, 1), (2, 3), (3, 2), (5, 1)]:
        F = field_make(p, k)
        assert any(powers(F, g) == set(range(1, F.q)) for g in range(1, F.q))


def test_gf4_frozen_tables():
    F = field_make(2, 2)
    assert (F.p, F.k, F.modulus) == (2, 2, (1, 1, 1))
    assert powers(F, 2) == {1, 2, 3}
    assert F.mul.tolist() == [
        [0, 0, 0, 0],
        [0, 1, 2, 3],
        [0, 2, 3, 1],
        [0, 3, 1, 2],
    ]


def test_field_rejects_bad_parameters():
    with pytest.raises(ValueError):
        field_make(4, 1)
    with pytest.raises(ValueError):
        field_make(2, 9)
