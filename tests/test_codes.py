import itertools
import random

import numpy as np
import pytest

from topolinear.classify_q4 import semilinearity_test
from topolinear.codes import (BinaryQuasigroup, Isotopism, MdsCode, NAryQuasigroup,
                              cyclic_loop, graph_of, is_mds, pair_code, parity_code,
                              quasigroup_of, require_mds, subcode, twisted_graph_code)
from topolinear.isometry import equivalent_codes, parastrophe, search_isotopisms
from random_square import random_latin_square
from test_isometry import oracle_cases
from tuple_reference import compose, invert


def lines(q, n):
    """Every maximal coordinate line of the Hamming space, as a frozen set."""
    for free in range(n):
        for rest in itertools.product(range(q), repeat=n - 1):
            line = []
            for s in range(q):
                w = rest[:free] + (s,) + rest[free:]
                line.append(w)
            yield frozenset(line)


def brute_mds(words, q, n):
    """Independent check: q^(n-1) words, exactly one per line."""
    ws = set(words)
    if len(ws) != q ** (n - 1):
        return False
    return all(len(ws & line) == 1 for line in lines(q, n))


@pytest.mark.parametrize("q,n", [(2, 3), (3, 3), (4, 3), (3, 4)])
def test_parity_code_matches_brute_force_oracle(q, n):
    M = parity_code(q, n)
    assert len(M) == q ** (n - 1)
    assert bool(is_mds(M)) == brute_mds(M.words, q, n) == True


def test_is_mds_rejects_what_the_oracle_rejects():
    bad = [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)]  # line 11* hit twice
    v = is_mds(MdsCode(2, 3, bad))
    assert not v and not brute_mds(bad, 2, 3)
    assert v.reason


def test_words_are_canonically_sorted():
    M = MdsCode(2, 2, [(1, 1), (0, 0)])
    assert M.words == ((0, 0), (1, 1))
    assert MdsCode(2, 2, [(0, 0), (1, 1)]).words == M.words


def test_symbol_validation():
    with pytest.raises(ValueError):
        MdsCode(2, 2, [(0, 2)])
    with pytest.raises(ValueError):
        MdsCode(2, 2, [(0, 0, 0)])


def test_graph_round_trip():
    rng = random.Random(3)
    f = NAryQuasigroup(random_latin_square(4, rng).table)
    M = graph_of(f)
    assert is_mds(M)
    g = quasigroup_of(M, M.n - 1)
    assert g.table.tolist() == f.table.tolist()


def test_quasigroup_of_other_coordinate():
    M = parity_code(3, 3)
    g = quasigroup_of(M, 0)
    # reading coordinate 0 off the parity relation: x0 = -(x1 + x2) mod 3
    for x1 in range(3):
        for x2 in range(3):
            assert g.table[x1][x2] == (-(x1 + x2)) % 3


def test_require_mds_is_the_one_gate():
    M = parity_code(4, 3)
    assert require_mds(M) is None
    words = list(M.words)
    words[0] = (0, 1, 0)  # shares its line in direction 0 with (3, 1, 0)
    F = MdsCode(4, 3, words)
    assert (is_mds(F).reason, is_mds(F).witness) == ("two words on one line",
                                                     ((0, 1, 0), (3, 1, 0)))
    for call in (lambda: require_mds(F), lambda: quasigroup_of(F, 0),
                 lambda: semilinearity_test(F)):
        with pytest.raises(ValueError, match="^not an MDS code: two words on one line$"):
            call()


def test_pair_code_size_and_mds():
    add4 = NAryQuasigroup([[(a + b) % 4 for b in range(4)] for a in range(4)])
    M = pair_code(add4, add4)
    assert M.n == 4 and len(M) == 4 ** 3
    assert is_mds(M)


def test_subcode_fixes_coordinates():
    M = parity_code(3, 4)
    R = subcode(M, {0: 0})
    assert R.n == 3 and len(R) == 9
    assert all((0,) + w in M for w in R.words)
    assert is_mds(R)


@pytest.mark.parametrize("fixed", [{0: True}, {0: 1.0}, {1.0: 0}, {True: 0}, {0: "1"}],
                         ids=["bool-value", "float-value", "float-coordinate",
                              "bool-coordinate", "string-value"])
def test_subcode_refuses_what_is_not_an_integer(fixed):
    # a bool or a float in range was once written into the provenance
    with pytest.raises(ValueError, match="^fixed coordinates and values must be integers$"):
        subcode(parity_code(3, 3), fixed)


def test_subcode_records_numpy_integers_as_python_ints():
    R = subcode(parity_code(3, 3), {np.int64(0): np.int8(1)})
    assert R.provenance["fixed"] == {"0": 1} and type(R.provenance["fixed"]["0"]) is int
    assert R == subcode(parity_code(3, 3), {0: 1})


def test_single_table_flip_breaks_mds():
    rng = random.Random(9)
    sq = random_latin_square(5, rng)
    table = [list(row) for row in sq.table]
    M = graph_of(NAryQuasigroup(table))
    assert is_mds(M)
    i, j = rng.randrange(5), rng.randrange(5)
    new = (table[i][j] + 1) % 5
    words = [w for w in M.words if w[:2] != (i, j)] + [(i, j, new)]
    assert not is_mds(MdsCode(5, 3, words))


@pytest.mark.parametrize("taus", [
    [(0.0, 1.5, 2.0), (True, False, 2)], [(0, 1.0, 2)], [(1, 0, 2), (True, False, 2)],
    [(0, np.float64(1), 2)], [(0, np.True_, 2)], ["012"], [3]],
    ids=["truncated", "float", "bool", "numpy-float", "numpy-bool", "string", "no-list"])
def test_an_isotopism_refuses_non_integer_entries(taus):
    with pytest.raises(ValueError, match="^each tau must be a list of integers$"):
        Isotopism(taus)


NON_INTEGER_WORDS = {
    "truncated": [(0.5, 1.9), (True, 2)], "float": [(0, 1.0), (1, 2)],
    "bool": [(0, 1), (True, 2)], "numpy-float": [(0, np.float32(1))], "string": [("0", "1")]}


# each list once as given and once as an object array: both take one path
@pytest.mark.parametrize("words", [
    pytest.param(form(words), id=prefix + name) for name, words in NON_INTEGER_WORDS.items()
    for prefix, form in (("", list), ("array-", lambda w: np.array(w, dtype=object)))])
def test_a_code_refuses_non_integer_symbols(words):
    with pytest.raises(ValueError, match="^symbol must be an integer$"):
        MdsCode(3, 2, words)


BAD_WORD_ARRAYS = [  # id, q, rows, message
    ("wide", 3, np.array([[0, 1, 2]]), r"^word array has shape \(1, 3\), expected \(k, 2\)$"),
    ("one-axis", 3, np.array([0, 1]), r"^word array has shape \(2,\), expected \(k, 2\)$"),
    ("out-of-range", 3, np.array([[0, 1], [2, 3]]), r"^symbol 3 out of range in \(2, 3\)$"),
    ("negative", 3, np.array([[0, 1], [-1, 2]], dtype=np.int8),
     r"^symbol -1 out of range in \(-1, 2\)$"),
    ("huge-unsigned", 3, np.array([[0, 2**64 - 1]], dtype=np.uint64),
     rf"^symbol {2**64 - 1} out of range in \(0, {2**64 - 1}\)$"),
    # q = 2^64 admits the symbol 2^63, which int64 cannot hold
    ("past-int64", 2**64, np.array([[0, 2**63]], dtype=np.uint64),
     rf"^symbol {2**63} out of range in \(0, {2**63}\)$"),
    ("bool", 3, np.array([[True, False]]), "^symbol must be an integer$"),
    ("float", 3, np.array([[0.0, 1.0]]), "^symbol must be an integer$")]


# each array once as given and once as a list of words (a one-axis array is
# not a list of words): both take one path and give one message
@pytest.mark.parametrize("q,words,message", [
    pytest.param(q, form(rows), message, id=prefix + name)
    for name, q, rows, message in BAD_WORD_ARRAYS
    for prefix, form in (("", np.asarray), ("list-", np.ndarray.tolist))
    if prefix == "" or rows.ndim == 2])
def test_a_code_refuses_a_bad_word_array(q, words, message):
    with pytest.raises(ValueError, match=message):
        MdsCode(q, 2, words)


@pytest.mark.parametrize("q,n", [(-3, 2), (0, 2), (3, -1), (3, 0), (3, 1)])
def test_a_code_refuses_a_q_or_n_out_of_range(q, n):
    # q < 1 once built an empty code over no alphabet, and n < 0 reached
    # numpy's reshape
    with pytest.raises(ValueError, match="^q must be positive and n at least 2$"):
        MdsCode(q, n, [])
    with pytest.raises(ValueError, match="^q must be positive and n at least 2$"):
        MdsCode(q, n, np.zeros((0, max(n, 0)), dtype=np.int64))


def test_operations_on_an_array_built_code_build_no_word_tuples(monkeypatch):
    # the tuples of `words` are for readers outside the package: the
    # operations and searches on a code read its word array only
    M = twisted_graph_code(3)
    g = Isotopism([(5, 4, 3, 2, 1, 0), (1, 2, 3, 4, 5, 0), (2, 0, 1, 3, 5, 4)])
    monkeypatch.setattr(MdsCode, "words", property(
        lambda self: pytest.fail("built the tuple view of a code's words")))
    image = g.apply_code(parastrophe(M, (2, 0, 1)))
    assert subcode(image, {0: 1}).word_array().shape == (6, 2)
    assert is_mds(M) and is_mds(image)
    assert next(search_isotopisms(M, g.apply_code(M))) is not None
    assert equivalent_codes(M, image) is not None
    assert equivalent_codes(M, graph_of(NAryQuasigroup(cyclic_loop(6).table))) is None


@pytest.mark.parametrize("q,n", [(4.7, 3), (4, 3.2), (True, 3), ("4", 3)],
                         ids=["float-q", "float-n", "bool-q", "string-q"])
def test_a_code_refuses_a_non_integer_q_or_n(q, n):
    with pytest.raises(ValueError, match="^q and n must be integers$"):
        MdsCode(q, n, [])


def test_the_constructors_accept_numpy_integers():
    g = Isotopism([np.array([1, 0, 2]), np.array([2, 1, 0], dtype=np.uint8)])
    assert g.taus == ((1, 0, 2), (2, 1, 0))
    M = MdsCode(3, 2, np.array([[1, 2], [0, 1]], dtype=np.int16))
    assert M.words == ((0, 1), (1, 2))
    assert {type(s) for t in g.taus + M.words for s in t} == {int}


@pytest.mark.parametrize("q,n", [(1, 3), (6, 3), (300, 2)])
def test_an_isotopism_matches_a_tuple_reference(q, n):
    # the reference composes and inverts tuples one symbol at a time; q = 300 takes
    # the rows to uint16, and the last case is a symmetry of the parity code
    rng = random.Random(q)
    M = parity_code(q, n)
    shifts = [rng.randrange(q) for _ in range(n - 1)]
    shifts.append(-sum(shifts) % q)
    cases = [[tuple(rng.sample(range(q), q)) for _ in range(n)] for _ in range(4)]
    cases.append([tuple((s + c) % q for s in range(q)) for c in shifts])
    for a, b in itertools.product(cases, repeat=2):
        g, h = Isotopism(a), Isotopism(b)
        assert g.rows.dtype == (np.uint16 if q > 256 else np.uint8)
        assert (g.n, g.q, g.taus) == (n, q, tuple(a))
        assert g.compose(h).taus == tuple(map(compose, a, b))
        assert g.inverse().taus == tuple(map(invert, a))
        w = tuple(rng.randrange(q) for _ in range(n))
        got = g.apply_word(w)
        assert got == tuple(t[s] for t, s in zip(a, w)) and {type(s) for s in got} == {int}
        image = {tuple(t[s] for t, s in zip(a, w)) for w in M.words}
        assert set(g.apply_code(M).words) == image
        assert g.is_automorphism_of(M) == (image == M.word_set)
    assert Isotopism(cases[-1]).is_automorphism_of(M)
    identity = Isotopism.identity(q, n)
    assert identity.taus == (tuple(range(q)),) * n
    assert identity == Isotopism(identity.taus) and hash(identity) == hash(Isotopism(identity.taus))


def test_the_rows_of_an_isotopism_are_read_only():
    g = Isotopism([(1, 0, 2), (2, 0, 1)])
    for h in (g, g.inverse(), g.compose(g), Isotopism.identity(3, 2)):
        with pytest.raises(ValueError, match="read-only"):
            h.rows[0, 0] = 1


@pytest.mark.parametrize("make", [BinaryQuasigroup, NAryQuasigroup],
                         ids=["binary", "n-ary"])
@pytest.mark.parametrize("table", [
    [[0.0, 1.9], [True, 0]], [[0, 1], [True, 0]], [[0, 1.0], [1, 0]],
    np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[True, False], [False, True]])],
    ids=["truncated", "bool", "float", "float-array", "bool-array"])
def test_a_quasigroup_refuses_non_integer_entries(make, table):
    with pytest.raises(ValueError, match="^table entry must be an integer$"):
        make(table)


def test_the_quasigroups_accept_numpy_integers():
    table = np.array([[1, 0], [0, 1]], dtype=np.uint8)
    for f in (BinaryQuasigroup(table), NAryQuasigroup(table)):
        assert f.table.dtype == np.int64 and f.table.tolist() == [[1, 0], [0, 1]]
        assert not f.table.flags.writeable and table.flags.writeable  # a copy
        assert f == NAryQuasigroup([[np.int16(1), 0], [0, 1]])
    assert BinaryQuasigroup(table).arity == 2


@pytest.mark.parametrize("table,argument", [
    ([[0, 0], [1, 1]], 1), ([[0, 1], [0, 1]], 0), ([[0, 1], [1, 2]], 0),
    (np.array([[-1, 0], [0, -1]], dtype=np.int8), 0), ([0, 0], 0),
    ((np.indices((3, 3, 3))[:2].sum(axis=0)) % 3, 2), ([[0, 2**70], [2**70, 0]], 0)],
    ids=["first-argument-only", "second-argument-only", "out-of-range", "negative",
         "unary-constant", "ternary-ignores-the-last", "past-int64"])
def test_an_nary_quasigroup_refuses_a_table_that_is_not_latin(table, argument):
    with pytest.raises(ValueError, match=f"^table is not a bijection in argument {argument}$"):
        NAryQuasigroup(table)


@pytest.mark.parametrize("table,message", [
    ([[0, 1], [1]], "table must be square"), ([[0, 0], [1, 1]], "row is not a permutation"),
    ([[0, 1], [0, 1]], "column is not a permutation"),
    ([[0, 2], [2, 0]], "row is not a permutation"),
    ([[0, 2**70], [2**70, 0]], "row is not a permutation")],
    ids=["ragged", "row", "column", "out-of-range", "past-int64"])
def test_a_binary_quasigroup_refuses_a_table_that_is_not_latin(table, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        BinaryQuasigroup(table)


def test_a_pair_code_operand_must_be_a_quasigroup():
    # a constant g once gave pair_code an 8-word code that is not MDS
    f = NAryQuasigroup([[(a + b) % 2 for b in range(2)] for a in range(2)])
    with pytest.raises(ValueError, match="^table is not a bijection in argument 0$"):
        pair_code(f, NAryQuasigroup(np.zeros((2, 2), dtype=np.int64)))
    assert is_mds(pair_code(f, f))


@pytest.mark.parametrize("q,n", [(3, 2), (3, 4), (4, 3)], ids=["fewer-taus", "more-taus", "wider"])
def test_an_isotopism_of_another_shape_refuses_to_map_a_code(q, n):
    with pytest.raises(ValueError, match="^the isotopism acts on another n or q than the code$"):
        Isotopism.identity(q, n).apply_code(parity_code(3, 3))


def test_a_column_permuted_code_is_sorted_and_equal_to_the_rebuilt_one():
    M = graph_of(NAryQuasigroup(random_latin_square(5, random.Random(3)).table))
    for eps in itertools.permutations(range(3)):
        P = MdsCode(5, 3, M.word_array()[:, list(eps)], {"construction": "test"})
        R = MdsCode(5, 3, [tuple(w[i] for i in eps) for w in M.words])
        assert P == R and P.words == R.words
        assert np.array_equal(P.word_array(), R.word_array())
        assert {type(s) for w in P.words for s in w} == {int}
        assert P.provenance == {"construction": "test"} and is_mds(P)


def assert_same_code(got, want, label):
    """Equal words, word array and provenance, with Python int symbols and a
    read-only array."""
    assert got.words == want.words and got.provenance == want.provenance, label
    assert np.array_equal(got.word_array(), want.word_array()), label
    assert got.word_array().dtype == np.int64 and not got.word_array().flags.writeable, label
    assert {type(s) for w in got.words for s in w} == {int}, label


def test_array_fed_builders_match_list_built_references():
    # each reference is a list of word tuples, built here from M.words
    rng = random.Random(17)
    for name, M in oracle_cases():
        q, n = M.q, M.n
        f = quasigroup_of(M, n - 1)
        want = [xs + (int(f.table[xs]),) for xs in itertools.product(range(q), repeat=n - 1)]
        assert_same_code(graph_of(f, {"construction": "test"}),
                         MdsCode(q, n, want, {"construction": "test"}), f"graph-{name}")

        fixed = {c: rng.randrange(q) for c in rng.sample(range(n), n - 2)}
        free = [i for i in range(n) if i not in fixed]
        want = [tuple(w[i] for i in free) for w in M.words
                if all(w[c] == v for c, v in fixed.items())]
        prov = {"construction": "subcode",
                "fixed": {str(k): v for k, v in sorted(fixed.items())}, "of": M.provenance}
        assert_same_code(subcode(M, fixed), MdsCode(q, 2, want, prov), f"subcode-{name}")

        taus = [tuple(rng.sample(range(q), q)) for _ in range(n)]
        want = [tuple(t[s] for t, s in zip(taus, w)) for w in M.words]
        prov = {"construction": "isotopism-image", "of": M.provenance}
        assert_same_code(Isotopism(taus).apply_code(M), MdsCode(q, n, want, prov),
                         f"apply-code-{name}")

        eps = rng.sample(range(n), n)
        moved = [[0] * n for _ in M.words]
        for out, w in zip(moved, M.words):
            for j, s in enumerate(w):
                out[eps[j]] = s
        prov = {"construction": "parastrophe", "eps": eps, "of": M.provenance}
        assert_same_code(parastrophe(M, eps), MdsCode(q, n, moved, prov), f"parastrophe-{name}")

    for q, n in [(2, 2), (3, 4), (4, 3), (5, 3)]:
        want = [xs + (-sum(xs) % q,) for xs in itertools.product(range(q), repeat=n - 1)]
        assert_same_code(parity_code(q, n),
                         MdsCode(q, n, want, {"construction": "parity", "q": q, "n": n}),
                         f"parity-{q}-{n}")
    # a code of length 1 is refused, as every code of length < 2 is
    with pytest.raises(ValueError, match="^q must be positive and n at least 2$"):
        parity_code(3, 1)
