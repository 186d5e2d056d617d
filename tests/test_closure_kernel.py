"""The array closure kernel and batched certificate replay against the code
paths they replaced, which composed one `Isotopism` at a time: the
dict-keyed closure behind `mulclose` and the regular-group DFS, the orbit
closure that composed each Schreier witness, and the per-witness `verify`.
Those are kept here, unchanged, as references."""
import itertools
import json
import random
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from test_isometry import (COMPOSITION, QUADRATIC_4, at_base, base_stabilizer,
                           mulclose_cases, oracle_cases, scrambled,
                           without_base_word)
from topolinear import cli, isometry
from topolinear.budget import BudgetExceeded, DEFAULT_BUDGET, SearchBudget
from topolinear.classify_q4 import code_h, standard_semilinear_code
from topolinear.codes import Isotopism, MdsCode, parity_code
from topolinear.constructions import construction_hint
from topolinear.isometry import (GROUP_CAP, TransitivityCertificate, _regular_subgroup_search,
                                 autotopism_search, is_isotopically_transitive,
                                 is_topolinear, mulclose)
from topolinear.codes import make_dihedral, twisted_graph_code
from topolinear.serialize import (build_from_spec, certificate_to_json, code_to_json,
                                  dumps_canonical, loop_to_json, save_certificate,
                                  save_code)


# ---------------------------------------------------------------------------
# references: one Isotopism.compose at a time

def ref_extend(group, kept, g, key, cap):
    gens = (*kept, g)
    grown = dict(group)
    todo = [(a, (g,)) for a in group.values()]
    while todo:
        a, hs = todo.pop()
        for h in hs:
            b = h.compose(a)
            k = key(b)
            prev = grown.get(k)
            if prev is None:
                if len(grown) >= cap:
                    raise BudgetExceeded("group closure", cap)
                grown[k] = b
                todo.append((b, gens))
            elif prev.taus != b.taus:
                return None
    return grown


def ref_mulclose(gens, cap=GROUP_CAP):
    gens = list(gens)
    if not gens:
        return []
    ident = Isotopism.identity(gens[0].q, gens[0].n)
    group, kept = {ident.taus: ident}, []
    for g in gens:
        if g.taus not in group:
            group = ref_extend(group, kept, g, lambda x: x.taus, cap)
            kept.append(g)
    return [group[taus] for taus in sorted(group)]


def ref_regular_subgroup_search(M, base, witnesses, stabilizer=None):
    target = len(M)

    def dfs(group, kept):
        if len(group) == target:
            return list(group.values())
        w = next(w for w in M.words if w not in group)
        wit = witnesses[w]
        for g in ((wit,) if stabilizer is None else (wit.compose(h) for h in stabilizer)):
            grown = ref_extend(group, kept, g, lambda x: x.apply_word(base), target)
            if grown is not None:
                found = dfs(grown, [*kept, g])
                if found is not None:
                    return found
        return None

    return dfs({base: Isotopism.identity(M.q, M.n)}, [])


def ref_orbit_closure(M, base, find):
    witnesses = {base: Isotopism.identity(M.q, M.n)}
    generators = []
    for w in M.words:
        if w in witnesses:
            continue
        g = find(w)
        if g is None:
            return witnesses, generators, w
        generators.append(g)
        fresh = []
        for u, h in list(witnesses.items()):
            v = g.apply_word(u)
            if v not in witnesses:
                witnesses[v] = g.compose(h)
                fresh.append(v)
        while fresh:
            u = fresh.pop()
            for gen in generators:
                v = gen.apply_word(u)
                if v not in witnesses:
                    witnesses[v] = gen.compose(witnesses[u])
                    fresh.append(v)
    return witnesses, generators, None


def ref_verify(cert, M):
    if tuple(cert.base) not in M:
        return False, "base word not in code"
    for w in M.words:
        g = cert.witnesses.get(w)
        if g is None:
            return False, f"no witness for {w}"
        if g.apply_word(cert.base) != w:
            return False, f"witness for {w} misses its word"
        if not g.is_automorphism_of(M):
            return False, f"witness for {w} is not a symmetry of the code"
    if len(cert.witnesses) != len(M):
        return False, "extra witnesses for words outside the code"
    if cert.mode == "topolinear":
        try:
            ref_mulclose(set(cert.witnesses.values()), cap=len(M))
        except BudgetExceeded:
            return False, "witness set is not closed under composition"
    return True, None


def taus_of(group):
    return None if group is None else sorted(g.taus for g in group)


# ---------------------------------------------------------------------------
# group closure

def test_mulclose_matches_the_dict_keyed_reference():
    for name, gens in mulclose_cases():
        assert [g.taus for g in mulclose(gens)] == [g.taus for g in ref_mulclose(gens)], name


def test_mulclose_of_a_large_alphabet_uses_wide_rows():
    # q = 300 symbols do not fit a byte; a 300-cycle on one coordinate
    q = 300
    shift = Isotopism([tuple((x + 1) % q for x in range(q)), tuple(range(q))])
    group = mulclose([shift], cap=q)
    assert len(group) == q and [g.taus for g in group] == [g.taus for g in ref_mulclose([shift])]


def regular_search_cases():
    for name, M in oracle_cases()[:12]:
        yield name, at_base(M)
    for name, spec in (("composition", COMPOSITION), ("quadratic-4", QUADRATIC_4)):
        yield name, build_from_spec(spec)
    yield "twisted-5", twisted_graph_code(5)


def test_regular_subgroup_search_finds_the_references_group():
    found = 0
    for name, M in regular_search_cases():
        trans = is_isotopically_transitive(M, method="pinned")
        if not trans:
            continue
        base, wits = trans.certificate.base, trans.certificate.witnesses
        stab = base_stabilizer(M)
        for stabilizer in (None, stab):
            got = _regular_subgroup_search(M, base, wits, stabilizer)
            want = ref_regular_subgroup_search(M, base, wits, stabilizer)
            assert taus_of(got) == taus_of(want), (name, stabilizer is None)
            found += got is not None
    assert found >= 5


# ---------------------------------------------------------------------------
# the orbit closure: the same Schreier witness for every word

def search_codes():
    """The code families of the search benchmark, scrambled here."""
    for p in (3, 5, 7, 9):
        yield f"twisted-{p}", scrambled(twisted_graph_code(p), 50 + p)
    for n in (4, 5):
        yield f"quadratic-{n}", scrambled(build_from_spec(
            {"construction": "quadratic", "p": 2, "k": 1, "n": n,
             "r": "x1x2+x3x4" if n == 5 else "x1x2+x2x3"}), 60 + n)
    yield "H", scrambled(code_h(), 61)
    yield "r4", scrambled(standard_semilinear_code(4, [(0, 1, 2)]), 62)
    for n, monos in ((5, [(0, 1), (2, 3)]), (6, [(0, 1, 2)])):
        yield f"standard-{n}", scrambled(standard_semilinear_code(n, monos), 63 + n)
    yield "zero-free-3", without_base_word(scrambled(twisted_graph_code(3), 70))


CERTIFY_SPECS = [{"construction": "graph", "loop": {"name": "cp", "p": p}} for p in (5, 7, 9)] + [
    {"construction": "quadratic", "p": 2, "k": 1, "n": 5, "r": "x1x2+x3x4+x2x5"},
    {"construction": "quadratic", "p": 2, "k": 2, "n": 3, "alpha": [[0, 3, 2], [0, 0, 1],
                                                                   [0, 0, 0]]},
    {"construction": "composition", "outer": "zpz2", "p": 3, "inner": [2, 1]},
    {"construction": "iterated", "loop": {"name": "dihedral", "p": 3}, "n": 4}]


def certify_codes():
    for spec in CERTIFY_SPECS:
        yield json.dumps(spec), build_from_spec(spec)


def pinned_finder(M, base):
    def find(w):
        pins = {(i, base[i]): w[i] for i in range(M.n)}
        return next(autotopism_search(M, pins=pins), None)
    return find


def explicit_finder(M):
    formula, note = construction_hint(M)
    assert formula is not None and note == ""
    return formula


def witness_taus(wits):
    return {w: g.taus for w, g in wits.items()}


@pytest.mark.parametrize("route", ["pinned", "explicit"])
def test_orbit_closure_gives_the_references_witnesses(route):
    cases = list(certify_codes())
    if route == "pinned":
        cases += list(search_codes())
    for name, M in cases:
        res = is_isotopically_transitive(M, method=route)
        base = res.certificate.base if res else M.words[0]
        find = pinned_finder(M, base) if route == "pinned" else explicit_finder(M)
        wits, gens, failing = ref_orbit_closure(M, base, find)
        assert res.failing_word == failing, name
        assert [g.taus for g in res.generators] == [g.taus for g in gens], name
        if res:
            assert witness_taus(res.certificate.witnesses) == witness_taus(wits), name
            assert list(res.certificate.witnesses) == list(wits), name


# ---------------------------------------------------------------------------
# replay of forged certificates

def forged_certificates(M):
    """(label, base, witnesses) for the honest certificate and forgeries of
    it, each breaking one check, mostly at a middle word, or two checks at
    two words; the base word is words[0], so a missing base-word witness
    leaves no witness checkable."""
    cert = is_isotopically_transitive(M).certificate
    base, honest = cert.base, dict(cert.witnesses)
    mid = M.words[len(M) // 2]
    other = next(w for w in M.words if w not in (mid, base))
    q, n = M.q, M.n
    yield "honest", base, honest
    yield "missing", base, {w: g for w, g in honest.items() if w != mid}
    yield "missing-base-word", base, {w: g for w, g in honest.items() if w != base}
    yield "empty", base, {}
    yield "wrong-base-image", base, {**honest, mid: honest[other]}
    a, b = [s for s in range(q) if s != base[0]][:2]

    def non_symmetry(w):  # honest[w] with two symbols off the base word swapped
        taus = [list(t) for t in honest[w].taus]
        taus[0][a], taus[0][b] = taus[0][b], taus[0][a]
        return Isotopism(taus)

    for label, w in (("non-symmetry", mid), ("non-symmetry-generator", M.words[1])):
        # words[1] is the first generator of the orbit: the base word is words[0]
        yield label, base, {**honest, w: non_symmetry(w)}
    # two faults: replay names the one at the earlier word
    early, late = M.words[len(M) // 4], M.words[3 * len(M) // 4]
    yield "non-symmetry-then-miss", base, {**honest, early: non_symmetry(early),
                                           late: honest[early]}
    yield "miss-then-non-symmetry", base, {**honest, early: honest[late],
                                           late: non_symmetry(late)}
    fibre = list(autotopism_search(M, pins={(i, base[i]): mid[i] for i in range(n)}))
    swap = next((g for g in fibre if g != honest[mid]), None)
    if swap is not None:
        yield "not-closed", base, {**honest, mid: swap}
    outside = next(w for w in itertools.product(range(q), repeat=n) if w not in M)
    yield "extra", base, {**honest, outside: honest[mid]}
    good = honest[mid].taus
    yield "n-1-taus", base, {**honest, mid: Isotopism(good[:-1])}
    # the same map on the code's words, over an alphabet of q + 1 symbols
    yield "q+1-symbols", base, {**honest, mid: Isotopism([t + (q,) for t in good])}


# forgeries whose witness for the middle word is an isotopism of another
# (n, q): the reference reads it as far as it goes, replay calls it no symmetry
WRONG_SHAPE = ("n-1-taus", "q+1-symbols")


def forged_codes():
    yield "twisted-3", twisted_graph_code(3)
    yield "twisted-5", twisted_graph_code(5)
    yield "H", code_h()
    yield "quadratic-4", build_from_spec(QUADRATIC_4)
    yield "scrambled-twisted-5", scrambled(twisted_graph_code(5), 36)


def test_replay_matches_the_per_witness_reference_on_forged_certificates():
    reasons = set()
    for name, M in forged_codes():
        for label, base, wits in forged_certificates(M):
            for mode in ("isotopic", "topolinear"):
                cert = TransitivityCertificate(mode, base, wits)
                got = cert.verify(M)
                if label in WRONG_SHAPE:
                    mid = M.words[len(M) // 2]
                    want = (False, f"witness for {mid} is not a symmetry of the code")
                else:
                    want = ref_verify(cert, M)
                assert got == want, (name, label, mode)
                reasons.add(got[1] and re.sub(r"\(.*?\)", "w", got[1]))
    assert reasons == {None, "no witness for w", "witness for w misses its word",
                       "witness for w is not a symmetry of the code",
                       "extra witnesses for words outside the code",
                       "witness set is not closed under composition"}


def test_a_witness_of_another_shape_is_no_automorphism():
    # the q+1-symbol map agrees with an honest witness on every codeword,
    # and the (n-1)-tau map reads only n-1 coordinates
    for name, M in forged_codes():
        mid = M.words[len(M) // 2]
        for label, base, wits in forged_certificates(M):
            if label in WRONG_SHAPE:
                assert not wits[mid].is_automorphism_of(M), (name, label)
                cert = TransitivityCertificate("isotopic", base, wits)
                assert cert.verify(M) == (
                    False, f"witness for {mid} is not a symmetry of the code"), (name, label)
            elif label == "honest":
                assert wits[mid].is_automorphism_of(M), name


@pytest.mark.parametrize("drop", ["base-word", "all"])
def test_cli_replay_of_a_certificate_without_the_base_words_witness_exits_1(
        drop, tmp_path, capsys):
    M = twisted_graph_code(3)
    code, path = str(tmp_path / "code.json"), str(tmp_path / "cert.json")
    save_code(M, code)
    cert = is_isotopically_transitive(M).certificate
    wits = {w: g for w, g in cert.witnesses.items() if drop == "base-word" and w != cert.base}
    save_certificate(TransitivityCertificate("isotopic", cert.base, wits), path)
    for mode in ("transitive", "topolinear"):
        capsys.readouterr()
        assert cli.main(["verify", code, "--mode", mode, "--certificate", path]) == 1
        assert capsys.readouterr().out.strip() == (
            f"{mode} (certificate replay): False (no witness for {cert.base})")


@pytest.mark.parametrize("taus", [
    [(0, 2), (0, 1, 2)], [(0, 1, 2), (1, 0)], [(0, 1, 1), (0, 1, 2)], [(0, 1, 2), (0, -1, 2)],
    [(0, 300, 2), (0, 1, 2)], [(0, 1, 2 ** 70), (0, 1, 2)], [], [(), ()]],
    ids=["short-tau", "mixed-lengths", "repeated-entry", "entry-minus-1", "entry-300",
         "entry-2-to-70", "no-taus", "empty-taus"])
def test_an_isotopism_permutes_one_alphabet(taus):
    with pytest.raises(ValueError, match="permutation of the same 0..q-1"):
        Isotopism(taus)


def replay_cases():
    """(code, the verdict that wrote its certificate): the explicit route on
    twisted p=9, the pinned route on a scrambled twisted p=5, whose
    witnesses form no group."""
    for M in (twisted_graph_code(9), scrambled(twisted_graph_code(5), 36)):
        yield M, is_isotopically_transitive(M)


def test_topolinear_replay_checks_few_generators(monkeypatch):
    # each generator of the verdict's walk is checked once, alone; the other
    # witnesses are checked against the tree in one gather, with no
    # per-witness pass, in either mode and on either route
    checked, symmetry_checks = [], []
    fault, symmetries = isometry._witness_fault, MdsCode.symmetries

    def counted_fault(M, base, w, g):
        checked.append(w)
        return fault(M, base, w, g)

    def counted_symmetries(M, rows):
        symmetry_checks.append(len(rows))
        return symmetries(M, rows)

    monkeypatch.setattr(isometry, "_witness_fault", counted_fault)
    monkeypatch.setattr(MdsCode, "symmetries", counted_symmetries)
    routes = set()
    for M, res in replay_cases():
        routes.add(res.method)
        words = [g.apply_word(res.certificate.base) for g in res.generators]
        for mode in ("isotopic", "topolinear"):
            cert = TransitivityCertificate(mode, res.certificate.base, res.certificate.witnesses)
            want = ref_verify(cert, M)  # the reference runs the symmetry test too
            checked.clear()
            symmetry_checks.clear()
            got = cert.verify(M)
            assert got == want, (M.provenance, mode)
            assert checked == words and symmetry_checks == [1] * len(words), (M.provenance, mode)
    assert routes == {"explicit", "pinned"}


def test_isotopic_replay_of_a_large_certificate_checks_its_generators_only():
    # 4096 witnesses; checking each against every codeword took about 1 s
    M = scrambled(standard_semilinear_code(7, [(0, 1), (2, 3), (4, 5)]), 41)
    cert = is_isotopically_transitive(
        M, budget=SearchBudget(max_points=2 ** 15)).certificate
    start = time.perf_counter()
    assert cert.verify(M) == (True, None)
    assert time.perf_counter() - start < 0.5


# ---------------------------------------------------------------------------
# the node budget of the regular-group DFS

def twisted_5_fallback():
    """Scrambled twisted p=5: its witnesses are no group, so the verdict
    takes the coset search over the base-word stabilizer."""
    M = scrambled(twisted_graph_code(5), 36)
    cert = is_isotopically_transitive(M).certificate
    stabilizer = list(autotopism_search(M, pins={(i, b): b for i, b in enumerate(cert.base)}))
    return M, cert, stabilizer


def test_regular_subgroup_search_charges_each_candidate_to_the_node_budget():
    M, cert, stabilizer = twisted_5_fallback()
    full = _regular_subgroup_search(M, cert.base, cert.witnesses, stabilizer)
    needed = next(k for k in range(1, 100) if _tries_within(M, cert, stabilizer, k))
    assert needed > 1
    with pytest.raises(BudgetExceeded) as exc:
        _regular_subgroup_search(M, cert.base, cert.witnesses, stabilizer,
                                 SearchBudget(max_nodes=needed - 1))
    assert (exc.value.bound, exc.value.limit) == ("search nodes", needed - 1)
    got = _regular_subgroup_search(M, cert.base, cert.witnesses, stabilizer,
                                   SearchBudget(max_nodes=needed))
    assert taus_of(got) == taus_of(full)


def _tries_within(M, cert, stabilizer, nodes):
    try:
        _regular_subgroup_search(M, cert.base, cert.witnesses, stabilizer,
                                 SearchBudget(max_nodes=nodes))
    except BudgetExceeded:
        return False
    return True


@pytest.fixture
def searches_unbounded(monkeypatch):
    """The isotopism searches keep the default budget whatever a verdict
    passes, so a tiny budget can stop only the regular-group DFS."""
    search = isometry.search_isotopisms

    def default_budget(src, dst, pins=None, budget=None):
        return search(src, dst, pins=pins, budget=DEFAULT_BUDGET)

    monkeypatch.setattr(isometry, "search_isotopisms", default_budget)


def test_a_stopped_regular_subgroup_search_is_inconclusive(searches_unbounded, tmp_path, capsys):
    M, _, _ = twisted_5_fallback()
    res = is_topolinear(M, budget=SearchBudget(max_nodes=1))
    assert res.status is None and res.group is None
    assert res.reason == "inconclusive: search nodes limit 1"
    path = str(tmp_path / "code.json")
    save_code(M, path)
    assert cli.main(["verify", path, "--mode", "topolinear", "--budget-states", "1"]) == 3
    assert capsys.readouterr().out.startswith("topolinear: None (inconclusive: search nodes")


# ---------------------------------------------------------------------------
# canonical JSON without the indenting encoder

def old_writer(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def fixture_documents():
    """The code files and certificates of the certify and cli benchmarks."""
    specs = CERTIFY_SPECS + [QUADRATIC_4]
    for spec in specs:
        M = build_from_spec(spec)
        yield code_to_json(M)
        cert = is_isotopically_transitive(M).certificate
        yield certificate_to_json(cert)
        yield certificate_to_json(TransitivityCertificate("topolinear", cert.base,
                                                          cert.witnesses))
    for M in (scrambled(twisted_graph_code(3), 90), scrambled(code_h(), 91),
              MdsCode(6, 3, parity_code(6, 3).words,
                      provenance={"construction": "graph", "loop": "cp", "p": 3})):
        yield code_to_json(M)
    yield loop_to_json(make_dihedral(3))


def test_canonical_json_is_the_indenting_encoders_bytes():
    docs = list(fixture_documents())
    assert len(docs) == 28
    for doc in docs:
        assert dumps_canonical(doc) == old_writer(doc)


def json_values():
    scalars = (st.none() | st.booleans() | st.integers() | st.floats()
               | st.text(max_size=4))
    int_lists = st.lists(st.integers() | st.booleans(), max_size=4)
    keys = st.text(max_size=3) | st.integers(-3, 3)
    return st.recursive(scalars | int_lists, lambda inner: (
        st.lists(inner, max_size=4) | st.tuples(inner, inner)
        | st.dictionaries(st.text(max_size=3), inner, max_size=4)
        | st.dictionaries(keys, inner, max_size=3)), max_leaves=20)


@settings(max_examples=100)
@given(json_values())
def test_canonical_json_matches_the_indenting_encoder_on_any_value(value):
    try:
        want = old_writer(value)
    except TypeError as exc:  # keys of mixed types do not sort
        with pytest.raises(type(exc)):
            dumps_canonical(value)
        return
    assert dumps_canonical(value) == want


def test_canonical_json_of_a_provenance_with_floats_bools_and_unicode():
    rng = random.Random(5)
    prov = {"construction": "literal", "note": "café", "x": [1.5, True, None],
            "nested": {"1": [[0, 1], []], "2": {}}, "ints": [rng.randrange(9) for _ in range(5)]}
    doc = code_to_json(MdsCode(2, 2, [(0, 0), (1, 1)], provenance=prov))
    assert dumps_canonical(doc) == old_writer(doc)
