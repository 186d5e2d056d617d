"""The array closure kernel and batched certificate replay against the code
paths they replaced, which composed one `Isotopism` at a time: the
dict-keyed closure behind `mulclose` and the regular-group DFS, the orbit
closure that composed each Schreier witness, and the per-witness `verify`.
Those are kept here, unchanged, as references, except that the orbit
closure now takes fresh words first in, first out, as the breadth-first
walk does, and keeps the depth-first order behind a flag."""
import collections
import itertools
import json
import random
import re
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_isometry import (COMPOSITION, QUADRATIC_4, at_base, base_stabilizer,
                           mulclose_cases, oracle_cases, scrambled,
                           without_base_word)
from topolinear import cli, isometry
from topolinear.budget import BudgetExceeded, DEFAULT_BUDGET, SearchBudget
from topolinear.classify_q4 import all_latin_squares, code_h, standard_semilinear_code
from topolinear.codes import Isotopism, MdsCode, NAryQuasigroup, graph_of, parity_code
from topolinear.constructions import construction_hint
from topolinear.isometry import (GROUP_CAP, TransitivityCertificate, _regular_subgroup_search,
                                 autotopism_search, is_isotopically_transitive,
                                 is_topolinear, mulclose)
from topolinear.codes import make_dihedral, twisted_graph_code
from topolinear.serialize import (build_from_spec, certificate_to_json, code_to_json,
                                  dumps_canonical, load_certificate, loop_to_json,
                                  save_certificate, save_code, save_loop)


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


def ref_orbit_closure(M, base, find, depth_first=False):
    """(witnesses, generators, failing, depth): the orbit closure composing
    one witness at a time. Fresh words are taken first in, first out, as
    the breadth-first walk does; `depth_first` takes them last in, first
    out, as the walk did before, whose certificates must still replay."""
    witnesses = {base: Isotopism.identity(M.q, M.n)}
    depth = {base: 0}
    generators = []
    for w in M.words:
        if w in witnesses:
            continue
        g = find(w)
        if g is None:
            return witnesses, generators, w, depth
        generators.append(g)
        fresh = collections.deque()
        for u, h in list(witnesses.items()):
            v = g.apply_word(u)
            if v not in witnesses:
                witnesses[v], depth[v] = g.compose(h), depth[u] + 1
                fresh.append(v)
        while fresh:
            u = fresh.pop() if depth_first else fresh.popleft()
            for gen in generators:
                v = gen.apply_word(u)
                if v not in witnesses:
                    witnesses[v], depth[v] = gen.compose(witnesses[u]), depth[u] + 1
                    fresh.append(v)
    return witnesses, generators, None, depth


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
        for stabilizer in (None, stab):  # None: the witnesses alone, H = {identity}
            got = _regular_subgroup_search(M, base, wits, stabilizer or [
                Isotopism.identity(M.q, M.n)])
            want = ref_regular_subgroup_search(M, base, wits, stabilizer)
            assert taus_of(got) == taus_of(want), (name, stabilizer is None)
            found += got is not None
    assert found >= 5


# ---------------------------------------------------------------------------
# the orbit closure: the same Schreier witness for every word

def search_codes(seed=0):
    """The code families of the search benchmark, scrambled here; `seed`
    shifts every scramble."""
    for p in (3, 5, 7, 9):
        yield f"twisted-{p}", scrambled(twisted_graph_code(p), seed + 50 + p)
    for n in (4, 5):
        yield f"quadratic-{n}", scrambled(build_from_spec(
            {"construction": "quadratic", "p": 2, "k": 1, "n": n,
             "r": "x1x2+x3x4" if n == 5 else "x1x2+x2x3"}), seed + 60 + n)
    yield "H", scrambled(code_h(), seed + 61)
    yield "r4", scrambled(standard_semilinear_code(4, [(0, 1, 2)]), seed + 62)
    for n, monos in ((5, [(0, 1), (2, 3)]), (6, [(0, 1, 2)])):
        yield f"standard-{n}", scrambled(standard_semilinear_code(n, monos), seed + 63 + n)
    yield "zero-free-3", without_base_word(scrambled(twisted_graph_code(3), seed + 70))


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
        wits, gens, failing, _ = ref_orbit_closure(M, base, find)
        assert res.failing_word == failing, name
        assert [g.taus for g in res.generators] == [g.taus for g in gens], name
        if res:
            assert witness_taus(res.certificate.witnesses) == witness_taus(wits), name
            assert list(res.certificate.witnesses) == list(M.words), name


# ---------------------------------------------------------------------------
# replay of forged certificates

def forged_certificates(M, cert=None):
    """(label, base, witnesses) for the honest certificate, the verdict's
    unless `cert` is given, and forgeries of it, each breaking one check,
    mostly at a middle word, or two checks at two words; the base word is
    words[0], so a missing base-word witness leaves no witness checkable."""
    cert = cert or is_isotopically_transitive(M).certificate
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


def test_a_depth_first_certificate_still_replays(monkeypatch):
    # the walk was depth first, and the pinned-route certificates it wrote
    # hold other witnesses than the breadth-first tree's; each still derives
    # from the base word's through the walk's generators, so replay accepts
    # it checking only the generators alone, and a forgery of it still gets
    # its first fault named witness by witness
    M = dict(forged_codes())["scrambled-twisted-5"]
    base = M.words[0]
    wits, gens, failing, _ = ref_orbit_closure(M, base, pinned_finder(M, base), depth_first=True)
    new = is_isotopically_transitive(M, method="pinned").certificate
    assert failing is None and witness_taus(wits) != witness_taus(new.witnesses)
    old = TransitivityCertificate("isotopic", base, wits)
    checked, fault = [], isometry._witness_fault

    def counted_fault(M, base, w, g):
        checked.append(w)
        return fault(M, base, w, g)

    monkeypatch.setattr(isometry, "_witness_fault", counted_fault)
    assert old.verify(M) == (True, None)
    assert checked == [g.apply_word(base) for g in gens]
    mid = M.words[len(M) // 2]
    for label, base, forged in forged_certificates(M, old):
        for mode in ("isotopic", "topolinear"):
            cert = TransitivityCertificate(mode, base, forged)
            got = cert.verify(M)
            want = ((False, f"witness for {mid} is not a symmetry of the code")
                    if label in WRONG_SHAPE else ref_verify(cert, M))
            assert got == want, (label, mode)
            # "not-closed" swaps in another symmetry for the middle word
            valid = mode == "isotopic" and label in ("honest", "not-closed")
            assert got[0] == valid, (label, mode)


def test_a_large_depth_first_certificate_replays_in_a_few_gathers():
    # 4096 witnesses on a depth-first tree of 587 levels: checking each one
    # against the whole code took 0.48 s
    M = scrambled(standard_semilinear_code(7, [(0, 1), (2, 3), (4, 5)]), 41)
    base = M.words[0]
    res = is_isotopically_transitive(M, budget=SearchBudget(max_points=2 ** 15))
    found = {g.apply_word(base): g for g in res.generators}
    wits, _, failing, depth = ref_orbit_closure(M, base, found.get, depth_first=True)
    assert failing is None and max(depth.values()) > 500
    cert = TransitivityCertificate("isotopic", base, wits)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        assert cert.verify(M) == (True, None)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.1


def test_witnesses_take_one_gather_per_level_of_a_shallow_tree(monkeypatch):
    # the breadth-first tree is 9 levels deep on this code, the depth-first 91
    M = scrambled(twisted_graph_code(9), 59)
    base = M.words[0]
    find = pinned_finder(M, base)
    depth = max(ref_orbit_closure(M, base, find)[3].values())
    deep = max(ref_orbit_closure(M, base, find, depth_first=True)[3].values())
    gathers, compose = [], isometry._compose_pairs

    def counted_compose(left, right):
        gathers.append(len(left))
        return compose(left, right)

    monkeypatch.setattr(isometry, "_compose_pairs", counted_compose)
    assert is_isotopically_transitive(M, method="pinned")
    assert len(gathers) == depth <= 16 and sum(gathers) == len(M) - 1
    assert 5 * depth < deep


def witness_arrays(wits):
    """The `Witnesses` of a dict whose words and rows each stack into one
    array, in its order, or None."""
    try:
        words = np.array(list(wits), np.int64).reshape(len(wits), -1)
        return isometry._witness_map(words, np.stack([g.rows for g in wits.values()]))
    except ValueError:  # no witnesses, or rows of two shapes
        return None


def saved_bytes(cert, path):
    save_certificate(cert, str(path))
    return path.read_bytes()


def test_witness_arrays_replay_and_save_as_the_dict_of_their_views(tmp_path):
    # every forgery whose rows stack: the array form and the dict built from
    # it give the same verdict, the same first fault and the same file
    arrays = 0
    for name, M in forged_codes():
        for label, base, wits in forged_certificates(M):
            W = witness_arrays(wits)
            assert (W is None) == (label in WRONG_SHAPE or label == "empty"), (name, label)
            if W is None:
                continue
            arrays += 1
            assert isinstance(W, isometry.Witnesses) and list(W) == sorted(wits), (name, label)
            for mode in ("isotopic", "topolinear"):
                got = TransitivityCertificate(mode, base, W).verify(M)
                assert got == TransitivityCertificate(mode, base, dict(W)).verify(M), (
                    name, label, mode)
                assert got == ref_verify(TransitivityCertificate(mode, base, wits), M), (
                    name, label, mode)
            assert saved_bytes(TransitivityCertificate("isotopic", base, W), tmp_path / "a") == \
                saved_bytes(TransitivityCertificate("isotopic", base, dict(W)), tmp_path / "b")
    assert arrays >= 45


def group_test_codes():
    """Every transitive oracle code, the order-4 squares, the certify codes
    and the search codes at three scrambles."""
    yield from oracle_cases()
    for k, square in enumerate(all_latin_squares(4)):
        yield f"square-{k}", graph_of(NAryQuasigroup(square))
    yield from certify_codes()
    for seed in (0, 100, 200):
        for name, M in search_codes(seed):
            yield f"{name}@{seed}", M


def test_the_witness_group_test_agrees_with_the_witness_only_dfs():
    # is_topolinear asks whether each walk generator maps the witnesses onto
    # themselves, one gather each, where it ran the DFS over the witnesses
    routes = collections.Counter()
    for name, M in group_test_codes():
        trans = is_isotopically_transitive(M, budget=SearchBudget(max_points=2 ** 15))
        if not trans:
            continue
        want = ref_regular_subgroup_search(M, trans.certificate.base, trans.certificate.witnesses)
        res = is_topolinear(M, budget=SearchBudget(max_points=2 ** 15))
        route = res.reason.split(";")[0]
        routes[route] += 1
        assert (route in ("construction group", "witness closure")) == (want is not None), name
        if want is not None:
            assert res.status is True and set(res.group) == set(want), name
            assert [g.apply_word(trans.certificate.base) for g in res.group] == list(M.words)
    assert routes["construction group"] >= 7 and routes["witness closure"] >= 4
    assert routes["regular subgroup of the full group"] > 600


def count_views(monkeypatch):
    """A counter of the `Isotopism` views made while the fixture is live."""
    count, of = [0], Isotopism._of.__func__

    def counted(cls, rows):
        count[0] += 1
        return of(cls, rows)

    monkeypatch.setattr(Isotopism, "_of", classmethod(counted))
    return count


def test_a_certificate_makes_views_per_generator_not_per_word(monkeypatch, tmp_path):
    views, path = count_views(monkeypatch), str(tmp_path / "cert.json")
    for name, M in certify_codes():
        views[0] = 0
        res = is_isotopically_transitive(M)
        cert = res.certificate
        for mode in ("isotopic", "topolinear"):
            assert TransitivityCertificate(mode, cert.base, cert.witnesses).verify(M) == (
                True, None), name
        save_certificate(cert, path)
        loaded = load_certificate(path)
        assert isinstance(loaded.witnesses, isometry.Witnesses), name
        assert loaded.verify(M) == (True, None), name
        gens = len(res.generators)
        assert views[0] <= 10 * (gens + 1) and views[0] < len(M), (name, views[0], gens)
        views[0] = 0
        top = is_topolinear(M)
        assert top.reason == "construction group", name
        # the group is a list of |M| views; the rest is per generator
        assert views[0] - len(top.group) <= 10 * (gens + 1), (name, views[0], gens)


def transitive_codes():
    """The certify codes and the transitive search codes, with their verdicts."""
    for name, M in [*certify_codes(), *search_codes()]:
        res = is_isotopically_transitive(M)
        if res:
            yield name, M, res


def test_a_verdicts_witnesses_share_the_codes_word_array():
    routes = collections.Counter()
    for name, M, res in transitive_codes():
        for found in (res, is_isotopically_transitive(M, method="pinned")):
            W = found.certificate.witnesses
            assert isinstance(W, isometry.Witnesses) and W.word_rows is M.word_array(), (
                name, found.method)
            routes[found.method] += 1
    assert routes == {"explicit": 7, "pinned": 25}


def test_a_shuffled_dict_of_witnesses_becomes_the_same_arrays(tmp_path):
    rng = random.Random(26)
    for name, M, res in transitive_codes():
        cert = res.certificate
        items = list(cert.witnesses.items())
        rng.shuffle(items)
        W = TransitivityCertificate(cert.mode, cert.base, dict(items)).witnesses
        assert isinstance(W, isometry.Witnesses), name
        for mine, theirs in ((W.word_rows, cert.witnesses.word_rows),
                             (W.rows, cert.witnesses.rows)):
            assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs), name
        for mode in ("isotopic", "topolinear"):
            assert TransitivityCertificate(mode, cert.base, W).verify(M) == \
                TransitivityCertificate(mode, cert.base, cert.witnesses).verify(M), (name, mode)
        assert saved_bytes(TransitivityCertificate(cert.mode, cert.base, W), tmp_path / "a") == \
            saved_bytes(cert, tmp_path / "b"), name


def test_replay_computes_each_walk_generators_word_permutation_once(monkeypatch):
    # `_derivation` reads the permutations the walk built; the other call per
    # generator is its symmetry test, `MdsCode.symmetries`. The topolinear
    # verdict reads the permutations of its own walk and computes none
    callers, images = collections.Counter(), MdsCode.images
    routes = set()

    def counted(self, rows, words):
        callers[sys._getframe(1).f_code.co_name] += 1
        return images(self, rows, words)

    for name, M, res in transitive_codes():
        k = len(res.generators)
        for mode in ("isotopic", "topolinear"):
            cert = TransitivityCertificate(mode, res.certificate.base, res.certificate.witnesses)
            callers.clear()
            with monkeypatch.context() as patch:
                patch.setattr(MdsCode, "images", counted)
                assert cert.verify(M)[0] or mode == "topolinear", name
            assert callers == {"_orbit_closure": k, "symmetries": k}, (name, mode, callers)
        callers.clear()
        with monkeypatch.context() as patch:
            patch.setattr(MdsCode, "images", counted)
            route = is_topolinear(M).reason.split(";")[0]
        if route in ("construction group", "witness closure"):
            routes.add(route)
            assert callers["_orbit_closure"] == k and "is_topolinear" not in callers, (
                name, callers)
    assert routes == {"construction group", "witness closure"}


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
    """The code files and certificates of the certify and cli benchmarks, and
    a loop table: (document, writer, object) each."""
    specs = CERTIFY_SPECS + [QUADRATIC_4]
    for spec in specs:
        M = build_from_spec(spec)
        yield code_to_json(M), save_code, M
        cert = is_isotopically_transitive(M).certificate
        for c in (cert, TransitivityCertificate("topolinear", cert.base, cert.witnesses)):
            yield certificate_to_json(c), save_certificate, c
    for M in (scrambled(twisted_graph_code(3), 90), scrambled(code_h(), 91),
              MdsCode(6, 3, parity_code(6, 3).words,
                      provenance={"construction": "graph", "loop": "cp", "p": 3})):
        yield code_to_json(M), save_code, M
    loop = make_dihedral(3)
    yield loop_to_json(loop), save_loop, loop


def test_canonical_json_is_the_indenting_encoders_bytes(tmp_path):
    docs = list(fixture_documents())
    assert len(docs) == 28
    path = tmp_path / "doc.json"
    for doc, save, obj in docs:
        assert dumps_canonical(doc) == old_writer(doc)
        save(obj, str(path))
        assert path.read_text() == old_writer(doc)


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


def json_documents():
    """JSON objects with text keys: unicode, floats, bools and nested lists."""
    scalars = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4))
    return st.dictionaries(st.text(max_size=4), st.recursive(scalars, lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
        max_leaves=8), max_size=4)


ALPHABETS = [1, 2, 3, 4, 5, 300]  # q = 300 keeps isotopism rows in uint16


def words_over(q, n, **kwargs):
    return st.lists(st.tuples(*[st.integers(0, q - 1)] * n), max_size=6, **kwargs)


@st.composite
def certificates(draw):
    q, n = draw(st.sampled_from(ALPHABETS)), draw(st.integers(2, 4))
    wits = {w: Isotopism([draw(st.permutations(range(q))) for _ in range(n)])
            for w in draw(words_over(q, n, unique=True))}
    base = draw(st.tuples(*[st.integers(0, q - 1)] * n))
    return TransitivityCertificate(draw(st.sampled_from(["isotopic", "topolinear"])), base, wits)


@settings(max_examples=60)
@given(certificates())
def test_a_saved_certificate_is_the_indenting_encoders_bytes(tmp_path_factory, cert):
    path = tmp_path_factory.getbasetemp() / "cert.json"
    save_certificate(cert, str(path))
    assert path.read_text() == old_writer(certificate_to_json(cert))


@st.composite
def literal_codes(draw):
    q, n = draw(st.sampled_from(ALPHABETS)), draw(st.integers(2, 4))
    return MdsCode(q, n, draw(words_over(q, n)), provenance=draw(json_documents()))


@settings(max_examples=60)
@given(literal_codes())
def test_a_saved_code_is_the_indenting_encoders_bytes(tmp_path_factory, M):
    path = tmp_path_factory.getbasetemp() / "code.json"
    save_code(M, str(path))
    assert path.read_text() == old_writer(code_to_json(M))
