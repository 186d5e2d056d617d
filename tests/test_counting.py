import math

import pytest

from topolinear import counting
from topolinear.budget import SearchBudget
from topolinear.codes import MdsCode
from topolinear.constructions import QuadraticSpec, quadratic_code
from topolinear.counting import (lower_bound_report, partition_asymptotic,
                                 partition_exact, partitions_of,
                                 quadratic_form_count, ratio_report,
                                 upper_triangular_forms)
from topolinear.isometry import equivalent_codes


def partition_dp(N):
    """Independent oracle: coin-change table over part sizes 1..N."""
    table = [1] + [0] * N
    for part in range(1, N + 1):
        for total in range(part, N + 1):
            table[total] += table[total - part]
    return table[N]


def test_recurrence_matches_dp_oracle_up_to_30():
    for N in range(31):
        assert partition_exact(N) == partition_dp(N)
    # one table serves every size, in any order and with repeats, and a
    # one-shot iterator is read once
    Ns = [30, *range(1, 30), 17, 17]
    assert [r.exact for r in ratio_report(Ns)] == [partition_dp(N) for N in Ns]
    assert [r.N for r in ratio_report(iter(Ns))] == Ns


def test_frozen_partition_values():
    assert partition_exact(1) == 1
    assert partition_exact(5) == 7
    assert partition_exact(10) == 42
    assert partition_exact(20) == 627
    assert partition_exact(50) == 204226


def test_partition_exact_handles_large_inputs_exactly():
    # exact integer arithmetic: the value ends in known digits
    v = partition_exact(1000)
    assert v == partition_dp(1000)


def test_partition_exact_rejects_negative():
    with pytest.raises(ValueError):
        partition_exact(-1)


def test_partitions_of_enumerates_each_once():
    for N in range(1, 13):
        parts = list(partitions_of(N))
        assert len(parts) == partition_exact(N)
        assert len(set(parts)) == len(parts)
        for t in parts:
            assert sum(t) == N
            assert all(a >= b for a, b in zip(t, t[1:]))


def test_asymptotic_formula_value():
    N = 10
    expected = math.exp(math.pi * math.sqrt(2 * N / 3)) / (4 * N * math.sqrt(3))
    assert partition_asymptotic(N) == pytest.approx(expected)
    assert all(partition_asymptotic(n) > 0 for n in range(1, 200))


def test_ratio_trend_toward_one():
    rows = ratio_report(range(10, 101, 10))
    gaps = [abs(1 - r.ratio) for r in rows]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < gaps[0]


def test_quadratic_form_count():
    assert quadratic_form_count(2, 3) == 8
    assert quadratic_form_count(2, 2) == 2
    assert quadratic_form_count(3, 3) == 27
    assert len(list(upper_triangular_forms(2, 3))) == 8


def test_lower_bound_report_q2_n3_resolves_all_pairs():
    rep = lower_bound_report(2, 1, 3)
    assert rep.verified and rep.form_count == 8
    assert [len(c) for c in rep.classes] == [4, 4]
    names = {}
    for idx, alpha in enumerate(rep.forms):
        names[idx] = frozenset((i, j) for i in range(3) for j in range(3)
                               if alpha[i][j])
    trivial_class = next(c for c in rep.classes if 0 in c)
    # the class of the zero form: exactly the forms whose restriction to the
    # sum-zero hyperplane is affine
    assert {names[i] for i in trivial_class} == {
        frozenset(), frozenset({(0, 1), (0, 2)}),
        frozenset({(0, 1), (1, 2)}), frozenset({(0, 2), (1, 2)})}


def test_lower_bound_witnesses_replay():
    rep = lower_bound_report(2, 1, 3)
    codes = [quadratic_code(QuadraticSpec.make(2, 1, 3, alpha=a))
             for a in rep.forms]
    assert rep.witnesses
    for (i, j), w in rep.witnesses.items():
        assert w.apply_code(codes[i]).words == codes[j].words


def test_lower_bound_cross_class_pairs_truly_fail():
    rep = lower_bound_report(2, 1, 3)
    a = rep.classes[0][0]
    b = rep.classes[1][0]
    codes = [quadratic_code(QuadraticSpec.make(2, 1, 3, alpha=f))
             for f in rep.forms]
    assert equivalent_codes(codes[a], codes[b]) is None


def test_lower_bound_report_q2_n2_is_a_single_class():
    rep = lower_bound_report(2, 1, 2)
    assert rep.verified and rep.form_count == 2
    assert rep.classes == [[0, 1]]


def test_lower_bound_report_gf4_n3_verifies_into_two_classes():
    # alphabet 16, 4096 points per code: within the default budget
    rep = lower_bound_report(2, 2, 3)
    assert rep.verified and rep.form_count == 64
    assert [len(c) for c in rep.classes] == [16, 48]
    assert len(rep.witnesses) == 64 - 2


def test_lower_bound_report_refuses_before_listing_the_forms(monkeypatch):
    # 2^21 forms on 4^7 points: refused without listing any, by the default
    # budget's points bound
    def unlisted(q, n):
        raise AssertionError("forms listed before the points check")

    monkeypatch.setattr(counting, "upper_triangular_forms", unlisted)
    rep = lower_bound_report(2, 1, 7)
    assert not rep.verified and rep.form_count == 2 ** 21 and rep.forms == []
    assert rep.note == "unverified: points limit 7776 (needed 16384)"


def test_lower_bound_report_refuses_too_many_form_pairs(monkeypatch):
    # 2^10 forms on 4^5 points pass the points check, but their 523 776
    # pairs are refused before any form is listed or code built
    def unlisted(*args, **kwargs):
        raise AssertionError("forms listed before the pairs check")

    monkeypatch.setattr(counting, "upper_triangular_forms", unlisted)
    monkeypatch.setattr(counting, "quadratic_code", unlisted)
    rep = lower_bound_report(2, 1, 5)
    assert not rep.verified and rep.form_count == 2 ** 10 and rep.forms == []
    assert rep.note == "unverified: form pairs limit 2016 (needed 523776)"


def test_lower_bound_report_still_sweeps_the_64_forms_of_gf2_n4(monkeypatch):
    # the largest sweep that verifies: all 2016 pairs, with every pair
    # called inequivalent so none is skipped
    calls = []
    monkeypatch.setattr(counting, "equivalent_codes",
                        lambda a, b, budget: calls.append((a, b)))
    rep = lower_bound_report(2, 1, 4)
    assert rep.verified and rep.form_count == 64 and len(calls) == 2016


def test_lower_bound_report_resolves_gf2_n4_into_three_classes(monkeypatch):
    calls = []

    def counted(a, b, budget):
        calls.append((a, b))
        return equivalent_codes(a, b, budget=budget)

    monkeypatch.setattr(counting, "equivalent_codes", counted)
    rep = lower_bound_report(2, 1, 4)
    assert rep.verified and [len(c) for c in rep.classes] == [8, 48, 8]
    # each form is compared with the class representatives found so far
    assert len(calls) == 125
    codes = [quadratic_code(QuadraticSpec.make(2, 1, 4, alpha=f))
             for f in rep.forms]
    # one replayed witness from its class's first form to each other form
    assert len(rep.witnesses) == 64 - 3
    reps = {c[0] for c in rep.classes}
    for (i, j), w in rep.witnesses.items():
        assert i in reps and i < j
        assert w.apply_code(codes[i]).words == codes[j].words
    a, b = rep.classes[0][0], rep.classes[1][0]
    assert equivalent_codes(codes[a], codes[b]) is None


def test_lower_bound_report_profiles_each_code_once(monkeypatch):
    built = []
    profiles = MdsCode.box_profiles

    def counted(self, k):
        if k == 3 and k not in self._boxes:
            built.append(self)
        return profiles(self, k)

    monkeypatch.setattr(MdsCode, "box_profiles", counted)
    rep = lower_bound_report(2, 1, 4)
    assert rep.verified and [len(c) for c in rep.classes] == [8, 48, 8]
    assert len(built) == len(set(map(id, built))) == 64


def test_lower_bound_report_custom_budget():
    tiny = SearchBudget(max_points=10, max_nodes=10)
    rep = lower_bound_report(2, 1, 3, budget=tiny)
    assert not rep.verified and rep.form_count == 8


def test_lower_bound_report_refused_in_the_middle_of_the_sweep():
    # the points pass, the first isotopism search runs out of nodes: the
    # forms stay listed and no classes are claimed
    rep = lower_bound_report(2, 1, 3, budget=SearchBudget(max_nodes=1))
    assert not rep.verified and rep.classes is None
    assert len(rep.forms) == rep.form_count == 8
    assert rep.note == "unverified: search nodes limit 1"
