"""Self-tests for the benchmark: the oracle rejects bad answers, request
lists are seed-determined, the tracer restores what it wraps, and
BENCHMARK.json names exactly the metrics run.py prints.

    python3 -m pytest perfbench -q
"""
import dataclasses
import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from topolinear import isometry, loops  # noqa: E402


def _answer(req):
    return req.check(req.call())


def _flip_one_entry(taus):
    """Swap the images of symbols 0 and 1 in the first coordinate."""
    first = list(taus[0])
    first[0], first[1] = first[1], first[0]
    return (tuple(first),) + tuple(taus[1:])


@pytest.fixture(scope="module")
def twisted3():
    return workloads.scramble(loops.twisted_graph_code(3), "test/a")


# ---------------------------------------------------------------------------
# the oracle rejects wrong answers

def test_oracle_accepts_true_verdicts(twisted3):
    assert _answer(workloads.transitive_request("t", twisted3, True)).ok
    assert _answer(workloads.topolinear_request("g", twisted3, True)).ok


def test_oracle_rejects_a_flipped_verdict(twisted3):
    req = workloads.transitive_request("t", twisted3, True)
    res = req.call()
    assert not req.check(dataclasses.replace(res, transitive=False)).ok
    topo = workloads.topolinear_request("g", twisted3, True)
    assert not topo.check(dataclasses.replace(topo.call(), status=False)).ok
    r4 = workloads.r_codes()["r4"]
    neg = workloads.transitive_request("r4", r4, False)
    assert neg.check(neg.call()).ok
    assert not neg.check(dataclasses.replace(neg.call(), transitive=True)).ok


def test_oracle_rejects_a_certificate_with_one_entry_flipped(twisted3):
    req = workloads.transitive_request("t", twisted3, True)
    res = req.call()
    cert = res.certificate
    word = next(w for w in cert.witnesses if any(w))
    bad = dict(cert.witnesses)
    bad[word] = isometry.Isotopism(_flip_one_entry(bad[word].taus))
    forged = isometry.TransitivityCertificate(cert.mode, cert.base, bad)
    assert not req.check(dataclasses.replace(res, certificate=forged)).ok
    taus = {w: g.taus for w, g in bad.items()}
    M = twisted3
    assert oracle.certificate_reason(M.q, M.n, M.words, cert.base, taus) is not None
    group = workloads.topolinear_request("g", M, True).call().group
    flipped = [g.taus for g in group]
    flipped[1] = _flip_one_entry(flipped[1])
    assert oracle.regular_group_reason(M.q, M.n, M.words, flipped) is not None


def test_oracle_rejects_a_wrong_isometry(twisted3):
    other = workloads.scramble(loops.twisted_graph_code(3), "test/b")
    req = workloads.equivalence_request("e", twisted3, other, True)
    w = req.call()
    assert req.check(w).ok
    broken = isometry.Isometry(isometry.Isotopism(_flip_one_entry(w.iso.taus)), w.eps)
    assert not req.check(broken).ok
    assert not req.check(None).ok


def test_oracle_rejects_a_wrong_exit_code(tmp_path):
    def runner(code):
        return lambda argv: workloads.CliRun(code, "", "")

    for code in (1, 3, 4):
        reqs = workloads.cli_requests(5, str(tmp_path), runner(code))
        wants_zero = [r for r in reqs if r.name in ("construct", "verify-mds", "count")]
        assert wants_zero
        for req in wants_zero:
            assert not req.check(req.call()).ok
    crash = workloads.CliRun(1, "", "Traceback (most recent call last):\nKeyError: 0\n")
    probe = next(r for r in workloads.cli_requests(5, str(tmp_path), lambda a: crash)
                 if r.probe == "zero-word")
    ans = probe.check(probe.call())
    assert not ans.ok and ans.failure == "error"


def test_oracle_quadratic_codes_match_the_library():
    from topolinear import counting
    rep = counting.lower_bound_report(2, 1, 3)
    for i, alpha in enumerate(rep.forms):
        assert oracle.prime_quadratic_words(2, 3, alpha) == \
            list(workloads.quadratic(2, 1, 3, alpha).words)


def test_standard_form_degrees_come_from_the_construction():
    rng = random.Random(3)
    for n in (4, 5):
        for d in (2, 3):
            monos = workloads.random_form(rng, n, d)
            assert oracle.form_degree(monos, n) == d


# ---------------------------------------------------------------------------
# request lists are seed-determined

def _listing(workload, seed, workdir):
    reqs = workloads.build_requests(workload, seed, workdir, lambda argv: None)
    return [(r.name, r.kind, r.sizes, r.probe, r.digest) for r in reqs]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_requests_other_seed_same_shape(workload, tmp_path):
    a = _listing(workload, 7, str(tmp_path))
    assert a == _listing(workload, 7, str(tmp_path))
    b = _listing(workload, 8, str(tmp_path))
    assert [x[:4] for x in a] == [x[:4] for x in b]
    assert [x[4] for x in a] != [x[4] for x in b]


def test_every_probe_is_in_its_workload(tmp_path):
    probes = {w: {r.probe for r in workloads.build_requests(w, 1, str(tmp_path),
                                                            lambda argv: None)} - {None}
              for w in workloads.WORKLOADS}
    assert probes == {"search": {"points-cap", "zero-word"}, "certify": set(),
                      "equivalence": set(), "cli": {"zero-word", "forged-provenance"}}
    assert set(workloads.PROBES) == {"points-cap", "zero-word", "forged-provenance"}


# ---------------------------------------------------------------------------
# latency ranking and the tracer

def _outcome(seconds, status="ok"):
    return run.Outcome("r", "k", None, True, seconds, seconds, status, None, None, None,
                       None)


def test_failed_requests_rank_slowest():
    ok = [_outcome(0.1 * i) for i in range(1, 20)]
    p50, tail, n = run.latency([ok + [_outcome(0.001, "error")]], 1 / 20)
    assert n == 20 and p50 == pytest.approx(1.0)
    assert tail == pytest.approx(1.9)  # the failure sits beyond it
    _, tail, _ = run.latency([ok + [_outcome(0.001, "error")]], 0.0)
    assert tail == pytest.approx(1.9)  # a failure on the rank reads as the slowest


def test_scaling_window_grows_with_the_request():
    # readings every second; the host reads 2x slow around t=3..4 only
    readings = [(float(t), 2.0 if t in (3, 4) else 1.0) for t in range(8)]
    short, long_ = (3.0, 3.1), (4.0, 5.0)
    scaled = run.scale_pass([(0.0, 0.5), (1.0, 1.2), (2.0, 2.5), short, long_, (5.5, 6.0),
                             (6.0, 6.5)], readings, nominal=1.0)
    assert scaled[3] == pytest.approx(0.1 / 2.0)  # only the two readings next to it
    # 1 s reaches 3 s either side: readings at t=1..7, two of them slow
    assert scaled[4] == pytest.approx(1.0 * 7 / 9.0)


def test_tracer_restores_and_measures_self_time(twisted3):
    originals = (isometry.is_isotopically_transitive, isometry.Isotopism.compose,
                 isometry.MdsCode.word_set)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer, extra_namespaces=[workloads])
    try:
        assert isometry.is_isotopically_transitive is not originals[0]
        from topolinear import classify_q4
        assert classify_q4.is_isotopically_transitive is isometry.is_isotopically_transitive
        isometry.is_topolinear(twisted3)
    finally:
        restore()
    assert (isometry.is_isotopically_transitive, isometry.Isotopism.compose,
            isometry.MdsCode.word_set) == originals
    names = {s[0] for s in tracer.spans}
    assert {"isometry.is_topolinear", "isometry.search_isotopisms"} <= names
    selfs = tracing.self_times(tracer)
    total = sum(s[5] for s in tracer.spans if s[1] == -1)
    assert sum(selfs.values()) == pytest.approx(total, rel=1e-6)
    metrics = tracing.layer_metrics(tracer, [], {})
    assert metrics["isometry.search.calls"] >= len(twisted3)
    assert metrics["isometry.compose.calls"] > 0


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with run.py

def test_benchmark_json_names_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) \
        == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(n, u) for n, u, _ in tracing.PER_LAYER]
