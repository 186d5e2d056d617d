"""Seeded request lists for the four workloads.

Every request carries its known answer: a verdict taken from how its input was
built, or from a fact the test suite pins (code H is transitive, the cubic
form r4 is not, the order-6 fixture is not a G-loop, the partitions of 3 give
inequivalent codes). True verdicts are replayed by `oracle`, which never calls
the path under test.

"Scrambled" inputs are images under a random isometry (coordinate
permutation plus per-coordinate symbol permutations) with the provenance
dropped, so no construction witness applies; see `scramble` for where the
isometry comes from. The run's seed draws the quadratic and standard forms,
the composition partition and the CLI's choices. A probe is a request the
program fails today through a documented defect; probes stay in the mix but
are left out of `work_s`.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
import threading
import traceback
from dataclasses import dataclass
from typing import Callable

import oracle
from topolinear import (classify_q4, cli, codes, constructions, counting,
                        isometry, loops, serialize)

PROBES = {
    "points-cap": "transitivity of the stripped twisted-loop code, p=11: refused "
                  "because the points cap 6^5 is below 22^3",
    "zero-word": "is_topolinear on a scrambled code without the zero word: "
                 "KeyError in the full-group search; the CLI exits 1",
    "forged-provenance": "verify --mode transitive on parity_code(6,3) saved with "
                         "provenance of the p=3 twisted loop: AssertionError; "
                         "the CLI exits 1",
}


@dataclass(frozen=True)
class Answer:
    """The oracle's judgement of one response. `summary` is a hashable digest
    of the response, compared between the traced and the untraced pass."""
    ok: bool
    summary: object
    why: str | None = None
    route: str | None = None
    failure: str = "wrong"  # how a failed response failed: wrong, error, refused


@dataclass
class Request:
    name: str
    kind: str
    call: Callable[[], object]
    check: Callable[[object], Answer]
    sizes: tuple  # (q, n, words) of each input code
    digest: str  # hash of the seeded inputs
    probe: str | None = None
    verdict: bool = True  # the response is a verdict (base of per-verdict ratios)


# ---------------------------------------------------------------------------
# seeded inputs

def _digest(*parts) -> str:
    return hashlib.sha1(repr(parts).encode()).hexdigest()[:16]


def strip(M):
    """The same words with the provenance dropped."""
    return codes.MdsCode(M.q, M.n, M.words)


def scramble(M, key: str, zero: bool = True):
    """Image of M under the isometry drawn from the random stream named
    `key`, without provenance. The final symbol shift is chosen so that the
    image holds the zero word (zero=True) or lacks it (zero=False).

    The stream is named by the request, not by the run's seed: search cost
    on a scrambled code depends heavily on the labelling (a stripped p=9
    twisted-loop code took 0.17-2.45 s over twelve draws), so seeded draws
    made work_s follow the seed more than the program. The draws are the
    stream's first ones, not a selection."""
    rng = random.Random(key)
    q, n = M.q, M.n
    eps = list(range(n))
    rng.shuffle(eps)
    taus = []
    for _ in range(n):
        t = list(range(q))
        rng.shuffle(t)
        taus.append(t)
    words = []
    for w in M.words:
        moved = [0] * n
        for j, s in enumerate(w):
            moved[eps[j]] = s
        words.append(tuple(taus[i][moved[i]] for i in range(n)))
    present = set(words)
    if zero:
        shift = rng.choice(words)
    else:
        shift = tuple(rng.randrange(q) for _ in range(n))
        while shift in present:
            shift = tuple(rng.randrange(q) for _ in range(n))
    return codes.MdsCode(q, n, [tuple((s - c) % q for s, c in zip(w, shift))
                                for w in words])


def random_alpha(rng: random.Random, n: int, q: int):
    return [[rng.randrange(q) if j > i else 0 for j in range(n)] for i in range(n)]


def random_form(rng: random.Random, n: int, degree: int):
    """Monomials over the first n-1 variables with top degree `degree`, plus
    random pairs and linear terms."""
    free = range(n - 1)
    monos = [tuple(sorted(rng.sample(free, degree)))]
    pairs = [m for m in itertools.combinations(free, 2) if m not in monos]
    monos += rng.sample(pairs, rng.randrange(len(pairs) + 1))
    monos += [(i,) for i in free if rng.random() < 0.5]
    return monos


def quadratic(p: int, k: int, n: int, alpha):
    return constructions.quadratic_code(
        constructions.QuadraticSpec.make(p, k, n, alpha=alpha))


def composition(inner):
    return constructions.composition_code(constructions.CompositionSpec("zpz2", 3, inner))


def r_codes():
    """r1..r4 (standard forms of length 4) and the pair code H."""
    forms = {"r1": [], "r2": [(0, 1), (2, 3)], "r3": [(0, 1)], "r4": [(0, 1, 2)]}
    out = {name: classify_q4.standard_semilinear_code(4, m) for name, m in forms.items()}
    out["H"] = classify_q4.code_h()
    return out


def _size(M) -> tuple:
    return (M.q, M.n, len(M))


# ---------------------------------------------------------------------------
# result fields

def route_of(res) -> str | None:
    """Route of a transitivity or topolinear result, or of a CLI payload."""
    method = getattr(res, "method", None)
    reason = getattr(res, "reason", None)
    if isinstance(res, dict):
        method, reason = res.get("method"), res.get("reason")
    if method is not None:
        return {"enumerate": "full_group"}.get(method, method)
    if isinstance(reason, str):
        for prefix, route in (("construction group", "construction_group"),
                              ("witness closure", "witness_closure"),
                              ("not isotopically transitive", "pinned")):
            if reason.startswith(prefix):
                return route
        return "full_group"
    return None


# ---------------------------------------------------------------------------
# in-process requests

def transitive_request(name, M, expected: bool, probe=None):
    q, n, words = M.q, M.n, M.words

    def call():
        return isometry.is_isotopically_transitive(M)

    def check(res):
        route = route_of(res)
        if res.transitive != expected:
            return Answer(False, res.transitive, "wrong verdict", route)
        if expected:
            cert = res.certificate
            why = oracle.certificate_reason(
                q, n, words, cert.base,
                {w: g.taus for w, g in cert.witnesses.items()})
        else:
            why = None if oracle.word_in_code(words, res.failing_word) else \
                "failing word not in the code"
        return Answer(why is None, res.transitive, why, route)

    return Request(name, "transitive", call, check, (_size(M),),
                   _digest(words, expected), probe)


def topolinear_request(name, M, expected: bool, probe=None):
    q, n, words = M.q, M.n, M.words

    def call():
        return isometry.is_topolinear(M)

    def check(res):
        route = route_of(res)
        if res.status is not expected:
            return Answer(False, res.status, f"wrong verdict ({res.reason})", route)
        why = oracle.regular_group_reason(q, n, words, [g.taus for g in res.group])
        return Answer(why is None, res.status, why, route)

    return Request(name, "topolinear", call, check, (_size(M),),
                   _digest(words, expected), probe)


def classify_request(name, M, monomials):
    """Expected verdict from the construction: a standard form of degree d is
    semilinear, and transitive exactly when d <= 2. monomials=None marks H."""
    words, n = M.words, M.n
    if monomials is None:
        expected = (False, None, True)
    else:
        d = oracle.form_degree(monomials, n)
        expected = (True, d, d <= 2)

    def call():
        return classify_q4.classify(M)

    def check(v):
        got = (v.semilinear, v.degree, v.transitive)
        route = "closed_form" if v.semilinear else "search"
        if got != expected:
            return Answer(False, got, f"expected {expected}", route)
        why = None
        if v.semilinear:
            why = oracle.standard_form_reason(words, v.evidence.witness.taus,
                                              v.evidence.monomials, n)
        return Answer(why is None, got, why, route)

    return Request(name, "classify", call, check, (_size(M),), _digest(words, expected))


def gloop_request(name, loop, expected: bool):
    def call():
        return loops.is_g_loop(loop)

    def check(v):
        if bool(v) != expected:
            return Answer(False, bool(v), "wrong verdict")
        if not expected:
            a, b, _ = v.counterexample
            if not (0 <= a < loop.q and 0 <= b < loop.q):
                return Answer(False, False, "counterexample out of range")
        return Answer(True, bool(v))

    return Request(name, "gloop", call, check, (("loop", loop.q),),
                   _digest(loop.table, expected))


def equivalence_request(name, A, B, expected: bool):
    q, n = A.q, A.n

    def call():
        return isometry.equivalent_codes(A, B)

    def check(w):
        if (w is not None) != expected:
            return Answer(False, w is not None, "wrong verdict")
        why = None
        if expected:
            why = oracle.isometry_reason(q, n, A.words, B.words, w.eps, w.iso.taus)
        return Answer(why is None, expected, why)

    return Request(name, "equivalent", call, check, (_size(A), _size(B)),
                   _digest(A.words, B.words, expected))


def lower_bound_request(name, q, s, n, class_sizes):
    """Known answer: the form count q^(s*C(n,2)) and the class sizes. Every
    class is replayed: its witnesses, applied to independently rebuilt codes,
    must connect it."""

    def call():
        return counting.lower_bound_report(q, s, n)

    def check(rep):
        sizes = sorted(len(c) for c in rep.classes or ())
        summary = (rep.form_count, rep.verified, tuple(sizes))
        if not rep.verified or rep.form_count != q ** (s * n * (n - 1) // 2) \
                or sizes != sorted(class_sizes):
            return Answer(False, summary, "wrong count or classes")
        built = {}

        def words_of(i):
            if i not in built:
                built[i] = oracle.prime_quadratic_words(q, n, rep.forms[i])
            return built[i]

        parent = list(range(rep.form_count))

        def find(a):
            while parent[a] != a:
                a = parent[a]
            return a

        for (i, j), w in rep.witnesses.items():
            why = oracle.isometry_reason(q * q, n, words_of(i), words_of(j),
                                         w.eps, w.iso.taus)
            if why:
                return Answer(False, summary, f"witness {i}->{j}: {why}")
            parent[find(j)] = find(i)
        for cls in rep.classes:
            if len({find(i) for i in cls}) != 1:
                return Answer(False, summary, "a class is not connected by witnesses")
        return Answer(True, summary)

    return Request(name, "count", call, check,
                   ((q ** s * q ** s, n, q ** (2 * s * (n - 1))),),
                   _digest(q, s, n, class_sizes))


# ---------------------------------------------------------------------------
# workloads

def search_requests(seed, workdir, runner):
    rng = random.Random(f"search:{seed}")
    reqs = []
    for p in (3, 5, 7, 9):
        base = loops.twisted_graph_code(p)
        for r in range(2):
            reqs.append(transitive_request(f"transitive/twisted-p{p}.{r}",
                                           scramble(base, f"search/p{p}.{r}"), True))
    for n in (4, 5):
        for r in range(2):
            M = scramble(quadratic(2, 1, n, random_alpha(rng, n, 2)),
                         f"search/quadratic-n{n}.{r}")
            reqs.append(transitive_request(f"transitive/quadratic-n{n}.{r}", M, True))
    rc = r_codes()
    for r in range(2):
        reqs.append(transitive_request(f"transitive/H.{r}",
                                       scramble(rc["H"], f"search/H.{r}"), True))
        reqs.append(transitive_request(f"transitive/r4.{r}",
                                       scramble(rc["r4"], f"search/r4.{r}"), False))
    for p in (3, 5):
        reqs.append(topolinear_request(f"topolinear/twisted-p{p}",
                                       scramble(loops.twisted_graph_code(p),
                                                f"search/topolinear-p{p}"), True))
    reqs.append(topolinear_request("topolinear/H", scramble(rc["H"], "search/topolinear-H"),
                                   True))
    reqs.append(topolinear_request(
        "topolinear/quadratic-n4",
        scramble(quadratic(2, 1, 4, random_alpha(rng, 4, 2)), "search/topolinear-quadratic"),
        True))
    for n in (4, 5, 6):
        for d in (2, 3):
            monos = random_form(rng, n, d)
            M = scramble(classify_q4.standard_semilinear_code(n, monos),
                         f"search/classify-n{n}-deg{d}")
            reqs.append(classify_request(f"classify/n{n}-deg{d}", M, monos))
    reqs.append(classify_request("classify/H", scramble(rc["H"], "search/classify-H"), None))
    for name, loop, expected in (("cp3", loops.make_cp(3), True),
                                 ("cp5", loops.make_cp(5), True),
                                 ("dihedral5", loops.make_dihedral(5), True),
                                 ("order6-fixture", loops.find_non_g_loop_order6(), False)):
        reqs.append(gloop_request(f"gloop/{name}", loop, expected))
    reqs.append(transitive_request("probe/points-cap",
                                   strip(loops.twisted_graph_code(11)), True,
                                   probe="points-cap"))
    reqs.append(topolinear_request(
        "probe/zero-word",
        scramble(loops.twisted_graph_code(3), "search/zero-free", zero=False), True,
        probe="zero-word"))
    return reqs


def certify_specs(rng: random.Random):
    specs = [{"construction": "graph", "loop": {"name": "cp", "p": p}} for p in (5, 7, 9)]
    specs.append({"construction": "quadratic", "p": 2, "k": 1, "n": 5,
                  "alpha": random_alpha(rng, 5, 2)})
    specs.append({"construction": "quadratic", "p": 2, "k": 2, "n": 3,
                  "alpha": random_alpha(rng, 3, 4)})
    specs.append({"construction": "composition", "outer": "zpz2", "p": 3,
                  "inner": rng.choice([[3], [2, 1], [1, 1, 1]])})
    specs.append({"construction": "iterated", "loop": {"name": "dihedral", "p": 3}, "n": 4})
    return specs


def _spec_size(spec) -> tuple:
    kind = spec["construction"]
    if kind == "graph":
        p = spec["loop"]["p"]
        return (2 * p, 3, 4 * p * p)
    if kind == "quadratic":
        q = spec["p"] ** spec["k"]
        return (q * q, spec["n"], q ** (2 * spec["n"] - 2))
    if kind == "composition":
        m = sum(spec["inner"])
        return (2 * spec["p"], m + 1, (2 * spec["p"]) ** m)
    q = 2 * spec["loop"]["p"]
    return (q, spec["n"], q ** (spec["n"] - 1))


def certify_requests(seed, workdir, runner):
    """Per code: build from its spec, the explicit transitivity route,
    is_topolinear through the construction group, replay in both certificate
    modes, and a save/load round trip. Later requests read what earlier ones
    of the same code produced."""
    rng = random.Random(f"certify:{seed}")
    reqs = []
    for idx, spec in enumerate(certify_specs(rng)):
        size = _spec_size(spec)
        label = f"{spec['construction']}{idx}"
        ctx = {}
        digest = _digest(spec)
        code_path = os.path.join(workdir, f"{label}.code.json")
        cert_path = os.path.join(workdir, f"{label}.cert.json")
        reqs += _certify_code(label, spec, size, digest, ctx, code_path, cert_path)
    return reqs


def _certify_code(label, spec, size, digest, ctx, code_path, cert_path):
    q, n, m = size

    def words():
        return ctx["M"].words

    def build():
        ctx["M"] = serialize.build_from_spec(spec)
        return ctx["M"]

    def check_build(M):
        got = _size(M)
        if got != size:
            return Answer(False, got, f"size {got}, expected {size}")
        why = oracle.mds_reason(q, n, M.words)
        if why is None and M.provenance.get("construction") != spec["construction"]:
            why = "provenance does not name the construction"
        if why is None and not oracle.word_in_code(M.words, (0,) * n):
            why = "zero word missing"
        return Answer(why is None, got, why)

    def explicit():
        res = isometry.is_isotopically_transitive(ctx["M"], method="explicit")
        ctx["cert"] = res.certificate
        return res

    def check_explicit(res):
        route = route_of(res)
        if not res.transitive:
            return Answer(False, False, "wrong verdict", route)
        cert = res.certificate
        why = oracle.certificate_reason(q, n, words(), cert.base,
                                        {w: g.taus for w, g in cert.witnesses.items()})
        return Answer(why is None, True, why, route)

    def topolinear():
        return isometry.is_topolinear(ctx["M"])

    def check_topolinear(res):
        route = route_of(res)
        if res.status is not True:
            return Answer(False, res.status, f"wrong verdict ({res.reason})", route)
        why = oracle.regular_group_reason(q, n, words(), [g.taus for g in res.group])
        return Answer(why is None, True, why, route)

    def cert_evidence():
        cert = ctx["cert"]
        taus = {w: g.taus for w, g in cert.witnesses.items()}
        return cert, taus

    def replay_isotopic():
        return ctx["cert"].verify(ctx["M"])

    def check_replay_isotopic(res):
        cert, taus = cert_evidence()
        expected = oracle.certificate_reason(q, n, words(), cert.base, taus) is None
        return Answer(res[0] is expected and expected, res[0],
                      None if res[0] is expected else f"replay said {res}")

    def replay_topolinear():
        cert = ctx["cert"]
        return isometry.TransitivityCertificate("topolinear", cert.base,
                                                cert.witnesses).verify(ctx["M"])

    def check_replay_topolinear(res):
        cert, taus = cert_evidence()
        expected = (oracle.certificate_reason(q, n, words(), cert.base, taus) is None
                    and oracle.regular_group_reason(q, n, words(), list(taus.values())) is None)
        return Answer(res[0] is expected and expected, res[0],
                      None if res[0] is expected else f"replay said {res}")

    def round_trip():
        serialize.save_code(ctx["M"], code_path)
        serialize.save_certificate(ctx["cert"], cert_path)
        return serialize.load_code(code_path), serialize.load_certificate(cert_path)

    def check_round_trip(res):
        M2, cert2 = res
        M, cert = ctx["M"], ctx["cert"]
        same = (M2.words == M.words and M2.provenance == M.provenance
                and cert2.mode == cert.mode and tuple(cert2.base) == tuple(cert.base)
                and {w: g.taus for w, g in cert2.witnesses.items()}
                == {w: g.taus for w, g in cert.witnesses.items()})
        return Answer(same, same, None if same else "round trip changed the data")

    steps = (("build", build, check_build, False),
             ("explicit", explicit, check_explicit, True),
             ("topolinear", topolinear, check_topolinear, True),
             ("replay-isotopic", replay_isotopic, check_replay_isotopic, True),
             ("replay-topolinear", replay_topolinear, check_replay_topolinear, True),
             ("round-trip", round_trip, check_round_trip, False))
    return [Request(f"{step}/{label}", step, call, check, (size,), digest, verdict=verdict)
            for step, call, check, verdict in steps]


def equivalence_requests(seed, workdir, runner):
    rng = random.Random(f"equivalence:{seed}")
    reqs = []
    parts = {"3": composition((3,)), "21": composition((2, 1)), "111": composition((1, 1, 1))}
    for a, b in itertools.combinations(parts, 2):
        reqs.append(equivalence_request(f"inequivalent/partition-{a}-{b}",
                                        scramble(parts[a], f"equivalence/{a}-{b}.a"),
                                        scramble(parts[b], f"equivalence/{a}-{b}.b"),
                                        False))
    rc = r_codes()
    for a, b in itertools.combinations(rc, 2):
        reqs.append(equivalence_request(f"inequivalent/{a}-{b}",
                                        scramble(rc[a], f"equivalence/{a}-{b}.a"),
                                        scramble(rc[b], f"equivalence/{a}-{b}.b"), False))
    positives = (("quadratic-n4", quadratic(2, 1, 4, random_alpha(rng, 4, 2))),
                 ("partition-21", parts["21"]),
                 ("twisted-p3", loops.twisted_graph_code(3)),
                 ("twisted-p5", loops.twisted_graph_code(5)))
    for name, M in positives:
        reqs.append(equivalence_request(f"equivalent/{name}", strip(M),
                                        scramble(M, f"equivalence/{name}"), True))
    reqs.append(lower_bound_request("lower-bound/2-1-3", 2, 1, 3, [4, 4]))
    reqs.append(lower_bound_request("lower-bound/3-1-3", 3, 1, 3, [27]))
    return reqs


# ---------------------------------------------------------------------------
# the command line, as a subprocess or in-process

@dataclass
class CliRun:
    code: int
    out: str
    err: str
    rss_kb: int | None = None


CLI_TIMEOUT_S = 120


def subprocess_runner(src: str, cwd: str):
    """Run `python -m topolinear argv` and wait for it; its peak RSS comes
    from wait4 on that one child."""
    env = dict(os.environ, PYTHONPATH=src)

    def run(argv):
        with tempfile.TemporaryFile(dir=cwd) as err:
            proc = subprocess.Popen([sys.executable, "-m", "topolinear", *argv],
                                    cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=err)
            timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                out = proc.stdout.read()
            finally:
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                timer.cancel()
            err.seek(0)
            return CliRun(proc.returncode, out.decode(), err.read().decode(),
                          usage.ru_maxrss)

    return run


def inprocess_runner(argv) -> CliRun:
    """The same argv through topolinear.cli.main; an escaping exception maps
    to exit 1, as the interpreter would."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the subprocess would print this and exit 1
            traceback.print_exc()
            code = 1
    return CliRun(code, out.getvalue(), err.getvalue())


def _cli_failure(run: CliRun) -> str:
    if run.code == 3:
        return "refused"
    if run.code >= 4 or "Traceback" in run.err:
        return "error"
    return "wrong"


def cli_request(name, argv, codes_ok, judge, runner, sizes, digest, probe=None):
    """`judge(payload)` returns (why, route) for a JSON payload."""

    def call():
        return runner(argv)

    def check(run):
        try:
            payload = json.loads(run.out) if run.out.strip() else None
        except json.JSONDecodeError:
            payload = None
        summary = (run.code, json.dumps(payload, sort_keys=True))
        if run.code not in codes_ok:
            last = run.err.strip().splitlines()[-1:] or [""]
            return Answer(False, summary, f"exit {run.code}, expected {codes_ok}: {last[0]}",
                          failure=_cli_failure(run))
        if run.code == 2 and 2 in codes_ok:
            return Answer(True, summary)
        if payload is None:
            return Answer(False, summary, "no JSON payload")
        why, route = judge(payload)
        return Answer(why is None, summary, why, route)

    return Request(name, argv[0], call, check, sizes, digest, probe)


def _write_code(path, M, provenance=None):
    with open(path, "w") as fh:
        json.dump({"q": M.q, "n": M.n, "words": [list(w) for w in M.words],
                   "provenance": provenance or {"construction": "literal"}}, fh)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def cli_requests(seed, workdir, runner):
    rng = random.Random(f"cli:{seed}")
    path = lambda name: os.path.join(workdir, name)  # noqa: E731
    spec = {"construction": "quadratic", "p": 2, "k": 1, "n": 4,
            "alpha": random_alpha(rng, 4, 2)}
    with open(path("spec.json"), "w") as fh:
        json.dump(spec, fh)
    code, cert = path("code.json"), path("cert.json")
    scrambled = scramble(loops.twisted_graph_code(3), "cli/scrambled")
    _write_code(path("scrambled.json"), scrambled)
    degree = rng.choice((2, 3))
    monos = random_form(rng, 4, degree)
    _write_code(path("standard.json"), scramble(
        classify_q4.standard_semilinear_code(4, monos), "cli/standard"))
    A = strip(quadratic(2, 1, 4, random_alpha(rng, 4, 2)))
    B = scramble(A, "cli/equivalent")
    _write_code(path("a.json"), A)
    _write_code(path("b.json"), B)
    rc = r_codes()
    # a named stream, not the seed: the pairs' search costs span 0.1-0.3 s, which
    # moved the cli tail with the seed more than with the program
    na, nb = random.Random("cli/inequivalent").choice(list(itertools.combinations(rc, 2)))
    _write_code(path("neg-a.json"), scramble(rc[na], "cli/inequivalent.a"))
    _write_code(path("neg-b.json"), scramble(rc[nb], "cli/inequivalent.b"))
    zero_free = scramble(loops.twisted_graph_code(3), "cli/zero-free", zero=False)
    _write_code(path("zero-free.json"), zero_free)
    forged = codes.parity_code(6, 3)
    _write_code(path("forged.json"), forged,
                {"construction": "graph", "loop": "cp", "p": 3})

    def judge_construct(payload):
        if payload != {"q": 4, "n": 4, "words": 64, "out": code}:
            return f"payload {payload}", None
        obj, c = _read_json(code), _read_json(cert)
        words = [tuple(w) for w in obj["words"]]
        why = oracle.mds_reason(4, 4, words)
        if why:
            return why, None
        taus = {tuple(r["word"]): r["taus"] for r in c["witnesses"]}
        why = oracle.certificate_reason(4, 4, words, c["base"], taus)
        group = oracle.regular_group_reason(4, 4, words, list(taus.values())) is None
        if why is None and c["mode"] != ("topolinear" if group else "isotopic"):
            why = f"certificate mode {c['mode']}"
        return why, None

    def judge_ok(payload):
        if payload.get("ok") is not True:
            return f"payload {payload}", None
        return None, route_of(payload)

    def judge_classify(payload):
        want = {"semilinear": True, "degree": degree, "transitive": degree <= 2}
        route = "closed_form" if payload.get("semilinear") else "search"
        return (None if payload == want else f"payload {payload}"), route

    def judge_equivalent(payload):
        if payload.get("equivalent") is not True:
            return f"payload {payload}", None
        return oracle.isometry_reason(4, 4, A.words, B.words,
                                      payload["coordinate_permutation"],
                                      payload["taus"]), None

    def judge_inequivalent(payload):
        return (None if payload == {"equivalent": False} else f"payload {payload}"), None

    def judge_count(payload):
        exact = [row["exact"] for row in payload["partitions"]]
        forms = payload["forms"]
        sizes = sorted(len(c) for c in forms.get("classes") or ())
        good = exact == [42, 627] and forms["count"] == 8 and forms["verified"] \
            and sizes == [4, 4]
        return (None if good else f"payload {payload}"), None

    def judge_gloop(expected):
        def judge(payload):
            good = payload.get("g_loop") is expected
            if good and not expected:
                good = payload.get("counterexample") is not None
            return (None if good else f"payload {payload}"), None
        return judge

    size = lambda M: (_size(M),)  # noqa: E731
    d = _digest(spec, scrambled.words, monos, A.words, B.words, na, nb, zero_free.words)
    q4 = ((4, 4, 64),)
    table = [
        ("construct", ["construct", path("spec.json"), code, "--certificate", cert],
         (0,), judge_construct, q4, None),
        ("verify-mds", ["verify", code, "--mode", "mds"], (0,), judge_ok, q4, None),
        ("verify-transitive-search", ["verify", path("scrambled.json"), "--mode",
                                      "transitive"], (0,), judge_ok, size(scrambled), None),
        ("verify-transitive-replay", ["verify", code, "--mode", "transitive",
                                      "--certificate", cert], (0,), judge_ok, q4, None),
        ("verify-topolinear-search", ["verify", path("scrambled.json"), "--mode",
                                      "topolinear"], (0,), judge_ok, size(scrambled), None),
        ("verify-topolinear-replay", ["verify", code, "--mode", "topolinear",
                                      "--certificate", cert], (0,), judge_ok, q4, None),
        ("classify", ["classify", path("standard.json")], (0 if degree <= 2 else 1,),
         judge_classify, q4, None),
        ("equivalent", ["equivalent", path("a.json"), path("b.json")], (0,),
         judge_equivalent, q4 * 2, None),
        ("inequivalent", ["equivalent", path("neg-a.json"), path("neg-b.json")], (1,),
         judge_inequivalent, q4 * 2, None),
        ("count", ["count", "--partitions", "10,20", "--forms", "2,1,3"], (0,),
         judge_count, ((4, 3, 16),), None),
        ("gloop-cp3", ["gloop", "cp", "--p", "3"], (0,), judge_gloop(True),
         (("loop", 6),), None),
        ("gloop-order6-fixture", ["gloop", "non-g-6"], (1,), judge_gloop(False),
         (("loop", 6),), None),
        ("probe/zero-word", ["verify", path("zero-free.json"), "--mode", "topolinear"],
         (0,), judge_ok, size(zero_free), "zero-word"),
        ("probe/forged-provenance", ["verify", path("forged.json"), "--mode",
                                     "transitive"], (0, 2), judge_ok, size(forged),
         "forged-provenance"),
    ]
    return [cli_request(name, argv + ["--json"], ok, judge, runner, sizes, d, probe)
            for name, argv, ok, judge, sizes, probe in table]


REQUEST_LISTS = {"search": search_requests, "certify": certify_requests,
            "equivalence": equivalence_requests, "cli": cli_requests}


WORKLOADS = tuple(REQUEST_LISTS)


def build_requests(workload: str, seed: int, workdir: str, runner=None):
    return REQUEST_LISTS[workload](seed, workdir, runner)
