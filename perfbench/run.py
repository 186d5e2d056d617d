"""Verdict benchmark for topolinear.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src. One
client sends the workload's seeded request list in a closed loop, one request
at a time, and the oracle checks every response. With --trace 0 the run
repeats whole passes of the list while they fit in --seconds (at least
MIN_PASSES) and reports the end-to-end metrics. With --trace 1 it runs one
untraced and one traced pass and reports the per-layer metrics; spans go to
perfbench/out/. The last line of stdout is one JSON object.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

WORKLOADS = ("search", "certify", "equivalence", "cli")

# passes every untraced run makes; the tail percentile is fixed from them
MIN_PASSES = {"search": 3, "certify": 3, "equivalence": 3, "cli": 3}
SETUP_REPEATS = 3
TAIL_BEYOND = 10
# how far, in multiples of a request's own duration, the reference readings
# that scale it may lie (see scale_pass)
REACH = 3

# Reported times are scaled to a reference host: the shared hosts this runs
# on drift in speed by +-30% over minutes, which moved work_s more than any
# program change of interest. A reference is timed between requests to track
# that drift: a fixed pure-Python kernel for in-process requests, and for
# subprocesses an interpreter that imports numpy and then runs the kernel's
# loop for about as long as a CLI call computes (starting processes and
# loading extension modules drift differently from pure-Python work, and a
# CLI call does both). The constants are their nominal times.
KERNEL_S = 0.002
PROCESS_S = 0.3

END_TO_END = (("setup_s", "s"), ("work_s", "s"), ("request_s.p50", "s"),
              ("request_s.tail", "s"), ("ok_share", "share"), ("peak_rss_mb", "MB"))


def die(msg: str, code: int = 2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def import_program():
    """Import topolinear from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "topolinear", "__init__.py")):
        die(f"no program source at {SRC}")
    sys.path.insert(0, SRC)
    import topolinear
    if not os.path.abspath(topolinear.__file__).startswith(SRC + os.sep):
        die(f"topolinear was imported from {topolinear.__file__}, not {SRC}")


KERNEL_LOOP = """
table = {}
for i in range(N):
    key = (i % 7, i % 11, i % 13)
    table[key] = table.get(key, 0) + i
"""

# 10000 tuple objects (251 distinct values) in a fixed order, for the kernel
_WORDS = [tuple((i * 7 + j * 13) % 251 for j in range(6)) for i in range(10000)]
random.Random(1).shuffle(_WORDS)


def reference_kernel() -> None:
    """Fixed pure-Python work that calls nothing in the program: hash 6-tuples
    into a set and probe it with permuted copies, as a code's word-set
    lookups do. Interleaved with program requests on a loaded host, it
    tracked their times better than the dict loop of KERNEL_LOOP."""
    seen = set()
    for w in _WORDS:
        seen.add(w)
    hits = 0
    for w in _WORDS[::3]:
        if (w[1], w[0]) + w[2:] in seen:
            hits += 1


def _best_of(n, fn) -> float:
    best = math.inf
    for _ in range(n):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def kernel_seconds() -> float:
    return _best_of(3, reference_kernel)


def interpreter_seconds() -> float:
    code = "import numpy\nN = 120000\n" + KERNEL_LOOP
    return _best_of(1, lambda: subprocess.run([sys.executable, "-c", code], check=True,
                                              timeout=60))


KERNEL = (kernel_seconds, KERNEL_S)
PROCESS = (interpreter_seconds, PROCESS_S)


def scaled(seconds: float, before: float, after: float, nominal: float) -> float:
    """A time measured between two reference readings, scaled to the
    reference host."""
    return seconds * nominal * 2 / (before + after)


@dataclass
class Outcome:
    name: str
    kind: str
    probe: str | None
    verdict: bool
    seconds: float  # scaled to the reference host
    raw_seconds: float
    status: str  # ok, wrong, error, refused
    summary: object
    why: str | None
    route: str | None
    rss_kb: int | None

    @property
    def failed(self) -> bool:
        return self.status != "ok"


def scale_pass(spans, readings, nominal) -> list[float]:
    """Request times of one pass scaled to the reference host.

    readings[i] is (time, seconds) of the reference reading taken before
    request i, readings[i + 1] the one after it. A request is divided by the
    mean of these two and of every other reading within REACH times its own
    duration of it, and multiplied by the nominal time. The host's speed
    flips within a second or so: a short request is scaled by the readings
    next to it, and a long one by more of them, since the two next to it say
    little about the speed in its middle.
    """
    out = []
    for i, (start, end) in enumerate(spans):
        reach = REACH * (end - start)
        lo, hi = i, i + 1
        while lo > 0 and readings[lo - 1][0] >= start - reach:
            lo -= 1
        while hi + 1 < len(readings) and readings[hi + 1][0] <= end + reach:
            hi += 1
        near = [secs for _, secs in readings[lo:hi + 1]]
        out.append((end - start) * nominal * len(near) / sum(near))
    return out


def run_pass(requests, reference=KERNEL, tracer=None) -> list[Outcome]:
    from topolinear.budget import BudgetExceeded

    measure, nominal = reference
    outcomes, spans = [], []
    readings = [(time.perf_counter(), measure())]
    for idx, req in enumerate(requests):
        if tracer is not None:
            tracer.request = idx
        resp = result = None
        start = time.perf_counter()
        try:
            resp = req.call()
        except BudgetExceeded as exc:
            result = ("refused", ("refused", exc.bound), str(exc), None)
        except Exception as exc:  # a crash is an outcome; record it and go on
            result = ("error", ("error", type(exc).__name__),
                      f"{type(exc).__name__}: {exc}", None)
        end = time.perf_counter()
        spans.append((start, end))
        readings.append((time.perf_counter(), measure()))
        if result is None:
            ans = req.check(resp)
            result = ("ok" if ans.ok else ans.failure, ans.summary, ans.why, ans.route)
        outcomes.append(Outcome(req.name, req.kind, req.probe, req.verdict,
                                end - start, end - start, *result,
                                getattr(resp, "rss_kb", None)))
    for o, secs in zip(outcomes, scale_pass(spans, readings, nominal)):
        o.seconds = secs
    return outcomes


def correct(outcomes) -> bool:
    """No wrong answer anywhere; probes may fail only by their defect (a crash
    or a refusal), every other request must succeed."""
    return all(o.status != "wrong" and (o.probe or not o.failed) for o in outcomes)


def work_seconds(outcomes, raw=False) -> float:
    return sum(o.raw_seconds if raw else o.seconds for o in outcomes if not o.probe)


def median_work(passes) -> float:
    """Summed request times of one pass, probes excluded, with each request
    taking its median over the passes; a burst of load on the host then
    moves a few samples instead of a whole pass."""
    return sum(statistics.median(o.seconds for o in same)
               for same in zip(*passes) if not same[0].probe)


def latency(passes, beyond_share: float):
    """p50 and tail over pooled samples. A failed request ranks slower than
    any success; where one lands on a rank its value is the slowest request
    of the run. The tail leaves beyond_share of the samples beyond it, which
    is TAIL_BEYOND samples at MIN_PASSES passes and more at more passes."""
    samples = sorted((o.failed, o.seconds) for p in passes for o in p)
    slowest = max(s for _, s in samples)

    def at(i):
        failed, secs = samples[i]
        return slowest if failed else secs

    n = len(samples)
    beyond = min(n - 1, math.ceil(beyond_share * n - 1e-9))
    return at((n - 1) // 2), at(n - 1 - beyond), n


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of fresh processes that import the program, build the
    seeded inputs and stop before the first request."""
    times = []
    speed = interpreter_seconds()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", workload,
                        "--seed", str(seed), "--setup-only"], cwd=ROOT, check=True,
                       timeout=120)
        dt = time.perf_counter() - start
        before, speed = speed, interpreter_seconds()
        times.append(scaled(dt, before, speed, PROCESS_S))
    return statistics.median(times)


def import_split() -> tuple[float, float]:
    """Cumulative import time of topolinear and of numpy, from -X importtime,
    median of three fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=SRC)
    tl, np_ = [], []
    for _ in range(3):
        err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import topolinear"],
                             cwd=ROOT, env=env, capture_output=True, text=True, check=True,
                             timeout=60).stderr
        cumulative = {}
        for line in err.splitlines():
            m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
            if m:
                cumulative[m.group(2)] = int(m.group(1)) / 1e6
        tl.append(cumulative["topolinear"])
        np_.append(cumulative.get("numpy", 0.0))
    return statistics.median(tl), statistics.median(np_)


def metric_block(values: dict, units) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units}


def describe(outcomes, label):
    from workloads import PROBES

    lines = []
    for o in outcomes:
        if o.failed:
            tag = f"probe {o.probe} [{PROBES[o.probe]}]" if o.probe else "FAILED"
            lines.append(f"# {label} {tag}: {o.name} {o.status} ({o.why})")
    return lines


def untraced_run(workload, seed, seconds, workdir, runner):
    import workloads

    passes = []
    begin = time.perf_counter()
    while True:
        reqs = workloads.build_requests(workload, seed, workdir, runner)
        start = time.perf_counter()
        passes.append(run_pass(reqs, PROCESS if workload == "cli" else KERNEL))
        last = time.perf_counter() - start
        if len(passes) >= MIN_PASSES[workload] and \
                time.perf_counter() - begin + last > seconds:
            break
    per_pass = len(passes[0])
    p50, tail, n = latency(passes, TAIL_BEYOND / (MIN_PASSES[workload] * per_pass))
    flat = [o for p in passes for o in p]
    fails = sum(o.failed for o in flat)
    if workload == "cli":
        rss_kb = max(o.rss_kb or 0 for o in flat)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {"work_s": median_work(passes),
              "request_s.p50": p50, "request_s.tail": tail,
              "ok_share": 1 - fails / len(flat), "peak_rss_mb": rss_kb / 1024}
    pct = 100 * (1 - TAIL_BEYOND / (MIN_PASSES[workload] * per_pass))
    lines = [f"# {workload} seed {seed}: {len(passes)} passes of {per_pass} requests, "
             f"closed loop, one client; unscaled work_s per pass "
             + " ".join(f"{work_seconds(p, raw=True):.3f}" for p in passes),
             f"# request_s.tail is p{pct:.1f} of {n} samples; fail_share "
             f"{fails / len(flat):.4f} ({fails} of {len(flat)})"]
    lines += describe(passes[0], "pass 1")
    return values, flat, correct(flat), lines


def traced_run(workload, seed, workdir, runner):
    import tracing
    import workloads

    lines = []
    extra = {}
    if workload == "cli":
        # process cost per call: the subprocess pass against the same argv in-process
        sub = run_pass(workloads.build_requests(workload, seed, workdir, runner))
        runner = workloads.inprocess_runner
    untraced = run_pass(workloads.build_requests(workload, seed, workdir, runner))
    tracer = tracing.Tracer()
    reqs = workloads.build_requests(workload, seed, workdir, runner)
    restore = tracing.install(tracer, extra_namespaces=[workloads])
    try:
        traced = run_pass(reqs, tracer=tracer)
    finally:
        restore()
    same = [(o.name, o.status, o.summary) for o in traced] == \
        [(o.name, o.status, o.summary) for o in untraced]
    if workload == "cli":
        same = same and [(o.name, o.status, o.summary) for o in sub] == \
            [(o.name, o.status, o.summary) for o in untraced]
        extra["cli.process_s"] = statistics.median(
            s.raw_seconds - u.raw_seconds for s, u in zip(sub, untraced))
        extra["cli.import_s"], extra["cli.import.numpy_s"] = import_split()
    extra["trace.overhead_s"] = work_seconds(traced, True) - work_seconds(untraced, True)
    values = tracing.layer_metrics(tracer, traced, extra)
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"trace-{workload}-{seed}.jsonl")
    tracing.write_spans(tracer, spans_path)
    lines.append(f"# {workload} seed {seed}: unscaled work_s untraced "
                 f"{work_seconds(untraced, True):.4f}, traced "
                 f"{work_seconds(traced, True):.4f}; "
                 f"verdicts {'equal' if same else 'DIFFER'}; spans in {spans_path}")
    for name, unit, base in tracing.PER_LAYER:
        if base:
            lines.append(f"# {name} = {values[name]:.6g} {unit}  [{base}]")
    lines += describe(traced, "traced")
    flat = untraced + traced
    return values, flat, correct(flat) and same, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and build the inputs, then exit (setup timing)")
    args = ap.parse_args(argv)

    import_program()
    import workloads

    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        runner = workloads.subprocess_runner(SRC, workdir)
        if args.setup_only:
            workloads.build_requests(args.workload, args.seed, workdir, runner)
            return 0
        if args.trace:
            values, flat, ok, lines = traced_run(args.workload, args.seed, workdir, runner)
            import tracing
            metrics = metric_block(values, [(n, u) for n, u, _ in tracing.PER_LAYER])
        else:
            setup = setup_seconds(args.workload, args.seed)
            values, flat, ok, lines = untraced_run(args.workload, args.seed,
                                                   args.seconds, workdir, runner)
            values["setup_s"] = setup
            metrics = metric_block(values, END_TO_END)
            lines += [f"# {n} = {values[n]:.6g} {u}" for n, u in END_TO_END]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps({"correct": ok, "attempted": len(flat),
                      "failed": sum(o.failed for o in flat), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
