"""Spans and counters around the program's layer boundaries, for the traced run.

`install` wraps every public function of the layer modules and rebinds it in
every module that holds it, so calls between modules (`cli` calling
`isometry.is_topolinear`, `classify_q4` calling `is_isotopically_transitive`)
are seen too; a few methods are wrapped on their class. The helper modules
`perms`, `alphabet` and `fields` are left alone: they sit under every layer
and their time stays in their callers' self time.

A span records name, start, end, busy time, parent span and request id, and
stays in memory until `write_spans`. A generator gets one span whose busy
time is the sum of its resumptions. Self time is busy time minus the time of
child spans. Functions called too often for a span only count calls.
"""
from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
import weakref
from collections import Counter, defaultdict

from topolinear.budget import BudgetExceeded

LAYER_MODULES = ("codes", "isometry", "constructions", "loops", "classify_q4",
                 "counting", "serialize", "cli")

# hot helpers: calls are counted, no span
COUNT_ONLY = {"isometry.parastrophe", "isometry.permute_word", "isometry.is_automorphism",
              "loops.loop_isomorphic", "constructions.fold",
              "constructions.element_inverse", "constructions.star_product"}

# (module, class, attribute) -> wrapper kind
METHODS = {
    ("isometry", "Isotopism", "compose"): "count",
    ("isometry", "Isometry", "compose"): "count",
    ("isometry", "Isotopism", "is_automorphism_of"): "count",
    ("isometry", "TransitivityCertificate", "verify"): "span",
    ("codes", "MdsCode", "completion_maps"): "index",
    ("codes", "MdsCode", "slots"): "index",
    ("codes", "MdsCode", "encoded"): "index",
    ("codes", "MdsCode", "word_set"): "index",
}

# layer -> span names whose self time it sums
LAYERS = {
    "isometry.search": ("isometry.search_isotopisms", "isometry.autotopism_search"),
    "isometry.mulclose": ("isometry.mulclose",),
    "isometry.replay": ("isometry.TransitivityCertificate.verify",),
    "isometry.equivalent": ("isometry.equivalent_codes",),
    "codes.index": ("codes.MdsCode.completion_maps", "codes.MdsCode.slots",
                    "codes.MdsCode.encoded", "codes.MdsCode.word_set"),
    "codes.is_mds": ("codes.is_mds",),
    "constructions.build": (
        "serialize.build_from_spec", "constructions.composition_code",
        "constructions.quadratic_code", "constructions.iterated_code",
        "loops.graph_code", "loops.twisted_graph_code", "loops.make_cp",
        "loops.make_dihedral", "loops.make_zp_z2", "loops.cyclic_loop",
        "codes.graph_of", "codes.pair_code", "codes.parity_code",
        "classify_q4.standard_semilinear_code", "classify_q4.code_h"),
    "constructions.witnesses": (
        "constructions.witnesses_from_provenance",
        "constructions.generators_from_provenance",
        "constructions.composition_witness", "constructions.quadratic_witness",
        "constructions.star_isotopism", "constructions.star_inverse",
        "constructions.shift_isotopism", "constructions.regular_group_iterated",
        "constructions.solve_condition_c", "constructions.condition_c_solutions",
        "constructions.sigma_compatibility_failure",
        "constructions.composition_spec_from", "constructions.quadratic_spec_from",
        "isometry.cp_regular_witness", "isometry.cp_regular_generators",
        "isometry.chase_to_zero_cp", "isometry.cp_shear", "isometry.ic_p_generators",
        "isometry.cp_autotopism_a1", "isometry.cp_autotopism_a2",
        "isometry.cp_autotopism_a3"),
    "classify_q4.classify": ("classify_q4.classify",),
    "classify_q4.semilinearity_test": ("classify_q4.semilinearity_test",),
    "loops.is_g_loop": ("loops.is_g_loop",),
    "counting.lower_bound_report": ("counting.lower_bound_report",),
    "serialize.load": ("serialize.load_code", "serialize.load_certificate",
                       "serialize.load_loop", "serialize.load_spec"),
    "serialize.save": ("serialize.save_code", "serialize.save_certificate",
                       "serialize.save_loop"),
}

REFUSAL_BOUNDS = {"points": "points", "search nodes": "search_nodes",
                  "group closure": "group_closure"}

ROUTES = ("explicit", "pinned", "construction_group", "witness_closure", "full_group")

# name, unit, ratio base (None for plain sums and counts)
PER_LAYER = (
    [("isometry.search.calls", "count", None),
     ("isometry.search.self_s", "s", None),
     ("isometry.search.calls_per_verdict", "calls/verdict",
      "search_isotopisms calls / verdict requests"),
     ("isometry.search.hit_share", "share",
      "searches yielding an isotopism / search_isotopisms calls"),
     ("isometry.mulclose.self_s", "s", None),
     ("isometry.mulclose.elements", "count", None),
     ("isometry.compose.calls", "count", None),
     ("isometry.is_automorphism_of.calls", "count", None),
     ("isometry.replay.self_s", "s", None),
     ("isometry.replay.calls", "count", None),
     ("isometry.equivalent.self_s", "s", None),
     ("isometry.equivalent.perms_per_call", "perms/call",
      "parastrophe calls / equivalent_codes calls")]
    + [(f"isometry.route.{r}.share", "share",
        f"verdicts taking route {r} / verdicts with a route") for r in ROUTES]
    + [("codes.index.self_s", "s", None),
       ("codes.index.builds", "count", None),
       ("codes.is_mds.self_s", "s", None),
       ("constructions.build.self_s", "s", None),
       ("constructions.witnesses.self_s", "s", None),
       ("classify_q4.classify.self_s", "s", None),
       ("classify_q4.semilinearity_test.self_s", "s", None),
       ("classify_q4.closed_form_share", "share",
        "classify verdicts decided by a standard form / classify requests"),
       ("loops.is_g_loop.self_s", "s", None),
       ("loops.loop_isomorphic.calls", "count", None),
       ("counting.lower_bound_report.self_s", "s", None),
       ("serialize.load.self_s", "s", None),
       ("serialize.save.self_s", "s", None),
       ("serialize.bytes", "bytes", None),
       ("cli.process_s", "s", "median over CLI calls of subprocess wall time "
                              "minus in-process time of the same argv"),
       ("cli.import_s", "s", None),
       ("cli.import.numpy_s", "s", None)]
    + [(f"budget.refused.{b}", "count", None) for b in REFUSAL_BOUNDS.values()]
    + [("trace.overhead_s", "s", "traced work_s - untraced work_s, same requests"),
       ("trace.spans", "count", None)]
)


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        # [name, parent, request, start, end, busy, child busy]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.request = -1
        self.refusals: list[BudgetExceeded] = []

    # -- span bookkeeping ------------------------------------------------

    def _open(self, name: str, start: float) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, self.request, start, start, 0.0, 0.0])
        self.stack.append(sid)
        return sid

    def _close(self, sid: int, start: float) -> None:
        end = time.perf_counter()
        span = self.spans[sid]
        span[4] = end
        span[5] += end - start
        self.stack.pop()
        if self.stack:  # charge whoever is running now, also for a resumed generator
            self.spans[self.stack[-1]][6] += end - start

    def _note(self, exc: BaseException) -> None:
        if isinstance(exc, BudgetExceeded) and not any(e is exc for e in self.refusals):
            self.refusals.append(exc)

    # -- wrappers ----------------------------------------------------------

    def span(self, name, fn, post=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            start = time.perf_counter()
            sid = self._open(name, start)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._note(exc)
                raise
            finally:
                self._close(sid, start)
            if post is not None:
                post(self, args, kwargs, result)
            return result

        return wrapper

    def generator(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return self._drive(name, fn(*args, **kwargs))

        return wrapper

    def _drive(self, name, inner):
        sid = None
        hit = False
        try:
            while True:
                start = time.perf_counter()
                if sid is None:
                    sid = self._open(name, start)
                else:
                    self.stack.append(sid)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                except BaseException as exc:
                    self._note(exc)
                    raise
                finally:
                    self._close(sid, start)
                if not hit:
                    hit = True
                    self.counts[name + ".hits"] += 1
                yield item
        finally:
            inner.close()

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def index(self, name, fn):
        """Cached index of a code: the first call per object builds it and
        gets a span; later calls only read the cache."""
        seen: dict[int, weakref.ref] = {}
        traced = self.span(name, fn)

        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            ref = seen.get(id(obj))
            if ref is not None and ref() is obj:
                return fn(obj, *args, **kwargs)
            seen[id(obj)] = weakref.ref(obj)
            self.counts["codes.index.builds"] += 1
            return traced(obj, *args, **kwargs)

        return wrapper

    def wrap(self, name, fn):
        if name in COUNT_ONLY:
            return self.counter(name, fn)
        if inspect.isgeneratorfunction(fn):
            return self.generator(name, fn)
        return self.span(name, fn, POST.get(name))


def _file_bytes(position):
    def post(tracer, args, kwargs, result):
        path = args[position] if len(args) > position else kwargs.get("path")
        if isinstance(path, str) and os.path.isfile(path):
            tracer.counts["serialize.bytes"] += os.path.getsize(path)
    return post


def _group_size(tracer, args, kwargs, result):
    tracer.counts["isometry.mulclose.elements"] += len(result)


POST = {"isometry.mulclose": _group_size}
POST.update({f"serialize.{n}": _file_bytes(1)
             for n in ("save_code", "save_certificate", "save_loop")})
POST.update({f"serialize.{n}": _file_bytes(0)
             for n in ("load_code", "load_certificate", "load_loop", "load_spec")})


def install(tracer: Tracer, extra_namespaces=()):
    """Wrap the layer modules' public functions and the methods in METHODS.
    Returns a function that puts every original back."""
    mods = {short: sys.modules[f"topolinear.{short}"] for short in LAYER_MODULES}
    wrappers = {}
    for short, mod in mods.items():
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                wrappers[id(obj)] = (obj, tracer.wrap(f"{short}.{attr}", obj))
    undo = []
    namespaces = [m for n, m in sys.modules.items()
                  if n == "topolinear" or n.startswith("topolinear.")]
    for ns in namespaces + list(extra_namespaces):
        for attr, obj in list(vars(ns).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(ns, attr, hit[1])
                undo.append((ns, attr, obj))
    for (short, cls_name, attr), kind in METHODS.items():
        cls = getattr(mods[short], cls_name)
        orig = cls.__dict__[attr]
        name = f"{short}.{cls_name}.{attr}"
        if kind == "count":  # Isotopism and Isometry share isometry.compose.calls
            new = tracer.counter(f"{short}.{attr}.calls", orig)
        elif kind == "span":
            new = tracer.span(name, orig)
        elif isinstance(orig, property):
            new = property(tracer.index(name, orig.fget))
        else:
            new = tracer.index(name, orig)
        setattr(cls, attr, new)
        undo.append((cls, attr, orig))

    def restore():
        for ns, attr, obj in reversed(undo):
            setattr(ns, attr, obj)

    return restore


# ---------------------------------------------------------------------------
# per-layer metrics

def self_times(tracer: Tracer) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for name, _parent, _req, _start, _end, busy, child in tracer.spans:
        out[name] += busy - child
    return out


def _share(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, outcomes, extra: dict) -> dict[str, float]:
    """Every PER_LAYER value for one traced pass. `outcomes` are that pass's
    request outcomes; `extra` holds values measured outside the tracer (the
    CLI split and the tracing overhead)."""
    selfs = self_times(tracer)
    c = tracer.counts
    layer_self = {layer: sum(selfs.get(n, 0.0) for n in names)
                  for layer, names in LAYERS.items()}
    searches = c["isometry.search_isotopisms"]
    verdicts = sum(1 for o in outcomes if o.verdict)
    routed = [o.route for o in outcomes if o.route in ROUTES]
    classified = [o for o in outcomes if o.kind == "classify"]
    refused = Counter(REFUSAL_BOUNDS.get(e.bound) for e in tracer.refusals)
    values = {
        "isometry.search.calls": searches,
        "isometry.search.calls_per_verdict": _share(searches, verdicts),
        "isometry.search.hit_share": _share(c["isometry.search_isotopisms.hits"], searches),
        "isometry.mulclose.elements": c["isometry.mulclose.elements"],
        "isometry.compose.calls": c["isometry.compose.calls"],
        "isometry.is_automorphism_of.calls": c["isometry.is_automorphism_of.calls"],
        "isometry.replay.calls": c["isometry.TransitivityCertificate.verify"],
        "isometry.equivalent.perms_per_call": _share(c["isometry.parastrophe"],
                                                     c["isometry.equivalent_codes"]),
        "codes.index.builds": c["codes.index.builds"],
        "classify_q4.closed_form_share": _share(
            sum(1 for o in classified if o.route == "closed_form"), len(classified)),
        "loops.loop_isomorphic.calls": c["loops.loop_isomorphic"],
        "serialize.bytes": c["serialize.bytes"],
        "trace.spans": len(tracer.spans),
    }
    for r in ROUTES:
        values[f"isometry.route.{r}.share"] = _share(routed.count(r), len(routed))
    for layer, total in layer_self.items():
        values[f"{layer}.self_s"] = total
    for bound in REFUSAL_BOUNDS.values():
        values[f"budget.refused.{bound}"] = refused[bound]
    values.update(extra)
    return {name: float(values.get(name, 0.0)) for name, _unit, _base in PER_LAYER}


def write_spans(tracer: Tracer, path: str) -> None:
    keys = ("name", "parent", "request", "start", "end", "busy", "self")
    with open(path, "w") as fh:
        for name, parent, req, start, end, busy, child in tracer.spans:
            fh.write(json.dumps(dict(zip(keys, (name, parent, req, start, end, busy,
                                                busy - child)))) + "\n")
