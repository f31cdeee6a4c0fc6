"""Tracing, the closed request loop and the metric arithmetic of the benchmark.

It imports only the standard library, so that the set-up probe can import
it before the clock starts without pulling numpy or peelkit in early; the
calibration slice imports numpy when it first runs.

A span records one call the benchmark makes into a public peelkit function:
name, start, end, parent span, request id and a few counts taken from the
call's arguments or result.  Every span hangs below a root span of kind
``setup``, ``request`` or ``check``; layer metrics add up the spans under
``setup`` and ``request`` roots, never the untimed checks.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

ROOT_KINDS = ("setup", "request", "check")


class Tracer:
    """In-memory span recorder; with ``enabled=False`` it only forwards calls."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []      # [id, parent, request, name, start, end, attrs]
        self._stack = []
        self._request = None

    @contextmanager
    def root(self, kind, request_id, label):
        """Open a root span; every traced call inside becomes its child."""
        if not self.enabled:
            yield
            return
        if kind not in ROOT_KINDS:
            raise ValueError(f"unknown root kind {kind!r}")
        span = [len(self.spans), None, request_id, kind,
                time.perf_counter(), None, {"label": label}]
        self.spans.append(span)
        self._stack.append(span[0])
        self._request = request_id
        try:
            yield
        finally:
            span[5] = time.perf_counter()
            self._stack.pop()
            self._request = None

    def call(self, name, fn, *args, attrs=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span called ``name``.

        ``attrs(result) -> dict`` supplies counts for the span; it runs
        after the span has closed.
        """
        if not self.enabled:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), parent, self._request, name,
                time.perf_counter(), None, {}]
        self.spans.append(span)
        self._stack.append(span[0])
        try:
            out = fn(*args, **kwargs)
        finally:
            span[5] = time.perf_counter()
            self._stack.pop()
        if attrs is not None:
            span[6] = attrs(out)
        return out

    def dump(self, path):
        keys = ("id", "parent", "request", "name", "start", "end", "attrs")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans):
    """Span id -> duration minus the time its direct children cover."""
    child_time = {}
    for s in spans:
        if s[1] is not None:
            child_time[s[1]] = child_time.get(s[1], 0.0) + (s[5] - s[4])
    return {s[0]: (s[5] - s[4]) - child_time.get(s[0], 0.0) for s in spans}


def root_kind_of(spans):
    """Span id -> kind of the root span it hangs below."""
    by_id = {s[0]: s for s in spans}
    out = {}
    for s in spans:
        node = s
        while node[1] is not None:
            node = by_id[node[1]]
        out[s[0]] = node[3]
    return out


def validate_spans(records):
    """Problems with a parsed span file: dangling or misnested parents."""
    problems = []
    by_id = {r["id"]: r for r in records}
    for r in records:
        if r["end"] < r["start"]:
            problems.append(f"span {r['id']} ends before it starts")
        if r["parent"] is None:
            if r["name"] not in ROOT_KINDS:
                problems.append(f"span {r['id']} ({r['name']}) has no root")
            continue
        p = by_id.get(r["parent"])
        if p is None:
            problems.append(f"span {r['id']} has a missing parent {r['parent']}")
            continue
        if p["request"] != r["request"]:
            problems.append(f"span {r['id']} crosses request ids")
        if r["start"] < p["start"] or r["end"] > p["end"]:
            problems.append(f"span {r['id']} lies outside its parent")
    return problems


# -- requests ------------------------------------------------------------------


@dataclass
class Request:
    """One top-level user call of a workload.

    ``run(tracer)`` does the timed work and returns its output;
    ``check(output)`` runs after the timing has closed and returns a list
    of (check id, message) failures.  ``chain_steps`` is nonzero when the
    request is a direct simulate or simulate_ensemble call.
    """

    kind: str
    label: str
    run: object
    check: object
    chain_steps: int = 0


@dataclass
class Outcome:
    round: int
    kind: str
    label: str
    start_s: float
    latency_s: float
    chain_steps: int
    failures: list = field(default_factory=list)


# -- machine speed ---------------------------------------------------------------
#
# The host's speed drifts by tens of per cent within minutes, and process
# CPU time drifts with wall time.  So the loop runs a fixed calibration
# slice between requests, and request times are divided by the speed
# factor of the slices nearest to them.

# Duration of one calibration slice at speed factor 1: its median over
# 200 s on an Intel Xeon 2-vCPU virtual machine, Python 3.11, numpy 2.4.
CALIBRATION_REF_S = 0.014
CALIBRATION_INTERVAL_S = 0.1    # at most one slice per this much request time
CALIBRATION_NEAREST = 5         # slices whose median gives a request's factor


def calibration_slice():
    """Run a fixed slice of interpreter work (about 14 ms): a Python loop
    and numpy calls on a small array, whose cost is dispatch, as in most
    peelkit calls.  Large-array numpy work tracked the host's drift worse.

    It calls no peelkit code, so a change to the program cannot move it;
    only the machine's speed at the moment does.  Returns (start, duration).
    """
    import numpy as np

    t0 = time.perf_counter()
    s = 0
    for i in range(100_000):
        s += i * i
    a = np.ones(64)
    for _ in range(3_000):
        a = a * 1.0001 + 0.5
    return t0, time.perf_counter() - t0


def speed_factors(outcomes, slices):
    """Per request, the median duration of the ``CALIBRATION_NEAREST``
    slices closest to it in time over the reference: 1.3 means the machine
    ran 30% slower than the reference around that request."""
    mids = [t + d / 2 for t, d in slices]
    out = []
    for o in outcomes:
        mid = o.start_s + o.latency_s / 2
        near = sorted(range(len(slices)), key=lambda i: abs(mids[i] - mid))
        out.append(statistics.median(slices[i][1]
                                     for i in near[:CALIBRATION_NEAREST])
                   / CALIBRATION_REF_S)
    return out


# -- the closed loop -------------------------------------------------------------


def run_closed_loop(make_round, tracer, n_rounds, deadline_s):
    """Issue ``n_rounds`` rounds of requests one after another.

    Every round is the workload's full batch.  The run stops early, after
    a complete round, once ``deadline_s`` has passed.  Between requests,
    outside any timing, a calibration slice runs whenever
    ``CALIBRATION_INTERVAL_S`` of request time has passed since the last
    one, and once before the first and after the last request.  Returns
    (outcomes, calibration slices as (start, duration)).
    """
    outcomes = []
    slices = [calibration_slice()]
    since_slice = 0.0
    t_body = time.perf_counter()
    next_id = 0
    rounds = 0
    while rounds < n_rounds:
        for req in make_round():
            failures = []
            out = None
            with tracer.root("request", next_id, f"{req.kind} {req.label}"):
                t0 = time.perf_counter()
                try:
                    out = req.run(tracer)
                except Exception as exc:  # a failed request is counted, not fatal
                    failures.append(("raised", f"{type(exc).__name__}: {exc}"))
                latency = time.perf_counter() - t0
            if not failures:
                with tracer.root("check", next_id, f"{req.kind} {req.label}"):
                    try:
                        failures = list(req.check(out))
                    except Exception as exc:
                        failures.append(("check_raised",
                                         f"{type(exc).__name__}: {exc}"))
            outcomes.append(Outcome(rounds, req.kind, req.label, t0, latency,
                                    req.chain_steps, failures))
            next_id += 1
            since_slice += latency
            if since_slice >= CALIBRATION_INTERVAL_S:
                slices.append(calibration_slice())
                since_slice = 0.0
        rounds += 1
        if time.perf_counter() - t_body > deadline_s:
            break
    slices.append(calibration_slice())
    return outcomes, slices


def tail_latency(latencies, beyond=10):
    """Latency at the highest percentile with at least ``beyond`` requests
    above it: the (beyond+1)-th slowest.  Returns (value, percentile)."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= beyond:
        return xs[0], 0.0
    return xs[n - beyond - 1], 100.0 * (n - beyond) / n


def _timings(outcomes, lat):
    """wall_s, req_p50_s, req_tail_s (with its percentile level) and
    chain_steps_per_s from per-request latencies ``lat``.  A round's wall
    time adds up its request latencies and leaves checks and slices out."""
    walls = {}
    for o, t in zip(outcomes, lat):
        walls[o.round] = walls.get(o.round, 0.0) + t
    tail, level = tail_latency(lat)
    chain_steps = sum(o.chain_steps for o in outcomes)
    chain_time = sum(t for o, t in zip(outcomes, lat) if o.chain_steps)
    return {
        "wall_s": statistics.median(walls.values()),
        "req_p50_s": statistics.median(lat),
        "req_tail_s": tail,
        "chain_steps_per_s": chain_steps / chain_time if chain_time else None,
    }, level, list(walls.values())


def end_to_end(outcomes, slices, setup_samples, peak_rss_mb):
    """End-to-end metrics.  Request times are in reference seconds: each
    request's measured time divided by its speed factor.  ``raw`` holds
    them as measured; set-up time and memory are always as measured."""
    raw_lat = [o.latency_s for o in outcomes]
    factors = speed_factors(outcomes, slices)
    ref_lat = [t / f for t, f in zip(raw_lat, factors)]
    raw, _, raw_walls = _timings(outcomes, raw_lat)
    ref, level, _ = _timings(outcomes, ref_lat)
    failed = sum(1 for o in outcomes if o.failures)
    return {
        "setup_s": statistics.median(setup_samples),
        **ref,
        "req_tail_percentile": level,
        "requests": len(outcomes),
        "rounds": len(raw_walls),
        "peak_rss_mb": peak_rss_mb,
        "fail_frac": failed / len(outcomes),
        "speed_factor": statistics.median(d for _, d in slices) / CALIBRATION_REF_S,
        "calibration_slices": len(slices),
        "raw": raw,
        "raw_round_walls_s": raw_walls,
    }


# -- per-layer metrics -----------------------------------------------------------

SOLVER_PATHS = (
    "bipartite-critical", "bipartite-subcritical", "bipartite-no-root",
    "newton", "newton+critical-polish", "critical-polish", "nested-bisection",
    "grid-no-solution", "symmetric-closed-form",
)
CHAIN_MODES = ("finite", "ibpm")
CLI_COMMANDS = ("analyze", "tune-critical", "simulate")
LAYERS = ("hfun", "weights", "criticality", "walk", "oracle", "peeling",
          "scaling", "cli")


def _path_metric(path):
    # metric names allow letters, digits, "_", "." and "-" only
    return f"criticality.solve_boltzmann.path.{path.replace('+', '_')}.n"


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {
        "hfun.HCache.array.s": "s",
        "hfun.HCache.array.elems": "count",
        "hfun.ns_per_elem": "ns",
        "weights.preset.s": "s",
        "weights.nu_from_q.s": "s",
        "criticality.tune_critical.s": "s",
        "criticality.tune_critical.n": "count",
        "criticality.solve_boltzmann.s": "s",
        "criticality.solve_boltzmann.n": "count",
    }
    for path in SOLVER_PATHS:
        units[_path_metric(path)] = "count"
    units.update({
        "criticality.miermont_check.s": "s",
        "walk.complete_nu.s": "s",
        "walk.deepen_negative.s": "s",
        "walk.deepen_negative.entries": "count",
        "oracle.enumerate_dp.s": "s",
        "oracle.enumerate_dp.cells": "count",
        "oracle.volume_tables.s": "s",
    })
    for mode in CHAIN_MODES:
        units[f"peeling.simulate.{mode}.s"] = "s"
        units[f"peeling.simulate.{mode}.steps"] = "count"
        units[f"peeling.simulate.{mode}.ns_per_step"] = "ns"
        units[f"peeling.simulate_ensemble.{mode}.s"] = "s"
        units[f"peeling.simulate_ensemble.{mode}.chain_steps"] = "count"
        units[f"peeling.simulate_ensemble.{mode}.ns_per_chain_step"] = "ns"
    units.update({
        "peeling.simulate.residual_draws": "count",
        "peeling.simulate.exact_fallback.n": "count",
        "scaling.ecf_test.s": "s",
        "scaling.ecf_test.ns_per_sample": "ns",
        "scaling.collapse_test.s": "s",
        "scaling.exponent_regression.s": "s",
        "scaling.cplus_slope_test.s": "s",
    })
    for cmd in CLI_COMMANDS:
        units[f"cli.main.{cmd}.s"] = "s"
        units[f"cli.main.{cmd}.n"] = "count"
    return units


def _ratio_ns(seconds, count):
    return 1e9 * seconds / count if count else 0.0


def per_layer(spans):
    """Per-layer metrics plus each layer's share of the traced request time."""
    own = self_times(spans)
    kinds = root_kind_of(spans)
    m = {name: 0 for name in per_layer_units()}
    layer_self = {layer: 0.0 for layer in LAYERS}
    request_time = 0.0
    for s in spans:
        sid, parent, _req, name, _t0, _t1, attrs = s
        if parent is None:
            if name == "request":
                request_time += s[5] - s[4]
            continue
        if kinds[sid] == "check":
            continue
        t = own[sid]
        layer = name.split(".", 1)[0]
        if kinds[sid] == "request" and layer in layer_self:
            layer_self[layer] += t
        if name in ("peeling.simulate", "peeling.simulate_ensemble"):
            key = f"{name}.{attrs['mode']}"
            m[f"{key}.s"] += t
            if name == "peeling.simulate":
                m[f"{key}.steps"] += attrs["steps"]
                m["peeling.simulate.residual_draws"] += attrs["residual_draws"]
                m["peeling.simulate.exact_fallback.n"] += attrs["exact_fallback"]
            else:
                m[f"{key}.chain_steps"] += attrs["chain_steps"]
            continue
        if name == "cli.main":
            m[f"cli.main.{attrs['command']}.s"] += t
            m[f"cli.main.{attrs['command']}.n"] += 1
            continue
        if f"{name}.s" in m:
            m[f"{name}.s"] += t
        if f"{name}.n" in m:
            m[f"{name}.n"] += 1
        if name == "hfun.HCache.array":
            m["hfun.HCache.array.elems"] += attrs["elems"]
        elif name == "criticality.solve_boltzmann":
            key = _path_metric(attrs["path"])
            if key in m:     # a path the code does not report today is skipped
                m[key] += 1
        elif name == "walk.deepen_negative":
            m["walk.deepen_negative.entries"] += attrs["entries"]
        elif name == "oracle.enumerate_dp":
            m["oracle.enumerate_dp.cells"] += attrs["cells"]
        elif name == "scaling.ecf_test":
            m["scaling.ecf_test.samples"] = (m.get("scaling.ecf_test.samples", 0)
                                             + attrs["samples"])
    m["hfun.ns_per_elem"] = _ratio_ns(m["hfun.HCache.array.s"],
                                      m["hfun.HCache.array.elems"])
    for mode in CHAIN_MODES:
        m[f"peeling.simulate.{mode}.ns_per_step"] = _ratio_ns(
            m[f"peeling.simulate.{mode}.s"], m[f"peeling.simulate.{mode}.steps"])
        m[f"peeling.simulate_ensemble.{mode}.ns_per_chain_step"] = _ratio_ns(
            m[f"peeling.simulate_ensemble.{mode}.s"],
            m[f"peeling.simulate_ensemble.{mode}.chain_steps"])
    m["scaling.ecf_test.ns_per_sample"] = _ratio_ns(
        m["scaling.ecf_test.s"], m.pop("scaling.ecf_test.samples", 0))
    shares = {layer: (t / request_time if request_time else 0.0)
              for layer, t in layer_self.items()}
    shares["(benchmark glue)"] = (
        1.0 - sum(shares.values()) if request_time else 0.0)
    return m, shares, request_time
