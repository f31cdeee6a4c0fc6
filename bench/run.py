"""peelkit benchmark: one workload run, or a report over every workload.

    python3 bench/run.py --workload analyze --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

A single run sets up five times in fresh processes (once at ``--size
tiny``; ``setup_s`` is their median), builds the workload's inputs from the
seed, issues its requests in a closed loop with one client, checks every
output, and prints a summary followed by one JSON line: end-to-end
metrics with ``--trace 0``, per-layer metrics from spans with ``--trace 1``.
Request times in the end-to-end metrics are in reference seconds: each
request's measured time divided by the machine's speed factor around it,
from calibration slices run between requests (see ``harness``).
A run repeats the workload's batch ``--seconds // nominal round time`` times (at least once); the nominal
round time is a per-workload constant, so the request count does not
depend on how loaded the machine is.
``--workload all`` runs every workload untraced and traced and prints every
metric by name and unit, the layer shares and the tracing overhead.

Results and span files go to ``bench/out``.  Run from anywhere; the
package is imported from ``src`` next to this directory.
"""

import os

# numpy/BLAS held to one thread, before anything can import numpy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("analyze", "ibpm_scaling", "finite_chains")
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "req_p50_s": "s",
    "req_tail_s": "s",
    "peak_rss_mb": "MB",
}
REPORT_ONLY_UNITS = {"chain_steps_per_s": "1/s", "fail_frac": "1"}
SETUP_REPEATS = 5        # fresh-process set-ups whose median is setup_s
PROBE_TIMEOUT_S = 120
DEADLINE_FACTOR = 3      # a run stops after the round that passes 3 x --seconds


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="time budget of the timed body of one run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs one short round (self-test)")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def require_source():
    if not (SRC / "peelkit" / "__init__.py").is_file():
        print(f"bench: no peelkit package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))


def setup_probe(args):
    """Child mode: time import peelkit plus building the workload's inputs."""
    t0 = time.perf_counter()
    import harness
    import workloads

    workloads.make_workload(args.workload, args.seed, args.size,
                            harness.Tracer(False))
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def measure_setup(args):
    samples = []
    for _ in range(1 if args.size == "tiny" else SETUP_REPEATS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (no git)"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_info():
    import numpy
    import scipy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
    }


def fmt(x):
    if x is None:
        return "n/a"
    return f"{x:.6g}"


def single_run(args):
    import harness
    import workloads

    setup_samples = measure_setup(args)
    tracer = harness.Tracer(bool(args.trace))
    with tracer.root("setup", -1, "set-up"):
        wl = workloads.make_workload(args.workload, args.seed, args.size, tracer)
    setup_failures = wl.setup_checks()

    OUT.mkdir(exist_ok=True)
    tmpdir = OUT / f"tmp-{os.getpid()}"
    tmpdir.mkdir(exist_ok=True)
    n_rounds = 1 if args.size == "tiny" else max(
        1, int(args.seconds // wl.nominal_round_s))
    try:
        outcomes, slices = harness.run_closed_loop(
            lambda: wl.round(str(tmpdir)), tracer, n_rounds,
            DEADLINE_FACTOR * args.seconds)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = harness.end_to_end(outcomes, slices, setup_samples, peak_rss_mb)

    failed = [o for o in outcomes if o.failures]
    unexpected = [o for o in failed
                  if any(cid not in workloads.KNOWN_DEFECTS
                         for cid, _ in o.failures)]
    correct = not unexpected and not setup_failures

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        "machine": machine_info(),
        "setup_samples_s": setup_samples,
        "calibration_slices_s": slices,
        "end_to_end": e2e,
        "requests_by_kind": dict(Counter(o.kind for o in outcomes)),
        "setup_failures": setup_failures,
        "failures": [{"round": o.round, "kind": o.kind, "label": o.label,
                      "failures": o.failures} for o in failed],
        "requests": [{"round": o.round, "kind": o.kind, "label": o.label,
                      "start_s": o.start_s, "latency_s": o.latency_s}
                     for o in outcomes],
        "known_defects": workloads.KNOWN_DEFECTS,
    }
    if args.trace:
        layer, shares, traced_request_s = harness.per_layer(tracer.spans)
        result.update(per_layer=layer, layer_shares=shares,
                      traced_request_s=traced_request_s)
        span_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(span_path)
        result["span_file"] = str(span_path.relative_to(ROOT))
    with open(OUT / f"result-{stem}.json", "w") as fh:
        json.dump(result, fh, indent=1)

    print_summary(result)
    if args.trace:
        units = harness.per_layer_units()
        metrics = {k: {"value": result["per_layer"][k], "unit": u}
                   for k, u in units.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in E2E_UNITS.items()}
    print(json.dumps({"correct": correct, "attempted": len(outcomes),
                      "failed": len(failed), "metrics": metrics}))


def print_summary(result):
    e = result["end_to_end"]
    m = result["machine"]
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}  size {result['size']}")
    print(f"machine: nproc={m['nproc']} cpu={m['cpu_model']!r} "
          f"python={m['python']} numpy={m['numpy']} scipy={m['scipy']} "
          f"blas_threads={m['blas_threads']['OPENBLAS_NUM_THREADS']} "
          f"commit={m['git_commit']}")
    print(f"requests: {e['requests']} in {e['rounds']} rounds "
          f"{result['requests_by_kind']}")
    print(f"speed factor {e['speed_factor']:.4f} (median of "
          f"{e['calibration_slices']} calibration slices over the reference); "
          "request times below are in reference seconds, as measured in ()")
    for name, unit in {**E2E_UNITS, **REPORT_ONLY_UNITS}.items():
        extra = ""
        if name in e["raw"]:
            extra = f"  ({fmt(e['raw'][name])} as measured)"
        if name == "req_tail_s":
            extra += (f"  (p{e['req_tail_percentile']:.1f} of "
                      f"{e['requests']} requests)")
        print(f"  {name:20s} {fmt(e[name]):>12s} {unit}{extra}")
    for f in result["setup_failures"]:
        print(f"  SETUP FAILURE {f}")
    rounds_failed = {}
    for f in result["failures"]:
        for cid, msg in f["failures"]:
            key = (f["kind"], f["label"], cid, msg)
            rounds_failed.setdefault(key, []).append(f["round"])
    for (kind, label, cid, msg), rounds in rounds_failed.items():
        known = " (known defect)" if cid in result["known_defects"] else ""
        print(f"  FAILED in {len(rounds)} round(s): {kind} {label}: "
              f"{cid}{known}: {msg}")
    if result["trace"]:
        print("layer shares of traced request time "
              f"({result['traced_request_s']:.3f} s):")
        for layer, share in result["layer_shares"].items():
            print(f"  {layer:20s} {100 * share:6.2f} %")


def report(args):
    """Run every workload untraced and traced; print every metric."""
    import harness

    rows = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace),
                   "--size", args.size]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                sys.exit(1)
            with open(OUT / f"result-{name}-seed{args.seed}-trace{trace}.json") as fh:
                rows[(name, trace)] = json.load(fh)
    combined = {"seed": args.seed, "seconds": args.seconds, "size": args.size,
                "machine": rows[(WORKLOAD_NAMES[0], 0)]["machine"],
                "workloads": {}}
    print(f"machine: {json.dumps(combined['machine'])}")
    for name in WORKLOAD_NAMES:
        plain, traced = rows[(name, 0)], rows[(name, 1)]
        e = plain["end_to_end"]
        overhead = traced["end_to_end"]["wall_s"] - e["wall_s"]
        print(f"\n== {name} (seed {args.seed}, {e['requests']} requests "
              f"in {e['rounds']} rounds) ==")
        for metric, unit in {**E2E_UNITS, **REPORT_ONLY_UNITS}.items():
            extra = ""
            if metric == "req_tail_s":
                extra = f"  (p{e['req_tail_percentile']:.1f})"
            print(f"  {metric:20s} {fmt(e[metric]):>12s} {unit}{extra}")
        print(f"  {'trace.overhead_s':20s} {fmt(overhead):>12s} s")
        failed = {}
        for f in plain["failures"]:
            key = (f"{f['kind']} {f['label']} "
                   f"[{', '.join(sorted({c for c, _ in f['failures']}))}]")
            failed[key] = failed.get(key, 0) + 1
        print("  failures: " + ("; ".join(
            f"{key} x{n}" for key, n in failed.items()) or "none"))
        print("  layer shares (traced):  " + "  ".join(
            f"{layer} {100 * s:.1f}%" for layer, s in traced["layer_shares"].items()))
        units = harness.per_layer_units()
        for metric, unit in units.items():
            val = traced["per_layer"][metric]
            if val:
                print(f"    {metric:58s} {fmt(val):>12s} {unit}")
        combined["workloads"][name] = {
            "end_to_end": e, "trace_overhead_s": overhead,
            "per_layer": traced["per_layer"],
            "layer_shares": traced["layer_shares"],
            "failures": plain["failures"],
            "requests_by_kind": plain["requests_by_kind"],
        }
    path = OUT / f"report-seed{args.seed}.json"
    with open(path, "w") as fh:
        json.dump(combined, fh, indent=1)
    print(f"\nwrote {path.relative_to(ROOT)}")


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    require_source()
    if args.setup_probe:
        setup_probe(args)
    elif args.workload == "all":
        report(args)
    else:
        single_run(args)


if __name__ == "__main__":
    main()
