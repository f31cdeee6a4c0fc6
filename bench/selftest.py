"""Self-test of the benchmark: every workload at a tiny size.

    python3 bench/selftest.py

Checks that each run ends with the result line, that every end-to-end and
per-layer metric named in BENCHMARK.json is emitted with its unit, that the
span file parses with valid parent links, and that the benchmark refuses to
run without the package source next to it.  Exits non-zero on any problem.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import run  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(cwd, script, *args):
    cmd = [sys.executable, str(script), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def check_result(line, expected_units, problems, tag):
    try:
        res = json.loads(line)
    except json.JSONDecodeError:
        problems.append(f"{tag}: last line is not JSON: {line[:80]!r}")
        return
    if set(res) != RESULT_KEYS:
        problems.append(f"{tag}: result keys {sorted(res)}")
        return
    if not (isinstance(res["attempted"], int) and res["attempted"] >= 1
            and isinstance(res["failed"], int)):
        problems.append(f"{tag}: bad attempted/failed counts")
    if res["correct"] is not True:
        problems.append(f"{tag}: run reported incorrect outputs")
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != expected_units:
        missing = sorted(set(expected_units) - set(got))
        extra = sorted(set(got) - set(expected_units))
        wrong = sorted(k for k in got if k in expected_units
                       and got[k] != expected_units[k])
        problems.append(f"{tag}: metrics differ (missing {missing}, extra "
                        f"{extra}, wrong units {wrong})")
    for k, v in res["metrics"].items():
        if not isinstance(v["value"], (int, float)):
            problems.append(f"{tag}: {k} is not a number")


def check_spans(path, problems, tag):
    with open(path) as fh:
        records = [json.loads(line) for line in fh]
    if not any(r["name"] == "request" for r in records):
        problems.append(f"{tag}: span file has no request spans")
    problems += [f"{tag}: {p}" for p in harness.validate_spans(records)]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    if e2e != run.E2E_UNITS:
        problems.append("BENCHMARK.json end_to_end differs from run.E2E_UNITS")
    if layer != harness.per_layer_units():
        problems.append("BENCHMARK.json per_layer differs from the harness")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOAD_NAMES):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOAD_NAMES")

    script = BENCH / "run.py"
    for name in run.WORKLOAD_NAMES:
        for trace in (0, 1):
            tag = f"{name} trace {trace}"
            proc = run_bench(ROOT, script, "--workload", name, "--seed", "3",
                             "--seconds", "1", "--trace", str(trace),
                             "--size", "tiny")
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}\n{proc.stderr}")
                continue
            lines = proc.stdout.strip().splitlines()
            check_result(lines[-1], layer if trace else e2e, problems, tag)
            if trace:
                check_spans(BENCH / "out" / f"spans-{name}-seed3.jsonl",
                            problems, tag)
            print(f"ok  {tag}" if not problems else f"..  {tag}")

    # without the package source the benchmark must refuse to run
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run_bench(bare, Path(BENCH.name) / "run.py", "--workload",
                     "analyze", "--seed", "1", "--seconds", "1", "--trace", "0")
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("bare directory: expected a refusal without output")
    shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
