"""sha256 digests of the command line's outputs over a fixed set of runs.

Each invocation runs as ``python -m peelkit.cli`` in a fresh process, with
the chosen source tree first on PYTHONPATH, inside an empty temporary
directory.  Its digest covers the exit code, stdout and the file written to
``--out``, if any; stderr is left out.  One line per invocation is printed,
then the digest of all of them, so two trees that print the same last line
give the same outputs on every invocation listed here.

    python tools/cli_digest.py [--src PATH] [--expect HEX]

PATH defaults to this checkout's ``src``; point it at another checkout's
``src`` to compare two versions.  With ``--expect``, the script exits 1
when the last line's digest is not HEX, so a change that claims the same
outputs can be checked against a pinned line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

OUT = "{out}"
CONFIG = "{config}"
SMALL_SCALING = ["--steps", "200", "--chains", "100", "--ecf-samples", "500"]

INVOCATIONS = [
    ["analyze", "--preset", "quadrangulation"],
    ["analyze", "--preset", "geometric", "--H", "3"],
    ["analyze", "--preset", "two_p_angulation", "--p", "3", "--k-neg", "64",
     "--out", OUT],
    ["analyze", "--weights", '{"4":"1/12"}'],
    ["analyze", "--weights", '{"3":"1","4":"1"}'],
    ["analyze", "--config", CONFIG],
    ["analyze", "--preset", "triangulation", "--format", "csv", "--out", OUT],
    ["analyze"],
    ["preset", "--preset", "two_p_angulation", "--p", "3"],
    ["preset", "--preset", "symmetric_critical", "--r", "1", "--a", "0.785",
     "--out", OUT],
    ["preset", "--preset", "uniform"],
    ["enumerate", "--weights", '{"4":"1/12"}', "--l", "2", "--dmax", "8"],
    ["enumerate", "--weights", '{"4":"1/12"}', "--l", "2", "--dmax", "8",
     "--out", OUT],
    ["enumerate", "--preset", "triangulation", "--l", "3", "--dmax", "9"],
    ["tune-critical", "--weights", '{"4":"1"}'],
    ["tune-critical", "--weights", '{"3":"1","4":"1"}', "--out", OUT],
    ["scaling-test", "--models", "quadrangulation", *SMALL_SCALING,
     "--seed", "3"],
    ["scaling-test", "--models", "quadrangulation,triangulation",
     *SMALL_SCALING, "--format", "csv", "--out", OUT],
    ["simulate", "--preset", "triangulation", "--mode", "ibpm", "--steps",
     "500", "--seed", "7", "--out", OUT],
    ["simulate", "--preset", "triangulation", "--mode", "ibpm", "--steps",
     "500", "--seed", "7", "--format", "csv", "--out", OUT],
    ["simulate", "--weights", '{"4":"1/12"}', "--mode", "finite", "--l0", "40",
     "--steps", "300", "--volume-mode", "expectation", "--seed", "2",
     "--format", "binary", "--out", OUT],
    ["simulate", "--preset", "triangulation", "--steps", "500", "--seed", "7"],
    ["analyze", "--preset", "triangulation", "--format", "csv"],
    ["scaling-test", "--models", "quadrangulation", *SMALL_SCALING,
     "--format", "csv"],
    ["tune-critical", "--preset", "symmetric_critical", "--r", "1", "--a",
     "0.785"],
    # the tuner on three bipartite degrees, and on the non-bipartite
    # bordered system in (c, s, t)
    ["tune-critical", "--weights", '{"4":"1/2","6":"3","8":"4"}'],
    ["tune-critical", "--weights", '{"3":"1/64","7":"1/1048576"}'],
    # ecf at n = 2000: about 160 steps in the deep block or past it, where
    # the small runs above draw one or two
    ["scaling-test", "--models", "quadrangulation", "--steps", "2000",
     "--chains", "100", "--ecf-samples", "5000", "--seed", "5"],
    # ecf at n = 20000: the common part's powers past the bench's scale,
    # and about 650 steps in the deep block or past it
    ["scaling-test", "--models", "quadrangulation", "--steps", "20000",
     "--chains", "100", "--ecf-samples", "2000", "--seed", "9"],
    # mean volumes read inside the block rounds: a heavy-tailed law's limit
    # law falls back to them, and expectation mode reads them
    ["simulate", "--preset", "symmetric_critical", "--r", "1", "--a", "0.785",
     "--mode", "ibpm", "--l0", "40", "--steps", "300", "--seed", "3", "--out",
     OUT],
    ["simulate", "--preset", "quadrangulation", "--mode", "ibpm", "--steps",
     "2000", "--seed", "4", "--volume-mode", "expectation", "--out", OUT],
    # the block rounds grow the engine's cover mid-run: after the first
    # block, one ends past it
    ["simulate", "--preset", "geometric", "--H", "3", "--mode", "ibpm", "--l0",
     "1900", "--steps", "20000", "--seed", "1", "--format", "binary", "--out",
     OUT],
]


def digest(src, argv, workdir):
    out = os.path.join(workdir, "out")
    config = os.path.join(workdir, "weights.json")
    with open(config, "w") as fh:
        json.dump({"weights": {"3": "1/12", "4": "1/100"}}, fh)
    if os.path.exists(out):
        os.remove(out)
    argv = [a.replace(OUT, out).replace(CONFIG, config) for a in argv]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "peelkit.cli", *argv],
                          capture_output=True, cwd=workdir, env=env)
    h = hashlib.sha256()
    h.update(f"exit {proc.returncode}\n".encode())
    h.update(proc.stdout)
    if os.path.exists(out):
        with open(out, "rb") as fh:
            h.update(b"--out\n" + fh.read())
    return proc.returncode, h.hexdigest()


def main(argv=None):
    here = os.path.dirname(os.path.abspath(__file__))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", default=os.path.join(here, os.pardir, "src"),
                   help="source tree that holds the peelkit package")
    p.add_argument("--expect", metavar="HEX",
                   help="exit 1 unless the digest of all invocations is HEX")
    args = p.parse_args(argv)
    src = os.path.abspath(args.src)
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as workdir:
        for inv in INVOCATIONS:
            rc, hexd = digest(src, inv, workdir)
            total.update(hexd.encode())
            print(f"{hexd[:16]} exit {rc}  {' '.join(inv)}")
    print(f"all {total.hexdigest()}")
    if args.expect is not None and total.hexdigest() != args.expect.lower():
        print(f"expected all {args.expect}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
