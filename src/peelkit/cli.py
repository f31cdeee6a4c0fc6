"""Command-line front end.

Subcommands: analyze, preset, simulate, enumerate, scaling-test,
tune-critical.  Each declares only the flags it reads, and argparse refuses
any other (exit 2).  A weight source is at most one of --preset, --weights
and --config, and the family parameters --p/--H/--r/--a go with --preset
only.  Outputs are deterministic for fixed flags (simulate's and
scaling-test's seed defaults to a constant), errors print a
machine-parsable code on stderr, and exit codes follow the convention
0 = success, 1 = computational failure, 2 = usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import criticality, oracle, scaling, walk, weights
from .errors import PeelkitError

_FLAG_MAP = """\
formula-to-flag map:
  --preset/--p/--H/--r/--a   weight family: 2p-angulations (--p), odd
                             angulations (--p), geometric sequences (--H),
                             symmetric critical laws (--r, --a); the aliases
                             quadrangulation, triangulation and uniform take
                             no parameter
  --weights '{"4":"1/12"}'   explicit face weights q_k; "p/q" strings stay
                             exact rationals, decimals are inexact
  --config PATH              weight config file; one source at most
  c_plus, c_minus, r         support endpoints of the pointed-disk
                             generating function, r = -c_minus/c_plus
  margin                     1 - sum_l h(1,l+1) nu(l); zero at criticality
  L_nu                       perimeter constant sum_k nu(k) h(2,k+1)
  B_nu                       volume constant 4 nu(-2) / (3 (1+r) L_nu)
  --k-neg                    depth of nu's negative side (analyze)
  --dmax                     inner face degree budget of the enumeration
  --steps/--chains/--l0      peeling run geometry
  --models                   scaling-test's presets, its only weight source
"""
_FAMILY_PARAMS = ("p", "H", "r", "a")


def _add_params(p):
    p.add_argument("--p", type=int, help="angulation half-degree parameter")
    p.add_argument("--H", type=float, help="geometric family parameter")
    p.add_argument("--r", type=float, help="symmetric family ratio")
    p.add_argument("--a", type=float, help="symmetric family amplitude")


def _add_weight_source(p):
    source = p.add_mutually_exclusive_group()
    source.add_argument("--weights", help="inline JSON map degree -> weight")
    source.add_argument("--preset", help="family name or alias")
    source.add_argument("--config", help="weight-sequence config file")
    _add_params(p)


def _add_out(p, *formats):
    """--out, and --format when the subcommand has formats (the first is
    the default)."""
    p.add_argument("--out", help="output path (default: stdout)")
    if formats:
        p.add_argument("--format", dest="fmt", choices=formats, default=formats[0])


@functools.cache
def build_parser():
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="peelkit",
        description="peeling-process toolkit for Boltzmann planar maps",
        epilog=_FLAG_MAP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="criticality constants and step law")
    _add_weight_source(p)
    _add_out(p, "json", "csv")
    p.add_argument("--k-neg", type=int, default=walk.DEFAULT_K_NEG)

    p = sub.add_parser("preset", help="closed-form constants of a family")
    p.add_argument("--preset", required=True, help="family name or alias")
    _add_params(p)
    _add_out(p)

    p = sub.add_parser("simulate", help="run a peeling chain")
    _add_weight_source(p)
    _add_out(p, "csv", "binary")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["finite", "ibpm"], default="ibpm")
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--l0", type=int, default=2)
    p.add_argument("--volume-mode", dest="volume_mode",
                   choices=["exact_small", "asymptotic_xi", "expectation"],
                   default="exact_small")

    p = sub.add_parser("enumerate", help="exact graded map counts")
    _add_weight_source(p)
    _add_out(p)
    p.add_argument("--l", type=int, default=2)
    p.add_argument("--dmax", type=int, default=24)

    p = sub.add_parser("scaling-test", help="Monte Carlo scaling diagnostics")
    _add_out(p, "json", "csv")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--chains", type=int, default=2000)
    p.add_argument("--ecf-samples", dest="ecf_samples", type=int, default=20000)
    p.add_argument("--models", default="quadrangulation,triangulation",
                   help="comma-separated presets for the collapse test")

    p = sub.add_parser("tune-critical", help="scale a shape to criticality")
    _add_weight_source(p)
    _add_out(p)
    return parser


def parse_args(argv) -> argparse.Namespace:
    """Deterministic parse; a flag the subcommand does not read, two weight
    sources or a family parameter without --preset exit with code 2
    (argparse)."""
    parser = build_parser()
    ns = parser.parse_args(argv)
    given = [f"--{k}" for k in _FAMILY_PARAMS if getattr(ns, k, None) is not None]
    if given and getattr(ns, "preset", None) is None:
        parser.error(f"family parameters ({', '.join(given)}) need --preset")
    if ns.out is not None:
        parent = os.path.dirname(os.path.abspath(ns.out))
        if not os.path.isdir(parent):
            raise FileNotFoundError(f"output directory {parent} does not exist")
    return ns


def _resolve_weights(ns):
    if ns.preset:
        params = {k: getattr(ns, k) for k in _FAMILY_PARAMS
                  if getattr(ns, k) is not None}
        res = weights.preset_by_alias(ns.preset, **params)
        return res.weights, res.constants
    if ns.weights:
        raw = json.loads(ns.weights)
        support = {int(k): weights.parse_weight(v) for k, v in raw.items()}
        return weights.WeightSequence(support), None
    if ns.config:
        return weights.WeightSequence.load(ns.config), None
    raise ValueError("no weight source: use --preset, --weights or --config")


def _emit(ns, text):
    if ns.out:
        with open(ns.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _finite_or_null(obj):
    """obj with every non-finite float, nested at any depth, made None."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def _emit_json(ns, doc):
    """Write doc as strict JSON: NaN and infinities become null."""
    text = json.dumps(_finite_or_null(doc), indent=1, allow_nan=False)
    _emit(ns, text + "\n")


def _law_block(law):
    return {
        "L_nu": law.L_nu,
        "B_nu": law.B_nu,
        "tail_const": law.tail_const,
        "k_neg": law.k_neg,
        "k_pos": law.k_pos,
        "trunc_neg": law.trunc_neg,
        "trunc_pos": law.trunc_pos,
        "digest": law.digest(),
    }


def _constants_jsonable(consts):
    from fractions import Fraction

    out = {}
    for k, v in (consts or {}).items():
        if isinstance(v, Fraction):
            out[k] = f"{v.numerator}/{v.denominator}"
        elif isinstance(v, dict):
            out[k] = _constants_jsonable(v)
        else:
            out[k] = v
    return out


def _make_law(q, cd, k_neg=walk.DEFAULT_K_NEG):
    if q.family and q.family[0] == "symmetric_critical":
        return walk.symmetric_family(**q.family[1], k_pos=k_neg)
    critical = cd.classification in (
        "critical", "regular_critical", "critical_non_regular"
    )
    pos = weights.nu_from_q(q, cd.c_plus, cd.r)
    return walk.complete_nu(pos, k_neg=k_neg, critical=critical)


def run(ns: argparse.Namespace) -> int:
    """Execute a parsed command; returns the process exit status."""
    try:
        if ns.command == "analyze":
            q, _ = _resolve_weights(ns)
            cd = criticality.solve_boltzmann(q)
            if cd.classification == "not_admissible":
                doc = cd.to_report()
                _emit_json(ns, doc)
                print("PEELKIT_ERR not_admissible: weight sequence beyond "
                      "the admissibility boundary", file=sys.stderr)
                return 1
            law = _make_law(q, cd, ns.k_neg)
            if ns.fmt == "csv":
                law.to_csv(ns.out)
                return 0
            doc = criticality.full_report(q, cd)
            doc["law"] = _law_block(law)
            _emit_json(ns, doc)
            return 0

        if ns.command == "preset":
            q, consts = _resolve_weights(ns)
            doc = {
                "family": q.family[0] if q.family else None,
                "params": q.family[1] if q.family else {},
                "constants": _constants_jsonable(consts),
                "weights": q.to_config()["weights"],
            }
            _emit_json(ns, doc)
            return 0

        if ns.command == "simulate":
            from .peeling import simulate

            q, _ = _resolve_weights(ns)
            cd = criticality.solve_boltzmann(q)
            if cd.classification == "not_admissible":
                print("PEELKIT_ERR not_admissible: cannot simulate beyond "
                      "the boundary", file=sys.stderr)
                return 1
            law = _make_law(q, cd)
            trace = simulate(ns.mode, law, l0=ns.l0, n_steps=ns.steps,
                             seed=ns.seed, volume_mode=ns.volume_mode)
            if ns.fmt == "binary":
                trace.to_binary(ns.out)
            else:
                trace.to_csv(ns.out)
            return 0

        if ns.command == "enumerate":
            q, _ = _resolve_weights(ns)
            table = oracle.enumerate_dp(q, ns.l, ns.dmax)
            _emit(ns, table.csv_text())
            return 0

        if ns.command == "scaling-test":
            # every run size is checked before the first test runs
            if (min(ns.steps, ns.ecf_samples) < 1
                    or ns.chains < scaling.SE_GROUPS):
                raise ValueError(
                    "steps and ecf n_samples must be >= 1 and chains >= "
                    f"{scaling.SE_GROUPS}; got steps={ns.steps}, "
                    f"chains={ns.chains}, n_samples={ns.ecf_samples}")
            laws = {}
            for name in ns.models.split(","):
                name = name.strip()
                res = weights.preset_by_alias(name)
                cd = criticality.solve_boltzmann(res.weights)
                laws[name] = _make_law(res.weights, cd)
            first = next(iter(laws.values()))
            report = scaling.ScalingReport(
                ecf=scaling.ecf_test(first, ns.steps, ns.ecf_samples,
                                     seed=ns.seed),
                collapse=scaling.collapse_test(laws, ns.steps, ns.chains,
                                               seed=ns.seed),
                slopes={
                    name: scaling.cplus_slope_test(
                        weights.preset_by_alias(name).weights
                    )
                    for name in laws
                },
            )
            if ns.fmt == "csv":
                report.collapse.samples_to_csv(ns.out)
                return 0
            _emit_json(ns, report.to_report())
            return 0

        if ns.command == "tune-critical":
            q, _ = _resolve_weights(ns)
            res = criticality.tune_critical(q)
            doc = {"t_star": res.t_star, "critical_data": res.data.to_report()}
            _emit_json(ns, doc)
            return 0
    except PeelkitError as exc:
        code = type(exc).__name__
        print(f"PEELKIT_ERR {code}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"PEELKIT_ERR invalid_input: {exc}", file=sys.stderr)
        return 1


def _missing_out(ns):
    """Why the command cannot run without --out, or None: simulate writes
    its trace only to a file, analyze and scaling-test their csv."""
    if ns.out is not None:
        return None
    if ns.command == "simulate":
        return "simulate needs --out for the trace file"
    if ns.command in ("analyze", "scaling-test") and ns.fmt == "csv":
        return f"{ns.command} --format csv needs --out"
    return None


def main(argv=None):
    """Parse and run one command line; a usage error (a missing output
    directory, or a missing --out the command needs) exits 2 before any
    work."""
    try:
        ns = parse_args(argv)
    except FileNotFoundError as exc:
        usage = str(exc)
    else:
        usage = _missing_out(ns)
    if usage is not None:
        print(f"PEELKIT_ERR usage: {usage}", file=sys.stderr)
        return 2
    return run(ns)


if __name__ == "__main__":
    sys.exit(main())
