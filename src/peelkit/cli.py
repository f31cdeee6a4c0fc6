"""Command-line front end.

Subcommands: analyze, preset, simulate, enumerate, scaling-test,
tune-critical.  All outputs are deterministic for fixed flags (the seed
defaults to a constant), errors print a machine-parsable code on stderr,
and exit codes follow the convention 0 = success, 1 = computational
failure, 2 = usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field

from . import criticality, oracle, scaling, walk, weights
from .errors import PeelkitError

_FLAG_MAP = """\
formula-to-flag map:
  --preset/--p/--H/--r/--a   weight family: 2p-angulations (--p), geometric
                             sequences (--H), symmetric critical laws
                             (--r, --a); aliases quadrangulation,
                             triangulation, uniform
  --weights '{"4":"1/12"}'   explicit face weights q_k; "p/q" strings stay
                             exact rationals, decimals are inexact
  c_plus, c_minus, r         support endpoints of the pointed-disk
                             generating function, r = -c_minus/c_plus
  margin                     1 - sum_l h(1,l+1) nu(l); zero at criticality
  L_nu                       perimeter constant sum_k nu(k) h(2,k+1)
  B_nu                       volume constant 4 nu(-2) / (3 (1+r) L_nu)
  --dmax                     inner face degree budget of the enumeration
  --steps/--chains/--l0      peeling run geometry
"""


@dataclass
class RunConfig:
    command: str
    preset_name: str = None
    preset_params: dict = field(default_factory=dict)
    weights_json: str = None
    config_path: str = None
    out: str = None
    fmt: str = "json"
    seed: int = 0
    mode: str = "ibpm"
    steps: int = 1000
    chains: int = 1000
    l0: int = 2
    volume_mode: str = "exact_small"
    l: int = 2
    dmax: int = 24
    k_neg: int = 512
    ecf_samples: int = 20000
    models: str = "quadrangulation,triangulation"


def _add_weight_source(p):
    p.add_argument("--weights", help="inline JSON map degree -> weight")
    p.add_argument("--preset", help="family name or alias")
    p.add_argument("--config", help="weight-sequence config file")
    p.add_argument("--p", type=int, help="angulation half-degree parameter")
    p.add_argument("--H", type=float, help="geometric family parameter")
    p.add_argument("--r", type=float, help="symmetric family ratio")
    p.add_argument("--a", type=float, help="symmetric family amplitude")


def _add_common(p):
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", dest="fmt", choices=["json", "csv", "binary"],
                   default="json")
    p.add_argument("--seed", type=int, default=0)


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
    _add_common(p)
    p.add_argument("--k-neg", type=int, default=512)

    p = sub.add_parser("preset", help="closed-form constants of a family")
    _add_weight_source(p)
    _add_common(p)

    p = sub.add_parser("simulate", help="run a peeling chain")
    _add_weight_source(p)
    _add_common(p)
    p.add_argument("--mode", choices=["finite", "ibpm"], default="ibpm")
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--l0", type=int, default=2)
    p.add_argument("--volume-mode", dest="volume_mode",
                   choices=["exact_small", "asymptotic_xi", "expectation"],
                   default="exact_small")

    p = sub.add_parser("enumerate", help="exact graded map counts")
    _add_weight_source(p)
    _add_common(p)
    p.add_argument("--l", type=int, default=2)
    p.add_argument("--dmax", type=int, default=24)

    p = sub.add_parser("scaling-test", help="Monte Carlo scaling diagnostics")
    _add_weight_source(p)
    _add_common(p)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--chains", type=int, default=2000)
    p.add_argument("--ecf-samples", dest="ecf_samples", type=int, default=20000)
    p.add_argument("--models", default="quadrangulation,triangulation",
                   help="comma-separated presets for the collapse test")

    p = sub.add_parser("tune-critical", help="scale a shape to criticality")
    _add_weight_source(p)
    _add_common(p)
    return parser


def parse_args(argv) -> RunConfig:
    """Deterministic parse; unknown flags exit with code 2 (argparse)."""
    ns = build_parser().parse_args(argv)
    cfg = RunConfig(command=ns.command)
    for name in vars(ns):
        if hasattr(cfg, name) and getattr(ns, name) is not None:
            setattr(cfg, name, getattr(ns, name))
    cfg.weights_json = getattr(ns, "weights", None)
    cfg.config_path = getattr(ns, "config", None)
    cfg.preset_name = getattr(ns, "preset", None)
    params = {}
    for key in ("p", "H", "r", "a"):
        val = getattr(ns, key, None)
        if val is not None:
            params[key] = val
    cfg.preset_params = params
    if cfg.out is not None:
        parent = os.path.dirname(os.path.abspath(cfg.out))
        if not os.path.isdir(parent):
            raise FileNotFoundError(f"output directory {parent} does not exist")
    return cfg


def _resolve_weights(cfg):
    if cfg.preset_name:
        res = weights.preset_by_alias(cfg.preset_name, **cfg.preset_params)
        return res.weights, res.constants
    if cfg.weights_json:
        raw = json.loads(cfg.weights_json)
        support = {int(k): weights.parse_weight(v) for k, v in raw.items()}
        return weights.WeightSequence(support), None
    if cfg.config_path:
        return weights.WeightSequence.load(cfg.config_path), None
    raise ValueError("no weight source: use --preset, --weights or --config")


def _emit(cfg, text):
    if cfg.out:
        with open(cfg.out, "w") as fh:
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


def _emit_json(cfg, doc):
    """Write doc as strict JSON: NaN and infinities become null."""
    text = json.dumps(_finite_or_null(doc), indent=1, allow_nan=False)
    _emit(cfg, text + "\n")


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


def _make_law(q, cd, k_neg):
    if q.family and q.family[0] == "symmetric_critical":
        return walk.symmetric_family(**q.family[1], k_pos=k_neg)
    critical = cd.classification in (
        "critical", "regular_critical", "critical_non_regular"
    )
    pos = weights.nu_from_q(q, cd.c_plus, cd.r)
    return walk.complete_nu(pos, k_neg=k_neg, critical=critical)


def run(cfg: RunConfig) -> int:
    """Execute a parsed command; returns the process exit status."""
    try:
        if cfg.command == "analyze":
            q, _ = _resolve_weights(cfg)
            cd = criticality.solve_boltzmann(q)
            if cd.classification == "not_admissible":
                doc = cd.to_report()
                _emit_json(cfg, doc)
                print("PEELKIT_ERR not_admissible: weight sequence beyond "
                      "the admissibility boundary", file=sys.stderr)
                return 1
            law = _make_law(q, cd, cfg.k_neg)
            if cfg.fmt == "csv":
                if not cfg.out:
                    raise ValueError("csv analyze output needs --out")
                law.to_csv(cfg.out)
                return 0
            doc = criticality.full_report(q, cd)
            doc["law"] = _law_block(law)
            _emit_json(cfg, doc)
            return 0

        if cfg.command == "preset":
            if not cfg.preset_name:
                raise ValueError("preset command needs --preset")
            q, consts = _resolve_weights(cfg)
            doc = {
                "family": q.family[0] if q.family else None,
                "params": q.family[1] if q.family else {},
                "constants": _constants_jsonable(consts),
                "weights": q.to_config()["weights"],
            }
            _emit_json(cfg, doc)
            return 0

        if cfg.command == "simulate":
            from .peeling import simulate

            q, _ = _resolve_weights(cfg)
            cd = criticality.solve_boltzmann(q)
            if cd.classification == "not_admissible":
                print("PEELKIT_ERR not_admissible: cannot simulate beyond "
                      "the boundary", file=sys.stderr)
                return 1
            law = _make_law(q, cd, cfg.k_neg)
            trace = simulate(cfg.mode, law, l0=cfg.l0, n_steps=cfg.steps,
                             seed=cfg.seed, volume_mode=cfg.volume_mode)
            if not cfg.out:
                raise ValueError("simulate needs --out for the trace file")
            if cfg.fmt == "binary":
                trace.to_binary(cfg.out)
            else:
                trace.to_csv(cfg.out)
            return 0

        if cfg.command == "enumerate":
            q, _ = _resolve_weights(cfg)
            table = oracle.enumerate_dp(q, cfg.l, cfg.dmax)
            if cfg.out:
                table.to_csv(cfg.out)
            else:
                _emit(cfg, "l,D,F,V,weight_num,weight_den\n")
                from fractions import Fraction

                for l, D, F, V, v in table.rows():
                    frac = Fraction(v) if not isinstance(v, Fraction) else v
                    sys.stdout.write(
                        f"{l},{D},{F},{V},{frac.numerator},{frac.denominator}\n"
                    )
            return 0

        if cfg.command == "scaling-test":
            # every run size is checked before the first test runs
            if min(cfg.steps, cfg.chains, cfg.ecf_samples) < 1:
                raise ValueError(
                    "steps, chains and ecf n_samples must be >= 1; got "
                    f"steps={cfg.steps}, chains={cfg.chains}, "
                    f"n_samples={cfg.ecf_samples}")
            laws = {}
            for name in cfg.models.split(","):
                name = name.strip()
                res = weights.preset_by_alias(name)
                cd = criticality.solve_boltzmann(res.weights)
                laws[name] = _make_law(res.weights, cd, cfg.k_neg)
            first = next(iter(laws.values()))
            report = scaling.ScalingReport(
                ecf=scaling.ecf_test(first, cfg.steps, cfg.ecf_samples,
                                     seed=cfg.seed),
                collapse=scaling.collapse_test(laws, cfg.steps, cfg.chains,
                                               seed=cfg.seed),
                slopes={
                    name: scaling.cplus_slope_test(
                        weights.preset_by_alias(name).weights
                    )
                    for name in laws
                },
            )
            if cfg.fmt == "csv":
                if not cfg.out:
                    raise ValueError("csv scaling output needs --out")
                report.collapse.samples_to_csv(cfg.out)
                return 0
            _emit_json(cfg, report.to_report())
            return 0

        if cfg.command == "tune-critical":
            q, _ = _resolve_weights(cfg)
            res = criticality.tune_critical(q)
            doc = {"t_star": res.t_star, "critical_data": res.data.to_report()}
            _emit_json(cfg, doc)
            return 0

        raise ValueError(f"unknown command {cfg.command!r}")
    except PeelkitError as exc:
        code = type(exc).__name__
        print(f"PEELKIT_ERR {code}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"PEELKIT_ERR invalid_input: {exc}", file=sys.stderr)
        return 1


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    try:
        cfg = parse_args(argv)
    except FileNotFoundError as exc:
        print(f"PEELKIT_ERR usage: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
