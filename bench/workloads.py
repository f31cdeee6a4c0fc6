"""The three benchmark workloads: inputs drawn from a seed, requests, checks.

Importing this module imports peelkit; the set-up probe times exactly that
plus ``make_workload`` (the generated inputs).

Every request's ``run`` goes through ``tracer.call`` for each public peelkit
function it calls, so a traced run sees one span per call.  Checks run after
the request's timing has closed and compare the outputs with closed forms,
the harmonicity of h, chain invariants and criterion 9's tolerances.
"""

from __future__ import annotations

import json
import math
import os
import random
from fractions import Fraction

import numpy as np

from harness import Request
from peelkit import (cli, criticality, errors, hfun, oracle, peeling, scaling,
                     walk, weights)

CRITICAL = ("critical", "regular_critical", "critical_non_regular")
BASE_K_NEG = 512
SE_WIDTH = 4.0      # statistics are judged within tolerance + 4 standard errors

# Checks that fail because of a defect the project already tracks.  They
# are counted in ``failed`` and ``fail_frac`` like any other failure, but
# they do not make a run incorrect.
KNOWN_DEFECTS = {
    "ensemble_expectation_volume":
        "simulate_ensemble ignores volume_mode='expectation' and draws "
        "xi-volumes (ROADMAP item 2)",
    "tune_large_tstar":
        "tune_critical raises SolverFailureError ('bordered polish left the "
        "bisection bracket') on shapes whose boundary scale t* is about 1e5 "
        "or more",
}

# the tuner's reference input: {3: 1, 4: 1} sits beyond the boundary at t = 1
REFERENCE_SHAPE = {3: Fraction(1), 4: Fraction(1)}
# a non-bipartite shape far inside the admissible region (t* about 1e5 or
# more); the tuner fails on it today (KNOWN_DEFECTS["tune_large_tstar"])
LARGE_TSTAR_SHAPE = {5: Fraction(1, 2**29), 6: Fraction(1, 2**36),
                     8: Fraction(3, 2**48)}

PRESETS = (
    [("two_p_angulation", {"p": p}) for p in (2, 3, 4, 5)]
    + [("odd_angulation", {"p": p}) for p in (1, 2, 3)]
    + [("geometric", {"H": H}) for H in (2.0, 3.0, 5.0)]
    + [("symmetric_critical", {"r": 1.0, "a": math.pi / 4})]
)


# -- sizes -------------------------------------------------------------------------

SIZES = {
    "full": {
        "analyze": {"bip_shapes": 49, "nonbip_shapes": 3, "cli_analyze": 7,
                    "cli_tune": 7, "n_run": ((1_000, 1_200), (10_000, 12_000)),
                    "shape_n_run": (4_000, 5_000), "presets": None,
                    "reference_shape": True},
        "ibpm_scaling": {
            "sims": {"quad": (40, 1_100, 1_400), "tri": (40, 900, 1_100),
                     "geo3": (16, 400, 500)},
            "cli_sims": (1_000, 1_500),
            "ens": (4, {"quad": 320, "tri": 256}, 500),
            "collapse": (500, 768), "exponent": ((1_000, 3_000, 10_000), 256),
            "ecf": (10_000, 20_000)},
        "finite_chains": {
            "sims": {"quad": {"exact_small": 1, "expectation": 1},
                     "tri": {"exact_small": 1, "expectation": 1}},
            "sim_l0": (16, 64), "sim_steps": 4_000,
            "ens_per_mode": 4, "ens_l0": (1_000, 1_024), "ens": (128, 160),
            "defect_ens": (256, 40)},
    },
    "tiny": {
        "analyze": {"bip_shapes": 1, "nonbip_shapes": 1, "cli_analyze": 1,
                    "cli_tune": 1, "n_run": ((200, 400),),
                    "shape_n_run": (200, 400),
                    "presets": [0, 4, 7, 10], "reference_shape": False},
        "ibpm_scaling": {
            "sims": {"quad": (1, 200, 400), "tri": (1, 200, 400),
                     "geo3": (1, 100, 200)},
            "cli_sims": (100, 200), "ens": (1, {"quad": 16, "tri": 16}, 50),
            "collapse": (100, 64), "exponent": ((100, 300, 1_000), 64),
            "ecf": (1_000, 2_000)},
        "finite_chains": {
            "sims": {"quad": {"exact_small": 1, "expectation": 1},
                     "tri": {"exact_small": 1, "expectation": 1}},
            "sim_l0": (4, 16), "sim_steps": 200,
            "ens_per_mode": 1, "ens_l0": (1_000, 1_100), "ens": (8, 10),
            "defect_ens": (64, 10)},
    },
}


# -- shared helpers ------------------------------------------------------------------


def run_scale_depth(law, n_steps):
    """Negative depth a chain of n_steps needs: 16 a_n rounded up to 1024,
    with a_n = (sqrt(1+r) L n)^(2/3) the perimeter scale; capped at 2^19."""
    a_n = (math.sqrt(1.0 + law.r) * law.L_nu * n_steps) ** (2.0 / 3.0)
    return min(1 << 19, max(1024, 1024 * math.ceil((16.0 * a_n + 2.0) / 1024)))


def log_uniform_int(rng, lo, hi):
    return int(round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))


def closed_form(name, params, preset_constants):
    """Reference constants (c_plus, r, L_nu or None) of a preset.

    Odd angulations with p >= 2 have no closed form; the preset's own
    bisection constants serve as the reference there.
    """
    if name == "two_p_angulation":
        p = params["p"]
        return math.sqrt(4 * p / (p - 1)), 1.0, 4 * (p - 1) / 3
    if name == "odd_angulation" and params["p"] == 1:
        s3 = math.sqrt(3.0)
        return math.sqrt(6 + 4 * s3), 2 * s3 - 3, 0.5 * (1 + 1 / s3)
    if name == "odd_angulation":
        c = preset_constants
        return c["c_plus"], c["r"], c["L_nu"]
    if name == "geometric":
        H = params["H"]
        return (2 * (H**2 + 1) / ((H - 1) ** 1.5 * math.sqrt(H + 3)),
                (H**2 - 3) / (H**2 + 1), 0.5 * (H**2 + 1))
    if name == "symmetric_critical":
        # nu(k) = 1/(k^2 - 1) on even k at r = 1, a = pi/4, so c^2 = 6
        return math.sqrt(6.0), 1.0, None
    raise ValueError(name)


def rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def check_law(law, tag):
    """Harmonicity of h(0,.) and h(1,.) (k <= 30) and the kernel's nu(-2)."""
    out = []
    worst = max(walk.harmonic_residual(law, order, k)
                for order in (0, 1) for k in range(1, 31))
    if not worst <= 1e-8:
        out.append(("harmonic", f"{tag}: worst residual {worst:.3g} > 1e-8"))
    if not law.heavy_tail:
        target = 2.0 / law.c_plus**2
        for what, val in (("nu(-2)", float(law.nu(-2))),
                          ("kernel nu(-2)",
                           target + law.residuals["nu_m2_kernel"])):
            if not abs(val - target) <= 1e-9:
                out.append(("nu_m2", f"{tag}: |{what} - 2/c^2| = "
                            f"{abs(val - target):.3g} > 1e-9"))
    return out


def check_h_arrays(arrays, l_max):
    out = []
    for order, arr in zip((0, 1, 2), arrays):
        if len(arr) != l_max + 1 or not np.all(np.isfinite(arr)):
            out.append(("hcache", f"h({order}, .) has wrong length or non-finite"))
        elif arr[order] != 1.0:
            out.append(("hcache", f"h({order}, {order}) = {arr[order]!r} != 1"))
    h1 = arrays[1][1:]
    if np.any(np.diff(h1) < -1e-12 * h1[1:]):
        out.append(("hcache", "h(1, .) decreases"))
    return out


def check_trace(per, vol, mode, n_steps):
    """Chain invariants on one recorded path."""
    out = []
    per = np.asarray(per)
    vol = np.asarray(vol)
    if len(per) != n_steps + 1 or len(vol) != n_steps + 1:
        out.append(("trace_length", f"{len(per)} states for {n_steps} steps"))
    if np.any(np.diff(vol) < 0):
        out.append(("volume_monotone", "volume decreased"))
    if mode == "ibpm":
        if per.min() < 1:
            out.append(("ibpm_positive", f"perimeter {per.min()} < 1"))
    else:
        if per.min() < 0:
            out.append(("finite_nonnegative", f"perimeter {per.min()} < 0"))
        hit = np.nonzero(per == 0)[0]
        if len(hit) and np.any(per[hit[0]:] != 0):
            out.append(("finite_absorbed", "perimeter left 0 after absorption"))
    return out


def ensemble_paths(out, l0, n):
    """Per-step (perimeters, volumes) matrices, steps x chains, of an ensemble
    checkpointed at every step; None if a checkpoint is missing."""
    steps = sorted(out)
    if steps != list(range(1, n + 1)):
        return None
    chains = len(out[n][0])
    per = np.vstack([np.full(chains, l0)] + [out[s][0] for s in steps])
    vol = np.vstack([np.zeros(chains, dtype=np.int64)]
                    + [out[s][1] for s in steps])
    return per, vol


def check_ensemble(per, vol, mode, n):
    """check_trace on every chain; reports the first failing chain."""
    for c in range(per.shape[1]):
        fails = check_trace(per[:, c], vol[:, c], mode, n)
        if fails:
            return [(cid, f"chain {c}: {msg}") for cid, msg in fails]
    return []


def expectation_rule(law, l_prime):
    """Single-chain volume increment: max(1, round(E V(l'))), 1 at l' = 0."""
    if l_prime == 0:
        return 1
    return max(1, round(walk.expected_volume(law, l_prime)))


def check_expectation_increments(rule_law, per_steps, vol_steps, check_id):
    """Each pruning increment of a path must follow the single-chain rule."""
    jumps = np.diff(per_steps, axis=0)
    dv = np.diff(vol_steps, axis=0)
    alive = per_steps[:-1] >= 1
    prune = alive & (jumps <= -2)
    if not prune.any():
        return []
    lps = (-jumps[prune] - 2).astype(np.int64)
    got = dv[prune]
    want = np.array([expectation_rule(rule_law, int(lp)) for lp in lps])
    bad = got != want
    if not bad.any():
        return []
    sample = sorted(set(zip(lps[bad].tolist(), got[bad].tolist())))[:6]
    return [(check_id,
             f"{int(bad.sum())} of {len(got)} pruning increments differ "
             f"from max(1, round(E V(l'))); (l', dV) e.g. {sample}")]


# -- analyze -------------------------------------------------------------------------


def _solve_attrs(cd):
    return {"path": cd.residuals.get("path", "unknown")}


def _h_arrays(tr, r, l_max):
    cache = tr.call("hfun.HCache", hfun.HCache, r, mode="float")
    return [tr.call("hfun.HCache.array", cache.array, order, l_max,
                    attrs=lambda a: {"elems": len(a)})
            for order in (0, 1, 2)]


def _law_and_deepen(tr, q, cd, n_run):
    pos = tr.call("weights.nu_from_q", weights.nu_from_q, q, cd.c_plus, cd.r)
    law = tr.call("walk.complete_nu", walk.complete_nu, pos, k_neg=BASE_K_NEG)
    depth = run_scale_depth(law, n_run)
    deep = tr.call("walk.deepen_negative", walk.deepen_negative, law, depth,
                   attrs=lambda d: {"entries": len(d.probs)})
    return law, deep, depth


class Analyze:
    name = "analyze"
    nominal_round_s = 25.0

    def __init__(self, seed, size, tracer):
        cfg = SIZES[size]["analyze"]
        rng = random.Random(seed)
        presets = PRESETS if cfg["presets"] is None else [
            PRESETS[i] for i in cfg["presets"]]
        self.preset_plan = []
        # every preset is analysed for a short and a long run
        for name, params in presets:
            for n_range in cfg["n_run"]:
                n_run = log_uniform_int(rng, *n_range)
                l_enum = rng.choice((2, 4))
                d_max = rng.choice((16, 20, 24))
                self.preset_plan.append((name, params, n_run, l_enum, d_max))
        # bipartite shapes cycle through every support, so the mix of
        # cheap and costly supports is the same for every seed
        supports = [bipartite_shape(rng, BIPARTITE_SUPPORTS[i % 7])
                    for i in range(cfg["bip_shapes"])]
        supports += [nonbipartite_shape(rng, 2 + i % 2)
                     for i in range(cfg["nonbip_shapes"])]
        if cfg["reference_shape"]:
            supports.append(dict(REFERENCE_SHAPE))
        supports.append(dict(LARGE_TSTAR_SHAPE))
        self.shapes = []
        for support in supports:
            n_run = log_uniform_int(rng, *cfg["shape_n_run"])
            shape = tracer.call("weights.WeightSequence",
                                weights.WeightSequence, support)
            self.shapes.append((support, shape, n_run,
                                support == LARGE_TSTAR_SHAPE))
        self.cli_analyze = []
        for _ in range(cfg["cli_analyze"]):
            if rng.random() < 0.5:
                self.cli_analyze.append(["--preset", "two_p_angulation",
                                         "--p", str(rng.randint(2, 5))])
            else:
                self.cli_analyze.append(["--preset", "odd_angulation",
                                         "--p", str(rng.randint(1, 3))])
        self.cli_tune = [bipartite_shape(rng, BIPARTITE_SUPPORTS[i % 7])
                         for i in range(cfg["cli_tune"])]

    def setup_checks(self):
        return []

    def round(self, tmpdir):
        reqs = []
        for name, params, n_run, l_enum, d_max in self.preset_plan:
            label = f"{name} {params} n={n_run}"
            reqs.append(Request(
                "preset", label,
                lambda tr, a=(name, params, n_run, l_enum, d_max):
                    self._run_preset(tr, *a),
                lambda out, a=(name, params): self._check_preset(out, *a)))
        for support, shape, n_run, large in self.shapes:
            reqs.append(Request(
                "shape", _support_text(support),
                lambda tr, s=shape, n=n_run, large=large:
                    self._run_shape(tr, s, n, large),
                self._check_shape))
        for i, args in enumerate(self.cli_analyze):
            path = os.path.join(tmpdir, f"analyze{i}.json")
            reqs.append(Request(
                "cli.analyze", " ".join(args[1:]),
                lambda tr, a=args, p=path: _cli(tr, ["analyze", *a, "--out", p]),
                lambda rc, a=args, p=path: _check_cli_analyze(rc, a, p)))
        for i, support in enumerate(self.cli_tune):
            path = os.path.join(tmpdir, f"tune{i}.json")
            text = json.dumps({str(k): f"{v.numerator}/{v.denominator}"
                               for k, v in support.items()})
            reqs.append(Request(
                "cli.tune-critical", _support_text(support),
                lambda tr, t=text, p=path: _cli(
                    tr, ["tune-critical", "--weights", t, "--out", p]),
                lambda rc, p=path: _check_cli_tune(rc, p)))
        return reqs

    @staticmethod
    def _run_preset(tr, name, params, n_run, l_enum, d_max):
        res = tr.call("weights.preset", weights.preset, name, **params)
        q = res.weights
        cd = tr.call("criticality.solve_boltzmann", criticality.solve_boltzmann,
                     q, attrs=_solve_attrs)
        mier = tr.call("criticality.miermont_check", criticality.miermont_check,
                       q, cd)
        out = {"res": res, "cd": cd, "mier": mier, "deep": None, "enum": None,
               "slope": None}
        if name == "symmetric_critical":
            law = tr.call("walk.symmetric_family", walk.symmetric_family,
                          **q.family[1])
            l_max = 1 << 14
        else:
            law, out["deep"], l_max = _law_and_deepen(tr, q, cd, n_run)
        out["law"] = law
        out["l_max"] = l_max
        out["h"] = _h_arrays(tr, cd.r, l_max)
        if q.is_finite and q.is_exact:
            table = tr.call("oracle.enumerate_dp", oracle.enumerate_dp,
                            q, l_enum, d_max,
                            attrs=lambda t: {"cells": len(t.cells)})
            vt = tr.call("oracle.volume_tables", oracle.volume_tables,
                         q, l_enum, d_max)
            out["enum"] = (l_enum, table, vt)
        if cd.classification in ("critical", "regular_critical"):
            out["slope"] = tr.call("scaling.cplus_slope_test",
                                   scaling.cplus_slope_test, q)
        return out

    @staticmethod
    def _check_preset(out, name, params):
        fails = []
        cd, law = out["cd"], out["law"]
        c_ref, r_ref, L_ref = closed_form(name, params, out["res"].constants)
        if cd.classification not in CRITICAL:
            fails.append(("classification", cd.classification))
        if not rel_err(cd.c_plus, c_ref) <= 1e-9:
            fails.append(("closed_form", f"c_plus {cd.c_plus!r} vs {c_ref!r}"))
        if not abs(cd.r - r_ref) <= 1e-9 * max(1.0, abs(r_ref)):
            fails.append(("closed_form", f"r {cd.r!r} vs {r_ref!r}"))
        if L_ref is not None and not rel_err(law.L_nu, L_ref) <= 1e-9:
            fails.append(("closed_form", f"L_nu {law.L_nu!r} vs {L_ref!r}"))
        if not out["mier"].ok:
            fails.append(("miermont", str(out["mier"].messages)))
        fails += check_law(law, "law")
        if out["deep"] is not None:
            fails += check_law(out["deep"], "deepened law")
        fails += check_h_arrays(out["h"], out["l_max"])
        if out["enum"] is not None:
            l_enum, table, vt = out["enum"]
            disk = walk.disk_coefficient(law, l_enum)
            lower = float(table.disk_value(l_enum))
            by_v = float(sum(vt.values.values()))
            if not (0 < lower <= disk * (1 + 1e-9)):
                fails.append(("enumeration", f"disk value {lower!r} not in "
                              f"(0, W({l_enum})={disk!r}]"))
            if not vt.complete or not rel_err(by_v, lower) <= 1e-12:
                fails.append(("enumeration", "vertex-graded table disagrees"))
        if out["slope"] is not None and not out["slope"].rel_error <= 0.005:
            fails.append(("cplus_slope",
                          f"relative error {out['slope'].rel_error:.3g} > 0.005"))
        return fails

    @staticmethod
    def _run_shape(tr, shape, n_run, large_tstar):
        try:
            tune = tr.call("criticality.tune_critical",
                           criticality.tune_critical, shape)
        except errors.SolverFailureError as exc:
            if not large_tstar:
                raise
            return {"tune_failure": f"{type(exc).__name__}: {exc}"}
        q = tr.call("weights.WeightSequence.scaled", shape.scaled, tune.t_star)
        cd = tr.call("criticality.solve_boltzmann", criticality.solve_boltzmann,
                     q, attrs=_solve_attrs)
        mier = tr.call("criticality.miermont_check", criticality.miermont_check,
                       q, cd)
        law, deep, l_max = _law_and_deepen(tr, q, cd, n_run)
        h = _h_arrays(tr, cd.r, l_max)
        return {"tune": tune, "cd": cd, "mier": mier, "law": law, "deep": deep,
                "h": h, "l_max": l_max}

    @staticmethod
    def _check_shape(out):
        if "tune_failure" in out:
            return [("tune_large_tstar", out["tune_failure"])]
        fails = []
        tune, cd = out["tune"], out["cd"]
        if not (math.isfinite(tune.t_star) and tune.t_star > 0):
            fails.append(("tune", f"t_star {tune.t_star!r}"))
        for what, data in (("tuned", tune.data), ("solved", cd)):
            if data.classification not in CRITICAL:
                fails.append(("classification", f"{what}: {data.classification}"))
            for key in ("R1", "R2"):
                val = data.residuals.get(key, 0.0)
                if not abs(val) <= 1e-9:
                    fails.append(("residual", f"{what} {key} = {val!r}"))
        if not out["mier"].ok:
            fails.append(("miermont", str(out["mier"].messages)))
        fails += check_law(out["law"], "law")
        fails += check_law(out["deep"], "deepened law")
        fails += check_h_arrays(out["h"], out["l_max"])
        return fails


# every nonempty set of the degrees 4, 6, 8; a shape's tuning cost depends
# mostly on its support
BIPARTITE_SUPPORTS = ((4,), (6,), (8,), (4, 6), (4, 8), (6, 8), (4, 6, 8))


def bipartite_shape(rng, degrees):
    """Random rational weights on the given even degrees."""
    return {d: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for d in degrees}


def nonbipartite_shape(rng, n_degrees):
    """A random rational shape on n_degrees of the degrees 3..8, at least
    one of them odd.

    The weights carry a factor 8^(-d) on q_d, which puts the unscaled
    shape inside the admissible region (boundary scale t* of about 1 to
    1e3): the tuner then brackets the boundary from below and its cost
    stays in a narrow band.  The fixed REFERENCE_SHAPE keeps the costly
    path (failing Newton starts above the boundary) in every batch, and
    LARGE_TSTAR_SHAPE the range of t* above 1e5.
    """
    while True:
        ds = sorted(rng.sample([3, 4, 5, 6, 7, 8], n_degrees))
        if any(d % 2 for d in ds):
            break
    return {d: Fraction(rng.randint(1, 9), rng.randint(1, 9) * 8**d)
            for d in ds}


def _support_text(support):
    return "{" + ", ".join(f"{k}: {v}" for k, v in support.items()) + "}"


def _cli(tr, argv):
    return tr.call("cli.main", cli.main, argv,
                   attrs=lambda rc, c=argv[0]: {"command": c})


def _check_cli_analyze(rc, args, path):
    if rc != 0:
        return [("cli_exit", f"exit code {rc}")]
    with open(path) as fh:
        doc = json.load(fh)
    name = args[1]
    params = {"p": int(args[3])}
    consts = weights.preset(name, **params).constants
    c_ref, r_ref, L_ref = closed_form(name, params, consts)
    fails = []
    if doc["classification"] not in CRITICAL:
        fails.append(("classification", doc["classification"]))
    if not rel_err(doc["c_plus"], c_ref) <= 1e-9:
        fails.append(("closed_form", f"c_plus {doc['c_plus']!r} vs {c_ref!r}"))
    if not rel_err(doc["law"]["L_nu"], L_ref) <= 1e-9:
        fails.append(("closed_form", f"L_nu {doc['law']['L_nu']!r} vs {L_ref!r}"))
    if not doc["miermont"]["ok"]:
        fails.append(("miermont", str(doc["miermont"]["messages"])))
    return fails


def _check_cli_tune(rc, path):
    if rc != 0:
        return [("cli_exit", f"exit code {rc}")]
    with open(path) as fh:
        doc = json.load(fh)
    fails = []
    data = doc["critical_data"]
    if not doc["t_star"] > 0:
        fails.append(("tune", f"t_star {doc['t_star']!r}"))
    if data["classification"] not in CRITICAL:
        fails.append(("classification", data["classification"]))
    for key in ("R1", "R2"):
        if not abs(data["residuals"][key]) <= 1e-9:
            fails.append(("residual", f"{key} = {data['residuals'][key]!r}"))
    return fails


# -- chain workloads -------------------------------------------------------------------

CHAIN_PRESETS = {
    "quad": ("two_p_angulation", {"p": 2}),
    "tri": ("odd_angulation", {"p": 1}),
    "geo3": ("geometric", {"H": 3.0}),
}


def check_laws(laws):
    return [fail for key, law in laws.items() for fail in check_law(law, key)]


def build_laws(tracer, names):
    """The preset laws at k_neg = 512 that the chain workloads run on."""
    laws = {}
    for key in names:
        name, params = CHAIN_PRESETS[key]
        res = tracer.call("weights.preset", weights.preset, name, **params)
        c = res.constants
        pos = tracer.call("weights.nu_from_q", weights.nu_from_q,
                          res.weights, c["c_plus"], float(c["r"]))
        laws[key] = tracer.call("walk.complete_nu", walk.complete_nu, pos,
                                k_neg=BASE_K_NEG)
    return laws


def _simulate(tr, mode, law, **kw):
    return tr.call(
        "peeling.simulate", peeling.simulate, mode, law, **kw,
        attrs=lambda t: {"mode": mode, "steps": t.n_steps,
                         "residual_draws": int(t.flags.get("residual_draws", 0)),
                         "exact_fallback": int(bool(t.flags.get("exact_fallback")))})


def _ensemble(tr, mode, law, l0, n_steps, n_chains, **kw):
    return tr.call(
        "peeling.simulate_ensemble", peeling.simulate_ensemble, mode, law, l0,
        n_steps, n_chains, **kw,
        attrs=lambda _o: {"mode": mode, "chain_steps": n_steps * n_chains})


class IbpmScaling:
    name = "ibpm_scaling"
    nominal_round_s = 14.0

    def __init__(self, seed, size, tracer):
        cfg = SIZES[size]["ibpm_scaling"]
        rng = random.Random(seed)
        self.laws = build_laws(tracer, ("quad", "tri", "geo3"))
        self.sims = []
        for key, (count, lo, hi) in cfg["sims"].items():
            for _ in range(count):
                self.sims.append((key, rng.randint(lo, hi),
                                  rng.randrange(1 << 31)))
        self.cli_sims = [
            (model, fmt, rng.randint(*cfg["cli_sims"]), rng.randrange(1 << 31))
            for model in ("quadrangulation", "triangulation")
            for fmt in ("csv", "binary")]
        # more quad chains than tri ones make the two laws' ensembles cost
        # about the same, so the tail request lies inside one group
        count, chains, steps = cfg["ens"]
        self.ens = [(key, steps, chains[key], rng.randrange(1 << 31))
                    for key in ("quad", "tri") for _ in range(count)]
        self.collapse = cfg["collapse"] + (rng.randrange(1 << 31),)
        self.exponent = cfg["exponent"] + (rng.randrange(1 << 31),)
        self.ecf = cfg["ecf"] + (rng.randrange(1 << 31),)

    def setup_checks(self):
        return check_laws(self.laws)

    def round(self, tmpdir):
        reqs = []
        for key, n, seed in self.sims:
            law = self.laws[key]
            reqs.append(Request(
                "simulate.ibpm", f"{key} n={n}",
                lambda tr, law=law, n=n, s=seed: _simulate(
                    tr, "ibpm", law, l0=2, n_steps=n, seed=s,
                    volume_mode="exact_small"),
                lambda t, n=n: check_trace(t.perimeters, t.volumes, "ibpm", n),
                chain_steps=n))
        for model, fmt, n, seed in self.cli_sims:
            path = os.path.join(tmpdir, f"trace-{model}-{fmt}")
            argv = ["simulate", "--preset", model, "--mode", "ibpm",
                    "--steps", str(n), "--l0", "2", "--seed", str(seed),
                    "--format", fmt, "--out", path]
            reqs.append(Request(
                "cli.simulate", f"{model} {fmt} n={n}",
                lambda tr, a=argv: _cli(tr, a),
                lambda rc, p=path, f=fmt, n=n: _check_cli_trace(rc, p, f, n)))
        for key, n, chains, seed in self.ens:
            reqs.append(Request(
                "ensemble.ibpm", f"{key} l0=2 {chains}x{n}",
                lambda tr, law=self.laws[key], n=n, c=chains, s=seed: _ensemble(
                    tr, "ibpm", law, 2, n, c, seed=s, checkpoints=range(1, n + 1)),
                lambda out, n=n: _check_ibpm_ensemble(out, n),
                chain_steps=n * chains))
        ctx = {}
        reqs.append(Request(
            "collapse_test", "n={} chains={}".format(*self.collapse),
            lambda tr, a=self.collapse: tr.call(
                "scaling.collapse_test", scaling.collapse_test,
                dict(self.laws), a[0], a[1], seed=a[2]),
            lambda rep: _check_collapse(rep, ctx)))
        reqs.append(Request(
            "exponent_regression", "n={} chains={}".format(*self.exponent),
            lambda tr, a=self.exponent: tr.call(
                "scaling.exponent_regression", scaling.exponent_regression,
                self.laws["quad"], n_values=a[0], chains=a[1], seed=a[2]),
            lambda rep, chains=self.exponent[1]:
                _check_exponent(rep, chains, ctx)))
        reqs.append(Request(
            "ecf_test", "n={} samples={}".format(*self.ecf),
            lambda tr, a=self.ecf: tr.call(
                "scaling.ecf_test", scaling.ecf_test, self.laws["quad"], a[0],
                a[1], seed=a[2], attrs=lambda _r, m=a[1]: {"samples": m}),
            _check_ecf))
        return reqs


def _check_cli_trace(rc, path, fmt, n):
    if rc != 0:
        return [("cli_exit", f"exit code {rc}")]
    if fmt == "binary":
        per, vol = peeling.PeelTrace.read_binary(path)
    else:
        rows = np.loadtxt(path, delimiter=",", comments="#", skiprows=6,
                          dtype=np.int64, ndmin=2)
        per, vol = rows[:, 1], rows[:, 2]
    return check_trace(per, vol, "ibpm", n)


def _check_ibpm_ensemble(out, n):
    paths = ensemble_paths(out, 2, n)
    if paths is None:
        return [("checkpoints", "missing checkpoints")]
    return check_ensemble(*paths, "ibpm", n)


def _check_ecf(rep):
    bad = rep.discrepancy > 0.02 + SE_WIDTH * rep.std_error
    if bad.any():
        i = int(np.argmax(rep.discrepancy - SE_WIDTH * rep.std_error))
        return [("ecf", f"theta={rep.thetas[i]}: |ecf - limit| = "
                 f"{rep.discrepancy[i]:.4f} > 0.02 + {SE_WIDTH:g} x "
                 f"{rep.std_error[i]:.4f}")]
    return []


def _median_and_se(rep, model, which):
    i = rep.quantiles.index(0.5)
    vals, ses = rep.models[model][which]
    return float(vals[i]), float(ses[i])


def _check_collapse(rep, ctx):
    fails = []
    for which, tol in (("l_hat", 0.05), ("v_hat", 0.10)):
        meds = {m: _median_and_se(rep, m, which) for m in rep.model_names()}
        hi = max(meds, key=lambda m: meds[m][0])
        lo = min(meds, key=lambda m: meds[m][0])
        gap = rep.rel_median_gap(which)
        se = math.hypot(meds[hi][1], meds[lo][1]) / meds[hi][0]
        if not gap <= tol + SE_WIDTH * se:
            fails.append(("collapse", f"{which} median gap {gap:.4f} > {tol} + "
                          f"{SE_WIDTH:g} x {se:.4f}"))
    # relative standard error of the quad median at one chain, for the
    # exponent check of the same round
    ctx["rel_se_1"] = {
        which: _median_and_se(rep, "quad", which)[1]
        / _median_and_se(rep, "quad", which)[0] * math.sqrt(rep.chains)
        for which in ("l_hat", "v_hat")}
    return fails


def _check_exponent(rep, chains, ctx):
    """Slopes within criterion 9's tolerances plus SE_WIDTH standard errors.

    The exponent report carries no standard errors; the slope's is
    propagated from the collapse report's standard error of the quad
    median (same rescaled limit law), scaled to this run's chain count and
    treating the checkpoints as independent, which overstates it.
    """
    if "rel_se_1" not in ctx:
        return [("exponent", "no collapse standard errors in this round")]
    x = np.log(np.asarray(rep.n_values, dtype=float))
    lever = math.sqrt(float(np.sum((x - x.mean()) ** 2)))
    fails = []
    for which, slope, target, tol in (
            ("l_hat", rep.perimeter_slope, 2.0 / 3.0, 0.05),
            ("v_hat", rep.volume_slope, 4.0 / 3.0, 0.08)):
        se = ctx["rel_se_1"][which] / math.sqrt(chains) / lever
        if not abs(slope - target) <= tol + SE_WIDTH * se:
            fails.append(("exponent", f"{which} slope {slope:.4f} vs {target:.4f}"
                          f" beyond {tol} + {SE_WIDTH:g} x {se:.4f}"))
    return fails


def _parity_fit(key, l0):
    """Quadrangulations are bipartite: their perimeters are even."""
    return l0 + (l0 % 2) if key == "quad" else l0


class FiniteChains:
    name = "finite_chains"
    nominal_round_s = 12.0

    def __init__(self, seed, size, tracer):
        cfg = SIZES[size]["finite_chains"]
        rng = random.Random(seed)
        self.laws = build_laws(tracer, ("quad", "tri"))
        # the expectation rule needs nu(-l'-2) for every l' a chain can prune
        self.rule_laws = {}
        self.sims = []
        for key, counts in cfg["sims"].items():
            for vmode, count in counts.items():
                for _ in range(count):
                    l0 = _parity_fit(key, log_uniform_int(rng, *cfg["sim_l0"]))
                    self.sims.append((key, vmode, l0, cfg["sim_steps"],
                                      rng.randrange(1 << 31)))
        # the ensembles outnumber the cheaper single chains, so the median
        # request falls inside their group of similar cost
        chains, steps = cfg["ens"]
        self.ens = []
        for key in ("quad", "tri"):
            for vmode in ("asymptotic_xi", "expectation"):
                # starts just below the 1024 small-table cutoff, so that
                # part of the chain-steps run above it
                for _ in range(cfg["ens_per_mode"]):
                    l0 = _parity_fit(key, rng.randint(*cfg["ens_l0"]))
                    self.ens.append((key, vmode, l0, steps, chains,
                                     rng.randrange(1 << 31)))
        chains, steps = cfg["defect_ens"]
        self.ens.append(("quad", "expectation", 4, steps, chains,
                         rng.randrange(1 << 31)))

    def setup_checks(self):
        return check_laws(self.laws)

    def _rule_law(self, key, l_prime_max):
        need = l_prime_max + 2
        law = self.rule_laws.get(key)
        if law is None or law.k_neg < need:
            depth = max(BASE_K_NEG, 1 << math.ceil(math.log2(need)))
            law = walk.deepen_negative(self.laws[key], depth)
            self.rule_laws[key] = law
        return law

    def round(self, tmpdir):
        reqs = []
        for key, vmode, l0, n, seed in self.sims:
            reqs.append(Request(
                f"simulate.finite.{vmode}", f"{key} l0={l0} n={n}",
                lambda tr, law=self.laws[key], l0=l0, n=n, s=seed, v=vmode:
                    _simulate(tr, "finite", law, l0=l0, n_steps=n, seed=s,
                              volume_mode=v),
                lambda t, key=key, n=n, v=vmode: self._check_sim(t, key, n, v),
                chain_steps=n))
        for key, vmode, l0, n, chains, seed in self.ens:
            reqs.append(Request(
                f"ensemble.finite.{vmode}", f"{key} l0={l0} {chains}x{n}",
                lambda tr, a=(key, vmode, l0, n, chains, seed):
                    self._run_ens(tr, *a),
                lambda out, key=key, n=n, v=vmode, l0=l0:
                    self._check_ens(out, key, n, v, l0),
                chain_steps=n * chains))
        return reqs

    def _run_ens(self, tr, key, vmode, l0, n, chains, seed):
        return _ensemble(tr, "finite", self.laws[key], l0, n, chains, seed=seed,
                         volume_mode=vmode, checkpoints=range(1, n + 1))

    def _check_sim(self, trace, key, n, vmode):
        fails = check_trace(trace.perimeters, trace.volumes, "finite", n)
        if vmode == "expectation" and not fails:
            per = trace.perimeters[:, None]
            vol = trace.volumes[:, None]
            law = self._rule_law(key, int(per.max()))
            fails += check_expectation_increments(
                law, per, vol, "simulate_expectation_volume")
        return fails

    def _check_ens(self, out, key, n, vmode, l0):
        paths = ensemble_paths(out, l0, n)
        if paths is None:
            return [("checkpoints", "missing checkpoints")]
        per, vol = paths
        fails = check_ensemble(per, vol, "finite", n)
        if vmode == "expectation" and not fails:
            law = self._rule_law(key, int(per.max()))
            fails += check_expectation_increments(
                law, per, vol, "ensemble_expectation_volume")
        return fails


WORKLOADS = {w.name: w for w in (Analyze, IbpmScaling, FiniteChains)}


def make_workload(name, seed, size, tracer):
    return WORKLOADS[name](seed, size, tracer)
