"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
The tolerances are fixed here and nowhere else.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from peelkit.criticality import solve_boltzmann
from peelkit.oracle import brute_force_maps, enumerate_dp
from peelkit.peeling import GUIDE, _rng, _StackedCdf, sample_xi, step_finite, step_ibpm
from peelkit.scaling import (
    collapse_test,
    cplus_slope_test,
    ecf_test,
    exponent_regression,
)
from peelkit.seriesutil import richardson_limit
from peelkit.walk import (
    complete_nu,
    harmonic_residual,
    symmetric_family,
    symmetric_nu_value,
)
from peelkit.weights import StepLawPositive, WeightSequence, nu_from_q, preset


def verdict(num, name, ok):
    print(f"\nACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def law_for(name, k_neg=512, **params):
    res = preset(name, **params)
    pos = nu_from_q(res.weights, res.constants["c_plus"], float(res.constants["r"]))
    return complete_nu(pos, k_neg=k_neg)


@pytest.fixture(scope="module")
def laws():
    return {
        "quad": law_for("two_p_angulation", p=2),
        "tri": law_for("odd_angulation", p=1),
        "geo3": law_for("geometric", H=3.0),
    }


def test_criterion_01_golden_constants():
    t0 = time.time()
    ok = True
    for p in range(2, 6):
        res = preset("two_p_angulation", p=p)
        c = res.constants
        ok &= c["nu_pos"][2 * p - 2] == Fraction(2 ** (2 * p - 1),
                                                 p * math.comb(2 * p, p))
        ok &= c["nu_m2"] == Fraction(p - 1, 2 * p)
        ok &= abs(c["c_plus"] - math.sqrt(4 * p / (p - 1))) <= 1e-12 * c["c_plus"]
        ok &= c["L_nu"] == Fraction(4 * (p - 1), 3)
    # triangulation through the numerical machinery, not pinned values
    res = preset("odd_angulation", p=1)
    r_t = 2 * math.sqrt(3) - 3
    c_t = math.sqrt(6 + 4 * math.sqrt(3))
    q3_t = 1 / math.sqrt(12 * math.sqrt(3))
    L_t = 0.5 * (1 + 1 / math.sqrt(3))
    ok &= abs(res.constants["r"] - r_t) <= 1e-10
    ok &= abs(res.constants["c_plus"] - c_t) <= 1e-10 * c_t
    ok &= abs(res.weights.value(3) - q3_t) <= 1e-10 * q3_t
    ok &= abs(res.constants["L_nu"] - L_t) <= 1e-10 * L_t
    cd = solve_boltzmann(WeightSequence({3: q3_t}))
    ok &= abs(cd.r - r_t) <= 1e-10
    ok &= abs(cd.c_plus - c_t) <= 1e-10 * c_t
    for H in (2.0, 3.0, 5.0):
        res = preset("geometric", H=H)
        c = res.constants
        ok &= abs(c["r"] - (H**2 - 3) / (H**2 + 1)) <= 1e-10
        ok &= abs(c["c_plus"] - 2 * (H**2 + 1)
                  / ((H - 1) ** 1.5 * math.sqrt(H + 3))) <= 1e-10 * c["c_plus"]
        ok &= abs(c["L_nu"] - 0.5 * (H**2 + 1)) <= 1e-10 * c["L_nu"]
        cd = solve_boltzmann(res.weights)
        ok &= abs(cd.r - c["r"]) <= 1e-9
        ok &= abs(cd.c_plus - c["c_plus"]) <= 1e-9 * c["c_plus"]
    elapsed = time.time() - t0
    ok &= elapsed < 5.0
    verdict(1, f"golden constants ({elapsed:.1f}s)", ok)


def test_criterion_02_harmonicity_suite(laws):
    ok = True
    suite = dict(laws)
    suite["quad6"] = law_for("two_p_angulation", p=3)
    suite["quad8"] = law_for("two_p_angulation", p=4)
    suite["quad10"] = law_for("two_p_angulation", p=5)
    suite["geo2"] = law_for("geometric", H=2.0)
    suite["geo5"] = law_for("geometric", H=5.0)
    suite["sym"] = symmetric_family(1.0, math.pi / 4, k_pos=512)
    for name, law in suite.items():
        worst0 = max(harmonic_residual(law, 0, k) for k in range(1, 31))
        worst1 = max(harmonic_residual(law, 1, k) for k in range(1, 31))
        ok &= worst0 <= 1e-8 and worst1 <= 1e-8
    verdict(2, "harmonicity of h(0,.) and h(1,.) for every preset", ok)


def test_criterion_03_kernel_consistency(laws):
    ok = True
    for law in laws.values():
        ok &= abs(law.residuals["nu_m2_kernel"]) <= 1e-9
    quad = laws["quad"]
    for l in range(1, 21):
        closed = 4.0 ** (-l) / ((l + 1) * (2 * l - 1)) * math.comb(2 * l, l)
        ok &= abs(float(quad.nu(-2 * l)) - closed) <= 1e-10 * closed
    verdict(3, "kernel completion consistency", ok)


def test_criterion_04_tail_asymptotics(laws):
    ok = True
    for name in ("quad", "tri"):
        law = laws[name]
        devs = {}
        for k in (100, 400):
            avg = 0.5 * (float(law.nu(-k)) + float(law.nu(-k - 1)))
            devs[k] = abs(k**2.5 * avg / law.tail_const - 1.0)
        ok &= devs[400] <= 0.05 and devs[400] < devs[100]
    verdict(4, "negative-tail constant", ok)


def test_criterion_05_oracle_equivalence():
    ok = True
    for support in ({3: Fraction(1)}, {4: Fraction(1)},
                    {3: Fraction(2, 3), 4: Fraction(3, 5)}):
        q = WeightSequence(support)
        bf = brute_force_maps(q, 4)
        dp = {
            key: v
            for key, v in enumerate_dp(q, 0, 8).cells.items()
            if (key[0] + key[1]) // 2 <= 4
        }
        for key in set(dp) | set(bf):
            ok &= dp.get(key, Fraction(0)) == bf.get(key, Fraction(0))
    quad = preset("two_p_angulation", p=2).weights
    tab = enumerate_dp(quad, 2, 40)
    vals = [tab.disk_value(2, D) for D in range(0, 41, 4)]
    ok &= all(a <= b for a, b in zip(vals, vals[1:]))
    est = richardson_limit(
        [24.0, 32.0, 40.0],
        [float(tab.disk_value(2, D)) for D in (24, 32, 40)],
        [1.5, 2.5],
    )
    ok &= abs(est * 3.0 / 4.0 - 1.0) <= 0.01
    verdict(5, "dart-scan vs loop-equation tables, disk-weight limit", ok)


def test_criterion_06_fugacity_slopes():
    t0 = time.time()
    ok = True
    for name, params in (("two_p_angulation", {"p": 2}),
                         ("odd_angulation", {"p": 1}),
                         ("geometric", {"H": 3.0})):
        rep = cplus_slope_test(preset(name, **params).weights)
        ok &= rep.rel_error <= 0.005
        if name == "two_p_angulation":
            ok &= abs(rep.predicted - 0.5) <= 1e-12
        if rep.c_minus_estimate is not None:
            ok &= abs(rep.c_minus_estimate) <= 0.01
    elapsed = time.time() - t0
    ok &= elapsed < 30.0
    verdict(6, f"vertex-fugacity slope of c_plus ({elapsed:.1f}s)", ok)


def test_criterion_07_doob_transforms(laws):
    res = preset("two_p_angulation", p=2)
    pos = StepLawPositive(
        c_plus=res.constants["c_plus"], r=1.0,
        nu={2: Fraction(2, 3)}, nu_m2=Fraction(1, 4),
        exact=True, r_exact=Fraction(1),
    )
    law_exact = complete_nu(pos, k_neg=64)
    ok = step_ibpm(2, law_exact).exact == {2: Fraction(1)}
    fin = step_finite(2, law_exact).exact
    ok &= fin[2] == Fraction(1, 2) and fin[-2] == Fraction(1, 2)
    law = laws["quad"]
    rng = _rng(314159)
    for l in (4, 10):
        for dist in (step_finite(l, law), step_ibpm(l, law)):
            # one guided inverse-CDF row of the transition law
            tab = _StackedCdf(1, dist.ks, cells=GUIDE)
            tab.append(dist.probs[None, :])
            draws = tab.draw(rng, np.zeros(1_000_000, dtype=np.intp))
            for k, p in zip(dist.ks, dist.probs):
                if p < 1e-6:
                    continue
                emp = (draws == k).mean()
                se = math.sqrt(p * (1 - p) / 1_000_000)
                ok &= abs(emp - p) <= 4 * se
    verdict(7, "Doob-transform transition laws", ok)


def test_criterion_08_xi_machinery():
    from scipy import integrate

    val, _ = integrate.quad(
        lambda x: math.exp(-0.5 / x) * x**-2.5 / math.sqrt(2 * math.pi),
        0, np.inf,
    )
    ok = abs(val - 1.0) <= 1e-10
    rng = _rng(161803)
    x = sample_xi(rng, size=1_000_000)
    ok &= abs(x.mean() - 1.0) <= 4 * x.std() / 1000.0
    for lam in (0.5, 1.0, 2.0):
        target = (1 + math.sqrt(2 * lam)) * math.exp(-math.sqrt(2 * lam))
        vals = np.exp(-lam * x)
        ok &= abs(vals.mean() - target) <= 4 * vals.std() / 1000.0
    verdict(8, "volume limit variable", ok)


def test_criterion_09_scaling_limits(laws):
    t0 = time.time()
    rep = ecf_test(laws["quad"], 10_000, 100_000, thetas=(0.5, 1.0, 2.0),
                   seed=271828)
    ok = rep.max_discrepancy() <= 0.02

    col = collapse_test(
        {"quad": laws["quad"], "tri": laws["tri"], "geo3": laws["geo3"]},
        10_000, 10_000, seed=42,
    )
    ok &= col.rel_median_gap("l_hat") <= 0.05
    ok &= col.rel_median_gap("v_hat") <= 0.10

    er = exponent_regression(laws["quad"], n_values=(1000, 10_000, 100_000),
                             chains=2048, seed=7)
    ok &= abs(er.perimeter_slope - 2.0 / 3.0) <= 0.05
    ok &= abs(er.volume_slope - 4.0 / 3.0) <= 0.08
    elapsed = time.time() - t0
    ok &= elapsed < 300.0
    verdict(
        9,
        f"stable scaling limits (ecf {rep.max_discrepancy():.4f}, "
        f"collapse {col.rel_median_gap('l_hat'):.4f}/{col.rel_median_gap('v_hat'):.4f}, "
        f"slopes {er.perimeter_slope:.4f}/{er.volume_slope:.4f}, {elapsed:.0f}s)",
        ok,
    )


def test_criterion_10_symmetric_family():
    ok = True
    for k in range(2, 41, 2):
        ok &= abs(symmetric_nu_value(1.0, math.pi / 4, k)
                  - 1.0 / (k * k - 1)) <= 1e-10
    for k in range(1, 41, 2):
        ok &= abs(symmetric_nu_value(1.0, math.pi / 4, k)) <= 1e-10
    q = preset("symmetric_critical", r=1.0, a=math.pi / 4).weights
    for k in range(2, 7):
        target = 6.0 ** (1 - k) / ((2 * k - 2) ** 2 - 1)
        ok &= abs(q.value(2 * k) - target) <= 1e-10 * target
    law = symmetric_family(1.0, math.pi / 4, k_pos=512)
    for k in range(1, 31):
        ok &= harmonic_residual(law, 0, k) <= 1e-8
        ok &= harmonic_residual(law, 1, k) <= 1e-8
    verdict(10, "symmetric critical family", ok)
