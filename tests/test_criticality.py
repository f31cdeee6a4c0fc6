import contextlib
import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from peelkit import _native, criticality, hfun
from peelkit.errors import DivergentSeriesError, SolverFailureError
from peelkit.hfun import HCache
from peelkit.criticality import (
    miermont_check,
    classify,
    full_report,
    solve_boltzmann,
    tune_critical,
)
from peelkit.walk import complete_nu, harmonic_residual
from peelkit.weights import WeightSequence, nu_from_q, preset, q_from_nu
from test_peeling import numpy_draws


QUAD = WeightSequence({4: Fraction(1, 12)})
TRI = WeightSequence({3: 1.0 / math.sqrt(12 * math.sqrt(3))})
SUB = WeightSequence({4: Fraction(1, 20)})
# non-bipartite, boundary scale t* about 1.75e7
LARGE_TSTAR = WeightSequence({5: Fraction(1, 2**29), 6: Fraction(1, 2**36),
                              8: Fraction(3, 2**48)})


class TestSolve:
    def test_quadrangulation(self):
        cd = solve_boltzmann(QUAD)
        assert cd.c_plus == pytest.approx(2 * math.sqrt(2), rel=1e-13)
        assert cd.r == 1.0
        assert abs(cd.margin) <= 1e-12
        assert cd.classification == "regular_critical"
        assert abs(cd.residuals["R2"]) < 1e-11

    def test_triangulation(self):
        cd = solve_boltzmann(TRI)
        assert cd.r == pytest.approx(2 * math.sqrt(3) - 3, abs=1e-10)
        assert cd.c_plus == pytest.approx(math.sqrt(6 + 4 * math.sqrt(3)), rel=1e-10)
        assert cd.classification in ("critical", "regular_critical")

    def test_subcritical(self):
        cd = solve_boltzmann(SUB)
        assert cd.margin > 1e-3
        assert cd.classification == "subcritical"
        # direct series check of the margin sign
        cache = HCache(1.0, mode="float")
        s = sum(
            cache.value(1, k + 1) * (1 / 20) * cd.c_plus**k for k in (2,)
        )
        assert 1.0 - s > 0

    def test_not_admissible(self):
        cd = solve_boltzmann(WeightSequence({4: Fraction(1)}))
        assert cd.classification == "not_admissible"

    def test_geometric_critical(self):
        res = preset("geometric", H=3.0)
        cd = solve_boltzmann(res.weights)
        assert cd.r == pytest.approx(res.constants["r"], abs=1e-10)
        assert cd.c_plus == pytest.approx(res.constants["c_plus"], rel=1e-10)
        assert cd.classification == "regular_critical"

    def test_z_fields(self):
        cd = solve_boltzmann(QUAD)
        assert cd.z_plus == pytest.approx(2.0, rel=1e-12)
        assert cd.z_diamond == pytest.approx(0.0, abs=1e-12)
        assert cd.z_plus > 1.0

    def test_bipartite_iff_r_one(self):
        assert solve_boltzmann(QUAD).r == 1.0
        assert solve_boltzmann(TRI).r < 1.0

    def test_g_deformed_subcritical(self):
        cd = solve_boltzmann(QUAD, g=0.9)
        assert cd.classification == "subcritical"
        assert cd.g == 0.9

    def test_g_monotonicity(self):
        # sqrt(g) c_+(g) is the growth constant of the g-weighted disk
        # functions, which are series with nonnegative coefficients, so it
        # must increase with g (c_+(g) alone does not for geometric
        # sequences: the deformation also moves r)
        gs = (0.5, 0.7, 0.9, 0.99, 1.0)
        for res in (preset("two_p_angulation", p=2),
                    preset("odd_angulation", p=1),
                    preset("geometric", H=3.0)):
            cs = [math.sqrt(g) * solve_boltzmann(res.weights, g=g).c_plus
                  for g in gs]
            assert all(a < b for a, b in zip(cs, cs[1:]))
        # for bipartite sequences the plain constant is monotone as well
        quad = preset("two_p_angulation", p=2).weights
        cs = [solve_boltzmann(quad, g=g).c_plus for g in gs]
        assert all(a < b for a, b in zip(cs, cs[1:]))

    def test_uniqueness_probe(self):
        starts = [(2.5, 0.0), (3.0, 0.5), (3.0, -0.5), (5.0, 0.9),
                  (2.2, -0.9), (4.0, 0.3), (6.0, -0.3), (3.5, 0.0)]
        sols = [solve_boltzmann(TRI, initial=(c0, r0)) for c0, r0 in starts]
        c0, r0 = sols[0].c_plus, sols[0].r
        for cd in sols[1:]:
            assert cd.c_plus == pytest.approx(c0, abs=1e-9)
            assert cd.r == pytest.approx(r0, abs=1e-9)

    def test_harmonicity_of_solution(self):
        # the decisive invariant: the solved constants make h(0,.) and
        # h(1,.) harmonic for the full two-sided law
        cd = solve_boltzmann(QUAD)
        pos = nu_from_q(QUAD, cd.c_plus, cd.r)
        law = complete_nu(pos, k_neg=256)
        for k in range(1, 31):
            assert harmonic_residual(law, 0, k) <= 1e-8
            assert harmonic_residual(law, 1, k) <= 1e-8

    def test_mixed_support_critical_tuned(self):
        shape = WeightSequence({3: Fraction(1), 4: Fraction(1)})
        t = tune_critical(shape)
        cd = t.data
        pos = nu_from_q(shape.scaled(t.t_star), cd.c_plus, cd.r)
        law = complete_nu(pos, k_neg=128)
        for k in range(1, 20):
            assert harmonic_residual(law, 1, k) <= 1e-8

    def test_invalid_input(self):
        with pytest.raises(ValueError):
            solve_boltzmann(WeightSequence({2: Fraction(1, 2)}))

    def test_evaluation_count(self, monkeypatch):
        # the first start lands on the inadmissible mirror; the solver
        # reflects it through the verdict's boundary point at once instead of
        # running the remaining starts first
        calls = []
        sums = criticality._System._sums

        def counted(self, *args):
            calls.append(1)
            return sums(self, *args)

        monkeypatch.setattr(criticality._System, "_sums", counted)
        cd = solve_boltzmann(preset("odd_angulation", p=2).weights, g=0.99)
        assert cd.classification == "subcritical"
        assert cd.residuals["path"] == "newton"
        assert 0 < len(calls) <= 150

    @pytest.mark.parametrize("g,bound", [(1.0, 15), (0.9, 30)])
    def test_bipartite_evaluation_count(self, g, bound, monkeypatch):
        # one boundary point on the r = 1 margin curve and the margin of q
        # there decide a bipartite input; a subcritical one adds one Newton
        # on R2
        calls = []
        sums = criticality._System._sums

        def counted(self, *args):
            calls.append(1)
            return sums(self, *args)

        monkeypatch.setattr(criticality._System, "_sums", counted)
        cd = solve_boltzmann(QUAD, g=g)
        assert cd.residuals["path"] == ("bipartite-critical" if g == 1.0
                                        else "bipartite-subcritical")
        assert 0 < len(calls) <= bound

    @pytest.mark.parametrize("support", [{4: Fraction(1, 10**12)},
                                         {3: Fraction(1, 10**12)}])
    def test_root_below_the_floor_raises(self, support):
        # c_+ = 2 + O(q) lies below the floor 2 + 1e-9 for weights this
        # small; both parities refuse instead of answering another point
        with pytest.raises(SolverFailureError):
            solve_boltzmann(WeightSequence(support))

    def test_exact_jacobian_evaluation_count(self, monkeypatch):
        # the Jacobian comes with the residuals from one series pass per
        # order, so an iteration costs no extra pass per coordinate
        calls = []
        sums = criticality._System._sums

        def counted(self, *args):
            calls.append(1)
            return sums(self, *args)

        monkeypatch.setattr(criticality._System, "_sums", counted)
        cd = solve_boltzmann(preset("odd_angulation", p=2).weights, g=0.99)
        assert cd.residuals["path"] == "newton"
        assert 0 < len(calls) <= 45


class TestDeformedHeavyTail:
    """The solver on a deformed heavy-tailed family, whose tail ratio puts
    c_max where the series cannot be materialized: its boundary sits at
    the radius of convergence, past the largest c where the series can be
    evaluated (the clamp of `_bounds`)."""

    @staticmethod
    def clamp(q, g):
        return criticality._bounds(criticality._System(q.deformed(g)))[1][0]

    @pytest.mark.parametrize("g", [0.5, 0.9, 0.99])
    def test_subcritical(self, g):
        q = preset("symmetric_critical", r=1.0, a=math.pi / 4).weights
        cd = solve_boltzmann(q, g=g)
        assert cd.classification == "subcritical"
        assert cd.residuals["path"] == "bipartite-subcritical"
        assert abs(cd.residuals["R2"]) <= 1e-12
        assert cd.margin > 0.1
        # c_+(g) increases to sqrt(2 / nu(-2)) = sqrt(6) at g = 1
        assert 2.0 < cd.c_plus < math.sqrt(6.0)
        pinned = {0.5: 2.107243151757946, 0.9: 2.287001585594778,
                  0.99: 2.4038355150201505}[g]
        assert cd.c_plus == pytest.approx(pinned, rel=1e-12, abs=0)

    @pytest.mark.parametrize("g", [0.999, 0.9999, 0.999999])
    def test_undecidable_near_criticality_raises(self, g):
        # the boundary lies past the clamp and R2 is still positive there:
        # the solver cannot tell a critical from a subcritical point, and
        # says where it stopped looking
        q = preset("symmetric_critical", r=1.0, a=math.pi / 4).weights
        with pytest.raises(DivergentSeriesError,
                           match=f"c={self.clamp(q, g):.6g}, the largest c"):
            solve_boltzmann(q, g=g)

    @pytest.mark.parametrize("g,c", [(0.5, 3.739963565377623),
                                     (0.9, 3.846427275270941),
                                     (0.95, 3.9096573625471143)])
    def test_general_subcritical(self, g, c):
        q = preset("symmetric_critical", r=0.5, a=0.5).weights
        cd = solve_boltzmann(q, g=g)
        assert (cd.classification, cd.residuals["path"]) == ("subcritical",
                                                             "newton")
        assert cd.c_plus == pytest.approx(c, rel=1e-12, abs=0)

    @pytest.mark.parametrize("g", [0.98, 0.99, 0.999, 0.9999, 0.999999])
    def test_general_root_past_the_clamp_raises(self, g):
        # a g < 1 deformation of a critical sequence is subcritical, but its
        # root lies past the clamp, where no start and no boundary point
        # can reach it: a refusal naming the clamp, not 'not_admissible'
        q = preset("symmetric_critical", r=0.5, a=0.5).weights
        with pytest.raises(DivergentSeriesError,
                           match=f"c={self.clamp(q, g):.6g}, the largest c"):
            solve_boltzmann(q, g=g)


class TestClassify:
    def test_quadrangulation_regular(self):
        cd = solve_boltzmann(QUAD)
        assert classify(QUAD, cd) == "regular_critical"

    def test_symmetric_non_regular(self):
        res = preset("symmetric_critical", r=1.0, a=math.pi / 4)
        cd = solve_boltzmann(res.weights)
        assert cd.classification == "critical_non_regular"
        assert abs(cd.margin) <= 1e-8

    def test_subcritical_label(self):
        cd = solve_boltzmann(SUB)
        assert classify(SUB, cd) == "subcritical"


class TestMiermont:
    def test_quadrangulation(self):
        cd = solve_boltzmann(QUAD)
        rep = miermont_check(QUAD, cd)
        assert rep.A0 == pytest.approx(0.0, abs=1e-14)
        assert rep.A1 == pytest.approx(1.0, abs=1e-10)
        assert abs(rep.f_dot_residual) <= 1e-8
        assert abs(rep.f_diamond_residual) <= 1e-8
        assert rep.ok

    def test_triangulation_equality(self):
        cd = solve_boltzmann(TRI)
        rep = miermont_check(TRI, cd)
        assert rep.scalar == pytest.approx(1.0, abs=1e-8)
        assert abs(rep.f_dot_residual) <= 1e-8
        assert abs(rep.f_diamond_residual) <= 1e-8

    def test_subcritical_strict(self):
        cd = solve_boltzmann(SUB)
        rep = miermont_check(SUB, cd)
        assert rep.scalar < 1.0 - 1e-3
        assert rep.ok

    def test_geometric(self):
        w = preset("geometric", H=3.0).weights
        cd = solve_boltzmann(w)
        rep = miermont_check(w, cd)
        assert abs(rep.f_dot_residual) <= 1e-8
        assert abs(rep.f_diamond_residual) <= 1e-8
        assert rep.scalar == pytest.approx(1.0, abs=1e-7)

    def test_not_admissible_reported(self):
        cd = solve_boltzmann(WeightSequence({4: Fraction(1)}))
        rep = miermont_check(WeightSequence({4: Fraction(1)}), cd)
        assert not rep.ok


def exact_inner_sums(zp, zd, n):
    """The four inner binomial sums in rational arithmetic."""
    fd = fdot = dx = dy = Fraction(0)
    for k in range(n // 2 + 1):
        rest = n - 2 * k
        base = math.comb(n, k) * math.comb(n - k, k)
        fd += base * zp**k * zd**rest
        fdot += math.comb(n + 1, k + 1) * math.comb(n - k, k) * zp**k * zd**rest
        if k >= 1:
            dx += k * base * zp ** (k - 1) * zd**rest
        if rest >= 1:
            dy += rest * base * zp**k * zd ** (rest - 1)
    return fd, fdot, dx, dy


class TestInnerSums:
    @pytest.mark.parametrize("zp,zd", [
        (Fraction(1, 2), Fraction(3, 4)),
        (Fraction(1, 20), Fraction(7, 5)),
        (Fraction(9, 8), Fraction(1, 1000)),
        (Fraction(2), Fraction(0)),  # r = 1
    ])
    def test_against_exact(self, zp, zd):
        for n in range(0, 61):
            got = criticality._inner_sums_block(float(zp), float(zd), [n])[0]
            for g, e in zip(got, exact_inner_sums(zp, zd, n)):
                assert abs(g - float(e)) <= 1e-12 * abs(float(e)), (n, g, e)

    @pytest.mark.parametrize("zp,zd", [
        (Fraction(1, 20), Fraction(7, 5)),
        (Fraction(2), Fraction(0)),  # r = 1
    ])
    def test_block_against_exact(self, zp, zd):
        # the degrees as miermont_check hands them over: whole blocks of
        # 64 (the second ends past n = 127, the third starts at 128), and
        # blocks that skip degrees, as a finite support's do
        exact = {n: [float(e) for e in exact_inner_sums(zp, zd, n)]
                 for n in range(0, 131)}
        blocks = [range(0, 64), range(64, 128), range(128, 131),
                  range(0, 131), [3, 5, 60, 64, 65, 127, 130], [129]]
        for ns in blocks:
            got = criticality._inner_sums_block(float(zp), float(zd), list(ns))
            assert got.shape == (len(ns), 4)
            for n, row in zip(ns, got.tolist()):
                for g, e in zip(row, exact[n]):
                    assert abs(g - e) <= 1e-12 * abs(e), (n, g, e)


def reference_inner_sums(zp, zd, n):
    """The inner sums of one total degree in their own numpy pass, as
    `miermont_check` computed them before it took a block of degrees at a
    time."""
    lf = criticality._log_factorials(n)
    k = np.arange(n // 2 + 1)
    rest = n - 2 * k
    log_zd = math.log(zd) if zd > 0.0 else -math.inf
    log_b = lf[n] - 2.0 * lf[k] - lf[rest] + k * math.log(zp)

    def log_power(e, log_z):
        out = np.zeros(len(e))
        np.multiply(e, log_z, out=out, where=e > 0)
        return out

    # the overflow exit's inf terms meet k = 0 in np.dot (inf * 0)
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.exp(log_b + log_power(rest, log_zd))
        fd = float(t.sum())
        fdot = float(np.dot(t, (n + 1.0) / (k + 1.0)))
        dx = float(np.dot(t, k)) / zp
        tail = rest >= 1
        dy = float(np.dot(rest[tail], np.exp(
            log_b[tail] + log_power(rest[tail] - 1, log_zd))))
    return fd, fdot, dx, dy


def reference_miermont(q, cd, tol=1e-8, n_max=4000):
    """`miermont_check` degree by degree: the inner sums of each total
    degree computed when the loop reaches it."""
    from peelkit.seriesutil import richardson_limit

    zp, zd = cd.z_plus, cd.z_diamond
    heavy = bool(q.family and q.family[0] == "symmetric_critical")
    n_hi = q.max_support if q.is_finite else (512 if heavy else n_max)
    acc = np.zeros(4)
    trunc = 0.0
    messages = []
    ckpt_ns = [n for n in (64, 128, 256, 512) if n <= n_hi]
    ckpts = []
    prev_term = math.inf
    small_streak = 0
    for n in range(0, n_hi + 1):
        q1 = float(q.value(n + 1))
        q2 = float(q.value(n + 2))
        if q1 != 0.0 or q2 != 0.0:
            fd, fdot, dx, dy = reference_inner_sums(zp, zd, n)
            if fd > 1e280 or fdot > 1e280:
                messages.append("inner sums overflow before the tail "
                                "certifies; truncation estimated")
                trunc = max(trunc, prev_term * n)
                break
            acc += (q1 * fd, q2 * fdot, 0.5 * q1 * dx, q1 * dy)
            term = q1 * fd + q2 * fdot
            if term > 1e6:
                messages.append("divergent truncation; input looks inadmissible")
                return dict(f_dot_residual=math.nan, f_diamond_residual=math.nan,
                            A0=math.nan, A1=math.nan,
                            A1_plus_2sqrtzp_A0=math.nan, truncation=math.inf,
                            ok=False, messages=messages)
            small_streak = small_streak + 1 if term < 1e-15 else 0
            if not q.is_finite and not heavy and n > 64 and small_streak >= 2:
                trunc = max(term, prev_term) * 10.0
                break
            prev_term = max(term, 1e-300)
        if n in ckpt_ns:
            ckpts.append(acc.copy())
    else:
        if not q.is_finite and not heavy:
            trunc = prev_term * n_hi
    if heavy and len(ckpts) == len(ckpt_ns) >= 3:
        expos = [0.5, 1.5, 2.5][: len(ckpt_ns) - 1]
        fine = np.array([richardson_limit(ckpt_ns, [c[i] for c in ckpts], expos)
                         for i in range(4)])
        coarse = np.array([richardson_limit(ckpt_ns[:-1],
                                            [c[i] for c in ckpts[:-1]],
                                            expos[:-1]) for i in range(4)])
        trunc = float(np.max(np.abs(fine - coarse)))
        acc = fine
        messages.append("heavy tail: partial sums extrapolated")
    f_diamond, f_dot, A0, A1 = acc
    scalar = float(A1 + 2.0 * math.sqrt(zp) * A0)
    res_dot = float(f_dot - (1.0 - 1.0 / zp))
    res_dia = float(f_diamond - zd)
    ok = bool(abs(res_dot) <= tol + trunc and abs(res_dia) <= tol + trunc
              and scalar <= 1.0 + tol + trunc)
    return dict(f_dot_residual=res_dot, f_diamond_residual=res_dia,
                A0=float(A0), A1=float(A1), A1_plus_2sqrtzp_A0=scalar,
                truncation=float(trunc), ok=ok, messages=messages)


def assert_same_report(got, want):
    assert got["ok"] == want["ok"]
    assert got["messages"] == want["messages"]
    for key, w in want.items():
        if key in ("ok", "messages"):
            continue
        g = got[key]
        same = (math.isnan(g) and math.isnan(w)) or g == w
        assert same or abs(g - w) <= 1e-14, (key, g, w)


def _synthetic(z_plus, z_diamond):
    """Critical data with the given (z+, z_diamond), for driving
    miermont_check into its exits."""
    return criticality.CriticalData(
        c_plus=3.0, c_minus=0.0, r=0.0, z_plus=z_plus, z_diamond=z_diamond,
        margin=0.0, classification="critical")


class TestMiermontBlocks:
    """The block pass gives the per-degree reports: same ok and messages,
    every value within 1e-14."""

    @pytest.mark.parametrize("name,params", [
        ("geometric", {"H": 3.0}),
        ("symmetric_critical", {"r": 1.0, "a": math.pi / 4}),
        ("odd_angulation", {"p": 2}),
    ])
    def test_presets(self, name, params):
        q = preset(name, **params).weights
        cd = solve_boltzmann(q)
        rep = miermont_check(q, cd).to_report()
        assert_same_report(rep, reference_miermont(q, cd))
        assert rep["ok"]
        if name == "symmetric_critical":
            assert rep["messages"] == ["heavy tail: partial sums extrapolated"]

    def test_tuned_finite_shape(self):
        shape = WeightSequence({3: Fraction(1), 4: Fraction(2),
                                7: Fraction(1, 3)})
        t = tune_critical(shape)
        q = shape.scaled(t.t_star)
        rep = miermont_check(q, t.data).to_report()
        assert_same_report(rep, reference_miermont(q, t.data))
        assert rep["ok"]

    # The exits below stop the loop early in a block whose later rows
    # overflow; under the test session's error::RuntimeWarning:peelkit
    # filter those rows must neither warn nor reach the report.

    def test_inner_sums_overflow(self):
        q = WeightSequence({3: 1e-10, 300: 1e-290})
        cd = _synthetic(1e4, 1e4)
        rep = miermont_check(q, cd).to_report()
        assert rep["messages"] == [
            "inner sums overflow before the tail certifies; "
            "truncation estimated"]
        assert_same_report(rep, reference_miermont(q, cd))

    @pytest.mark.parametrize("q", [
        WeightSequence({4: 1.0, 40: 1e-300}),
        preset("geometric", H=3.0).weights,
    ], ids=["finite", "geometric"])
    def test_divergent_truncation(self, q):
        cd = _synthetic(1e30, 10.0)
        rep = miermont_check(q, cd).to_report()
        assert rep["messages"] == [
            "divergent truncation; input looks inadmissible"]
        assert not rep["ok"] and rep["truncation"] == math.inf
        assert_same_report(rep, reference_miermont(q, cd))


class TestTune:
    def test_symmetric_family_refused(self, monkeypatch):
        # critical at t* = 1 by construction: refused before any series pass
        def no_pass(*args):
            raise AssertionError("a series pass ran")

        monkeypatch.setattr(criticality._System, "_sums", no_pass)
        for r, a in ((1.0, math.pi / 4), (0.5, 0.5)):
            with pytest.raises(ValueError, match=r"critical at t\* = 1 by "
                                                 "construction"):
                tune_critical(preset("symmetric_critical", r=r, a=a).weights)

    def test_quadrangulation_scale(self):
        t = tune_critical(WeightSequence({4: Fraction(1)}))
        assert t.t_star == pytest.approx(1 / 12, rel=1e-10)
        assert t.data.classification == "regular_critical"
        assert t.data.c_plus == pytest.approx(2 * math.sqrt(2), rel=1e-9)

    def test_triangulation_scale(self):
        t = tune_critical(WeightSequence({3: Fraction(1)}))
        assert t.t_star == pytest.approx(1.0 / math.sqrt(12 * math.sqrt(3)), rel=1e-10)

    def test_mixed_support(self):
        shape = WeightSequence({3: Fraction(1), 4: Fraction(1)})
        t = tune_critical(shape)
        cd = solve_boltzmann(shape.scaled(t.t_star))
        assert abs(cd.margin) <= 1e-6
        rep = miermont_check(shape.scaled(t.t_star), t.data)
        assert rep.scalar == pytest.approx(1.0, abs=1e-7)

    def test_boundary_error(self):
        from peelkit.errors import BoundaryNotFoundError
        with pytest.raises((BoundaryNotFoundError, ValueError)):
            tune_critical(WeightSequence({2: Fraction(1)}))

    def test_large_tstar(self):
        # t* far above 1: on the margin surface the scale of the shape
        # does not enter the Newton system
        t = tune_critical(LARGE_TSTAR)
        assert t.t_star == pytest.approx(1.7503235798e7, rel=1e-9)
        assert abs(t.data.residuals["R1"]) <= 1e-12
        assert abs(t.data.residuals["R2"]) <= 1e-12
        cd = solve_boltzmann(LARGE_TSTAR.scaled(t.t_star))
        assert cd.classification == "regular_critical"
        cd = solve_boltzmann(LARGE_TSTAR.scaled(0.9 * t.t_star))
        assert cd.classification == "subcritical"

    def test_evaluation_count(self, monkeypatch):
        # failing Newton starts must give up on stalling line searches
        # instead of running to the iteration cap
        calls = []
        residuals = criticality._System.residuals

        def counted(self, c, r):
            calls.append(1)
            return residuals(self, c, r)

        monkeypatch.setattr(criticality._System, "residuals", counted)
        tune_critical(WeightSequence({3: Fraction(1), 4: Fraction(1)}))
        assert 0 < len(calls) <= 2000

    def test_series_pass_count(self, monkeypatch):
        # a non-bipartite shape is tuned by one damped Newton on the margin
        # surface and a second round that starts at its root, two series
        # passes per point, with no scale bracket
        calls = []
        sums = criticality._System._sums

        def counted(self, *args):
            calls.append(1)
            return sums(self, *args)

        monkeypatch.setattr(criticality._System, "_sums", counted)
        t = tune_critical(WeightSequence({3: Fraction(1, 3), 5: Fraction(2),
                                          8: Fraction(1, 3)}))
        assert t.data.classification == "regular_critical"
        assert t.data.residuals["path"] == "tune-margin-surface"
        assert 0 < len(calls) <= 40

    @pytest.mark.parametrize("a", [Fraction(1), Fraction(3, 7), Fraction(5, 2)])
    def test_zero_side_stops(self, a, monkeypatch):
        # the quadrangulation shapes {4: a} tune to t* = 1 / (12 a) at
        # c = 2 sqrt 2 in one bracket walk and a few Newton steps on R2
        # along the margin curve, two series passes per point
        calls = []
        sums = criticality._System._sums

        def counted(self, *args):
            calls.append(1)
            return sums(self, *args)

        monkeypatch.setattr(criticality._System, "_sums", counted)
        t = tune_critical(WeightSequence({4: a}))
        assert t.t_star == pytest.approx(1 / (12 * a), rel=1e-12)
        assert abs(t.t_star - 1 / (12 * a)) <= 2e-15 * (1 / (12 * a))
        assert 0 < len(calls) <= 24

    def test_tiny_bipartite_weights(self):
        # R2 on the margin curve does not depend on the scale of the
        # shape, so the walk in c finds t* = 1 / (12e-20) as for {4: 1}
        t = tune_critical(WeightSequence({4: Fraction(1, 10**20)}))
        assert t.t_star == pytest.approx(10**20 / 12, rel=1e-12)
        assert t.data.c_plus == pytest.approx(2 * math.sqrt(2), rel=1e-12)
        assert t.data.classification == "regular_critical"
        assert t.data.residuals["path"] == "tune-margin-root"

    @pytest.mark.parametrize("support,unit", [
        ({3: Fraction(1, 10**10)}, {3: 1}),
        ({3: 1e-20}, {3: 1}),
        ({3: 1e-20, 4: 1e-20}, {3: 1, 4: 1}),
    ])
    def test_tiny_weights(self, support, unit):
        # the margin surface does not depend on the scale of the shape, so
        # weights far below the boundary tune to the unit shape's t* over
        # their scale
        scale = next(iter(support.values()))
        t = tune_critical(WeightSequence(support))
        want = tune_critical(WeightSequence(
            {k: Fraction(v) for k, v in unit.items()})).t_star / scale
        assert t.t_star == pytest.approx(want, rel=1e-12)
        assert t.data.classification == "regular_critical"
        assert t.data.residuals["path"] == "tune-margin-surface"

    def test_tiny_family(self):
        # the sums of a * 0.45^k at a = 1e-20 lie far below 1, where the
        # series' tail cut is absolute and too coarse for the first round;
        # the second round, on the system of t0 * shape, tunes it to the
        # t* of a = 1 over a
        def family(a):
            return WeightSequence(gen=lambda k: a * 0.45**k if k >= 3 else 0.0,
                                  tail_ratio=0.45, tail_start=3)

        t = tune_critical(family(1e-20))
        assert t.t_star == pytest.approx(tune_critical(family(1.0)).t_star / 1e-20,
                                         rel=1e-11)
        assert t.data.residuals["path"] == "tune-margin-surface"

    @pytest.mark.parametrize("a", [1e-10, 1e10])
    def test_bipartite_family_scale(self, a):
        # q_k = a 0.4^k on even k converges only for c < 2.5: the tuner's
        # walk stays inside that range and t* scales as 1 / a
        def family(a):
            return WeightSequence(gen=lambda k: a * 0.4**k if k % 2 == 0 else 0.0,
                                  tail_ratio=0.4, tail_start=1)

        t = tune_critical(family(a))
        assert t.t_star == pytest.approx(tune_critical(family(1.0)).t_star / a,
                                         rel=1e-12)
        assert t.data.classification == "critical"

    @pytest.mark.parametrize("p", range(2, 13))
    def test_two_p_angulation_weight(self, p):
        # {2p: 1} tunes to the closed-form critical weight of the
        # 2p-angulations
        exact = preset("two_p_angulation", p=p).weights.support[2 * p]
        t = tune_critical(WeightSequence({2 * p: Fraction(1)}))
        assert abs(t.t_star - float(exact)) <= 2e-15 * float(exact)

    def test_boundary_point_count(self, monkeypatch):
        # the bipartite verdict's boundary point, on the boundary and
        # beyond it: Newton returns on a converged step even when that step
        # rounds onto the end of its bracket, instead of falling back to
        # bisection and walking back to the same root
        shape = WeightSequence({6: Fraction(1), 8: Fraction(1)})
        t_star = tune_critical(shape).t_star
        calls = []
        sums = criticality._System._sums

        def counted(self, *args):
            calls.append(1)
            return sums(self, *args)

        monkeypatch.setattr(criticality._System, "_sums", counted)
        for s in (1.0, 1.1):
            calls.clear()
            solve_boltzmann(shape.scaled(s * t_star))
            assert 0 < len(calls) <= 20

    def test_h_table_builds(self, monkeypatch):
        # the solver systems keep one h table per order and ratio instead
        # of building a fresh one per evaluation; counted from empty
        # process-wide caches, which earlier tests may have filled, over
        # both homes of a build: shared tables and a finite support's lists
        hfun._shared_float_cache.cache_clear()
        criticality._h_lists.cache_clear()
        calls = []
        grow = HCache._grow_float
        build = criticality.recurrence_list

        def counted(self, k, n):
            calls.append(k)
            return grow(self, k, n)

        def counted_list(r, k, size):
            calls.append(k)
            return build(r, k, size)

        monkeypatch.setattr(HCache, "_grow_float", counted)
        monkeypatch.setattr(criticality, "recurrence_list", counted_list)
        tune_critical(WeightSequence({4: Fraction(1), 6: Fraction(1)}))
        assert 0 < len(calls) <= 100


# supports with one far degree: its q_{k+2} c^k overflows at the first
# start's c = 2 sqrt(400), or every start lies far above the root; the
# bipartite two overflow at any large c a verdict might read
FAR_DEGREE = [
    {3: Fraction(1, 5), 6: Fraction(1, 4), 400: Fraction(1, 10**300)},
    {3: Fraction(1, 1000), 200: Fraction(1, 10**100)},
    {4: Fraction(1, 5), 400: Fraction(1, 10**300)},
    {4: Fraction(1, 20), 200: Fraction(1, 10**100)},
]


class TestBeyondBoundary:
    @pytest.mark.parametrize("support", [
        {3: 1, 4: 1}, {3: 1}, {3: 1, 6: 1}, {3: 2, 5: 1, 7: 3}, {4: 1, 6: 1},
        FAR_DEGREE[0],
    ])
    def test_not_admissible_not_raised(self, support):
        # past the fold the two roots of (R1, R2) have merged: the margin
        # is negative at the boundary point (R2 positive at the margin root
        # in c for the bipartite support), and the verdict says so
        shape = WeightSequence({k: Fraction(v) for k, v in support.items()})
        t = tune_critical(shape)
        cd = solve_boltzmann(shape.scaled(1.1 * t.t_star))
        assert cd.classification == "not_admissible"
        assert cd.residuals["path"] == "fold-beyond"

    def test_infinite_support(self):
        cd = solve_boltzmann(preset("geometric", H=3.0).weights.scaled(1.1))
        assert cd.classification == "not_admissible"
        assert cd.residuals["path"] == "fold-beyond"

    def test_evaluation_count(self, monkeypatch):
        # the fold verdict answers after the first failed Newton start
        # instead of running every start and a scan in r, also where the
        # input lies so far beyond the boundary that (R1, margin) at
        # scale 1 has no root
        calls = []
        sums = criticality._System._sums

        def counted(self, *args):
            calls.append(1)
            return sums(self, *args)

        for support, s in (({3: 1, 4: 1}, 1.1), ({3: 1}, 2.0)):
            shape = WeightSequence({k: Fraction(v) for k, v in support.items()})
            q = shape.scaled(s * tune_critical(shape).t_star)
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(criticality._System, "_sums", counted)
                assert solve_boltzmann(q).classification == "not_admissible"
            assert 0 < len(calls) <= 2000

    @pytest.mark.parametrize("support", FAR_DEGREE)
    @pytest.mark.parametrize("s", [0.9, 0.5])
    def test_far_degree_below_the_boundary(self, support, s):
        # the first start overflows or finds no root at all; the main
        # Newton from the boundary point finds it (a bipartite support
        # takes the smaller root of R2 below its boundary point)
        shape = WeightSequence(support)
        q = shape.scaled(s * tune_critical(shape).t_star)
        cd = solve_boltzmann(q)
        assert cd.classification == "subcritical"
        assert cd.margin > 0
        assert abs(cd.residuals["R1"]) <= 1e-9
        assert abs(cd.residuals["R2"]) <= 1e-9

    @pytest.mark.parametrize("support", FAR_DEGREE)
    @pytest.mark.parametrize("s", [1.0, 1.1, 2.0, 3.0])
    def test_far_degree_on_and_beyond_the_boundary(self, support, s):
        # the far degree's terms overflow at the large c where a scale 1
        # verdict could look; the boundary point does not depend on the
        # scale, so every scale gets its answer
        shape = WeightSequence(support)
        cd = solve_boltzmann(shape.scaled(s * tune_critical(shape).t_star))
        assert cd.classification == ("regular_critical" if s == 1.0
                                     else "not_admissible")

    def test_no_fold_point_is_no_verdict_yet(self, monkeypatch):
        # the first Newton start fails on this subcritical input; the
        # verdict's boundary point has slack (t > 1), so the remaining
        # starts and the reflection run and find the root
        shape = WeightSequence({3: Fraction(1, 3), 5: Fraction(2),
                                8: Fraction(1, 3)})
        q = shape.scaled(0.5 * tune_critical(shape).t_star)
        folds = []
        boundary = criticality._boundary

        def spied(*args):
            folds.append(boundary(*args))
            return folds[-1]

        monkeypatch.setattr(criticality, "_boundary", spied)
        cd = solve_boltzmann(q)
        # the first call is the verdict
        assert folds[0] is not None and 1.0 - 1.0 / folds[0][1] > 1e-9
        # from the solver's own starts alone the verdict finds the same
        # boundary point
        monkeypatch.setattr(criticality, "_FOLD_STARTS", ())
        n = len(folds)
        cd_own = solve_boltzmann(q)
        assert folds[n] is not None
        assert folds[n][1] == pytest.approx(folds[0][1], rel=1e-12)
        # a verdict that finds no boundary point must not end the solve
        calls = []

        def none_first(*args):
            calls.append(1)
            return None if len(calls) == 1 else boundary(*args)

        monkeypatch.setattr(criticality, "_boundary", none_first)
        cd_none = solve_boltzmann(q)
        assert calls
        for data in (cd, cd_own, cd_none):
            assert data.classification == "subcritical"
            assert data.residuals["path"] == "newton"
            assert data.c_plus == pytest.approx(2.0857210399167836, rel=1e-12)
            assert data.r == pytest.approx(0.9573250898242095, rel=1e-12)


_weights = st.builds(Fraction, st.integers(1, 9), st.integers(1, 9))


@settings(max_examples=5, derandomize=True, deadline=None, database=None)
@given(st.dictionaries(st.integers(3, 8), _weights, min_size=2, max_size=3))
def test_tuned_shape_brackets_the_boundary(support):
    shape = WeightSequence(support)
    t = tune_critical(shape)
    below = solve_boltzmann(shape.scaled(0.9 * t.t_star))
    assert below.classification == "subcritical"
    for data in (t.data, solve_boltzmann(shape.scaled(t.t_star))):
        assert abs(data.residuals["R1"]) <= 1e-9
        assert abs(data.residuals["R2"]) <= 1e-9
    beyond = solve_boltzmann(shape.scaled(1.1 * t.t_star))
    assert beyond.classification == "not_admissible"



@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(st.dictionaries(st.sampled_from([4, 6, 8, 10, 12]), _weights,
                       min_size=1, max_size=3))
def test_tuned_bipartite_shape_sits_on_the_boundary(support):
    # at t* both R2 and the margin vanish at r = 1; the solver finds the
    # shape subcritical below t* and beyond the boundary above it
    shape = WeightSequence(support)
    t = tune_critical(shape)
    sys = criticality._System(shape.scaled(t.t_star))
    assert abs(t.data.residuals["R2"]) <= 1e-12
    assert abs(sys.margin(t.data.c_plus, 1.0)) <= 1e-12
    below = solve_boltzmann(shape.scaled(0.9 * t.t_star))
    assert below.classification == "subcritical"
    beyond = solve_boltzmann(shape.scaled(1.1 * t.t_star))
    assert beyond.classification == "not_admissible"


@settings(max_examples=6, derandomize=True, deadline=None, database=None)
@given(st.dictionaries(st.integers(3, 8), _weights, min_size=1, max_size=3))
def test_completion_chain_on_tuned_shapes(support):
    # tune -> solve -> nu -> completed law: the solved constants make h(0, .)
    # and h(1, .) harmonic, the kernel reproduces nu(-2) = 2 / c^2, the
    # mobile fixed point agrees, and the weights come back from nu
    q = WeightSequence(support).scaled(tune_critical(WeightSequence(support)).t_star)
    cd = solve_boltzmann(q)
    assert miermont_check(q, cd).ok
    pos = nu_from_q(q, cd.c_plus, cd.r)
    law = complete_nu(pos, k_neg=256)
    assert abs(law.nu(-2) - 2.0 / cd.c_plus**2) <= 1e-9
    for k in range(1, 31):
        assert harmonic_residual(law, 0, k) <= 1e-8
        assert harmonic_residual(law, 1, k) <= 1e-8
    back = q_from_nu(pos)
    assert set(back.support) == set(q.support)
    for d in q.support:
        assert back.value(d) == pytest.approx(float(q.value(d)), rel=1e-12)

_finite_supports = st.dictionaries(st.integers(3, 12), _weights, min_size=1,
                                   max_size=4)


def numpy_sums(q, c, r, order, shifts):
    """The series by numpy dot products over `positive_terms`' terms, with
    h from the shared float table and dh/dr from `hfun.derivative_list`:
    (tab, dtab, [(S_j, dS_j/dc, dS_j/dr)])."""
    ks, vals, _ = q.positive_terms(c)
    tab = hfun.shared_cache(r).table(order, ks[-1] + 2)
    dtab = np.array(hfun.derivative_list(
        hfun.recurrence_list(r, order, len(tab)), r, order))
    out = []
    for j in shifts:
        # h(order, k + j) = tab[k + j - order], zero below the order
        idx = ks + (j - order)
        lo = int(np.searchsorted(idx, 0))
        v, i = vals[lo:], idx[lo:]
        out.append((float(np.dot(v, tab[i])),
                    float(np.dot(ks[lo:] * v, tab[i])) / c,
                    float(np.dot(v, dtab[i]))))
    return tab, dtab, out


def assert_matches_numpy(q, c, r, order, shifts, got):
    """got, the (S_j, dS_j/dc, dS_j/dr) of `_sums`, within 1e-13 of
    `numpy_sums` times the sum of the absolute terms of each sum."""
    tab, dtab, want = numpy_sums(q, c, r, order, shifts)
    ks, vals, _ = q.positive_terms(c)
    for j, (s, s_c, s_r), (w, w_c, w_r) in zip(shifts, got, want):
        idx = ks + (j - order)
        on = idx >= 0
        v, i = vals[on], idx[on]
        for a, b, scale in (
                (s, w, np.abs(v * tab[i]).sum()),
                (s_c, w_c, np.abs(ks[on] * v * tab[i]).sum() / c),
                (s_r, w_r, np.abs(v * dtab[i]).sum())):
            assert abs(a - b) <= 1e-13 * scale


class TestPlainFloatPass:
    """A finite support's series are summed in plain floats; an infinite
    family's in one compiled pass.  Both agree with numpy dot products, and
    the finite one calls no numpy, BLAS or compiled code."""

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(_finite_supports,
           st.floats(0.3, 5.0, exclude_min=True, exclude_max=True),
           st.floats(-0.99, 1.0, exclude_min=True))
    def test_matches_numpy_pass(self, support, c, r):
        # values and c/r-derivatives within 1e-13 of the sum of the
        # absolute terms; the h list bit-identical to the shared float
        # table and the dh/dr list to `hfun.derivative_list` at orders 0
        # and 1
        q = WeightSequence(support)
        plain = criticality._System(q)
        for order, shifts in ((0, (1, 2)), (1, (1,))):
            h, dh, got = plain._sums(c, r, order, shifts, True)
            n = len(h)
            assert np.array(h).tobytes() == hfun.shared_cache(r).table(
                order, order + n - 1)[:n].tobytes()
            assert np.array(dh).tobytes() == np.array(hfun.derivative_list(
                hfun.recurrence_list(r, order, n), r, order)).tobytes()
            assert_matches_numpy(q, c, r, order, shifts, got)

    def test_finite_calls_no_numpy(self, monkeypatch):
        # counted only inside _System._sums: the shared h cache, the
        # compiled library's loader, np.dot and the series pass (compiled,
        # or its reference where the library is not used); an infinite
        # family runs the pass and no dot product
        inside = [0]
        seen = {"sums": 0, "shared_cache": 0, "library": 0, "dot": 0,
                "pass": 0}
        sums = criticality._System._sums

        def counted_sums(self, *args):
            seen["sums"] += 1
            inside[0] += 1
            try:
                return sums(self, *args)
            finally:
                inside[0] -= 1

        def counter(name, fn):
            def wrapped(*args, **kwargs):
                if inside[0]:
                    seen[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(criticality._System, "_sums", counted_sums)
        monkeypatch.setattr(hfun, "shared_cache",
                            counter("shared_cache", hfun.shared_cache))
        monkeypatch.setattr(_native, "library", counter("library", _native.library))
        monkeypatch.setattr(np, "dot", counter("dot", np.dot))
        lib = _native.library()[0]
        if lib is None:
            monkeypatch.setattr(criticality, "_series_py",
                                counter("pass", criticality._series_py))
        else:
            monkeypatch.setattr(lib, "series_sums",
                                counter("pass", lib.series_sums))

        assert solve_boltzmann(TRI).classification == "regular_critical"
        assert solve_boltzmann(SUB).classification == "subcritical"
        for support in ({4: Fraction(1), 6: Fraction(1)},
                        {3: Fraction(1, 3), 5: Fraction(2), 8: Fraction(1, 3)}):
            tune_critical(WeightSequence(support))
        assert seen["sums"] > 0
        assert seen == {"sums": seen["sums"], "shared_cache": 0, "library": 0,
                        "dot": 0, "pass": 0}

        solve_boltzmann(preset("geometric", H=3.0).weights)
        assert seen["library"] > 0 and seen["pass"] > 0
        assert seen["dot"] == 0 and seen["shared_cache"] == 0


@pytest.mark.parametrize("H", [1.5, 2.0, 3.0, 5.0, 8.0])
def test_geometric_closed_forms(H):
    # the regular critical geometric family: c_+, r and L_nu from the
    # series pass within 1e-12 of their closed forms
    res = preset("geometric", H=H)
    cd = solve_boltzmann(res.weights)
    assert cd.classification == "regular_critical"
    law = complete_nu(nu_from_q(res.weights, cd.c_plus, cd.r), k_neg=64)
    for key, got in (("c_plus", cd.c_plus), ("r", cd.r), ("L_nu", law.L_nu)):
        assert got == pytest.approx(res.constants[key], rel=1e-12, abs=0)


def gen_only(q):
    """q's twin without log weights: one generator call per degree."""
    return WeightSequence(gen=q.gen, tail_ratio=q.tail_ratio,
                          tail_start=q.tail_start)


_bases = (st.floats(1.2, 10.0).map(lambda H: preset("geometric", H=H).weights)
          | st.floats(1.2, 10.0).map(
              lambda H: gen_only(preset("geometric", H=H).weights))
          | st.sampled_from([(1.0, math.pi / 4), (0.5, 0.5)]).map(
              lambda ra: preset("symmetric_critical", r=ra[0], a=ra[1]).weights))
_families = st.one_of(
    _bases,
    st.tuples(_bases, st.floats(0.01, 1.0)).map(lambda qg: qg[0].deformed(qg[1])),
    st.tuples(_bases, st.sampled_from([1e-3, 0.3, 4.0, 1e3])).map(
        lambda qt: qt[0].scaled(qt[1])))


def family_pass(q, c, r, order, shifts, dr):
    """The bytes of `_family_sums`' sums on a new system of q, or the type
    and message of the error it raised."""
    try:
        _, _, out = criticality._System(q)._family_sums(c, r, order, shifts, dr)
    except (DivergentSeriesError, OverflowError) as exc:
        return type(exc), str(exc)
    return np.array([x for row in out for x in row if x is not None]).tobytes()


class TestSeriesPass:
    """An infinite family's series pass: the compiled loop and its Python
    reference agree bit for bit, raise alike, agree with numpy dot products
    and evaluate no generator weight past the cut."""

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(_families, st.floats(0.0, 0.95, exclude_min=True),
           st.floats(-0.99, 1.0, exclude_min=True),
           st.sampled_from([(0, (1, 2)), (0, (2,)), (1, (1,))]), st.booleans(),
           st.sampled_from([300, criticality.K_CAP]))
    def test_compiled_matches_reference(self, q, u, r, pass_, dr, k_cap):
        # c anywhere in (2, c_max); a k_cap of 300 leaves the slow tails
        # without a cut (DivergentSeriesError)
        if _native.library()[0] is None:
            pytest.skip("the compiled library is not used in this session")
        c = 2.0 + u * ((1.0 - 1e-9) / q.tail_ratio - 2.0)
        order, shifts = pass_
        kept, criticality.K_CAP = criticality.K_CAP, k_cap
        try:
            compiled = family_pass(q, c, r, order, shifts, dr)
            with numpy_draws():
                reference = family_pass(q, c, r, order, shifts, dr)
        finally:
            criticality.K_CAP = kept
        assert compiled == reference

    @pytest.mark.parametrize("path", ["loaded", "python"])
    def test_errors(self, path, monkeypatch):
        # an exp past the double range, and a tail that does not certify
        # within k_cap terms (300 here)
        huge = preset("geometric", H=3.0).weights.scaled(1e300).scaled(1e300)
        slow = preset("geometric", H=3.0).weights
        c_slow = 0.98 / slow.tail_ratio
        monkeypatch.setattr(criticality, "K_CAP", 300)
        with numpy_draws() if path == "python" else contextlib.nullcontext():
            with pytest.raises(OverflowError):
                criticality._System(huge)._sums(2.5, 0.3, 0, (1, 2), True)
            with pytest.raises(DivergentSeriesError, match="will not certify"):
                criticality._System(slow)._sums(c_slow, 0.3, 1, (1,))

    @pytest.mark.parametrize("q", [
        preset("geometric", H=3.0).weights,
        gen_only(preset("geometric", H=1.5).weights).deformed(0.5),
        preset("symmetric_critical", r=0.5, a=0.5).weights.scaled(0.3),
    ])
    @pytest.mark.parametrize("u", [0.1, 0.6, 0.95])
    def test_matches_numpy_dot(self, q, u):
        # every sum agrees with numpy dot products over positive_terms'
        # terms within 1e-13 of the sum of the absolute terms
        c = 2.0 + u * ((1.0 - 1e-9) / q.tail_ratio - 2.0)
        for order, shifts in ((0, (1, 2)), (1, (1,))):
            _, _, got = criticality._System(q)._sums(c, 0.4, order, shifts, True)
            assert_matches_numpy(q, c, 0.4, order, shifts, got)

    @pytest.mark.parametrize("path", ["loaded", "python"])
    def test_generator_evaluates_no_weight_past_the_cut(self, path):
        base = preset("symmetric_critical", r=0.5, a=0.5).weights.deformed(0.8)
        asked = []

        def gen(k):
            asked.append(k)
            return base.value(k)

        q = WeightSequence(gen=gen, tail_ratio=base.tail_ratio,
                           tail_start=base.tail_start)
        c = 0.9 / base.tail_ratio
        cut = int(gen_only(base).positive_terms(c)[0][-1])
        with numpy_draws() if path == "python" else contextlib.nullcontext():
            criticality._System(q)._sums(c, 0.5, 0, (1, 2), True)
        assert cut > 64 and max(asked) == cut + 2
        assert sorted(asked) == list(range(1, cut + 3))


def central_jacobian(F, x, step=1e-6):
    """Central differences of F's values, step 1e-6 relative per coordinate."""
    cols = []
    for j in range(len(x)):
        h = step * max(1.0, abs(x[j]))
        up, down = x.copy(), x.copy()
        up[j] += h
        down[j] -= h
        cols.append((np.asarray(F(up)[0]) - np.asarray(F(down)[0]))
                    / (2.0 * h))
    return np.column_stack(cols)


class TestFloatNewton:
    """The damped Newton runs on lists of floats with numpy's answers."""

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(st.lists(st.one_of(st.floats(), st.sampled_from([-0.0, 0.0])),
                    min_size=1, max_size=3))
    def test_max_abs_is_numpys(self, values):
        # NaN anywhere gives NaN, as np.max does
        want = np.max(np.abs(np.array(values)))
        assert repr(criticality._max_abs(values)) == repr(float(want))

    def test_returns_an_array_and_a_float64(self):
        x, n = criticality._damped_newton(
            lambda x: ([x[0] * x[0] - 2.0], [[2.0 * x[0]]]), (1.0,), (0.5,),
            (4.0,))
        assert isinstance(x, np.ndarray) and type(n) is np.float64
        assert x[0] == pytest.approx(math.sqrt(2.0), rel=1e-15)


class TestExactJacobian:
    """Each Newton system returns its Jacobian with its values (lists of
    floats); every entry agrees with central differences of the values to
    1e-6 relative.  The points sit off the solutions, where no entry
    vanishes but those in zeros, which vanish identically: there both the
    entry and its central difference read zero to rounding."""

    @staticmethod
    def check(F, x, zeros=()):
        x = np.array(x, dtype=float)
        values, J = F(x)
        J = np.asarray(J)
        assert J.shape == (len(values), len(x))
        fd = central_jacobian(F, x)
        live = np.ones(J.shape, dtype=bool)
        for ij in zeros:
            live[ij] = False
            assert abs(J[ij]) <= 1e-15 and abs(fd[ij]) <= 1e-15, (J, fd)
        assert np.all((np.abs(J - fd) <= 1e-6 * np.abs(J))[live]), (J, fd)

    @staticmethod
    def surface(sys):
        """The tuner's and the verdict's (R1, R2) on the margin surface,
        in (c, s)."""
        def F(x):
            r = math.tanh(x[1])
            return criticality._in_cs(
                criticality._on_margin(sys, float(x[0]), r)[0], r)

        return F

    @pytest.mark.parametrize("name", ["tri", "geometric"])
    def test_main_and_surface(self, name):
        # geometric H = 3 has infinite support
        q = TRI if name == "tri" else preset("geometric", H=3.0).weights
        cd = solve_boltzmann(q)
        sys = criticality._System(q)
        x = (0.97 * cd.c_plus, math.atanh(cd.r) - 0.1)
        self.check(sys.main, x)
        # on the surface of a single degree, R1 = h(0, 2)/h(1, 2) - h(0, 1)
        # does not depend on c
        self.check(self.surface(sys), x, zeros=[(0, 0)] if name == "tri" else ())

    def test_tuned_three_degree_shape(self):
        # main and the (R1, R2) on the margin surface, in (c, s)
        shape = WeightSequence({3: Fraction(1, 3), 5: Fraction(2),
                                8: Fraction(1, 3)})
        t = tune_critical(shape)
        x = (0.98 * t.data.c_plus, math.atanh(t.data.r) + 0.05)
        sys = criticality._System(shape.scaled(t.t_star))
        self.check(sys.main, x)
        self.check(self.surface(sys), x)

    def test_bipartite_bordered(self):
        # the bipartite tuner's G, R2 along the r = 1 margin curve, in c
        shape = WeightSequence({4: Fraction(1), 6: Fraction(1)})
        t = tune_critical(shape)
        sys = criticality._System(shape)

        def F(x):
            g, gp, _ = criticality._on_curve(sys, float(x[0]))
            return [g], [[gp]]

        for c in (0.98 * t.data.c_plus, 1.3 * t.data.c_plus):
            self.check(F, (c,))

    @pytest.mark.parametrize("q", [
        WeightSequence({4: Fraction(1), 6: Fraction(1)}),
        preset("two_p_angulation", p=3).weights,
        preset("symmetric_critical", r=1.0, a=math.pi / 4).weights.deformed(0.9),
    ])
    def test_curve_is_the_surface_at_r_one(self, q):
        # the lean curve passes give the R2 row of the surface system at
        # r = 1 and its scale, bit for bit
        sys = criticality._System(q)
        for c in (2.2, 2.4):
            rows, t = criticality._on_margin(sys, c, 1.0)
            assert criticality._on_curve(sys, c) == (*rows[1][:2], t)


# -- pinned solver survey --------------------------------------------------


def survey_shapes():
    """12 distinct random rational shapes on 1-3 of the degrees 3-8."""
    rng = random.Random(5)
    shapes = []
    while len(shapes) < 12:
        degrees = sorted(rng.sample(range(3, 9), rng.randint(1, 3)))
        support = {d: Fraction(rng.randint(1, 9), rng.randint(1, 9))
                   for d in degrees}
        if support not in shapes:
            shapes.append(support)
    return shapes


NAN = math.nan
SURVEY_SCALES = (0.5, 0.99, 1.01)
# Per survey shape: its t* from tune_critical, then (classification, path,
# c_+, r) of solve_boltzmann at each scale of SURVEY_SCALES times t*; per
# preset: (name, p, g, classification, path, c_+, r).  Pinned from the
# solver whose damped Newton differenced its Jacobian forward, so the
# values do not depend on how the Jacobian is formed.
SURVEY_SHAPES = [
    (0.0071900127213987116, (
        ('subcritical', 'newton', 2.0807098911608835, 0.9723600687125512),
        ('subcritical', 'newton', 2.3087872831104117, 0.8894988189175489),
        ('not_admissible', 'fold-beyond', NAN, NAN),
    )),
    (0.003032164190837064, (
        ('subcritical', 'bipartite-subcritical', 2.1047338718996373, 1.0),
        ('subcritical', 'bipartite-subcritical', 2.4171088134377667, 1.0),
        ('not_admissible', 'fold-beyond', NAN, NAN),
    )),
    (0.013020378458720179, (
        ('subcritical', 'newton', 2.1182603779451794, 0.9321120494163461),
        ('subcritical', 'newton', 2.4746379785017707, 0.7873319452785142),
        ('not_admissible', 'fold-beyond', NAN, NAN),
    )),
    (0.08333333333333347, (
        ('subcritical', 'bipartite-subcritical', 2.1647844005847885, 1.0),
        ('subcritical', 'bipartite-subcritical', 2.696799449852977, 1.0),
        ('not_admissible', 'fold-beyond', NAN, NAN),
    )),
    (0.01987767409504149, (
        ('subcritical', 'newton', 2.146382480430305, 0.9420537142327313),
        ('subcritical', 'newton', 2.6049768698249247, 0.7832101524154307),
        ('not_admissible', 'fold-beyond', NAN, NAN),
    )),
    (0.028574989078655116, (
        ('subcritical', 'newton', 2.141663226369907, 0.8901691233008738),
        ('subcritical', 'newton', 2.5664890733500965, 0.7146330978098231),
        ('not_admissible', 'fold-beyond', NAN, NAN),
    )),
    (0.008449720905690154, (
        ('subcritical', 'newton', 2.1517786110140125, 0.8827228285584884),
        ('subcritical', 'newton', 2.604669444523214, 0.6992366849991988),
        ('not_admissible', 'fold-beyond', NAN, NAN),
    )),
    (0.0058628316027338106, (
        ('subcritical', 'newton', 2.079182679107846, 0.9697976921242712),
        ('subcritical', 'newton', 2.3069671075469644, 0.8822293333765063),
        ('not_admissible', 'fold-beyond', NAN, NAN),
    )),
    (0.01710004802162343, (
        ('subcritical', 'bipartite-subcritical', 2.070438917927889, 1.0),
        ('subcritical', 'bipartite-subcritical', 2.274228911269626, 1.0),
        ('not_admissible', 'fold-beyond', NAN, NAN),
    )),
    (0.0009149232324447958, (
        ('subcritical', 'newton', 2.083258222579086, 0.9334828236723303),
        ('subcritical', 'newton', 2.325628208184241, 0.8180338914597758),
        ('not_admissible', 'fold-beyond', NAN, NAN),
    )),
    (0.06378502088165032, (
        ('subcritical', 'newton', 2.231866542002859, 0.8609732461739884),
        ('subcritical', 'newton', 2.99442336903589, 0.6147275167991698),
        ('not_admissible', 'fold-beyond', NAN, NAN),
    )),
    (0.0014750048368248714, (
        ('subcritical', 'newton', 2.08560255971493, 0.9316710535264052),
        ('subcritical', 'newton', 2.334572759167789, 0.8136806817248383),
        ('not_admissible', 'fold-beyond', NAN, NAN),
    )),
]
SURVEY_PRESETS = [
    ('two_p_angulation', 2, 0.7, 'subcritical', 'bipartite-subcritical', 2.273518211293636, 1.0),
    ('two_p_angulation', 2, 0.99, 'subcritical', 'bipartite-subcritical', 2.696799449852968, 1.0),
    ('two_p_angulation', 2, 1.0, 'regular_critical', 'bipartite-critical', 2.8284271247461903, 1.0),
    ('two_p_angulation', 3, 0.7, 'subcritical', 'bipartite-subcritical', 2.0932448312843093, 1.0),
    ('two_p_angulation', 3, 0.99, 'subcritical', 'bipartite-subcritical', 2.3577077961288477, 1.0),
    ('two_p_angulation', 3, 1.0, 'regular_critical', 'bipartite-critical', 2.4494897427831783, 1.0),
    ('odd_angulation', 1, 0.7, 'subcritical', 'newton', 2.7022475661115397, 0.6354459929495232),
    ('odd_angulation', 1, 0.99, 'subcritical', 'newton', 3.3938219583671603, 0.49218900794176024),
    ('odd_angulation', 1, 1.0, 'regular_critical', 'critical-polish', 3.5955810699072597, 0.46410161513775466),
    ('odd_angulation', 2, 0.7, 'subcritical', 'newton', 2.16002624975262, 0.8812633477697153),
    ('odd_angulation', 2, 0.99, 'subcritical', 'newton', 2.498911209740854, 0.7410015847327397),
    ('odd_angulation', 2, 1.0, 'regular_critical', 'critical-polish', 2.609803637881545, 0.7087819202382855),
]


def test_solver_survey_pinned():
    # every classification and path as pinned, c_+ and r within 1e-12
    # relative; a guard for any later change to the solver
    cases = []
    for support, (t_star, rows) in zip(survey_shapes(), SURVEY_SHAPES):
        for scale, row in zip(SURVEY_SCALES, rows):
            cases.append((WeightSequence(support).scaled(scale * t_star), 1.0, row))
    for name, p, g, *row in SURVEY_PRESETS:
        cases.append((preset(name, p=p).weights, g, row))
    for q, g, (cls, path, c, r) in cases:
        cd = solve_boltzmann(q, g=g)
        assert (cd.classification, cd.residuals["path"]) == (cls, path)
        for got, pinned in ((cd.c_plus, c), (cd.r, r)):
            if math.isnan(pinned):
                assert math.isnan(got)
            else:
                assert got == pytest.approx(pinned, rel=1e-12, abs=0)
    assert len(cases) == 48


def survey_cases():
    """The 48 (q, g) of test_solver_survey_pinned."""
    cases = []
    for support, (t_star, _) in zip(survey_shapes(), SURVEY_SHAPES):
        for scale in SURVEY_SCALES:
            cases.append((WeightSequence(support).scaled(scale * t_star), 1.0))
    for name, p, g, *_ in SURVEY_PRESETS:
        cases.append((preset(name, p=p).weights, g))
    return cases


# tune_critical inputs of the solver pin: bipartite shapes on one, two and
# three degrees, {3: 1, 4: 1}, further non-bipartite shapes, one with a
# weight far below its boundary, and LARGE_TSTAR
PIN_TUNE_SHAPES = [
    {4: Fraction(1)}, {6: Fraction(1), 8: Fraction(1)},
    {4: Fraction(1, 2), 6: Fraction(3), 8: Fraction(4)},
    {3: Fraction(1), 4: Fraction(1)},
    {3: Fraction(1, 3), 5: Fraction(2), 8: Fraction(1, 3)},
    {3: Fraction(1, 64), 7: Fraction(1, 1048576)},
    {5: Fraction(1)},
    {3: Fraction(1, 10**20)},
]
# sha256 of solver_pin_text(), taken from the damped Newton on numpy
# vectors; any change of one bit in an output changes it
SOLVER_PIN = "00922c9ac6325e4b994c13b881d09f6dc44087573db8db6f97e621c8a211bc8f"


def _pin_fields(cd):
    return [repr(v) for v in (cd.c_plus, cd.c_minus, cd.r, cd.z_plus,
                              cd.z_diamond, cd.margin, cd.g,
                              cd.residuals.get("R1"), cd.residuals.get("R2"))
            ] + [cd.classification, cd.residuals["path"]]


def solver_pin_text():
    """The repr of every float output, the classification and the path of
    the solver on the survey cases, the tuner on PIN_TUNE_SHAPES and
    LARGE_TSTAR, and the slope test and Miermont check on quad, tri and
    geometric H = 3, one item a line."""
    from peelkit.scaling import cplus_slope_test

    lines = []
    for q, g in survey_cases():
        lines += _pin_fields(solve_boltzmann(q, g=g))
    for shape in [WeightSequence(s) for s in PIN_TUNE_SHAPES] + [LARGE_TSTAR]:
        t = tune_critical(shape)
        lines += [repr(t.t_star)] + _pin_fields(t.data)
    for q in (QUAD, TRI, preset("geometric", H=3.0).weights):
        cd = solve_boltzmann(q)
        lines += _pin_fields(cd)
        m = miermont_check(q, cd)
        lines += [repr(v) for v in (m.f_dot_residual, m.f_diamond_residual,
                                    m.A0, m.A1, m.scalar, m.truncation, m.ok)]
        s = cplus_slope_test(q)
        lines += [repr(v) for v in (*s.g_values, *s.raw_slopes, s.estimate,
                                    s.predicted, s.c_minus_estimate)]
    return "\n".join(lines)


def test_solver_outputs_pinned_bitwise():
    # test_solver_survey_pinned compares to 1e-12; this pin catches any
    # changed bit of the solver's and tuner's outputs
    text = solver_pin_text()
    assert hashlib.sha256(text.encode()).hexdigest() == SOLVER_PIN


# sha256 of the repr of every MiermontReport field on MIERMONT_PIN_CASES,
# taken from the check that accumulated its sums in a numpy vector
MIERMONT_PIN = "a9d64bcfe995beadf4ee0c6b9bbc7af8d681879a52e97cd88ea00c143cf308db"
MIERMONT_PIN_CASES = [
    ("symmetric_critical", {"r": 1.0, "a": math.pi / 4}),
    ("symmetric_critical", {"r": 0.5, "a": 0.6}),
    ("geometric", {"H": 2.0}), ("geometric", {"H": 5.0}),
    ("two_p_angulation", {"p": 3}), ("odd_angulation", {"p": 2}),
]


def test_miermont_pinned_bitwise():
    # the heavy family's extrapolated sums, both tail exits of an infinite
    # family and finite supports, bit for bit
    lines = []
    for name, params in MIERMONT_PIN_CASES:
        q = preset(name, **params).weights
        m = miermont_check(q, solve_boltzmann(q))
        lines += [repr(v) for v in (m.f_dot_residual, m.f_diamond_residual,
                                    m.A0, m.A1, m.scalar, m.truncation, m.ok)]
        lines += m.messages
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == MIERMONT_PIN


class TestReport:
    def test_full_report_is_jsonable(self):
        import json

        rep = full_report(QUAD)
        text = json.dumps(rep)
        assert "miermont" in rep
        assert "c_plus" in rep
        assert text
