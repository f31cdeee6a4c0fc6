import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from peelkit import criticality
from peelkit.errors import DivergentSeriesError
from peelkit.hfun import HCache
from peelkit.criticality import (
    miermont_check,
    classify,
    full_report,
    solve_boltzmann,
    tune_critical,
)
from peelkit.walk import complete_nu, harmonic_residual
from peelkit.weights import WeightSequence, nu_from_q, preset


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


class TestDeformedHeavyTail:
    """The bipartite solver on a deformed heavy-tailed family, whose tail
    ratio puts c_max where the series cannot be materialized."""

    @pytest.mark.parametrize("g", [0.5, 0.9])
    def test_subcritical(self, g):
        q = preset("symmetric_critical", r=1.0, a=math.pi / 4).weights
        cd = solve_boltzmann(q, g=g)
        assert cd.classification == "subcritical"
        assert cd.residuals["path"] == "bipartite-subcritical"
        assert abs(cd.residuals["R2"]) <= 1e-12
        assert cd.margin > 0.1
        # c_+(g) increases to sqrt(2 / nu(-2)) = sqrt(6) at g = 1
        assert 2.0 < cd.c_plus < math.sqrt(6.0)

    def test_undecidable_near_criticality_raises(self):
        # R2 is still decreasing and positive at the edge of the tractable
        # range: the solver cannot tell a critical from a subcritical point
        q = preset("symmetric_critical", r=1.0, a=math.pi / 4).weights
        with pytest.raises(DivergentSeriesError):
            solve_boltzmann(q, g=0.999999)


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
            got = criticality._inner_sums(float(zp), float(zd), n)
            for g, e in zip(got, exact_inner_sums(zp, zd, n)):
                assert abs(g - float(e)) <= 1e-12 * abs(float(e)), (n, g, e)


class TestTune:
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
        # the doubling bracket must warm-start each scale from the last
        # admissible one; from the t = 0.5 solution Newton misses at t = 8
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

    def test_h_table_builds(self, monkeypatch):
        # the solver systems keep one h table per order and ratio instead
        # of building a fresh one per evaluation
        calls = []
        grow = HCache._grow_float

        def counted(self, k, n):
            calls.append(k)
            return grow(self, k, n)

        monkeypatch.setattr(HCache, "_grow_float", counted)
        tune_critical(WeightSequence({4: Fraction(1), 6: Fraction(1)}))
        assert 0 < len(calls) <= 100


class TestBeyondBoundary:
    @pytest.mark.parametrize("support", [{3: 1, 4: 1}, {3: 1}])
    def test_not_admissible_not_raised(self, support):
        # past the fold the two roots of (R1, R2) have merged: no Newton
        # start converges and R1 has no sign change along the R2 roots
        shape = WeightSequence({k: Fraction(v) for k, v in support.items()})
        t = tune_critical(shape)
        cd = solve_boltzmann(shape.scaled(1.1 * t.t_star))
        assert cd.classification == "not_admissible"


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


class TestReport:
    def test_full_report_is_jsonable(self):
        import json

        rep = full_report(QUAD)
        text = json.dumps(rep)
        assert "miermont" in rep
        assert "c_plus" in rep
        assert text
