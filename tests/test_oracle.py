import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from peelkit.criticality import solve_boltzmann
from peelkit.oracle import (
    EnumTable,
    _vertex_marginal,
    brute_force_maps,
    enumerate_dp,
    g_series,
    volume_tables,
)
from peelkit.seriesutil import richardson_limit
from peelkit.walk import complete_nu, disk_coefficient
from peelkit.weights import WeightSequence, nu_from_q, pointed_disk, preset

QUAD = preset("two_p_angulation", p=2).weights
ALL_ONES = WeightSequence({k: Fraction(1) for k in range(1, 9)})


def critical_law(q, k_neg=32):
    cd = solve_boltzmann(q)
    return complete_nu(nu_from_q(q, cd.c_plus, cd.r), k_neg=k_neg), cd


class TestBruteForce:
    def test_rooted_map_counts(self):
        # total rooted planar maps by edge count, an external anchor
        cells = brute_force_maps(ALL_ONES, 4)
        totals = {}
        for (l, D, F), v in cells.items():
            E = (l + D) // 2
            totals[E] = totals.get(E, Fraction(0)) + v
        assert totals[0] == 1
        assert totals[1] == 2
        assert totals[2] == 9
        assert totals[3] == 54
        assert totals[4] == 378

    def test_one_edge_maps(self):
        cells = brute_force_maps(ALL_ONES, 1)
        # a loop (root face degree 1, inner degree 1) and a link (degree 2)
        one_edge = {k: v for k, v in cells.items() if (k[0] + k[1]) // 2 == 1}
        assert one_edge == {(1, 1, 1): 1, (2, 0, 0): 1}

    def test_vertex_map_included(self):
        cells = brute_force_maps(WeightSequence({3: Fraction(1)}), 1)
        assert cells[(0, 0, 0)] == 1

    def test_edge_guard(self):
        with pytest.raises(ValueError):
            brute_force_maps(ALL_ONES, 5)


class TestDpAgainstBruteForce:
    @pytest.mark.parametrize("support", [
        {3: Fraction(1)},
        {4: Fraction(1)},
        {3: Fraction(2, 3), 4: Fraction(3, 5)},
        {1: Fraction(1), 2: Fraction(1), 3: Fraction(1), 4: Fraction(1),
         5: Fraction(1), 6: Fraction(1), 7: Fraction(1), 8: Fraction(1)},
    ])
    def test_cell_level_equality(self, support):
        q = WeightSequence(support)
        bf = brute_force_maps(q, 4)
        tab = enumerate_dp(q, 0, 8)
        dp = {k: v for k, v in tab.cells.items() if (k[0] + k[1]) // 2 <= 4}
        for key in set(dp) | set(bf):
            assert dp.get(key, Fraction(0)) == bf.get(key, Fraction(0)), key


def reference_dp(q, l, D_max):
    """`enumerate_dp` as it probed every split: each (l', M1) pair of
    sublayers looked up in both layers.  The reference for the walk over
    the layers that hold l'."""
    exact = q.is_exact
    zero = Fraction(0) if exact else 0.0
    support = sorted(q.support)
    layers = {0: {0: {0: (Fraction(1) if exact else 1.0)}}}
    for M in range(2, l + D_max + 1, 2):
        layer = {}
        prev = layers[M - 2]
        for ll in range(max(1, M - D_max), M + 1):
            out = {}
            for k in support:
                if M - ll - k < 0:
                    continue
                src = prev.get(ll + k - 2)
                if not src:
                    continue
                qk = q.support[k]
                for F1, v in src.items():
                    out[F1 + 1] = out.get(F1 + 1, zero) + qk * v
            for lp in range(0, ll - 1):
                lpp = ll - lp - 2
                for M1 in range(lp + (lp % 2), M - 2 - lpp + 1, 2):
                    A = layers.get(M1, {}).get(lp)
                    B = layers.get(M - 2 - M1, {}).get(lpp)
                    if not A or not B:
                        continue
                    for F1, v1 in A.items():
                        for F2, v2 in B.items():
                            out[F1 + F2] = out.get(F1 + F2, zero) + v1 * v2
            if out:
                layer[ll] = out
        layers[M] = layer
    cells = {}
    for M, layer in layers.items():
        for ll, fdict in layer.items():
            if M - ll <= D_max:
                for F, v in fdict.items():
                    if v != 0:
                        cells[(ll, M - ll, F)] = v
    return EnumTable(q=q, l0=l, D_max=D_max, cells=cells, exact=exact)


def same_cells(a, b):
    """The same cells in the same order, with values of the same type."""
    return (list(a.cells.items()) == list(b.cells.items())
            and [type(v) for v in a.cells.values()] == [type(v) for v in b.cells.values()])


_supports = st.dictionaries(st.integers(1, 7), st.fractions(Fraction(1, 20), Fraction(2)),
                            min_size=1, max_size=3)


class TestEnumerate:
    @settings(max_examples=25, derandomize=True, deadline=None, database=None)
    @given(support=_supports, exact=st.booleans(), l=st.integers(0, 6),
           D_max=st.integers(0, 14))
    def test_matches_the_reference_dp(self, support, exact, l, D_max):
        # the walk over the layers that hold l' adds the same products in
        # the same order as probing every split: same cells, same order,
        # same types, exact and in floats
        q = WeightSequence(support if exact else {k: float(v) for k, v in support.items()})
        assert same_cells(enumerate_dp(q, l, D_max), reference_dp(q, l, D_max))

    @pytest.mark.parametrize("q", [QUAD, WeightSequence({3: Fraction(1, 12)})],
                             ids=["quad", "tri"])
    def test_one_pass_serves_every_smaller_degree(self, q):
        # a pass at l = 6 holds, for every l' <= 6, the cells of a pass at
        # l': the marginals read off it are the per-l' tables exactly
        assert same_cells(enumerate_dp(q, 6, 24), reference_dp(q, 6, 24))
        table = enumerate_dp(q, 6, 24)
        for lp in range(7):
            one, alone = _vertex_marginal(table, lp), volume_tables(q, lp, 24)
            assert list(one.values.items()) == list(alone.values.items()), lp
            assert (one.V_star, one.complete) == (alone.V_star, alone.complete)

    def test_vertex_map_convention(self):
        tab = enumerate_dp(QUAD, 0, 12)
        assert tab.cell(0, 0, 0) == 1
        assert tab.disk_value(0) == 1

    def test_single_edge_cell(self):
        tab = enumerate_dp(QUAD, 2, 8)
        assert tab.cell(2, 0, 0) == 1
        assert tab.cell(2, 4, 1) == 2 * Fraction(1, 12)

    def test_quadrangulation_monotone_to_limit(self):
        tab = enumerate_dp(QUAD, 2, 40)
        vals = [tab.disk_value(2, D) for D in range(0, 41, 4)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert float(vals[-1]) < 4.0 / 3.0
        Ds = [24.0, 32.0, 40.0]
        S = [float(tab.disk_value(2, int(D))) for D in Ds]
        est = richardson_limit(Ds, S, [1.5, 2.5])
        assert est == pytest.approx(4.0 / 3.0, rel=0.01)

    def test_triangulation_polynomial_grading(self):
        # coefficient of t^F in the root-degree-1 disk series is the
        # F-marginal of the table at unit weight; parity forces odd F there
        tab = enumerate_dp(WeightSequence({3: Fraction(1)}), 1, 15)
        coeff = {}
        for (l, D, F), v in tab.cells.items():
            if l == 1:
                coeff[F] = coeff.get(F, Fraction(0)) + v
        assert set(coeff) == {1, 3, 5}
        # one map realizes t^1 (a loop with a pendant edge inside the
        # triangle), confirmed by the dart scan
        bf = brute_force_maps(WeightSequence({3: Fraction(1)}), 4)
        assert coeff[1] == bf[(1, 3, 1)] == 1
        # t^3 needs five edges, beyond the dart scan: pin the value against
        # an order-by-order expansion of the loop equation,
        # W1 = t W2, W2 = 1 + t W3, W3 = 2 W1 + t W4, W4 = W2^2 + W1^2 + ...
        # which gives [t^3] W1 = 2 + 2 = 4
        assert coeff[3] == 4

    def test_infinite_support_refused(self):
        geo = preset("geometric", H=3.0).weights
        with pytest.raises(ValueError):
            enumerate_dp(geo, 2, 8)

    def test_budget_guard(self):
        with pytest.raises(ValueError):
            enumerate_dp(QUAD, 2, 200)

    def test_csv_export(self, tmp_path):
        tab = enumerate_dp(QUAD, 2, 8)
        path = tmp_path / "table.csv"
        tab.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "l,D,F,V,weight_num,weight_den"
        assert any(ln.startswith("2,4,1,3,1,6") for ln in lines)


class TestVolumeTables:
    def test_quadrangulation_small_volumes(self):
        vt = volume_tables(QUAD, 2, 24)
        assert vt.complete
        assert vt.weight(2) == 1           # the doubled edge
        assert vt.weight(3) == Fraction(1, 6)
        # cross-check V = 3 against the dart scan (E = 3 suffices)
        bf = brute_force_maps(QUAD, 3)
        v3 = sum(
            v for (l, D, F), v in bf.items()
            if l == 2 and (l + D) // 2 - F + 1 == 3
        )
        assert v3 == Fraction(1, 6)

    def test_degree_zero_is_delta(self):
        vt = volume_tables(QUAD, 0, 16)
        assert vt.values == {1: 1}

    def test_pointed_partial_increases_to_limit(self):
        target = pointed_disk(2, 2 * math.sqrt(2), 1.0)
        partials = [
            float(volume_tables(QUAD, 2, D).pointed_partial()) for D in (16, 28, 40)
        ]
        assert all(a < b for a, b in zip(partials, partials[1:]))
        assert partials[-1] < target
        assert partials[-1] > 0.8 * target

    def test_min_support_two_flagged(self):
        vt = volume_tables(WeightSequence({2: Fraction(1, 4), 3: Fraction(1, 10)}),
                           2, 10)
        assert not vt.complete
        assert vt.messages

    def test_completeness_threshold(self):
        vt = volume_tables(QUAD, 2, 24)
        # V_star = floor((D_max (m-2)/m + l + 2)/2) at m = 4
        assert vt.V_star == (24 * 2 // 4 + 2 + 2) // 2


class TestGSeries:
    @pytest.mark.parametrize("g", [0.5, 0.9])
    def test_dual_route_lower_bound(self, g):
        cd = solve_boltzmann(QUAD, g=g)
        pos = nu_from_q(QUAD.deformed(g), cd.c_plus, cd.r)
        law = complete_nu(pos, k_neg=16, critical=False)
        analytic = g**2 * disk_coefficient(law, 2)
        prev = 0.0
        for D in (16, 24, 40):
            val = g_series(QUAD, 2, D).eval(g)
            assert prev <= val <= analytic
            prev = val
        assert analytic - val < 3e-3

    def test_g_one_recovers_disk_bound(self):
        tab = enumerate_dp(QUAD, 2, 40)
        gs = g_series(QUAD, 2, 40)
        assert gs.eval(1.0) == pytest.approx(float(tab.disk_value(2)), rel=1e-12)
        assert gs.eval(1.0) < 4.0 / 3.0

    def test_leading_term(self):
        V0, w0 = g_series(QUAD, 2, 20).leading_term()
        assert (V0, w0) == (2, 1)


class TestAdmissibleCompletion:
    def test_matches_kernel_at_criticality(self):
        import numpy as np

        law, cd = critical_law(QUAD)
        pos = nu_from_q(QUAD, cd.c_plus, cd.r)
        adm = complete_nu(pos, k_neg=32, critical=False)
        assert np.max(np.abs(adm.probs - law.probs)) < 1e-14

    def test_subcritical_disk_values(self):
        sub = WeightSequence({4: Fraction(1, 20)})
        cd = solve_boltzmann(sub)
        law = complete_nu(nu_from_q(sub, cd.c_plus, cd.r), k_neg=32,
                          critical=False)
        assert law.nu(-2) == pytest.approx(2.0 / cd.c_plus**2, rel=1e-14)
        tab = enumerate_dp(sub, 4, 48)
        for l in (0, 2, 4):
            lower = float(tab.disk_value(l, 48))
            analytic = disk_coefficient(law, l)
            assert lower <= analytic
            assert analytic - lower < 1e-4 * max(1.0, analytic)

    def test_triangulation_disk_coefficient(self):
        # kernel value of W(1) for critical triangulations against the
        # (inexact-weight) truncated table: monotone lower bounds approach it
        q = preset("odd_angulation", p=1).weights
        law, _cd = critical_law(q)
        target = disk_coefficient(law, 1)
        lowers = [enumerate_dp(q, 1, D).disk_value(1, D) for D in (15, 27, 39)]
        assert all(a < b for a, b in zip(lowers, lowers[1:]))
        assert lowers[-1] < target
        assert target - lowers[-1] < 0.05 * target


class TestLoopEquationIdentities:
    @pytest.mark.parametrize("name,params", [
        ("two_p_angulation", {"p": 2}),
        ("odd_angulation", {"p": 1}),
        ("geometric", {"H": 3.0}),
    ])
    def test_pointed_loop_residual(self, name, params):
        q = preset(name, **params).weights
        law, cd = critical_law(q)
        c, r = cd.c_plus, cd.r

        def wdot(l):
            return pointed_disk(l, c, r)

        if q.is_finite:
            degrees = sorted(q.support)
        else:
            # geometric tail: q_k c^k shrinks like sigma^k, certified by the
            # materialization machinery
            ks, _vals, tail = q.positive_terms(c, deg=1, tol=1e-14)
            degrees = [k + 2 for k in ks if k + 2 >= 1]
            assert tail < 1e-10
        for l in range(1, 11):
            s = sum(float(q.value(k)) * wdot(l + k - 2) for k in degrees)
            s += 2 * sum(
                disk_coefficient(law, lp) * wdot(l - lp - 2)
                for lp in range(0, l - 1)
            )
            assert abs(wdot(l) - s) <= 1e-8 * max(1.0, wdot(l))

    @pytest.mark.parametrize("name,params", [
        ("two_p_angulation", {"p": 2}),
        ("odd_angulation", {"p": 1}),
    ])
    def test_transition_normalization(self, name, params):
        # face-exploration plus pruning probabilities sum to one
        q = preset(name, **params).weights
        law, cd = critical_law(q)
        c, r = cd.c_plus, cd.r

        def wdot(l):
            return pointed_disk(l, c, r)

        step = 2 if q.bipartite else 1
        for l in range(step, 11, step):
            total = sum(
                float(q.value(k)) * wdot(l + k - 2) / wdot(l) for k in q.support
            )
            total += sum(
                2.0 * disk_coefficient(law, lp) * wdot(l - lp - 2) / wdot(l)
                for lp in range(0, l - 1)
            )
            assert total == pytest.approx(1.0, abs=1e-10)
