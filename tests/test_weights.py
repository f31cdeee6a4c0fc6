import json
import math
from fractions import Fraction

import numpy as np
import pytest

from peelkit.errors import DivergentSeriesError
from peelkit.hfun import HCache, h_eval
from peelkit.weights import (
    PRESET_ALIASES,
    StepLawPositive,
    WeightSequence,
    nu_from_q,
    parse_weight,
    pointed_disk,
    pointed_disk_binomial,
    preset,
    preset_by_alias,
    q_from_nu,
    validate,
)


class TestValidate:
    def test_quadrangulation_weights(self):
        rep = validate(WeightSequence({4: Fraction(1, 12)}))
        assert rep.bipartite is True
        assert rep.parity_lattice == 1
        assert rep.ok

    def test_odd_support_not_bipartite(self):
        rep = validate(WeightSequence({3: 0.2}))
        assert rep.bipartite is False
        assert rep.ok

    def test_degenerate(self):
        rep = validate(WeightSequence({2: 0.5}))
        assert rep.nondegenerate is False
        assert not rep.ok

    def test_empty_invalid(self):
        rep = validate(WeightSequence({}))
        assert not rep.ok

    def test_negative_weight(self):
        rep = validate(WeightSequence({4: -1}))
        assert not rep.nonnegative

    def test_hexangulation_lattice(self):
        rep = validate(WeightSequence({6: Fraction(1, 54)}))
        assert rep.parity_lattice == 2


class TestNuFromQ:
    def test_quadrangulation_step_probabilities(self):
        q = WeightSequence({4: Fraction(1, 12)})
        pos = nu_from_q(q, math.sqrt(8.0), 1.0)
        assert pos.nu_at(2) == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert pos.nu_at(-2) == pytest.approx(0.25, rel=1e-14)

    def test_exact_when_c_rational(self):
        # c = 3 is not the critical point, but the dictionary is generic
        q = WeightSequence({4: Fraction(1, 12)})
        pos = nu_from_q(q, Fraction(3), Fraction(1))
        assert pos.exact
        assert pos.nu_at(2) == Fraction(9, 12)
        assert pos.nu_at(-2) == Fraction(2, 9)

    def test_nu_m2_trivial(self):
        q = WeightSequence({3: 0.1})
        pos = nu_from_q(q, 10.0, 0.3)
        assert pos.nu_at(-2) == pytest.approx(0.02, abs=1e-15)

    def test_triangulation_value(self):
        # critical triangulation: nu(1) = 1 / h(1, 2) at the solved ratio
        r = 2 * math.sqrt(3) - 3
        c = math.sqrt(6 + 4 * math.sqrt(3))
        q3 = 1.0 / math.sqrt(12 * math.sqrt(3))
        pos = nu_from_q(WeightSequence({3: q3}), c, r)
        cache = HCache(r, mode="float")
        assert pos.nu_at(1) == pytest.approx(1.0 / h_eval(cache, 1, 2), rel=1e-12)

    def test_divergent_tail(self):
        w = preset("geometric", H=3.0).weights
        with pytest.raises(DivergentSeriesError):
            w.positive_terms(10.0)

    def test_requires_c_above_two(self):
        with pytest.raises(ValueError):
            nu_from_q(WeightSequence({4: Fraction(1, 12)}), 1.5, 1.0)


def scalar_positive_terms(q, c, deg=2, tol=1e-16, k_min=64):
    """Term-by-term reference for positive_terms on an infinite family."""
    rho = q.tail_ratio * c
    log_c = math.log(c)
    ks, vals, total, k = [], [], 0.0, -1
    while True:
        if q.log_gen is not None:
            term = math.exp(q.log_gen(k + 2) + k * log_c)
        else:
            term = float(q.value(k + 2)) * c**k
        ks.append(k)
        vals.append(term)
        total += term
        if k >= k_min and k + 2 >= q.tail_start:
            rho_d = rho * math.exp(deg / k)
            if rho_d < 1.0:
                bound = term * (k + 2) ** deg * rho_d / (1.0 - rho_d)
                if bound < tol * max(1.0, total):
                    return ks, vals, bound
        k += 1


class TestPositiveTerms:
    @pytest.mark.parametrize("H", [2.0, 3.0, 5.0])
    @pytest.mark.parametrize("variant", ["plain", "deformed", "scaled"])
    def test_matches_scalar_loop(self, H, variant):
        q = preset("geometric", H=H).weights
        q = {"plain": q, "deformed": q.deformed(0.99),
             "scaled": q.scaled(0.7)}[variant]
        c_max = 1.0 / q.tail_ratio
        for f in (0.5, 0.9, 0.99):
            c = 2.0 + f * (c_max - 2.0)
            ks, vals, bound = q.positive_terms(c)
            ref_ks, ref_vals, ref_bound = scalar_positive_terms(q, c)
            assert ks.tolist() == ref_ks
            np.testing.assert_allclose(vals, ref_vals, rtol=1e-15, atol=0)
            assert bound == pytest.approx(ref_bound, rel=1e-13)

    def test_gen_only_family_evaluates_no_extra_weights(self):
        # a family without log weights pays per weight (a quadrature for
        # the symmetric family): evaluate exactly what the scalar loop does
        def family(calls):
            def gen(k):
                calls.append(k)
                return 0.0 if k % 3 == 0 else 0.5 * 0.4**k
            return WeightSequence(gen=gen, tail_ratio=0.4, tail_start=1)

        for cs in ((2.1,), (2.1, 2.4), (2.4, 2.1, 2.45)):
            calls, ref_calls = [], []
            q, ref = family(calls), family(ref_calls)
            for c in cs:
                ks, vals, _ = q.positive_terms(c)
                ref_ks, ref_vals, _ = scalar_positive_terms(ref, c)
                assert ks.tolist() == ref_ks
                np.testing.assert_allclose(vals, ref_vals, rtol=1e-15, atol=0)
            assert sorted(calls) == sorted(ref_calls)

    def test_finite_support(self):
        q = WeightSequence({3: Fraction(1, 5), 6: 0.25, 400: 1e-300})
        ks, vals, bound = q.positive_terms(5.0)
        assert ks.tolist() == [1, 4, 398]
        assert bound == 0.0
        # 398 log 5 > 600: the last term is summed in log space
        big = math.exp(math.log(1e-300) + 398 * math.log(5.0))
        np.testing.assert_allclose(vals, [0.2 * 5.0, 0.25 * 5.0**4, big],
                                   rtol=1e-15)

    def test_nu_keys_are_python_ints(self):
        res = preset("geometric", H=3.0)
        pos = nu_from_q(res.weights, res.constants["c_plus"], res.constants["r"])
        assert all(type(k) is int for k in pos.nu)
        assert all(type(v) is float for v in pos.nu.values())


class TestQFromNu:
    def test_closed_form_inverse(self):
        pos = StepLawPositive(
            c_plus=float(math.sqrt(8)),
            r=1.0,
            nu={2: Fraction(2, 3)},
            nu_m2=Fraction(1, 4),
            exact=True,
            r_exact=Fraction(1),
        )
        q = q_from_nu(pos)
        assert q.value(4) == Fraction(1, 12)

    def test_round_trip_triangulation(self):
        q3 = 1.0 / math.sqrt(12 * math.sqrt(3))
        q = WeightSequence({3: q3})
        c = math.sqrt(6 + 4 * math.sqrt(3))
        r = 2 * math.sqrt(3) - 3
        back = q_from_nu(nu_from_q(q, c, r))
        assert back.value(3) == pytest.approx(q3, rel=1e-14)

    def test_round_trip_exact(self):
        q = WeightSequence({4: Fraction(1, 12), 6: Fraction(1, 100)})
        back = q_from_nu(nu_from_q(q, Fraction(5, 2), Fraction(1)))
        assert back.value(4) == Fraction(1, 12)
        assert back.value(6) == Fraction(1, 100)

    def test_geometric_closed_form(self):
        res = preset("geometric", H=3.0)
        target = 1.0 / (2.0 * math.sqrt(3.0))
        for k in range(1, 9):
            assert res.weights.value(k) == pytest.approx(target**k, rel=1e-12)


class TestPointedDisk:
    def test_degree_zero(self):
        assert pointed_disk(0, 123.0, 0.77) == 1.0

    def test_quadrangulation_degree_two(self):
        val = pointed_disk(2, math.sqrt(8.0), 1.0)
        assert val == pytest.approx(4.0, rel=1e-13)

    @pytest.mark.parametrize("name,params", [
        ("two_p_angulation", {"p": 2}),
        ("odd_angulation", {"p": 1}),
    ])
    def test_binomial_cross_form(self, name, params):
        res = preset(name, **params)
        c = res.constants["c_plus"]
        r = float(res.constants["r"])
        zp = ((1 + r) * c / 4.0) ** 2
        zd = (1 - r) * c / 2.0
        for l in range(13):
            assert pointed_disk_binomial(l, zp, zd) == pytest.approx(
                pointed_disk(l, c, r), rel=1e-11, abs=1e-13
            )


class TestPresets:
    def test_quadrangulation_constants(self):
        res = preset("two_p_angulation", p=2)
        assert res.weights.value(4) == Fraction(1, 12)
        assert res.constants["c_plus"] == pytest.approx(2 * math.sqrt(2), rel=1e-15)
        assert res.constants["L_nu"] == Fraction(4, 3)
        assert res.constants["nu_pos"][2] == Fraction(2, 3)
        assert res.constants["nu_m2"] == Fraction(1, 4)

    def test_two_p_closed_forms(self):
        for p in range(2, 7):
            res = preset("two_p_angulation", p=p)
            assert res.constants["nu_pos"][2 * p - 2] == Fraction(
                2 ** (2 * p - 1), p * math.comb(2 * p, p)
            )
            assert res.constants["nu_m2"] == Fraction(p - 1, 2 * p)
            assert res.constants["c_plus"] == pytest.approx(
                math.sqrt(4 * p / (p - 1)), rel=1e-15
            )

    def test_triangulation_constants(self):
        res = preset("odd_angulation", p=1)
        assert res.constants["r"] == pytest.approx(2 * math.sqrt(3) - 3, abs=1e-13)
        assert res.constants["c_plus"] == pytest.approx(
            math.sqrt(6 + 4 * math.sqrt(3)), rel=1e-12
        )
        assert res.weights.value(3) == pytest.approx(
            1.0 / math.sqrt(12 * math.sqrt(3)), rel=1e-12
        )
        assert res.constants["L_nu"] == pytest.approx(
            0.5 * (1 + 1 / math.sqrt(3)), rel=1e-12
        )

    def test_geometric_constants(self):
        res = preset("geometric", H=3.0)
        assert res.constants["r"] == pytest.approx(0.6, abs=1e-14)
        assert res.constants["L_nu"] == pytest.approx(5.0, abs=1e-12)
        assert res.constants["c_plus"] == pytest.approx(
            2 * 10 / (2 ** 1.5 * math.sqrt(6)), rel=1e-14
        )

    def test_geometric_duality(self):
        # H and (H+3)/(H-1) are dual; the dual weights follow from the
        # substitution (H-1)/2 -> 2/(H-1) in the closed form
        H = 2.0
        Hd = (H + 3) / (H - 1)
        dual = preset("geometric", H=Hd).weights
        s = 2.0 / (H - 1)  # the substituted half-spacing (Hd - 1) / 2
        scale = 16 * Hd / ((Hd + 3) * (2 * s) ** 3)
        ratio = (2 * s) ** 1.5 * math.sqrt(Hd + 3) / (2 * (Hd**2 + 3))
        for k in range(1, 9):
            assert dual.value(k) == pytest.approx(scale * ratio**k, rel=1e-11)

    def test_geometric_domain(self):
        with pytest.raises(ValueError):
            preset("geometric", H=1.0)

    def test_symmetric_critical_domain(self):
        with pytest.raises(ValueError):
            preset("symmetric_critical", r=1.0, a=1.0)

    def test_aliases(self):
        res = preset_by_alias("quadrangulation")
        assert res.weights.value(4) == Fraction(1, 12)
        assert "triangulation" in PRESET_ALIASES

    def test_pentangulation_is_solved(self):
        res = preset("odd_angulation", p=2)
        r = res.constants["r"]
        assert -1 < r < 1
        cache = HCache(r, mode="float")
        lhs = h_eval(cache, 1, 5)
        rhs = 0.5 * (3 - r) * h_eval(cache, 1, 4)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestSerialization:
    def test_rational_round_trip(self, tmp_path):
        q = WeightSequence({3: Fraction(2, 7), 4: Fraction(1, 12)})
        path = tmp_path / "weights.json"
        q.dump(path)
        back = WeightSequence.load(path)
        assert back.support == q.support
        assert isinstance(back.value(3), Fraction)

    def test_family_round_trip(self, tmp_path):
        q = preset("geometric", H=3.0).weights
        path = tmp_path / "geo.json"
        q.dump(path)
        back = WeightSequence.load(path)
        for k in range(1, 10):
            assert back.value(k) == pytest.approx(q.value(k), rel=1e-15)

    def test_parse_weight(self):
        assert parse_weight("1/12") == Fraction(1, 12)
        assert parse_weight("3") == Fraction(3)
        assert isinstance(parse_weight("0.25"), float)

    def test_config_shape(self):
        cfg = WeightSequence({4: Fraction(1, 12)}).to_config()
        assert json.dumps(cfg)
        assert cfg["weights"]["4"] == "1/12"


class TestDeformation:
    def test_even_support_is_polynomial_in_g(self):
        q = WeightSequence({4: Fraction(1, 12)})
        qg = q.deformed(0.25)
        assert qg.value(4) == pytest.approx((1 / 12) * 0.25, rel=1e-15)

    def test_odd_support_half_power(self):
        q = WeightSequence({3: 0.2})
        qg = q.deformed(0.25)
        assert qg.value(3) == pytest.approx(0.2 * 0.5, rel=1e-15)

    def test_scaled(self):
        q = WeightSequence({3: Fraction(1), 4: Fraction(1)})
        qs = q.scaled(Fraction(1, 10))
        assert qs.value(3) == Fraction(1, 10)
