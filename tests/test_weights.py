import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from peelkit.errors import DivergentSeriesError
from peelkit.hfun import HCache
from peelkit.weights import (
    K_CAP,
    PRESET_ALIASES,
    StepLawPositive,
    ValidationReport,
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
from test_criticality import _families


def scan_validate(q):
    """`validate` as it was before finite supports read their lattice off
    the support's keys and infinite families stopped at a gcd of 1: every
    check, with the vertex-count lattice scanned through q.value over
    degrees 3..514."""
    if q.is_finite:
        items = list(q.support.items())
    else:
        items = [(k, q.value(k)) for k in range(1, 128)]
    if not items or all(v == 0 for _, v in items):
        return ValidationReport(True, False, False, 0, False, ["empty support"])
    msgs = []
    nonneg = all(v >= 0 for _, v in items)
    if not nonneg:
        msgs.append("negative weight present")
    nondeg = any(k >= 3 and v > 0 for k, v in items)
    if not nondeg:
        msgs.append("no positive weight of degree >= 3")
    lattice = {k for k in range(1, 257) if q.value(2 * k + 2) > 0}
    lattice |= {k for k in range(1, 257, 2) if q.value(k + 2) > 0}
    d = math.gcd(*lattice) if lattice else 0
    return ValidationReport(nonneg, nondeg, q.bipartite, d, nonneg and nondeg,
                            msgs)


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

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(st.dictionaries(
        st.one_of(st.integers(1, 16), st.integers(250, 530)),
        st.one_of(st.fractions(-2, 2, max_denominator=50),
                  st.floats(-2.0, 2.0, allow_nan=False)),
        max_size=5))
    @example({257: 1, 514: Fraction(1, 2)})
    @example({259: 1, 516: 1})
    @example({3: -1, 6: 0.5, 259: 2})
    def test_finite_lattice_matches_scan(self, support):
        # degrees past the scan window (even >= 516, odd >= 259) and zero or
        # negative weights must not enter the lattice read off the support
        q = WeightSequence(support)
        assert validate(q) == scan_validate(q)


    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(st.dictionaries(
        st.one_of(st.integers(1, 140), st.integers(250, 530)),
        st.one_of(st.fractions(-2, 2, max_denominator=50),
                  st.floats(-2.0, 2.0, allow_nan=False)),
        max_size=5))
    @example({4: 1, 6: 1})
    @example({6: 1, 258: 1})
    @example({8: 1, 14: 1, 257: 1})
    @example({130: 1})
    def test_infinite_family_matches_scan(self, support):
        # the same weights read through a generator: the gcd stops at 1,
        # and a lattice of gcd 2, 3 or 6, or none, is read to its end
        def family():
            return WeightSequence(gen=lambda k: support.get(k, 0.0),
                                  tail_ratio=0.5)

        assert validate(family()) == scan_validate(family())

    @pytest.mark.parametrize("name, params", [
        ("geometric", {"H": 1.5}), ("geometric", {"H": 3.0}),
        ("geometric", {"H": 8.0}), ("symmetric_critical", {"r": 1.0, "a": math.pi / 4}),
        ("symmetric_critical", {"r": 0.5, "a": 0.5}),
        ("symmetric_critical", {"r": -0.5, "a": 0.3}),
        ("two_p_angulation", {"p": 3}), ("odd_angulation", {"p": 2})])
    def test_presets_match_scan(self, name, params):
        # field by field, on the preset and on its scaled and deformed
        # sequences
        def shapes():
            q = preset(name, **params).weights
            return q, q.scaled(2.5), q.deformed(0.7)

        for q, ref in zip(shapes(), shapes()):
            assert validate(q) == scan_validate(ref)


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
        assert pos.nu_at(1) == pytest.approx(1.0 / cache.value(1, 2), rel=1e-12)

    def test_divergent_tail(self):
        w = preset("geometric", H=3.0).weights
        with pytest.raises(DivergentSeriesError):
            w.positive_terms(10.0)

    def test_requires_c_above_two(self):
        with pytest.raises(ValueError):
            nu_from_q(WeightSequence({4: Fraction(1, 12)}), 1.5, 1.0)


def scalar_positive_terms(q, c):
    """Term-by-term reference for positive_terms on an infinite family:
    DivergentSeriesError where `tail_rho` refuses c or no cut comes within
    K_CAP terms, OverflowError where a term overflows."""
    rho = q.tail_rho(c)
    log_c = math.log(c)
    ks, vals, total, k = [], [], 0.0, -1
    while k <= K_CAP:
        if q.log_gen is not None:
            term = math.exp(q.log_gen(k + 2) + k * log_c)
        else:
            w, e = float(q.value(k + 2)), k * log_c
            # past k log c = 600 in log space, as the pass does
            term = w * c**k if e <= 600.0 else (
                math.exp(math.log(w) + e) if w else 0.0)
        ks.append(k)
        vals.append(term)
        total += term
        if k >= 64 and k + 2 >= q.tail_start:
            rho_d = rho * math.exp(2 / k)
            if rho_d < 1.0:
                bound = term * (k + 2) ** 2 * rho_d / (1.0 - rho_d)
                if bound < 1e-16 * max(1.0, total):
                    return ks, vals, bound
        k += 1
    raise DivergentSeriesError("no cut within K_CAP terms")


def positive_terms_or_error(fn, q, c):
    """fn(q, c), or the type of the error it raised."""
    try:
        return fn(q, c)
    except (DivergentSeriesError, OverflowError) as exc:
        return type(exc)


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

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(_families, st.floats(0.0, 1.0, exclude_min=True))
    @example(preset("geometric", H=3.0).weights, 1.0)
    @example(preset("geometric", H=3.0).weights.scaled(1e300).scaled(1e300),
             0.5)
    def test_families_match_scalar_loop(self, q, u):
        # log-weight, generator-only and symmetric families, deformed and
        # scaled, at c anywhere in (2, c_max]: the same ks, values within
        # 1e-15, the bound within 1e-13, or the same error (a tail too
        # slow at u = 1, a term past the double range)
        c = 2.0 + u * ((1.0 - 1e-9) / q.tail_ratio - 2.0)
        got = positive_terms_or_error(WeightSequence.positive_terms, q, c)
        ref = positive_terms_or_error(scalar_positive_terms, q, c)
        if isinstance(got, type) or isinstance(ref, type):
            assert got is ref
            return
        (ks, vals, bound), (ref_ks, ref_vals, ref_bound) = got, ref
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

    @pytest.mark.parametrize("name, params", [
        ("two_p_angulation", {}),
        ("odd_angulation", {"H": 3.0}),
        ("geometric", {"p": 4}),
        ("geometric", {"H": 3.0, "p": 4}),
        ("symmetric_critical", {"r": 1.0}),
        ("symmetric_critical", {"a": 0.7}),
        ("nonesuch", {}),
    ])
    def test_missing_or_unread_parameter(self, name, params):
        # a family takes exactly the parameters it names, no default and
        # no ignored extra
        with pytest.raises(ValueError, match="takes|unknown preset"):
            preset(name, **params)

    @pytest.mark.parametrize("name", sorted(PRESET_ALIASES))
    def test_alias_takes_no_parameter(self, name):
        # quadrangulation with p = 3 is not quietly the hexangulation
        with pytest.raises(ValueError, match="takes no parameter"):
            preset_by_alias(name, p=3)

    def test_pentangulation_is_solved(self):
        res = preset("odd_angulation", p=2)
        r = res.constants["r"]
        assert -1 < r < 1
        cache = HCache(r, mode="float")
        lhs = cache.value(1, 5)
        rhs = 0.5 * (3 - r) * cache.value(1, 4)
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
