import json
import math

import numpy as np
import pytest

from peelkit.peeling import VolumeSampler, _rng
from peelkit.scaling import (
    ScalingReport,
    _quantile_with_se,
    collapse_test,
    cplus_slope_test,
    ecf_test,
    exponent_regression,
    limit_ecf,
    perimeter_normalizer,
    rescale,
    volume_normalizer,
)
from peelkit.walk import complete_nu, symmetric_family
from peelkit.weights import nu_from_q, preset


def make_law(name, k_neg=512, **params):
    res = preset(name, **params)
    pos = nu_from_q(res.weights, res.constants["c_plus"], float(res.constants["r"]))
    return complete_nu(pos, k_neg=k_neg)


QUAD_LAW = make_law("two_p_angulation", p=2)
TRI_LAW = make_law("odd_angulation", p=1)
GEO3_LAW = make_law("geometric", H=3.0)
LAWS = {"quad": QUAD_LAW, "tri": TRI_LAW, "geo3": GEO3_LAW}


class TestNormalizers:
    def test_quadrangulation_factors(self):
        n = 1000
        a = perimeter_normalizer(QUAD_LAW, n)
        assert a == pytest.approx((math.sqrt(2.0) * (4.0 / 3.0) * n) ** (2 / 3),
                                  rel=1e-12)
        b = volume_normalizer(QUAD_LAW, n)
        assert b == pytest.approx(
            (8.0 / 24.0) * (2.0 / 3.0) ** (1 / 3) * n ** (4 / 3), rel=1e-12
        )

    def test_doubling_exponent(self):
        a1 = perimeter_normalizer(QUAD_LAW, 5000)
        a2 = perimeter_normalizer(QUAD_LAW, 10000)
        assert a2 / a1 == pytest.approx(2.0 ** (2 / 3), rel=1e-12)

    def test_initial_condition_vanishes(self):
        lh, _ = rescale(np.array([2]), np.array([0]), QUAD_LAW, 10**6, t=0.0)
        assert lh[0] < 1e-3

    def test_rescale_length_guard(self):
        with pytest.raises(ValueError):
            rescale(np.array([2]), np.array([0]), QUAD_LAW, 100, t=2.0)


class TestEcf:
    def test_theta_zero_trivial(self):
        assert limit_ecf([0.0])[0] == 1.0 + 0.0j

    def test_limit_conjugate_symmetry(self):
        thetas = np.array([0.3, 1.1, 2.7])
        assert np.allclose(limit_ecf(-thetas), np.conj(limit_ecf(thetas)))

    def test_empirical_conjugate_symmetry(self):
        rep_p = ecf_test(QUAD_LAW, 2000, 4000, thetas=(0.8,), seed=3)
        rep_m = ecf_test(QUAD_LAW, 2000, 4000, thetas=(-0.8,), seed=3)
        assert rep_m.empirical[0] == pytest.approx(
            np.conj(rep_p.empirical[0]), abs=1e-12
        )

    def test_moderate_scale_agreement(self):
        rep = ecf_test(QUAD_LAW, 10_000, 20_000, thetas=(0.5, 1.0, 2.0), seed=11)
        assert rep.max_discrepancy() <= 0.03

    @pytest.mark.parametrize("n,samples", [(0, 100), (-5, 100), (100, 0),
                                           (1000.5, 100), (100, 100.5), ("1000", 100)])
    def test_run_size_checked(self, n, samples):
        # below 1 or not an integer: refused before any draw
        with pytest.raises(ValueError, match="n_samples|must be integral"):
            ecf_test(QUAD_LAW, n, samples)

    @pytest.mark.parametrize("name,k_common", [
        pytest.param(name, k, id=str(k) if name == "quad" else f"{name}-{k}")
        for name in LAWS for k in (8, 64, 512, 1024)])
    def test_exact_characteristic_function(self, name, k_common, monkeypatch):
        # every split point gives the law of X_n under the law deepened to
        # ECF_K_DEEP (its remainder beyond that weighs ~1e-8), whose exact
        # ecf is phi(theta / a_n)^n; the sampler must agree within 4 SE
        from peelkit import scaling
        from peelkit.walk import deepen_negative

        monkeypatch.setattr(scaling, "ECF_K_COMMON", k_common)
        law = LAWS[name]
        n, thetas = 200, np.array([0.5, 1.0, 2.0])
        rep = ecf_test(law, n, 20_000, thetas=thetas, seed=5)
        deep = deepen_negative(law, scaling.ECF_K_DEEP)
        exact = deep.char_function(thetas / perimeter_normalizer(law, n)) ** n
        assert np.all(np.abs(rep.empirical - exact) <= 4.0 * rep.std_error)

    @pytest.mark.parametrize("name", ["quad", "tri", "geo3"])
    @pytest.mark.parametrize("n", [1, 200, 10_000])
    def test_common_powers_exact(self, name, n):
        # each power of the common part that ecf_test draws from, with its
        # rounding negatives clipped as they are for the draw, has the
        # characteristic function phi_c(theta)^N of the normalized common
        # law, summed here directly; N runs over the common steps a sample
        # can have, down to 0 at n = 1 (its one step in the tail).  The
        # transform's rounding, about eps, grows N-fold in its N-th power
        from peelkit import scaling
        from peelkit.walk import deepen_negative

        deep = deepen_negative(LAWS[name], scaling.ECF_K_DEEP)
        powers = scaling._CommonPowers(deep, n)
        assert powers.step == (2 if name == "quad" else 1)
        sel = (deep.ks >= -scaling.ECF_K_COMMON) & (deep.probs > 0)
        ks, p = deep.ks[sel], deep.probs[sel] / deep.probs[sel].sum()
        for N in sorted({0, n - 1, n}):
            lo, w = powers.window(N)
            w = np.maximum(w, 0.0)
            values = powers.step * (lo + np.arange(len(w)))
            for theta in (0.0, 0.001, 0.01, 0.1, 1.0):
                # log phi_c from phi_c - 1 = a + ib, summed term by term
                x = theta * ks
                a = (p * -2.0 * np.sin(x / 2) ** 2).sum()
                b = (p * np.sin(x)).sum()
                exact = np.exp(N * complex(0.5 * math.log1p(2 * a + a * a + b * b),
                                           math.atan2(b, 1.0 + a)))
                window = (w * np.exp(1j * theta * values)).sum()
                assert abs(window - exact) <= 1e-12 + 1e-15 * N, (N, theta)

    def test_report_shape(self):
        rep = ecf_test(QUAD_LAW, 1000, 2000, thetas=(1.0,), seed=0)
        doc = rep.to_report()
        assert doc["rows"][0]["theta"] == 1.0
        assert json.dumps(doc)
        # numpy integer sizes give the same draws and a report json can write
        rep_np = ecf_test(QUAD_LAW, np.int64(1000), np.int64(2000), thetas=(1.0,), seed=0)
        assert json.dumps(rep_np.to_report()) == json.dumps(doc)


class TestCollapse:
    def test_self_consistency_across_seeds(self):
        a = collapse_test({"m": QUAD_LAW}, 2000, 4000, seed=1)
        b = collapse_test({"m": QUAD_LAW}, 2000, 4000, seed=2)
        for which in ("l_hat", "v_hat"):
            va, sa = a.models["m"][which]
            vb, sb = b.models["m"][which]
            for x, sx, y, sy in zip(va, sa, vb, sb):
                assert abs(x - y) <= 3.5 * math.hypot(sx, sy) + 1e-9

    def test_cross_model_medians(self):
        rep = collapse_test(
            {"quad": QUAD_LAW, "tri": TRI_LAW}, 4000, 4000, seed=7
        )
        assert rep.rel_median_gap("l_hat") <= 0.05
        med = rep.quantiles.index(0.5)
        va = rep.models["quad"]["v_hat"][0][med]
        vb = rep.models["tri"]["v_hat"][0][med]
        assert 0.9 <= va / vb <= 1.1

    def test_csv_export(self, tmp_path):
        rep = collapse_test({"m": QUAD_LAW}, 500, 200, seed=0)
        path = tmp_path / "samples.csv"
        rep.samples_to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "model,l_hat,v_hat"
        assert len(lines) == 201

    def test_too_few_chains_refused_before_any_draw(self, monkeypatch):
        # one chain per standard-error group at least; fewer used to run
        # the first model's whole ensemble and then fail in np.quantile
        from peelkit import scaling

        def fail(*args, **kwargs):
            raise AssertionError("a draw was made before the refusal")

        monkeypatch.setattr(scaling, "simulate_ensemble", fail)
        assert scaling.SE_GROUPS == 16
        with pytest.raises(ValueError, match="at least 16 chains"):
            collapse_test({"m": QUAD_LAW}, 2000, 15, seed=1)

    def test_one_chain_per_group_suffices(self):
        rep = collapse_test({"m": QUAD_LAW}, 50, 16, seed=1)
        vals, ses = rep.models["m"]["l_hat"]
        assert np.all(np.isfinite(vals)) and np.all(np.isfinite(ses))


class TestQuantileErrors:
    @staticmethod
    def _split_loop(samples, qs, groups=16):
        """The group errors as one np.quantile call per np.array_split group."""
        per_group = np.vstack([np.quantile(p, qs) for p in np.array_split(samples, groups)])
        return np.quantile(samples, qs), per_group.std(axis=0, ddof=1) / math.sqrt(groups)

    def test_matches_the_split_loop_bytewise(self):
        # sizes 16 to 2049: every remainder mod 16 and both sides of the
        # bench's 768 and of the powers of two
        rng = np.random.default_rng(11)
        qs = [0.1, 0.25, 0.5, 0.75, 0.9]
        sizes = sorted(set(range(16, 2050, 37)) | {17, 31, 32, 33, 767, 768, 769,
                                                   1023, 1024, 1025, 2047, 2048, 2049})
        for n in sizes:
            x = rng.standard_exponential(n) ** 1.7
            got, want = _quantile_with_se(x, qs), self._split_loop(x, qs)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want], n

    def test_fewer_samples_than_groups_refused(self):
        with pytest.raises(ValueError, match="cannot fill 16 groups"):
            _quantile_with_se(np.arange(15.0), [0.5])


class TestExponents:
    def test_small_scale_slopes(self):
        rep = exponent_regression(
            QUAD_LAW, n_values=(1000, 10_000), chains=1024, seed=4
        )
        assert rep.perimeter_slope == pytest.approx(2 / 3, abs=0.07)
        assert rep.volume_slope == pytest.approx(4 / 3, abs=0.12)


class TestSlope:
    @pytest.mark.parametrize("name,params,tol", [
        ("two_p_angulation", {"p": 2}, 0.005),
        ("odd_angulation", {"p": 1}, 0.005),
        ("geometric", {"H": 3.0}, 0.005),
    ])
    def test_preset_slopes(self, name, params, tol):
        q = preset(name, **params).weights
        rep = cplus_slope_test(q)
        assert rep.rel_error <= tol
        if name == "two_p_angulation":
            assert rep.predicted == pytest.approx(0.5, rel=1e-12)
        if name == "odd_angulation":
            assert abs(rep.c_minus_estimate) <= 0.01

    @pytest.mark.parametrize("name,params", [
        ("odd_angulation", {"p": 1}),
        ("odd_angulation", {"p": 3}),
        ("geometric", {"H": 3.0}),
    ])
    def test_near_fold_accuracy(self, name, params):
        # the solves at g = 1 - 10^(-j) sit near the fold, where the
        # root is this accurate only when Newton's Jacobian is
        rep = cplus_slope_test(preset(name, **params).weights)
        assert rep.rel_error <= 6e-9

    @pytest.mark.parametrize("j_range", [
        (), [], (2, 2, 3), (3, 2), (0, 2), (-1, 2), (2.0, 3), (True, 2),
    ])
    def test_j_range_checked(self, j_range):
        # the continuation walks j upward from one solve to the next
        q = preset("odd_angulation", p=1).weights
        with pytest.raises(ValueError, match="j_range"):
            cplus_slope_test(q, j_range=j_range)

    @pytest.mark.parametrize("name,params", [
        ("odd_angulation", {"p": 1}),
        ("geometric", {"H": 3.0}),
    ])
    def test_continuation_matches_cold_solve(self, name, params, monkeypatch):
        from peelkit import criticality, scaling
        from peelkit.criticality import solve_boltzmann

        solved = []

        def spy(solve):
            def spied(q, g=1.0, initial=None):
                cd = solve(q, g=g, initial=initial)
                solved.append((g, initial, cd))
                return cd
            return spied

        # the first solve validates q; the deformed ones skip the check
        for solve in ("solve_boltzmann", "_solve_valid"):
            monkeypatch.setattr(scaling, solve, spy(getattr(criticality, solve)))
        q = preset(name, **params).weights
        cplus_slope_test(q)
        # every solve after the first at g < 1 starts from the last root
        assert [initial is None for _, initial, _ in solved] == [
            True, True, False, False, False, False]
        for g, _, cd in solved[1:]:
            cold = solve_boltzmann(q, g=g)
            assert cd.classification == cold.classification
            assert cd.c_plus == pytest.approx(cold.c_plus, rel=1e-10, abs=0)
            assert cd.r == pytest.approx(cold.r, rel=1e-10, abs=0)

    def test_validates_once(self, monkeypatch):
        # one check of q for the six solves: the deformed ones skip it
        from peelkit import criticality

        checked = []
        validate = criticality.validate
        monkeypatch.setattr(criticality, "validate",
                            lambda q: checked.append(q) or validate(q))
        q = preset("geometric", H=3.0).weights
        cplus_slope_test(q)
        assert checked == [q]

    def test_evaluation_count(self, monkeypatch):
        # continuation in g: each solve starts from the root at the last g
        from peelkit import criticality

        calls = []
        sums = criticality._System._sums

        def counted(self, *args):
            calls.append(1)
            return sums(self, *args)

        monkeypatch.setattr(criticality._System, "_sums", counted)
        rep = cplus_slope_test(preset("odd_angulation", p=2).weights)
        assert rep.rel_error <= 0.005
        assert 0 < len(calls) <= 600

    def test_subcritical_refused(self):
        from fractions import Fraction

        from peelkit.weights import WeightSequence

        with pytest.raises(ValueError):
            cplus_slope_test(WeightSequence({4: Fraction(1, 20)}))


class TestVolumeLimitCrossCheck:
    def test_laplace_transform_of_sampled_volumes(self):
        # xi-mode volume draws at moderate degree reproduce the limit
        # Laplace transform; exactness at small degrees is anchored by the
        # enumeration tables elsewhere
        vs = VolumeSampler(QUAD_LAW, "asymptotic_xi")
        rng = _rng(2718)
        for l in (20, 50):
            draws = vs.draw_many(rng, np.full(60_000, l)).astype(float)
            scaled = draws / (QUAD_LAW.B_nu * l * l)
            for lam in (0.5, 1.0, 2.0):
                target = (1 + math.sqrt(2 * lam)) * math.exp(-math.sqrt(2 * lam))
                vals = np.exp(-lam * scaled)
                se = vals.std() / math.sqrt(len(vals))
                # the integer rounding of the draws adds a small bias on
                # top of the Monte Carlo error at these degrees
                assert abs(vals.mean() - target) <= 4 * se + 2e-3


class TestHeavyLaw:
    # a heavy-tailed law has L_nu = inf, so no n^(2/3) normalizer and no
    # 3/2-stable limit to test; each test refuses it before any draw
    HEAVY = symmetric_family(1.0, math.pi / 4, k_pos=64)

    @pytest.fixture(autouse=True)
    def no_draws(self, monkeypatch):
        from peelkit import scaling

        def fail(*args, **kwargs):
            raise AssertionError("a draw was made before the refusal")

        monkeypatch.setattr(scaling, "_rng", fail)
        monkeypatch.setattr(scaling, "simulate_ensemble", fail)

    def test_ecf_refuses(self):
        with pytest.raises(ValueError, match="heavy-tailed"):
            ecf_test(self.HEAVY, 200, 100)

    def test_collapse_refuses_before_the_first_model(self):
        with pytest.raises(ValueError, match="heavy-tailed"):
            collapse_test({"quad": QUAD_LAW, "sym": self.HEAVY}, 200, 100)

    def test_exponent_regression_refuses(self):
        with pytest.raises(ValueError, match="heavy-tailed"):
            exponent_regression(self.HEAVY, n_values=(100, 1000), chains=16)


class TestReport:
    def test_to_report(self):
        rep = ScalingReport(
            ecf=ecf_test(QUAD_LAW, 500, 500, thetas=(1.0,), seed=0),
        )
        doc = json.loads(json.dumps(rep.to_report(), allow_nan=False))
        assert list(doc) == ["ecf"]
        assert doc["ecf"]["n_samples"] == 500
