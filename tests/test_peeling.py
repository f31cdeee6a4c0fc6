import collections
import concurrent.futures
import contextlib
import ctypes
import dataclasses
import hashlib
import math
import os
import random
import re
import shutil
import time
import types
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from peelkit import _native, cli, peeling
from peelkit.criticality import solve_boltzmann, tune_critical
from peelkit.hfun import HCache, h_asymptote
from peelkit.oracle import volume_tables
from peelkit.peeling import (
    BLOCK_M,
    BLOCK_THETAS,
    L_SMALL,
    VOLUME_MODES,
    PeelTrace,
    VolumeSampler,
    _ChainEngine,
    _rng,
    _StackedCdf,
    sample_xi,
    simulate,
    simulate_ensemble,
    step_finite,
    step_ibpm,
)
from peelkit.scaling import ecf_test
from peelkit.walk import complete_nu, deepen_negative, expected_volume, symmetric_family
from peelkit.weights import (
    StepLawPositive,
    WeightSequence,
    nu_from_q,
    pointed_disk,
    preset,
)


def quad_law(k_neg=512, exact=False):
    res = preset("two_p_angulation", p=2)
    if exact:
        pos = StepLawPositive(
            c_plus=res.constants["c_plus"],
            r=1.0,
            nu={2: Fraction(2, 3)},
            nu_m2=Fraction(1, 4),
            exact=True,
            r_exact=Fraction(1),
        )
    else:
        pos = nu_from_q(res.weights, res.constants["c_plus"], 1.0)
    return complete_nu(pos, k_neg=k_neg)


def tri_law(k_neg=512):
    res = preset("odd_angulation", p=1)
    pos = nu_from_q(res.weights, res.constants["c_plus"], res.constants["r"])
    return complete_nu(pos, k_neg=k_neg)


LAW = quad_law()
LAW_EXACT = quad_law(k_neg=64, exact=True)


def guided_row(values, probs):
    """One guided `_StackedCdf` row: the inverse-CDF sampler of the finite
    law probs over values."""
    row = _StackedCdf(1, np.asarray(values), cells=peeling.GUIDE)
    row.append(np.asarray(probs, dtype=np.float64)[None, :])
    return row


def row_draws(row, rng, n):
    """n draws from the one row of row."""
    return row.draw(rng, np.zeros(n, dtype=np.intp))


class TestAlias:
    """One guided row as the sampler of a finite law."""

    def test_matches_distribution(self):
        rng = _rng(5)
        probs = np.array([0.5, 0.25, 0.125, 0.125])
        draws = row_draws(guided_row(np.arange(4), probs), rng, 200_000)
        freq = np.bincount(draws, minlength=4) / 200_000
        for i in range(4):
            se = math.sqrt(probs[i] * (1 - probs[i]) / 200_000)
            assert abs(freq[i] - probs[i]) < 4 * se

    def test_implied_probabilities_equal_input(self):
        probs = np.array([0.3, 0.0, 1e-9, 0.2, 0.5 - 1e-9, 0.0])
        implied = np.diff(guided_row(np.arange(6), probs).row(0), prepend=0.0)
        assert np.abs(implied - probs).max() < 1e-15


class TestStepLaws:
    def test_finite_quadrangulation_l2_exact(self):
        d = step_finite(2, LAW_EXACT)
        assert d.exact[2] == Fraction(1, 2)
        assert d.exact[-2] == Fraction(1, 2)

    def test_ibpm_quadrangulation_l2_exact(self):
        d = step_ibpm(2, LAW_EXACT)
        assert d.exact == {2: Fraction(1)}

    def test_normalization(self):
        for l in (2, 4, 10, 40):
            assert step_finite(l, LAW).total() == pytest.approx(1.0, abs=1e-4)
            assert step_ibpm(l, LAW).total() == pytest.approx(1.0, abs=1e-4)
        for l in (1, 2, 5, 11):
            law = tri_law()
            assert step_ibpm(l, law).total() == pytest.approx(1.0, abs=1e-4)

    def test_no_jump_below_zero(self):
        d = step_finite(4, LAW)
        assert d.ks.min() >= -4
        assert d.prob(-6) == 0.0

    def test_ibpm_blocked_jumps(self):
        # h(1, l+k) = 0 for l+k <= 0 kills the absorbing jumps
        d = step_ibpm(2, LAW)
        assert d.prob(-2) == 0.0

    def test_parity_preserved(self):
        # bipartite laws only move on the even sublattice; odd perimeters
        # carry zero weight and are rejected outright
        d = step_finite(6, LAW)
        assert all(k % 2 == 0 for k in d.ks)
        with pytest.raises(ValueError):
            step_finite(5, LAW)
        d = step_ibpm(3, tri_law())
        assert d.total() == pytest.approx(1.0, abs=1e-4)

    def test_absorbed_state_error(self):
        with pytest.raises(ValueError):
            step_finite(0, LAW)

    def test_non_critical_refused(self):
        from fractions import Fraction

        from peelkit.criticality import solve_boltzmann
        from peelkit.weights import WeightSequence

        sub = WeightSequence({4: Fraction(1, 20)})
        cd = solve_boltzmann(sub)
        law = complete_nu(nu_from_q(sub, cd.c_plus, cd.r), k_neg=32,
                          critical=False)
        with pytest.raises(ValueError):
            step_ibpm(4, law)

    def test_emaprel_ratio_identity(self):
        # one-step ibpm and finite laws differ by the explored-map
        # reweighting h(1,l)/h(1,l0) * h(0,l0)/h(0,l)
        cache = LAW.hcache()
        for k in (-2, 2):
            l0 = 2
            l = l0 + k
            num = step_ibpm(l0, LAW).prob(k)
            den = step_finite(l0, LAW).prob(k)
            if den == 0:
                assert num == 0
                continue
            expect = (cache.value(1, l) / cache.value(1, l0)) * (
                cache.value(0, l0) / cache.value(0, l)
            )
            assert num / den == pytest.approx(expect, rel=1e-12)


class TestXi:
    def test_density_normalization(self):
        val, err = integrate.quad(
            lambda x: math.exp(-0.5 / x) * x**-2.5 / math.sqrt(2 * math.pi),
            0, np.inf,
        )
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_mean_one(self):
        rng = _rng(123)
        x = sample_xi(rng, size=1_000_000)
        se = x.std() / 1000.0
        assert abs(x.mean() - 1.0) < 4 * se

    def test_laplace_transform(self):
        rng = _rng(321)
        x = sample_xi(rng, size=1_000_000)
        for lam in (0.5, 1.0, 2.0):
            target = (1 + math.sqrt(2 * lam)) * math.exp(-math.sqrt(2 * lam))
            vals = np.exp(-lam * x)
            se = vals.std() / 1000.0
            assert abs(vals.mean() - target) < 4 * se

    def test_density_matches_reciprocal_gamma(self):
        # the inverse-Gamma density algebra, checked by quadrature of the
        # stated density against the sampler's distribution function
        rng = _rng(11)
        x = sample_xi(rng, size=400_000)
        for cut in (0.5, 1.0, 3.0):
            val, _ = integrate.quad(
                lambda t: math.exp(-0.5 / t) * t**-2.5 / math.sqrt(2 * math.pi),
                0, cut,
            )
            emp = (x <= cut).mean()
            se = math.sqrt(val * (1 - val) / 400_000)
            assert abs(emp - val) < 5 * se


class TestVolumeSampler:
    def test_expectation_mode(self):
        vs = VolumeSampler(LAW, "expectation")
        rng = _rng(0)
        assert vs.draw_many(rng, [2, 0]).tolist() == [3, 1]

    def test_exact_small_tables_built(self):
        vs = VolumeSampler(LAW, "exact_small", l_exact=6, d_max=24)
        assert not vs.flags["exact_fallback"]
        assert set(vs.tables) == {2, 4, 6}

    def test_exact_small_distribution(self):
        from peelkit.oracle import volume_tables
        from peelkit.walk import disk_coefficient

        vs = VolumeSampler(LAW, "exact_small", l_exact=4, d_max=24)
        rng = _rng(99)
        draws = vs.draw_many(rng, np.full(200_000, 2))
        vt = volume_tables(preset("two_p_angulation", p=2).weights, 2, 24)
        total = disk_coefficient(LAW, 2)
        for V in (2, 3, 4):
            p = float(vt.values[V]) / total
            emp = (draws == V).mean()
            se = math.sqrt(p * (1 - p) / 200_000)
            assert abs(emp - p) < 4.5 * se

    @pytest.mark.parametrize("key", ["quad", "tri", "shape"])
    def test_tables_from_one_pass(self, key):
        # one enumeration pass at l_exact gives, for every l' <= l_exact,
        # the laws that a pass at l' gives; a deeper copy of the law reads
        # the same q and disk weights, so it finds the same tables
        from peelkit.walk import disk_coefficient
        from peelkit.weights import q_from_nu

        law = {"quad": quad_law, "tri": tri_law, "shape": shape_law}[key]()
        laws, cdf = peeling._exact_volume_tables(law, 6, 24)
        q = q_from_nu(law)
        assert sorted(laws) == list(range(1 + q.bipartite, 7, 1 + q.bipartite))
        for lp, (Vs, probs, v_star) in laws.items():
            vt = volume_tables(q, lp, 24)
            want = sorted(V for V in vt.values if V <= vt.V_star)
            total = float(disk_coefficient(law, lp))
            assert (Vs, v_star) == (want, vt.V_star)
            assert probs == [float(vt.values[V]) / total for V in want]
        for depth in (1024, 8192):
            assert peeling._exact_volume_tables(deepen_negative(law, depth), 6, 24)[1] is cdf

    @pytest.mark.parametrize("l_exact", [6, 10])
    @pytest.mark.parametrize("key", ["quad", "tri"])
    def test_exact_rows_share_one_guided_value_row(self, key, l_exact):
        # the exact volume laws are one guided table over one value row:
        # every volume ascending, then the residual markers -(V* + 1).  Row
        # l' weighs its volumes ascending and then its marker, with the
        # cumulative weights a row of its own holds, and no other column;
        # a look-up at every cut, at both edges of its guide cell and just
        # below each gives searchsorted's value over the whole table
        law = {"quad": quad_law, "tri": tri_law}[key]()
        laws, cdf = peeling._exact_volume_tables(law, l_exact, 24)
        vals = cdf._vals.tolist()
        assert cdf._vals.ndim == 1 and cdf.cells == peeling.ROW_GUIDE
        assert cdf.n == l_exact + 1 and len(cdf._guide) == cdf.n * cdf.cells
        vols = [v for v in vals if v > 0]
        assert vols == sorted(set(vols)) and vals[:len(vols)] == vols
        assert sorted(vals[len(vols):]) == sorted({-(v + 1) for _, _, v in laws.values()})
        # row 0, the one-vertex map, weighs the volume 1 alone
        assert vals[0] == 1 and (cdf.row(0) == 1.0).all()
        for lp, (Vs, probs, v_star) in laws.items():
            cols = [vals.index(V) for V in Vs + [-(v_star + 1)]]
            assert cols == sorted(cols)
            own = np.cumsum(probs + [max(0.0, 1.0 - sum(probs))])
            row = cdf.row(lp)
            assert row[cols].tobytes() == (own / own[-1] + lp).tobytes()
            weight = np.diff(np.concatenate([[lp], row]))
            assert not np.delete(weight, cols).any()
        rows, us = peeling._edges(cdf, np.arange(cdf.n))
        t = rows + us * _StackedCdf.U_MAX
        want = cdf._values_at(cdf._flat.searchsorted(t, "right"), rows)
        assert cdf.at(t).tobytes() == want.tobytes()
        settled = cdf._guide[(t * cdf.cells).astype(np.intp)] != cdf._open
        assert settled.any() and not settled.all()

    @pytest.mark.parametrize("path", ["compiled", "numpy"])
    @pytest.mark.parametrize("mode", ["exact_small", "asymptotic_xi"])
    def test_degree_0_draws_nothing(self, mode, path):
        # a hole of degree 0 is the one-vertex map: volume 1, with the
        # stream left where it was; among larger holes it leaves their
        # draws as they are without it
        vs = VolumeSampler(LAW, mode)
        assert bool(vs.l_exact) == (mode == "exact_small")
        rng = _rng(7)
        with draws_on(path):
            assert vs.draw_many(rng, np.zeros(1000, dtype=np.int64)).tolist() == [1] * 1000
            assert rng.random() == _rng(7).random()
            mixed = vs.draw_many(_rng(8), np.array([0, 2, 0, 40, 0]))
            alone = vs.draw_many(_rng(8), np.array([2, 40]))
        assert mixed[::2].tolist() == [1, 1, 1]
        assert mixed[1::2].tolist() == alone.tolist()

    def test_min_support_fallback(self):
        geo = preset("geometric", H=3.0)
        pos = nu_from_q(geo.weights, geo.constants["c_plus"], geo.constants["r"])
        law = complete_nu(pos, k_neg=64)
        vs = VolumeSampler(law, "exact_small")
        assert vs.flags["exact_fallback"]

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            VolumeSampler(LAW, "bogus")

    @pytest.mark.parametrize("kw", [{"l_exact": -5}, {"d_max": 0},
                                    {"l_exact": 2.5}])
    def test_size_validation(self, kw):
        with pytest.raises(ValueError, match="l_exact"):
            VolumeSampler(LAW, "exact_small", **kw)
        with pytest.raises(ValueError, match="l_exact"):
            simulate("ibpm", LAW, n_steps=10, **kw)

    def test_overflowing_disk_weight_falls_back(self):
        # c_+^(l'+2) leaves the float range long before l' = 2000: the
        # tables are uncertified, as they are past the law's depth
        tr = simulate("ibpm", LAW, n_steps=100, l_exact=2000, d_max=4)
        assert tr.flags["exact_fallback"]


class TestSimulate:
    def test_first_ibpm_step_deterministic(self):
        tr = simulate("ibpm", LAW, l0=2, n_steps=5, seed=42)
        assert tr.perimeters[0] == 2
        assert tr.perimeters[1] == 4
        assert tr.volumes[1] == 0

    def test_bit_identical_reruns(self):
        a = simulate("ibpm", LAW, l0=2, n_steps=3000, seed=9)
        b = simulate("ibpm", LAW, l0=2, n_steps=3000, seed=9)
        assert np.array_equal(a.perimeters, b.perimeters)
        assert np.array_equal(a.volumes, b.volumes)
        c = simulate("ibpm", LAW, l0=2, n_steps=3000, seed=10)
        assert not np.array_equal(a.perimeters, c.perimeters)

    def test_chain_index_splits_stream(self):
        a = simulate("ibpm", LAW, l0=2, n_steps=500, seed=9, chain_index=0)
        b = simulate("ibpm", LAW, l0=2, n_steps=500, seed=9, chain_index=1)
        assert not np.array_equal(a.perimeters, b.perimeters)

    def test_finite_absorbs_and_stays(self):
        tr = simulate("finite", LAW, l0=2, n_steps=4000, seed=3)
        assert tr.perimeters.min() == 0
        hit = np.argmax(tr.perimeters == 0)
        assert np.all(tr.perimeters[hit:] == 0)
        assert np.all(tr.volumes[hit:] == tr.volumes[hit])
        assert tr.volumes[-1] >= 1

    def test_trace_structure(self):
        tr = simulate("ibpm", LAW, l0=2, n_steps=2000, seed=5)
        jumps = np.diff(tr.perimeters)
        dv = np.diff(tr.volumes)
        # face steps (k >= -1) keep the volume, prunes increase it
        assert np.all(dv[jumps >= -1] == 0)
        assert np.all(dv[jumps <= -2] >= 1)
        assert tr.perimeters.min() >= 1

    def test_volume_increments_expectation_mode(self):
        tr = simulate("ibpm", LAW, l0=2, n_steps=2000, seed=5,
                      volume_mode="expectation")
        jumps = np.diff(tr.perimeters)
        dv = np.diff(tr.volumes)
        sel = jumps == -4
        assert sel.any()
        assert np.all(dv[sel] == 3)

    def test_csv_and_binary_round_trip(self, tmp_path):
        tr = simulate("ibpm", LAW, l0=2, n_steps=50, seed=1)
        p_csv = tmp_path / "trace.csv"
        tr.to_csv(p_csv)
        text = p_csv.read_text().splitlines()
        assert text[0] == "# seed=1"
        assert text[5] == "step,perimeter,volume"
        assert text[6] == "0,2,0"
        p_bin = tmp_path / "trace.bin"
        tr.to_binary(p_bin)
        per, vol = PeelTrace.read_binary(p_bin)
        assert np.array_equal(per, tr.perimeters)
        assert np.array_equal(vol, tr.volumes)
        # a file cut short, by a volume or down to less than its columns,
        # or with bytes past them, is refused rather than read short
        data = p_bin.read_bytes()
        for bad in (data[:-8], data[:-48], data[:4], b"", data + b"\0" * 8):
            p_bin.write_bytes(bad)
            with pytest.raises(ValueError, match="not a binary trace"):
                PeelTrace.read_binary(p_bin)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            simulate("bogus", LAW)
        with pytest.raises(ValueError):
            simulate("ibpm", LAW, l0=0)

    @pytest.mark.parametrize("kw", [{"seed": -1}, {"seed": 1 << 64},
                                    {"seed": 1.0}, {"chain_index": -1}])
    def test_seed_validation(self, kw):
        with pytest.raises(ValueError, match="seed|chain_index"):
            simulate("ibpm", LAW, n_steps=10, **kw)
        if "seed" in kw:
            with pytest.raises(ValueError, match="seed"):
                simulate_ensemble("ibpm", LAW, 2, 10, 4, seed=kw["seed"])

    def test_largest_seed_and_numpy_integers(self):
        top = (1 << 64) - 1
        a = simulate("ibpm", LAW, l0=4, n_steps=50, seed=top, chain_index=top)
        b = simulate("ibpm", LAW, l0=np.int64(4), n_steps=50,
                     seed=np.uint64(top), chain_index=np.uint64(top))
        np.testing.assert_array_equal(a.perimeters, b.perimeters)

    def test_l0_must_be_an_integer(self):
        # both entry points: never an index error, never int(2.5) = 2; the
        # same for n_steps, n_chains and the checkpoints
        for l0 in (2.5, 2.0, "2"):
            with pytest.raises(ValueError, match="l0"):
                simulate("ibpm", LAW, l0=l0, n_steps=10)
            with pytest.raises(ValueError, match="l0"):
                simulate_ensemble("ibpm", LAW, l0, 10, 4)
        for n in (10.0, 10.5, "10"):
            with pytest.raises(ValueError, match="n_steps"):
                simulate("ibpm", LAW, l0=2, n_steps=n)
            with pytest.raises(ValueError, match="n_steps"):
                simulate_ensemble("ibpm", LAW, 2, n, 4)
            with pytest.raises(ValueError, match="n_chains"):
                simulate_ensemble("ibpm", LAW, 2, 10, n)
        for cps in ([2.5, 7.9], ["3"], [3, 4.0], np.array([2.0])):
            with pytest.raises(ValueError, match="checkpoints"):
                simulate_ensemble("ibpm", LAW, 2, 10, 4, checkpoints=cps)
        a = simulate_ensemble("ibpm", LAW, np.int64(4), np.int64(10), np.int32(4), seed=1,
                              checkpoints=np.array([3, 7]))
        b = simulate_ensemble("ibpm", LAW, 4, 10, 4, seed=1, checkpoints=[3, 7])
        assert sorted(a) == sorted(b) == [3, 7, 10]
        for c in b:
            np.testing.assert_array_equal(a[c][0], b[c][0])
        np.testing.assert_array_equal(
            simulate("ibpm", LAW, n_steps=np.int64(10)).perimeters,
            simulate("ibpm", LAW, n_steps=10).perimeters)


class TestEmpiricalTransitions:
    @pytest.mark.parametrize("l", [4, 10])
    def test_ibpm_frequencies_match_step_law(self, l):
        engine_draws = 1_000_000
        rng = _rng(2024)
        dist = step_ibpm(l, LAW)
        draws = row_draws(guided_row(dist.ks, dist.probs), rng, engine_draws)
        for k, p in zip(dist.ks, dist.probs):
            if p < 1e-5:
                continue
            emp = (draws == k).mean()
            se = math.sqrt(p * (1 - p) / engine_draws)
            assert abs(emp - p) < 4 * se, (k, emp, p)

    def test_finite_frequencies_match_step_law(self):
        engine_draws = 1_000_000
        rng = _rng(4048)
        dist = step_finite(10, LAW)
        draws = row_draws(guided_row(dist.ks, dist.probs), rng, engine_draws)
        for k, p in zip(dist.ks, dist.probs):
            if p < 1e-5:
                continue
            emp = (draws == k).mean()
            se = math.sqrt(p * (1 - p) / engine_draws)
            assert abs(emp - p) < 4 * se, (k, emp, p)


class TestPointedDisk:
    """The finite chain rebuilds the pointed Boltzmann disk: peeling a disk
    of perimeter l0 with a marked vertex swallows independent Boltzmann
    holes, so the summed hole volumes plus the marked vertex, V + 1, follow
    V W(l0, V) / W.(l0), W from `oracle.volume_tables` and W. = c_+^l0
    h(0, l0) from `weights.pointed_disk`."""

    @staticmethod
    def _shape():
        # a random rational shape on degrees 3 and 4, tuned critical
        rnd = random.Random(3)
        shape = WeightSequence({d: Fraction(rnd.randint(1, 9), rnd.randint(1, 9))
                                for d in (3, 4)})
        t = tune_critical(shape)
        return shape.scaled(t.t_star), t.data.c_plus, t.data.r

    @pytest.mark.parametrize("key,l0,v_max", [("quad", 4, 7), ("tri", 3, 6),
                                              ("shape", 3, 5)])
    def test_volume_law(self, key, l0, v_max):
        # Only runs that end with V + 1 <= v_max vertices are counted, and
        # nothing but the exact volume rows can put a run there.  A disk of
        # v vertices has at most F = (2v - 2 - l0) / (m - 2) inner faces of
        # degree m or more, and every hole has a vertex, so such a run is
        # absorbed within n = F + v - 1 steps; the run stops there.  In n
        # steps no perimeter passes l0 + (n - 1) k_pos before the last
        # hole, so with l_exact that large no hole draws the limit law, and
        # a residual beyond a table's V* adds at least V* + 1 > v_max - 1
        # vertices.  The bounds are fixed before the counts: |z| <= 4.5 per
        # bin and the chi^2 of the bins and their complement at the 1e-4
        # quantile, both from binomial counts of all chains.
        from scipy import stats

        if key == "shape":
            q, c, r = self._shape()
        else:
            res = (preset("two_p_angulation", p=2) if key == "quad"
                   else preset("odd_angulation", p=1))
            q, c, r = res.weights, res.constants["c_plus"], res.constants["r"]
        law = complete_nu(nu_from_q(q, c, r), k_neg=512)
        m, d_max, chains = q.min_support, 24, 200_000
        n = (2 * v_max - 2 - l0) // (m - 2) + v_max - 1
        l_exact = l0 + (n - 1) * law.k_pos - 2
        assert m >= 3 and v_max - 1 <= volume_tables(q, 1 + q.bipartite, d_max).V_star
        out = simulate_ensemble("finite", law, l0, n, chains, seed=13,
                                volume_mode="exact_small", l_exact=l_exact, d_max=d_max)
        assert not out.flags["exact_fallback"]
        per, vol = out[n]
        counts = np.bincount(vol[per == 0] + 1, minlength=v_max + 1)[1:v_max + 1]
        table = volume_tables(q, l0, d_max).values
        p = np.array([v * float(table.get(v, 0)) / pointed_disk(l0, c, r)
                      for v in range(1, v_max + 1)])
        assert not counts[p == 0].any()
        counts, p = counts[p > 0], p[p > 0]
        assert len(p) >= 3
        z = (counts - chains * p) / np.sqrt(chains * p * (1 - p))
        assert np.abs(z).max() <= 4.5, z
        rest = chains - counts.sum(), chains * (1 - p.sum())
        chi2 = ((counts - chains * p) ** 2 / (chains * p)).sum() + (rest[0] - rest[1]) ** 2 / rest[1]
        assert chi2 <= stats.chi2.ppf(1 - 1e-4, len(p)), chi2


class TestHittingProbability:
    def test_raw_walk_hits_zero_with_h0_mass(self):
        # unconditioned walk from l: P(hit exactly 0 before < 0) = h(0, l)
        rng = _rng(777)
        law = LAW
        tab = guided_row(law.ks, law.probs)
        cache = law.hcache()
        for l0 in (2, 4):
            n_walks = 40_000
            pos = np.full(n_walks, l0, dtype=np.int64)
            alive = np.ones(n_walks, dtype=bool)
            hit = np.zeros(n_walks, dtype=bool)
            for _ in range(3000):
                if not alive.any():
                    break
                steps = row_draws(tab, rng, int(alive.sum()))
                pos[alive] += steps
                now = pos[alive]
                hit_now = now == 0
                dead = now <= 0
                idx = np.nonzero(alive)[0]
                hit[idx[hit_now]] = True
                alive[idx[dead]] = False
                # walks that wander far up will not return in time; the
                # target probability weight above the cap is negligible
                alive[pos > 10_000] = False
            target = cache.value(0, l0)
            emp = hit.mean()
            se = math.sqrt(target * (1 - target) / n_walks)
            assert abs(emp - target) < 4.5 * se + 1e-3, (l0, emp, target)

    def test_finite_mode_never_negative_and_absorbs(self):
        out = simulate_ensemble("finite", LAW, 2, 30_000, 1000, seed=6)
        ls, _ = out[30_000]
        assert ls.min() >= 0
        assert (ls == 0).mean() >= 0.9


class TestEnsemble:
    def test_matches_single_chain_distribution(self):
        out = simulate_ensemble("ibpm", LAW, 2, 64, 4000, seed=12)
        ls, _ = out[64]
        singles = np.array([
            simulate("ibpm", LAW, l0=2, n_steps=64, seed=500 + i).perimeters[-1]
            for i in range(800)
        ])
        # two-sample quantile agreement at a loose tolerance
        for qt in (0.25, 0.5, 0.75):
            a = np.quantile(ls, qt)
            b = np.quantile(singles, qt)
            assert abs(a - b) <= 0.15 * max(a, b) + 4

    def test_checkpoint_recording(self):
        out = simulate_ensemble("ibpm", LAW, 2, 100, 50, seed=1,
                                checkpoints=[10, 100])
        assert set(out) == {10, 100}

    def test_deterministic(self):
        a = simulate_ensemble("ibpm", LAW, 2, 200, 100, seed=5)[200]
        b = simulate_ensemble("ibpm", LAW, 2, 200, 100, seed=5)[200]
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_heavy_law_supported(self):
        law = symmetric_family(1.0, math.pi / 4, k_pos=256)
        out = simulate_ensemble("ibpm", law, 2, 200, 200, seed=2)
        ls, _ = out[200]
        assert ls.min() >= 1

    def test_volume_flags(self):
        out = simulate_ensemble("ibpm", LAW, 2, 2000, 256, seed=3,
                                volume_mode="exact_small")
        assert sorted(out) == [2000]
        assert out.flags["exact_fallback"] is False
        assert out.flags["residual_draws"] > 0


class TestSharedH:
    def test_laws_at_one_ratio_share_the_cache(self):
        a, b = tri_law(), tri_law(k_neg=1024)
        deep = deepen_negative(a, 4096)
        assert a.hcache() is b.hcache() is deep.hcache()

    def test_repeat_simulation_builds_no_tables(self, monkeypatch):
        simulate("ibpm", LAW, n_steps=1200, seed=1)
        calls = []
        grow = HCache._grow_float

        def counted(self, k, n):
            calls.append(k)
            return grow(self, k, n)

        monkeypatch.setattr(HCache, "_grow_float", counted)
        simulate("ibpm", LAW, n_steps=1200, seed=2)
        assert calls == []


# -- the chain engine against the exact kernel ------------------------------------

def geo3_law(k_neg=512):
    res = preset("geometric", H=3.0)
    pos = nu_from_q(res.weights, res.constants["c_plus"], float(res.constants["r"]))
    return complete_nu(pos, k_neg=k_neg)


DEEP = {"quad": deepen_negative(quad_law(), 8192),
        "tri": deepen_negative(tri_law(), 8192),
        "geo3": deepen_negative(geo3_law(), 8192)}
STEP = {"finite": step_finite, "ibpm": step_ibpm}
# the run flags that say which engine parts a run reused
REUSE_FLAGS = ("window_reused", "depth_built")


def _kernel_row(mode, law, l):
    """step_finite / step_ibpm at l over law.ks."""
    d = STEP[mode](l, law)
    row = np.zeros(len(law.probs))
    row[d.ks + law.k_neg] = d.probs
    return row


class TestEngineExactness:
    """RNG-free: what the engine samples is the exact Doob kernel."""

    @pytest.mark.parametrize("mode", ["finite", "ibpm"])
    @pytest.mark.parametrize("key", ["quad", "tri"])
    def test_jump_law_matches_kernel(self, key, mode):
        law = DEEP[key]
        engine = _ChainEngine(law, mode)
        for l in (1, 2, 10, 1023, 1024, 1025, 3000):
            if key == "quad" and mode == "finite" and l % 2:
                continue        # h(0, odd) = 0: unreachable perimeters
            want = _kernel_row(mode, law, l)
            got = engine.jump_law(l)
            assert np.abs(got - want).max() < 1e-12, (l, np.abs(got - want).max())

    @pytest.mark.parametrize("mode", ["finite", "ibpm"])
    def test_acceptance_at_most_one(self, mode):
        # each band's envelope bounds h(o, l + k) on the band, so no landing
        # is kept with probability above one, and the exact acceptance
        # sum_k nu(k) h(o, l + k) / total(l) stays at 0.70 or more
        heavy = symmetric_family(1.0, math.pi / 4, k_pos=256)
        order = 0 if mode == "finite" else 1
        for law in (DEEP["quad"], DEEP["tri"], DEEP["geo3"], heavy):
            engine = _ChainEngine(law, mode)
            engine._cover(5000)
            h = law.hcache().array(order, 5000 + law.k_pos)
            for l in [1024, 1025, *range(1024, 5000, 97)]:
                if h[l] == 0:
                    continue    # h(0, odd) = 0 on bipartite maps
                m = l + law.ks
                lo = max(0, l - law.k_neg)
                mid = min(max(l // 2, lo), l + law.k_pos)
                hm = np.where(m >= 0, h[np.maximum(m, 0)], 0.0)
                share, t0_lo, dt_lo, env_lo, t0_hi, dt_hi, env_hi = (
                    b[l] for b in engine.bands.arrays)
                low, high = (m >= lo) & (m < mid), m >= mid
                assert hm[low].max(initial=0.0) <= env_lo, (l, law.k_neg)
                assert hm[high].max() <= env_hi, (l, law.k_neg)
                # u in [0, share) maps onto nu's mass over the low band and
                # u in [share, 1) onto the high band, each in proportion
                c_lo, c_mid = law.probs[m < lo].sum(), law.probs[m < mid].sum()
                mass = law.probs.sum()
                total = env_lo * (c_mid - c_lo) + env_hi * (mass - c_mid)
                ends = [t0_lo, t0_lo + share * dt_lo,
                        t0_hi + share * dt_hi, t0_hi + dt_hi]
                np.testing.assert_allclose(ends, [c_lo, c_mid, c_mid, mass],
                                           rtol=0, atol=1e-12)
                assert dt_hi * env_hi == pytest.approx(total, rel=1e-9)
                assert np.dot(law.probs, hm) / total >= 0.70, (l, law.k_neg)

    def test_block_envelope(self):
        # a block from l with tilt theta is kept with probability
        # h(1, l_B) e^(-theta l_B) / K_theta, at most one for every l when
        # K_theta >= h(1, m) e^(-theta m) for all m >= 1: checked on a table
        # to 2^18 and, past it, through h_asymptote, whose ratio to h(1, .)
        # must shrink as the engine's certificate assumes.  Where blocks are
        # used, phi^B e^(theta l) K_theta <= BLOCK_M h(1, l), phi computed
        # here from the law, and no theta of the grid admits B(l) + 1 steps.
        heavy = symmetric_family(1.0, math.pi / 4, k_pos=256)
        top = 1 << 18
        for law in (DEEP["quad"], DEEP["tri"], DEEP["geo3"], heavy):
            engine = _ChainEngine(law, "ibpm")
            K = np.exp(engine.log_K)
            m = np.arange(1, top + 1)
            h = law.hcache().array(1, top)[1:]
            for t, k in zip(BLOCK_THETAS, K):
                assert (h * np.exp(-t * m)).max() <= k, (law.k_pos, t)
            a = h_asymptote(1, 1, law.r) * np.sqrt(m)     # h_asymptote(1, m)
            m_top = engine.h_len - 1      # the first cover's, which _log_K reads
            rho = (h / a)[top // 2:].max()
            assert rho <= max(1.0, (h / a)[m_top // 2:m_top].max()), law.k_pos
            far = np.maximum(top, 0.5 / BLOCK_THETAS)
            assert np.all(max(rho, 1.0) * h_asymptote(1, 1, law.r) * np.sqrt(far)
                          * np.exp(-BLOCK_THETAS * far) <= K), law.k_pos
            ls = np.arange(1, 5001)
            engine._cover(5000)
            B, j = engine.blocks[ls], engine.block_tilt[ls]
            p = law.probs / law.probs.sum()
            log_phi = np.log1p([(p * np.expm1(t * law.ks)).sum() for t in BLOCK_THETAS])
            np.testing.assert_allclose(engine.log_phi, log_phi, rtol=1e-9, atol=0)
            used = B > 1
            assert used[9:].all(), law.k_pos       # every l >= 10 moves in blocks
            keep = h[ls - 1] / np.exp(B * log_phi[j] + BLOCK_THETAS[j] * ls + engine.log_K[j])
            assert np.all(keep[used] >= (1.0 - 1e-9) / BLOCK_M), law.k_pos
            more = ((B[:, None] + 1) * engine.log_phi + np.outer(ls, BLOCK_THETAS)
                    + engine.log_K)
            assert np.all(more > math.log(BLOCK_M) + np.log(h[ls - 1])[:, None]), law.k_pos

    @pytest.mark.parametrize("key", ["quad", "geo3"])
    def test_tilted_rows_are_nu_theta(self, key):
        # row j of the tilted table is nu_theta(k) = nu(k) e^(theta k) / phi
        # over k > -L_SMALL, and its last entry carries nu_theta(k <= -L_SMALL)
        law = DEEP[key]
        engine = _ChainEngine(law, "ibpm")
        engine._tilt_rows(len(BLOCK_THETAS) - 1)
        p = law.probs / law.probs.sum()
        win, deep = law.ks > -L_SMALL, law.ks <= -L_SMALL
        for j in (5, 15, 25, 35, len(BLOCK_THETAS) - 1):
            t = BLOCK_THETAS[j]
            nu_t = p * np.exp(t * law.ks) / np.exp(engine.log_phi[j])
            want = np.append(nu_t[win], nu_t[deep].sum())
            got = np.diff(engine.tilt_rows.row(j) - j, prepend=0.0)
            # the stacked cdf holds j + cdf, exact to a few ulp of j
            np.testing.assert_allclose(got, want, rtol=0, atol=64 * np.spacing(j + 1.0))
            assert got.sum() == pytest.approx(1.0, abs=1e-12)

    def test_finite_no_absorbing_jump_above_cutoff(self):
        # a proposal k < -l reaches a negative argument, which carries no
        # weight; scoring it as h(0, 0) = 1 made P(l -> 0) at l = 1100
        # about 350 times the exact 1.65e-6
        law = DEEP["quad"]
        assert _kernel_row("finite", law, 1100)[: law.k_neg - 1100].sum() == 0
        ls, _ = simulate_ensemble("finite", law, 1100, 1, 20_000, seed=8)[1]
        assert ls.min() >= 0
        assert (ls == 0).sum() <= 2

    def test_ensemble_expectation_volumes(self):
        # mirrors TestSimulate.test_volume_increments_expectation_mode
        out = simulate_ensemble("ibpm", LAW, 4, 40, 256, seed=5,
                                volume_mode="expectation",
                                checkpoints=range(1, 41))
        per = np.vstack([np.full(256, 4)] + [out[s][0] for s in range(1, 41)])
        vol = np.vstack([np.zeros(256)] + [out[s][1] for s in range(1, 41)])
        sel = np.diff(per, axis=0) == -4
        assert sel.any()
        assert np.all(np.diff(vol, axis=0)[sel] == 3)


class TestMeanTable:
    @pytest.mark.parametrize("key", ["quad", "tri", "geo3", "heavy", "exact"])
    def test_table_is_the_rounded_means(self, key):
        # every degree l' a hole can have, nu(-l' - 2) > 0, holds
        # max(1, round(E V(l'))) with E V(l') = h(0, l') nu(-2) / nu(-l' - 2),
        # as the scalar rule gave it; l' = 0 holds 1 and every other entry 0.
        # The array form of expected_volume gives the same doubles
        law = (symmetric_family(1.0, math.pi / 4, k_pos=256) if key == "heavy"
               else LAW_EXACT if key == "exact" else DEEP[key])
        assert (law.exact is not None) == (key == "exact")
        means = peeling._mean_table(law)
        lps = np.arange(1, law.k_neg - 1)
        nu = np.array([float(law.nu(-lp - 2)) for lp in lps])
        hole = lps[nu > 0]
        assert len(hole) and not nu[nu <= 0].any()
        rule = np.array([law.hcache().value(0, lp) * float(law.nu(-2)) / float(law.nu(-lp - 2))
                         for lp in hole])
        assert expected_volume(law, hole).tobytes() == rule.tobytes()
        want = np.zeros(law.k_neg - 1, dtype=np.int64)
        want[0] = 1
        want[hole] = [max(1, round(v)) for v in rule]
        assert means.tobytes() == want.tobytes()

    @pytest.mark.parametrize("path", ["compiled", "numpy"])
    @pytest.mark.parametrize("mode", ["finite", "ibpm"])
    def test_a_read_outside_the_table_raises(self, mode, path):
        # a hole whose rule entry is 0, or past the rule, is a read
        # outside the tables: IndexError on both paths
        def run():
            return simulate_ensemble(mode, LAW, 40, 200, 64, seed=1,
                                     volume_mode="expectation")

        with draws_on(path):
            for cut in ("zero", "short"):
                peeling._slot.clear()
                run()
                engine = kept_engine(mode)
                rule = engine.rules[True]
                if cut == "zero":
                    rule.lo[1:] = 0
                else:
                    engine.rules[True] = peeling._Rule(*(a[:1].copy() for a in rule[:3]),
                                                       rule.b)
                    # the engine's kept sampler holds the rule it was built with
                    engine.samplers.clear()
                with pytest.raises(IndexError):
                    run()
            peeling._slot.clear()


class TestStackedCdf:
    def test_rows_appended_by_blocks_match_one_append(self):
        # rows appended a block at a time hold the doubles and guide cells
        # of the same rows appended at once, and draw the same values
        rows, width = 200, 37
        weights = _rng(2).random((rows, width))
        values = np.arange(width) * 3 - 40
        blocks = _StackedCdf(rows, values, peeling.ROW_GUIDE)
        whole = _StackedCdf(rows, values, peeling.ROW_GUIDE)
        for lo in range(0, rows, 64):     # grows a block at a time
            blocks.append(weights[lo:lo + 64])
        whole.append(weights)
        assert blocks._flat.tobytes() == whole._flat.tobytes()
        assert blocks._guide.tobytes() == whole._guide.tobytes()
        for size in (10, 1000):
            at = _rng(3).integers(0, rows, size)
            np.testing.assert_array_equal(blocks.draw(_rng(4), at),
                                          whole.draw(_rng(4), at))

    def test_guided_values_fit_the_int32_guide(self):
        # a guide cell holds a value or the open marker, the smallest value
        # less one, as int32: a table refuses integers outside int32, an
        # open marker below it and values that are not integers
        lo, hi = np.iinfo(np.int32).min, np.iinfo(np.int32).max
        for values in (np.array([0, hi + 1]), np.array([lo, 0]), np.array([lo, 0], np.int32),
                       np.array([-(1 << 40), 3]), np.array([0.5, 1.0])):
            with pytest.raises(ValueError, match="int32"):
                _StackedCdf(1, values, cells=peeling.GUIDE)
        edge = _StackedCdf(1, np.array([lo + 1, hi]), cells=peeling.GUIDE)
        edge.append(np.array([[1.0, 3.0]]))
        assert edge._guide.dtype == np.int32 and edge._open == lo
        draws = edge.draw(_rng(1), np.zeros(1000, dtype=np.intp))
        assert set(draws.tolist()) == {lo + 1, hi}

    @pytest.mark.parametrize("dtype", [np.int64, np.int16])
    def test_guided_draws_keep_the_values_dtype(self, dtype):
        # the guide is int32 whatever the values are; a draw returns the
        # values' dtype, from a settled cell and from a searched one alike,
        # and the values searchsorted finds over the whole table
        values = (np.arange(7) * 5 - 12).astype(dtype)
        weights = _rng(6).random((3, 7))
        guided = _StackedCdf(3, values, cells=peeling.GUIDE)
        guided.append(weights)
        rows = _rng(7).integers(0, 3, 5000)
        draws = guided.draw(_rng(8), rows)
        assert draws.dtype == dtype
        t = rows + _rng(8).random(len(rows)) * _StackedCdf.U_MAX
        np.testing.assert_array_equal(
            draws, values[guided._flat.searchsorted(t, "right") - guided._off[rows]])
        settled = guided._guide[(t * peeling.GUIDE).astype(np.intp)] != guided._open
        assert settled.any() and not settled.all()

    def test_a_guided_row_with_no_weight_has_every_cell_open(self):
        # a row with no weight (as a bipartite law's odd window rows) is
        # taken with every guide cell open, so a draw from it is searched
        # for and refused; the rows around it keep their own cells,
        # a cell split by a cut open and the others settled
        cells = peeling.GUIDE
        cdf = _StackedCdf(3, np.array([3, 8]), cells=cells)
        cdf.append(np.array([[1.0, 2.0], [0.0, 0.0], [2.0, 1.0]]))
        assert cdf.n == 3 and len(cdf._guide) == 3 * cells
        guide = cdf._guide.reshape(3, cells)
        assert (guide[1] == cdf._open).all()
        for row, below in ((0, cells // 3), (2, 2 * cells // 3)):
            assert [int((guide[row] == v).sum()) for v in (3, cdf._open, 8)] == [
                below, 1, cells - below - 1]
        with pytest.raises(IndexError, match="no weight"):
            cdf.draw(_rng(1), np.array([0, 1, 2]))
        assert set(cdf.draw(_rng(1), np.array([0, 2] * 500)).tolist()) == {3, 8}

    def test_rows_grow_with_the_chain(self):
        engine = _ChainEngine(DEEP["quad"], "finite")
        engine.start(20)
        engine.draw(np.array([20]), _rng(1))
        rows = engine.rows
        assert rows.n == 64 and len(rows._store) == rows._off[64]
        # a start near the cutoff reserves every row at once
        engine.start(1000)
        engine.draw(np.full(8, 1000), _rng(1))
        assert rows.n == L_SMALL and len(rows._store) == rows._off[L_SMALL]


@pytest.mark.parametrize("mode", ["finite", "ibpm"])
@pytest.mark.parametrize("path", ["compiled", "numpy"])
def test_window_rows_are_a_triangle(path, mode):
    # row l keeps the columns k >= -l of the window: the rectangular row
    # over every column holds exactly l in front of them and the same
    # doubles from them on, filled compiled or by numpy; a full window of
    # quad takes 4.2 MB instead of 8.4 MB
    law, order = DEEP["quad"], int(mode == "ibpm")
    window = peeling._Window(law, order)
    with draws_on(path):
        window.extend_rows(L_SMALL - 1)
    rect = _StackedCdf(L_SMALL, window.ks, peeling.ROW_GUIDE)
    hz = np.concatenate([np.zeros(law.k_neg), law.hcache().array(order, 2 * L_SMALL)])
    rect.append(hz[np.arange(L_SMALL)[:, None] + window.ks + law.k_neg] * window.p)
    full = rect._flat.reshape(L_SMALL, -1)
    for l in range(L_SMALL):
        start = max(0, L_SMALL - 1 - l)
        assert (full[l, :start] == l).all()
        assert full[l, start:].tobytes() == window.rows.row(l).tobytes(), l
    assert window.rows._flat.nbytes == 8 * (L_SMALL * (L_SMALL - 1) // 2
                                            + L_SMALL * (law.k_pos + 1))
    assert rect._flat.nbytes == 8 * L_SMALL * (L_SMALL + law.k_pos)


def _forward_law(mode, law, l0, n):
    """Exact law of l_n from l0 by the forward equation of the kernel.

    From l >= 1 the chain moves to m = l + k >= 0 with probability
    h(o, m) nu(k) / h(o, l), so a step convolves dist / h with nu and
    multiplies by h; zero is absorbing."""
    from scipy.signal import fftconvolve

    order = 0 if mode == "finite" else 1
    top = l0 + n * law.k_pos
    h = law.hcache().array(order, top)
    live = h > 0
    dist = np.zeros(top + 1)
    dist[l0] = 1.0
    for _ in range(n):
        g = np.zeros(top + 1)
        g[1:] = np.where(live[1:], dist[1:], 0.0) / np.where(live[1:], h[1:], 1.0)
        step = fftconvolve(g, law.probs)[law.k_neg:law.k_neg + top + 1] * h
        step[0] += dist[0]
        dist = np.maximum(step, 0.0)
    return dist


def _g_test_p(counts, expect, chains):
    """p-value of the G-test with adjacent states merged into bins of at
    least 20 expected chains."""
    from scipy import stats

    assert counts[expect == 0].sum() == 0
    edges = np.searchsorted(np.cumsum(expect), np.arange(20, chains, 20))
    cuts = np.unique(np.r_[0, edges + 1, len(expect)])
    cuts = cuts[cuts < len(expect)]
    obs = np.add.reduceat(counts, cuts)
    exp = np.add.reduceat(expect, cuts)
    g = 2.0 * np.sum(obs[obs > 0] * np.log(obs[obs > 0] / exp[obs > 0]))
    return stats.chi2.sf(g, len(obs) - 1)


class TestFarAboveCutoff:
    """Fixed-seed G-tests of the band-envelope sampler from perimeters
    where every chain starts on it."""

    @pytest.mark.parametrize("mode,key,l0", [("finite", "quad", 3000),
                                             ("finite", "tri", 3001),
                                             ("ibpm", "tri", 3001),
                                             ("finite", "tri", 1100)])
    def test_l_n_law(self, mode, key, l0):
        law, n, chains = DEEP[key], 30, 8000
        expect = _forward_law(mode, law, l0, n) * chains
        ls, _ = simulate_ensemble(mode, law, l0, n, chains, seed=47)[n]
        assert ls.max() < len(expect)
        counts = np.bincount(ls, minlength=len(expect))
        assert _g_test_p(counts, expect, chains) > 1e-3

    @pytest.mark.parametrize("mode", ["finite", "ibpm"])
    def test_one_step_law(self, mode):
        law, l0, chains = DEEP["tri"], 4000, 400_000
        expect = _kernel_row(mode, law, l0) * chains
        ls, _ = simulate_ensemble(mode, law, l0, 1, chains, seed=53)[1]
        counts = np.bincount(ls - l0 + law.k_neg, minlength=len(expect))
        assert len(counts) == len(expect)
        assert _g_test_p(counts, expect, chains) > 1e-3


class TestRunSize:
    def test_simulate_needs_a_step(self):
        for n in (0, -3):
            with pytest.raises(ValueError, match="n_steps"):
                simulate("ibpm", LAW, n_steps=n)

    @pytest.mark.parametrize("kw", [{"n_chains": 0}, {"n_steps": 0},
                                    {"checkpoints": [50, 5000]},
                                    {"checkpoints": [0, 50]},
                                    {"checkpoints": [-5]}])
    def test_ensemble_sizes_checked(self, kw):
        args = {"n_steps": 100, "n_chains": 10, **kw}
        with pytest.raises(ValueError, match="n_steps"):
            simulate_ensemble("ibpm", LAW, 2, seed=1, **args)


class TestEnsembleGTest:
    """Fixed-seed G-tests of l_n against the forward-equation law, from
    just below the table cutoff so both sampling paths are used."""

    @pytest.mark.parametrize("mode,key,l0", [("finite", "quad", L_SMALL - 2),
                                             ("ibpm", "quad", L_SMALL - 2),
                                             ("ibpm", "tri", L_SMALL - 1)])
    def test_l_n_law(self, mode, key, l0):
        law, n, chains = DEEP[key], 30, 8000
        expect = _forward_law(mode, law, l0, n) * chains
        ls, _ = simulate_ensemble(mode, law, l0, n, chains, seed=31)[n]
        assert ls.max() < len(expect)
        counts = np.bincount(ls, minlength=len(expect))
        assert _g_test_p(counts, expect, chains) > 1e-3
        assert 0 < counts[L_SMALL:].sum() < chains


class TestBlockStepping:
    """ibpm chains move in blocks of B(l) steps (peeling module docstring)."""

    @pytest.mark.parametrize("key", ["quad", "tri", "geo3"])
    @pytest.mark.parametrize("l0", [1, 2, 20, 200])
    def test_l_n_law(self, key, l0):
        # fixed-seed G-tests of l_10 and l_30 from small, middle and large
        # l0: blocks of B(l) steps from l0 = 1 and 2, most of whose rejected
        # blocks stop where they first fall below 1, and blocks cut short by
        # the run's end from l0 = 200; l_10 is read off inside blocks
        law, chains = DEEP[key], 8000
        out = simulate_ensemble("ibpm", law, l0, 30, chains, seed=61,
                                checkpoints=[10])
        assert out.flags["block_accepts"] > 0
        for n in (10, 30):
            expect = _forward_law("ibpm", law, l0, n) * chains
            ls = out[n][0]
            assert ls.max() < len(expect)
            counts = np.bincount(ls, minlength=len(expect))
            assert _g_test_p(counts, expect, chains) > 1e-3, n

    @pytest.mark.parametrize("key,table", [
        pytest.param("quad", "tilt", id="quad"),
        pytest.param("tri", "tilt", id="tri"),
        pytest.param("geo3", "tilt", id="geo3"),
        pytest.param("quad", "chain", id="chain-quad"),
        pytest.param("tri", "chain", id="chain-tri"),
        pytest.param("quad", "volume", id="volume-quad")])
    def test_guide_table_is_searchsorted(self, key, table):
        # one look-up rule for every stacked table, each guided (the tilted
        # rows, the chain rows below L_SMALL, the exact volume laws):
        # searchsorted(side="right") at cuts, just below them, at guide
        # cell edges and at random targets, and at the targets of draws
        # from the rows with weight; a draw from a row with no weight
        # raises, and so does the compiled lockstep loop for a chain on one
        if table == "tilt":
            engine = _ChainEngine(DEEP[key], "ibpm")
            engine._tilt_rows(20)           # rows are guided a block at a time
            engine._tilt_rows(len(BLOCK_THETAS) - 1)
            rows = engine.tilt_rows
        elif table == "chain":
            engine = _ChainEngine(DEEP[key], "finite")
            engine.window.extend_rows(100)  # rows grow a block at a time
            engine.window.extend_rows(300)
            rows = engine.rows
        else:
            rows = VolumeSampler(LAW, "exact_small")._cdf
        flat = rows._flat
        t = np.concatenate([flat, np.nextafter(flat, 0), np.arange(rows.n * 4096) / 4096,
                            rows.n * _rng(1).random(100_000)])
        t = t[t < rows.n]
        np.testing.assert_array_equal(rows.at(t), rows._values_at(
            flat.searchsorted(t, "right"), t.astype(np.intp)))
        weighted = flat[rows._off[1:rows.n + 1] - 1] > np.arange(rows.n)
        at = np.flatnonzero(weighted)[
            _rng(2).integers(0, weighted.sum(), 100_000)]
        t = at + _rng(3).random(len(at)) * rows.U_MAX
        np.testing.assert_array_equal(rows.draw(_rng(3), at), rows._values_at(
            flat.searchsorted(t, "right"), at))
        if (key, table) == ("quad", "chain"):
            # h(0, l) = 0 for odd l: quad's odd window rows have no weight
            np.testing.assert_array_equal(
                np.flatnonzero(~weighted), np.arange(1, rows.n, 2))
        lib = _native.library()[0]
        for row in np.flatnonzero(~weighted)[:8]:
            with pytest.raises(IndexError):
                rows.draw(_rng(4), np.array([row, 0]))
            if lib is not None and table == "chain":
                engine.start(2)
                vol = VolumeSampler(engine.law, "expectation")
                run = peeling._Run(2, 2, range(1, 3), (lib, engine, vol))
                run.ls[0] = row
                with pytest.raises(IndexError, match="lockstep read outside the tables built"):
                    peeling._chains(engine, vol, _rng(4), run, block_flags())

    @pytest.mark.parametrize("j", [15, 30])
    def test_deep_jumps_are_tilted_nu(self, j):
        # a draw from a row's last entry is redrawn from nu on k <= -L_SMALL
        # and kept with probability e^(theta (k + L_SMALL)): a fixed-seed
        # G-test against nu_theta there
        law, draws = DEEP["quad"], 100_000
        ks = _ChainEngine(law, "ibpm")._deep_jumps(np.full(draws, j), _rng(71 + j))
        assert ks.max() <= -L_SMALL
        deep = law.ks <= -L_SMALL
        expect = law.probs[deep] * np.exp(BLOCK_THETAS[j] * law.ks[deep])
        expect *= draws / expect.sum()
        counts = np.bincount(ks + law.k_neg, minlength=deep.sum())
        assert _g_test_p(counts, expect, draws) > 1e-3

    @pytest.mark.parametrize("cap", [100, 50_000])
    def test_round_cap_keeps_the_law(self, cap, monkeypatch):
        # a round draws at most BLOCK_DRAWS steps: 8000 blocks share 100
        # (blocks of one step) or 50_000 (six steps) and stay exact
        monkeypatch.setattr(peeling, "BLOCK_DRAWS", cap)
        law, l0, n, chains = DEEP["quad"], 200, 30, 8000
        out = simulate_ensemble("ibpm", law, l0, n, chains, seed=67)
        assert out.flags["block_proposals"] >= chains * n // max(1, cap // chains)
        expect = _forward_law("ibpm", law, l0, n) * chains
        counts = np.bincount(out[n][0], minlength=len(expect))
        assert _g_test_p(counts, expect, chains) > 1e-3

    def test_round_draws_up_to_each_dip(self):
        # the numpy reference's tilted draws, block after block, stop at the
        # first step that takes a block below 1; then each block that stays
        # takes one keep uniform: a step-by-step replay of the stream draws
        # the same steps and then stands where the round left the stream
        engine = _ChainEngine(LAW, "ibpm")
        ls = np.tile(np.arange(1, 13), 4)
        B = engine.blocks[ls]
        rng = _rng(5)
        ks, _, starts, _, _, keep = engine.propose_blocks(ls, B, rng)
        replay, stays, mid = _rng(5), [], 0
        for l, n, j, s in zip(ls, B, engine._block_tilts(ls, B), starts):
            path, q = l, 0
            while q < n and path >= 1:
                t = np.array([j + replay.random() * _StackedCdf.U_MAX])
                k = int(engine.tilt_rows.at(t)[0])
                assert ks[s + q] == k
                path, q = path + k, q + 1
            assert not ks[s + q:s + n].any()
            stays.append(path >= 1)
            mid += 1 < q < n
        replay.random(sum(stays))
        np.testing.assert_array_equal(replay.random(8), rng.random(8))
        assert not keep[~np.array(stays)].any()
        # blocks stopped at their first step, mid-block, and blocks kept
        assert 0 < mid < len(ls) - sum(stays) and keep.any()

    @pytest.mark.parametrize("key", ["quad", "geo3"])
    def test_readme_block_lengths(self, key):
        # README's B(10) / B(100) / B(300), for the law deepened for a run
        # of 10^4 steps, are the engine's
        text = " ".join((Path(__file__).parents[1] / "README.md").read_text().split())
        found = re.search(r"B\(10\) / B\(100\) / B\(300\) is (\d+) / (\d+) / (\d+) for "
                          r"quadrangulations and (\d+) / (\d+) / (\d+) for geo3", text)
        readme = [int(x) for x in found.groups()]
        law = {"quad": quad_law(), "geo3": geo3_law()}[key]
        engine = _ChainEngine(deepen_negative(law, peeling._deep_k_neg(law, 10_000)), "ibpm")
        assert engine.blocks[[10, 100, 300]].tolist() == (
            readme[:3] if key == "quad" else readme[3:])

    def test_acceptance_rate(self):
        # a block of B(l) steps is kept with probability h(1, l) / (phi^B
        # e^(theta l) K_theta) >= 1 / BLOCK_M, and a block cut short by the
        # run's end more often; the realized mean keep rate is allowed four
        # standard errors below 1 / BLOCK_M
        flags = simulate_ensemble("ibpm", LAW, 2, 2000, 256, seed=3).flags
        n = flags["block_proposals"]
        assert n > 1000 and isinstance(n, int)
        p = 1.0 / BLOCK_M
        assert flags["block_accepts"] / n >= p - 4.0 * math.sqrt(p * (1 - p) / n)
        assert simulate_ensemble("finite", LAW, 2, 200, 64, seed=3).flags[
            "block_proposals"] == 0

    @pytest.mark.parametrize("key", ["quad", "tri"])
    def test_checkpoints_do_not_change_states(self, key):
        law = DEEP[key]
        runs = [simulate_ensemble("ibpm", law, 2, 400, 64, seed=9,
                                  volume_mode="exact_small", checkpoints=cps)
                for cps in (None, [7, 50, 123, 399], [50, 51, 399],
                            range(1, 401))]
        assert runs[0].flags["block_accepts"] > 0
        for a in runs:
            for b in runs:
                for c in set(a) & set(b):
                    np.testing.assert_array_equal(a[c][0], b[c][0])
                    np.testing.assert_array_equal(a[c][1], b[c][1])

    @pytest.mark.parametrize("volume_mode", ["exact_small", "asymptotic_xi"])
    def test_simulate_is_the_one_chain_ensemble(self, volume_mode):
        n = 1500
        tr = simulate("ibpm", LAW, l0=2, n_steps=n, seed=4,
                      volume_mode=volume_mode)
        assert tr.flags["block_accepts"] > 0
        out = simulate_ensemble("ibpm", LAW, 2, n, 1, seed=4,
                                volume_mode=volume_mode,
                                checkpoints=range(1, n + 1))
        per = np.array([out[s][0][0] for s in range(1, n + 1)])
        vol = np.array([out[s][1][0] for s in range(1, n + 1)])
        np.testing.assert_array_equal(tr.perimeters[1:], per)
        np.testing.assert_array_equal(tr.volumes[1:], vol)
        # the ensemble reuses both parts of the engine simulate built
        assert (tr.flags.pop("depth_built"), tr.flags.pop("window_reused")) == (True, False)
        assert (out.flags.pop("depth_built"), out.flags.pop("window_reused")) == (False, True)
        assert tr.flags == out.flags


def shape_law():
    """The critical law of `TestPointedDisk._shape`, a random rational shape
    on degrees 3 and 4."""
    q, c, r = TestPointedDisk._shape()
    return complete_nu(nu_from_q(q, c, r), k_neg=512)


class TestEngineReuse:
    """A thread keeps per mode its PARTS most recently used depth parts,
    keyed by what they read of the law and the depth, with the window parts
    they were built on (module docstring); reuse must not change a single
    draw."""

    @staticmethod
    def _runs():
        """Interleaved calls: both modes, two laws, both entry points, other
        l0 and n_steps (so other depths), a start() that raises, an
        in-place edit of a law deep enough to be run as given, then quad
        and tri by turns at depths 1024, 4096 and 8192."""
        quad, tri = quad_law(), tri_law()
        deep = deepen_negative(quad_law(), 2048)

        def edit():
            deep.probs[deep.k_neg - 2] *= 0.5   # halve nu(-2) in place

        runs = [
            lambda: simulate("finite", quad, l0=2, n_steps=200, seed=1),
            lambda: simulate("ibpm", tri, l0=1, n_steps=300, seed=2),
            lambda: simulate_ensemble("finite", quad, 1000, 100, 64, seed=3,
                                      checkpoints=[10, 50]),
            lambda: simulate_ensemble("ibpm", tri, 1001, 300, 32, seed=4,
                                      volume_mode="exact_small"),
            lambda: simulate("finite", quad, l0=3, n_steps=50, seed=5),
            lambda: simulate("finite", quad, l0=1500, n_steps=200, seed=5),
            lambda: simulate_ensemble("ibpm", tri, 5, 3000, 16, seed=6),
            lambda: simulate("ibpm", tri, l0=7, n_steps=300, seed=7),
            lambda: simulate("finite", deep, l0=2, n_steps=200, seed=8),
            edit,
            lambda: simulate("finite", deep, l0=2, n_steps=200, seed=8),
            lambda: simulate_ensemble("ibpm", deep, 2, 200, 32, seed=9),
            lambda: simulate("ibpm", quad, l0=2, n_steps=1500, seed=4),
        ]
        for mode, steps in (("finite", (200, 2000, 6000)), ("ibpm", (200, 2000))):
            for n in steps:
                for law, l0 in ((quad, 40), (tri, 41)):
                    runs.append(lambda m=mode, law=law, l0=l0, n=n: simulate(
                        m, law, l0=l0, n_steps=n, seed=n, volume_mode="exact_small"))
        return runs

    # (depth_built, window_reused) of each call of _runs on a warm slot, None
    # for the edit and the start() that raises.  The keys, (mode, law,
    # depth): F quad 1024 built, I tri 1024 built, both hit by the
    # ensembles, F quad 1024 hit by the start() that raises, which drops
    # it, so the next run builds it and its window again; I tri 4096 takes
    # tri's window, I tri 1024 hits, F deep 2048 takes quad's window, the
    # edited law reads another window in both modes, and I quad 4096 finds
    # no quad window in ibpm.  By turns: F quad 1024 hits, F tri builds its
    # window once, then every new key takes its law's window; in ibpm only
    # quad 1024 is new, and the slot ends with eight finite parts
    WARM_REUSE = [(True, False), (True, False), (False, True), (False, True), None,
                  (True, False), (True, True), (False, True), (True, True), None,
                  (True, False), (True, False), (True, False),
                  (False, True), (True, False), (True, True), (True, True),
                  (True, True), (True, True),
                  (True, True), (False, True), (False, True), (False, True)]

    @staticmethod
    def _outcome(call):
        """(the call's result without its reuse flags, those flags)."""
        try:
            out = call()
        except ValueError as exc:
            return ("raised", str(exc)), None
        if out is None:
            return None, None
        flags = dict(out.flags)
        reuse = {k: flags.pop(k) for k in REUSE_FLAGS}
        if isinstance(out, PeelTrace):
            return (out.perimeters, out.volumes, flags, out.law_digest), reuse
        return ({c: out[c] for c in out}, flags), reuse

    @staticmethod
    def _count_builds(monkeypatch):
        """The parts built, in order: "window" or "depth" per build."""
        built = []
        window_init, depth_init = peeling._Window.__init__, _ChainEngine.__init__

        def window(self, law, order):
            built.append("window")
            window_init(self, law, order)

        def depth(self, law, mode, window=None):
            built.append("depth")
            depth_init(self, law, mode, window)

        monkeypatch.setattr(peeling._Window, "__init__", window)
        monkeypatch.setattr(_ChainEngine, "__init__", depth)
        return built

    @staticmethod
    def _same(a, b):
        """Two outcomes of `_outcome` alike, array for array."""
        if a is None or isinstance(a[0], str):
            assert a == b
        elif isinstance(a[0], dict):
            assert a[0].keys() == b[0].keys() and a[1] == b[1]
            for c in a[0]:
                np.testing.assert_array_equal(a[0][c][0], b[0][c][0])
                np.testing.assert_array_equal(a[0][c][1], b[0][c][1])
        else:
            np.testing.assert_array_equal(a[0], b[0])
            np.testing.assert_array_equal(a[1], b[1])
            assert a[2:] == b[2:]

    def test_reuse_is_invisible(self, monkeypatch):
        built = self._count_builds(monkeypatch)
        runs, depths = {"warm": [], "cold": []}, {}
        for case, outcomes in runs.items():
            before_case = built.count("depth")
            for call in self._runs():
                if case == "cold":
                    peeling._slot.clear()
                before = len(built)
                out, reuse = self._outcome(call)
                outcomes.append((out, reuse))
                # each flag says which part the run built
                if reuse is not None:
                    assert reuse == {"window_reused": "window" not in built[before:],
                                     "depth_built": "depth" in built[before:]}
                if case == "cold" and reuse is not None:
                    assert reuse == {"window_reused": False, "depth_built": True}
            depths[case] = built.count("depth") - before_case
            if case == "warm":
                assert len(peeling._slot.parts["finite"]) == peeling.PARTS
        warm = [out for out, _ in runs["warm"]]
        assert [None if r is None else (r["depth_built"], r["window_reused"])
                for _, r in runs["warm"]] == self.WARM_REUSE
        # eight depth hits, the start() that raises among them; a raising
        # run leaves its depth part out of the slot
        assert depths["warm"] == depths["cold"] - 8
        assert warm[4] == ("raised", "conditioning weight vanishes at l=3")
        assert not np.array_equal(warm[8][0], warm[10][0])  # the edit matters
        for (a, _), (b, _) in zip(runs["warm"], runs["cold"]):
            self._same(a, b)

    def test_reuse_flags(self):
        # depth_built is True for a run that built its depth part, False for
        # one that reused a kept one; window_reused is True for a run whose
        # window part came from a kept depth part: the same call again
        # reuses both, another depth only the window, while the first
        # depth's part is kept, and another law neither
        def flags(law=LAW, n=100):
            out = simulate_ensemble("finite", law, 20, n, 8, seed=1)
            tr = simulate("finite", law, l0=20, n_steps=n, seed=1)
            return [(f["depth_built"], f["window_reused"]) for f in (out.flags, tr.flags)]

        assert flags() == [(True, False), (False, True)]
        assert flags() == [(False, True), (False, True)]
        assert peeling._deep_k_neg(LAW, 100_000) != peeling._deep_k_neg(LAW, 100)
        assert flags(n=100_000) == [(True, True), (False, True)]
        assert flags() == [(False, True), (False, True)]
        assert flags(tri_law()) == [(True, False), (False, True)]

    def test_one_key_one_part(self, monkeypatch, tmp_path):
        # law objects built alike have one key and share one part: the
        # command line builds its law anew for every call, and its second
        # simulate builds no engine part and writes the first one's trace
        built = self._count_builds(monkeypatch)
        argv = ["simulate", "--preset", "triangulation", "--mode", "ibpm", "--steps",
                "500", "--seed", "7", "--format", "binary", "--out"]
        for name in ("a", "b"):
            assert cli.main(argv + [str(tmp_path / name)]) == 0
        assert built == ["window", "depth"]
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()
        # and a law rebuilt from its preset draws on the part kept for the
        # first one exactly what a cold slot gives it
        assert quad_law() is not LAW and quad_law().digest() == LAW.digest()
        simulate("ibpm", LAW, l0=2, n_steps=1500, seed=1)
        warm = self._outcome(lambda: simulate("ibpm", quad_law(), l0=2, n_steps=1500,
                                              seed=2))
        peeling._slot.clear()
        cold = self._outcome(lambda: simulate("ibpm", quad_law(), l0=2, n_steps=1500,
                                              seed=2))
        assert warm[1] == {"window_reused": True, "depth_built": False}
        self._same(warm[0], cold[0])

    @pytest.mark.parametrize("field", ["trunc_pos", "critical", "B_nu"])
    def test_a_field_the_digest_leaves_out(self, field):
        # the digest hashes nu, r and c_plus only.  deepen_negative also
        # reads trunc_pos and critical, and a law run as given is read
        # whole (B_nu sets its limit volumes): two laws that differ only in
        # such a field have one digest but two keys, and each draws on a
        # warm slot what it draws on a cold one
        if field == "B_nu":
            law = deepen_negative(quad_law(), 2048)     # run as given
            other = dataclasses.replace(law, B_nu=2 * law.B_nu)
        else:
            law = quad_law()
            other = dataclasses.replace(law, **{field: {"trunc_pos": law.trunc_pos + 1e-3,
                                                        "critical": False}[field]})
        assert other.digest() == law.digest()

        def run(law):
            return self._outcome(lambda: simulate("finite", law, l0=40, n_steps=200,
                                                  seed=3, volume_mode="asymptotic_xi"))

        first = run(law)
        warm = run(other)
        assert warm[1] == {"window_reused": field != "critical", "depth_built": True}
        assert run(law)[1] == {"window_reused": True, "depth_built": False}
        peeling._slot.clear()
        self._same(warm[0], run(other)[0])
        # critical deepens nu anew (the run's digest moves), B_nu scales the
        # volumes and trunc_pos changes no draw
        assert (warm[0][3] != first[0][3]) == (field == "critical")
        if field != "critical":
            assert (warm[0][1].tobytes() != first[0][1].tobytes()) == (field == "B_nu")

    def test_an_edit_in_place_builds_anew(self):
        # the digest is taken on every call: a law run as given and edited
        # in place gets a new depth part, which draws what a cold slot gives
        law = deepen_negative(quad_law(), 2048)

        def run(law=law, **kw):
            return self._outcome(lambda: simulate("finite", law, l0=40, n_steps=200,
                                                  seed=3, **kw))

        before = run()
        law.probs[law.k_neg - 4] *= 0.5   # halve nu(-4) in place
        after = run()
        assert after[1] == {"window_reused": False, "depth_built": True}
        assert after[0][3] != before[0][3]
        assert not np.array_equal(after[0][0], before[0][0])
        # the part kept for the law before its edit holds its own copy: a
        # fresh law equal to the unedited one reuses it, and the tables that
        # part builds now (the rounded-mean rules) read the unedited values
        fresh = deepen_negative(quad_law(), 2048)
        again = run(fresh, volume_mode="expectation")
        assert again[1] == {"window_reused": True, "depth_built": False}
        peeling._slot.clear()
        self._same(after[0], run()[0])
        self._same(again[0], run(fresh, volume_mode="expectation")[0])

    def test_the_digest_kept_on_a_law_sees_every_edit(self):
        # a law keeps its digest against the bytes, dtype and shape of probs
        # and the reprs of r and c_plus: an in-place edit of probs after a
        # run, a new r or c_plus, and r = -0.0 after 0.0 each build a new
        # depth part; a new probs of the same bytes, or r back at 0.0, reuses
        # a kept one
        law = deepen_negative(quad_law(), 2048)     # run as given

        def built():
            out = simulate("finite", law, l0=40, n_steps=200, seed=3)
            return out.flags["depth_built"]

        assert [built(), built()] == [True, False]
        law.probs[law.k_neg - 4] *= 0.5
        assert built()
        law.probs = law.probs.copy()
        assert not built()
        law.c_plus = math.nextafter(law.c_plus, math.inf)
        assert built()
        law.r = 0.0
        assert built()
        law.r = -0.0
        assert built()
        law.r = 0.0
        assert not built()

    def test_a_kept_sampler_starts_each_run_afresh(self, monkeypatch):
        # the engine keeps one volume sampler per volume arguments: a warm
        # run checks its arguments once, builds no sampler, and reports only
        # its own residual draws
        calls = []
        check, init = peeling._check_volume_args, VolumeSampler.__init__
        monkeypatch.setattr(peeling, "_check_volume_args",
                            lambda *a: (calls.append("check"), check(*a))[1])
        monkeypatch.setattr(VolumeSampler, "__init__",
                            lambda self, *a, **kw: (calls.append("sampler"),
                                                    init(self, *a, **kw))[1])

        def run():
            out = simulate_ensemble("finite", tri_law(), 30, 400, 256, seed=9,
                                    volume_mode="exact_small")
            return {k: v for k, v in out.flags.items() if k not in REUSE_FLAGS}

        first = run()
        assert first["residual_draws"] > 0 and calls.count("sampler") == 1
        calls.clear()
        assert run() == first
        assert calls == ["check"]

    def test_kept_depth_is_capped(self, monkeypatch):
        # the kept parts of a mode come to at most DEPTH_CAP of depth with
        # the new one: a part is built only once enough of the least
        # recently used are dropped, and a part deeper than the rest of the
        # room is kept alone.  Here the cap is 4096, so quad runs to depths
        # 1024, 2048 and 4096
        monkeypatch.setattr(peeling, "DEPTH_CAP", 4096)
        quad = quad_law()

        def run(n):
            f = simulate("finite", quad, l0=40, n_steps=n, seed=1).flags
            return (f["depth_built"], f["window_reused"],
                    [k[1] for k in peeling._slot.parts["finite"]])

        assert run(100) == (True, False, [1024])
        assert run(300) == (True, True, [1024, 2048])
        assert run(100) == (False, True, [2048, 1024])
        assert run(1500) == (True, True, [4096])
        assert run(300) == (True, True, [2048])
        assert run(100) == (True, True, [2048, 1024])

    @pytest.mark.parametrize("mode", ["finite", "ibpm"])
    def test_three_laws_at_two_depths_by_turns(self, mode):
        # quad, tri and geo3, each at two depths, by turns and twice over:
        # the first pass builds six depth parts and three windows, the
        # second builds nothing, and every run draws what it draws on a
        # cold slot
        laws = {"quad": quad_law(), "tri": tri_law(), "geo3": geo3_law()}
        steps = {"quad": (100, 300), "tri": (100, 1500), "geo3": (50, 100)}
        assert all(len({peeling._deep_k_neg(laws[k], n) for n in steps[k]}) == 2
                   for k in laws)
        calls = [lambda k=k, n=n: simulate(mode, laws[k], l0=40, n_steps=n, seed=n)
                 for _ in range(2) for i in range(2) for k in laws for n in steps[k][i:i + 1]]
        warm = [self._outcome(call) for call in calls]
        assert [(r["depth_built"], r["window_reused"]) for _, r in warm] == (
            [(True, False)] * 3 + [(True, True)] * 3 + [(False, True)] * 6)
        for call, (out, _) in zip(calls, warm):
            peeling._slot.clear()
            self._same(out, self._outcome(call)[0])

    def test_parts_per_mode(self, monkeypatch):
        # at most PARTS depth parts per mode: a part is built only when
        # there is room for it, and a window part lives only while a kept
        # depth part uses it
        assert peeling.PARTS == 8
        windows, depths = [], []
        window_init, depth_init = peeling._Window.__init__, _ChainEngine.__init__

        def live(parts, order):
            return [p() for p in parts if p() is not None and p().order == order]

        def window(self, law, order):
            window_init(self, law, order)
            windows.append(weakref.ref(self))

        def depth(self, law, mode, window=None):
            assert len(live(depths, mode == "ibpm")) < peeling.PARTS
            depth_init(self, law, mode, window)
            depths.append(weakref.ref(self))

        monkeypatch.setattr(peeling._Window, "__init__", window)
        monkeypatch.setattr(_ChainEngine, "__init__", depth)
        laws = (quad_law(), tri_law(), geo3_law())
        # three depths per law (quad 1024 / 2048 / 4096, tri 1024 / 2048 /
        # 4096, geo3 2048 / 4096 / 8192): nine keys per mode
        steps = ((100, 300, 1500), (100, 1500, 2000), (100, 300, 1500))
        for mode in ("finite", "ibpm"):
            for i in range(3):
                for law, n in zip(laws, steps):
                    simulate(mode, law, l0=40, n_steps=n[i], seed=1)
        assert len(depths) == 18 and len(windows) == 6
        for order, mode in enumerate(("finite", "ibpm")):
            kept = [p.engine for p in peeling._slot.parts[mode].values()]
            assert len(kept) == peeling.PARTS
            assert set(map(id, live(depths, order))) == set(map(id, kept))
            assert set(map(id, live(windows, order))) == {id(e.window) for e in kept}
        # the first key, quad 1024, was dropped for the ninth
        assert simulate("finite", laws[0], l0=40, n_steps=100, seed=1).flags["depth_built"]

    def test_eviction_order(self):
        # the least recently used part goes first, where a run that reuses
        # a part makes it the most recent; once the last part of a law is
        # gone, so is its window
        quad, tri, geo3 = quad_law(), tri_law(), geo3_law()
        keys = {"qa": (quad, 100), "qb": (quad, 300),
                "t1": (tri, 100), "t2": (tri, 1500), "t3": (tri, 2000), "t4": (tri, 6000),
                "g1": (geo3, 50), "g2": (geo3, 100), "g3": (geo3, 300), "g4": (geo3, 1500)}
        assert len({(id(law), peeling._deep_k_neg(law, n))
                    for law, n in keys.values()}) == len(keys)

        def run(key):
            law, n = keys[key]
            f = simulate("finite", law, l0=40, n_steps=n, seed=1).flags
            return f["depth_built"], f["window_reused"]

        assert [run(k) for k in ("qa", "qb", "t1", "t2", "t3", "t4", "g1", "g2")] == [
            (True, False), (True, True), (True, False), (True, True), (True, True),
            (True, True), (True, False), (True, True)]
        assert run("qa") == (False, True)      # qa is now the most recent
        assert run("g3") == (True, True)       # drops qb, not qa
        assert run("qa") == (False, True)
        assert run("qb") == (True, True)       # built again on qa's window; drops t1
        assert run("t1") == (True, True)       # drops t2
        assert run("qb") == (False, True)
        quad_window = weakref.ref(kept_engine("finite").window)
        # the eight other keys drop qa and qb, the last parts on that window
        for k in ("t1", "t2", "t3", "t4", "g1", "g2", "g3", "g4"):
            run(k)
        assert len(peeling._slot.parts["finite"]) == peeling.PARTS
        assert quad_window() is None

    def test_rejected_call_keeps_the_slot(self):
        simulate("ibpm", LAW, n_steps=100, seed=1)

        def slot():
            return {m: list(parts.items()) for m, parts in peeling._slot.parts.items()}

        before = slot()
        for kw in ({"l0": 2.5}, {"seed": -1}, {"l_exact": -1}):
            with pytest.raises(ValueError):
                simulate("ibpm", tri_law(), n_steps=100, **kw)
        # a mode the engine has not, and the ibpm transform of a law that
        # is not critical (as in TestStepLaws.test_non_critical_refused)
        sub = WeightSequence({4: Fraction(1, 20)})
        cd = solve_boltzmann(sub)
        subcritical = complete_nu(nu_from_q(sub, cd.c_plus, cd.r), k_neg=32,
                                  critical=False)
        for mode, law in (("bogus", LAW), ("ibpm", subcritical)):
            with pytest.raises(ValueError, match="mode must be|needs a critical"):
                simulate(mode, law, n_steps=100)
        assert slot() == before

    @pytest.mark.parametrize("mode", ["finite", "ibpm"])
    @pytest.mark.parametrize("key", ["quad", "tri", "geo3", "shape"])
    def test_window_is_depth_free(self, key, mode):
        # a window part reads nu over k > -L_SMALL, k_pos and h(o, .):
        # deepened to 1024, 4096 or 8192, a law gives one window key and
        # the same rows and log K_theta, byte for byte
        law = {"quad": quad_law, "tri": tri_law, "geo3": geo3_law,
               "shape": shape_law}[key]()
        parts = []
        for depth in (1024, 4096, 8192):
            deep = deepen_negative(law, depth)
            window = peeling._Window(deep, int(mode == "ibpm"))
            window.extend_rows(L_SMALL - 1)
            log_K = window.log_K
            parts.append((peeling._window_key(deep), window.rows._flat.tobytes(),
                          None if log_K is None else log_K.tobytes()))
        assert parts[0] == parts[1] == parts[2]


# one-place mutants of the library's block rounds, (text, replacement) in
# _native._C_SOURCE: the blocks' tilted steps laid in reverse block order,
# a block that falls below 1 drawn whole (its stop only marked), a deep
# marker counted as its own value rather than -L_SMALL, the markers of
# stopped blocks redrawn, a keep uniform drawn for a stopped block, the
# tilt walk stopped after one move, a uniform on the keep odds kept, a
# checkpoint's perimeter one step early, and a checkpoint's volume without
# its own step's hole
C_MUTANTS = {
    "draw_order": ("long long *k = s->ks + p;", "long long *k = s->ks + (total - p - s->bB[b]);"),
    "whole_block": ("""                long long *k = s->ks + p;
                for (; q < s->bB[b]; q++) {
                    if (cdf_one(bg, s->tilt_rows, s->bj[b], &k[q]))
                        return -1;
                    if (k[q] > mark) {
                        sum += k[q];
                    } else {
                        if (k[q] < mark || s->n_deep < 1)
                            return -1;
                        deep = 1;
                        sum -= s->l_small;
                    }
                    if (l + sum < 1)
                        break;
                }
""", """                long long *k = s->ks + p, stop = s->bB[b];
                for (; q < s->bB[b]; q++) {
                    if (cdf_one(bg, s->tilt_rows, s->bj[b], &k[q]))
                        return -1;
                    if (k[q] > mark) {
                        sum += k[q];
                    } else {
                        if (k[q] < mark || s->n_deep < 1)
                            return -1;
                        deep = 1;
                        sum -= s->l_small;
                    }
                    if (l + sum < 1 && stop == s->bB[b])
                        stop = q;
                }
                q = stop;
"""),
    "marker_bound": ("sum -= s->l_small;", "sum += k[q];"),
    "link_stopped": ("if (s->bkeep[b] != 2)", "if (s->bkeep[b] == 1)"),
    "keep_stopped": ("""            if (!s->bkeep[b])
                continue;
            double u""", """            if (!s->bkeep[b]) {
                bg->next_double(bg->state);
                continue;
            }
            double u"""),
    "tilt_walk": ("            j--;\n            now = up;\n",
                  "            j--;\n            now = up;\n            break;\n"),
    "keep_comparison": ("s->bkeep[b] = u < ", "s->bkeep[b] = u <= "),
    "keep_h": ("s->bands->hz[s->k_neg + lB]", "s->bands->hz[s->k_neg + lB - 1]"),
    "checkpoint_offset": ("s->per[cp++ * n + c] = l;", "s->per[cp++ * n + c] = l - k;"),
    "volume_window": ("""                if (lp >= 0) {
                    long long dv = hole_volume(bg, s, lp, val);
                    if (dv < 0)
                        return -1;
                    v += dv;
                }
                if (++step == s->cps[cp]) {
                    s->vols[cp * n + c] = v;
""", """                long long v0 = v;
                if (lp >= 0) {
                    long long dv = hole_volume(bg, s, lp, val);
                    if (dv < 0)
                        return -1;
                    v += dv;
                }
                if (++step == s->cps[cp]) {
                    s->vols[cp * n + c] = v0;
"""),
    # run_start laying a run's rows out wrongly: one chain left out of act,
    # da left as the block was (the self-check's blocks hold junk), and no
    # lead row, which the lockstep check sees first
    "act_start": ("    s->n_act = n;\n", "    s->n_act = n - 1;\n"),
    "da_zero": ("    memset(s->da, 0, n * sizeof *s->da);\n", ""),
    "lead_row": ("        out[c] = l0;\n        out[rows + c] = 0;\n", "",
                 "compiled lockstep differs from the Python loop"),
    # a window row's guide cell that a cut splits settled to the entry
    # below the cut (that entry's cells end one cell late), which the row
    # fill's comparison sees;
    # and the band search without the guard that keeps its index
    # searchsorted's whatever the bracket guide holds, which the lockstep
    # check's reversed bracket needs
    "guide_late": ("(double)(c + 1) <= (row[j] - (double)l)", "(double)c < (row[j] - (double)l)",
                   "compiled row fill differs from the numpy fill"),
    "bracket_guard": ("""    if (lo > 0 && t < b->cuts[lo - 1])
        lo = 0;
    if (hi < b->n_cuts && !(t < b->cuts[hi]))
        hi = b->n_cuts;
""", "", "compiled lockstep differs from the Python loop"),
    # the cells past a row's last entry left as they were, so that a row
    # with no weight never opens its cells, which the row fill's
    # comparison sees on the self-check's weightless row over junk cells
    "open_after_last": ("                j++;\n            g[c] = j < len && ",
                        "                j++;\n            if (j == len)\n                break;\n"
                        "            g[c] = j < len && ",
                        "compiled row fill differs from the numpy fill"),
}

# the mutants of the other self-check tests, (text, replacement), by test:
# a draw that drops a row's start column; a target on a cut searched to
# its left and a uniform on a band's share taken into the low band; the
# hole-volume rule without its offset or its lower bound; a hole of degree
# 0 that still draws its exact row or its limit law; a mean volume one too
# large where a rule entry draws nothing or where there are no exact rows
START_COLUMN = ("long long col = start + idx - c->off[row];",
                "long long col = idx - c->off[row];")
EDGE_MUTANTS = {"cut": ("if (t < a[mid])", "if (t <= a[mid])",
                        "compiled lockstep differs from the Python loop"),
                "share": ("if (u < b->share[l]) {", "if (u <= b->share[l]) {",
                          "compiled block rounds differ from the numpy rounds")}
RULE_MUTANTS = {"off": ("long long v = s->off[lp];", "long long v = 0;"),
                "lo": ("    if (v < s->lo[lp])\n        v = s->lo[lp];\n", "")}
DEGREE_0_MUTANTS = {
    "row": ("    if (!lp) {\n        *val = 1;\n        return 0;\n    }\n", ""),
    "limit": ("    if (!lp)\n        return 1;\n",
              "    if (!lp)\n        return 1 + 0 * (long long)random_gamma(bg, 1.5, 2.0);\n")}
MEAN_MUTANTS = {"mean": ("        s->undrawn++;\n", "        s->undrawn++;\n        v++;\n"),
                "expectation": ("return v < f ? f : v;",
                                "return (v < f ? f : v) + !s->volumes;")}
# every mutant library of this module, by name: C_MUTANTS' own, the others
# under their test's prefix
MUTANTS = {**C_MUTANTS, "start_column": START_COLUMN,
           **{f"{prefix}_{name}": mutant
              for prefix, group in (("edge", EDGE_MUTANTS), ("rule", RULE_MUTANTS),
                                    ("degree_0", DEGREE_0_MUTANTS), ("mean", MEAN_MUTANTS))
              for name, mutant in group.items()}}


@pytest.fixture(scope="module")
def mutants(tmp_path_factory):
    """{name: path} of every library of MUTANTS, each the library's source
    with its one text replaced, compiled once per module in pools of two
    workers: at least one per test that reads them with the library's
    flags (`_native._C_FLAGS`), so that every test shows its verdicts hold
    at either optimisation level, and the others, about three times as
    fast, with -O0 in place of -O2, swapped in only once the library itself
    has loaded; skips without a compiler or numpy's static random
    library."""
    optimized = ("keep_stopped", "start_column", "edge_cut", "rule_off", "degree_0_row",
                 "mean_mean")
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None or not os.path.isfile(_native._npyrandom()):
        pytest.skip("no C compiler or no numpy static random library")
    sources = {}
    for name, (old, new, *_) in MUTANTS.items():
        assert _native._C_SOURCE.count(old) == 1, name
        sources[name] = _native._C_SOURCE.replace(old, new)
    tmp = tmp_path_factory.mktemp("mutants")
    paths = {name: str(tmp / f"{name}.so") for name in sources}
    _native.library()
    flags = _native._C_FLAGS
    assert "-O2" in flags and set(optimized) < set(sources)
    failed = []
    for level in (flags, tuple("-O0" if f == "-O2" else f for f in flags)):
        names = [name for name in sources if (name in optimized) == (level is flags)]
        with pytest.MonkeyPatch.context() as patch, \
                concurrent.futures.ThreadPoolExecutor(2) as pool:
            patch.setattr(_native, "_C_FLAGS", level)
            failed += pool.map(lambda name: _native._compile(cc, paths[name], sources[name]),
                               names)
    assert failed == [None] * len(sources)
    return paths


def small_finite_engine():
    """A finite chain engine on a small synthetic law, jumps -8..2 with
    h(0, m) = (m + 1)^(-1/2): the law of the library's lockstep self-check."""
    h = 1.0 / np.sqrt(np.arange(1.0, 2 * L_SMALL + 1))
    law = types.SimpleNamespace(
        ks=np.arange(-8, 3), probs=np.array([0.04] * 8 + [0.3, 0.1, 0.28]), k_neg=8,
        k_pos=2, B_nu=0.75,
        hcache=lambda: types.SimpleNamespace(array=lambda o, n: h[:n + 1]))
    return _ChainEngine(law, "finite")


# block_rounds' phases, in the order of its enum
BR_PHASES = re.search(r"enum \{ (BR_START[^}]*)\}", _native._C_SOURCE).group(1).replace(
    ",", " ").split()


def _past_the_cover(law, l0, n_steps, n_chains):
    """An ibpm ensemble of n_chains chains from l0 in block rounds on a fresh
    engine of law, begun without ``start``: where l0 lies past the engine's
    first cover, the first round's block starts are past it."""
    engine = _ChainEngine(law, "ibpm")
    vol = VolumeSampler(law, "asymptotic_xi", engine=engine)
    run = peeling._Run(n_chains, l0, range(1, n_steps + 1), peeling._compiled(engine, vol))
    engine.flags = {"band_proposals": 0, "band_accepts": 0}
    flags = block_flags()
    peeling._chains(engine, vol, _rng(8), run, flags)
    out = peeling.EnsembleResult((c, (run.per[i], run.vols[i]))
                                 for i, c in enumerate(run.cps))
    out.flags = {**vol.flags, **flags, **engine.flags}
    return out


def compiled_library():
    """The compiled library, or skip where it does not load."""
    lib, status = _native.library()
    if lib is None:
        pytest.skip(f"compiled library not loaded: {status[1]}")
    return lib


def block_flags():
    """A run's block counts before its first round (`peeling._chains`)."""
    return {"block_proposals": 0, "block_accepts": 0}


# one call of a chain loop: the loop's name, its status, and the run's step,
# blocks proposed so far, chains of the round that step once, the phase it
# returned in and the rounds it has begun
LoopCall = collections.namedtuple("LoopCall", "loop status step block_proposals n_one bphase "
                                              "rounds")


class Recording:
    """The library lib with every call of its chain loops appended to calls
    (`LoopCall`); a loop given by name stands in for the library's."""

    def __init__(self, lib, calls, **loops):
        self.lib, self.calls, self.loops = lib, calls, loops

    def __getattr__(self, attr):
        if attr not in ("lockstep", "block_rounds"):
            return getattr(self.lib, attr)
        loop = self.loops.get(attr) or getattr(self.lib, attr)

        def call(bg, ref):
            status = loop(bg, ref)
            s = ref._obj
            self.calls.append(LoopCall(attr, status, s.step, s.block_proposals, s.n_one,
                                       s.bphase, s.rounds))
            return status

        return call


@contextlib.contextmanager
def numpy_draws():
    """Run the reference loops (the Python and numpy chain loops, the numpy
    row fill and the Python h recurrence), as where the compiled library
    does not load."""
    loaded = _native.library()
    _native._state = (None, ("python", "forced"))
    try:
        yield
    finally:
        _native._state = loaded


def kept_engine(mode):
    """The engine of the depth part that this thread's last run in mode
    used: the most recently used of the slot's parts."""
    return next(reversed(peeling._slot.parts[mode].values())).engine


def draws_on(path):
    """The context of one draw path: 'compiled' (skipped where the library
    does not load) or 'numpy'."""
    if path == "numpy":
        return numpy_draws()
    compiled_library()
    return contextlib.nullcontext()


class TestRunRows:
    """A run's results are views of its output block: the lead row (l0, 0)
    and the checkpoint rows, apart from the scratch rows of its compiled
    loop, and never written by a later run."""

    @pytest.mark.parametrize("path", ["compiled", "numpy"])
    def test_a_trace_outlives_the_next_run(self, path):
        with draws_on(path):
            for mode in ("finite", "ibpm"):
                first = simulate(mode, LAW, l0=40, n_steps=300, seed=1)
                kept = first.perimeters.copy(), first.volumes.copy()
                second = simulate(mode, LAW, l0=40, n_steps=300, seed=2)
                assert not second.flags["depth_built"]
                assert not np.array_equal(second.perimeters, kept[0])
                np.testing.assert_array_equal(first.perimeters, kept[0])
                np.testing.assert_array_equal(first.volumes, kept[1])

    @pytest.mark.parametrize("path", ["compiled", "numpy"])
    @pytest.mark.parametrize("mode", ["finite", "ibpm"])
    def test_ensemble_rows_hold_no_scratch(self, mode, path):
        # perimeters and volumes, each a lead row, three checkpoint rows and
        # the chains' state: an ibpm run's scratch holds n_steps entries a
        # chain more
        n, chains = 50, 64
        with draws_on(path):
            out = simulate_ensemble(mode, LAW, 20, n, chains, seed=3, checkpoints=[10, 20])
        base = out[n][0].base
        assert base.nbytes == 8 * 2 * (1 + 3 + 1) * chains
        assert all(out[c][0].base is base and out[c][1].base is base for c in out)

    @pytest.mark.parametrize("path", ["compiled", "numpy"])
    def test_the_first_row_is_the_start(self, path):
        with draws_on(path):
            for mode in ("finite", "ibpm"):
                trace = simulate(mode, LAW, l0=40, n_steps=30, seed=4)
                assert (trace.perimeters[0], trace.volumes[0]) == (40, 0)
                assert len(trace.perimeters) == len(trace.volumes) == 31
            absorbed = simulate("finite", LAW, l0=2, n_steps=5, seed=0)
        assert absorbed.perimeters.tolist() == [2, 0, 0, 0, 0, 0]
        assert absorbed.volumes[0] == 0 and absorbed.volumes[1] > 0


def c_struct(name):
    """(field, kind) of each field of the C source's typedef struct name, in
    order: kind "pointer" for a pointer or function pointer, else its
    type, with [n] after an array's."""
    body = re.search(r"typedef struct \{([^}]*)\} " + name + ";", _native._C_SOURCE)[1]
    fields = []
    for decl in filter(None, map(str.strip, re.sub(r"/\*.*?\*/", "", body, flags=re.S)
                                 .split(";"))):
        if "(*" in decl:
            fields.append((re.search(r"\(\*(\w+)\)", decl)[1], "pointer"))
            continue
        base = None
        for part in decl.split(","):
            m = re.search(r"(\**)\s*(\w+)(?:\[(\d+)\])?$", part.strip())
            base = base or part.strip()[:m.start()].replace("const", "").strip()
            kind = "pointer" if m[1] else base + (f"[{m[3]}]" if m[3] else "")
            fields.append((m[2], kind))
    return fields


def ctypes_kind(t):
    """The kind `c_struct` gives a field of ctypes type t."""
    if issubclass(t, ctypes.Array):
        return f"{ctypes_kind(t._type_)}[{t._length_}]"
    return {ctypes.c_void_p: "pointer", ctypes.c_double: "double",
            ctypes.c_longlong: "long long"}[t]


class TestDeclarations:
    """The C source's statuses and structs against their mirrors in
    `_native`: a field dropped or moved on one side only would corrupt
    memory without any test naming the cause."""

    @pytest.mark.parametrize("prefix", ["LS", "SS"])
    def test_status_enum_matches_the_constants(self, prefix):
        enum = re.search(r"enum \{ (" + prefix + r"_[^}]*)\}", _native._C_SOURCE)[1]
        names = [name.strip() for name in enum.split(",")]
        assert [getattr(_native, name) for name in names] == list(range(len(names)))
        assert {name for name in vars(_native) if name.startswith(prefix + "_")} == set(names)

    @pytest.mark.parametrize("struct, mirror", [
        ("bitgen_t", _native._BitGen), ("fixed_t", _native._Fixed), ("series_t", _native.Series),
        ("cdf_t", _native.Cdf), ("bands_t", _native.Bands), ("lockstep_t", _native.Lockstep)])
    def test_struct_matches_its_mirror(self, struct, mirror):
        assert c_struct(struct) == [(name, ctypes_kind(t)) for name, t in mirror._fields_]


class TestCompiledDraws:
    """The compiled draws read the Generator's stream in numpy's order, so
    every trace, ensemble and sample is the numpy path's, byte for byte."""

    @staticmethod
    def _both(run):
        # each path builds its own engines (rows filled in C or numpy)
        with draws_on("compiled"):
            peeling._slot.clear()
            compiled = run()
        with numpy_draws():
            peeling._slot.clear()
            reference = run()
        assert compiled == reference

    @staticmethod
    def _loop_calls(monkeypatch):
        """Every call of the library's chain loops (`LoopCall`), as the
        compiled path makes them: `peeling._compiled` hands out the
        library recorded."""
        calls = []
        compiled = peeling._compiled

        def recorded(engine, vol):
            c = compiled(engine, vol)
            return c and (Recording(c[0], calls), *c[1:])

        monkeypatch.setattr(peeling, "_compiled", recorded)
        return calls

    @staticmethod
    def _digest(outs):
        """One sha256 over traces and ensembles: their states and their
        flags but the reuse flags."""
        h = hashlib.sha256()
        for out in outs:
            if isinstance(out, PeelTrace):
                h.update(out.perimeters.tobytes() + out.volumes.tobytes())
            else:
                for c in sorted(out):
                    h.update(repr(c).encode() + out[c][0].tobytes() + out[c][1].tobytes())
            flags = {k: v for k, v in out.flags.items() if k not in REUSE_FLAGS}
            h.update(repr(sorted(flags.items())).encode())
        return h.hexdigest()

    @staticmethod
    def _case(case):
        """(the runs of a lockstep case, a check of what they did on the
        compiled path, given their outputs and its lockstep calls)."""
        heavy = symmetric_family(1.0, math.pi / 4, k_pos=256)
        tri = tri_law()

        def asked(calls, status):
            # a table asked for after the run's first step
            return any(st == status and step > 0 for st, step in calls)

        if case == "absorbed":
            runs = [lambda: simulate_ensemble("finite", LAW, 2, 5000, 64, seed=7,
                                              volume_mode="exact_small",
                                              checkpoints=[1, 10, 100]),
                    lambda: simulate("finite", tri, l0=3, n_steps=20_000, seed=8)]

            def check(outs, calls):
                assert not outs[0][5000][0].any() and outs[1].perimeters[-1] == 0
                done = [step for st, step in calls if st == _native.LS_DONE]
                assert len(done) == 2 and max(done) < 5000
        elif case == "residuals":
            runs = [lambda: simulate_ensemble("finite", tri, 30, 400, 256, seed=9,
                                              volume_mode="exact_small"),
                    lambda: simulate("finite", LAW, l0=40, n_steps=3000, seed=9)]

            def check(outs, calls):
                assert min(out.flags["residual_draws"] for out in outs) > 0
        elif case == "heavy":
            runs = [lambda v=v, m=m: simulate_ensemble(m, heavy, 40, 300, 64, seed=2,
                                                       volume_mode=v)
                    for v in VOLUME_MODES for m in ("finite", "ibpm")]
            runs.append(lambda: simulate("finite", heavy, l0=1500, n_steps=2000,
                                         seed=2, volume_mode="expectation"))

            def check(outs, calls):
                assert all(out.flags.get("heavy_volume_expectation")
                           for out, v in zip(outs, np.repeat(VOLUME_MODES, 2))
                           if v != "expectation")
                # the means are a table whole before the first step: no
                # call returns for one
                assert {st for st, _ in calls} <= {_native.LS_DONE, _native.LS_ROWS,
                                                   _native.LS_COVER}
        else:
            runs = [lambda: simulate_ensemble("finite", LAW, 60, 600, 200, seed=11,
                                              checkpoints=range(1, 601, 7)),
                    lambda: simulate_ensemble("finite", tri, 2040, 300, 200, seed=12,
                                              volume_mode="asymptotic_xi")]

            def check(outs, calls):
                assert asked(calls, _native.LS_ROWS) and asked(calls, _native.LS_COVER)
        return runs, check

    @pytest.mark.parametrize("case", ["absorbed", "residuals", "heavy", "growth"])
    def test_lockstep_cases(self, case, monkeypatch):
        # every chain absorbed before n_steps, exact_small runs that draw
        # residuals, a heavy-tailed law (its means read from their table),
        # and rows and bands grown mid-run
        runs, check = self._case(case)
        calls = self._loop_calls(monkeypatch)
        digests = []
        for path in ("compiled", "numpy"):
            with draws_on(path):
                peeling._slot.clear()
                outs = [run() for run in runs]
            if path == "compiled":
                check(outs, [(c.status, c.step) for c in calls if c.loop == "lockstep"])
            digests.append(self._digest(outs))
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("path", ["compiled", "numpy"])
    def test_one_loop_per_transform(self, path, monkeypatch):
        # a finite run steps only in lockstep and an ibpm run only in block
        # rounds, from its first step: also where B(l0) = 1 (geometric
        # H = 5 from 1, the heavy law from 2)
        res = preset("geometric", H=5.0)
        geo5 = complete_nu(nu_from_q(res.weights, res.constants["c_plus"],
                                     float(res.constants["r"])), k_neg=512)
        heavy = symmetric_family(1.0, math.pi / 4, k_pos=256)
        runs = [("finite", None, lambda: simulate("finite", LAW, l0=2, n_steps=500, seed=1)),
                ("finite", None, lambda: simulate_ensemble("finite", tri_law(), 40, 300, 32,
                                                           seed=2)),
                ("ibpm", 1, lambda: simulate("ibpm", geo5, l0=1, n_steps=500, seed=3)),
                ("ibpm", 2, lambda: simulate_ensemble("ibpm", heavy, 2, 300, 32, seed=4)),
                ("ibpm", None, lambda: simulate("ibpm", LAW, l0=2, n_steps=500, seed=5))]
        calls = self._loop_calls(monkeypatch)
        numpy_calls = []
        for name in ("_lockstep_numpy", "_block_rounds_numpy"):
            monkeypatch.setattr(peeling, name, lambda *a, f=getattr(peeling, name), name=name:
                                (numpy_calls.append(name), f(*a))[1])
        with draws_on(path):
            for mode, l0, run in runs:
                calls.clear(), numpy_calls.clear()
                out = run()
                if path == "compiled":
                    assert {c.loop for c in calls} == {"lockstep" if mode == "finite"
                                                       else "block_rounds"}
                    assert not numpy_calls
                else:
                    assert numpy_calls == ["_lockstep_numpy" if mode == "finite"
                                           else "_block_rounds_numpy"]
                assert (out.flags["block_accepts"] > 0) == (mode == "ibpm")
                if l0 is not None:
                    assert kept_engine("ibpm").blocks[l0] == 1

    @staticmethod
    def _block_case(case, monkeypatch):
        """(the runs of a block-round case, a check of what they did on the
        compiled path, given their outputs and its block_rounds calls)."""
        def kept(outs, calls):
            assert all(out.flags["block_accepts"] > 0 for out in outs)
            assert calls and calls[-1][0] == _native.LS_DONE
            # a call returns for a row or the cover at a round's start or
            # at its block ends alone
            assert all(BR_PHASES[phase] in ("BR_START", "BR_ENDS") for st, *_, phase in calls
                       if st in (_native.LS_ROWS, _native.LS_COVER))

        if case == "geo3":
            geo3 = geo3_law()
            runs = [lambda: simulate("ibpm", geo3, l0=200, n_steps=3000, seed=5),
                    lambda: simulate_ensemble("ibpm", geo3, 200, 300, 64, seed=6,
                                              volume_mode="exact_small",
                                              checkpoints=range(1, 301))]
            check = kept
        elif case == "heavy":
            heavy = symmetric_family(1.0, math.pi / 4, k_pos=256)
            runs = [lambda v=v: simulate_ensemble("ibpm", heavy, 2, 600, 64, seed=2,
                                                  volume_mode=v)
                    for v in VOLUME_MODES]
            runs.append(lambda: simulate("ibpm", heavy, l0=2, n_steps=3000, seed=2))

            def check(outs, calls):
                kept(outs, calls)
                assert all(out.flags.get("heavy_volume_expectation")
                           for out, v in zip(outs, VOLUME_MODES + ("exact_small",))
                           if v != "expectation")
        elif case == "checkpoints":
            runs = [lambda cps=cps: simulate_ensemble(
                        "ibpm", LAW, 2, 1000, 128, seed=9, volume_mode="exact_small",
                        checkpoints=cps)
                    for cps in (range(1, 1001), [1, 2, 77, 500, 999], None)]
            check = kept
        elif case == "cap":
            # 64 blocks share 50 or 500 steps: blocks of one or seven steps
            cap = []
            runs = [lambda c=c: (monkeypatch.setattr(peeling, "BLOCK_DRAWS", c),
                                 cap.append(c),
                                 simulate_ensemble("ibpm", LAW, 200, 60, 64, seed=67,
                                                   checkpoints=[13]))[-1]
                    for c in (50, 500)]

            def check(outs, calls):
                kept(outs, calls)
                assert outs[0].flags["block_proposals"] >= 64 * 60
                assert outs[1].flags["block_proposals"] >= 64 * 60 // 7
        elif case == "single_steps":
            # B(l) > 1 from l = 5 for the heavy law, from 2 for geo3: the
            # first rounds step every chain once, before any block
            heavy = symmetric_family(1.0, math.pi / 4, k_pos=256)
            runs = [lambda: simulate_ensemble("ibpm", heavy, 2, 3000, 64, seed=6,
                                              checkpoints=range(1, 3001)),
                    lambda: simulate("ibpm", geo3_law(), l0=1, n_steps=20_000, seed=4,
                                     volume_mode="exact_small")]

            def check(outs, calls):
                kept(outs, calls)
                ends = [i for i, (st, *_) in enumerate(calls) if st == _native.LS_DONE]
                assert len(ends) == len(runs)
                for chains, run in zip((64, 1), np.split(calls, np.add(ends[:-1], 1))):
                    # the first row asked for is for a round of single steps
                    # alone, made before the run proposed a block, and asked
                    # for at the round's start
                    first = next((c for c in run if c[0] == _native.LS_ROWS), None)
                    assert first is not None and first[1] == 0 and first[2] == chains
                    assert first[3] == BR_PHASES.index("BR_START")
                    assert run[-1][1] > 0
        elif case == "deep":
            # from l0 = 3000, tilted draws at the rows' last entry are
            # redrawn from nu on k <= -L_SMALL; kept ones show as drops
            runs = [lambda: simulate_ensemble("ibpm", LAW, 3000, 600, 1024, seed=21,
                                              checkpoints=range(1, 601))]

            def check(outs, calls):
                kept(outs, calls)
                per = np.array([outs[0][c][0] for c in range(1, 601)])
                assert (np.diff(per, axis=0) <= -L_SMALL).any()
        else:
            # "growth": blocks land past the engine's cover (its h table,
            # bands, B(l) and tilt rows) after blocks were proposed, however
            # far the shared h cache was grown before, and chains start a
            # round past it: those set past the cover of a fresh engine
            LAW.hcache().table(1, 1 << 16)
            runs = [lambda: simulate_ensemble("ibpm", LAW, 2, 40_000, 64, seed=8),
                    lambda: simulate_ensemble("ibpm", tri_law(), 1900, 3000, 32, seed=8,
                                              volume_mode="exact_small"),
                    lambda: _past_the_cover(DEEP["quad"], 5000, 300, 16)]

            def check(outs, calls):
                kept(outs, calls)
                cover = [(n, phase) for st, n, _, phase in calls if st == _native.LS_COVER]
                assert (0, BR_PHASES.index("BR_START")) in cover
                assert any(n > 0 and phase == BR_PHASES.index("BR_ENDS")
                           for n, phase in cover)
        return runs, check

    @pytest.mark.parametrize("case", ["geo3", "heavy", "checkpoints", "cap",
                                      "single_steps", "deep", "growth"])
    def test_block_round_cases(self, case, monkeypatch):
        # block rounds from l0 = 200 on geo3, on the heavy symmetric law in
        # every volume mode, checkpointed at every step and sparsely, cut by
        # BLOCK_DRAWS, from perimeters with B(l) = 1, with deep redraws
        # kept, and with B(l), its tilt rows and h(1, .) grown mid-run:
        # compiled and numpy digests agree
        calls = self._loop_calls(monkeypatch)
        runs, check = self._block_case(case, monkeypatch)
        digests = []
        for path in ("compiled", "numpy"):
            with draws_on(path):
                peeling._slot.clear()
                outs = [run() for run in runs]
            if path == "compiled":
                check(outs, [(c.status, c.block_proposals, c.n_one, c.bphase)
                             for c in calls if c.loop == "block_rounds"])
            digests.append(self._digest(outs))
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("path", ["compiled", "numpy"])
    def test_a_cover_grown_ahead(self, path):
        # the perimeter tables' prefixes do not depend on how far the cover
        # grew: runs on engines whose cover was grown to 2^15 ahead give the
        # digests of runs on fresh engines, finite and ibpm
        tri = tri_law()

        def runs():
            return [simulate_ensemble("ibpm", LAW, 2, 3000, 64, seed=8,
                                      volume_mode="exact_small"),
                    simulate("ibpm", LAW, l0=1900, n_steps=3000, seed=4),
                    simulate_ensemble("finite", tri, 1900, 3000, 32, seed=3)]

        with draws_on(path):
            peeling._slot.clear()
            fresh = self._digest(runs())
            for mode in ("finite", "ibpm"):
                kept_engine(mode)._cover(1 << 15)
                assert kept_engine(mode).bands.n > 1 << 15
            ahead = runs()
            assert not any(out.flags["depth_built"] for out in ahead)
        assert self._digest(ahead) == fresh

    @pytest.mark.parametrize("volume_mode", VOLUME_MODES)
    @pytest.mark.parametrize("key", ["quad", "tri", "geo3", "heavy"])
    def test_ibpm_ensembles_agree(self, key, volume_mode):
        # block rounds from l0 = 200 with a checkpoint at every step, so
        # inside every kept block, in every volume mode: compiled and
        # numpy digests agree
        law = {"quad": lambda: LAW, "tri": tri_law, "geo3": geo3_law,
               "heavy": lambda: symmetric_family(1.0, math.pi / 4, k_pos=256)}[key]()
        digests = []
        for path in ("compiled", "numpy"):
            with draws_on(path):
                peeling._slot.clear()
                out = simulate_ensemble("ibpm", law, 200, 300, 64, seed=13,
                                        volume_mode=volume_mode,
                                        checkpoints=range(1, 301))
            assert out.flags["block_accepts"] > 0
            digests.append(self._digest([out]))
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("key", ["quad", "geo3"])
    def test_both_rounds_leave_the_last_state(self, key):
        # 300 ibpm chains from 200 to sparse checkpoints, in block rounds on
        # either path (`peeling._chains`): the numpy rounds leave the
        # chains' state (run.ls, run.V) where the compiled ones do, at the
        # last checkpoint row
        compiled_library()
        law = DEEP[key]
        engine = _ChainEngine(law, "ibpm")
        ends = []
        for compiled in (True, False):
            vol = VolumeSampler(law, "asymptotic_xi", engine=engine)
            engine.start(200)
            run = peeling._Run(300, 200, [7, 50, 120],
                               peeling._compiled(engine, vol) if compiled else None)
            flags = block_flags()
            peeling._chains(engine, vol, _rng(31), run, flags)
            assert flags["block_accepts"] > 0
            np.testing.assert_array_equal(run.ls, run.per[-1])
            np.testing.assert_array_equal(run.V, run.vols[-1])
            ends.append((run.ls.tobytes(), run.V.tobytes()))
        assert ends[0] == ends[1]

    def test_heavy_flag_only_when_a_mean_is_read(self):
        # a heavy law's limit volume is its mean increment, flagged as
        # heavy_volume_expectation; a hole of degree 0 is the one-vertex
        # map, whose volume 1 reads no mean.  One chain's one-step block
        # from 1000 prunes nothing, a hole of degree 0 or a larger one by
        # seed: the flag is set exactly when a hole with l' >= 1 is filled,
        # and both paths give the same perimeter, volume and flags
        heavy = symmetric_family(1.0, math.pi / 4, k_pos=256)
        seen = []
        for path in ("compiled", "numpy"):
            with draws_on(path):
                peeling._slot.clear()
                outs = [simulate_ensemble("ibpm", heavy, 1000, 1, 1, seed=s,
                                          volume_mode="asymptotic_xi")
                        for s in range(6)]
            seen.append([(int(out[1][0][0]) - 1000, int(out[1][1][0]),
                          out.flags.get("heavy_volume_expectation", False),
                          out.flags["block_accepts"]) for out in outs])
        assert seen[0] == seen[1]
        ks = [k for k, _, _, _ in seen[0]]
        assert max(ks) > -2 and -2 in ks and min(ks) < -2
        assert all(flag == (k <= -3) for k, _, flag, _ in seen[0])
        assert all(v == (0 if k > -2 else 1) for k, v, _, _ in seen[0] if k >= -2)
        assert all(kept == 1 for _, _, _, kept in seen[0])

    def test_uniform_on_the_keep_odds(self, monkeypatch):
        # one chain from l0 = 300 on quad: the uniform after its first
        # block's tilted draws is that block's keep odds as libm's exp
        # (math.exp) gives them, so both loops reject the block, the
        # compiled one in a single call; states, flags and uniforms agree
        compiled_library()
        calls = self._loop_calls(monkeypatch)
        law, l0, n = DEEP["quad"], 300, 40
        engine = _ChainEngine(law, "ibpm")
        kept, propose = [], engine.propose_blocks

        def proposing(*args):   # the numpy rounds' keep decisions, per round
            out = propose(*args)
            kept.append(out[-1].tolist())
            return out

        monkeypatch.setattr(engine, "propose_blocks", proposing)
        B = min(int(engine.blocks[l0]), n)
        assert B > 1
        j = int(engine._block_tilts(np.array([l0]), np.array([B]))[0])
        us = np.arange(1, 1000) * 0.6180339887498949 % 0.9
        lB = l0 + int(engine.tilt_rows.at(j + us[:B] * _StackedCdf.U_MAX).sum())
        h = law.hcache().table(1, lB)[lB - 1]
        us[B] = h * math.exp(-BLOCK_THETAS[j] * lB - engine.log_K[j])
        assert 0 < us[B] < 1
        runs = []
        for compiled in (True, False):
            vol = VolumeSampler(law, "exact_small")
            engine.start(l0)
            started = peeling._compiled(engine, vol)
            run = peeling._Run(1, l0, range(1, n + 1), started if compiled else None)
            rng = _native.FixedStream(started[0], us)
            flags = block_flags()
            peeling._chains(engine, vol, rng, run, flags)
            runs.append((run.per.tobytes(), run.vols.tobytes(), vol.flags, engine.flags,
                         flags, rng.used))
        assert [(c.loop, c.status) for c in calls] == [("block_rounds", _native.LS_DONE)]
        assert kept[0] == [False]
        assert runs[0] == runs[1]

    def test_self_check_refuses_mutants(self, mutants):
        # the library's block rounds, run_start, row guide and band
        # search, each mutated in one place, compiled and checked on load:
        # the self-check refuses every one, under --reference-loops too
        # (the check calls the library under check directly), with the
        # block rounds' refusal unless the mutant names another
        for name, (_, _, *refusal) in C_MUTANTS.items():
            refusal = (refusal or ["compiled block rounds differ from the numpy rounds"])[0]
            assert _native._self_check(_native._open(mutants[name])) == refusal, name

    def test_self_check_ends_on_a_cycling_mutant(self, mutants):
        # the keep_stopped mutant draws a keep uniform for a stopped block,
        # so it reads the self-check's cyclic stream in another order: its
        # stopped-block run from 6 over 4 steps is refused within 5 s, and
        # from 4 over 2 steps, where the library agrees with the numpy
        # rounds, it cycles with no chain kept until its round budget (one
        # round per uniform of the stream) runs out
        mutant = _native._open(mutants["keep_stopped"])
        fixture = peeling._block_fixture()
        case, chains, n_steps, stream = fixture.runs[2]
        assert (chains[0], n_steps) == (5, 3)

        def same(lib, start, n_steps):
            return peeling._same_run(lib, fixture.engine, fixture.volumes,
                                     fixture.rules.get(case), case,
                                     np.array([start, *chains[1:]]), range(1, n_steps + 1),
                                     stream)

        begun = time.perf_counter()
        assert same(mutant, 6, 4) is not None
        assert time.perf_counter() - begun < 5.0
        assert same(compiled_library(), 4, 2) is None
        calls = []
        assert (same(Recording(mutant, calls), 4, 2)
                == "compiled block rounds ran out of their round budget")
        assert calls[-1].status == _native.LS_BUDGET
        assert [c.rounds for c in calls if c.status == _native.LS_BUDGET] == [len(stream) + 1]

    def test_numpy_rounds_end_on_a_cycling_start(self):
        # one chain from 6 over 6 steps on the stopped-block run's stream:
        # the numpy rounds, the self-check's reference, cycle there with no
        # block ever kept, until the run's round budget refuses them, within
        # 5 s; the compiled rounds, which would refuse themselves first,
        # are left out: a stand-in for them returns LS_DONE at once
        stub = Recording(compiled_library(), [], block_rounds=lambda bg, s: _native.LS_DONE)
        fixture = peeling._block_fixture()
        case, _, _, stream = fixture.runs[2]
        begun = time.perf_counter()
        assert (peeling._same_run(stub, fixture.engine, fixture.volumes,
                                  fixture.rules.get(case), case, np.array([6]), range(1, 7),
                                  stream)
                == "numpy block rounds ran out of their round budget")
        assert time.perf_counter() - begun < 5.0

    def test_self_check_refuses_a_start_column_mutant(self, mutants):
        # a draw that takes a row's value index from the entry's offset in
        # the row alone, dropping the row's start column: right on every
        # rectangular table, wrong on rows that start past column 0, which
        # the self-check's lockstep runs draw from; their chains then jump
        # below 0, which the compiled loop refuses outright
        with pytest.raises(IndexError, match="lockstep read outside the tables built"):
            _native._self_check(_native._open(mutants["start_column"]))

    def test_self_check_refuses_draws_on_an_edge(self, mutants):
        # a target on a cut searched to its left, and a uniform on a band's
        # share taken into the low band: the self-check's lockstep and
        # block runs put uniforms exactly there
        for name, (_, _, refusal) in EDGE_MUTANTS.items():
            assert _native._self_check(_native._open(mutants[f"edge_{name}"])) == refusal, name

    def test_self_check_refuses_rule_mutants(self, mutants):
        # the hole-volume rule without its offset, or without its lower
        # bound: the lockstep and block checks each refuse both, on their
        # synthetic rules whose off and lo decide some volumes
        for name in RULE_MUTANTS:
            lib = _native._open(mutants[f"rule_{name}"])
            assert peeling._same_lockstep(lib) == "compiled lockstep differs from the Python loop"
            assert (peeling._same_blocks(lib)
                    == "compiled block rounds differ from the numpy rounds"), name

    def test_self_check_never_asks_the_loader(self, monkeypatch):
        # the check runs the library under check and the numpy and Python
        # loops directly: a loader that raises is never reached
        lib = compiled_library()

        def loader():
            raise AssertionError("the self-check asked for the library")

        monkeypatch.setattr(_native, "library", loader)
        assert _native._self_check(lib) is None

    def test_self_check_refuses_a_degree_0_draw(self, mutants):
        # a hole of degree 0 that still draws its exact row, or its limit
        # law: its volume stays 1 but the stream moves, which the
        # self-check's lockstep runs (exact rows, and the limit law alone)
        # see
        for name in DEGREE_0_MUTANTS:
            assert (_native._self_check(_native._open(mutants[f"degree_0_{name}"]))
                    == "compiled lockstep differs from the Python loop"), name

    def test_self_check_refuses_a_mean_mutant(self, mutants):
        # a mean volume read one too large, wherever a rule entry draws
        # nothing or wherever there are no exact rows (as in expectation
        # mode): the lockstep and the block halves of the self-check each
        # refuse both
        for name in MEAN_MUTANTS:
            lib = _native._open(mutants[f"mean_{name}"])
            assert (peeling._same_lockstep(lib)
                    == "compiled lockstep differs from the Python loop"), name
            assert (peeling._same_blocks(lib)
                    == "compiled block rounds differ from the numpy rounds"), name

    def test_self_check_runs_every_chain_to_absorption(self, monkeypatch):
        # one lockstep run of the self-check has every chain absorbed before
        # its last checkpoint; both loops stop there and the check passes
        lib = compiled_library()
        ends, reference = [], peeling._lockstep_numpy

        def recording(engine, vol, rng, run):
            reference(engine, vol, rng, run)
            ends.append((run.i, len(run.cps), bool(run.ls.any())))

        monkeypatch.setattr(peeling, "_lockstep_numpy", recording)
        assert peeling._same_lockstep(lib) is None
        assert (26, 29, False) in ends

    def test_self_check_refuses_a_loop_past_absorption(self, monkeypatch):
        # a loop that goes on writing checkpoints once every chain is
        # absorbed gives the same perimeters but a different checkpoint count
        lib = compiled_library()
        reference = peeling._lockstep_numpy

        def past(engine, vol, rng, run):
            reference(engine, vol, rng, run)
            if not run.ls.any():
                run.per[run.i:], run.vols[run.i:] = run.ls, run.V
                run.i = len(run.cps)

        monkeypatch.setattr(peeling, "_lockstep_numpy", past)
        assert (peeling._same_lockstep(lib)
                == "compiled lockstep differs from the Python loop")

    def test_gamma_is_numpys(self):
        # the library's gamma is numpy's own code: Generator.gamma(1.5, 2.0)
        # bit for bit, leaving the stream where numpy leaves it
        lib = compiled_library()
        rng, ref = _rng(5), _rng(5)
        out = np.empty(100_000)
        with rng.bit_generator.lock:
            lib.gamma_fill(rng.bit_generator.ctypes.bit_generator, 1.5, 2.0,
                           len(out), _native.address(out))
        assert out.tobytes() == ref.gamma(1.5, 2.0, size=len(out)).tobytes()
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("volume_mode", VOLUME_MODES)
    @pytest.mark.parametrize("l0", [4, 1010, 2000])
    @pytest.mark.parametrize("mode", ["finite", "ibpm"])
    def test_ensembles_and_traces(self, mode, l0, volume_mode):
        law = tri_law() if l0 == 1010 else LAW

        def run():
            out = simulate_ensemble(mode, law, l0, 160, 128, seed=l0,
                                    volume_mode=volume_mode, checkpoints=[40, 80])
            tr = simulate(mode, law, l0=l0, n_steps=400, seed=3,
                          volume_mode=volume_mode)
            return ([(c, out[c][0].tobytes(), out[c][1].tobytes()) for c in sorted(out)],
                    out.flags, tr.perimeters.tobytes(), tr.volumes.tobytes(), tr.flags)

        self._both(run)

    def test_sampler_and_ecf(self):
        def run():
            s = guided_row(np.arange(7) - 3, [1, 2, 0, 3, 1, 1, 5])
            ecf = ecf_test(tri_law(), 200, 20_000, seed=1)
            return (row_draws(s, _rng(3), 1000).tobytes(), row_draws(s, _rng(4), 1)[0],
                    ecf.empirical.tobytes())

        self._both(run)

    @pytest.mark.parametrize("path", ["compiled", "numpy"])
    def test_out_of_range_raises(self, path):
        # numpy: a row at or past the rows built, or a perimeter outside the
        # bands _cover built, raises IndexError.  compiled: the library draws
        # only inside the chain loops, which raise for a chain at a negative
        # perimeter and for a block whose tilt row is not built
        engine = _ChainEngine(DEEP["tri"], "ibpm")
        engine.window.extend_rows(100)
        engine._tilt_rows(10)
        if path == "numpy":
            volumes = VolumeSampler(LAW, "exact_small")._cdf
            bands = engine.bands
            for rows in (engine.rows, engine.tilt_rows, volumes):
                for bad in ([rows.n], [0, rows.n + 5, 1], [-1]):
                    with pytest.raises(IndexError):
                        rows.draw(_rng(1), np.array(bad))
                assert len(rows.draw(_rng(1), np.array([rows.n - 1, 0]))) == 2
            for bad in ([bands.n], [2000, bands.n + 7], [-1]):
                with pytest.raises(IndexError):
                    bands.jumps(_rng(1), np.array(bad))
            jumps, proposals = bands.jumps(_rng(1), np.array([bands.n - 1, 2000]))
            assert len(jumps) == 2 and proposals >= 2
            return
        lib = compiled_library()
        vol = VolumeSampler(DEEP["tri"], "asymptotic_xi")
        finite = _ChainEngine(DEEP["tri"], "finite")
        for eng, name in ((finite, "lockstep"), (engine, "block_rounds")):
            eng.start(5)
            run = peeling._Run(3, 5, range(1, 4), (lib, eng, vol))
            run.ls[1] = -1
            with pytest.raises(IndexError, match=f"{name} read outside the tables built"):
                peeling._chains(eng, vol, _rng(1), run, block_flags())
        engine.tilt_rows = _StackedCdf(len(BLOCK_THETAS), engine.tilt_rows._vals,
                                       cells=peeling.GUIDE)
        engine.start(2000)
        with pytest.raises(IndexError, match="block_rounds read outside the tables built"):
            peeling._chains(engine, vol, _rng(1), peeling._Run(2, 2000, [5], (lib, engine, vol)),
                            block_flags())

    @pytest.mark.parametrize("on_cut", [False, True])
    @pytest.mark.parametrize("path", ["compiled", "numpy"])
    def test_target_on_a_cut(self, path, on_cut):
        # a target equal to a cut draws the value right of it, as
        # searchsorted(side="right") over the whole table, and a target just
        # below it the value left of it: for u in [1/2, 1), the row [w, 1 - w]
        # with w = u * U_MAX has its cut at the target of u exactly (1 - w
        # and w + (1 - w) = 1 are exact), and the target of w lies just
        # below it.  u is the first uniform of seed 3; numpy: a draw from
        # the row; compiled: the exact volume row of a lockstep step's hole
        # of degree 1, from a chain at 8 of a small law that jumps by -3
        u = _rng(3).random()
        w = u * _StackedCdf.U_MAX
        assert 0.5 <= w < 1
        cdf = _StackedCdf(2, np.array([1, 2, 3, 8]), cells=peeling.GUIDE)
        cdf.append(np.array([[0.5, 0.5, 0, 0], [0, 0, w, 1.0 - w]]))
        assert cdf.row(1)[2] == 1 + w
        v = u if on_cut else w
        t = 1 + v * _StackedCdf.U_MAX
        assert (t == 1 + w) == on_cut and t <= 1 + w
        want = cdf._vals[cdf._flat.searchsorted(t, "right") - cdf._off[1]]
        assert want == (8 if on_cut else 3)
        if path == "numpy":
            stream = types.SimpleNamespace(random=lambda n: np.full(n, v))
            assert cdf.draw(stream, np.ones(1, dtype=np.int64))[0] == want
            return
        lib = compiled_library()
        engine = small_finite_engine()
        engine.window.extend_rows(8)
        cut = engine.rows.row(8) - 8
        vol = VolumeSampler(engine.law, "asymptotic_xi")
        vol.mode, vol.l_exact, vol._cdf = "exact_small", 1, cdf
        engine.start(8)
        run = peeling._Run(1, 8, [1], (lib, engine, vol))
        peeling._chains(engine, vol, _native.FixedStream(lib, [0.5 * (cut[4] + cut[5]), v]), run,
                        block_flags())
        assert (run.ls[0], run.V[0]) == (5, want)

    @pytest.mark.parametrize("path", ["compiled", "numpy"])
    def test_band_counts(self, path):
        # every chain-step from a perimeter >= L_SMALL is one kept band
        # proposal; read off an every-step finite ensemble from l0 = 1010
        n, chains = 60, 256
        with draws_on(path):
            out = simulate_ensemble("finite", LAW, 1010, n, chains, seed=12,
                                    checkpoints=range(1, n + 1))
        before = np.vstack([np.full(chains, 1010)] + [out[s][0] for s in range(1, n)])
        taken = int((before >= L_SMALL).sum())
        assert taken > 1000
        assert out.flags["band_accepts"] == taken
        assert out.flags["band_proposals"] >= out.flags["band_accepts"]
        assert out.flags["block_proposals"] == out.flags["block_accepts"] == 0


class TestGuides:
    """The guide cells of the window rows and the bracket guide of the
    bands' cuts only shorten a search: every draw is the one a search of
    the whole table gives, on the compiled path and the numpy one."""

    @staticmethod
    def _probes(rows, ls):
        """(rows, uniforms) over the rows ls of rows: targets on every cut
        below 1 and on every guide cell edge, and just below each (the
        uniform p aims just below l + p, and p / U_MAX at l + p)."""
        at, us = [], []
        for l in ls:
            p = np.union1d(rows.row(l) - l, np.arange(rows.cells) / rows.cells)
            u = np.concatenate([p[p > 0], p / _StackedCdf.U_MAX])
            us.append(u[u < 1])
            at.append(np.full(len(us[-1]), l))
        return np.concatenate(at), np.concatenate(us)

    @pytest.mark.parametrize("path", ["compiled", "numpy"])
    @pytest.mark.parametrize("mode", ["finite", "ibpm"])
    @pytest.mark.parametrize("key", ["quad", "tri"])
    def test_window_draws_are_the_searchs(self, key, mode, path):
        # window rows that start past column 0, targets on every cut and
        # guide cell edge and just below each: numpy's guided draw
        # (_StackedCdf.at) and the compiled one (a lockstep step; for ibpm
        # a round of block_rounds with B(l) = 1 everywhere, which takes it
        # with lockstep's code) give the value a search of the whole table
        # finds, from settled and open cells alike
        law = DEEP[key]
        engine = _ChainEngine(law, mode)
        with draws_on(path):
            engine.window.extend_rows(L_SMALL - 1)
        rows = engine.rows
        ls = [l for l in (*range(1, 24), 511, 512, 1000, 1001) if rows.row(l)[-1] > l]
        assert len(ls) > 12 and rows._starts[ls].all()
        ls, us = self._probes(rows, ls)
        t = ls + us * _StackedCdf.U_MAX
        want = rows._values_at(rows._flat.searchsorted(t, "right"), ls)
        settled = rows._guide[(t * rows.cells).astype(np.intp)] != rows._open
        assert settled.any() and not settled.all()
        if path == "numpy":
            assert rows.at(t).tobytes() == want.tobytes()
            return
        lib = compiled_library()
        vol = VolumeSampler(law, "expectation", engine=engine)
        engine.start(2)
        engine.blocks = np.ones_like(engine.blocks)
        run = peeling._Run(len(ls), 2, [1], (lib, engine, vol))
        run.ls[:] = ls
        peeling._chains(engine, vol, _native.FixedStream(lib, us), run, block_flags())
        assert (run.ls - ls).tobytes() == want.tobytes()

    @pytest.mark.parametrize("key", ["quad", "tri", "geo3"])
    def test_band_bracket_holds_every_cut(self, key):
        # at every cut and cell edge of the bands' bracket guide and just
        # below each, up to nu's total mass, searchsorted's index lies
        # between the bracket's entries at the target's cell (its last
        # cell, BAND_GUIDE, for a product that rounds up to it):
        # cuts[lo - 1] <= t < cuts[hi], so the guard is not needed there
        engine = _ChainEngine(DEEP[key], "finite")
        bands, cells = engine.bands, peeling.BAND_GUIDE
        edges = np.arange(cells + 1) / bands.scale
        t = np.concatenate([bands.cuts, np.nextafter(bands.cuts, 0), edges,
                            np.nextafter(edges, 0), engine.cs[-1:]])
        t = t[(t >= 0) & (t <= engine.cs[-1])]
        cell = np.minimum((t * bands.scale).astype(np.intp), cells)
        idx = bands.cuts.searchsorted(t, "right")
        assert ((bands.bracket[cell] <= idx) & (idx <= bands.bracket[cell + 1])).all()
        assert len(bands.bracket) == cells + 2 and bands.bracket[-1] == len(bands.cuts)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_band_draws_are_the_searchs(self, reverse):
        # one lockstep step of chains from L_SMALL on whose band uniforms
        # aim at every cut and cell edge of the bracket guide and just
        # below each, in either band: the compiled band search gives
        # numpy's searchsorted index, with the bracket as built and with it
        # reversed, where only its guard keeps the index right
        lib = compiled_library()
        law = DEEP["tri"]
        engine = _ChainEngine(law, "finite")
        engine.start(3000)
        bands = engine.bands
        share, t0_lo, dt_lo, _, t0_hi, dt_hi, _ = bands.arrays
        x = np.concatenate([bands.cuts, np.arange(peeling.BAND_GUIDE) / bands.scale])
        x = np.concatenate([x, np.nextafter(x, 0)])
        ls, us = [], []
        for l in (L_SMALL, 1501, 3000):
            u = np.concatenate([(x - t0_lo[l]) / dt_lo[l], (x - t0_hi[l]) / dt_hi[l]])
            us.append(u[(u >= 0) & (u < 1)])
            ls.append(np.full(len(us[-1]), l))
        ls, us = np.concatenate(ls), np.concatenate(us)
        assert len(us) > 1000
        if reverse:
            bands.bracket = (len(bands.cuts) - bands.bracket[::-1]).astype(np.int32)
            bands._packed = None
        stream = np.concatenate([us, np.arange(1, 98) * 0.6180339887498949 % 1.0])
        runs = []
        for compiled in (True, False):
            vol = VolumeSampler(law, "expectation", engine=engine)
            engine.start(3000)
            run = peeling._Run(len(ls), L_SMALL, [1], (lib, engine, vol) if compiled else None)
            run.ls[:] = ls
            rng = _native.FixedStream(lib, stream)
            peeling._chains(engine, vol, rng, run, block_flags())
            runs.append((run.ls.tobytes(), run.V.tobytes(), engine.flags, rng.used))
        assert runs[0] == runs[1]

    def test_compiled_guide_stays_in_its_rows(self):
        # fill_rows writes each row's guide cells into that row's own cells:
        # asked for rows 65..129 of quad's finite window, whose odd rows
        # have no weight, it leaves the cells on either side as they were
        # and writes the numpy fill's cells in between
        lib = compiled_library()
        window = peeling._Window(DEEP["quad"], 0)
        ref = window.new_rows()
        window._fill_numpy(ref, 130)
        assert ref.row(65)[-1] == 65
        cells, lo, hi = ref.cells, 65, 130
        guide = np.full((hi - lo + 2) * cells, 7, dtype=np.int32)
        cum = np.empty(ref._off[hi] - ref._off[lo])
        addr = _native.address
        lib.fill_rows(addr(window.h), addr(window.p), addr(window.ks), ref.width,
                      addr(ref._off), lo, hi, cells, ref._open, addr(guide[cells:]), addr(cum))
        assert (guide[:cells] == 7).all() and (guide[-cells:] == 7).all()
        assert guide[cells:-cells].tobytes() == ref._guide[lo * cells:hi * cells].tobytes()
        assert cum.tobytes() == ref._flat[ref._off[lo]:].tobytes()

    def test_self_check_fills_the_guide_without_the_loader(self, monkeypatch):
        # the self-check's compiled row fill writes the guide cells in the
        # same pass as the rows, never through the loader, and compares
        # them with the numpy fill's: a guide one cell off is refused
        lib = compiled_library()

        def loader():
            raise AssertionError("the self-check asked for the library")

        monkeypatch.setattr(_native, "library", loader)
        fills, fill = [], peeling._Window._fill_c

        def filling(window, lib, rows, end, **junk):
            fill(window, lib, rows, end, **junk)
            fills.append((rows.n, int((rows._guide != rows._open).sum())))

        monkeypatch.setattr(peeling._Window, "_fill_c", filling)
        assert peeling._same_lockstep(lib) is None
        assert [n for n, _ in fills] == [peeling.ROW_CHUNK, L_SMALL]
        assert 0 < fills[-1][1] < L_SMALL * peeling.ROW_GUIDE

        def skewed(window, lib, rows, end, **junk):
            fill(window, lib, rows, end, **junk)
            rows._guide[1:] = rows._guide[:-1].copy()

        monkeypatch.setattr(peeling._Window, "_fill_c", skewed)
        assert peeling._same_lockstep(lib) == "compiled row fill differs from the numpy fill"


class TestThreadGenerator:
    """Each thread draws its chains from one generator, re-keyed from
    (seed, chain_index) at the start of every run: each run's bytes are
    those of a run on a cold slot that draws from a new generator,
    ``_rng(seed, chain_index)``."""

    # simulate and simulate_ensemble by turns, both transforms and every
    # volume mode, on several seeds and chain indices up to 2^64 - 1
    RUNS = [
        (simulate, "ibpm", {"l0": 2, "n_steps": 400, "seed": 3}),
        (simulate_ensemble, "ibpm", {"l0": 2, "n_steps": 300, "n_chains": 64, "seed": 3}),
        (simulate, "finite", {"l0": 40, "n_steps": 400, "seed": 3, "chain_index": 5}),
        (simulate, "ibpm", {"l0": 2, "n_steps": 400, "seed": 3, "chain_index": 1,
                            "volume_mode": "expectation"}),
        (simulate_ensemble, "finite", {"l0": 40, "n_steps": 300, "n_chains": 32,
                                       "seed": 2**64 - 1, "volume_mode": "exact_small"}),
        (simulate, "ibpm", {"l0": 7, "n_steps": 400, "seed": 2**64 - 1,
                            "chain_index": 2**64 - 1, "volume_mode": "exact_small"}),
        (simulate_ensemble, "ibpm", {"l0": 2, "n_steps": 300, "n_chains": 64, "seed": 8,
                                     "checkpoints": [10, 100]}),
    ]

    @staticmethod
    def _digest(run):
        fn, mode, kw = run
        return TestCompiledDraws._digest([fn(mode, LAW, **kw)])

    def _cold(self, monkeypatch):
        """Each run's digest on a cold slot, drawn from a new generator."""
        digests = []
        with monkeypatch.context() as m:
            m.setattr(peeling, "_keyed", _rng)
            for run in self.RUNS:
                peeling._slot.clear()
                digests.append(self._digest(run))
        peeling._slot.clear()
        return digests

    @pytest.mark.parametrize("path", ["compiled", "numpy"])
    def test_runs_match_a_cold_slot(self, path, monkeypatch):
        # the runs in one thread, each after a run refused past its seed
        # check (l0 = 0 with a valid seed) and with the generator left
        # mid-buffer with a spare 32-bit word: the digests of cold runs,
        # all drawn from the thread's one generator
        with draws_on(path):
            cold = self._cold(monkeypatch)
            warm, gens = [], []
            for fn, mode, kw in self.RUNS:
                with pytest.raises(ValueError, match="initial perimeter"):
                    fn(mode, LAW, **{**kw, "l0": 0, "seed": 5})
                warm.append(self._digest((fn, mode, kw)))
                gens.append(peeling._slot.rng)
                gens[-1].random(1, dtype=np.float32)
        assert warm == cold
        assert all(gen is gens[0] for gen in gens)

    def test_rekeyed_state_is_a_new_generators(self):
        # from any state, re-keying gives a new generator's whole state
        for seed, chain_index in ((0, 0), (3, 1), (2**64 - 1, 2**64 - 1)):
            rng = peeling._keyed(seed, chain_index)
            rng.random(5, dtype=np.float32)
            rng = peeling._keyed(seed, chain_index)
            assert repr(rng.bit_generator.state) == repr(_rng(seed, chain_index).bit_generator.state)

    @pytest.mark.parametrize("path", ["compiled", "numpy"])
    def test_two_threads_at_once(self, path, monkeypatch):
        # the runs in two threads at once, in opposite orders: each
        # thread's digests are the sequential cold runs'
        with draws_on(path):
            cold = self._cold(monkeypatch)
            order = list(range(len(self.RUNS)))

            def runs(order):
                return [self._digest(self.RUNS[i]) for i in order]

            with concurrent.futures.ThreadPoolExecutor(2) as pool:
                forward, backward = pool.map(runs, [order, order[::-1]])
        assert forward == cold
        assert backward[::-1] == cold

    def test_a_thread_builds_one_generator(self, monkeypatch):
        # only a thread's first run builds a bit generator (whose seed
        # sequence it makes itself); _rng hands out a new one per call
        built = []
        for name in ("Philox", "SeedSequence"):
            def counted(*args, _name=name, _cls=getattr(np.random, name), **kwargs):
                built.append(_name)
                return _cls(*args, **kwargs)
            monkeypatch.setattr(np.random, name, counted)
        simulate("ibpm", LAW, n_steps=10, seed=1)
        assert built == ["Philox"]
        for seed in range(2, 5):
            simulate("ibpm", LAW, n_steps=10, seed=seed, chain_index=seed)
            simulate_ensemble("finite", LAW, 40, 10, 8, seed=seed)
            simulate_ensemble("ibpm", LAW, 2, 10, 8, seed=seed)
        assert built == ["Philox"]
        with concurrent.futures.ThreadPoolExecutor(1) as pool:
            pool.submit(simulate, "ibpm", LAW, n_steps=10).result()
        assert built == ["Philox"] * 2
        a, b = _rng(7), _rng(7)
        assert a is not b and built == ["Philox"] * 4
        assert a.random() == b.random()
        assert a.random() != _rng(7).random()
