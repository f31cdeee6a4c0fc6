import json
import math
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.special import zeta

from peelkit import _native, hfun, walk
from peelkit.criticality import solve_boltzmann
from peelkit.errors import InconsistentCriticalityError, RangeError
from peelkit.hfun import HCache
from peelkit.seriesutil import extrapolated_partial_sums, richardson_limit
from peelkit.walk import (
    complete_nu,
    disk_coefficient,
    expected_volume,
    harmonic_residual,
    kernel_R,
    kernel_R_bipartite_closed,
    symmetric_a_max,
    symmetric_family,
    symmetric_nu_closed_r1,
    symmetric_nu_table,
    symmetric_nu_value,
)
from peelkit.weights import WeightSequence, nu_from_q, preset


def quadrangulation_law(k_neg=512):
    res = preset("two_p_angulation", p=2)
    pos = nu_from_q(res.weights, res.constants["c_plus"], 1.0)
    return complete_nu(pos, k_neg=k_neg)


def quadrangulation_law_exact(k_neg=64):
    res = preset("two_p_angulation", p=2)
    # rational c is impossible here, so feed the exact dictionary directly
    from peelkit.weights import StepLawPositive

    pos = StepLawPositive(
        c_plus=float(res.constants["c_plus"]),
        r=1.0,
        nu={2: Fraction(2, 3)},
        nu_m2=Fraction(1, 4),
        exact=True,
        r_exact=Fraction(1),
    )
    return complete_nu(pos, k_neg=k_neg)


def triangulation_law(k_neg=512):
    res = preset("odd_angulation", p=1)
    pos = nu_from_q(res.weights, res.constants["c_plus"], res.constants["r"])
    return complete_nu(pos, k_neg=k_neg)


def geometric_law(H=3.0, k_neg=512):
    res = preset("geometric", H=H)
    pos = nu_from_q(res.weights, res.constants["c_plus"], res.constants["r"])
    return complete_nu(pos, k_neg=k_neg)


class TestSeriesUtil:
    def test_zeta_tail(self):
        # partial sums of l^(-3/2) extrapolate to zeta(3/2)
        ls = np.arange(1, 1 << 15, dtype=float)
        est, err = extrapolated_partial_sums(np.cumsum(ls**-1.5), 1.0, 1.0)
        assert est == pytest.approx(float(zeta(1.5)), abs=1e-10)
        assert err < 1e-8

    def test_richardson_exact_model(self):
        Ms = [100.0, 200.0, 400.0]
        Ss = [5.0 - 3.0 * M**-0.5 - 2.0 * M**-1.5 for M in Ms]
        assert richardson_limit(Ms, Ss, [0.5, 1.5]) == pytest.approx(5.0, abs=1e-12)


class TestKernel:
    def test_bipartite_value(self):
        cache = HCache(Fraction(1))
        assert kernel_R(1, 2, 2, cache) == Fraction(3, 8)
        assert kernel_R_bipartite_closed(2, 2) == Fraction(3, 8)

    def test_bipartite_closed_form_grid(self):
        cache = HCache(Fraction(1))
        for k2 in (2, 4, 6, 8):
            for m2 in (2, 4, 6):
                assert kernel_R(1, k2, m2, cache) == kernel_R_bipartite_closed(k2, m2)

    def test_large_k_limit(self):
        cache = HCache(0.5, mode="float")
        target = 1.5 * cache.value(2, 4)
        v200 = kernel_R(0.5, 200, 3, cache) / cache.value(-2, 200)
        v800 = kernel_R(0.5, 800, 3, cache) / cache.value(-2, 800)
        assert abs(v800 - target) < abs(v200 - target)
        assert v800 == pytest.approx(target, rel=3e-3)

    def test_exact_matches_float(self):
        ce = HCache(Fraction(1, 2))
        cf = HCache(0.5, mode="float")
        for k in (1, 2, 3, 5):
            for m in (1, 2, 4):
                assert float(kernel_R(None, k, m, ce)) == pytest.approx(
                    kernel_R(None, k, m, cf), rel=1e-12
                )

    def test_domain(self):
        with pytest.raises(ValueError):
            kernel_R(0.5, 0, 1)


class TestCompleteNu:
    def test_quadrangulation_negative_values(self):
        law = quadrangulation_law()
        assert law.nu(-4) == pytest.approx(1.0 / 24.0, rel=1e-13)
        for l in range(1, 21):
            closed = 4.0 ** (-l) / ((l + 1) * (2 * l - 1)) * math.comb(2 * l, l)
            assert float(law.nu(-2 * l)) == pytest.approx(closed, rel=1e-10)
            assert law.nu(-2 * l + 1) == 0.0

    def test_exact_mode(self):
        law = quadrangulation_law_exact()
        assert law.nu(-4) == Fraction(1, 24)
        assert law.nu(-2) == Fraction(1, 4)

    def test_constants(self):
        law = quadrangulation_law()
        assert law.L_nu == pytest.approx(4.0 / 3.0, rel=1e-14)
        assert law.B_nu == pytest.approx(1.0 / 8.0, rel=1e-13)

    def test_uipt_constant(self):
        law = triangulation_law()
        assert law.L_nu == pytest.approx(0.5 * (1 + 1 / math.sqrt(3)), rel=1e-10)

    def test_geometric_constants_and_consistency(self):
        law = geometric_law()
        assert law.L_nu == pytest.approx(5.0, rel=1e-12)
        # the kernel reproduces the q-side values it was not given
        assert abs(law.residuals["nu_m1_kernel"]) < 1e-12
        assert abs(law.residuals["nu_m2_kernel"]) < 1e-12

    def test_non_critical_input_refused(self):
        q = WeightSequence({4: Fraction(1, 20)})
        pos = nu_from_q(q, 3.0, 1.0)
        with pytest.raises(InconsistentCriticalityError):
            complete_nu(pos)

    def test_centered_within_truncation(self):
        for k_neg in (512, 8192):
            law = quadrangulation_law(k_neg=k_neg)
            bound = 2.05 * law.tail_const / math.sqrt(k_neg)
            assert abs(law.mean()) <= bound
        small = quadrangulation_law(k_neg=8192).mean()
        big = quadrangulation_law(k_neg=512).mean()
        assert abs(small) < abs(big)

    def test_mass_deficit_matches_estimate(self):
        law = quadrangulation_law()
        assert 0.0 <= 1.0 - law.total_mass() <= 2.5 * law.trunc_neg

    @pytest.mark.parametrize("critical", [True, False])
    def test_correlations_match_double_loop(self, critical):
        # nu(-k) = sum_p A[p] G[k+p] (minus G[k] when not critical), with
        # A[p] = sum_m nu(m) h(o, m-p) and G[i] = h(g, i-1) + r h(g, i-2)
        if critical:
            res = preset("geometric", H=3.0)
            pos = nu_from_q(res.weights, res.constants["c_plus"],
                            res.constants["r"])
            o, g = 1, -2
        else:
            q = WeightSequence({4: Fraction(1, 20)})
            cd = solve_boltzmann(q)
            assert cd.classification == "subcritical"
            pos = nu_from_q(q, cd.c_plus, cd.r)
            o, g = 0, -1
        k_neg = 256
        law = complete_nu(pos, k_neg=k_neg, critical=critical)
        cache = HCache(pos.r, mode="float")
        h = cache.value
        ms = [m for m in pos.nu if m >= 0]
        A = [sum(float(pos.nu[m]) * h(o, m - p) for m in ms)
             for p in range(max(ms) + 1)]
        for k in range(3, k_neg + 1):
            total = 0.0
            for p, a in enumerate(A):
                total += a * (h(g, k + p - 1) + pos.r * h(g, k + p - 2))
            if not critical:
                total -= h(g, k - 1) + pos.r * h(g, k - 2)
            if abs(total) < 1e-14:  # parity zeros are snapped
                assert abs(law.nu(-k)) < 1e-14
            else:
                assert law.nu(-k) == pytest.approx(total, rel=1e-13, abs=0)


class TestHarmonicity:
    @pytest.mark.parametrize("make", [quadrangulation_law, triangulation_law,
                                      geometric_law])
    def test_two_sided(self, make):
        law = make()
        for k in range(1, 31):
            assert harmonic_residual(law, 0, k) <= 1e-8
            assert harmonic_residual(law, 1, k) <= 1e-8


class TestTails:
    @pytest.mark.parametrize("make", [quadrangulation_law, triangulation_law])
    def test_negative_tail_constant(self, make):
        law = make()
        devs = {}
        for k in (100, 400):
            avg = 0.5 * (float(law.nu(-k)) + float(law.nu(-k - 1)))
            devs[k] = abs(k**2.5 * avg / law.tail_const - 1.0)
        assert devs[400] <= 0.05
        assert devs[400] < devs[100]

    def test_char_function_expansion(self):
        law = quadrangulation_law(k_neg=32768)
        thetas = np.logspace(-3, -1, 21)
        phi = law.char_function(thetas)
        lead = math.sqrt((1 + law.r) / 2.0) * law.L_nu
        pred = 1 - lead * np.abs(thetas) ** 0.5 * (np.abs(thetas) - 1j * thetas)
        C = np.abs(phi - pred) / np.abs(thetas) ** 2.5
        assert C.max() <= 1.2
        assert C.max() / max(C.min(), 1e-30) <= 1.5


class TestDiskCoefficients:
    def test_degree_zero(self):
        law = quadrangulation_law()
        assert disk_coefficient(law, 0) == pytest.approx(1.0, rel=1e-14)

    def test_quadrangulation_degree_two(self):
        law = quadrangulation_law()
        assert disk_coefficient(law, 2) == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_exact_path(self):
        law = quadrangulation_law_exact()
        assert disk_coefficient(law, 2) == Fraction(4, 3)

    def test_range_error(self):
        law = quadrangulation_law(k_neg=16)
        with pytest.raises(RangeError):
            disk_coefficient(law, 30)


class TestExpectedVolume:
    def test_quadrangulation_degree_two(self):
        law = quadrangulation_law()
        assert expected_volume(law, 2) == pytest.approx(3.0, rel=1e-13)

    def test_large_degree_volume_constant(self):
        law = quadrangulation_law()
        ratios = {}
        for l in (200, 510):
            ratios[l] = expected_volume(law, l) / l**2 / law.B_nu
        assert 0.98 <= ratios[510] <= 1.02
        assert abs(ratios[510] - 1) < abs(ratios[200] - 1)

    def test_parity_degenerate(self):
        law = quadrangulation_law()
        with pytest.raises(RangeError):
            expected_volume(law, 1)


class TestSymmetricFamily:
    def test_r1_quarter_pi_values(self):
        law = symmetric_family(1.0, math.pi / 4, k_pos=64)
        for k in range(2, 21, 2):
            assert float(law.nu(k)) == pytest.approx(1.0 / (k * k - 1), abs=1e-10)
        for k in range(1, 21, 2):
            assert law.nu(k) == 0.0
        assert law.c_plus == pytest.approx(math.sqrt(6.0), rel=1e-12)

    def test_quadrature_matches_closed_form(self):
        for k in range(0, 16):
            assert symmetric_nu_value(1.0, math.pi / 4, k) == pytest.approx(
                symmetric_nu_closed_r1(math.pi / 4, k), abs=1e-12
            )

    def test_recovered_weights(self):
        q = preset("symmetric_critical", r=1.0, a=math.pi / 4).weights
        for k in range(2, 7):
            target = 6.0 ** (1 - k) / ((2 * k - 2) ** 2 - 1)
            assert q.value(2 * k) == pytest.approx(target, rel=1e-10)

    def test_r0_probability_law(self):
        law = symmetric_family(0.0, math.pi / 8, k_pos=256)
        assert law.total_mass() == pytest.approx(1.0, abs=5e-3)
        assert np.max(np.abs(law.probs - law.probs[::-1])) == 0.0
        assert abs(law.margin) <= 1e-8

    def test_harmonicity(self):
        law = symmetric_family(1.0, math.pi / 4, k_pos=512)
        for k in range(1, 11):
            assert harmonic_residual(law, 1, k) <= 1e-8
            assert harmonic_residual(law, 0, k) <= 1e-8

    def test_amplitude_domain(self):
        with pytest.raises(ValueError):
            symmetric_family(1.0, 1.0)
        with pytest.raises(ValueError):
            symmetric_family(0.5, symmetric_a_max(0.5) * 1.01)

    def test_a_max_cases(self):
        assert symmetric_a_max(1.0) == math.pi / 4
        assert symmetric_a_max(0.0) == math.pi / 4
        assert 0 < symmetric_a_max(-0.5) < symmetric_a_max(0.5)

    @pytest.mark.parametrize("r, a, margin, res1, res2", [
        (1.0, math.pi / 4, 2.5542901127550977e-12, 0.0, 1.2212453270876722e-15),
        (0.5, 0.5, 1.3860024239420454e-12, 3.885780586188048e-16,
         3.885780586188048e-16),
        (-0.5, 0.3, -3.661115854924901e-11, 9.547918011776346e-15,
         9.547918011776346e-15),
    ])
    def test_margin_and_residuals_pinned(self, r, a, margin, res1, res2):
        # one tail fit serves the margin and both residuals; pinned from
        # the family when each sum fitted its own, bit for bit
        law = symmetric_family(r, a)
        assert (law.margin, law.residuals["harmonic_h0_k1"],
                law.residuals["harmonic_h0_k2"]) == (margin, res1, res2)
        assert harmonic_residual(law, 0, 2) == res2

    def test_heavy_tail_exponent_diagnostic(self):
        # exploratory: survival function of the positive side has log-log
        # slope close to -1 (Cauchy-type tail); stay well inside the
        # materialized range so truncation does not bias the fit
        law = symmetric_family(1.0, math.pi / 4, k_pos=8192)
        ks = np.array([32, 64, 128, 256, 512])
        surv = np.array([law.probs[law.k_neg + k :].sum() for k in ks])
        slope = np.polyfit(np.log(ks), np.log(surv), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.1)


@pytest.fixture
def empty_store():
    """Every float table store emptied before the test and after it: the
    test sees only the tables it grows, and no whole-array reference's
    table outlives it."""
    hfun._shared_float_cache.cache_clear()
    yield
    hfun._shared_float_cache.cache_clear()


def _whole_lattice_sums(law, pairs):
    """[sum_{l >= 1} h(o, l + k) nu(l) for (o, k) in pairs] of a
    heavy-tailed law the way the streamed pass replaced: h from
    `HCache.array` to 2^18 + 32, the model terms over the whole lattice
    below 2^18, one np.cumsum over all of them, then
    `extrapolated_partial_sums`."""
    start, lattice, c2, c4 = walk._heavy_tail(law)
    K = law.k_pos
    nu = law.probs[law.k_neg + 1 : law.k_neg + K + 1]
    l = np.arange(start, 1 << 18, lattice, dtype=float)
    model = np.power(l, -2.0)
    model *= c2
    tail4 = np.power(l, -4.0, out=l)
    tail4 *= c4
    model += tail4
    hs = {o: HCache(law.r, mode="float").array(o, (1 << 18) + 32)
          for o, _ in pairs}
    out = []
    for o, k in pairs:
        h = hs[o]
        direct = float(np.add.reduce(h[1 + k : K + 1 + k] * nu))
        terms = h[start + k :: lattice][: len(model)] * model
        rest, _ = extrapolated_partial_sums(np.cumsum(terms), float(start),
                                            float(lattice))
        out.append(direct + rest)
    return out


class TestHeavyTailSums:
    @pytest.mark.parametrize("r", [1.0, 0.9, 0.5, 0.0, -0.5])
    def test_streamed_sums_bit_identical(self, r, empty_store):
        # orders 0 and 1 at shifts 0..31, all in one streamed pass and a
        # few one at a time, against the whole-array reference, bit for bit
        pairs = [(o, k) for o in (0, 1) for k in range(32)]
        for k_pos in (64, 256, 512):
            law = symmetric_family(r, symmetric_a_max(r) / 2, k_pos=k_pos)
            tail = walk._heavy_tail(law)
            streamed = walk._heavy_positive_sums(law, tail, pairs)
            ref = _whole_lattice_sums(law, pairs)
            assert [x.hex() for x in streamed] == [x.hex() for x in ref], k_pos
            for pair in ((0, 0), (1, 1), (0, 31)):
                one, = walk._heavy_positive_sums(law, tail, [pair])
                assert one.hex() == ref[pairs.index(pair)].hex()

    def test_family_sums_pinned(self):
        # the margin and both residuals of the r = 1 family, read from the
        # whole-table sums before the streamed pass
        law = symmetric_family(1.0, math.pi / 4)
        assert (law.margin.hex(), law.residuals["harmonic_h0_k1"].hex(),
                law.residuals["harmonic_h0_k2"].hex()) == (
            "0x1.677c000000000p-39", "0x0.0p+0", "0x1.6000000000000p-50")

    def test_memory_and_store(self, empty_store):
        # the family and criterion 10's 60 residuals hold no table past the
        # law's range: the whole-table sums peaked at 8.0 MB with 4.0 MB
        # kept, in tables of 262,208 and 262,209 entries
        if _native.library()[0] is None:
            pytest.skip("the compiled loops' memory: the Python twins build "
                        "a list per 4096 entries, and under tracemalloc "
                        "they take minutes")
        walk.symmetric_family(0.0, math.pi / 8, k_pos=64)   # loads, imports
        tracemalloc.start()
        try:
            law = symmetric_family(1.0, math.pi / 4, k_pos=512)
            worst = max(harmonic_residual(law, order, k)
                        for k in range(1, 31) for order in (0, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert worst.hex() == "0x1.7cd0000000000p-39"
        assert max(map(len, hfun.shared_cache(1.0)._tables.values())) < 4096


def _nu_mpmath(mpmath, r, a, k):
    """nu(k) = (1/pi) int_0^pi phi(theta) cos(k theta) dtheta at 30 digits.

    Gauss-Legendre on pieces of at most 32 periods of cos(k theta), with
    breakpoints geometrically close to theta = 0 and theta = pi, where
    s(theta) nearly vanishes as r -> -1 and r -> 1.
    """
    with mpmath.workdps(30):
        r, a, pi = mpmath.mpf(r), mpmath.mpf(a), mpmath.pi

        def phi_cos(t):
            s = mpmath.sqrt(1 + r * r + 2 * r * mpmath.cos(t))
            return (1 - 2 * a * s * mpmath.sin(t / 2)) * mpmath.cos(k * t)

        pieces = max(1, k // 32)
        pts = {pi * i / pieces for i in range(pieces + 1)}
        for e in range(1, 8):
            pts |= {pi * mpmath.mpf(10) ** -e, pi * (1 - mpmath.mpf(10) ** -e)}
        val, err = mpmath.quad(phi_cos, sorted(pts), method="gauss-legendre",
                               error=True)
        assert err < 1e-22
        return float(val / pi)


class TestSymmetricTable:
    # one absolute tolerance for every (r, k), fixed before the comparison
    ATOL = 2e-15

    @pytest.mark.parametrize("r", [-0.9999, -0.5, 0.0, 0.3, 0.99, 0.9999, 1.0])
    def test_matches_mpmath(self, r):
        mpmath = pytest.importorskip("mpmath")
        a = symmetric_a_max(r)
        ks = [0, 1, 2, 3, 10, 100, 1000]
        table = symmetric_nu_table(r, a, max(ks))
        assert table.shape == (max(ks) + 1,) and table.dtype == np.float64
        assert not table.flags.writeable
        for k in ks:
            assert abs(table[k] - _nu_mpmath(mpmath, r, a, k)) <= self.ATOL, k

    def test_r0_closed_form(self):
        a = 0.7
        table = symmetric_nu_table(0.0, a, 4096)
        ks = np.arange(1, 4097, dtype=float)
        ref = 4.0 * a / (math.pi * (4.0 * ks * ks - 1.0))
        np.testing.assert_allclose(table[1:], ref, rtol=1e-15, atol=0)

    def test_ratios_beyond_the_fft_cap_raise(self):
        for r in (0.99999, -0.99999, 1.0 - 1e-9):
            with pytest.raises(ValueError, match="supported for"):
                symmetric_nu_table(r, 0.5, 10)
        for r in (-1.0, 1.5):
            with pytest.raises(ValueError):
                symmetric_nu_table(r, 0.5, 10)

    def test_family_and_value_read_the_table(self):
        r, a = 0.6, 0.5
        table = symmetric_nu_table(r, a, 300)
        law = symmetric_family(r, a, k_pos=300)
        assert np.array_equal(law.probs[law.k_neg:], table)
        assert np.array_equal(law.probs[: law.k_neg + 1], table[::-1])
        assert symmetric_nu_value(r, a, -7) == table[7]
        q = preset("symmetric_critical", r=r, a=a).weights
        c = math.sqrt(2.0 / table[2])
        assert c == law.c_plus
        for k in (1, 2, 3, 50, 200, 302):
            assert q.value(k) == table[abs(k - 2)] * c ** (2 - k), k


def test_symmetric_family_runs_without_scipy(tmp_path):
    import peelkit

    script = textwrap.dedent(f"""
        import json, math, sys
        sys.path.insert(0, {str(Path(peelkit.__file__).parents[1])!r})
        from peelkit import cli
        from peelkit.criticality import miermont_check, solve_boltzmann
        from peelkit.walk import symmetric_family
        from peelkit.weights import preset

        q = preset("symmetric_critical", r=1.0, a=math.pi / 4).weights
        cd = solve_boltzmann(q)
        ok = miermont_check(q, cd).ok
        law = symmetric_family(1.0, math.pi / 4, k_pos=2**14)
        rc = cli.main(["analyze", "--preset", "symmetric_critical", "--r", "1",
                       "--a", repr(math.pi / 4), "--out", sys.argv[1]])
        print(json.dumps([ok, law.k_pos, rc, "scipy" in sys.modules]))
    """)
    proc = subprocess.run([sys.executable, "-c", script,
                           str(tmp_path / "analyze.json")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == [
        True, 2**14, 0, False]


class TestExport:
    def test_csv_round_trip(self, tmp_path):
        law = quadrangulation_law(k_neg=32)
        path = tmp_path / "law.csv"
        law.to_csv(path)
        lines = path.read_text().splitlines()
        meta = [ln for ln in lines if ln.startswith("#")]
        assert any("L_nu" in ln for ln in meta)
        rows = [ln.split(",") for ln in lines if not ln.startswith("#")][1:]
        ks = np.array([int(k) for k, _ in rows])
        ps = np.array([float(p) for _, p in rows])
        assert ks[0] == -32 and ks[-1] == law.k_pos
        np.testing.assert_allclose(ps, law.probs, rtol=0, atol=0)

    def test_digest_stable(self):
        a = quadrangulation_law(k_neg=32)
        b = quadrangulation_law(k_neg=32)
        assert a.digest() == b.digest()
