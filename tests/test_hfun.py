import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from peelkit.errors import UnsupportedOrderError
from peelkit.hfun import HCache, h_asymptote, h_batch, h_eval

from series_oracle import h_oracle


def central_binomial(n):
    return math.comb(2 * n, n)


class TestEval:
    def test_first_values_closed_form(self):
        # h(0, 1) = (1-r)/2 and h(0, 2) = (3 - 2r + 3r^2)/8
        c = HCache(Fraction(1, 2))
        assert h_eval(c, 0, 1) == Fraction(1, 4)
        c0 = HCache(Fraction(0))
        assert h_eval(c0, 0, 2) == Fraction(3, 8)

    def test_bipartite_order_one(self):
        # at r = 1: h(1, 2l) = 2l * 4^(-l) * C(2l, l)
        c = HCache(1)
        assert h_eval(c, 1, 4) == Fraction(3, 2)
        for l in range(1, 8):
            expect = Fraction(2 * l * central_binomial(l), 4**l)
            assert h_eval(c, 1, 2 * l) == expect
            assert h_eval(c, 1, 2 * l - 1) == expect

    def test_value_at_order_is_one_floats(self):
        c = HCache(-0.4, mode="float")
        assert h_eval(c, 3, 3) == pytest.approx(1.0, abs=0)

    def test_vanishes_below_order(self):
        c = HCache(Fraction(1, 3))
        for k in range(-4, 5):
            assert h_eval(c, k, k - 1) == 0
            assert h_eval(c, k, k - 3) == 0
            assert h_eval(c, k, k) == 1

    @pytest.mark.parametrize("k", range(-4, 5))
    @pytest.mark.parametrize("r", [Fraction(1, 2), Fraction(-2, 5), 1])
    def test_against_series_oracle(self, k, r):
        c = HCache(r)
        for l in range(k, k + 12):
            assert h_eval(c, k, l) == h_oracle(k, l, r)

    def test_order_2_spec_point(self):
        # independent expansion of (1-u)^(-5/2) (1+u/2)^(-1/2) to u^3
        c = HCache(Fraction(1, 2))
        assert h_eval(c, 2, 5) == h_oracle(2, 5, Fraction(1, 2))
        assert h_eval(c, 2, 5) == Fraction(725, 128)

    def test_unsupported_order(self):
        c = HCache(1)
        with pytest.raises(UnsupportedOrderError):
            h_eval(c, 5, 10)
        with pytest.raises(UnsupportedOrderError):
            h_eval(c, -5, 10)


class TestBatch:
    def test_bipartite_odd_zeros(self):
        c = HCache(1)
        assert h_batch(c, 0, 2) == [1, 0, Fraction(1, 2)]

    def test_trivial_prefix(self):
        c = HCache(0.123, mode="float")
        assert list(h_batch(c, 1, 1)) == [1.0]

    def test_matches_h_eval(self):
        c = HCache(Fraction(1, 3))
        vals = h_batch(c, 0, 4)
        for l in range(5):
            assert vals[l] == h_eval(c, 0, l)


class TestRecurrences:
    @pytest.mark.parametrize("r", [Fraction(1, 2), Fraction(-1, 3), 1])
    def test_difference_relation_exact(self, r):
        c = HCache(r)
        for k in range(-4, 4):
            for l in range(k - 1, k + 20):
                assert h_eval(c, k, l) == h_eval(c, k + 1, l + 1) - h_eval(c, k + 1, l)

    @pytest.mark.parametrize("r", [0.37, -0.62, 1.0])
    def test_difference_relation_float(self, r):
        c = HCache(r, mode="float")
        for k in range(-4, 4):
            for l in range(max(k, 1), k + 40):
                lhs = h_eval(c, k, l)
                rhs = h_eval(c, k + 1, l + 1) - h_eval(c, k + 1, l)
                assert rhs == pytest.approx(lhs, rel=1e-11, abs=1e-13)

    def test_forward_sum_relation(self):
        c = HCache(Fraction(2, 7))
        for k in range(0, 4):
            for l in range(k + 1, k + 15):
                total = sum(h_eval(c, k, p) for p in range(k, l))
                assert h_eval(c, k + 1, l) == total

    def test_float_agrees_with_exact(self):
        for r in [Fraction(1, 2), Fraction(-3, 7), Fraction(1)]:
            exact = HCache(r)
            approx = HCache(float(r), mode="float")
            for k in range(-4, 5):
                for l in range(k, k + 60):
                    e = exact.value(k, l)
                    f = approx.value(k, l)
                    if e == 0:
                        assert abs(f) < 1e-12
                    else:
                        assert abs(f - float(e)) <= 1e-12 * abs(float(e)) + 1e-15


def reference_float_table(r, k, size):
    """Plain loop over the three-term recurrence of the order-k table."""
    out = [1.0, (1.0 - r) * 0.5 + k]
    for j in range(1, size - 1):
        nxt = ((1.0 - r) * (j + 0.5) + k) * out[j] + r * (j + k) * out[j - 1]
        out.append(nxt / (j + 1))
    return out


class TestFloatRecurrence:
    @pytest.mark.parametrize("r", [0.37, 1.0, -0.62, 0.0])
    def test_bit_identical_to_plain_loop(self, r):
        # growth by doubling and by large requests, across chunk boundaries
        for k in range(-4, 5):
            c = HCache(r, mode="float")
            for l_max in (10, 100, 5_000, 9_500):
                tab = c.table(k, l_max)
                assert len(tab) > l_max - k
                assert tab.tolist() == reference_float_table(r, k, len(tab))


_ratios = st.builds(
    lambda den, num: Fraction(num % (2 * den) - den + 1, den),
    st.integers(1, 60), st.integers(0, 10**6))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(_ratios, st.integers(-4, 4))
def test_float_matches_exact_over_random_ratios(r, k):
    assert -1 < r <= 1
    exact = HCache(r)
    approx = HCache(float(r), mode="float")
    for l in range(k, k + 40):
        e = float(exact.value(k, l))
        assert abs(approx.value(k, l) - e) <= 1e-12 * abs(e) + 1e-15


class TestStructure:
    def test_bipartite_order_zero(self):
        c = HCache(1)
        for l in range(0, 10):
            assert h_eval(c, 0, 2 * l) == Fraction(central_binomial(l), 4**l)
            assert h_eval(c, 0, 2 * l + 1) == 0

    def test_polynomial_degree_in_r(self):
        # h(0, 3) is a cubic in r: Lagrange interpolation through three
        # nodes must fail, four must succeed.
        nodes4 = [Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(1)]
        vals4 = [h_eval(HCache(r), 0, 3) for r in nodes4]
        target_r = Fraction(1, 3)
        target = h_eval(HCache(target_r), 0, 3)

        def lagrange(nodes, vals, x):
            total = Fraction(0)
            for i, (xi, yi) in enumerate(zip(nodes, vals)):
                w = Fraction(1)
                for j, xj in enumerate(nodes):
                    if j != i:
                        w *= (x - xj) / (xi - xj)
                total += yi * w
            return total

        assert lagrange(nodes4, vals4, target_r) == target
        assert lagrange(nodes4[:3], vals4[:3], target_r) != target

    @pytest.mark.parametrize("r", [Fraction(1, 2), Fraction(-1, 4), 1])
    def test_parity_monotone_decrease(self, r):
        c = HCache(r)
        for l in range(0, 30):
            assert h_eval(c, 0, l + 2) <= h_eval(c, 0, l)

    def test_array_layout(self):
        c = HCache(0.5, mode="float")
        arr = c.array(-2, 10)
        assert arr.shape == (11,)
        assert arr[0] == pytest.approx(h_eval(c, -2, 0))
        c2 = HCache(0.5, mode="float")
        arr2 = c2.array(2, 6)
        assert arr2[0] == arr2[1] == 0.0
        assert arr2[2] == 1.0


class TestAsymptote:
    def test_order_zero_r_zero(self):
        c = HCache(0.0, mode="float")
        ratio = h_eval(c, 0, 400) / h_asymptote(0, 400, 0.0)
        assert 0.995 <= ratio <= 1.005

    def test_order_one_bipartite_parity_average(self):
        c = HCache(1.0, mode="float")
        avg = 0.5 * (h_eval(c, 1, 400) + h_eval(c, 1, 401))
        ratio = avg / h_asymptote(1, 400, 1.0)
        assert 0.995 <= ratio <= 1.005

    def test_negative_order(self):
        c = HCache(0.5, mode="float")
        ratio = h_eval(c, -2, 400) / h_asymptote(-2, 400, 0.5)
        assert 0.99 <= ratio <= 1.01

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            h_asymptote(0, 10, -1.0)
        with pytest.raises(ValueError):
            h_asymptote(2, 1, 0.5)


class TestFreeze:
    def test_freeze_blocks_growth(self):
        from peelkit.errors import RangeError

        c = HCache(Fraction(1, 2))
        c.batch(0, 10)
        c.freeze()
        assert c.value(0, 10) == h_oracle(0, 10, Fraction(1, 2))
        with pytest.raises(RangeError):
            c.value(0, 50)

    def test_l_max_tracking(self):
        c = HCache(1)
        assert c.l_max == -1
        c.batch(0, 7)
        assert c.l_max >= 7
