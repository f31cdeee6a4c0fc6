"""The two-parameter special function family h(k, l) at ratio r.

h(k, l) is the coefficient of u^(l-k) in (1-u)^(-(k+1/2)) (1+r*u)^(-1/2),
for integer order k and integer argument l.  It vanishes for l < k and
equals 1 at l = k.  Consecutive orders are linked by

    h(k, l) = h(k+1, l+1) - h(k+1, l),
    h(k+1, l) = sum_{p=k}^{l-1} h(k, p)          (k >= 0),

and for large l (r < 1; parity-averaged at r = 1)

    h(k, l) ~ l^(k-1/2) / (Gamma(k+1/2) * sqrt(1+r)).

Two evaluation modes back every cache:

* exact: arbitrary-precision rationals; order 0 from the binomial
  convolution h(0, l) = 4^(-l) * sum_j C(2j,j) C(2(l-j),l-j) (-r)^(l-j),
  positive orders by cumulative sums, negative orders by downward
  differencing.  This is the package's internal ground truth.
* float: double precision via the three-term recurrence satisfied by the
  generating-function coefficients of each order,

      (j+1) a_{j+1} = [(1-r)(j+1/2) + k] a_j + r (j+k) a_{j-1},

  with a_j = h(k, k+j).  The recurrence tracks the dominant solution, so
  it stays relatively accurate even deep into the l^(k-1/2) decay where
  repeated differencing of order 0 would cancel catastrophically.  Its
  coefficients are precomputed with numpy a chunk at a time and the
  recurrence runs over the chunk's Python floats; growth resumes from the
  last two entries, so a table is bit-identical whatever its growth
  history.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import RangeError, UnsupportedOrderError

ORDER_MIN = -4
ORDER_MAX = 4

# Orders above 2 are materialized by summing the order below, orders below
# -2 by differencing the order above; the recurrence covers each directly
# in float mode.

# float tables: recurrence coefficients are precomputed this many at a time
_CHUNK = 4096


def _check_order(k):
    if not (ORDER_MIN <= k <= ORDER_MAX):
        raise UnsupportedOrderError(
            f"order {k} outside supported range [{ORDER_MIN}, {ORDER_MAX}]"
        )


def _central_binomials(n):
    """C(0,0), C(2,1), ..., C(2n,n) as exact integers."""
    out = [1]
    for j in range(1, n + 1):
        out.append(out[-1] * (2 * j) * (2 * j - 1) // (j * j))
    return out


class HCache:
    """Memoized values of h(k, l) for a fixed ratio r.

    Exact mode requires a rational r and stores Fractions; float mode
    stores numpy arrays.  Tables grow on demand until :meth:`freeze` is
    called, after which out-of-range requests raise RangeError and
    concurrent reads are safe.
    """

    def __init__(self, r, mode=None):
        if mode is None:
            mode = "exact" if isinstance(r, (int, Fraction)) else "float"
        if mode not in ("exact", "float"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "exact":
            if not isinstance(r, (int, Fraction)):
                raise ValueError("exact mode needs a rational ratio")
            r = Fraction(r)
            if not (-1 < r <= 1):
                raise ValueError("ratio must lie in (-1, 1]")
            self.r = r
        else:
            rf = float(r)
            if not (-1.0 < rf <= 1.0):
                raise ValueError("ratio must lie in (-1, 1]")
            self.r = rf
        self.mode = mode
        self._frozen = False
        # table[k] holds h(k, k+j) for j = 0..len-1
        self._tables = {}

    # -- population ------------------------------------------------------

    def _grow_exact_base(self, n):
        """Extend the order-0 table to length >= n+1 via the convolution."""
        tab = self._tables.get(0, [])
        if len(tab) > n:
            return tab
        r = self.r
        cb = _central_binomials(n)
        start = len(tab)
        for l in range(start, n + 1):
            acc = Fraction(0)
            for j in range(l + 1):
                term = cb[j] * cb[l - j] * (-r) ** (l - j)
                acc += term
            tab.append(acc / Fraction(4**l))
        self._tables[0] = tab
        return tab

    def _grow_exact(self, k, n):
        """Extend the order-k exact table to j-length >= n+1."""
        if k == 0:
            return self._grow_exact_base(n)
        if k > 0:
            # h(k, l) = sum_{p=k-1}^{l-1} h(k-1, p): cumulative sums of the
            # order below, which needs arguments up to l-1 = k+n-1.
            below = self._grow_exact(k - 1, n + 1)  # j up to (k-1)+n+1... safe
            tab = self._tables.get(k, [])
            if len(tab) > n:
                return tab
            if not tab:
                tab = [Fraction(1)]
            # h(k, k+j) = h(k, k+j-1) + h(k-1, k+j-1); the second index in
            # below-coordinates is (k+j-1) - (k-1) = j.
            for j in range(len(tab), n + 1):
                tab.append(tab[j - 1] + below[j])
            self._tables[k] = tab
            return tab
        # k < 0: h(k, k+j) = h(k+1, k+j+1) - h(k+1, k+j), which in the
        # order-(k+1) table coordinates is above[j] - above[j-1].
        above = self._grow_exact(k + 1, n + 1)
        tab = self._tables.get(k, [])
        if len(tab) > n:
            return tab
        for j in range(len(tab), n + 1):
            prev = above[j - 1] if j >= 1 else Fraction(0)
            tab.append(above[j] - prev)
        self._tables[k] = tab
        return tab

    def _grow_float(self, k, n):
        """Extend the order-k float table to length >= n+1; a table that
        exists grows to at least twice its length.

        The coefficients of the recurrence are computed with numpy a chunk
        at a time; the recurrence itself runs over the chunk's Python
        floats, resuming from the last two entries of a shorter table, so
        growth never recomputes a prefix and every entry is the same double
        whatever the growth history.
        """
        tab = self._tables.get(k)
        if tab is not None and len(tab) > n:
            return tab
        size = max(n + 1, 16)
        if tab is not None:
            size = max(size, 2 * len(tab))
        r = float(self.r)
        one_m_r = 1.0 - r
        out = np.empty(size, dtype=np.float64)
        if tab is None:
            out[0] = 1.0
            out[1] = one_m_r * 0.5 + k
            start = 1
        else:
            start = len(tab) - 1
            out[: start + 1] = tab
        prev2 = float(out[start - 1])
        prev1 = float(out[start])
        for lo in range(start, size - 1, _CHUNK):
            j = np.arange(lo, min(lo + _CHUNK, size - 1))
            vals = []
            for a, b, d in zip((one_m_r * (j + 0.5) + k).tolist(),
                               (r * (j + k)).tolist(), (j + 1).tolist()):
                prev2, prev1 = prev1, (a * prev1 + b * prev2) / d
                vals.append(prev1)
            out[lo + 1 : lo + 1 + len(vals)] = vals
        self._tables[k] = out
        return out

    def _ensure(self, k, l):
        _check_order(k)
        n = l - k
        if n < 0:
            return None
        tab = self._tables.get(k)
        if tab is not None and len(tab) > n:
            return tab
        if self._frozen:
            raise RangeError(
                f"h({k}, {l}) beyond the frozen range of this cache"
            )
        if self.mode == "exact":
            return self._grow_exact(k, n)
        return self._grow_float(k, n)

    # -- queries ----------------------------------------------------------

    def value(self, k, l):
        """h(k, l); zero below the order, exact or float per the cache mode."""
        tab = self._ensure(k, l)
        if tab is None:
            return Fraction(0) if self.mode == "exact" else 0.0
        return tab[l - k]

    def batch(self, k, l_max):
        """Values h(k, l) for l = k..l_max in one pass."""
        if l_max < k:
            raise ValueError("l_max must be >= k")
        tab = self._ensure(k, l_max)
        n = l_max - k
        if self.mode == "exact":
            return list(tab[: n + 1])
        return tab[: n + 1].copy()

    def table(self, k, l_max):
        """The cache's own table T, T[j] = h(k, k+j), covering l = k..l_max.

        No copy is made: T may be longer than asked for, grows into a new
        object on a later request, and must not be written to.
        """
        if l_max < k:
            raise ValueError("l_max must be >= k")
        return self._ensure(k, l_max)

    def array(self, k, l_max):
        """Float array A with A[l] = h(k, l) for l = 0..l_max (zeros below k)."""
        out = np.zeros(l_max + 1, dtype=np.float64)
        if l_max >= k:
            tab = self._ensure(k, l_max)
            vals = tab[: l_max - k + 1]
            if self.mode == "exact":
                vals = np.array([float(v) for v in vals])
            lo = max(k, 0)
            out[lo : l_max + 1] = vals[lo - k :]
        return out

    def freeze(self):
        """Stop further materialization; the cache becomes read-only."""
        self._frozen = True
        for tab in self._tables.values():
            if isinstance(tab, np.ndarray):
                tab.setflags(write=False)
        return self

    @property
    def l_max(self):
        """Largest argument materialized over all orders (-1 if empty)."""
        best = -1
        for k, tab in self._tables.items():
            best = max(best, k + len(tab) - 1)
        return best


def h_eval(cache, k, l):
    """h(k, l) from the cache (exact rational or float per cache mode)."""
    return cache.value(k, l)


def h_batch(cache, k, l_max):
    """The sequence h(k, k), h(k, k+1), ..., h(k, l_max)."""
    return cache.batch(k, l_max)


def h_asymptote(k, l, r):
    """Leading large-l form l^(k-1/2) / (Gamma(k+1/2) sqrt(1+r)).

    Valid for r in (-1, 1); at r = 1 the caller must compare against the
    parity average (h(k,l) + h(k,l+1))/2.
    """
    r = float(r)
    if not (-1.0 < r <= 1.0):
        raise ValueError("ratio must lie in (-1, 1]")
    if l < max(k, 1):
        raise ValueError("argument below the asymptotic regime")
    return l ** (k - 0.5) / (math.gamma(k + 0.5) * math.sqrt(1.0 + r))
