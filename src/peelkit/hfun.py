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
  repeated differencing of order 0 would cancel catastrophically.  Growth
  resumes from the last two entries, so a table is bit-identical whatever
  its growth history.  The loop runs as a small C function of the
  package's compiled library (`_native`) when a C compiler is at hand.
  Without it (no compiler, a cache directory that cannot be created or is
  not private to the user, a failed compile, load or self-check) the same
  loop runs in Python over coefficients precomputed with numpy a chunk at
  a time.  Both do the same double operations in the same order, so every
  table is bit-identical either way; `float_recurrence()` says which one
  runs, and why the compiled one does not.  `recurrence_list` runs the
  same recurrence in plain Python floats into a list, for tables too
  short to pay a numpy or compiled call; it too gives the same doubles.

  An infinite family's series pass (`weights`) runs the r-derivative of h
  inline for the solver's Jacobian, and `derivative_list` gives it as a
  plain-float list.  Differentiating the recurrence in r gives, for
  d_j = dh(k, k+j)/dr,

      (j+1) d_{j+1} = [(1-r)(j+1/2) + k] d_j + r (j+k) d_{j-1}
                      - (j+1/2) a_j + (j+k) a_{j-1},

  from d_0 = 0 and d_1 = -1/2.

Float tables are shared: every float HCache at one ratio reads and grows
one process-wide table store, that of `shared_cache(r)`, the ratio's entry
in an LRU of 8 ratios keyed by float(r).  Step laws, chain engines and a
caller's own `HCache(r, mode="float")` thus read the same doubles, computed
once.  The tables are read-only; growth replaces a table by a longer one
whose prefix is bit-identical, so an array obtained earlier stays valid.
A cache keeps the store it was built with when its ratio leaves the LRU.
Exact caches keep their own tables, per instance.

A sum that reads h far past anything else does, such as a heavy-tailed
law's tail sums to l = 2^18 (`walk`), reads it through a `TableStream`
instead: the recurrence resumed from two entries of the shared tables and
run forward a window at a time, several orders in one pass, with nothing
written to the store.  Its entries are the doubles the store would hold.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from . import _native
from .errors import UnsupportedOrderError

ORDER_MIN = -4
ORDER_MAX = 4

# Orders above 2 are materialized by summing the order below, orders below
# -2 by differencing the order above; the recurrence covers each directly
# in float mode.

# float tables: recurrence coefficients are precomputed this many at a time
# by the Python loop
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

    Exact mode requires a rational r and stores Fractions in the
    instance's own tables.  Float mode stores read-only numpy arrays in the
    process-wide store of its ratio float(r) (`shared_cache`), which every
    float cache at that ratio shares.  Tables grow on demand.
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
        # table[k] holds h(k, k+j) for j = 0..len-1: the instance's own in
        # exact mode, the ratio's shared store in float mode
        self._tables = {} if mode == "exact" else _shared_float_cache(self.r)._tables

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

        The recurrence resumes from the last two entries of a shorter
        table, so growth never recomputes a prefix and every entry is the
        same double whatever the growth history.  It runs in the compiled
        loop or, failing that, in Python (`float_recurrence()` says which);
        both give the same doubles.
        """
        tab = self._tables.get(k)
        size = max(n + 1, 16)
        if tab is not None:
            size = max(size, 2 * len(tab))
        out = np.empty(size, dtype=np.float64)
        r = float(self.r)
        if tab is None:
            out[:2] = 1.0, (1.0 - r) * 0.5 + k
            start = 1
        else:
            start = len(tab) - 1
            out[: start + 1] = tab
        # one row of the rows loop, resumed at start
        _fill_rows(out[None], start + 1,
                   np.array([out[start - 1 : start + 1]]),
                   np.array([k], dtype=np.int64), start, r)
        out.setflags(write=False)
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

    def table(self, k, l_max):
        """The cache's table T, T[j] = h(k, k+j), covering l = k..l_max.

        No copy is made: T may be longer than asked for, grows into a new
        object on a later request, and is read-only in float mode, where it
        is the ratio's shared table.
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


def _recurrence_rows_py(rows, prev, ks, j, r):
    """The compiled ``h_recurrence_rows`` in Python: row i of rows gets
    h(k, k+j+1+t) for k = ks[i] and every column t, from prev[i] =
    (h(k, k+j-1), h(k, k+j)), which end as the row's last two entries.
    The coefficients, read off the absolute index, are made with numpy a
    chunk at a time."""
    one_m_r = 1.0 - r
    n = rows.shape[1]
    for row, p, k in zip(rows, prev, ks):
        prev2, prev1 = float(p[0]), float(p[1])
        for lo in range(j, j + n, _CHUNK):
            jj = np.arange(lo, min(lo + _CHUNK, j + n))
            vals = []
            for a, b, d in zip((one_m_r * (jj + 0.5) + k).tolist(),
                               (r * (jj + k)).tolist(), (jj + 1).tolist()):
                prev2, prev1 = prev1, (a * prev1 + b * prev2) / d
                vals.append(prev1)
            row[lo - j : lo - j + len(vals)] = vals
        p[:] = prev2, prev1


def _fill_rows(buf, col, prev, ks, j, r):
    """`_recurrence_rows_py` on the rows buf[:, col:], by the compiled loop
    when it is loaded: buf a C-contiguous float64 array with a row per
    order, prev one of shape (len(ks), 2), ks an int64 array."""
    lib = _native.library()[0]
    if lib is None:
        _recurrence_rows_py(buf[:, col:], prev, ks, j, r)
    elif col < buf.shape[1]:
        lib.h_recurrence_rows(_native.address(buf) + 8 * col, buf.shape[1],
                              _native.address(prev), _native.address(ks),
                              len(ks), j, buf.shape[1] - col, r)


class TableStream:
    """The float tables of some orders at one ratio, read forward in
    windows past index j, without growing the ratio's shared store.

    `window(lo, hi)` gives rows[i] = T[lo:hi] of the table T of order
    orders[i] (T[j] = h(k, k+j), as `HCache.table`), for j < lo and for lo
    and hi that never decrease from one call to the next.  The entries come
    from the recurrence resumed from T[j-1] and T[j] of the shared tables,
    as `HCache._grow_float` resumes a table, a block per window: the
    compiled loop steps the orders side by side, or its Python twin runs;
    both give the doubles the shared tables would hold there.  Only the
    current window is kept, so a stream read to 2^18 entries holds a
    window's worth of them.
    """

    def __init__(self, r, orders, j):
        cache = shared_cache(r)
        self.r = cache.r
        self.ks = np.array(orders, dtype=np.int64)
        self._prev = np.array([cache.table(k, k + j)[j - 1 : j + 1]
                               for k in orders])
        # the entries kept, T[self._lo:] of each order
        self._lo = j + 1
        self._rows = np.empty((len(orders), 0))

    def window(self, lo, hi):
        have = self._lo + self._rows.shape[1]
        if hi > have:
            # the entries kept from the last window, then the new ones; the
            # last window goes first, so that one window is held at a time
            keep = min(lo, have)
            self._rows = self._rows[:, keep - self._lo :].copy()
            rows = np.empty((len(self.ks), hi - keep))
            rows[:, : have - keep] = self._rows
            _fill_rows(rows, have - keep, self._prev, self.ks, have - 1, self.r)
            self._rows, self._lo = rows, keep
        return self._rows[:, lo - self._lo : hi - self._lo]


def recurrence_list(r, k, size):
    """[h(k, k+j) for j < max(size, 2)] at the float ratio r, as a list of
    floats: the start values and double operations of `_grow_float` in the
    same order, so the same doubles as the shared float table, with no
    numpy or compiled call (the solver's plain-float pass over finite
    supports).  Raises ValueError for r outside (-1, 1], as HCache does."""
    _check_order(k)
    if not (-1.0 < r <= 1.0):
        raise ValueError("ratio must lie in (-1, 1]")
    one_m_r = 1.0 - r
    prev2, prev1 = 1.0, one_m_r * 0.5 + k
    out = [prev2, prev1]
    for j in range(1, size - 1):
        prev2, prev1 = prev1, ((one_m_r * (j + 0.5) + k) * prev1
                               + r * (j + k) * prev2) / (j + 1)
        out.append(prev1)
    return out


def derivative_list(h, r, k):
    """[dh(k, k+j)/dr for j < len(h)] over the list h = recurrence_list(r,
    k, ...), by the derivative recurrence from d_0 = 0 and d_1 = -1/2, as
    a list of floats: the doubles the series pass forms inline."""
    one_m_r = 1.0 - r
    prev2, prev1 = 0.0, -0.5
    out = [prev2, prev1]
    for j in range(1, len(h) - 1):
        prev2, prev1 = prev1, ((one_m_r * (j + 0.5) + k) * prev1
                               + r * (j + k) * prev2 - (j + 0.5) * h[j]
                               + (j + k) * h[j - 1]) / (j + 1)
        out.append(prev1)
    return out


def float_recurrence():
    """Which loop builds float h tables in this process, as data:
    ("c", path of the compiled library) or ("python", why the compiled one
    is not used, e.g. "no C compiler").  Both give bit-identical tables.
    The chain loops and row fill (`peeling`) and an infinite family's
    series pass (`weights`) take the same path."""
    return _native.library()[1]


@functools.lru_cache(maxsize=8)
def _shared_float_cache(r):
    # made without __init__, which reads its tables from here
    cache = object.__new__(HCache)
    cache.r, cache.mode, cache._tables = r, "float", {}
    return cache


def shared_cache(r):
    """The process-wide float HCache at ratio float(r), whose tables are
    the store every float HCache at that ratio reads and grows.

    Keyed on the float alone: Fraction(1) == 1.0 with equal hashes, so an
    exact cache must never live in this map.
    """
    return _shared_float_cache(float(r))


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
