"""Solve a weight sequence for its spectral constants and classify it.

The two unknowns (c_+, r) satisfy the harmonicity of the order-0 h
function at arguments 1 and 2,

    R1(c, r) = sum_{k>=-1} q_{k+2} c^k h(0, k+1) - h(0, 1) = 0,
    R2(c, r) = 2/c^2 + sum_{k>=-1} q_{k+2} c^k h(0, k+2) - h(0, 2) = 0,

with bipartite sequences pinned at r = 1 (R1 is then trivially zero).
The admissibility margin is 1 - sum_{l>=0} h(1, l+1) nu(l); it is
nonnegative for admissible sequences and zero exactly at criticality.

Every two- and three-unknown solve goes through one damped Newton
(`_damped_newton`) on x = (c, s), r = tanh(s), with the exact Jacobian
from the same series pass as the residuals, clamped coordinates, and an
exit after a few consecutive line searches that end on the forced
shortest step without lowering max|F|.
At a critical sequence the Jacobian of the main system (R1, R2) is rank
deficient (the solution sits on a fold), so Newton stalls at ~1e-6
accuracy.  The admissibility boundary itself is regular, and one system
finds it for the solver and the tuner alike: R1, R2 and the margin
1 - t M(c, r) of t * q are linear in the scale t, so the margin vanishes
on the surface t = 1/M(c, r), where R1 and R2 do not depend on the scale
(`_on_margin`).  One helper (`_boundary`) solves (R1, R2) = 0 on that
surface by the shared damped Newton in (c, s), and t = 1/M at its root
is the scale that puts q on the boundary, where the margin of q itself
is 1 - 1/t.  The solver reads its verdict off that one margin: below
-MARGIN_TOL q lies beyond the boundary (the two roots of the fold have
merged; 'not_admissible', path 'fold-beyond', c, r and the margin NaN),
within MARGIN_TOL it sits on the boundary (path 'critical-polish', at
the boundary point), above it there is slack.  The answer is
'fold-beyond' also when no boundary point is found and no Newton start
gives an admissible root.  With slack the solver reflects the first
inadmissible mirror root through the boundary point it already has.  A
bipartite sequence sits at r = 1, where the surface is a curve and the
boundary point (c_b, t_b) the root in c of R2 on it, found by a bracket
walk and safeguarded Newton in c (`_bipartite_boundary`).  Its solver
reads the same margin 1 - 1/t_b with the same tolerance; with slack the
solution is the smaller root of R2, below c_b, where R2 = S2 (1 - t_b)
< 0.  The tuner solves the surface system from fixed starts, or the
curve for a bipartite shape, and reads t* = 1/M at the root.

The series of a finite support are summed in plain floats over its few
terms q_{k+2} c^k; those of an infinite family in one compiled pass
(`_native`'s series_sums, with `_series_py` as its reference and
fallback) that forms the terms from the sequence's weight cache, runs the
h recurrence and its r-derivative alongside and stops at the certified
tail cut of `WeightSequence.positive_terms` (`_System` says how the input
selects the pass).  Their derivatives come from the same terms: in c
from k q_{k+2} c^(k-1), in r from the r-derivative of h (h's recurrence
differentiated in r, run alongside it; `hfun.derivative_list` in plain
floats).  A finite support's system keeps the terms of its last c; short
h lists per (ratio, order, length), the same doubles as the shared
tables, are kept for the whole process (`_h_lists`).  The Newton loops
run on lists of Python floats.  The Miermont cross-check
sums its binomial double series in log space, the inner sums of a block
of 64 total degrees in one array pass.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _native
from ._native import SS_DONE, SS_NO_CUT, SS_OVERFLOW, SS_WEIGHTS
from .errors import BoundaryNotFoundError, DivergentSeriesError, SolverFailureError
from .hfun import derivative_list, recurrence_list
from .weights import K_CAP, TAIL_TOL, WeightSequence, validate

RESIDUAL_TOL = 1e-12
MARGIN_TOL = 1e-9
_C_FLOOR = 2.0 + 1e-9

# damped Newton: convergence threshold on max|F|, iteration cap, trial
# steps per line search, and the number of consecutive line searches
# ending on the forced step without progress after which a start is given
# up
_NEWTON_TOL = 1e-13
_NEWTON_ITER = 80
_LINE_SEARCH = 16
_STALL_LIMIT = 3

# fixed Newton starts (c, s) on the margin surface, tried by the tuner and,
# ahead of the solver's own starts, by the solver's fold verdict
_FOLD_STARTS = ((2.6, 0.0), (3.5, 0.5), (2.2, -0.5), (5.0, 0.3))

# h lists kept process-wide, one entry per (r, order, size)
_H_LISTS = 32


@dataclass
class CriticalData:
    c_plus: float
    c_minus: float
    r: float
    z_plus: float
    z_diamond: float
    margin: float
    classification: str
    g: float = 1.0
    residuals: dict = field(default_factory=dict)

    def to_report(self):
        out = {
            "c_plus": self.c_plus,
            "c_minus": self.c_minus,
            "r": self.r,
            "z_plus": self.z_plus,
            "z_diamond": self.z_diamond,
            "margin": self.margin,
            "classification": self.classification,
            "g": self.g,
            "residuals": dict(self.residuals),
        }
        return out


def _make_data(c, r, margin, classification, g, residuals):
    c = float(c)
    r = float(r)
    return CriticalData(
        c_plus=c,
        c_minus=-r * c,
        r=r,
        z_plus=((1.0 + r) * c / 4.0) ** 2,
        z_diamond=(1.0 - r) * c / 2.0,
        margin=float(margin),
        classification=classification,
        g=float(g),
        residuals={k: (float(v) if isinstance(v, (int, float, np.floating)) else v)
                   for k, v in residuals.items()},
    )


@functools.lru_cache(maxsize=_H_LISTS)
def _h_lists(r, order, size):
    """([h(order, order + j) for j < size], its r-derivative) at the float
    ratio r, as lists of floats (`hfun.recurrence_list`, the same doubles
    as the shared tables, and `hfun.derivative_list`), kept for every
    solver system of the process; the least recently used entry makes
    room.  Callers read the lists and never change them."""
    h = recurrence_list(r, order, size)
    return h, derivative_list(h, r, order)


class _System:
    """Float evaluation of R1, R2 and the margin for a fixed sequence.

    `main` is the Newton system (R1, R2) on x = (c, s) with r = tanh(s);
    s = inf gives the bipartite r = 1.  It returns its values and exact
    Jacobian, as lists of floats, from one series pass.  The solver's and
    the tuner's other system, (R1, R2) on the margin surface, is
    `_on_margin`'s, and its R2 alone at r = 1 `_on_curve`'s.

    The series pass (`_sums`) takes one of two routes, chosen by the
    input alone.  A finite support is read once as Python lists and
    summed in plain floats: its terms q_{k+2} c^k, and h(order, .) with
    its r-derivative from the process-wide lists of `_h_lists`; a few
    terms cost less this way than one numpy call.  An infinite family
    takes one series pass (`_family_sums`): the terms from its weight
    cache and h(order, .) with its r-derivative by their recurrences,
    summed in order up to `positive_terms`' certified tail cut, in C or,
    where the library is not used, in `_series_py`, bit-identical.
    """

    def __init__(self, q: WeightSequence):
        self._terms = None  # a finite support's terms of the last c
        if q.is_finite:
            self.q = None  # read here once; only a family's pass keeps it
            self.c_max = math.inf
            self._support = tuple(a.tolist() for a in q._support_arrays())
        else:
            self.q = q
            self.c_max = (1.0 - 1e-9) / q.tail_ratio
            self._support = None

    def _sums(self, c, r, order, shifts, dr=False):
        """The table T with T[j] = h(order, order + j), its r-derivative
        table and, per shift j, (S_j, dS_j/dc, dS_j/dr) for
        S_j = sum_{k>=-1} q_{k+2} c^k h(order, k+j); dS_j/dr is None
        unless dr.
        """
        c, r = float(c), float(r)
        if self._support is not None:
            return self._plain_sums(c, r, order, shifts, dr)
        return self._family_sums(c, r, order, shifts, dr)

    def _family_sums(self, c, r, order, shifts, dr):
        """`_sums` of an infinite family in one series pass (`_native`'s
        series_sums, or `_series_py` where the library is not used) up to
        `positive_terms`' tail cut, over the sequence's weight cache, grown
        as the pass asks (`WeightSequence.weight_cache`)."""
        tab, dtab = _h_lists(r, order, 3)
        q = self.q
        k_first = q.first_cut()
        st = _series(q.log_gen is not None, c, r, q.tail_rho(c), order, shifts,
                     dr, k_first, K_CAP)
        lib = _native.library()[0]
        w = q.weight_cache(k_first + 2)
        while True:
            st.n_w = len(w)
            if lib is None:
                status = _series_py(st, w)
            else:
                st.w = _native.address(w)
                status = lib.series_sums(ctypes.byref(st))
            if status != SS_WEIGHTS:
                break
            w = q.weight_cache(st.k + 2)
        if status == SS_OVERFLOW:
            raise OverflowError("math range error")
        if status == SS_NO_CUT:
            raise DivergentSeriesError("family tail will not certify")
        return tab, dtab, [(s, s_c / c, s_r if dr else None) for s, s_c, s_r
                           in zip(st.s[:len(shifts)], st.s_c[:], st.s_r[:])]

    def _plain_sums(self, c, r, order, shifts, dr):
        """`_sums` over a finite support in plain floats, each sum taken in
        the order of the support."""
        ks, ws = self._support
        terms = self._terms
        if terms is None or terms[0] != c:
            # q_{k+2} c^k, through exp in log space where k log c > 600
            # (raising OverflowError like `WeightSequence.positive_terms`)
            log_c = math.log(c)
            vals, kvals = [], []
            for k, w in zip(ks, ws):
                e = k * log_c
                v = ((math.exp(math.log(w) + e) if w != 0.0 else 0.0)
                     if e > 600.0 else w * c**k)
                vals.append(v)
                kvals.append(k * v)
            terms = self._terms = (c, vals, kvals)
        _, vals, kvals = terms
        tab, dtab = _h_lists(r, order, max(ks[-1] + 3 - order, 3))
        out = []
        for j in shifts:
            off = j - order
            s = s_c = s_r = 0.0
            for k, v, kv in zip(ks, vals, kvals):
                i = k + off
                if i >= 0:
                    h = tab[i]
                    s += v * h
                    s_c += kv * h
                    if dr:
                        s_r += v * dtab[i]
            out.append((s, s_c / c, s_r if dr else None))
        return tab, dtab, out

    def residuals(self, c, r):
        h, _, ((s1, _, _), (s2, _, _)) = self._sums(c, r, 0, (1, 2))
        return s1 - h[1], 2.0 / c**2 + s2 - h[2]

    def r2_and_prime(self, c, r=1.0):
        h, _, ((s2, s2p, _),) = self._sums(c, r, 0, (2,))
        return 2.0 / c**2 + s2 - h[2], -4.0 / c**3 + s2p

    def margin(self, c, r):
        """1 - sum_{l>=0} h(1, l+1) nu(l).

        The series starts at l = -1 like the others; h(1, 0) = 0.
        """
        _, _, ((s, _, _),) = self._sums(c, r, 1, (1,))
        return 1.0 - s

    def main(self, x):
        """(F, J) of (R1, R2) at c = x[0], r = tanh(x[1]), J in (c, s),
        from one series pass."""
        c, r = float(x[0]), math.tanh(x[1])
        h, dh, ((s1, s1_c, s1_r), (s2, s2_c, s2_r)) = self._sums(
            c, r, 0, (1, 2), True)
        rows = [(s1 - h[1], s1_c, s1_r - dh[1]),
                (2.0 / c**2 + s2 - h[2], -4.0 / c**3 + s2_c, s2_r - dh[2])]
        return _in_cs(rows, r)


def _series(log_w, c, r, rho, order, shifts, dr, k_first, k_cap):
    """The state of a series pass before its first term k = -1, with
    h(order, .) and its r-derivative at indices -2 and -1 (zero).  shifts
    are one or two consecutive j, the last at least order (ValueError
    otherwise: the pass keeps two sums and reads h from index -1 on)."""
    if not (len(shifts) in (1, 2) and shifts[-1] == shifts[0] + len(shifts) - 1
            and shifts[-1] >= order):
        raise ValueError(f"shifts {shifts!r} at order {order}")
    return _native.Series(
        log_w=log_w, c=c, log_c=math.log(c), r=r, rho=rho, tol=TAIL_TOL,
        order=order, j0=shifts[0], n_j=len(shifts), dr=dr, k_first=k_first,
        k_cap=k_cap, k=-1, m=-1)


def _series_py(st, w):
    """The reference of `_native`'s series_sums, and the pass where the
    library is not used: the same double operations in the same order, on
    the state st (a `_native.Series`) over w[:st.n_w], with the same result.

    From term k on: q_{k+2} c^k, through exp in log space for log weights
    (w holds log q) and where k log c > 600 (exp raising OverflowError
    like `WeightSequence.positive_terms`); h(order, order + i) at
    i = m - 1, m and their r-derivatives by `hfun`'s recurrences, from
    their start values; and per shift j the sums of the term, k times the
    term and, when dr, the term times dh/dr against h(order, k + j), zero
    below the order.  The pass ends after the first k >= k_first whose
    tail bound q_{k+2} c^k (k+2)^2 rho_k / (1 - rho_k), rho_k = rho e^(2/k),
    falls below tol times the running total (at least 1): `positive_terms`'
    cut, with libm's exp.
    """
    c, log_c, r, rho, tol = st.c, st.log_c, st.r, st.rho, st.tol
    order, n_j, dr, k_first, k_cap = st.order, st.n_j, st.dr, st.k_first, st.k_cap
    log_w = st.log_w
    one_m_r = 1.0 - r
    top = st.j0 + n_j - 1 - order
    k, m, total = st.k, st.m, st.total
    h0, h1, d0, d1 = st.h0, st.h1, st.d0, st.d1
    s, s_c, s_r = list(st.s), list(st.s_c), list(st.s_r)
    w = w[: st.n_w].tolist()
    while True:
        if k > k_cap:
            status = SS_NO_CUT
            break
        if k + 2 > len(w):
            status = SS_WEIGHTS
            break
        x = w[k + 1]
        e = k * log_c
        if log_w or (e > 600.0 and x != 0.0):
            try:
                v = math.exp(x + e if log_w else math.log(x) + e)
            except OverflowError:
                status = SS_OVERFLOW
                break
        elif e > 600.0:
            v = 0.0
        else:
            v = x * c**k
        while m < k + top:
            dn = 0.0
            if m == -1:
                hn = 1.0
            elif m == 0:
                hn = one_m_r * 0.5 + order
                if dr:
                    dn = -0.5
            else:
                a = one_m_r * (m + 0.5) + order
                b = r * (m + order)
                hn = (a * h1 + b * h0) / (m + 1)
                if dr:
                    dn = (a * d1 + b * d0 - (m + 0.5) * h1
                          + (m + order) * h0) / (m + 1)
            h0, h1, d0, d1 = h1, hn, d1, dn
            m += 1
        kv = k * v
        for i in range(n_j):
            at = m - (n_j - 1 - i)
            if at < 0:
                continue
            h, d = (h1, d1) if at == m else (h0, d0)
            s[i] += v * h
            s_c[i] += kv * h
            if dr:
                s_r[i] += v * d
        total += v
        lim = tol * (total if total > 1.0 else 1.0)
        vk = v * float((k + 2) * (k + 2))
        # the bound at rho, below the bound at rho_d >= rho in floats too
        # (each rounding is monotone), says no cut without the exp
        if k >= k_first and not vk * rho / (1.0 - rho) >= lim:
            rho_d = rho * math.exp(2.0 / k)
            if rho_d < 1.0:
                bound = vk * rho_d / (1.0 - rho_d)
                if bound < lim:
                    st.bound = bound
                    k += 1
                    status = SS_DONE
                    break
        k += 1
    st.k, st.m, st.total = k, m, total
    st.h0, st.h1, st.d0, st.d1 = h0, h1, d0, d1
    st.s[:], st.s_c[:], st.s_r[:] = s, s_c, s_r
    return status


def _same_series(lib):
    """True when the compiled series pass ends with `_series_py`'s result
    and state, bit for bit, on small fixed inputs: log weights; plain
    weights with zeros and terms past the switch to exp at k log c > 600,
    resumed after the weights run out; orders 0 and 1, one shift and two,
    with and without dr; an exp that overflows and a cut that never
    comes.  The state compared includes the tail bound at the cut, which
    the solver does not read."""
    d = np.arange(1.0, 501.0)
    log_w = math.log(0.3) + d * math.log(0.1)
    # 0.05^d reaches exp's switch at k = 208 (c = 18) and zero past d = 250
    plain = np.where((d % 3 == 0) & (d < 60), 0.0, 0.05**d)
    cases = (  # (w, log_w, c, r, order, shifts, dr, k_cap, n_w first)
        (log_w, 1, 5.0, 0.37, 0, (1, 2), 1, K_CAP, 500),
        (log_w, 1, 7.0, -0.999, 1, (1,), 0, K_CAP, 20),
        (plain, 0, 18.0, -0.6, 1, (1,), 1, K_CAP, 100),
        (plain, 0, 17.0, 1.0, 0, (2,), 0, K_CAP, 500),
        (plain, 0, 19.9, 0.5, 0, (1, 2), 1, 70, 500),
        (log_w + 800.0, 1, 2.5, 0.2, 0, (1, 2), 1, K_CAP, 500),
    )
    for w, lw, c, r, order, shifts, dr, k_cap, n_first in cases:
        ends = []
        for run in (lambda st: lib.series_sums(ctypes.byref(st)),
                    lambda st: _series_py(st, w)):
            st = _series(lw, c, r, (0.1 if lw else 0.05) * c, order, shifts,
                         dr, 64, k_cap)
            st.w, st.n_w = _native.address(w), n_first
            status = [run(st)]
            if status[0] == SS_WEIGHTS:
                st.n_w = len(w)
                status.append(run(st))
            ends.append((status, bytes(st)))
        if ends[0] != ends[1]:
            return False
    return True


def _in_cs(rows, r):
    """(F, J) of rows (value, d/dc, d/dr) as lists, with J in the
    Newton coordinates (c, s), r = tanh(s): dr/ds = 1 - r^2."""
    return ([row[0] for row in rows],
            [[row[1], row[2] * (1.0 - r * r)] for row in rows])


def _to_x(c, r):
    """Newton coordinates (c, atanh r) of a start point, r kept off +-1."""
    return np.array([c, math.atanh(min(max(r, -0.999999), 0.999999))])


def _newton_1d(f_and_fp, x0, lo, hi, flo=None):
    """Safeguarded Newton inside a bracket known to contain a simple root,
    to a relative step of 1e-14 or for at most 80 iterations; flo is
    f(lo), evaluated here when not given."""
    x = min(max(x0, lo), hi)
    if flo is None:
        flo, _ = f_and_fp(lo)
    for _ in range(80):
        f, fp = f_and_fp(x)
        if f == 0.0:
            return x
        # maintain the bracket
        if (f > 0) == (flo > 0):
            lo = x
        else:
            hi = x
        if fp != 0.0:
            step = f / fp
            if abs(step) <= 1e-14 * max(1.0, abs(x)):
                # converged: a step that rounds onto a bracket end must not
                # fall back to bisection
                return min(max(x - step, lo), hi)
            xn = x - step
        else:
            xn = 0.5 * (lo + hi)
        if not (lo < xn < hi):
            xn = 0.5 * (lo + hi)
        if abs(xn - x) <= 1e-14 * max(1.0, abs(x)):
            return xn
        x = xn
    return x


def _classify_from(q, margin, tol=MARGIN_TOL):
    if margin < -tol:
        return "not_admissible"
    if margin > tol:
        return "subcritical"
    if q.is_finite:
        return "regular_critical"
    fam = q.family[0] if q.family else None
    if fam == "geometric":
        return "regular_critical"
    if fam == "symmetric_critical":
        return "critical_non_regular"
    return "critical"


def _beyond(g):
    """The answer beyond the admissibility boundary: no constants."""
    return _make_data(
        math.nan, math.nan, math.nan, "not_admissible", g,
        {"path": "fold-beyond"},
    )


def _solve_bipartite(q, sys, g):
    # the margin of q at the boundary point is 1 - 1/t_b, read as on the
    # general path; with slack R2 = S2 (1 - t_b) < 0 at c_b, so [floor, c_b]
    # brackets the smaller root of R2 when R2 > 0 at the floor
    try:
        c, t = _bipartite_boundary(sys)
    except BoundaryNotFoundError:
        # the boundary scale lies below 1e-30: G tends to S2/M > 0 as c
        # falls to 2, so the walk does not end at the floor
        return _beyond(g)
    if t is None:
        # the boundary lies past the cap (a heavy tail puts it at the
        # radius of convergence): only a root of R2 below the cap decides
        r2 = sys.r2_and_prime(c)[0]
        if not r2 < 0:
            raise DivergentSeriesError(
                f"R2 = {r2:.3g} and no boundary point up to c={c:.6g}, the "
                "largest c where the series can be evaluated")
    elif 1.0 - 1.0 / t < -MARGIN_TOL:
        return _beyond(g)
    elif 1.0 - 1.0 / t <= MARGIN_TOL:
        return _make_data(
            c, 1.0, 0.0, _classify_from(q, 0.0), g,
            {"R1": 0.0, "R2": sys.r2_and_prime(c)[0],
             "path": "bipartite-critical"},
        )
    flo = sys.r2_and_prime(_C_FLOOR)[0]
    if not flo > 0:
        # c_+ = 2 + O(q) lies below the floor, which the general path's
        # starts cannot pass either
        raise SolverFailureError(f"c_+ lies below the floor: R2 = {flo:.3g} there")
    c_root = _newton_1d(sys.r2_and_prime, 0.5 * (_C_FLOOR + c), _C_FLOOR, c,
                        flo=flo)
    margin = sys.margin(c_root, 1.0)
    return _make_data(
        c_root, 1.0, margin, _classify_from(q, margin), g,
        {"R1": 0.0, "R2": sys.r2_and_prime(c_root)[0],
         "path": "bipartite-subcritical"},
    )


def _max_abs(values):
    """max|v| over values, NaN when any v is NaN (as numpy's max)."""
    n = 0.0
    for v in values:
        a = abs(v)
        if not a <= n:
            if a != a:
                return a
            n = a
    return n


def _damped_newton(F, x0, lo, hi):
    """Damped Newton on F(x) = (values, Jacobian), x clamped to [lo, hi].

    The Jacobian comes with the values from the same evaluation, at every
    trial point; the accepted point's gives the next step.  Stops when
    max|F| < _NEWTON_TOL, after _NEWTON_ITER iterations, on a singular
    Jacobian, when no trial point of a line search evaluates, or after
    _STALL_LIMIT consecutive line searches that end on the forced step
    (lambda < 1e-3) without lowering max|F|.  Returns the best iterate, as
    an array, and its max|F|.

    x, the clamps and F's values and Jacobian are lists of Python floats,
    each trial point a few float operations: the same doubles as numpy's
    clip, max and abs on vectors, at a fraction of their call cost.  The
    step is np.linalg.solve's, whose LAPACK kernels a hand-written
    elimination does not match to the last bit.
    """
    lo = [float(v) for v in lo]
    hi = [float(v) for v in hi]
    x = [min(max(float(v), a), b) for v, a, b in zip(x0, lo, hi)]
    fx, J = F(x)
    n0 = _max_abs(fx)
    best_x, best_n = x, n0
    stalls = 0
    for _ in range(_NEWTON_ITER):
        if n0 < _NEWTON_TOL:
            break
        try:
            step = np.linalg.solve(J, [-v for v in fx]).tolist()
        except np.linalg.LinAlgError:
            break
        lam = 1.0
        for _ in range(_LINE_SEARCH):
            xn = [min(max(v + lam * d, a), b)
                  for v, d, a, b in zip(x, step, lo, hi)]
            try:
                fn, Jn = F(xn)
            except (DivergentSeriesError, ArithmeticError, ValueError):
                # series divergent or overflowing there, or r rounded to -1
                lam *= 0.5
                continue
            nn = _max_abs(fn)
            if nn < n0 or lam < 1e-3:
                break
            lam *= 0.5
        else:
            break
        stalls = 0 if nn < n0 else stalls + 1
        x, fx, J, n0 = xn, fn, Jn, nn
        if n0 < best_n:
            best_x, best_n = x, n0
        if stalls >= _STALL_LIMIT:
            break
    return np.array(best_x), np.float64(best_n)


def _start_points(q, sys):
    if q.is_finite:
        c0 = max(2.5, 2.0 * math.sqrt(q.max_support))
        c0 = min(c0, 0.9 * sys.c_max) if not math.isinf(sys.c_max) else c0
    else:
        c0 = 0.5 * (2.0 + sys.c_max)
    starts = [(c0, 0.0)]
    for r0 in (0.5, -0.5, 0.9, -0.9, 0.0, 0.3, -0.3):
        cc = c0 if len(starts) % 2 else min(max(2.3, 0.8 * c0), c0)
        starts.append((cc, r0))
    if not math.isinf(sys.c_max):
        starts.append((0.25 * (2.0 + 3.0 * sys.c_max), 0.0))
    return starts


def _feasible_hi(sys, hi):
    """Largest c at (or below) hi where the series evaluation is tractable."""
    for _ in range(80):
        try:
            sys.q.positive_terms(hi, deg=2)
            return hi
        except (DivergentSeriesError, OverflowError):
            hi = 2.0 + 0.9 * (hi - 2.0)
    raise SolverFailureError("no evaluable c range")


def _bounds(sys):
    """Newton clamps on (c, s) for one sequence."""
    hi_c = 1e9 if math.isinf(sys.c_max) else _feasible_hi(sys, sys.c_max)
    return (_C_FLOOR, -20.0), (hi_c, 20.0)


def _first_root(F, starts, lo, hi):
    """x of the damped Newton on F from each start (Newton coordinates
    (c, s)) in turn: the first that ends with max|F| < 1e-11, or None."""
    for x0 in starts:
        try:
            x, res = _damped_newton(F, x0, lo, hi)
        except (DivergentSeriesError, OverflowError):
            continue
        if res < 1e-11:
            return x
    return None


def _on_margin(sys, c, r):
    """Rows (value, d/dc, d/dr) of R1 and R2 at (c, r) on the margin
    surface of a shape, sys its system, and the scale t there.

    The margin of t * shape is 1 - t M(c, r), M = sum q_{k+2} c^k
    h(1, k+1), and its R1 and R2 are t S1 - h(0, 1) and
    2/c^2 + t S2 - h(0, 2), with S1 and S2 their weight sums, so the
    margin vanishes at t = 1/M, where R1 = S1/M - h(0, 1) and
    R2 = 2/c^2 + S2/M - h(0, 2): one order-0 and one order-1 pass.
    """
    h, dh, ((s1, s1_c, s1_r), (s2, s2_c, s2_r)) = sys._sums(
        c, r, 0, (1, 2), True)
    _, _, ((m, m_c, m_r),) = sys._sums(c, r, 1, (1,), True)
    rows = [(s1 / m - h[1], (s1_c - s1 * m_c / m) / m,
             (s1_r - s1 * m_r / m) / m - dh[1]),
            (2.0 / c**2 + s2 / m - h[2], -4.0 / c**3 + (s2_c - s2 * m_c / m) / m,
             (s2_r - s2 * m_r / m) / m - dh[2])]
    return rows, 1.0 / m


def _boundary(sys, starts, lo, hi):
    """(x, t) at the first root of (R1, R2) on the margin surface
    (`_on_margin`) that the damped Newton reaches from starts
    (`_first_root`), or None."""
    def F(x):
        r = math.tanh(x[1])
        return _in_cs(_on_margin(sys, float(x[0]), r)[0], r)

    x = _first_root(F, starts, lo, hi)
    if x is None:
        return None
    _, _, ((m, _, _),) = sys._sums(float(x[0]), math.tanh(x[1]), 1, (1,))
    return x, 1.0 / m


def _on_curve(sys, c):
    """G(c) = 2/c^2 + S2/M - h(0, 2), its c-derivative and t = 1/M at
    (c, 1): R2 on the r = 1 margin curve of a bipartite shape, sys its
    system; `_on_margin`'s R2 row at r = 1, where R1 vanishes, from two
    passes without r-derivatives."""
    h, _, ((s2, s2_c, _),) = sys._sums(c, 1.0, 0, (2,))
    _, _, ((m, m_c, _),) = sys._sums(c, 1.0, 1, (1,))
    return (2.0 / c**2 + s2 / m - h[2],
            -4.0 / c**3 + (s2_c - s2 * m_c / m) / m, 1.0 / m)


def _bipartite_boundary(sys):
    """The r = 1 boundary point (c_b, t_b) of a bipartite sequence, sys
    its system: the root c_b of G (`_on_curve`) and t_b = 1/M(c_b, 1);
    (cap, None) when G is still positive at the cap of `_bounds`, where
    the boundary is out of reach.

    M grows in c, so t falls as c grows, and G is positive at the c of
    scales above t_b and negative below.  The bracket walk starts at
    c = 2.5, or the middle of a family's range when that lies below it,
    and walks c - 2 by halves toward the floor while G <= 0, or by doubles
    while G > 0 and t >= 1e-30, up to the cap; BoundaryNotFoundError when
    it reaches the floor or t falls below 1e-30.  Safeguarded Newton then
    finds the root inside the bracket, from a Newton step off the last
    point, and one order-1 pass gives t_b there."""
    cap = _bounds(sys)[1][0]
    c = min(2.5, 0.5 * (2.0 + cap))
    g, gp, t = _on_curve(sys, c)
    below = g <= 0
    while (g <= 0) == below:
        c_prev, g_prev = c, g
        if below:
            c = 2.0 + 0.5 * (c - 2.0)
            if c <= _C_FLOOR:
                raise BoundaryNotFoundError(
                    "weights remain admissible at huge scales")
        elif c >= cap:
            return cap, None
        elif t < 1e-30:
            raise BoundaryNotFoundError(
                "no admissible scale found below the bracket")
        else:
            c = min(2.0 + 2.0 * (c - 2.0), cap)
        g, gp, t = _on_curve(sys, c)
    lo, hi, flo = (c, c_prev, g) if below else (c_prev, c, g_prev)
    x0 = c - g / gp if gp != 0.0 else 0.5 * (lo + hi)
    c = _newton_1d(lambda x: _on_curve(sys, x)[:2], x0, lo, hi, flo=flo)
    _, _, ((m, _, _),) = sys._sums(c, 1.0, 1, (1,))
    return c, 1.0 / m


def _solve_general(q, sys, g, initial=None):
    lo, hi = _bounds(sys)
    starts = [_to_x(c0, r0) for c0, r0 in _start_points(q, sys)]
    if initial is not None:
        starts = [_to_x(*initial)] + starts

    def _finish(x, path, margin):
        c, r = x[0], math.tanh(x[1])
        r1, r2 = sys.residuals(c, r)
        cls = _classify_from(q, margin)
        return _make_data(
            c, r, margin, cls, g, {"R1": r1, "R2": r2, "path": path},
        )

    def _admissible(x0):
        try:
            x, res = _damped_newton(sys.main, x0, lo, hi)
        except (DivergentSeriesError, OverflowError):
            return None, None
        if res >= 1e-10:
            return None, None
        return x, sys.margin(x[0], math.tanh(x[1]))

    def _fold(starts):
        # the boundary point on the margin surface, and the margin of q
        # there: 1 - t M = 0 at the scale t, so 1 - M = 1 - 1/t
        found = _boundary(sys, starts, lo, hi)
        return None if found is None else (found[0], 1.0 - 1.0 / found[1])

    # multi-start Newton on (R1, R2); the fold pairs an admissible solution
    # with an inadmissible mirror image, so candidates are kept and filtered
    # by the margin rather than accepted first-come.  Once the first start
    # has failed, the fold verdict is asked: a negative margin at the
    # boundary point means q lies beyond it, a zero margin that q sits on
    # it.  Otherwise the first mirror found is reflected through the
    # boundary point (the verdict's, or one solved from the mirror when the
    # verdict found none); the reflection, like the boundary point after a
    # first start that found no root at all, is the next start
    fold = None
    reflected = False
    for i, x0 in enumerate(starts):
        x, margin = _admissible(x0)
        if x is not None and margin >= -MARGIN_TOL:
            # a known boundary point already has slack: q is not critical
            if fold is None and abs(margin) < 1e-5:
                polished = _fold([x])
                if polished is not None and abs(polished[1]) <= MARGIN_TOL:
                    return _finish(polished[0], "newton+critical-polish", 0.0)
            return _finish(x, "newton", margin)
        if i == 0:
            fold = _fold(list(_FOLD_STARTS) + starts)
            if fold is not None and fold[1] < -MARGIN_TOL:
                return _beyond(g)
            if fold is not None and fold[1] <= MARGIN_TOL:
                return _finish(fold[0], "critical-polish", 0.0)
            if fold is not None and x is None:
                # a far degree can put the first start far from the root
                starts.insert(1, fold[0])
        if x is not None and not reflected:
            reflected = True
            point = fold if fold is not None else _fold([x])
            if point is not None:
                starts.insert(i + 1, 2.0 * point[0] - x)

    if fold is None:
        if hi[0] < sys.c_max < math.inf:
            # the root may lie past the clamp, where the tail will not certify
            raise DivergentSeriesError(
                f"no admissible root of (R1, R2) and no boundary point up to "
                f"c={hi[0]:.6g}, the largest c where the series can be "
                "evaluated")
        return _beyond(g)
    raise SolverFailureError(
        f"no admissible root of (R1, R2), yet the margin is {fold[1]:.3g} > 0 "
        "at the boundary point"
    )


def solve_boltzmann(q: WeightSequence, g=1.0, initial=None):
    """Spectral constants (c_+, r) of a weight sequence, deformed by g.

    Returns CriticalData.  Multi-start damped Newton solves the main
    system (R1, R2).  When the first start gives no admissible root, the
    fold verdict solves (R1, R2) = 0 once on the margin surface
    (`_boundary`) and reads the margin of q at that boundary point,
    1 - 1/t: below -MARGIN_TOL the input is beyond the admissibility
    boundary ('not_admissible', path 'fold-beyond', c and r NaN), within
    MARGIN_TOL it sits on it (path 'critical-polish', at the boundary
    point).  With slack, the first inadmissible mirror root is reflected
    through the boundary point (solved from the mirror when the verdict
    found none), and the remaining starts go on; when the first start
    found no root at all, the boundary point is tried next.  A root with
    |margin| < 1e-5 found before any verdict is polished onto the
    boundary point when that point's margin is within MARGIN_TOL (path
    'newton+critical-polish'); after a verdict with slack it is not: the
    input is not critical.  If every start fails and no boundary point
    is found, the answer is 'not_admissible' ('fold-beyond') when the
    Newton clamp stands at the largest c the sequence allows (always for
    a finite support), so inputs beyond the boundary never raise; where
    the clamp lies below the radius of convergence, because the tail
    will not certify above it, DivergentSeriesError names the clamp: the
    root may lie past it.  SolverFailureError is left for a boundary
    point with slack where no start finds the root.  `initial` = (c, r)
    is tried before the fixed starts.

    Bipartite inputs (r = 1) read the same margin 1 - 1/t_b at the
    boundary point (c_b, t_b) on the r = 1 margin curve
    (`_bipartite_boundary`): below -MARGIN_TOL 'not_admissible' (path
    'fold-beyond', c and r NaN), within MARGIN_TOL path
    'bipartite-critical' at c_b, above it the smaller root of R2 in
    [floor, c_b] (path 'bipartite-subcritical'; SolverFailureError when
    R2 is not positive at the floor, where c_+ lies below it).  When R2
    on the curve is still positive at the clamp, the boundary is out of
    reach (a heavy tail puts it at the radius of convergence): a root of
    R2 below the clamp is the subcritical answer, and without one
    DivergentSeriesError names the clamp, since the verdict is undecided
    there.
    """
    rep = validate(q)
    if not rep.ok:
        raise ValueError(f"invalid weight sequence: {rep.messages}")
    return _solve_valid(q, g, initial)


def _solve_valid(q: WeightSequence, g=1.0, initial=None):
    """`solve_boltzmann` on a q already validated: a caller that solves one
    q at several g validates it once."""
    if not (0.0 < g <= 1.0):
        raise ValueError("g must lie in (0, 1]")

    if g == 1.0 and q.family and q.family[0] == "symmetric_critical":
        from .walk import symmetric_family

        law = symmetric_family(**q.family[1])
        margin = law.margin
        cls = _classify_from(q, margin)
        return _make_data(
            law.c_plus, law.r, margin, cls, 1.0,
            {"R1": law.residuals.get("harmonic_h0_k1", 0.0),
             "R2": law.residuals.get("harmonic_h0_k2", 0.0),
             "path": "symmetric-closed-form"},
        )

    qg = q.deformed(g)
    sys = _System(qg)
    if qg.bipartite:
        data = _solve_bipartite(qg, sys, g)
    else:
        data = _solve_general(qg, sys, g, initial=initial)
    return data


def classify(q: WeightSequence, cd: CriticalData, tol=MARGIN_TOL):
    """Re-derive the admissibility class from the margin and the tail."""
    if cd.classification == "not_admissible":
        return "not_admissible"
    return _classify_from(q, cd.margin, tol)


# -- Miermont cross-check ------------------------------------------------------


@dataclass
class MiermontReport:
    f_dot_residual: float
    f_diamond_residual: float
    A0: float
    A1: float
    scalar: float
    truncation: float
    ok: bool
    messages: list = field(default_factory=list)

    def to_report(self):
        return {
            "f_dot_residual": self.f_dot_residual,
            "f_diamond_residual": self.f_diamond_residual,
            "A0": self.A0,
            "A1": self.A1,
            "A1_plus_2sqrtzp_A0": self.scalar,
            "truncation": self.truncation,
            "ok": self.ok,
            "messages": list(self.messages),
        }


_LOG_FACTORIALS = np.zeros(1)


def _log_factorials(n):
    """log m! for m = 0..n (at least), from a table grown on first use."""
    global _LOG_FACTORIALS
    if len(_LOG_FACTORIALS) <= n:
        size = max(n + 1, 2 * len(_LOG_FACTORIALS))
        _LOG_FACTORIALS = np.array([math.lgamma(m + 1.0) for m in range(size)])
    return _LOG_FACTORIALS


def _log_power(e, log_z):
    """e * log z where e > 0 and 0 elsewhere (so 0 * log 0 = 0), for an
    integer array e."""
    out = np.zeros(np.shape(e))
    np.multiply(e, log_z, out=out, where=e > 0)
    return out


_MIERMONT_BLOCK = 64


def _inner_sums_block(zp, zd, ns):
    """Inner binomial sums at each total degree of ns, as an array of rows
    (f_diamond, f_dot, d/dx, d/dy).

    With rest = n - 2k and b_k = n! / (k!^2 rest!) = C(n,k) C(n-k,k):
    f_diamond = sum_k b_k zp^k zd^rest, f_dot the same with
    C(n+1,k+1) C(n-k,k) = b_k (n+1)/(k+1), and the two partial derivatives
    in zp and zd.  Each term is summed from log space, so neither the
    binomials nor the powers overflow or underflow on their own; zd = 0
    (r = 1) keeps exactly the terms whose power of zd is zero.  One 2-D
    pass covers every degree: row n holds k = 0..max(ns) // 2, with the
    terms past n // 2 masked to zero.  A row may overflow to inf (or nan
    in d/dx); the caller stops at the first row whose sums pass 1e280.
    """
    ns = np.asarray(ns, dtype=np.int64)
    n_top = int(ns.max())
    lf = _log_factorials(n_top)
    k = np.arange(n_top // 2 + 1)
    rest = ns[:, None] - 2 * k
    live = rest >= 0
    rest[~live] = 0  # masked terms read lf[0]
    log_zd = math.log(zd) if zd > 0.0 else -math.inf
    log_b = lf[ns][:, None] - 2.0 * lf[k] - lf[rest] + k * math.log(zp)
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.exp(log_b + _log_power(rest, log_zd),
                   out=np.zeros(rest.shape), where=live)
        fd = t.sum(axis=1)
        fdot = (t * ((ns[:, None] + 1.0) / (k + 1.0))).sum(axis=1)
        dx = (t * k).sum(axis=1) / zp
        # rest * b_k zp^k zd^(rest-1) over the terms with rest >= 1
        dy = (rest * np.exp(log_b + _log_power(rest - 1, log_zd),
                            out=np.zeros(rest.shape), where=rest >= 1)
              ).sum(axis=1)
    return np.column_stack((fd, fdot, dx, dy))


def miermont_check(q: WeightSequence, cd: CriticalData, tol=1e-8, n_max=4000):
    """Verify the mobile-counting fixed point and the scalar stability bound.

    Evaluates the two fixed-point residuals and A1 + 2 sqrt(z+) A0 directly
    from the double binomial sums; these must reproduce the solver output
    independently of the h-function route.  The inner sums come a block
    of 64 total degrees at a time from one array pass
    (`_inner_sums_block`), over the block's degrees with q_{n+1} or
    q_{n+2} in a finite support and over all of them for an infinite
    family; the loop over degrees only accumulates, takes its exits and
    records the checkpoints, so an exit wastes at most the rest of one
    block.  Heavy-tailed families converge only like N^(-1/2), so their
    partial sums are Richardson-extrapolated on dyadic checkpoints.
    """
    from .seriesutil import richardson_limit

    if cd.classification == "not_admissible":
        return MiermontReport(
            math.nan, math.nan, math.nan, math.nan, math.nan, math.nan,
            False, ["input not admissible"],
        )
    zp, zd = cd.z_plus, cd.z_diamond
    heavy = bool(q.family and q.family[0] == "symmetric_critical")
    if q.is_finite:
        n_hi = q.max_support
    elif heavy:
        n_hi = 512
    else:
        n_hi = n_max
    acc = [0.0, 0.0, 0.0, 0.0]  # f_diamond, f_dot, A0, A1
    trunc = 0.0
    messages = []
    ckpt_ns = [n for n in (64, 128, 256, 512) if n <= n_hi]
    ckpts = []
    prev_term = math.inf
    small_streak = 0
    block_end = 0
    for n in range(0, n_hi + 1):
        if n == block_end:
            block_end = min(n + _MIERMONT_BLOCK, n_hi + 1)
            if q.is_finite:
                ns = [m for m in range(n, block_end)
                      if m + 1 in q.support or m + 2 in q.support]
            else:
                ns = list(range(n, block_end))
            rows = (dict(zip(ns, _inner_sums_block(zp, zd, ns).tolist()))
                    if ns else {})
        q1 = float(q.value(n + 1))
        q2 = float(q.value(n + 2))
        if q1 != 0.0 or q2 != 0.0:
            fd, fdot, dx, dy = rows[n]
            if fd > 1e280 or fdot > 1e280:
                messages.append(
                    "inner sums overflow before the tail certifies; "
                    "truncation estimated"
                )
                trunc = max(trunc, prev_term * n)
                break
            acc[0] += q1 * fd
            acc[1] += q2 * fdot
            acc[2] += 0.5 * q1 * dx
            acc[3] += q1 * dy
            term = q1 * fd + q2 * fdot
            if term > 1e6:
                messages.append("divergent truncation; input looks inadmissible")
                return MiermontReport(
                    math.nan, math.nan, math.nan, math.nan, math.nan,
                    math.inf, False, messages,
                )
            # parity zeros must not masquerade as convergence
            small_streak = small_streak + 1 if term < 1e-15 else 0
            if not q.is_finite and not heavy and n > 64 and small_streak >= 2:
                trunc = max(term, prev_term) * 10.0
                break
            prev_term = max(term, 1e-300)
        if n in ckpt_ns:
            ckpts.append(list(acc))
    else:
        if not q.is_finite and not heavy:
            trunc = prev_term * n_hi
    if heavy and len(ckpts) == len(ckpt_ns) >= 3:
        expos = [0.5, 1.5, 2.5][: len(ckpt_ns) - 1]
        fine = np.array([
            richardson_limit(ckpt_ns, [c[i] for c in ckpts], expos)
            for i in range(4)
        ])
        coarse = np.array([
            richardson_limit(ckpt_ns[:-1], [c[i] for c in ckpts[:-1]],
                             expos[:-1])
            for i in range(4)
        ])
        trunc = float(np.max(np.abs(fine - coarse)))
        acc = fine
        messages.append("heavy tail: partial sums extrapolated")
    f_diamond, f_dot, A0, A1 = acc
    res_dot = float(f_dot - (1.0 - 1.0 / zp))
    res_dia = float(f_diamond - zd)
    scalar = float(A1 + 2.0 * math.sqrt(zp) * A0)
    ok = bool(
        abs(res_dot) <= tol + trunc
        and abs(res_dia) <= tol + trunc
        and scalar <= 1.0 + tol + trunc
    )
    return MiermontReport(
        res_dot, res_dia, float(A0), float(A1), scalar, float(trunc), ok, messages
    )


# -- boundary tuner -------------------------------------------------------------


@dataclass
class TuneResult:
    t_star: float
    data: CriticalData


def _tuned(shape, t_star, c, r, path):
    """The tuner's answer at (c, r) for the scale t_star, with R1 and R2
    read from the system of shape.scaled(t_star)."""
    q = shape.scaled(t_star)
    r1, r2 = _System(q).residuals(c, r)
    cls = _classify_from(q, 0.0)
    data = _make_data(c, r, 0.0, cls, 1.0, {"R1": r1, "R2": r2, "path": path})
    return TuneResult(t_star, data)


def tune_critical(shape: WeightSequence):
    """Scale t* at which t * shape sits on the admissibility boundary.

    R1, R2 and the margin of t * shape are linear in t, so the boundary
    point (c*, r*) lies on the margin surface t = 1/M(c, r), where R1 and
    R2 do not depend on the scale of the shape (`_on_margin`), and
    t* = 1/M(c*, r*).  A bipartite shape sits at r = 1: t* is the scale
    at the solver's own boundary point on that curve, the root in c of R2
    there, found by a bracket walk in c and safeguarded Newton
    (`_bipartite_boundary`, path 'tune-margin-root').  Any
    other shape is tuned by the shared damped Newton on (R1, R2) on the
    surface in (c, s) (`_boundary`, which the solver's verdict shares),
    from each of `_FOLD_STARTS` in turn until one converges, which gives
    t0; one more round from that root on the system of t0 * shape gives
    t1 and t* = t0 t1 (path 'tune-margin-surface').  The second round
    matters for an infinite family whose sums lie far below 1, where the
    series' tail cut, taken against a total of at least 1, is too coarse;
    a finite support starts it converged.  BoundaryNotFoundError when no
    start converges, or when the bipartite walk finds no boundary point.
    The symmetric critical family is refused with ValueError: it is
    critical at t* = 1 by construction.
    """
    if shape.family and shape.family[0] == "symmetric_critical":
        raise ValueError("the symmetric_critical family is critical at t* = 1 "
                         "by construction; there is no boundary to tune")
    rep = validate(shape)
    if not rep.ok:
        raise ValueError(f"invalid shape: {rep.messages}")
    if shape.bipartite:
        c, t_star = _bipartite_boundary(_System(shape))
        if t_star is None:
            raise BoundaryNotFoundError(
                "no admissible scale found below the bracket")
        return _tuned(shape, t_star, c, 1.0, "tune-margin-root")
    sys = _System(shape)
    lo, hi = _bounds(sys)
    found = _boundary(sys, _FOLD_STARTS, lo, hi)
    if found is not None:
        x, t0 = found
        found = _boundary(_System(shape.scaled(t0)), [x], lo, hi)
    if found is None:
        raise BoundaryNotFoundError("no root of R1 and R2 on the margin surface")
    x, t1 = found
    return _tuned(shape, t0 * t1, float(x[0]), math.tanh(x[1]),
                  "tune-margin-surface")


def full_report(q: WeightSequence, cd: CriticalData = None):
    """JSON-able analysis document: constants, residuals, Miermont block."""
    if cd is None:
        cd = solve_boltzmann(q)
    out = cd.to_report()
    out["miermont"] = miermont_check(q, cd).to_report()
    return out
