"""Solve a weight sequence for its spectral constants and classify it.

The two unknowns (c_+, r) satisfy the harmonicity of the order-0 h
function at arguments 1 and 2,

    R1(c, r) = sum_{k>=-1} q_{k+2} c^k h(0, k+1) - h(0, 1) = 0,
    R2(c, r) = 2/c^2 + sum_{k>=-1} q_{k+2} c^k h(0, k+2) - h(0, 2) = 0,

with bipartite sequences pinned at r = 1 (R1 is then trivially zero).
The admissibility margin is 1 - sum_{l>=0} h(1, l+1) nu(l); it is
nonnegative for admissible sequences and zero exactly at criticality.

Every two- and three-unknown solve goes through one damped Newton
(`_damped_newton`) on x = (c, s), r = tanh(s), with a forward-difference
Jacobian, clamped coordinates, and an exit after a few consecutive line
searches that end on the forced shortest step without lowering max|F|.
At a critical sequence the Jacobian of the main system (R1, R2) is rank
deficient (the solution sits on a fold), so Newton stalls at ~1e-6
accuracy.  The solver therefore finishes near-critical points on the
well-conditioned companion system (R1, margin - 1), whose Jacobian is
regular at the fold, and accepts the result only if R2 vanishes there.
The boundary tuner uses the same idea with the overall scale of the
weights as a third unknown (a bordered fold-tracking system).  Beyond
the boundary the two roots of the fold have merged; a sequence with no
root of the main system and no sign change of R1 along the branch of
smallest R2 roots is reported as not admissible.

The series are numpy dot products over the terms q_{k+2} c^k that the
weight sequence materializes from its cached weights.  Each `_System`
keeps the terms of its last c and, per h order, the h table of its last
r, so the c-column of a Jacobian and every bipartite (r = 1) evaluation
reuse one table.  The Miermont cross-check sums its binomial double
series per total degree in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BoundaryNotFoundError, DivergentSeriesError, SolverFailureError
from .hfun import HCache
from .weights import WeightSequence, validate

RESIDUAL_TOL = 1e-12
MARGIN_TOL = 1e-9
_C_FLOOR = 2.0 + 1e-9

# damped Newton: convergence threshold on max|F|, iteration cap, trial
# steps per line search, forward-difference step, and the number of
# consecutive line searches ending on the forced step without progress
# after which a start is given up
_NEWTON_TOL = 1e-13
_NEWTON_ITER = 80
_LINE_SEARCH = 16
_FD_STEP = 1e-7
_STALL_LIMIT = 3


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


class _System:
    """Float evaluation of R1, R2 and the margin for a fixed sequence.

    `main` and `companion` are the two Newton systems on x = (c, s) with
    r = tanh(s); s = inf gives the bipartite r = 1.
    """

    def __init__(self, q: WeightSequence):
        self.q = q
        if q.is_finite:
            self.c_max = math.inf
        else:
            self.c_max = (1.0 - 1e-9) / q.tail_ratio
        self._terms = None  # (c, ks, values) of the last c
        self._h = {}  # order -> (r, HCache) of the last r

    def _sums(self, c, r, order, shifts):
        """The table T with T[j] = h(order, order + j) and, per shift j,
        (S_j, dS_j/dc) for S_j = sum_{k>=-1} q_{k+2} c^k h(order, k+j).

        The terms of the last c are kept, and so is the h cache of the last
        r per order, so the c-column of the Jacobian and every bipartite
        (r = 1) evaluation reuse one table that grows on demand.
        """
        c, r = float(c), float(r)
        if self._terms is None or self._terms[0] != c:
            self._terms = (c,) + self.q.positive_terms(c, deg=2)[:2]
        _, ks, vals = self._terms
        memo = self._h.get(order)
        if memo is None or memo[0] != r:
            memo = self._h[order] = (r, HCache(r, mode="float"))
        tab = memo[1].table(order, (ks[-1] if len(ks) else 0) + 2)
        out = []
        for j in shifts:
            # h(order, k + j) = tab[k + j - order], zero below the order
            idx = ks + (j - order)
            lo = int(np.searchsorted(idx, 0))
            v, hj = vals[lo:], tab[idx[lo:]]
            out.append((float(np.dot(v, hj)), float(np.dot(ks[lo:] * v, hj)) / c))
        return tab, out

    def residuals(self, c, r):
        h, ((s1, _), (s2, _)) = self._sums(c, r, 0, (1, 2))
        return s1 - float(h[1]), 2.0 / c**2 + s2 - float(h[2])

    def r2_and_prime(self, c, r=1.0):
        h, ((s2, s2p),) = self._sums(c, r, 0, (2,))
        return 2.0 / c**2 + s2 - float(h[2]), -4.0 / c**3 + s2p

    def margin_and_prime(self, c, r=1.0):
        """1 - sum_{l>=0} h(1, l+1) nu(l) and its c-derivative.

        The series starts at l = -1 like the others; h(1, 0) = 0.
        """
        _, ((s, sp),) = self._sums(c, r, 1, (1,))
        return 1.0 - s, -sp

    def margin(self, c, r):
        return self.margin_and_prime(c, r)[0]

    def main(self, x):
        """(R1, R2) at c = x[0], r = tanh(x[1])."""
        return self.residuals(x[0], math.tanh(x[1]))

    def companion(self, x):
        """(R1, -margin) at c = x[0], r = tanh(x[1])."""
        c, r = x[0], math.tanh(x[1])
        return self.residuals(c, r)[0], -self.margin(c, r)


def _to_x(c, r):
    """Newton coordinates (c, atanh r) of a start point, r kept off +-1."""
    return np.array([c, math.atanh(min(max(r, -0.999999), 0.999999))])


def _newton_1d(f_and_fp, x0, lo, hi, tol=1e-14, max_iter=80):
    """Safeguarded Newton inside a bracket known to contain a simple root."""
    x = min(max(x0, lo), hi)
    flo, _ = f_and_fp(lo)
    for _ in range(max_iter):
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
            xn = x - step
        else:
            xn = 0.5 * (lo + hi)
        if not (lo < xn < hi):
            xn = 0.5 * (lo + hi)
        if abs(xn - x) <= tol * max(1.0, abs(x)):
            return xn
        x = xn
    return x


def _minimize_convex(f_and_fp, lo, hi, tol=1e-13):
    """Arg-min of a smooth strictly convex function on (lo, hi).

    Works on the derivative, which is increasing; returns lo or hi when the
    minimum sits on the boundary.
    """
    glo = f_and_fp(lo)[1]
    ghi = f_and_fp(hi)[1]
    if glo >= 0:
        return lo
    if ghi <= 0:
        return hi
    a, b = lo, hi
    for _ in range(200):
        m = 0.5 * (a + b)
        g = f_and_fp(m)[1]
        if g < 0:
            a = m
        else:
            b = m
        if b - a <= tol * max(1.0, abs(m)):
            break
    return 0.5 * (a + b)


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


def _margin_root(sys, x0, hi, cap):
    """Root in c of the r = 1 margin, by safeguarded Newton from x0.

    The upper end of the bracket doubles from hi (at most cap) until the
    margin is <= 0 there; None when the margin is already <= 0 at the
    floor or stays positive up to cap.
    """
    if sys.margin_and_prime(_C_FLOOR)[0] <= 0:
        return None
    hi = min(hi, cap)
    while sys.margin_and_prime(hi)[0] > 0:
        if hi >= cap:
            return None
        hi = min(2.0 * hi, cap)
    return _newton_1d(sys.margin_and_prime, x0, _C_FLOOR, hi)


def _solve_bipartite(q, sys, g, tol):
    # bracket a sign change of R2' to locate the convex minimum, within
    # the range of c where the series can be evaluated
    if math.isinf(sys.c_max):
        hi = 8.0
        while sys.r2_and_prime(hi)[1] <= 0 and hi < 1e12:
            hi *= 2.0
    else:
        hi = _feasible_hi(sys, sys.c_max)
    c_min = _minimize_convex(sys.r2_and_prime, _C_FLOOR, hi)
    v_min = sys.r2_and_prime(c_min)[0]
    if c_min == hi < sys.c_max and v_min > -1e-10:
        # the minimum of R2 lies beyond the range where the series can be
        # evaluated; only a clearly negative R2 there still locates the
        # smaller root, and with it a subcritical solution
        raise DivergentSeriesError(
            f"R2 = {v_min:.3g} and still decreasing at c={hi:.6g}, the "
            "largest c where the series can be evaluated"
        )

    if v_min > 10 * tol:
        margin = sys.margin(c_min, 1.0)
        return _make_data(
            c_min, 1.0, margin, "not_admissible", g,
            {"R1": 0.0, "R2": v_min, "path": "bipartite-no-root"},
        )

    # candidate critical point: the margin root, checked against R2
    c_m = _margin_root(sys, c_min, c_min, hi) if v_min > -1e-10 else None
    if c_m is not None:
        r2_at = sys.r2_and_prime(c_m)[0]
        if abs(r2_at) <= max(1e-10, 2.0 * abs(v_min)):
            return _make_data(
                c_m, 1.0, 0.0, _classify_from(q, 0.0), g,
                {"R1": 0.0, "R2": r2_at, "path": "bipartite-critical"},
            )

    # genuinely subcritical: smaller root of R2
    c_root = _newton_1d(sys.r2_and_prime, 0.5 * (_C_FLOOR + c_min), _C_FLOOR, c_min)
    margin = sys.margin(c_root, 1.0)
    cls = _classify_from(q, margin)
    return _make_data(
        c_root, 1.0, margin, cls, g,
        {"R1": 0.0, "R2": sys.r2_and_prime(c_root)[0], "path": "bipartite-subcritical"},
    )


def _damped_newton(F, x0, lo, hi):
    """Damped Newton with a forward-difference Jacobian, x clamped to [lo, hi].

    Stops when max|F| < _NEWTON_TOL, after _NEWTON_ITER iterations, on a
    singular Jacobian, when no trial point of a line search evaluates, or
    after _STALL_LIMIT consecutive line searches that end on the forced
    step (lambda < 1e-3) without lowering max|F|.  Returns the best iterate
    and its max|F|.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    x = np.clip(np.array(x0, dtype=float), lo, hi)
    fx = np.array(F(x), dtype=float)
    n0 = np.max(np.abs(fx))
    best_x, best_n = x, n0
    stalls = 0
    for _ in range(_NEWTON_ITER):
        if n0 < _NEWTON_TOL:
            break
        J = np.empty((len(x), len(x)))
        for j in range(len(x)):
            h = _FD_STEP * max(1.0, abs(x[j]))
            xp = x.copy()
            xp[j] += h
            J[:, j] = (np.array(F(xp), dtype=float) - fx) / h
        try:
            step = np.linalg.solve(J, -fx)
        except np.linalg.LinAlgError:
            break
        lam = 1.0
        for _ in range(_LINE_SEARCH):
            xn = np.clip(x + lam * step, lo, hi)
            try:
                fn = np.array(F(xn), dtype=float)
            except (DivergentSeriesError, ArithmeticError, ValueError):
                # series divergent or overflowing there, or r rounded to -1
                lam *= 0.5
                continue
            nn = np.max(np.abs(fn))
            if nn < n0 or lam < 1e-3:
                break
            lam *= 0.5
        else:
            break
        stalls = 0 if nn < n0 else stalls + 1
        x, fx, n0 = xn, fn, nn
        if n0 < best_n:
            best_x, best_n = x, n0
        if stalls >= _STALL_LIMIT:
            break
    return best_x, best_n


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


def _solve_general(q, sys, g, tol, initial=None):
    lo, hi = _bounds(sys)

    def _newton(F, x0):
        try:
            return _damped_newton(F, x0, lo, hi)
        except DivergentSeriesError:
            return None, math.inf

    starts = [_to_x(c0, r0) for c0, r0 in _start_points(q, sys)]
    if initial is not None:
        starts = [_to_x(*initial)] + starts

    def _finish(c, r, path, margin=None):
        if margin is None:
            margin = sys.margin(c, r)
        r1, r2 = sys.residuals(c, r)
        cls = _classify_from(q, margin)
        return _make_data(
            c, r, margin, cls, g, {"R1": r1, "R2": r2, "path": path},
        )

    def _polish(x0):
        """Companion-system solution (c, r, R2) from x0, or None."""
        x, res = _newton(sys.companion, x0)
        if res < 1e-11:
            c, r = x[0], math.tanh(x[1])
            return c, r, sys.residuals(c, r)[1]
        return None

    def _critical(x0, path):
        polished = _polish(x0)
        if polished is not None and abs(polished[2]) <= 1e-9:
            return _finish(polished[0], polished[1], path, margin=0.0)
        return None

    def _admissible(x0):
        x, res = _newton(sys.main, x0)
        if res >= 1e-10:
            return None, None
        c, r = x[0], math.tanh(x[1])
        return x, sys.margin(c, r)

    # multi-start Newton on (R1, R2); the fold pairs an admissible solution
    # with an inadmissible mirror image, so candidates are kept and filtered
    # by the margin rather than accepted first-come
    admissible = None
    x_bad = None
    for x0 in starts:
        x, margin = _admissible(x0)
        if x is None:
            continue
        if margin >= -MARGIN_TOL:
            admissible = (x, margin)
            break
        if x_bad is None:
            x_bad = x

    if admissible is None and x_bad is not None:
        # reflect the bad branch through the critical point of the fold
        polished = _polish(x_bad)
        if polished is not None:
            x, margin = _admissible(2.0 * _to_x(*polished[:2]) - x_bad)
            if x is not None and margin >= -MARGIN_TOL:
                admissible = (x, margin)

    if admissible is not None:
        x, margin = admissible
        if abs(margin) < 1e-5:
            done = _critical(x, "newton+critical-polish")
            if done is not None:
                return done
        return _finish(x[0], math.tanh(x[1]), "newton", margin)

    # no Newton route: the input may sit exactly on the fold
    for x0 in starts:
        done = _critical(x0, "critical-polish")
        if done is not None:
            return done

    # nested scan: smallest root of R2 in c at fixed r, outer sign change
    # of R1 along that branch; without one the system has no solution
    def _smallest_root(r):
        def f1d(c, _r=r):
            return sys.r2_and_prime(c, _r)

        try:
            c_min = _minimize_convex(f1d, _C_FLOOR, min(hi[0], 1e6))
            v = f1d(c_min)[0]
        except (DivergentSeriesError, OverflowError):
            return None
        if v > 0.0:
            return None
        return _newton_1d(f1d, 0.5 * (_C_FLOOR + c_min), _C_FLOOR, c_min)

    grid = np.linspace(-0.995, 0.995, 161)
    phi = np.full(grid.shape, np.nan)
    for i, r in enumerate(grid):
        c_root = _smallest_root(r)
        if c_root is not None:
            phi[i] = sys.residuals(c_root, r)[0]
    changes = np.flatnonzero(phi[:-1] * phi[1:] < 0)
    if len(changes) == 0:
        return _make_data(
            float("nan"), float("nan"), float("nan"), "not_admissible", g,
            {"path": "grid-no-solution"},
        )
    a, b = grid[changes[0]], grid[changes[0] + 1]
    sig = phi[changes[0]]
    for _ in range(200):
        m = 0.5 * (a + b)
        c_root = _smallest_root(m)
        if c_root is None:
            break
        val = sys.residuals(c_root, m)[0]
        if val * sig > 0:
            a = m
        else:
            b = m
        if b - a < 1e-13:
            break
    r = 0.5 * (a + b)
    c_root = _smallest_root(r)
    if c_root is None:
        raise SolverFailureError("nested scan lost the R2 root it bisected")
    return _finish(c_root, r, "nested-bisection")


def solve_boltzmann(q: WeightSequence, g=1.0, tol=RESIDUAL_TOL, initial=None):
    """Spectral constants (c_+, r) of a weight sequence, deformed by g.

    Returns CriticalData.  Multi-start damped Newton solves the main
    system (R1, R2); near-critical and fold-sitting inputs are finished on
    the companion system (R1, margin - 1).  When neither converges, a
    nested scan follows the smallest root of R2 in c across r: no sign
    change of R1 along it means no solution, and the sequence is
    classified 'not_admissible' (path 'grid-no-solution'), as is any
    bisected root with a negative margin; inputs beyond the admissibility
    boundary never raise.  SolverFailureError is left for a scan that
    loses its own bracket.
    """
    rep = validate(q)
    if not rep.ok:
        raise ValueError(f"invalid weight sequence: {rep.messages}")
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
        data = _solve_bipartite(qg, sys, g, tol)
    else:
        data = _solve_general(qg, sys, g, tol, initial=initial)
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
    """e * log z with 0 * log 0 = 0, for a nonnegative integer array e."""
    out = np.zeros(len(e))
    np.multiply(e, log_z, out=out, where=e > 0)
    return out


def _inner_sums(zp, zd, n):
    """Inner binomial sums at total degree n for f_dot, f_diamond, d/dx, d/dy.

    With rest = n - 2k and b_k = n! / (k!^2 rest!) = C(n,k) C(n-k,k):
    f_diamond = sum_k b_k zp^k zd^rest, f_dot the same with
    C(n+1,k+1) C(n-k,k) = b_k (n+1)/(k+1), and the two partial derivatives
    in zp and zd.  Each term is summed from log space, so neither the
    binomials nor the powers overflow or underflow on their own; zd = 0
    (r = 1) keeps exactly the terms whose power of zd is zero.
    """
    lf = _log_factorials(n)
    k = np.arange(n // 2 + 1)
    rest = n - 2 * k
    log_zd = math.log(zd) if zd > 0.0 else -math.inf
    log_b = lf[n] - 2.0 * lf[k] - lf[rest] + k * math.log(zp)
    with np.errstate(over="ignore"):
        t = np.exp(log_b + _log_power(rest, log_zd))
        fd = float(t.sum())
        fdot = float(np.dot(t, (n + 1.0) / (k + 1.0)))
        dx = float(np.dot(t, k)) / zp
        # rest * b_k zp^k zd^(rest-1) over the terms with rest >= 1
        tail = rest >= 1
        dy = float(np.dot(rest[tail], np.exp(
            log_b[tail] + _log_power(rest[tail] - 1, log_zd))))
    return fd, fdot, dx, dy


def miermont_check(q: WeightSequence, cd: CriticalData, tol=1e-8, n_max=4000):
    """Verify the mobile-counting fixed point and the scalar stability bound.

    Evaluates the two fixed-point residuals and A1 + 2 sqrt(z+) A0 directly
    from the double binomial sums; these must reproduce the solver output
    independently of the h-function route.  Heavy-tailed families converge
    only like N^(-1/2), so their partial sums are Richardson-extrapolated
    on dyadic checkpoints.
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
    acc = np.zeros(4)  # f_diamond, f_dot, A0, A1
    trunc = 0.0
    messages = []
    ckpt_ns = [n for n in (64, 128, 256, 512) if n <= n_hi]
    ckpts = []
    prev_term = math.inf
    small_streak = 0
    for n in range(0, n_hi + 1):
        q1 = float(q.value(n + 1))
        q2 = float(q.value(n + 2))
        if q1 != 0.0 or q2 != 0.0:
            fd, fdot, dx, dy = _inner_sums(zp, zd, n)
            if fd > 1e280 or fdot > 1e280:
                messages.append(
                    "inner sums overflow before the tail certifies; "
                    "truncation estimated"
                )
                trunc = max(trunc, prev_term * n)
                break
            acc += (q1 * fd, q2 * fdot, 0.5 * q1 * dx, q1 * dy)
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
            ckpts.append(acc.copy())
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


def _fold_side(shape, t, bipartite, warm):
    """Which side of the admissibility boundary t * shape sits on.

    Solves the well-conditioned companion system (R1 = 0, margin = 0) and
    inspects the sign of R2 there: negative means admissible slack remains
    (t below the boundary), positive or unsolvable means t is beyond it.
    Returns (side, state) with side < 0 below the fold; state is the
    companion solution, (c,) or (c, s), to warm-start the next scale.
    """
    sys = _System(shape.scaled(t))
    lo, hi = _bounds(sys)
    if bipartite:
        try:
            c = _margin_root(sys, warm[0] if warm else 2.5,
                             warm[0] * 2.0 if warm else 8.0, hi[0])
            if c is None:
                return 1.0, None
            return sys.r2_and_prime(c)[0], (c,)
        except (DivergentSeriesError, OverflowError):
            return 1.0, None

    starts = [warm] if warm is not None else []
    starts += [(2.6, 0.0), (3.5, 0.5), (2.2, -0.5), (5.0, 0.3)]
    for x0 in starts:
        try:
            x, res = _damped_newton(sys.companion, x0, lo, hi)
        except (DivergentSeriesError, OverflowError):
            continue
        if res < 1e-11:
            return sys.main(x)[1], (x[0], x[1])
    return 1.0, None


def tune_critical(shape: WeightSequence, tol=1e-10):
    """Scale t* at which t * shape sits on the admissibility boundary.

    Halving and then doubling t brackets the boundary on the fold-side
    indicator (the sign of R2 on the companion curve R1 = 0, margin = 0),
    each admissible scale warm-starting the next; bisection narrows the
    bracket, and the shared damped Newton on the bordered system
    (R1, R2, margin - 1) in (c, s, t) then locates the fold to near
    machine precision (bipartite shapes: (R2, margin - 1) in (c, t)).
    """
    rep = validate(shape)
    if not rep.ok:
        raise ValueError(f"invalid shape: {rep.messages}")

    bipartite = shape.bipartite
    warm = None
    t_lo = None
    t = 1.0
    for _ in range(120):
        side, state = _fold_side(shape, t, bipartite, warm)
        if side < 0:
            t_lo, warm = t, state
            break
        t *= 0.5
        if t < 1e-30:
            break
    if t_lo is None:
        raise BoundaryNotFoundError("no admissible scale found below the bracket")
    t_hi = t_lo
    for _ in range(120):
        t_hi *= 2.0
        side, state = _fold_side(shape, t_hi, bipartite, warm)
        if side >= 0:
            break
        t_lo, warm = t_hi, state
    else:
        raise BoundaryNotFoundError("weights remain admissible at huge scales")

    for _ in range(64):
        tm = 0.5 * (t_lo + t_hi)
        side, state = _fold_side(shape, tm, bipartite, warm)
        if side < 0:
            t_lo = tm
            if state is not None:
                warm = state
        else:
            t_hi = tm
        if t_hi - t_lo <= 1e-8 * t_lo:
            break

    # bipartite shapes sit at r = 1, i.e. s = inf
    def F(x):
        sys = _System(shape.scaled(x[-1]))
        y = (x[0], math.inf) if bipartite else x[:2]
        r1, r2 = sys.main(y)
        m = sys.companion(y)[1]
        return (r2, m) if bipartite else (r1, r2, m)

    if bipartite:
        lo, hi = (_C_FLOOR, 1e-300), (math.inf, math.inf)
    else:
        lo, hi = (_C_FLOOR, -20.0, 1e-300), (math.inf, 20.0, math.inf)
    x, _ = _damped_newton(F, warm + (t_lo,), lo, hi)

    t_star = float(x[-1])
    if not (0.5 * t_lo <= t_star <= 2.0 * t_hi):
        raise SolverFailureError("bordered polish left the bisection bracket")
    c = float(x[0])
    r = 1.0 if bipartite else math.tanh(float(x[1]))
    sys = _System(shape.scaled(t_star))
    r1, r2 = sys.residuals(c, r)
    cls = _classify_from(shape.scaled(t_star), 0.0)
    data = _make_data(
        c, r, 0.0, cls, 1.0,
        {"R1": r1, "R2": r2, "path": "tune-bordered-newton"},
    )
    return TuneResult(t_star, data)


def full_report(q: WeightSequence, cd: CriticalData = None):
    """JSON-able analysis document: constants, residuals, Miermont block."""
    if cd is None:
        cd = solve_boltzmann(q)
    out = cd.to_report()
    out["miermont"] = miermont_check(q, cd).to_report()
    return out
