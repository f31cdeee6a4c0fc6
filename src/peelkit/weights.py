"""Face-weight sequences, the q <-> nu dictionary and the preset families.

A weight sequence assigns a nonnegative weight q_k to every face of degree
k.  Finite sequences are plain sparse maps; the closed-form families
(2p-angulations, odd angulations, geometric sequences, the symmetric
critical family) carry a tag plus a generator so that infinite supports
can be materialized lazily with certified geometric tail bounds.  An
infinite family's series are cut in one place, the series pass
(`WeightSequence.series_pass`), which the solver sums with and whose cut
`positive_terms` reads.
"""

from __future__ import annotations

import ctypes
import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _native
from ._native import SS_DONE, SS_NO_CUT, SS_OVERFLOW, SS_WEIGHTS
from .errors import DivergentSeriesError
from .hfun import recurrence_list, shared_cache

# the series pass's tail cut (`WeightSequence.series_pass`): the tail's
# tolerance relative to the running total, the least k it cuts at and the
# most terms it reads
TAIL_TOL = 1e-16
K_MIN = 64
K_CAP = 60_000


def _exp(x):
    """np.exp that raises OverflowError, as math.exp does, instead of inf."""
    with np.errstate(over="ignore"):
        out = np.exp(x)
    if np.isposinf(out).any():
        raise OverflowError("math range error")
    return out


def _as_value(x):
    """Keep exact rationals exact, everything else becomes float."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    return float(x)


class WeightSequence:
    """Sparse map k -> q_k, possibly backed by a closed-form family.

    For finite sequences ``support`` holds every nonzero weight.  Infinite
    families supply ``gen`` (k -> q_k), a certified ``tail_ratio`` rho with
    q_{k+1} <= rho * q_k from ``tail_start`` on, and keep ``support`` as a
    materialization cache.
    """

    def __init__(self, support=None, family=None, gen=None, tail_ratio=None,
                 tail_start=3, log_gen=None):
        self.support = {}
        if support:
            for k, v in support.items():
                k = int(k)
                if k < 1:
                    raise ValueError("face degrees start at 1")
                v = _as_value(v)
                if v != 0:
                    self.support[k] = v
        self.family = family
        self.gen = gen
        self.log_gen = log_gen
        self.tail_ratio = tail_ratio
        self.tail_start = tail_start
        self._support_cache = None
        self._weight_cache = np.empty(0)
        if gen is not None and tail_ratio is None:
            raise ValueError("infinite families need a certified tail ratio")

    # -- basic queries -----------------------------------------------------

    @property
    def is_finite(self):
        return self.gen is None

    def value(self, k):
        if k < 1:
            return 0
        if self.gen is not None:
            if k not in self.support:
                self.support[k] = self.gen(k)
            return self.support[k]
        return self.support.get(k, 0)

    @property
    def is_exact(self):
        return self.is_finite and all(
            isinstance(v, Fraction) for v in self.support.values()
        )

    @property
    def max_support(self):
        """Largest degree with positive weight; None for infinite support."""
        if not self.is_finite:
            return None
        return max(self.support) if self.support else 0

    @property
    def min_support(self):
        if self.is_finite:
            return min(self.support) if self.support else 0
        return min(k for k in range(1, 64) if self.value(k) != 0)

    @property
    def bipartite(self):
        if self.is_finite:
            return bool(self.support) and all(k % 2 == 0 for k in self.support)
        # probe a window; families are either genuinely even or not
        return all(self.value(k) == 0 for k in range(1, 64, 2))

    # -- materialization with certified tails -------------------------------

    def _support_arrays(self):
        """(k, q_{k+2}) of a finite support as sorted arrays, cached."""
        if self._support_cache is None:
            ks = sorted(k - 2 for k in self.support)
            self._support_cache = (
                np.array(ks, dtype=np.int64),
                np.array([float(self.support[k + 2]) for k in ks]),
            )
        return self._support_cache

    def _family_weights(self, n):
        """Per-sequence cache of an infinite family's degrees 1..n.

        Holds log q_d when the family has ``log_gen`` (evaluated on whole
        integer arrays) and q_d otherwise (one ``gen`` call per new degree).
        """
        have = self._weight_cache
        if len(have) < n:
            d = np.arange(len(have) + 1, n + 1)
            if self.log_gen is not None:
                new = np.asarray(self.log_gen(d), dtype=np.float64)
            else:
                new = np.array([float(self.value(int(x))) for x in d])
            have = self._weight_cache = np.concatenate([have, new])
        return have[:n]

    def weight_cache(self, n):
        """The per-sequence weight cache of an infinite family holding at
        least degrees 1..n (`_family_weights`).  A log-weight family's grows
        to at least twice its length, any other's exactly to n: the series
        pass (`series_pass`), which asks for one more degree at a time,
        evaluates no weight past its cut, and neither does
        `positive_terms`, which reads that cut."""
        have = len(self._weight_cache)
        if have < n:
            self._family_weights(max(n, 2 * have) if self.log_gen is not None
                                 else n)
        return self._weight_cache

    def first_cut(self):
        """The least k at which the series pass (`series_pass`), and so
        `positive_terms`, may cut the terms."""
        return max(K_MIN, self.tail_start - 2, 1)

    def tail_rho(self, c):
        """rho = tail_ratio * c, the ratio that bounds the tail of the terms
        q_{k+2} c^k.  Raises DivergentSeriesError when the tail does not sum
        at c, or sums so slowly that it would not certify within K_CAP
        terms."""
        rho = self.tail_ratio * c
        if rho >= 1.0:
            raise DivergentSeriesError(
                f"family tail ratio {self.tail_ratio:.6g} does not sum at c={c:.6g}"
            )
        if math.log(1e-20) / math.log(rho) > K_CAP:
            raise DivergentSeriesError(
                f"tail ratio {rho:.8f} at c={c:.6g} converges too slowly"
            )
        return rho

    def _terms(self, ks, c, log_c):
        """q_{k+2} c^k for the sorted integer array ks.

        Log-weight families and terms with k log c > 600 go through exp in
        log space, which raises OverflowError like math.exp; the others are
        q * c^k.
        """
        if self.is_finite:
            w = self._support_arrays()[1]
        else:
            w = self._family_weights(int(ks[-1]) + 2)[ks + 1]
        if self.log_gen is not None:
            return _exp(w + ks * log_c)
        big = ks * log_c > 600.0
        with np.errstate(over="ignore"):
            if not big.any():
                return w * c**ks
            out = np.zeros(len(ks))
            out[~big] = w[~big] * c ** ks[~big]
        big &= w != 0.0
        out[big] = _exp(np.log(w[big]) + ks[big] * log_c)
        return out

    def series_pass(self, c, r=0.0, order=0, shifts=(0,), dr=False):
        """The state (a `_native.Series`) after one series pass of an
        infinite family at (c, r): per shift j the sums of q_{k+2} c^k,
        k q_{k+2} c^k and, when dr, q_{k+2} c^k dh/dr against
        h(order, k + j) for k = -1..cut, with the cut k = st.k - 1 and its
        tail bound st.bound.  With the defaults only the cut is read.

        This is where an infinite family's series are cut, for the solver
        and for `positive_terms` alike.  The pass runs in `_native`'s
        series_sums, or in `_series_py` where the library is not used, over
        the weight cache, grown as the pass asks (`weight_cache`).  Raises
        DivergentSeriesError when the tail does not sum at c (`tail_rho`)
        or certifies no cut within K_CAP terms, OverflowError when a term
        overflows."""
        k_first = self.first_cut()
        st = _series(self.log_gen is not None, c, r, self.tail_rho(c), order,
                     shifts, dr, k_first, K_CAP)
        lib = _native.library()[0]
        w = self.weight_cache(k_first + 2)
        while True:
            st.n_w = len(w)
            if lib is None:
                status = _series_py(st, w)
            else:
                st.w = _native.address(w)
                status = lib.series_sums(ctypes.byref(st))
            if status != SS_WEIGHTS:
                break
            w = self.weight_cache(st.k + 2)
        if status == SS_OVERFLOW:
            raise OverflowError("math range error")
        if status == SS_NO_CUT:
            raise DivergentSeriesError("family tail will not certify")
        return st

    def positive_terms(self, c):
        """Materialize nu-style terms q_{k+2} c^k for k >= -1.

        Returns (ks, values, tail_bound) as numpy arrays and a float.  A
        finite support gives its own terms and a zero bound.  An infinite
        family's terms run from k = -1 to the cut of the series pass
        (`series_pass`), whose bound certifies
        sum_{k > ks[-1]} q_{k+2} c^k (k+2)^2; the values are `_terms`'.
        Raises DivergentSeriesError and OverflowError as the pass does.
        """
        c = float(c)
        log_c = math.log(c)
        if self.is_finite:
            ks = self._support_arrays()[0]
            return ks, self._terms(ks, c, log_c), 0.0
        st = self.series_pass(c)
        ks = np.arange(-1, st.k, dtype=np.int64)
        return ks, self._terms(ks, c, log_c), st.bound

    def scaled(self, t):
        """t * q, used to walk a shape toward its admissibility boundary."""
        if self.is_finite:
            tv = _as_value(t)
            return WeightSequence({k: tv * v for k, v in self.support.items()})
        t = float(t)
        lg = None
        if self.log_gen is not None:
            lg = lambda k, _b=self.log_gen: math.log(t) + _b(k)
        return WeightSequence(
            gen=lambda k: t * float(self.value(k)),
            tail_ratio=self.tail_ratio,
            tail_start=self.tail_start,
            family=None,
            log_gen=lg,
        )

    def deformed(self, g):
        """The vertex-fugacity deformation (q_g)_k = g^((k-2)/2) q_k."""
        if g == 1:
            return self
        g = float(g)
        if not (0.0 < g <= 1.0):
            raise ValueError("deformation parameter must lie in (0, 1]")
        if self.is_finite:
            return WeightSequence(
                {k: float(v) * g ** ((k - 2) / 2.0) for k, v in self.support.items()}
            )
        half_log_g = 0.5 * math.log(g)
        lg = None
        if self.log_gen is not None:
            lg = lambda k, _b=self.log_gen: _b(k) + (k - 2) * half_log_g
        return WeightSequence(
            gen=lambda k: float(self.value(k)) * g ** ((k - 2) / 2.0),
            tail_ratio=self.tail_ratio * math.sqrt(g),
            tail_start=self.tail_start,
            family=None,
            log_gen=lg,
        )

    # -- serialization -------------------------------------------------------

    def to_config(self):
        """JSON-able config; rational weights round-trip bit-exactly."""
        weights = {}
        for k, v in sorted(self.support.items()):
            if isinstance(v, Fraction):
                weights[str(k)] = f"{v.numerator}/{v.denominator}"
            else:
                weights[str(k)] = repr(float(v))
        cfg = {"weights": weights}
        if self.family is not None:
            name, params = self.family
            cfg["family"] = {"name": name, "params": params}
        return cfg

    @staticmethod
    def from_config(cfg):
        fam = cfg.get("family")
        if fam is not None:
            return preset(fam["name"], **fam["params"]).weights
        support = {}
        for k, v in cfg.get("weights", {}).items():
            support[int(k)] = parse_weight(v)
        return WeightSequence(support)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_config(), fh, indent=1)

    @staticmethod
    def load(path):
        with open(path) as fh:
            return WeightSequence.from_config(json.load(fh))

    def __repr__(self):
        if self.family is not None:
            return f"WeightSequence(family={self.family!r})"
        return f"WeightSequence({self.support!r})"


def parse_weight(text):
    """Parse 'p/q' as an exact rational, anything else as a float."""
    if isinstance(text, (int, Fraction)):
        return Fraction(text)
    if isinstance(text, float):
        return text
    text = text.strip()
    if "/" in text:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    try:
        return Fraction(int(text))
    except ValueError:
        return float(text)


# -- the series pass ----------------------------------------------------------


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
    like `WeightSequence._terms`); h(order, order + i) at i = m - 1, m and
    their r-derivatives by `hfun`'s recurrences, from their start values;
    and per shift j the sums of the term, k times the term and, when dr,
    the term times dh/dr against h(order, k + j), zero below the order.
    The pass ends after the first k >= k_first whose tail bound
    q_{k+2} c^k (k+2)^2 rho_k / (1 - rho_k), rho_k = rho e^(2/k), with
    libm's exp, falls below tol times the running total (at least 1): the
    tail cut of every infinite family's series, which `positive_terms`
    reads too.
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
    `WeightSequence.positive_terms` returns."""
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


# -- validation --------------------------------------------------------------


@dataclass
class ValidationReport:
    nonnegative: bool
    nondegenerate: bool
    bipartite: bool
    parity_lattice: int
    ok: bool
    messages: list = field(default_factory=list)


def validate(q: WeightSequence) -> ValidationReport:
    """Non-degeneracy, sign, parity and vertex-count lattice checks."""
    msgs = []
    if q.is_finite:
        items = list(q.support.items())
    else:
        items = list(enumerate(map(q.value, range(1, 128)), 1))
    if not items or all(v == 0 for _, v in items):
        return ValidationReport(True, False, False, 0, False, ["empty support"])
    nonneg = all(v >= 0 for _, v in items)
    if not nonneg:
        msgs.append("negative weight present")
    nondeg = any(k >= 3 and v > 0 for k, v in items)
    if not nondeg:
        msgs.append("no positive weight of degree >= 3")
    bip = q.bipartite
    # vertex-count lattice: k = (d - 2) / 2 for positive even degrees
    # d = 4..514, k = d - 2 for positive odd degrees d = 3..257
    if q.is_finite:
        lattice = {(d - 2) // 2 for d, v in items if v > 0 and d % 2 == 0
                   and 4 <= d <= 514}
        lattice |= {d - 2 for d, v in items if v > 0 and d % 2 == 1
                    and 3 <= d <= 257}
        d = math.gcd(*lattice) if lattice else 0
    else:
        # an infinite family's weights are read one degree at a time, in
        # that order, until the gcd is 1: no later k can change it
        d = 0
        for k, deg in itertools.chain(zip(range(1, 257), range(4, 515, 2)),
                                      zip(range(1, 257, 2), range(3, 258, 2))):
            if d == 1:
                break
            if q.value(deg) > 0:
                d = math.gcd(d, k)
    return ValidationReport(nonneg, nondeg, bip, d, nonneg and nondeg, msgs)


# -- the q <-> nu dictionary ---------------------------------------------------


@dataclass
class StepLawPositive:
    """Positive side of the walk step law: nu(k) = q_{k+2} c_+^k for k >= -1."""

    c_plus: float
    r: float
    nu: dict
    nu_m2: object
    trunc_pos: float = 0.0
    exact: bool = False
    r_exact: Fraction = None

    def nu_at(self, k):
        if k == -2:
            return self.nu_m2
        return self.nu.get(k, 0)

    @property
    def k_pos(self):
        return max(self.nu) if self.nu else 0


def nu_from_q(q: WeightSequence, c_plus, r) -> StepLawPositive:
    """Map face weights to walk step probabilities at spectral point (c_+, r)."""
    if float(c_plus) <= 2.0:
        raise ValueError("c_plus must exceed 2")
    exact = q.is_exact and isinstance(c_plus, (int, Fraction))
    if exact:
        if not isinstance(r, (int, Fraction)):
            raise ValueError("exact mode needs a rational ratio")
        c = Fraction(c_plus)
        nu = {}
        for k in sorted(kk - 2 for kk in q.support):
            v = Fraction(q.value(k + 2)) * c**k
            if v != 0:
                nu[k] = v
        nu_m2 = 2 / c**2
        return StepLawPositive(float(c), float(r), nu, nu_m2, 0.0, True, Fraction(r))
    ks, vals, tail = q.positive_terms(float(c_plus))
    nu = {k: v for k, v in zip(ks.tolist(), vals.tolist()) if v != 0}
    nu_m2 = 2.0 / float(c_plus) ** 2
    return StepLawPositive(float(c_plus), float(r), nu, nu_m2, tail, False)


def q_from_nu(pos) -> WeightSequence:
    """Invert nu(k) = q_{k+2} c_+^k using c_+ = sqrt(2 / nu(-2)).

    q_k = (nu(-2)/2)^((k-2)/2) * nu(k-2); exact rationals survive whenever
    the exponent is an integer (even k), odd degrees go through a float
    square root.  Accepts either the positive-side law or a completed one.
    """
    if hasattr(pos, "nu_m2"):
        nu_m2 = pos.nu_m2
        entries = pos.nu
    else:
        nu_m2 = pos.nu(-2)
        entries = {k: pos.nu(k) for k in range(-1, pos.k_pos + 1)}
    if not nu_m2 > 0:
        raise ValueError("nu(-2) must be positive")
    base = nu_m2 / 2 if isinstance(nu_m2, Fraction) else float(nu_m2) / 2.0
    support = {}
    for k, v in entries.items():
        deg = k + 2
        if deg < 1 or v == 0:
            continue
        expo = deg - 2
        if isinstance(base, Fraction) and isinstance(v, Fraction) and expo % 2 == 0:
            support[deg] = v * base ** (expo // 2)
        else:
            support[deg] = float(v) * float(base) ** (expo / 2.0)
    return WeightSequence(support)


# -- pointed disk coefficients --------------------------------------------------


def pointed_disk(l, c_plus, r):
    """Pointed-disk coefficient c_+^l h(0, l) for root-face degree l."""
    if l < 0:
        raise ValueError("degree must be nonnegative")
    return float(c_plus) ** l * shared_cache(r).value(0, l)


def pointed_disk_binomial(l, z_plus, z_diamond):
    """Mobile-counting cross-form: sum_j l!/(j!^2 (l-2j)!) z+^j z0^(l-2j)."""
    total = 0.0
    for j in range(l // 2 + 1):
        coef = math.factorial(l) // (
            math.factorial(j) ** 2 * math.factorial(l - 2 * j)
        )
        rest = l - 2 * j
        term = coef * float(z_plus) ** j
        term *= float(z_diamond) ** rest if rest else 1.0
        total += term
    return total


# -- presets -------------------------------------------------------------------


@dataclass
class PresetResult:
    weights: WeightSequence
    constants: dict


def _odd_angulation_ratio(p, tol=1e-14):
    """Root in (-1,1) of h(1, 2p+1) - (3-r)/2 * h(1, 2p) at ratio r."""

    def poly(r):
        h = recurrence_list(r, 1, 2 * p + 1)     # h(1, 1 + j)
        return h[2 * p] - 0.5 * (3.0 - r) * h[2 * p - 1]

    lo, hi = -1.0 + 1e-12, 1.0
    flo = poly(lo)
    if not flo < 0:
        raise ValueError("no bracketing at the lower endpoint")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if poly(mid) < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


PRESET_PARAMS = {
    "two_p_angulation": ("p",),
    "odd_angulation": ("p",),
    "geometric": ("H",),
    "symmetric_critical": ("r", "a"),
}


def preset(name, **params) -> PresetResult:
    """Critical weight sequences of the closed-form families.

    two_p_angulation(p>=2), odd_angulation(p>=1), geometric(H>1) and
    symmetric_critical(r, a).  Constants solved in closed form where one
    exists, numerically (bisection on the harmonicity polynomial) for odd
    angulations with p >= 2.  The symmetric family's weights are read from
    `walk.symmetric_nu_table`, one numpy pass per doubling of the degrees
    asked for.  Each family takes exactly the parameters PRESET_PARAMS
    names; a missing or an unread one raises ValueError.
    """
    if name not in PRESET_PARAMS:
        raise ValueError(f"unknown preset {name!r}")
    if sorted(params) != sorted(PRESET_PARAMS[name]):
        raise ValueError(f"{name} takes {', '.join(PRESET_PARAMS[name])}; "
                         f"got {', '.join(params) or 'no parameter'}")
    if name == "two_p_angulation":
        p = int(params["p"])
        if p < 2:
            raise ValueError("two_p_angulation needs p >= 2")
        nu_pos = Fraction(2 ** (2 * p - 1), p * math.comb(2 * p, p))
        nu_m2 = Fraction(p - 1, 2 * p)
        c_sq = Fraction(4 * p, p - 1)
        q = nu_pos * Fraction(p - 1, 4 * p) ** (p - 1)
        w = WeightSequence({2 * p: q}, family=("two_p_angulation", {"p": p}))
        consts = {
            "r": Fraction(1),
            "c_plus": math.sqrt(float(c_sq)),
            "c_plus_sq": c_sq,
            "nu_pos": {2 * p - 2: nu_pos},
            "nu_m2": nu_m2,
            "L_nu": Fraction(4 * (p - 1), 3),
            "q": {2 * p: q},
        }
        return PresetResult(w, consts)

    if name == "odd_angulation":
        p = int(params["p"])
        if p < 1:
            raise ValueError("odd_angulation needs p >= 1")
        r = _odd_angulation_ratio(p)
        cache = shared_cache(r)
        nu_pos = 1.0 / cache.value(1, 2 * p)
        nu_m2 = cache.value(1, 3) - cache.value(1, 2 * p + 2) * nu_pos
        c_plus = math.sqrt(2.0 / nu_m2)
        q = nu_pos * c_plus ** (-(2 * p - 1))
        L_nu = nu_pos * cache.value(2, 2 * p)
        w = WeightSequence({2 * p + 1: q}, family=("odd_angulation", {"p": p}))
        consts = {
            "r": r,
            "c_plus": c_plus,
            "nu_pos": {2 * p - 1: nu_pos},
            "nu_m2": nu_m2,
            "L_nu": L_nu,
            "q": {2 * p + 1: q},
        }
        return PresetResult(w, consts)

    if name == "geometric":
        H = float(params["H"])
        if not H > 1:
            raise ValueError(f"geometric needs H > 1; got H={H!r}")
        sigma = (H**2 + 1) / (H**2 + 3)
        r = (H**2 - 3) / (H**2 + 1)
        c_plus = 2 * (H**2 + 1) / ((H - 1) ** 1.5 * math.sqrt(H + 3))
        L_nu = 0.5 * (H**2 + 1)
        A = 16 * H / ((H + 3) * (H - 1) ** 3)
        B = (H - 1) ** 1.5 * math.sqrt(H + 3) / (2 * (H**2 + 3))
        alpha = (1 - sigma) ** 1.5 * math.sqrt(3 * sigma - 1)
        log_A, log_B = math.log(A), math.log(B)
        w = WeightSequence(
            gen=lambda k: A * B**k,
            tail_ratio=B,
            tail_start=1,
            family=("geometric", {"H": H}),
            log_gen=lambda k: log_A + k * log_B,
        )
        consts = {
            "r": r,
            "c_plus": c_plus,
            "L_nu": L_nu,
            "sigma": sigma,
            "alpha": alpha,
            "q_scale": A,
            "q_ratio": B,
        }
        return PresetResult(w, consts)

    if name == "symmetric_critical":
        from .walk import symmetric_a_max, symmetric_nu_table

        r = float(params["r"])
        a = float(params["a"])
        amax = symmetric_a_max(r)
        if not (0.0 < a <= amax + 1e-12):
            raise ValueError(f"a={a!r} must lie in (0, {amax:.12g}] for r={r}")
        nu = symmetric_nu_table(r, a, 64)
        nu_m2 = float(nu[2])
        c_plus = math.sqrt(2.0 / nu_m2)

        def gen(k):
            # q_k = nu(k - 2) c^(2 - k), read from a table of nu(0..) that
            # doubles when a degree runs past it
            nonlocal nu
            j = abs(k - 2)
            if j >= len(nu):
                nu = symmetric_nu_table(r, a, max(2 * len(nu), j))
            v = float(nu[j])
            if abs(v) < 1e-15:
                # below the table's rounding level a coefficient cannot be
                # told from zero and must not turn into a (tiny negative)
                # face weight
                return 0.0
            return v * c_plus ** (2 - k)

        w = WeightSequence(
            gen=gen,
            tail_ratio=1.0 / c_plus,
            tail_start=5,
            family=("symmetric_critical", {"r": r, "a": a}),
        )
        consts = {
            "r": r,
            "a": a,
            "c_plus": c_plus,
            "nu_m2": nu_m2,
            "L_nu": math.inf,
            "heavy_tail": True,
        }
        return PresetResult(w, consts)


PRESET_ALIASES = {
    "quadrangulation": ("two_p_angulation", {"p": 2}),
    "triangulation": ("odd_angulation", {"p": 1}),
    "uniform": ("geometric", {"H": 3.0}),
}


def preset_by_alias(name, **params):
    """`preset` of a family, or of an alias, which takes no parameter."""
    if name in PRESET_ALIASES:
        if params:
            raise ValueError(f"alias {name} takes no parameter; "
                             f"got {', '.join(params)}")
        base, fixed = PRESET_ALIASES[name]
        return preset(base, **fixed)
    return preset(name, **params)
