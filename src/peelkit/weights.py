"""Face-weight sequences, the q <-> nu dictionary and the preset families.

A weight sequence assigns a nonnegative weight q_k to every face of degree
k.  Finite sequences are plain sparse maps; the closed-form families
(2p-angulations, odd angulations, geometric sequences, the symmetric
critical family) carry a tag plus a generator so that infinite supports
can be materialized lazily with certified geometric tail bounds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DivergentSeriesError
from .hfun import HCache, h_eval

_TAIL_TOL = 1e-16


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
        self._last_cut = 0
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
        integer arrays) and q_d otherwise (one ``gen`` call per new degree,
        which may cost a quadrature).
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

    def positive_terms(self, c, deg=2, tol=_TAIL_TOL, k_min=64, k_cap=60_000):
        """Materialize nu-style terms q_{k+2} c^k for k >= -1.

        Returns (ks, values, tail_bound) as numpy arrays and a float, where
        tail_bound certifies sum_{k > ks[-1]} q_{k+2} c^k (k+2)^deg.  The
        terms are computed a block at a time from the per-sequence weight
        cache; the cut is the first k >= k_min whose tail bound falls below
        tol times the running total (an in-order cumulative sum).  Raises
        DivergentSeriesError when the family tail does not sum at this c,
        or when it sums so slowly that materialization would be hopeless.
        """
        c = float(c)
        log_c = math.log(c)
        if self.is_finite:
            ks = self._support_arrays()[0]
            return ks, self._terms(ks, c, log_c), 0.0
        rho = self.tail_ratio * c
        if rho >= 1.0:
            raise DivergentSeriesError(
                f"family tail ratio {self.tail_ratio:.6g} does not sum at c={c:.6g}"
            )
        if math.log(1e-20) / math.log(rho) > k_cap:
            raise DivergentSeriesError(
                f"tail ratio {rho:.8f} at c={c:.6g} converges too slowly"
            )
        k_first = max(k_min, self.tail_start - 2, 1)
        ks_parts, val_parts = [], []
        total = 0.0
        # first block: up to the last cut for log weights (nearby c cut
        # nearby), the cached weights for the others
        if self.log_gen is not None:
            hi = max(k_min, self._last_cut) + 1
        else:
            hi = max(k_min + 1, min(len(self._weight_cache) - 1, k_cap + 1))
        lo = -1
        while True:
            ks = np.arange(lo, hi, dtype=np.int64)
            vals = self._terms(ks, c, log_c)
            ks_parts.append(ks)
            val_parts.append(vals)
            running = np.cumsum(np.concatenate(([total], vals)))[1:]
            total = float(running[-1])
            # candidate cuts: k >= k_first where rho e^(deg/k) < 1, a suffix
            i0 = max(k_first - lo, 0)
            rho_d = rho * np.exp(deg / ks[i0:])
            skip = int(np.searchsorted(-rho_d, -1.0, "right"))
            i0 += skip
            rho_d = rho_d[skip:]
            bound = vals[i0:] * (ks[i0:] + 2) ** deg * rho_d / (1.0 - rho_d)
            hit = np.flatnonzero(bound < tol * np.maximum(1.0, running[i0:]))
            if len(hit):
                cut = i0 + int(hit[0])
                self._last_cut = int(ks[cut])
                ks_parts[-1] = ks[: cut + 1]
                val_parts[-1] = vals[: cut + 1]
                return (np.concatenate(ks_parts), np.concatenate(val_parts),
                        float(bound[hit[0]]))
            if hi > k_cap:
                raise DivergentSeriesError("family tail will not certify")
            lo = hi
            if self.log_gen is not None:
                hi = min(2 * hi, k_cap + 1)
            else:
                # gen-only families: never evaluate a weight past the cut
                hi = max(hi + 1, min(len(self._weight_cache) - 1, k_cap + 1))

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
        items = [(k, q.value(k)) for k in range(1, 128)]
    if not items or all(v == 0 for _, v in items):
        return ValidationReport(True, False, False, 0, False, ["empty support"])
    nonneg = all(v >= 0 for _, v in items)
    if not nonneg:
        msgs.append("negative weight present")
    nondeg = any(k >= 3 and v > 0 for k, v in items)
    if not nondeg:
        msgs.append("no positive weight of degree >= 3")
    bip = q.bipartite
    lattice = {k for k in range(1, 257) if q.value(2 * k + 2) > 0}
    lattice |= {k for k in range(1, 257, 2) if q.value(k + 2) > 0}
    d = math.gcd(*lattice) if lattice else 0
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


def nu_from_q(q: WeightSequence, c_plus, r, tol=_TAIL_TOL) -> StepLawPositive:
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
    ks, vals, tail = q.positive_terms(float(c_plus), deg=2, tol=tol)
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
    cache = HCache(float(r), mode="float")
    return float(c_plus) ** l * h_eval(cache, 0, l)


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
        cache = HCache(r, mode="float")
        return h_eval(cache, 1, 2 * p + 1) - 0.5 * (3.0 - r) * h_eval(cache, 1, 2 * p)

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


def preset(name, **params) -> PresetResult:
    """Critical weight sequences of the closed-form families.

    two_p_angulation(p>=2), odd_angulation(p>=1), geometric(H>1) and
    symmetric_critical(r, a).  Constants solved in closed form where one
    exists, numerically (bisection on the harmonicity polynomial) for odd
    angulations with p >= 2.
    """
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
        cache = HCache(r, mode="float")
        nu_pos = 1.0 / h_eval(cache, 1, 2 * p)
        nu_m2 = h_eval(cache, 1, 3) - h_eval(cache, 1, 2 * p + 2) * nu_pos
        c_plus = math.sqrt(2.0 / nu_m2)
        q = nu_pos * c_plus ** (-(2 * p - 1))
        L_nu = nu_pos * h_eval(cache, 2, 2 * p)
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
            raise ValueError("geometric needs H > 1")
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
        from .walk import symmetric_a_max, symmetric_nu_value

        r = float(params["r"])
        a = float(params["a"])
        amax = symmetric_a_max(r)
        if not (0.0 < a <= amax + 1e-12):
            raise ValueError(f"a must lie in (0, {amax:.12g}] for r={r}")
        nu_m2 = symmetric_nu_value(r, a, 2)
        c_plus = math.sqrt(2.0 / nu_m2)

        def gen(k, _c=c_plus, _r=r, _a=a):
            v = symmetric_nu_value(_r, _a, k - 2)
            if abs(v) < 3e-13:
                # quadrature noise on parity zeros must not turn into
                # (tiny negative) face weights
                return 0.0
            return v * _c ** (2 - k)

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

    raise ValueError(f"unknown preset {name!r}")


PRESET_ALIASES = {
    "quadrangulation": ("two_p_angulation", {"p": 2}),
    "triangulation": ("odd_angulation", {"p": 1}),
    "uniform": ("geometric", {"H": 3.0}),
}


def preset_by_alias(name, **params):
    if name in PRESET_ALIASES:
        base, defaults = PRESET_ALIASES[name]
        merged = dict(defaults)
        merged.update(params)
        return preset(base, **merged)
    return preset(name, **params)
