"""Complete the positive step law to a full two-sided walk law.

The negative jump probabilities of a critical law are linear images of the
positive ones through the kernel

    R_r(k, m) = sum_{p=0}^{m-1} h(1, m-p) [ h(-2, k+p-1) + r h(-2, k+p-2) ],
    nu(-k)    = sum_{m>=1} R_r(k, m) nu(m),

which also produces the disk coefficients W(l) = nu(-l-2) c_+^(l+2) / 2 and
the derived constants: the perimeter constant L = sum nu(k) h(2, k+1), the
volume constant B = 4 nu(-2) / (3 (1+r) L) and the negative-tail constant
3 L sqrt(1+r) / (4 sqrt(pi)).

The module also hosts the symmetric critical family, whose step law is
prescribed directly through its characteristic function
phi(theta) = 1 - 2 a sqrt(1 + r^2 + 2 r cos theta) |sin(theta/2)|.  Its
coefficients nu(0..K) come from one numpy pass (`symmetric_nu_table`): an
rfft for the Fourier coefficients of the square root, convolved with the
exact ones of |sin(theta/2)|; r = 1 has a closed form.  Its tail is heavy,
nu(k) ~ c2 / k^2, so its admissibility margin and the harmonicity residuals
of h(0, .) and h(1, .) sum a fitted tail model against h out to l = 2^18
and extrapolate the rest.  Those sums run in one streamed pass of 8192
lattice points at a time (`_heavy_positive_sums`), with h from a
`hfun.TableStream`: no h table past the law's range is stored, and the
doubles are those of one cumulative sum over the whole lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _native
from .errors import InconsistentCriticalityError, RangeError
from .hfun import HCache, TableStream, shared_cache
from .seriesutil import checkpoint_indices, extrapolate_checkpoints
from .weights import StepLawPositive

DEFAULT_K_NEG = 512


@dataclass
class StepLaw:
    """Two-sided step distribution nu on k in [-k_neg, k_pos]."""

    r: float
    c_plus: float
    k_neg: int
    k_pos: int
    probs: np.ndarray          # probs[i] = nu(i - k_neg)
    L_nu: float
    B_nu: float
    tail_const: float
    trunc_neg: float = 0.0
    trunc_pos: float = 0.0
    exact: dict = None
    family: tuple = None
    heavy_tail: bool = False
    critical: bool = True
    margin: float = 0.0
    residuals: dict = field(default_factory=dict)

    def nu(self, k):
        """nu(k); exact rational when the law carries exact values."""
        if self.exact is not None and k in self.exact:
            return self.exact[k]
        if -self.k_neg <= k <= self.k_pos:
            return float(self.probs[k + self.k_neg])
        return 0.0

    @property
    def ks(self):
        return np.arange(-self.k_neg, self.k_pos + 1)

    def hcache(self):
        return shared_cache(self.r)

    def total_mass(self):
        return float(self.probs.sum())

    # mean, char_function and every sum in this module go by ufunc, not
    # BLAS: a threaded dot or gemv on a long vector can stall for ~0.1 s on
    # a busy host
    def mean(self):
        return float(np.add.reduce(self.ks * self.probs))

    def char_function(self, thetas):
        """phi(theta) = sum nu(k) exp(i k theta) over the materialized range."""
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        phase = np.exp(1j * np.outer(thetas, self.ks))
        return np.add.reduce(phase * self.probs, axis=1)

    def digest(self):
        """16 hex digits of a sha256 of nu's bytes, r and c_plus, kept on
        the law against exactly what they read: the bytes, dtype and shape
        of probs and the reprs of r and c_plus.  An in-place edit of probs
        or a new r or c_plus is seen (r = 0.0 and -0.0 differ), and a new
        probs with the same bytes keeps the digest."""
        probs = self.probs
        read = (probs.tobytes(), probs.dtype, probs.shape, repr(self.r), repr(self.c_plus))
        kept = self.__dict__.get("_digest")
        if kept is not None and kept[0] == read:
            return kept[1]
        import hashlib

        h = hashlib.sha256()
        h.update(read[0])
        h.update(f"{read[3]}|{read[4]}".encode())
        self._digest = read, h.hexdigest()[:16]
        return self._digest[1]

    def to_csv(self, path):
        """Columnar export: metadata block in '#' comments, then k, nu_k."""
        with open(path, "w") as fh:
            fh.write(f"# r={self.r!r}\n# c_plus={self.c_plus!r}\n")
            fh.write(f"# L_nu={self.L_nu!r}\n# B_nu={self.B_nu!r}\n")
            fh.write(f"# trunc_neg={self.trunc_neg!r}\n")
            fh.write(f"# trunc_pos={self.trunc_pos!r}\n")
            fh.write("k,nu_k\n")
            for k, p in zip(self.ks, self.probs):
                fh.write(f"{int(k)},{float(p)!r}\n")


# -- kernel -----------------------------------------------------------------


def kernel_R(r, k, m, cache=None):
    """The linear kernel mapping positive step mass to negative jumps."""
    if k < 1 or m < 1:
        raise ValueError("kernel arguments start at 1")
    if cache is None:
        cache = shared_cache(r)
    r_val = cache.r
    total = 0 if cache.mode == "exact" else 0.0
    for p in range(m):
        neg = cache.value(-2, k + p - 1) + r_val * cache.value(-2, k + p - 2)
        total += cache.value(1, m - p) * neg
    return total


def kernel_R_bipartite_closed(k2, m2):
    """Closed form of the kernel at r = 1 on even arguments (2k, 2m)."""
    if k2 % 2 or m2 % 2:
        raise ValueError("closed form lives on even arguments")
    k, m = k2 // 2, m2 // 2
    num = Fraction(m * (2 * m + 1), (m + k) * (2 * k - 1))
    return num * Fraction(math.comb(2 * k, k) * math.comb(2 * m, m), 4 ** (m + k))


def complete_nu(pos: StepLawPositive, k_neg=DEFAULT_K_NEG, exact=None,
                critical=True) -> StepLaw:
    """Extend a positive law to the full two-sided step law.

    With critical=True (the default) the negative side comes from the
    kernel R_r, whose derivation replaces nu(0) using the harmonicity of
    h(1, .); the reconstruction of nu(-2) must then reproduce 2/c_+^2 (to
    1e-9) and a mismatch raises InconsistentCriticalityError.  With
    critical=False the completion uses the generating-function identity
    before that substitution,

        nu(-k) = -G(k-1) + sum_{l>=0} G(l+k-1) sum_{m>=l} nu(m) h(0, m-l),
        G(j)   = h(-1, j) + r h(-1, j-1),

    which only needs admissibility and also covers subcritical laws.
    """
    r = pos.r
    c = pos.c_plus
    k_pos = max((k for k in pos.nu if k >= 1), default=0)
    if exact is None:
        exact = pos.exact and k_pos <= 64 and critical

    cache = shared_cache(r)
    nu_pos_vec = np.zeros(2 * k_pos + 1)  # nu(m) for m = 0..k_pos, zero padded
    for k, v in pos.nu.items():
        if k >= 0:
            nu_pos_vec[k] = float(v)

    # Both completions read nu(-k) = sum_p A[p] G[k+p] for k = 1..k_neg, with
    # A[p] = sum_m nu(m) h(o, m-p) and G[i] = h(g, i-1) + r h(g, i-2): the
    # critical kernel has (o, g) = (1, -2), the admissible identity (0, -1)
    # and subtracts G[k].  Both correlations are direct sums; an FFT's
    # absolute error would swamp the k^(-5/2) tail.
    o, g = (1, -2) if critical else (0, -1)
    A = np.correlate(nu_pos_vec, cache.array(o, k_pos), "valid")
    n = k_neg + k_pos
    hg = cache.table(g, n)  # hg[j] = h(g, g+j)
    G = hg[-g : n - g] + r * hg[-g - 1 : n - g - 1]  # G[i-1] for i = 1..n
    nu_neg = np.zeros(k_neg + 1)  # nu_neg[k] = nu(-k)
    nu_neg[1:] = np.correlate(G, A, "valid")
    if not critical:
        nu_neg[1:] -= G[:k_neg]

    # parity zeros cancel only to rounding level in float; snap them
    nu_neg[np.abs(nu_neg) < 1e-14] = 0.0
    nu_m2_target = 2.0 / c**2
    if critical and abs(nu_neg[2] - nu_m2_target) > 1e-9:
        raise InconsistentCriticalityError(
            f"kernel nu(-2)={nu_neg[2]!r} vs 2/c^2={nu_m2_target!r}; "
            "the positive law is not critical"
        )

    exact_map = None
    if exact and pos.r_exact is not None:
        cache_x = HCache(pos.r_exact)
        exact_map = {}
        for k, v in pos.nu.items():
            exact_map[k] = Fraction(v)
        exact_map[-2] = Fraction(pos.nu_m2)
        for k in range(1, min(k_neg, 64) + 1):
            if k == 2:
                continue
            val = sum(
                kernel_R(cache_x.r, k, m, cache_x) * Fraction(pos.nu[m])
                for m in pos.nu
                if m >= 1
            )
            if val != 0:
                exact_map[-k] = val

    probs = np.zeros(k_neg + k_pos + 1)
    probs[k_neg - 1 :: -1] = nu_neg[1:]
    probs[k_neg - 2] = nu_m2_target
    nu_m1_kernel = nu_neg[1]
    for k, v in pos.nu.items():
        probs[k + k_neg] = float(v)

    h2 = cache.array(2, k_pos + 1)
    # the positive truncation carried by the materialization already covers
    # the degree-3/2 growth of h(2, k+1)
    L_nu = float(np.add.reduce(nu_pos_vec[1 : k_pos + 1] * h2[2:]))
    B_nu = 4.0 * nu_m2_target / (3.0 * (1.0 + r) * L_nu)
    tail_const = 3.0 * L_nu * math.sqrt(1.0 + r) / (4.0 * math.sqrt(math.pi))
    # estimated mass beyond the materialized negative range (k^{-5/2} tail)
    trunc_neg = tail_const * (2.0 / 3.0) * k_neg ** (-1.5)

    law = StepLaw(
        r=r,
        c_plus=c,
        k_neg=k_neg,
        k_pos=k_pos,
        probs=probs,
        L_nu=L_nu,
        B_nu=B_nu,
        tail_const=tail_const,
        trunc_neg=trunc_neg,
        trunc_pos=pos.trunc_pos,
        exact=exact_map,
        family=None,
        heavy_tail=False,
        critical=critical,
    )
    law.residuals = {
        "nu_m2_kernel": nu_neg[2] - nu_m2_target,
        "nu_m1_kernel": nu_m1_kernel - float(pos.nu.get(-1, 0.0)),
    }
    return law


def deepen_negative(law: StepLaw, k_neg) -> StepLaw:
    """Rebuild the law with a deeper materialized negative range."""
    if k_neg <= law.k_neg:
        return law
    pos = StepLawPositive(
        c_plus=law.c_plus,
        r=law.r,
        nu={k: float(law.probs[k + law.k_neg])
            for k in range(-1, law.k_pos + 1)
            if law.probs[k + law.k_neg] > 0},
        nu_m2=2.0 / law.c_plus**2,
        trunc_pos=law.trunc_pos,
        exact=False,
    )
    return complete_nu(pos, k_neg=k_neg, exact=False, critical=law.critical)


def disk_coefficient(law: StepLaw, l):
    """Disk weight W(l) = nu(-l-2) c_+^(l+2) / 2."""
    if l < 0:
        raise ValueError("degree must be nonnegative")
    if l + 2 > law.k_neg:
        raise RangeError(f"need nu(-{l + 2}); law materialized to {law.k_neg}")
    v = law.nu(-(l + 2))
    if isinstance(v, Fraction) and isinstance(law.exact.get(-2), Fraction):
        c_sq = 2 / law.exact[-2]
        if (l + 2) % 2 == 0:
            return v * c_sq ** ((l + 2) // 2) / 2
    return float(v) * law.c_plus ** (l + 2) / 2.0


def expected_volume(law: StepLaw, l):
    """Mean vertex count of a Boltzmann map with root-face degree l,
    h(0, l) nu(-2) / nu(-l - 2); for an integer numpy array l, the same
    doubles per entry."""
    if isinstance(l, np.ndarray) and l.ndim:
        return _expected_volumes(law, l)
    if l < 1:
        raise ValueError("degree must be positive")
    if l + 2 > law.k_neg:
        raise RangeError(f"need nu(-{l + 2}); law materialized to {law.k_neg}")
    denom = float(law.nu(-(l + 2)))
    if denom == 0.0:
        raise RangeError(f"nu(-{l + 2}) vanishes (parity); degenerate degree")
    h0 = law.hcache().value(0, l)
    return h0 * float(law.nu(-2)) / denom


def _expected_volumes(law, ls):
    """expected_volume per entry of the integer array ls, in one pass."""
    if not len(ls):
        return np.zeros(0)
    lo, hi = int(ls.min()), int(ls.max())
    if lo < 1:
        raise ValueError("degree must be positive")
    if hi + 2 > law.k_neg:
        raise RangeError(f"need nu(-{hi + 2}); law materialized to {law.k_neg}")
    # nu(-l - 2) per entry, the law's exact values where it carries them
    denom = law.probs[law.k_neg - 2 - ls]
    for k, v in (law.exact or {}).items():
        if -hi - 2 <= k <= -lo - 2:
            denom[ls == -k - 2] = float(v)
    if not denom.all():
        bad = int(ls[denom == 0][0]) + 2
        raise RangeError(f"nu(-{bad}) vanishes (parity); degenerate degree")
    return law.hcache().table(0, hi)[ls] * float(law.nu(-2)) / denom


# -- symmetric critical family -------------------------------------------------


def symmetric_a_max(r):
    """Largest amplitude a for which the symmetric law stays a probability."""
    r = float(r)
    if not (-1.0 < r <= 1.0):
        raise ValueError("ratio must lie in (-1, 1]")
    if r == 0.0 or r == 1.0:
        return math.pi / 4.0
    if 0.0 < r < 1.0:
        d = 2.0 * (r + 1.0) + (r - 1.0) ** 2 / math.sqrt(r) * math.atanh(
            2.0 * math.sqrt(r) / (r + 1.0)
        )
        return math.pi / d
    d = 2.0 * (r + 1.0) + (r - 1.0) ** 2 / math.sqrt(-r) * math.atan(
        2.0 * math.sqrt(-r) / (r + 1.0)
    )
    return math.pi / d


# the FFT behind the coefficients of s(theta) has at most this many points;
# the ratios it cannot resolve are refused, not approximated
_SYMMETRIC_FFT_MAX = 1 << 22
# elements per block of the direct convolution sum
_SYMMETRIC_BLOCK = 1 << 18


def symmetric_nu_table(r, a, k_max):
    """nu(0..k_max) of the symmetric family, as one read-only float64 array.

    With s(theta) = sqrt(1 + r^2 + 2 r cos theta) = sum_m sigma_m e^(im theta)
    and |sin(theta/2)| = sum_j w_j e^(ij theta), w_j = -2 / (pi (4 j^2 - 1)),

        nu(k) = delta_{k0} - 2 a sum_m sigma_m w_{k-m}.

    s is analytic for |r| < 1 and |sigma_m| decays like |r|^|m|, so the sigma_m
    with |m| <= M = ceil(37 / -ln|r|) carry everything above 1e-16; one rfft on
    n >= 2M + 2 points gives them with aliasing below that level.  The sum
    over m is a blocked direct sum, which keeps relative accuracy in the
    k^-2 tail.  The cost grows like 1 / (1 - |r|); ratios that would need
    more than 2^22 FFT points raise ValueError.  r = 1 is the closed form
    of `symmetric_nu_closed_r1`.
    """
    r = float(r)
    a = float(a)
    k_max = int(k_max)
    if not (-1.0 < r <= 1.0):
        raise ValueError("ratio must lie in (-1, 1]")
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    if r == 1.0:
        vals = np.zeros(k_max + 1)
        ks = np.arange(0, k_max + 1, 2, dtype=float)
        vals[::2] = (4.0 * a / math.pi) / (ks * ks - 1.0)
        vals[0] += 1.0
    else:
        M = 0 if r == 0.0 else math.ceil(37.0 / -math.log(abs(r)))
        n = 1 << max(3, (2 * M + 1).bit_length())
        if n > _SYMMETRIC_FFT_MAX:
            r_cap = math.exp(-37.0 / (_SYMMETRIC_FFT_MAX // 2 - 1))
            raise ValueError(
                f"ratio {r!r} too close to +-1: the symmetric family is "
                f"supported for |r| <= {r_cap:.10f} and at r = 1"
            )
        theta = np.arange(n) * (2.0 * math.pi / n)
        s = np.sqrt(1.0 + r * r + 2.0 * r * np.cos(theta))
        sigma = np.fft.rfft(s).real[: M + 1] / n
        sigma = np.concatenate([sigma[:0:-1], sigma])  # sigma_m, m = -M..M
        j = np.arange(-M, k_max + M + 1, dtype=float)
        w = -2.0 / (math.pi * (4.0 * j * j - 1.0))
        # row k of the window holds w_{k-m} for m = M..-M, against sigma_m
        # in that order (sigma is even)
        window = np.lib.stride_tricks.sliding_window_view(w, 2 * M + 1)
        rows = max(1, _SYMMETRIC_BLOCK // (2 * M + 1))
        conv = np.empty(k_max + 1)
        for k0 in range(0, k_max + 1, rows):
            conv[k0 : k0 + rows] = np.add.reduce(
                window[k0 : k0 + rows] * sigma, axis=1)
        vals = -2.0 * a * conv
        vals[0] += 1.0
    vals.flags.writeable = False
    return vals


def symmetric_nu_value(r, a, k):
    """nu(k) of the symmetric family, read from `symmetric_nu_table`."""
    k = abs(int(k))
    return float(symmetric_nu_table(r, a, k)[k])


def symmetric_nu_closed_r1(a, k):
    """Bipartite closed form: nu(k) = delta_{k0}(1 - 4a/pi) + (4a/pi)/(k^2-1)."""
    k = abs(int(k))
    if k == 0:
        return 1.0 - 4.0 * a / math.pi
    if k % 2:
        return 0.0
    return (4.0 * a / math.pi) / (k * k - 1.0)


def symmetric_family(r, a, k_pos=512) -> StepLaw:
    """The symmetric critical step law with amplitude a at ratio r.

    Symmetric by construction (nu(-k) = nu(k)); critical but heavy-tailed:
    nu(k) ~ const / k^2, so the perimeter constant diverges.  Amplitudes
    beyond a_max(r) would make nu(0) negative and are refused.  The
    coefficients come from `symmetric_nu_table`.
    """
    r = float(r)
    a = float(a)
    amax = symmetric_a_max(r)
    if not (0.0 < a <= amax + 1e-12):
        raise ValueError(
            f"amplitude {a} outside (0, {amax:.12g}]: nu(0) would go negative"
        )
    vals = symmetric_nu_table(r, a, k_pos)
    vals = np.where(np.abs(vals) < 1e-15, 0.0, vals)
    if vals[0] < -1e-12:
        raise ValueError("nu(0) negative: amplitude out of range")
    vals[0] = max(vals[0], 0.0)
    nu_m2 = vals[2]
    c_plus = math.sqrt(2.0 / nu_m2)

    probs = np.concatenate([vals[:0:-1], vals])
    law = StepLaw(
        r=r,
        c_plus=c_plus,
        k_neg=k_pos,
        k_pos=k_pos,
        probs=probs,
        L_nu=math.inf,
        B_nu=math.nan,
        tail_const=math.nan,
        trunc_neg=float(2.0 * a * (1.0 + r) / math.pi / k_pos),
        trunc_pos=float(2.0 * a * (1.0 + r) / math.pi / k_pos),
        exact=None,
        family=("symmetric_critical", {"r": r, "a": a}),
        heavy_tail=True,
    )
    # one tail fit and one streamed pass per order of h serve all three
    # sums: the margin's h(1, l + 1) and the residuals' h(0, l + k)
    positive = _heavy_positive_sums(law, _heavy_tail(law),
                                    ((1, 1), (0, 1), (0, 2)))
    law.margin = 1.0 - (float(law.probs[law.k_neg]) * law.hcache().value(1, 1)
                        + positive[0])
    law.residuals = {
        "harmonic_h0_k1": _heavy_residual(law, 0, 1, positive[1]),
        "harmonic_h0_k2": _heavy_residual(law, 0, 2, positive[2]),
    }
    return law


# a heavy-tailed law's tail sums run over the lattice points below
# _TAIL_END, _TAIL_CHUNK of them at a time
_TAIL_END = 1 << 18
_TAIL_CHUNK = 8192


def _heavy_tail(law):
    """(start, lattice, c2, c4): the fit nu(l) ~ c2/l^2 + c4/l^4 on the
    outer materialized window, the lattice of the law's support and its
    first point past the materialized law."""
    K = law.k_pos
    ks, vs = [], []
    for k in range(max(K // 2, 8), K + 1):
        v = float(law.probs[k + law.k_neg])
        if v > 0:
            ks.append(k)
            vs.append(v)
    ks = np.asarray(ks, dtype=float)
    A = np.vstack([ks**-2.0, ks**-4.0]).T
    c2, c4 = np.linalg.lstsq(A, np.asarray(vs), rcond=None)[0]
    lattice = 2 if law.r == 1.0 else 1
    start = K + lattice - (K % lattice) if K % lattice else K + lattice
    return start, lattice, c2, c4


def _heavy_positive_sums(law, tail, pairs):
    """[sum_{l >= 1} h(o, l + k) nu(l) for (o, k) in pairs] of a
    heavy-tailed law: a direct sum over the materialized law, then the
    tail of `_heavy_tail`, the model's nu(l) on the lattice points l =
    start, start + lattice, ... below _TAIL_END, extrapolated from its
    partial sums (`extrapolated_partial_sums`).

    The tail is one pass of _TAIL_CHUNK lattice points at a time: the
    model terms (numpy's power, whose SIMD doubles differ from libm's pow
    in the last bit for some l), each order's h from one `TableStream`,
    which stores no table past the law's range, and the running sums of
    `_lattice_sums`, carried from chunk to chunk.  Only the partial sums
    the extrapolation reads are kept: the doubles of one cumulative sum
    over the whole lattice, which also ends at the last of them.
    """
    start, lattice, c2, c4 = tail
    K = law.k_pos
    cache = law.hcache()
    nu = law.probs[law.k_neg + 1 : law.k_neg + K + 1]
    direct = [float(np.add.reduce(cache.array(o, K + k)[1 + k :] * nu))
              for o, k in pairs]
    orders = sorted({o for o, _ in pairs})
    rows = [orders.index(o) for o, _ in pairs]
    # h(o, l + k) sits at index l + k - o of order o's table
    shifts = [k - o for o, k in pairs]
    lo, hi = min(shifts), max(shifts)
    cols = [s - lo for s in shifts]
    stream = TableStream(law.r, orders, start + lo - 1)
    lib = _native.library()[0]
    idx = checkpoint_indices(len(range(start, _TAIL_END, lattice)), 4)
    stop = max(idx) + 1
    carry = np.full(len(pairs), -0.0)   # -0.0 + x is x for every x
    sums = np.empty((len(pairs), _TAIL_CHUNK))
    kept = np.empty((len(pairs), len(idx)))
    for i0 in range(0, stop, _TAIL_CHUNK):
        n = min(_TAIL_CHUNK, stop - i0)
        l0 = start + i0 * lattice
        span = (n - 1) * lattice + 1
        # no window or model terms outlive the call, so that the next
        # chunk's are made with only these freed
        _lattice_sums(stream.window(l0 + lo, l0 + hi + span), rows, cols,
                      lattice, _tail_model(l0, span, lattice, c2, c4), carry,
                      sums, lib)
        for j, i in enumerate(idx):
            if i0 <= i < i0 + n:
                kept[:, j] = sums[:, i - i0]
    return [d + extrapolate_checkpoints(ss, idx, float(start), float(lattice))[0]
            for d, ss in zip(direct, kept)]


def _tail_model(l0, span, lattice, c2, c4):
    """c2 l^-2 + c4 l^-4 at l = l0, l0 + lattice, ... below l0 + span, in
    place over two arrays."""
    l = np.arange(l0, l0 + span, lattice, dtype=float)
    model = np.power(l, -2.0)
    model *= c2
    tail4 = np.power(l, -4.0, out=l)
    tail4 *= c4
    model += tail4
    return model


def _lattice_sums_py(h, rows, cols, lattice, w, carry, out):
    """out[p, i] = carry[p] + sum_{i' <= i} h[rows[p], cols[p] + i' lattice]
    w[i'] for i < len(w), summed in turn as np.cumsum does; carry[p] ends
    as the last of them."""
    n = len(w)
    for p, (row, col) in enumerate(zip(rows, cols)):
        terms = h[row, col : col + (n - 1) * lattice + 1 : lattice] * w
        terms[0] += carry[p]
        np.cumsum(terms, out=out[p, :n])
        carry[p] = out[p, n - 1]


def _lattice_sums(h, rows, cols, lattice, w, carry, out, lib):
    """`_lattice_sums_py`'s sums, by the compiled ``lattice_sums`` when lib
    is the loaded library (it adds in a register, where np.cumsum stores
    and reloads each sum): the same doubles.  h and out are float64 arrays
    whose rows are contiguous, w and carry contiguous float64 arrays."""
    if lib is None:
        _lattice_sums_py(h, rows, cols, lattice, w, carry, out)
        return
    off = np.array(rows, dtype=np.int64) * (h.strides[0] // 8) + cols
    lib.lattice_sums(h.ctypes.data, _native.address(off), len(rows), lattice,
                     _native.address(w), len(w), _native.address(carry),
                     out.ctypes.data, out.strides[0] // 8)


def _heavy_residual(law, order, k, positive):
    """`harmonic_residual` of a heavy-tailed law, given its positive side
    sum_{l >= 1} h(order, l + k) nu(l) (`_heavy_positive_sums`)."""
    h = law.hcache().array(order, k)
    # h(order, m) read at m >= 0, where `HCache.array` holds it
    ls = np.arange(max(max(order, 0) - k, -law.k_neg), 0)
    total = float(np.add.reduce(h[ls + k] * law.probs[ls + law.k_neg]))
    total += float(law.probs[law.k_neg]) * h[k]
    total += positive
    return abs(total - h[k])


def harmonic_residual(law: StepLaw, order, k):
    """|sum_l h(order, l+k) nu(l) - h(order, k)| for the materialized law.

    The negative side is finite because h vanishes below its order; the
    positive side is summed directly for regular laws and tail-accelerated
    for heavy-tailed symmetric laws.
    """
    if law.heavy_tail:
        positive, = _heavy_positive_sums(law, _heavy_tail(law), ((order, k),))
        return _heavy_residual(law, order, k, positive)
    h = law.hcache().array(order, law.k_pos + k + 1)
    ls = np.arange(-law.k_neg, law.k_pos + 1)
    idx = ls + k
    mask = idx >= 0
    total = float(np.add.reduce(h[idx[mask]] * law.probs[mask]))
    return abs(total - h[k])
