"""Monte Carlo diagnostics for the stable scaling limits.

The perimeter of the infinite-map chain rescales by (sqrt(1+r) L n)^(2/3)
and the volume by (8/(3 c_+^2)) (L/(1+r))^(1/3) n^(4/3); the limits are
universal across regular critical weight sequences, so acceptance rests on
cross-model quantile collapse, exponent regressions, the characteristic
function of the unconditioned walk against

    exp( -|theta|^(1/2) (|theta| - i theta) / sqrt(2) ),

and the vertex-fugacity slope of the spectral constant,

    (1 - c_+(g)/c_+(1)) / sqrt(1-g)  ->  sqrt(16 / (3 (1+r) c_+^2 L)).

The walk's endpoint in the characteristic-function test is drawn from its
exact law: the sum of its common jumps (k >= -ECF_K_COMMON) from their
convolution power, built by FFT once per distinct step count, and its rarer
deep jumps one by one.  No direct sampler of the limit processes is
attempted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .criticality import _solve_valid, solve_boltzmann
from .peeling import _check_integers, _rng, simulate_ensemble
from .seriesutil import richardson_limit
from .walk import StepLaw, complete_nu, deepen_negative
from .weights import WeightSequence, nu_from_q

DEFAULT_QUANTILES = (0.10, 0.25, 0.50, 0.75, 0.90)
# groups of a quantile's Monte Carlo standard error, and so the fewest
# chains collapse_test takes
SE_GROUPS = 16
# ecf_test's split of the step law (common jumps k >= -ECF_K_COMMON, a deep
# block down to the law deepened to ECF_K_DEEP) and its samples per chunk
ECF_K_COMMON = 1024
ECF_K_DEEP = 1 << 17
ECF_CHUNK = 20_000


def _refuse_heavy(*laws):
    """ValueError for a heavy-tailed law: its perimeter normalizer is
    infinite, and the 3/2-stable limit these tests check is not its limit."""
    for law in laws:
        if law.heavy_tail:
            raise ValueError("the scaling tests need a law with a finite L_nu; "
                             "a heavy-tailed law has no 3/2-stable limit")


def perimeter_normalizer(law: StepLaw, n):
    return (math.sqrt(1.0 + law.r) * law.L_nu * n) ** (2.0 / 3.0)


def volume_normalizer(law: StepLaw, n):
    return (8.0 / (3.0 * law.c_plus**2)) * (
        law.L_nu / (1.0 + law.r)
    ) ** (1.0 / 3.0) * n ** (4.0 / 3.0)


def rescale(perimeters, volumes, law: StepLaw, n, t=1.0):
    """Rescaled samples (l_hat, V_hat) at time t of an n-step run."""
    step = int(n * t)
    if step > n:
        raise ValueError("trace shorter than requested time")
    a = perimeter_normalizer(law, n)
    b = volume_normalizer(law, n)
    return np.asarray(perimeters) / a, np.asarray(volumes) / b


def limit_ecf(thetas):
    thetas = np.asarray(thetas, dtype=float)
    return np.exp(-np.abs(thetas) ** 0.5 * (np.abs(thetas) - 1j * thetas)
                  / math.sqrt(2.0))


def _quantile_with_se(samples, qs, groups=SE_GROUPS):
    """Quantiles at the sequence qs plus group-split Monte Carlo standard
    errors.  The groups are ``np.array_split``'s, the first len % groups
    one sample longer, and each group size's quantiles come from one call
    along its rows; fewer samples than groups raise ValueError."""
    samples = np.asarray(samples, dtype=float)
    size, longer = divmod(len(samples), groups)
    if not size:
        raise ValueError(f"{len(samples)} samples cannot fill {groups} groups")
    vals = np.quantile(samples, qs)
    cut = longer * (size + 1)
    # one row per group, in the row order (C order) that the sums of std read
    per_group = np.empty((groups, len(qs)))
    for rows, part in ((slice(0, longer), samples[:cut]), (slice(longer, groups), samples[cut:])):
        if len(part):
            per_group[rows] = np.quantile(part.reshape(rows.stop - rows.start, -1), qs,
                                          axis=1).T
    ses = per_group.std(axis=0, ddof=1) / math.sqrt(groups)
    return vals, ses


@dataclass
class EcfReport:
    n: int
    n_samples: int
    thetas: np.ndarray
    empirical: np.ndarray
    limit: np.ndarray
    discrepancy: np.ndarray
    std_error: np.ndarray

    def max_discrepancy(self):
        return float(self.discrepancy.max())

    def to_report(self):
        return {
            "n": self.n,
            "n_samples": self.n_samples,
            "rows": [
                {
                    "theta": float(t),
                    "ecf_re": float(e.real),
                    "ecf_im": float(e.imag),
                    "limit_re": float(c.real),
                    "limit_im": float(c.imag),
                    "abs_diff": float(d),
                    "std_error": float(s),
                }
                for t, e, c, d, s in zip(
                    self.thetas, self.empirical, self.limit,
                    self.discrepancy, self.std_error,
                )
            ],
        }


class _CommonPowers:
    """Convolution powers of ecf_test's common part: the jumps
    k >= -ECF_K_COMMON of positive mass of a law deepened past them,
    normalized, in units of `step` (2 on a bipartite law, whose jumps are
    even).  The sum of N <= n of them lies on a circular window of 2W
    points centred at round(N mean); W is the least power of two for which
    Bernstein's bound puts the mass past the window below 1e-15 at N = n.
    log F, the log of the law's transform on that grid, is taken once, and
    each power is then one exp and one inverse rfft (integer N makes the
    principal branch exact)."""

    def __init__(self, law: StepLaw, n):
        sel = (law.ks >= -ECF_K_COMMON) & (law.probs > 0)
        self.step = 2 if law.r == 1.0 else 1
        self.mass = float(law.probs[sel].sum())
        ks = law.ks[sel] // self.step
        p = law.probs[sel] / self.mass
        self.mean = float((p * ks).sum())
        var = float((p * (ks - self.mean) ** 2).sum())
        # P(|S - N mean| >= t) <= 2 exp(-t^2 / (2 (N var + b t / 3))) for
        # jumps within b of their mean; t is where that reaches 1e-15, and
        # |round(N mean) - N mean| <= 1/2 keeps every sum within W - 1
        # of the mean inside the window
        b = max(ECF_K_COMMON, law.k_pos) / self.step + abs(self.mean)
        c = math.log(2e15) * b / 3.0
        t = c + math.sqrt(c * c + 2.0 * math.log(2e15) * n * var)
        self.W = 1 << math.ceil(math.log2(t + 1.0))
        f = np.zeros(2 * self.W)
        f[ks % (2 * self.W)] = p
        self.log_f = np.log(np.fft.rfft(f))
        # the transform at 0 is the total, 1 up to rounding that N would
        # multiply
        self.log_f -= self.log_f[0]

    def window(self, N):
        """(lo, w): the law of the sum of N jumps, P(S = step (lo + j)) =
        w[j] for j < 2W, up to rounding (about N eps per frequency, so
        entries far out can be slightly negative)."""
        M = 2 * self.W
        lo = round(N * self.mean) - self.W
        # the shift by lo, its phase reduced mod M in integers
        twist = (lo * np.arange(len(self.log_f), dtype=np.int64)) % M
        return lo, np.fft.irfft(np.exp(N * self.log_f + (2j * np.pi / M) * twist), M)


def ecf_test(law: StepLaw, n, n_samples, thetas=(0.5, 1.0, 2.0),
             seed=0) -> EcfReport:
    """Empirical characteristic function of the rescaled unconditioned walk.

    The endpoint X_n is drawn exactly by splitting the step law into a
    common part (the jumps k >= -ECF_K_COMMON), a deep negative block (the
    rarer jumps down to the law deepened to ECF_K_DEEP, drawn from the
    exact kernel values) and a matched power-law remainder beyond the
    block.  Each sample draws its count n_t of block and remainder steps
    from Binomial(n, their mass); its common part's sum is then one draw
    from the exact (n - n_t)-th convolution power of the normalized common
    law (`_CommonPowers`), each power built once per call, one at a time,
    for the samples that share it.  The block and remainder steps follow,
    ECF_CHUNK samples at a time.  Every split point gives the same law of
    X_n.  The split matters: a plainly truncated law loses a K^(-1/2)
    drift that would swamp the n^(2/3) normalization.  A non-integer n or
    n_samples, either below 1, and a heavy-tailed law raise ValueError.
    """
    _check_integers(n=n, n_samples=n_samples)
    if min(n, n_samples) < 1:
        raise ValueError("n and n_samples must be >= 1; got "
                         f"n={n}, n_samples={n_samples}")
    _refuse_heavy(law)
    # numpy integers pass the check; the report keeps Python ints, which
    # json can write
    n, n_samples = int(n), int(n_samples)
    thetas = np.asarray(thetas, dtype=float)
    rng = _rng(seed)
    law = deepen_negative(law, ECF_K_DEEP)
    powers = _CommonPowers(law, n)
    block_sel = law.ks < -ECF_K_COMMON
    block_ks = law.ks[block_sel]
    block_cdf = np.cumsum(law.probs[block_sel])
    m_block = float(block_cdf[-1])
    # the remainder beyond the block follows the k^(-5/2) tail; its index
    # scales like ECF_K_DEEP * U^(-2/3)
    m_pareto = max(0.0, 1.0 - powers.mass - m_block)
    m_tail = m_block + m_pareto

    if m_tail > 0:
        n_t = rng.binomial(n, m_tail, size=n_samples)
    else:
        n_t = np.zeros(n_samples, dtype=np.int64)
    # the common part's sums: one uniform per sample, the samples grouped
    # by their power with one sort
    u = rng.random(n_samples)
    X = np.empty(n_samples)
    order = np.argsort(n_t, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(n_t[order])) + 1):
        lo, w = powers.window(n - int(n_t[group[0]]))
        cdf = np.cumsum(np.maximum(w, 0.0, out=w), out=w)
        X[group] = powers.step * (lo + cdf.searchsorted(u[group] * cdf[-1], "right"))

    a_n = perimeter_normalizer(law, n)
    acc = np.zeros(len(thetas), dtype=np.complex128)
    acc_sq = np.zeros(len(thetas))
    for start in range(0, n_samples, ECF_CHUNK):
        m = min(ECF_CHUNK, n_samples - start)
        Xc, nt = X[start:start + m], n_t[start:start + m]
        total_t = int(nt.sum())
        if total_t:
            owners = np.repeat(np.arange(m), nt)
            draws = np.empty(total_t)
            use_pareto = rng.random(total_t) < (m_pareto / m_tail)
            n_b = int((~use_pareto).sum())
            if n_b:
                at = block_cdf.searchsorted(rng.random(n_b) * m_block, "right")
                draws[~use_pareto] = block_ks[at]
            n_p = total_t - n_b
            if n_p:
                mag = law.k_neg * rng.random(n_p) ** (-2.0 / 3.0)
                mag = powers.step * np.ceil(mag / powers.step)
                draws[use_pareto] = -mag
            Xc += np.bincount(owners, weights=draws, minlength=m)
        phase = np.exp(1j * np.outer(Xc / a_n, thetas))
        acc += phase.sum(axis=0)
        acc_sq += (np.abs(phase - phase.mean(axis=0)) ** 2).sum(axis=0)
    emp = acc / n_samples
    se = np.sqrt(acc_sq / n_samples) / math.sqrt(n_samples)
    lim = limit_ecf(thetas)
    return EcfReport(
        n=n,
        n_samples=n_samples,
        thetas=thetas,
        empirical=emp,
        limit=lim,
        discrepancy=np.abs(emp - lim),
        std_error=se,
    )


@dataclass
class CollapseReport:
    n: int
    chains: int
    quantiles: tuple
    models: dict          # name -> {"l_hat": (vals, ses), "v_hat": (vals, ses)}
    samples: dict = field(default_factory=dict)

    def model_names(self):
        return list(self.models)

    def rel_median_gap(self, which="l_hat"):
        names = self.model_names()
        med_idx = self.quantiles.index(0.5)
        meds = [self.models[m][which][0][med_idx] for m in names]
        lo, hi = min(meds), max(meds)
        return (hi - lo) / hi

    def to_report(self):
        out = {"n": self.n, "chains": self.chains,
               "quantiles": list(self.quantiles), "models": {}}
        for name, d in self.models.items():
            out["models"][name] = {
                k: {"values": [float(x) for x in v[0]],
                    "std_errors": [float(x) for x in v[1]]}
                for k, v in d.items()
            }
        return out

    def samples_to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("model,l_hat,v_hat\n")
            for name, (lh, vh) in self.samples.items():
                for a, b in zip(lh, vh):
                    fh.write(f"{name},{float(a)!r},{float(b)!r}\n")


def collapse_test(laws: dict, n, chains, quantiles=DEFAULT_QUANTILES, seed=0,
                  l0=2, volume_mode="asymptotic_xi") -> CollapseReport:
    """Rescaled quantiles at t = 1 for several models side by side.

    Universality predicts the rescaled laws agree; the caller applies the
    tolerance.  The same volume sampling regime is used for every model so
    the comparison probes the limit and not the sampling convention.  Fewer
    than SE_GROUPS chains, or a heavy-tailed law among the models, raise
    ValueError before any draw.
    """
    if chains < SE_GROUPS:
        raise ValueError(f"collapse_test needs at least {SE_GROUPS} chains, "
                         f"one per standard-error group; got {chains}")
    _refuse_heavy(*laws.values())
    models = {}
    samples = {}
    for i, (name, law) in enumerate(laws.items()):
        out = simulate_ensemble(
            "ibpm", law, l0, n, chains, seed=seed + 1000 * i,
            volume_mode=volume_mode,
        )
        ls, vs = out[n]
        lh, vh = rescale(ls, vs, law, n)
        lq = _quantile_with_se(lh, quantiles)
        vq = _quantile_with_se(vh, quantiles)
        models[name] = {"l_hat": lq, "v_hat": vq}
        samples[name] = (lh, vh)
    return CollapseReport(n, chains, tuple(quantiles), models, samples)


@dataclass
class ExponentReport:
    n_values: list
    perimeter_medians: list
    volume_medians: list
    perimeter_slope: float
    volume_slope: float

    def to_report(self):
        return {
            "n_values": [int(n) for n in self.n_values],
            "perimeter_medians": [float(x) for x in self.perimeter_medians],
            "volume_medians": [float(x) for x in self.volume_medians],
            "perimeter_slope": self.perimeter_slope,
            "volume_slope": self.volume_slope,
        }


def exponent_regression(law: StepLaw, n_values=(1000, 10_000, 100_000),
                        chains=2048, seed=0, l0=2,
                        volume_mode="asymptotic_xi") -> ExponentReport:
    """Log-log slope of median perimeter (target 2/3) and volume (4/3);
    ValueError for a heavy-tailed law."""
    _refuse_heavy(law)
    n_values = sorted(int(n) for n in n_values)
    out = simulate_ensemble(
        "ibpm", law, l0, n_values[-1], chains, seed=seed,
        checkpoints=n_values, volume_mode=volume_mode,
    )
    meds_l = [float(np.median(out[n][0])) for n in n_values]
    meds_v = [float(np.median(out[n][1])) for n in n_values]
    logn = np.log(n_values)
    slope_l = float(np.polyfit(logn, np.log(meds_l), 1)[0])
    slope_v = float(np.polyfit(logn, np.log(meds_v), 1)[0])
    return ExponentReport(n_values, meds_l, meds_v, slope_l, slope_v)


@dataclass
class SlopeReport:
    g_values: list
    raw_slopes: list
    estimate: float
    predicted: float
    c_minus_estimate: float = None

    @property
    def rel_error(self):
        return abs(self.estimate / self.predicted - 1.0)

    def to_report(self):
        return {
            "g_values": [float(g) for g in self.g_values],
            "raw_slopes": [float(s) for s in self.raw_slopes],
            "estimate": self.estimate,
            "predicted": self.predicted,
            "rel_error": self.rel_error,
            "c_minus_estimate": self.c_minus_estimate,
        }


def cplus_slope_test(q: WeightSequence, j_range=(2, 3, 4, 5, 6)) -> SlopeReport:
    """Vertex-fugacity slope of c_+ against its closed form.

    Solves the deformed sequence at g = 1 - 10^(-j), forms the normalized
    increments and Richardson-extrapolates them in sqrt(1-g).  The solves
    are a continuation in g: each (c_+, r) starts the solve at the next j,
    so j_range must be a non-empty, strictly increasing sequence of
    positive integers (ValueError otherwise).
    """
    j_range = tuple(j_range)
    integers = all(isinstance(j, (int, np.integer)) and not isinstance(j, bool)
                   for j in j_range)
    if not (j_range and integers and j_range[0] >= 1
            and all(a < b for a, b in zip(j_range, j_range[1:]))):
        raise ValueError("j_range must be a non-empty, strictly increasing "
                         f"sequence of positive integers; got {j_range!r}")
    cd1 = solve_boltzmann(q)
    if cd1.classification not in ("critical", "regular_critical"):
        raise ValueError("slope test needs a critical weight sequence")
    law = complete_nu(nu_from_q(q, cd1.c_plus, cd1.r), k_neg=8)
    predicted = math.sqrt(
        16.0 / (3.0 * (1.0 + cd1.r) * cd1.c_plus**2 * law.L_nu)
    )
    gs, slopes, slopes_m = [], [], []
    initial = None
    for j in j_range:
        g = 1.0 - 10.0 ** (-j)
        # q passed solve_boltzmann's check above
        cd = _solve_valid(q, g=g, initial=initial)
        initial = (cd.c_plus, cd.r)
        x = math.sqrt(1.0 - g)
        gs.append(g)
        slopes.append((1.0 - cd.c_plus / cd1.c_plus) / x)
        if cd1.r < 1.0:
            slopes_m.append((1.0 - cd.c_minus / cd1.c_minus) / x)
    Ms = [10.0 ** (j / 2.0) for j in j_range]
    expos = list(range(1, len(Ms)))
    est = richardson_limit(Ms, slopes, expos)
    est_m = None
    if slopes_m:
        est_m = richardson_limit(Ms, slopes_m, expos)
    return SlopeReport(gs, slopes, est, predicted, est_m)


@dataclass
class ScalingReport:
    ecf: EcfReport = None
    collapse: CollapseReport = None
    slopes: dict = None

    def to_report(self):
        out = {}
        if self.ecf is not None:
            out["ecf"] = self.ecf.to_report()
        if self.collapse is not None:
            out["collapse"] = self.collapse.to_report()
        if self.slopes is not None:
            out["slopes"] = {k: v.to_report() for k, v in self.slopes.items()}
        return out
