"""Tail extrapolation for slowly convergent series with power-law terms.

Sums whose terms behave like smooth expansions in l^(-e) converge like
partial sums S(M) = S_inf - sum_j a_j M^(-e_j).  Fitting that model at a
few geometrically spaced checkpoints (Richardson extrapolation with a
known exponent ladder) removes the leading tail orders; with terms decaying
like l^(-3/2) four checkpoints push the error from M^(-1/2) down to
roughly M^(-7/2).
"""

from __future__ import annotations

import numpy as np


def richardson_limit(checkpoints, partial_sums, exponents):
    """Extrapolate S(M) = S_inf - sum_j a_j M^(-e_j) to M = infinity.

    Needs len(checkpoints) == len(exponents) + 1.
    """
    Ms = np.asarray(checkpoints, dtype=float)
    Ss = np.asarray(partial_sums, dtype=float)
    if len(Ms) != len(exponents) + 1:
        raise ValueError("need one more checkpoint than tail exponents")
    cols = [np.ones_like(Ms)] + [-(Ms ** (-e)) for e in exponents]
    A = np.vstack(cols).T
    sol = np.linalg.solve(A, Ss)
    return float(sol[0])


def checkpoint_indices(n, n_ckpt):
    """The indices of the n_ckpt partial sums, out of n, that
    `extrapolated_partial_sums` fits, largest first: n - 1 - n // 16 for
    four checkpoints, so the terms past it are never read."""
    if n < 64:
        raise ValueError("too few samples to extrapolate")
    return [n - 1 - (n // 2 ** (j + 1)) for j in range(n_ckpt)][::-1]


def extrapolate_checkpoints(sums, idx, start, step, exponents=(0.5, 1.5, 2.5)):
    """`extrapolated_partial_sums` from only the partial sums it reads:
    sums[j] the sum of the terms at l = start, ..., start + idx[j]*step,
    idx = checkpoint_indices(n, len(exponents) + 1).  A caller that
    accumulates its terms a block at a time keeps these sums alone."""
    Ms = [start + i * step for i in idx]
    est = richardson_limit(Ms, sums, exponents)
    est_coarse = richardson_limit(Ms[:-1], sums[:-1], exponents[:-1])
    return est, abs(est - est_coarse)


def extrapolated_partial_sums(csum, start, step, exponents=(0.5, 1.5, 2.5)):
    """Sum an infinite series from its partial sums on an arithmetic lattice.

    csum[i] is the sum of the terms at l = start, ..., start + i*step, the
    terms assumed to follow a smooth power-law expansion in l.  The first
    half of the samples is summed directly; the second half provides the
    Richardson checkpoints (`checkpoint_indices`).  Returns (estimate,
    error_indicator).  A caller that owns the terms can accumulate them in
    place (np.cumsum(t, out=t)).
    """
    idx = checkpoint_indices(len(csum), len(exponents) + 1)
    return extrapolate_checkpoints([csum[i] for i in idx], idx, start, step,
                                   exponents)
