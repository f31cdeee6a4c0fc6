"""The package's compiled loops: one C source, one cached shared library.

The library holds six loops, each a copy of a numpy or Python loop that
stays in the package as the fallback and the test reference:

* ``h_recurrence_rows``, the float h recurrence of
  `hfun._recurrence_rows_py` for one or more orders, resumed at any index
  (the coefficients read the absolute index) and stepped two orders side
  by side, so that their divisions overlap; a shared table grows through
  it as one row (`hfun.HCache._grow_float`), and a `hfun.TableStream`
  reads a heavy-tailed law's h past its range through it;
* ``lattice_sums``, the running sums of h times the model terms on a
  heavy-tailed law's tail lattice, `walk._lattice_sums_py`'s np.cumsum
  added in a register;
* ``series_sums``, an infinite family's series pass of
  `weights._series_py`: its terms from the weight cache, the h
  recurrence and its r-derivative alongside, the sums per shift and the
  tail cut that `WeightSequence.positive_terms` reads too, resumable
  where the weights run out;
* ``fill_rows``, the stacked rows of `peeling._Window._fill_numpy` with
  their guide cells, in the same pass, as `peeling._StackedCdf.append`
  writes them;
* ``lockstep``, a finite run's steps of `peeling._lockstep_numpy` with
  their volumes and checkpoints, run until a row or the engine's cover
  (`peeling._ChainEngine._cover`) is missing, which the driver of both
  chain loops (`peeling._chains`) grows before it calls the loop again:
  its row draws are
  `peeling._StackedCdf.draw`'s inverse-CDF draws, through the int32 guide
  cells that every stacked table keeps over its one value row (``cdf_t``),
  and its band rounds `peeling._Bands.jumps`' band-envelope
  rejection, inlined, with each search of nu's cuts narrowed by the
  bands' bracket guide and guarded, so that it finds searchsorted's
  index whatever the bracket holds;
* ``block_rounds``, an infinite-map run's block rounds of
  `peeling._block_rounds_numpy` from its first step to its last: the
  single steps of chains with B(l) = 1 (sharing lockstep's code), the
  tilts, the tilted draws with each block's running sum, stopped at the
  first step that takes a block below 1, the deep draws, the keep test
  (h(1, .) read from the bands' table), and one walk over the kept
  blocks for their volumes, checkpoints and new states (after their
  exact rows), in straight-line code that returns mid-round only at a
  round's start and at its block ends, and resumes there;

``run_start``, which starts a run of either chain loop in one call: it
copies the template of the run's engine and volume sampler
(`peeling._template`), lays the run's rows out over its output and scratch
blocks (`peeling._Run`), and writes its starting state; and
``fixed_double``/``fixed_uint64``, the bit generator of `FixedStream`,
which feeds the self-check fixed uniforms, and ``gamma_fill``.

Each does the same double operations in the same order as its reference,
and the chain loops read their uniforms from the Generator's own bit
generator (numpy's ``bitgen_t``, one ``next_double`` per uniform, in the
order ``rng.random(n)`` would deliver them), so every table, trace and
sample is bit-identical either way.  Compiled draws run only inside the
two chain loops: every draw made from Python (`peeling._StackedCdf.draw`,
`peeling._Bands.jumps` and the numpy loops) is numpy's, on either path.
Both loops read a hole's volume past its exact row from one rule table,
whole before the run's first step (`peeling._rule_table`): per degree,
V = max(f, lo, off + rint((xi b) c)), with xi drawn only where c > 0, so
a hole of degree 0 and a rounded mean draw nothing.  The
volumes' Gamma(3/2, scale 2) draws are numpy's own ``random_gamma``,
statically linked from the ``numpy/random/lib/libnpyrandom.a`` numpy
ships: the code ``Generator.gamma`` runs, as long as the library was
linked against this numpy, which the cached file's name ensures
(`_library_path`).  The keep tests of ``block_rounds`` take libm's exp,
and so does its numpy reference (Python's ``math.exp``), because numpy's
own SIMD exp differs from libm's in the last bit for some arguments.

The source is compiled once per machine and numpy with `_C_FLAGS` (no
contraction into fused multiply-adds, no reassociation, the platform's
baseline instruction set), cached in the user's private cache directory
(`_cache_dir`) under a name that hashes the source, flags, platform, numpy's
version and its static library's path, size and mtime, and loaded with
ctypes; a compile removes the user's older compiled libraries there but
the KEEP_LIBRARIES newest (`_prune`).  On loading, the compiled loops are
compared with their references on small fixed inputs (`_self_check`): the
h recurrence from a table's start and resumed mid-table for three orders,
the lattice sums, the series pass on synthetic weights, then the row fill
with its guide cells, the lockstep loop and the block rounds on synthetic
laws, whose fixed uniforms lie on the cuts of each kind of stacked row the
chain loops draw from, on the edges of their guide cells and on band
shares; the lockstep loop's bands carry their bracket guide reversed, so
that its guard decides their searches.  Its runs start on blocks filled
with junk, so that a row ``run_start`` leaves unwritten shows, and only
they have a round budget:
a loop that reads the fixed stream in another order may cycle without
ending, and the budget turns that into a refusal (LS_BUDGET).  The gamma
is not compared with numpy's there (that would
import numpy.random into every process): it runs on the stand-in bit
generator for both sides of the lockstep and block checks, and a test pins
it to ``Generator.gamma(1.5, 2.0)``.  Without numpy's static library, a
compiler, a private cache directory, a successful compile and load or an
exact match, every caller runs its reference loop instead; `library()`
says which and why, and `hfun.float_recurrence()` reports it.
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import os
import platform
import shutil
import stat
import sys
import threading
import types
import zlib

import numpy as np

# -ffp-contract=off keeps a*b + c from becoming a fused multiply-add;
# without -ffast-math the compiler may not reassociate, and without -march
# it targets the platform's baseline instruction set.
_C_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <string.h>

/* numpy's bitgen_t (numpy/random/bitgen.h) */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* numpy's own Gamma(shape, scale) draw (numpy/random/distributions.h),
   linked from the static library numpy ships */
double random_gamma(bitgen_t *bitgen_state, double shape, double scale);

/* the uniforms us[0], us[1], ... in turn, cyclically: the self-check's
   stand-in for a bit generator */
typedef struct {
    const double *us;
    long long n, at;
} fixed_t;

double fixed_double(void *st)
{
    fixed_t *f = st;
    return f->us[f->at++ % f->n];
}

/* the stand-in's 64-bit words: the next uniform's bits, mixed by
   splitmix64's finalizer */
uint64_t fixed_uint64(void *st)
{
    double u = fixed_double(st);
    uint64_t z;
    memcpy(&z, &u, sizeof z);
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/* n draws of Generator.gamma(shape, scale): the self-check's gamma on the
   stand-in bit generator, and the test's against numpy's */
void gamma_fill(bitgen_t *bg, double shape, double scale, long long n,
                double *out)
{
    for (long long i = 0; i < n; i++)
        out[i] = random_gamma(bg, shape, scale);
}

/* one step of the order-k recurrence at ratio r: a_{j+1} from a_j = p1
   and a_{j-1} = p2, with one_m_r = 1 - r */
static inline double h_step(double p1, double p2, long long j, long long k,
                            double r, double one_m_r)
{
    double a = one_m_r * ((double)j + 0.5) + (double)k;
    double b = r * (double)(j + k);
    return (a * p1 + b * p2) / (double)(j + 1);
}

/* The order-ks[i] recurrences at ratio r (i < m), resumed at the absolute
   index j: row i, the n entries from rows + i * stride, gets a_{j+1}, ...,
   a_{j+n} of its order from prev[2i] = a_{j-1} and prev[2i+1] = a_j,
   which end as the row's last two entries.  Orders run two at a time in
   one loop, so that their divisions overlap; an entry's double operations
   do not depend on the pairing. */
void h_recurrence_rows(double *rows, long long stride, double *prev,
                       const long long *ks, long long m, long long j,
                       long long n, double r)
{
    double one_m_r = 1.0 - r;
    long long i = 0;
    for (; i + 1 < m; i += 2) {
        double *u = rows + i * stride, *w = u + stride;
        double u2 = prev[2 * i], u1 = prev[2 * i + 1];
        double w2 = prev[2 * i + 2], w1 = prev[2 * i + 3];
        for (long long t = 0; t < n; t++) {
            double vu = h_step(u1, u2, j + t, ks[i], r, one_m_r);
            double vw = h_step(w1, w2, j + t, ks[i + 1], r, one_m_r);
            u[t] = vu;
            w[t] = vw;
            u2 = u1;
            u1 = vu;
            w2 = w1;
            w1 = vw;
        }
        prev[2 * i] = u2;
        prev[2 * i + 1] = u1;
        prev[2 * i + 2] = w2;
        prev[2 * i + 3] = w1;
    }
    if (i < m) {
        double *u = rows + i * stride, u2 = prev[2 * i], u1 = prev[2 * i + 1];
        for (long long t = 0; t < n; t++) {
            double vu = h_step(u1, u2, j + t, ks[i], r, one_m_r);
            u[t] = vu;
            u2 = u1;
            u1 = vu;
        }
        prev[2 * i] = u2;
        prev[2 * i + 1] = u1;
    }
}

/* Running sums of lattice products, as walk._lattice_sums_py: for each
   p < n_p, s[p] += h[off[p] + i * lattice] * w[i] for i < n in turn,
   written to out[p * stride + i]; s carries the sums from call to call. */
void lattice_sums(const double *h, const long long *off, long long n_p,
                  long long lattice, const double *w, long long n, double *s,
                  double *out, long long stride)
{
    for (long long p = 0; p < n_p; p++) {
        const double *hp = h + off[p];
        double acc = s[p], *o = out + p * stride;
        for (long long i = 0; i < n; i++) {
            acc = acc + hp[i * lattice] * w[i];
            o[i] = acc;
        }
        s[p] = acc;
    }
}

/* the results of series_sums */
enum { SS_DONE, SS_WEIGHTS, SS_OVERFLOW, SS_NO_CUT };

typedef struct {
    const double *w;           /* q_d, or log q_d when log_w, at w[d - 1] */
    long long n_w, log_w;
    double c, log_c, r, rho, tol;
    long long order, j0, n_j, dr, k_first, k_cap;
    long long k, m;            /* the next term; the index of h1 */
    double total, h0, h1, d0, d1;
    double s[2], s_c[2], s_r[2];
    double bound;              /* the tail bound at the cut */
} series_t;

/* The series of an infinite family, as weights._series_py: from term
   k on, q_{k+2} c^k, h(order, order + i) at i = m - 1, m (h0, h1) and
   their r-derivatives (d0, d1, when dr) by h_recurrence_rows' recurrence
   and its derivative in r (hfun.derivative_list), and per shift j0 + i
   (i < n_j <= 2) the sums of the term, k times it and its r-derivative
   part against h(order, k + j0 + i).  Ends after the first k >= k_first
   whose tail bound falls below tol times the running total (SS_DONE):
   the family's one tail cut, which WeightSequence.positive_terms reads
   as well; or at a weight w lacks (SS_WEIGHTS; the pass resumes from
   where it stopped), an exp that overflows (SS_OVERFLOW) or k past k_cap
   (SS_NO_CUT). */
long long series_sums(series_t *s)
{
    const double one_m_r = 1.0 - s->r, ord = (double)s->order;
    const long long top = s->j0 + s->n_j - 1 - s->order;
    long long k = s->k, m = s->m, status;
    double total = s->total, h0 = s->h0, h1 = s->h1, d0 = s->d0, d1 = s->d1;
    for (;;) {
        if (k > s->k_cap) {
            status = SS_NO_CUT;
            break;
        }
        if (k + 2 > s->n_w) {
            status = SS_WEIGHTS;
            break;
        }
        double x = s->w[k + 1], kd = (double)k, e = kd * s->log_c, v;
        if (s->log_w || (e > 600.0 && x != 0.0)) {
            double y = s->log_w ? x + e : log(x) + e;
            v = exp(y);
            if (isinf(v) && !isinf(y)) {
                status = SS_OVERFLOW;
                break;
            }
        } else if (e > 600.0)
            v = 0.0;
        else
            v = x * pow(s->c, kd);
        for (; m < k + top; m++) {
            double hn, dn = 0.0;
            if (m == -1)
                hn = 1.0;
            else if (m == 0) {
                hn = one_m_r * 0.5 + ord;
                dn = s->dr ? -0.5 : 0.0;
            } else {
                double a = one_m_r * ((double)m + 0.5) + ord;
                double b = s->r * (double)(m + s->order);
                hn = (a * h1 + b * h0) / (double)(m + 1);
                if (s->dr)
                    dn = (a * d1 + b * d0 - ((double)m + 0.5) * h1
                          + (double)(m + s->order) * h0) / (double)(m + 1);
            }
            h0 = h1;
            h1 = hn;
            d0 = d1;
            d1 = dn;
        }
        double kv = kd * v;
        for (long long i = 0; i < s->n_j; i++) {
            long long at = m - (s->n_j - 1 - i);
            if (at < 0)
                continue;
            double h = at == m ? h1 : h0, d = at == m ? d1 : d0;
            s->s[i] += v * h;
            s->s_c[i] += kv * h;
            if (s->dr)
                s->s_r[i] += v * d;
        }
        total += v;
        double lim = s->tol * (total > 1.0 ? total : 1.0);
        double vk = v * (double)((k + 2) * (k + 2));
        /* the bound at rho, below the bound at rho_d >= rho in floats
           too, says no cut without the exp */
        if (k >= s->k_first && !(vk * s->rho / (1.0 - s->rho) >= lim)) {
            double rho_d = s->rho * exp(2.0 / kd);
            if (rho_d < 1.0) {
                double bound = vk * rho_d / (1.0 - rho_d);
                if (bound < lim) {
                    s->bound = bound;
                    k++;
                    status = SS_DONE;
                    break;
                }
            }
        }
        k++;
    }
    s->k = k;
    s->m = m;
    s->total = total;
    s->h0 = h0;
    s->h1 = h1;
    s->d0 = d0;
    s->d1 = d1;
    return status;
}

/* searchsorted(a, t, "right") for nondecreasing a, when a[lo - 1] <= t
   (or lo = 0) and t < a[hi] (or hi = len(a)) */
static long long search_right(const double *a, long long lo, long long hi,
                              double t)
{
    while (lo < hi) {
        long long mid = lo + (hi - lo) / 2;
        if (t < a[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

typedef struct {
    const double *flat;        /* n rows of cumulative weights: row i at */
    const long long *off;      /* flat[off[i]:off[i + 1]], its last columns */
    long long n, width;
    const long long *vals;     /* the width values every row shares */
    const int32_t *guide;      /* cells int32 guide cells per row */
    long long n_guide, open, cells;
    double u_max;
} cdf_t;

/* The value at t = row + u * u_max, u = next_double, for 0 <= row < n:
   0, or -1 for a read outside a table or a row with no weight.  Inlined
   into the chain loops: a call per draw would cost about a tenth of its
   time. */
static inline __attribute__((always_inline))
int cdf_one(bitgen_t *bg, const cdf_t *c, long long row, long long *out)
{
    double t = (double)row + bg->next_double(bg->state) * c->u_max;
    long long cell = (long long)(t * (double)c->cells);
    if (cell >= c->n_guide)
        return -1;
    if (c->guide[cell] != c->open) {
        *out = c->guide[cell];
        return 0;
    }
    /* the row's own entries, when its neighbours bound t */
    long long n_flat = c->off[c->n];
    long long lo = c->off[row], hi = c->off[row + 1];
    if (lo > 0 && t < c->flat[lo - 1])
        lo = 0;
    if (hi < n_flat && !(t < c->flat[hi]))
        hi = n_flat;
    long long idx = search_right(c->flat, lo, hi, t);
    /* a row with no weight keeps every entry at row: t lands past it (and
       no search of a row's target lands before it) */
    if (idx < c->off[row] || idx >= c->off[row + 1])
        return -1;
    /* the value column: the row's start column plus the entry's offset in
       the row */
    long long start = c->width - (c->off[row + 1] - c->off[row]);
    long long col = start + idx - c->off[row];
    *out = c->vals[col];
    return 0;
}

typedef struct {
    const double *share, *t0_lo, *dt_lo, *env_lo, *t0_hi, *dt_hi, *env_hi;
    long long n;               /* perimeters 0..n-1 */
    const double *cuts;        /* the inner cuts cs[1:-1] of nu's cdf */
    long long n_cuts;
    const double *hz;
    long long n_hz, k_neg;
    /* the bracket guide: bracket[c] cuts lie in the cells below c, for
       c = 0..cells, the cell of a cut or target t being floor(t scale) */
    const int32_t *bracket;
    long long cells;
    double scale;
} bands_t;

/* searchsorted(cuts, t, "right"), searched for between the bracket's
   entries at t's cell (clamped to the table), or past them where the cuts
   next to them do not bound t */
static inline __attribute__((always_inline))
long long band_cut(const bands_t *b, double t)
{
    double x = t * b->scale;
    long long cell = x > 0 ? (x < (double)b->cells ? (long long)x : b->cells - 1) : 0;
    long long lo = b->bracket[cell], hi = b->bracket[cell + 1];
    if (lo > 0 && t < b->cuts[lo - 1])
        lo = 0;
    if (hi < b->n_cuts && !(t < b->cuts[hi]))
        hi = b->n_cuts;
    return search_right(b->cuts, lo, hi, t);
}

/* One jump per chain at perimeters ls in [0, n), as _Bands: each round
   draws the band uniform of every pending chain, then the acceptance
   uniform of every pending chain, and keeps the rejected ones in order.
   todo and env hold m entries.  Returns the number of proposals, or -1 for
   a read outside hz. */
static long long band_rounds(bitgen_t *bg, const bands_t *b,
                             const long long *ls, long long m, long long *out,
                             long long *todo, double *env)
{
    long long left = m, proposals = 0;
    for (long long i = 0; i < m; i++)
        todo[i] = i;
    while (left) {
        proposals += left;
        for (long long j = 0; j < left; j++) {
            long long i = todo[j], l = ls[i];
            double u = bg->next_double(bg->state), t;
            if (u < b->share[l]) {
                t = b->t0_lo[l] + u * b->dt_lo[l];
                env[j] = b->env_lo[l];
            } else {
                t = b->t0_hi[l] + u * b->dt_hi[l];
                env[j] = b->env_hi[l];
            }
            out[i] = band_cut(b, t);
        }
        long long kept = 0;
        for (long long j = 0; j < left; j++) {
            long long i = todo[j], at = ls[i] + out[i];
            if (at >= b->n_hz)
                return -1;
            if (!(bg->next_double(bg->state) * env[j] < b->hz[at]))
                todo[kept++] = i;
        }
        left = kept;
    }
    for (long long i = 0; i < m; i++)
        out[i] -= b->k_neg;
    return proposals;
}

/* Rows l_from..l_to-1 of a window's stacked rows into cum, row l at
   cum[off[l] - off[l_from]] over its last off[l + 1] - off[l] of width
   columns, as _Window._fill_numpy: w_j = h[l + ks_j] * p_j, their running
   sum divided by its last entry where that is positive, plus l; and its
   cells guide cells at guide[(l - l_from) cells], as _StackedCdf.append:
   with hi_j = (row_j - l) cells (exact), cell c holds the value ks_j of
   the first entry with hi_j > c where c + 1 <= hi_j (the entry's targets
   cover the cell), else the open marker (a cut splits the cell, or the
   row has no weight). */
void fill_rows(const double *h, const double *p, const long long *ks,
               long long width, const long long *off, long long l_from,
               long long l_to, long long cells, int32_t open, int32_t *guide,
               double *cum)
{
    for (long long l = l_from; l < l_to; l++) {
        double *row = cum + (off[l] - off[l_from]);
        long long len = off[l + 1] - off[l], j0 = width - len;
        double s = 0.0;
        for (long long j = 0; j < len; j++) {
            double w = h[l + ks[j0 + j]] * p[j0 + j];
            s = j ? s + w : w;
            row[j] = s;
        }
        double total = row[len - 1];
        for (long long j = 0; j < len; j++)
            row[j] = (total > 0 ? row[j] / total : row[j]) + (double)l;
        int32_t *g = guide + (l - l_from) * cells;
        for (long long c = 0, j = 0; c < cells; c++) {
            while (j < len && (row[j] - (double)l) * (double)cells <= (double)c)
                j++;
            g[c] = j < len && (double)(c + 1) <= (row[j] - (double)l) * (double)cells
                   ? (int32_t)ks[j0 + j] : open;
        }
    }
}

enum { LS_DONE, LS_ROWS, LS_COVER, LS_BUDGET };

typedef struct {
    const cdf_t *rows;         /* the engine's rows, perimeters 0..rows->n-1 */
    const bands_t *bands;      /* its bands, perimeters 0..bands->n-1 */
    const cdf_t *volumes;      /* exact volume rows of degrees 0..l_exact, or NULL */
    /* the hole-volume rule per degree 0..n_lp-1 (lo = 0: none) */
    const long long *lo, *off;
    const double *c;
    double b;
    long long n_lp, l_small, absorbing, l_exact;
    long long n, n_steps, n_cps;
    const long long *cps;      /* checkpoints, ascending, the last n_steps */
    long long *ls, *vs, *per, *vols;
    long long *jumps, *at, *lb, *kb, *todo, *vals;   /* n entries each */
    double *env;
    long long step, cp;
    long long band_proposals, band_accepts, residual_draws, undrawn;
    long long need;
    /* block rounds: B(l) and its tilt's index for perimeters 0..n_blocks-1
       (the cover, 0..bands->n-1), the rows of nu_theta, the grid and nu's
       cumulative sum cs (n_cs entries, n_deep of them at or below
       -l_small); h(1, .) is the bands' hz */
    const long long *blocks;
    const int16_t *block_tilt;
    long long n_blocks;
    const cdf_t *tilt_rows;
    const double *thetas, *log_phi, *log_K, *cs;
    long long n_cs, k_neg, n_deep, block_draws;
    /* per chain: steps taken and the next checkpoint; the unfinished
       chains, those of a round that step once and those that propose a
       block; per block its length, tilt, end perimeter and keep flag */
    long long *da, *cur, *act, *one, *blk, *bB, *bj, *blB, *bkeep;
    long long *ks;             /* a round's steps, ks_cap entries */
    long long ks_cap, n_act, n_one, n_blk;
    long long bphase;          /* where block_rounds resumes its round */
    long long block_proposals, block_accepts;
    /* the most rounds a run may begin (0: no bound), and how many it has */
    long long budget, rounds;
} lockstep_t;

/* The run's state s at its first step: the template t's fields (those that
   read only the engine and its volume sampler), the run's sizes, and its
   rows laid out in two blocks.  out holds the perimeter rows, then the
   volume rows, each as a lead row (l0, 0 for volumes), n_cps checkpoint
   rows and the chains' current state (ls, vs), n entries a row; work holds
   STEP_WORK, env and, for an infinite-map run (ks_cap > 0), BLOCK_WORK and
   the ks_cap entries of ks.  Every chain starts at l0 with volume 0, and
   a block run with every chain active, no step taken and its first
   checkpoint next. */
void run_start(lockstep_t *s, const lockstep_t *t, long long *out, long long *work,
               const long long *cps, long long n, long long n_cps, long long l0,
               long long ks_cap, long long block_draws, long long budget)
{
    long long rows = (n_cps + 2) * n;
    long long **step_work[] = {&s->jumps, &s->at, &s->lb, &s->kb, &s->todo, &s->vals};
    long long **block_work[] = {&s->da, &s->cur, &s->act, &s->one, &s->blk, &s->bB,
                                &s->bj, &s->blB, &s->bkeep};
    *s = *t;
    s->n = n;
    s->n_steps = cps[n_cps - 1];
    s->n_cps = n_cps;
    s->cps = cps;
    s->budget = budget;
    s->per = out + n;
    s->ls = out + rows - n;
    s->vols = out + rows + n;
    s->vs = out + 2 * rows - n;
    for (long long c = 0; c < n; c++) {
        out[c] = l0;
        out[rows + c] = 0;
        s->ls[c] = l0;
        s->vs[c] = 0;
    }
    for (int i = 0; i < 6; i++)
        *step_work[i] = work + i * n;
    s->env = (double *)(work + 6 * n);
    if (!ks_cap)
        return;
    for (int i = 0; i < 9; i++)
        *block_work[i] = work + (7 + i) * n;
    s->ks = work + 16 * n;
    memset(s->da, 0, n * sizeof *s->da);
    memset(s->cur, 0, n * sizeof *s->cur);
    for (long long c = 0; c < n; c++)
        s->act[c] = c;
    s->n_act = n;
    s->ks_cap = ks_cap;
    s->block_draws = block_draws;
}

/* 1 when the run has begun all the rounds its budget allows (then
   LS_BUDGET), else 0 and the round counted */
static int spent(lockstep_t *s)
{
    return s->budget && s->rounds++ >= s->budget;
}

/* The shared single-step code below is always inlined, so lockstep's
   copy, over every chain (idx NULL), keeps no branch on idx. */
#define INLINE static inline __attribute__((always_inline))

/* Over the chains idx[0..m) (chains 0..m-1 without idx): the largest
   perimeter into sc[0], how many are live (all but an absorbing run's
   chains at 0) into sc[1], and the largest live perimeters below l_small
   and at or above it into sc[2] and sc[3] (-1 for none); -1 for a
   negative perimeter, else 0. */
INLINE int step_scan(const lockstep_t *s, const long long *idx, long long m,
                     long long sc[4])
{
    sc[0] = sc[1] = 0;
    sc[2] = sc[3] = -1;
    for (long long j = 0; j < m; j++) {
        long long l = s->ls[idx ? idx[j] : j];
        if (l < 0)
            return -1;
        if (l > sc[0])
            sc[0] = l;
        if (s->absorbing && l == 0)
            continue;
        sc[1]++;
        if (l < s->l_small) {
            if (l > sc[2])
                sc[2] = l;
        } else if (l > sc[3]) {
            sc[3] = l;
        }
    }
    return 0;
}

/* 0 when the rows and the cover the scanned single steps read are built,
   else LS_ROWS or LS_COVER with the perimeter in need */
INLINE long long step_tables(lockstep_t *s, const long long sc[4])
{
    s->need = sc[2];
    if (sc[2] >= s->rows->n)
        return LS_ROWS;
    s->need = sc[3];
    if (sc[3] >= s->bands->n)
        return LS_COVER;
    return 0;
}

/* One jump per chain c = idx[j] into jumps[c], as _ChainEngine.draw: the
   row draws below l_small in chain order, then the band rounds of the
   rest; 0 for a chain at 0 of an absorbing run.  -1 for a read outside a
   table. */
INLINE long long step_draws(bitgen_t *bg, lockstep_t *s, const long long *idx,
                            long long m)
{
    long long k = 0;
    for (long long j = 0; j < m; j++) {
        long long c = idx ? idx[j] : j, l = s->ls[c];
        if (s->absorbing && l == 0) {
            s->jumps[c] = 0;
        } else if (l < s->l_small) {
            if (cdf_one(bg, s->rows, l, &s->jumps[c]))
                return -1;
        } else {
            s->at[k] = c;
            s->lb[k++] = l;
        }
    }
    long long proposals = band_rounds(bg, s->bands, s->lb, k, s->kb, s->todo,
                                      s->env);
    if (proposals < 0)
        return -1;
    s->band_proposals += proposals;
    s->band_accepts += k;
    for (long long j = 0; j < k; j++)
        s->jumps[s->at[j]] = s->kb[j];
    return 0;
}

/* The exact volume row's draw for a hole of degree lp; a hole of degree 0
   is the one-vertex map, which draws nothing */
INLINE int hole_row(bitgen_t *bg, const lockstep_t *s, long long lp,
                    long long *val)
{
    if (!lp) {
        *val = 1;
        return 0;
    }
    return cdf_one(bg, s->volumes, lp < s->l_exact ? lp : s->l_exact, val);
}

/* The volume of a hole of degree lp, val its exact row's draw where there
   are exact rows: 1 for lp = 0, the one-vertex map (the rule's degree 0,
   returned before any table is read), the row's value for lp <= l_exact,
   else the rule read past the row, V = max(f, lo, off + rint((xi b) c))
   at degree lp, with f = V* + 1 for a residual (val = -(V* + 1)) and 1
   otherwise, and xi = 1 / Gamma(3/2, scale 2) drawn only where c > 0;
   holes read with no draw are counted.  -1 for a read outside the rule
   (past it, or lo = 0). */
INLINE long long hole_volume(bitgen_t *bg, lockstep_t *s, long long lp,
                             long long val)
{
    long long f = 1;
    if (!lp)
        return 1;
    if (s->volumes) {
        if (val < 0) {
            f = -val;
            s->residual_draws++;
        } else if (lp <= s->l_exact) {
            return val;
        }
    }
    if (lp >= s->n_lp || !s->lo[lp])
        return -1;
    long long v = s->off[lp];
    if (s->c[lp] > 0) {
        double xi = 1.0 / random_gamma(bg, 1.5, 2.0);
        v += (long long)rint(xi * s->b * s->c[lp]);
    } else {
        s->undrawn++;
    }
    if (v < s->lo[lp])
        v = s->lo[lp];
    return v < f ? f : v;
}

/* The pruning jumps of the chains idx[j], in chain order: every exact
   row's draw first, then their volumes added to the chains'; -1 for a
   read outside a table */
INLINE long long step_holes(bitgen_t *bg, lockstep_t *s, const long long *idx,
                            long long m)
{
    long long k = 0;
    for (long long j = 0; j < m; j++) {
        long long c = idx ? idx[j] : j;
        if (s->jumps[c] <= -2)
            s->at[k++] = c;
    }
    if (s->volumes)
        for (long long j = 0; j < k; j++)
            if (hole_row(bg, s, -2 - s->jumps[s->at[j]], &s->vals[j]))
                return -1;
    for (long long j = 0; j < k; j++) {
        long long v = hole_volume(bg, s, -2 - s->jumps[s->at[j]], s->vals[j]);
        if (v < 0)
            return -1;
        s->vs[s->at[j]] += v;
    }
    return 0;
}

/* A finite run's steps, as peeling._lockstep_numpy: per step the row
   draws of the live chains below l_small in chain order, the band rounds
   of those at or above it, then per pruning jump (in chain order) its
   volume (step_holes).  A step draws nothing before it has every row and
   band it reads: it returns LS_ROWS or LS_COVER with the perimeter in
   need, to start the same step again once that is tabulated, and then
   runs through.  LS_DONE after n_steps, or when every chain is absorbed
   at 0; LS_BUDGET before a step past the round budget (a step is a
   round, and one started again is counted again); -1 for a read outside
   a table. */
long long lockstep(bitgen_t *bg, lockstep_t *s)
{
    long long n = s->n;
    while (s->step < s->n_steps) {
        long long sc[4];
        if (spent(s))
            return LS_BUDGET;
        if (step_scan(s, NULL, n, sc))
            return -1;
        if (!sc[1])
            return LS_DONE;
        long long st = step_tables(s, sc);
        if (st)
            return st;
        if (step_draws(bg, s, NULL, n) || step_holes(bg, s, NULL, n))
            return -1;
        for (long long c = 0; c < n; c++)
            s->ls[c] += s->jumps[c];
        s->step++;
        if (s->step == s->cps[s->cp]) {
            memcpy(s->per + s->cp * n, s->ls, n * sizeof *s->ls);
            memcpy(s->vols + s->cp * n, s->vs, n * sizeof *s->vs);
            s->cp++;
        }
    }
    return LS_DONE;
}

/* where block_rounds resumes a round: at its start, or at its block ends */
enum { BR_START, BR_ENDS };

/* _block_tilts: from B(l)'s tilt, up the grid while
   B log phi(theta) + theta l + log K_theta falls, for a block cut short */
static long long walk_tilt(const lockstep_t *s, long long l, long long B)
{
    long long j = s->block_tilt[l];
    if (B < s->blocks[l] && j > 0) {
        double now = (double)B * s->log_phi[j] + s->thetas[j] * (double)l
                     + s->log_K[j];
        while (j > 0) {
            double up = (double)B * s->log_phi[j - 1]
                        + s->thetas[j - 1] * (double)l + s->log_K[j - 1];
            if (!(up < now))
                break;
            j--;
            now = up;
        }
    }
    return j;
}

/* A pending deep entry of ks: the next one's position (the round's step
   count at the end) and its proposal's index i into cs, below every jump
   and the marker -(k_neg + 1) the tilted rows draw for k <= -l_small */
static long long deep_node(const lockstep_t *s, long long next, long long i)
{
    return -(s->k_neg + 2) - (next * s->n_deep + i);
}

static long long deep_next(const lockstep_t *s, long long node)
{
    return (-(s->k_neg + 2) - node) / s->n_deep;
}

static long long deep_index(const lockstep_t *s, long long node)
{
    return (-(s->k_neg + 2) - node) % s->n_deep;
}

/* A kept block's pruning step after the exact rows' pass: the
   hole's degree lp < 2^31 and its row's draw val, coded below every jump
   (hole_code), or 0 where they do not fit */
#define VAL_OFF (1LL << 30)
#define CODED (-(1LL << 32))

static long long hole_code(long long lp, long long val)
{
    if (lp >= (1LL << 31) || val <= -VAL_OFF || val >= VAL_OFF)
        return 0;
    return -1 - (((val + VAL_OFF) << 32) | lp);
}

/* The jump of a kept block's step x of ks, with its hole's degree in lp
   (negative for a step that prunes nothing) and its exact row's draw in
   val, coded or not */
INLINE long long step_hole(long long x, long long *lp, long long *val)
{
    if (x > CODED) {
        *lp = -2 - x;
        *val = 0;
        return x;
    }
    x = -1 - x;
    *lp = x & 0xffffffffLL;
    *val = (x >> 32) - VAL_OFF;
    return -2 - *lp;
}

/* An infinite-map run's steps from its first to n_steps in rounds, as
   peeling._block_rounds_numpy: per round the chains with B(l) = 1 make one
   step each (their draws, then their volumes, as lockstep), then every
   other chain proposes one block of min(B(l), steps left) steps, cut to
   a share of block_draws, from nu_theta at its tilt (walk_tilt): the
   tilted uniforms of the round, block after block, each block stopping
   at the first step that takes its path below 1 (a marker counted as
   -l_small), then the redraw passes of the markers of the blocks that
   drew every step (each pass every proposal's uniform, then every keep
   uniform), then one keep uniform per block that stays at 1 or above
   (kept with probability h(1, l_B) e^(-theta l_B - log K_theta)).  A
   block stopped early draws nothing more, and its chain proposes again
   the next round.  The kept blocks are then walked: every exact row of
   their holes first (where there are exact rows), then one pass in step
   order that reads their volumes from the rule and writes the
   checkpoints and the chains' new states.  ks holds one entry per step of
   the round, at most ks_cap.  A call returns mid-round at two points
   alone, each before it draws what the return decides, and resumes
   there (bphase): at the round's start (BR_START), with LS_COVER for the
   largest block start or single step past the cover or LS_ROWS with the
   perimeter in need of a single step, and at the block ends (BR_ENDS),
   with LS_COVER for the largest end of a block that stays.  LS_DONE at
   n_steps, LS_BUDGET before a round past the round budget (a round
   started again after LS_ROWS or LS_COVER at its start is counted
   again), -1 for a read outside a table.  The keep tests take libm's
   exp, as the numpy rounds do (math.exp). */
long long block_rounds(bitgen_t *bg, lockstep_t *s)
{
    long long n = s->n;
    for (;;) {
        if (s->bphase == BR_START) {
            if (!s->n_act)
                return LS_DONE;
            if (spent(s))
                return LS_BUDGET;
            long long hi = 0;
            for (long long j = 0; j < s->n_act; j++) {
                long long l = s->ls[s->act[j]];
                if (l < 0)
                    return -1;
                if (l > hi)
                    hi = l;
            }
            s->need = hi;
            if (hi >= s->bands->n)
                return LS_COVER;
            if (hi >= s->n_blocks)
                return -1;
            s->n_one = s->n_blk = 0;
            for (long long j = 0; j < s->n_act; j++) {
                long long c = s->act[j];
                if (s->blocks[s->ls[c]] == 1)
                    s->one[s->n_one++] = c;
                else
                    s->blk[s->n_blk++] = c;
            }
            long long sc[4];
            step_scan(s, s->one, s->n_one, sc);
            long long st = step_tables(s, sc);
            if (st)
                return st;
            /* the single steps */
            if (step_draws(bg, s, s->one, s->n_one)
                || step_holes(bg, s, s->one, s->n_one))
                return -1;
            for (long long j = 0; j < s->n_one; j++) {
                long long c = s->one[j];
                s->ls[c] += s->jumps[c];
                if (++s->da[c] == s->cps[s->cur[c]]) {
                    s->per[s->cur[c] * n + c] = s->ls[c];
                    s->vols[s->cur[c] * n + c] = s->vs[c];
                    s->cur[c]++;
                }
            }
            /* the blocks' lengths and tilts */
            long long m = s->n_blk, total = 0;
            for (long long b = 0; b < m; b++) {
                long long c = s->blk[b], B = s->blocks[s->ls[c]];
                if (B > s->n_steps - s->da[c])
                    B = s->n_steps - s->da[c];
                s->bB[b] = B;
                total += B;
            }
            if (total > s->block_draws) {
                long long cap = s->block_draws / m;
                if (cap < 1)
                    cap = 1;
                total = 0;
                for (long long b = 0; b < m; b++) {
                    if (s->bB[b] > cap)
                        s->bB[b] = cap;
                    total += s->bB[b];
                }
            }
            for (long long b = 0; b < m; b++) {
                s->bj[b] = walk_tilt(s, s->ls[s->blk[b]], s->bB[b]);
                if (s->bj[b] >= s->tilt_rows->n)
                    return -1;
            }
            if (total > s->ks_cap)
                return -1;
            /* each block's steps at its place in ks, with the running sum
               of its path, a marker -(k_neg + 1) counted as -l_small (the
               jumps it stands for are at most that): a block stops at the
               first step that takes that sum below 1.  bkeep: 0 for a
               block stopped, 1 for one that stays at 1 or above, ending at
               blB, 2 for one with markers, summed after their redraws */
            long long p = 0, mark = -(s->k_neg + 1), marked = 0;
            for (long long b = 0; b < m; p += s->bB[b++]) {
                long long l = s->ls[s->blk[b]], sum = 0, deep = 0, q = 0;
                long long *k = s->ks + p;
                for (; q < s->bB[b]; q++) {
                    if (cdf_one(bg, s->tilt_rows, s->bj[b], &k[q]))
                        return -1;
                    if (k[q] > mark) {
                        sum += k[q];
                    } else {
                        if (k[q] < mark || s->n_deep < 1)
                            return -1;
                        deep = 1;
                        sum -= s->l_small;
                    }
                    if (l + sum < 1)
                        break;
                }
                s->bkeep[b] = q < s->bB[b] ? 0 : deep ? 2 : 1;
                s->blB[b] = l + sum;
                marked |= s->bkeep[b] == 2;
            }
            /* the markers of the blocks that drew every step, linked in
               order from head */
            long long head = total;
            if (marked)
                for (long long b = m - 1, end = total; b >= 0; end -= s->bB[b--]) {
                    if (s->bkeep[b] != 2)
                        continue;
                    for (long long q = end - 1; q >= end - s->bB[b]; q--)
                        if (s->ks[q] == mark) {
                            s->ks[q] = deep_node(s, head, 0);
                            head = q;
                        }
                }
            while (head < total) {
                /* a nu proposal on k <= -l_small per pending entry */
                for (long long q = head; q < total; ) {
                    long long next = deep_next(s, s->ks[q]);
                    double u = bg->next_double(bg->state) * s->cs[s->n_deep];
                    long long i = search_right(s->cs + 1, 0, s->n_cs - 1, u);
                    if (i > s->n_deep - 1)
                        i = s->n_deep - 1;
                    s->ks[q] = deep_node(s, next, i);
                    q = next;
                }
                /* each kept with probability e^(theta (k + l_small)) */
                long long b = 0, end = s->bB[0], prev = -1;
                for (long long q = head; q < total; ) {
                    long long next = deep_next(s, s->ks[q]);
                    long long k = deep_index(s, s->ks[q]) - s->k_neg;
                    while (q >= end)
                        end += s->bB[++b];
                    double u = bg->next_double(bg->state);
                    double x = s->thetas[s->bj[b]] * (double)(k + s->l_small);
                    if (!(x < -708.0) && u < exp(x)) {
                        s->ks[q] = k;
                        if (prev < 0)
                            head = next;
                        else
                            s->ks[prev] = deep_node(s, next, deep_index(s, s->ks[prev]));
                    } else {
                        prev = q;
                    }
                    q = next;
                }
            }
            s->bphase = BR_ENDS;
        }
        /* the blocks with markers, now redrawn: their end perimeter, and
           whether they stay at 1 or above; then the largest end of a block
           that stays */
        long long hi = 0;
        for (long long b = 0, p = 0; b < s->n_blk; p += s->bB[b++]) {
            if (s->bkeep[b] == 2) {
                long long l = s->ls[s->blk[b]], sum = 0, q = 0;
                for (; q < s->bB[b]; q++) {
                    sum += s->ks[p + q];
                    if (l + sum < 1)
                        break;
                }
                s->bkeep[b] = q == s->bB[b];
                s->blB[b] = l + sum;
            }
            if (s->bkeep[b] && s->blB[b] > hi)
                hi = s->blB[b];
        }
        s->need = hi;
        if (hi >= s->bands->n)
            return LS_COVER;
        if (s->k_neg + hi >= s->bands->n_hz)
            return -1;
        /* one keep uniform per block that stays */
        for (long long b = 0; b < s->n_blk; b++) {
            long long j = s->bj[b], lB = s->blB[b];
            if (!s->bkeep[b])
                continue;
            double u = bg->next_double(bg->state);
            s->bkeep[b] = u < s->bands->hz[s->k_neg + lB]
                              * exp(-s->thetas[j] * (double)lB - s->log_K[j]);
        }
        /* the exact rows of the kept blocks' holes in step order, each
           coded into its step */
        if (s->volumes)
            for (long long b = 0, p = 0; b < s->n_blk; p += s->bB[b++]) {
                if (!s->bkeep[b])
                    continue;
                for (long long q = p; q < p + s->bB[b]; q++) {
                    long long lp = -2 - s->ks[q], val;
                    if (lp < 0)
                        continue;
                    if (hole_row(bg, s, lp, &val))
                        return -1;
                    s->ks[q] = hole_code(lp, val);
                    if (!s->ks[q])
                        return -1;
                }
            }
        /* the kept blocks' steps in order: their volumes, checkpoints and
           chains' new states */
        long long p = 0, kept = 0;
        for (long long b = 0; b < s->n_blk; b++) {
            long long c = s->blk[b], B = s->bB[b];
            if (!s->bkeep[b]) {
                p += B;
                continue;
            }
            kept++;
            long long l = s->ls[c], v = s->vs[c], step = s->da[c], cp = s->cur[c];
            for (long long q = 0; q < B; q++, p++) {
                long long lp, val, k = step_hole(s->ks[p], &lp, &val);
                l += k;
                if (lp >= 0) {
                    long long dv = hole_volume(bg, s, lp, val);
                    if (dv < 0)
                        return -1;
                    v += dv;
                }
                if (++step == s->cps[cp]) {
                    s->vols[cp * n + c] = v;
                    s->per[cp++ * n + c] = l;
                }
            }
            s->ls[c] = l;
            s->vs[c] = v;
            s->da[c] = step;
            s->cur[c] = cp;
        }
        s->block_proposals += s->n_blk;
        s->block_accepts += kept;
        /* the unfinished chains, in order */
        long long k = 0;
        for (long long j = 0; j < s->n_act; j++)
            if (s->da[s->act[j]] < s->n_steps)
                s->act[k++] = s->act[j];
        s->n_act = k;
        s->bphase = BR_START;
    }
}
"""
_C_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
# compiled libraries a user's cache keeps (`_prune`)
KEEP_LIBRARIES = 4

_P = ctypes.c_void_p
_LL = ctypes.c_longlong


class Cdf(ctypes.Structure):
    """cdf_t: the tables of one `_StackedCdf`, by address."""
    _fields_ = [("flat", _P), ("off", _P), ("n", _LL), ("width", _LL), ("vals", _P),
                ("guide", _P), ("n_guide", _LL), ("open", _LL), ("cells", _LL),
                ("u_max", ctypes.c_double)]


class Bands(ctypes.Structure):
    """bands_t: the tables of one `_Bands`, by address."""
    _fields_ = [(name, _P) for name in ("share", "t0_lo", "dt_lo", "env_lo",
                                        "t0_hi", "dt_hi", "env_hi")] + [
        ("n", _LL), ("cuts", _P), ("n_cuts", _LL), ("hz", _P), ("n_hz", _LL),
        ("k_neg", _LL), ("bracket", _P), ("cells", _LL), ("scale", ctypes.c_double)]


class Lockstep(ctypes.Structure):
    """lockstep_t: the tables, chains and work arrays of one run, by
    address, and where the run is: in ``lockstep`` for a finite run, in
    ``block_rounds`` for an infinite-map one.  A run's state is laid out by
    ``run_start`` from a template (`peeling._template`) and the run's two
    blocks (`peeling._Run`)."""
    _fields_ = [(name, _P) for name in ("rows", "bands", "volumes", "lo", "off",
                                        "c")] + [
        ("b", ctypes.c_double)] + [
        (name, _LL) for name in ("n_lp", "l_small", "absorbing", "l_exact", "n",
                                 "n_steps", "n_cps")] + [
        (name, _P) for name in ("cps", "ls", "vs", "per", "vols", "jumps", "at",
                                "lb", "kb", "todo", "vals", "env")] + [
        (name, _LL) for name in ("step", "cp", "band_proposals", "band_accepts",
                                 "residual_draws", "undrawn", "need")] + [
        ("blocks", _P), ("block_tilt", _P), ("n_blocks", _LL)] + [
        (name, _P) for name in ("tilt_rows", "thetas", "log_phi", "log_K", "cs")] + [
        (name, _LL) for name in ("n_cs", "k_neg", "n_deep", "block_draws")] + [
        (name, _P) for name in ("da", "cur", "act", "one", "blk", "bB", "bj",
                                "blB", "bkeep", "ks")] + [
        (name, _LL) for name in ("ks_cap", "n_act", "n_one", "n_blk", "bphase",
                                 "block_proposals", "block_accepts", "budget", "rounds")]


class Series(ctypes.Structure):
    """series_t: the weight cache and parameters of one series pass
    (`weights.WeightSequence.series_pass`), and where the pass is."""
    _fields_ = [("w", _P), ("n_w", _LL), ("log_w", _LL)] + [
        (name, ctypes.c_double) for name in ("c", "log_c", "r", "rho", "tol")] + [
        (name, _LL) for name in ("order", "j0", "n_j", "dr", "k_first", "k_cap",
                                 "k", "m")] + [
        (name, ctypes.c_double) for name in ("total", "h0", "h1", "d0", "d1")] + [
        (name, ctypes.c_double * 2) for name in ("s", "s_c", "s_r")] + [
        ("bound", ctypes.c_double)]


# the results of series_sums: done, a weight missing, an exp overflowing,
# no tail cut up to k_cap
SS_DONE, SS_WEIGHTS, SS_OVERFLOW, SS_NO_CUT = range(4)
# the results of lockstep and block_rounds: done, a row below L_SMALL
# missing, a perimeter past the engine's cover (a single step's or, in
# block_rounds, a block's start or end), and the round budget spent (the
# self-check's runs alone have one)
LS_DONE, LS_ROWS, LS_COVER, LS_BUDGET = range(4)
# the per-chain work rows of lockstep (and of block_rounds' single steps),
# and those block_rounds adds, in their order in a run's scratch block:
# STEP_WORK, then env, then BLOCK_WORK, then ks (`run_start`, which starts
# da and cur at 0 and act at every chain)
STEP_WORK = ("jumps", "at", "lb", "kb", "todo", "vals")
BLOCK_WORK = ("da", "cur", "act", "one", "blk", "bB", "bj", "blB", "bkeep")


class _Fixed(ctypes.Structure):
    """fixed_t: the state of `FixedStream`'s bit generator."""
    _fields_ = [("us", _P), ("n", _LL), ("at", _LL)]


class _BitGen(ctypes.Structure):
    """numpy's bitgen_t, with next_uint64 and next_double set, for
    `FixedStream`."""
    _fields_ = [("state", _P), ("next_uint64", _P), ("next_uint32", _P),
                ("next_double", _P), ("next_raw", _P)]


class FixedStream:
    """A stand-in for a numpy Generator whose uniforms are the entries of us
    in turn, cyclically, whether read by ``random(n)`` (the numpy draws) or
    through ``bit_generator`` (the compiled loops, by lib's fixed_double).
    ``gamma`` runs numpy's gamma code, as linked into lib, on the same
    stream, whose 64-bit words are the uniforms' bits mixed (fixed_uint64).
    It is its own ``bit_generator``, whose ``state`` is the position in us.
    The self-check runs on it rather than on a Generator: importing
    numpy.random would cost every process that builds an h table about
    14 ms and 6 MB."""

    def __init__(self, lib, us):
        self._lib = lib
        self._us = np.ascontiguousarray(us, dtype=np.float64)
        self._fixed = _Fixed(self._us.ctypes.data, len(self._us), 0)
        self._bitgen = _BitGen(
            state=ctypes.addressof(self._fixed),
            next_uint64=ctypes.cast(lib.fixed_uint64, _P).value,
            next_double=ctypes.cast(lib.fixed_double, _P).value)
        self.lock = threading.Lock()
        self.ctypes = types.SimpleNamespace(bit_generator=ctypes.addressof(self._bitgen))
        self.bit_generator = self

    @property
    def state(self):
        return self._fixed.at

    @state.setter
    def state(self, at):
        self._fixed.at = at

    def random(self, n):
        at = self._fixed.at
        self._fixed.at = at + n
        return self._us[np.arange(at, at + n) % len(self._us)]

    def gamma(self, shape, scale, size):
        out = np.empty(size)
        self._lib.gamma_fill(ctypes.addressof(self._bitgen), shape, scale, size,
                             address(out))
        return out

    @property
    def used(self):
        """How many uniforms the stream has given."""
        return self._fixed.at


def address(a):
    """The address of a C-contiguous array's first element, None for an
    empty one; the caller keeps a alive while C reads it."""
    if not a.size:
        return None
    if a.flags.writeable:
        # about a third of the time a.ctypes.data takes
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    return a.ctypes.data


def _cache_dir():
    """The per-user directory of the compiled library:
    $XDG_CACHE_HOME/peelkit, else ~/.cache/peelkit."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "peelkit")


def _npyrandom():
    """numpy's static library of its random distributions, which the
    compiled library links for numpy's own gamma code."""
    return os.path.join(os.path.dirname(np.__file__), "random", "lib",
                        "libnpyrandom.a")


def _library_path():
    """The compiled library's file, named by a CRC-32 of its source, flags,
    platform, numpy's version and the path, size and mtime of the static
    library it links (hashlib would add its import to every process): a
    new numpy compiles anew rather than keep another's gamma."""
    npyrandom = _npyrandom()
    try:
        st = os.stat(npyrandom)
        stamp = f"{st.st_size}:{st.st_mtime_ns}"
    except OSError:
        stamp = "missing"
    key = "\0".join((_C_SOURCE, *_C_FLAGS, sys.platform, platform.machine(),
                     np.__version__, npyrandom, stamp))
    return os.path.join(_cache_dir(), f"native-{zlib.crc32(key.encode()):08x}.so")


def _private(path, directory):
    """True when path is this user's own directory of mode 0o700, or
    (directory=False) this user's own regular file that nobody else may
    write; symbolic links never are."""
    st = os.lstat(path)
    mode = stat.S_IMODE(st.st_mode)
    if st.st_uid != os.getuid():
        return False
    if directory:
        return stat.S_ISDIR(st.st_mode) and mode == 0o700
    return stat.S_ISREG(st.st_mode) and not mode & 0o022


def _compile(cc, path, source=None):
    """Compile source (_C_SOURCE) with cc into path, linked with numpy's
    static random library: a temporary file in the same directory, renamed
    over path once complete.  Returns None, or why the compile failed."""
    import subprocess
    import tempfile

    fd, tmp = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(path))
    os.close(fd)
    try:
        proc = subprocess.run([cc, *_C_FLAGS, "-x", "c", "-", "-x", "none",
                               _npyrandom(), "-lm", "-o", tmp],
                              input=source or _C_SOURCE, text=True,
                              capture_output=True,
                              timeout=120)
        if proc.returncode:
            return f"C compile failed: {proc.stderr.strip()[:200]}"
        os.chmod(tmp, 0o700)
        os.replace(tmp, path)
    except subprocess.TimeoutExpired:
        return "C compile timed out"
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
    return None


def _prune(path):
    """Remove this user's older compiled libraries from path's directory:
    every hrec-*.so of earlier versions, and the native-*.so files but the
    KEEP_LIBRARIES newest by mtime, path among them, so that checkouts of
    other sources sharing the cache do not compile by turns.  Symbolic
    links and other users' files stay."""
    cache, keep = os.path.split(path)
    natives = []
    for name in os.listdir(cache):
        if name == keep or not (name.endswith(".so")
                                and name.startswith(("native-", "hrec-"))):
            continue
        old = os.path.join(cache, name)
        with contextlib.suppress(OSError):
            st = os.lstat(old)
            if stat.S_ISREG(st.st_mode) and st.st_uid == os.getuid():
                if name.startswith("native-"):
                    natives.append((st.st_mtime_ns, old))
                else:
                    os.unlink(old)
    for _, old in sorted(natives, reverse=True)[KEEP_LIBRARIES - 1:]:
        with contextlib.suppress(OSError):
            os.unlink(old)


def _open(path):
    """The library at path with every function's argument and result types."""
    lib = ctypes.CDLL(path)
    lib.fixed_double.argtypes = [_P]
    lib.fixed_double.restype = ctypes.c_double
    lib.fixed_uint64.argtypes = [_P]
    lib.fixed_uint64.restype = ctypes.c_uint64
    lib.gamma_fill.argtypes = [_P, ctypes.c_double, ctypes.c_double, _LL, _P]
    lib.gamma_fill.restype = None
    lib.h_recurrence_rows.argtypes = [_P, _LL, _P, _P] + [_LL] * 3 + [ctypes.c_double]
    lib.h_recurrence_rows.restype = None
    lib.lattice_sums.argtypes = [_P, _P, _LL, _LL, _P, _LL, _P, _P, _LL]
    lib.lattice_sums.restype = None
    lib.series_sums.argtypes = [ctypes.POINTER(Series)]
    lib.series_sums.restype = _LL
    lib.fill_rows.argtypes = [_P, _P, _P, _LL, _P, _LL, _LL, _LL, ctypes.c_int32, _P, _P]
    lib.fill_rows.restype = None
    for fn in (lib.lockstep, lib.block_rounds):
        fn.argtypes = [_P, ctypes.POINTER(Lockstep)]
        fn.restype = _LL
    lib.run_start.argtypes = [ctypes.POINTER(Lockstep)] * 2 + [_P] * 3 + [_LL] * 6
    lib.run_start.restype = None
    return lib


def _self_check(lib):
    """None when every compiled loop gives exactly its reference's output
    on small fixed inputs, else which one differs.  The compiler is not
    ours, so no draw and no table may depend on what it made of the
    source.  The h recurrence, the lattice sums and the series pass are
    checked first, then the row fill, the lockstep loop and the block
    rounds against the numpy fill and the Python and numpy loops, which
    draw with numpy alone.  The check calls lib directly and never
    `library()`."""
    from . import hfun, peeling, walk, weights   # the references

    # the rows loop from a table's start (j = 1) and resumed at j = 40: a
    # pair of orders and a single one, written past a row's first column
    ks = np.array([-3, 4, 1], dtype=np.int64)
    for r, j in itertools.product((0.37, -0.999999, 1.0), (1, 40)):
        outs = []
        for fill in (lambda rows, prev: lib.h_recurrence_rows(
                         address(rows) + 8, 101, address(prev), address(ks),
                         3, j, 100, r),
                     lambda rows, prev: hfun._recurrence_rows_py(
                         rows[:, 1:], prev, ks, j, r)):
            rows = np.zeros((3, 101))
            prev = np.array([hfun.recurrence_list(r, int(k), j + 1)[-2:]
                             for k in ks])
            fill(rows, prev)
            outs.append(rows.tobytes() + prev.tobytes())
        if outs[0] != outs[1]:
            return "compiled h recurrence differs from the Python loop"
    # the lattice sums on rows of a window with a row stride, from carried
    # sums, against np.cumsum's
    h = 1.0 / np.sqrt(np.arange(3.0, 63.0)).reshape(2, 30)
    w = np.sin(np.arange(1.0, 13.0))
    sums = []
    for which in (lib, None):
        carry, out = np.array([-0.0, 0.5, -2.0]), np.zeros((3, 14))
        walk._lattice_sums(h[:, 1:], [1, 0, 1], [0, 2, 5], 2, w, carry, out,
                           which)
        sums.append(out.tobytes() + carry.tobytes())
    if sums[0] != sums[1]:
        return "compiled lattice sums differ from the numpy sums"
    if not weights._same_series(lib):
        return "compiled series sums differ from the Python pass"
    return peeling._same_lockstep(lib) or peeling._same_blocks(lib)


def _load():
    """(lib, status): the compiled library and ("c", its path), or None
    and ("python", why the compiled loops are not used)."""
    path = _library_path()
    cache = os.path.dirname(path)
    if not os.path.isfile(_npyrandom()):
        return None, ("python", "numpy's static random library "
                      f"{_npyrandom()} is missing")
    try:
        os.makedirs(cache, mode=0o700, exist_ok=True)
        if not _private(cache, directory=True):
            return None, ("python", f"cache directory {cache} is not this "
                          "user's own with mode 0o700")
        if not os.path.lexists(path):
            cc = shutil.which("cc") or shutil.which("gcc")
            if cc is None:
                return None, ("python", "no C compiler")
            failure = _compile(cc, path)
            if failure is not None:
                return None, ("python", failure)
            _prune(path)
        if not _private(path, directory=False):
            return None, ("python", f"cached library {path} is not this "
                          "user's own regular file, writable by nobody else")
        lib = _open(path)
    except (OSError, AttributeError) as exc:
        return None, ("python", f"{type(exc).__name__}: {exc}")
    try:
        failure = _self_check(lib)
    except Exception as exc:    # a loop that fails outright fails the check
        failure = f"self-check raised {type(exc).__name__}: {exc}"
    if failure is not None:
        return None, ("python", f"{failure} ({path})")
    return lib, ("c", path)


_lock = threading.Lock()
_state = None


def library():
    """The (lib, status) pair of `_load`, loaded once per process: lib is
    the ctypes library, or None where every caller runs its reference."""
    global _state
    if _state is None:
        with _lock:
            if _state is None:
                _state = _load()
    return _state
