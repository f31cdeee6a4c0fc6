"""The package's compiled loops: one C source, one cached shared library.

The library holds six loops, each a copy of a numpy or Python loop that
stays in the package as the fallback and the test reference:

* ``h_recurrence``, the float h recurrence of `hfun._recurrence_py`;
* ``h_derivative``, the recurrence's r-derivative of `hfun._derivative_py`;
* ``cdf_draw``, the inverse-CDF draw of `peeling._StackedCdf`;
* ``band_jumps``, the band-envelope rejection of `peeling._Bands`;
* ``fill_rows``, the stacked rows of `peeling._ChainEngine._fill_numpy`;
* ``lockstep``, the chains' single steps of `peeling._lockstep_numpy`
  with their volumes and checkpoints, run until a table is missing;

and ``fixed_double``/``fixed_uint64``, the bit generator of `FixedStream`,
which feeds the self-check fixed uniforms, and ``gamma_fill``.

Each does the same double operations in the same order as its reference,
and the draws read their uniforms from the Generator's own bit generator
(numpy's ``bitgen_t``, one ``next_double`` per uniform, in the order
``rng.random(n)`` would deliver them), so every table, trace and sample is
bit-identical either way.  The volumes' Gamma(3/2, scale 2) draws are
numpy's own ``random_gamma``, statically linked from the
``numpy/random/lib/libnpyrandom.a`` numpy ships: the code
``Generator.gamma`` runs, as long as the library was linked against this
numpy, which the cached file's name ensures (`_library_path`).

The source is compiled once per machine and numpy with `_C_FLAGS` (no
contraction into fused multiply-adds, no reassociation, the platform's
baseline instruction set), cached in the user's private cache directory
(`_cache_dir`) under a name that hashes the source, flags, platform, numpy's
version and its static library's path, size and mtime, and loaded with
ctypes; a compile removes the user's other compiled libraries there
(`_prune`).  On loading, the compiled loops are compared with their
references on small fixed inputs (`_self_check`): the h recurrence and its
r-derivative, then the draws, then the row fill and the lockstep loop on a
synthetic law.  The gamma is not compared with numpy's there (that would
import numpy.random into every process): it runs on the stand-in bit
generator for both sides of the lockstep check, and a test pins it to
``Generator.gamma(1.5, 2.0)``.  Without numpy's static library, a
compiler, a private cache directory, a successful compile and load or an
exact match, every caller runs its reference loop instead; `library()`
says which and why, and `hfun.float_recurrence()` reports it.
"""

from __future__ import annotations

import contextlib
import ctypes
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
#include <stdlib.h>
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

void h_recurrence(double *out, long long start, long long size, double r,
                  long long k)
{
    double one_m_r = 1.0 - r, p2 = out[start - 1], p1 = out[start];
    for (long long j = start; j < size - 1; j++) {
        double a = one_m_r * ((double)j + 0.5) + (double)k;
        double b = r * (double)(j + k);
        double v = (a * p1 + b * p2) / (double)(j + 1);
        out[j + 1] = v;
        p2 = p1;
        p1 = v;
    }
}

/* The r-derivative of h_recurrence's table at the same r and k:
   d[j+1] = (a d[j] + b d[j-1] - (j+1/2) h[j] + (j+k) h[j-1]) / (j+1),
   from d[start-1] and d[start], with h holding at least size - 1 entries */
void h_derivative(double *d, const double *h, long long start, long long size,
                  double r, long long k)
{
    double one_m_r = 1.0 - r, p2 = d[start - 1], p1 = d[start];
    for (long long j = start; j < size - 1; j++) {
        double a = one_m_r * ((double)j + 0.5) + (double)k;
        double b = r * (double)(j + k);
        double v = (a * p1 + b * p2 - ((double)j + 0.5) * h[j]
                    + (double)(j + k) * h[j - 1]) / (double)(j + 1);
        d[j + 1] = v;
        p2 = p1;
        p1 = v;
    }
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
    const double *flat;        /* n rows of width cumulative weights */
    long long n, width;
    const long long *vals;     /* width values (shared) or width per row */
    long long n_vals, shared;
    const long long *guide;    /* guide cells, or NULL */
    long long n_guide, open, cells;
    double u_max;
} cdf_t;

/* The value at t = row + u * u_max, u = next_double, for 0 <= row < n:
   0, or -1 for a read outside a table.  Inlined: a call per draw costs
   cdf_draw a tenth of its time. */
static inline __attribute__((always_inline))
int cdf_one(bitgen_t *bg, const cdf_t *c, long long row, long long *out)
{
    double t = (double)row + bg->next_double(bg->state) * c->u_max;
    if (c->guide) {
        long long cell = (long long)(t * (double)c->cells);
        if (cell >= c->n_guide)
            return -1;
        if (c->guide[cell] != c->open) {
            *out = c->guide[cell];
            return 0;
        }
    }
    /* the row's own entries, when its neighbours bound t */
    long long n_flat = c->n * c->width;
    long long lo = row * c->width, hi = lo + c->width;
    if (lo > 0 && t < c->flat[lo - 1])
        lo = 0;
    if (hi < n_flat && !(t < c->flat[hi]))
        hi = n_flat;
    long long idx = search_right(c->flat, lo, hi, t);
    if (c->shared)
        idx %= c->width;
    if (idx >= c->n_vals)
        return -1;
    *out = c->vals[idx];
    return 0;
}

/* One value per row, as _StackedCdf: 0, or -1 for a row outside [0, n) or
   a read outside a table. */
int cdf_draw(bitgen_t *bg, const cdf_t *c, const long long *rows,
             long long m, long long *out)
{
    for (long long i = 0; i < m; i++)
        if (rows[i] < 0 || rows[i] >= c->n)
            return -1;
    for (long long i = 0; i < m; i++)
        if (cdf_one(bg, c, rows[i], &out[i]))
            return -1;
    return 0;
}

typedef struct {
    const double *share, *t0_lo, *dt_lo, *env_lo, *t0_hi, *dt_hi, *env_hi;
    long long n;               /* perimeters 0..n-1 */
    const double *cuts;        /* the inner cuts cs[1:-1] of nu's cdf */
    long long n_cuts;
    const double *hz;
    long long n_hz, k_neg;
} bands_t;

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
            out[i] = search_right(b->cuts, 0, b->n_cuts, t);
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

/* band_rounds for _Bands.jumps: -1 also for a perimeter outside [0, n),
   -2 when out of memory. */
long long band_jumps(bitgen_t *bg, const bands_t *b, const long long *ls,
                     long long m, long long *out)
{
    for (long long i = 0; i < m; i++)
        if (ls[i] < 0 || ls[i] >= b->n)
            return -1;
    if (m == 0)
        return 0;
    long long *todo = malloc(m * sizeof *todo);
    double *env = malloc(m * sizeof *env);
    long long proposals = -2;
    if (todo && env)
        proposals = band_rounds(bg, b, ls, m, out, todo, env);
    free(todo);
    free(env);
    return proposals;
}

/* Rows l_from..l_to-1 of the chain engine's stacked rows into cum, as
   _ChainEngine._fill_numpy: w_j = hz[l + idx_j] * p[idx_j], their running
   sum divided by its last entry where that is positive, plus l. */
void fill_rows(const double *hz, const double *p, const long long *idx,
               long long width, long long l_from, long long l_to, double *cum)
{
    for (long long l = l_from; l < l_to; l++, cum += width) {
        double s = 0.0;
        for (long long j = 0; j < width; j++) {
            double w = hz[l + idx[j]] * p[idx[j]];
            s = j ? s + w : w;
            cum[j] = s;
        }
        double total = cum[width - 1];
        for (long long j = 0; j < width; j++)
            cum[j] = (total > 0 ? cum[j] / total : cum[j]) + (double)l;
    }
}

enum { LS_DONE, LS_BLOCKS, LS_ROWS, LS_BANDS, LS_MEAN };
enum { VOL_MEANS, VOL_LIMIT, VOL_EXACT };

typedef struct {
    const cdf_t *rows;         /* the engine's rows, perimeters 0..rows->n-1 */
    const bands_t *bands;      /* its bands, perimeters 0..bands->n-1 */
    const cdf_t *volumes;      /* exact volume rows (VOL_EXACT), or NULL */
    const long long *means;    /* rounded mean volumes, 0 = not yet known */
    long long n_means, l_small, block_from, absorbing;
    long long rule, l_exact, heavy;
    double b_nu;
    long long n, n_steps, n_cps;
    const long long *cps;      /* checkpoints, ascending, the last n_steps */
    long long *ls, *vs, *per, *vols;
    long long *jumps, *at, *lb, *kb, *todo, *vals;   /* n entries each */
    double *env;
    long long step, cp, phase, n_prune;
    long long band_proposals, band_accepts, residual_draws, heavy_means;
    long long need;
} lockstep_t;

/* The chains' steps while every one has B(l) = 1, as peeling._lockstep_numpy:
   per step the row draws of the live chains below l_small in chain order,
   the band rounds of those at or above it, then per pruning jump (in
   chain order) its volume: the mean (VOL_MEANS), or the exact row and,
   for a residual or l' > l_exact, the limit law (VOL_EXACT), or the limit
   law (VOL_LIMIT): xi = 1 / Gamma(3/2, scale 2), V = rint(xi B l'^2) at
   least the floor, or the mean for a heavy law.  A step draws nothing
   before it has every table it reads: it returns LS_ROWS, LS_BANDS or
   LS_MEAN with the perimeter or l' in need, to resume at the same phase
   once that is tabulated, or LS_BLOCKS with the largest perimeter when
   that is at block_from.  LS_DONE after n_steps, or when every chain of
   an absorbing run is at 0; -1 for a read outside a table. */
long long lockstep(bitgen_t *bg, lockstep_t *s)
{
    long long n = s->n;
    while (s->step < s->n_steps) {
        if (s->phase == 0) {
            long long hi = 0, hi_small = -1, hi_band = -1, live = 0;
            for (long long c = 0; c < n; c++) {
                long long l = s->ls[c];
                if (l < 0)
                    return -1;
                if (l > hi)
                    hi = l;
                if (s->absorbing && l == 0)
                    continue;
                live++;
                if (l < s->l_small) {
                    if (l > hi_small)
                        hi_small = l;
                } else if (l > hi_band) {
                    hi_band = l;
                }
            }
            s->need = hi;
            if (hi >= s->block_from)
                return LS_BLOCKS;
            if (!live)
                return LS_DONE;
            s->need = hi_small;
            if (hi_small >= s->rows->n)
                return LS_ROWS;
            s->need = hi_band;
            if (hi_band >= s->bands->n)
                return LS_BANDS;
            long long m = 0;
            for (long long c = 0; c < n; c++) {
                long long l = s->ls[c];
                if (s->absorbing && l == 0) {
                    s->jumps[c] = 0;
                } else if (l < s->l_small) {
                    if (cdf_one(bg, s->rows, l, &s->jumps[c]))
                        return -1;
                } else {
                    s->at[m] = c;
                    s->lb[m++] = l;
                }
            }
            long long proposals = band_rounds(bg, s->bands, s->lb, m, s->kb,
                                              s->todo, s->env);
            if (proposals < 0)
                return -1;
            s->band_proposals += proposals;
            s->band_accepts += m;
            for (long long j = 0; j < m; j++)
                s->jumps[s->at[j]] = s->kb[j];
            s->phase = 1;
        }
        if (s->phase == 1) {
            long long k = 0;
            for (long long c = 0; c < n; c++)
                if (s->jumps[c] <= -2)
                    s->at[k++] = c;
            s->n_prune = k;
            if (s->rule == VOL_EXACT)
                for (long long j = 0; j < k; j++) {
                    long long lp = -2 - s->jumps[s->at[j]];
                    long long row = lp < s->l_exact ? lp : s->l_exact;
                    if (cdf_one(bg, s->volumes, row, &s->vals[j]))
                        return -1;
                }
            s->phase = 2;
        }
        /* phase 2: every mean it reads is known before it draws */
        long long k = s->n_prune, rule = s->rule;
        for (long long j = 0; j < k; j++) {
            long long lp = -2 - s->jumps[s->at[j]];
            if (rule == VOL_MEANS || (s->heavy && (rule == VOL_LIMIT
                    || s->vals[j] < 0 || lp > s->l_exact))) {
                if (lp >= s->n_means)
                    return -1;
                s->need = lp;
                if (!s->means[lp])
                    return LS_MEAN;
            }
        }
        long long limit = 0;
        for (long long j = 0; j < k; j++) {
            long long lp = -2 - s->jumps[s->at[j]], v = 0, floor = 1;
            if (rule == VOL_MEANS) {
                v = s->means[lp];
            } else {
                int drawn = rule == VOL_LIMIT;
                if (rule == VOL_EXACT) {
                    v = s->vals[j];
                    if (v < 0) {
                        floor = -v;
                        s->residual_draws++;
                    }
                    drawn = v < 0 || lp > s->l_exact;
                }
                if (drawn) {
                    limit++;
                    if (s->heavy) {
                        v = s->means[lp];
                    } else {
                        double xi = 1.0 / random_gamma(bg, 1.5, 2.0);
                        v = (long long)rint(xi * s->b_nu * (double)(lp * lp));
                    }
                    if (v < floor)
                        v = floor;
                }
            }
            s->vs[s->at[j]] += v;
        }
        if (s->heavy && limit)
            s->heavy_means = 1;
        for (long long c = 0; c < n; c++)
            s->ls[c] += s->jumps[c];
        s->step++;
        if (s->step == s->cps[s->cp]) {
            memcpy(s->per + s->cp * n, s->ls, n * sizeof *s->ls);
            memcpy(s->vols + s->cp * n, s->vs, n * sizeof *s->vs);
            s->cp++;
        }
        s->phase = 0;
    }
    return LS_DONE;
}
"""
_C_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

_P = ctypes.c_void_p
_LL = ctypes.c_longlong


class Cdf(ctypes.Structure):
    """cdf_t: the tables of one `_StackedCdf`, by address."""
    _fields_ = [("flat", _P), ("n", _LL), ("width", _LL), ("vals", _P),
                ("n_vals", _LL), ("shared", _LL), ("guide", _P),
                ("n_guide", _LL), ("open", _LL), ("cells", _LL),
                ("u_max", ctypes.c_double)]


class Bands(ctypes.Structure):
    """bands_t: the tables of one `_Bands`, by address."""
    _fields_ = [(name, _P) for name in ("share", "t0_lo", "dt_lo", "env_lo",
                                        "t0_hi", "dt_hi", "env_hi")] + [
        ("n", _LL), ("cuts", _P), ("n_cuts", _LL), ("hz", _P), ("n_hz", _LL),
        ("k_neg", _LL)]


class Lockstep(ctypes.Structure):
    """lockstep_t: the tables, chains and work arrays of one lockstep run
    (`peeling._lockstep_c`), by address, and where the run is."""
    _fields_ = [(name, _P) for name in ("rows", "bands", "volumes", "means")] + [
        (name, _LL) for name in ("n_means", "l_small", "block_from", "absorbing",
                                 "rule", "l_exact", "heavy")] + [
        ("b_nu", ctypes.c_double)] + [
        (name, _LL) for name in ("n", "n_steps", "n_cps")] + [
        (name, _P) for name in ("cps", "ls", "vs", "per", "vols", "jumps", "at",
                                "lb", "kb", "todo", "vals", "env")] + [
        (name, _LL) for name in ("step", "cp", "phase", "n_prune",
                                 "band_proposals", "band_accepts",
                                 "residual_draws", "heavy_means", "need")]


# lockstep's results: done, blocks ahead, and the tables it lacks
LS_DONE, LS_BLOCKS, LS_ROWS, LS_BANDS, LS_MEAN = range(5)
# its volume rules
VOL_MEANS, VOL_LIMIT, VOL_EXACT = range(3)


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
    through ``bit_generator`` (the compiled draws, by lib's fixed_double).
    ``gamma`` runs numpy's gamma code, as linked into lib, on the same
    stream, whose 64-bit words are the uniforms' bits mixed (fixed_uint64).
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
        self.bit_generator = types.SimpleNamespace(
            lock=threading.Lock(), ctypes=types.SimpleNamespace(
                bit_generator=ctypes.addressof(self._bitgen)))

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


def draw(fn, rng, tables, at):
    """fn(bit generator, tables, at, len(at), out) for the compiled draws,
    under the generator's lock as numpy's own methods hold it (ctypes
    releases the GIL): (fn's result, out, one int64 per entry of at)."""
    at = np.ascontiguousarray(at, dtype=np.int64)
    out = np.empty(len(at), dtype=np.int64)
    bg = rng.bit_generator
    with bg.lock:
        ret = fn(bg.ctypes.bit_generator, tables, address(at), len(at), address(out))
    return ret, out


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


def _compile(cc, path):
    """Compile _C_SOURCE with cc into path, linked with numpy's static random
    library: a temporary file in the same directory, renamed over path once
    complete.  Returns None, or why the compile failed."""
    import subprocess
    import tempfile

    fd, tmp = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(path))
    os.close(fd)
    try:
        proc = subprocess.run([cc, *_C_FLAGS, "-x", "c", "-", "-x", "none",
                               _npyrandom(), "-lm", "-o", tmp],
                              input=_C_SOURCE, text=True, capture_output=True,
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
    """Remove this user's other compiled libraries from path's directory:
    the other native-*.so files and the hrec-*.so of earlier versions.
    Symbolic links and other users' files stay."""
    cache, keep = os.path.split(path)
    for name in os.listdir(cache):
        if name == keep or not (name.endswith(".so")
                                and name.startswith(("native-", "hrec-"))):
            continue
        old = os.path.join(cache, name)
        with contextlib.suppress(OSError):
            st = os.lstat(old)
            if stat.S_ISREG(st.st_mode) and st.st_uid == os.getuid():
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
    lib.h_recurrence.argtypes = [_P, _LL, _LL, ctypes.c_double, _LL]
    lib.h_recurrence.restype = None
    lib.h_derivative.argtypes = [_P, _P, _LL, _LL, ctypes.c_double, _LL]
    lib.h_derivative.restype = None
    lib.cdf_draw.argtypes = [_P, ctypes.POINTER(Cdf), _P, _LL, _P]
    lib.cdf_draw.restype = ctypes.c_int
    lib.band_jumps.argtypes = [_P, ctypes.POINTER(Bands), _P, _LL, _P]
    lib.band_jumps.restype = _LL
    lib.fill_rows.argtypes = [_P, _P, _P, _LL, _LL, _LL, _P]
    lib.fill_rows.restype = None
    lib.lockstep.argtypes = [_P, ctypes.POINTER(Lockstep)]
    lib.lockstep.restype = _LL
    return lib


def _self_check(lib):
    """None when every compiled loop gives exactly its reference's output
    on small fixed inputs, else which one differs.  The compiler is not
    ours, so no draw and no table may depend on what it made of the
    source.  The draws and the row fill are checked first; the lockstep
    loop is then checked against the Python loop, which runs on them, as
    library() answers lib in this thread while the check runs."""
    from . import hfun, peeling   # the references; imported by now

    for r, k in ((0.37, -3), (-0.999999, 4), (1.0, 1)):
        tabs, dtabs = [], []
        for fill, dfill in (
                (lambda *a: lib.h_recurrence(address(a[0]), *a[1:]),
                 lambda d, h, *a: lib.h_derivative(address(d), address(h), *a)),
                (hfun._recurrence_py, hfun._derivative_py)):
            out = np.empty(100)
            out[:2] = 1.0, (1.0 - r) * 0.5 + k
            fill(out, 1, 100, r, k)
            tabs.append(out.tobytes())
            d = np.empty(100)
            d[:2] = 0.0, -0.5
            dfill(d, out, 1, 100, r, k)
            dtabs.append(d.tobytes())
        if tabs[0] != tabs[1]:
            return "compiled h recurrence differs from the Python loop"
        if dtabs[0] != dtabs[1]:
            return "compiled h derivative differs from the Python loop"
    if not peeling._same_draws(lib):
        return "compiled draws differ from the numpy draws"
    _checking.lib = lib
    try:
        return peeling._same_lockstep(lib)
    finally:
        _checking.lib = None


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
_checking = threading.local()   # .lib: the library under its self-check
_checking.lib = None


def library():
    """The (lib, status) pair of `_load`, loaded once per process: lib is
    the ctypes library, or None where every caller runs its reference.
    While `_self_check` runs, its thread gets the library under check."""
    global _state
    if _state is None:
        lib = getattr(_checking, "lib", None)
        if lib is not None:
            return lib, ("c", "self-check")
        with _lock:
            if _state is None:
                _state = _load()
    return _state
