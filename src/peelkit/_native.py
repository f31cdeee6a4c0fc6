"""The package's compiled loops: one C source, one cached shared library.

The library holds three loops, each a copy of a numpy or Python loop that
stays in the package as the fallback and the test reference:

* ``h_recurrence``, the float h recurrence of `hfun._recurrence_py`;
* ``cdf_draw``, the inverse-CDF draw of `peeling._StackedCdf`;
* ``band_jumps``, the band-envelope rejection of `peeling._Bands`;

and ``fixed_double``, the bit generator of `FixedStream`, which feeds the
self-check fixed uniforms.

Each does the same double operations in the same order as its reference,
and the two draws read their uniforms from the Generator's own bit
generator (numpy's ``bitgen_t``, one ``next_double`` per uniform, in the
order ``rng.random(n)`` would deliver them), so every table, trace and
sample is bit-identical either way.

The source is compiled once per machine with `_C_FLAGS` (no contraction
into fused multiply-adds, no reassociation, the platform's baseline
instruction set), cached in the user's private cache directory
(`_cache_dir`) under a name that hashes the source, flags and platform,
and loaded with ctypes.  On loading, the compiled loops are compared with
their references on small fixed inputs (`_self_check`).  Without a
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
#include <stdint.h>
#include <stdlib.h>

/* numpy's bitgen_t (numpy/random/bitgen.h) */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

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

/* One value per row, t = row + u * u_max with u = next_double, as
   _StackedCdf: 0, or -1 for a row outside [0, n) or a read outside a
   table. */
int cdf_draw(bitgen_t *bg, const cdf_t *c, const long long *rows,
             long long m, long long *out)
{
    long long n_flat = c->n * c->width;
    for (long long i = 0; i < m; i++)
        if (rows[i] < 0 || rows[i] >= c->n)
            return -1;
    for (long long i = 0; i < m; i++) {
        double t = (double)rows[i] + bg->next_double(bg->state) * c->u_max;
        if (c->guide) {
            long long cell = (long long)(t * (double)c->cells);
            if (cell >= c->n_guide)
                return -1;
            if (c->guide[cell] != c->open) {
                out[i] = c->guide[cell];
                continue;
            }
        }
        /* the row's own entries, when its neighbours bound t */
        long long lo = rows[i] * c->width, hi = lo + c->width;
        if (lo > 0 && t < c->flat[lo - 1])
            lo = 0;
        if (hi < n_flat && !(t < c->flat[hi]))
            hi = n_flat;
        long long idx = search_right(c->flat, lo, hi, t);
        if (c->shared)
            idx %= c->width;
        if (idx >= c->n_vals)
            return -1;
        out[i] = c->vals[idx];
    }
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

/* One jump per chain at perimeters ls, as _Bands: each round draws the
   band uniform of every pending chain, then the acceptance uniform of
   every pending chain, and keeps the rejected ones in order.  Returns the
   number of proposals, -1 for a perimeter outside [0, n) or a read
   outside hz, -2 when out of memory. */
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
    long long left = m, proposals = 0;
    if (!todo || !env) {
        proposals = -2;
        goto done;
    }
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
            if (at >= b->n_hz) {
                proposals = -1;
                goto done;
            }
            if (!(bg->next_double(bg->state) * env[j] < b->hz[at]))
                todo[kept++] = i;
        }
        left = kept;
    }
    for (long long i = 0; i < m; i++)
        out[i] -= b->k_neg;
done:
    free(todo);
    free(env);
    return proposals;
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


class _Fixed(ctypes.Structure):
    """fixed_t: the state of `FixedStream`'s bit generator."""
    _fields_ = [("us", _P), ("n", _LL), ("at", _LL)]


class _BitGen(ctypes.Structure):
    """numpy's bitgen_t, with only next_double set, for `FixedStream`."""
    _fields_ = [("state", _P), ("next_uint64", _P), ("next_uint32", _P),
                ("next_double", _P), ("next_raw", _P)]


class FixedStream:
    """A stand-in for a numpy Generator whose uniforms are the entries of us
    in turn, cyclically, whether read by ``random(n)`` (the numpy draws) or
    through ``bit_generator`` (the compiled draws, by lib's fixed_double).
    The self-check runs on it rather than on a Generator: importing
    numpy.random would cost every process that builds an h table about
    14 ms and 6 MB."""

    def __init__(self, lib, us):
        self._us = np.ascontiguousarray(us, dtype=np.float64)
        self._fixed = _Fixed(self._us.ctypes.data, len(self._us), 0)
        self._bitgen = _BitGen(
            state=ctypes.addressof(self._fixed),
            next_double=ctypes.cast(lib.fixed_double, _P).value)
        self.bit_generator = types.SimpleNamespace(
            lock=threading.Lock(), ctypes=types.SimpleNamespace(
                bit_generator=ctypes.addressof(self._bitgen)))

    def random(self, n):
        at = self._fixed.at
        self._fixed.at = at + n
        return self._us[np.arange(at, at + n) % len(self._us)]


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


def _library_path():
    """The compiled library's file, named by a CRC-32 of its source, flags
    and platform (hashlib would add its import to every process)."""
    key = "\0".join((_C_SOURCE, *_C_FLAGS, sys.platform, platform.machine()))
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
    """Compile _C_SOURCE with cc into path: a temporary file in the same
    directory, renamed over path once complete.  Returns None, or why the
    compile failed."""
    import subprocess
    import tempfile

    fd, tmp = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(path))
    os.close(fd)
    try:
        proc = subprocess.run([cc, *_C_FLAGS, "-x", "c", "-", "-o", tmp],
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


def _open(path):
    """The library at path with every function's argument and result types."""
    lib = ctypes.CDLL(path)
    lib.fixed_double.argtypes = [_P]
    lib.fixed_double.restype = ctypes.c_double
    lib.h_recurrence.argtypes = [_P, _LL, _LL, ctypes.c_double, _LL]
    lib.h_recurrence.restype = None
    lib.cdf_draw.argtypes = [_P, ctypes.POINTER(Cdf), _P, _LL, _P]
    lib.cdf_draw.restype = ctypes.c_int
    lib.band_jumps.argtypes = [_P, ctypes.POINTER(Bands), _P, _LL, _P]
    lib.band_jumps.restype = _LL
    return lib


def _self_check(lib):
    """None when every compiled loop gives exactly its reference's output
    on small fixed inputs, else which one differs.  The compiler is not
    ours, so no draw and no table may depend on what it made of the
    source."""
    from . import hfun, peeling   # the references; imported by now

    for r, k in ((0.37, -3), (-0.999999, 4), (1.0, 1)):
        tabs = []
        for fill in (lambda *a: lib.h_recurrence(address(a[0]), *a[1:]),
                     hfun._recurrence_py):
            out = np.empty(100)
            out[:2] = 1.0, (1.0 - r) * 0.5 + k
            fill(out, 1, 100, r, k)
            tabs.append(out.tobytes())
        if tabs[0] != tabs[1]:
            return "compiled h recurrence differs from the Python loop"
    if not peeling._same_draws(lib):
        return "compiled draws differ from the numpy draws"
    return None


def _load():
    """(lib, status): the compiled library and ("c", its path), or None
    and ("python", why the compiled loops are not used)."""
    path = _library_path()
    cache = os.path.dirname(path)
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
        if not _private(path, directory=False):
            return None, ("python", f"cached library {path} is not this "
                          "user's own regular file, writable by nobody else")
        lib = _open(path)
    except (OSError, AttributeError) as exc:
        return None, ("python", f"{type(exc).__name__}: {exc}")
    failure = _self_check(lib)
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
