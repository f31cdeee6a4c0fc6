import contextlib
import ctypes
import json
import math
import os
import re
import shutil
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from peelkit import _native, hfun
from peelkit.errors import RangeError, UnsupportedOrderError
from peelkit.hfun import HCache, h_asymptote, shared_cache

from series_oracle import h_oracle
from test_peeling import LAW, numpy_draws


def central_binomial(n):
    return math.comb(2 * n, n)


class TestEval:
    def test_first_values_closed_form(self):
        # h(0, 1) = (1-r)/2 and h(0, 2) = (3 - 2r + 3r^2)/8
        c = HCache(Fraction(1, 2))
        assert c.value(0, 1) == Fraction(1, 4)
        c0 = HCache(Fraction(0))
        assert c0.value(0, 2) == Fraction(3, 8)

    def test_bipartite_order_one(self):
        # at r = 1: h(1, 2l) = 2l * 4^(-l) * C(2l, l)
        c = HCache(1)
        assert c.value(1, 4) == Fraction(3, 2)
        for l in range(1, 8):
            expect = Fraction(2 * l * central_binomial(l), 4**l)
            assert c.value(1, 2 * l) == expect
            assert c.value(1, 2 * l - 1) == expect

    def test_value_at_order_is_one_floats(self):
        c = HCache(-0.4, mode="float")
        assert c.value(3, 3) == pytest.approx(1.0, abs=0)

    def test_vanishes_below_order(self):
        c = HCache(Fraction(1, 3))
        for k in range(-4, 5):
            assert c.value(k, k - 1) == 0
            assert c.value(k, k - 3) == 0
            assert c.value(k, k) == 1

    @pytest.mark.parametrize("k", range(-4, 5))
    @pytest.mark.parametrize("r", [Fraction(1, 2), Fraction(-2, 5), 1])
    def test_against_series_oracle(self, k, r):
        c = HCache(r)
        for l in range(k, k + 12):
            assert c.value(k, l) == h_oracle(k, l, r)

    def test_order_2_spec_point(self):
        # independent expansion of (1-u)^(-5/2) (1+u/2)^(-1/2) to u^3
        c = HCache(Fraction(1, 2))
        assert c.value(2, 5) == h_oracle(2, 5, Fraction(1, 2))
        assert c.value(2, 5) == Fraction(725, 128)

    def test_unsupported_order(self):
        c = HCache(1)
        with pytest.raises(UnsupportedOrderError):
            c.value(5, 10)
        with pytest.raises(UnsupportedOrderError):
            c.value(-5, 10)


class TestBatch:
    def test_bipartite_odd_zeros(self):
        c = HCache(1)
        assert c.table(0, 2)[:3] == [1, 0, Fraction(1, 2)]

    def test_trivial_prefix(self):
        c = HCache(0.123, mode="float")
        assert c.table(1, 1)[0] == 1.0

    def test_matches_value(self):
        c = HCache(Fraction(1, 3))
        vals = c.table(0, 4)
        for l in range(5):
            assert vals[l] == c.value(0, l)


class TestRecurrences:
    @pytest.mark.parametrize("r", [Fraction(1, 2), Fraction(-1, 3), 1])
    def test_difference_relation_exact(self, r):
        c = HCache(r)
        for k in range(-4, 4):
            for l in range(k - 1, k + 20):
                assert c.value(k, l) == c.value(k + 1, l + 1) - c.value(k + 1, l)

    @pytest.mark.parametrize("r", [0.37, -0.62, 1.0])
    def test_difference_relation_float(self, r):
        c = HCache(r, mode="float")
        for k in range(-4, 4):
            for l in range(max(k, 1), k + 40):
                lhs = c.value(k, l)
                rhs = c.value(k + 1, l + 1) - c.value(k + 1, l)
                assert rhs == pytest.approx(lhs, rel=1e-11, abs=1e-13)

    def test_forward_sum_relation(self):
        c = HCache(Fraction(2, 7))
        for k in range(0, 4):
            for l in range(k + 1, k + 15):
                total = sum(c.value(k, p) for p in range(k, l))
                assert c.value(k + 1, l) == total

    def test_float_agrees_with_exact(self):
        for r in [Fraction(1, 2), Fraction(-3, 7), Fraction(1)]:
            exact = HCache(r)
            approx = HCache(float(r), mode="float")
            for k in range(-4, 5):
                for l in range(k, k + 60):
                    e = exact.value(k, l)
                    f = approx.value(k, l)
                    if e == 0:
                        assert abs(f) < 1e-12
                    else:
                        assert abs(f - float(e)) <= 1e-12 * abs(float(e)) + 1e-15


class TestDerivative:
    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("r", [Fraction(1, 2), Fraction(-2, 5), Fraction(0),
                                   Fraction(99, 100)])
    def test_matches_exact_central_differences(self, r, k):
        # h(k, l) is a polynomial of degree l - k in r, so the central
        # difference of exact tables at r +- d is off by O(d^2) only
        d = Fraction(1, 10**12)
        up, down = HCache(r + d), HCache(r - d)
        rf = float(r)
        dtab = hfun.derivative_list(hfun.recurrence_list(rf, k, 61), rf, k)
        for l in range(k, k + 61):
            e = float((up.value(k, l) - down.value(k, l)) / (2 * d))
            assert abs(dtab[l - k] - e) <= 1e-12 * abs(e) + 1e-15, (l, dtab[l - k], e)

    @pytest.mark.parametrize("r", [0.37, -0.62, 0.0, 1.0, 0.999999,
                                   -0.999999, 1e-300])
    def test_bit_identical_to_plain_loop(self, r):
        for k in range(-4, 5):
            got = hfun.derivative_list(hfun.recurrence_list(r, k, 9_600), r, k)
            assert np.array(got).tobytes() == np.array(
                reference_derivative_table(r, k, 9_600)).tobytes()


def reference_float_table(r, k, size):
    """Plain loop over the three-term recurrence of the order-k table."""
    out = [1.0, (1.0 - r) * 0.5 + k]
    for j in range(1, size - 1):
        nxt = ((1.0 - r) * (j + 0.5) + k) * out[j] + r * (j + k) * out[j - 1]
        out.append(nxt / (j + 1))
    return out


def reference_derivative_table(r, k, size):
    """Plain loop over the r-derivative of the order-k recurrence."""
    h = reference_float_table(r, k, size)
    out = [0.0, -0.5]
    for j in range(1, size - 1):
        nxt = (((1.0 - r) * (j + 0.5) + k) * out[j] + r * (j + k) * out[j - 1]
               - (j + 0.5) * h[j] + (j + k) * h[j - 1])
        out.append(nxt / (j + 1))
    return out


def same_bits(tab, r, k):
    return tab.tobytes() == np.array(reference_float_table(r, k, len(tab))).tobytes()


def recurrence(which):
    """Build float tables with the loop this process loaded ('loaded') or
    with the Python loop ('python')."""
    return numpy_draws() if which == "python" else contextlib.nullcontext()


@pytest.fixture
def empty_store():
    """Every float table store emptied, so that the float caches a test
    builds grow their tables with the loop under test instead of reading
    those an earlier test grew, perhaps with the other loop."""
    hfun._shared_float_cache.cache_clear()


@contextlib.contextmanager
def loop_calls():
    """{"c": calls of the compiled h recurrence, "python": calls of the
    Python loop} made inside the block, by the loops this process has
    loaded when it begins."""
    calls = {"c": 0, "python": 0}

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    lib = _native.library()[0]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hfun, "_recurrence_py", counted("python", hfun._recurrence_py))
        if lib is not None:
            patch.setattr(lib, "h_recurrence", counted("c", lib.h_recurrence))
        yield calls


def loaded_loop():
    """The loop_calls key of the loop this process builds float tables
    with."""
    return "python" if _native.library()[0] is None else "c"


def compiled_loops():
    """The compiled library's loops in source order: every function the C
    source defines that is not static (its INLINE helpers are static too),
    but the self-check's stand-ins."""
    found = re.finditer(r"^(?:(?:static|INLINE)\b[^\n]*\n)?[A-Za-z_][\w ]*[\s*]"
                        r"(\w+)\([^)]*\)\s*\{", _native._C_SOURCE, re.M)
    return [m[1] for m in found if not m[0].startswith(("static", "INLINE"))
            and m[1] not in ("fixed_double", "fixed_uint64", "gamma_fill")]


def has_compiler():
    return (shutil.which("cc") or shutil.which("gcc")) is not None


_float_ratios = (st.floats(-1.0, 1.0, exclude_min=True)
                 | st.sampled_from([1.0, 0.999999, -0.999999, 0.0, 1e-300]))
# table lengths to request one after another: anywhere, or at the Python
# loop's 4096-entry chunk edge
_cuts = st.lists(st.integers(1, 9_000) | st.integers(4_090, 4_100),
                 min_size=1, max_size=4)


class TestFloatRecurrence:
    @pytest.mark.parametrize("r", [0.37, 1.0, -0.62, 0.0])
    def test_bit_identical_to_plain_loop(self, r, empty_store):
        # growth by doubling and by large requests, across chunk boundaries,
        # each by the loop this process loaded
        with loop_calls() as calls:
            for k in range(-4, 5):
                c = HCache(r, mode="float")
                for l_max in (10, 100, 5_000, 9_500):
                    tab = c.table(k, l_max)
                    assert len(tab) > l_max - k
                    assert tab.tolist() == reference_float_table(r, k, len(tab))
        assert calls[loaded_loop()] >= 9 * 4

    @pytest.mark.parametrize("which", ["loaded", "python"])
    @settings(max_examples=30, derandomize=True, deadline=None, database=None)
    @given(r=_float_ratios, k=st.integers(-4, 4), cuts=_cuts)
    def test_resumed_growth_bit_identical(self, which, r, k, cuts):
        # every example grows its tables from an empty store (a fixture
        # would empty it once for all the examples)
        hfun._shared_float_cache.cache_clear()
        c = HCache(r, mode="float")
        with recurrence(which), loop_calls() as calls:
            for n in cuts:
                tab = c.table(k, k + n)
                assert len(tab) > n
                assert same_bits(tab, r, k)
            assert calls[loaded_loop()] >= 1

    @pytest.mark.parametrize("failure", ["no compiler", "compile", "dlopen"])
    def test_python_loop_when_the_kernel_cannot_load(self, failure, tmp_path,
                                                     monkeypatch, empty_store):
        monkeypatch.setattr(_native, "_cache_dir", lambda: str(tmp_path / "pk"))
        monkeypatch.setattr(_native, "_state", None)
        if failure == "no compiler":
            monkeypatch.setattr(_native.shutil, "which", lambda name: None)
            reason = "no C compiler"
        elif failure == "compile":
            monkeypatch.setattr(_native.shutil, "which", lambda name: "/bin/false")
            reason = "C compile failed"
        else:
            # a private cache holding a file that is no shared object
            (tmp_path / "pk").mkdir()
            os.chmod(tmp_path / "pk", 0o700)
            Path(_native._library_path()).write_bytes(b"not a shared object")
            reason = "OSError"
        status = hfun.float_recurrence()
        assert status[0] == "python" and status[1].startswith(reason)
        with loop_calls() as calls:
            for r in (0.37, 1.0, -0.62):
                for k in (-4, 0, 3):
                    c = HCache(r, mode="float")
                    for l_max in (10, 5_000, 9_500):
                        assert same_bits(c.table(k, l_max), r, k)
            shared = shared_cache(0.4142)
            assert shared is shared_cache(0.4142)
            assert same_bits(shared.table(1, 6_000), 0.4142, 1)
        assert calls == {"c": 0, "python": calls["python"]} and calls["python"] >= 3 * 3 * 3 + 1

    @pytest.mark.parametrize("unsafe", ["group-writable directory",
                                        "world-writable directory",
                                        "directory of another user",
                                        "writable file"])
    def test_unsafe_cache_is_not_loaded(self, unsafe, tmp_path, monkeypatch):
        cache = tmp_path / "pk"
        cache.mkdir()
        monkeypatch.setattr(_native, "_cache_dir", lambda: str(cache))
        monkeypatch.setattr(_native, "_state", None)
        path = Path(_native._library_path())
        path.write_bytes(b"never loaded")
        os.chmod(path, 0o700)
        os.chmod(cache, 0o700)
        if unsafe == "group-writable directory":
            os.chmod(cache, 0o770)
        elif unsafe == "world-writable directory":
            os.chmod(cache, 0o707)
        elif unsafe == "directory of another user":
            other = os.stat(cache).st_uid + 1
            monkeypatch.setattr(_native.os, "getuid", lambda: other)
        else:
            os.chmod(path, 0o722)
        opened = []
        monkeypatch.setattr(_native.ctypes, "CDLL", opened.append)
        monkeypatch.setattr(_native, "_compile", lambda cc, p: opened.append(p))
        status = hfun.float_recurrence()
        assert opened == []
        assert status[0] == "python" and "not this user's own" in status[1]
        assert same_bits(HCache(0.37, mode="float").table(-2, 5_000), 0.37, -2)

    @pytest.mark.parametrize("name", compiled_loops())
    def test_draw_mismatch_keeps_every_reference(self, name, monkeypatch,
                                                  request):
        # a library whose loop differs from its reference in one value is
        # not used at all: the Python recurrence and the numpy loops run,
        # and the chains draw what the compiled library drew; a loop added
        # to the source needs its refusal here
        if request.config.getoption("--reference-loops"):
            pytest.skip("compares with the compiled library's draws, which "
                        "this session does not use")
        refusal = {"fill_rows": "compiled row fill differs from the numpy fill",
                   "lockstep": "compiled lockstep differs from the Python loop",
                   "block_rounds": "compiled block rounds differ from the numpy "
                                   "rounds",
                   "run_start": "compiled lockstep differs from the Python loop",
                   "h_recurrence": "compiled h recurrence differs from the "
                                   "Python loop",
                   "series_sums": "compiled series sums differ from the "
                                  "Python pass"}[name]
        from peelkit.peeling import _slot, simulate_ensemble

        def run():
            _slot.clear()
            out = simulate_ensemble("finite", LAW, 1010, 30, 64, seed=2,
                                    volume_mode="exact_small")
            return out[30][0].tobytes(), out[30][1].tobytes(), out.flags

        assert _native.library()[0] is not None or not has_compiler()
        before = run()
        open_ = _native._open

        def skew(args):
            if name in ("lockstep", "block_rounds", "run_start"):
                # one more vertex for the first chain: in its running
                # volume, or for block_rounds, whose check compares the
                # rows after a run's one call, in its first checkpoint row
                run = args[0] if name == "run_start" else args[1]._obj
                row = run.vols if name == "block_rounds" else run.vs
                (ctypes.c_longlong * run.n).from_address(row)[0] += 1
            elif name == "fill_rows":   # the first entry filled, one ulp up
                first = ctypes.c_double.from_address(args[-1])
                first.value = math.nextafter(first.value, math.inf)
            elif name == "h_recurrence":    # the last entry, one ulp up
                size = args[2]
                last = ctypes.c_double.from_address(args[0] + 8 * (size - 1))
                last.value = math.nextafter(last.value, math.inf)
            else:                           # the first sum, one ulp up
                sums = args[0]._obj.s
                sums[0] = math.nextafter(sums[0], math.inf)

        class Skewed:
            def __init__(self, path):
                self.lib = open_(path)

            def __getattr__(self, attr):
                fn = getattr(self.lib, attr)
                if attr != name:
                    return fn

                def skewed(*args):
                    ret = fn(*args)
                    skew(args)
                    return ret
                return skewed

        monkeypatch.setattr(_native, "_open", Skewed)
        monkeypatch.setattr(_native, "_state", None)
        status = hfun.float_recurrence()
        if not has_compiler():
            assert status == ("python", "no C compiler")
            return
        assert status[0] == "python"
        assert status[1].startswith(refusal)
        assert _native.library()[0] is None
        assert same_bits(HCache(0.37, mode="float").table(2, 5_000), 0.37, 2)
        assert run() == before

    def test_self_check_that_raises_refuses(self, monkeypatch):
        # a compiled loop that fails outright (here: reads outside a table)
        # leaves every reference in place instead of raising to the caller
        from peelkit import peeling

        def broken(lib):
            raise IndexError("lockstep read outside the tables built")

        monkeypatch.setattr(peeling, "_same_lockstep", broken)
        monkeypatch.setattr(_native, "_state", None)
        status = hfun.float_recurrence()
        if not has_compiler():
            assert status == ("python", "no C compiler")
            return
        assert status[0] == "python"
        assert status[1].startswith("self-check raised IndexError: lockstep read")
        assert same_bits(HCache(0.37, mode="float").table(3, 5_000), 0.37, 3)

    def test_kernel_compiled_once_per_cache(self, tmp_path):
        # two fresh processes on an empty private cache: the first compiles,
        # the second loads its file; without a compiler both run Python
        cache = tmp_path / "pk"
        script = textwrap.dedent(f"""
            import json, sys
            sys.path.insert(0, {str(Path(hfun.__file__).parents[1])!r})
            from peelkit import _native, hfun
            _native._cache_dir = lambda: {str(cache)!r}
            compiles = []
            compile_ = _native._compile
            def counted(cc, path):
                compiles.append(path)
                return compile_(cc, path)
            _native._compile = counted
            hfun.HCache(0.3, mode="float").table(0, 100)
            print(json.dumps([len(compiles), hfun.float_recurrence()]))
        """)
        runs = []
        for _ in range(2):
            proc = subprocess.run([sys.executable, "-c", script],
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        if has_compiler():
            path = str(cache / os.path.basename(_native._library_path()))
            assert runs == [[1, ["c", path]], [0, ["c", path]]]
            assert os.stat(cache).st_mode & 0o777 == 0o700
            assert os.listdir(cache) == [os.path.basename(path)]
        else:
            assert runs == [[0, ["python", "no C compiler"]]] * 2


class TestLibraryCache:
    """The compiled library's file: keyed on what it links, the only one
    of its user's in the cache once compiled."""

    def test_key_follows_numpy(self, tmp_path, monkeypatch):
        # another numpy version, or another size or mtime of its static
        # random library, names another file, which is compiled anew
        npyrandom = tmp_path / "libnpyrandom.a"
        npyrandom.write_bytes(b"x" * 10)
        monkeypatch.setattr(_native, "_npyrandom", lambda: str(npyrandom))
        path = _native._library_path()
        assert _native._library_path() == path
        os.utime(npyrandom, ns=(1, 10**18))
        touched = _native._library_path()
        npyrandom.write_bytes(b"x" * 11)
        os.utime(npyrandom, ns=(1, 10**18))
        grown = _native._library_path()
        monkeypatch.setattr(_native.np, "__version__", "0.0.0")
        other = _native._library_path()
        assert len({path, touched, grown, other}) == 4
        assert all(os.path.basename(p).startswith("native-") for p in (path, other))

    def test_missing_static_library(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_native, "_cache_dir", lambda: str(tmp_path / "pk"))
        monkeypatch.setattr(_native, "_npyrandom", lambda: str(tmp_path / "none.a"))
        monkeypatch.setattr(_native, "_state", None)
        compiled = []
        monkeypatch.setattr(_native, "_compile", lambda cc, p: compiled.append(p))
        status = hfun.float_recurrence()
        assert status == ("python", f"numpy's static random library "
                          f"{tmp_path / 'none.a'} is missing")
        assert compiled == []
        assert same_bits(HCache(0.37, mode="float").table(1, 5_000), 0.37, 1)

    @pytest.mark.skipif(not has_compiler(), reason="no C compiler")
    def test_compile_removes_older_libraries(self, tmp_path, monkeypatch):
        # under a temporary XDG_CACHE_HOME: this user's hrec-*.so go, and of
        # the native-*.so all but the KEEP_LIBRARIES newest by mtime, the
        # new one among them; a symbolic link, another user's file and any
        # other name stay
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(_native, "_state", None)
        cache = tmp_path / "peelkit"
        cache.mkdir(mode=0o700)
        os.chmod(cache, 0o700)
        target = tmp_path / "elsewhere.so"
        target.write_bytes(b"linked")
        older = [f"native-{i:08x}.so" for i in range(_native.KEEP_LIBRARIES + 2)]
        for name in (*older, "hrec-11e084c1.so", "notes.txt", "native-0.txt",
                     "other-native-1.so", "theirs.so", "native-theirs.so"):
            (cache / name).write_bytes(b"old")
        for age, name in enumerate(older):      # older[0] is the newest
            os.utime(cache / name, ns=(1, 10**18 - age * 10**9))
        os.utime(cache / "native-theirs.so", ns=(1, 1))    # the oldest
        (cache / "native-link.so").symlink_to(target)
        stays = {"notes.txt", "native-0.txt", "other-native-1.so",
                 "theirs.so", "native-link.so",
                 *older[:_native.KEEP_LIBRARIES - 1]}
        if os.getuid() == 0:    # only root can give a file to another user
            os.chown(cache / "native-theirs.so", 1, 1)
            stays.add("native-theirs.so")
        status = hfun.float_recurrence()
        assert status == ("c", _native._library_path())
        new = os.path.basename(_native._library_path())
        assert set(os.listdir(cache)) == stays | {new}
        assert target.read_bytes() == b"linked"


_ratios = st.builds(
    lambda den, num: Fraction(num % (2 * den) - den + 1, den),
    st.integers(1, 60), st.integers(0, 10**6))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(_ratios, st.integers(-4, 4))
def test_float_matches_exact_over_random_ratios(r, k):
    assert -1 < r <= 1
    exact = HCache(r)
    approx = HCache(float(r), mode="float")
    for l in range(k, k + 40):
        e = float(exact.value(k, l))
        assert abs(approx.value(k, l) - e) <= 1e-12 * abs(e) + 1e-15


class TestStructure:
    def test_bipartite_order_zero(self):
        c = HCache(1)
        for l in range(0, 10):
            assert c.value(0, 2 * l) == Fraction(central_binomial(l), 4**l)
            assert c.value(0, 2 * l + 1) == 0

    def test_polynomial_degree_in_r(self):
        # h(0, 3) is a cubic in r: Lagrange interpolation through three
        # nodes must fail, four must succeed.
        nodes4 = [Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(1)]
        vals4 = [HCache(r).value(0, 3) for r in nodes4]
        target_r = Fraction(1, 3)
        target = HCache(target_r).value(0, 3)

        def lagrange(nodes, vals, x):
            total = Fraction(0)
            for i, (xi, yi) in enumerate(zip(nodes, vals)):
                w = Fraction(1)
                for j, xj in enumerate(nodes):
                    if j != i:
                        w *= (x - xj) / (xi - xj)
                total += yi * w
            return total

        assert lagrange(nodes4, vals4, target_r) == target
        assert lagrange(nodes4[:3], vals4[:3], target_r) != target

    @pytest.mark.parametrize("r", [Fraction(1, 2), Fraction(-1, 4), 1])
    def test_parity_monotone_decrease(self, r):
        c = HCache(r)
        for l in range(0, 30):
            assert c.value(0, l + 2) <= c.value(0, l)

    def test_array_layout(self):
        c = HCache(0.5, mode="float")
        arr = c.array(-2, 10)
        assert arr.shape == (11,)
        assert arr[0] == pytest.approx(c.value(-2, 0))
        c2 = HCache(0.5, mode="float")
        arr2 = c2.array(2, 6)
        assert arr2[0] == arr2[1] == 0.0
        assert arr2[2] == 1.0


class TestAsymptote:
    def test_order_zero_r_zero(self):
        c = HCache(0.0, mode="float")
        ratio = c.value(0, 400) / h_asymptote(0, 400, 0.0)
        assert 0.995 <= ratio <= 1.005

    def test_order_one_bipartite_parity_average(self):
        c = HCache(1.0, mode="float")
        avg = 0.5 * (c.value(1, 400) + c.value(1, 401))
        ratio = avg / h_asymptote(1, 400, 1.0)
        assert 0.995 <= ratio <= 1.005

    def test_negative_order(self):
        c = HCache(0.5, mode="float")
        ratio = c.value(-2, 400) / h_asymptote(-2, 400, 0.5)
        assert 0.99 <= ratio <= 1.01

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            h_asymptote(0, 10, -1.0)
        with pytest.raises(ValueError):
            h_asymptote(2, 1, 0.5)


class TestSharedCache:
    def test_one_float_cache_per_ratio(self):
        c = shared_cache(Fraction(1, 2))
        assert c.mode == "float"
        assert c is shared_cache(0.5)
        assert HCache(Fraction(1, 2)).mode == "exact"

    def test_tables_are_read_only(self):
        tab = shared_cache(0.5).table(0, 10)
        with pytest.raises(ValueError):
            tab[3] = 0.0
        assert shared_cache(0.5).value(0, 3) == HCache(0.5, mode="float").value(0, 3)

    def test_second_cache_reads_the_store(self, empty_store):
        # a second float cache at a ratio hands out the tables the first
        # grew, with no recurrence call
        first = HCache(0.61, mode="float")
        tabs = [first.table(k, 3_000) for k in range(-4, 5)]
        with loop_calls() as calls:
            second = HCache(0.61, mode="float")
            assert all(second.table(k, 3_000) is tab for k, tab in zip(range(-4, 5), tabs))
            assert second.array(2, 3_000)[2:].tobytes() == tabs[6][:2_999].tobytes()
            assert shared_cache(0.61).table(0, 100) is tabs[4]
        assert calls == {"c": 0, "python": 0}

    def test_exact_cache_keeps_its_own_tables(self, empty_store):
        # exact caches, at a ratio equal to a float one's with an equal
        # hash, neither make nor read a store
        halves = HCache(Fraction(1, 2)), HCache(1)
        for c in halves:
            assert c.value(2, 40) == h_oracle(2, 40, c.r)
        assert hfun._shared_float_cache.cache_info().currsize == 0
        floats = HCache(0.5, mode="float"), HCache(1.0, mode="float")
        for c, f in zip(halves, floats):
            assert f._tables is shared_cache(c.r)._tables is not c._tables
            assert f._tables == {}
            f.table(2, 40)
            assert set(c._tables) == {0, 1, 2} and type(c.table(2, 40)) is list
        assert hfun._shared_float_cache.cache_info().currsize == 2

    def test_table_keeps_its_bytes_through_growth(self, empty_store):
        c = HCache(0.37, mode="float")
        tab = c.table(1, 100)
        before = tab.tobytes()
        HCache(0.37, mode="float").table(1, 50_000)   # another cache grows it
        grown = c.table(1, 100)
        assert grown is not tab and len(grown) >= 50_000
        assert tab.tobytes() == before == grown[: len(tab)].tobytes()
        assert not tab.flags.writeable

    def test_signed_zero_ratios(self, empty_store):
        # 0.0 and -0.0 are one key of the store: each grows the same bytes
        # into an empty store
        tabs = []
        for r in (0.0, -0.0):
            hfun._shared_float_cache.cache_clear()
            tabs.append([HCache(r, mode="float").table(k, 5_000).tobytes()
                         for k in range(-4, 5)])
        assert tabs[0] == tabs[1]
        assert HCache(0.0, mode="float")._tables is HCache(-0.0, mode="float")._tables

    def test_concurrent_growth(self, empty_store, per_thread=False):
        # readers racing to grow one table each get a table long enough
        # for their request, equal to the plain loop
        import sys
        import threading

        shared = HCache(0.3, mode="float")
        ref = reference_float_table(0.3, 1, 1 << 16)
        bad = []

        def work(offset):
            c = HCache(0.3, mode="float") if per_thread else shared
            for l_max in range(50 + offset, 20_000, 731):
                tab = c.table(1, l_max)
                if len(tab) < l_max or tab.tolist() != ref[: len(tab)]:
                    bad.append(l_max)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert bad == []

    def test_concurrent_growth_one_cache_per_thread(self, empty_store):
        # the same race through one cache per thread over the ratio's one
        # store
        self.test_concurrent_growth(None, per_thread=True)
