"""Perimeter/volume simulators for finite pointed maps and the infinite map.

Both chains are reweightings of the same step law nu:

    finite map:   P(l -> l+k) = h(0, l+k) / h(0, l) * nu(k),
    infinite map: P(l -> l+k) = h(1, l+k) / h(1, l) * nu(k),

the first conditioning the walk to be absorbed at zero, the second to stay
positive (only meaningful for critical laws).  On a pruning jump
k = -l'-2 <= -2 the volume grows by the vertex count of a Boltzmann map
with root-face degree l', sampled exactly from enumeration tables for
small l'; past them it is read from one rule per degree (`_rule_table`),
V = max(f, lo, off + rint((xi b) c)) with xi an inverse-Gamma(3/2, 1/2)
variable drawn only where c > 0.  The rule's two fillings are the
universal limit V ~ xi * B * l'^2 and the rounded mean.  A hole with
l' = 0 is the one-vertex map: its volume is 1 in every mode, and it draws
nothing.  Face-exploration steps leave the volume unchanged.

One engine runs both ``simulate`` (one chain, every step) and
``simulate_ensemble`` (many chains, checkpoints).  A single step draws from
guided stacked inverse-CDF rows of h(o, l+k) nu(k) below a perimeter
cutoff and from nu proposals under two h bands above it.  Infinite-map
chains also move in blocks: over B steps the path law telescopes to

    prod nu(k_i) * h(1, l_B) / h(1, l_0) * 1{l_1, ..., l_B >= 1}.

A block draws its B steps from the exponentially tilted law
nu_theta(k) = nu(k) e^(theta k) / phi(theta), phi(theta) = sum nu(k) e^(theta k)
(Siegmund 1976; Asmussen & Glynn 2007, ch. VI), whose path weight is
prod nu(k_i) e^(theta (l_B - l_0)) / phi(theta)^B, and keeps them all with
probability h(1, l_B) e^(-theta l_B) / K_theta on paths that stay at 1 or
above, where K_theta = max_{m >= 1} h(1, m) e^(-theta m) bounds that
probability by one wherever the block lands.  A kept block then has the
chain's law, and a block from l is kept with probability
h(1, l) / (phi(theta)^B e^(theta l) K_theta), whatever theta is.  B(l) is
the largest B for which some theta of the grid BLOCK_THETAS keeps it with
probability at least 1 / BLOCK_M; since h(1, .) grows like sqrt(m), K_theta
peaks near m = 1 / (2 theta) and no k_pos enters: B(l) grows roughly
like l^(3/2) for every law.  A block cut shorter than B(l) (by the run's end or
the round's share of BLOCK_DRAWS) takes the theta of the grid that keeps it
most often.  nu_theta is drawn from one guided inverse-CDF row per theta
over the window k > -L_SMALL; a draw from its last entry, which holds all
of k <= -L_SMALL, is redrawn from nu there and kept with probability
e^(theta (k + L_SMALL)).  A block's steps are drawn in turn with its
path's running sum, a draw at the last entry counted as -L_SMALL (the
jumps it stands for are at most that), and the block stops at the first
step that takes that sum below 1: the stay test would reject it, so it
draws no further step, no redraw and no keep uniform, and its chain
proposes again the next round.  The kept blocks' law does not change;
only draws the stay test would throw away are cut.  The telescoping
uses the harmonicity of h(1, .) for the materialized nu, which holds
while the chain stays at or below k_neg (the runs deepen k_neg to 16
times the perimeter scale); above it, and for a law cut short of its
positive tail, the block law differs from the step law only by the
truncated masses trunc_neg and trunc_pos the law reports.  Finite-map
chains always step one at a time: h(0, .) falls, so no envelope is
close.

Everything the engine tabulates depends only on the law, the transform
and the deepening depth, never on the call, and it comes in two parts.
The window part (`_Window`: the stacked rows below L_SMALL, and log
K_theta for the infinite map) reads only nu over k > -L_SMALL, k_pos and
h(o, .), which deepening leaves unchanged; the depth part (the engine
proper: the deepened law, cs, the bands, the tilted rows, log phi, B(l)
and the hole-volume rule tables) reads the rest.  Each thread keeps, per
mode, its PARTS most recently used depth parts, of DEPTH_CAP depth in
all, keyed by what they read of the law and the depth (`_part_key`: the
law's digest and the fields it leaves out), so law objects with one key
share a part and an in-place edit builds a new one; a part keeps its own
copy of a law run as given.  A window part lives with the depth parts built on
it: a new depth part takes its window from any kept part whose window
reads the same (`_window_key`), so a law run at other depths, or laws run
by turns, reuse their rows.  The tables only grow and their prefixes do
not depend on how they grew, so reused parts draw bit-identically to new
ones.  Two run flags say which parts a run reused: ``window_reused`` is
True when its window part came from a kept depth part and False when the
run built it, and ``depth_built`` is True when the run built its depth
part and False when it reused a kept one.

The perimeter tables grow in one place, `_ChainEngine._cover`: h(o, .),
the bands and, for the infinite map, B(l) with its tilt rows cover the
same perimeters, and the keep test reads h(1, .) from the bands' table.
A finite run steps its chains in lockstep, in one compiled loop of the
package's library (`_native`), started by one call of its ``run_start``
from a template that each engine's volume sampler keeps (`_template`,
`_Run`): each call of the loop makes the row draws below
L_SMALL, the band rounds above it, the pruning volumes in every volume
mode (numpy's own gamma code for xi) and the checkpoint rows of step
after step, and returns only for a row it lacks (LS_ROWS) or a perimeter
past the cover (LS_COVER), which Python grows before the call starts the
same step again.  The volumes need no such return: every run has its
whole rule table before its first step.  An
infinite-map run goes in block rounds from its first step, in a second
compiled loop on the same kind of state: per round the single steps of
the chains with B(l) = 1 (the lockstep loop's code, so a round of such
chains alone is one lockstep step), the tilts, the tilted draws (each
block's stopped where its path falls below 1), the deep redraws of the
blocks drawn whole, the keep test, and then the kept blocks: their exact
volume rows (exact_small only), and one walk in step order that draws
their volumes and writes their checkpoints and the chains' new states.
It returns for a row and for a block's start or end or a single step past
the cover.  Its keep tests take libm's exp, and so do the numpy rounds'
(`_libm_exp`).  One driver runs either loop (`_chains`): it picks the
loop by the transform, grows what a return asks for and adds the run's
counts to its flags.  The library also fills the stacked rows.  Every
compiled loop reads the Generator's own bit generator in the order the
numpy code reads it; where the library does not load (`_compiled`), the
numpy and Python loops (`_lockstep_numpy`, `_block_rounds_numpy` and the
fill's numpy half) run and draw the same values.  Draws run compiled only
inside the two chain loops: the numpy loops and every other caller of
`_StackedCdf.draw` and `_Bands.jumps` draw with numpy.

A thread keeps one Generator for its runs, built on its first run with
its ctypes interface and kept in its slot (`_Slot`), and every run re-keys
it from (seed, chain_index) to the state of a new Philox on that key
(`_keyed`).  So each run draws the stream of ``_rng(seed, chain_index)``
from its start, whatever the thread ran before, and builds no seed
sequence.  The generator never leaves the run; ``_Slot.clear`` drops it
with the parts.  A caller that holds its generator (``scaling.ecf_test``)
takes a new one from ``_rng``.
"""

from __future__ import annotations

import collections
import contextlib
import copy
import ctypes
import math
import numbers
import threading
import types
import weakref
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _native
from .errors import RangeError
from .hfun import HCache, h_asymptote
from .walk import StepLaw, deepen_negative, disk_coefficient, expected_volume

VOLUME_MODES = ("exact_small", "asymptotic_xi", "expectation")
DEFAULT_L_EXACT = 6
L_SMALL = 1024
ROW_CHUNK = 64
# an ibpm block of B steps from l is kept with probability >= 1 / BLOCK_M;
# with the early stop of a block that falls below 1, 1.25 and 1.5 ran one
# benchmark round's chain work about 2% faster than 2 and 3, and tied
BLOCK_M = 1.5
# the tilts theta of block proposals: 1, 2^(-1/2), ..., 2^-24
BLOCK_THETAS = 2.0 ** (-np.arange(49) / 2.0)
# a block round draws at most this many steps, or one per block where there
# are more blocks (bounds its memory)
BLOCK_DRAWS = 1 << 21
# guide cells per row of the tilted rows, and per window row
GUIDE = 1 << 12
ROW_GUIDE = 1 << 6
# bracket cells of the bands' cuts
BAND_GUIDE = 1 << 10


def _check_key(seed, chain_index):
    """Refuse a seed or chain_index that is not an integer in [0, 2^64); an
    int skips the ABC check, as in `_check_integers`."""
    for name, v in (("seed", seed), ("chain_index", chain_index)):
        if not ((type(v) is int or isinstance(v, numbers.Integral)) and 0 <= v < 1 << 64):
            raise ValueError(f"{name} must be an integer in [0, 2^64); got {v!r}")


def _rng(seed, chain_index=0):
    """A new generator on the stream keyed by (seed, chain_index), for a
    caller that keeps it."""
    _check_key(seed, chain_index)
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, chain_index], dtype=np.uint64))
    )


def _peek(rng, n):
    """The next n uniforms of rng, which is left where it was."""
    bg = rng.bit_generator
    state = bg.state
    u = rng.random(n)
    bg.state = state
    return u


def _keyed(seed, chain_index):
    """This thread's chain generator, re-keyed to the start of the stream
    of ``_rng(seed, chain_index)``: the state a new Philox on that key has
    (counter and buffer zero, the buffer spent, no spare 32-bit word).  It
    is built on a thread's first run, with its ctypes interface, and never
    leaves the run that re-keys it; the caller has checked the key."""
    rng = _slot.rng
    if rng is None:
        rng = _slot.rng = _rng(0)
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": [int(seed), int(chain_index)]},
        "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return rng


class _StackedCdf:
    """Guided rows of inverse CDFs over one value table, in one flat
    nondecreasing array.

    Row i holds its normalized cumulative weights over the columns of
    ``values``, which every row shares, plus i, so a uniform u for a
    chain in row i is located by one ``searchsorted`` of i + u over every
    row at once.  u stays below 1 - 2^-40, which keeps i + u inside row i
    for i < 2^12.  Rows are appended, a block at a time, into storage that
    grows with them up to n_rows: a chain that stays at small perimeters
    never allocates the rows it does not reach.

    Row i may keep only its columns from ``starts[i]`` on (default 0, a
    rectangular table), when the columns in front carry no weight: their
    entries would be exactly i, which no target of the row lies below.
    Its entries are flat[off[i]:off[i + 1]], and a target of row i found
    at flat index e draws column starts[i] + (e - off[i]) of the values
    (modulo width, as a zero-weight row's targets run past its end).
    ``at`` reads such a target; ``draw`` refuses a row with no weight
    (IndexError).

    Each row also keeps ``cells`` guide cells (Devroye 1986, III.2.4; a
    power of two), grown with it: the cell [c, c + 1) of the row's targets
    less i, times cells, holds the value every target in it draws where no
    cut of the row splits it, else the smallest value less one (the open
    marker), and only targets in open cells are searched for.  A row with
    no weight has every cell open, so its targets are searched for and
    land past it.  Since cells is a power of two, a target's cell is
    exact.  The cells are int32: the values are integers that fit, and so
    does the open marker, or the table raises ValueError (the tilted jumps
    reach -(k_neg + 1) >= -(2^19 + 1)).  ``at`` and ``draw`` return the
    values' dtype all the same.

    ``draw`` is numpy's.  The package's compiled chain loops (`_native`)
    draw from the same tables inline, reading the same uniforms and giving
    the same values, and its ``fill_rows`` writes a window's rows and their
    guide cells as ``append`` does.  Growth writes only past the rows built
    or into new arrays, so the addresses and sizes the library reads are
    packed once per growth.
    """

    U_MAX = 1.0 - 2.0**-40

    def __init__(self, n_rows, values, cells, starts=None):
        self.n_rows = n_rows
        self.width = len(values)
        self._vals = np.ascontiguousarray(values)
        self._starts = (np.zeros(n_rows, dtype=np.int64) if starts is None
                        else np.asarray(starts, dtype=np.int64))
        self._off = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(self.width - self._starts, out=self._off[1:])
        self.n = 0
        self._store = np.empty(0)
        self._flat = self._store
        self._open = int(self._vals.min()) - 1
        self.cells = cells
        cell = np.iinfo(np.int32)
        if not (self._vals.dtype.kind in "iu" and cell.min <= self._open
                and self._vals.max() <= cell.max):
            raise ValueError("a stacked table's values and open marker must be int32")
        self._guide = np.empty(0, dtype=np.int32)
        self._packed = None

    def row(self, i):
        """Row i's entries, i + its cumulative weights over its columns."""
        return self._flat[self._off[i]:self._off[i + 1]]

    def reserve(self, rows):
        """Room for at least min(rows, n_rows) rows; storage at least doubles."""
        need = self._off[min(rows, self.n_rows)]
        if need <= len(self._store):
            return
        store = np.empty(min(self._off[-1], max(need, 2 * len(self._store))))
        store[:len(self._flat)] = self._flat
        self._store = store
        self._flat = store[:len(self._flat)]
        self._packed = None

    def append(self, weights):
        """Append len(weights) rows of weights over every column; a row's
        weights in front of its start are zero and left out."""
        m = len(weights)
        ls = np.arange(self.n, self.n + m)[:, None]
        cum = np.cumsum(weights, axis=1)
        self.reserve(self.n + m)
        np.divide(cum, cum[:, -1:], out=cum, where=cum[:, -1:] > 0)
        cum += ls
        starts = self._starts[self.n:self.n + m]
        self._store[self._off[self.n]:self._off[self.n + m]] = (
            cum[np.arange(self.width) >= starts[:, None]] if starts.any()
            else cum.reshape(-1))
        # per row, entry j settles the cells [ceil(hi_(j-1)), floor(hi_j))
        # inside its targets, hi_j = (cum_j - l) cells (exact; hi_-1 = 0);
        # the cells between and after them are open
        hi = (cum - ls) * self.cells
        first = np.ceil(np.column_stack([np.zeros(m), hi[:, :-1]])).astype(np.intp)
        end = np.maximum(first, np.floor(hi).astype(np.intp))
        # a row's cells as runs: open, entry 0, open, entry 1, ..., open
        counts = np.empty((m, 2 * self.width + 1), dtype=np.intp)
        counts[:, 0:-1:2] = first - np.column_stack([np.zeros(m, np.intp), end[:, :-1]])
        counts[:, 1::2] = end - first
        counts[:, -1] = self.cells - end[:, -1]
        runs = np.full(counts.shape, self._open, dtype=np.int32)
        runs[:, 1::2] = self._vals
        self.grown(self.n + m, np.repeat(runs.reshape(-1), counts.reshape(-1)))

    def grown(self, n, guide):
        """Take rows up to n, written past the rows built, with guide, the
        guide cells of the new rows."""
        self.n = n
        self._flat = self._store[:self._off[n]]
        self._guide = np.concatenate([self._guide, guide])
        self._packed = None

    def _values_at(self, idx, rows):
        """The values at flat indices idx, each searched for in its entry of
        rows: column starts[row] + idx - off[row], modulo width."""
        return self._vals[(idx - self._off[rows + 1] + self.width) % self.width]

    def at(self, t):
        """The values at targets t in [0, n), searchsorted(rows, t, "right")
        in the row floor(t)."""
        out = self._guide[(t * self.cells).astype(np.intp)].astype(self._vals.dtype)
        open_ = np.flatnonzero(out == self._open)
        if len(open_):
            t = t[open_]
            out[open_] = self._values_at(self._flat.searchsorted(t, "right"),
                                         t.astype(np.intp))
        return out

    def check_rows(self, rows):
        """Refuse (IndexError) a row outside the n built or with no weight."""
        if len(rows) and not (rows.min() >= 0 and rows.max() < self.n):
            raise IndexError(f"row outside the {self.n} rows built")
        # a row with no weight keeps every entry at its index, so the search
        # for any of its targets lands past the row
        if len(rows) and (self._flat[self._off[rows + 1] - 1] <= rows).any():
            raise IndexError("a draw from a row with no weight")

    def draw(self, rng, rows):
        """One value per entry of rows, each drawn from its row's law; a row
        outside the n built or with no weight raises IndexError."""
        self.check_rows(rows)
        return self.at(rows + rng.random(len(rows)) * self.U_MAX)

    def pack(self):
        """(the tables as a `_native.Cdf`, the arrays it points into): the
        packed addresses travel with their arrays, which a growth in
        another thread could otherwise free while C reads them."""
        packed = self._packed
        if packed is None:
            flat, vals, guide = self._flat, self._vals, self._guide
            packed = self._packed = (_native.Cdf(
                _native.address(flat), _native.address(self._off), self.n,
                self.width, _native.address(vals), _native.address(guide), len(guide),
                int(self._open), self.cells, self.U_MAX), (flat, self._off, vals, guide))
        return packed


def _edges(cdf, rows):
    """The self-check's probes of the given rows of cdf, (rows, uniforms):
    for every cut of each row below 1, and for both edges of the guide
    cell that holds each cut, a uniform whose target lies just below the
    point and one whose target is the point."""
    cut = np.concatenate([cdf.row(i) - i for i in rows])
    cell = cut * cdf.cells
    cut = np.concatenate([cut, np.floor(cell) / cdf.cells, np.ceil(cell) / cdf.cells])
    row_of = np.tile(np.repeat(rows, np.diff(cdf._off)[rows]), 3)
    near = np.column_stack([cut, cut / cdf.U_MAX])
    probe = near < 1
    return row_of[np.nonzero(probe)[0]], near[probe]


def _generic_rule(n):
    """The self-check's hole-volume rule (`_rule_table`) over the degrees
    0..n-1, in the shape V = f + rint(xi (E V - f)): lo, off and c repeated
    by l' mod 7, where lo decides degrees 4 and 5 and off degree 6 whenever
    their floor is 1."""
    return _Rule(*(np.resize(a, n) for a in ([1, 2, 4, 3, 8, 7, 2], [1, 1, 1, 2, 3, 2, 12],
                                            [0, 0.7, 1.9, 0, 3.3, 0.6, 0.6])), 0.75)


def _fixture_volume_rows():
    """The self-check's exact volume rows (`_volume_rows`) of holes of
    degree 1, 2 and 3, each law with a residual."""
    return _volume_rows({1: ([2, 5], [0.5, 0.3], 5), 2: ([3], [0.6], 3),
                         3: ([4, 7], [0.2, 0.3], 8)}, 3)


def _same_lockstep(lib):
    """None when the compiled row fill and lockstep loop of lib give exactly
    the numpy fill and the Python loop on a small synthetic law, else which
    differs (the library's self-check, `_native._self_check`, after the
    series pass).  Every window row is filled by ``fill_rows`` up front, on
    guide cells of junk, and compared, with its guide cells, with the numpy
    fill (the law's window starts at k = -8, so rows below 8 start past
    column 0, and the window's h vanishes at 600..610, so row 608 has no
    weight and every cell open; no run comes near it); both loops then
    run on those rows and draw with numpy alone, on bands whose bracket
    guide is reversed, so that the compiled band search's guard decides
    its index.  The first run takes two steps, the first with uniforms
    just below and on every cut of rows 1..8 and on both edges of the
    guide cell that holds it (`_edges`), many of them in open cells of
    rows that start past column 0, and of the exact volume rows, which
    chains from row 8 draw for holes of degree 1, 2 and 3; a chain that a
    wrong draw sends below 0 fails the second step.  Then twelve chains,
    one at 0, the others below and above L_SMALL, take four steps four
    times, absorbed at 0: with exact volume rows, residuals and a
    synthetic rule (`_generic_rule`), with the limit law alone, for a
    heavy law, and in expectation mode, the last two reading a rule table
    of synthetic means.  A last run, with exact volume rows and the limit
    law, starts them all below 10 and has every chain absorbed at step 26
    of 29, so both loops must stop at the same checkpoint.  Each run
    compares the loops through `_same_run`: on blocks of junk (`_junk`),
    so that every row, written or not, and the chains' state are
    compared, and with one round allowed per uniform of its stream."""
    ks = np.arange(-8, 3)
    h = 1.0 / np.sqrt(np.arange(1.0, 2 * L_SMALL + 1))
    law = types.SimpleNamespace(
        ks=ks, probs=np.array([0.04] * 8 + [0.3, 0.1, 0.28]), k_neg=8, k_pos=2,
        B_nu=0.75, hcache=lambda: types.SimpleNamespace(array=lambda o, n: h[:n + 1]))
    engine = _ChainEngine(law, "finite")
    window = engine.window
    # the window's h vanishes on all of row 608's landings (the bands keep
    # their envelope)
    window.h = window.h.copy()
    window.h[600:611] = 0.0
    for end in (ROW_CHUNK, L_SMALL):    # a fill that resumes, too
        window._fill_c(lib, engine.rows, end, empty=_junk)
    rows = window.new_rows()
    window._fill_numpy(rows, L_SMALL)
    if (rows._flat.tobytes() != engine.rows._flat.tobytes()
            or rows._guide.tobytes() != engine.rows._guide.tobytes()):
        return "compiled row fill differs from the numpy fill"
    # the bands' bracket reversed: the guard of the compiled band search
    # alone then keeps nearly every band draw's index searchsorted's
    bands = engine.bands
    bands.bracket = (len(bands.cuts) - bands.bracket[::-1]).astype(np.int32)
    volumes = _fixture_volume_rows()
    spread = np.arange(1, 98) * 0.6180339887498949 % 1.0
    big = (0, 2, 3, 4, 6, 8, 1298, 1298, 1298, 1298, 1100, 1030)
    # the first run's chains from row 8 first, each with a uniform inside
    # the column of its jump -2 - v, so that they draw the exact volume
    # rows v before the chains on the window rows' cuts prune
    at, on = _edges(engine.rows, np.arange(1, 9))
    v, v_on = _edges(volumes, np.arange(1, 4))
    cut = engine.rows.row(8) - 8
    inside = 0.5 * (cut[5 - v] + cut[6 - v])
    # rules for holes of degree 0..6: means of 2 at odd degrees and 3 l' + 1
    # at even ones; and a generic one
    means = np.where(np.arange(7) % 2, 2, 3 * np.arange(7) + 1)
    rules = {"heavy": _Rule(means, means, np.zeros(7), math.nan), "generic": _generic_rule(7)}
    rules["means"] = rules["heavy"]
    for case, start, checkpoints, us in (
            ("exact", np.concatenate([np.full(len(v), 8), at]), range(1, 3),
             np.concatenate([inside, on, v_on, spread])),
            ("generic", big, range(1, 5), spread), ("limit", big, range(1, 5), spread),
            ("heavy", big, range(1, 5), spread), ("means", big, range(1, 5), spread),
            ("exact", (0, 2, 3, 4, 6, 8, 1, 5, 2, 3, 9, 1), range(1, 30), spread)):
        refusal = _same_run(lib, engine, volumes, rules.get(case), case, start,
                            checkpoints, us)
        if refusal is not None:
            return refusal
    return None


def _same_run(lib, engine, volumes, rule, case, chains, checkpoints, stream):
    """None when lib's chain loop for engine's transform (``lockstep`` or
    ``block_rounds``) and its numpy reference run the given chains from
    their perimeters to the checkpoints alike, drawing from the fixed
    uniforms of stream; else a refusal.  The volumes follow case: "means"
    in expectation mode, "exact" and "generic" in exact_small mode over
    the exact rows volumes at l_exact 3, any other in asymptotic_xi mode;
    rule, where not None, replaces the sampler's rule.  Each run starts
    the engine at 1300 (its cover and fresh flags) and lays its chains
    over blocks of junk (`_junk`); the runs compare the checkpoints
    written, every row, the chains' state, the three sets of flags and the
    uniforms used.  Either may begin at most one round per uniform of the
    stream, which a correct one never nears, so a loop that reads the
    stream in another order, or cycles on it, is refused."""
    differs, out_of_rounds = (
        ("compiled lockstep differs from the Python loop",
         "compiled lockstep ran out of its round budget"),
        ("compiled block rounds differ from the numpy rounds",
         "compiled block rounds ran out of their round budget"))[engine.order]
    runs = []
    for compiled in (True, False):
        vol = VolumeSampler(engine.law, "asymptotic_xi", engine=engine)
        if rule is not None:
            vol.rule = rule
        if case == "means":
            vol.mode = "expectation"
        elif case in ("exact", "generic"):
            vol.mode, vol.l_exact, vol._cdf = "exact_small", 3, volumes
        engine.start(1300)
        run = _Run(len(chains), 1, checkpoints, (lib, engine, vol) if compiled else None,
                   budget=len(stream), empty=_junk)
        run.ls[:] = chains
        rng = _native.FixedStream(lib, stream)
        flags = {"block_proposals": 0, "block_accepts": 0}
        try:
            _chains(engine, vol, rng, run, flags)
        except _OutOfRounds as out:
            return out_of_rounds if compiled else str(out)
        runs.append((run.i, run.rows.tobytes(), run.ls.tobytes(), run.V.tobytes(),
                     vol.flags, engine.flags, flags, rng.used))
    if runs[0] != runs[1]:
        return differs
    return None


def _junk(size, dtype):
    """The self-check's blocks for a run (`_Run`) and guide cells for a row
    fill: every entry 2^40, or 2^31 - 1 in int32 cells, so that an entry
    its loop leaves unwritten shows, without a count large enough to
    overflow a sum of them."""
    return np.full(size, min(1 << 40, np.iinfo(dtype).max), dtype)


class _OutOfRounds(RuntimeError):
    """A chain loop began more rounds than its run's budget allows (LS_BUDGET
    in the library): only the self-check's runs have one."""


def _same_blocks(lib):
    """None when the compiled block rounds of lib give exactly the numpy
    rounds on every run of `_block_fixture` (`_same_run`, over every
    checkpoint of its steps), else a refusal (the library's self-check,
    after the lockstep loop)."""
    fixture = _block_fixture()
    for case, chains, n_steps, stream in fixture.runs:
        refusal = _same_run(lib, fixture.engine, fixture.volumes, fixture.rules.get(case),
                            case, chains, range(1, n_steps + 1), stream)
        if refusal is not None:
            return refusal
    return None


# the block rounds' self-check: its engine, exact volume rows, rules and
# runs (case, chains, n_steps, stream)
_BlockFixture = collections.namedtuple("_BlockFixture", "engine volumes rules runs")


def _block_fixture():
    """The block rounds' self-check (`_same_blocks`) on a small synthetic
    law, as a `_BlockFixture`, each run compared by `_same_run` over every
    checkpoint of its steps.  The law reaches k = -1030, so
    tilted draws at its last entry are redrawn.  Twelve chains, below and
    above L_SMALL, with B(l) = 1 only for even l above it, take every
    checkpoint of two steps, with exact volume rows, residuals and a
    synthetic rule (`_generic_rule`), and again in expectation mode,
    reading a rule table of synthetic means; blocks cut short walk their
    tilt over the engine's grid of six.  The first round draws one single
    step, +2 from its first proposal, and no deep entry, and the
    uniform after its tilted draws lies on block 0's keep odds as libm's
    exp gives them, so a keep test with another exp or comparison than the
    numpy rounds' (`_libm_exp`) keeps it; block 3's lies just below its
    odds, so a keep test that reads h(1, .) a perimeter low rejects it.  A third run, on
    the synthetic rule with exact rows, stops blocks where they first fall
    below 1: one mid-block before the draw that would give the deep marker,
    one after drawing the marker, which counts as -L_SMALL.  Two more runs,
    with exact volume rows and the limit law, take the edges: one step of
    chains at every even perimeter from L_SMALL on, whose band uniforms lie
    just below and on its band's share, and blocks of B = 3 steps from 441
    and 1301, whose first tilted uniforms lie just below and on every cut
    of their guided tilt rows."""
    k_neg, steps, top = 1030, 2, 1600
    probs = np.zeros(k_neg + 3)
    probs[-11:] = np.array([0.04] * 8 + [0.3, 0.1, 0.28]) * 0.97
    probs[[0, 3, 6]] = 0.01
    law = types.SimpleNamespace(k_neg=k_neg, k_pos=2, B_nu=0.75)
    # the engine's tables by hand, h(1, l) = sqrt(l) over a cover that no
    # chain leaves: no single step is below L_SMALL, so no row is drawn
    engine = _ChainEngine.__new__(_ChainEngine)
    engine.law, engine.order, engine.h_len, engine.rules = law, 1, top, {}
    engine.cs = np.concatenate([[0.0], np.cumsum(probs)])
    engine.rows = _StackedCdf(L_SMALL, np.arange(-8, 3), ROW_GUIDE)
    engine.hz = np.concatenate([np.zeros(k_neg), np.sqrt(np.arange(top))])
    engine.bands = _Bands(engine.cs, engine.hz, k_neg, 2)
    # B(l) = 1 only for even l >= L_SMALL; a grid of six tilts, 2^-10 to
    # 2^-12.5, and one somewhat below the best for a block cut short, K_theta
    # over the table and phi's log as theta^2
    ls = np.arange(engine.bands.n)
    engine.blocks = np.where(ls < L_SMALL, 2 + ls % 4, 1 + 2 * (ls % 2))
    th = engine.thetas = BLOCK_THETAS[20:26]
    engine.block_tilt = np.clip(np.rint(2 * np.log2(np.maximum(ls, 1))) - 16, 0,
                                len(th) - 1).astype(np.int16)
    peak = np.minimum(0.5 / th, top)
    engine.log_phi, engine.log_K = th**2, 0.5 * np.log(peak) - th * peak
    # neighbouring tilts' rows differ, and the deep entry keeps 3% or less
    engine.tilt_rows = _StackedCdf(len(th), np.append(np.arange(-8, 3), -k_neg - 1),
                                   cells=GUIDE)
    mult = 1 + np.add.outer(np.arange(len(th)), np.arange(12)) % 3
    mult[:, -1] = 1
    engine.tilt_rows.append(np.append(probs[-11:], 0.03) * mult)
    volumes = _fixture_volume_rows()
    start = np.array([440, 505, 530, 700, 1001, 1013, 1101, 1302, 1231, 1301, 1303, 1501])
    # the first round's single step takes two uniforms, its tilted draws
    # come from uniforms below the deep entry, and block 0 has B(440) = 2
    # steps and its own tilt; later rounds draw the deep entry at 0.99
    T = 2 + np.minimum(engine.blocks[start], steps).sum() - 1
    spread = np.arange(1, 98) * 0.6180339887498949 % 1.0
    us = spread.copy()
    us[:T] %= 0.95
    us[:2] = 0.93, 0.0
    us[T + 20::11] = 0.99

    def odds(l, u):
        # the keep odds of a block from l at B(l)'s tilt, drawn from u
        j = engine.block_tilt[l]
        lB = l + int(engine.tilt_rows.at(j + u * _StackedCdf.U_MAX).sum())
        return engine.hz[k_neg + lB] * math.exp(-th[j] * lB - engine.log_K[j])

    # block 0 from 440 on its odds; block 3 from 700, whose tilted uniforms
    # follow blocks 1 and 2's two each, just below its own
    us[T], us[T + 3] = odds(440, us[2:4]), np.nextafter(odds(700, us[8:10]), 0)
    even = np.arange(L_SMALL, engine.bands.n, 2)
    share = engine.bands.arrays[0][even]
    blk, tilted = [], []
    for l in (441, 1301):
        on = _edges(engine.tilt_rows, [engine.block_tilt[l]])[1]
        m = -(-len(on) // engine.blocks[l])
        blk += [l] * m
        tilted.append(np.resize(on, m * engine.blocks[l]))
    # rules for holes of every degree the law reaches: means 1..11, and the
    # generic one
    means = 1 + np.arange(k_neg - 1) * 7 % 11
    rules = {"means": _Rule(means, means, np.zeros(len(means)), 0.75),
             "generic": _generic_rule(len(means))}
    # blocks stopped mid-block: from 5 (B = 3, tilt row 0) +2 and -8, below 1
    # before the draw at 0.995 would give the deep marker; from 1027 (B = 3,
    # row 4) the marker, counted as -L_SMALL, and -8; from 600 (B = 2, row 2)
    # +2 twice, kept on 0.5; the next round steps +2 seven times and keeps
    # all three blocks
    stop = np.concatenate([[0.9, 0.01, 0.995, 0.01, 0.9, 0.9, 0.5], [0.9] * 7, [0.01] * 3,
                           spread])
    return _BlockFixture(engine, volumes, rules, (
        ("generic", start, steps, us), ("means", start, steps, us),
        ("generic", np.array([5, 1027, 600]), 3, stop),
        ("exact", np.tile(even, 2), 1, np.concatenate([np.nextafter(share, 0), share,
                                                       spread])),
        ("exact", blk, 3, np.concatenate(tilted + [spread]))))


# -- single-step laws ------------------------------------------------------------


@dataclass
class JumpDistribution:
    ks: np.ndarray
    probs: np.ndarray
    exact: dict = None

    def prob(self, k):
        if self.exact is not None and k in self.exact:
            return self.exact[k]
        hits = np.nonzero(self.ks == k)[0]
        return float(self.probs[hits[0]]) if len(hits) else 0.0

    def total(self):
        return float(self.probs.sum())


def _doob_distribution(l, law: StepLaw, order):
    h = law.hcache().array(order, l + law.k_pos + 1)
    ks = law.ks
    idx = ks + l
    mask = (idx >= 0) & (law.probs > 0)
    hl = h[l]
    if hl <= 0:
        raise ValueError(f"conditioning weight vanishes at l={l}")
    probs = h[idx[mask]] * law.probs[mask] / hl
    exact = None
    if law.exact is not None:
        ec = HCache(Fraction(law.r))
        hl_e = ec.value(order, l)
        exact = {}
        for k, v in law.exact.items():
            if l + k >= 0 and hl_e != 0:
                p = ec.value(order, l + k) * v / hl_e
                if p != 0:
                    exact[k] = p
    return JumpDistribution(ks[mask], probs, exact)


def step_finite(l, law: StepLaw) -> JumpDistribution:
    """Jump law of the finite-map perimeter chain at perimeter l >= 1."""
    if l < 1:
        raise ValueError("the chain is absorbed at zero")
    return _doob_distribution(l, law, 0)


def step_ibpm(l, law: StepLaw) -> JumpDistribution:
    """Jump law of the infinite-map perimeter chain at perimeter l >= 1."""
    if l < 1:
        raise ValueError("perimeter must stay positive")
    if not law.critical:
        raise ValueError("the stay-positive transform needs a critical law")
    return _doob_distribution(l, law, 1)


def sample_xi(rng, size=None):
    """The limit volume factor: density exp(-1/(2x)) x^(-5/2) / sqrt(2 pi).

    Equal in law to the reciprocal of a Gamma(3/2, scale 2) variable; the
    change of variables is exact and is pinned down by the quadrature tests.
    """
    return 1.0 / rng.gamma(1.5, 2.0, size=size)


# -- volume increments -----------------------------------------------------------

_EXACT_TABLES = {}
_EXACT_TABLES_MAX = 32


def _exact_volume_tables(law: StepLaw, l_exact, d_max):
    """({l': (Vs, W(l', V) / W(l'), V*)}, the same laws as stacked rows with
    the residual mass as a last entry -(V* + 1)), or None if uncertified;
    built once per what they read: the face weights q that law's positive
    part and nu(-2) give, the disk weights W(l') for l' <= l_exact, l_exact
    and d_max.  A deeper copy of a law changes none of these."""
    from .weights import q_from_nu

    q = q_from_nu(law)
    if not q.support or q.min_support <= 2:
        return None
    lps = range(1 + q.bipartite, l_exact + 1, 1 + q.bipartite)
    try:
        # the disk weights first: they are cheap, and past the law's depth
        # or the float range they leave the tables uncertified at once
        totals = tuple(float(disk_coefficient(law, lp)) for lp in lps)
    except (ValueError, RangeError, OverflowError):
        return None
    key = (tuple((k, type(v), v) for k, v in q.support.items()), totals,
           l_exact, d_max)
    if key not in _EXACT_TABLES:
        if len(_EXACT_TABLES) >= _EXACT_TABLES_MAX:
            _EXACT_TABLES.pop(next(iter(_EXACT_TABLES)))
        _EXACT_TABLES[key] = _build_volume_tables(q, dict(zip(lps, totals)),
                                                  l_exact, d_max)
    return _EXACT_TABLES[key]


def _build_volume_tables(q, totals, l_exact, d_max):
    """The tables of `_exact_volume_tables` for face weights q and the disk
    weights totals {l': W(l')}, from one enumeration pass at l_exact (the
    cells of every l' < l_exact are those of a pass at l')."""
    from .oracle import _vertex_marginal, enumerate_dp

    laws = {}
    try:
        table = enumerate_dp(q, l_exact, d_max)
        for lp, total in totals.items():
            vt = _vertex_marginal(table, lp)
            if not vt.complete or total <= 0:
                return None
            Vs = sorted(V for V in vt.values if V <= vt.V_star)
            laws[lp] = (Vs, [float(vt.values[V]) / total for V in Vs], vt.V_star)
    except (ValueError, RangeError, OverflowError):
        return None
    return laws, _volume_rows(laws, l_exact)


def _volume_rows(laws, l_exact):
    """The exact volume laws {l': (Vs, probs, V*)} as the stacked rows
    0..l_exact, guided by ROW_GUIDE cells, over one value row: every volume
    in ascending order (1, the one-vertex map of row 0, among them), then
    the residual markers -(V* + 1).  Row l' weighs its volumes and then its
    marker, with the residual mass, in the order of a row of its own, so
    that its cumulative weights are those doubles (the columns between
    add 0.0); a degree without a law leaves its row without weight."""
    vols = sorted({1}.union(*(Vs for Vs, _, _ in laws.values())))
    marks = sorted({-(v_star + 1) for _, _, v_star in laws.values()}, reverse=True)
    col = {v: i for i, v in enumerate(vols + marks)}
    weights = np.zeros((l_exact + 1, len(col)))
    weights[0, col[1]] = 1.0
    for lp, (Vs, probs, v_star) in laws.items():
        weights[lp, [col[V] for V in Vs]] = probs
        weights[lp, col[-(v_star + 1)]] = max(0.0, 1.0 - sum(probs))
    cdf = _StackedCdf(l_exact + 1, np.array(vols + marks, dtype=np.int64), ROW_GUIDE)
    cdf.append(weights)
    return cdf


def _check_volume_args(mode, l_exact, d_max):
    """Refuse a volume mode outside VOLUME_MODES, and an l_exact or d_max
    that is not an integer >= 0 or >= 1; an int skips the ABC check."""
    if mode not in VOLUME_MODES:
        raise ValueError(f"volume mode must be one of {VOLUME_MODES}")
    if not ((type(l_exact) is int or isinstance(l_exact, numbers.Integral)) and l_exact >= 0
            and (type(d_max) is int or isinstance(d_max, numbers.Integral)) and d_max >= 1):
        raise ValueError("l_exact must be an integer >= 0 and d_max one >= 1; "
                         f"got l_exact={l_exact!r}, d_max={d_max!r}")


def _mean_table(law: StepLaw):
    """The rounded mean volumes max(1, rint(E V(l'))) as an int64 table over
    the degrees l' < k_neg - 1: an entry for every l' >= 1 a chain on law
    can prune to, nu(-l' - 2) != 0, 1 at l' = 0 (the one-vertex map) and 0
    elsewhere."""
    means = np.zeros(max(1, law.k_neg - 1), dtype=np.int64)
    means[0] = 1
    lps = 1 + np.flatnonzero(law.probs[law.k_neg - 3::-1][:len(means) - 1])
    means[lps] = np.maximum(1, np.rint(expected_volume(law, lps)))
    return means


# the hole-volume rule per degree l' (`_rule_table`)
_Rule = collections.namedtuple("_Rule", "lo off c b")


def _rule_table(law: StepLaw, means):
    """The hole-volume rule over the degrees l' < k_neg - 1, read for a hole
    past its exact row: V = max(f, lo[l'], off[l'] + rint((xi b) c[l'])),
    f the hole's floor, xi = 1 / Gamma(3/2, scale 2) drawn only where
    c > 0, and lo = 0 for a degree outside the table.  With means, the
    rounded means (`_mean_table`, lo = off, c = 0: nothing is drawn), read
    in expectation mode and for a heavy law, which has no B_nu; else the
    limit law, lo = 1, off = 0 and c = l'^2 with b = B_nu, in the product
    order (xi B_nu) l'^2.  Degree 0 is the one-vertex map in both:
    lo = off = 1, c = 0."""
    if means:
        m = _mean_table(law)
        return _Rule(m, m, np.zeros(len(m)), law.B_nu)
    lps = np.arange(max(1, law.k_neg - 1))
    return _Rule(np.ones(len(lps), dtype=np.int64), (lps == 0).astype(np.int64),
                 lps**2.0, law.B_nu)


class VolumeSampler:
    """Draws the vertex count added when a hole of degree l' is filled in.

    A hole of degree 0 is the one-vertex map: it adds 1 in every mode and
    draws nothing, so a draw of holes of degree 0 leaves the stream where
    it was.

    l_exact and d_max are validated in every mode but used only by
    'exact_small', whose enumeration tables cover l' <= l_exact up to d_max
    (the mode falls back to the limit law, flag exact_fallback, where the
    tables cannot be certified).  Every other hole, and a residual of the
    tables, reads the rule table (`_rule_table`), built whole before the
    first draw: the rounded means in 'expectation' mode and for a
    heavy-tailed law, which has no volume constant B_nu (where the limit
    law would be drawn, flag heavy_volume_expectation), else the limit law;
    a degree past it or at a 0 entry of lo raises IndexError.  engine, when
    given, is law's chain engine, whose rule tables
    (`_ChainEngine.rule_table`) the sampler reads and fills, so that the
    samplers of one deepened law share them; the enumeration tables are
    kept by what they read (`_exact_volume_tables`).  An engine keeps one
    sampler per volume arguments (`_ChainEngine.sampler`) for run after
    run: ``start`` gives each run fresh flags, and ``template`` holds its
    compiled template on the engine of its first compiled run
    (`_template`).
    """

    def __init__(self, law: StepLaw, mode="exact_small", l_exact=DEFAULT_L_EXACT,
                 d_max=24, *, engine=None):
        _check_volume_args(mode, l_exact, d_max)
        self.mode = mode
        exact = mode == "exact_small"
        built = _exact_volume_tables(law, l_exact, d_max) if exact else None
        self._fallback = exact and built is None
        self.start()
        self.template = None
        self.tables, self._cdf = built or ({}, None)
        self.l_exact = l_exact if built else 0
        # heavy-tailed laws have no universal volume fluctuation scale and
        # fall back to the exact mean increment
        means = mode == "expectation" or math.isnan(law.B_nu)
        self.rule = _rule_table(law, means) if engine is None else engine.rule_table(means)

    def start(self):
        """Fresh flags for a run: the exact fallback, no residual drawn."""
        self.flags = {"exact_fallback": self._fallback, "residual_draws": 0}

    def draw_many(self, rng, l_primes):
        """Vertex counts of filled-in holes of degrees l' >= 0 (vectorized);
        l' = 0 is the one-vertex map, whose count 1 draws nothing."""
        lp = np.asarray(l_primes, dtype=np.int64)
        if not self.l_exact:
            return self._rule_volume(rng, lp, 1)
        out = np.ones(len(lp), dtype=np.int64)
        holes = np.flatnonzero(lp)
        lp = lp[holes]
        # a negative table value -(V* + 1) is the residual mass beyond V*
        vals = self._cdf.draw(rng, np.minimum(lp, self.l_exact))
        resid = vals < 0
        need = resid | (lp > self.l_exact)
        if need.any():
            self.flags["residual_draws"] += int(resid.sum())
            floor = np.where(resid, -vals, 1)[need]
            vals[need] = self._rule_volume(rng, lp[need], floor)
        out[holes] = vals
        return out

    def _rule_volume(self, rng, lp, floor):
        """max(floor, lo, off + rint((xi b) c)) per hole from the rule table
        (`_rule_table`), xi drawn in order for the holes with c > 0; a degree
        outside the table raises IndexError.  Outside expectation mode, a
        hole of degree > 0 with nothing drawn is a heavy law's mean."""
        lo, off, c, b = self.rule[:4]
        lo, vals, c = lo[lp], off[lp], c[lp]
        if not lo.all():
            raise IndexError("a hole volume outside the rule table")
        drawn = c > 0
        n = np.count_nonzero(drawn)
        if n:
            vals[drawn] += np.rint(sample_xi(rng, size=n) * b * c[drawn]).astype(np.int64)
        if n < len(lp) and self.mode != "expectation" and lp[~drawn].any():
            self.flags["heavy_volume_expectation"] = True
        np.maximum(vals, lo, out=vals)
        return np.maximum(vals, floor, out=vals)


# -- traces ----------------------------------------------------------------------


@dataclass
class PeelTrace:
    perimeters: np.ndarray
    volumes: np.ndarray
    mode: str
    volume_mode: str
    seed: int
    l0: int
    law_digest: str
    flags: dict = field(default_factory=dict)

    @property
    def n_steps(self):
        return len(self.perimeters) - 1

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write(f"# seed={self.seed}\n# mode={self.mode}\n")
            fh.write(f"# volume_mode={self.volume_mode}\n")
            fh.write(f"# l0={self.l0}\n# law={self.law_digest}\n")
            fh.write("step,perimeter,volume\n")
            for i, (l, v) in enumerate(zip(self.perimeters, self.volumes)):
                fh.write(f"{i},{int(l)},{int(v)}\n")

    def to_binary(self, path):
        """Columnar binary layout: u64 little-endian length n+1, then the
        perimeter column and the volume column as i64 little-endian."""
        with open(path, "wb") as fh:
            n = len(self.perimeters)
            fh.write(np.uint64(n).tobytes())
            fh.write(self.perimeters.astype("<i8").tobytes())
            fh.write(self.volumes.astype("<i8").tobytes())

    @staticmethod
    def read_binary(path):
        """(perimeters, volumes) of a `to_binary` file; ValueError unless
        its size is 8 + 16 n bytes for its length n."""
        with open(path, "rb") as fh:
            data = fh.read()
        n = int(np.frombuffer(data[:8], dtype="<u8")[0]) if len(data) >= 8 else -1
        if len(data) != 8 + 16 * n:
            raise ValueError(f"{path}: {len(data)} bytes, not a binary trace")
        return tuple(np.frombuffer(data, dtype="<i8", offset=8).reshape(2, n))


# the deepest a run deepens a law to; also the most depth a thread keeps
# per mode (`_chain_engine`)
DEPTH_CAP = 1 << 19


def _deep_k_neg(law: StepLaw, n_steps):
    """The materialized negative range a run of n_steps needs.

    Perimeters of order (sqrt(1+r) L n)^(2/3) need pruning jumps of the
    same order; a law truncated short of that loses the heavy negative
    tail and the chain drifts upward.  Heavy-tailed laws are run as given.
    """
    if law.heavy_tail:
        return law.k_neg
    a_n = (math.sqrt(1.0 + law.r) * law.L_nu * max(n_steps, 1)) ** (2.0 / 3.0)
    target = 1 << max(10, math.ceil(math.log2(16.0 * a_n + 2.0)))
    return max(law.k_neg, min(target, DEPTH_CAP))


# -- the chain engine --------------------------------------------------------------


def _exp(x, f=np.exp):
    """f(x), f = exp or expm1, with x below -708 taken as -inf: there e^x is
    subnormal, which costs numpy about a hundred times as much, and lies
    below the rounding of every sum it enters."""
    return f(np.where(x < -708.0, -np.inf, x))


def _libm_exp(x):
    """e^x per entry of x by libm's exp (``math.exp``), which the compiled
    keep tests take too."""
    return np.fromiter(map(math.exp, x.tolist()), float, len(x))


class _Bands:
    """The two-band envelope of `_ChainEngine` for perimeters 0..n-1 over
    the table hz of h(o, .) behind k_neg zeros.

    Landings m = l + k in [max(0, l - k_neg), l // 2) and in
    [l // 2, l + k_pos] (split clamped) have as envelope the largest
    h(o, .) at the band's two lowest and two highest arguments.  Per
    perimeter, ``arrays`` holds the low band's share of the proposal mass,
    then per band the offset t0 and scale dt that map a uniform u into nu's
    cumulative sum cs, and the envelope env.  ``jumps`` is numpy's; the
    package's compiled chain loops (`_native`) run the same rounds inline,
    reading the same uniforms and giving the same jumps, and narrow each
    search of the cuts cs[1:-1] to the entries of the bracket guide
    ``bracket`` at the target's cell (BAND_GUIDE + 1 cells of cs[-1] /
    BAND_GUIDE), guarded as a search of the whole table.  A _Bands is
    never changed, so its addresses are packed once.
    """

    def __init__(self, cs, hz, k_neg, k_pos):
        # band edges per perimeter l as hz indices, lo <= mid <= top
        ls = np.arange(len(hz) - k_neg - k_pos)
        lo = np.maximum(ls, k_neg)
        mid = np.maximum(ls // 2 + k_neg, lo)
        top = ls + k_neg + k_pos
        env_lo, env_hi = (np.maximum.reduce([hz[a], hz[a + 1], hz[b - 1], hz[b]])
                          for a, b in ((lo, mid - 1), (mid, top)))
        c_lo, c_mid = cs[lo - ls], cs[mid - ls]
        w_lo = env_lo * (c_mid - c_lo)
        total = w_lo + env_hi * (cs[-1] - c_mid)
        # u < share picks the low band; per band, t = t0 + u * dt and env
        self.arrays = (w_lo / total, c_lo, total / env_lo, env_lo,
                       c_mid - w_lo / env_hi, total / env_hi, env_hi)
        self.n = len(ls)
        self.cuts = cs[1:-1]
        # the bracket guide of the compiled band search: bracket[c] cuts
        # lie in the cells below c, a cut's cell floor(cut * scale) (a last
        # cell holds the cuts whose product rounds up to BAND_GUIDE); the
        # rounded product is monotone, so a target's index lies between
        # the entries at its own cell and the next
        self.scale = BAND_GUIDE / cs[-1]
        self.bracket = np.floor(self.cuts * self.scale).searchsorted(
            np.arange(BAND_GUIDE + 2)).astype(np.int32)
        self.hz = hz
        self.k_neg = k_neg
        self._packed = None

    def jumps(self, rng, ls):
        """(one jump per chain at perimeters ls, the proposals made): one
        proposal per pending chain and round, kept with probability
        h(o, m) / env.  A perimeter outside 0..n-1 raises IndexError."""
        if len(ls) and not (ls.min() >= 0 and ls.max() < self.n):
            raise IndexError(f"perimeter outside the bands built (0..{self.n - 1})")
        share, t0_lo, dt_lo, env_lo, t0_hi, dt_hi, env_hi = self.arrays
        out = np.empty_like(ls)
        todo = np.arange(len(ls))
        proposals = 0
        while len(todo):
            proposals += len(todo)
            lt = ls[todo]
            u = rng.random(len(lt))
            t = t0_hi[lt] + u * dt_hi[lt]
            env = env_hi[lt]
            low = u < share[lt]
            if low.any():
                ll = lt[low]
                t[low] = t0_lo[ll] + u[low] * dt_lo[ll]
                env[low] = env_lo[ll]
            # i with cs[i] <= t < cs[i + 1]; without the last cut, i stays in range
            idx = self.cuts.searchsorted(t, "right")
            hit = rng.random(len(lt)) * env < self.hz[lt + idx]
            out[todo[hit]] = idx[hit]
            todo = todo[~hit]
        return out - self.k_neg, proposals

    def pack(self):
        """The tables as a `_native.Bands`; self keeps its arrays alive."""
        if self._packed is None:
            self._packed = _native.Bands(
                *map(_native.address, self.arrays), self.n,
                _native.address(self.cuts), len(self.cuts),
                _native.address(self.hz), len(self.hz), self.k_neg,
                _native.address(self.bracket), len(self.bracket) - 1, self.scale)
        return self._packed


def _log_K(law):
    """log K_theta for theta in BLOCK_THETAS, K_theta = max_{m >= 1} h(1, m)
    e^(-theta m): the maximum over h(1, .) up to m_top = 2^b - 1, the
    smallest above L_SMALL + k_pos (the engine's first h table), and a
    bound past it.  h(1, m) / h_asymptote(1, m) tends to 1 with an excess
    that only shrinks in m, so rho, the larger of 1 and the ratio's maximum
    over the table's last half, bounds it beyond m_top, where
    sqrt(m) e^(-theta m) peaks at max(m_top, 1 / (2 theta))."""
    th = BLOCK_THETAS
    m_top = (1 << (L_SMALL + law.k_pos).bit_length()) - 1
    m = np.arange(1, m_top + 1)
    h = law.hcache().table(1, m_top)[:m_top]
    a1 = h_asymptote(1, 1, law.r)          # h_asymptote(1, m) = a1 sqrt(m)
    rho = max(1.0, float((h[m_top // 2:] / (a1 * np.sqrt(m[m_top // 2:]))).max()))
    far = np.maximum(m_top, 0.5 / th)
    past = math.log(rho * a1) + 0.5 * np.log(far) - th * far
    # 1e-12 covers the rounding of exp and log in the keep test
    return np.maximum((np.log(h) - np.outer(th, m)).max(axis=1), past) + 1e-12


def _window_key(law):
    """What a window part reads of a law: its ratio r (which fixes h), k_pos
    and nu over the window k > -L_SMALL."""
    lo = max(0, law.k_neg - L_SMALL + 1)
    return repr(law.r), law.k_pos, law.probs[lo:].tobytes()


class _Window:
    """The part of a chain engine that does not depend on the depth: the
    stacked rows below L_SMALL, and log K_theta for the ibpm transform.

    Row l draws the jump k from h(o, l+k) nu(k) over the window
    k > -L_SMALL, and keeps only its columns k >= -l: the jumps below -l
    carry no weight.  Both tables read only nu over the window, k_pos and
    h(o, .), which a deeper copy of a law leaves unchanged (deepening gives
    the same floats for nu(k), k > -L_SMALL, at every depth), so runs of
    one law at any depth share a window, found by what it read
    (`_window_key`) among the engines a thread keeps (`_chain_engine`),
    and kept as long as one of them is.  A full window of rows holds
    L_SMALL (L_SMALL - 1) / 2 + L_SMALL (k_pos + 1) doubles, 4.2 MB for
    quad and tri, and ROW_GUIDE int32 guide cells per row, 256 KB."""

    def __init__(self, law, order):
        self.order = order
        self.ks = law.ks[law.ks > -L_SMALL]
        self.p = law.probs[self.ks + law.k_neg]
        # h(o, m) for the landings m <= L_SMALL - 1 + k_pos of the rows
        self.h = law.hcache().array(order, L_SMALL + law.k_pos - 1)
        self.rows = self.new_rows()
        self.log_K = _log_K(law) if order == 1 else None

    def new_rows(self):
        """Empty rows for this window, ROW_GUIDE guide cells each: row l
        starts at its column k = -l."""
        return _StackedCdf(L_SMALL, self.ks, cells=ROW_GUIDE,
                           starts=np.maximum(0, -self.ks[0] - np.arange(L_SMALL)))

    def extend_rows(self, l_max):
        """Build the rows up to l_max < L_SMALL, in blocks of ROW_CHUNK, by
        the library's ``fill_rows`` where it loads, else by numpy; both
        write the same doubles."""
        rows = self.rows
        end = min(L_SMALL, rows.n + -(-(l_max + 1 - rows.n) // ROW_CHUNK) * ROW_CHUNK)
        lib = _native.library()[0]
        if lib is None or self.p.dtype != np.float64 or self.ks.dtype != np.int64:
            self._fill_numpy(rows, end)
        else:
            self._fill_c(lib, rows, end)

    def _fill_numpy(self, rows, end):
        rows.reserve(end)
        # h behind zeros for the landings below 0, which append leaves out
        hz = np.concatenate([np.zeros(-self.ks[0]), self.h])
        while rows.n < end:
            ls = np.arange(rows.n, min(rows.n + ROW_CHUNK, end))
            rows.append(hz[ls[:, None] + (self.ks - self.ks[0])] * self.p)

    def _fill_c(self, lib, rows, end, empty=np.empty):
        rows.reserve(end)
        if end > rows.n:
            addr = _native.address
            guide = empty((end - rows.n) * rows.cells, dtype=np.int32)
            lib.fill_rows(addr(self.h), addr(self.p), addr(self.ks), rows.width,
                          addr(rows._off), rows.n, end, rows.cells, rows._open, addr(guide),
                          addr(rows._store[rows._off[rows.n]:rows._off[end]]))
            rows.grown(end, guide)


def _check_mode(mode, law):
    """Refuse a mode other than 'finite' and 'ibpm', and the ibpm transform
    of a law that is not critical."""
    if mode not in ("finite", "ibpm"):
        raise ValueError("mode must be 'finite' or 'ibpm'")
    if mode == "ibpm" and not law.critical:
        raise ValueError("the stay-positive transform needs a critical law")


class _ChainEngine:
    """Doob-transformed jumps for any number of chains at once.

    Perimeters below L_SMALL draw from the stacked inverse-CDF rows of its
    `_Window`, built as chains first reach them.  From
    L_SMALL on, landings m = l + k in [max(0, l - k_neg), l // 2) and in
    [l // 2, l + k_pos] (split clamped) have as envelope the largest h(o, .)
    at the band's two lowest and two highest arguments, as h(1, .) rises and
    h(0, .) falls along parities (`_Bands`).  One uniform u picks a band in
    proportion to env * nu(band) and, mapped affinely into nu's cumulative
    sum cs, the jump, kept with probability h(o, m) / env (Devroye 1986,
    II.3).  h is stored behind k_neg zeros and jumps are indices
    i = k + k_neg.  ``flags`` counts the band proposals and the jumps they
    gave (band_proposals, band_accepts) since the last ``start``.

    For the ibpm transform the engine also proposes tilted blocks (module
    docstring), from a run's first round on; a chain with B(l) = 1 makes
    its round's single step by ``draw``.  Per tilt theta of its grid
    ``thetas`` (BLOCK_THETAS) it holds log phi(theta), the window's K_theta
    and a guided inverse-CDF row of nu_theta over the window k > -L_SMALL
    whose last entry, -(k_neg + 1), stands for all of k <= -L_SMALL.
    ``blocks[l]`` is B(l) and ``block_tilt[l]`` the index of its theta,
    tabulated with hz and the bands over the cover (`_cover`).  ``rules``
    holds the hole-volume rule tables by filling (`rule_table`), each built
    when a run first reads it, and ``samplers`` the `VolumeSampler` per
    volume arguments (`sampler`), with their exact volume tables.

    The engine is the depth part: every table but the window's depends on
    the law as deepened for a run (its deep tail, cs, the bands, the tilted
    rows, log phi, B(l), the rules and the samplers' exact tables).  Every table
    depends only on that law and the transform, so one engine serves run
    after run, kept in its thread's slot under what it read of the law
    (`_part_key`, `_chain_engine`); ``start`` begins each.  window is the
    law's window part, shared with every kept engine whose window reads
    the same, built here when not given.
    """

    def __init__(self, law: StepLaw, mode, window=None):
        _check_mode(mode, law)
        self.law = law
        self.order = 0 if mode == "finite" else 1
        self.window = window or _Window(law, self.order)
        self.rows = self.window.rows
        self.cs = np.concatenate([[0.0], np.cumsum(law.probs)])
        self.win_ks = self.window.ks
        self.win_idx = self.win_ks + law.k_neg
        self.rules = {}
        self.samplers = {}
        self.thetas = BLOCK_THETAS
        # B(l) for l < len(blocks), the cover's perimeters
        self.blocks = np.ones(0, dtype=np.int64)
        self.block_tilt = np.zeros(0, dtype=np.int16)
        if self.order == 1:
            self.log_K = self.window.log_K
            self._tilt_tables()
        self.h_len = 0
        self._cover(L_SMALL)

    def _tilt_tables(self):
        """Tabulate log phi(theta) for theta in BLOCK_THETAS; the rows of
        nu_theta are built in grid order as blocks first need them
        (_tilt_rows)."""
        law, th = self.law, self.thetas
        p = law.probs / self.cs[-1]
        n_deep = max(0, law.k_neg - L_SMALL + 1)
        kd, pd = law.ks[:n_deep], p[:n_deep]
        # phi - 1 = sum nu(k) (e^(theta k) - 1) keeps log phi accurate at small theta
        deep = np.array([(pd * _exp(t * kd, np.expm1)).sum() for t in th])
        # e^(theta k_pos) overflows only for k_pos > 709: such theta get no blocks
        with np.errstate(over="ignore", invalid="ignore"):
            self.log_phi = np.log1p((_exp(np.outer(th, self.win_ks), np.expm1)
                                     * p[self.win_idx]).sum(axis=1) + deep)
        # the last entry of each row holds all of k <= -L_SMALL
        self._deep_w = (pd.sum() + deep) * np.exp(-th * law.k_pos)
        self.tilt_rows = _StackedCdf(len(th), np.append(self.win_ks, -law.k_neg - 1),
                                     cells=GUIDE)

    def _tilt_rows(self, j):
        """Build the rows of nu_theta for the grid up to index j: nu(k) e^(theta
        (k - k_pos)), which cannot overflow, over the window, then the rest."""
        n = self.tilt_rows.n
        if j < n:
            return
        th = self.thetas[n:j + 1]
        p = self.law.probs[self.win_idx] / self.cs[-1]
        w = p * _exp(np.outer(th, self.win_ks - self.law.k_pos))
        self.tilt_rows.append(np.column_stack([w, self._deep_w[n:j + 1]]))

    def _cover(self, l_max):
        """Grow the perimeter tables, each time at least twofold, to cover
        0..l_max: hz, the bands and, for the ibpm transform, B(l) with its
        tilt rows, all over the same perimeters 0..bands.n-1."""
        law = self.law
        if l_max + law.k_pos < self.h_len:
            return
        self.h_len = max(2 * self.h_len, 1 << (l_max + law.k_pos).bit_length())
        h = law.hcache().array(self.order, self.h_len - 1)
        self.hz = np.concatenate([np.zeros(law.k_neg), h])
        self.bands = _Bands(self.cs, self.hz, law.k_neg, law.k_pos)
        if self.order == 1:
            self._extend_blocks()

    def rule_table(self, means):
        """The law's hole-volume rule with or without means (`_rule_table`),
        built on first use."""
        if means not in self.rules:
            self.rules[means] = _rule_table(self.law, means)
        return self.rules[means]

    def sampler(self, vol_args):
        """The `VolumeSampler` of this engine for vol_args = (mode, l_exact,
        d_max), checked by the caller: built on the first run that asks for
        it and kept with the engine, with fresh flags for each run."""
        vol = self.samplers.get(vol_args)
        if vol is None:
            vol = self.samplers[vol_args] = VolumeSampler(self.law, *vol_args, engine=self)
        else:
            vol.start()
        return vol

    def start(self, l0):
        """Begin a run of chains from perimeter l0 >= 1."""
        self._cover(l0)
        if not self.hz[l0 + self.law.k_neg] > 0:
            raise ValueError(f"conditioning weight vanishes at l={l0}")
        self.flags = {"band_proposals": 0, "band_accepts": 0}

    def draw(self, ls, rng, hi=None):
        """One jump per chain at perimeters ls >= 1, whose largest is hi."""
        hi = int(ls.max()) if hi is None else hi
        if hi < L_SMALL:
            if hi >= self.rows.n:
                self.window.extend_rows(hi)
            return self.rows.draw(rng, ls)
        self._cover(hi)
        small = ls < L_SMALL
        if not small.any():
            return self._rejection_jumps(ls, rng)
        if self.rows.n < L_SMALL:
            self.window.extend_rows(L_SMALL - 1)
        out = np.empty_like(ls)
        out[small] = self.rows.draw(rng, ls[small])
        out[~small] = self._rejection_jumps(ls[~small], rng)
        return out

    def _rejection_jumps(self, ls, rng):
        """One jump per chain at perimeters ls from the bands, counted."""
        out, proposals = self.bands.jumps(rng, ls)
        self.flags["band_proposals"] += proposals
        self.flags["band_accepts"] += len(ls)
        return out

    def _extend_blocks(self):
        """Tabulate B(l) and its tilt over the rest of the cover, h(1, l) from
        hz: per theta the largest B with B log phi(theta) + theta l + log
        K_theta <= log BLOCK_M + log h(1, l), the grid's largest, 1 below 2."""
        ls = np.arange(len(self.blocks), self.bands.n)
        with np.errstate(divide="ignore"):
            room = math.log(BLOCK_M) + np.log(self.hz[self.law.k_neg + ls])
        best = np.ones(len(ls))
        tilt = np.zeros(len(ls), dtype=np.int16)
        usable = self.log_phi > 0
        for lo in range(0, len(ls), 4096):      # bounds the grid-by-l table
            part = slice(lo, lo + 4096)
            with np.errstate(divide="ignore", invalid="ignore"):
                b = np.floor((room[part] - np.outer(self.thetas, ls[part])
                              - self.log_K[:, None]) / self.log_phi[:, None])
            b[~usable] = -np.inf
            j = b.argmax(axis=0)
            b = b[j, np.arange(len(j))]
            more = b > 1
            best[part][more], tilt[part][more] = b[more], j[more]
        self.blocks = np.concatenate([self.blocks, best.astype(np.int64)])
        self.block_tilt = np.concatenate([self.block_tilt, tilt])
        self._tilt_rows(int(tilt.max()))

    def propose_blocks(self, ls, B, rng):
        """One block of B[j] nu_theta steps per chain at ls[j], theta its
        tilt, stopped early where its path falls below 1 (`_tilted_steps`):
        (the steps laid end to end, their running sum, each block's start
        in it and the sum before it, the perimeters after the blocks, which
        blocks are kept).  Only the deep entries of blocks that drew every
        step are redrawn, and only blocks that stay at 1 or above draw a
        keep uniform."""
        ends = np.cumsum(B)
        starts = ends - B
        tilt = self._block_tilts(ls, B)
        ks, whole = self._tilted_steps(ls, B, starts, tilt, rng)
        rows = np.repeat(tilt, B)
        deep = np.flatnonzero((ks < -self.law.k_neg) & np.repeat(whole, B))
        if len(deep):
            ks[deep] = self._deep_jumps(rows[deep], rng)
        run = np.cumsum(ks)
        before = run[starts] - ks[starts]
        low = np.minimum.reduceat(run, starts) - before
        lB = ls + run[ends - 1] - before
        # kept with probability h(1, l_B) e^(-theta l_B) / K_theta <= 1
        stay = whole & (ls + low >= 1)
        lB_s, j = lB[stay], tilt[stay]
        self._cover(int(lB_s.max(initial=1)))
        odds = self.hz[self.law.k_neg + lB_s] * _libm_exp(-self.thetas[j] * lB_s - self.log_K[j])
        keep = np.zeros(len(ls), dtype=bool)
        keep[stay] = rng.random(len(lB_s)) < odds
        return ks, run, starts, before, lB, keep

    def _tilted_steps(self, ls, B, starts, tilt, rng):
        """The blocks' tilted steps laid end to end, block after block from
        the stream, each stopped at the first step where l + its steps so
        far is below 1, a deep entry counted as -L_SMALL (the jumps it
        stands for are at most that): (the steps, zero past a block's stop,
        and which blocks did not stop).  A stopped block's law does not
        matter, since it is rejected, and the uniforms it leaves go to the
        next block.  The round's uniforms are read ahead (`_peek`), and
        only those the blocks drew are taken.  A block that cannot fall
        below 1 before its last step takes all its uniforms, so a run of
        such blocks is drawn in one call."""
        self.tilt_rows.check_rows(tilt)
        u = _peek(rng, int(B.sum())) * _StackedCdf.U_MAX
        ks = np.zeros(len(u), dtype=np.int64)
        whole = np.ones(len(ls), dtype=bool)
        free = ls - (B - 1) * L_SMALL >= 1
        at = b = 0
        # the runs of blocks alike in free, [b, e)
        for e in np.append(np.flatnonzero(np.diff(free)) + 1, len(ls)).tolist():
            if free[b]:
                p, n = starts[b], int(B[b:e].sum())
                k = ks[p:p + n] = self.tilt_rows.at(np.repeat(tilt[b:e], B[b:e]) + u[at:at + n])
                whole[b:e] = ls[b:e] + np.add.reduceat(np.maximum(k, -L_SMALL),
                                                       starts[b:e] - p) >= 1
                at += n
            else:
                for c in range(b, e):
                    l, n, j, p = int(ls[c]), int(B[c]), int(tilt[c]), int(starts[c])
                    k = self.tilt_rows.at(j + u[at:at + n])
                    low = l + np.cumsum(np.maximum(k, -L_SMALL)) < 1
                    if low.any():
                        whole[c] = False
                        k = k[:int(low.argmax()) + 1]
                    ks[p:p + len(k)] = k
                    at += len(k)
            b = e
        rng.random(at)
        return ks, whole

    def _block_tilts(self, ls, B):
        """Per block, the theta of the grid that keeps B steps from l most
        often, the least B log phi(theta) + theta l + log K_theta.  That sum
        is convex in theta, and its least point moves to larger theta as B
        falls, so a block shorter than B(l) walks up the grid from B(l)'s
        theta while the sum falls."""
        j = self.block_tilt[ls]
        act = np.flatnonzero((B < self.blocks[ls]) & (j > 0))

        def cost(i, jj):
            return B[i] * self.log_phi[jj] + self.thetas[jj] * ls[i] + self.log_K[jj]

        now = cost(act, j[act])
        while len(act):
            up = cost(act, j[act] - 1)
            better = up < now
            act, now = act[better], up[better]
            j[act] -= 1
            more = j[act] > 0
            act, now = act[more], now[more]
        return j

    def _deep_jumps(self, tilts, rng):
        """Jumps k <= -L_SMALL from nu_theta, theta per entry of tilts: nu
        proposals on k <= -L_SMALL kept with probability e^(theta (k + L_SMALL))."""
        n_deep = self.law.k_neg - L_SMALL + 1
        out = np.empty(len(tilts), dtype=np.int64)
        todo = np.arange(len(tilts))
        while len(todo):
            u = rng.random(len(todo)) * self.cs[n_deep]
            i = np.minimum(self.cs[1:].searchsorted(u, "right"), n_deep - 1)
            k = i - self.law.k_neg
            hit = rng.random(len(todo)) < _exp(self.thetas[tilts[todo]] * (k + L_SMALL),
                                               _libm_exp)
            out[todo[hit]] = k[hit]
            todo = todo[~hit]
        return out

    def jump_law(self, l):
        """The law over law.ks that draw() samples at perimeter l."""
        self._cover(l)
        if l < L_SMALL:
            self.window.extend_rows(l)
            row = self.rows.row(l)
            p = np.zeros(len(self.law.probs))
            p[self.win_idx[len(self.win_idx) - len(row):]] = np.diff(row - l, prepend=0.0)
        else:
            p = self.law.probs * self.hz[l:l + len(self.law.probs)]
        return p / p.sum()


# depth parts a thread keeps per mode, the least recently used dropped first
PARTS = 8

# a depth part as a thread keeps it: the deepened law (a copy of a law run
# as given), its digest, its window key (`_window_key`) and its engine
_Part = collections.namedtuple("_Part", "law digest window_key engine")


class _Slot(threading.local):
    """This thread's chain engines: per mode, its PARTS most recently used
    depth parts, of DEPTH_CAP depth in all (`_chain_engine`),
    {`_part_key`: `_Part`} oldest first, in ``parts``.  A window part lives
    with the depth parts built on it.  ``rng`` is the thread's chain
    generator (`_keyed`), None until its first run."""

    def __init__(self):
        self.parts = {"finite": collections.OrderedDict(),
                      "ibpm": collections.OrderedDict()}
        self.rng = None

    def clear(self):
        """Drop every part and the generator this thread holds."""
        for parts in self.parts.values():
            parts.clear()
        self.rng = None


_slot = _Slot()


def _part_key(law, depth):
    """What the depth part of law at depth reads of law: its digest (nu, r
    and c_plus) and the fields the digest leaves out.  A deeper copy
    (`deepen_negative`) reads also k_neg, where nu's positive side starts
    in probs, trunc_pos and critical; a law run as given (depth = k_neg) is
    read whole, so also its B_nu, heavy_tail and exact values."""
    key = (law.digest(), depth, law.k_neg, repr(law.trunc_pos), law.critical)
    if depth == law.k_neg:
        key += (repr(law.B_nu), law.heavy_tail, tuple(sorted((law.exact or {}).items())))
    return key


@contextlib.contextmanager
def _chain_engine(mode, law, n_steps):
    """The law deepened for n_steps, its digest, its engine and the run's
    reuse flags (module docstring).  The depth part is reused from this
    thread's parts in this mode whenever one has the same key
    (`_part_key`): the digest guards in-place edits, and two law objects
    with one key share a part.  A part built anew takes its window part
    from any kept part with the same window (`_window_key`), so a law run
    at several depths, or laws run by turns, share rows; it is built only
    once the least recently used parts are dropped until fewer than PARTS
    are kept and their depths with its own come to at most DEPTH_CAP (or
    none is kept).  A law run as given is copied for its part, so an
    in-place edit of the caller's object never reaches a kept part.
    The depth part is out of the slot while the run goes on and goes back
    only when it returns, so a run that raises never leaves half-grown
    depth tables behind, and a run refused for its mode or law touches
    nothing.  A window part's rows grow only by appending rows written
    before they are taken, so the kept parts that share it are whole
    whatever a run does."""
    _check_mode(mode, law)
    depth = _deep_k_neg(law, n_steps)
    key = _part_key(law, depth)
    parts = _slot.parts[mode]
    part = parts.pop(key, None)
    built = part is None
    reused = True
    if built:
        deep = deepen_negative(law, depth)
        given = deep is law
        if given:
            # the part reads its law lazily: it keeps its own copy, which
            # the caller's in-place edits leave as it was keyed
            deep = copy.deepcopy(law)
        wkey = _window_key(deep)
        window = next((p.engine.window for p in parts.values() if p.window_key == wkey),
                      None)
        reused = window is not None
        while parts and (len(parts) >= PARTS
                         or depth + sum(k[1] for k in parts) > DEPTH_CAP):
            parts.popitem(last=False)
        window = window or _Window(deep, 0 if mode == "finite" else 1)
        digest = key[0] if given else deep.digest()
        # no key is taken of the part's own law: it keeps no copy of nu's
        # bytes for a digest (`StepLaw.digest`)
        vars(deep).pop("_digest", None)
        part = _Part(deep, digest, wkey, _ChainEngine(deep, mode, window))
    yield part.law, part.digest, part.engine, {"window_reused": reused, "depth_built": built}
    parts[key] = part


def _check_integers(**named):
    """Refuse a value, or a list entry, that is not an integer (numpy's are);
    an int skips the ABC check, which costs 0.5 us per checkpoint."""
    for name, v in named.items():
        if not all(type(x) is int or isinstance(x, numbers.Integral)
                   for x in (v if isinstance(v, list) else [v])):
            raise ValueError(f"{name} must be integral; got {name}={v!r}")


def _advance(mode, law, vol_args, key, l0, n_chains, n_steps, checkpoints):
    """Run n_chains chains from l0 on law deepened for n_steps, drawing from
    the stream keyed by key = (seed, chain_index), checked by the caller:
    (that law's digest, the run's rows, flags).  The rows are a (2, 1 +
    len(checkpoints), n_chains) view, perimeters then volumes, each the
    lead row (l0 and 0) and then the rows at the sorted checkpoints
    (`_Run`).  A finite run's chains step in lockstep, an infinite-map
    run's in block rounds."""
    if min(n_chains, n_steps) < 1 or checkpoints[0] < 1 or checkpoints[-1] != n_steps:
        raise ValueError("n_chains and n_steps must be >= 1 and checkpoints in "
                         f"1..n_steps; got n_chains={n_chains}, n_steps={n_steps}")
    # checked before the slot is touched: a rejected call builds nothing
    if not (isinstance(l0, numbers.Integral) and l0 >= 1):
        raise ValueError(f"initial perimeter must be an integer >= 1; got l0={l0!r}")
    _check_volume_args(*vol_args)
    l0 = int(l0)
    with _chain_engine(mode, law, n_steps) as (law, digest, engine, reuse):
        vol = engine.sampler(vol_args)
        engine.start(l0)
        run = _Run(n_chains, l0, checkpoints, _compiled(engine, vol))
        flags = {"block_proposals": 0, "block_accepts": 0}
        _chains(engine, vol, _keyed(*key), run, flags)
        if engine.order == 0:
            # the checkpoints after every chain was absorbed
            run.per[run.i:], run.vols[run.i:] = run.ls, run.V
        return digest, run.rows, {**vol.flags, **flags, **engine.flags, **reuse}


def _compiled(engine, vol):
    """(lib, engine, vol) for a run of engine's chains in the library's
    loops, or None where the numpy loops run it (no library, or a law
    whose jumps are not int64): the one place that decides, for `_Run`
    and so for `_chains`."""
    lib = _native.library()[0]
    if lib is None or engine.rows._vals.dtype != np.int64:
        return None
    return lib, engine, vol


def _template(engine, vol):
    """The template of the compiled runs of engine with vol: a
    `_native.Lockstep` holding every field that reads only the engine
    (l_small and absorbing, and for the ibpm transform its tilt grid, log
    phi, log K_theta, cs and k_neg) and vol (its exact volume rows, its
    rule rows, b, n_lp and l_exact), which ``run_start`` copies into each
    run's state.  vol keeps it, with the tables it points into, from its
    first compiled run on engine; it is built anew for another engine."""
    kept = vol.template
    if kept is None or kept[0]() is not engine:
        t = _native.Lockstep(l_small=L_SMALL, absorbing=engine.order == 0)
        if engine.order == 1:
            addr, k_neg = _native.address, engine.law.k_neg
            t.thetas, t.log_phi, t.log_K = map(addr, (engine.thetas, engine.log_phi,
                                                      engine.log_K))
            t.cs, t.n_cs = addr(engine.cs), len(engine.cs)
            t.k_neg, t.n_deep = k_neg, k_neg - L_SMALL + 1
        volumes, rule = (vol._cdf.pack() if vol.l_exact else None), vol.rule
        t.volumes = volumes and ctypes.addressof(volumes[0])
        t.lo, t.off, t.c = map(_native.address, rule[:3])
        t.b, t.n_lp, t.l_exact = rule.b, len(rule.lo), vol.l_exact
        kept = vol.template = weakref.ref(engine), t, volumes, rule
    return kept[1]


class _Run:
    """A run's chains, started at l0 with volume 0.

    Its output block holds the perimeter rows and then the volume rows,
    each a lead row (l0, and 0 for volumes), a row per checkpoint and the
    chains' current state: ``rows`` (the lead and checkpoint rows of both),
    ``per`` and ``vols`` (the checkpoint rows), ``ls`` and ``V`` (the
    current state) are views of it.  A run for the numpy loops is started
    here.  With c = (lib, engine, vol) (`_compiled`), lib's ``run_start``
    starts it from their template (`_template`) into its compiled state
    ``s``, over the output block and a scratch block of work rows
    (STEP_WORK, env, and for the ibpm transform BLOCK_WORK and ks), which
    results never hold.  `_chains` runs it either way.  Only the
    self-check gives a round budget (0: none) and an empty that fills both
    blocks with junk.  ``i``: the checkpoints a finite run wrote (0 for an
    ibpm run, which writes every one)."""

    def __init__(self, n_chains, l0, checkpoints, c=None, budget=0, empty=np.empty):
        n = n_chains
        self.checkpoints = checkpoints
        # np.asarray would read a range one int at a time
        self.cps = cps = (np.arange(checkpoints.start, checkpoints.stop, checkpoints.step)
                          if isinstance(checkpoints, range)
                          else np.asarray(checkpoints, dtype=np.int64))
        out = empty(2 * (len(cps) + 2) * n, dtype=np.int64)
        block = out.reshape(2, len(cps) + 2, n)
        self.rows, self.per, self.vols = block[:, :-1], block[0, 1:-1], block[1, 1:-1]
        self.ls, self.V = block[0, -1], block[1, -1]
        self.i, self.budget = 0, budget
        self.lib = self.s = None
        if c is None:
            self.ls[:] = block[0, 0] = l0
            self.V[:] = block[1, 0] = 0
            return
        self.lib, engine, vol = c
        # the most steps a round draws: max(BLOCK_DRAWS, n)
        n_ks = min(n * int(cps[-1]), max(n, BLOCK_DRAWS)) if engine.order else 0
        rows = len(_native.STEP_WORK) + 1 + (len(_native.BLOCK_WORK) if n_ks else 0)
        self.work = empty(rows * n + n_ks, dtype=np.int64)
        self.s = _native.Lockstep()
        self.lib.run_start(self.s, _template(engine, vol), _native.address(out),
                           _native.address(self.work), _native.address(cps), n, len(cps),
                           l0, n_ks, BLOCK_DRAWS, budget)


def _chains(engine, vol, rng, run, flags):
    """Advance the chains of run from their first step to its last
    checkpoint, a finite run's until every chain is absorbed at 0, adding
    the run's counts to the engine's, vol's and the block flags.  A run
    the library started (`_Run`) goes in its ``lockstep`` (finite) or
    ``block_rounds`` (ibpm), called on the compiled state until it returns
    LS_DONE; any other run in `_lockstep_numpy` or `_block_rounds_numpy`,
    which draw the same values.  The addresses of the engine's rows, bands
    and block tables are set before the first call and kept until a table
    grows: after LS_ROWS the window's rows and after LS_COVER the engine's
    cover grow to s.need, they are packed anew and the call resumes where
    it stopped.  LS_BUDGET raises `_OutOfRounds`, and any other status is
    a read outside the tables (IndexError)."""
    s = run.s
    if s is None:
        if engine.order:
            return _block_rounds_numpy(engine, vol, rng, run, flags)
        return _lockstep_numpy(engine, vol, rng, run)
    name = ("lockstep", "block_rounds")[engine.order]
    loop = getattr(run.lib, name)
    bg = rng.bit_generator
    state, ref = bg.ctypes.bit_generator, ctypes.byref(s)
    tables = None
    try:
        while True:
            if tables is None:
                # the packed tables stay referenced while C reads them
                tables = rows, bands, tilt = (engine.rows.pack(), engine.bands.pack(),
                                              engine.order and engine.tilt_rows.pack())
                s.rows, s.bands = ctypes.addressof(rows[0]), ctypes.addressof(bands)
                if tilt:
                    s.tilt_rows = ctypes.addressof(tilt[0])
                    s.blocks, s.n_blocks = _native.address(engine.blocks), len(engine.blocks)
                    s.block_tilt = _native.address(engine.block_tilt)
            with bg.lock:
                status = loop(state, ref)
            if status == _native.LS_DONE:
                return
            if status == _native.LS_ROWS:
                engine.window.extend_rows(s.need)
                tables = None
            elif status == _native.LS_COVER:
                engine._cover(s.need)
                tables = None
            elif status == _native.LS_BUDGET:
                raise _OutOfRounds(f"{name} ran out of its round budget")
            else:
                raise IndexError(f"{name} read outside the tables built")
    finally:
        run.i = s.cp
        engine.flags["band_proposals"] += s.band_proposals
        engine.flags["band_accepts"] += s.band_accepts
        vol.flags["residual_draws"] += s.residual_draws
        if s.undrawn and vol.mode != "expectation":
            vol.flags["heavy_volume_expectation"] = True
        flags["block_proposals"] += s.block_proposals
        flags["block_accepts"] += s.block_accepts


def _lockstep_numpy(engine, vol, rng, run):
    """Step a finite run's chains, absorbed at 0, until all steps are taken
    or every chain is absorbed, writing the checkpoints they reach."""
    ls, V, per, vols, checkpoints = run.ls, run.V, run.per, run.vols, run.checkpoints
    n_steps = checkpoints[-1]
    i = step = 0
    while step < n_steps:
        step += 1
        if not ls.all():
            live = np.flatnonzero(ls)
            if not len(live):
                break
            jumps = np.zeros_like(ls)
            jumps[live] = engine.draw(ls[live], rng)
        else:
            jumps = engine.draw(ls, rng)
        prune = jumps <= -2
        if prune.any():
            V[prune] += vol.draw_many(rng, -2 - jumps[prune])
        ls += jumps
        if step == checkpoints[i]:
            per[i], vols[i] = ls, V
            i += 1
    run.i = i


def _block_rounds_numpy(engine, vol, rng, run, flags):
    """Advance ibpm chains from step 0 to step cps[-1] in rounds.

    Each round a chain with B(l) = 1 makes one step and every other chain
    proposes one block of min(B(l), steps left) steps; a kept block writes
    its partial sums into the checkpoints it spans.
    The unfinished chains' states are kept compact: act[j] is at perimeter
    la[j] with volume va[j] after da[j] steps; the chains' state (ls, V)
    is set at the end, to the last checkpoint, as the library leaves it.
    A round past the run's nonzero round budget raises `_OutOfRounds`, as
    in the library."""
    ls, V, per, vols, cps, budget = run.ls, run.V, run.per, run.vols, run.cps, run.budget
    n_steps = int(cps[-1])
    # upto[s]: how many checkpoints are at most s
    upto = np.zeros(n_steps + 1, dtype=np.int64)
    upto[cps] = 1
    np.cumsum(upto, out=upto)
    act, la, va = np.arange(len(ls)), ls.copy(), V.copy()
    da = np.zeros(len(ls), dtype=np.int64)
    rounds = 0
    while len(act):
        if budget and rounds >= budget:
            raise _OutOfRounds("numpy block rounds ran out of their round budget")
        rounds += 1
        engine._cover(int(la.max()))
        B = engine.blocks[la]
        one = B == 1
        n_one = int(np.count_nonzero(one))
        if n_one:
            so = slice(None) if n_one == len(act) else np.flatnonzero(one)
            lo, vo = la[so], va[so]
            jumps = engine.draw(lo, rng, int(lo.max()))
            prune = jumps <= -2
            if prune.any():
                vo[prune] += vol.draw_many(rng, -2 - jumps[prune])
            la[so], va[so] = lo + jumps, vo
            do = da[so] + 1
            da[so] = do
            at = upto[do] - 1
            hit = np.flatnonzero(cps[at] == do)
            if len(hit):
                c = act[so][hit]
                per[at[hit], c] = la[so][hit]
                vols[at[hit], c] = va[so][hit]
        if n_one < len(act):
            sb = np.flatnonzero(~one)
            lb, B = la[sb], np.minimum(B[sb], n_steps - da[sb])
            if B.sum() > BLOCK_DRAWS:
                np.minimum(B, max(1, BLOCK_DRAWS // len(sb)), out=B)
            ks, sums, starts, before, lB, keep = engine.propose_blocks(lb, B, rng)
            flags["block_proposals"] += len(sb)
            flags["block_accepts"] += int(keep.sum())
            if keep.any():
                # the prunes of kept blocks, with their volumes' running sum
                prune = np.flatnonzero(np.repeat(keep, B) & (ks <= -2))
                vrun = np.zeros(len(prune) + 1, dtype=np.int64)
                np.cumsum(vol.draw_many(rng, -2 - ks[prune]), out=vrun[1:])
                sb, lb, B, starts, before = (x[keep] for x in (sb, lb, B, starts, before))
                p0 = prune.searchsorted(starts)
                s0, v0 = da[sb], va[sb]
                la[sb] = lB[keep]
                va[sb] = v0 + vrun[prune.searchsorted(starts + B)] - vrun[p0]
                da[sb] = s0 + B
                # the checkpoints in (s0, s0 + B] of each kept block
                first = upto[s0]
                count = upto[s0 + B] - first
                if count.any():
                    own = np.repeat(np.arange(len(sb)), count)
                    at = np.arange(len(own)) + np.repeat(first - np.cumsum(count) + count, count)
                    pos = starts[own] + cps[at] - s0[own] - 1
                    c = act[sb[own]]
                    per[at, c] = lb[own] + sums[pos] - before[own]
                    vols[at, c] = (v0[own] + vrun[prune.searchsorted(pos, "right")]
                                   - vrun[p0[own]])
        live = da < n_steps
        if not live.all():
            act, la, va, da = act[live], la[live], va[live], da[live]
    ls[:], V[:] = per[-1], vols[-1]


def simulate(mode, law: StepLaw, l0=None, n_steps=1000, seed=0,
             volume_mode="exact_small", l_exact=DEFAULT_L_EXACT, d_max=24,
             chain_index=0) -> PeelTrace:
    """Run one peeling chain and record the full (perimeter, volume) path.

    mode 'finite' absorbs at zero, mode 'ibpm' keeps the perimeter
    positive; n_steps must be an integer >= 1, l0 one too, and seed and
    chain_index integers in [0, 2^64).  Identical (seed, parameters)
    produce bit-identical traces; parallel chains should vary chain_index,
    which keys an independent counter-based stream.

    The law is deepened to the run's scale first (``_deep_k_neg``), except
    a heavy-tailed law, which runs as given: the run samples the h(0, .) or
    h(1, .) transform of that law truncated at its own k_neg and k_pos, not
    deepened.  l_exact and d_max are validated in every volume mode but
    used only by 'exact_small' (``VolumeSampler``).

    The volumes are the summed vertex counts of the holes the chain
    swallows.  A finite run's volume leaves out the marked vertex of the
    pointed disk it peels: once absorbed, volume + 1 is the disk's vertex
    count.
    """
    l0 = 2 if l0 is None else l0
    _check_integers(n_steps=n_steps)
    _check_key(seed, chain_index)
    digest, rows, flags = _advance(
        mode, law, (volume_mode, l_exact, d_max), (seed, chain_index), l0,
        1, n_steps, range(1, n_steps + 1))
    return PeelTrace(
        perimeters=rows[0, :, 0],
        volumes=rows[1, :, 0],
        mode=mode,
        volume_mode=volume_mode,
        seed=seed,
        l0=l0,
        law_digest=digest,
        flags=flags,
    )


class EnsembleResult(dict):
    """{checkpoint: (perimeters, volumes)}; `.flags` holds the volume
    sampler's flags (residual draws, exact fallback), the ibpm block counts
    (block_proposals, block_accepts) and the band-envelope counts above
    L_SMALL (band_proposals, band_accepts: proposals made and jumps kept)
    and the engine-reuse flags window_reused and depth_built (module
    docstring), as does `PeelTrace.flags`."""

    flags: dict


def simulate_ensemble(mode, law: StepLaw, l0, n_steps, n_chains, seed=0,
                      volume_mode="asymptotic_xi", l_exact=DEFAULT_L_EXACT,
                      d_max=24, checkpoints=None):
    """Advance n_chains independent chains and record checkpoint states.

    Returns {checkpoint: (perimeters, volumes)} plus the final state under
    key n_steps, as an EnsembleResult carrying the volume flags; n_steps and
    n_chains below 1 or not integers, checkpoints outside 1..n_steps or not
    integers, an l0 that is not an integer >= 1 or a seed outside the
    integers in [0, 2^64) raise ValueError.  One counter-based stream keyed
    by the seed makes results reproducible for fixed (seed, n_chains).  As
    in ``simulate``, a heavy-tailed law runs undeepened, as the transform of
    the law truncated at its own k_neg and k_pos, and l_exact and d_max are
    validated in every volume mode but used only by 'exact_small'.
    """
    cps = [] if checkpoints is None else list(checkpoints)
    _check_integers(n_steps=n_steps, n_chains=n_chains, checkpoints=cps)
    steps = sorted({int(c) for c in cps} | {int(n_steps)})
    _check_key(seed, 0)
    _, rows, flags = _advance(mode, law, (volume_mode, l_exact, d_max),
                              (seed, 0), l0, n_chains, n_steps, steps)
    out = EnsembleResult((c, (rows[0, i], rows[1, i])) for i, c in enumerate(steps, 1))
    out.flags = flags
    return out
