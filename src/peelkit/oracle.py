"""Exact enumeration of small maps: loop-equation dynamic programming and
rotation-system brute force.

The DP grades rooted-map weights by (root-face degree l, total inner-face
degree D, inner-face count F) and follows the peel of the root edge:

    T(l, D, F) = sum_k q_k T(l+k-2, D-k, F-1)
               + sum_{l'=0}^{l-2} sum_{splits} T(l', D1, F1) T(l-l'-2, D2, F2),

where the split runs over D1+D2 = D, F1+F2 = F.  Every map satisfies
l + D = 2E, and both branches lower l + D by exactly 2, so the table is
built layer by layer in M = l + D.  Derived vertex counts come from Euler:
V = (l+D)/2 - F + 1.

The brute force enumerates rooted maps with at most four edges as dart
permutation pairs: alpha is the fixed pairing (0 1)(2 3)..., sigma runs
over all permutations of the darts, faces are the orbits of sigma o alpha,
the root face is the orbit of dart 0, connectivity is checked on the group
action, and planarity via #vertices - E + #faces = 2.  Each rooted map is
hit by exactly (2E-2)!! labelings, giving exact rational counts that are
completely independent of the loop equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations

from .weights import WeightSequence

DP_BUDGET_LIMIT = 80
BRUTE_FORCE_EDGE_LIMIT = 4


@dataclass
class EnumTable:
    """Graded weights T(l, D, F), exact rationals for rational input."""

    q: WeightSequence
    l0: int
    D_max: int
    cells: dict
    exact: bool = True

    def cell(self, l, D, F):
        return self.cells.get((l, D, F), Fraction(0) if self.exact else 0.0)

    def disk_value(self, l, D_max=None):
        """Truncated disk weight sum_{D <= D_max, F} T(l, D, F).

        A monotone lower bound of the full disk weight, increasing in the
        degree budget.
        """
        if D_max is None:
            D_max = self.D_max
        zero = Fraction(0) if self.exact else 0.0
        return sum(
            (v for (ll, D, F), v in self.cells.items() if ll == l and D <= D_max),
            zero,
        )

    def rows(self):
        for (l, D, F), v in sorted(self.cells.items()):
            V = (l + D) // 2 - F + 1
            yield l, D, F, V, v

    def csv_text(self):
        lines = ["l,D,F,V,weight_num,weight_den\n"]
        for l, D, F, V, v in self.rows():
            frac = Fraction(v) if not isinstance(v, Fraction) else v
            lines.append(f"{l},{D},{F},{V},{frac.numerator},{frac.denominator}\n")
        return "".join(lines)

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write(self.csv_text())


def enumerate_dp(q: WeightSequence, l, D_max) -> EnumTable:
    """Build the graded table for all cells reachable within the budget.

    Requires finite support; float weights are tolerated (the table is then
    flagged inexact and unusable as ground truth).
    """
    if not q.is_finite:
        raise ValueError("enumeration needs a finite-support weight sequence")
    if D_max > DP_BUDGET_LIMIT:
        raise ValueError(f"degree budget {D_max} beyond limit {DP_BUDGET_LIMIT}")
    exact = q.is_exact
    zero = Fraction(0) if exact else 0.0
    support = sorted(q.support)
    M_max = l + D_max
    # layers[M][l] = {F: weight}; held[l] lists the layers M holding l, ascending
    layers = {0: {0: {0: (Fraction(1) if exact else 1.0)}}}
    held = {0: [0]}
    for M in range(2, M_max + 1, 2):
        layer = {}
        prev = layers[M - 2]
        for ll in range(max(1, M - D_max), M + 1):
            out = {}
            # explore a face of degree k
            for k in support:
                if M - ll - k < 0:
                    continue
                src = prev.get(ll + k - 2)
                if not src:
                    continue
                qk = q.support[k]
                for F1, v in src.items():
                    key = F1 + 1
                    out[key] = out.get(key, zero) + qk * v
            # split the root face into sublayers M1 and M - 2 - M1 (even
            # totals l' + D1), walking only the layers that hold l'
            for lp in range(0, ll - 1):
                lpp = ll - lp - 2
                for M1 in held.get(lp, ()):
                    if M1 > M - 2 - lpp:
                        break
                    B = layers[M - 2 - M1].get(lpp)
                    if not B:
                        continue
                    for F1, v1 in layers[M1][lp].items():
                        for F2, v2 in B.items():
                            key = F1 + F2
                            out[key] = out.get(key, zero) + v1 * v2
            if out:
                layer[ll] = out
        layers[M] = layer
        for ll in layer:
            held.setdefault(ll, []).append(M)
    cells = {}
    for M, layer in layers.items():
        for ll, fdict in layer.items():
            D = M - ll
            if D > D_max:
                continue
            for F, v in fdict.items():
                if v != 0:
                    cells[(ll, D, F)] = v
    return EnumTable(q=q, l0=l, D_max=D_max, cells=cells, exact=exact)


# -- rotation-system brute force ------------------------------------------------


def _cycles(perm):
    n = len(perm)
    seen = [False] * n
    out = []
    for i in range(n):
        if seen[i]:
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = perm[j]
        out.append(cyc)
    return out


def _connected(sigma, n):
    # components of the dart graph generated by sigma and the pairing i ^ 1
    seen = [False] * n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        i = stack.pop()
        for j in (sigma[i], i ^ 1):
            if not seen[j]:
                seen[j] = True
                count += 1
                stack.append(j)
    return count == n


def brute_force_maps(q: WeightSequence, E_max) -> dict:
    """Exact rational weights of rooted planar maps with at most E_max edges.

    Returns {(l, D, F): weight} aggregated over root-face degree l, total
    inner degree D and inner-face count F, including the one-vertex map at
    (0, 0, 0).  Refuses E_max > 4: the scan over sigma grows factorially.
    """
    if E_max > BRUTE_FORCE_EDGE_LIMIT:
        raise ValueError(f"brute force refuses E_max > {BRUTE_FORCE_EDGE_LIMIT}")
    if not q.is_finite:
        raise ValueError("brute force needs a finite-support weight sequence")
    weights = {k: Fraction(v) for k, v in q.support.items()}
    cells = {(0, 0, 0): Fraction(1)}
    for E in range(1, E_max + 1):
        n = 2 * E
        labelings = Fraction(math.prod(range(2, n - 1, 2)) or 1)
        for sigma in permutations(range(n)):
            # faces are orbits of sigma o alpha with alpha = (0 1)(2 3)...
            phi = tuple(sigma[i ^ 1] for i in range(n))
            face_cycles = _cycles(phi)
            v_count = len(_cycles(sigma))
            if v_count - E + len(face_cycles) != 2:
                continue
            if not _connected(sigma, n):
                continue
            l = 0
            D = 0
            F = 0
            w = Fraction(1)
            for cyc in face_cycles:
                if 0 in cyc:
                    l = len(cyc)
                    continue
                deg = len(cyc)
                qd = weights.get(deg)
                if not qd:
                    w = Fraction(0)
                    break
                w *= qd
                D += deg
                F += 1
            if w:
                key = (l, D, F)
                cells[key] = cells.get(key, Fraction(0)) + w / labelings
    return cells


# -- vertex-graded tables -------------------------------------------------------


@dataclass
class VolumeTable:
    """W(l, V): disk weights graded by vertex count, complete below V_star."""

    l: int
    D_max: int
    values: dict
    V_star: int
    complete: bool
    messages: list = field(default_factory=list)

    def weight(self, V):
        return self.values.get(V, Fraction(0))

    def pointed_partial(self, V_max=None):
        """sum_V V * W(l, V): increases toward the pointed disk weight."""
        return sum(
            (V * w for V, w in self.values.items()
             if V_max is None or V <= V_max),
            Fraction(0),
        )


def volume_tables(q: WeightSequence, l, D_max) -> VolumeTable:
    """Vertex-count marginals of the graded table.

    With minimum face degree >= 3 each inner face adds at least half a
    vertex, so the budget D_max certifies completeness of all V up to
    V_star = floor((D_max (m-2)/m + l + 2)/2); below that the rational
    values are the exact disk weights W(l, V).
    """
    return _vertex_marginal(enumerate_dp(q, l, D_max), l)


def _vertex_marginal(table, l):
    """`volume_tables` for root-face degree l read off table, an
    `enumerate_dp` pass at any l0 >= l: its layers below l0 + D_max do not
    depend on l0, so the cells with root-face degree l are those of a pass
    at l, the same values in the same order."""
    q, D_max = table.q, table.D_max
    values = {}
    for (ll, D, F), v in table.cells.items():
        if ll != l:
            continue
        V = (l + D) // 2 - F + 1
        values[V] = values.get(V, Fraction(0) if table.exact else 0.0) + v
    m = q.min_support
    messages = []
    if m <= 2:
        messages.append(
            "minimum face degree <= 2: per-vertex completeness cannot be "
            "certified, values are partial sums"
        )
        return VolumeTable(l, D_max, values, 0, False, messages)
    V_star = (D_max * (m - 2) // m + l + 2) // 2
    return VolumeTable(l, D_max, values, V_star, True, messages)


@dataclass
class GSeries:
    """Truncated vertex-fugacity series sum_V W(l, V) g^V."""

    l: int
    D_max: int
    coeffs: dict
    complete_below: int

    def eval(self, g):
        """Lower bound of the g-weighted disk function, monotone in D_max."""
        return float(sum(float(w) * g**V for V, w in self.coeffs.items()))

    def leading_term(self):
        V0 = min(self.coeffs)
        return V0, self.coeffs[V0]


def g_series(q: WeightSequence, l, D_max) -> GSeries:
    vt = volume_tables(q, l, D_max)
    return GSeries(l, D_max, dict(vt.values), vt.V_star if vt.complete else 0)
