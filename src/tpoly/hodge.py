"""Minimal-permutation scores, the assignment oracle, and the improved polygon.

The central quantity is h(S, tau) = sum of ceil(w(p*tau(P) - P)) over a
bijection tau.  A greedy construction (repeatedly matching the pair
whose fractional part R(w(pQ-P)) is smallest) attains the minimum; an
independent exact min-cost assignment solver on the integer cost matrix
acts as ground truth.  Lower convex hulls of (cardinality, minimal h)
give the improved polygon, whose vertices also have closed forms.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .lattice import Point, TriangleSpec, enumerate_T, x_count


@dataclass(frozen=True)
class Assignment:
    """A bijection between two equal-size point multisets with its scores.

    mapping[i] = j means source[i] -> target[j].  h is an integer,
    h1 and h2 exact rationals with h = h1 + h2; ustar is the sorted
    multiset of fractional gaps R(w(p*tau(P)-P)).
    """

    source: tuple[Point, ...]
    target: tuple[Point, ...]
    mapping: tuple[int, ...]
    h: int
    h1: Fraction
    h2: Fraction
    ustar: tuple[Fraction, ...]


def cost_term(delta: TriangleSpec, p: int, src: Point, dst: Point) -> int:
    """ceil(w(p*dst - src)) as an exact integer."""
    num = p * delta.weight_num(dst) - delta.weight_num(src)
    return -((-num) // delta.det)


def r_num(delta: TriangleSpec, p: int, src: Point, dst: Point) -> int:
    """det-scaled fractional gap: det * R(w(p*dst - src)), in [0, det)."""
    num = p * delta.weight_num(dst) - delta.weight_num(src)
    return (-num) % delta.det


def score_assignment(delta: TriangleSpec, p: int, source, target, mapping) -> Assignment:
    source = tuple(source)
    target = tuple(target)
    mapping = tuple(mapping)
    if len(source) != len(target) or len(mapping) != len(source):
        raise ValueError("assignment size mismatch")
    if sorted(mapping) != list(range(len(source))):
        raise ValueError("mapping is not a bijection")
    det = delta.det
    h = 0
    rnums = []
    for i, j in enumerate(mapping):
        h += cost_term(delta, p, source[i], target[j])
        rnums.append(r_num(delta, p, source[i], target[j]))
    h1 = Fraction(p * sum(delta.weight_num(q) for q in target)
                  - sum(delta.weight_num(q) for q in source), det)
    ustar = tuple(Fraction(r, det) for r in sorted(rnums))
    h2 = Fraction(sum(rnums), det)
    if h != h1 + h2:
        raise AssertionError(f"h = {h} differs from h1 + h2 = {h1 + h2}")
    return Assignment(source, target, mapping, h, h1, h2, ustar)


def greedy_minimal_permutation(delta: TriangleSpec, p: int, points,
                               reverse_ties: bool = False) -> Assignment:
    """Greedy minimal permutation: repeatedly take the pair with least R.

    Ties break by canonical pair order (reverse_ties flips that order;
    the resulting U* multiset must not depend on it).
    """
    pts = delta.sort_points(points)
    n = len(pts)
    if n == 0:
        return score_assignment(delta, p, (), (), ())
    w = np.array([delta.weight_num(q) for q in pts], dtype=np.int64)
    r = (w[:, None] - p * w[None, :]) % delta.det
    idx = np.arange(n * n, dtype=np.int64).reshape(n, n)
    if reverse_ties:
        idx = n * n - 1 - idx
    prio = r * (n * n) + idx
    # priorities are distinct, so taking the least free pair n times is
    # one sweep of the sorted pairs that skips any pair already blocked
    mapping = [-1] * n
    taken = [False] * n
    left = n
    rows, cols = np.divmod(np.argsort(prio, axis=None), n)
    for i, j in zip(rows.tolist(), cols.tolist()):
        if mapping[i] < 0 and not taken[j]:
            mapping[i] = j
            taken[j] = True
            left -= 1
            if not left:
                break
    return score_assignment(delta, p, pts, pts, mapping)


def assignment_oracle(delta: TriangleSpec, p: int, source, target) -> Assignment:
    """Exact global minimum of sum ceil(w(p*tau(P)-P)) over bijections.

    Shortest-augmenting-path assignment on the integer cost matrix;
    all arithmetic stays in int64 (costs are tiny).
    """
    src = delta.sort_points(source)
    dst = delta.sort_points(target)
    if len(src) != len(dst):
        raise ValueError("source and target must have equal cardinality")
    n = len(src)
    if n == 0:
        return score_assignment(delta, p, (), (), ())
    det = delta.det
    src_w = np.array([delta.weight_num(q) for q in src], dtype=np.int64)
    dst_w = np.array([delta.weight_num(q) for q in dst], dtype=np.int64)
    num = p * dst_w[None, :] - src_w[:, None]
    cost = -((-num) // det)
    mapping = _solve_assignment(cost)
    return score_assignment(delta, p, src, dst, mapping)


def _solve_assignment(cost: np.ndarray) -> list[int]:
    """Successive shortest augmenting paths with potentials, integer-exact.

    A column-reduction start (Jonker and Volgenant, 1987) builds a
    feasible dual u + v <= cost and matches rows along tight edges
    u + v == cost; that partial matching is optimal for its rows by LP
    duality, and the augmenting loop finishes any row it leaves free.
    Column n is the virtual start column holding the currently free row.
    """
    n = cost.shape[0]
    INF = np.int64(2 ** 62)
    v = cost.min(axis=0)
    u = (cost - v).min(axis=1)
    tight = u[:, None] + v[None, :] == cost
    v = np.append(v, 0)
    match = np.full(n + 1, -1, dtype=np.int64)
    free_rows = []
    for i in range(n):
        cols = np.flatnonzero(tight[i] & (match[:n] < 0))
        if len(cols):
            match[cols[0]] = i
        else:
            free_rows.append(i)
    way = np.zeros(n, dtype=np.int64)
    for i in free_rows:
        match[n] = i
        j0 = n
        minv = np.full(n, INF, dtype=np.int64)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = int(match[j0])
            notused = ~used[:n]
            cur = cost[i0, :] - u[i0] - v[:n]
            upd = notused & (cur < minv)
            minv[upd] = cur[upd]
            way[upd] = j0
            cand = np.where(notused, minv, INF)
            j1 = int(np.argmin(cand))
            step = cand[j1]
            used_real = used[:n]
            u[match[:n][used_real].astype(np.int64)] += step
            v[:n][used_real] -= step
            u[int(match[n])] += step
            v[n] -= step
            minv[notused] -= step
            j0 = j1
            if match[j0] == -1:
                break
        while j0 != n:
            j1 = int(way[j0])
            match[j0] = match[j1]
            j0 = j1
    mapping = [0] * n
    for j in range(n):
        mapping[int(match[j])] = j
    return mapping


def minimal_h(delta: TriangleSpec, p: int, points) -> int:
    return greedy_minimal_permutation(delta, p, points).h


def _prefix_minimal_h(delta: TriangleSpec, p: int, points) -> list[int]:
    """minimal_h(points[:ell]) for ell = 0..len(points), from class counts.

    The greedy takes pairs by their gap g = (w(P) - p*w(Q)) mod det, and
    h = ((p-1)*sum(w) + sum of matched g)/det.  With p prime to det, a
    gap and the source class a = w(P) mod det fix the target class b, so
    pairs of one gap never share a source class or a target class.  Each
    class pair (a, b) in gap order therefore matches min(free sources in
    a, free targets in b), whatever the tie order within a gap.
    """
    det = delta.det
    if det % p == 0:
        raise ValueError("p divides det: a gap no longer fixes the target class")
    pairs: list[tuple[int, int, int]] = []     # (g, a, b) over seen classes
    count: dict[int, int] = {}
    total = 0
    out = [0]
    for ell, q in enumerate(points, 1):
        w = delta.weight_num(q)
        c = w % det
        if c not in count:
            count[c] = 0
            for b in count:
                insort(pairs, ((c - p * b) % det, c, b))
                if b != c:
                    insort(pairs, ((b - p * c) % det, b, c))
        count[c] += 1
        total += w
        src, dst = count.copy(), count.copy()
        gaps, left = 0, ell
        for g, a, b in pairs:
            m = min(src[a], dst[b])
            if m:
                src[a] -= m
                dst[b] -= m
                gaps += g * m
                left -= m
                if not left:
                    break
        out.append(((p - 1) * total + gaps) // det)
    return out


@dataclass(frozen=True)
class PolygonHull:
    """Lower convex hull: vertices with integer x and exact rational y."""

    vertices: tuple[tuple[int, Fraction], ...]

    def value_at(self, x: int) -> Fraction:
        vs = self.vertices
        if not vs or x < vs[0][0] or x > vs[-1][0]:
            raise ValueError(f"x={x} outside hull range")
        for (x0, y0), (x1, y1) in zip(vs, vs[1:]):
            if x0 <= x <= x1:
                return y0 + Fraction(y1 - y0, x1 - x0) * (x - x0)
        return vs[-1][1]

    def slopes(self) -> list[Fraction]:
        return [Fraction(y1 - y0, x1 - x0)
                for (x0, y0), (x1, y1) in zip(self.vertices, self.vertices[1:])]


def lower_convex_hull(points) -> PolygonHull:
    """Monotone-chain lower hull over exact rational points."""
    pts = sorted((int(x), Fraction(y)) for x, y in points)
    dedup: dict[int, Fraction] = {}
    for x, y in pts:
        if x not in dedup or y < dedup[x]:
            dedup[x] = y
    pts = sorted(dedup.items())
    hull: list[tuple[int, Fraction]] = []
    for pt in pts:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            # keep only strict right turns so hull vertices are minimal
            if (y1 - y0) * (pt[0] - x0) >= (pt[1] - y0) * (x1 - x0):
                hull.pop()
            else:
                break
        hull.append(pt)
    return PolygonHull(tuple(hull))


@dataclass(frozen=True)
class IhpResult:
    hull: PolygonHull
    ell_values: tuple[int, ...]
    h_values: tuple[int, ...]
    certified: tuple[bool, ...]
    hypothesis_ok: bool


def hypothesis_holds(delta: TriangleSpec, p: int) -> bool:
    import math as _m
    g = _m.gcd(delta.a1 - delta.a2, delta.b1 - delta.b2)
    return delta.det % p != 0 and p > 2 * delta.det // g + 1


def ihp(delta: TriangleSpec, p: int, l_max: int) -> IhpResult:
    """Lower hull of (ell, minimal h over weight-minimal ell-subsets).

    Points between the certified vertices use the weight-minimal-prefix
    rule; taking the hull afterwards keeps the certified vertices on or
    below every computed point.  Raises ValueError when p divides det.
    """
    ok = hypothesis_holds(delta, p)
    k = 1
    while x_count(delta, k, closed=True) < l_max:
        k += 1
    pool = enumerate_T(delta, k, closed=True)
    vertex_ells = set()
    kk = 1
    while True:
        xk = x_count(delta, kk)
        if xk > l_max:
            break
        vertex_ells.add(xk)
        xpk = x_count(delta, kk, closed=True)
        if xpk <= l_max:
            vertex_ells.add(xpk)
        kk += 1
    ells = tuple(range(l_max + 1))
    hs = tuple(_prefix_minimal_h(delta, p, pool[:l_max]))
    certs = tuple(ok and (ell in vertex_ells or ell <= 1) for ell in ells)
    hull = lower_convex_hull(zip(ells, hs))
    return IhpResult(hull, ells, hs, certs, ok)


def closed_form_vertices(delta: TriangleSpec, p: int, k: int,
                         h_t1: int | None = None):
    """(x_k, x'_k, h(T_k), h(T'_k)) from the closed forms.

    The general h(T_k) expression carries the bracket term
    det*(i+1) - (l1+l2)/2 - 1; the trailing -1 is the variant that the
    assignment oracle confirms (and the only one consistent with the
    isosceles specialization).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    x1 = x_count(delta, 1)
    xk = k * x1 + k * (k - 1) // 2 * delta.det
    xpk = x_count(delta, k, closed=True)
    if h_t1 is None:
        h_t1 = minimal_h(delta, p, enumerate_T(delta, 1))
    half_l = Fraction(delta.l1 + delta.l2, 2)
    s = sum((Fraction(delta.det * (i + 1)) - half_l - 1) * (i + 1)
            for i in range(k - 1))
    h_tk = (p - 1) * s + k * (h_t1 + (p - 1) * (k - 1) * x1)
    assert h_tk.denominator == 1
    h_tk = int(h_tk)
    h_tpk = h_tk + (xpk - xk) * k * (p - 1)
    return xk, xpk, h_tk, h_tpk


def isosceles_vertex_formulas(delta: TriangleSpec, p: int, k: int):
    """x_k = (kd+1)kd/2 and h_k via floor(p*w) sums, isosceles case."""
    d = delta.d
    xk = (k * d + 1) * k * d // 2
    xpk = (k * d + 1) * (k * d + 2) // 2
    t1_floor_sum = sum((p * s) // d * (s + 1) for s in range(d))
    hk = (p - 1) * (k - 1) * k * (k + 1) * d * d // 3 + k * t1_floor_sum
    return xk, xpk, hk, hk + (xpk - xk) * k * (p - 1)


def h2_linearity_check(delta: TriangleSpec, p: int, k: int) -> bool:
    """h2(T_k) == k * h2(T_1), both sides through the assignment oracle."""
    t1 = enumerate_T(delta, 1)
    tk = enumerate_T(delta, k)
    a1 = assignment_oracle(delta, p, t1, t1)
    ak = assignment_oracle(delta, p, tk, tk)
    return ak.h2 == k * a1.h2


def gnp_slope_bands(delta: TriangleSpec, p: int, m: int) -> dict:
    """Slope-band report for conductor exponent m, from vertex arithmetic.

    Bands follow the three displayed cases: slopes exactly i/p^(m-1) on
    (x_i, x'_i], inside (i/p^(m-1), (i+1)/p^(m-1)) on (x'_i, x_{i+1}],
    and exactly 1 on (x_{p^(m-1)}, x'_{p^(m-1)} - 2].
    """
    d = delta.d
    pm = p ** (m - 1)
    hyp_ok = d >= 24 * (2 * (p % d) ** 2 + (p % d))

    def xv(i):
        return (i * d + 1) * i * d // 2

    def xpv(i):
        return (i * d + 1) * (i * d + 2) // 2

    bands = []
    total = 0
    for i in range(pm):
        lo, hi = xv(i), xpv(i)
        if hi > lo:
            bands.append({"kind": "exact", "first": lo + 1, "last": hi,
                          "slope": Fraction(i, pm)})
            total += hi - lo
        lo2, hi2 = xpv(i), xv(i + 1)
        if hi2 > lo2:
            bands.append({"kind": "open", "first": lo2 + 1, "last": hi2,
                          "low": Fraction(i, pm), "high": Fraction(i + 1, pm)})
            total += hi2 - lo2
    bands.append({"kind": "exact", "first": xv(pm) + 1, "last": xpv(pm) - 2,
                  "slope": Fraction(1)})
    expected_prefix = (pm * pm * d * d + pm * d) // 2
    return {"bands": bands, "prefix_multiplicity": total,
            "expected_prefix": expected_prefix,
            "hypothesis_d_large_enough": hyp_ok}
