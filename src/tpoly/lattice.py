"""Exact geometry of a lattice triangle with one vertex at the origin.

Everything here is integer arithmetic: weights are stored as scaled
numerators over the fixed denominator det = a2*b1 - a1*b2, and all
floor/ceil operations act on those scaled integers.  Points are plain
``(x, y)`` tuples; point sets are emitted in the canonical order
(weight ascending, then x, then y) so that downstream matrix indexing
is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

Point = tuple[int, int]


class DegenerateTriangleError(ValueError):
    pass


class NotIsoscelesError(ValueError):
    pass


@dataclass(frozen=True)
class TriangleSpec:
    """Triangle with vertices O=(0,0), P1=(a1,b1), P2=(a2,b2), det > 0.

    The weight functional is the unique linear map with w(P1)=w(P2)=1;
    its coefficients are derived from that 2x2 system (w(x,y) =
    (wx*x + wy*y)/det with wx = b1-b2, wy = a2-a1).
    """

    a1: int
    b1: int
    a2: int
    b2: int

    def __post_init__(self):
        if self.det == 0:
            raise DegenerateTriangleError("triangle has zero determinant")
        if self.det < 0:
            raise DegenerateTriangleError(
                "orientation must satisfy a2*b1 - a1*b2 > 0; swap P1 and P2"
            )

    @property
    def det(self) -> int:
        return self.a2 * self.b1 - self.a1 * self.b2

    @property
    def wx(self) -> int:
        return self.b1 - self.b2

    @property
    def wy(self) -> int:
        return self.a2 - self.a1

    @property
    def is_isosceles(self) -> bool:
        return self.a1 == 0 and self.b2 == 0 and self.b1 > 0 and self.a2 == self.b1

    @property
    def d(self) -> int:
        if not self.is_isosceles:
            raise NotIsoscelesError("d is only defined for the isosceles triangle")
        return self.b1

    @property
    def l1(self) -> int:
        return math.gcd(self.a1, self.b1) - 1

    @property
    def l2(self) -> int:
        return math.gcd(self.a2, self.b2) - 1

    # -- weights ------------------------------------------------------

    def weight_num(self, p: Point) -> int:
        """Scaled weight: det * w(p), an integer of either sign."""
        return self.wx * p[0] + self.wy * p[1]

    def ceil_weight(self, p: Point) -> int:
        return -((-self.weight_num(p)) // self.det)

    # -- cone and parallelogram ---------------------------------------

    def cone_coords_num(self, p: Point) -> tuple[int, int]:
        """det-scaled coordinates (alpha, beta) of p in the P1,P2 basis."""
        alpha = self.a2 * p[1] - self.b2 * p[0]
        beta = self.b1 * p[0] - self.a1 * p[1]
        return alpha, beta

    def in_cone(self, p: Point) -> bool:
        alpha, beta = self.cone_coords_num(p)
        return alpha >= 0 and beta >= 0

    def canonical_key(self, p: Point):
        return (self.weight_num(p), p[0], p[1])

    def sort_points(self, pts: Iterable[Point]) -> list[Point]:
        return sorted(pts, key=self.canonical_key)


def make_triangle(a1: int, b1: int, a2: int, b2: int) -> TriangleSpec:
    return TriangleSpec(a1, b1, a2, b2)


def isosceles(d: int) -> TriangleSpec:
    if d <= 0:
        raise DegenerateTriangleError("d must be positive")
    return TriangleSpec(0, d, d, 0)


@lru_cache(maxsize=4096)
def enumerate_T(delta: TriangleSpec, k: int,
                closed: bool = False) -> tuple[Point, ...]:
    """Cone lattice points with weight < k (or <= k when closed), canonical order.

    A tuple, since every caller shares the cached result.

    Bounding box comes from |coordinates of alpha*P1 + beta*P2| with
    alpha + beta = weight <= k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    amax = max(abs(delta.a1), abs(delta.a2))
    bmax = max(abs(delta.b1), abs(delta.b2))
    bound_num = k * delta.det
    out = []
    for x in range(-k * amax, k * amax + 1):
        for y in range(-k * bmax, k * bmax + 1):
            if not delta.in_cone((x, y)):
                continue
            wn = delta.weight_num((x, y))
            if wn < bound_num or (closed and wn == bound_num):
                out.append((x, y))
    return tuple(delta.sort_points(out))


def x_count(delta: TriangleSpec, k: int, closed: bool = False) -> int:
    return len(enumerate_T(delta, k, closed))


def parallelogram_residue(delta: TriangleSpec, p: Point) -> Point:
    """Residue of p in the half-open fundamental parallelogram.

    The parallelogram keeps the two edges through the origin and drops
    the opposite ones: coefficients satisfy 0 <= alpha, beta < 1.
    """
    alpha, beta = delta.cone_coords_num(p)
    i = alpha // delta.det
    j = beta // delta.det
    return (p[0] - i * delta.a1 - j * delta.a2, p[1] - i * delta.b1 - j * delta.b2)


def parallelogram_points(delta: TriangleSpec) -> list[Point]:
    """All det lattice points of the fundamental parallelogram, canonical order."""
    corners_x = [0, delta.a1, delta.a2, delta.a1 + delta.a2]
    corners_y = [0, delta.b1, delta.b2, delta.b1 + delta.b2]
    out = []
    for x in range(min(corners_x), max(corners_x) + 1):
        for y in range(min(corners_y), max(corners_y) + 1):
            alpha, beta = delta.cone_coords_num((x, y))
            if 0 <= alpha < delta.det and 0 <= beta < delta.det:
                out.append((x, y))
    assert len(out) == delta.det
    return delta.sort_points(out)


def eta_permutation(delta: TriangleSpec, p: int) -> dict[Point, Point]:
    """The map P -> (pP)% on the parallelogram points; a bijection when p∤det."""
    if delta.det % p == 0:
        raise ValueError("p must not divide det")
    pts = parallelogram_points(delta)
    eta = {q: parallelogram_residue(delta, (p * q[0], p * q[1])) for q in pts}
    if len(set(eta.values())) != delta.det:
        raise AssertionError("eta failed to be a bijection")
    return eta


# -- isosceles-specific machinery ------------------------------------


def mirror(delta: TriangleSpec, p: Point) -> Point:
    d = delta.d
    return (d - p[0], d - p[1])


@lru_cache(maxsize=1024)
def split_T1(delta: TriangleSpec, p: int):
    """Partition T1 by whether (pP)% stays in T1; also return Y0 and m(Y0).

    Only meaningful for the isosceles triangle.  Asserts that Y0 and its
    mirror are disjoint inside the image of T1 under P -> (pP)%.
    """
    d = delta.d
    if math.gcd(p, d) != 1:
        raise ValueError("p and d must be coprime")
    t1 = enumerate_T(delta, 1)
    t11, t12, y0 = [], [], []
    for q in t1:
        img = ((p * q[0]) % d, (p * q[1]) % d)
        if delta.weight_num(img) < delta.det:
            t11.append(q)
        else:
            t12.append(q)
            y0.append(img)
    y0 = delta.sort_points(y0)
    my0 = delta.sort_points(mirror(delta, q) for q in y0)
    image = {((p * q[0]) % d, (p * q[1]) % d) for q in t1}
    if image & set(my0):
        raise AssertionError("Y0 and m(Y0) are not disjoint in the T1 image")
    return tuple(t11), tuple(t12), tuple(y0), tuple(my0)


def fundamental_cell(delta: TriangleSpec, p: int):
    """The p0 x p0 cell at the top corner and its Y0 trace.

    Returns (cell points, C0).  Asserts |C0| = p0(p0-1)/2 and that every
    Y0 point is a p0-shift of a C0 point within the upper triangle.
    """
    d = delta.d
    p0 = p % d
    cell = [(x, y) for x in range(d - p0, d) for y in range(d - p0, d)]
    _, _, y0, _ = split_T1(delta, p)
    y0set = set(y0)
    c0 = delta.sort_points(q for q in cell if q in y0set)
    # the point count holds when the cell sits inside the open triangle
    if d > 2 * p0 and len(c0) != p0 * (p0 - 1) // 2:
        raise AssertionError(
            f"|C0| = {len(c0)} differs from p0(p0-1)/2 = {p0 * (p0 - 1) // 2}"
        )
    for q in y0:
        if not any((q[0] - c[0]) % p0 == 0 and (q[1] - c[1]) % p0 == 0 for c in c0):
            raise AssertionError(f"Y0 point {q} is not a p0-shift of any C0 point")
    return delta.sort_points(cell), c0


def fundamental_cell_properties(delta: TriangleSpec, p: int) -> dict[str, bool]:
    """The three distribution facts about C0, resolved by enumeration.

    (1) reads as: no C0 point on the cell row/column nearest the cone
    (coordinate d-p0); the prose "top row" contradicts (2) at p0=2, so
    membership is decided by the enumerated sets.
    """
    d = delta.d
    p0 = p % d
    cell, c0 = fundamental_cell(delta, p)
    c0set = set(c0)
    prop1 = all(q[0] != d - p0 and q[1] != d - p0 for q in c0)
    prop2 = all(
        q in c0set for q in cell if q[0] + q[1] == 2 * d - p0
    )
    inner = [q for q in cell if q[0] != d - p0 and q[1] != d - p0]
    s = 2 * d - p0
    prop3 = all(q in c0set or (s - q[0], s - q[1]) in c0set for q in inner)
    return {"no_point_on_first_row_or_column": prop1,
            "antidiagonal_in_C0": prop2,
            "point_or_reflection_in_C0": prop3}


def diag_index(p: Point) -> int:
    return p[1] - p[0]


def antidiag_index(p: Point) -> int:
    return p[0] + p[1]
