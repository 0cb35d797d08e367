import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tpoly import lattice
from tpoly.lattice import isosceles, make_triangle


D7 = isosceles(7)
TRI = make_triangle(1, 3, 2, 1)


def test_weight_examples():
    assert Fraction(D7.weight_num((3, 4)), D7.det) == 1
    assert D7.weight_num((0, 0)) == 0
    assert TRI.det == 5
    assert Fraction(TRI.weight_num((1, 1)), TRI.det) == Fraction(3, 5)


def test_weight_normalized_on_vertices():
    for tri in (D7, TRI, make_triangle(2, 5, 3, 1)):
        assert tri.weight_num((tri.a1, tri.b1)) == tri.det
        assert tri.weight_num((tri.a2, tri.b2)) == tri.det


def test_degenerate_triangle_rejected():
    with pytest.raises(lattice.DegenerateTriangleError):
        make_triangle(1, 1, 2, 2)
    with pytest.raises(lattice.DegenerateTriangleError):
        make_triangle(2, 1, 1, 3)  # negative orientation


def test_enumerate_T_counts():
    assert len(lattice.enumerate_T(D7, 1)) == 28
    assert len(lattice.enumerate_T(D7, 1, closed=True)) == 36
    assert len(lattice.enumerate_T(D7, 2)) == 105


def test_enumerate_order_is_canonical():
    pts = lattice.enumerate_T(D7, 1)
    keys = [D7.canonical_key(q) for q in pts]
    assert keys == sorted(keys)


def test_parallelogram_residue():
    assert lattice.parallelogram_residue(D7, (17, 17)) == (3, 3)
    p1p2 = (TRI.a1 + TRI.a2, TRI.b1 + TRI.b2)
    assert lattice.parallelogram_residue(TRI, p1p2) == (0, 0)


def test_parallelogram_residue_brute_force():
    # against exhaustive search over lattice translates
    box = set(lattice.parallelogram_points(TRI))
    for pt in [(3, 3), (5, 2), (4, 7), (6, 1)]:
        res = lattice.parallelogram_residue(TRI, pt)
        found = [
            (pt[0] - i * TRI.a1 - j * TRI.a2, pt[1] - i * TRI.b1 - j * TRI.b2)
            for i in range(-8, 9) for j in range(-8, 9)
            if (pt[0] - i * TRI.a1 - j * TRI.a2,
                pt[1] - i * TRI.b1 - j * TRI.b2) in box
        ]
        assert found == [res]


def test_parallelogram_point_count():
    for tri in (D7, TRI, make_triangle(2, 5, 3, 1)):
        assert len(lattice.parallelogram_points(tri)) == tri.det


def test_eta_permutation():
    eta = lattice.eta_permutation(D7, 17)
    assert eta[(1, 1)] == (3, 3)
    assert eta[(0, 0)] == (0, 0)
    pprime = pow(17, -1, D7.det)
    for src, img in eta.items():
        back = lattice.parallelogram_residue(
            D7, (pprime * img[0], pprime * img[1]))
        assert back == src


def test_eta_rejects_bad_prime():
    with pytest.raises(ValueError):
        lattice.eta_permutation(D7, 7)


def test_split_T1_paper_sets():
    t11, t12, y0, my0 = lattice.split_T1(D7, 17)
    assert set(t12) == {(1, 2), (1, 4), (2, 1), (2, 2), (2, 3), (2, 4),
                        (3, 2), (4, 1), (4, 2)}
    assert set(y0) == {(2, 6), (3, 5), (3, 6), (5, 3), (5, 6), (6, 2),
                       (6, 3), (6, 5), (6, 6)}
    assert set(my0) == {(1, 1), (1, 2), (1, 4), (1, 5), (2, 1), (2, 4),
                        (4, 1), (4, 2), (5, 1)}
    assert len(t11) + len(t12) == 28


def test_split_T1_ordinary_case():
    t11, t12, y0, _ = lattice.split_T1(isosceles(5), 11)
    assert t12 == () and y0 == ()


def test_fundamental_cell():
    cell, c0 = lattice.fundamental_cell(D7, 17)
    assert set(c0) == {(5, 6), (6, 5), (6, 6)}
    assert len(cell) == 9

    _, c0_ord = lattice.fundamental_cell(isosceles(5), 11)
    assert c0_ord == []

    _, c0_13 = lattice.fundamental_cell(isosceles(13), 41)
    assert len(c0_13) == 1 and c0_13 == [(12, 12)]


@pytest.mark.parametrize("d,p", [(7, 17), (13, 41), (11, 13), (19, 23)])
def test_fundamental_cell_properties(d, p):
    # enumeration-resolved facts, checked where the residue is >= 3
    delta = isosceles(d)
    if p % d < 3:
        pytest.skip("facts only asserted for p0 >= 3")
    props = lattice.fundamental_cell_properties(delta, p)
    assert all(props.values()), props


def test_y0_periodicity():
    for d, p in ((7, 17), (13, 41)):
        delta = isosceles(d)
        p0 = p % d
        _, _, y0, _ = lattice.split_T1(delta, p)
        y0set = set(y0)
        for q in y0:
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    shifted = (q[0] + p0 * di, q[1] + p0 * dj)
                    if max(shifted) <= d - 1 and sum(shifted) > d:
                        assert shifted in y0set


triangles = st.sampled_from([
    (0, 3, 3, 0), (0, 5, 5, 0), (1, 3, 2, 1), (2, 5, 3, 1), (1, 4, 3, 2),
])


@settings(max_examples=60, deadline=None)
@given(triangles, st.integers(-6, 9), st.integers(-6, 9),
       st.integers(-6, 9), st.integers(-6, 9))
def test_weight_linearity_property(tri, x1, y1, x2, y2):
    delta = make_triangle(*tri)
    a, b = (x1, y1), (x2, y2)
    s = (x1 + x2, y1 + y2)
    assert delta.weight_num(s) == delta.weight_num(a) + delta.weight_num(b)


@settings(max_examples=40, deadline=None)
@given(triangles, st.integers(0, 8), st.integers(0, 8),
       st.integers(0, 8), st.integers(0, 8))
def test_weight_gap_property(tri, x1, y1, x2, y2):
    delta = make_triangle(*tri)
    a, b = (x1, y1), (x2, y2)
    if delta.weight_num(a) == delta.weight_num(b):
        return
    gap = abs(delta.weight_num(a) - delta.weight_num(b))
    g = math.gcd(delta.a1 - delta.a2, delta.b1 - delta.b2)
    assert Fraction(gap, delta.det) >= Fraction(g, delta.det)


@settings(max_examples=20, deadline=None)
@given(triangles, st.integers(1, 4))
def test_x_count_identity(tri, k):
    delta = make_triangle(*tri)
    xk = lattice.x_count(delta, k)
    x1 = lattice.x_count(delta, 1)
    assert xk == k * x1 + k * (k - 1) // 2 * delta.det
