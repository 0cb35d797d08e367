import random

import numpy as np
import pytest

from tpoly import dwork, hodge, lattice
from tpoly.dwork import SeriesRing
from tpoly.lattice import isosceles

D2 = isosceles(2)
D3 = isosceles(3)
F3 = {(3, 0): 1, (0, 3): 2, (1, 1): 3}
F2 = {(2, 0): 1, (0, 2): 1, (1, 1): 2}


def _lift(f, p, M):
    return {q: dwork.teichmueller_int(c, p, M) for q, c in f.items()}


def test_e_origin_is_one():
    ring = SeriesRing(7, 2, 12)
    e_map = dwork.expand_Ef(D3, _lift(F3, 7, 2), ring, w_cap=4)
    e0 = e_map[(0, 0)]
    assert e0[0] == 1 and not e0[1:].any()


def test_hull_mismatch_rejected():
    ring = SeriesRing(7, 2, 8)
    with pytest.raises(dwork.HullMismatchError):
        dwork.expand_Ef(D3, {(3, 0): 1, (1, 1): 2}, ring, w_cap=3)
    with pytest.raises(dwork.HullMismatchError):
        dwork.expand_Ef(D3, {(3, 0): 7, (0, 3): 1}, ring, w_cap=3)


def test_single_monomial_ray():
    # one off-vertex generator: coefficients live exactly on its ray
    ring = SeriesRing(7, 2, 10)
    f = {(2, 0): 1, (0, 2): 1}
    e_map = dwork.expand_Ef(isosceles(2), _lift(f, 7, 2), ring, w_cap=4)
    for pt in e_map:
        assert pt[0] % 2 == 0 and pt[1] % 2 == 0


def test_valuation_bounds_random():
    rng = random.Random(0)
    for trial in range(4):
        f = {(3, 0): rng.randrange(1, 7), (0, 3): rng.randrange(1, 7)}
        for q in [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)]:
            c = rng.randrange(7)
            if c:
                f[q] = c
        ring = SeriesRing(7, 2, 16)
        e_map = dwork.expand_Ef(D3, _lift(f, 7, 2), ring, w_cap=8)
        dwork.assert_valuation_bounds(D3, ring, e_map)


def test_char_series_u0_and_bounds():
    cs = dwork.char_series(D3, F3, 7, 2, 20, 8)
    assert cs.valuation(0) == 0 and int(cs.u[0][0]) == 1
    ih = hodge.ihp(D3, 7, 8)
    for ell in range(9):
        val = cs.valuation(ell)
        if val is not None:
            assert val >= ih.h_values[ell]


def test_u1_matches_direct_trace_expansion():
    # v_T(u_1) equals the least valuation among the diagonal coefficients
    p, M, N = 7, 2, 16
    ring = SeriesRing(p, M, N)
    e_map = dwork.expand_Ef(D3, _lift(F3, p, M), ring, w_cap=N)
    window = dwork.window_points(D3, p, N)
    total = ring.zero()
    for q in window:
        r = (p * q[0] - q[0], p * q[1] - q[1])
        if r in e_map:
            total = ring.add(total, e_map[r])
    cs = dwork.char_series(D3, F3, p, M, N, 1)
    assert cs.valuation(1) == ring.valuation(total)


def test_newton_polygon_flags():
    cs = dwork.char_series(D3, F3, 7, 2, 14, 10)
    hull, certified, flagged = dwork.newton_polygon_C(cs)
    assert 0 in certified
    assert all(cs.valuation(ell) is None for ell in flagged)
    slopes = hull.slopes()
    assert all(a <= b for a, b in zip(slopes, slopes[1:]))


def test_truncation_stability():
    assert dwork.truncation_stable(D3, F3, 7, 2, 14, 6)


def test_det_T1_matches_u_x1_leading():
    h1 = hodge.minimal_h(D3, 7, lattice.enumerate_T(D3, 1))
    det = dwork.det_T1(D3, F3, 7, 2, h1 + 2)
    cs = dwork.char_series(D3, F3, 7, 2, h1 + 2, 6)
    assert int(det[h1]) == int(cs.u[6][h1])
    assert dwork.SeriesRing(7, 2, h1 + 2).valuation(det) >= h1


def test_det_T1_precision_guard():
    with pytest.raises(dwork.PrecisionExhausted):
        dwork.det_T1(D3, F3, 7, 2, 5)


def test_det_T1_d2_forced_structure():
    # with only the two vertex monomials the 3x3 block is triangular:
    # e_{pQ-P} vanishes off the forced matching, so the determinant is
    # the product over the diagonal pairs
    p, M, N = 7, 2, 12
    f = {(2, 0): 1, (0, 2): 1}
    ring = SeriesRing(p, M, N)
    e_map = dwork.expand_Ef(D2, _lift(f, p, M), ring, w_cap=N)
    t1 = lattice.enumerate_T(D2, 1)
    det = dwork.det_T1(D2, f, p, M, N)
    prod = ring.one()
    for q in t1:
        r = (p * q[0] - q[0], p * q[1] - q[1])
        prod = ring.mul(prod, e_map.get(r, ring.zero()))
    assert (det == prod).all()


@pytest.mark.parametrize("k", [1, 2])
def test_trace_formula(k):
    s_star, rhs = dwork.exp_sum_oracle(D2, F2, p=7, M=2, N=8, k=k)
    assert (s_star == rhs).all()


def test_trace_formula_degenerate_f():
    # f with a single support pair still matches (hull present)
    f = {(2, 0): 3, (0, 2): 4}
    s_star, rhs = dwork.exp_sum_oracle(D2, f, p=7, M=2, N=6, k=1)
    assert (s_star == rhs).all()
    assert int(s_star[0]) == (7 - 1) ** 2 % 49


def test_torus_limit():
    with pytest.raises(ValueError):
        dwork.exp_sum_oracle(D2, F2, p=7, M=1, N=4, k=6)


TWISTED_F = {2: {(2, 0): (1, 0), (0, 2): (1, 1), (1, 1): (0, 1)},
             3: {(2, 0): (1, 0, 1), (0, 2): (1, 1, 0), (1, 1): (0, 1, 2)}}


@pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (3, 1)])
def test_twisted_trace_formula(n, k):
    s_star, rhs = dwork.exp_sum_oracle(D2, TWISTED_F[n], p=3, M=2, N=6, k=k, n=n)
    assert (s_star == rhs).all()


def test_twisted_n2_char_series():
    # (2, 7) lies inside the improved polygon's hypothesis; F_49
    # coefficients at every point of the closed unit triangle but 0
    f = {(1, 0): (3, 5), (0, 1): (2, 1), (2, 0): (1, 4), (1, 1): (6, 2),
         (0, 2): (5, 3)}
    cs = dwork.char_series(D2, f, p=7, M=2, N=14, L=3, n=2)
    assert int(cs.u[0][0]) == 1
    ih = hodge.ihp(D2, 7, 3)
    assert ih.hypothesis_ok
    for ell in range(4):
        # normalized ordinate v_T/n against the improved polygon
        assert cs.valuation(ell) >= 2 * ih.hull.value_at(ell)


def test_window_stability_of_valuations():
    a = dwork.char_series(D3, F3, 7, 2, 12, 6, slack=2)
    b = dwork.char_series(D3, F3, 7, 2, 12, 6, slack=8)
    assert all((x == y).all() for x, y in zip(a.u, b.u))


def test_binomial_row():
    row = dwork.binomial_row(10, 6, 7, 2)
    import math
    for j in range(6):
        assert row[j] == math.comb(10, j) % 49
