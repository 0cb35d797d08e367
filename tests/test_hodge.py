import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tpoly import hodge, lattice
from tpoly.lattice import isosceles, make_triangle

D5 = isosceles(5)
D7 = isosceles(7)
D13 = isosceles(13)
TRI = make_triangle(1, 3, 2, 1)


def _ref_solve_assignment(cost):
    """The solver before the tight-dual start: zero potentials, every row
    augmented.  Needs cost >= 0."""
    n = cost.shape[0]
    INF = np.int64(2 ** 62)
    u = np.zeros(n, dtype=np.int64)
    v = np.zeros(n + 1, dtype=np.int64)
    match = np.full(n + 1, -1, dtype=np.int64)
    way = np.zeros(n, dtype=np.int64)
    for i in range(n):
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


def _ref_greedy_mapping(delta, p, points, reverse_ties=False):
    """The greedy before the sort-once sweep: n masked argmins."""
    pts = delta.sort_points(points)
    n = len(pts)
    w = np.array([delta.weight_num(q) for q in pts], dtype=np.int64)
    r = (w[:, None] - p * w[None, :]) % delta.det
    idx = np.arange(n * n, dtype=np.int64).reshape(n, n)
    if reverse_ties:
        idx = n * n - 1 - idx
    prio = r * (n * n) + idx
    mapping = [-1] * n
    free_src = np.ones(n, dtype=bool)
    free_dst = np.ones(n, dtype=bool)
    big = np.int64(2 ** 62)
    for _ in range(n):
        masked = np.where(free_src[:, None] & free_dst[None, :], prio, big)
        flat = int(np.argmin(masked))
        i, j = divmod(flat, n)
        mapping[i] = j
        free_src[i] = False
        free_dst[j] = False
    return tuple(mapping)


def _cost_matrix(delta, p, source, target):
    """The oracle's cost matrix, entry by entry through cost_term."""
    src, dst = delta.sort_points(source), delta.sort_points(target)
    return np.array([[hodge.cost_term(delta, p, a, b) for b in dst]
                     for a in src], dtype=np.int64)


def _total(cost, mapping):
    assert sorted(mapping) == list(range(cost.shape[0]))
    return int(cost[np.arange(cost.shape[0]), mapping].sum())


def _rows_left_free_by_start(cost):
    """Rows the column-reduction start cannot match along tight edges."""
    v = cost.min(axis=0)
    u = (cost - v).min(axis=1)
    taken, free = set(), 0
    for i in range(cost.shape[0]):
        cols = [j for j in range(cost.shape[1])
                if u[i] + v[j] == cost[i, j] and j not in taken]
        if cols:
            taken.add(cols[0])
        else:
            free += 1
    return free


def test_score_single_origin():
    a = hodge.score_assignment(D7, 17, [(0, 0)], [(0, 0)], [0])
    assert a.h == 0 and a.h1 == 0 and a.h2 == 0


def test_identity_score_d5():
    t1 = lattice.enumerate_T(D5, 1)
    a = hodge.score_assignment(D5, 11, t1, t1, range(len(t1)))
    assert a.h == 80
    assert hodge.assignment_oracle(D5, 11, t1, t1).h == 80


def test_h_decomposition_invariant():
    t1 = lattice.enumerate_T(D7, 1)
    g = hodge.greedy_minimal_permutation(D7, 17, t1)
    assert g.h == g.h1 + g.h2
    assert g.h2 == sum(g.ustar, Fraction(0))


def test_greedy_matches_oracle_T1_T2():
    t1 = lattice.enumerate_T(D7, 1)
    assert hodge.greedy_minimal_permutation(D7, 17, t1).h == 259
    assert hodge.assignment_oracle(D7, 17, t1, t1).h == 259
    t2 = lattice.enumerate_T(D7, 2)
    g2 = hodge.greedy_minimal_permutation(D7, 17, t2)
    assert g2.h == hodge.closed_form_vertices(D7, 17, 2)[2]


def test_ustar_independent_of_tie_breaking():
    t1 = lattice.enumerate_T(D7, 1)
    a = hodge.greedy_minimal_permutation(D7, 17, t1)
    b = hodge.greedy_minimal_permutation(D7, 17, t1, reverse_ties=True)
    assert a.ustar == b.ustar and a.h == b.h
    t2 = lattice.enumerate_T(TRI, 2)
    a2 = hodge.greedy_minimal_permutation(TRI, 11, t2)
    b2 = hodge.greedy_minimal_permutation(TRI, 11, t2, reverse_ties=True)
    assert a2.ustar == b2.ustar


def test_single_forced_pair():
    pt = (1, 2)  # weight 3/5 on TRI
    a = hodge.assignment_oracle(TRI, 11, [pt], [pt])
    assert a.h == hodge.cost_term(TRI, 11, pt, pt)


@pytest.mark.parametrize("seed", range(4))
def test_brute_force_small_oracle(seed):
    rng = random.Random(seed)
    pool = lattice.enumerate_T(TRI, 3, closed=True)
    pts = [pool[rng.randrange(len(pool))] for _ in range(3)]
    import itertools
    best = min(
        sum(hodge.cost_term(TRI, 11, pts[i], pts[perm[i]]) for i in range(3))
        for perm in itertools.permutations(range(3)))
    assert hodge.assignment_oracle(TRI, 11, pts, pts).h == best


@pytest.mark.parametrize("span", [1, 2, 3, 10, 1000])
def test_solver_matches_brute_force(span):
    # 600 random matrices per cost range, n <= 7; half carry negative
    # entries, which the oracle's unshifted costs also do
    rng = np.random.default_rng(span)
    perms = {n: np.array(list(itertools.permutations(range(n))))
             for n in range(1, 8)}
    left_free = 0
    for trial in range(600):
        n = int(rng.integers(1, 8))
        lo = -span if trial % 2 else 0
        cost = rng.integers(lo, span + 1, size=(n, n), dtype=np.int64)
        best = int(cost[np.arange(n), perms[n]].sum(axis=1).min())
        assert _total(cost, hodge._solve_assignment(cost)) == best
        left_free += _rows_left_free_by_start(cost) > 0
    # the augmenting loop runs on a good share of the inputs
    assert left_free >= 100


@pytest.mark.parametrize("delta,p,k", [(TRI, 11, 3), (D7, 17, 2),
                                       (D13, 41, 2)])
def test_solver_matches_reference_on_subsets(delta, p, k):
    rng = random.Random(p)
    pool = lattice.enumerate_T(delta, k, closed=True)
    for size in (1, 2, 5, 9, 17, 30, 60):
        src = rng.sample(pool, min(size, len(pool)))
        dst = rng.sample(pool, len(src))
        for target in (dst, src):
            cost = _cost_matrix(delta, p, src, target)
            ref = _total(cost, _ref_solve_assignment(cost - cost.min()))
            assert _total(cost, hodge._solve_assignment(cost)) == ref
        # score_assignment's h = h1 + h2 needs equal multisets
        assert hodge.assignment_oracle(delta, p, src, src).h == ref


def test_solver_matches_reference_T2_13_41():
    t2 = lattice.enumerate_T(D13, 2)
    cost = _cost_matrix(D13, 41, t2, t2)
    ref = _total(cost, _ref_solve_assignment(cost - cost.min()))
    assert _total(cost, hodge._solve_assignment(cost)) == ref == 18014
    assert hodge.assignment_oracle(D13, 41, t2, t2).h == ref


@pytest.mark.parametrize("delta,p,k", [(TRI, 11, 3), (D7, 17, 2),
                                       (D13, 41, 2)])
def test_greedy_matches_masked_argmin_reference(delta, p, k):
    rng = random.Random(k * p)
    pool = lattice.enumerate_T(delta, k, closed=True)
    for size in (1, 2, 3, 8, 20, 45, 90):
        pts = rng.sample(pool, min(size, len(pool)))
        for rev in (False, True):
            g = hodge.greedy_minimal_permutation(delta, p, pts,
                                                 reverse_ties=rev)
            assert g.mapping == _ref_greedy_mapping(delta, p, pts, rev)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 12))
def test_greedy_is_minimal_property(seed, size):
    rng = random.Random(seed)
    pool = lattice.enumerate_T(TRI, 3, closed=True)
    pts = [pool[rng.randrange(len(pool))] for _ in range(size)]
    g = hodge.greedy_minimal_permutation(TRI, 11, pts)
    o = hodge.assignment_oracle(TRI, 11, pts, pts)
    assert g.h == o.h


def test_weight_multiset_determines_h():
    # multisets with equal weight multisets score equal h
    rng = random.Random(7)
    pool = lattice.enumerate_T(D7, 2, closed=True)
    by_weight = {}
    for q in pool:
        by_weight.setdefault(D7.weight_num(q), []).append(q)
    for _ in range(20):
        pts1 = [pool[rng.randrange(len(pool))] for _ in range(8)]
        pts2 = [rng.choice(by_weight[D7.weight_num(q)]) for q in pts1]
        h1 = hodge.assignment_oracle(D7, 17, pts1, pts1).h
        h2 = hodge.assignment_oracle(D7, 17, pts2, pts2).h
        assert h1 == h2


def test_weight_minimal_prefix_attains_least_h():
    # random ell-subsets never score below the weight-minimal prefix
    rng = random.Random(3)
    pool = lattice.enumerate_T(D5, 2, closed=True)
    for ell in (4, 7, 11):
        prefix = pool[:ell]
        h_min = hodge.assignment_oracle(D5, 11, prefix, prefix).h
        for _ in range(15):
            subset = rng.sample(pool, ell)
            h_sub = hodge.assignment_oracle(D5, 11, subset, subset).h
            assert h_sub >= h_min
            if sorted(D5.weight_num(q) for q in subset) == \
                    sorted(D5.weight_num(q) for q in prefix):
                assert h_sub == h_min
            else:
                assert h_sub > h_min


@pytest.mark.parametrize("d,p,k", [(3, 7, 1), (3, 7, 2), (3, 7, 3),
                                   (5, 11, 2), (7, 17, 2)])
def test_closed_form_matches_oracle(d, p, k):
    delta = isosceles(d)
    tk = lattice.enumerate_T(delta, k)
    xk, xpk, h_tk, h_tpk = hodge.closed_form_vertices(delta, p, k)
    iso = hodge.isosceles_vertex_formulas(delta, p, k)
    assert (xk, xpk, h_tk, h_tpk) == iso
    assert xk == len(tk)
    assert h_tk == hodge.assignment_oracle(delta, p, tk, tk).h
    tpk = lattice.enumerate_T(delta, k, closed=True)
    assert xpk == len(tpk)
    assert h_tpk == hodge.greedy_minimal_permutation(delta, p, tpk).h


def test_closed_form_general_triangle():
    # the closed form (with its trailing -1) against the oracle off the
    # isosceles family
    for k in (1, 2):
        tk = lattice.enumerate_T(TRI, k)
        xk, _, h_tk, _ = hodge.closed_form_vertices(TRI, 11, k)
        assert xk == len(tk)
        assert h_tk == hodge.assignment_oracle(TRI, 11, tk, tk).h


@pytest.mark.parametrize("d,p,k", [(7, 17, 2), (5, 11, 3), (3, 7, 2)])
def test_h2_linearity(d, p, k):
    assert hodge.h2_linearity_check(isosceles(d), p, k)


def test_ihp_trivial_prefix():
    res = hodge.ihp(D7, 17, 3)
    assert res.h_values[0] == 0 and res.h_values[1] == 0


def test_ihp_hull_passes_through_vertices():
    res = hodge.ihp(D7, 17, 40)
    assert res.hull.value_at(28) == 259
    assert res.hull.value_at(36) == 259 + 8 * 16
    slopes = res.hull.slopes()
    assert all(s1 <= s2 for s1, s2 in zip(slopes, slopes[1:]))
    assert res.hypothesis_ok


def test_ihp_under_failed_hypothesis_flagged():
    res = hodge.ihp(isosceles(5), 7, 10)  # p too small for the section bound
    assert not res.hypothesis_ok
    assert not any(res.certified[2:])


@pytest.mark.parametrize("delta,p", [
    (isosceles(3), 7), (D5, 11), (D7, 17), (isosceles(9), 29),
    (isosceles(11), 41), (D13, 41), (TRI, 11), (make_triangle(2, 5, 4, 1), 13),
], ids=["3-7", "5-11", "7-17", "9-29", "11-41", "13-41", "1321-11",
        "2541-13"])
def test_ihp_prefix_h_matches_greedy(delta, p):
    # every prefix of the closed T_1 and 20 points past it, against the
    # point-level greedy
    l_max = lattice.x_count(delta, 1, closed=True) + 20
    pool = lattice.enumerate_T(delta, 3, closed=True)
    assert l_max <= len(pool)
    assert hodge.ihp(delta, p, l_max).h_values == tuple(
        hodge.minimal_h(delta, p, pool[:ell]) for ell in range(l_max + 1))


@pytest.mark.parametrize("delta,p", [(D7, 7), (TRI, 5)])
def test_ihp_refuses_p_dividing_det(delta, p):
    with pytest.raises(ValueError):
        hodge.ihp(delta, p, 10)


def test_ihp_value_matches_oracle_at_x2_d5():
    # x_2(d=5) is 55 = (2d+1)*2d/2
    x2 = hodge.closed_form_vertices(D5, 11, 2)[0]
    assert x2 == 55
    res = hodge.ihp(D5, 11, x2)
    t2 = lattice.enumerate_T(D5, 2)
    assert res.hull.value_at(x2) == hodge.assignment_oracle(D5, 11, t2, t2).h


def test_lower_convex_hull_basic():
    hull = hodge.lower_convex_hull([(0, 0), (1, 5), (2, 4), (3, 9), (4, 8)])
    xs = [x for x, _ in hull.vertices]
    assert xs[0] == 0 and xs[-1] == 4
    slopes = hull.slopes()
    assert all(s1 < s2 for s1, s2 in zip(slopes, slopes[1:]))


def test_gnp_slope_bands_m1_collapse():
    rep = hodge.gnp_slope_bands(D7, 17, 1)
    exact = [b for b in rep["bands"] if b["kind"] == "exact"]
    assert {b["slope"] for b in exact} <= {0, 1}
    assert rep["prefix_multiplicity"] == rep["expected_prefix"]


def test_gnp_slope_bands_m2():
    rep = hodge.gnp_slope_bands(D7, 17, 2)
    assert rep["prefix_multiplicity"] == rep["expected_prefix"] == 7140
    first_open = next(b for b in rep["bands"] if b["kind"] == "open")
    assert first_open["first"] == 2 and first_open["last"] == 28
    assert first_open["low"] == 0 and first_open["high"] == Fraction(1, 17)
    assert not rep["hypothesis_d_large_enough"]
