import math
import random

import numpy as np
import pytest

from tpoly import dwork, hodge, lattice
from tpoly.dwork import SeriesRing
from tpoly.lattice import isosceles, make_triangle

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


def test_char_series_precision_bookkeeping():
    # v_3(9!) = 4: the work runs at M + 4 and each division by 3 drops it
    M, L = 2, 9
    cs = dwork.char_series(D2, F2, 3, M, 10, L)
    prec = cs.prec
    assert len(prec) == L + 1 and prec[0] == M + 4
    assert all(a >= b for a, b in zip(prec, prec[1:]))
    assert min(prec) >= M
    assert prec == [M + 4 - dwork._vp(math.factorial(ell), 3) for ell in range(L + 1)]
    assert dwork.CharSeries(3, M, 10, 1, cs.u).prec == []


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
    for j in range(6):
        assert row[j] == math.comb(10, j) % 49


# -- the fast paths against their slow references ----------------------


def _ref_poly_matmul(a, b, modulus):
    """Exact int64 convolution of series matrices, one T-pair at a time."""
    N = a.shape[2]
    out = np.zeros((a.shape[0], b.shape[1], N), dtype=np.int64)
    for t1 in range(N):
        for t2 in range(N - t1):
            out[:, :, t1 + t2] = (out[:, :, t1 + t2]
                                  + a[:, :, t1] @ b[:, :, t2]) % modulus
    return out


def test_poly_matmul_matches_int_convolution():
    # 7^8 with k = 78 sits just under the guard: with entries near the
    # modulus a slice adds nearly 2.6e15, so the float64 sums must be
    # reduced every third slice or they pass 2^53 and lose bits
    modulus, k, N = 7 ** 8, 78, 12
    rng = np.random.default_rng(5)
    a = rng.integers(modulus - 1000, modulus, size=(30, k, N))
    a *= rng.random((30, 1, N)) >= 0.6   # zero rows of each T-slice
    a[:, :, [0, 3, 4]] = 0               # whole zero slices
    b = rng.integers(modulus - 1000, modulus, size=(k, 20, N))
    got = dwork.poly_matmul(a, b, modulus)
    assert got.dtype == np.int64 and got.flags.c_contiguous
    assert (got == _ref_poly_matmul(a, b, modulus)).all()
    with pytest.raises(ValueError, match="modulus too large"):
        dwork.poly_matmul(a, b, 7 ** 9)


@pytest.fixture(scope="module")
def berkowitz_d3():
    p, M, N = 7, 2, 12
    window = dwork.window_points(D3, p, N)
    mat = dwork.dwork_operator(D3, F3, p, M, N, window)
    return dwork.berkowitz_char_coeffs(mat, SeriesRing(p, M, N))


@pytest.mark.parametrize("L", [0, 1, 2, 3, 8])
def test_char_series_matches_berkowitz(berkowitz_d3, L):
    cs = dwork.char_series(D3, F3, 7, 2, 12, L)
    assert len(cs.u) == L + 1
    for ell in range(L + 1):
        assert cs.u[ell].dtype == np.int64
        assert (cs.u[ell] == berkowitz_d3[ell]).all()


def _ref_expand_Ef(delta, f_hat, ring, w_cap):
    """The per-point dict loop of expand_Ef, one convolution per term."""
    E = dwork.artin_hasse(ring)
    pi = dwork.pi_of_T(ring)
    cap_num = w_cap * delta.det
    pi_pows = [ring.one()]
    for _ in range(ring.N - 1):
        pi_pows.append(ring.mul(pi_pows[-1], pi))
    acc = {(0, 0): ring.one()}
    for q in sorted(f_hat, key=delta.canonical_key):
        a = f_hat[q] % ring.modulus
        wq = delta.weight_num(q)
        terms = []
        apow = 1
        for j in range(ring.N):
            if j * wq > cap_num:
                break
            terms.append(ring.scal(int(E[j]) * apow % ring.modulus, pi_pows[j]))
            apow = apow * a % ring.modulus
        new = {}
        for pt, s in acc.items():
            wpt = delta.weight_num(pt)
            for j, tj in enumerate(terms):
                if wpt + j * wq > cap_num:
                    break
                tgt = (pt[0] + j * q[0], pt[1] + j * q[1])
                contrib = ring.mul(s, tj) if j else s
                new[tgt] = ring.add(new[tgt], contrib) if tgt in new else contrib
        acc = new
    return acc


def _ref_expand_Ef_zq(delta, f_hat, mult, ring, w_cap):
    """The per-point dict loop of _expand_Ef_zq on coordinate arrays."""
    E = dwork.artin_hasse(ring)
    pi = dwork.pi_of_T(ring)
    cap_num = w_cap * delta.det
    m = ring.modulus
    pi_pows = [ring.one()]
    for _ in range(ring.N - 1):
        pi_pows.append(ring.mul(pi_pows[-1], pi))
    acc = {(0, 0): np.outer(mult[0][:, 0], ring.one())}
    for q in sorted(f_hat, key=delta.canonical_key):
        a_mat = np.tensordot(f_hat[q], mult, 1) % m
        wq = delta.weight_num(q)
        coeffs = []
        apow = mult[0]
        for j in range(ring.N):
            if j * wq > cap_num:
                break
            coeffs.append(int(E[j]) * apow % m)
            apow = a_mat @ apow % m
        new = {}
        for pt, s in acc.items():
            wpt = delta.weight_num(pt)
            for j, cj in enumerate(coeffs):
                if wpt + j * wq > cap_num:
                    break
                tgt = (pt[0] + j * q[0], pt[1] + j * q[1])
                contrib = np.array([ring.mul(row, pi_pows[j])
                                    for row in cj @ s % m]) if j else s
                new[tgt] = (new[tgt] + contrib) % m if tgt in new else contrib
        acc = new
    return acc


def _same_map(got, want):
    assert got.keys() == want.keys()
    for pt, s in want.items():
        assert got[pt].dtype == np.int64 and (got[pt] == s).all(), pt


@pytest.mark.parametrize("w_cap", [5, 14])
def test_expand_Ef_matches_dict_loop(w_cap):
    ring = SeriesRing(7, 2, 14)
    rng = random.Random(w_cap)
    f = {(x, y): rng.randrange(1, 7)
         for x in range(4) for y in range(4 - x) if (x, y) != (0, 0)}
    f[(0, 0)] = 3   # weight 0: every power lands on the same point
    lifted = _lift(f, 7, 2)
    _same_map(dwork.expand_Ef(D3, lifted, ring, w_cap),
              _ref_expand_Ef(D3, lifted, ring, w_cap))


def _f49_setup(M):
    """mult table and Teichmueller lifts for F_49 residues (as char_series)."""
    Rq = dwork.UnramifiedRing(7, M, 2)
    basis = np.eye(2, dtype=np.int64).tolist()
    mult = np.array([[Rq.mul(a, b) for b in basis]
                     for a in basis]).transpose(0, 2, 1)
    return Rq, mult


# coordinate 1 is nonzero at every point, so every e_P leaves F_7
F49 = {(1, 0): (3, 5), (0, 1): (2, 1), (2, 0): (1, 4), (1, 1): (6, 2),
       (0, 2): (5, 3)}


@pytest.mark.parametrize("w_cap", [4, 12])
def test_expand_Ef_zq_matches_dict_loop(w_cap):
    ring = SeriesRing(7, 2, 12)
    Rq, mult = _f49_setup(2)
    f_hat = {q: np.array(Rq.teichmueller(c), dtype=np.int64)
             for q, c in F49.items()}
    got = dwork._expand_Ef_zq(D2, f_hat, mult, ring, w_cap)
    want = _ref_expand_Ef_zq(D2, f_hat, mult, ring, w_cap)
    _same_map(got, want)
    assert any(s[1].any() for s in want.values())


def test_pair_trace_matches_trace_of_product():
    # Z_q coordinates over F_49 near the guard: summed at once, the
    # 20 x 20 pairs of near-modulus entries would pass 2^53
    modulus, w, N = 7 ** 8, 20, 6
    _, mult = _f49_setup(8)
    rng = np.random.default_rng(6)
    X, Y = rng.integers(modulus - 1000, modulus, size=(2, w, 2, w, N))
    prod = dwork._zq_mat_mul(X, Y, mult, modulus)
    want = np.einsum('icit->ct', prod) % modulus
    x_rows = X.transpose(0, 2, 1, 3).astype(np.float64)
    y_cols = Y.transpose(2, 0, 1, 3).astype(np.float64)
    assert (dwork._pair_trace(x_rows, y_cols, mult, modulus) == want).all()
    with pytest.raises(ValueError, match="modulus too large"):
        dwork._pair_trace(x_rows, y_cols, mult, 7 ** 9)


def test_closed_walk_support_drops_until_stable():
    # 0 -> 1 -> 2 -> 2 and 3 <-> 4: column 0 is zero, and once 0 is gone
    # so is column 1; 2 keeps its loop, 3 and 4 their cycle
    A = np.zeros((5, 1, 5, 3), dtype=np.int64)
    for v, (i, j) in enumerate([(0, 1), (1, 2), (2, 2), (3, 4), (4, 3)], 1):
        A[i, 0, j, 2] = v
    want = np.zeros((3, 1, 3, 3), dtype=np.int64)
    want[0, 0, 0, 2], want[1, 0, 2, 2], want[2, 0, 1, 2] = 3, 4, 5
    assert np.array_equal(dwork._on_closed_walk_support(A), want)


def _ref_twisted_traces(delta, f_hat_residues, p, m_work, N, L, n, slack):
    """tr(A^k) from every power A^k = A^(k-1) A in turn, read off the diagonal."""
    window = dwork.window_points(delta, p, N, slack)
    w = len(window)
    m = p ** m_work
    mat, mult = dwork._operator(delta, f_hat_residues, p, m_work, N, n, window)
    traces = []
    power = mat
    for k in range(1, L + 1):
        coords = power.reshape(w, n, w, N)
        tr = [dwork.poly_trace(coords[:, c], m) for c in range(n)]
        assert not any(t.any() for t in tr[1:])
        traces.append(tr[0])
        if k < L:
            power = (dwork.poly_matmul(power, mat, m) if n == 1
                     else dwork._zq_mat_mul(power, mat, mult, m))
    return traces


def _power_loop_char_series(monkeypatch, *args, **kwargs):
    with monkeypatch.context() as mp:
        mp.setattr(dwork, "_twisted_traces", _ref_twisted_traces)
        return dwork.char_series(*args, **kwargs)


def _same_u(fast, slow):
    assert len(fast.u) == len(slow.u)
    for x, y in zip(fast.u, slow.u):
        assert x.dtype == y.dtype == np.int64 and (x == y).all()


def _support_size(delta, f, p, m_work, N, n=1):
    """(window points, closed-walk support) of char_series' operator."""
    window = dwork.window_points(delta, p, N)
    mat, _ = dwork._operator(delta, f, p, m_work, N, n, window)
    w = len(window)
    return w, len(dwork._on_closed_walk_support(mat.reshape(w, n, w, N)))


def test_np_window_char_series_matches_power_loop(monkeypatch):
    # the np-window benchmark's shape; 23 of the 78 window points have a
    # zero row or column, or come to have one once others are dropped
    rng = random.Random(57)
    f = {(x, y): rng.randrange(1, 7)
         for x in range(4) for y in range(4 - x) if (x, y) != (0, 0)}
    assert _support_size(D3, f, 7, 5, 20) == (78, 55)
    args = (D3, f, 7, 2, 20, 21)
    _same_u(dwork.char_series(*args),
            _power_loop_char_series(monkeypatch, *args))


def test_twisted_n2_char_series_matches_power_loop(monkeypatch):
    # at N = 20 the products of coordinate-1 parts reach the traces
    # (from T^16 on), so the coordinate contraction is exercised
    assert _support_size(D2, F49, 7, 2, 20, n=2) == (36, 21)
    args = (D2, F49)
    kwargs = dict(p=7, M=2, N=20, L=5, n=2)
    _same_u(dwork.char_series(*args, **kwargs),
            _power_loop_char_series(monkeypatch, *args, **kwargs))


class _RemainderSpy:
    """dwork's numpy, recording whether each float64 np.remainder call
    reduces in place (poly_matmul, partway) or not (a pairing block)."""

    def __init__(self):
        self.in_place = []

    def __getattr__(self, name):
        return getattr(np, name)

    def remainder(self, x, *args, **kwargs):
        if x.dtype == np.float64:
            self.in_place.append("out" in kwargs)
        return np.remainder(x, *args, **kwargs)


def test_char_series_near_the_guard_matches_power_loop(monkeypatch):
    # p^8 on the 28-point support of N = 14: one slice holds 9.3e14, so
    # poly_matmul reduces after 9 of the 14 slices, and the trace pairing
    # sums over blocks of 9 rows
    args = (D3, F3, 7, 8, 14, 4)
    assert _support_size(D3, F3, 7, 8, 14) == (45, 28)
    spy, pairings = _RemainderSpy(), []
    pair_trace = dwork._pair_trace
    with monkeypatch.context() as mp:
        mp.setattr(dwork, "np", spy)
        mp.setattr(dwork, "_pair_trace",
                   lambda *a: pairings.append(1) or pair_trace(*a))
        fast = dwork.char_series(*args)
    assert any(spy.in_place)
    assert spy.in_place.count(False) > len(pairings) == 3
    _same_u(fast, _power_loop_char_series(monkeypatch, *args))


# -- the pi-degree expansion and the gathered matrix -------------------


def test_expand_Ef_exact_past_float64():
    # m^2 N is under SeriesRing's 2^62 guard, but a single product m^2
    # passes 2^53: the pi -> T conversion must be an exact int64 product.
    # (At M = 9 the sums of a float64 product stay under 2^53 here.)
    ring = SeriesRing(7, 10, 14)
    assert 2 ** 53 < ring.modulus ** 2 and ring.modulus ** 2 * ring.N < 2 ** 62
    lifted = _lift(F3, 7, 10)
    _same_map(dwork.expand_Ef(D3, lifted, ring, 8),
              _ref_expand_Ef(D3, lifted, ring, 8))


TRI = make_triangle(1, 3, 2, 1)
# the closed triangle's support but the origin; (1, 2) carries a zero
F_TRI = {(1, 3): 2, (2, 1): 5, (1, 1): 3, (1, 2): 0}


def test_expand_Ef_non_isosceles():
    ring = SeriesRing(7, 2, 12)
    lifted = _lift(F_TRI, 7, 2)
    got = dwork.expand_Ef(TRI, lifted, ring, 6)
    _same_map(got, _ref_expand_Ef(TRI, lifted, ring, 6))
    # only (1, 2) itself reaches (1, 2), and its coefficient is 0
    assert not got[(1, 2)].any()


def test_char_series_non_isosceles_matches_power_loop(monkeypatch):
    assert _support_size(TRI, F_TRI, 7, 2, 12) == (16, 11)
    args = (TRI, F_TRI, 7, 2, 12, 6)
    _same_u(dwork.char_series(*args),
            _power_loop_char_series(monkeypatch, *args))


def _series_toeplitz(s):
    """The N x N matrix S with x @ S = x * s mod T^N for a row vector x."""
    N = len(s)
    shift = np.arange(N)[None, :] - np.arange(N)[:, None]
    return np.where(shift >= 0, s[np.maximum(shift, 0)], 0)


def _toeplitz_expand_stacked(delta, a_mats, one, ring, w_cap):
    """The T-series form of dwork._expand_stacked: every (Q, j) step
    multiplies by pi^j as a Toeplitz product."""
    m = ring.modulus
    E = dwork.artin_hasse(ring)
    pi = dwork.pi_of_T(ring)
    cap_num = w_cap * delta.det
    pi_toep = [_series_toeplitz(ring.one())]
    for _ in range(ring.N - 1):
        pi_toep.append(pi_toep[-1] @ _series_toeplitz(pi) % m)
    span = w_cap * max(abs(delta.a1), abs(delta.b1), abs(delta.a2), abs(delta.b2))
    base = 2 * span + 1
    wvec = np.array([delta.wx, delta.wy])
    pts = np.zeros((1, 2), dtype=np.int64)
    vals = one[None]
    for q in sorted(a_mats, key=delta.canonical_key):
        wq = delta.weight_num(q)
        apow = np.eye(len(one), dtype=np.int64)
        keys = (pts[:, 0] + span) * base + pts[:, 1] + span
        wts = pts @ wvec
        steps = []
        for j in range(ring.N):
            if j * wq > cap_num:
                break
            sel = np.flatnonzero(wts + j * wq <= cap_num)
            part = vals[sel, :, : ring.N - j]
            if j:
                part = np.einsum('cd,pdt->pct', int(E[j]) * apow % m, part) % m
                part = part @ pi_toep[j][: ring.N - j, j:] % m
            steps.append((keys[sel] + j * (q[0] * base + q[1]), j, part))
            apow = a_mats[q] @ apow % m
        uniq, inv = np.unique(np.concatenate([k for k, _, _ in steps]),
                              return_inverse=True)
        vals = np.zeros((len(uniq),) + one.shape, dtype=np.int64)
        start = 0
        for k, j, part in steps:
            vals[inv[start:start + len(k)], :, j:] += part
            start += len(k)
        vals %= m
        pts = np.stack([uniq // base - span, uniq % base - span], axis=1)
    return dict(zip(map(tuple, pts.tolist()), vals))


def test_expand_stacked_matches_toeplitz_form_np_window():
    # the np-window benchmark's shape: d=3, p=7, N=20 at the working
    # precision 2 + v_7(21!) = 5, the closed unit triangle's support
    ring = SeriesRing(7, 5, 20)
    support = [(x, y) for x in range(4) for y in range(4 - x) if (x, y) != (0, 0)]
    for seed in range(20):
        rng = random.Random(seed)
        f = {q: rng.randrange(1, 7) for q in support}
        for q in rng.sample([(1, 0), (0, 1), (2, 1), (1, 1), (0, 2)], seed % 3):
            f[q] = 0
        a_mats = {q: np.array([[a]], dtype=np.int64)
                  for q, a in _lift(f, 7, 5).items()}
        args = (D3, a_mats, ring.one()[None], ring, ring.N)
        _same_map(dwork._expand_stacked(*args), _toeplitz_expand_stacked(*args))


def test_expand_stacked_matches_toeplitz_form_f49():
    ring = SeriesRing(7, 2, 14)
    Rq, mult = _f49_setup(2)
    a_mats = {q: np.tensordot(np.array(Rq.teichmueller(c), dtype=np.int64),
                              mult, 1) % ring.modulus
              for q, c in F49.items()}
    args = (D2, a_mats, np.outer(mult[0][:, 0], ring.one()), ring, ring.N)
    want = _toeplitz_expand_stacked(*args)
    _same_map(dwork._expand_stacked(*args), want)
    assert any(s[1].any() for s in want.values())


def _ref_dwork_matrix(e_map, window, p):
    """One dict lookup per entry of the window matrix."""
    n = len(window)
    mat = np.zeros((n, n) + e_map[(0, 0)].shape, dtype=np.int64)
    for i, q in enumerate(window):
        for j, pt in enumerate(window):
            s = e_map.get((p * q[0] - pt[0], p * q[1] - pt[1]))
            if s is not None:
                mat[i, j] = s
    return mat


@pytest.mark.parametrize("case", ["d3", "tri", "f49"])
def test_dwork_matrix_matches_lookup_loop(case):
    p, N = 7, 14
    ring = SeriesRing(p, 2, N)
    if case == "f49":
        delta = D2
        Rq, mult = _f49_setup(2)
        e_map = dwork._expand_Ef_zq(
            D2, {q: np.array(Rq.teichmueller(c), dtype=np.int64)
                 for q, c in F49.items()}, mult, ring, N)
    else:
        delta, f = (D3, F3) if case == "d3" else (TRI, F_TRI)
        e_map = dwork.expand_Ef(delta, _lift(f, p, 2), ring, N)
    window = dwork.window_points(delta, p, N)
    got = dwork.dwork_matrix(delta, ring, e_map, window, p)
    want = _ref_dwork_matrix(e_map, window, p)
    assert got.dtype == np.int64 and got.shape == want.shape
    assert (got == want).all() and want.any()
