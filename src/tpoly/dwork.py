"""Dwork operator, Fredholm coefficients, and the exponential-sum oracle.

_operator is the one builder of the Frobenius operator A1 on a window,
for every n: F_{p^n} residues (n = 1 is F_p) are lifted to Teichmueller
representatives in UnramifiedRing, E_f is expanded into series e_P with
v_T(e_P) >= ceil(w(P)), and A1 is the windowed matrix of entries
e_{pQ-P}, each held as n Z_q coordinates.  The expansion works in
powers of pi, not of T: each e_P is sum_s c_(P,s) pi^s with scalar c
(coordinate vectors), the c of all points are one stacked array, and
each support monomial Q and power j takes one batched step, a multiply
by E_j a_Q^j and a shift by jQ and j.  One product with the rows pi^s
mod T^N turns the c into T-series at the end.

_twisted_traces gives the trace power sums of psi^n = sigma^(n-1)(A1)
... sigma(A1) A1.  It restricts A1 to its closed-walk support, what is
left once every index with a zero row or column mod (p^m, T^N) is
dropped, until none is.  That is exact: sigma keeps each entry's
support, so a closed walk of the product is one of A1.  It then forms
the product A, its regular representation (a (wn, wn) int series
matrix) once, and only the powers A^i, i <= ceil(L/2), each through
poly_matmul as A A^(i-1) so that the row-sparse operator is the left
factor, and pairs them, tr(A^(2i-1)) = tr(A^i A^(i-1)) and tr(A^(2i)) =
tr(A^i A^i), each an entrywise product summed over the matrix with a
T-convolution.  Newton's identities (at an elevated p-power precision,
so the divisions by l are exact) give u_l, and the T-adic Newton
polygon is the lower hull of (l, v_T(u_l)/n).  Points outside the
window contribute only beyond T^N.  det_T1 reads A1 on the T1 window
untrimmed: a determinant, unlike a trace, changes when an index goes.

Exactness: the expansion runs in int64, where SeriesRing's guard
p^(2m) N < 2^62 bounds every sum.  Products run in float64 BLAS on
entries reduced mod p^m, and every sum is reduced before it could pass
2^53, so each is an exact integer and u_l equals the pure integer
computation bit for bit.  The guard p^(2m) * inner-dim < 2^53, one
T-slice's worth, refuses the rest; the inner dimension is the support's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

import numpy as np

from .lattice import Point, TriangleSpec, enumerate_T
from .hodge import PolygonHull, lower_convex_hull
from .series import (SeriesRing, UnramifiedRing, artin_hasse, find_irreducible,
                     pi_of_T)


class HullMismatchError(ValueError):
    pass


class PrecisionExhausted(ValueError):
    pass


# window margin past the exact cut (p-1)*w(P) <= N
WINDOW_SLACK = 2


def teichmueller_int(c: int, p: int, M: int) -> int:
    """Teichmueller lift of c mod p into Z/p^M by p-power iteration."""
    x = c % p ** M
    for _ in range(M - 1):
        x = pow(x, p, p ** M)
    return x


def window_points(delta: TriangleSpec, p: int, N: int) -> list[Point]:
    """Matrix window: points with (p-1)*w(P) <= N + WINDOW_SLACK.

    Any l-subset reaching beyond the window has h1 >= (p-1)*w > N, so
    dropped rows/columns only affect coefficients at or above T^N.
    """
    cap = N + WINDOW_SLACK
    pts = enumerate_T(delta, math.ceil(Fraction(cap, p - 1)) + 1, closed=True)
    return [q for q in pts if (p - 1) * delta.weight_num(q) <= cap * delta.det]


def validate_support(delta: TriangleSpec, f_hat: dict[Point, int], p: int):
    for q in f_hat:
        if not delta.in_cone(q) or delta.weight_num(q) > delta.det:
            raise HullMismatchError(f"support point {q} outside the closed triangle")
    for vertex in ((delta.a1, delta.b1), (delta.a2, delta.b2)):
        if not np.any(np.asarray(f_hat.get(vertex, 0)) % p):
            raise HullMismatchError(f"vertex coefficient at {vertex} vanishes mod p")


def _expand_stacked(delta: TriangleSpec, a_mats: dict[Point, np.ndarray],
                    one: np.ndarray, ring: SeriesRing,
                    w_cap: int) -> dict[Point, np.ndarray]:
    """prod E(a_Q pi x^Q) with coefficients acting as n x n matrices.

    Each e_P is sum_s c_(P,s) pi^s, s < N, as pi^s = O(T^s); the c of
    all points are one (#points, n, N) array over pi-degree.  For each
    support point Q and each j, the points with w(P) + j w(Q) <= w_cap
    take one batched step: times E_j a_Q^j (a scalar for n = 1), then a
    scatter-add at P + jQ, pi-degree s + j, through a scalar point key,
    linear in the point.  One int64 product with the rows pi^s mod T^N
    gives the T-series; SeriesRing's guard m^2 N < 2^62 keeps it exact.
    """
    m = ring.modulus
    E = artin_hasse(ring)
    # every coordinate of a point of weight <= w_cap lies in [-span, span]
    span = w_cap * max(abs(delta.a1), abs(delta.b1), abs(delta.a2), abs(delta.b2))
    base = 2 * span + 1
    wvec = np.array([delta.wx, delta.wy])
    cap_num = w_cap * delta.det
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
            # points are in weight order: those that stay under the cap
            # are a prefix; pi-degrees past N - 1 - j leave the truncation
            part = vals[: np.searchsorted(wts, cap_num - j * wq, 'right'),
                        :, : ring.N - j]
            if j:
                coef = int(E[j]) * apow % m
                # n = 1: a sum of at most N products below m^2, reduced below
                part = (part * int(coef[0, 0]) if len(one) == 1 else
                        np.einsum('cd,pdt->pct', coef, part) % m)
            steps.append((keys[: len(part)] + j * (q[0] * base + q[1]), j, part))
            apow = a_mats[q] @ apow % m
        # np.unique's hashing is slower than one sort at these sizes
        uniq = np.sort(np.concatenate([k for k, _, _ in steps]))
        uniq = uniq[np.concatenate(([True], uniq[1:] != uniq[:-1]))]
        vals = np.zeros((len(uniq),) + one.shape, dtype=np.int64)
        for k, j, part in steps:
            # the targets of one j are distinct, so += adds each once
            vals[np.searchsorted(uniq, k), :, j:] += part
        vals %= m
        pts = np.stack([uniq // base - span, uniq % base - span], axis=1)
        order = np.argsort(pts @ wvec, kind='stable')
        pts, vals = pts[order], vals[order]
    pi, pi_pows = pi_of_T(ring), [ring.one()]
    for _ in range(ring.N - 1):
        pi_pows.append(ring.mul(pi_pows[-1], pi))
    return dict(zip(map(tuple, pts.tolist()), vals @ np.array(pi_pows) % m))


def expand_Ef(delta: TriangleSpec, f_hat: dict[Point, int], ring: SeriesRing,
              w_cap: int) -> dict[Point, np.ndarray]:
    """Coefficient series e_P of prod E(a_Q pi x^Q), for all w(P) <= w_cap.

    f_hat maps support points to lifts in Z/p^M.  Entries beyond the
    weight cap are exact zeros mod T^N whenever w_cap >= N.
    """
    validate_support(delta, f_hat, ring.p)
    a_mats = {q: np.array([[a % ring.modulus]], dtype=np.int64)
              for q, a in f_hat.items()}
    e_map = _expand_stacked(delta, a_mats, ring.one()[None], ring, w_cap)
    return {pt: s[0] for pt, s in e_map.items()}


def assert_valuation_bounds(delta: TriangleSpec, ring: SeriesRing,
                            e_map: dict[Point, np.ndarray]) -> None:
    """v_T(e_P) >= ceil(w(P)) for every expanded coefficient."""
    for pt, s in e_map.items():
        val = ring.valuation(s)
        bound = min(delta.ceil_weight(pt), ring.N)
        if val is not None and val < bound:
            raise AssertionError(f"v_T(e_{pt}) = {val} < ceil(w) = {bound}")


def dwork_matrix(delta: TriangleSpec, ring: SeriesRing,
                 e_map: dict[Point, np.ndarray],
                 window: list[Point], p: int) -> np.ndarray:
    """int64 array (n, n, *e.shape): entry[i, j] = e_{p*W[i] - W[j]}.

    One gather: the points p*W[i] - W[j] are looked up among the sorted
    scalar keys of e_map.
    """
    pts = np.fromiter(chain.from_iterable(e_map), np.int64, 2 * len(e_map))
    pts = pts.reshape(-1, 2)
    win = np.array(window, dtype=np.int64)
    want = p * win[:, None] - win[None, :]
    lo = min(pts.min(), want.min())
    base = max(pts.max(), want.max()) - lo + 1
    keys = (pts[:, 0] - lo) * base + pts[:, 1] - lo
    want = (want[..., 0] - lo) * base + want[..., 1] - lo
    order = np.argsort(keys)
    idx = order[np.searchsorted(keys, want, sorter=order).clip(max=len(keys) - 1)]
    hit = keys[idx] == want
    vals = np.array(list(e_map.values()))
    mat = np.zeros(want.shape + vals.shape[1:], dtype=np.int64)
    mat[hit] = vals[idx[hit]]
    return mat


def poly_matmul(a: np.ndarray, b: np.ndarray, modulus: int) -> np.ndarray:
    """Series-matrix product, exact through float64 BLAS.

    Entries lie in [0, modulus), the output's too.  Requires
    modulus^2 * inner-dim < 2^53, so that one T-slice's dot products
    are exactly representable integers.  Each T-slice of a multiplies
    only its nonzero rows, and the float64 sums are reduced mod modulus
    only when the next slice could carry one past 2^53, so every sum
    stays an exact integer.
    """
    m, k, N = a.shape
    n = b.shape[1]
    if modulus * modulus * k >= 2 ** 53:
        raise ValueError("modulus too large for exact float64 matmul")
    step = (modulus - 1) ** 2 * k
    slices = a.transpose(2, 0, 1).astype(np.float64)
    live = slices.any(axis=2)
    # T-major columns: the first (N - t1) * n of them are the T^(<N-t1) part
    bt = b.transpose(0, 2, 1).astype(np.float64).reshape(k, N * n)
    acc = np.zeros((m, N, n))
    bound = 0
    for t1 in range(N):
        rows = np.flatnonzero(live[t1])
        if not len(rows):
            continue
        if bound + step >= 2 ** 53:
            np.remainder(acc[:, t1:], modulus, out=acc[:, t1:])
            bound = modulus - 1
        prod = slices[t1, rows] @ bt[:, : (N - t1) * n]
        acc[rows, t1:] += prod.reshape(len(rows), N - t1, n)
        bound += step
    out = acc.transpose(0, 2, 1).astype(np.int64, order='C')  # exact, < 2^53
    return np.remainder(out, modulus, out=out)


def poly_trace(a: np.ndarray, modulus: int) -> np.ndarray:
    return np.einsum('iit->t', a) % modulus


def _vp(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@dataclass
class CharSeries:
    """Coefficients u_0..u_L of det(I - s psi^n), each mod (p^M, T^N).

    prec[l] is the p-adic precision Newton's identities kept for u_l
    before its reduction to p^M: m_work - v_p(l!), where m_work = M +
    v_p(L!) is the working precision.
    """

    p: int
    M: int
    N: int
    n: int
    u: list[np.ndarray]
    prec: list[int] = field(default_factory=list)

    def valuation(self, ell: int) -> int | None:
        nz = np.nonzero(self.u[ell] % self.p ** self.M)[0]
        return int(nz[0]) if len(nz) else None


def char_series(delta: TriangleSpec, f_hat_residues: dict[Point, int], p: int,
                M: int, N: int, L: int, n: int = 1) -> CharSeries:
    """u_0..u_L through trace power sums and Newton's identities.

    Works at precision M + v_p(L!) so the division by l in Newton's
    identity is exact; u_l is then reduced to p^M.  The traces are those
    of psi^n, the sigma-twisted product of A1's Frobenius conjugates.
    """
    m_work = M + _vp(math.factorial(L), p) if L else M
    traces = _twisted_traces(delta, f_hat_residues, p, m_work, N, L, n)
    ring = SeriesRing(p, m_work, N)
    # Newton's identities: l*e_l = sum_{i=1}^{l} (-1)^(i-1) e_{l-i} tr_i
    e = [ring.one()]
    prec = [m_work]
    for ell in range(1, L + 1):
        rhs = ring.zero()
        cur_prec = m_work
        for i in range(1, ell + 1):
            term = ring.mul(e[ell - i], traces[i - 1])
            rhs = ring.add(rhs, term) if i % 2 == 1 else ring.sub(rhs, term)
            cur_prec = min(cur_prec, prec[ell - i])
        v = _vp(ell, p)
        unit = ell // p ** v
        rhs = rhs % p ** cur_prec
        if v:
            if (rhs % p ** v).any():
                raise PrecisionExhausted(f"inexact division by {ell} at l={ell}")
            rhs = rhs // p ** v
            cur_prec -= v
        rhs = rhs * pow(unit, -1, p ** cur_prec) % p ** cur_prec
        e.append(rhs)
        prec.append(cur_prec)
        if cur_prec < M:
            raise PrecisionExhausted(f"precision fell below M at l={ell}")
    u = [((-1) ** ell * e[ell] % p ** M).astype(np.int64) for ell in range(L + 1)]
    return CharSeries(p, M, N, n, u, prec)


# -- Z_q coefficients in the regular representation --------------------


def _expand_Ef_zq(delta: TriangleSpec, f_hat: dict[Point, np.ndarray],
                  mult: np.ndarray, ring: SeriesRing,
                  w_cap: int) -> dict[Point, np.ndarray]:
    """expand_Ef for Z_q coefficients given as coordinate vectors.

    Each e_P is an (n, N) array of coordinates; a_Q acts by its
    multiplication matrix.
    """
    validate_support(delta, f_hat, ring.p)
    a_mats = {q: np.tensordot(a, mult, 1) % ring.modulus
              for q, a in f_hat.items()}
    # the coordinates of 1 (first column of mult[0] = I) times the series 1
    return _expand_stacked(delta, a_mats, np.outer(mult[0][:, 0], ring.one()),
                           ring, w_cap)


def _zq_mat_mul(X: np.ndarray, Y: np.ndarray, mult: np.ndarray,
                modulus: int) -> np.ndarray:
    """XY for Z_q series matrices held as (w, n, w, N) coordinates, X by its
    regular representation: the (w*n, w*n, N) int series matrix with blocks
    sum_a X[i, a, k] mult[a]."""
    w, n, _, N = X.shape
    reg = np.einsum('iakt,acd->ickdt', X, mult) % modulus
    prod = poly_matmul(reg.reshape(w * n, w * n, N),
                       Y.reshape(w * n, w, N), modulus)
    return prod.reshape(w, n, w, N)


def _pair_trace(x_rows: np.ndarray, y_cols: np.ndarray, mult: np.ndarray,
                modulus: int) -> np.ndarray:
    """Coordinates (n, N) of tr(XY) for (w, n, w, N) Z_q series matrices,
    from float64 layouts x_rows[i, j] = X[i, j], y_cols[i, j] = Y[j, i].

    tr(XY) = sum_(i,j) X[i,j] Y[j,i]: one float64 product pairs every
    T^t1 coefficient with every T^t2 coefficient over all (i, j), the
    anti-diagonals t1 + t2 = t give the T-convolution, and mult contracts
    the coordinate pair.  Sums run over blocks of rows i small enough to
    stay exact; the guard is poly_matmul's.
    """
    w, _, n, N = x_rows.shape
    if modulus * modulus * w * n >= 2 ** 53:
        raise ValueError("modulus too large for exact float64 matmul")
    rows = (2 ** 53 - modulus) // ((modulus - 1) ** 2 * w)
    G = np.zeros((n * N, n * N))
    for i in range(0, w, rows):
        blk = G + x_rows[i:i + rows].reshape(-1, n * N).T \
            @ y_cols[i:i + rows].reshape(-1, n * N)
        G = np.remainder(blk, modulus)
    G = G.astype(np.int64).reshape(n, N, n, N)
    H = np.zeros((n, n, N), dtype=np.int64)
    for t1 in range(N):
        H[:, :, t1:] += G[:, t1, :, : N - t1]
    return np.einsum('acb,abt->ct', mult, H % modulus) % modulus


def _operator(delta, f_hat_residues, p, m_work, N, n, window):
    """(A1, mult, frob): A1 on `window` over F_{p^n}, mod (p^m_work, T^N).

    Residues are ints or length-n tuples in UnramifiedRing's basis.  A1
    is held as (w, n, w, N) Z_q coordinates; mult[a] multiplies by t^a
    (its column j holds the coordinates of t^(a+j) reduced by the
    modulus), and column j of frob is sigma(t^j).  For n = 1 both are
    1 x 1 identities.
    """
    ring = SeriesRing(p, m_work, N)
    Rq = UnramifiedRing(p, m_work, n)
    basis = np.eye(n, dtype=np.int64).tolist()
    mult = np.array([[Rq.mul(a, b) for b in basis]
                     for a in basis]).transpose(0, 2, 1)
    frob = np.array([Rq.frobenius(tuple(b)) for b in basis]).T
    f_hat = {}
    for q, c in f_hat_residues.items():
        elt = tuple(c) if isinstance(c, (tuple, list)) else Rq.from_int(c)
        f_hat[q] = np.array(Rq.teichmueller(elt), dtype=np.int64)
    e_map = _expand_Ef_zq(delta, f_hat, mult, ring, w_cap=N)
    mat = dwork_matrix(delta, ring, e_map, window, p).transpose(0, 2, 1, 3)
    return mat, mult, frob


def _on_closed_walk_support(A: np.ndarray) -> np.ndarray:
    """A (w, n, w, N) restricted to the indices left once every index with
    a zero row or column among the rest is dropped, until none is."""
    nz = A.any(axis=(1, 3))
    keep = np.ones(len(nz), dtype=bool)
    while True:
        live = keep & nz[:, keep].any(axis=1) & nz[keep].any(axis=0)
        if (live == keep).all():
            return A[keep][:, :, keep]
        keep = live


def _twisted_traces(delta, f_hat_residues, p, m_work, N, L, n):
    """tr(A^k) mod (p^m_work, T^N), k = 1..L, for A = psi^n over F_{p^n}.

    A trace is coordinate 0 of the Z_q trace; the others must vanish.
    tr(A^k) sums products along closed walks of A1, and an index with a
    zero row or column lies on none, so A1 runs on its closed-walk
    support.  Only the powers A^i, i <= ceil(L/2), are formed, each as A
    times the last by A's regular representation, and two are alive at
    a time, with float64 layouts built once each: tr(A^(2i-1)) =
    tr(A^i A^(i-1)) and tr(A^(2i)) = tr(A^i A^i).
    """
    m = p ** m_work
    # conj runs through A1, sigma(A1), ...; the window-sized A1 is dropped
    conj, mult, frob = _operator(delta, f_hat_residues, p, m_work, N, n,
                                 window_points(delta, p, N))
    A = conj = _on_closed_walk_support(conj)
    w = len(A)
    for _ in range(1, n):
        conj = np.einsum('ca,iajt->icjt', frob, conj) % m
        A = _zq_mat_mul(conj, A, mult, m)
    reg = np.einsum('iakt,acd->ickdt', A, mult).reshape(w * n, w * n, N)
    np.remainder(reg, m, out=reg)

    traces = []
    prev_cols, power = None, A.reshape(w * n, w, N)
    for i in range(1, (L + 1) // 2 + 1):
        if i > 1:
            power = poly_matmul(reg, power, m)
        coords = power.reshape(w, n, w, N)
        rows = coords.transpose(0, 2, 1, 3).astype(np.float64)
        cols = coords.transpose(2, 0, 1, 3).astype(np.float64)
        if prev_cols is None:
            traces.append(np.array([poly_trace(coords[:, c], m)
                                    for c in range(n)]))
        else:
            traces.append(_pair_trace(rows, prev_cols, mult, m))
        if 2 * i <= L:
            traces.append(_pair_trace(rows, cols, mult, m))
        prev_cols = cols
    if any(tr[1:].any() for tr in traces):
        raise AssertionError("twisted trace left the base ring")
    return [tr[0] for tr in traces]


def newton_polygon_C(cs: CharSeries) -> tuple[PolygonHull, list[int], list[int]]:
    """Hull over certified (l, v_T(u_l)/n); returns (hull, certified, flagged)."""
    pts = []
    certified, flagged = [], []
    for ell in range(len(cs.u)):
        val = cs.valuation(ell)
        if val is None:
            flagged.append(ell)
        else:
            certified.append(ell)
            pts.append((ell, Fraction(val, cs.n)))
    return lower_convex_hull(pts), certified, flagged


# -- exact determinant of the T1 block --------------------------------


def _poly_matvec(mat: np.ndarray, vec: np.ndarray, modulus: int) -> np.ndarray:
    r, _, N = mat.shape
    out = np.zeros((r, N), dtype=np.int64)
    for t1 in range(N):
        block = mat[:, :, t1]
        if not block.any():
            continue
        out[:, t1:] = (out[:, t1:] + block @ vec[:, : N - t1]) % modulus
    return out


def berkowitz_char_coeffs(mat: np.ndarray, ring: SeriesRing) -> list[np.ndarray]:
    """Division-free characteristic coefficients: q[i] = coeff of s^i
    in det(I - s*mat), entries truncated series."""
    n = mat.shape[0]
    q = [ring.one()]
    for r in range(1, n + 1):
        a_rr = mat[r - 1, r - 1, :].copy()
        col = [ring.one(), (-a_rr) % ring.modulus]
        if r >= 2:
            R = mat[r - 1, :r - 1, :]
            C = mat[:r - 1, r - 1, :]
            sub = mat[:r - 1, :r - 1, :]
            v = C.copy()
            for _ in range(r - 1):
                s_j = np.zeros(ring.N, dtype=np.int64)
                for t1 in range(ring.N):
                    if R[:, t1].any():
                        s_j[t1:] = (s_j[t1:] + R[:, t1] @ v[:, : ring.N - t1]) \
                            % ring.modulus
                col.append((-s_j) % ring.modulus)
                v = _poly_matvec(sub, v, ring.modulus)
        newq = []
        for i in range(r + 1):
            acc = ring.zero()
            for kk in range(max(0, i - len(col) + 1), min(i, r - 1) + 1):
                acc = ring.add(acc, ring.mul(col[i - kk], q[kk]))
            newq.append(acc)
        q = newq
    # det(xI - A) leading-first coefficients were folded so that
    # q[i] is already the coefficient of s^i in det(I - sA).
    return q


def det_T1(delta: TriangleSpec, f_hat_residues: dict[Point, int], p: int,
           M: int, N: int) -> np.ndarray:
    """det over the T1 window: sum over permutations of prod e_{p*tau(P)-P}.

    Computed division-free (Berkowitz); requires N > h(T1) to expose the
    leading coefficient.
    """
    from .hodge import minimal_h
    t1 = enumerate_T(delta, 1)
    h1 = minimal_h(delta, p, t1)
    if N <= h1:
        raise PrecisionExhausted(f"need N > h(T1) = {h1}")
    ring = SeriesRing(p, M, N)
    A1 = _operator(delta, f_hat_residues, p, M, N, 1, t1)[0]
    q = berkowitz_char_coeffs(A1[:, 0], ring)
    # det(A) = (-1)^n * coeff of s^n in det(I - sA)
    return (-1) ** len(t1) * q[len(t1)] % ring.modulus


# -- exponential-sum oracle -------------------------------------------


def binomial_row(c: int, N: int, p: int, M: int) -> np.ndarray:
    """(1+T)^c mod (p^M, T^N) for an integer representative c."""
    pm = p ** M
    out = np.zeros(N, dtype=np.int64)
    out[0] = 1 % pm
    num = 1
    for j in range(1, N):
        num *= c - (j - 1)
        # exact integer binomial c choose j
        out[j] = (num // math.factorial(j)) % pm
    return out


def exp_sum_oracle(delta: TriangleSpec, f_hat_residues: dict[Point, int],
                   p: int, M: int, N: int, k: int, n: int = 1,
                   torus_limit: int = 20000):
    """Exhaustive torus sum S*_f(k, T) and the matching matrix trace.

    Returns (S_star, (q^k-1)^2 * Tr(psi^(n*k))), both mod (p^M, T^N).
    Trace precision suffices because the binomial coefficients only need
    the exponent mod p^(M + floor(log_p(N-1))).
    """
    r = n * k
    q_k = p ** r
    if (q_k - 1) ** 2 > torus_limit:
        raise ValueError("torus too large for exhaustive summation")
    extra = 0
    while p ** extra <= max(N - 1, 1):
        extra += 1
    M_lift = M + extra
    Rk = UnramifiedRing(p, M_lift, r)
    pm = p ** M

    # Teichmueller lifts of the units, with power tables up to max exponent
    units = [e for e in Rk.residue_elements() if any(e)]
    lifts = [Rk.teichmueller(e) for e in units]
    max_deg = max(max(q) for q in f_hat_residues)
    pow_tables = [[Rk.pow(w, e) for e in range(max_deg + 1)] for w in lifts]
    # F_q embeds in F_{q^k}, the residue field of Rk, by sending t to a
    # root of the modulus that defines F_q's coordinates
    g = find_irreducible(p, n)
    root = next(x for x in Rk.residue_elements()
                if not any(v % p for v in Rk.eval_poly(g, x)))
    f_lift = {}
    for qpt, c in f_hat_residues.items():
        coeffs = tuple(c) if isinstance(c, (tuple, list)) else (c,)
        f_lift[qpt] = Rk.teichmueller(Rk.eval_poly(coeffs, root))

    counts: dict[int, int] = {}
    for i1 in range(len(units)):
        for i2 in range(len(units)):
            val = Rk.zero()
            for qpt, a in f_lift.items():
                mono = Rk.mul(pow_tables[i1][qpt[0]], pow_tables[i2][qpt[1]])
                val = Rk.add(val, Rk.mul(a, mono))
            c = Rk.trace(val)
            counts[c] = counts.get(c, 0) + 1
    s_star = np.zeros(N, dtype=np.int64)
    for c, cnt in counts.items():
        s_star = (s_star + cnt * binomial_row(c, N, p, M)) % pm

    tr = _twisted_traces(delta, f_hat_residues, p, M, N, k, n)[k - 1]
    rhs = (q_k - 1) ** 2 % pm * tr % pm
    return s_star, rhs

