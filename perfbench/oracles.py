"""Reference computations the benchmark checks tpoly's outputs against.

Nothing here imports tpoly.  Every function recomputes a quantity from
its definition, by a different method than the program uses:

* the torus exponential sum S*(T) over F_q, with Teichmueller lifts taken
  as x^(q^(K-1)) mod p^K instead of by iteration, and F_49 modelled as
  Z/p^K[t]/(t^2 - 3) instead of the program's smallest irreducible;
* truncated Berkowitz coefficients of a series matrix;
* the improved Hodge values min h over weight-minimal prefixes, by a
  dynamic programme over weight levels instead of the program's greedy
  and assignment solver;
* Y0, its mirror and the special-pair matrix, straight from the
  definitions, with the permanent by Ryser's formula and the
  determinant by fraction-free Bareiss elimination.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


def _vp(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# -- torus sums --------------------------------------------------------


def _binomial_series(c: int, N: int, pm: int) -> np.ndarray:
    """(1+T)^c mod (pm, T^N) for an integer c >= 0."""
    return np.array([math.comb(c, j) % pm for j in range(N)], dtype=np.int64)


def _lift_precision(p: int, M: int, N: int) -> int:
    """K with C(c, j) mod p^M fixed by c mod p^K for all j < N.

    C(c + p^K t, j) - C(c, j) is a sum of C(p^K t, i) C(c, j - i) with
    v_p(C(p^K t, i)) >= K - v_p(i), so K = M + max v_p(i) suffices.
    """
    return M + max((_vp(i, p) for i in range(1, max(N, 2))), default=0)


def torus_sum(f: dict, p: int, M: int, N: int, n: int = 1) -> np.ndarray:
    """S*(T) = sum over (F_q^*)^2 of (1+T)^Tr(f^(x)), mod (p^M, T^N).

    f maps (a, b) exponents to residues in F_p.  n is 1 (q = p) or 2
    (q = p^2, with F_q = F_p[t]/(t^2 - c) for the least non-square c).
    """
    K = _lift_precision(p, M, N)
    pk, pm = p ** K, p ** M
    q = p ** n
    coeffs = {e: pow(c % p, p ** (K - 1), pk) for e, c in f.items()}
    deg = max(max(a, b) for a, b in f)
    if n == 1:
        def mul(x, y):
            return x * y % pk

        units = list(range(1, p))
        lifts = [pow(x, q ** (K - 1), pk) for x in units]
        one = 1

        def embed(c):
            return c

        def trace(x):
            return x
    elif n == 2:
        squares = {x * x % p for x in range(1, p)}
        c = next(k for k in range(1, p) if k not in squares)

        def mul(x, y):
            return ((x[0] * y[0] + c * x[1] * y[1]) % pk,
                    (x[0] * y[1] + x[1] * y[0]) % pk)

        def power(x, e):
            out = (1, 0)
            while e:
                if e & 1:
                    out = mul(out, x)
                x = mul(x, x)
                e >>= 1
            return out

        units = [(a, b) for a in range(p) for b in range(p) if (a, b) != (0, 0)]
        lifts = [power(x, q ** (K - 1)) for x in units]
        one = (1, 0)

        def embed(a):
            return (a, 0)

        def trace(x):
            return 2 * x[0] % pk
    else:
        raise ValueError("torus_sum models F_p and F_p^2 only")
    pows = []
    for w in lifts:
        row = [one]
        for _ in range(deg):
            row.append(mul(row[-1], w))
        pows.append(row)
    counts: dict[int, int] = {}
    for px in pows:
        for py in pows:
            val = embed(0)
            for (a, b), cf in coeffs.items():
                term = mul(embed(cf), mul(px[a], py[b]))
                val = tuple((u + v) % pk for u, v in zip(val, term)) \
                    if n == 2 else (val + term) % pk
            tr = trace(val)
            counts[tr] = counts.get(tr, 0) + 1
    total = np.zeros(N, dtype=np.int64)
    for tr, cnt in counts.items():
        total = (total + cnt * _binomial_series(tr, N, pm)) % pm
    return total


def expected_u1(f: dict, p: int, M: int, N: int, n: int = 1) -> np.ndarray:
    """u_1 = -Tr(psi) = -S*/(q-1)^2 by the Dwork trace formula."""
    pm = p ** M
    inv = pow((p ** n - 1) ** 2, -1, pm)
    return (-torus_sum(f, p, M, N, n) * inv) % pm


# -- Berkowitz ---------------------------------------------------------


def _series_matvec(mat: np.ndarray, vec: np.ndarray, pm: int) -> np.ndarray:
    r, _, N = mat.shape
    out = np.zeros((r, N), dtype=np.int64)
    for t in range(N):
        out[:, t:] += mat[:, :, t] @ vec[:, : N - t]
    return out % pm


def _series_dot(row: np.ndarray, vec: np.ndarray, pm: int) -> np.ndarray:
    N = row.shape[1]
    out = np.zeros(N, dtype=np.int64)
    for t in range(N):
        out[t:] += row[:, t] @ vec[:, : N - t]
    return out % pm


def _series_mul(a: np.ndarray, b: np.ndarray, pm: int) -> np.ndarray:
    return np.convolve(a, b)[: len(a)] % pm


def berkowitz_coeffs(mat: np.ndarray, pm: int, L: int) -> list[np.ndarray]:
    """Coefficients of s^0..s^L in det(I - s*mat), entries series mod pm.

    Division-free: the leading-first characteristic coefficients of the
    r x r leading block are a Toeplitz matrix with first column
    (1, -a_rr, -R C, -R A C, ...) times those of the (r-1) block.  Only
    the first L+1 entries of each column are formed.
    """
    n, _, N = mat.shape
    mat = mat % pm
    one = np.zeros(N, dtype=np.int64)
    one[0] = 1
    q = [one]
    for r in range(1, n + 1):
        col = [one, (-mat[r - 1, r - 1]) % pm]
        if r >= 2:
            row = mat[r - 1, : r - 1]
            sub = mat[: r - 1, : r - 1]
            v = mat[: r - 1, r - 1]
            for k in range(min(r - 1, L - 1)):
                if k:
                    v = _series_matvec(sub, v, pm)
                col.append((-_series_dot(row, v, pm)) % pm)
        newq = []
        for i in range(min(r, L) + 1):
            acc = np.zeros(N, dtype=np.int64)
            for k in range(max(0, i - len(col) + 1), min(i, len(q) - 1) + 1):
                acc = (acc + _series_mul(col[i - k], q[k], pm)) % pm
            newq.append(acc)
        q = newq
    return q


# -- improved Hodge values ---------------------------------------------


def ihp_values(d: int, p: int, L: int) -> list[int]:
    """min over bijections tau of sum ceil(w(p tau(P) - P)), l = 0..L.

    The point sets are the first l cone points in the order (x+y, x, y)
    of the isosceles triangle with leg d, whose weight is (x+y)/d.  The
    cost of P -> Q depends only on the weights of P and Q, so an exact
    dynamic programme over how many points of each weight are still
    free as targets replaces an assignment solver.
    """
    pts = []
    s = 0
    while len(pts) < L:
        pts.extend((x, s - x) for x in range(s + 1))
        s += 1
    out = []
    for ell in range(L + 1):
        ws = sorted(x + y for x, y in pts[:ell])
        levels = sorted(set(ws))

        @lru_cache(maxsize=None)
        def best(i: int, free: tuple[int, ...]) -> int:
            if i == len(ws):
                return 0
            costs = []
            for k, b in enumerate(levels):
                if free[k]:
                    rest = free[:k] + (free[k] - 1,) + free[k + 1:]
                    costs.append(-((ws[i] - p * b) // d) + best(i + 1, rest))
            return min(costs)

        out.append(best(0, tuple(ws.count(b) for b in levels)))
    return out


# -- special pairs -----------------------------------------------------


def special_pair_matrix(d: int, p: int) -> list[list[int]]:
    """0/1 matrix on Y0 x Y0: [P, P'] = 1 when P - m(P') lies in the
    closed unit triangle, m the mirror Q -> (d, d) - Q.

    Y0 is the set of residues (pP mod d) of T1 points whose residue has
    weight >= 1.  Permutations sigma of Y0 with all entries 1 are the
    special bijections P -> m(sigma(P)), and their sign is sign(sigma).
    """
    y0 = sorted({(p * x % d, p * y % d) for x in range(d) for y in range(d - x)
                 if p * x % d + p * y % d >= d})
    rows = []
    for a in y0:
        row = []
        for b in y0:
            vx, vy = a[0] - (d - b[0]), a[1] - (d - b[1])
            row.append(int(vx >= 0 and vy >= 0 and vx + vy <= d))
        rows.append(row)
    return rows


def permanent(mat: list[list[int]]) -> int:
    """Ryser's formula with Gray-code column subsets."""
    n = len(mat)
    if n == 0:
        return 1
    sums = [0] * n
    total = 0
    sign = 1 if n % 2 == 0 else -1
    prev = 0
    for k in range(1, 2 ** n):
        gray = k ^ (k >> 1)
        j = (gray ^ prev).bit_length() - 1
        step = 1 if gray & (1 << j) else -1
        for i in range(n):
            sums[i] += step * mat[i][j]
        prev = gray
        prod = 1
        for s in sums:
            prod *= s
            if not prod:
                break
        total += (-1 if bin(gray).count("1") % 2 else 1) * prod
    return sign * total


def determinant(mat: list[list[int]]) -> int:
    """Fraction-free Bareiss elimination over the integers."""
    a = [list(r) for r in mat]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def vertex_exponents(d: int, p: int) -> tuple[int, int]:
    """Sum of floor(p P / d) over T1, per coordinate."""
    t1 = [(x, y) for x in range(d) for y in range(d - x)]
    return (sum(p * x // d for x, _ in t1), sum(p * y // d for _, y in t1))


def beta_hypothesis(d: int, p: int) -> bool:
    """The stage-2 hypothesis of the staged bijection: p > 2d+1, 6 p0 < d."""
    return p > 2 * d + 1 and 6 * (p % d) < d
