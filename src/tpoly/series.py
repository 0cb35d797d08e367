"""Truncated power series over Z/p^M and small unramified extensions.

Series live in (Z/p^M)[[T]] / T^N and are stored as int64 numpy arrays
of length N, coefficients reduced to [0, p^M).  The guard in SeriesRing
keeps every convolution exactly representable in int64.

Also provides the Artin-Hasse exponential (exact rational coefficients,
reduced after a p-integrality check) and the reversion pi(T) of
E(pi) = 1 + T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class SeriesRing:
    """Series modulo (p^M, T^N) with coefficients in Z/p^M."""

    p: int
    M: int
    N: int

    def __post_init__(self):
        if self.modulus ** 2 * self.N >= 2 ** 62:
            raise ValueError("p^M too large for exact int64 convolution")

    @property
    def modulus(self) -> int:
        return self.p ** self.M

    def zero(self) -> np.ndarray:
        return np.zeros(self.N, dtype=np.int64)

    def one(self) -> np.ndarray:
        s = self.zero()
        s[0] = 1
        return s

    def from_coeffs(self, coeffs) -> np.ndarray:
        s = self.zero()
        for i, c in enumerate(coeffs[: self.N]):
            s[i] = c % self.modulus
        return s

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.convolve(a, b)[: self.N] % self.modulus

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a + b) % self.modulus

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a - b) % self.modulus

    def scal(self, c: int, a: np.ndarray) -> np.ndarray:
        return (c % self.modulus) * a % self.modulus

    def pow(self, a: np.ndarray, e: int) -> np.ndarray:
        out = self.one()
        base = a.copy()
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def compose(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """f(g(T)) for g with zero constant term, by Horner."""
        if g[0] % self.modulus != 0:
            raise ValueError("composition needs g(0) = 0")
        res = self.zero()
        for i in range(self.N - 1, -1, -1):
            res = self.mul(res, g)
            res[0] = (res[0] + f[i]) % self.modulus
        return res

    def inverse(self, a: np.ndarray) -> np.ndarray:
        """Series inverse; constant term must be a unit mod p."""
        c0 = int(a[0])
        if c0 % self.p == 0:
            raise ValueError("constant term is not a unit")
        y = self.zero()
        y[0] = pow(c0, -1, self.modulus)
        # Newton doubling: y <- y(2 - ay)
        prec = 1
        while prec < self.N:
            prec *= 2
            t = self.mul(a, y)
            t = (-t) % self.modulus
            t[0] = (t[0] + 2) % self.modulus
            y = self.mul(y, t)
        return y

    def derivative(self, a: np.ndarray) -> np.ndarray:
        out = self.zero()
        for i in range(1, self.N):
            out[i - 1] = (i * int(a[i])) % self.modulus
        return out

    def valuation(self, a: np.ndarray) -> int | None:
        """T-adic valuation mod the working precision; None means >= N."""
        nz = np.nonzero(a % self.modulus)[0]
        return int(nz[0]) if len(nz) else None


@lru_cache(maxsize=None)
def artin_hasse_fractions(p: int, n_terms: int) -> tuple[Fraction, ...]:
    """Exact rational coefficients of exp(sum_i pi^(p^i)/p^i) mod pi^n_terms."""
    arg = [Fraction(0)] * n_terms
    q = 1
    i = 0
    while q < n_terms:
        arg[q] = Fraction(1, p ** i)
        q *= p
        i += 1
    # exp by the ODE recurrence k*e_k = sum_j j*a_j*e_{k-j}
    e = [Fraction(0)] * n_terms
    e[0] = Fraction(1)
    for k in range(1, n_terms):
        acc = Fraction(0)
        for j in range(1, k + 1):
            if arg[j]:
                acc += j * arg[j] * e[k - j]
        e[k] = acc / k
    return tuple(e)


def artin_hasse_product_fractions(p: int, n_terms: int) -> tuple[Fraction, ...]:
    """Independent product-form oracle: prod_{p∤i} (1-pi^i)^(-mu(i)/i)."""
    def mobius(n):
        m, res = n, 1
        q = 2
        while q * q <= m:
            if m % q == 0:
                m //= q
                if m % q == 0:
                    return 0
                res = -res
            q += 1
        if m > 1:
            res = -res
        return res

    out = [Fraction(0)] * n_terms
    out[0] = Fraction(1)
    for i in range(1, n_terms):
        if i % p == 0:
            continue
        mu = mobius(i)
        if mu == 0:
            continue
        alpha = Fraction(-mu, i)
        # (1 - x)^alpha = sum_k binom(alpha, k) (-x)^k with x = pi^i
        factor = [Fraction(0)] * n_terms
        term = Fraction(1)
        k = 0
        while k * i < n_terms:
            factor[k * i] = term * (-1) ** k
            term = term * (alpha - k) / (k + 1)
            k += 1
        new = [Fraction(0)] * n_terms
        for a in range(n_terms):
            if out[a] == 0:
                continue
            for b in range(0, n_terms - a, i):
                if factor[b]:
                    new[a + b] += out[a] * factor[b]
        out = new
    return tuple(out)


def artin_hasse(ring: SeriesRing) -> np.ndarray:
    """E(pi) mod (p^M, pi^N); coefficients are p-integral by construction."""
    fracs = artin_hasse_fractions(ring.p, ring.N)
    coeffs = []
    for c in fracs:
        if c.denominator % ring.p == 0:
            raise AssertionError("Artin-Hasse coefficient not p-integral")
        coeffs.append(c.numerator * pow(c.denominator, -1, ring.modulus))
    return ring.from_coeffs(coeffs)


@lru_cache(maxsize=None)
def pi_of_T(ring: SeriesRing) -> np.ndarray:
    """The reversion pi(T) = T + O(T^2) with E(pi(T)) = 1 + T, read-only
    and cached per ring.

    Newton iteration pi <- pi - (E(pi)-1-T) / E'(pi); the T-adic error
    valuation doubles each pass.
    """
    E = artin_hasse(ring)
    dE = ring.derivative(E)
    target = ring.zero()
    target[0] = 1
    pi = ring.zero()
    if ring.N > 1:
        target[1] = 1
        pi[1] = 1
    steps = max(1, math.ceil(math.log2(max(2, ring.N))))
    for _ in range(steps):
        err = ring.sub(ring.compose(E, pi), target)
        if not err.any():
            break
        corr = ring.mul(err, ring.inverse(ring.compose(dE, pi)))
        pi = ring.sub(pi, corr)
    assert not ring.sub(ring.compose(E, pi), target).any()
    pi.setflags(write=False)
    return pi


# -- small unramified extensions and finite fields -------------------


def _poly_mul_mod(a, b, modulus, m):
    """Product of coefficient tuples mod (modulus poly, m)."""
    r = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % m
    # reduce by the monic modulus
    for i in range(len(prod) - 1, r - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(r):
                prod[i - r + j] = (prod[i - r + j] - c * modulus[j]) % m
    out = prod[:r]
    out += [0] * (r - len(out))
    return tuple(out)


def find_irreducible(p: int, r: int) -> tuple[int, ...]:
    """Deterministic smallest monic irreducible of degree r over F_p.

    Coefficients low-to-high, length r+1, leading 1.  Irreducibility via
    x^(p^r) = x and x^(p^(r/q)) != x for prime divisors q of r.
    """
    if r == 1:
        return (0, 1)

    def xq_pow(e_card, modulus):
        # x^(e_card) mod modulus over F_p by square-and-multiply
        result = (1,) + (0,) * (r - 1)
        base = tuple(1 if i == 1 else 0 for i in range(r))
        e = e_card
        while e:
            if e & 1:
                result = _poly_mul_mod(result, base, modulus, p)
            base = _poly_mul_mod(base, base, modulus, p)
            e >>= 1
        return result

    x_elt = tuple(1 if i == 1 else 0 for i in range(r))
    prime_divs = [q for q in range(2, r + 1) if r % q == 0 and is_prime(q)]
    for code in range(p ** r):
        coeffs = []
        c = code
        for _ in range(r):
            coeffs.append(c % p)
            c //= p
        modulus = tuple(coeffs) + (1,)
        if xq_pow(p ** r, modulus) != x_elt:
            continue
        if any(xq_pow(p ** (r // q), modulus) == x_elt for q in prime_divs):
            continue
        return modulus
    raise RuntimeError("no irreducible found")


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for w in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % w == 0:
            return n == w
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class UnramifiedRing:
    """Z_q / p^M with q = p^r, as Z/p^M[t]/(monic lift of an irreducible)."""

    def __init__(self, p: int, M: int, r: int):
        self.p = p
        self.M = M
        self.r = r
        self.m = p ** M
        self.modulus = find_irreducible(p, r)

    def zero(self):
        return (0,) * self.r

    def one(self):
        return (1,) + (0,) * (self.r - 1)

    def from_int(self, c: int):
        return (c % self.m,) + (0,) * (self.r - 1)

    def add(self, a, b):
        return tuple((x + y) % self.m for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.m for x, y in zip(a, b))

    def mul(self, a, b):
        return _poly_mul_mod(a, b, self.modulus, self.m)

    def pow(self, a, e: int):
        out = self.one()
        base = a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def teichmueller(self, a):
        """The unique lift with x^(p^r) = x congruent to a mod p."""
        x = a
        for _ in range(self.M - 1):
            x = self.pow(x, self.p ** self.r)
        return x

    def trace(self, a) -> int:
        """Trace to Z/p^M as the trace of the multiplication-by-a matrix."""
        if self.r == 1:
            return a[0] % self.m
        t = (0, 1) + (0,) * (self.r - 2)
        tot = 0
        elt = a
        for i in range(self.r):
            tot += elt[i]
            if i + 1 < self.r:
                elt = self.mul(elt, t)
        return tot % self.m

    def residue_elements(self):
        """All p^r residue-field representatives (coefficients < p)."""
        out = []
        for code in range(self.p ** self.r):
            c = code
            coeffs = []
            for _ in range(self.r):
                coeffs.append(c % self.p)
                c //= self.p
            out.append(tuple(coeffs))
        return out

    def frobenius_root(self):
        """sigma(t): the root of the modulus congruent to t^p, by Hensel."""
        t = (0, 1) + (0,) * (self.r - 2)
        x = self.pow(t, self.p)
        deriv = [i * c for i, c in enumerate(self.modulus)][1:]
        for _ in range(self.M + 1):
            fx = self.eval_poly(self.modulus, x)
            inv = self._inverse(self.eval_poly(deriv, x))
            x = self.sub(x, self.mul(fx, inv))
        assert not any(self.eval_poly(self.modulus, x))
        return x

    def eval_poly(self, coeffs, x):
        """sum_i coeffs[i] x^i for integer coefficients, by Horner."""
        acc = self.zero()
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, x), self.from_int(c))
        return acc

    def _inverse(self, a):
        # Newton lift from a brute-forced residue-field inverse
        ap = tuple(c % self.p for c in a)
        one_modp = (1,) + (0,) * (self.r - 1)
        inv = None
        for cand in self.residue_elements():
            if tuple(c % self.p for c in self.mul(ap, cand)) == one_modp:
                inv = cand
                break
        if inv is None:
            raise ZeroDivisionError("not a unit")
        x = inv
        for _ in range(self.M):
            # x <- x(2 - a x)
            t = self.sub(self.from_int(2), self.mul(a, x))
            x = self.mul(x, t)
        return x

    def frobenius(self, a):
        """The coefficient automorphism lifting x -> x^p."""
        if self.r == 1:
            return a
        if not hasattr(self, "_sig"):
            self._sig = self.frobenius_root()
        return self.eval_poly(a, self._sig)
