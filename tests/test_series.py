from fractions import Fraction

import numpy as np
import pytest

from tpoly import series


@pytest.mark.parametrize("p", [2, 3, 5, 7, 17])
def test_artin_hasse_first_coefficients(p):
    fr = series.artin_hasse_fractions(p, 6)
    assert fr[0] == 1 and fr[1] == 1
    # p-integrality of every coefficient
    for c in fr:
        assert c.denominator % p != 0


def test_artin_hasse_p2_pi2():
    assert series.artin_hasse_fractions(2, 3)[2] == 1


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_artin_hasse_product_form_oracle(p):
    # independent product expansion agrees coefficient by coefficient
    assert series.artin_hasse_fractions(p, 16) == \
        series.artin_hasse_product_fractions(p, 16)


def test_pi_of_T_reversion():
    ring = series.SeriesRing(5, 3, 12)
    pi = series.pi_of_T(ring)
    assert pi[1] == 1
    comp = ring.compose(series.artin_hasse(ring), pi)
    target = ring.zero()
    target[0] = 1
    target[1] = 1
    assert not ring.sub(comp, target).any()


def test_pi_of_T_is_cached_read_only():
    pi = series.pi_of_T(series.SeriesRing(7, 5, 20))
    assert series.pi_of_T(series.SeriesRing(7, 5, 20)) is pi
    with pytest.raises(ValueError, match="read-only"):
        pi[1] = 2


@pytest.mark.parametrize("p", [2, 3, 7, 17])
def test_pi_linear_coefficient_mod_p(p):
    ring = series.SeriesRing(p, 2, 10)
    assert int(series.pi_of_T(ring)[1]) % p == 1


def test_series_ring_ops():
    ring = series.SeriesRing(7, 2, 8)
    a = ring.from_coeffs([1, 2, 3])
    b = ring.from_coeffs([4, 0, 5])
    assert (ring.mul(a, b) == ring.mul(b, a)).all()
    inv = ring.inverse(a)
    prod = ring.mul(a, inv)
    assert prod[0] == 1 and not prod[1:].any()
    with pytest.raises(ValueError):
        ring.inverse(ring.from_coeffs([7, 1]))


def test_series_ring_guard():
    with pytest.raises(ValueError):
        series.SeriesRing(17, 12, 64)


def test_compose_requires_zero_constant():
    ring = series.SeriesRing(5, 2, 6)
    f = ring.from_coeffs([1, 1])
    with pytest.raises(ValueError):
        ring.compose(f, ring.one())


def test_valuation():
    ring = series.SeriesRing(5, 2, 6)
    s = ring.from_coeffs([0, 0, 25, 3])  # 25 = 0 mod 5^2
    assert ring.valuation(s) == 3
    assert ring.valuation(ring.zero()) is None


def test_find_irreducible():
    for p, r in ((7, 2), (3, 3), (2, 4)):
        mod = series.find_irreducible(p, r)
        assert len(mod) == r + 1 and mod[-1] == 1


def test_unramified_ring_teichmueller():
    R = series.UnramifiedRing(7, 3, 2)
    for a in [(3, 5), (1, 0), (0, 2)]:
        t = R.teichmueller(a)
        assert R.pow(t, 7 ** 2) == t
        assert tuple(c % 7 for c in t) == tuple(c % 7 for c in a)


def test_unramified_frobenius_and_trace():
    R = series.UnramifiedRing(5, 2, 2)
    a = R.teichmueller((2, 3))
    assert R.frobenius(a) == R.teichmueller(R.pow((2, 3), 5))
    # trace of a rational element is r * element
    assert R.trace(R.from_int(3)) == (2 * 3) % 25
    # Frobenius fixes the trace
    assert R.trace(R.frobenius(a)) == R.trace(a)


def test_prime_test():
    assert series.is_prime(2) and series.is_prime(41) and series.is_prime(10**9 + 7)
    assert not series.is_prime(1) and not series.is_prime(91)
