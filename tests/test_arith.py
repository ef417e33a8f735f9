"""xlat.arith against sympy's number theory."""

import itertools

import pytest

from xlat.arith import euler_phi, factor_int, is_prime, is_prime_power, primes_from

sympy = pytest.importorskip("sympy")


def test_factor_int_matches_factorint():
    assert factor_int(0) == factor_int(1) == factor_int(-1) == {}
    for n in range(-5000, 5001):
        if abs(n) > 1:
            assert factor_int(n) == sympy.factorint(abs(n)), n


def test_factor_int_products_of_two_five_digit_primes():
    for p, q in [(10007, 10009), (99991, 99989), (65521, 65521), (12347, 99971)]:
        got = factor_int(p * q)
        assert got == sympy.factorint(p * q)
        assert list(got) == sorted(got)


def test_is_prime_matches_isprime():
    for n in range(0, 20001):
        assert is_prime(n) == sympy.isprime(n), n
    assert not is_prime(-7)


def test_is_prime_power_matches_definition():
    for n in range(1, 3001):
        power = sympy.perfect_power(n)
        expected = sympy.isprime(n) or (power is not False and sympy.isprime(power[0]))
        assert is_prime_power(n) == expected, n


def test_euler_phi_matches_totient():
    for n in range(1, 3001):
        assert euler_phi(n) == sympy.totient(n), n


@pytest.mark.parametrize("start", [0, 1, 2, 3, 4, 10**4, 10007])
def test_primes_from_matches_nextprime_chain(start):
    expected = []
    p = sympy.nextprime(start - 1)
    for _ in range(200):
        expected.append(p)
        p = sympy.nextprime(p)
    assert list(itertools.islice(primes_from(start), 200)) == expected
