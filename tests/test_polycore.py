import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlat.errors import BadPrime, ParseError, ZeroConstantTerm
from xlat.polycore import (
    NOT_PRIME_POWER,
    discriminant,
    div_exact,
    factor_degrees_mod_p,
    factor_mod_p,
    factor_z,
    graeffe,
    is_irreducible_z,
    parse_polynomial,
    poly,
    poly_gcd,
    power_form,
    power_sums,
    resultant,
    squarefree_part,
)
from xlat.rng import SplitMix64

EX1_G = poly([6, 0, 4, -4, 1])  # x^4 - 4x^3 + 4x^2 + 6


def random_poly(rng, degree, bound=10, monic=False):
    coeffs = [rng.randint(-bound, bound) for _ in range(degree)]
    coeffs.append(1 if monic else rng.choice([c for c in range(-bound, bound + 1) if c != 0]))
    return poly(coeffs)


def sylvester_resultant(f, g):
    """Independent oracle: determinant of the Sylvester matrix over Fractions."""
    m, n = f.degree, g.degree
    if m < 0 or n < 0:
        return Fraction(0)
    size = m + n
    if size == 0:
        return Fraction(1)
    rows = []
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    for i in range(n):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in fc] + [Fraction(0)] * (size - m - 1 - i))
    for i in range(m):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in gc] + [Fraction(0)] * (size - n - 1 - i))
    # fraction-free-ish Gaussian elimination
    det = Fraction(1)
    for col in range(size):
        pivot = None
        for r in range(col, size):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            if rows[r][col] != 0:
                factor = rows[r][col] * inv
                for c in range(col, size):
                    rows[r][c] -= factor * rows[col][c]
    return det


class TestArithmetic:
    def test_construction_trims(self):
        assert poly([1, 2, 0, 0]).coeffs == (1, 2)
        assert poly([]).is_zero
        assert poly([0]).is_zero

    def test_eval(self):
        f = poly([6, 0, 4, -4, 1])
        assert f(0) == 6
        assert f(1) == 7
        assert f(Fraction(1, 2)) == Fraction(6) + Fraction(1) - Fraction(1, 2) + Fraction(1, 16)

    def test_shift(self):
        f = EX1_G
        g = f.shift(-1)  # f(x - 1)
        assert g == poly([15, -24, 22, -8, 1])
        assert g(3) == f(2)

    def test_mul_add(self):
        f = poly([1, 1])
        g = poly([-1, 1])
        assert f * g == poly([-1, 0, 1])
        assert f + g == poly([0, 2])

    def test_string_roundtrip(self):
        for coeffs in [[6, 0, 4, -4, 1], [0, 1], [-2, 0, 1], [5]]:
            f = poly(coeffs)
            assert parse_polynomial(f.to_string()) == f


class TestParsing:
    def test_expression(self):
        assert parse_polynomial("x^4-4*x^3+4*x^2+6") == EX1_G
        assert parse_polynomial("(x-1)*(x+1)") == poly([-1, 0, 1])
        assert parse_polynomial("-x^2 + 3") == poly([3, 0, -1])
        assert parse_polynomial("2") == poly([2])

    def test_json_array(self):
        assert parse_polynomial([6, 0, 4, -4, 1]) == EX1_G
        assert parse_polynomial("[6, 0, 4, -4, 1]") == EX1_G

    def test_rational_literals_cleared(self):
        # denominators are cleared; decisions downstream are scale-invariant
        assert parse_polynomial("x^2/2 + 1/2") == poly([1, 0, 1])
        assert parse_polynomial(["1/3", 1]) == poly([1, 3])

    def test_rejects_other_variables(self):
        with pytest.raises(ParseError):
            parse_polynomial("y^2 + 1")
        with pytest.raises(ParseError):
            parse_polynomial("x^2 + 2y")

    def test_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_polynomial("x^")
        with pytest.raises(ParseError):
            parse_polynomial("x / x")


class TestFactorZ:
    def test_example1_irreducible(self):
        fac = factor_z(EX1_G)
        assert fac.content == 1
        assert fac.factors == ((EX1_G, 1),)
        assert fac.is_irreducible

    def test_difference_of_squares(self):
        fac = factor_z(poly([-1, 0, 1]))
        assert fac.content == 1
        assert fac.factors == ((poly([-1, 1]), 1), (poly([1, 1]), 1))

    def test_perfect_square_with_content(self):
        fac = factor_z(poly([4, 0, 8, 0, 4]))
        assert fac.content == 4
        assert fac.factors == ((poly([1, 0, 1]), 2),)

    def test_roundtrip_random(self):
        # expanding a Factorization reproduces the input bit-exactly
        rng = SplitMix64(20240817)
        for _ in range(1000):
            deg = rng.randint(1, 10)
            f = random_poly(rng, deg)
            assert factor_z(f).expand() == f

    def test_mixed_multiplicities(self):
        f = poly([-1, 1]) ** 3 * poly([1, 1]) * poly([1, 0, 1]) ** 2 * 6
        fac = factor_z(f)
        assert fac.content == 6
        assert fac.factors == (
            (poly([-1, 1]), 3),
            (poly([1, 1]), 1),
            (poly([1, 0, 1]), 2),
        )

    def test_is_irreducible_z(self):
        assert is_irreducible_z(poly([-2, 0, 1]))
        assert not is_irreducible_z(poly([-1, 0, 1]))
        assert not is_irreducible_z(poly([4]))
        assert not is_irreducible_z(poly([0, 0, 1]))  # x^2

    def test_high_degree_cyclotomic_product(self):
        # x^12 - 1 factors into the six divisors' cyclotomics
        f = poly([-1] + [0] * 11 + [1])
        fac = factor_z(f)
        assert sorted(g.degree for g, _ in fac.factors) == [1, 1, 2, 2, 2, 4]
        assert fac.expand() == f


class TestPowerForm:
    def test_prime_power_with_content(self):
        c, g, k = power_form(poly([1, 0, 1]) ** 3 * 4)
        assert (c, g, k) == (4, poly([1, 0, 1]), 3)

    def test_irreducible_is_power_one(self):
        c, g, k = power_form(EX1_G)
        assert (c, g, k) == (1, EX1_G, 1)

    def test_not_prime_power(self):
        assert power_form(poly([-1, 0, 1])) is NOT_PRIME_POWER

    def test_zero_constant_term(self):
        with pytest.raises(ZeroConstantTerm):
            power_form(poly([0, 1, 1]))


class TestGraeffe:
    def test_sqrt_two(self):
        assert graeffe(poly([-2, 0, 1]), 2) == poly([4, -4, 1])  # (x-2)^2

    def test_gaussian(self):
        assert graeffe(poly([1, 0, 1]), 2) == poly([1, 2, 1])  # (x+1)^2

    def test_fibonacci_cubed(self):
        # roots phi^3, psi^3 with sum 4 and product -1
        got = graeffe(poly([-1, -1, 1]), 3)
        assert got == poly([-1, -4, 1])
        # independent numeric oracle
        mpmath.mp.dps = 40
        roots = mpmath.polyroots([1, -1, -1])
        cubes = sorted([mpmath.re(r**3) for r in roots])
        expect = sorted(mpmath.polyroots([1, -4, -1]))
        for a, b in zip(cubes, expect):
            assert abs(a - b) < mpmath.mpf(10) ** -30

    def test_identity_m1_is_primitive_part(self):
        rng = SplitMix64(7)
        for _ in range(50):
            f = random_poly(rng, 3, bound=8)
            g = f.primitive_part()
            if g.lc < 0:
                g = -g
            assert graeffe(f, 1) == g

    def test_composition(self):
        rng = SplitMix64(11)
        for _ in range(30):
            f = random_poly(rng, 3, bound=6)
            if f(0) == 0:
                continue
            for a in (2, 3, 4):
                for b in (2, 3, 4):
                    assert graeffe(graeffe(f, a), b) == graeffe(f, a * b)

    def test_degree_preserved_and_moduli(self):
        # |roots of graeffe(f, m)| match m-th powers of |roots of f| to 1e-20
        rng = SplitMix64(13)
        mpmath.mp.dps = 50
        for _ in range(20):
            f = random_poly(rng, 4, bound=10)
            if f(0) == 0 or not _sf(f):
                continue
            m = rng.randint(2, 4)
            g = graeffe(f, m)
            assert g.degree == f.degree
            fr = mpmath.polyroots(list(reversed(f.coeffs)), maxsteps=200, extraprec=200)
            gr = mpmath.polyroots(list(reversed(g.coeffs)), maxsteps=200, extraprec=200)
            a = sorted(abs(r) ** m for r in fr)
            b = sorted(abs(r) for r in gr)
            for u, v in zip(a, b):
                assert abs(u - v) < mpmath.mpf(10) ** -20 * max(1, abs(u))


def _sf(f):
    return poly_gcd(f, f.derivative()).degree == 0


class TestResultantDiscriminant:
    def test_disc_quadratics(self):
        assert discriminant(poly([1, 0, 1])) == -4
        assert discriminant(poly([-2, 0, 1])) == 8

    def test_disc_cubic(self):
        # -4p^3 - 27q^2 with p = 0, q = -2
        assert discriminant(poly([-2, 0, 0, 1])) == -108

    def test_resultant_matches_sylvester_oracle(self):
        rng = SplitMix64(99)
        for _ in range(60):
            f = random_poly(rng, rng.randint(1, 5), bound=6)
            g = random_poly(rng, rng.randint(1, 5), bound=6)
            assert resultant(f, g) == sylvester_resultant(f, g)

    @given(
        st.lists(st.integers(-5, 5), min_size=2, max_size=5),
        st.lists(st.integers(-5, 5), min_size=2, max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_resultant_multiplicative(self, a, b):
        f, g = poly(a), poly(b)
        if f.is_zero or g.is_zero:
            return
        h = poly([1, 1])
        assert resultant(f * h, g) == resultant(f, g) * resultant(h, g)


class TestFactorModP:
    def test_phi5_mod2_irreducible(self):
        # 2 has order 4 mod 5
        out = factor_mod_p(poly([1, 1, 1, 1, 1]), 2)
        assert len(out) == 1 and out[0][1] == 1
        assert out[0][0].degree == 4

    def test_bad_prime(self):
        with pytest.raises(BadPrime):
            factor_mod_p(poly([1, 5]), 5)

    def test_splitting_pattern(self):
        out = factor_mod_p(poly([-1, 0, 1]), 7)
        assert [g.degree for g, _ in out] == [1, 1]

    def test_multiplicity(self):
        f = poly([1, 1]) ** 3
        out = factor_mod_p(f, 5)
        assert out == [(poly([1, 1]), 3)]

    def test_xn_minus_1_degrees_match_orders(self):
        # degrees of x^n - 1 mod p = multiset of ord_d(p) over divisors d | n
        for n in range(1, 13):
            for p in [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]:
                if n % p == 0:
                    continue  # order of p mod d undefined when p | d
                f = poly([-1] + [0] * (n - 1) + [1])
                got = sorted(g.degree for g, mult in factor_mod_p(f, p) for _ in range(mult))
                expect = []
                for d in range(1, n + 1):
                    if n % d == 0:
                        order = 1
                        while pow(p, order, d if d > 1 else 2) % (d if d > 1 else 1) != 1 % (d if d > 1 else 1):
                            order += 1
                        # count of degree-`order` factors from Phi_d: phi(d)/order
                        phi = sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)
                        expect.extend([order] * (phi // order))
                assert got == sorted(expect), (n, p)

    def test_degrees_fast_path_agrees(self):
        rng = SplitMix64(5150)
        for _ in range(40):
            f = random_poly(rng, 6)
            for p in (10007, 10009):
                if f.lc % p == 0 or squarefree_part(f) != f.primitive_part():
                    continue
                full = sorted(g.degree for g, mult in factor_mod_p(f, p) for _ in range(mult))
                assert list(factor_degrees_mod_p(f, p)) == full

    def test_ddf_degrees_match_edf_factors(self):
        # primes below the degree give Frobenius-matrix rows that are unreduced monomials
        rng = SplitMix64(7331)
        checked = 0
        for _ in range(30):
            for degree in range(2, 10):
                f = random_poly(rng, degree)
                for p in (2, 3, 5, 7, 10007, 10009):
                    if f.lc % p == 0:
                        continue
                    factors = factor_mod_p(f, p)
                    if any(mult > 1 for _, mult in factors):
                        continue  # not squarefree mod p
                    product = poly([1])
                    for g, _ in factors:
                        product = product * g
                    inv = pow(f.lc, -1, p)
                    assert [c % p for c in product.coeffs] == [c * inv % p for c in f.coeffs]
                    assert list(factor_degrees_mod_p(f, p)) == sorted(g.degree for g, _ in factors)
                    checked += 1
        assert checked > 1000


class TestFactorZAgainstSympy:
    """factor_z must equal sympy's factor_list: content and sign, factors and
    multiplicities.  A shortcut that calls a reducible polynomial irreducible
    still passes the expand() round-trip, so it is compared here."""

    @staticmethod
    def sympy_factorization(f):
        sympy = pytest.importorskip("sympy")
        coeff, factors = sympy.Poly(list(reversed(f.coeffs)), sympy.Symbol("x")).factor_list()
        content = Fraction(int(coeff))
        out = []
        for g, mult in factors:
            g = poly(reversed([int(c) for c in g.all_coeffs()]))
            if g.lc < 0:
                g, content = -g, content * (-1) ** mult
            out.append((g, mult))
        return content, sorted(out, key=lambda t: (t[0].degree, t[0].coeffs))

    def assert_agrees(self, f):
        fac = factor_z(f)
        content, factors = self.sympy_factorization(f)
        assert (fac.content, list(fac.factors)) == (content, factors), f

    def test_seeded_products(self):
        rng = SplitMix64(4242)
        for _ in range(60):
            f = poly([rng.choice([-6, -3, -2, -1, 1, 2, 5])])
            while f.degree < 12:
                mult = rng.randint(1, 2)
                g = random_poly(rng, rng.randint(1, 4), bound=6)
                if f.degree + mult * g.degree > 12:
                    break
                f = f * g**mult
            if f.degree >= 1:
                self.assert_agrees(f)

    def test_quotient_polynomials_and_cyclotomic(self):
        from xlat.cli import random_polynomial
        from xlat.numtests import quotient_poly

        rng = SplitMix64(2024)
        for _ in range(5):
            f, _ = random_polynomial(rng, 6)
            q = quotient_poly(f)
            assert q.degree == 30
            self.assert_agrees(q)
        self.assert_agrees(poly([-1] + [0] * 11 + [1]))


class TestPowerSums:
    def test_known(self):
        # x^2 - 3x + 2 = (x-1)(x-2): p1 = 3, p2 = 5, p3 = 9
        ps = power_sums(poly([2, -3, 1]), 3)
        assert ps == [2, 3, 5, 9]

    def test_gcd_and_squarefree(self):
        f = poly([-1, 1]) ** 2 * poly([1, 1])
        assert poly_gcd(f, f.derivative()) == poly([-1, 1])
        assert squarefree_part(f) == poly([-1, 0, 1])

    def test_div_exact_raises_on_inexact(self):
        with pytest.raises(ArithmeticError):
            div_exact(poly([1, 0, 1]), poly([1, 1]))
