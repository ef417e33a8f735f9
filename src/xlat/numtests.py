"""Algebraic-number predicates on polynomials.

* is_ror: does every root of an irreducible g have a rational m-th power?
* is_degenerate: is some quotient of two distinct roots a root of unity?
* has_cyclotomic_factor: cyclotomic-factor detection, factor by factor, by
  matching each irreducible factor against Phi_d with phi(d) its degree.

The quotient polynomial (roots r_i / r_j, i != j) is assembled exactly from
power sums of f and of its reversed polynomial, then the diagonal (x-1)^n is
divided out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import euler_phi
from .errors import InternalError, NotIrreducible, NotSquarefree, ZeroConstantTerm
from .polycore import (
    UnivariatePolynomial,
    div_exact,
    factor_z,
    graeffe,
    is_irreducible_z,
    is_squarefree,
    poly,
    poly_from_power_sums,
    power_sums,
)


@dataclass(frozen=True)
class RorWitness:
    """Minimal exponent m with all roots' m-th powers equal to the rational q."""

    m: int
    q: Fraction


class NotRor:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NotRor"


NOT_ROR = NotRor()


# ---------------------------------------------------------------------------
# cyclotomic machinery

_cyclotomic_cache: dict = {}


def cyclotomic_polynomial(d: int) -> UnivariatePolynomial:
    if d in _cyclotomic_cache:
        return _cyclotomic_cache[d]
    num = poly([-1] + [0] * (d - 1) + [1])
    for e in range(1, d):
        if d % e == 0:
            num = div_exact(num, cyclotomic_polynomial(e))
    _cyclotomic_cache[d] = num
    return num


def cyclotomic_order(f: UnivariatePolynomial):
    """The d with f == Phi_d, or None."""
    k = f.degree
    if k < 1:
        return None
    g = f.primitive_part()
    if g.lc < 0:
        g = -g
    if g.lc != 1 or abs(g[0]) != 1:
        return None  # every Phi_d is monic with constant term +-1
    # phi(d) >= sqrt(d / 2), so phi(d) = k forces d <= 2 k^2
    for d in range(1, 2 * k * k + 2):
        if euler_phi(d) == k and g == cyclotomic_polynomial(d):
            return d
    return None


def has_cyclotomic_factor(h: UnivariatePolynomial):
    """(found, list of cyclotomic factors of h)."""
    if h.is_zero:
        raise ValueError("zero polynomial")
    if h.degree < 1:
        return False, []
    found = []
    for g, _mult in factor_z(h).factors:
        if cyclotomic_order(g) is not None:
            found.append(g)
    return bool(found), found


# ---------------------------------------------------------------------------
# quotient polynomial


def quotient_poly(f: UnivariatePolynomial) -> UnivariatePolynomial:
    """Primitive polynomial with root multiset {r_i / r_j : i != j} (f squarefree,
    f(0) != 0); the n diagonal quotients are removed by exact division."""
    n = f.degree
    if n < 1:
        raise ValueError("need degree >= 1")
    upto = n * n
    ps_f = power_sums(f, upto)
    ps_rev = power_sums(f.reversed_poly(), upto)
    q = [ps_f[t] * ps_rev[t] for t in range(upto + 1)]
    q[0] = Fraction(n * n)
    full = poly_from_power_sums(q, n * n)
    diag = poly([-1, 1]) ** n
    return div_exact(full, diag)


# ---------------------------------------------------------------------------
# predicates


def is_degenerate(f: UnivariatePolynomial) -> bool:
    """True iff some quotient of two distinct roots of f is a root of unity."""
    if f.is_zero or f(0) == 0:
        raise ZeroConstantTerm("degeneracy test needs f(0) != 0")
    if f.degree < 2:
        raise ValueError("degeneracy test needs degree >= 2")
    if not is_squarefree(f):
        raise NotSquarefree("degeneracy is defined for squarefree polynomials")
    found, _ = has_cyclotomic_factor(quotient_poly(f))
    return found


def is_ror(g: UnivariatePolynomial):
    """RorWitness(m, q) iff every root r of g satisfies r^m = q in Q, with m
    minimal; NotRor otherwise.

    For irreducible g the root quotients are all m-th roots of unity whenever
    the witness exists, so: every irreducible factor of the quotient
    polynomial must be cyclotomic, and then m divides n * lcm(orders), which
    reduces the search to the divisors of that number in increasing order.
    """
    if g.is_zero or g(0) == 0:
        raise ZeroConstantTerm("root-of-rational test needs g(0) != 0")
    if not is_irreducible_z(g):
        raise NotIrreducible("root-of-rational test needs an irreducible input")
    n = g.degree
    if n == 1:
        return RorWitness(1, Fraction(-g[0], g[1]))

    orders = []
    for factor, _mult in factor_z(quotient_poly(g)).factors:
        d = cyclotomic_order(factor)
        if d is None:
            return NOT_ROR
        orders.append(d)
    e = 1
    for d in orders:
        e = e * d // math.gcd(e, d)
    bound = e * n
    for m in sorted(d for d in range(1, bound + 1) if bound % d == 0):
        q = _all_roots_common_power(g, m)
        if q is not None:
            return RorWitness(m, q)
    raise InternalError("all root quotients are roots of unity; a witness must exist")


def _all_roots_common_power(g: UnivariatePolynomial, m: int):
    """q with graeffe(g, m) == (x - q)^n, else None."""
    n = g.degree
    gm = graeffe(g, m)
    q = Fraction(-gm[n - 1], n * gm[n])
    cand = poly([-q.numerator, q.denominator]) ** n
    if cand.lc < 0:
        cand = -cand
    return q if gm == cand else None
