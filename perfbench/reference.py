"""Reference answers that xlat did not compute.

Sources, in the order they are tried:

* classical facts fixed by the input (fixture T-numbers, the prime-degree
  theorem, properties of a supplied permutation group, corpus bases);
* a Frobenius certificate found with the small modular arithmetic below:
  f mod p = (linear) * (irreducible of degree n-1) puts an (n-1)-cycle in the
  Galois group (Dedekind), so the point stabilizer is transitive on the other
  n-1 roots and the group is 2-transitive;
* sympy's ``galois_group`` when no certificate turns up;
* high-precision roots (mpmath) for root-of-rational tests and for checking
  that every returned basis vector is a multiplicative relation.

At degrees 4 and 6 a transitive group is Q-trivial exactly when it is
2-transitive (degree 4: A4 and S4; degree 6: every other transitive group is
imprimitive and 6 lies outside the degree class S).  Prime degrees are
Q-trivial by the prime-degree theorem.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import mpmath
from sympy import Poly, galois_group, symbols
from sympy.combinatorics import Permutation, PermutationGroup

from inputs import sympy_factors

_X = symbols("x")
_PRIMES = [p for p in range(11, 400) if all(p % d for d in range(2, int(p**0.5) + 1))]
_ROOT_DPS = 60


class NoReference(Exception):
    """The input lies outside what this module can answer independently."""


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


# ---------------------------------------------------------------------------
# 2-transitivity of the Galois group


def _eval_mod(coeffs, a, p):
    v = 0
    for c in reversed(coeffs):
        v = (v * a + c) % p
    return v


def _divide_linear(coeffs, a, p):
    """Quotient of f by (x - a) mod p, low->high."""
    n = len(coeffs) - 1
    q = [0] * n
    carry = 0
    for i in range(n, 0, -1):
        carry = (carry * a + coeffs[i]) % p
        q[i - 1] = carry
    return q


def _mulmod(a, b, g, p):
    """a * b mod (monic g, p); all lists low->high."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    d = len(g) - 1
    for k in range(len(prod) - 1, d - 1, -1):
        c = prod[k] % p
        if c:
            for j in range(d + 1):
                prod[k - d + j] -= c * g[j]
    return [c % p for c in prod[:d]]


def _powmod(base, e, g, p):
    result = [1] + [0] * (len(g) - 2)
    while e:
        if e & 1:
            result = _mulmod(result, base, g, p)
        base = _mulmod(base, base, g, p)
        e >>= 1
    return result


def _gcd_is_one(a, b, p):
    def trim(v):
        v = [c % p for c in v]
        while v and v[-1] == 0:
            v.pop()
        return v

    a, b = trim(a), trim(b)
    while b:
        inv = pow(b[-1], p - 2, p)
        while len(a) >= len(b):
            c = a[-1] * inv % p
            shift = len(a) - len(b)
            for j in range(len(b)):
                a[shift + j] -= c * b[j]
            a = trim(a)
            if not a:
                break
        a, b = b, a
    return len(a) == 1


def _has_cofactor_cycle(coeffs, p) -> bool:
    """f mod p = (x - a) * h with h irreducible of degree n-1."""
    n = len(coeffs) - 1
    if coeffs[-1] % p == 0:
        return False
    roots = [a for a in range(p) if _eval_mod(coeffs, a, p) == 0]
    if len(roots) != 1:
        return False
    h = _divide_linear(coeffs, roots[0], p)
    if _eval_mod(h, roots[0], p) == 0:
        return False  # repeated root: p divides the discriminant
    inv = pow(h[-1], p - 2, p)
    h = [c * inv % p for c in h]  # monic, and root-free by the count above
    if n - 1 <= 3:
        return True  # degree <= 3 without roots is irreducible
    if n - 1 <= 5:  # degree 4 or 5: irreducible iff no quadratic factor
        xp2 = _powmod(_powmod([0, 1], p, h, p), p, h, p)
        xp2 = xp2 + [0] * (2 - len(xp2))
        xp2[1] -= 1
        return _gcd_is_one(xp2, h, p)
    raise NoReference(f"cofactor degree {n - 1} unsupported")


@lru_cache(maxsize=None)
def two_transitive(coeffs: tuple) -> bool:
    """Is the Galois group of the irreducible polynomial 2-transitive?"""
    for p in _PRIMES[:40]:
        if _has_cofactor_cycle(coeffs, p):
            return True
    group, _ = galois_group(Poly(list(reversed(coeffs)), _X))
    n = group.degree
    return group.is_transitive() and len(group.stabilizer(0).orbit(1)) == n - 1


def qtrivial(coeffs) -> bool:
    """Q-triviality of the pair of an irreducible polynomial of degree 2..7."""
    n = len(coeffs) - 1
    if is_prime(n):
        return True
    if n in (4, 6):
        return two_transitive(tuple(coeffs))
    raise NoReference(f"no Q-triviality reference at degree {n}")


# Classical tables: the 2-transitive transitive groups of degree 4 and 6.
TWO_TRANSITIVE_T = {4: {4, 5}, 6: {12, 14, 15, 16}}


def qtrivial_of_fixture(degree: int, t_number: int) -> bool:
    return is_prime(degree) or t_number in TWO_TRANSITIVE_T[degree]


@lru_cache(maxsize=None)
def qtrivial_of_group(degree: int, generators: tuple) -> bool:
    """A 2-transitive group is Q-trivial.  A regular group of composite order
    is not: its permutation module is the regular module, whose rational
    constituents are as many as the conjugacy classes of cyclic subgroups,
    and a group of composite order has at least three of those."""
    gens = []
    for text in generators:
        cycles = [
            [int(x) - 1 for x in c.split()] for c in text.replace(")", "").split("(") if c.strip()
        ]
        gens.append(Permutation(cycles, size=degree))
    group = PermutationGroup(gens)
    if not group.is_transitive():
        raise NoReference("supplied group is not transitive")
    if len(group.stabilizer(0).orbit(1)) == degree - 1:
        return True
    if group.order() == degree and not is_prime(degree):
        return False
    raise NoReference("supplied group is neither 2-transitive nor regular")


# ---------------------------------------------------------------------------
# roots, roots of rationals and relations


@lru_cache(maxsize=None)
def roots(coeffs: tuple):
    """Roots at _ROOT_DPS digits in canonical order: real part ascending, then
    imaginary part ascending (real parts equal to 40 digits count as equal)."""
    with mpmath.workdps(_ROOT_DPS + 10):
        rts = mpmath.polyroots(list(reversed(coeffs)), maxsteps=400, extraprec=4 * _ROOT_DPS)
        rts = [mpmath.mpc(r) for r in rts]
        return sorted(rts, key=lambda r: (int(mpmath.nint(r.real * 10**40)), r.imag))


def is_root_of_rational(coeffs) -> bool:
    """All quotients of roots are roots of unity (for irreducible g, exactly
    when some power of every root is the same rational).  Orders d of such
    quotients have phi(d) <= n, so d <= 2 n^2."""
    n = len(coeffs) - 1
    if n == 1:
        return True
    rts = roots(tuple(coeffs))
    with mpmath.workdps(_ROOT_DPS):
        tol = mpmath.mpf(10) ** (-_ROOT_DPS // 2)
        r0 = rts[0]
        for r in rts[1:]:
            q = r / r0
            if abs(abs(q) - 1) > tol:
                return False
            if not any(abs(q**d - 1) < tol for d in range(1, 2 * n * n + 1)):
                return False
    return True


def is_relation(coeffs_g, k: int, u) -> bool:
    """prod root^u = 1 over the roots of g^k, each root of g repeated k times
    in canonical position."""
    rts = [r for r in roots(tuple(coeffs_g)) for _ in range(k)]
    with mpmath.workdps(_ROOT_DPS):
        value = mpmath.mpc(1)
        for r, e in zip(rts, u):
            value *= r**e
        return abs(value - 1) < mpmath.mpf(10) ** (-_ROOT_DPS // 2)


@lru_cache(maxsize=None)
def fastbasis_expectation(coeffs: tuple):
    """(status, base coefficients, exponent, trivial-lattice rank or None)
    for fastbasis on f: "F" unless f = c * g^k with g irreducible and either
    every root of g a root of rational or the pair of g Q-trivial."""
    if coeffs[0] == 0:
        raise NoReference("x divides f")
    factors = [(g, k) for g, k in sympy_factors(coeffs) if len(g) > 1]
    if len(factors) != 1:
        return "F", None, None, None
    g, k = factors[0]
    if is_root_of_rational(g):
        return "Basis", g, k, None
    if not qtrivial(g):
        return "F", g, k, None
    # Q-trivial and not all roots of rational: the lattice of g is trivial,
    # of rank 1 exactly when the product of the roots is +-1.
    return "Basis", g, k, int(abs(g[0]) == abs(g[-1]))


# ---------------------------------------------------------------------------
# the numeric oracle: relation groups of a known lattice


def _echelon(rows, n):
    """Integer row echelon form (pivots positive), for membership tests."""
    rows = [list(r) for r in rows if any(r)]
    out = []
    col = 0
    while rows and col < n:
        nz = [r for r in rows if r[col]]
        if not nz:
            col += 1
            continue
        while len(nz) > 1:
            nz.sort(key=lambda r: abs(r[col]))
            pivot = nz[0]
            for r in nz[1:]:
                q = r[col] // pivot[col]
                for j in range(n):
                    r[j] -= q * pivot[j]
            nz = [r for r in nz if r[col]]
        pivot = nz[0]
        if pivot[col] < 0:
            pivot[:] = [-x for x in pivot]
        out.append(pivot)
        rows = [r for r in rows if r is not pivot and any(r)]
        col += 1
    return out


def _member(echelon, v):
    v = list(v)
    for row in echelon:
        col = next(j for j, x in enumerate(row) if x)
        if v[col] % row[col]:
            return False
        q = v[col] // row[col]
        v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


@lru_cache(maxsize=None)
def relation_group_order(basis: tuple, n: int) -> int:
    """Number of permutations s of the roots with v o s in the lattice for
    every basis vector v."""
    ech = _echelon(basis, n)
    count = 0
    for perm in itertools.permutations(range(n)):
        if all(_member(ech, [v[perm[i]] for i in range(n)]) for v in basis):
            count += 1
    return count
