"""Exact scalar and univariate-polynomial arithmetic.

Rationals are stdlib ``fractions.Fraction``; polynomials carry
arbitrary-precision integer coefficients, lowest degree first.  Rational
inputs are normalized immediately to a primitive integer polynomial times a
rational content factor, so every internal algorithm runs on integer
coefficients.

Factorization over Z is Zassenhaus: factor modulo a good odd prime, Hensel
lift to a Mignotte-style coefficient bound, then recombine subsets; when the
factor degrees modulo a few primes admit no common proper degree, the input
is proven irreducible without lifting.  All
tie-breaking is deterministic (sorted factor order, fixed seed for the
equal-degree split) so repeated runs produce identical output.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .arith import primes_from
from .errors import BadPrime, ParseError, ZeroConstantTerm
from .rng import SplitMix64

_EDF_SEED = 0x5EED


# ---------------------------------------------------------------------------
# polynomial type


def _trim(coeffs):
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return tuple(coeffs[:end])


@dataclass(frozen=True)
class UnivariatePolynomial:
    """Dense integer polynomial; ``coeffs[i]`` is the coefficient of x^i."""

    coeffs: tuple

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", _trim([int(c) for c in coeffs]))

    # -- basic queries ------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> int:
        if self.is_zero:
            return 0
        return self.coeffs[-1]

    def __getitem__(self, i):
        return self.coeffs[i] if 0 <= i <= self.degree else 0

    def __bool__(self):
        return not self.is_zero

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UnivariatePolynomial(
            [self[i] + other[i] for i in range(n)]
        )

    def __sub__(self, other):
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UnivariatePolynomial(
            [self[i] - other[i] for i in range(n)]
        )

    def __neg__(self):
        return UnivariatePolynomial([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return UnivariatePolynomial([c * other for c in self.coeffs])
        other = _as_poly(other)
        if self.is_zero or other.is_zero:
            return ZERO
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return UnivariatePolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        result = ONE
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __call__(self, x):
        """Horner evaluation; works for int, Fraction, complex, mpmath types."""
        acc = 0 * x if self.is_zero else self.coeffs[-1] + 0 * x
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    # -- structure ----------------------------------------------------------

    def derivative(self):
        return UnivariatePolynomial(
            [i * c for i, c in enumerate(self.coeffs)][1:]
        )

    def content(self) -> int:
        """gcd of the coefficients, carrying the sign of the leading one."""
        if self.is_zero:
            return 0
        g = 0
        for c in self.coeffs:
            g = math.gcd(g, abs(c))
        return g if self.lc > 0 else -g

    def primitive_part(self):
        if self.is_zero:
            return self
        c = self.content()
        return UnivariatePolynomial([a // c for a in self.coeffs])

    def shift(self, a: int):
        """Return f(x + a)."""
        out = UnivariatePolynomial([self.lc]) if self.coeffs else ZERO
        x_plus_a = UnivariatePolynomial([a, 1])
        for c in reversed(self.coeffs[:-1]):
            out = out * x_plus_a + UnivariatePolynomial([c])
        return out

    def reversed_poly(self):
        """Coefficients reversed; roots become reciprocals (needs f(0) != 0)."""
        return UnivariatePolynomial(list(reversed(self.coeffs)))

    # -- display ------------------------------------------------------------

    def to_string(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if i == 0:
                body = str(mag)
            elif i == 1:
                body = "x" if mag == 1 else f"{mag}*x"
            else:
                body = f"x^{i}" if mag == 1 else f"{mag}*x^{i}"
            parts.append(sign + body)
        return "".join(parts)

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"UnivariatePolynomial({list(self.coeffs)!r})"


ZERO = UnivariatePolynomial([])
ONE = UnivariatePolynomial([1])
X = UnivariatePolynomial([0, 1])


def _as_poly(v):
    if isinstance(v, UnivariatePolynomial):
        return v
    if isinstance(v, int):
        return UnivariatePolynomial([v])
    raise TypeError(f"cannot coerce {type(v)!r} to a polynomial")


def poly(coeffs) -> UnivariatePolynomial:
    return UnivariatePolynomial(coeffs)


# ---------------------------------------------------------------------------
# exact division / gcd / resultants over Z


def divmod_exact(f: UnivariatePolynomial, g: UnivariatePolynomial):
    """Division in Q[x] of integer polynomials; (q, r) with exact Fractions."""
    if g.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(f.degree - g.degree + 1, 0)
    rem = [Fraction(c) for c in f.coeffs]
    glc = Fraction(g.lc)
    while len(rem) - 1 >= g.degree and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < g.degree:
            break
        k = len(rem) - 1 - g.degree
        coef = rem[-1] / glc
        q[k] = coef
        for i, gc in enumerate(g.coeffs):
            rem[k + i] -= coef * gc
        rem.pop()
    return q, rem


def div_exact(f: UnivariatePolynomial, g: UnivariatePolynomial) -> UnivariatePolynomial:
    """Exact quotient f / g; raises if g does not divide f over Q or result non-integral."""
    q, rem = divmod_exact(f, g)
    if any(rem):
        raise ArithmeticError("inexact polynomial division")
    if any(c.denominator != 1 for c in q):
        raise ArithmeticError("quotient has non-integer coefficients")
    return UnivariatePolynomial([int(c) for c in q])


def divides(g: UnivariatePolynomial, f: UnivariatePolynomial) -> bool:
    if g.is_zero:
        return f.is_zero
    if f.is_zero:
        return True
    if g.degree > f.degree:
        return False
    _, rem = divmod_exact(f, g)
    return not any(rem)


def _pseudo_rem(f, g):
    """prem(f, g) = lc(g)^(deg f - deg g + 1) * f  mod g, all over Z."""
    d = f.degree - g.degree
    lc_g = g.lc
    rem = list(f.coeffs)
    for k in range(d, -1, -1):
        top = rem[-1]
        rem = [c * lc_g for c in rem]
        for i, gc in enumerate(g.coeffs):
            rem[k + i] -= top * gc
        rem.pop()
    return UnivariatePolynomial(rem)


def poly_gcd(f: UnivariatePolynomial, g: UnivariatePolynomial) -> UnivariatePolynomial:
    """Primitive gcd over Z with positive leading coefficient (primitive PRS)."""
    if f.is_zero:
        return g.primitive_part() if g else ZERO
    if g.is_zero:
        return f.primitive_part()
    a, b = f.primitive_part(), g.primitive_part()
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero:
        r = _pseudo_rem(a, b)
        a, b = b, (r.primitive_part() if r else ZERO)
    cont = math.gcd(f.content(), g.content())
    out = a.primitive_part() * abs(cont)
    return out if out.lc > 0 else -out


def resultant(f: UnivariatePolynomial, g: UnivariatePolynomial) -> Fraction:
    """Res(f, g) by the subresultant PRS (exact, no coefficient blowup)."""
    if f.is_zero or g.is_zero:
        return Fraction(0)
    if f.degree == 0:
        return Fraction(f.lc) ** g.degree
    if g.degree == 0:
        return Fraction(g.lc) ** f.degree
    a_cont, b_cont = abs(f.content()), abs(g.content())
    A = UnivariatePolynomial([c // a_cont for c in f.coeffs])
    B = UnivariatePolynomial([c // b_cont for c in g.coeffs])
    sign = 1
    t = Fraction(a_cont) ** g.degree * Fraction(b_cont) ** f.degree
    if A.degree < B.degree:
        if A.degree % 2 == 1 and B.degree % 2 == 1:
            sign = -sign
        A, B = B, A
    gg, hh = 1, 1
    while True:
        delta = A.degree - B.degree
        if A.degree % 2 == 1 and B.degree % 2 == 1:
            sign = -sign
        R = _pseudo_rem(A, B)
        if R.is_zero:
            return Fraction(0)
        A = B
        denom = gg * hh**delta
        B = UnivariatePolynomial([c // denom for c in R.coeffs])
        gg = A.lc
        if delta == 0:
            hh = hh  # h unchanged when delta == 0
        else:
            hh = (gg**delta) // (hh ** (delta - 1))
        if B.degree <= 0:
            break
    d = A.degree
    h_final = (B.lc**d) // (hh ** (d - 1)) if d >= 1 else hh
    return sign * t * h_final


def discriminant(f: UnivariatePolynomial) -> Fraction:
    """disc(f) = (-1)^(n(n-1)/2) Res(f, f') / lc(f)."""
    n = f.degree
    if n < 1:
        raise ValueError("discriminant needs degree >= 1")
    if n == 1:
        return Fraction(1)
    r = resultant(f, f.derivative())
    s = -1 if (n * (n - 1) // 2) % 2 else 1
    return s * r / f.lc


def squarefree_part(f: UnivariatePolynomial) -> UnivariatePolynomial:
    """Primitive squarefree polynomial with the same root set."""
    if f.is_zero:
        raise ValueError("zero polynomial")
    fp = f.primitive_part()
    if fp.degree <= 0:
        return ONE
    g = poly_gcd(fp, fp.derivative())
    out = div_exact(fp, g).primitive_part()
    return out if out.lc > 0 else -out


def is_squarefree(f: UnivariatePolynomial) -> bool:
    return f.degree <= 0 or poly_gcd(f, f.derivative()).degree == 0


def _yun_squarefree_decomposition(f: UnivariatePolynomial):
    """Yun's algorithm on a primitive poly with positive lc: [(g_i, i)] distinct.

    A square factor of f over Q stays a square modulo every prime not
    dividing lc(f), so f squarefree modulo one such prime is squarefree.
    """
    good = (p for p in primes_from(3) if f.lc % p)
    if any(_gf_squarefree_image(f, p) is not None for p in itertools.islice(good, 3)):
        return [(f, 1)]
    out = []
    g = poly_gcd(f, f.derivative())
    if g.degree == 0:
        return [(f, 1)]
    c = div_exact(f, g)
    d = div_exact(f.derivative(), g) - c.derivative()
    i = 1
    while c.degree > 0:
        a = poly_gcd(c, d)
        if a.degree > 0:
            out.append((a, i))
        c = div_exact(c, a)
        d = div_exact(d, a) - c.derivative()
        i += 1
    return out


# ---------------------------------------------------------------------------
# power sums and Newton's identities (root-transform workhorse)


def power_sums(f: UnivariatePolynomial, upto: int):
    """[p_0, ..., p_upto] with p_k = sum of k-th powers of the roots (Fractions)."""
    n = f.degree
    if n < 0:
        raise ValueError("zero polynomial has no roots")
    a = [Fraction(c, f.lc) for c in f.coeffs]  # monic-normalized
    ps = [Fraction(n)]
    for k in range(1, upto + 1):
        if k <= n:
            acc = -k * a[n - k]
            for i in range(1, k):
                acc -= a[n - i] * ps[k - i]
        else:
            acc = Fraction(0)
            for i in range(1, n + 1):
                acc -= a[n - i] * ps[k - i]
        ps.append(acc)
    return ps


def poly_from_power_sums(ps, n) -> UnivariatePolynomial:
    """Primitive integer polynomial (positive lc) with prescribed root power sums."""
    e = [Fraction(1)] + [Fraction(0)] * n
    for k in range(1, n + 1):
        acc = Fraction(0)
        for i in range(1, k + 1):
            acc += (-1) ** (i - 1) * e[k - i] * ps[i]
        e[k] = acc / k
    coeffs = [(-1) ** k * e[k] for k in range(n, -1, -1)]
    return _clear_denominators(coeffs)


def _clear_denominators(coeffs) -> UnivariatePolynomial:
    out = _from_fraction_coeffs(coeffs).primitive_part()
    return -out if out.lc < 0 else out


# ---------------------------------------------------------------------------
# Graeffe root-power transform


def graeffe(f: UnivariatePolynomial, m: int) -> UnivariatePolynomial:
    """Primitive integer polynomial (positive lc, same degree) whose roots are
    the m-th powers of the roots of f; agrees with Res_y(f(y), x - y^m) up to
    normalization."""
    if f.is_zero:
        raise ValueError("zero polynomial")
    if m < 1:
        raise ValueError("m must be >= 1")
    n = f.degree
    if n == 0:
        return ONE
    # peel off powers of two with the classical squaring step, cheap and integral
    g = f.primitive_part()
    if g.lc < 0:
        g = -g
    while m % 2 == 0:
        g = _graeffe_square(g)
        m //= 2
    if m == 1:
        return g
    ps_all = power_sums(g, m * n)
    ps = [ps_all[m * k] for k in range(n + 1)]
    ps[0] = Fraction(n)
    return poly_from_power_sums(ps, n)


def _graeffe_square(f: UnivariatePolynomial) -> UnivariatePolynomial:
    """One Graeffe doubling: primitive polynomial with roots squared."""
    n = f.degree
    minus = UnivariatePolynomial(
        [c if i % 2 == 0 else -c for i, c in enumerate(f.coeffs)]
    )
    h = f * minus
    even = [h[2 * i] for i in range(n + 1)]
    if n % 2 == 1:
        even = [-c for c in even]
    out = UnivariatePolynomial(even).primitive_part()
    return -out if out.lc < 0 else out


# ---------------------------------------------------------------------------
# arithmetic over F_p (dense lists, lowest degree first, coefficients in [0, p))


def _gf_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _gf_from_poly(f: UnivariatePolynomial, p: int):
    return _gf_trim([c % p for c in f.coeffs])


def _mul_loop(a, b):
    """Integer product of two coefficient lists, left unreduced so that the
    caller reduces each output coefficient once."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _gf_mul(a, b, m):
    """Product modulo m (a prime, or a Hensel modulus p^k)."""
    if not a or not b:
        return []
    return _gf_trim([c % m for c in _mul_loop(a, b)])


def _monic_divmod(a, b, m):
    """(q, r) with a = q*b + r modulo m for a monic divisor b; the partial
    remainders stay unreduced and each coefficient is reduced once."""
    a = list(a)
    low = b[:-1]
    nb = len(low)
    q = [0] * max(len(a) - nb, 0)
    for k in range(len(a) - nb - 1, -1, -1):
        c = a.pop() % m
        if c:
            q[k] = c
            for i, y in enumerate(low, k):
                a[i] -= c * y
    return _gf_trim(q), _gf_trim([c % m for c in a])


def _gf_divmod(a, b, p):
    if not b:
        raise ZeroDivisionError
    inv = pow(b[-1], p - 2, p)
    q, r = _monic_divmod(a, [(c * inv) % p for c in b], p)
    return [(c * inv) % p for c in q], r


def _gf_mod(a, b, p):
    if not b:
        raise ZeroDivisionError
    return _monic_divmod(a, _gf_monic(b, p), p)[1]


def _gf_gcd(a, b, p):
    while b:
        a, b = b, _gf_mod(a, b, p)
    return _gf_monic(a, p)


def _gf_monic(a, p):
    if not a:
        return []
    inv = pow(a[-1], p - 2, p)
    return [(c * inv) % p for c in a]


def _gf_mulmod(a, b, f, p):
    """a*b mod f over F_p for a monic modulus f."""
    if not a or not b:
        return []
    return _monic_divmod(_mul_loop(a, b), f, p)[1]


def _gf_pow_mod(a, e, mod, p):
    """a^e mod `mod` over F_p, left-to-right square-and-multiply: no squaring
    is wasted, and multiplying by a = x costs a shift and one reduction step."""
    mod = _gf_monic(mod, p)
    if e == 0:
        return [1]
    base = _gf_mod(a, mod, p)
    result = base
    for bit in bin(e)[3:]:
        result = _gf_mulmod(result, result, mod, p)
        if bit == "1":
            result = _gf_mulmod(result, base, mod, p)
    return result


def _gf_gcdex(a, b, p):
    """(s, t, g) with s*a + t*b = g = monic gcd."""
    r0, r1 = list(a), list(b)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _gf_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _gf_sub(s0, _gf_mul(q, s1, p), p)
        t0, t1 = t1, _gf_sub(t0, _gf_mul(q, t1, p), p)
    if not r0:
        return s0, t0, r0
    inv = pow(r0[-1], p - 2, p)
    scale = lambda v: [(c * inv) % p for c in v]
    return scale(s0), scale(t0), scale(r0)


def _gf_sub(a, b, p):
    n = max(len(a), len(b))
    out = [((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p for i in range(n)]
    return _gf_trim(out)


def _gf_deriv(a, p):
    return _gf_trim([(i * c) % p for i, c in enumerate(a)][1:])


def _gf_squarefree_split(f, p):
    """[(g, mult)] with g monic squarefree, over F_p (handles p-th power collapse)."""
    out = []
    f = _gf_monic(f, p)

    def rec(g, mult):
        if len(g) <= 1:
            return
        d = _gf_deriv(g, p)
        if not d:
            # g = h(x^p) = h(x)^p
            h = [g[i * p] for i in range((len(g) - 1) // p + 1)]
            rec(_gf_trim(h), mult * p)
            return
        w = _gf_gcd(g, d, p)
        v = _gf_divmod(g, w, p)[0]  # squarefree part
        i = 1
        while len(v) > 1:
            u = _gf_gcd(v, w, p)
            piece = _gf_divmod(v, u, p)[0]
            if len(piece) > 1:
                out.append((piece, mult * i))
            v = u
            if w and u:
                w = _gf_divmod(w, u, p)[0]
            i += 1
        if len(w) > 1:
            rec(w, mult)

    rec(f, 1)
    return out


def _gf_frobenius_rows(xp, f, p):
    """Rows x^(ip) mod f for i < deg f: the matrix of h -> h^p on F_p[x]/(f)."""
    rows = [[1], xp]
    for _ in range(2, len(f) - 1):
        rows.append(_gf_mulmod(xp, rows[-1], f, p))
    return rows


def _gf_frobenius(h, rows, p):
    """h^p mod f as sum of h_i * x^(ip) mod f (h_i^p = h_i in F_p)."""
    acc = [0] * len(rows)
    for c, row in zip(h, rows):
        if c:
            for j, y in enumerate(row):
                acc[j] += c * y
    return _gf_trim([c % p for c in acc])


def _gf_ddf(f, p):
    """Distinct-degree factorization of monic squarefree f: [(product, degree)].

    h = x^(p^d) mod f is kept modulo the full f (it reduces correctly modulo
    every remaining divisor v); x^p costs one modular power and every later
    step one application of the Frobenius matrix.
    """
    out = []
    v = list(f)
    h = rows = None
    d = 0
    while len(v) - 1 >= 2 * (d + 1):
        d += 1
        if h is None:
            h = _gf_pow_mod([0, 1], p, f, p)
        else:
            if rows is None:
                rows = _gf_frobenius_rows(h, f, p)
            h = _gf_frobenius(h, rows, p)
        g = _gf_gcd(_gf_sub(h, [0, 1], p), v, p)
        if len(g) > 1:
            out.append((g, d))
            v = _gf_divmod(v, g, p)[0]
    if len(v) > 1:
        out.append((v, len(v) - 1))
    return out


def _gf_edf(f, d, p, rng):
    """Cantor–Zassenhaus equal-degree split of monic squarefree f into degree-d pieces."""
    n = len(f) - 1
    if n == d:
        return [f]
    pieces = []
    stack = [f]
    while stack:
        g = stack.pop()
        if len(g) - 1 == d:
            pieces.append(g)
            continue
        while True:
            t = [rng.randint(0, p - 1) for _ in range(len(g) - 1)]
            t = _gf_trim(t)
            if len(t) < 2:
                continue
            if p == 2:
                # trace map T(t) = t + t^2 + ... + t^(2^(d-1)) splits over F_2
                acc = _gf_mod(t, g, p)
                tr = list(acc)
                for _ in range(d - 1):
                    acc = _gf_pow_mod(acc, 2, g, p)
                    tr = _gf_trim([(x + y) % 2 for x, y in itertools.zip_longest(tr, acc, fillvalue=0)])
                h = _gf_gcd(tr, g, p)
            else:
                e = (p**d - 1) // 2
                w = _gf_pow_mod(t, e, g, p)
                h = _gf_gcd(_gf_sub(w, [1], p), g, p)
            if 0 < len(h) - 1 < len(g) - 1:
                stack.append(h)
                stack.append(_gf_divmod(g, h, p)[0])
                break
    return pieces


def factor_mod_p(f: UnivariatePolynomial, p: int):
    """Factor f over F_p: list of (monic factor, multiplicity), sorted, deterministic."""
    if f.is_zero:
        raise ValueError("zero polynomial")
    if f.lc % p == 0:
        raise BadPrime(f"{p} divides the leading coefficient")
    fp = _gf_from_poly(f, p)
    if len(fp) <= 1:
        return []
    rng = SplitMix64(_EDF_SEED ^ p ^ (len(fp) << 16))
    out = []
    for sq, mult in _gf_squarefree_split(fp, p):
        for block, d in _gf_ddf(sq, p):
            for piece in _gf_edf(block, d, p, rng):
                out.append((UnivariatePolynomial(piece), mult))
    out.sort(key=lambda t: (t[0].degree, t[0].coeffs))
    return out


def factor_degrees_mod_p(f: UnivariatePolynomial, p: int):
    """Degrees (with multiplicity) of the irreducible factors of (squarefree) f mod p.

    Only DDF is needed, which keeps the per-prime cost low for cycle-type sampling.
    """
    if f.lc % p == 0:
        raise BadPrime(f"{p} divides the leading coefficient")
    return _ddf_degrees(_gf_ddf(_gf_monic(_gf_from_poly(f, p), p), p))


def _ddf_degrees(blocks):
    """Sorted irreducible-factor degrees of a distinct-degree factorization."""
    return tuple(sorted(d for block, d in blocks for _ in range((len(block) - 1) // d)))


def subset_degree_sums(degrees) -> int:
    """Bit set of the subset sums of modular factor degrees (bit k: some of
    the factors have degrees adding up to k).

    The degree of a factor over Z is such a sum at every prime that keeps
    the degree and squarefreeness, so intersecting these sets over several
    primes bounds the possible factor degrees; when no proper degree
    survives, the polynomial is irreducible (Musser 1975).
    """
    sums = 1
    for d in degrees:
        sums |= sums << d
    return sums


# ---------------------------------------------------------------------------
# factorization over Z (Zassenhaus)


@dataclass(frozen=True)
class Factorization:
    """content * prod(factor^multiplicity) reproduces the input exactly."""

    content: Fraction
    factors: tuple  # of (UnivariatePolynomial, int)

    def expand(self) -> UnivariatePolynomial:
        acc = ONE
        for g, e in self.factors:
            acc = acc * g**e
        if self.content.denominator != 1:
            raise ArithmeticError("cannot expand non-integer content exactly")
        return acc * int(self.content)

    @property
    def is_irreducible(self) -> bool:
        return (
            len(self.factors) == 1
            and self.factors[0][1] == 1
            and self.factors[0][0].degree >= 1
        )


def _mignotte_bound(f: UnivariatePolynomial) -> int:
    norm2 = math.isqrt(sum(c * c for c in f.coeffs)) + 1
    return 2 ** (f.degree + 1) * norm2 * abs(f.lc)


def _hensel_step(m, f, g, h, s, t):
    """One quadratic Hensel step: modulus m -> m^2 for f = g*h, s*g + t*h = 1."""
    m2 = m * m
    e = _gf_sub([c % m2 for c in f], _gf_mul(g, h, m2), m2)
    q, r = _monic_divmod(_gf_mul(s, e, m2), h, m2)
    g1 = _gf_trim([x % m2 for x in _padd(_padd(g, _gf_mul(t, e, m2)), _gf_mul(q, g, m2))])
    h1 = _gf_trim([x % m2 for x in _padd(h, r)])
    b = _gf_sub(_padd(_gf_mul(s, g1, m2), _gf_mul(t, h1, m2)), [1], m2)
    c, d = _monic_divmod(_gf_mul(s, b, m2), h1, m2)
    s1 = _gf_sub(s, d, m2)
    t1 = _gf_sub(t, _padd(_gf_mul(t, b, m2), _gf_mul(c, g1, m2)), m2)
    return g1, h1, s1, t1


def _padd(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]


def _hensel_lift(p: int, f: UnivariatePolynomial, factors, exponent: int):
    """Lift f = lc(f) * prod(factors) (monic, mod p) to modulus p^(2^ceil) >= p^exponent.

    Returns (modulus, [lifted monic factor lists]).
    """
    r = len(factors)
    target = p**exponent
    if r == 1:
        m = p
        while m < target:
            m *= m
        inv = pow(f.lc, -1, m)
        lifted = [(c * inv) % m for c in f.coeffs]
        return m, [_gf_trim(lifted)]
    mid = r // 2
    g0 = [f.lc % p]
    for fac in factors[:mid]:
        g0 = _gf_mul(g0, fac, p)
    h0 = [1]
    for fac in factors[mid:]:
        h0 = _gf_mul(h0, fac, p)
    s, t, g_ = _gf_gcdex(g0, h0, p)
    if g_ != [1]:
        raise ArithmeticError("modular factors not coprime")
    m = p
    g, h = list(g0), list(h0)
    fl = list(f.coeffs)
    while m < target:
        g, h, s, t = _hensel_step(m, fl, g, h, s, t)
        m *= m
    _, left = _hensel_lift(p, UnivariatePolynomial(g), factors[:mid], exponent)
    _, right = _hensel_lift(p, UnivariatePolynomial(h), factors[mid:], exponent)
    return m, left + right


def _centered(c, m):
    c %= m
    return c - m if c > m // 2 else c


def _gf_squarefree_image(f: UnivariatePolynomial, p: int):
    """Monic f mod p when p keeps the degree and f mod p is squarefree, else None."""
    if f.lc % p == 0:
        return None
    fp = _gf_monic(_gf_from_poly(f, p), p)
    if len(_gf_gcd(fp, _gf_deriv(fp, p), p)) > 1:
        return None
    return fp


def _factor_squarefree_primitive(g: UnivariatePolynomial):
    """Irreducible factors of a primitive squarefree poly with positive lc.

    Up to four good odd primes are tried with DDF alone; when the
    intersection of their subset_degree_sums leaves no proper degree, g is
    irreducible.  Otherwise the prime with the fewest modular factors is
    split by EDF, lifted and recombined.
    """
    n = g.degree
    if n <= 1:
        return [g]
    possible = (1 << n) - 2  # bit k: a factor of degree k (0 < k < n) is possible
    best = None
    tried = 0
    for p in primes_from(3):
        fp = _gf_squarefree_image(g, p)
        if fp is None:
            continue
        blocks = _gf_ddf(fp, p)
        degrees = _ddf_degrees(blocks)
        possible &= subset_degree_sums(degrees)
        if not possible:
            return [g]
        tried += 1
        if best is None or len(degrees) < best[2]:
            best = (p, blocks, len(degrees))
        if tried >= 4:
            break
    p, blocks, _ = best
    rng = SplitMix64(_EDF_SEED ^ p)
    mods = []
    for block, d in blocks:
        mods.extend(_gf_edf(block, d, p, rng))
    mods.sort(key=lambda m: (len(m), tuple(m)))
    bound = _mignotte_bound(g)
    exponent = 1
    while p**exponent <= 2 * bound:
        exponent += 1
    modulus, lifted = _hensel_lift(p, g, mods, exponent)

    # subset recombination, skipping subsets whose degree no prime allows
    out = []
    in_play = list(lifted)
    current = g
    size = 1
    while 2 * size <= len(in_play):
        found = False
        for subset in itertools.combinations(range(len(in_play)), size):
            if not (possible >> sum(len(in_play[i]) - 1 for i in subset)) & 1:
                continue
            prod = [current.lc % modulus]
            for idx in subset:
                prod = _gf_mul(prod, in_play[idx], modulus)
            cand = UnivariatePolynomial([_centered(c, modulus) for c in prod])
            if cand.is_zero:
                continue
            cand = cand.primitive_part()
            if cand.degree < 1:
                continue
            if divides(cand, current):
                out.append(cand if cand.lc > 0 else -cand)
                current = div_exact(current, cand)
                in_play = [f_ for i, f_ in enumerate(in_play) if i not in subset]
                found = True
                break
        if not found:
            size += 1
    if current.degree >= 1:
        cp = current.primitive_part()
        out.append(cp if cp.lc > 0 else -cp)
    return out


def factor_z(f: UnivariatePolynomial) -> Factorization:
    """Full factorization over Z with deterministic ordering."""
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    content = Fraction(f.content())
    prim = UnivariatePolynomial([c // int(content) for c in f.coeffs])
    if prim.degree == 0:
        return Factorization(content=Fraction(f.coeffs[0]), factors=())
    pieces = []
    for sq, mult in _yun_squarefree_decomposition(prim):
        for irr in _factor_squarefree_primitive(sq):
            pieces.append((irr, mult))
    pieces.sort(key=lambda t: (t[0].degree, t[0].coeffs))
    return Factorization(content=content, factors=tuple(pieces))


def is_irreducible_z(f: UnivariatePolynomial) -> bool:
    """Irreducible over Q (degree >= 1, one factor, multiplicity 1)."""
    if f.is_zero or f.degree < 1:
        return False
    return factor_z(f).is_irreducible


class NotPrimePower:
    """Sentinel: the input has at least two distinct irreducible factors."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NotPrimePower"


NOT_PRIME_POWER = NotPrimePower()


def power_form(f: UnivariatePolynomial):
    """Write f = c * g^k with g irreducible primitive, or NotPrimePower.

    Raises ZeroConstantTerm when f(0) = 0 (so x would divide g).
    """
    if f.is_zero:
        raise ValueError("zero polynomial")
    if f(0) == 0:
        raise ZeroConstantTerm("f(0) = 0")
    fac = factor_z(f)
    if len(fac.factors) != 1:
        return NOT_PRIME_POWER
    g, k = fac.factors[0]
    return (fac.content, g, k)


# ---------------------------------------------------------------------------
# text / JSON polynomial format

_TOKEN_RE = re.compile(r"\s*(\d+|[a-zA-Z_]\w*|\*\*|[()+\-*/^])")


def _tokenize(s: str):
    pos = 0
    out = []
    while pos < len(s):
        m = _TOKEN_RE.match(s, pos)
        if not m:
            raise ParseError(f"unexpected character at position {pos}: {s[pos]!r}")
        tok = m.group(1)
        out.append("^" if tok == "**" else tok)
        pos = m.end()
    return out


class _FracPoly:
    """Parse-time polynomial with Fraction coefficients."""

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = list(c)
        while self.c and self.c[-1] == 0:
            self.c.pop()

    def add(self, o):
        n = max(len(self.c), len(o.c))
        return _FracPoly(
            [(self.c[i] if i < len(self.c) else 0) + (o.c[i] if i < len(o.c) else 0) for i in range(n)]
        )

    def sub(self, o):
        n = max(len(self.c), len(o.c))
        return _FracPoly(
            [(self.c[i] if i < len(self.c) else 0) - (o.c[i] if i < len(o.c) else 0) for i in range(n)]
        )

    def mul(self, o):
        if not self.c or not o.c:
            return _FracPoly([])
        out = [Fraction(0)] * (len(self.c) + len(o.c) - 1)
        for i, a in enumerate(self.c):
            for j, b in enumerate(o.c):
                out[i + j] += a * b
        return _FracPoly(out)

    def pow(self, e):
        r = _FracPoly([Fraction(1)])
        for _ in range(e):
            r = r.mul(self)
        return r

    @property
    def const(self):
        if len(self.c) > 1:
            return None
        return self.c[0] if self.c else Fraction(0)


class _Parser:
    def __init__(self, tokens):
        self.toks = tokens
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self):
        t = self.peek()
        self.i += 1
        return t

    def expr(self):
        sign = 1
        while self.peek() in ("+", "-"):
            if self.next() == "-":
                sign = -sign
        v = self.term()
        if sign < 0:
            v = _FracPoly([]).sub(v)
        while self.peek() in ("+", "-"):
            op = self.next()
            rhs = self.term()
            v = v.add(rhs) if op == "+" else v.sub(rhs)
        return v

    def term(self):
        v = self.factor()
        while self.peek() in ("*", "/"):
            op = self.next()
            rhs = self.factor()
            if op == "*":
                v = v.mul(rhs)
            else:
                d = rhs.const
                if d is None or d == 0:
                    raise ParseError("division only by a nonzero constant")
                v = v.mul(_FracPoly([Fraction(1) / d]))
        return v

    def factor(self):
        sign = 1
        while self.peek() in ("+", "-"):
            if self.next() == "-":
                sign = -sign
        v = self.atom()
        if self.peek() == "^":
            self.next()
            neg = False
            while self.peek() in ("+", "-"):
                if self.next() == "-":
                    neg = True
            e_tok = self.next()
            if e_tok is None or not e_tok.isdigit() or neg:
                raise ParseError("exponent must be a nonnegative integer")
            v = v.pow(int(e_tok))
        if sign < 0:
            v = _FracPoly([]).sub(v)
        return v

    def atom(self):
        t = self.next()
        if t is None:
            raise ParseError("unexpected end of input")
        if t == "(":
            v = self.expr()
            if self.next() != ")":
                raise ParseError("missing closing parenthesis")
            return v
        if t == "x":
            return _FracPoly([Fraction(0), Fraction(1)])
        if t.isdigit():
            return _FracPoly([Fraction(int(t))])
        raise ParseError(f"unknown symbol {t!r} (only the variable x is accepted)")


def parse_polynomial(text_or_list) -> UnivariatePolynomial:
    """Parse the shared polynomial format: an ASCII expression in x, or a
    JSON-style coefficient array (lowest degree first, ints or 'a/b' strings).

    Rational coefficients are cleared to the integer polynomial d*f where d is
    the lcm of the denominators; every downstream decision is invariant under
    this positive rational scaling.
    """
    if isinstance(text_or_list, (list, tuple)):
        fracs = []
        for c in text_or_list:
            if isinstance(c, bool) or not isinstance(c, (int, str)):
                raise ParseError(f"bad coefficient {c!r}")
            fracs.append(Fraction(c))
        return _from_fraction_coeffs(fracs)
    s = text_or_list.strip()
    if s.startswith("["):
        import json

        try:
            arr = json.loads(s)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad coefficient array: {exc}") from exc
        if not isinstance(arr, list):
            raise ParseError("coefficient array must be a JSON list")
        return parse_polynomial(arr)
    parser = _Parser(_tokenize(s))
    v = parser.expr()
    if parser.peek() is not None:
        raise ParseError(f"trailing input at token {parser.peek()!r}")
    return _from_fraction_coeffs(v.c)


def _from_fraction_coeffs(fracs) -> UnivariatePolynomial:
    denom = 1
    for c in fracs:
        denom = denom * c.denominator // math.gcd(denom, c.denominator)
    return UnivariatePolynomial([int(c * denom) for c in fracs])
