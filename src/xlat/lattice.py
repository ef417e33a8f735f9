"""Integer-lattice engine: HNF bases, integer kernels, membership, triviality,
and exact multiplicative-relation lattices for rational vectors and for
irreducible polynomials whose roots all have a rational power.

A lattice is stored as its row Hermite normal form (positive pivots, entries
above a pivot reduced into [0, pivot)), which is a unique representation, so
equality is tuple comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath

from . import _linalg
from .arith import factor_int
from .errors import DimensionMismatch, WitnessInvalid, ZeroEntry
from .polycore import UnivariatePolynomial, divides, graeffe, poly
from .roots import approx_roots


def _hnf_rows(rows, n):
    """Canonical row HNF of the span of `rows` inside Z^n."""
    todo = [list(map(int, r)) for r in rows if any(r)]
    for r in todo:
        if len(r) != n:
            raise DimensionMismatch(f"row length {len(r)} != ambient {n}")
    pivot_rows = []
    for col in range(n):
        active = [r for r in todo if r[col] != 0]
        rest = [r for r in todo if r[col] == 0]
        if not active:
            todo = rest
            continue
        while len(active) > 1:
            active.sort(key=lambda r: abs(r[col]))
            r0 = active[0]
            new_active = [r0]
            for r in active[1:]:
                q = r[col] // r0[col]
                rr = [a - q * b for a, b in zip(r, r0)]
                if rr[col] != 0:
                    new_active.append(rr)
                elif any(rr):
                    rest.append(rr)
            active = new_active
        piv = active[0]
        if piv[col] < 0:
            piv = [-a for a in piv]
        pivot_rows.append((col, piv))
        todo = rest
    # reduce entries above each pivot into [0, pivot)
    for i in range(len(pivot_rows)):
        col, piv = pivot_rows[i]
        for j in range(i):
            upper = pivot_rows[j][1]
            q = upper[col] // piv[col]
            if q:
                for k in range(n):
                    upper[k] -= q * piv[k]
    return tuple(tuple(p) for _, p in pivot_rows)


@dataclass(frozen=True)
class IntegerLattice:
    """Sublattice of Z^n held as a canonical row-HNF basis."""

    ambient_dim: int
    basis: tuple

    @property
    def rank(self) -> int:
        return len(self.basis)

    def to_json(self):
        return {"ambient_dim": self.ambient_dim, "basis": [list(r) for r in self.basis]}

    @staticmethod
    def from_json(obj) -> "IntegerLattice":
        return hnf(obj["basis"], obj["ambient_dim"])


def hnf(rows, ambient_dim=None) -> IntegerLattice:
    rows = list(rows)
    if ambient_dim is None:
        if not rows:
            raise DimensionMismatch("ambient dimension required for an empty basis")
        ambient_dim = len(rows[0])
    return IntegerLattice(ambient_dim, _hnf_rows(rows, ambient_dim))


def kernel_z(matrix, ncols=None) -> IntegerLattice:
    """{v in Z^n : matrix . v = 0}, exact."""
    rows = [list(r) for r in matrix]
    if ncols is None:
        if not rows:
            raise DimensionMismatch("ambient dimension required for an empty matrix")
        ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise DimensionMismatch("ragged matrix")
    m = len(rows)
    if m == 0:
        return IntegerLattice(ncols, _hnf_rows([[int(i == j) for j in range(ncols)] for i in range(ncols)], ncols))
    # HNF of [A^T | I]: rows whose A^T-part vanished carry kernel vectors
    stacked = [[rows[i][j] for i in range(m)] + [int(k == j) for k in range(ncols)] for j in range(ncols)]
    reduced = _hnf_rows(stacked, m + ncols)
    kernel_rows = [r[m:] for r in reduced if not any(r[:m])]
    return IntegerLattice(ncols, _hnf_rows(kernel_rows, ncols))


def member(lat: IntegerLattice, v) -> bool:
    v = list(map(int, v))
    if len(v) != lat.ambient_dim:
        raise DimensionMismatch("vector length mismatch")
    for row in lat.basis:
        col = next(i for i, x in enumerate(row) if x)
        if v[col] % row[col] != 0:
            return False
        q = v[col] // row[col]
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def equal(a: IntegerLattice, b: IntegerLattice) -> bool:
    return a.ambient_dim == b.ambient_dim and a.basis == b.basis


def is_trivial(lat: IntegerLattice) -> bool:
    """True iff every lattice vector has all coordinates equal."""
    return all(len(set(row)) == 1 for row in lat.basis)


# ---------------------------------------------------------------------------
# multiplicative relations of rational vectors


def rat_mult_lattice(values) -> IntegerLattice:
    """{u in Z^n : prod values[i]^u[i] = 1} for nonzero rationals, exact.

    Built from the prime-exponent matrix plus one sign congruence; the sign
    condition (sum of sign bits even) is realized as an integer kernel by
    appending a helper column scaled by 2.
    """
    vals = [Fraction(v) for v in values]
    if any(v == 0 for v in vals):
        raise ZeroEntry("multiplicative lattice of a zero entry")
    n = len(vals)
    primes = set()
    expos = []
    signs = []
    for v in vals:
        e = factor_int(v.numerator)
        for p, k in factor_int(v.denominator).items():
            e[p] = e.get(p, 0) - k
        expos.append(e)
        signs.append(1 if v < 0 else 0)
        primes.update(e.keys())
    primes = sorted(primes)
    rows = [[expos[i].get(p, 0) for i in range(n)] + [0] for p in primes]
    rows.append(signs + [2])
    ker = kernel_z(rows, n + 1)
    projected = [row[:n] for row in ker.basis]
    return hnf(projected, n)


def verify_rat_relation(values, u) -> bool:
    acc = Fraction(1)
    for v, e in zip(values, u):
        acc *= Fraction(v) ** int(e)
    return acc == 1


# ---------------------------------------------------------------------------
# relation lattice of an irreducible all-roots-of-rational polynomial


def ror_lattice(g: UnivariatePolynomial, witness, roots=None) -> IntegerLattice:
    """Exact exponent lattice of an irreducible g all of whose roots have
    m-th power equal to the rational q (witness = (m, q) or RorWitness).

    Each root is identified as zeta_m^e * rho with rho the principal m-th
    root of q; the identification is numeric but unique below the proven
    separation of the roots of x^m - q, and the witness itself is validated
    exactly, so the returned lattice is exact.
    """
    m = witness.m if hasattr(witness, "m") else witness[0]
    q = Fraction(witness.q if hasattr(witness, "q") else witness[1])
    n = g.degree
    expected = poly([-q.numerator, q.denominator]) ** n
    if expected.lc < 0:
        expected = -expected
    if graeffe(g, m) != expected.primitive_part():
        raise WitnessInvalid(f"graeffe(g, {m}) != (x - {q})^{n}")

    if abs(q) == 1:
        # all roots are roots of unity of order dividing N
        big_n = m if q == 1 else 2 * m
        cyc = poly([-1] + [0] * (big_n - 1) + [1])
        if not divides(g, cyc):
            raise WitnessInvalid("roots are not the expected roots of unity")
        exps = _match_radical_roots(g, big_n, Fraction(1), roots)
        ker = kernel_z([list(exps) + [big_n]], n + 1)
        return hnf([row[:n] for row in ker.basis], n)

    # |q| != 1: value of a relation is rho^(sum u) * zeta_m^(sum e_j u_j)
    xq = poly([-q.numerator] + [0] * (m - 1) + [q.denominator])
    if not divides(g, xq):
        raise WitnessInvalid("g does not divide x^m - q")
    exps = _match_radical_roots(g, m, q, roots)
    rows = [[1] * n + [0], list(exps) + [m]]
    ker = kernel_z(rows, n + 1)
    return hnf([row[:n] for row in ker.basis], n)


def _match_radical_roots(g, m, q, roots):
    """Exponent e_j with root_j = rho * zeta_m^(e_j), rho principal m-th root of q."""
    n = g.degree
    dps = 30
    while True:
        rts = roots if roots is not None else approx_roots(g, dps)
        with mpmath.workdps(dps + 10):
            qm = mpmath.mpf(q.numerator) / mpmath.mpf(q.denominator)
            rho = mpmath.power(mpmath.mpc(qm), mpmath.mpf(1) / m)
            sep = abs(rho) * 2 * mpmath.sin(mpmath.pi / m) if m > 1 else abs(rho)
            exps = []
            ok = True
            for r in rts:
                ratio = r / rho
                e = int(mpmath.nint(mpmath.arg(ratio) * m / (2 * mpmath.pi))) % m
                target = rho * mpmath.exp(2j * mpmath.pi * e / m)
                if abs(r - target) > sep / 4:
                    ok = False
                    break
                exps.append(e)
        if ok:
            return exps
        roots = None
        dps *= 2
        if dps > 2000:
            raise WitnessInvalid("could not certify root identification")


# ---------------------------------------------------------------------------
# rational spans


class QSubspace:
    """Rational row space handle with exact membership."""

    def __init__(self, rows, ambient_dim):
        self.ambient_dim = ambient_dim
        self.rows, self.pivots = _linalg.rref(rows) if rows else ([], [])

    @property
    def dim(self):
        return len(self.rows)

    def contains(self, v):
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector length mismatch")
        if not self.rows:
            return not any(Fraction(x) != 0 for x in v)
        return _linalg.row_space_contains(self.rows, self.pivots, v)

    def __eq__(self, other):
        return (
            isinstance(other, QSubspace)
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )


def span(lat: IntegerLattice) -> QSubspace:
    return QSubspace([list(r) for r in lat.basis], lat.ambient_dim)


def span_plus_allones(lat: IntegerLattice) -> QSubspace:
    n = lat.ambient_dim
    rows = [list(r) for r in lat.basis] + [[1] * n]
    return QSubspace(rows, n)


def rational_span_sum_contains(lat: IntegerLattice, v) -> bool:
    return span_plus_allones(lat).contains(v)
