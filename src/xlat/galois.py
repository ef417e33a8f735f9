"""Galois-group identification for irreducible polynomials of degree 2..7.

The returned group is an entry of an embedded catalog of the 36 transitive
permutation groups of degree 2..7 (classical data, revalidated on load and
in the test suite).  Identification pipeline:

1. exact parity certificate: disc(f) a rational square  <=>  group even;
2. one loop over the good primes from 3: the factor degrees of f modulo
   each prime are a Frobenius cycle type (Dedekind), which excludes
   candidates, and also bound the degrees a rational factor of f could have,
   which proves f irreducible once no proper degree is left (Musser);
   an input whose proof is still open after four primes is factored once;
3. resolvent certificates: factor-degree patterns of linear resolvents
   (pair sums, triple sums, weighted ordered pairs) built exactly from power
   sums, plus two orbit resolvents (perfect matchings at degree 6, the
   six-coset quartic invariant at degree 5) built numerically with
   dual-precision integer rounding; patterns are compared against
   precomputed orbit tables;
4. anything still ambiguous is an explicit GaloisFail.

Every observed cycle type is checked to occur in the returned group.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import mpmath

from .arith import primes_from
from .errors import (
    CatalogCorrupt,
    DegreeOutOfRange,
    GaloisFail,
    InternalError,
    NotIrreducible,
    PrecisionExhausted,
)
from .permgroup import PermutationGroup
from .polycore import (
    UnivariatePolynomial,
    discriminant,
    factor_degrees_mod_p,
    factor_z,
    is_irreducible_z,
    is_squarefree,
    poly_from_power_sums,
    power_sums,
    subset_degree_sums,
)

_DATA_DIR = Path(__file__).parent / "data"

CATALOG_COUNTS = {2: 1, 3: 2, 4: 5, 5: 5, 6: 16, 7: 7}
RESOLVENT_KINDS = {2: [], 3: [], 4: ["P2", "OP2"], 5: ["P2", "OP2", "COS6"], 6: ["P2", "P3", "OP2", "M15"], 7: ["P2", "P3"]}

DEFAULT_PRIME_BUDGET = 80
_PROOF_PRIMES = 4  # primes sampled before an open irreducibility proof falls back to factor_z


@dataclass
class TransitiveGroupEntry:
    degree: int
    t_number: int
    name: str
    order: int
    generators: tuple
    group: PermutationGroup
    is_2transitive: bool
    is_2homogeneous: bool
    parity_even: bool
    _cycle_types: set | None = field(default=None, repr=False)

    def cycle_type_set(self):
        if self._cycle_types is None:
            self._cycle_types = set(self.group.cycle_types())
        return self._cycle_types

    def label(self) -> str:
        if self.t_number is None:
            return f"{self.degree}T?({self.name})"
        return f"{self.degree}T{self.t_number}"

    def to_json(self):
        return {
            "degree": self.degree,
            "t_number": self.t_number,
            "order": self.order,
            "name": self.name,
        }


def entry_for_group(
    group: PermutationGroup, name: str = "user", t_number=None, generators=None
) -> TransitiveGroupEntry:
    """The entry of a permutation group: its order and its 2-transitivity,
    2-homogeneity and parity flags.  A group supplied without catalog data
    (degrees beyond the catalog, or a caller that already knows the group)
    gets no T-number and its generators in cycle notation."""
    if generators is None:
        generators = tuple(g.to_cycle_string() for g in group.generators)
    return TransitiveGroupEntry(
        degree=group.degree,
        t_number=t_number,
        name=name,
        order=group.order(),
        generators=generators,
        group=group,
        is_2transitive=group.is_2transitive(),
        is_2homogeneous=group.is_2homogeneous(),
        parity_even=group.is_even_subgroup(),
    )


# ---------------------------------------------------------------------------
# catalog


_catalog_cache = {}


def _catalog_path() -> Path:
    override = os.environ.get("XLAT_CATALOG")
    return Path(override) if override else _DATA_DIR / "catalog.txt"


def load_catalog():
    """All entries, validated: checksum, counts per degree, orders, transitivity."""
    path = _catalog_path()
    key = str(path)
    if key in _catalog_cache:
        return _catalog_cache[key]
    try:
        text = path.read_text()
    except OSError as exc:
        raise CatalogCorrupt(f"cannot read catalog: {exc}") from exc
    sha_path = path.with_suffix(".sha256")
    try:
        expected = sha_path.read_text().strip()
    except OSError as exc:
        raise CatalogCorrupt(f"cannot read catalog checksum: {exc}") from exc
    digest = hashlib.sha256(text.encode()).hexdigest()
    if digest != expected:
        raise CatalogCorrupt("catalog checksum mismatch")

    entries = []
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 5:
            raise CatalogCorrupt(f"bad catalog line: {line!r}")
        degree, t_number, order = int(parts[0]), int(parts[1]), int(parts[2])
        name = parts[3]
        gens = tuple(parts[4:])
        group = PermutationGroup(degree, [g.replace(",", " ") for g in gens])
        if group.order() != order:
            raise CatalogCorrupt(f"{degree}T{t_number}: order {group.order()} != {order}")
        if not group.is_transitive():
            raise CatalogCorrupt(f"{degree}T{t_number}: not transitive")
        entries.append(entry_for_group(group, name, t_number=t_number, generators=gens))
    counts = {}
    for e in entries:
        counts[e.degree] = counts.get(e.degree, 0) + 1
    if counts != CATALOG_COUNTS:
        raise CatalogCorrupt(f"catalog counts {counts} != {CATALOG_COUNTS}")
    _catalog_cache[key] = entries
    return entries


def catalog_for_degree(degree: int):
    return [e for e in load_catalog() if e.degree == degree]


_resolvent_table_cache = None


def resolvent_table():
    global _resolvent_table_cache
    if _resolvent_table_cache is None:
        table = {}
        text = (_DATA_DIR / "resolvents.txt").read_text()
        for line in text.splitlines():
            if not line.strip():
                continue
            degree, t, kind, pattern = line.split()
            table[(int(degree), int(t), kind)] = tuple(int(x) for x in pattern.split(","))
        _resolvent_table_cache = table
    return _resolvent_table_cache


# ---------------------------------------------------------------------------
# cycle types (Dedekind reduction)


def _good_primes(f, disc):
    """Odd primes dividing neither disc(f) (passed in) nor lc(f): f stays
    squarefree of the same degree modulo each, so its factor degrees there
    are a Frobenius cycle type."""
    bad = abs(disc.numerator * disc.denominator * f.lc)
    for p in primes_from(3):
        if bad % p:
            yield p


def _is_rational_square(x: Fraction) -> bool:
    if x < 0:
        return False
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    return rn * rn == x.numerator and rd * rd == x.denominator


# ---------------------------------------------------------------------------
# exact linear resolvents via power sums


def pair_sum_resolvent(f: UnivariatePolynomial) -> UnivariatePolynomial:
    """prod over {i<j} of (x - (r_i + r_j))."""
    n = f.degree
    deg = math.comb(n, 2)
    ps = power_sums(f, 2 * deg)
    out = [Fraction(deg)]
    for t in range(1, deg + 1):
        tot = sum(math.comb(t, a) * ps[a] * ps[t - a] for a in range(t + 1))
        out.append((tot - 2**t * ps[t]) / 2)
    return poly_from_power_sums(out, deg)


def ordered_pair_resolvent(f: UnivariatePolynomial) -> UnivariatePolynomial:
    """prod over i != j of (x - (r_i + 2 r_j))."""
    n = f.degree
    deg = n * (n - 1)
    ps = power_sums(f, 2 * deg)
    out = [Fraction(deg)]
    for t in range(1, deg + 1):
        tot = sum(math.comb(t, a) * ps[a] * 2 ** (t - a) * ps[t - a] for a in range(t + 1))
        out.append(tot - 3**t * ps[t])
    return poly_from_power_sums(out, deg)


def triple_sum_resolvent(f: UnivariatePolynomial) -> UnivariatePolynomial:
    """prod over {i<j<k} of (x - (r_i + r_j + r_k))."""
    n = f.degree
    deg = math.comb(n, 3)
    ps = power_sums(f, 3 * deg if deg else 0)
    out = [Fraction(deg)]
    for t in range(1, deg + 1):
        t0 = Fraction(0)
        for a in range(t + 1):
            for b in range(t - a + 1):
                c = t - a - b
                t0 += math.factorial(t) // (math.factorial(a) * math.factorial(b) * math.factorial(c)) * ps[a] * ps[b] * ps[c]
        v = sum(math.comb(t, a) * 2**a * ps[a] * ps[t - a] for a in range(t + 1))
        d3 = t0 - 3 * v + 2 * 3**t * ps[t]
        out.append(d3 / 6)
    return poly_from_power_sums(out, deg)


# ---------------------------------------------------------------------------
# orbit resolvents built numerically with certified integer rounding


def _matchings6():
    out = []
    for p1 in itertools.combinations(range(1, 7), 2):
        if p1[0] != 1:
            continue
        rest = [x for x in range(1, 7) if x not in p1]
        for p2 in itertools.combinations(rest, 2):
            if p2[0] != rest[0]:
                continue
            p3 = tuple(x for x in rest if x not in p2)
            out.append([tuple(p1), tuple(p2), tuple(p3)])
    return out


_DUMMIT_TERMS = (
    (1, 1, 2, 5), (1, 1, 3, 4), (2, 2, 1, 3), (2, 2, 4, 5), (3, 3, 1, 5),
    (3, 3, 2, 4), (4, 4, 1, 2), (4, 4, 3, 5), (5, 5, 1, 4), (5, 5, 2, 3),
)

_quintic_objects_cache = None


def _quintic_coset_objects():
    """The six images of the quartic invariant with stabilizer F20, one per
    left coset of F20 in S5, as monomial lists."""
    global _quintic_objects_cache
    if _quintic_objects_cache is not None:
        return _quintic_objects_cache
    f20 = PermutationGroup(5, ["(1 2 3 4 5)", "(2 3 5 4)"]).enumerate_elements()
    s5 = PermutationGroup(5, ["(1 2 3 4 5)", "(1 2)"]).enumerate_elements()
    seen = set()
    reps = []
    for e in s5:  # enumerate_elements is sorted, so reps are lexicographic minima
        key = frozenset((e * h).images for h in f20)
        if key not in seen:
            seen.add(key)
            reps.append(e)
    objects = []
    for rep in reps:
        terms = frozenset(
            tuple(sorted((rep(a), rep(b), rep(c), rep(d)))) for (a, b, c, d) in _DUMMIT_TERMS
        )
        objects.append([t for t in sorted(terms)])
    if len(objects) != 6 or len({frozenset(o) for o in objects}) != 6:
        raise InternalError("the quintic coset invariant does not have six distinct images")
    _quintic_objects_cache = objects
    return objects


def _numeric_orbit_resolvent(f: UnivariatePolynomial, objects) -> UnivariatePolynomial:
    """Monic integer polynomial prod over objects of (x - theta), where theta is
    a sum of monomials in the lc-scaled roots (an algebraic integer).  The
    integer coefficients are recovered by rounding and certified by recomputing
    at a higher precision."""
    n = f.degree
    height = abs(f.lc) + max(abs(c) for c in f.coeffs)
    max_deg = max(len(mono) for obj in objects for mono in obj)
    theta_bound = max(len(obj) for obj in objects) * height**max_deg
    digits = int(len(objects) * (mpmath.log10(theta_bound + 1)) + len(objects) * 0.4) + 10

    def coeffs_at(dps):
        with mpmath.workdps(dps):
            scaled = [c * f.lc ** (n - 1 - i) for i, c in enumerate(f.coeffs[:-1])] + [1]
            roots = mpmath.polyroots(list(reversed(scaled)), maxsteps=300, extraprec=2 * dps)
            roots = [mpmath.mpc(r)for r in roots]
            thetas = []
            for obj in objects:
                val = mpmath.mpc(0)
                for mono in obj:
                    term = mpmath.mpc(1)
                    for idx in mono:
                        term *= roots[idx - 1]
                    val += term
                thetas.append(val)
            acc = [mpmath.mpc(1)]
            for th in thetas:
                nxt = [mpmath.mpc(0)] * (len(acc) + 1)
                for i, c in enumerate(acc):
                    nxt[i + 1] += c
                    nxt[i] -= c * th
                acc = nxt
            return [int(mpmath.nint(mpmath.re(c))) for c in acc]

    dps = digits + 25
    first = coeffs_at(dps)
    second = coeffs_at(dps + 30)
    while first != second:
        dps *= 2
        if dps > 3000:
            raise PrecisionExhausted("orbit resolvent rounding failed to stabilize")
        first = coeffs_at(dps)
        second = coeffs_at(dps + 30)
    return UnivariatePolynomial(first)


# ---------------------------------------------------------------------------
# Tschirnhaus transformation (root relabeling r -> phi(r))


def _transform_map(index: int) -> UnivariatePolynomial:
    """Deterministic sequence of relabeling polynomials phi (no constant term).

    Quadratics alone cannot separate values that are symmetric under root
    multiplication by cube roots of unity (the low-degree terms cancel), so
    the sequence mixes in higher-degree maps.
    """
    if index <= 8:
        return UnivariatePolynomial([0, index, 1])  # x^2 + a x
    if index <= 16:
        return UnivariatePolynomial([0, index - 8, 0, 1])  # x^3 + a x
    if index <= 24:
        return UnivariatePolynomial([0, index - 16, 1, 1])  # x^3 + x^2 + a x
    from .rng import SplitMix64

    rng = SplitMix64(0x7AC1 + index)
    d = 2 + index % 4
    coeffs = [0] + [rng.randint(-3, 3) for _ in range(d - 1)] + [1]
    return UnivariatePolynomial(coeffs)


def tschirnhaus(f: UnivariatePolynomial, phi) -> UnivariatePolynomial:
    """Polynomial whose roots are phi(r) over the roots r of f (phi an integer
    polynomial, or an index into the deterministic transform sequence)."""
    if isinstance(phi, int):
        phi = _transform_map(phi)
    n = f.degree
    ps = power_sums(f, phi.degree * n)
    out = [Fraction(n)]
    power = UnivariatePolynomial([1])
    for _t in range(1, n + 1):
        power = power * phi
        out.append(sum((power[j] * ps[j] for j in range(power.degree + 1)), Fraction(0)))
    return poly_from_power_sums(out, n)


def _resolvent_of_kind(f: UnivariatePolynomial, kind: str) -> UnivariatePolynomial:
    if kind == "P2":
        return pair_sum_resolvent(f)
    if kind == "P3":
        return triple_sum_resolvent(f)
    if kind == "OP2":
        return ordered_pair_resolvent(f)
    if kind == "M15":
        return _numeric_orbit_resolvent(f, _matchings6())
    if kind == "COS6":
        return _numeric_orbit_resolvent(f, _quintic_coset_objects())
    raise ValueError(f"unknown resolvent kind {kind!r}")


def resolvent_pattern(f: UnivariatePolynomial, kind: str) -> tuple:
    """Factor-degree pattern of the (squarefree) resolvent of f of this kind.

    If the resolvent is not squarefree (coinciding values), the roots are
    relabeled by deterministic Tschirnhaus transformations until it is.
    """
    cur = f
    for a in range(0, 40):
        if a > 0:
            cur = tschirnhaus(f, a)
            if cur.degree != f.degree or not is_squarefree(cur):
                continue
        res = _resolvent_of_kind(cur, kind)
        if is_squarefree(res):
            degs = []
            for g, mult in factor_z(res).factors:
                degs.extend([g.degree] * mult)
            return tuple(sorted(degs))
    raise GaloisFail(f"no squarefree {kind} resolvent after 40 transformations")


# ---------------------------------------------------------------------------
# identification


_NEEDS_IRREDUCIBLE = "Galois identification needs an irreducible input with f(0) != 0"


def _require_irreducible(f: UnivariatePolynomial):
    if not is_irreducible_z(f):
        raise NotIrreducible(_NEEDS_IRREDUCIBLE)


def galois_group(
    f: UnivariatePolynomial,
    prime_budget: int = DEFAULT_PRIME_BUDGET,
    seed: int = 0,
) -> TransitiveGroupEntry:
    """The catalog entry permutation-isomorphic to the Galois group of f.

    prime_budget caps the primes of the sampling loop (at least one is
    taken), the primes that prove irreducibility included.
    """
    if f.degree < 2 or f.degree > 7:
        raise DegreeOutOfRange(f"degree {f.degree} outside 2..7 (supply --group instead)")
    if f(0) == 0:
        raise NotIrreducible(_NEEDS_IRREDUCIBLE)
    degree = f.degree
    disc = discriminant(f)
    if disc == 0:
        raise NotIrreducible(_NEEDS_IRREDUCIBLE)
    disc_square = _is_rational_square(disc)
    candidates = [e for e in catalog_for_degree(degree) if e.parity_even == disc_square]

    # bit k set: f may still have a rational factor of degree k; 0 once f is
    # proven irreducible.  A reducible f can empty the candidates, so the
    # loop ends only after the proof (or at the budget, then factor_z).
    possible = (1 << degree) - 2
    observed = []
    for p in _good_primes(f, disc):
        pattern = factor_degrees_mod_p(f, p)
        observed.append((p, pattern))
        candidates = [e for e in candidates if pattern in e.cycle_type_set()]
        possible &= subset_degree_sums(pattern)
        if possible and len(observed) == _PROOF_PRIMES:
            _require_irreducible(f)
            possible = 0
        if (not possible and len(candidates) <= 1) or len(observed) >= prime_budget:
            break
    if possible:
        _require_irreducible(f)

    if len(candidates) > 1:
        table = resolvent_table()
        for kind in RESOLVENT_KINDS[degree]:
            got = resolvent_pattern(f, kind)
            candidates = [e for e in candidates if table[(degree, e.t_number, kind)] == got]
            if len(candidates) <= 1:
                break

    if not candidates:
        raise InternalError("the true group was filtered out; catalog or input invalid")
    if len(candidates) > 1:
        raise GaloisFail(
            "ambiguous identification among " + ", ".join(e.label() for e in candidates)
        )
    winner = candidates[0]
    # Dedekind soundness: every observed Frobenius type occurs in the group
    types = winner.cycle_type_set()
    for p, pattern in observed:
        if pattern not in types:
            raise InternalError(f"cycle type {pattern} at p={p} not realized in {winner.label()}")
    return winner
