"""Root-permutation groups and the numeric exponent-lattice oracle.

This module is a verification lab, not a scalable decision procedure: the
lattice oracle detects integer relations among root logarithms by lattice
reduction and re-verifies every candidate at quadrupled precision (flagged
heuristic; completeness is never asserted), and the three root-permutation
groups are computed by filtering all n! permutations (n <= 8).

Groups computed from a pair of lattices (R = exact-value relations,
RQ = rational-value relations), for permutations s of root indices with
s_hat(v)[i] = v[s(i)]:

* relation_group:    s_hat maps every basis vector of R into R;
* value_group:       s_hat^{-1}(v) - v lies in R for every basis vector of RQ
                     (these permutations fix each rational value);
* rational_group:    s_hat maps every basis vector of RQ into RQ.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import mpmath

from .arith import factor_int
from .drivers import is_qtrivial_group
from .errors import DegreeTooLarge, InputError, InternalError, PrecisionExhausted
from .galois import galois_group
from .lattice import (
    IntegerLattice,
    hnf,
    is_trivial,
    member,
    rat_mult_lattice,
    span,
    span_plus_allones,
)
from .numtests import NOT_ROR, is_ror
from .permgroup import Permutation, PermutationGroup, conjugates_into, group_from_elements
from .polycore import UnivariatePolynomial, factor_z, is_squarefree
from .roots import approx_roots

_DATA_DIR = Path(__file__).parent / "data"


@dataclass
class RootSystem:
    polynomial: UnivariatePolynomial
    roots: tuple  # canonical order: by (Re, Im) ascending
    precision: int

    @staticmethod
    def of(f: UnivariatePolynomial, precision: int) -> "RootSystem":
        if not is_squarefree(f):
            raise InputError("root system needs a squarefree polynomial")
        roots = approx_roots(f, precision)
        with mpmath.workdps(precision):
            sep = min(
                abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1 :]
            ) if len(roots) > 1 else mpmath.mpf(1)
            if sep < mpmath.mpf(10) ** (-precision // 2):
                raise PrecisionExhausted("roots closer than the working precision")
        return RootSystem(polynomial=f, roots=tuple(roots), precision=precision)


# ---------------------------------------------------------------------------
# integer LLL (small dimensions, huge entries)


def _iround(num: int, den: int) -> int:
    """Nearest integer to num/den for den > 0."""
    return (2 * num + den) // (2 * den)


def lll_reduce(rows):
    """All-integer LLL (delta = 3/4) on linearly independent integer rows.

    Keeps the Gram-Schmidt data as the classical subdeterminants d_i and the
    scaled coefficients Lambda_{i,j} = mu_{i,j} d_{j+1}, so the whole run is
    exact integer arithmetic with incremental updates.
    """
    b = [list(map(int, r)) for r in rows]
    n = len(b)
    if n <= 1:
        return b

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    d = [0] * (n + 1)
    d[0] = 1
    d[1] = dot(b[0], b[0])
    lam = [[0] * n for _ in range(n)]
    kmax = 0

    def red(k, l):
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = _iround(lam[k][l], d[l + 1])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    def swap(k):
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        l = lam[k][k - 1]
        bb = (d[k - 1] * d[k + 1] + l * l) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - l * t) // d[k]
            lam[i][k - 1] = (bb * t + l * lam[i][k]) // d[k + 1]
        d[k] = bb

    k = 1
    while k < n:
        if k > kmax:
            kmax = k
            for j in range(k + 1):
                u = dot(b[k], b[j])
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
                else:
                    d[k + 1] = u
            if d[k + 1] == 0:
                raise ValueError("lll_reduce needs linearly independent rows")
        red(k, k - 1)
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] * d[k] - 4 * lam[k][k - 1] ** 2:
            swap(k)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                red(k, l)
            k += 1
    return b


# ---------------------------------------------------------------------------
# numeric relation detection


def numeric_lattices(
    f: UnivariatePolynomial,
    precision: int = 100,
    denominator_bound: int = 10**6,
):
    """Heuristic candidates for the exact-value and rational-value relation
    lattices of the roots of f, in canonical root order.

    Every returned relation is re-verified at four times the precision;
    completeness is NOT asserted (the result is an oracle for fixtures and
    cross-checks, and is flagged as such).
    """
    if f.is_zero or f(0) == 0:
        raise InputError("oracle needs f(0) != 0")
    if f.degree > 6:
        raise InputError("oracle is limited to degree <= 6")
    system = RootSystem.of(f, precision)
    n = f.degree
    roots = system.roots
    # detection runs at a capped scale (small relations separate from noise
    # long before the full working precision); the requested precision governs
    # root accuracy and the re-verification threshold
    detect_digits = min(precision, 72)

    with mpmath.workdps(precision):
        logs = [mpmath.log(abs(r)) for r in roots]
        args = [mpmath.arg(r) for r in roots]
        scale = mpmath.mpf(10) ** (detect_digits - 10)

        def s(x):
            return int(mpmath.nint(x * scale))

        # value-1 relations: u with sum u_i log r_i in 2 pi i Z
        rows = []
        for i in range(n):
            rows.append([int(i == j) for j in range(n)] + [0, s(logs[i]), s(args[i])])
        rows.append([0] * n + [1, 0, s(2 * mpmath.pi)])
        reduced = lll_reduce(rows)
        threshold = int(scale * mpmath.mpf(10) ** (-detect_digits // 2)) + 1
        cand_exact = _extract_candidates(reduced, n, threshold)

        # rational-value relations: allow prime-log and pi columns
        primes = sorted(factor_int(f.lc * f[0]))
        rows = []
        width = n + 1 + len(primes) + 2
        for i in range(n):
            rows.append(
                [int(i == j) for j in range(n)]
                + [0] * (1 + len(primes))
                + [s(logs[i]), s(args[i])]
            )
        for j, p in enumerate(primes):
            marker = [0] * (1 + len(primes))
            marker[1 + j] = 1
            rows.append([0] * n + marker + [-s(mpmath.log(p)), 0])
        rows.append([0] * n + [1] + [0] * len(primes) + [0, -s(mpmath.pi)])
        reduced = lll_reduce(rows)
        cand_rational = _extract_candidates(reduced, n, threshold)

    if cand_exact or cand_rational:
        vroots = approx_roots(f, 4 * precision)  # independent re-verification roots
    verified_exact = [u for u in cand_exact if _verify_value_one(vroots, u, precision)]
    verified_rational = [
        u
        for u in cand_rational
        if _verify_rational(vroots, u, precision, denominator_bound)
    ]
    r_f = hnf(verified_exact, n) if verified_exact else IntegerLattice(n, ())
    # exact-value relations are rational-value relations; keep the containment
    rq_rows = verified_rational + [list(r) for r in r_f.basis]
    r_fq = hnf(rq_rows, n) if rq_rows else IntegerLattice(n, ())
    return r_f, r_fq


def _extract_candidates(reduced, n, threshold):
    out = []
    for row in reduced:
        u = row[:n]
        if not any(u):
            continue
        if any(abs(x) > 10**6 for x in u):
            continue
        if all(abs(x) <= threshold for x in row[n + 1 :]):
            out.append(list(u))
    return out


def _power_product(roots, u, dps):
    with mpmath.workdps(dps):
        val = mpmath.mpc(1)
        for r, e in zip(roots, u):
            val *= mpmath.mpc(r) ** int(e)
        return val


def _verify_value_one(roots, u, precision):
    # recompute the roots at 4x precision for an independent check
    val = _power_product(roots, u, 4 * precision)
    with mpmath.workdps(4 * precision):
        return abs(val - 1) < mpmath.mpf(10) ** (-2 * precision)


def _verify_rational(roots, u, precision, denominator_bound):
    val = _power_product(roots, u, 4 * precision)
    with mpmath.workdps(4 * precision):
        if abs(mpmath.im(val)) > mpmath.mpf(10) ** (-2 * precision) * (1 + abs(val)):
            return False
        re = mpmath.re(val)
        k = precision
        approx = Fraction(int(mpmath.nint(re * mpmath.mpf(10) ** k)), 10**k)
        target = approx.limit_denominator(denominator_bound)
        return abs(re - mpmath.mpf(target.numerator) / target.denominator) < mpmath.mpf(10) ** (
            -precision // 2
        )


# ---------------------------------------------------------------------------
# root-permutation groups from lattice bases


@dataclass
class GaloisLikeTriple:
    """The three relation-preserving permutation groups of a root system."""

    relation_group: tuple  # permutations preserving every exact relation
    value_group: tuple  # permutations fixing every rational root-power value
    rational_group: tuple  # permutations preserving rationality of values
    degree: int
    _groups: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def wrapped(self, which: str) -> PermutationGroup:
        """The named element set as a PermutationGroup, built on first use."""
        if which not in self._groups:
            self._groups[which] = group_from_elements(self.degree, list(getattr(self, which)))
        return self._groups[which]

    def orders(self):
        return {
            "relation_group": len(self.relation_group),
            "value_group": len(self.value_group),
            "rational_group": len(self.rational_group),
        }


def _apply_hat(perm: Permutation, v):
    """s_hat(v)[i] = v[s(i)] for a relation vector v."""
    return [v[perm(i + 1) - 1] for i in range(len(v))]


def galois_like_groups(r_f: IntegerLattice, r_fq: IntegerLattice, n: int) -> GaloisLikeTriple:
    if n > 8:
        raise DegreeTooLarge("permutation filtering is capped at degree 8")
    if r_f.ambient_dim != n or r_fq.ambient_dim != n:
        raise InputError("lattice dimensions must match the degree")
    for v in r_f.basis:
        if not member(r_fq, list(v)):
            raise InputError("exact-value lattice must lie inside the rational-value lattice")
    rel, val, rat = [], [], []
    basis_f = [list(v) for v in r_f.basis]
    basis_fq = [list(v) for v in r_fq.basis]
    for images in itertools.permutations(range(1, n + 1)):
        perm = Permutation(images)
        inv = perm.inverse()
        if all(member(r_f, _apply_hat(perm, v)) for v in basis_f):
            rel.append(perm)
        if all(member(r_fq, _apply_hat(perm, v)) for v in basis_fq):
            rat.append(perm)
        if all(
            member(r_f, [a - b for a, b in zip(_apply_hat(inv, v), v)]) for v in basis_fq
        ):
            val.append(perm)
    triple = GaloisLikeTriple(
        relation_group=tuple(rel), value_group=tuple(val), rational_group=tuple(rat), degree=n
    )
    value_set = set(triple.value_group)
    if not value_set <= set(triple.relation_group) or not value_set <= set(triple.rational_group):
        raise InternalError("the value group is not inside the relation and rational groups")
    return triple


# ---------------------------------------------------------------------------
# roots classified by factor (rational / root-of-rational / neither)


@dataclass
class RootClassification:
    factors: tuple  # (factor, is_rational_root, ror_witness_or_NOT_ROR)
    positions: dict  # canonical root index (0-based) -> factor index
    rational_values: tuple  # Fractions, in canonical position order
    nonror_positions: tuple
    ror_irrational_positions: tuple
    irreducible: bool  # f is irreducible over Q


def classify_roots(f: UnivariatePolynomial, system: RootSystem) -> RootClassification:
    fac = factor_z(f)
    infos = []
    for g, mult in fac.factors:
        if mult != 1:
            raise InputError("classification needs a squarefree polynomial")
        if g.degree == 1:
            infos.append((g, True, None))
        else:
            infos.append((g, False, is_ror(g)))
    positions = {}
    with mpmath.workdps(system.precision):
        for idx, r in enumerate(system.roots):
            best = min(
                range(len(infos)), key=lambda i: abs(infos[i][0](mpmath.mpc(r)))
            )
            positions[idx] = best
    # each factor must claim exactly as many positions as its degree
    claimed = {}
    for idx, fi in positions.items():
        claimed[fi] = claimed.get(fi, 0) + 1
    for fi, (g, _lin, _w) in enumerate(infos):
        if claimed.get(fi, 0) != g.degree:
            raise PrecisionExhausted("root-to-factor matching is ambiguous")
    rational_values = []
    nonror = []
    ror_irr = []
    for idx in sorted(positions):
        g, is_lin, witness = infos[positions[idx]]
        if is_lin:
            rational_values.append(Fraction(-g[0], g[1]))
        elif witness is NOT_ROR:
            nonror.append(idx)
        else:
            ror_irr.append(idx)
    return RootClassification(
        factors=tuple(infos),
        positions=positions,
        rational_values=tuple(rational_values),
        nonror_positions=tuple(nonror),
        ror_irrational_positions=tuple(ror_irr),
        irreducible=fac.is_irreducible,
    )


def _product_of_nonror_roots(cls: RootClassification) -> Fraction:
    out = Fraction(1)
    for g, is_lin, witness in cls.factors:
        if not is_lin and witness is NOT_ROR:
            out *= (-1) ** g.degree * Fraction(g[0], g.lc)
    return out


def _rational_vector(cls: RootClassification) -> tuple:
    """The product of the non-root-of-rational roots, then the rational
    roots; the product is left out when only rational roots exist."""
    has_rational = len(cls.rational_values) > 0
    has_nonror = len(cls.nonror_positions) > 0
    if has_nonror and has_rational:
        return (_product_of_nonror_roots(cls),) + cls.rational_values
    if has_rational:
        return cls.rational_values
    return (_product_of_nonror_roots(cls),)


# ---------------------------------------------------------------------------
# theorem checkers


@dataclass
class TrivialityReport:
    polynomial: UnivariatePolynomial
    lattice: IntegerLattice
    left_trivial: bool
    cond_group_full: bool
    cond_roots: bool
    cond_third: bool  # vector lattice trivial / irreducibility
    right: bool
    holds: bool
    detail: dict = field(default_factory=dict)


def _oracle_view(f: UnivariatePolynomial, precision: int, lattices):
    """The oracle lattices (unless supplied), their Galois-like groups and the
    root classification of f."""
    system = RootSystem.of(f, precision)
    r_f, r_fq = lattices if lattices is not None else numeric_lattices(f, precision)
    triple = galois_like_groups(r_f, r_fq, f.degree)
    return r_f, r_fq, triple, classify_roots(f, system)


def check_rftri(f: UnivariatePolynomial, precision: int = 100, lattices=None) -> TrivialityReport:
    """Both sides of the exact-value triviality characterization.

    Left: triviality of the (oracle) relation lattice.  Right: the relation
    group is all of Sym(n), every root is rational or not a root of rational,
    and the multiplicative lattice of the assembled rational vector (the
    product of all non-root-of-rational roots, prepended to the rational
    roots) is trivial.  The report asserts the biconditional.
    """
    _check_pre(f)
    r_f, r_fq, triple, cls = _oracle_view(f, precision, lattices)
    left = is_trivial(r_f)
    cond_group = len(triple.relation_group) == math.factorial(f.degree)
    cond_roots = len(cls.ror_irrational_positions) == 0
    cond_third = True
    vector = None
    if cond_roots:
        vector = _rational_vector(cls)
        cond_third = is_trivial(rat_mult_lattice(vector))
    right = cond_group and cond_roots and cond_third
    return TrivialityReport(
        polynomial=f,
        lattice=r_f,
        left_trivial=left,
        cond_group_full=cond_group,
        cond_roots=cond_roots,
        cond_third=cond_third,
        right=right,
        holds=left == right,
        detail={"vector": vector, "group_order": len(triple.relation_group)},
    )


def check_rfqtri(f: UnivariatePolynomial, precision: int = 100, lattices=None) -> TrivialityReport:
    """Both sides of the rational-value triviality characterization.

    Right side: the value group is all of Sym(n); either deg f = 1 or no
    root is a root of rational; and f is irreducible.
    """
    _check_pre(f)
    r_f, r_fq, triple, cls = _oracle_view(f, precision, lattices)
    left = is_trivial(r_fq)
    cond_group = len(triple.value_group) == math.factorial(f.degree)
    no_ror_roots = len(cls.rational_values) == 0 and len(cls.ror_irrational_positions) == 0
    cond_roots = f.degree == 1 or no_ror_roots
    cond_third = cls.irreducible
    right = cond_group and cond_roots and cond_third
    return TrivialityReport(
        polynomial=f,
        lattice=r_fq,
        left_trivial=left,
        cond_group_full=cond_group,
        cond_roots=cond_roots,
        cond_third=cond_third,
        right=right,
        holds=left == right,
        detail={"group_order": len(triple.value_group)},
    )


def _check_pre(f):
    if f.is_zero or f(0) == 0:
        raise InputError("needs f(0) != 0")
    if not is_squarefree(f):
        raise InputError("needs a squarefree polynomial")
    if f.degree > 6:
        raise InputError("oracle-backed checks are limited to degree <= 6")


# ---------------------------------------------------------------------------
# corpus-wide structural properties


@dataclass
class CorpusItemResult:
    polynomial: UnivariatePolynomial
    checks: dict  # name -> True / False / "n/a"
    failures: list


def _is_closed_group(triple: GaloisLikeTriple, which: str) -> bool:
    elements = getattr(triple, which)
    if Permutation.identity(triple.degree) not in elements:
        return False
    if len(elements) == math.factorial(triple.degree):
        return True
    wrapped = triple.wrapped(which)
    if wrapped.order() != len(elements):
        return False
    return all(wrapped.contains(e) for e in elements)


def check_section3_properties(
    corpus,
    precision: int = 100,
) -> list:
    """Run the structural properties over a corpus of squarefree polynomials:
    group closure, Galois containment, span/triviality links for a transitive
    value group, the equal-coordinate condition on non-ROR positions under
    2-transitivity, and the four-way equivalences.  Per-item failures are
    collected, not thrown.  Corpus entries are polynomials or pairs
    (polynomial, (R, RQ)) with precomputed oracle lattices."""
    results = []
    for entry in corpus:
        f, lattices = entry if isinstance(entry, tuple) else (entry, None)
        checks = {}
        failures = []
        try:
            r_f, r_fq, triple, cls = _oracle_view(f, precision, lattices)
            n = f.degree

            # (a) each filtered set is a group
            for which in ("relation_group", "value_group", "rational_group"):
                ok = _is_closed_group(triple, which)
                checks[f"closure:{which}"] = ok
                if not ok:
                    failures.append(f"closure failed: {which}")

            # containments
            ok = set(triple.value_group) <= set(triple.relation_group) and set(
                triple.value_group
            ) <= set(triple.rational_group)
            checks["containment"] = ok
            if not ok:
                failures.append("value group not contained in the other groups")

            # (b) the Galois group embeds in the value group (irreducible inputs)
            if cls.irreducible and 2 <= n <= 7:
                try:
                    entry = galois_group(f)
                    ok = conjugates_into(entry.group, set(triple.value_group).__contains__)
                    checks["galois_embeds"] = ok
                    if not ok:
                        failures.append("Galois group does not embed in the value group")
                except Exception as exc:  # GaloisFail etc: record, do not throw
                    checks["galois_embeds"] = "n/a"
                    failures.append(f"galois identification unavailable: {exc}")
            else:
                checks["galois_embeds"] = "n/a"

            # (c) transitive value group: rational span identity + biconditional
            value_grp = triple.wrapped("value_group") if triple.value_group else None
            if value_grp is not None and n >= 2 and value_grp.degree >= 2 and value_grp.is_transitive():
                lhs = span(r_fq)
                rhs = span_plus_allones(r_f)
                ok = lhs == rhs
                checks["span_sum"] = ok
                if not ok:
                    failures.append("rational span of RQ != span(R) + all-ones line")
                ok2 = is_trivial(r_f) == is_trivial(r_fq)
                checks["triviality_biconditional"] = ok2
                if not ok2:
                    failures.append("triviality biconditional failed")
            else:
                checks["span_sum"] = "n/a"
                checks["triviality_biconditional"] = "n/a"

            # (d) 2-transitivity forces equal coordinates on non-ROR positions:
            # the exact lattice under the relation group, the rational-value
            # lattice under either of the other two groups
            checks["equal_coords_exact"] = _equal_coords_check(
                triple, ("relation_group",), r_f, cls
            )
            checks["equal_coords_rational"] = _equal_coords_check(
                triple, ("value_group", "rational_group"), r_fq, cls
            )
            for key in ("equal_coords_exact", "equal_coords_rational"):
                if checks[key] == "failed":
                    failures.append(f"{key}: coordinate condition violated")

            # (e) four-way equivalences when the side conditions hold
            checks["four_equivalent_exact"] = _four_equivalences(
                triple, "relation_group", cls, rfq_side=False
            )
            for which in ("value_group", "rational_group"):
                checks[f"four_equivalent_{which}"] = _four_equivalences(
                    triple, which, cls, rfq_side=True
                )
            for key in (
                "four_equivalent_exact",
                "four_equivalent_value_group",
                "four_equivalent_rational_group",
            ):
                if checks[key] == "failed":
                    failures.append(f"{key}: equivalence broken")
        except Exception as exc:
            failures.append(f"exception: {type(exc).__name__}: {exc}")
        results.append(CorpusItemResult(polynomial=f, checks=checks, failures=failures))
    return results


def _equal_coords_check(triple, which_names, lattice, cls):
    """On non-ROR positions every relation has equal coordinates, all equal to
    the coordinate average, whenever one of the named groups is 2-transitive."""
    n = triple.degree
    if n < 2:
        return "n/a"
    two_transitive = False
    for which in which_names:
        if len(getattr(triple, which)) < 2:
            continue
        if triple.wrapped(which).is_2transitive():
            two_transitive = True
            break
    if not two_transitive:
        return "n/a"
    nonror = cls.nonror_positions
    for v in lattice.basis:
        total = sum(v)
        if any(Fraction(v[i]) != Fraction(total, n) for i in nonror):
            return "failed"
    return True


def _four_equivalences(triple, which, cls, rfq_side):
    n = triple.degree
    if n < 2:
        return "n/a"
    if rfq_side:
        side = (
            len(cls.rational_values) == 0
            and len(cls.ror_irrational_positions) == 0
            and cls.irreducible
        )
    else:
        side = len(cls.ror_irrational_positions) == 0 and is_trivial(
            rat_mult_lattice(_rational_vector(cls))
        )
    if not side:
        return "n/a"
    full = len(getattr(triple, which)) == math.factorial(n)
    grp = triple.wrapped(which)
    try:
        two_trans = grp.is_2transitive()
        two_homog = grp.is_2homogeneous()
        transitive = grp.is_transitive()
    except Exception:
        return "n/a"
    qtriv = False
    if transitive:
        try:
            qtriv = is_qtrivial_group(grp).verdict
        except Exception:
            return "n/a"
    four = [full, two_trans, two_homog, transitive and qtriv]
    return True if len(set(four)) == 1 else "failed"


# ---------------------------------------------------------------------------
# fixture corpus


def load_corpus(path: Path | None = None):
    """Corpus items: dicts with UnivariatePolynomial under 'polynomial'."""
    path = path or (_DATA_DIR / "corpus.jsonl")
    items = []
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        obj["polynomial"] = UnivariatePolynomial(obj["polynomial"])
        items.append(obj)
    return items
