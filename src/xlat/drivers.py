"""Top-level decision pipelines.

* is_qtrivial: decides whether the Galois pair (group + root stabilizer) of
  an irreducible rational polynomial acts Q-trivially, i.e. whether the
  permutation module on the roots admits no rational invariant subspace
  beyond 0 and the all-ones line.  Steps, in order: input validation
  (reducible or vanishing constant term, or a supplied group that is not
  transitive of the input's degree, is an error), prime-degree shortcut,
  Galois group identification, double-transitivity shortcut, the
  degree-class test (outside the prime-power / 2^(f-1)(2^f-1) set the answer
  is forced negative), and finally the cyclic-module + irreducibility check.

* fastbasis_plus: computes the exponent lattice R_f for the generic class
  E+ of polynomials c*g^k with g irreducible, x not dividing g, and either
  all roots of g roots of rational or the pair of g Q-trivial; returns the
  special symbol "F" outside that class.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

from .arith import is_prime, is_prime_power
from .errors import GaloisFail, InputError, InternalError, ModuleCheckInconclusive, NotIrreducible
from .galois import TransitiveGroupEntry, entry_for_group, galois_group
from .lattice import IntegerLattice, hnf, ror_lattice
from .numtests import NOT_ROR, RorWitness, is_ror
from .permgroup import PermutationGroup
from .polycore import (
    NOT_PRIME_POWER,
    UnivariatePolynomial,
    factor_z,
    power_form,
)
from .qmodule import Irreducible, QModuleAction, UNDECIDED, is_q_irreducible, spin

PATH_PRIME = "PrimeDegree"
PATH_2TRANS = "DoublyTransitive"
PATH_NOT_IN_S = "NotInS"
PATH_MODULE = "ModuleCheck"


@dataclass
class QtrivialVerdict:
    verdict: bool
    path: str
    group: TransitiveGroupEntry | None
    timings_ms: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "verdict": self.verdict,
            "path": self.path,
            "group": self.group.to_json() if self.group else None,
            "timings_ms": self.timings_ms,
        }


@dataclass
class FastBasisResult:
    status: str  # "Basis" | "F"
    basis: IntegerLattice | None
    certificate: str | None  # "AllRor" | "QtrivialTrivialLattice"
    content: Fraction | None
    base: UnivariatePolynomial | None
    exponent: int | None
    reason: str | None = None
    timings_ms: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "status": self.status,
            "basis": self.basis.to_json() if self.basis else None,
            "certificate": self.certificate,
            "power": None
            if self.base is None
            else {
                "content": str(self.content),
                "base_coefficients": list(self.base.coeffs),
                "exponent": self.exponent,
            },
            "reason": self.reason,
            "timings_ms": self.timings_ms,
        }


# ---------------------------------------------------------------------------
# the degree class S


def in_set_S(n: int) -> bool:
    """Prime powers together with 2^(f-1)(2^f-1) for f >= 3 with 2^f-1 prime."""
    if n < 2:
        raise ValueError("set membership defined for n >= 2")
    if is_prime_power(n):
        return True
    f = 3
    while True:
        val = 2 ** (f - 1) * (2**f - 1)
        if val > n:
            return False
        if val == n and is_prime(2**f - 1):
            return True
        f += 1


# ---------------------------------------------------------------------------
# IsQtrivial


def _module_check(group: PermutationGroup, seed: int) -> bool:
    """Steps 6-10: spin u = e_s - e_1, require full dimension and irreducibility."""
    n = group.degree
    action = QModuleAction.from_group(group)
    # the image of a point s with s != 1 exists for transitive groups; u = e_2 - e_1
    u = action.vector_from_point_difference(2, 1)
    b = spin(action, u)
    if b.dim != n - 1:
        return False
    outcome = is_q_irreducible(action, seed=seed)
    if outcome is UNDECIDED:
        raise ModuleCheckInconclusive(
            "rational irreducibility undecided within the iteration budget"
        )
    return isinstance(outcome, Irreducible)


def is_qtrivial(
    f: UnivariatePolynomial,
    group: TransitiveGroupEntry | None = None,
    seed: int = 0,
    prime_budget: int = 80,
) -> QtrivialVerdict:
    """Decide Q-triviality of the pair attached to an irreducible polynomial."""
    t_start = time.perf_counter()
    timings = {}
    if f.is_zero or f(0) == 0:
        raise InputError("input must satisfy f(0) != 0")
    if f.degree < 2:
        raise InputError("the pair decision needs degree >= 2")
    n = f.degree
    if group is not None and (group.degree != n or not group.group.is_transitive()):
        # the Galois group of an irreducible polynomial is transitive on its
        # roots, and the module check relies on it
        raise InputError(f"the supplied group is not a transitive group of degree {n}")
    # galois_group proves irreducibility itself at degrees 2..7, so when the
    # group is needed from f its factorization is the only one
    group_checks_irreducible = group is None and n <= 7 and not is_prime(n)
    if not group_checks_irreducible and not factor_z(f).is_irreducible:
        raise InputError("input polynomial is reducible")

    if is_prime(n):
        timings["total_ms"] = 1000 * (time.perf_counter() - t_start)
        return QtrivialVerdict(verdict=True, path=PATH_PRIME, group=None, timings_ms=timings)

    if group is None:
        t0 = time.perf_counter()
        try:
            group = galois_group(f, prime_budget=prime_budget, seed=seed)
        except NotIrreducible:
            raise InputError("input polynomial is reducible") from None
        timings["galois_ms"] = 1000 * (time.perf_counter() - t0)

    verdict = _qtrivial_from_group_entry(group, n, seed, timings)
    timings["total_ms"] = 1000 * (time.perf_counter() - t_start)
    verdict.timings_ms = timings
    return verdict


def _qtrivial_from_group_entry(entry, n, seed, timings) -> QtrivialVerdict:
    if entry.is_2transitive:
        if not entry.group.is_2transitive():
            raise InternalError(f"{entry.label()} is flagged 2-transitive but its group is not")
        return QtrivialVerdict(verdict=True, path=PATH_2TRANS, group=entry)
    if not in_set_S(n):
        return QtrivialVerdict(verdict=False, path=PATH_NOT_IN_S, group=entry)
    t0 = time.perf_counter()
    ok = _module_check(entry.group, seed)
    timings["module_ms"] = 1000 * (time.perf_counter() - t0)
    return QtrivialVerdict(verdict=ok, path=PATH_MODULE, group=entry)


def is_qtrivial_group(
    group_or_entry,
    force_module_check: bool = False,
    seed: int = 0,
) -> QtrivialVerdict:
    """Group-level decision (no polynomial): used by catalog sweeps and by
    cross-validation of the prime-degree rule against the module check."""
    entry = (
        group_or_entry
        if isinstance(group_or_entry, TransitiveGroupEntry)
        else entry_for_group(group_or_entry)
    )
    n = entry.degree
    timings = {}
    if force_module_check:
        ok = _module_check(entry.group, seed)
        return QtrivialVerdict(verdict=ok, path=PATH_MODULE, group=entry, timings_ms=timings)
    if is_prime(n):
        return QtrivialVerdict(verdict=True, path=PATH_PRIME, group=entry, timings_ms=timings)
    return _qtrivial_from_group_entry(entry, n, seed, timings)


# ---------------------------------------------------------------------------
# E+ membership and FastBasis+


@dataclass
class EPlusDiagnosis:
    member: bool
    reason: str
    error: GaloisFail | ModuleCheckInconclusive | None = None  # why it is undecided
    power: tuple | None = None  # (content, base, exponent)
    ror: object = None  # RorWitness | NOT_ROR | None
    qtrivial: QtrivialVerdict | None = None

    @property
    def undecided(self) -> bool:
        return self.error is not None


def in_E_plus(f: UnivariatePolynomial, seed: int = 0) -> EPlusDiagnosis:
    """Membership in the generic class E+, with a diagnosis.

    Identification failures inside the Q-triviality decision surface as a
    not-member-with-reason diagnosis flagged `undecided` (membership is
    neither proven nor refuted).
    """
    if f.is_zero:
        raise InputError("zero polynomial")
    if f(0) == 0:
        return EPlusDiagnosis(member=False, reason="x divides f")
    pf = power_form(f)
    if pf is NOT_PRIME_POWER:
        return EPlusDiagnosis(member=False, reason="not of the form c * g^k with g irreducible")
    c, g, k = pf
    if g.degree == 0:
        return EPlusDiagnosis(member=False, reason="constant polynomial")
    witness = is_ror(g)
    if isinstance(witness, RorWitness):
        return EPlusDiagnosis(
            member=True, reason="all roots of g are roots of rational", power=(c, g, k), ror=witness
        )
    if g.degree == 1:
        # a linear base always has its (rational) root a root of rational
        raise InternalError("linear base must be a root of rational")
    try:
        verdict = is_qtrivial(g, seed=seed)
    except (GaloisFail, ModuleCheckInconclusive) as exc:
        return EPlusDiagnosis(
            member=False,
            reason=f"undecided: {type(exc).__name__}: {exc}",
            error=exc,
            power=(c, g, k),
            ror=NOT_ROR,
        )
    if verdict.verdict:
        return EPlusDiagnosis(
            member=True, reason="pair of g is Q-trivial", power=(c, g, k), ror=NOT_ROR, qtrivial=verdict
        )
    return EPlusDiagnosis(
        member=False,
        reason="pair of g not Q-trivial and roots not all roots of rational",
        power=(c, g, k),
        ror=NOT_ROR,
        qtrivial=verdict,
    )


def _lift_to_power(base_lattice: IntegerLattice, n: int, k: int) -> IntegerLattice:
    """Exponent lattice of c*g^k from the lattice of g: copies of the same
    root occupy consecutive coordinates, roots in canonical order."""
    if k == 1:
        return base_lattice
    big_n = n * k
    rows = []
    for u in base_lattice.basis:
        row = [0] * big_n
        for i, e in enumerate(u):
            row[i * k] = e
        rows.append(row)
    for i in range(n):
        for a in range(1, k):
            row = [0] * big_n
            row[i * k + a] = 1
            row[i * k] = -1
            rows.append(row)
    return hnf(rows, big_n)


def fastbasis_plus(f: UnivariatePolynomial, seed: int = 0) -> FastBasisResult:
    """Exponent lattice for f in E+, the symbol "F" for proven non-membership.

    Identification failures are raised, never silently converted to "F"."""
    t_start = time.perf_counter()
    if f.is_zero or f(0) == 0:
        raise InputError("fastbasis needs f nonzero with f(0) != 0")
    diag = in_E_plus(f, seed=seed)
    if diag.undecided:
        raise type(diag.error)(diag.reason)
    if not diag.member:
        return FastBasisResult(
            status="F",
            basis=None,
            certificate=None,
            content=None,
            base=None,
            exponent=None,
            reason=diag.reason,
            timings_ms={"total_ms": 1000 * (time.perf_counter() - t_start)},
        )
    c, g, k = diag.power
    n = g.degree
    if isinstance(diag.ror, RorWitness):
        base_lattice = ror_lattice(g, diag.ror)
        certificate = "AllRor"
    else:
        # Q-trivial and not all roots of rational forces a non-degenerate g,
        # so the lattice of g is trivial: generated by the all-ones vector
        # exactly when the product of the roots is a root of unity (+-1).
        prod_roots = (-1) ** n * Fraction(g[0], g.lc)
        if prod_roots == 1:
            base_lattice = hnf([[1] * n], n)
        elif prod_roots == -1:
            base_lattice = hnf([[2] * n], n)
        else:
            base_lattice = IntegerLattice(n, ())
        certificate = "QtrivialTrivialLattice"
        if any(prod_roots ** row[0] != 1 for row in base_lattice.basis):
            raise InternalError("a basis vector of the trivial lattice is not a relation")
    lat = _lift_to_power(base_lattice, n, k)
    if lat.rank != base_lattice.rank + n * (k - 1):
        raise InternalError("lifting to the power changed the rank unexpectedly")
    return FastBasisResult(
        status="Basis",
        basis=lat,
        certificate=certificate,
        content=c,
        base=g,
        exponent=k,
        timings_ms={"total_ms": 1000 * (time.perf_counter() - t_start)},
    )
