"""Rational permutation-module engine.

The module is the sum-zero hyperplane V_0 of the coordinate permutation
action, with basis {e_i - e_n : i = 1..n-1}; everything is exact Fraction
arithmetic.  The rational-irreducibility decision runs a chain of
certificates:

1. the underlying group is 2-transitive            -> Irreducible
2. the commutant has dimension 1                   -> Irreducible
3. for a commutant element c and the first
   irreducible factor q of its characteristic
   polynomial, ker q(c) is invariant, and proper
   unless q is the minimal polynomial of c         -> Reducible (witness)
4. a Norton-style certificate from a multiplicity-
   one factor of the characteristic polynomial of
   a group-algebra element (spin its kernel basis
   and one dual kernel vector)                     -> Irreducible, or a
                                                      Reducible witness found
                                                      along the way
5. iteration budget exhausted                      -> Undecided

Undecided is a value, not an error; callers map it to a distinct failure.
Witnesses are re-verified invariant and proper before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import _linalg
from .errors import InternalError
from .polycore import _from_fraction_coeffs, factor_z
from .rng import SplitMix64


@dataclass(frozen=True)
class Submodule:
    """Row-reduced basis of an invariant subspace."""

    basis: tuple  # rref rows, tuple of tuples of Fraction

    @property
    def dim(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class Irreducible:
    method: str  # "2transitive" | "commutant" | "norton"


@dataclass(frozen=True)
class Reducible:
    witness: Submodule


class Undecided:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Undecided"


UNDECIDED = Undecided()


def matrix_of_permutation(g, n: int):
    """Matrix of the coordinate permutation g on V_0 in the basis {e_i - e_n}."""
    d = n - 1
    m = [[Fraction(0)] * d for _ in range(d)]
    gn = g(n)
    for i in range(1, n):
        gi = g(i)
        if gi != n:
            m[gi - 1][i - 1] += 1
        if gn != n:
            m[gn - 1][i - 1] -= 1
    return m


class QModuleAction:
    """Matrices of group generators acting on V_0 (dimension n-1)."""

    def __init__(self, dim, generator_matrices, group=None):
        self.dim = dim
        self.generator_matrices = [
            [[Fraction(x) for x in row] for row in m] for m in generator_matrices
        ]
        self.group = group

    @staticmethod
    def from_group(group) -> "QModuleAction":
        n = group.degree
        mats = [matrix_of_permutation(g, n) for g in group.generators]
        return QModuleAction(n - 1, mats, group=group)

    def vector_from_point_difference(self, a: int, b: int):
        """e_a - e_b expressed in the basis {e_i - e_n}."""
        n = self.dim + 1
        v = [Fraction(0)] * self.dim
        if a != n:
            v[a - 1] += 1
        if b != n:
            v[b - 1] -= 1
        return v


def spin(action: QModuleAction, u) -> Submodule:
    """Smallest invariant subspace containing u (closure + Gaussian elimination)."""
    u = [Fraction(x) for x in u]
    basis_raw = []
    queue = [u]
    while queue:
        v = queue.pop(0)
        if not any(v):
            continue
        red, piv = _linalg.rref(basis_raw) if basis_raw else ([], [])
        if basis_raw and _linalg.row_space_contains(red, piv, v):
            continue
        basis_raw.append(v)
        for m in action.generator_matrices:
            queue.append(_linalg.mat_vec(m, v))
    rows, _ = _linalg.rref(basis_raw) if basis_raw else ([], [])
    sub = Submodule(tuple(tuple(r) for r in rows))
    _assert_invariant(action, sub)
    return sub


def _assert_invariant(action: QModuleAction, sub: Submodule):
    if not sub.basis:
        return
    red, piv = _linalg.rref([list(r) for r in sub.basis])
    for m in action.generator_matrices:
        for v in sub.basis:
            image = _linalg.mat_vec(m, list(v))
            if not _linalg.row_space_contains(red, piv, image):
                raise InternalError("submodule failed invariance check")


def commutant(action: QModuleAction):
    """Basis of {X : X M = M X for all generator matrices M}."""
    d = action.dim
    if d == 0:
        return []
    rows = []
    for m in action.generator_matrices:
        for i in range(d):
            for j in range(d):
                row = [Fraction(0)] * (d * d)
                for k in range(d):
                    row[i * d + k] += m[k][j]  # (X M)[i][j]
                    row[k * d + j] -= m[i][k]  # (M X)[i][j]
                rows.append(row)
    if not rows:
        return [_linalg.identity(d)]
    null = _linalg.nullspace(rows, d * d)
    return [[vec[i * d : (i + 1) * d] for i in range(d)] for vec in null]


def _poly_of_matrix(coeffs, m):
    """Evaluate an integer/Fraction coefficient list (lowest first) at a matrix."""
    d = len(m)
    acc = [[Fraction(0)] * d for _ in range(d)]
    for c in reversed(coeffs):
        acc = _linalg.mat_mul(acc, m)
        for i in range(d):
            acc[i][i] += Fraction(c)
    return acc


def _kernel_witness(action, matrix) -> Submodule | None:
    """Invariant kernel of a commutant/group-algebra polynomial image, if proper."""
    d = action.dim
    null = _linalg.nullspace(matrix, d)
    if not null or len(null) == d:
        return None
    rows, _ = _linalg.rref(null)
    sub = Submodule(tuple(tuple(r) for r in rows))
    _assert_invariant(action, sub)
    return sub


def _split_by_element(action, c) -> Submodule | None:
    """Stage 3: the kernel of q(c) for the first irreducible factor q of the
    characteristic polynomial of c; proper unless q is c's minimal polynomial."""
    q = factor_z(_from_fraction_coeffs(_linalg.charpoly(c))).factors[0][0]
    return _kernel_witness(action, _poly_of_matrix(list(q.coeffs), c))


def is_q_irreducible(action: QModuleAction, seed: int = 0, max_rounds: int = 64):
    """Decide rational irreducibility of the action; see the module docstring."""
    d = action.dim
    if d == 0:
        return Irreducible(method="commutant")  # zero module, vacuously
    if action.group is not None and action.group.degree >= 2 and action.group.is_2transitive():
        return Irreducible(method="2transitive")

    comm = commutant(action)
    if len(comm) == 1:
        return Irreducible(method="commutant")

    rng = SplitMix64(seed ^ 0xC0FFEE)
    # stage 3 on commutant basis elements, then random small combinations
    candidates = [c for c in comm if not _is_scalar(c)]
    for _ in range(8):
        combo = _random_combination(comm, rng)
        if not _is_scalar(combo):
            candidates.append(combo)
    for c in candidates:
        witness = _split_by_element(action, c)
        if witness is not None:
            return Reducible(witness=witness)

    # stage 4: Norton certificates
    transposed = QModuleAction(
        d, [_linalg.transpose(m) for m in action.generator_matrices], group=None
    )
    for _round in range(max_rounds):
        theta = _random_algebra_element(action, rng)
        for q, mult in factor_z(_from_fraction_coeffs(_linalg.charpoly(theta))).factors:
            if mult != 1:
                continue
            if q.degree == d:
                # an irreducible characteristic polynomial leaves no room for
                # a proper theta-invariant (hence G-invariant) subspace
                return Irreducible(method="norton")
            qm = _poly_of_matrix(list(q.coeffs), theta)
            null = _linalg.nullspace(qm, d)
            if not null or len(null) != q.degree:
                continue  # multiplicity-one factor must have nullity = degree
            proper = None
            for w in null:
                sub = spin(action, w)
                if sub.dim < d:
                    proper = sub
                    break
            if proper is not None:
                return Reducible(witness=proper)
            # dual side: one kernel vector of q(theta^T) must spin to everything
            qmt = _linalg.transpose(qm)
            null_t = _linalg.nullspace(qmt, d)
            if not null_t:
                continue
            dual_sub = spin(transposed, null_t[0])
            if dual_sub.dim == d:
                return Irreducible(method="norton")
            if 0 < dual_sub.dim < d:
                # annihilator of a proper dual submodule is a proper submodule
                ann = _linalg.nullspace([list(r) for r in dual_sub.basis], d)
                rows, _ = _linalg.rref(ann)
                sub = Submodule(tuple(tuple(r) for r in rows))
                _assert_invariant(action, sub)
                return Reducible(witness=sub)
    return UNDECIDED


def _is_scalar(m):
    d = len(m)
    diag = m[0][0]
    return all(m[i][j] == (diag if i == j else 0) for i in range(d) for j in range(d))


def _random_combination(mats, rng):
    d = len(mats[0])
    acc = [[Fraction(0)] * d for _ in range(d)]
    for m in mats:
        c = rng.randint(-3, 3)
        if c:
            for i in range(d):
                for j in range(d):
                    acc[i][j] += c * m[i][j]
    return acc


def _random_algebra_element(action, rng):
    """Small integer combination of generator matrices, their products, and I."""
    d = action.dim
    words = [_linalg.identity(d)] + list(action.generator_matrices)
    gens = action.generator_matrices
    if len(gens) >= 1:
        words.append(_linalg.mat_mul(gens[0], gens[-1]))
    if len(gens) >= 2:
        words.append(_linalg.mat_mul(gens[1], gens[0]))
    return _random_combination(words, rng)
