"""Permutation groups on the points {1..n}.

Deterministic Schreier-Sims with the fixed base order 1, 2, ...; the chain is
built lazily under a single-writer lock, after which a group object is
read-only and safe to share between threads.  Degrees in this library stay
at or below 8, so orbit counting on pairs is done by explicit search rather
than by character sums.
"""

from __future__ import annotations

import itertools
import re
import threading
from dataclasses import dataclass

from .errors import DegreeTooSmall, GroupTooLarge, NotTransitive


@dataclass(frozen=True)
class Permutation:
    """images[i] is the image of point i+1 (points are 1-based)."""

    images: tuple

    def __init__(self, images):
        images = tuple(int(x) for x in images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images}")
        object.__setattr__(self, "images", images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """(self * other)(x) = self(other(x))."""
        return Permutation(tuple(self.images[i - 1] for i in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, img in enumerate(self.images):
            inv[img - 1] = i + 1
        return Permutation(tuple(inv))

    @property
    def is_identity(self) -> bool:
        return all(img == i + 1 for i, img in enumerate(self.images))

    def is_even(self) -> bool:
        # a k-cycle is a product of k - 1 transpositions
        return sum(len(c) - 1 for c in self.cycles()) % 2 == 0

    def cycle_type(self) -> tuple:
        """Sorted cycle lengths including fixed points (a partition of n)."""
        lengths = [len(c) for c in self.cycles()]
        return (1,) * (len(self.images) - sum(lengths)) + tuple(sorted(lengths))

    def cycles(self):
        """Nontrivial cycles, each rotated to start at its smallest point."""
        seen = [False] * len(self.images)
        out = []
        for i in range(len(self.images)):
            if seen[i] or self.images[i] == i + 1:
                seen[i] = True
                continue
            cyc = []
            j = i
            while not seen[j]:
                seen[j] = True
                cyc.append(j + 1)
                j = self.images[j] - 1
            out.append(tuple(cyc))
        return out

    def to_cycle_string(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cyc)

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_permutation(text: str, n: int) -> Permutation:
    """Parse cycle notation like '(1 2 3 4)(5 6)' or '(1,2,3)'; '()' is the identity."""
    text = text.strip()
    if text in ("()", "e", "id", ""):
        return Permutation.identity(n)
    spans = _CYCLE_RE.findall(text)
    if not spans or _CYCLE_RE.sub("", text).strip():
        raise ValueError(f"bad cycle notation: {text!r}")
    images = list(range(1, n + 1))
    for span in spans:
        pts = [int(t) for t in re.split(r"[,\s]+", span.strip()) if t]
        if not pts:
            continue
        if len(set(pts)) != len(pts) or any(not 1 <= p <= n for p in pts):
            raise ValueError(f"bad cycle {span!r} for degree {n}")
        for a, b in zip(pts, pts[1:] + [pts[0]]):
            images[a - 1] = b
    return Permutation(tuple(images))


class PermutationGroup:
    def __init__(self, degree: int, generators):
        self.degree = degree
        gens = []
        for g in generators:
            if isinstance(g, str):
                g = parse_permutation(g, degree)
            if g.degree != degree:
                raise ValueError("generator degree mismatch")
            if not g.is_identity and g not in gens:
                gens.append(g)
        self.generators = tuple(gens)
        self._chain = None
        self._2transitive = None
        self._lock = threading.Lock()

    # -- stabilizer chain -----------------------------------------------------

    def _stabilizer_chain(self):
        if self._chain is None:
            with self._lock:
                if self._chain is None:
                    self._chain = _build_chain(self.degree, list(self.generators))
        return self._chain

    def order(self) -> int:
        out = 1
        for _base, transversal, _gens in self._stabilizer_chain():
            out *= len(transversal)
        return out

    def contains(self, sigma: Permutation) -> bool:
        if sigma.degree != self.degree:
            return False
        residue = _sift(self._stabilizer_chain(), sigma)
        return residue.is_identity

    def __contains__(self, sigma):
        return self.contains(sigma)

    # -- orbits and transitivity ----------------------------------------------

    def orbits(self):
        """Partition of the points into orbits, each sorted, ordered by minimum."""
        points = range(1, self.degree + 1)
        orbs = orbit_partition(self.generators, points, Permutation.__call__)
        return sorted(tuple(sorted(o)) for o in orbs)

    def is_transitive(self) -> bool:
        if self.degree < 2:
            raise DegreeTooSmall("transitivity needs at least 2 points")
        return len(self.orbits()) == 1

    def is_2transitive(self) -> bool:
        if self.degree < 2:
            raise DegreeTooSmall("2-transitivity needs at least 2 points")
        if self._2transitive is None:
            n = self.degree
            pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
            self._2transitive = len(orbit_partition(self.generators, pairs, _act_ordered_pair)) == 1
        return self._2transitive

    def is_2homogeneous(self) -> bool:
        if self.degree < 2:
            raise DegreeTooSmall("2-homogeneity needs at least 2 points")
        pairs = [frozenset((a, b)) for a in range(1, self.degree + 1) for b in range(a + 1, self.degree + 1)]
        return len(orbit_partition(self.generators, pairs, _act_set)) == 1

    def is_even_subgroup(self) -> bool:
        """True iff every element is an even permutation."""
        return all(g.is_even() for g in self.generators)

    # -- derived groups ---------------------------------------------------------

    def point_stabilizer(self, point: int) -> "PermutationGroup":
        """Stabilizer of a point, generated by its Schreier generators."""
        transversal = _orbit_transversal(point, self.generators, self.degree)
        return PermutationGroup(self.degree, _schreier_generators(transversal, self.generators))

    def block_systems(self):
        """All nontrivial block systems, found by direct partition search.

        Degrees here are <= 8 (Bell(8) = 4140 partitions), so enumerating the
        partitions and filtering beats implementing minimal-block machinery.
        """
        if not self.is_transitive():
            raise NotTransitive("block systems are defined for transitive groups")
        n = self.degree
        out = []
        for partition in _set_partitions(n):
            if len(partition) in (1, n):
                continue
            sizes = {len(b) for b in partition}
            if len(sizes) != 1:
                continue
            blocks = [frozenset(b) for b in partition]
            block_set = set(blocks)
            if all(frozenset(g(x) for x in b) in block_set for g in self.generators for b in blocks):
                out.append(tuple(sorted(tuple(sorted(b)) for b in blocks)))
        out.sort()
        return out

    def enumerate_elements(self, cap: int = 10**6):
        """All elements in a deterministic (sorted) order."""
        if self.order() > cap:
            raise GroupTooLarge(f"order {self.order()} exceeds cap {cap}")
        frontier = [Permutation.identity(self.degree)]
        seen = {frontier[0]}
        while frontier:
            nxt = []
            for g in frontier:
                for s in self.generators:
                    h = s * g
                    if h not in seen:
                        seen.add(h)
                        nxt.append(h)
            frontier = nxt
        return sorted(seen, key=lambda p: p.images)

    def cycle_types(self):
        """Set of cycle types over all elements (uses full enumeration)."""
        return sorted({g.cycle_type() for g in self.enumerate_elements()})

    def __repr__(self):
        gens = ", ".join(g.to_cycle_string() for g in self.generators) or "()"
        return f"PermutationGroup(degree={self.degree}, <{gens}>)"


# ---------------------------------------------------------------------------
# internals


def _orbit_transversal(start, gens, degree):
    transversal = {start: Permutation.identity(degree)}
    frontier = [start]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = g(p)
                if q not in transversal:
                    transversal[q] = g * transversal[p]
                    nxt.append(q)
        frontier = nxt
    return transversal


def _schreier_generators(transversal, gens):
    """Schreier generators of the stabilizer of the transversal's base point."""
    out = []
    for p in sorted(transversal):
        u_p = transversal[p]
        for g in gens:
            s = transversal[g(p)].inverse() * g * u_p
            if not s.is_identity and s not in out:
                out.append(s)
    return out


def _build_chain(degree, gens):
    """[(base_point, transversal, level_generators), ...]."""
    chain = []
    level_gens = [g for g in gens if not g.is_identity]
    while level_gens:
        base = min(p for g in level_gens for p in range(1, degree + 1) if g(p) != p)
        transversal = _orbit_transversal(base, level_gens, degree)
        chain.append((base, transversal, tuple(level_gens)))
        level_gens = _schreier_generators(transversal, level_gens)
    return chain


def _sift(chain, sigma):
    for base, transversal, _gens in chain:
        p = sigma(base)
        if p not in transversal:
            return sigma
        sigma = transversal[p].inverse() * sigma
    return sigma


def _act_ordered_pair(g, pair):
    return (g(pair[0]), g(pair[1]))


def _act_set(g, s):
    return frozenset(g(x) for x in s)


def orbit_partition(gens, objects, act):
    """Orbits of <gens> on `objects` under the action `act`; list of frozensets."""
    remaining = set(objects)
    out = []
    while remaining:
        start = next(iter(sorted(remaining, key=repr)))
        orb = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = act(g, x)
                    if y not in orb:
                        orb.add(y)
                        nxt.append(y)
            frontier = nxt
        out.append(frozenset(orb))
        remaining -= orb
    return out


def orbit_size_pattern(group: PermutationGroup, objects, act) -> tuple:
    """Sorted orbit-size multiset of the group acting on `objects`."""
    return tuple(sorted(len(o) for o in orbit_partition(group.generators, objects, act)))


def _set_partitions(n):
    """All set partitions of {1..n} via restricted growth strings."""
    if n == 0:
        return
    rgs = [0] * n
    while True:
        nblocks = max(rgs) + 1
        blocks = [[] for _ in range(nblocks)]
        for i, b in enumerate(rgs):
            blocks[b].append(i + 1)
        yield blocks
        # increment restricted growth string
        i = n - 1
        while i > 0:
            if rgs[i] <= max(rgs[:i]):
                rgs[i] += 1
                for j in range(i + 1, n):
                    rgs[j] = 0
                break
            i -= 1
        else:
            return


def group_from_elements(degree: int, elements) -> PermutationGroup:
    """A small generating set for a set of permutations known to form a group."""
    target = len(elements)
    gens = []
    group = PermutationGroup(degree, [])
    for g in sorted(elements, key=lambda p: p.images):
        if g.is_identity:
            continue
        if not group.contains(g):
            gens.append(g)
            group = PermutationGroup(degree, gens)
            if group.order() == target:
                break
    return group


def conjugates_into(small: PermutationGroup, contains) -> bool:
    """Brute-force search over Sym(n) (degree <= 8) for a tau with
    contains(tau g tau^-1) true for every generator g of `small`."""
    for images in itertools.permutations(range(1, small.degree + 1)):
        tau = Permutation(images)
        tau_inv = tau.inverse()
        if all(contains(tau * g * tau_inv) for g in small.generators):
            return True
    return False


def are_conjugate_in_sym(a: PermutationGroup, b: PermutationGroup) -> bool:
    """Conjugacy test inside the full symmetric group (degree <= 8)."""
    if a.degree != b.degree or a.order() != b.order():
        return False
    if sorted(a.cycle_types()) != sorted(b.cycle_types()):
        return False
    return conjugates_into(a, b.contains)
