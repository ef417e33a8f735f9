"""The permutation and group helpers against sympy.combinatorics."""

import itertools
import random

import pytest

sympy_comb = pytest.importorskip("sympy.combinatorics")

from xlat.galois import catalog_for_degree, load_catalog
from xlat.permgroup import Permutation, PermutationGroup, are_conjugate_in_sym


def _sympy_perm(p):
    return sympy_comb.Permutation([x - 1 for x in p.images])


def _sympy_group(group):
    return sympy_comb.PermutationGroup([_sympy_perm(g) for g in group.generators])


def _permutations():
    for n in range(1, 7):
        yield from itertools.permutations(range(1, n + 1))
    rng = random.Random(20261018)
    for _ in range(200):
        images = list(range(1, rng.randint(7, 9) + 1))
        rng.shuffle(images)
        yield tuple(images)


def test_cycle_walk_matches_sympy():
    count = 0
    for images in _permutations():
        p = Permutation(images)
        s = _sympy_perm(p)
        lengths = sorted(k for k, m in s.cycle_structure.items() for _ in range(m))
        assert p.cycle_type() == tuple(lengths), images
        assert p.is_even() == s.is_even, images
        assert p.cycles() == [tuple(x + 1 for x in c) for c in s.cyclic_form], images
        count += 1
    assert count == 873 + 200


def test_catalog_orbits_orders_and_stabilizers_match_sympy():
    for e in load_catalog():
        s = _sympy_group(e.group)
        assert e.group.orbits() == sorted(tuple(sorted(x + 1 for x in o)) for o in s.orbits())
        assert e.group.order() == s.order() == e.order
        assert e.group.point_stabilizer(1).order() == s.stabilizer(0).order()


def test_intransitive_orbits_match_sympy():
    g = PermutationGroup(7, ["(1 5)", "(2 6 3)"])
    s = sympy_comb.PermutationGroup([_sympy_perm(x) for x in g.generators])
    assert g.orbits() == [(1, 5), (2, 3, 6), (4,), (7,)]
    assert g.orbits() == sorted(tuple(sorted(x + 1 for x in o)) for o in s.orbits())
    assert g.point_stabilizer(2).order() == s.stabilizer(1).order() == 2


def test_distinct_degree6_groups_of_equal_order_are_not_conjugate():
    deg6 = catalog_for_degree(6)
    pairs = [(a, b) for a, b in itertools.combinations(deg6, 2) if a.order == b.order]
    assert pairs
    for a, b in pairs:
        assert not are_conjugate_in_sym(a.group, b.group), (a.label(), b.label())


def test_relabelled_copy_is_conjugate():
    rng = random.Random(7)
    for e in catalog_for_degree(6):
        images = list(range(1, 7))
        rng.shuffle(images)
        tau = Permutation(images)
        copy = PermutationGroup(6, [tau * g * tau.inverse() for g in e.group.generators])
        assert are_conjugate_in_sym(e.group, copy), e.label()
        assert are_conjugate_in_sym(copy, e.group), e.label()
