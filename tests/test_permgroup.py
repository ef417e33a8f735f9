import itertools

import pytest

from xlat.errors import DegreeTooSmall, GroupTooLarge, NotTransitive
from xlat.permgroup import (
    Permutation,
    PermutationGroup,
    group_from_elements,
    orbit_partition,
    parse_permutation,
    _act_ordered_pair,
    _act_set,
)


def grp(n, *cycles):
    return PermutationGroup(n, list(cycles))


def brute_closure(degree, gens):
    """Independent oracle: closure by repeated multiplication."""
    gens = [parse_permutation(g, degree) if isinstance(g, str) else g for g in gens]
    elements = {Permutation.identity(degree)}
    frontier = list(elements)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                for h in (g * a, a * g):
                    if h not in elements:
                        elements.add(h)
                        nxt.append(h)
        frontier = nxt
    return elements


class TestPermutation:
    def test_parse_and_print(self):
        p = parse_permutation("(1 2 3 4)(5 6)", 6)
        assert p.images == (2, 3, 4, 1, 6, 5)
        assert p.to_cycle_string() == "(1 2 3 4)(5 6)"
        assert parse_permutation("(1,2,3)", 4).images == (2, 3, 1, 4)
        assert parse_permutation("()", 3).is_identity

    def test_parse_rejects(self):
        with pytest.raises(ValueError):
            parse_permutation("(1 2 9)", 5)
        with pytest.raises(ValueError):
            parse_permutation("(1 1)", 3)
        with pytest.raises(ValueError):
            parse_permutation("garbage", 3)

    def test_mul_inverse(self):
        a = parse_permutation("(1 2 3)", 3)
        b = parse_permutation("(2 3)", 3)
        assert (a * b).images == (a(b(1)), a(b(2)), a(b(3)))
        assert (a * a.inverse()).is_identity

    def test_parity(self):
        assert not parse_permutation("(1 2)", 4).is_even()
        assert parse_permutation("(1 2 3)", 4).is_even()
        assert not parse_permutation("(1 2 3 4)", 4).is_even()
        assert parse_permutation("(1 2)(3 4)", 4).is_even()

    def test_cycle_type(self):
        assert parse_permutation("(1 2 3 4)(5 6)", 7).cycle_type() == (1, 2, 4)


class TestOrderMembership:
    def test_c5(self):
        assert grp(5, "(1 2 3 4 5)").order() == 5

    def test_s5(self):
        assert grp(5, "(1 2)", "(1 2 3 4 5)").order() == 120

    def test_d4_via_brute_closure(self):
        g = grp(4, "(1 2 3 4)", "(1 3)")
        assert g.order() == 8
        assert g.order() == len(brute_closure(4, ["(1 2 3 4)", "(1 3)"]))

    def test_random_groups_match_brute_closure(self):
        cases = [
            (6, ["(1 2 3 4 5 6)"]),
            (6, ["(1 2 3)(4 5 6)", "(1 4)(2 6)(3 5)"]),
            (7, ["(1 2 3 4 5 6 7)", "(2 3 5)(4 7 6)"]),
            (5, ["(1 2 3 4 5)", "(2 3 5 4)"]),
            (4, ["(1 2)(3 4)", "(1 3)(2 4)"]),
        ]
        for n, gens in cases:
            g = grp(n, *gens)
            elements = brute_closure(n, gens)
            assert g.order() == len(elements)
            for e in elements:
                assert g.contains(e)
            # something outside
            for images in itertools.permutations(range(1, n + 1)):
                p = Permutation(images)
                assert g.contains(p) == (p in elements)

    def test_trivial_group(self):
        g = grp(4)
        assert g.order() == 1
        assert g.contains(Permutation.identity(4))
        assert not g.contains(parse_permutation("(1 2)", 4))


class TestTransitivity:
    def test_c5(self):
        g = grp(5, "(1 2 3 4 5)")
        assert g.is_transitive()
        assert not g.is_2transitive()
        assert not g.is_2homogeneous()
        # orbit counts: 4 ordered-pair orbits, 2 unordered
        pairs = [(a, b) for a in range(1, 6) for b in range(1, 6) if a != b]
        assert len(orbit_partition(g.generators, pairs, _act_ordered_pair)) == 4
        upairs = [frozenset(p) for p in itertools.combinations(range(1, 6), 2)]
        assert len(orbit_partition(g.generators, upairs, _act_set)) == 2

    def test_s4(self):
        g = grp(4, "(1 2)", "(1 2 3 4)")
        assert g.is_transitive() and g.is_2transitive() and g.is_2homogeneous()

    def test_2transitivity_is_computed_once(self, monkeypatch):
        import xlat.permgroup as mod

        searches = []
        search = mod.orbit_partition

        def counted(gens, points, act):
            searches.append(act)
            return search(gens, points, act)

        monkeypatch.setattr(mod, "orbit_partition", counted)
        for gens, expected in ((("(1 2)", "(1 2 3 4)"), True), (("(1 2 3 4)",), False)):
            g = grp(4, *gens)
            assert [g.is_2transitive() for _ in range(3)] == [expected] * 3
        assert searches.count(mod._act_ordered_pair) == 2

    def test_f21(self):
        g = grp(7, "(1 2 3 4 5 6 7)", "(2 3 5)(4 7 6)")
        assert g.order() == 21
        assert g.is_2homogeneous()
        assert not g.is_2transitive()
        pairs = [(a, b) for a in range(1, 8) for b in range(1, 8) if a != b]
        assert len(orbit_partition(g.generators, pairs, _act_ordered_pair)) == 2
        upairs = [frozenset(p) for p in itertools.combinations(range(1, 8), 2)]
        assert len(orbit_partition(g.generators, upairs, _act_set)) == 1

    def test_2transitive_implies_2homogeneous_implies_transitive(self):
        catalog = [
            (4, ["(1 2 3 4)"]),
            (4, ["(1 2)", "(1 2 3 4)"]),
            (5, ["(1 2 3 4 5)", "(2 3 5 4)"]),
            (6, ["(1 2 3 4 5 6)"]),
            (7, ["(1 2 3 4 5 6 7)", "(2 3 5)(4 7 6)"]),
        ]
        for n, gens in catalog:
            g = grp(n, *gens)
            if g.is_2transitive():
                assert g.is_2homogeneous()
            if g.is_2homogeneous():
                assert g.is_transitive()

    def test_degree_too_small(self):
        with pytest.raises(DegreeTooSmall):
            grp(1).is_2transitive()

    def test_intransitive(self):
        g = grp(4, "(1 2)")
        assert not g.is_transitive()
        assert g.orbits() == [(1, 2), (3,), (4,)]


class TestStabilizerBlocks:
    def test_point_stabilizer_s4(self):
        g = grp(4, "(1 2)", "(1 2 3 4)")
        st = g.point_stabilizer(1)
        assert st.order() == 6
        for e in st.enumerate_elements():
            assert e(1) == 1

    def test_orbit_stabilizer_identity(self):
        cases = [
            (4, ["(1 2 3 4)", "(1 3)"]),
            (5, ["(1 2 3 4 5)", "(2 5)(3 4)"]),
            (6, ["(1 2 3 4 5 6)"]),
            (7, ["(1 2 3 4 5 6 7)", "(2 3 5)(4 7 6)"]),
        ]
        for n, gens in cases:
            g = grp(n, *gens)
            if g.is_transitive():
                assert g.point_stabilizer(1).order() * n == g.order()

    def test_blocks_d4(self):
        g = grp(4, "(1 2 3 4)", "(1 3)")
        systems = g.block_systems()
        assert ((1, 3), (2, 4)) in systems

    def test_blocks_s4_primitive(self):
        assert grp(4, "(1 2)", "(1 2 3 4)").block_systems() == []

    def test_blocks_require_transitive(self):
        with pytest.raises(NotTransitive):
            grp(4, "(1 2)").block_systems()

    def test_blocks_c6(self):
        g = grp(6, "(1 2 3 4 5 6)")
        systems = g.block_systems()
        assert ((1, 4), (2, 5), (3, 6)) in systems
        assert ((1, 3, 5), (2, 4, 6)) in systems


class TestEnumerate:
    def test_c5(self):
        g = grp(5, "(1 2 3 4 5)")
        assert len(g.enumerate_elements()) == 5

    def test_s4(self):
        assert len(grp(4, "(1 2)", "(1 2 3 4)").enumerate_elements()) == 24

    def test_d4(self):
        assert len(grp(4, "(1 2 3 4)", "(1 3)").enumerate_elements()) == 8

    def test_deterministic_order(self):
        g1 = grp(4, "(1 2 3 4)", "(1 3)")
        g2 = grp(4, "(1 3)", "(1 2 3 4)")
        assert g1.enumerate_elements() == g2.enumerate_elements()

    def test_cap(self):
        with pytest.raises(GroupTooLarge):
            grp(8, "(1 2)", "(1 2 3 4 5 6 7 8)").enumerate_elements(cap=1000)

    def test_group_from_elements(self):
        g = grp(4, "(1 2 3 4)", "(1 3)")
        elements = g.enumerate_elements()
        rebuilt = group_from_elements(4, elements)
        assert rebuilt.order() == 8
        assert all(rebuilt.contains(e) for e in elements)


class TestConcurrency:
    def test_lazy_chain_is_thread_safe(self):
        import threading

        g = grp(7, "(1 2 3 4 5 6 7)", "(1 2)")
        results = []

        def worker():
            results.append(g.order())

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == [5040] * 8


class TestInvariants:
    def test_order_divides_factorial_and_transitive_divisibility(self):
        import math

        cases = [
            (4, ["(1 2 3 4)"]),
            (4, ["(1 2)(3 4)", "(1 3)(2 4)"]),
            (5, ["(1 2 3 4 5)", "(2 3 5 4)"]),
            (6, ["(1 2 3)(4 5 6)", "(1 4)(2 6)(3 5)"]),
            (7, ["(1 2 3 4 5 6 7)", "(2 4 3 7 5 6)"]),
        ]
        for n, gens in cases:
            g = grp(n, *gens)
            assert math.factorial(n) % g.order() == 0
            if g.is_transitive():
                assert g.order() % n == 0

    def test_ordered_vs_unordered_pair_orbit_consistency(self):
        # every unordered-pair orbit corresponds to 1 or 2 ordered-pair orbits
        for n, gens in [(5, ["(1 2 3 4 5)"]), (6, ["(1 2 3 4 5 6)"]), (7, ["(1 2 3 4 5 6 7)", "(2 3 5)(4 7 6)"])]:
            g = grp(n, *gens)
            pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
            ordered = orbit_partition(g.generators, pairs, _act_ordered_pair)
            upairs = [frozenset(p) for p in itertools.combinations(range(1, n + 1), 2)]
            unordered = orbit_partition(g.generators, upairs, _act_set)
            count = 0
            for u_orb in unordered:
                rep = sorted(next(iter(u_orb)))
                matching = [o for o in ordered if (rep[0], rep[1]) in o or (rep[1], rep[0]) in o]
                assert len(matching) in (1, 2)
                count += len(matching)
            assert count == len(ordered)
