import itertools
import math
from types import SimpleNamespace

import pytest

from xlat.errors import CatalogCorrupt, DegreeOutOfRange, NotIrreducible
from xlat.galois import (
    CATALOG_COUNTS,
    RESOLVENT_KINDS,
    _good_primes,
    _is_rational_square,
    catalog_for_degree,
    galois_group,
    load_catalog,
    pair_sum_resolvent,
    resolvent_pattern,
    resolvent_table,
    tschirnhaus,
    triple_sum_resolvent,
    ordered_pair_resolvent,
)
from xlat.numtests import cyclotomic_polynomial
from xlat.polycore import (
    discriminant,
    factor_degrees_mod_p,
    is_squarefree,
    parse_polynomial,
    poly,
    power_sums,
)


def frobenius_sample(f, prime_budget):
    """The Frobenius degree patterns of f at its first `prime_budget` good
    primes, as galois_group samples them, plus the discriminant parity."""
    disc = discriminant(f)
    primes = tuple(itertools.islice(_good_primes(f, disc), prime_budget))
    return SimpleNamespace(
        primes=primes,
        patterns=tuple(sorted(factor_degrees_mod_p(f, p) for p in primes)),
        discriminant_square=_is_rational_square(disc),
    )


class TestCatalog:
    def test_counts(self):
        entries = load_catalog()
        counts = {}
        for e in entries:
            counts[e.degree] = counts.get(e.degree, 0) + 1
        assert counts == {2: 1, 3: 2, 4: 5, 5: 5, 6: 16, 7: 7}
        assert counts == CATALOG_COUNTS

    def test_degree4_names(self):
        names = [e.name for e in catalog_for_degree(4)]
        assert names == ["C4", "V4", "D4", "A4", "S4"]

    def test_degree6_two_transitive_count(self):
        deg6 = catalog_for_degree(6)
        assert len(deg6) == 16
        assert sum(e.is_2transitive for e in deg6) == 4

    def test_degree2(self):
        (e,) = catalog_for_degree(2)
        assert e.name == "S2" and e.order == 2

    def test_flags_agree_with_recomputation(self):
        for e in load_catalog():
            g = e.group
            assert g.order() == e.order
            assert g.is_transitive()
            assert e.is_2transitive == g.is_2transitive()
            assert e.is_2homogeneous == g.is_2homogeneous()
            assert e.parity_even == g.is_even_subgroup()

    def test_order_divisibility(self):
        for e in load_catalog():
            assert math.factorial(e.degree) % e.order == 0
            assert e.order % e.degree == 0

    def test_two_transitive_implies_two_homogeneous(self):
        for e in load_catalog():
            if e.is_2transitive:
                assert e.is_2homogeneous

    def test_f21_flags(self):
        f21 = next(e for e in catalog_for_degree(7) if e.name == "F21")
        assert f21.is_2homogeneous and not f21.is_2transitive

    def test_checksum_enforced(self, tmp_path, monkeypatch):
        import xlat.galois as mod

        bad = tmp_path / "catalog.txt"
        bad.write_text("2 1 2 S2 (1,2)\n")
        (tmp_path / "catalog.sha256").write_text("0" * 64 + "\n")
        monkeypatch.setenv("XLAT_CATALOG", str(bad))
        mod._catalog_cache.clear()
        with pytest.raises(CatalogCorrupt):
            load_catalog()
        monkeypatch.delenv("XLAT_CATALOG")
        mod._catalog_cache.clear()


class TestCycleTypes:
    def test_example2_quintic_patterns(self):
        # C5 Galois group: Frobenius elements are the identity or 5-cycles
        f = poly([-1, 3, 3, -4, -1, 1])
        ev = frobenius_sample(f, prime_budget=40)
        assert set(ev.patterns) <= {(1, 1, 1, 1, 1), (5,)}
        assert (5,) in ev.patterns
        assert ev.discriminant_square  # C5 is even

    def test_cubic(self):
        ev = frobenius_sample(poly([-2, 0, 0, 1]), prime_budget=40)
        assert (1, 2) in ev.patterns and (3,) in ev.patterns
        assert not ev.discriminant_square
        assert discriminant(poly([-2, 0, 0, 1])) == -108

    def test_quadratic(self):
        ev = frobenius_sample(poly([1, 0, 1]), prime_budget=30)
        assert set(ev.patterns) == {(1, 1), (2,)}

    def test_primes_avoid_disc_and_lc(self):
        f = poly([6, 0, 4, -4, 1])
        ev = frobenius_sample(f, prime_budget=20)
        d = abs(int(discriminant(f)))
        for p in ev.primes:
            assert p >= 3 and d % p and f.lc % p

    def test_patterns_partition_the_degree(self):
        for coeffs in ([6, 0, 4, -4, 1], [-1, 3, 3, -4, -1, 1], [1, 1, 0, 0, 0, 0, 1]):
            f = poly(coeffs)
            ev = frobenius_sample(f, prime_budget=15)
            for pattern in ev.patterns:
                assert sum(pattern) == f.degree
                assert all(part >= 1 for part in pattern)


class TestResolvents:
    def test_pair_sum_quartic(self):
        # (x-1)(x-2)(x-3)(x-6): pair sums 3,4,7,5,8,9
        f = poly([-1, 1]) * poly([-2, 1]) * poly([-3, 1]) * poly([-6, 1])
        r = pair_sum_resolvent(f)
        expected = poly([1])
        for s in (3, 4, 7, 5, 8, 9):
            expected = expected * poly([-s, 1])
        assert r == expected

    def test_ordered_pair_cubic(self):
        # roots 1, 2, 4: values i != j of r_i + 2 r_j
        f = poly([-1, 1]) * poly([-2, 1]) * poly([-4, 1])
        r = ordered_pair_resolvent(f)
        vals = sorted(a + 2 * b for a in (1, 2, 4) for b in (1, 2, 4) if a != b)
        expected = poly([1])
        for s in vals:
            expected = expected * poly([-s, 1])
        assert r == expected

    def test_triple_sum_quintic(self):
        import itertools

        roots = (1, 2, 4, 8, 16)
        f = poly([1])
        for s in roots:
            f = f * poly([-s, 1])
        r = triple_sum_resolvent(f)
        expected = poly([1])
        for trip in itertools.combinations(roots, 3):
            expected = expected * poly([-sum(trip), 1])
        assert r == expected

    def test_tschirnhaus_preserves_degree_and_field(self):
        f = poly([6, 0, 4, -4, 1])
        t = tschirnhaus(f, 1)
        assert t.degree == 4 and is_squarefree(t)
        # r^2 + r for each root r of f must be a root of t (check via power sums)
        ps_f = power_sums(f, 8)
        ps_t = power_sums(t, 4)
        assert ps_t[1] == ps_f[2] + ps_f[1]

    def test_resolvent_pattern_matches_table_on_known_groups(self):
        table = resolvent_table()
        known = [
            (poly([1, 1, 1, 1, 1]), 4, 1),  # C4
            (poly([-2, 0, 0, 0, 1]), 4, 3),  # D4
            (poly([12, 8, 0, 0, 1]), 4, 4),  # A4
            (poly([-1, 3, 3, -4, -1, 1]), 5, 1),  # C5
            (poly([-2, 0, 0, 0, 0, 1]), 5, 3),  # F20
        ]
        for f, degree, t in known:
            for kind in RESOLVENT_KINDS[degree]:
                assert resolvent_pattern(f, kind) == table[(degree, t, kind)], (f, kind)


# polynomials with known Galois groups (classical tables; degree-5/6 set used by
# several computer algebra systems, originally from Cohen's book)
KNOWN_GROUPS = [
    ("x^2+x+1", 2, 1),
    ("x^3+x^2-2*x-1", 3, 1),
    ("x^3+2", 3, 2),
    ("x^4+x^3+x^2+x+1", 4, 1),
    ("x^4+1", 4, 2),
    ("x^4-2", 4, 3),
    ("x^4+8*x+12", 4, 4),
    ("x^4+x+1", 4, 5),
    ("x^5+x^4-4*x^3-3*x^2+3*x+1", 5, 1),
    ("x^5-5*x+12", 5, 2),
    ("x^5+2", 5, 3),
    ("x^5+20*x+16", 5, 4),
    ("x^5-x+1", 5, 5),
    ("x^6+x^5+x^4+x^3+x^2+x+1", 6, 1),
    ("x^6+108", 6, 2),
    ("x^6+2", 6, 3),
    ("x^6-3*x^2-1", 6, 4),
    ("x^6+3*x^3+3", 6, 5),
    ("x^6-3*x^2+1", 6, 6),
    ("x^6-4*x^2-1", 6, 7),
    ("x^6-3*x^5+6*x^4-7*x^3+2*x^2+x-4", 6, 8),
    ("x^6+2*x^3-2", 6, 9),
    ("x^6+2*x^2+2", 6, 11),
    ("x^6+10*x^5+55*x^4+140*x^3+175*x^2+170*x+25", 6, 12),
    ("x^6+10*x^5+55*x^4+140*x^3+175*x^2-3019*x+25", 6, 14),
    ("x^6+6*x^4+2*x^3+9*x^2+6*x-4", 6, 10),
    ("x^6+2*x^4+2*x^3+x^2+2*x+2", 6, 13),
    ("x^6+24*x-20", 6, 15),
    ("x^6+x+1", 6, 16),
    ("x^7+x^6+x^5+x^4+x^3+x^2+x+1", None, None),  # reducible: parse check only
]


class TestGaloisGroup:
    @pytest.mark.parametrize("text,degree,t", [k for k in KNOWN_GROUPS if k[1] is not None])
    def test_known_groups(self, text, degree, t):
        f = parse_polynomial(text)
        e = galois_group(f)
        assert (e.degree, e.t_number) == (degree, t), (text, e.label())

    def test_example1_quartic_is_d4(self):
        e = galois_group(poly([6, 0, 4, -4, 1]))
        assert e.label() == "4T3"
        assert e.order == 8

    def test_degree7(self):
        assert galois_group(poly([-2, 0, 0, 0, 0, 0, 0, 1])).label() == "7T4"  # x^7 - 2
        assert galois_group(poly([1, 1, 0, 0, 0, 0, 0, 1])).label() == "7T7"  # x^7 + x + 1
        # PSL(3,2) septic (Trinks' polynomial x^7 - 7x + 3)
        assert galois_group(poly([3, -7, 0, 0, 0, 0, 0, 1])).label() == "7T5"
        # cyclic: the Gauss period polynomial of the degree-7 subfield of the
        # 29th cyclotomic field (seven periods of length four)
        assert galois_group(poly([1, -9, 14, 28, -7, -12, 1, 1])).label() == "7T1"
        assert galois_group(poly([-1, 2, 1, -1, -1, -1, 1, 1])).label() == "7T2"
        assert galois_group(poly([-2, -6, 6, 16, -2, -8, 0, 1])).label() == "7T3"

    def test_period_polynomial_construction(self):
        # rebuild the conductor-29 period polynomial numerically and compare
        import mpmath

        mpmath.mp.dps = 60
        p, fdeg = 29, 7
        e = (p - 1) // fdeg
        periods = [
            sum(mpmath.exp(2j * mpmath.pi * pow(2, j + fdeg * k, p) / p) for k in range(e))
            for j in range(fdeg)
        ]
        coeffs = [mpmath.mpc(1)]
        for th in periods:
            nxt = [mpmath.mpc(0)] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i + 1] += c
                nxt[i] -= c * th
            coeffs = nxt
        ints = [int(mpmath.nint(mpmath.re(c))) for c in coeffs]
        assert ints == [1, -9, 14, 28, -7, -12, 1, 1]

    def test_cyclotomic_abelian(self):
        # phi(n) <= 7 forces an abelian group of order phi(n)
        import xlat.numtests as nt

        for n in range(3, 19):
            f = cyclotomic_polynomial(n)
            if f.degree < 2 or f.degree > 7:
                continue
            e = galois_group(f)
            assert e.order == f.degree, n
            # abelian transitive groups are regular; order == degree suffices here

    def test_rejects_reducible(self):
        with pytest.raises(NotIrreducible):
            galois_group(poly([-1, 0, 1]))
        with pytest.raises(NotIrreducible):
            galois_group(poly([0, 1, 1]))

    def test_degree_out_of_range(self):
        with pytest.raises(DegreeOutOfRange):
            galois_group(poly([1, 1, 0, 0, 0, 0, 0, 0, 1]))

    def test_deterministic(self):
        f = poly([6, 0, 4, -4, 1])
        a = galois_group(f, prime_budget=30, seed=1)
        b = galois_group(f, prime_budget=30, seed=1)
        assert a.label() == b.label()

    def test_dedekind_soundness_postcheck(self):
        # every observed cycle type is realized in the returned group
        for text, degree, t in KNOWN_GROUPS[:12]:
            if degree is None:
                continue
            f = parse_polynomial(text)
            e = galois_group(f)
            ev = frobenius_sample(f, prime_budget=25)
            for pattern in ev.patterns:
                assert pattern in e.cycle_type_set(), (text, pattern)


class TestOnePrimeLoop:
    """galois_group proves irreducibility from the same Frobenius patterns it
    samples, and falls back to factor_z after four primes."""

    @staticmethod
    def sympy_reducible(f):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        _, factors = sympy.factor_list(sum(c * x**i for i, c in enumerate(f.coeffs)))
        return len(factors) > 1 or factors[0][1] > 1

    @staticmethod
    def seeded_inputs():
        from xlat.rng import SplitMix64

        rng = SplitMix64(2024)

        def rand(degree):
            coeffs = [rng.randint(-6, 6) for _ in range(degree)] + [rng.randint(1, 4)]
            if coeffs[0] == 0:
                coeffs[0] = 1
            return poly(coeffs)

        out = []
        for split in ((1, 3), (2, 2), (1, 1, 2), (1, 5), (2, 4), (3, 3), (2, 2, 2)):
            for _ in range(3):
                f = poly([1])
                for d in split:
                    f = f * rand(d)
                out.append(f)
        out += [rand(2) ** 2, rand(3) ** 2]
        out += [rand(4) for _ in range(12)] + [rand(6) for _ in range(12)]
        out += [parse_polynomial("x^4+1"), parse_polynomial("x^4-10*x^2+1")]
        return out

    def test_not_irreducible_exactly_when_sympy_factors(self):
        seen = set()
        for f in self.seeded_inputs():
            reducible = self.sympy_reducible(f)
            seen.add(reducible)
            if reducible:
                with pytest.raises(NotIrreducible):
                    galois_group(f)
            else:
                assert galois_group(f).degree == f.degree
        assert seen == {True, False}

    def test_reducible_modulo_every_prime(self):
        # irreducible, yet the degree sets never rule out a factor: V4 groups
        assert galois_group(parse_polynomial("x^4+1")).label() == "4T2"
        assert galois_group(parse_polynomial("x^4-10*x^2+1")).label() == "4T2"

    @staticmethod
    def moved(f, kind):
        n = f.degree
        if kind == "shift":
            return f.shift(1)
        if kind == "reversal":
            return f.reversed_poly()
        return poly([c * 2 ** (n - i) for i, c in enumerate(f.coeffs)])  # 2^n f(x/2)

    @pytest.mark.parametrize("kind", ["shift", "reversal", "scale"])
    def test_moved_fixtures_keep_their_group(self, kind):
        # x -> x+1, x^n f(1/x) and 2^n f(x/2) move the roots, not the group,
        # and change which small primes divide the discriminant and lc
        for text, degree, t in KNOWN_GROUPS:
            if degree is None:
                continue
            g = self.moved(parse_polynomial(text), kind)
            assert galois_group(g).label() == f"{degree}T{t}", (text, kind)

    def test_reducible_cost_is_bounded(self, monkeypatch):
        import xlat.galois as mod

        calls = []
        for name in ("factor_degrees_mod_p", "discriminant", "is_irreducible_z"):
            fn = getattr(mod, name)

            def counted(*args, _fn=fn, _name=name):
                calls.append(_name)
                return _fn(*args)

            monkeypatch.setattr(mod, name, counted)
        f = poly([1, 1, 0, 1]) * poly([2, -1, 0, 1])  # two cubics
        with pytest.raises(NotIrreducible):
            galois_group(f)
        assert calls.count("discriminant") == 1
        assert calls.count("factor_degrees_mod_p") == 4
        assert calls.count("is_irreducible_z") == 1
        calls.clear()
        with pytest.raises(NotIrreducible):
            galois_group(poly([-1, 0, 1]) ** 2)  # disc 0: no prime, no factoring
        assert calls == ["discriminant"]


class TestSeparability:
    def test_pairwise_separability_from_tables(self):
        """For every ordered pair (true A, candidate B != A) of same-degree
        entries, worst-case filtering (full type coverage) excludes B."""
        table = resolvent_table()
        for degree, kinds in RESOLVENT_KINDS.items():
            entries = catalog_for_degree(degree)
            for a in entries:
                for b in entries:
                    if a is b:
                        continue
                    if b.parity_even != a.parity_even:
                        continue
                    if not (a.cycle_type_set() <= b.cycle_type_set()):
                        continue
                    assert any(
                        table[(degree, a.t_number, k)] != table[(degree, b.t_number, k)]
                        for k in kinds
                    ), (a.label(), b.label())

    def test_table_matches_recomputed_orbits(self):
        # resolvent table rows agree with orbit patterns recomputed from groups
        import itertools

        from xlat.permgroup import orbit_size_pattern

        table = resolvent_table()
        for e in load_catalog():
            n = e.degree
            if "P2" in RESOLVENT_KINDS[n]:
                pairs = [frozenset(p) for p in itertools.combinations(range(1, n + 1), 2)]
                got = orbit_size_pattern(e.group, pairs, lambda g, s: frozenset(g(x) for x in s))
                assert got == table[(n, e.t_number, "P2")], e.label()
            if "OP2" in RESOLVENT_KINDS[n]:
                pairs = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1) if x != y]
                got = orbit_size_pattern(e.group, pairs, lambda g, p: (g(p[0]), g(p[1])))
                assert got == table[(n, e.t_number, "OP2")], e.label()


class TestCatalogValidation:
    """Catalogs with a valid checksum that fail a structural check."""

    @pytest.fixture
    def write_catalog(self, tmp_path, monkeypatch):
        import hashlib

        import xlat.galois as mod

        def write(edit):
            lines = (mod._DATA_DIR / "catalog.txt").read_text().splitlines()
            text = "\n".join(edit(lines)) + "\n"
            path = tmp_path / "catalog.txt"
            path.write_text(text)
            (tmp_path / "catalog.sha256").write_text(hashlib.sha256(text.encode()).hexdigest() + "\n")
            monkeypatch.setenv("XLAT_CATALOG", str(path))
            mod._catalog_cache.clear()

        yield write
        monkeypatch.delenv("XLAT_CATALOG")
        mod._catalog_cache.clear()

    def test_wrong_order(self, write_catalog):
        write_catalog(lambda lines: [l.replace("4 3 8 D4", "4 3 9 D4") for l in lines])
        with pytest.raises(CatalogCorrupt, match=r"4T3: order 8 != 9"):
            load_catalog()

    def test_intransitive_group(self, write_catalog):
        write_catalog(
            lambda lines: [
                "4 2 4 V4 (1,2) (3,4)" if l.startswith("4 2 4 V4") else l for l in lines
            ]
        )
        with pytest.raises(CatalogCorrupt, match=r"4T2: not transitive"):
            load_catalog()

    def test_degree_missing(self, write_catalog):
        write_catalog(lambda lines: [l for l in lines if not l.startswith("7 ")])
        with pytest.raises(CatalogCorrupt, match=r"catalog counts .* != "):
            load_catalog()
