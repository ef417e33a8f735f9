import pytest

from xlat.drivers import (
    entry_for_group,
    fastbasis_plus,
    in_E_plus,
    in_set_S,
    is_qtrivial,
    is_qtrivial_group,
)
from xlat import drivers
from xlat.errors import GaloisFail, InputError, ModuleCheckInconclusive
from xlat.galois import catalog_for_degree
from xlat.lattice import equal, member
from xlat.permgroup import PermutationGroup
from xlat.polycore import poly

EX1_G = poly([6, 0, 4, -4, 1])  # x^4 - 4x^3 + 4x^2 + 6
EX2_F = poly([-1, 3, 3, -4, -1, 1])  # x^5 - x^4 - 4x^3 + 3x^2 + 3x - 1


def brute_in_S(n):
    # independent: prime powers by direct check, plus the explicit sporadic family
    def is_prime(m):
        return m > 1 and all(m % d for d in range(2, m))

    prime_power = any(
        p**e == n for p in range(2, n + 1) if is_prime(p) for e in range(1, n.bit_length() + 1)
    )
    sporadic = any(
        2 ** (f - 1) * (2**f - 1) == n and is_prime(2**f - 1) for f in range(3, 12)
    )
    return prime_power or sporadic


class TestSetS:
    def test_spec_examples(self):
        assert in_set_S(9) is True
        assert in_set_S(28) is True
        assert in_set_S(6) is False

    def test_against_brute_force_2_to_130(self):
        for n in range(2, 131):
            assert in_set_S(n) == brute_in_S(n), n

    def test_sporadic_values(self):
        assert in_set_S(496)  # f = 5, 2^5 - 1 = 31 prime
        assert not in_set_S(120)  # f = 4 gives 8 * 15, but 15 is not prime

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            in_set_S(1)


class TestIsQtrivial:
    def test_example1_false(self):
        out = is_qtrivial(EX1_G)
        assert out.verdict is False
        assert out.path == "ModuleCheck"
        assert out.group.label() == "4T3"

    def test_example2_true_prime_path(self):
        out = is_qtrivial(EX2_F)
        assert out.verdict is True
        assert out.path == "PrimeDegree"

    def test_reducible_is_error(self):
        with pytest.raises(InputError):
            is_qtrivial(poly([-1, 0, 1]))

    def test_zero_constant_term_is_error(self):
        with pytest.raises(InputError):
            is_qtrivial(poly([0, 1, 0, 0, 1]))

    def test_shifted_example1_same_verdict(self):
        # f(x) = g(x-1) has the same pair, hence the same verdict
        out = is_qtrivial(EX1_G.shift(-1))
        assert out.verdict is False

    def test_doubly_transitive_path(self):
        out = is_qtrivial(poly([1, 1, 0, 0, 0, 0, 1]))  # x^6 + x + 1, S6
        assert out.verdict is True
        assert out.path == "DoublyTransitive"
        assert out.group.is_2transitive

    def test_not_in_s_path(self):
        # x^6 + 108 has group S3(6) of order 6; 6 is outside the degree class
        out = is_qtrivial(poly([108, 0, 0, 0, 0, 0, 1]))
        assert out.verdict is False
        assert out.path == "NotInS"

    def test_supplied_group_is_used(self):
        entry = entry_for_group(PermutationGroup(4, ["(1 2 3 4)", "(1 2)"]))
        out = is_qtrivial(poly([12, 8, 0, 0, 1]), group=entry)
        assert out.verdict is True and out.path == "DoublyTransitive"

    @pytest.mark.parametrize(
        "group",
        [
            PermutationGroup(4, ["(1 2)"]),  # intransitive
            PermutationGroup(4, ["(1 2)", "(3 4)"]),  # intransitive, two orbits
            PermutationGroup(5, ["(1 2 3 4 5)"]),  # transitive, wrong degree
        ],
    )
    def test_supplied_group_must_be_transitive_of_the_degree(self, group):
        with pytest.raises(InputError, match="not a transitive group of degree 4"):
            is_qtrivial(poly([1, 1, 0, 0, 1]), group=entry_for_group(group))

    def test_degree_one_rejected(self):
        with pytest.raises(InputError):
            is_qtrivial(poly([-2, 1]))

    def test_degree8_with_supplied_group(self):
        # beyond the catalog: the caller supplies the group explicitly
        from xlat.errors import DegreeOutOfRange

        f = poly([-1, -1, 0, 0, 0, 0, 0, 0, 1])  # x^8 - x - 1, group S8
        with pytest.raises(DegreeOutOfRange):
            is_qtrivial(f)
        s8 = entry_for_group(PermutationGroup(8, ["(1 2)", "(1 2 3 4 5 6 7 8)"]))
        out = is_qtrivial(f, group=s8)
        assert out.verdict is True and out.path == "DoublyTransitive"

    def test_degree8_supplied_abelian_group_module_check(self):
        # 8 is a prime power, so a supplied non-2-transitive group reaches the
        # module check; x^8 + 1 has a regular abelian action (C2 x C4), whose
        # standard module splits rationally
        grp = entry_for_group(
            PermutationGroup(8, ["(1 2 3 4)(5 6 7 8)", "(1 5)(2 6)(3 7)(4 8)"])
        )
        f = poly([1] + [0] * 7 + [1])
        out = is_qtrivial(f, group=grp)
        assert out.path == "ModuleCheck"
        assert out.verdict is False


class TestWorkPerDecision:
    """is_qtrivial factors its input once and computes its discriminant once."""

    @staticmethod
    def count_calls(monkeypatch, name):
        import importlib

        calls = []
        for mod_name in ("polycore", "galois", "drivers", "numtests", "cli"):
            mod = importlib.import_module(f"xlat.{mod_name}")
            fn = getattr(mod, name, None)
            if fn is None:
                continue

            def counted(*args, _fn=fn, **kwargs):
                calls.append(name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(mod, name, counted)
        return calls

    def test_protocol_sextic(self, monkeypatch):
        from xlat.cli import random_polynomial
        from xlat.rng import SplitMix64

        f, _ = random_polynomial(SplitMix64(0), 6)
        factor_calls = self.count_calls(monkeypatch, "factor_z")
        disc_calls = self.count_calls(monkeypatch, "discriminant")
        group_calls = self.count_calls(monkeypatch, "galois_group")
        out = is_qtrivial(f)
        assert out.group.label() == "6T16" and out.path == "DoublyTransitive"
        assert (len(factor_calls), len(disc_calls), len(group_calls)) == (0, 1, 1)

    def test_reducible_modulo_every_prime(self, monkeypatch):
        # x^4 + 1 splits modulo every prime, so the degree sets never prove it
        # irreducible and galois_group factors it once, after four primes
        # (its resolvents are factored too)
        import importlib

        f = poly([1, 0, 0, 0, 1])
        factored = []
        for mod_name in ("polycore", "galois", "drivers", "numtests", "qmodule"):
            mod = importlib.import_module(f"xlat.{mod_name}")
            if hasattr(mod, "factor_z"):

                def recording(g, _fn=mod.factor_z):
                    factored.append(g)
                    return _fn(g)

                monkeypatch.setattr(mod, "factor_z", recording)
        out = is_qtrivial(f)
        assert out.group.label() == "4T2" and out.verdict is False
        assert factored.count(f) == 1

    def test_quintic(self, monkeypatch):
        factor_calls = self.count_calls(monkeypatch, "factor_z")
        group_calls = self.count_calls(monkeypatch, "galois_group")
        assert is_qtrivial(EX2_F).path == "PrimeDegree"
        assert (len(factor_calls), len(group_calls)) == (1, 0)

    @pytest.mark.parametrize(
        "f",
        [
            poly([1, 0, 1]) * poly([1, 1, 0, 0, 1]),  # degree 6, group found from f
            poly([1, 0, 1]) * poly([-1, -1, 0, 0, 0, 0, 1]),  # degree 8, no catalog
        ],
    )
    def test_reducible_input_error_unchanged(self, f):
        with pytest.raises(InputError) as exc:
            is_qtrivial(f)
        assert type(exc.value) is InputError
        assert str(exc.value) == "input polynomial is reducible"


class TestCatalogSweep:
    def test_degree4_exactly_two(self):
        results = {e.label(): is_qtrivial_group(e) for e in catalog_for_degree(4)}
        trues = {k for k, v in results.items() if v.verdict}
        assert trues == {"4T4", "4T5"}  # A4, S4: exactly the 2-transitive ones
        for e in catalog_for_degree(4):
            if e.label() in trues:
                assert e.is_2transitive
        # the rest go through the module check (4 is a prime power)
        for k, v in results.items():
            if k not in trues:
                assert v.path == "ModuleCheck" and not v.verdict

    def test_degree6_exactly_four_no_module_check(self):
        results = {e.label(): is_qtrivial_group(e) for e in catalog_for_degree(6)}
        trues = {k for k, v in results.items() if v.verdict}
        assert len(trues) == 4
        for e in catalog_for_degree(6):
            v = results[e.label()]
            if v.verdict:
                assert v.path == "DoublyTransitive" and e.is_2transitive
            else:
                # 6 is outside the degree class: the module check never runs
                assert v.path == "NotInS"

    def test_prime_degree_cross_validation(self):
        # forcing the module check on prime-degree groups agrees with the
        # prime shortcut (all are Q-trivial)
        for degree in (3, 5, 7):
            for e in catalog_for_degree(degree):
                forced = is_qtrivial_group(e, force_module_check=True)
                assert forced.verdict is True, e.label()
                assert forced.path == "ModuleCheck"
                shortcut = is_qtrivial_group(e)
                assert shortcut.verdict is True and shortcut.path == "PrimeDegree"


class TestEPlus:
    def test_example1_not_member(self):
        d = in_E_plus(EX1_G)
        assert d.member is False and not d.undecided

    def test_sqrt2_member_ror(self):
        d = in_E_plus(poly([-2, 0, 1]))
        assert d.member is True and d.ror is not None

    def test_example2_member_qtrivial(self):
        d = in_E_plus(EX2_F)
        assert d.member is True
        assert d.qtrivial is not None and d.qtrivial.verdict

    def test_x_divides(self):
        assert in_E_plus(poly([0, 1, 1])).member is False

    def test_two_factors_not_member(self):
        d = in_E_plus(poly([-1, 0, 1]))
        assert d.member is False and "c * g^k" in d.reason

    @pytest.mark.parametrize("error", [GaloisFail, ModuleCheckInconclusive])
    def test_undecided_keeps_its_error_class(self, monkeypatch, error):
        def undecided(g, seed=0):
            raise error("no verdict")

        monkeypatch.setattr(drivers, "is_qtrivial", undecided)
        d = in_E_plus(EX2_F)
        assert d.member is False and d.undecided and type(d.error) is error
        with pytest.raises(error) as info:
            fastbasis_plus(EX2_F)
        assert type(info.value) is error
        assert str(info.value) == f"undecided: {error.__name__}: no verdict"


class TestFastBasis:
    def test_example2_allones(self):
        out = fastbasis_plus(EX2_F)
        assert out.status == "Basis"
        assert out.certificate == "QtrivialTrivialLattice"
        assert out.basis.basis == ((1, 1, 1, 1, 1),)

    def test_sqrt2(self):
        out = fastbasis_plus(poly([-2, 0, 1]))
        assert out.status == "Basis"
        assert out.certificate == "AllRor"
        assert out.basis.basis == ((2, -2),)

    def test_example1_returns_F(self):
        out = fastbasis_plus(EX1_G)
        assert out.status == "F"
        assert out.basis is None

    def test_power_lift(self):
        # f = (x^2 - 2)^2: rank = rank(R_g) + n(k-1) = 1 + 2
        f = poly([-2, 0, 1]) ** 2
        out = fastbasis_plus(f)
        assert out.status == "Basis"
        assert out.exponent == 2
        assert out.basis.rank == 3
        # (r, r, s, s) layout: copies consecutive; differences are relations
        assert member(out.basis, [1, -1, 0, 0])
        assert member(out.basis, [0, 0, 1, -1])
        assert member(out.basis, [2, 0, -2, 0])

    def test_scaled_power(self):
        f = poly([-2, 0, 1]) * 7
        out = fastbasis_plus(f)
        assert out.status == "Basis"
        assert out.content == 7

    def test_minus_one_product_gives_two_two(self):
        # x^2 - 3x + 1: roots multiply to 1 -> all-ones; x^2 - x - 1: product -1
        out = fastbasis_plus(poly([1, -3, 1]))
        assert out.status == "Basis" and out.basis.basis == ((1, 1),)
        out = fastbasis_plus(poly([-1, -1, 1]))
        assert out.status == "Basis" and out.basis.basis == ((2, 2),)

    def test_root_product_one_gives_allones(self):
        # x^4 + x + 1 (group S4) has root product exactly 1
        out = fastbasis_plus(poly([1, 1, 0, 0, 1]))
        assert out.status == "Basis"
        assert out.basis.basis == ((1, 1, 1, 1),)

    def test_generic_quartic_empty_lattice(self):
        # x^4 + x + 2: Q-trivial pair, root product 2, so no relations at all
        out = fastbasis_plus(poly([2, 1, 0, 0, 1]))
        assert out.status == "Basis"
        assert out.certificate == "QtrivialTrivialLattice"
        assert out.basis.rank == 0

    def test_rejects_zero_constant(self):
        with pytest.raises(InputError):
            fastbasis_plus(poly([0, 1, 1]))

    def test_linear(self):
        out = fastbasis_plus(poly([-3, 1]))
        assert out.status == "Basis" and out.basis.rank == 0
        out = fastbasis_plus(poly([1, 1]))
        assert out.basis.basis == ((2,),)

    def test_cyclotomic_power(self):
        # (x^2 + x + 1)^3: base lattice from the root-of-unity branch
        out = fastbasis_plus(poly([1, 1, 1]) ** 3)
        assert out.status == "Basis"
        assert out.certificate == "AllRor"
        assert out.basis.rank == 2 + 2 * 2  # rank(R_g) + n(k-1)

    def test_oracle_agreement_on_corpus(self):
        # whenever a basis is produced for a corpus item, the numeric oracle
        # candidate lattice coincides with it (canonical root order on both sides)
        from xlat.errors import InputError as _IE
        from xlat.galoislike import load_corpus, numeric_lattices

        compared = 0
        for it in load_corpus():
            f = it["polynomial"]
            if it.get("advisory") or f.degree > 6:
                continue
            try:
                out = fastbasis_plus(f)
            except _IE:
                continue
            if out.status != "Basis" or out.exponent != 1:
                continue
            oracle_rf, _ = numeric_lattices(f, precision=100)
            assert equal(out.basis, oracle_rf), it
            compared += 1
        assert compared >= 20
