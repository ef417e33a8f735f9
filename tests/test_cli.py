import json
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from xlat.cli import (
    BenchConfig,
    bench_csv,
    build_parser,
    main,
    random_polynomial,
    run_bench,
)
from xlat.errors import InputError
from xlat.polycore import factor_z
from xlat.rng import SplitMix64

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "src" / "xlat" / "data" / "report.schema.json").read_text()
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    report = json.loads(out.out) if out.out.strip() else None
    return code, report, out.err


def validate(report):
    jsonschema.validate(report, SCHEMA)


class TestRandomPolynomial:
    def test_protocol_bounds(self):
        rng = SplitMix64(1)
        for _ in range(50):
            f, _regens = random_polynomial(rng, 6)
            assert f.degree == 6
            assert 1 <= abs(f.lc) <= 10
            assert 1 <= abs(f[0]) <= 10
            assert all(abs(f[i]) <= 10 for i in range(1, 6))
            assert factor_z(f).is_irreducible

    def test_deterministic_stream(self):
        a = [random_polynomial(SplitMix64(7), 4)[0] for _ in range(1)]
        b = [random_polynomial(SplitMix64(7), 4)[0] for _ in range(1)]
        assert a == b

    def test_seed_changes_stream(self):
        assert random_polynomial(SplitMix64(1), 4)[0] != random_polynomial(SplitMix64(2), 4)[0]


class TestCommands:
    def test_isqtrivial_example1(self, capsys):
        code, report, _ = run_cli(capsys, "isqtrivial", "x^4-4*x^3+4*x^2+6")
        assert code == 0
        assert report["verdict"] is False
        validate(report)

    def test_isqtrivial_example2(self, capsys):
        code, report, _ = run_cli(capsys, "isqtrivial", "x^5-x^4-4*x^3+3*x^2+3*x-1")
        assert code == 0
        assert report["verdict"] is True and report["path"] == "PrimeDegree"
        validate(report)

    def test_isqtrivial_reducible_exit1(self, capsys):
        code, report, err = run_cli(capsys, "isqtrivial", "x^2-1")
        assert code == 1 and report is None and "reducible" in err

    def test_isqtrivial_with_group(self, capsys):
        code, report, _ = run_cli(
            capsys, "isqtrivial", "x^4+8*x+12", "--group", "(1 2 3);(2 3 4)"
        )
        assert code == 0
        assert report["verdict"] is True
        assert report["group"]["t_number"] is None
        validate(report)

    def test_fastbasis(self, capsys):
        code, report, _ = run_cli(capsys, "fastbasis", "x^2-2")
        assert code == 0
        assert report["status"] == "Basis"
        assert report["basis"]["basis"] == [[2, -2]]
        validate(report)

    def test_fastbasis_f(self, capsys):
        code, report, _ = run_cli(capsys, "fastbasis", "x^4-4*x^3+4*x^2+6")
        assert code == 0 and report["status"] == "F"
        validate(report)

    def test_galois(self, capsys):
        code, report, _ = run_cli(capsys, "galois", "x^4+x^3+x^2+x+1")
        assert code == 0
        assert report["group"] == {"degree": 4, "t_number": 1, "order": 4, "name": "C4"}
        validate(report)

    def test_galois_degree_out_of_range_exit1(self, capsys):
        code, _, err = run_cli(capsys, "galois", "x^8+x+1")
        assert code == 1

    def test_lattice_rat(self, capsys):
        code, report, _ = run_cli(capsys, "lattice", "rat", "2,3,6")
        assert code == 0
        assert report["basis"] == [[1, 1, -1]]
        validate(report)

    def test_lattice_rat_fraction(self, capsys):
        code, report, _ = run_cli(capsys, "lattice", "rat", "1/2,2")
        assert code == 0
        assert report["basis"] == [[1, 1]]
        validate(report)

    def test_galoislike(self, capsys):
        code, report, _ = run_cli(capsys, "galoislike", "x^2-2", "--precision", "60")
        assert code == 0
        assert report["lattices"]["exact_value"]["basis"] == [[2, -2]]
        assert report["group_orders"]["relation_group"] == 2
        validate(report)

    def test_catalog_verify(self, capsys):
        code, report, _ = run_cli(capsys, "catalog", "verify")
        assert code == 0
        assert report["entries"] == 36
        assert report["by_degree"]["6"] == list(range(1, 17))
        validate(report)

    def test_parse_error_exit1(self, capsys):
        code, _, err = run_cli(capsys, "isqtrivial", "y^2+1")
        assert code == 1

    def test_precision_exhausted_exit3(self, capsys):
        # roots 1 and 1 + 1e-12 collapse at 20 digits
        f = f"{10**24}*x^2-{2 * 10**24 + 10**12}*x+{10**24 + 10**12}"
        code, report, err = run_cli(capsys, "galoislike", f, "--precision", "20")
        assert code == 3 and report is None
        assert "inconclusive" in err


class TestExitCodes:
    """Bad input exits 1 with an `input error:` line; a library error that
    the input does not explain exits 4 with one `internal error:` line."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("isqtrivial", "x^4+x+1", "--group", "(1 2 9)"),  # point 9 at degree 4
            ("isqtrivial", "x^4+x+1", "--group", "(1 2)"),  # intransitive
            ("lattice", "rat", "0,2"),
            ("lattice", "rat", "2,a"),
        ],
    )
    def test_bad_input_exit1(self, capsys, argv):
        code, report, err = run_cli(capsys, *argv)
        assert code == 1 and report is None
        assert err.startswith("input error: ") and err.count("\n") == 1

    def test_corrupt_catalog_exit4(self, capsys, tmp_path, monkeypatch):
        import hashlib

        import xlat.galois as mod

        text = "2 1 2 S2 (1,2)\n"  # a valid checksum over a one-line catalog
        (tmp_path / "catalog.txt").write_text(text)
        (tmp_path / "catalog.sha256").write_text(hashlib.sha256(text.encode()).hexdigest())
        monkeypatch.setenv("XLAT_CATALOG", str(tmp_path / "catalog.txt"))
        mod._catalog_cache.clear()
        try:
            code, report, err = run_cli(capsys, "galois", "x^5-x-1")
        finally:
            mod._catalog_cache.clear()
        assert code == 4 and report is None
        assert err.startswith("internal error: CatalogCorrupt: catalog counts")
        assert err.count("\n") == 1


class TestBench:
    def test_small_bench_summary(self, capsys, tmp_path):
        csv_path = tmp_path / "bench.csv"
        code, report, _ = run_cli(
            capsys,
            "bench",
            "--degree",
            "4",
            "--count",
            "10",
            "--seed",
            "3",
            "--csv",
            str(csv_path),
        )
        assert code == 0
        counts = report["counts"]
        assert sum(counts[k] for k in ("Qtrivial", "NotQtrivial", "GaloisFail", "InputRegenerated")) == 10
        assert counts["TwoTransitive"] <= counts["Qtrivial"]
        validate(report)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "degree,index,verdict,path,group_tnumber,time_ms"
        assert len(lines) == 11

    def test_reproducible_modulo_timing(self):
        cfg = BenchConfig(degree=5, count=12, seed=99)
        rows1, s1 = run_bench(cfg)
        rows2, s2 = run_bench(BenchConfig(degree=5, count=12, seed=99))
        strip = lambda text: [",".join(l.split(",")[:-1]) for l in text.splitlines()]
        assert strip(bench_csv(cfg, rows1)) == strip(bench_csv(cfg, rows2))
        assert s1.counts == s2.counts

    def test_parallel_matches_serial(self):
        cfg_serial = BenchConfig(degree=4, count=8, seed=5, parallelism=1)
        cfg_par = BenchConfig(degree=4, count=8, seed=5, parallelism=2)
        rows_s, sum_s = run_bench(cfg_serial)
        rows_p, sum_p = run_bench(cfg_par)
        keys = ("index", "verdict", "path", "group_tnumber")
        assert [{k: r[k] for k in keys} for r in rows_s] == [
            {k: r[k] for k in keys} for r in rows_p
        ]
        assert sum_s.counts == sum_p.counts

    def test_config_validation(self):
        with pytest.raises(InputError):
            BenchConfig(degree=4, count=0, seed=1)

    def test_prime_degree_above_catalog_works(self):
        # degree 11 is prime: the shortcut decides without identification
        rows, summary = run_bench(BenchConfig(degree=11, count=3, seed=1))
        assert summary.counts["Qtrivial"] == 3
        assert all(r["path"] == "PrimeDegree" for r in rows)

    def test_composite_degree_above_catalog_counts_failures(self):
        # degree 8 has no embedded catalog: honest failure rows, no crash
        rows, summary = run_bench(BenchConfig(degree=8, count=3, seed=1))
        assert summary.counts["GaloisFail"] == 3
        assert all(r["verdict"] is None for r in rows)


class TestParser:
    def test_all_subcommands_present(self):
        parser = build_parser()
        text = parser.format_help()
        for cmd in ("isqtrivial", "fastbasis", "galois", "lattice", "galoislike", "bench", "catalog"):
            assert cmd in text
