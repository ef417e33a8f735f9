"""Command-line front end and benchmark harness.

Subcommands: isqtrivial, fastbasis, galois, lattice rat, galoislike, bench,
catalog verify.  Reports are JSON on stdout; human diagnostics go to stderr.
Exit codes: 0 done (verdicts, including negative ones, are "done"),
1 input error, 2 identification failure, 3 inconclusive module check or
exhausted precision, 4 internal error (a failed soundness check, corrupt
data or any other library error that bad input does not explain).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .drivers import (
    entry_for_group,
    fastbasis_plus,
    is_qtrivial,
)
from .errors import (
    DegreeOutOfRange,
    GaloisFail,
    InputError,
    InternalError,
    ModuleCheckInconclusive,
    PrecisionExhausted,
    XlatError,
    ZeroEntry,
)
from .galois import galois_group, load_catalog
from .galoislike import galois_like_groups, numeric_lattices
from .lattice import rat_mult_lattice
from .permgroup import PermutationGroup
from .polycore import UnivariatePolynomial, factor_z, parse_polynomial
from .rng import SplitMix64, derive_seed

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_GALOISFAIL = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4


# ---------------------------------------------------------------------------
# random polynomial protocol


def random_polynomial(rng: SplitMix64, degree: int, coeff_bound: int = 10, edge_bound: int = 10):
    """Rejection-sampled irreducible polynomial: leading and constant
    coefficients from +-{1..edge_bound}, the rest from {-coeff_bound..coeff_bound};
    redraw everything until irreducible.  Returns (poly, regenerations)."""
    if degree < 2:
        raise InputError("protocol needs degree >= 2")
    regens = 0
    while True:
        constant = _signed_draw(rng, edge_bound)
        middle = [rng.randint(-coeff_bound, coeff_bound) for _ in range(degree - 1)]
        leading = _signed_draw(rng, edge_bound)
        f = UnivariatePolynomial([constant] + middle + [leading])
        if factor_z(f).is_irreducible:
            return f, regens
        regens += 1
        if regens > 10**4:
            raise InputError("rejection sampling exceeded the retry cap")


def _signed_draw(rng, bound):
    v = rng.randint(1, 2 * bound)
    return v if v <= bound else bound - v


# ---------------------------------------------------------------------------
# bench


@dataclass
class BenchConfig:
    degree: int
    count: int
    seed: int
    coeff_bound: int = 10
    edge_bound: int = 10
    parallelism: int = 1

    def __post_init__(self):
        if self.count < 1 or self.coeff_bound < 1 or self.edge_bound < 1:
            raise InputError("bench config bounds must be >= 1")


@dataclass
class BenchSummary:
    counts: dict
    average_time_ms: float
    regenerations: int
    config: BenchConfig

    def to_json(self):
        return {
            "counts": self.counts,
            "average_time_ms": self.average_time_ms,
            "regenerations": self.regenerations,
            "config": {
                "degree": self.config.degree,
                "count": self.config.count,
                "seed": self.config.seed,
                "coeff_bound": self.config.coeff_bound,
                "edge_bound": self.config.edge_bound,
                "parallelism": self.config.parallelism,
            },
        }


def _analyze_for_bench(args):
    index, coeffs, seed = args
    f = UnivariatePolynomial(coeffs)
    t0 = time.perf_counter()
    try:
        verdict = is_qtrivial(f, seed=seed)
        ms = 1000 * (time.perf_counter() - t0)
        return {
            "index": index,
            "verdict": verdict.verdict,
            "path": verdict.path,
            "group_tnumber": verdict.group.t_number if verdict.group else None,
            "time_ms": ms,
            "outcome": "Qtrivial" if verdict.verdict else "NotQtrivial",
            "two_transitive": verdict.path == "DoublyTransitive",
        }
    except (GaloisFail, ModuleCheckInconclusive, DegreeOutOfRange) as exc:
        ms = 1000 * (time.perf_counter() - t0)
        return {
            "index": index,
            "verdict": None,
            "path": type(exc).__name__,
            "group_tnumber": None,
            "time_ms": ms,
            "outcome": "GaloisFail",
            "two_transitive": False,
        }


def run_bench(cfg: BenchConfig):
    """Deterministic bench: the polynomial stream comes from one canonical
    seeded generator regardless of parallelism; per-analysis seeds are derived
    from (seed, index), so worker count never changes any verdict."""
    rng = SplitMix64(cfg.seed)
    tasks = []
    regens_total = 0
    outcomes_prefilled = {}
    for index in range(cfg.count):
        try:
            f, regens = random_polynomial(rng, cfg.degree, cfg.coeff_bound, cfg.edge_bound)
        except InputError:
            outcomes_prefilled[index] = {
                "index": index,
                "verdict": None,
                "path": "InputRegenerated",
                "group_tnumber": None,
                "time_ms": 0.0,
                "outcome": "InputRegenerated",
                "two_transitive": False,
            }
            continue
        regens_total += regens
        tasks.append((index, list(f.coeffs), derive_seed(cfg.seed, index)))

    if cfg.parallelism > 1:
        with ProcessPoolExecutor(max_workers=cfg.parallelism) as pool:
            results = list(pool.map(_analyze_for_bench, tasks))
    else:
        results = [_analyze_for_bench(t) for t in tasks]
    by_index = {r["index"]: r for r in results}
    by_index.update(outcomes_prefilled)
    rows = [by_index[i] for i in range(cfg.count)]

    counts = {
        "TwoTransitive": sum(r["two_transitive"] for r in rows),
        "Qtrivial": sum(r["outcome"] == "Qtrivial" for r in rows),
        "NotQtrivial": sum(r["outcome"] == "NotQtrivial" for r in rows),
        "GaloisFail": sum(r["outcome"] == "GaloisFail" for r in rows),
        "InputRegenerated": sum(r["outcome"] == "InputRegenerated" for r in rows),
    }
    outcomes = ("Qtrivial", "NotQtrivial", "GaloisFail", "InputRegenerated")
    if sum(counts[k] for k in outcomes) != cfg.count:
        raise InternalError("bench outcome counts do not add up to the count")
    if counts["TwoTransitive"] > counts["Qtrivial"]:
        raise InternalError("bench counts more 2-transitive than Q-trivial outcomes")
    timed = [r["time_ms"] for r in rows if r["outcome"] in ("Qtrivial", "NotQtrivial")]
    avg = sum(timed) / len(timed) if timed else 0.0
    summary = BenchSummary(
        counts=counts, average_time_ms=avg, regenerations=regens_total, config=cfg
    )
    return rows, summary


def bench_csv(cfg: BenchConfig, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["degree", "index", "verdict", "path", "group_tnumber", "time_ms"])
    for r in rows:
        writer.writerow(
            [
                cfg.degree,
                r["index"],
                "" if r["verdict"] is None else str(r["verdict"]).lower(),
                r["path"],
                "" if r["group_tnumber"] is None else r["group_tnumber"],
                f"{r['time_ms']:.3f}",
            ]
        )
    return buf.getvalue()


# ---------------------------------------------------------------------------
# command handlers


def _input_block(text, f):
    return {"text": text, "coefficients": list(f.coeffs), "degree": f.degree}


def _cmd_isqtrivial(args):
    f = parse_polynomial(args.poly)
    group = None
    if args.group:
        gens = [g.strip() for g in args.group.split(";") if g.strip()]
        try:
            perm_group = PermutationGroup(f.degree, gens)
        except ValueError as exc:
            raise InputError(f"bad --group: {exc}") from None
        group = entry_for_group(perm_group)
    verdict = is_qtrivial(f, group=group, seed=args.seed)
    report = {"command": "isqtrivial", "input": _input_block(args.poly, f)}
    report.update(verdict.to_json())
    return report, EXIT_OK


def _cmd_fastbasis(args):
    f = parse_polynomial(args.poly)
    out = fastbasis_plus(f, seed=args.seed)
    report = {"command": "fastbasis", "input": _input_block(args.poly, f)}
    report.update(out.to_json())
    return report, EXIT_OK


def _cmd_galois(args):
    f = parse_polynomial(args.poly)
    entry = galois_group(f, prime_budget=args.prime_budget, seed=args.seed)
    report = {
        "command": "galois",
        "input": _input_block(args.poly, f),
        "group": entry.to_json(),
        "flags": {
            "is_2transitive": entry.is_2transitive,
            "is_2homogeneous": entry.is_2homogeneous,
            "parity_even": entry.parity_even,
        },
    }
    return report, EXIT_OK


def _cmd_lattice_rat(args):
    from fractions import Fraction

    try:
        values = [Fraction(v) for v in args.values.split(",") if v.strip()]
        lat = rat_mult_lattice(values)
    except (ValueError, ZeroDivisionError, ZeroEntry) as exc:
        raise InputError(f"bad values: {exc}") from None
    report = {
        "command": "lattice-rat",
        "input": {"values": [str(v) for v in values]},
        "basis": [list(r) for r in lat.basis],
        "ambient_dim": lat.ambient_dim,
        "trivial": all(len(set(r)) == 1 for r in lat.basis),
    }
    return report, EXIT_OK


def _cmd_galoislike(args):
    f = parse_polynomial(args.poly)
    r_f, r_fq = numeric_lattices(f, precision=args.precision)
    triple = galois_like_groups(r_f, r_fq, f.degree)
    report = {
        "command": "galoislike",
        "input": _input_block(args.poly, f),
        "precision": args.precision,
        "heuristic": True,
        "lattices": {"exact_value": r_f.to_json(), "rational_value": r_fq.to_json()},
        "group_orders": triple.orders(),
    }
    return report, EXIT_OK


def _cmd_bench(args):
    cfg = BenchConfig(
        degree=args.degree,
        count=args.count,
        seed=args.seed,
        coeff_bound=args.coeff_bound,
        edge_bound=args.edge_bound,
        parallelism=args.jobs,
    )
    rows, summary = run_bench(cfg)
    csv_text = bench_csv(cfg, rows)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(csv_text)
    else:
        sys.stderr.write(csv_text)
    return {"command": "bench", **summary.to_json()}, EXIT_OK


def _cmd_catalog_verify(args):
    entries = load_catalog()
    by_degree = {}
    for e in entries:
        by_degree.setdefault(str(e.degree), []).append(e.t_number)
    report = {
        "command": "catalog-verify",
        "entries": len(entries),
        "by_degree": {k: sorted(v) for k, v in sorted(by_degree.items())},
        "ok": True,
    }
    return report, EXIT_OK


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="xlat",
        description="Exponent lattices of polynomial roots: triviality "
        "certificates, lattice bases, root-permutation groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("isqtrivial", help="decide Q-triviality of the pair of an irreducible polynomial")
    p.add_argument("poly")
    p.add_argument("--group", help="explicit generators in cycle notation, ';'-separated")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_isqtrivial)

    p = sub.add_parser("fastbasis", help="exponent lattice basis for the generic class, or F")
    p.add_argument("poly")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_fastbasis)

    p = sub.add_parser("galois", help="identify the Galois group (degree 2..7)")
    p.add_argument("poly")
    p.add_argument(
        "--prime-budget",
        type=int,
        default=80,
        help="most primes sampled for Frobenius cycle types, the ones that "
        "prove irreducibility included (default 80)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_galois)

    p = sub.add_parser("lattice", help="lattice utilities")
    lattice_sub = p.add_subparsers(dest="lattice_command", required=True)
    pr = lattice_sub.add_parser("rat", help="multiplicative relation lattice of rationals")
    pr.add_argument("values", help="comma-separated nonzero rationals, e.g. 2,3,6")
    pr.set_defaults(func=_cmd_lattice_rat)

    p = sub.add_parser("galoislike", help="numeric relation lattices and root-permutation groups")
    p.add_argument("poly")
    p.add_argument("--precision", type=int, default=100)
    p.set_defaults(func=_cmd_galoislike)

    p = sub.add_parser("bench", help="random-polynomial benchmark (CSV + JSON summary)")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--coeff-bound", type=int, default=10)
    p.add_argument("--edge-bound", type=int, default=10)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--csv", help="write the per-polynomial CSV here (default: stderr)")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("catalog", help="catalog utilities")
    cat_sub = p.add_subparsers(dest="catalog_command", required=True)
    pv = cat_sub.add_parser("verify", help="load and revalidate the embedded catalog")
    pv.set_defaults(func=_cmd_catalog_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = args.func(args)
    except (GaloisFail,) as exc:
        sys.stderr.write(f"identification failed: {exc}\n")
        return EXIT_GALOISFAIL
    except (ModuleCheckInconclusive, PrecisionExhausted) as exc:
        sys.stderr.write(f"inconclusive: {exc}\n")
        return EXIT_INCONCLUSIVE
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except XlatError as exc:  # InternalError, CatalogCorrupt, ...: not the input's fault
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL
    print(json.dumps(report, indent=2))
    return code


if __name__ == "__main__":
    sys.exit(main())
