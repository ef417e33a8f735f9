"""xlat benchmark: seeded workloads, closed loop, independently checked answers.

    python3 perfbench/run.py --workload generic --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

Run from the repository root.  Inputs are generated here from ``--seed``
(see inputs.py) and sent to a fresh worker process that imports xlat from
``src/`` and calls it from one thread, one operation at a time.  Every answer
is checked after timing against references that xlat did not compute (see
reference.py); a wrong answer names the input and makes the exit code 1.

``--trace 0`` prints the end-to-end metrics: ops_per_s, latency_p50_ms,
latency_p95_ms, setup_s and peak_rss_mb.  ``--trace 1`` runs a fixed number
of operations (so that counts repeat exactly per seed) once traced and once
untraced, and prints the per-layer metrics.  The last line of stdout is
always the JSON result.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_RUNS = 9

# first chunk size, and the rate (ops/s at the seed commit) that sizes the
# fixed operation count of a traced run to about half of --seconds
WORKLOADS = {
    "generic": {"first_chunk": 256, "trace_rate": 360.0},
    "fastbasis-random": {"first_chunk": 16, "trace_rate": 5.5},
    "special": {"first_chunk": 64, "trace_rate": 18.0},
}


class BenchError(Exception):
    pass


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


# ---------------------------------------------------------------------------
# set-up: fresh interpreters, timed from outside


def measure_setup():
    """Median wall time of a fresh interpreter becoming ready, and the median
    import and catalog times it reports.  One untimed warm-up run first."""
    walls, imports, catalogs = [], [], []
    for i in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py")],
            env=_child_env(), cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        if i == 0:
            continue
        info = json.loads(proc.stdout.strip().splitlines()[-1])
        walls.append(wall)
        imports.append(info["import_s"])
        catalogs.append(info["load_catalog_s"])
    return statistics.median(walls), statistics.median(imports), statistics.median(catalogs)


# ---------------------------------------------------------------------------
# the workload process


def run_worker(pairs, seconds=0.0, limit=0, trace=False, spans=None, first_chunk=64):
    """Feed (operation, facts) pairs to a fresh worker in chunks until it stops.

    Returns ([(op, facts, latency_s, result)], final report)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--seconds", str(seconds),
           "--limit", str(limit), "--trace", str(int(trace))]
    if spans:
        cmd += ["--spans", str(spans)]
    records = []
    proc = subprocess.Popen(cmd, env=_child_env(), cwd=ROOT, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    try:
        chunk = limit or first_chunk
        timed = 0.0
        while True:
            batch = list(itertools.islice(pairs, chunk))
            if not batch:
                proc.stdin.write('{"stop": true}\n')
                proc.stdin.flush()
                break
            proc.stdin.write(json.dumps({"ops": [op for op, _ in batch]}) + "\n")
            proc.stdin.flush()
            reply = _read(proc)
            for (op, facts), (latency, result) in zip(batch, reply["results"]):
                records.append((op, facts, latency, result))
            timed += sum(r[0] for r in reply["results"])
            if reply["stopped"]:
                break
            if limit:
                chunk = limit - len(records)
            else:  # enough for the remaining time at the rate seen so far
                rate = len(records) / max(timed, 1e-3)
                chunk = min(4000, max(8, int(rate * (seconds - timed) * 1.05) + 8))
        final = _read(proc)
        proc.stdin.close()
        if proc.wait(timeout=60) != 0:
            raise BenchError(f"worker exited with {proc.returncode}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return records, final


def _read(proc):
    line = proc.stdout.readline()
    if not line:
        raise BenchError("worker ended without a reply (see its stderr above)")
    return json.loads(line)


# ---------------------------------------------------------------------------
# checking against references


def expectation(op, facts):
    """What a correct result must contain, from sources other than xlat."""
    import reference as ref

    kind, coeffs = op[0], op[1]
    if kind == "galois":
        return {"degree": facts["degree"], "t": facts["t_number"]}
    if kind == "qtrivial" and facts:
        return {"verdict": ref.qtrivial_of_fixture(facts["degree"], facts["t_number"])}
    if kind == "qtrivial":
        return {"verdict": ref.qtrivial(coeffs)}
    if kind == "qtrivial_group":
        return {"verdict": ref.qtrivial_of_group(op[2], tuple(op[3]))}
    if kind == "fastbasis":
        status, _g, k, _rank = ref.fastbasis_expectation(tuple(coeffs))
        out = {"status": status}
        if status == "Basis":
            out["exponent"] = k
            if facts.get("expected_basis") is not None and not facts.get("advisory") and k == 1:
                out["basis"] = facts["expected_basis"]
        return out
    if kind == "oracle":
        if facts.get("advisory"):
            return {"rank": facts["expected_Rf_rank"]}
        basis = facts["expected_basis"]
        n = len(coeffs) - 1
        return {"rf": basis, "relation_group": ref.relation_group_order(tuple(map(tuple, basis)), n)}
    raise ValueError(kind)


def _observed(op, result, keys):
    out = {}
    for key in keys:
        if key == "rank":
            out[key] = len(result["rf"])
        elif key == "relation_group":
            out[key] = result["orders"]["relation_group"]
        else:
            out[key] = result.get(key)
    return out


def _basis_problems(op, result):
    """Every returned basis vector must be a relation among the roots; a
    Q-trivial base that is no root of rational has the trivial lattice."""
    import reference as ref

    _status, g, k, trivial_rank = ref.fastbasis_expectation(tuple(op[1]))
    n = len(g) - 1
    if trivial_rank is not None and len(result["basis"]) != trivial_rank + n * (k - 1):
        return f"rank {len(result['basis'])}, expected {trivial_rank + n * (k - 1)}"
    for u in result["basis"]:
        if not ref.is_relation(g, k, u):
            return f"basis vector {u} is not a relation among the roots"
    return None


def _plant(expected):
    """A deliberately wrong expectation (self-check of the checker)."""
    key = next(iter(expected))
    value = expected[key]
    if isinstance(value, bool):
        wrong = not value
    elif isinstance(value, int):
        wrong = value + 1
    elif isinstance(value, str):
        wrong = "F" if value == "Basis" else "Basis"
    else:
        wrong = [[1]] if not value else []
    return {**expected, key: wrong}


def check(records, plant=False):
    """Wrong answers as printable lines; failed operations are not checked."""
    import reference as ref

    wrong = []
    for index, (op, facts, _latency, result) in enumerate(records):
        if "error" in result:
            continue
        try:
            expected = expectation(op, facts)
        except ref.NoReference as exc:
            raise BenchError(f"op {index} {op[0]} {op[1:]}: no reference answer: {exc}") from exc
        if plant and index == 0:
            expected = _plant(expected)
        got = _observed(op, result, expected)
        problem = None
        if got != expected:
            problem = f"expected {expected}, got {got}"
        elif op[0] == "fastbasis" and result["status"] == "Basis":
            problem = _basis_problems(op, result)
        if problem:
            wrong.append(f"op {index} {op[0]} {op[1:]}: {problem}")
    return wrong


# ---------------------------------------------------------------------------
# metrics


def hd_median(values):
    """Harrell-Davis estimate of the median: a Beta-weighted mean of the order
    statistics.  Random-protocol latencies form one cluster per degree and
    the median falls in the gap between two of them, where the plain sample
    median jumps from one cluster's edge to the other's between seeds."""
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    weights = np.diff(betainc((n + 1) / 2, (n + 1) / 2, np.arange(n + 1) / n))
    return float(weights @ x)


def end_to_end(records, final, setup_s):
    """latency_p95_ms is the plain sample percentile (linear interpolation),
    which a single multi-second input cannot move.  ops_per_s counts each
    operation's time up to twice that p95, so that one rare very slow input
    (a degree-7 fastbasis took 15.7 s; about one in 1000 random inputs takes
    several seconds) costs a run a few percent instead of half its figure;
    such inputs still show in the printed maximum latency."""
    import numpy as np

    latencies = [lat for _op, _f, lat, res in records if "error" not in res]
    if not latencies:
        raise BenchError("no operation completed")
    p95 = float(np.percentile(latencies, 95))
    return {
        "ops_per_s": (len(latencies) / sum(min(lat, 2 * p95) for lat in latencies), "1/s"),
        "latency_p50_ms": (1000 * hd_median(latencies), "ms"),
        "latency_p95_ms": (1000 * p95, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (final["maxrss_kb"] / 1024, "MB"),
    }


def run(args):
    import inputs

    config = WORKLOADS[args.workload]
    setup_s, import_s, catalog_s = measure_setup()
    pairs = inputs.stream(args.workload, args.seed)
    if not args.trace:
        records, final = run_worker(pairs, seconds=args.seconds, first_chunk=config["first_chunk"])
        metrics = end_to_end(records, final, setup_s)
        all_records = records
    else:
        limit = max(8, int(args.seconds * config["trace_rate"] / 2))
        fixed = list(itertools.islice(pairs, limit))
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        records, final = run_worker(iter(fixed), limit=limit, trace=True, spans=spans)
        plain, plain_final = run_worker(iter(fixed), limit=limit)
        metrics = dict(final["trace"])
        metrics["galois.load_catalog.s"] = (catalog_s, "s")
        metrics["setup.import_s"] = (import_s, "s")
        metrics["trace.overhead_ratio"] = (
            (final["ops"] / final["timed_s"]) / (plain_final["ops"] / plain_final["timed_s"]),
            "ratio",
        )
        all_records = records + plain
        print(f"spans: {spans.relative_to(ROOT)}")

    wrong = check(all_records, plant=args.plant_wrong)
    attempted = len(records)
    failed = sum("error" in res for _op, _f, _lat, res in records)
    for _op, _f, _lat, res in records:
        if "error" in res:
            print(f"failed: {res['error']}", file=sys.stderr)
    completed = attempted - failed
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    slowest = max((lat for _op, _f, lat, res in records if "error" not in res), default=0.0)
    print(f"  attempted {attempted}  failed {failed}  failed_ratio {failed / attempted:.4f}"
          f"  samples {completed}  beyond_p95 {completed - math.ceil(0.95 * completed)}"
          f"  max_latency_ms {1000 * slowest:.1f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6f} {unit}")
    for line in wrong:
        print(f"wrong answer: {line}", file=sys.stderr)
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if wrong else 0


# ---------------------------------------------------------------------------
# self-check


def self_check():
    """Every workload on a few inputs: every metric printed with its unit,
    counts repeating exactly, and a planted wrong answer failing the run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }

    def invoke(workload, trace, *extra):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
               "--seconds", "2", "--trace", str(trace), *extra]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        return proc, proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""

    for workload in WORKLOADS:
        traced = []
        for trace in (0, 1, 1):
            proc, last = invoke(workload, trace)
            assert proc.returncode == 0, (workload, trace, proc.stderr)
            result = json.loads(last)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["attempted"] >= 1
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected[trace], (workload, trace, set(got) ^ set(expected[trace]))
            if trace:
                traced.append(result["metrics"])
        counts = [{n: m["value"] for n, m in t.items() if m["unit"] in ("count", "1/op", "1/call")}
                  for t in traced]
        assert counts[0] == counts[1], (workload, "counts differ between traced runs")
        layers = sum(m["value"] for n, m in traced[0].items() if n.endswith(".self_s"))
        untraced = traced[0]["trace.untraced_s"]["value"]
        assert untraced >= 0 and abs(layers + untraced - traced[0]["trace.wall_s"]["value"]) < 1e-6
        proc, _ = invoke(workload, 0, "--plant-wrong")
        assert proc.returncode != 0 and "wrong answer: op 0" in proc.stderr, (workload, proc.stderr)
        print(f"self-check {workload}: ok")
    print("self-check: ok")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant-wrong", action="store_true",
                        help="expect a wrong answer for the first operation (checks the checker)")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "xlat" / "__init__.py").is_file():
        print(f"no xlat sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if not args.workload:
        parser.error("--workload is required")
    sys.path.insert(0, str(HERE))
    try:
        return run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
