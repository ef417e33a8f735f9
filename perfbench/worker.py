"""The workload process: one thread, one caller, closed loop.

Imports xlat and finishes its set-up before timing, then reads chunks of
operations from stdin (one JSON object per line) and runs them one after the
other, timing each call.  After each chunk it answers with the results; the
clock is stopped while the parent generates the next chunk.  It stops when
``--seconds`` of timed work have passed or ``--limit`` operations are done,
then reports its peak resident memory and, with ``--trace 1``, the per-layer
summary of its spans.

    python3 perfbench/worker.py --seconds S --limit N --trace 0|1 [--spans PATH]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from time import perf_counter

import xlat.cli  # noqa: F401  (what every CLI call imports first)
from xlat import drivers, galois, galoislike
from xlat.permgroup import PermutationGroup
from xlat.polycore import UnivariatePolynomial


def _rows(lattice):
    return [list(r) for r in lattice.basis]


def execute(op):
    kind, coeffs = op[0], op[1]
    f = UnivariatePolynomial(coeffs)
    if kind == "qtrivial":
        v = drivers.is_qtrivial(f)
        return {"verdict": v.verdict, "path": v.path}
    if kind == "qtrivial_group":
        entry = drivers.entry_for_group(PermutationGroup(op[2], op[3]))
        v = drivers.is_qtrivial(f, group=entry)
        return {"verdict": v.verdict, "path": v.path}
    if kind == "galois":
        e = galois.galois_group(f)
        return {"degree": e.degree, "t": e.t_number}
    if kind == "fastbasis":
        out = drivers.fastbasis_plus(f)
        return {
            "status": out.status,
            "basis": _rows(out.basis) if out.basis is not None else None,
            "exponent": out.exponent,
        }
    if kind == "oracle":
        r_f, r_fq = galoislike.numeric_lattices(f, precision=100)
        triple = galoislike.galois_like_groups(r_f, r_fq, f.degree)
        return {"rf": _rows(r_f), "rfq": _rows(r_fq), "orders": triple.orders()}
    raise ValueError(f"unknown operation {kind!r}")


def _send(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=0.0, help="0: no time limit")
    parser.add_argument("--limit", type=int, default=0, help="0: no operation limit")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the raw spans here (traced run)")
    args = parser.parse_args()

    galois.load_catalog()
    galois.resolvent_table()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    timed = 0.0
    done = 0
    stopped = False
    while not stopped:
        msg = json.loads(sys.stdin.readline() or '{"stop": true}')
        if "ops" not in msg:
            break
        results = []
        start = perf_counter()
        for op in msg["ops"]:
            if (args.limit and done >= args.limit) or (
                args.seconds and timed + perf_counter() - start >= args.seconds
            ):
                stopped = True
                break
            t0 = perf_counter()
            try:
                res = tracer.run_op(done, lambda: execute(op)) if tracer else execute(op)
            except Exception as exc:  # a failed operation is counted, never fatal
                res = {"error": f"{type(exc).__name__}: {exc}"}
            results.append([perf_counter() - t0, res])
            done += 1
        timed += perf_counter() - start
        stopped = stopped or bool(args.limit and done >= args.limit) or bool(
            args.seconds and timed >= args.seconds
        )
        _send({"results": results, "stopped": stopped})

    final = {"timed_s": timed, "ops": done, "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer:
        if args.spans:
            tracer.write(args.spans)
        final["trace"] = tracer.summary(timed, max(done, 1))
    _send(final)


if __name__ == "__main__":
    main()
