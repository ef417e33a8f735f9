"""Outside-in span tracer for the traced run.

Wraps public functions of xlat's layers in every xlat module that binds
them (``drivers``, ``galois``, ``numtests`` and ``cli`` each import
``factor_z`` by name, so patching ``polycore`` alone would miss their calls).
Spans are kept in memory as (name, start, end, parent, op id) and written
out once at the end; self times and ratios are derived from them.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, function) pairs whose calls become spans
TRACED = [
    ("polycore", "factor_z"),
    ("polycore", "factor_degrees_mod_p"),
    ("polycore", "discriminant"),
    ("galois", "galois_group"),
    ("galois", "resolvent_pattern"),
    ("galois", "tschirnhaus"),
    ("numtests", "is_ror"),
    ("numtests", "quotient_poly"),
    ("qmodule", "spin"),
    ("qmodule", "is_q_irreducible"),
    ("lattice", "ror_lattice"),
    ("lattice", "hnf"),
    ("galoislike", "numeric_lattices"),
    ("galoislike", "galois_like_groups"),
    ("drivers", "is_qtrivial"),
    ("drivers", "fastbasis_plus"),
]
RESOLVENT_KINDS = ("P2", "P3", "OP2", "M15", "COS6")
PATHS = ("PrimeDegree", "DoublyTransitive", "NotInS", "ModuleCheck")
OP_SPAN = "op"


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, op id)
        self.stack = [-1]
        self.op_id = -1
        self.counters = defaultdict(int)

    def span(self, name, fn, args, kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1]
        self.stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op_id)

    def wrap(self, module, name, fn):
        tracer = self
        label = f"{module}.{name}"
        if name == "resolvent_pattern":
            def wrapper(*args, **kwargs):
                kind = kwargs["kind"] if "kind" in kwargs else args[1]
                return tracer.span(f"{label}.{kind}", fn, args, kwargs)
        elif name == "is_ror":
            def wrapper(*args, **kwargs):
                result = tracer.span(label, fn, args, kwargs)
                if type(result).__name__ == "NotRor":
                    tracer.counters["numtests.is_ror.not_ror"] += 1
                return result
        elif name == "is_qtrivial":
            def wrapper(*args, **kwargs):
                result = tracer.span(label, fn, args, kwargs)
                tracer.counters[f"drivers.path.{result.path}"] += 1
                return result
        else:
            def wrapper(*args, **kwargs):
                return tracer.span(label, fn, args, kwargs)
        return wrapper

    def install(self):
        """Replace every binding of each traced function in loaded xlat modules."""
        modules = {n: m for n, m in sys.modules.items() if n.startswith("xlat.") and m}
        for module, name in TRACED:
            original = getattr(modules[f"xlat.{module}"], name)
            wrapper = self.wrap(module, name, original)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def run_op(self, op_id, fn):
        self.op_id = op_id
        return self.span(OP_SPAN, fn, (), {})

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": names}) + "\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"[{index[name]},{start:.9f},{end:.9f},{parent},{op}]\n")

    def summary(self, wall_s, ops):
        """Per-layer metrics derived from the spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
        out = {}

        def put(name, value, unit):
            out[name] = (value, unit)

        for module, name in TRACED:
            label = f"{module}.{name}"
            if name == "resolvent_pattern":
                for kind in RESOLVENT_KINDS:
                    put(f"{label}.{kind}.calls", calls[f"{label}.{kind}"], "count")
                    put(f"{label}.{kind}.self_s", self_s[f"{label}.{kind}"], "s")
                continue
            put(f"{label}.calls", calls[label], "count")
            put(f"{label}.self_s", self_s[label], "s")
        put("polycore.factor_z.calls_per_op", calls["polycore.factor_z"] / ops, "1/op")
        galois_calls = calls["galois.galois_group"]
        put(
            "galois.frobenius_primes_per_call",
            calls["polycore.factor_degrees_mod_p"] / galois_calls if galois_calls else 0.0,
            "1/call",
        )
        ror_calls = calls["numtests.is_ror"]
        put(
            "numtests.is_ror.not_ror_ratio",
            self.counters["numtests.is_ror.not_ror"] / ror_calls if ror_calls else 0.0,
            "ratio",
        )
        for path in PATHS:
            put(f"drivers.path.{path}", self.counters[f"drivers.path.{path}"], "count")
        layers = sum(v for n, v in self_s.items() if n != OP_SPAN)
        put("trace.ops", ops, "count")
        put("trace.wall_s", wall_s, "s")
        put("trace.untraced_s", wall_s - layers, "s")
        return out
