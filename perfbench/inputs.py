"""Seeded workload inputs, built without importing xlat.

Every input comes from a SplitMix64 stream seeded by ``--seed`` and is
filtered with sympy, so a change to xlat (its generator or its factorizer)
cannot change what the benchmark feeds it.  An operation is a plain JSON
list ``[kind, ...arguments]`` that the worker process turns into one call.

Operation kinds:

* ``["qtrivial", coeffs]``: ``drivers.is_qtrivial(f)``
* ``["qtrivial_group", coeffs, degree, generators]``: ``is_qtrivial`` with an
  explicitly supplied permutation group
* ``["galois", coeffs]``: ``galois.galois_group(f)``
* ``["fastbasis", coeffs]``: ``drivers.fastbasis_plus(f)``
* ``["oracle", coeffs]``: ``galoislike.numeric_lattices`` at precision 100
  followed by ``galoislike.galois_like_groups``

Coefficient lists run from the constant term upwards.  Streams yield
``(operation, facts)`` pairs; ``facts`` is what the checker may know about the
input beforehand (a fixture's T-number, a corpus entry), never sent to xlat.
"""

from __future__ import annotations

import json
from math import gcd
from pathlib import Path

from sympy import ZZ, Poly, cyclotomic_poly, symbols
from sympy.polys.factortools import dup_factor_list

DATA = Path(__file__).resolve().parent / "data"
_MASK = (1 << 64) - 1


class SplitMix64:
    """The paper's protocol generator (same stream as ``xlat.rng``)."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        span = hi - lo + 1
        limit = (1 << 64) - ((1 << 64) % span)
        while True:
            u = self.next_u64()
            if u < limit:
                return lo + (u % span)


def sympy_factors(coeffs):
    """Irreducible factors over Z as [(factor coeffs low->high, multiplicity)]."""
    _, factors = dup_factor_list([ZZ(c) for c in reversed(coeffs)], ZZ)
    return [([int(c) for c in reversed(g)], k) for g, k in factors]


def is_irreducible(coeffs) -> bool:
    factors = sympy_factors(coeffs)
    return len(factors) == 1 and factors[0][1] == 1 and len(factors[0][0]) == len(coeffs)


def _signed(rng: SplitMix64, bound: int) -> int:
    v = rng.randint(1, 2 * bound)
    return v if v <= bound else bound - v


def protocol_polynomial(rng: SplitMix64, degree: int):
    """The paper's random protocol: leading and constant coefficients from
    +-{1..10}, the rest from {-10..10}, redrawn until irreducible."""
    while True:
        constant = _signed(rng, 10)
        middle = [rng.randint(-10, 10) for _ in range(degree - 1)]
        coeffs = [constant] + middle + [_signed(rng, 10)]
        if is_irreducible(coeffs):
            return coeffs


def protocol_stream(seed: int, kind: str):
    """Endless operations of one kind on protocol inputs, degrees 4,5,6,7 in turn."""
    rng = SplitMix64(seed)
    while True:
        for degree in (4, 5, 6, 7):
            yield [kind, protocol_polynomial(rng, degree)], {}


# ---------------------------------------------------------------------------
# the special workload


def load_fixtures():
    """Classical Galois-group fixtures: 29 of degree 2..6 and 6 septics."""
    return json.loads((DATA / "fixtures.json").read_text())


def load_corpus():
    return [json.loads(line) for line in (DATA / "corpus.jsonl").read_text().splitlines() if line.strip()]


def _primitive(coeffs):
    g = 0
    for c in coeffs:
        g = gcd(g, c)
    sign = -1 if coeffs[-1] < 0 else 1
    return [sign * c // g for c in coeffs]


def _horner_step(acc, a, c):
    # acc(x) * (x + a) + c, dropping the (always zero) top overflow
    nxt = [0] * len(acc)
    for i, v in enumerate(acc[:-1]):
        nxt[i + 1] += v
    for i, v in enumerate(acc):
        nxt[i] += a * v
    nxt[0] += c
    return nxt


def transform(coeffs, rng: SplitMix64):
    """A seeded group-preserving change of variable: f(x + a), then optionally
    the reversal x^n f(1/x), then b^n f(x/b).  Each maps the roots by a
    rational Moebius map, so the splitting field and the Galois group stay."""
    n = len(coeffs) - 1
    out = list(coeffs)
    a = rng.randint(-2, 2)
    if a:
        out = _shift(out, a)
    if rng.randint(0, 1):
        out = out[::-1]
    b = rng.randint(1, 2)
    out = [c * b ** (n - i) for i, c in enumerate(out)]
    return _primitive(out)


def _shift(coeffs, a: int):
    acc = [0] * len(coeffs)
    for c in reversed(coeffs):
        acc = _horner_step(acc, a, c)
    return acc


def _affine_group(q: int, mul, add, primitive_element):
    """Generators of AGL(1, q) on points 1..q: all translations and one
    multiplication by a primitive element (field elements are 0..q-1)."""
    gens = []
    for t in range(1, q):
        images = [add(x, t) for x in range(q)]
        gens.append(images)
    gens.append([mul(x, primitive_element) for x in range(q)])
    return [_images_to_cycles(img) for img in gens]


def _images_to_cycles(images):
    seen = [False] * len(images)
    out = []
    for i in range(len(images)):
        if seen[i] or images[i] == i:
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j + 1)
            j = images[j]
        out.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(out)


def _gf8_mul(x, y):
    r = 0
    for i in range(3):
        if (y >> i) & 1:
            r ^= x << i
    for i in (4, 3):  # reduce by t^3 + t + 1
        if (r >> i) & 1:
            r ^= 0b1011 << (i - 3)
    return r


def _gf9_mul(x, y):
    # F9 = F3[i]/(i^2 + 1); element x = x0 + 3*x1 means x0 + x1*i
    a0, a1 = x % 3, x // 3
    b0, b1 = y % 3, y // 3
    return (a0 * b0 - a1 * b1) % 3 + 3 * ((a0 * b1 + a1 * b0) % 3)


def _gf9_add(x, y):
    return (x % 3 + y % 3) % 3 + 3 * ((x // 3 + y // 3) % 3)


# Supplied groups at degrees 8 and 9.  Regular abelian groups of composite
# degree take the module check; the affine groups take the 2-transitive
# shortcut.  The reference answer of each is derived from the group alone.
SUPPLIED_GROUPS = [
    ("C8", 8, ["(1 2 3 4 5 6 7 8)"]),
    ("C4xC2", 8, ["(1 2 3 4)(5 6 7 8)", "(1 5)(2 6)(3 7)(4 8)"]),
    ("C2^3", 8, ["(1 2)(3 4)(5 6)(7 8)", "(1 3)(2 4)(5 7)(6 8)", "(1 5)(2 6)(3 7)(4 8)"]),
    ("C9", 9, ["(1 2 3 4 5 6 7 8 9)"]),
    ("C3xC3", 9, ["(1 2 3)(4 5 6)(7 8 9)", "(1 4 7)(2 5 8)(3 6 9)"]),
    ("AGL(1,8)", 8, _affine_group(8, _gf8_mul, lambda x, y: x ^ y, 0b010)),
    ("AGL(1,9)", 9, _affine_group(9, _gf9_mul, _gf9_add, 1 + 3 * 1)),
]


def ror_inputs(rng: SplitMix64):
    """Seeded root-of-rational inputs: b*x^n - a, a cyclotomic Phi_d with
    phi(d) <= 7, and c * g^k for g of either kind."""
    x = symbols("x")
    out = []
    while len(out) < 2:
        n, b, a = rng.randint(2, 7), rng.randint(1, 5), _signed(rng, 9)
        g = [-a] + [0] * (n - 1) + [b]
        if is_irreducible(g):
            out.append(g)
    d = (3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 18)[rng.randint(0, 10)]
    out.append([int(c) for c in reversed(Poly(cyclotomic_poly(d, x), x).all_coeffs())])
    base = out[rng.randint(0, len(out) - 1)]
    if len(base) - 1 <= 4:
        k, c = rng.randint(2, 3), _signed(rng, 3)
        power = [c]
        for _ in range(k):
            power = _poly_mul(power, base)
        out.append(power)
    return out


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def special_pass(rng: SplitMix64, fixtures, corpus):
    """One pass of the special workload:

    (a) every fixture, freshly transformed, through galois_group and is_qtrivial;
    (b) is_qtrivial with each supplied group on a fresh protocol polynomial;
    (c) fastbasis on the corpus and on fresh root-of-rational inputs;
    (d) the numeric oracle on the corpus.

    A run ends part-way through a pass, so the operations are grouped by kind
    and degree, each group put in golden-ratio order and the groups merged in
    proportion: any prefix of a pass holds every group, cheap and costly
    inputs alike, in proportion."""
    ops = []
    for fx in fixtures:
        coeffs = transform(fx["coefficients"], rng)
        ops += [(["galois", coeffs], fx), (["qtrivial", coeffs], fx)]
    for _name, degree, gens in SUPPLIED_GROUPS:
        ops.append((["qtrivial_group", protocol_polynomial(rng, degree), degree, gens], {}))
    ops += [(["fastbasis", it["polynomial"]], it) for it in corpus]
    for _ in range(3):
        ops += [(["fastbasis", g], {}) for g in ror_inputs(rng)]
    ops += [(["oracle", it["polynomial"]], it) for it in corpus]
    groups = {}
    for op, facts in ops:
        groups.setdefault((op[0], len(op[1]) - 1), []).append((op, facts))
    return _interleave([_golden_order(g) for g in groups.values()])


def _golden_order(items):
    m = len(items)
    return [items[i] for i in sorted(range(m), key=lambda i: (i * 0.6180339887498949) % 1)]


def _interleave(parts):
    total = sum(len(p) for p in parts)
    taken = [0] * len(parts)
    out = []
    for step in range(1, total + 1):
        # the part furthest behind its proportional share goes next
        best = max(
            (i for i in range(len(parts)) if taken[i] < len(parts[i])),
            key=lambda i: step * len(parts[i]) / total - taken[i],
        )
        out.append(parts[best][taken[best]])
        taken[best] += 1
    return out


def special_stream(seed: int):
    rng = SplitMix64(seed)
    fixtures, corpus = load_fixtures(), load_corpus()
    while True:
        yield from special_pass(rng, fixtures, corpus)


def stream(workload: str, seed: int):
    if workload == "generic":
        return protocol_stream(seed, "qtrivial")
    if workload == "fastbasis-random":
        return protocol_stream(seed, "fastbasis")
    if workload == "special":
        return special_stream(seed)
    raise ValueError(f"unknown workload {workload!r}")
