"""High-precision complex root approximation with a canonical ordering.

Canonical order, used everywhere a root labeling matters: sort by real part
ascending, then imaginary part ascending.  Precision is raised until the
ordering keys are stable against the requested separation.
"""

import mpmath

from .errors import PrecisionExhausted


def approx_roots(f, dps: int):
    """Roots of f (need not be squarefree-checked here) at `dps` digits,
    canonically ordered.  Raises PrecisionExhausted if iteration fails."""
    if f.degree < 1:
        return []
    coeffs = list(reversed(f.coeffs))
    with mpmath.workdps(dps + 10):
        try:
            roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=2 * dps)
        except mpmath.libmp.NoConvergence as exc:
            raise PrecisionExhausted(f"root finding failed at {dps} digits") from exc
        roots = [mpmath.mpc(r) for r in roots]
        return canonical_order(roots)


def canonical_order(roots):
    return sorted(roots, key=lambda r: (mpmath.re(r), mpmath.im(r)))

