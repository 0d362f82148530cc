"""Seeded corpus of locally free sheaves for the verification suites.

Families: direct sums of line bundles O(a) with |a| <= 3, twisted
differentials Omega^p(k) with |k| <= 3, the Koszul kernels R_m, and q-power
pullbacks (q in {2,3}) of any of those. Local freeness is known a priori
for every family, so suite soundness never leans on the probabilistic
evaluation gate.

Draws whose presentation degrees exceed a cap are redrawn: q-powers scale
degrees by q and the cost of a cohomology strand grows like a binomial in
the degree spread, so the cap is what keeps suite runtimes at desk scale.
"""

from __future__ import annotations

from .constructions import koszul_kernel, omega, q_power_pullback, twist
from .resolutions import Presentation

DEGREE_CAP = 10


def line_bundle_sum(ring, twists):
    return Presentation.free(ring, tuple(-a for a in twists))


def _draw_base(ring, rng):
    """One draw from the non-pullback families, with a printable name."""
    n = ring.dim
    kind = rng.randint(0, 2)
    if kind == 0:
        rank = rng.randint(1, 3)
        twists = [rng.randint(-3, 3) for _ in range(rank)]
        desc = "+".join(f"O({a})" for a in twists)
        return line_bundle_sum(ring, twists), desc
    if kind == 1:
        p = rng.randint(0, n)
        k = rng.randint(-3, 3)
        pres = twist(omega(ring, p), k)
        return pres, f"Omega^{p}({k})"
    m = rng.randint(0, n)
    return koszul_kernel(ring, m), f"R_{m}"


def _max_degree(pres):
    degrees = pres.gens.degrees + pres.rels.source.degrees
    return max((abs(d) for d in degrees), default=0)


def draw_locally_free(ring, rng):
    """Draw one corpus module under the degree cap; q-power draws whose
    scaled degrees exceed the cap are redrawn deterministically."""
    while True:
        if rng.randint(0, 3) == 3:
            q = rng.randint(2, 3)
            base, desc = _draw_base(ring, rng)
            pres, desc = q_power_pullback(base, q), f"qpow({desc},{q})"
        else:
            pres, desc = _draw_base(ring, rng)
        if _max_degree(pres) <= DEGREE_CAP:
            return pres, desc
