"""Sheaf cohomology on P^n through graded local duality.

For M a graded module with sheafification F on P^n (n = num_vars - 1):

    h^i(F(d)) = dim Ext^{n-i}_S(M, S)_{-d-n-1}          for 1 <= i <= n
    h^0(F(d)) = dim M_d - dim Ext^{n+1}(M, S)_{-d-n-1}
                        + dim Ext^n(M, S)_{-d-n-1}

Ext strands come from the dualized minimal free resolution (transpose each
matrix, negate degrees); one resolution and one dualized complex are
computed per presentation and reused for every query. The rank of the
degree-e strand of a dual map is dim (im psi)_e, a binomial sum over the
Hilbert numerator of its image, read off the leads of a Groebner basis of
its columns truncated at the highest degree asked so far; no strand matrix
is built.
"""

from __future__ import annotations

from dataclasses import dataclass

from .modules import binom
from .resolutions import hilbert_function, image_hilbert_numerator, minimal_free_resolution
from .rings import AlgebraError, InternalError


def _dual_data(pres):
    """Dual modules F_i^vee and maps psi_j = (d_j)^vee : F_{j-1}^vee -> F_j^vee."""
    if "dual" in pres.cache:
        return pres.cache["dual"]
    res, _ = minimal_free_resolution(pres)
    dual_modules = [m.dual() for m in res.modules]
    dual_maps = [m.dual() for m in res.maps]
    pres.cache["dual"] = (dual_modules, dual_maps)
    return dual_modules, dual_maps


def _dual_rank(pres, j, d):
    """Rank of the degree-d strand of psi_j, memoized per presentation: the
    binomial sum dim (im psi_j)_d over the Hilbert numerator of the image.
    The numerator comes from the leads of a Groebner basis of psi_j's
    columns truncated at the highest degree asked so far, and is cached
    next to "dual". A strand with an empty side has rank 0 and no basis is
    computed for it: its other side can have millions of basis elements."""
    key = ("dual_rank", j, d)
    if key in pres.cache:
        return pres.cache[key]
    _, dual_maps = _dual_data(pres)
    psi = dual_maps[j - 1]
    r = 0
    if psi.source.strand_dimension(d) and psi.target.strand_dimension(d):
        numerator = pres.cache.get(("numerator", j))
        if numerator is None:
            numerator = pres.cache[("numerator", j)] = image_hilbert_numerator(psi)
        n = pres.ring.dim
        r = sum(c * binom(d - m + n, n) for m, c in numerator(d).items())
    pres.cache[key] = r
    return r


def ext_strand_dim(pres, j, d):
    """dim Ext^j_S(M, S)_d, zero outside 0 <= j <= resolution length."""
    if j < 0:
        return 0
    dual_modules, dual_maps = _dual_data(pres)
    length = len(dual_maps)
    if j > length:
        return 0
    dim = dual_modules[j].strand_dimension(d)
    if dim == 0:
        return 0
    rank_out = _dual_rank(pres, j + 1, d) if j < length else 0
    rank_in = _dual_rank(pres, j, d) if j >= 1 else 0
    value = dim - rank_out - rank_in
    if value < 0:
        raise InternalError(f"Ext strand bookkeeping broke: dim Ext^{j}_{d} = {value}")
    return value


def sheaf_cohomology_dim(pres, i, d):
    """h^i of the sheafification twisted by d, exact."""
    n = pres.ring.dim
    if not 0 <= i <= n:
        raise AlgebraError(f"cohomological index {i} outside [0, {n}]")
    e = -d - n - 1
    if i >= 1:
        return ext_strand_dim(pres, n - i, e)
    return (
        hilbert_function(pres, d)
        - ext_strand_dim(pres, n + 1, e)
        + ext_strand_dim(pres, n, e)
    )


@dataclass
class CohomologyTable:
    n: int
    window: tuple
    h: list  # h[i][d - window[0]]

    def value(self, i, d):
        return self.h[i][d - self.window[0]]

    def to_json_dict(self):
        return {"n": self.n, "window": list(self.window), "h": [list(r) for r in self.h]}

    def to_ascii(self):
        lo, hi = self.window
        headers = [f"d={d}" for d in range(lo, hi + 1)]
        labels = [f"h^{i}" for i in range(self.n + 1)]
        width = max(len(s) for s in headers + [str(v) for row in self.h for v in row])
        lw = max(len(s) for s in labels)
        lines = [" " * lw + "  " + "  ".join(s.rjust(width) for s in headers)]
        for i in range(self.n, -1, -1):
            cells = "  ".join(str(v).rjust(width) for v in self.h[i])
            lines.append(labels[i].ljust(lw) + "  " + cells)
        return "\n".join(lines)


def cohomology_table(pres, d_min, d_max):
    """All h^i(F(d)) for 0 <= i <= n, d_min <= d <= d_max."""
    if d_min > d_max:
        raise AlgebraError(f"empty twist window [{d_min}, {d_max}]")
    n = pres.ring.dim
    rows = [[sheaf_cohomology_dim(pres, i, d) for d in range(d_min, d_max + 1)] for i in range(n + 1)]
    return CohomologyTable(n=n, window=(d_min, d_max), h=rows)


def line_bundle_oracle(n, twists, i, d):
    """Closed-form h^i of a direct sum of line bundles O(a), a in twists,
    twisted by d, on P^n. Independent of the resolution engine."""
    if not 0 <= i <= n:
        raise AlgebraError(f"cohomological index {i} outside [0, {n}]")
    if i == 0:
        return sum(binom(n + a + d, n) for a in twists)
    if i == n:
        return sum(binom(-a - d - 1, n) for a in twists)
    return 0


def euler_characteristic_line(n, m):
    """chi(O(m)) on P^n, exact: h^0 + (-1)^n h^n, since the other h^i vanish."""
    return binom(n + m, n) + (-1) ** n * binom(-m - 1, n)


def euler_characteristic(pres, d):
    """chi(F(d)) for F the sheafification of pres, exact: the alternating sum
    of chi(O(d - a)) over the degrees a of each term of the cached minimal
    resolution."""
    res, _ = minimal_free_resolution(pres)
    n = pres.ring.dim
    return sum(
        (-1) ** i * euler_characteristic_line(n, d - a)
        for i, mod in enumerate(res.modules)
        for a in mod.degrees
    )
