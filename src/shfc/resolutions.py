"""Presentations, minimal free resolutions, Betti tables, Hilbert functions.

A module is the cokernel of a graded map rels: F1 -> F0 = gens. This module
alone builds minimal free resolutions and imports `groebner`. They are
minimal by construction: the presentation is first reduced by unit
elimination, then `groebner.resolve` replaces the relations and each kernel
by a minimal homogeneous generating set (weakly increasing degree +
Nakayama), so no map in the chain carries a unit; `_unit_entries` finds
units from degrees, for the elimination and for the check on each map.

The Hilbert function of the image of a map comes from the leads of a
Groebner basis of its columns (`groebner.image_leads`), truncated at the
highest degree asked: position by position they span monomial ideals, and
`hilbert_numerator` gives each one's Hilbert-series numerator without
enumerating a degree.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from operator import le

from .groebner import image_leads, resolve
from .modules import GradedFreeModule, GradedMap
from .rings import AlgebraError, InternalError

MINUS_INFINITY = float("-inf")


@dataclass
class Presentation:
    """coker(rels: F1 -> gens), all data homogeneous."""

    gens: GradedFreeModule
    rels: GradedMap
    cache: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def free(cls, ring, degrees):
        gens = GradedFreeModule(ring, tuple(degrees))
        return cls(gens, GradedMap.from_columns(GradedFreeModule(ring, ()), gens, []))

    @property
    def ring(self):
        return self.gens.ring

    def validate(self):
        if self.rels.target != self.gens:
            raise AlgebraError("relation map must land in the generator module")
        self.rels.validate()
        return self


@dataclass
class FreeResolution:
    """modules[0] <- modules[1] <- ... with maps[i]: modules[i+1] -> modules[i]."""

    modules: list
    maps: list

    @property
    def length(self):
        return len(self.maps)


@dataclass
class BettiTable:
    entries: dict

    def regularity(self):
        if not self.entries:
            return MINUS_INFINITY
        return max(j - i for (i, j) in self.entries)


def _unit_entries(cols, source_degrees, target_degrees):
    """(row, column) of each unit entry of a homogeneous map given by sparse
    columns, column by column with rows ascending: entry (i, j) has degree
    source_degrees[j] - target_degrees[i], and a stored entry is nonzero."""
    for j, col in enumerate(cols):
        for i in sorted(col):
            if source_degrees[j] == target_degrees[i]:
                yield i, j


def minimize_presentation(pres):
    """Isomorphic presentation with no unit relation entries; `resolve`
    prunes the relation columns to minimal generators."""
    pres.validate()
    ring = pres.ring
    gen_degrees = list(pres.gens.degrees)
    col_degrees = list(pres.rels.source.degrees)
    cols = list(pres.rels.cols)

    while (hit := next(_unit_entries(cols, col_degrees, gen_degrees), None)) is not None:
        i, j = hit
        inv = ring.cinv(cols[j][i].constant_value())
        pivot = {r: p.scale(inv) for r, p in cols[j].items()}
        for k, col in enumerate(cols):
            if k == j or i not in col:
                continue
            factor = col[i]
            col = dict(col)
            for r, b in pivot.items():
                col[r] = col[r] - factor * b if r in col else -(factor * b)
            cols[k] = col
        del cols[j]
        del col_degrees[j]
        # row i is now zero in every column; later rows move up by one
        cols = [{r - (r > i): p for r, p in col.items() if r != i and p.terms} for col in cols]
        del gen_degrees[i]

    gens = GradedFreeModule(ring, tuple(gen_degrees))
    rels = GradedMap.from_columns(GradedFreeModule(ring, tuple(col_degrees)), gens, cols)
    return Presentation(gens, rels)


def minimal_free_resolution(pres):
    """Minimal free resolution of coker(pres), cached on the presentation."""
    if "resolution" in pres.cache:
        return pres.cache["resolution"]
    reduced = minimize_presentation(pres)
    maps = resolve(reduced.rels)
    modules = [reduced.gens] + [m.source for m in maps]
    for m in maps:
        if next(_unit_entries(m.cols, m.source.degrees, m.target.degrees), None) is not None:
            raise InternalError("resolution is not minimal")
    res = FreeResolution(modules=modules, maps=maps)
    betti = BettiTable(
        entries={
            (i, j): mod.degrees.count(j)
            for i, mod in enumerate(modules)
            for j in sorted(set(mod.degrees))
        }
    )
    pres.cache["resolution"] = (res, betti)
    return res, betti


def betti_table(pres):
    return minimal_free_resolution(pres)[1]


def module_regularity(betti):
    """max(j - i) over the Betti table; minus-infinity sentinel for the zero module."""
    return betti.regularity()


def hilbert_function(pres, d):
    """dim of the degree-d piece, exact in every degree via the resolution."""
    res, _ = minimal_free_resolution(pres)
    return sum((-1) ** i * mod.strand_dimension(d) for i, mod in enumerate(res.modules))


def _minimal_monomials(monos):
    """The minimal generators of the monomial ideal of monos, by degree."""
    kept = []
    for m in sorted(set(monos), key=lambda m: (sum(m), m)):
        if not any(all(map(le, k, m)) for k in kept):
            kept.append(m)
    return kept


def hilbert_numerator(monos):
    """Numerator N of the Hilbert series N(t) / (1 - t)^v of S/I, for I the
    monomial ideal of the exponent tuples monos over v variables, as a
    Counter {degree: coefficient}: dim (S/I)_k = sum N[i] binom(k - i + v - 1,
    v - 1). Permuting the variables changes nothing.

    Bigatti's pivot p = x^e, x the variable in most generators that are not
    pure powers and e the median of its exponents there, splits
    N(I) = N(I + (p)) + t^e N(I : p). Generators with pairwise disjoint
    supports are a leaf, N = prod (1 - t^deg m). Pending ideals wait on an
    explicit stack, each with the shift of its t power."""
    out = Counter()
    stack = [(_minimal_monomials(monos), 0)]
    while stack:
        gens, shift = stack.pop()
        masks = [sum(1 << i for i, a in enumerate(m) if a) for m in gens]
        union = 0
        for mask in masks:
            if union & mask:
                break
            union |= mask
        else:
            leaf = Counter({shift: 1})
            for m in gens:
                d = sum(m)
                for k, c in list(leaf.items()):
                    leaf[k + d] -= c
            out.update(leaf)
            continue
        mixed = [m for m, mask in zip(gens, masks) if mask & (mask - 1)]
        count = Counter(i for m in mixed for i, a in enumerate(m) if a)
        x = min(count, key=lambda i: (-count[i], i))
        exps = sorted(m[x] for m in mixed if m[x])
        e = exps[len(exps) // 2]
        p = tuple(e if i == x else 0 for i in range(len(gens[0])))
        stack.append(([m for m in gens if m[x] < e] + [p], shift))
        colon = [m[:x] + (max(m[x] - e, 0),) + m[x + 1:] for m in gens]
        stack.append((_minimal_monomials(colon), shift + e))
    return Counter({k: c for k, c in out.items() if c})


def image_hilbert_numerator(phi):
    """A function of a degree d that returns the numerator of the Hilbert
    series of the image of phi as a Counter {degree: coefficient}, exact in
    every degree up to the highest d asked so far: there dim (im phi)_e =
    sum c binom(e - m + n, n) over its items (m, c).

    Up to a bound the image has the Hilbert function of the leads of a
    bound-truncated Groebner basis, so the numerator is the sum over target
    positions of t^a (1 - N), a the degree of the position and N the
    `hilbert_numerator` of its leads. The basis grows only when d exceeds
    every degree asked before, by resuming one Buchberger run."""
    leads = image_leads(phi)
    bound, numerator = -math.inf, None

    def at(d):
        nonlocal bound, numerator
        if d > bound:
            by_pos = {}
            for pos, mono in leads(d):
                by_pos.setdefault(pos, []).append(mono)
            out = Counter()
            for pos, monos in by_pos.items():
                a = phi.target.degrees[pos]
                out[a] += 1
                for k, c in hilbert_numerator(monos).items():
                    out[a + k] -= c
            bound, numerator = d, Counter({k: c for k, c in out.items() if c})
        return numerator

    return at


def default_verification_window(pres):
    _, betti = minimal_free_resolution(pres)
    if not betti.entries:
        return (0, 0)
    lo = min(j for (_, j) in betti.entries) - 2
    hi = betti.regularity() + pres.ring.dim + 2
    return (lo, hi)


def verify_strand_exactness(pres, window=None):
    """Check that the cached resolution is a resolution of coker(pres):
    consecutive composites vanish identically, strand ranks are exact at
    homological positions >= 1, and the degree-d cokernel dimensions match
    the original presentation on the window. Returns True, or raises
    InternalError (also under python -O)."""
    res, _ = minimal_free_resolution(pres)
    if window is None:
        window = default_verification_window(pres)
    lo, hi = window
    for a, b in zip(res.maps, res.maps[1:]):
        if not a.compose(b).is_zero():
            raise InternalError("consecutive maps do not compose to zero")
    orig_gens = pres.gens
    orig_rels = pres.rels
    for d in range(lo, hi + 1):
        ranks = [m.strand_matrix(d).rank() for m in res.maps]
        dims = [m.strand_dimension(d) for m in res.modules]
        for i in range(1, len(res.modules)):
            incoming = ranks[i] if i < len(ranks) else 0
            kernel = dims[i] - ranks[i - 1]
            if kernel != incoming:
                raise InternalError(f"resolution not exact at position {i}, degree {d}")
        expected = orig_gens.strand_dimension(d) - orig_rels.strand_matrix(d).rank()
        got = dims[0] - (ranks[0] if ranks else 0)
        if got != expected:
            raise InternalError(f"cokernel dimension mismatch in degree {d}")
    return True
