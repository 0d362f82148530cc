"""Constructions on presentations: twists, sums, tensor and symmetric powers,
power-map pullbacks, and the Koszul kernel sheaves.

Everything returns a new Presentation; inputs are never mutated. Koszul
kernels are read off `minimal_free_resolution` and memoized per (ring, m),
since the verification suites rebuild them constantly.
"""

from __future__ import annotations

import itertools

from .modules import GradedFreeModule, GradedMap
from .resolutions import Presentation, minimal_free_resolution
from .rings import AlgebraError, Polynomial


def twist(pres, e):
    """M(e): all generator and relation degrees shift by -e."""
    return Presentation(pres.gens.shifted(e), pres.rels.twisted(e))


def direct_sum(a, b):
    if a.ring != b.ring:
        raise AlgebraError("direct sum needs a common ring")
    ring = a.ring
    ra = a.gens.rank
    gens = GradedFreeModule(ring, a.gens.degrees + b.gens.degrees)
    cols = a.rels.cols + [{ra + i: p for i, p in col.items()} for col in b.rels.cols]
    source = GradedFreeModule(ring, a.rels.source.degrees + b.rels.source.degrees)
    return Presentation(gens, GradedMap.from_columns(source, gens, cols))


def tensor(a, b):
    """M (x) N presented as coker( F1(x)G0 + F0(x)G1 -> F0(x)G0 )."""
    if a.ring != b.ring:
        raise AlgebraError("tensor needs a common ring")
    ring = a.ring
    ra, rb = a.gens.rank, b.gens.rank
    gen_degrees = tuple(da + db for da in a.gens.degrees for db in b.gens.degrees)
    gens = GradedFreeModule(ring, gen_degrees)

    def pair(i, k):
        return i * rb + k

    cols = []
    col_degrees = []
    for u, col in enumerate(a.rels.cols):
        for k in range(rb):
            cols.append({pair(i, k): p for i, p in col.items()})
            col_degrees.append(a.rels.source.degrees[u] + b.gens.degrees[k])
    for i in range(ra):
        for v, col in enumerate(b.rels.cols):
            cols.append({pair(i, k): p for k, p in col.items()})
            col_degrees.append(a.gens.degrees[i] + b.rels.source.degrees[v])
    source = GradedFreeModule(ring, tuple(col_degrees))
    return Presentation(gens, GradedMap.from_columns(source, gens, cols))


def sym_power(pres, r):
    """Sym^r M presented as coker( F1 (x) Sym^{r-1} F0 -> Sym^r F0 )."""
    if r < 1:
        raise AlgebraError(f"symmetric power needs r >= 1, got {r}")
    ring = pres.ring
    base = pres.gens.degrees
    multisets = list(itertools.combinations_with_replacement(range(len(base)), r))
    gens = GradedFreeModule(ring, tuple(sum(base[k] for k in ms) for ms in multisets))
    index = {ms: t for t, ms in enumerate(multisets)}
    smaller = list(itertools.combinations_with_replacement(range(len(base)), r - 1))
    cols = []
    col_degrees = []
    for u, col in enumerate(pres.rels.cols):
        for ms in smaller:
            # distinct k give distinct multisets ms + (k,), so no entries collide
            cols.append({index[tuple(sorted(ms + (k,)))]: p for k, p in col.items()})
            col_degrees.append(pres.rels.source.degrees[u] + sum(base[k] for k in ms))
    source = GradedFreeModule(ring, tuple(col_degrees))
    return Presentation(gens, GradedMap.from_columns(source, gens, cols))


def q_power_pullback(pres, q):
    """Pullback along [x0:..:xn] -> [x0^q:..:xn^q]: substitute x_i -> x_i^q
    in every relation entry and scale all degrees by q. For q = p^N in
    characteristic p this is the N-fold Frobenius pullback."""
    if q < 1:
        raise AlgebraError(f"power pullback needs q >= 1, got {q}")
    ring = pres.ring
    gens = GradedFreeModule(ring, tuple(q * a for a in pres.gens.degrees))
    source = GradedFreeModule(ring, tuple(q * a for a in pres.rels.source.degrees))
    cols = [{i: p.substitute_powers(q) for i, p in col.items()} for col in pres.rels.cols]
    return Presentation(gens, GradedMap.from_columns(source, gens, cols))


def koszul_differential(ring, m):
    """The Koszul map Lambda^m V (x) S -> Lambda^{m-1} V (x) S(1), where V has
    basis x0..xn; index sets ordered lexicographically."""
    v = ring.num_vars
    if not 1 <= m <= v:
        raise AlgebraError(f"Koszul differential needs 1 <= m <= {v}")
    src_sets = list(itertools.combinations(range(v), m))
    tgt_sets = list(itertools.combinations(range(v), m - 1))
    tgt_index = {s: i for i, s in enumerate(tgt_sets)}
    source = GradedFreeModule(ring, (0,) * len(src_sets))
    target = GradedFreeModule(ring, (-1,) * len(tgt_sets))
    cols = []
    for s in src_sets:
        col = {}
        for slot, t in enumerate(s):
            term = Polynomial.variable(ring, t)
            col[tgt_index[s[:slot] + s[slot + 1 :]]] = -term if slot % 2 else term
        cols.append(col)
    return GradedMap.from_columns(source, target, cols)


_koszul_cache = {}


def koszul_kernel(ring, m):
    """The kernel sheaf R_m = ker(Lambda^m V (x) O -> Lambda^{m-1} V (x) O(1))
    on P^n, presented by modules[2] and maps[2] of the minimal resolution of
    the Koszul map's cokernel; sheafifies to Omega^m(m). m ranges over 0..n;
    R_0 is the structure sheaf, and R_n is free of rank one."""
    n = ring.dim
    if not 0 <= m <= n:
        raise AlgebraError(f"Koszul kernel index {m} outside [0, {n}]")
    key = (ring, m)
    if key in _koszul_cache:
        return _koszul_cache[key]
    if m == 0:
        out = Presentation.free(ring, (0,))
    else:
        d = koszul_differential(ring, m)
        res, _ = minimal_free_resolution(Presentation(d.target, d))
        if res.length > 2:
            out = Presentation(res.modules[2], res.maps[2])
        else:
            out = Presentation.free(ring, res.modules[2].degrees)
    _koszul_cache[key] = out
    return out


def omega(ring, p):
    """The sheaf of p-forms Omega^p = twist(R_p, -p)."""
    return twist(koszul_kernel(ring, p), -p)
