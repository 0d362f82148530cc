"""Constructions on presentations: twists, sums, tensor and symmetric powers,
power-map pullbacks, and the Koszul kernel sheaves.

Everything returns a new Presentation; inputs are never mutated. Koszul
kernels are memoized per (ring, m) since the verification suites rebuild
them constantly.
"""

from __future__ import annotations

import itertools

from .groebner import minimal_generators, syzygies
from .modules import GradedFreeModule, GradedMap
from .resolutions import Presentation
from .rings import AlgebraError, Polynomial


def twist(pres, e):
    """M(e): all generator and relation degrees shift by -e."""
    gens = pres.gens.shifted(e)
    rels = GradedMap(pres.rels.source.shifted(e), gens, pres.rels.matrix)
    return Presentation(gens, rels)


def direct_sum(a, b):
    if a.ring != b.ring:
        raise AlgebraError("direct sum needs a common ring")
    ring = a.ring
    zero = Polynomial.zero(ring)
    gens = GradedFreeModule(ring, a.gens.degrees + b.gens.degrees)
    cols = []
    for col in a.rels.columns():
        cols.append(list(col) + [zero] * b.gens.rank)
    for col in b.rels.columns():
        cols.append([zero] * a.gens.rank + list(col))
    source = GradedFreeModule(ring, a.rels.source.degrees + b.rels.source.degrees)
    return Presentation(gens, GradedMap.from_columns(source, gens, cols))


def tensor(a, b):
    """M (x) N presented as coker( F1(x)G0 + F0(x)G1 -> F0(x)G0 )."""
    if a.ring != b.ring:
        raise AlgebraError("tensor needs a common ring")
    ring = a.ring
    zero = Polynomial.zero(ring)
    ra, rb = a.gens.rank, b.gens.rank
    gen_degrees = tuple(da + db for da in a.gens.degrees for db in b.gens.degrees)
    gens = GradedFreeModule(ring, gen_degrees)

    def pair(i, k):
        return i * rb + k

    cols = []
    col_degrees = []
    for u in range(a.rels.source.rank):
        for k in range(rb):
            col = [zero] * (ra * rb)
            for i in range(ra):
                p = a.rels.matrix[i][u]
                if not p.is_zero():
                    col[pair(i, k)] = p
            cols.append(col)
            col_degrees.append(a.rels.source.degrees[u] + b.gens.degrees[k])
    for i in range(ra):
        for v in range(b.rels.source.rank):
            col = [zero] * (ra * rb)
            for k in range(rb):
                p = b.rels.matrix[k][v]
                if not p.is_zero():
                    col[pair(i, k)] = p
            cols.append(col)
            col_degrees.append(a.gens.degrees[i] + b.rels.source.degrees[v])
    source = GradedFreeModule(ring, tuple(col_degrees))
    return Presentation(gens, GradedMap.from_columns(source, gens, cols))


def sym_power(pres, r):
    """Sym^r M presented as coker( F1 (x) Sym^{r-1} F0 -> Sym^r F0 )."""
    if r < 1:
        raise AlgebraError(f"symmetric power needs r >= 1, got {r}")
    ring = pres.ring
    zero = Polynomial.zero(ring)
    base = pres.gens.degrees
    multisets = list(itertools.combinations_with_replacement(range(len(base)), r))
    gens = GradedFreeModule(ring, tuple(sum(base[k] for k in ms) for ms in multisets))
    index = {ms: t for t, ms in enumerate(multisets)}
    smaller = list(itertools.combinations_with_replacement(range(len(base)), r - 1))
    cols = []
    col_degrees = []
    for u in range(pres.rels.source.rank):
        for ms in smaller:
            col = [zero] * len(multisets)
            for k in range(len(base)):
                p = pres.rels.matrix[k][u]
                if p.is_zero():
                    continue
                target = tuple(sorted(ms + (k,)))
                col[index[target]] = col[index[target]] + p
            cols.append(col)
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
    rows = tuple(
        tuple(p.substitute_powers(q) for p in row) for row in pres.rels.matrix
    )
    return Presentation(gens, GradedMap(source, gens, rows))


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
    zero = Polynomial.zero(ring)
    cols = []
    for s in src_sets:
        col = [zero] * len(tgt_sets)
        for slot, t in enumerate(s):
            rest = s[:slot] + s[slot + 1 :]
            sign = -1 if slot % 2 else 1
            term = Polynomial.variable(ring, t)
            col[tgt_index[rest]] = col[tgt_index[rest]] + (term if sign > 0 else -term)
        cols.append(col)
    return GradedMap.from_columns(source, target, cols)


_koszul_cache = {}


def koszul_kernel(ring, m):
    """The kernel sheaf R_m = ker(Lambda^m V (x) O -> Lambda^{m-1} V (x) O(1))
    on P^n, presented by its syzygies; sheafifies to Omega^m(m). m ranges
    over 0..n; R_0 is the structure sheaf."""
    n = ring.dim
    if not 0 <= m <= n:
        raise AlgebraError(f"Koszul kernel index {m} outside [0, {n}]")
    key = (ring, m)
    if key in _koszul_cache:
        return _koszul_cache[key]
    if m == 0:
        out = Presentation.free(ring, (0,))
    else:
        kappa = koszul_differential(ring, m)
        gens_map = minimal_generators(syzygies(kappa))
        rels = minimal_generators(syzygies(gens_map))
        out = Presentation(gens_map.source, rels)
    _koszul_cache[key] = out
    return out


def omega(ring, p):
    """The sheaf of p-forms Omega^p = twist(R_p, -p)."""
    return twist(koszul_kernel(ring, p), -p)
