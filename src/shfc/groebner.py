"""Buchberger engine for graded submodules of free modules, with syzygies.

Module terms are pairs (position, exponents reversed), ordered position-
over-term: a lower generator index dominates, ties broken by grevlex on the
monomial. In one position the terms of a homogeneous element share their
total degree, where grevlex is reverse lex: the monomial with the smaller
last exponent is the larger. With the exponents reversed that is tuple
order, so the lead term of a homogeneous element is min(f). Every element
here is homogeneous because the public entry points validate their map;
only `_reduce_basis`, which sorts leads of different degrees, needs
`_term_key`. `_columns_to_elements` and `_map_from_elements` are the only
converters between a GradedMap and this element form; `resolve` crosses
them once into element form and once out per map it emits.

Kernels are computed with an elimination order on the graph of the map:
inside target + source, every target term beats every source term, so the
Groebner elements supported entirely in the source block cut out exactly
the kernel. An element with any target term has its lead in the target
block, so it can neither divide nor reduce a term of a source-block element;
only the source-block elements are interreduced.

Pair pruning uses the chain criterion (valid for modules) and the product
criterion only in its valid scope: both elements supported entirely in one
common position, which is the embedded ideal case. The coprime-lead shortcut
is false for general module elements, e.g. x*e1 + y*e2 and y*e1 + x*e2.

One Buchberger loop serves all five entry points. It takes inputs and
S-pairs in degree order, so a column of degree d meets a d-truncated
Groebner basis of the columns kept before it; minimal generators are the
columns whose normal form there is nonzero, and the loop stops once no
column waits. `groebner_basis` and the kernel step `_kernel` run it to
completion; `syzygies` is one kernel step, and `resolve` alternates
truncated runs (minimal generators) with kernel steps until the kernel is
zero. `image_leads` resumes one run up to each degree bound it is asked.
Only `resolutions`, which owns every minimal resolution and the Hilbert
numerators read off `image_leads`, imports this.

Only a lead in the same position can divide a term, so the loop keeps its
leads indexed by position, by_pos = {position: [(index, lead monomial),
...]}, each list in index order. Reduction, pair making and the chain
criterion walk only the list of the position at hand; each reduction step
still takes the lowest-index lead that divides the term.
"""

from __future__ import annotations

import heapq
import math
from bisect import insort
from operator import add, le, sub

from .modules import GradedFreeModule, GradedMap
from .rings import InternalError, Polynomial

_MAX_STEPS = 2_000_000


def _term_key(term):
    """Sort key of the full module order, total degree included, ascending:
    for sorting the leads of elements of different degrees."""
    pos, r = term
    return (-pos, sum(r), tuple(-e for e in r))


def _lead(f):
    return min(f)


def _mono_divides(a, b):
    return all(map(le, a, b))


def _mono_lcm(a, b):
    return tuple(map(max, a, b))


def _mono_sub(a, b):
    return tuple(map(sub, a, b))


def _mono_add(a, b):
    return tuple(map(add, a, b))


def _make_monic(f, ring):
    lt = _lead(f)
    c = f[lt]
    if c == ring.coeff(1):
        return f
    inv = ring.cinv(c)
    return {t: ring.cmul(v, inv) for t, v in f.items()}


def _spoly(f, g, ring):
    """S-element of two monic elements with leads in the same position."""
    (pos, mf) = _lead(f)
    (_, mg) = _lead(g)
    u = _mono_lcm(mf, mg)
    sf = _mono_sub(u, mf)
    sg = _mono_sub(u, mg)
    # the shift of f is injective, so only g's terms can meet a stored one
    out = {(p, _mono_add(m, sf)): c for (p, m), c in f.items()}
    for (p, m), c in g.items():
        key = (p, _mono_add(m, sg))
        v = ring.csub(out[key], c) if key in out else ring.cneg(c)
        if v:
            out[key] = v
        else:
            del out[key]
    return out


def _lead_index(basis):
    """{position: [(index, lead monomial), ...]} in index order."""
    by_pos = {}
    for idx, f in enumerate(basis):
        pos, mono = _lead(f)
        by_pos.setdefault(pos, []).append((idx, mono))
    return by_pos


def _normal_form(f, basis, by_pos, ring):
    """Full reduction of f against a list of monic elements, whose leads
    by_pos indexes; a term is reduced by the lowest-index lead in its
    position that divides it."""
    out = {}
    work = dict(f)
    while work:
        t = min(work)
        c = work.pop(t)
        pos, mono = t
        for idx, lmono in by_pos.get(pos, ()):
            if _mono_divides(lmono, mono):
                break
        else:
            out[t] = c
            continue
        shift = _mono_sub(mono, lmono)
        for (p2, m2), c2 in basis[idx].items():
            if p2 == pos and m2 == lmono:
                continue
            key = (p2, _mono_add(m2, shift))
            x = ring.cmul(c, c2)
            v = ring.csub(work[key], x) if key in work else ring.cneg(x)
            if v:
                work[key] = v
            else:
                del work[key]
    return out


def _degree(f, degrees):
    """Degree of a nonzero homogeneous element, given the position degrees."""
    pos, r = next(iter(f))
    return sum(r) + degrees[pos]


def _top_degree(elements, degrees):
    return max((_degree(f, degrees) for f in elements if f), default=0)


def _buchberger(elements, ring, degrees, bound=math.inf):
    """(basis, kept) of one `_buchberger_run` up to degree bound."""
    run = _buchberger_run(elements, ring, degrees)
    next(run)
    return run.send(bound)


def _buchberger_run(elements, ring, degrees):
    """Degree by degree Buchberger loop, as a generator: after next(), each
    send(bound) resumes the loop up to degree bound and answers (basis,
    kept), so a higher bound later redoes no work.

    Inputs and S-pairs wait in one heap keyed by degree, pairs first at
    equal degree, so inputs pop in (degree, index) order. A popped input is
    reduced against the basis so far and, if the remainder is nonzero, added
    monic; kept lists the indices of those inputs. An added element is fully
    reduced, so every pair it makes has a higher degree: when a degree-d
    input pops, the basis is a d-truncated Groebner basis of the inputs kept
    before it. The loop stops before the first input or pair of degree above
    bound, so basis is a bound-truncated Groebner basis of the inputs: with
    bound the top input degree, the loop stops once no input waits, and with
    no bound basis is a Groebner basis.

    by_pos indexes the leads of basis by position, each list in index order;
    reduction, pair making and the chain criterion look only at the leads in
    the position at hand."""
    basis = []
    by_pos = {}
    supports = []
    pending = set()
    heap = []
    kept = []
    one = ring.coeff(1)

    def add(f):
        f = _make_monic(f, ring)
        idx = len(basis)
        pos_new, m_new = _lead(f)
        basis.append(f)
        supports.append({p for (p, _) in f})
        ideal = supports[idx] == {pos_new}
        entries = by_pos.setdefault(pos_new, [])
        for i, m_i in entries:
            if ideal and supports[i] == {pos_new} and all(a == 0 or b == 0 for a, b in zip(m_i, m_new)):
                continue  # product criterion, ideal case only
            u = _mono_lcm(m_i, m_new)
            heapq.heappush(heap, (sum(u) + degrees[pos_new], 0, pos_new, u, i, idx))
            pending.add((i, idx))
        entries.append((idx, m_new))

    for j, f in enumerate(elements):
        if f:
            heap.append((_degree(f, degrees), 1, j))
    heapq.heapify(heap)

    bound = yield
    steps = 0
    while True:
        while heap and heap[0][0] <= bound:
            steps += 1
            if steps >= _MAX_STEPS:
                raise InternalError("Buchberger loop exceeded step bound")
            entry = heapq.heappop(heap)
            if entry[1]:
                j = entry[2]
                r = _normal_form(elements[j], basis, by_pos, ring)
                if r:
                    add(r)
                    kept.append(j)
                continue
            _, _, pos, u, i, j = entry
            pending.discard((i, j))
            skip = False
            for k, mk in by_pos[pos]:
                if k == i or k == j or not _mono_divides(mk, u):
                    continue
                a = (i, k) if i < k else (k, i)
                b = (j, k) if j < k else (k, j)
                if a not in pending and b not in pending:
                    skip = True
                    break
            if skip:
                continue
            s = _spoly(basis[i], basis[j], ring)
            if not s:
                continue
            r = _normal_form(s, basis, by_pos, ring)
            if r:
                add(r)
        if any(f[_lead(f)] != one for f in basis):
            raise InternalError("Groebner basis element is not monic")
        bound = yield basis, kept


def _reduce_basis(basis, ring):
    """Sort a `_buchberger` basis by lead and fully interreduce it; canonical
    output. Nothing needs dropping: each element entered as a normal form in
    nondecreasing degree, so no lead divides another. Interreduction never
    touches a lead, so the list stays sorted. Each element is reduced with
    its own lead taken out of the index."""
    basis = sorted(basis, key=lambda f: _term_key(_lead(f)))
    by_pos = _lead_index(basis)
    for idx, f in enumerate(basis):
        pos, mono = _lead(f)
        entries = by_pos[pos]
        entries.remove((idx, mono))
        basis[idx] = _normal_form(f, basis, by_pos, ring)
        insort(entries, (idx, mono))
    return basis


def _columns_to_elements(phi):
    return [
        {(i, mono[::-1]): c for i, p in col.items() for mono, c in p.terms.items()}
        for col in phi.cols
    ]


def _map_from_elements(elems, target):
    """The graded map into target with one column per (nonzero) element."""
    ring = target.ring
    cols = []
    src_degrees = []
    for f in elems:
        col = {}
        for (pos, r), c in f.items():
            col.setdefault(pos, {})[r[::-1]] = c
        cols.append({i: Polynomial(ring, terms, _normalized=True) for i, terms in col.items()})
        src_degrees.append(_degree(f, target.degrees))
    return GradedMap.from_columns(GradedFreeModule(ring, tuple(src_degrees)), target, cols)


def groebner_basis(phi):
    """Reduced Groebner basis of the column span of phi, as a graded map
    into phi.target (deterministic: sorted by lead term)."""
    phi.validate()
    ring = phi.ring
    degrees = list(phi.target.degrees)
    gb = _reduce_basis(_buchberger(_columns_to_elements(phi), ring, degrees)[0], ring)
    return _map_from_elements(gb, phi.target)


def image_leads(phi):
    """A function of a degree bound that returns the lead terms (position,
    exponents reversed) of a bound-truncated Groebner basis of the column
    span of phi: in every degree up to bound, their monomial ideals,
    position by position, have the Hilbert function of the image. Calls
    resume one Buchberger run, so a higher bound redoes no work."""
    phi.validate()
    run = _buchberger_run(_columns_to_elements(phi), phi.ring, list(phi.target.degrees))
    next(run)
    return lambda bound: [_lead(f) for f in run.send(bound)[0]]


def _kernel(elems, ring, target_degrees, source_degrees):
    """Reduced Groebner basis of the kernel of the map whose columns are
    elems, as elements of the source: Buchberger on the graph of the map,
    then interreduction of the elements supported in the source block."""
    r = len(target_degrees)
    unit = (0,) * ring.num_vars
    one = ring.coeff(1)
    graph = [{**f, (r + j, unit): one} for j, f in enumerate(elems)]
    degrees = list(target_degrees) + list(source_degrees)
    # the lead is the lowest position, so these lie wholly in the source block
    kernel = [f for f in _buchberger(graph, ring, degrees)[0] if _lead(f)[0] >= r]
    return [{(pos - r, mono): c for (pos, mono), c in f.items()} for f in _reduce_basis(kernel, ring)]


def syzygies(phi):
    """Map onto the kernel: image of the result is exactly ker(phi)."""
    phi.validate()
    kernel = _kernel(_columns_to_elements(phi), phi.ring, phi.target.degrees, phi.source.degrees)
    return _map_from_elements(kernel, phi.source)


def minimal_generators(phi):
    """Prune columns to a minimal homogeneous generating set of the image.

    Columns are taken in (degree, index) order; one of degree d is dropped
    exactly when it lies in the span of the columns already kept, which by
    graded Nakayama yields a minimal generating set. The truncated Buchberger
    loop decides this: a column is kept iff its normal form against the
    d-truncated Groebner basis of the kept columns is nonzero.
    """
    phi.validate()
    elems = _columns_to_elements(phi)
    degrees = list(phi.target.degrees)
    _, kept = _buchberger(elems, phi.ring, degrees, _top_degree(elems, degrees))
    return _map_from_elements([elems[j] for j in kept], phi.target)


def resolve(phi):
    """Maps of the minimal free resolution of coker(phi), each into the
    source of the one before: the minimal generators of phi's columns, then
    the minimal generators of each reduced kernel basis (`syzygies`), up to
    the first zero kernel. Between steps the columns stay elements; each map
    is validated as it is emitted. By Hilbert's syzygy theorem there are at
    most num_vars maps; more raises InternalError."""
    phi.validate()
    ring = phi.ring
    target = phi.target
    elems = _columns_to_elements(phi)
    maps = []
    while True:
        degrees = list(target.degrees)
        kept = _buchberger(elems, ring, degrees, _top_degree(elems, degrees))[1]
        if not kept:
            return maps
        gens = [elems[j] for j in kept]
        step = _map_from_elements(gens, target).validate()
        maps.append(step)
        if len(maps) > ring.num_vars:
            raise InternalError("Hilbert syzygy bound exceeded")
        elems = _kernel(gens, ring, target.degrees, step.source.degrees)
        target = step.source
