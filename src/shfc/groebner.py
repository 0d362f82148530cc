"""Buchberger engine for graded submodules of free modules, with syzygies.

Module terms are (position, exponents reversed), ordered position-over-
term: a lower generator index dominates, ties broken by grevlex on the
monomial. In one position the terms of a homogeneous element share their
total degree, where grevlex is reverse lex: the monomial with the smaller
last exponent is the larger. With the exponents reversed that is tuple
order, so the lead term of a homogeneous element is its least term. Every
element here is homogeneous because the public entry points validate their
map; only `_reduce_basis`, which sorts leads of different degrees, needs
the total degree in its sort key.

An element is a dict {term: coefficient} whose terms are packed ints
(`_Packing`): over v variables, with reversed exponents r and a field
width of W bits, (position << W*v) | sum r_k << W*(v - 1 - k). The top bit
of every field is a guard that no exponent reaches, so each exponent is
below 2**(W - 1); then int order is the tuple order above, min(f) is still
the lead, and the term operations are plain int arithmetic with G the
guard bits and L the low bit of every field:

- t divides s (same position) iff ((s | G) - t) & G == G: a field keeps
  its guard exactly when s_k >= t_k, and no field borrows from the next;
- s = t * x^m is t + m, and s / t is s - t, a monomial of position 0;
- the lcm takes each field from a or b by the guard of ((a | G) - b) & G;
- (m | G) - L keeps the guard of each field with a nonzero exponent, so
  two monomials have disjoint supports iff the two results share no guard;
- the position is t >> W*v, and the degree (t * L >> W*(v - 1)) mod 2**W,
  the sum of the fields, exact while it is below 2**W.

W is fixed per packing, from the degree spread of its input with a few
bits of headroom (16 at least). An exponent that reached a guard would
wrap into the next field and silently give a wrong answer, so the
Buchberger loop refuses it first: it raises InternalError once an input or
an S-pair it pops has a degree 2**(W - 1) or more above the lowest position
degree, which bounds every exponent of the element it would build.
`_columns_to_elements` packs a GradedMap's columns and `_map_from_elements`
unpacks elements into one; `image_leads` unpacks the leads it returns.
Nothing else converts, and `resolve` crosses into element form once and
out once per map it emits.

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
leads indexed by position, by_pos = {position: [(index, lead term), ...]},
each list in index order. Reduction, pair making and the chain criterion
walk only the list of the position at hand; each reduction step still
takes the lowest-index lead that divides the term.
"""

from __future__ import annotations

import heapq
import math
from bisect import insort

from .modules import GradedFreeModule, GradedMap
from .rings import InternalError, Polynomial

_MAX_STEPS = 2_000_000
_MIN_WIDTH = 16
_HEADROOM_BITS = 3


class _Packing:
    """The packed-int form of the terms of one computation over ring: field
    width `width` for a degree spread of `spread` over the lowest position
    degree, plus one guard bit and _HEADROOM_BITS spare bits, at least
    _MIN_WIDTH bits in all."""

    __slots__ = ("ring", "p", "num_vars", "width", "pos_shift", "deg_shift", "mask", "ones", "guard", "limit")

    def __init__(self, ring, spread):
        v = ring.num_vars
        w = max(_MIN_WIDTH, spread.bit_length() + 1 + _HEADROOM_BITS)
        self.ring = ring
        self.p = ring.characteristic
        self.num_vars = v
        self.width = w
        self.pos_shift = w * v
        self.deg_shift = w * (v - 1)
        self.mask = (1 << w) - 1
        # L, the low bit of every field, and G, the top bit of every field
        self.ones = ((1 << w * v) - 1) // self.mask
        self.guard = self.ones << (w - 1)
        self.limit = 1 << (w - 1)

    def pack(self, pos, r):
        """The int of term (pos, r), r the reversed exponents."""
        w = self.width
        t = pos
        for e in r:
            t = (t << w) | e
        return t

    def unpack(self, t):
        """(position, reversed exponents) of a packed term."""
        w, mask = self.width, self.mask
        r = []
        for _ in range(self.num_vars):
            r.append(t & mask)
            t >>= w
        r.reverse()
        return t, tuple(r)

    def degree(self, t):
        """Total degree of the monomial of term t."""
        return (t * self.ones >> self.deg_shift) & self.mask

    def lcm(self, a, b):
        """The term whose exponents are the larger of those of a and b; the
        position is b's."""
        d = ((a | self.guard) - b) & self.guard
        sel = d - (d >> (self.width - 1))
        return (a & sel) | (b & ~sel)

    def disjoint(self, a, b):
        """Whether the monomials of a and b share no variable."""
        g, ones = self.guard, self.ones
        return not (((a | g) - ones) & ((b | g) - ones) & g)


def _lead(f):
    return min(f)


def _make_monic(f, ring):
    lt = _lead(f)
    c = f[lt]
    if c == ring.coeff(1):
        return f
    inv = ring.cinv(c)
    return {t: ring.cmul(v, inv) for t, v in f.items()}


def _spoly(f, g, pk):
    """S-element of two monic elements with leads in the same position."""
    p = pk.p
    lf = _lead(f)
    lg = _lead(g)
    u = pk.lcm(lf, lg)
    sf = u - lf
    sg = u - lg
    # the shift of f is injective, so only g's terms can meet a stored one
    out = {t + sf: c for t, c in f.items()}
    for t, c in g.items():
        key = t + sg
        v = out[key] - c if key in out else -c
        if p:
            v %= p
        if v:
            out[key] = v
        else:
            del out[key]
    return out


def _lead_index(basis, pk):
    """{position: [(index, lead term), ...]} in index order."""
    by_pos = {}
    for idx, f in enumerate(basis):
        lead = _lead(f)
        by_pos.setdefault(lead >> pk.pos_shift, []).append((idx, lead))
    return by_pos


def _normal_form(f, basis, by_pos, pk):
    """Full reduction of f against a list of monic elements, whose leads
    by_pos indexes; a term is reduced by the lowest-index lead in its
    position that divides it. Terms are packed ints of pk, so a divisor
    test, a shift and a shifted term are one int operation each, and a
    coefficient step is one multiply and one subtract, reduced mod p over
    F_p."""
    p = pk.p
    guard = pk.guard
    pos_shift = pk.pos_shift
    out = {}
    work = dict(f)
    while work:
        t = min(work)
        c = work.pop(t)
        tg = t | guard
        for idx, lead in by_pos.get(t >> pos_shift, ()):
            if (tg - lead) & guard == guard:
                break
        else:
            out[t] = c
            continue
        shift = t - lead
        for t2, c2 in basis[idx].items():
            if t2 == lead:
                continue
            key = t2 + shift
            v = work[key] - c * c2 if key in work else -(c * c2)
            if p:
                v %= p
            if v:
                work[key] = v
            else:
                del work[key]
    return out


def _degree(f, degrees, pk):
    """Degree of a nonzero homogeneous element, given the position degrees."""
    t = next(iter(f))
    return pk.degree(t) + degrees[t >> pk.pos_shift]


def _top_degree(elements, degrees, pk):
    return max((_degree(f, degrees, pk) for f in elements if f), default=0)


def _buchberger(elements, pk, degrees, bound=math.inf):
    """(basis, kept) of one `_buchberger_run` up to degree bound."""
    run = _buchberger_run(elements, pk, degrees)
    next(run)
    return run.send(bound)


def _buchberger_run(elements, pk, degrees):
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

    Elements are dicts of pk's packed terms. A pair's degree is read as the
    new lead's degree plus that of the lcm's quotient by it, whose every
    partial field sum is at most the other lead's degree, so it never
    overflows a field. A popped input or pair of degree 2**(W - 1) or more
    above the lowest position degree raises InternalError before any of its
    exponents can wrap.

    by_pos indexes the leads of basis by position, each list in index order;
    reduction, pair making and the chain criterion look only at the leads in
    the position at hand."""
    ring = pk.ring
    pos_shift = pk.pos_shift
    guard = pk.guard
    ceiling = min(degrees, default=0) + pk.limit
    basis = []
    by_pos = {}
    supports = []
    pending = set()
    heap = []
    kept = []
    one = ring.coeff(1)

    def add(f, deg):
        f = _make_monic(f, ring)
        idx = len(basis)
        lead = _lead(f)
        pos_new = lead >> pos_shift
        basis.append(f)
        supports.append({t >> pos_shift for t in f})
        ideal = supports[idx] == {pos_new}
        entries = by_pos.setdefault(pos_new, [])
        for i, lead_i in entries:
            if ideal and supports[i] == {pos_new} and pk.disjoint(lead_i, lead):
                continue  # product criterion, ideal case only
            u = pk.lcm(lead_i, lead)
            heapq.heappush(heap, (deg + pk.degree(u - lead), 0, u, i, idx))
            pending.add((i, idx))
        entries.append((idx, lead))

    for j, f in enumerate(elements):
        if f:
            heap.append((_degree(f, degrees, pk), 1, j))
    heapq.heapify(heap)

    bound = yield
    steps = 0
    while True:
        while heap and heap[0][0] <= bound:
            steps += 1
            if steps >= _MAX_STEPS:
                raise InternalError("Buchberger loop exceeded step bound")
            if heap[0][0] >= ceiling:
                raise InternalError("Buchberger degree exceeds the packed exponent width")
            entry = heapq.heappop(heap)
            if entry[1]:
                j = entry[2]
                r = _normal_form(elements[j], basis, by_pos, pk)
                if r:
                    add(r, entry[0])
                    kept.append(j)
                continue
            deg, _, u, i, j = entry
            pending.discard((i, j))
            skip = False
            ug = u | guard
            for k, lead_k in by_pos[u >> pos_shift]:
                if k == i or k == j or (ug - lead_k) & guard != guard:
                    continue
                a = (i, k) if i < k else (k, i)
                b = (j, k) if j < k else (k, j)
                if a not in pending and b not in pending:
                    skip = True
                    break
            if skip:
                continue
            s = _spoly(basis[i], basis[j], pk)
            if not s:
                continue
            r = _normal_form(s, basis, by_pos, pk)
            if r:
                add(r, deg)
        if any(f[_lead(f)] != one for f in basis):
            raise InternalError("Groebner basis element is not monic")
        bound = yield basis, kept


def _reduce_basis(basis, pk):
    """Sort a `_buchberger` basis by lead and fully interreduce it; canonical
    output. Leads sort in the full module order, ascending: position
    descending, then total degree, then the monomial order. Nothing needs
    dropping: each element entered as a normal form in nondecreasing
    degree, so no lead divides another. Interreduction never touches a lead,
    so the list stays sorted. Each element is reduced with its own lead
    taken out of the index."""
    pos_shift = pk.pos_shift

    def key(f):
        lead = _lead(f)
        return (-(lead >> pos_shift), pk.degree(lead), -lead)

    basis = sorted(basis, key=key)
    by_pos = _lead_index(basis, pk)
    for idx, f in enumerate(basis):
        lead = _lead(f)
        entries = by_pos[lead >> pos_shift]
        entries.remove((idx, lead))
        basis[idx] = _normal_form(f, basis, by_pos, pk)
        insort(entries, (idx, lead))
    return basis


def _columns_to_elements(phi):
    """(pk, elements): the columns of phi as elements of a packing pk whose
    width fits the degree spread of phi's source over its target."""
    low = min(phi.target.degrees, default=0)
    pk = _Packing(phi.ring, max([0] + [d - low for d in phi.source.degrees]))
    pack = pk.pack
    elems = [
        {pack(i, mono[::-1]): c for i, p in col.items() for mono, c in p.terms.items()}
        for col in phi.cols
    ]
    return pk, elems


def _map_from_elements(elems, target, pk):
    """The graded map into target with one column per (nonzero) element."""
    ring = target.ring
    unpack = pk.unpack
    cols = []
    src_degrees = []
    for f in elems:
        col = {}
        for t, c in f.items():
            pos, r = unpack(t)
            col.setdefault(pos, {})[r[::-1]] = c
        cols.append({i: Polynomial(ring, terms, _normalized=True) for i, terms in col.items()})
        src_degrees.append(_degree(f, target.degrees, pk))
    return GradedMap.from_columns(GradedFreeModule(ring, tuple(src_degrees)), target, cols)


def groebner_basis(phi):
    """Reduced Groebner basis of the column span of phi, as a graded map
    into phi.target (deterministic: sorted by lead term)."""
    phi.validate()
    pk, elems = _columns_to_elements(phi)
    gb = _reduce_basis(_buchberger(elems, pk, list(phi.target.degrees))[0], pk)
    return _map_from_elements(gb, phi.target, pk)


def image_leads(phi):
    """A function of a degree bound that returns the lead terms (position,
    exponents reversed) of a bound-truncated Groebner basis of the column
    span of phi: in every degree up to bound, their monomial ideals,
    position by position, have the Hilbert function of the image. Calls
    resume one Buchberger run, so a higher bound redoes no work."""
    phi.validate()
    pk, elems = _columns_to_elements(phi)
    run = _buchberger_run(elems, pk, list(phi.target.degrees))
    next(run)
    return lambda bound: [pk.unpack(_lead(f)) for f in run.send(bound)[0]]


def _kernel(elems, pk, target_degrees, source_degrees):
    """Reduced Groebner basis of the kernel of the map whose columns are
    elems, as elements of the source: Buchberger on the graph of the map,
    then interreduction of the elements supported in the source block."""
    offset = len(target_degrees) << pk.pos_shift
    one = pk.ring.coeff(1)
    graph = [{**f, offset + (j << pk.pos_shift): one} for j, f in enumerate(elems)]
    degrees = list(target_degrees) + list(source_degrees)
    # the lead is the lowest position, so these lie wholly in the source block
    kernel = [f for f in _buchberger(graph, pk, degrees)[0] if _lead(f) >= offset]
    return [{t - offset: c for t, c in f.items()} for f in _reduce_basis(kernel, pk)]


def syzygies(phi):
    """Map onto the kernel: image of the result is exactly ker(phi)."""
    phi.validate()
    pk, elems = _columns_to_elements(phi)
    kernel = _kernel(elems, pk, phi.target.degrees, phi.source.degrees)
    return _map_from_elements(kernel, phi.source, pk)


def minimal_generators(phi):
    """Prune columns to a minimal homogeneous generating set of the image.

    Columns are taken in (degree, index) order; one of degree d is dropped
    exactly when it lies in the span of the columns already kept, which by
    graded Nakayama yields a minimal generating set. The truncated Buchberger
    loop decides this: a column is kept iff its normal form against the
    d-truncated Groebner basis of the kept columns is nonzero.
    """
    phi.validate()
    pk, elems = _columns_to_elements(phi)
    degrees = list(phi.target.degrees)
    _, kept = _buchberger(elems, pk, degrees, _top_degree(elems, degrees, pk))
    return _map_from_elements([elems[j] for j in kept], phi.target, pk)


def resolve(phi):
    """Maps of the minimal free resolution of coker(phi), each into the
    source of the one before: the minimal generators of phi's columns, then
    the minimal generators of each reduced kernel basis (`syzygies`), up to
    the first zero kernel. Between steps the columns stay elements of one
    packing; each map is validated as it is emitted. By Hilbert's syzygy
    theorem there are at most num_vars maps; more raises InternalError."""
    phi.validate()
    ring = phi.ring
    target = phi.target
    pk, elems = _columns_to_elements(phi)
    maps = []
    while True:
        degrees = list(target.degrees)
        kept = _buchberger(elems, pk, degrees, _top_degree(elems, degrees, pk))[1]
        if not kept:
            return maps
        gens = [elems[j] for j in kept]
        step = _map_from_elements(gens, target, pk).validate()
        maps.append(step)
        if len(maps) > ring.num_vars:
            raise InternalError("Hilbert syzygy bound exceeded")
        elems = _kernel(gens, pk, target.degrees, step.source.degrees)
        target = step.source
