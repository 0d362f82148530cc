"""Independent oracles and reference computations the engine is tested against.

The cohomology oracles touch nothing of the engine: they are textbook
binomial formulas, implemented separately so that agreement with the
resolution/duality pipeline is meaningful evidence. The two oracles
cross-validate each other (and themselves) through Serre duality and
Euler-characteristic recursions; `test_oracles_are_self_consistent` in
test_cohomology.py runs those checks. `hilbert_polynomial` reads the Hilbert
polynomial of a module off the Betti numbers of its resolution as exact
Fractions, and `hilbert_polynomial_value` evaluates it: a reference for the
engine's integer Euler characteristics.

The dense row eliminations are the reference for the engine's sparse rank
kernel: plain column-by-column Gaussian elimination on full rows, mod p or
over exact Fractions.

The dense map operations are the reference for `GradedMap`, which stores
only the nonzero entries of each column: they work on the full `.matrix`
rows, zeros included, by the textbook formulas.

`minimal_generators_by_groebner` is the reference for the engine's minimal
generators, which come from strand elimination: it decides the same graded
Nakayama rule by Groebner reduction instead, through the engine's
Buchberger routine, so the two share no linear algebra.

`normal_form_by_scan` and `reduce_basis_by_scan` are the reference for the
engine's indexed reduction: for every term they scan the whole list of
leads for the first divisor, position included, and keep no lead index.

`minimize_presentation_by_terms` is the reference for the engine's unit
elimination, which finds units from degrees: it finds them by scanning the
terms of every entry for a constant. `koszul_kernel_by_groebner` is the
reference for the engine's Koszul kernels, which go through
`minimal_free_resolution`: it reads R_m straight off `groebner.resolve` of
the Koszul map, with no unit elimination and no minimality check.

`monomial_ideal_hilbert_function` is the reference for the engine's Hilbert
numerators of monomial ideals: it enumerates the monomials of one degree
and counts those that no generator divides.
"""

import math
from fractions import Fraction
from itertools import combinations_with_replacement

from shfc.constructions import koszul_differential
from shfc.groebner import _buchberger, _columns_to_elements, resolve
from shfc.modules import GradedFreeModule, GradedMap
from shfc.resolutions import Presentation, minimal_free_resolution
from shfc.rings import Polynomial, monomials_of_degree


def binomial(m, k):
    """C(m, k) for integer m, zero outside 0 <= k <= m."""
    if k < 0 or m < 0 or k > m:
        return 0
    return math.comb(m, k)


def line_bundle_h(n, twists, i, d):
    """h^i of a direct sum of line bundles O(a) on P^n at twist d.

    h^0(O(m)) = C(n+m, n), h^n(O(m)) = C(-m-1, n), middle cohomology zero.
    """
    total = 0
    for a in twists:
        m = a + d
        if i == 0:
            total += binomial(n + m, n)
        elif i == n:
            total += binomial(-m - 1, n)
    return total


def bott_h(n, p, k, q):
    """h^q(Omega^p(k)) on P^n, the classical closed form:

        q = 0:  C(k-1, p) * C(n+k-p, n-p)   (nonzero only for k > p)
        q = p:  1 if k = 0                  (0 < p < n interior diagonal,
                                             and the p=0, p=n ends coincide
                                             with the formulas above/below)
        q = n:  C(-k-1, n-p) * C(p-k, p)    (nonzero only for k < p-n)
        else 0.
    """
    if p < 0 or p > n or q < 0 or q > n:
        return 0
    if q == 0 and k > p:
        return binomial(k - 1, p) * binomial(n + k - p, n - p)
    if q == p and k == 0:
        return 1
    if q == n and k < p - n:
        return binomial(-k - 1, n - p) * binomial(p - k, p)
    return 0


def chi_line(n, m):
    """chi(O(m)) on P^n = C(n+m, n) as a polynomial: product formula keeps
    the sign right for negative m."""
    num = 1
    for j in range(1, n + 1):
        num *= m + j
    return num // math.factorial(n)


def _binomial_poly(n, a):
    """Coefficients of d -> C(n + d - a, n) as a polynomial in d."""
    coeffs = [Fraction(1)]
    for j in range(1, n + 1):
        shift = Fraction(j - a)
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k] += c * shift
            nxt[k + 1] += c
        coeffs = nxt
    fact = Fraction(math.factorial(n))
    return [c / fact for c in coeffs]


def hilbert_polynomial(pres):
    """Coefficient tuple (ascending) of the Hilbert polynomial, exact
    rationals, from the degrees of the cached minimal resolution."""
    res, _ = minimal_free_resolution(pres)
    n = pres.ring.dim
    coeffs = [Fraction(0)] * (n + 1)
    for i, mod in enumerate(res.modules):
        sign = (-1) ** i
        for a in mod.degrees:
            for k, c in enumerate(_binomial_poly(n, a)):
                coeffs[k] += sign * c
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def hilbert_polynomial_value(coeffs, d):
    """Exact value at the integer d of an ascending coefficient tuple of
    Fractions (the form hilbert_polynomial returns), by Horner's
    rule. A Fraction; it equals an int only if its denominator is 1."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * d + c
    return acc


def chi_koszul_kernel(n, m, d):
    """chi(R_m(d)) on P^n via the defining extensions
    0 -> R_m -> Lambda^m V (x) O -> R_{m-1}(1) -> 0 (V of rank n+1),
    so chi(R_m(d)) = C(n+1, m) chi(O(d)) - chi(R_{m-1}(d+1)). Entirely
    Euler-characteristic arithmetic; independent of the Bott formula."""
    if m == 0:
        return chi_line(n, d)
    return binomial(n + 1, m) * chi_line(n, d) - chi_koszul_kernel(n, m - 1, d + 1)


def chi_omega(n, p, k):
    """chi(Omega^p(k)) = chi(R_p(k - p))."""
    return chi_koszul_kernel(n, p, k - p)


def dense_rank(rows, characteristic):
    """Rank over F_p (characteristic p) or over Q (characteristic 0)."""
    if characteristic:
        return dense_rank_modp(rows, characteristic)
    return dense_rank_rational(rows)


def dense_rank_modp(rows, p):
    """Rank of a dense integer matrix mod the prime p."""
    a = [[x % p for x in row] for row in rows]
    return _dense_rank(a, lambda x, y: x * pow(y, -1, p) % p, lambda x: x % p)


def dense_rank_rational(rows):
    """Rank of a dense matrix of integers or Fractions over Q."""
    a = [[Fraction(x) for x in row] for row in rows]
    return _dense_rank(a, lambda x, y: x / y, lambda x: x)


def dense_compose(phi, psi):
    """Rows of phi o psi: entry (i, j) is the sum over k of phi[i][k] *
    psi[k][j], zero products included."""
    a, b = phi.matrix, psi.matrix
    zero = Polynomial.zero(phi.ring)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(len(b))), zero) for j in range(psi.source.rank))
        for i in range(len(a))
    )


def dense_dual(phi):
    """Rows of the transpose of phi.matrix."""
    a = phi.matrix
    return tuple(tuple(a[i][j] for i in range(phi.target.rank)) for j in range(phi.source.rank))


def dense_strand(phi, d):
    """The degree-d strand of phi as dense rows over the coefficient field:
    the entry at row m*e_i and column m'*e_j is the coefficient of m / m' in
    phi.matrix[i][j] (zero unless m' divides m)."""
    n = phi.ring.num_vars
    a = phi.matrix
    zero = phi.ring.czero()
    rows = [(i, m) for i, t in enumerate(phi.target.degrees) for m in monomials_of_degree(n, d - t)]
    cols = [(j, m) for j, s in enumerate(phi.source.degrees) for m in monomials_of_degree(n, d - s)]
    return [
        [a[i][j].terms.get(tuple(x - y for x, y in zip(m, m2)), zero) for j, m2 in cols]
        for i, m in rows
    ]


def minimal_generators_by_groebner(phi):
    """Indices of the columns of phi that graded Nakayama keeps, decided by
    Groebner reduction. Columns are taken in (degree, index) order; one is
    kept iff its normal form against a Groebner basis of the columns kept
    before it is nonzero. The basis is recomputed from scratch after every
    kept column."""
    ring = phi.ring
    target_degrees = list(phi.target.degrees)
    pk, packed = _columns_to_elements(phi)

    def as_tuples(f):
        return {pk.unpack(t): c for t, c in f.items()}

    elems = [as_tuples(f) for f in packed]
    order = sorted(range(len(elems)), key=lambda j: (phi.source.degrees[j], j))
    kept, basis = [], []
    for j in order:
        if not elems[j]:
            continue
        if basis and not normal_form_by_scan(elems[j], basis, [min(g) for g in basis], ring):
            continue
        kept.append(j)
        basis = [as_tuples(g) for g in _buchberger([packed[k] for k in kept], pk, target_degrees)[0]]
    return kept


def term_key(term):
    """Sort key of the full module order on (position, exponents reversed),
    total degree included, ascending: for sorting leads of different
    degrees."""
    pos, r = term
    return (-pos, sum(r), tuple(-e for e in r))


def normal_form_by_scan(f, basis, leads, ring):
    """Full reduction of f against a list of monic elements with the given
    leads (min of each), each term by the first lead in the list that
    divides it."""
    out = {}
    work = dict(f)
    zero = ring.czero()
    while work:
        t = min(work)
        c = work.pop(t)
        pos, mono = t
        hit = None
        for idx, (lpos, lmono) in enumerate(leads):
            if lpos == pos and all(x <= y for x, y in zip(lmono, mono)):
                hit = idx
                break
        if hit is None:
            out[t] = c
            continue
        g = basis[hit]
        shift = tuple(x - y for x, y in zip(mono, leads[hit][1]))
        for (p2, m2), c2 in g.items():
            if (p2, m2) == leads[hit]:
                continue
            key = (p2, tuple(x + y for x, y in zip(m2, shift)))
            v = ring.csub(work.get(key, zero), ring.cmul(c, c2))
            if v:
                work[key] = v
            else:
                work.pop(key, None)
    return out


def reduce_basis_by_scan(basis, ring):
    """Sort monic elements by lead and reduce each against all the others,
    in list order, by normal_form_by_scan; the leads are those of the
    sorted input."""
    basis = sorted(basis, key=lambda f: term_key(min(f)))
    leads = [min(f) for f in basis]
    for idx in range(len(basis)):
        others = basis[:idx] + basis[idx + 1 :]
        other_leads = leads[:idx] + leads[idx + 1 :]
        basis[idx] = normal_form_by_scan(basis[idx], others, other_leads, ring)
    return basis


def minimize_presentation_by_terms(pres):
    """Unit elimination that finds each unit by its terms: the first entry,
    column by column with rows ascending, whose polynomial is a constant."""
    pres.validate()
    ring = pres.ring
    gen_degrees = list(pres.gens.degrees)
    col_degrees = list(pres.rels.source.degrees)
    cols = list(pres.rels.cols)

    def find_unit():
        for j, col in enumerate(cols):
            for i in sorted(col):
                if col[i].is_constant():
                    return i, j
        return None

    while True:
        hit = find_unit()
        if hit is None:
            break
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


def koszul_kernel_by_groebner(ring, m):
    """R_m presented by maps 1 and 2 of `groebner.resolve` of the Koszul
    map: Presentation(maps[1].source, maps[2]), or a free module on
    maps[1].source when the resolution has two maps; O for m = 0."""
    if m == 0:
        return Presentation.free(ring, (0,))
    maps = resolve(koszul_differential(ring, m))
    if len(maps) > 2:
        return Presentation(maps[1].source, maps[2])
    return Presentation.free(ring, maps[1].source.degrees)


def monomial_ideal_hilbert_function(gens, num_vars, k):
    """dim (S/I)_k for I the monomial ideal of the exponent tuples gens in
    num_vars variables: the degree-k monomials, each a multiset of k
    variables, that no generator divides."""
    count = 0
    for chosen in combinations_with_replacement(range(num_vars), k):
        mono = [chosen.count(i) for i in range(num_vars)]
        if not any(all(a <= b for a, b in zip(g, mono)) for g in gens):
            count += 1
    return count


def _dense_rank(a, divide, reduce):
    m = len(a)
    n = len(a[0]) if m else 0
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        prow = a[r]
        for i in range(r + 1, m):
            if a[i][c]:
                f = divide(a[i][c], prow[c])
                a[i] = [reduce(x - f * y) for x, y in zip(a[i], prow)]
        r += 1
        if r == m:
            break
    return r
