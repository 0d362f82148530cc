"""Graded free modules, graded maps, and exact strand linear algebra.

A free module is recorded by its generator degrees: degrees (a_1..a_r) means
S(-a_1) + .. + S(-a_r), so generator j lives in degree a_j. The degree-d
strand of a map is a finite matrix over the coefficient field, stored as one
sparse vector per column. One elimination routine, `sparse_rank`, serves
both F_p (integers reduced mod p, monic pivot rows) and Q (Python ints,
fraction-free, primitive pivot rows): strand ranks, and the corank of a
relation matrix evaluated at a point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import add

from .rings import AlgebraError, InternalError, Polynomial, RingMismatchError, _monomials_of_degree


def binom(m, k):
    """Binomial coefficient with the vanishing convention: 0 unless 0 <= k <= m."""
    if k < 0 or m < 0 or m < k:
        return 0
    return math.comb(m, k)


@dataclass(frozen=True)
class GradedFreeModule:
    ring: object
    degrees: tuple

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(int(a) for a in self.degrees))

    @property
    def rank(self):
        return len(self.degrees)

    def strand_dimension(self, d):
        n = self.ring.dim
        return sum(binom(n + d - a, n) for a in self.degrees)

    def strand_basis(self, d):
        """Basis of the degree-d strand: (generator index, monomial), generator
        index first, monomials in descending lexicographic order."""
        out = []
        for j, a in enumerate(self.degrees):
            for mono in _monomials_of_degree(self.ring.num_vars, d - a):
                out.append((j, mono))
        return out

    def dual(self):
        return GradedFreeModule(self.ring, tuple(-a for a in self.degrees))

    def shifted(self, e):
        """Degrees of the twist by e: generator degrees drop by e."""
        return GradedFreeModule(self.ring, tuple(a - e for a in self.degrees))


@dataclass(init=False)
class GradedMap:
    """A degree-0 map of graded free modules, stored by columns: cols[j] is
    the image of source generator j as {target index i: entry}, with only
    the nonzero entries present. Entry (i,j) is homogeneous of degree
    source.degrees[j] - target.degrees[i].

    The positional constructor takes dense rows; `from_columns` takes the
    sparse columns themselves. `matrix` is the dense target.rank x
    source.rank view, built on each read."""

    source: GradedFreeModule
    target: GradedFreeModule
    cols: list

    def __init__(self, source, target, rows):
        rows = [tuple(row) for row in rows]
        if len(rows) != target.rank:
            raise AlgebraError(f"matrix has {len(rows)} rows, target rank {target.rank}")
        for row in rows:
            if len(row) != source.rank:
                raise AlgebraError(f"matrix row width {len(row)}, source rank {source.rank}")
        self.source = source
        self.target = target
        self.cols = [{i: row[j] for i, row in enumerate(rows) if row[j].terms} for j in range(source.rank)]

    @classmethod
    def from_columns(cls, source, target, columns):
        """The map whose column j is columns[j], a dict {target index:
        Polynomial}; zero entries are dropped."""
        if len(columns) != source.rank:
            raise AlgebraError(f"{len(columns)} columns, source rank {source.rank}")
        cols = []
        for j, col in enumerate(columns):
            for i in col:
                if not 0 <= i < target.rank:
                    raise AlgebraError(f"column {j} has row {i}, target rank {target.rank}")
            cols.append({i: p for i, p in col.items() if p.terms})
        phi = cls.__new__(cls)
        phi.source, phi.target, phi.cols = source, target, cols
        return phi

    @property
    def ring(self):
        return self.target.ring

    @property
    def matrix(self):
        zero = Polynomial.zero(self.ring)
        return tuple(
            tuple(col.get(i, zero) for col in self.cols) for i in range(self.target.rank)
        )

    def validate(self):
        """Check ring agreement and entry-wise homogeneity of the right degrees.

        Rings are compared by identity first: entries built from one map
        share its ring object, and Ring equality builds tuples per call."""
        ring = self.ring
        if self.source.ring != ring:
            raise RingMismatchError("source and target rings differ")
        src, tgt = self.source.degrees, self.target.degrees
        for j, col in enumerate(self.cols):
            for i, p in col.items():
                if p.ring is not ring and p.ring != ring:
                    raise RingMismatchError(f"entry ({i},{j}) lives in a different ring")
                if (d := p.homogeneous_degree()) != src[j] - tgt[i]:
                    raise AlgebraError(f"entry ({i},{j}) has degree {d}, expected {src[j] - tgt[i]}")
        return self

    def is_zero(self):
        return not any(self.cols)

    def compose(self, other):
        """self o other (apply other first)."""
        if other.target != self.source:
            raise AlgebraError("maps are not composable")
        cols = []
        for col in other.cols:
            acc = {}
            for k, b in col.items():
                for i, a in self.cols[k].items():
                    acc[i] = acc[i] + a * b if i in acc else a * b
            cols.append(acc)
        return GradedMap.from_columns(other.source, self.target, cols)

    def dual(self):
        """Transpose the matrix, negate all degrees."""
        cols = [{} for _ in range(self.target.rank)]
        for j, col in enumerate(self.cols):
            for i, p in col.items():
                cols[i][j] = p
        return GradedMap.from_columns(self.target.dual(), self.source.dual(), cols)

    def twisted(self, e):
        return GradedMap.from_columns(self.source.shifted(e), self.target.shifted(e), self.cols)

    def strand_matrix(self, d):
        """Sparse matrix of the degree-d strand, by columns: for source basis
        element m'*e_j, the vector {row of m*e_i: coefficient of m in
        entry(i,j) * m'}, read straight off the entries' terms."""
        rows = self.target.strand_basis(d)
        cols = self.source.strand_basis(d)
        row_index = {b: r for r, b in enumerate(rows)}
        terms = [
            [(i, mono, c) for i, p in col.items() for mono, c in p.terms.items()]
            for col in self.cols
        ]
        columns = [
            {row_index[i, tuple(map(add, mono, mono_src))]: c for i, mono, c in terms[j]}
            for j, mono_src in cols
        ]
        return StrandMatrix(ring=self.ring, row_basis=rows, col_basis=cols, columns=columns)


@dataclass
class StrandMatrix:
    """columns[c] is the image of col_basis[c] as a sparse vector
    {row index: coefficient}; zero coefficients are not stored."""

    ring: object
    row_basis: list
    col_basis: list
    columns: list = field(repr=False)

    @property
    def shape(self):
        return (len(self.row_basis), len(self.col_basis))

    def rank(self):
        return sparse_rank(self.columns, self.ring)


def sparse_rank(vectors, ring):
    """Exact rank of the span of sparse vectors {index: coefficient} over the
    coefficient field of ring (F_p or Q). This is the one exact elimination
    of the package.

    Each vector is reduced against the pivot rows found so far, lowest index
    first; pivot row k has k as its lowest index. A vector that does not
    reduce to zero becomes a new pivot row, so the rank is the number of
    pivot rows. Zeros are never stored, and the inputs are not modified.
    Only the field step depends on the characteristic:

    - over F_p, entries are reduced mod p, pivot rows are monic, and a lead
      f against pivot row r is cleared by v <- v - f*r mod p;
    - over Q (entries int or Fraction), each vector is scaled by the lcm of
      its denominators to an int vector with the same span, pivot rows are
      primitive (content 1) with a positive lead a, and a lead f is cleared
      fraction-free by v <- (a/g)*v - (f/g)*r with g = gcd(a, f); v is
      divided by its content whenever a/g != 1. No Fraction is built.
    """
    p = ring.characteristic
    pivots = {}
    for vector in vectors:
        if p:
            v = {}
            for k, c in vector.items():
                c = int(c) % p
                if c:
                    v[k] = c
        else:
            v = _integer_vector(vector)
        while v:
            lead = min(v)
            f = v[lead]
            row = pivots.get(lead)
            if row is None:
                if p:
                    inv = pow(f, -1, p)
                    pivots[lead] = {k: c * inv % p for k, c in v.items()}
                else:
                    g = math.gcd(*v.values())
                    if f < 0:
                        g = -g
                    pivots[lead] = {k: c // g for k, c in v.items()} if g != 1 else v
                break
            if p:
                for k, c in row.items():
                    x = (v.get(k, 0) - f * c) % p
                    if x:
                        v[k] = x
                    else:
                        del v[k]
            else:
                a = row[lead]
                g = math.gcd(a, f)
                s, t = a // g, f // g
                if s != 1:
                    v = {k: s * c for k, c in v.items()}
                for k, c in row.items():
                    x = v.get(k, 0) - t * c
                    if x:
                        v[k] = x
                    else:
                        del v[k]
                if s != 1 and v:
                    g = math.gcd(*v.values())
                    if g != 1:
                        v = {k: c // g for k, c in v.items()}
            if lead in v:
                # each step must clear the lead, or the loop would never end
                raise InternalError(f"elimination step left index {lead} nonzero")
    return len(pivots)


def _integer_vector(vector):
    """A sparse vector over Q (int or Fraction entries) times the lcm of its
    denominators: a new dict of nonzero ints with the same span."""
    den = math.lcm(*[c.denominator for c in vector.values()])
    if den == 1:
        return {k: n for k, c in vector.items() if (n := c.numerator)}
    return {k: n * (den // c.denominator) for k, c in vector.items() if (n := c.numerator)}
