"""Graded free modules, graded maps, and exact strand linear algebra.

A free module is recorded by its generator degrees: degrees (a_1..a_r) means
S(-a_1) + .. + S(-a_r), so generator j lives in degree a_j. The degree-d
strand of a map is a finite matrix over the coefficient field, stored as one
sparse vector per column. One elimination routine, `sparse_rank`, serves
both F_p (integers reduced mod p) and Q (Fractions); strand ranks and
`matrix_rank` are its only users.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import add

from .rings import AlgebraError, Polynomial, RingMismatchError, monomials_of_degree


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
            for mono in monomials_of_degree(self.ring.num_vars, d - a):
                out.append((j, mono))
        return out

    def dual(self):
        return GradedFreeModule(self.ring, tuple(-a for a in self.degrees))

    def shifted(self, e):
        """Degrees of the twist by e: generator degrees drop by e."""
        return GradedFreeModule(self.ring, tuple(a - e for a in self.degrees))


@dataclass
class GradedMap:
    """A degree-0 map of graded free modules, stored as a target.rank x
    source.rank matrix of homogeneous polynomials (column j = image of
    source generator j; entry (i,j) homogeneous of degree
    source.degrees[j] - target.degrees[i])."""

    source: GradedFreeModule
    target: GradedFreeModule
    matrix: tuple

    def __post_init__(self):
        self.matrix = tuple(tuple(row) for row in self.matrix)
        if len(self.matrix) != self.target.rank:
            raise AlgebraError(f"matrix has {len(self.matrix)} rows, target rank {self.target.rank}")
        for row in self.matrix:
            if len(row) != self.source.rank:
                raise AlgebraError(f"matrix row width {len(row)}, source rank {self.source.rank}")

    @classmethod
    def zero(cls, source, target):
        z = Polynomial.zero(target.ring)
        return cls(source, target, tuple(tuple(z for _ in range(source.rank)) for _ in range(target.rank)))

    @classmethod
    def from_columns(cls, source, target, columns):
        rows = tuple(tuple(columns[j][i] for j in range(len(columns))) for i in range(target.rank))
        return cls(source, target, rows)

    @property
    def ring(self):
        return self.target.ring

    def validate(self):
        """Check ring agreement and entry-wise homogeneity of the right degrees.

        Rings are compared by identity first: entries built from one map
        share its ring object, and Ring equality builds tuples per call."""
        ring = self.ring
        if self.source.ring != ring:
            raise RingMismatchError("source and target rings differ")
        src, tgt = self.source.degrees, self.target.degrees
        for i, row in enumerate(self.matrix):
            for j, p in enumerate(row):
                if p.ring is not ring and p.ring != ring:
                    raise RingMismatchError(f"entry ({i},{j}) lives in a different ring")
                if p.terms and (d := p.homogeneous_degree()) != src[j] - tgt[i]:
                    raise AlgebraError(f"entry ({i},{j}) has degree {d}, expected {src[j] - tgt[i]}")
        return self

    def column(self, j):
        return [self.matrix[i][j] for i in range(self.target.rank)]

    def columns(self):
        return [self.column(j) for j in range(self.source.rank)]

    def is_zero(self):
        return all(p.is_zero() for row in self.matrix for p in row)

    def compose(self, other):
        """self o other (apply other first)."""
        if other.target != self.source:
            raise AlgebraError("maps are not composable")
        ring = self.ring
        rows = []
        for i in range(self.target.rank):
            row = []
            for j in range(other.source.rank):
                acc = Polynomial.zero(ring)
                for k in range(self.source.rank):
                    a = self.matrix[i][k]
                    b = other.matrix[k][j]
                    if a.is_zero() or b.is_zero():
                        continue
                    acc = acc + a * b
                row.append(acc)
            rows.append(tuple(row))
        return GradedMap(other.source, self.target, tuple(rows))

    def dual(self):
        """Transpose the matrix, negate all degrees."""
        rows = tuple(
            tuple(self.matrix[i][j] for i in range(self.target.rank))
            for j in range(self.source.rank)
        )
        return GradedMap(self.target.dual(), self.source.dual(), rows)

    def twisted(self, e):
        return GradedMap(self.source.shifted(e), self.target.shifted(e), self.matrix)

    def strand_matrix(self, d):
        """Sparse matrix of the degree-d strand, by columns: for source basis
        element m'*e_j, the vector {row of m*e_i: coefficient of m in
        entry(i,j) * m'}, read straight off the entries' terms."""
        rows = self.target.strand_basis(d)
        cols = self.source.strand_basis(d)
        row_index = {b: r for r, b in enumerate(rows)}
        terms = [
            [(i, mono, c) for i, row in enumerate(self.matrix) for mono, c in row[j].terms.items()]
            for j in range(self.source.rank)
        ]
        columns = [
            {row_index[i, tuple(map(add, mono, mono_src))]: c for i, mono, c in terms[j]}
            for j, mono_src in cols
        ]
        return StrandMatrix(ring=self.ring, degree=d, row_basis=rows, col_basis=cols, columns=columns)


@dataclass
class StrandMatrix:
    """columns[c] is the image of col_basis[c] as a sparse vector
    {row index: coefficient}; zero coefficients are not stored."""

    ring: object
    degree: int
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

    Entries go through ring.coeff first (reduced mod p, or made exact
    Fractions) and zeros are dropped, so no float and no unreduced zero
    reaches the elimination. Each vector is then reduced against the pivot
    rows found so far, lowest index first; pivot row k is monic with k as its
    lowest index. A vector that does not reduce to zero becomes a new pivot
    row, so the rank is the number of pivot rows. The inputs are not
    modified.
    """
    p = ring.characteristic
    pivots = {}
    for vector in vectors:
        v = {}
        for k, c in vector.items():
            c = ring.coeff(c)
            if c:
                v[k] = c
        while v:
            lead = min(v)
            f = v[lead]
            row = pivots.get(lead)
            if row is None:
                inv = ring.cinv(f)
                pivots[lead] = {k: ring.cmul(c, inv) for k, c in v.items()}
                break
            for k, c in row.items():
                x = v.get(k, 0) - f * c
                if p:
                    x %= p
                if x:
                    v[k] = x
                else:
                    del v[k]
    return len(pivots)


def matrix_rank(entries, ring):
    """Exact rank of a dense matrix, given as a list of rows, over the
    coefficient field of ring."""
    return sparse_rank((dict(enumerate(row)) for row in entries), ring)
