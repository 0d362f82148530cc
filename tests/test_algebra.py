"""Core algebra: rings, polynomials, the interchange grammar, graded free
modules, and exact strand linear algebra."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_rank, dense_rank_rational

from shfc.modules import GradedFreeModule, GradedMap, binom, sparse_rank
from shfc.rings import (
    AlgebraError,
    ParseError,
    Polynomial,
    Ring,
    RingMismatchError,
    grevlex_key,
    monomials_of_degree,
    parse_polynomial,
)

R2 = Ring(32003, 3)
Q1 = Ring(0, 2)


def matrix_rank(rows, ring):
    """Rank of a dense matrix, given as a list of rows, through sparse_rank."""
    return sparse_rank([dict(enumerate(row)) for row in rows], ring)


# --- ring construction -------------------------------------------------------

def test_ring_validation():
    Ring(0, 2)
    Ring(2, 3)
    Ring(32003, 4)
    with pytest.raises(AlgebraError):
        Ring(4, 3)  # composite characteristic
    with pytest.raises(AlgebraError):
        Ring(-3, 3)
    with pytest.raises(AlgebraError):
        Ring(2**31 + 11, 3)  # above the 2**31 bound on the characteristic
    with pytest.raises(AlgebraError):
        Ring(32003, 1)  # fewer than two variables means no projective line


def test_field_arithmetic():
    assert R2.coeff(32003) == 0
    assert R2.cinv(2) == (32003 + 1) // 2
    assert R2.cmul(R2.cinv(7), 7) == 1
    assert Q1.coeff(3) == Fraction(3)
    assert Q1.cinv(Fraction(2, 3)) == Fraction(3, 2)


# --- monomial orders ----------------------------------------------------------

def test_grevlex_degree_two_classic_order():
    monos = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    ordered = sorted(monos, key=grevlex_key, reverse=True)
    assert ordered == monos  # x0^2 > x0x1 > x1^2 > x0x2 > x1x2 > x2^2


def test_monomials_of_degree_complete_and_sorted():
    for v, d in ((2, 3), (3, 2), (4, 3)):
        monos = monomials_of_degree(v, d)
        assert len(monos) == binom(v - 1 + d, d)
        assert len(set(monos)) == len(monos)
        assert all(sum(m) == d for m in monos)
        assert monos == sorted(monos, reverse=True)  # descending lex


def test_monomials_of_degree_returns_a_fresh_list():
    # the lists are memoized inside; a caller's edits must not leak into them
    first = monomials_of_degree(3, 2)
    expected = list(first)
    first.append((9, 9, 9))
    first.reverse()
    del first[0]
    assert monomials_of_degree(3, 2) == expected
    assert monomials_of_degree(3, -1) == []
    monomials_of_degree(3, -1).append((0, 0, 0))
    assert monomials_of_degree(3, -1) == []


# --- parsing and printing -------------------------------------------------------

def test_parse_basic():
    f = parse_polynomial(R2, "x0^2*x1 + 3*x2^3")
    assert f.terms == {(2, 1, 0): 1, (0, 0, 3): 3}
    assert parse_polynomial(R2, "  x0 *  x0  ") == parse_polynomial(R2, "x0^2")
    assert parse_polynomial(R2, "2*3*x1") == parse_polynomial(R2, "6*x1")
    assert parse_polynomial(R2, "x0 - x0").is_zero()
    assert parse_polynomial(R2, "0").is_zero()
    assert parse_polynomial(R2, "32003*x0").is_zero()  # reduced mod p
    assert parse_polynomial(Q1, "-x0 + 2*x1").terms == {(1, 0): -1, (0, 1): 2}


def test_parse_error_columns():
    with pytest.raises(ParseError) as err:
        parse_polynomial(R2, "x0 + ")
    assert err.value.column == 6
    with pytest.raises(ParseError) as err:
        parse_polynomial(R2, "x0 ^ y")  # '^' binds to the variable token
    assert "expected '+' or '-'" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_polynomial(R2, "x7")
    assert "out of range" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_polynomial(R2, "")
    assert "empty" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_polynomial(R2, "x0 & x1")
    assert err.value.column == 4


def coefficients(ring):
    if ring.characteristic:
        return st.integers(min_value=0, max_value=ring.characteristic - 1)
    return st.integers(min_value=-9, max_value=9)


def polynomials(ring, max_terms=5, max_exp=3):
    mono = st.tuples(*[st.integers(0, max_exp) for _ in range(ring.num_vars)])
    return st.dictionaries(mono, coefficients(ring), max_size=max_terms).map(
        lambda terms: Polynomial(ring, terms)
    )


@settings(max_examples=150)
@given(st.sampled_from([R2, Q1, Ring(5, 3)]).flatmap(lambda r: polynomials(r)))
def test_print_parse_round_trip(f):
    assert parse_polynomial(f.ring, f.to_string()) == f


@settings(max_examples=100)
@given(st.tuples(polynomials(R2), polynomials(R2), polynomials(R2)))
def test_ring_laws_mod_p(fgh):
    f, g, h = fgh
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + Polynomial.zero(R2) == f
    assert f * Polynomial.constant(R2, 1) == f
    assert f - f == Polynomial.zero(R2)


@settings(max_examples=60)
@given(st.tuples(polynomials(Q1), polynomials(Q1)))
def test_ring_laws_char_zero(fg):
    f, g = fg
    assert f * g == g * f
    assert (f + g) - g == f


def test_homogeneous_degree():
    assert parse_polynomial(R2, "x0^2 + x1*x2").homogeneous_degree() == 2
    with pytest.raises(AlgebraError):
        parse_polynomial(R2, "x0 + x1^2").homogeneous_degree()
    assert parse_polynomial(R2, "5").homogeneous_degree() == 0


def test_ring_mismatch_rejected():
    with pytest.raises(RingMismatchError):
        parse_polynomial(R2, "x0") + parse_polynomial(Q1, "x0")


def test_evaluate():
    f = parse_polynomial(R2, "x0^2*x1 + 2*x2")
    assert f.evaluate([1, 1, 1]) == 3
    assert f.evaluate([2, 3, 0]) == 12
    assert f.evaluate([0, 0, 0]) == 0
    g = parse_polynomial(Q1, "x0^3 - x1")
    assert g.evaluate([2, 5]) == 3
    assert g.evaluate([Fraction(1, 2), 0]) == Fraction(1, 8)
    with pytest.raises(AlgebraError):
        f.evaluate([1, 2])


def test_substitute_powers_is_frobenius_in_char_p():
    ring = Ring(5, 3)
    f = parse_polynomial(ring, "2*x0^2 + 3*x1*x2")
    power = Polynomial.constant(ring, 1)
    for _ in range(5):
        power = power * f
    assert f.substitute_powers(5) == power


# --- graded free modules and strands ------------------------------------------

def test_strand_dimension_and_basis():
    free = GradedFreeModule(R2, (0, 1))  # S + S(-1)
    assert free.strand_dimension(0) == 1
    assert free.strand_dimension(1) == 3 + 1
    assert free.strand_dimension(2) == 6 + 3
    basis = free.strand_basis(1)
    assert len(basis) == 4
    assert all(sum(m) + free.degrees[j] == 1 for j, m in basis)
    assert free.dual().degrees == (0, -1)
    assert free.shifted(2).degrees == (-2, -1)


def test_graded_map_validate():
    x0 = parse_polynomial(R2, "x0")
    target = GradedFreeModule(R2, (0,))
    good = GradedMap.from_columns(GradedFreeModule(R2, (1,)), target, [{0: x0}])
    good.validate()
    bad = GradedMap.from_columns(GradedFreeModule(R2, (2,)), target, [{0: x0}])
    with pytest.raises(AlgebraError):
        bad.validate()
    with pytest.raises(AlgebraError, match="2 columns, source rank 1"):
        GradedMap.from_columns(GradedFreeModule(R2, (1,)), target, [{0: x0}, {}])
    with pytest.raises(AlgebraError, match="column 0 has row 1, target rank 1"):
        GradedMap.from_columns(GradedFreeModule(R2, (1,)), target, [{1: x0}])
    with pytest.raises(AlgebraError, match="column 0 has row -1, target rank 1"):
        GradedMap.from_columns(GradedFreeModule(R2, (1,)), target, [{-1: x0}])


def test_strand_matrix_multiplication_by_variable():
    x0 = parse_polynomial(Q1, "x0")
    phi = GradedMap.from_columns(
        GradedFreeModule(Q1, (1,)), GradedFreeModule(Q1, (0,)), [{0: x0}]
    )
    strand = phi.strand_matrix(2)  # degree-2 part of S(-1) -> S on P^1
    assert strand.shape == (3, 2)
    assert strand.rank() == 2


def test_matrix_rank_agrees_across_fields():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert matrix_rank(rows, R2) == 2
    assert matrix_rank([[Fraction(a) for a in r] for r in rows], Q1) == 2
    assert matrix_rank([], R2) == 0
    assert matrix_rank([[0, 0], [0, 0]], R2) == 0


@settings(max_examples=80)
@given(
    st.lists(
        st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=1, max_size=4
    )
)
def test_rank_transpose_invariant(rows):
    cols = [list(c) for c in zip(*rows)]
    assert matrix_rank(rows, R2) == matrix_rank(cols, R2)
    q_rows = [[Fraction(a) for a in r] for r in rows]
    q_cols = [[Fraction(a) for a in r] for r in cols]
    assert matrix_rank(q_rows, Q1) == matrix_rank(q_cols, Q1)
    # small integer matrices: rank over Q equals rank mod a large prime
    assert matrix_rank(q_rows, Q1) == matrix_rank(rows, R2)


def test_rational_rank_is_exact_for_huge_integer_entries():
    # Dividing plain ints with / gives floats, in which 10**20 + 1 == 10**20.
    assert matrix_rank([[10**20, 10**20 + 1], [1, 1]], Q1) == 2
    assert sparse_rank([{0: 10**20, 1: 10**20 + 1}, {0: 1, 1: 1}], Q1) == 2


def test_modp_rank_reduces_entries_before_dropping_zeros():
    assert matrix_rank([[32003]], R2) == 0
    assert sparse_rank([{0: 32003, 5: -2 * 32003}], R2) == 0
    assert sparse_rank([{0: 32004}, {0: 1}, {0: -32002}], R2) == 1


def test_sparse_rank_leaves_its_input_alone():
    vectors = [{0: 1, 1: 2}, {0: 2, 1: 4, 2: 32003}]
    snapshot = [dict(v) for v in vectors]
    assert sparse_rank(vectors, R2) == 1
    assert vectors == snapshot
    # over Q the kernel scales copies by denominators and contents, never the inputs
    vectors = [
        {0: Fraction(2, 3), 1: Fraction(-4, 9), 3: Fraction(1, 2)},
        {0: Fraction(4, 3), 1: Fraction(-8, 9), 3: 1},
        {1: Fraction(6, 5), 2: 0, 3: Fraction(-3, 7)},
        {0: 3, 1: 7},
    ]
    snapshot = [dict(v) for v in vectors]
    assert sparse_rank(vectors, Q1) == 3
    assert vectors == snapshot
    assert all(type(a) is type(b) for v, w in zip(vectors, snapshot) for a, b in zip(v.values(), w.values()))


def rational_rank_references(rows):
    """Ranks of dense rows over Q from the dense Fraction oracle and, where
    it is installed, from sympy."""
    out = [dense_rank_rational(rows)]
    try:
        import sympy
    except ImportError:
        return out
    out.append(
        sympy.Matrix([[sympy.Rational(Fraction(x).numerator, Fraction(x).denominator) for x in row] for row in rows]).rank()
    )
    return out


def test_rational_rank_of_hilbert_matrix():
    # full rank, every pivot a non-unit, and contents other than 1 along the way
    rows = [[Fraction(1, i + j + 1) for j in range(10)] for i in range(10)]
    refs = rational_rank_references(rows)
    assert refs == [10] * len(refs)
    assert matrix_rank(rows, Q1) == 10
    # nine Hilbert rows and a rational combination of two of them span rank 9
    mixed = rows[:9] + [[Fraction(3, 7) * a - Fraction(5, 11) * b for a, b in zip(rows[2], rows[6])]]
    refs = rational_rank_references(mixed)
    assert refs == [9] * len(refs)
    assert matrix_rank(mixed, Q1) == 9


def test_rational_rank_of_huge_rank_deficient_product():
    rng = random.Random(20)

    def entry():
        if rng.random() < 0.5:
            return rng.randint(-(10**20), 10**20)
        return Fraction(rng.randint(-(10**20), 10**20), rng.randint(2, 10**12))

    a = [[entry() for _ in range(4)] for _ in range(9)]
    b = [[entry() for _ in range(8)] for _ in range(4)]
    rows = [[sum((a[i][t] * b[t][j] for t in range(4)), Fraction(0)) for j in range(8)] for i in range(9)]
    assert any(x.denominator != 1 for row in rows for x in row)
    assert max(abs(x.numerator) for row in rows for x in row) > 10**20
    refs = rational_rank_references(rows)
    assert refs == [4] * len(refs)
    assert matrix_rank(rows, Q1) == 4
    assert matrix_rank([list(c) for c in zip(*rows)], Q1) == 4


def test_rational_rank_mixes_int_and_fraction_entries():
    vectors = [
        {0: 2, 1: Fraction(1, 3), 2: -5, 4: Fraction(7, 2)},
        {0: Fraction(4), 1: Fraction(2, 3), 2: -10, 4: 7},
        {1: Fraction(2, 3), 2: Fraction(-3, 4), 3: 0},
        {0: 6, 1: Fraction(5, 3), 2: Fraction(-63, 4), 4: Fraction(21, 2)},
    ]
    # row 1 is twice row 0; row 3 is three times row 0 plus row 2
    dense = [[v.get(j, 0) for j in range(5)] for v in vectors]
    refs = rational_rank_references(dense)
    assert refs == [2] * len(refs)
    assert sparse_rank(vectors, Q1) == 2
    columns = [{i: v[j] for i, v in enumerate(vectors) if j in v} for j in range(5)]
    assert sparse_rank(columns, Q1) == 2


RANK_RINGS = [R2, Ring(2, 3), Q1]


def field_values(ring):
    """Entries the kernel must reduce itself: unreduced ints mod p, and
    Fractions with assorted denominators over Q."""
    if ring.characteristic:
        p = ring.characteristic
        return st.integers(min_value=-2 * p, max_value=2 * p)
    return st.fractions(min_value=-5, max_value=5, max_denominator=7) | st.integers(-(10**20), 10**20)


@st.composite
def sparse_matrices(draw, ring, max_side=9):
    """(num_cols, rows as sparse dicts). Half are products A*B through a
    thin inner dimension, so rank deficiency is common."""
    m = draw(st.integers(0, max_side))
    n = draw(st.integers(1, max_side))

    def sparse(rows, cols):
        if not rows:
            return {}
        cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
        return draw(st.dictionaries(cells, field_values(ring), max_size=max(rows, cols) + 2))

    if draw(st.booleans()):
        entries = sparse(m, n)
    else:
        k = draw(st.integers(1, 3))
        a, b = sparse(m, k), sparse(k, n)
        entries = {}
        for (i, t), x in a.items():
            for (u, j), y in b.items():
                if u == t:
                    entries[i, j] = entries.get((i, j), 0) + x * y
    rows = [{} for _ in range(m)]
    for (i, j), value in entries.items():
        rows[i][j] = value
    return n, rows


def to_dense(n, rows):
    return [[row.get(j, 0) for j in range(n)] for row in rows]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(RANK_RINGS).flatmap(lambda r: st.tuples(st.just(r), sparse_matrices(r))))
def test_sparse_rank_matches_dense_reference(case):
    ring, (n, rows) = case
    dense = to_dense(n, rows)
    expected = dense_rank(dense, ring.characteristic)
    assert sparse_rank(rows, ring) == expected
    assert matrix_rank(dense, ring) == expected
    columns = [{i: row[j] for i, row in enumerate(rows) if j in row} for j in range(n)]
    assert sparse_rank(columns, ring) == expected


@settings(max_examples=60, deadline=None)
@given(sparse_matrices(Q1, max_side=5))
def test_rational_rank_matches_sympy(case):
    sympy = pytest.importorskip("sympy")
    n, rows = case
    dense = to_dense(n, rows)
    if not dense:
        return
    reference = sympy.Matrix(
        [[sympy.Rational(Fraction(x).numerator, Fraction(x).denominator) for x in row] for row in dense]
    ).rank()
    assert sparse_rank(rows, Q1) == reference
