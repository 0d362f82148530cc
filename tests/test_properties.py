"""Property-based checks of structural laws: strand functoriality, strand
ranks against a dense reference elimination, the sparse GradedMap
operations against dense ones on the full matrix, Serre duality,
twist/sum/tensor compatibilities, pullback composition, and serialization
round trips over randomized inputs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_compose, dense_dual, dense_rank, dense_strand, line_bundle_h

from shfc.cohomology import sheaf_cohomology_dim
from shfc.constructions import direct_sum, koszul_differential, q_power_pullback, tensor, twist
from shfc.moduleio import dump_module, parse_module
from shfc.modules import GradedFreeModule, GradedMap
from shfc.resolutions import Presentation
from shfc.rings import Polynomial, Ring, monomials_of_degree, parse_polynomial

R_P1 = Ring(32003, 2)
R_P2 = Ring(32003, 3)
Q_P2 = Ring(0, 3)
F2_P2 = Ring(2, 3)

LINEAR_ENTRIES = ["0", "x0", "x1", "x2", "x0 + x1", "x1 - x2", "x0 + 2*x2"]

twists_lists = st.lists(
    st.integers(min_value=-3, max_value=3), min_size=1, max_size=3
)


def line_bundle_sum(ring, twists):
    return Presentation.free(ring, tuple(-a for a in twists))


def linear_map(ring, source_degrees, target_degrees, texts):
    source = GradedFreeModule(ring, source_degrees)
    target = GradedFreeModule(ring, target_degrees)
    cols = [
        {i: parse_polynomial(ring, texts[j][i]) for i in range(target.rank)}
        for j in range(source.rank)
    ]
    return GradedMap.from_columns(source, target, cols)


def densify(strand):
    """The strand's sparse columns as a dense list of rows."""
    rows, cols = strand.shape
    zero = strand.ring.czero()
    dense = [[zero] * cols for _ in range(rows)]
    for c, vector in enumerate(strand.columns):
        for r, value in vector.items():
            dense[r][c] = value
    return dense


def mat_mul(a, b, ring):
    rows, inner = len(a), len(b)
    cols = len(b[0]) if b else 0
    out = [[ring.czero()] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            aik = a[i][k]
            if not aik:
                continue
            for j in range(cols):
                out[i][j] = ring.cadd(out[i][j], ring.cmul(aik, b[k][j]))
    return out


# --------------------------------------------------------------------------
# strand functoriality: taking degree-d pieces commutes with composition
# --------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.sampled_from(LINEAR_ENTRIES), min_size=4, max_size=4),
    st.lists(st.sampled_from(LINEAR_ENTRIES), min_size=4, max_size=4),
    st.sampled_from([R_P2, Q_P2]),
    st.integers(min_value=1, max_value=3),
)
def test_strand_matrix_is_functorial(psi_texts, phi_texts, ring, d):
    psi = linear_map(ring, (1, 1), (0, 0), [psi_texts[:2], psi_texts[2:]])
    phi = linear_map(ring, (0, 0), (-1, -1), [phi_texts[:2], phi_texts[2:]])
    composite = phi.compose(psi)
    lhs = densify(composite.strand_matrix(d))
    rhs = mat_mul(
        densify(phi.strand_matrix(d)), densify(psi.strand_matrix(d)), ring
    )
    assert lhs == rhs


def draw_map(draw, ring, source, target):
    """A random degree-0 map between the free modules with these degrees,
    each entry a random homogeneous polynomial of the right degree."""
    cols = []
    for a in source:
        col = {}
        for i, b in enumerate(target):
            monos = monomials_of_degree(ring.num_vars, a - b)
            terms = {}
            if monos:
                terms = draw(
                    st.dictionaries(st.sampled_from(monos), st.integers(-3, 3), max_size=4)
                )
            col[i] = Polynomial(ring, terms)
        cols.append(col)
    return GradedMap.from_columns(
        GradedFreeModule(ring, tuple(source)), GradedFreeModule(ring, tuple(target)), cols
    )


MAP_RINGS = [R_P2, F2_P2, Q_P2]


@st.composite
def graded_maps(draw):
    """A random map between small free modules over F_32003, F_2 or Q."""
    ring = draw(st.sampled_from(MAP_RINGS))
    target = draw(st.lists(st.integers(-1, 1), min_size=1, max_size=3))
    source = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    return draw_map(draw, ring, source, target)


@st.composite
def composable_maps(draw):
    """phi: S -> T and psi: U -> S over one ring, S possibly of rank 0."""
    ring = draw(st.sampled_from(MAP_RINGS))
    t = draw(st.lists(st.integers(-1, 1), min_size=1, max_size=3))
    s = draw(st.lists(st.integers(0, 1), min_size=0, max_size=3))
    u = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    return draw_map(draw, ring, s, t), draw_map(draw, ring, u, s)


@settings(max_examples=60, deadline=None)
@given(graded_maps(), st.integers(min_value=-1, max_value=4))
def test_strand_rank_matches_dense_reference(phi, d):
    strand = phi.strand_matrix(d)
    dense = densify(strand)
    assert strand.shape == (phi.target.strand_dimension(d), phi.source.strand_dimension(d))
    assert all(value for vector in strand.columns for value in vector.values())
    assert strand.rank() == dense_rank(dense, phi.ring.characteristic)


def stores_no_zero(phi):
    return all(p.terms for col in phi.cols for p in col.values())


@settings(max_examples=80, deadline=None)
@given(composable_maps(), st.integers(min_value=-1, max_value=4), st.integers(-2, 2))
def test_sparse_map_operations_match_dense_reference(maps, d, e):
    phi, psi = maps
    composite = phi.compose(psi)
    dual = phi.dual()
    twisted = phi.twisted(e)
    expected = dense_compose(phi, psi)
    assert composite.matrix == expected
    assert composite.is_zero() == all(p.is_zero() for row in expected for p in row)
    assert dual.matrix == dense_dual(phi)
    assert (dual.source.degrees, dual.target.degrees) == (
        tuple(-a for a in phi.target.degrees),
        tuple(-a for a in phi.source.degrees),
    )
    assert twisted.matrix == phi.matrix
    assert twisted.source.degrees == tuple(a - e for a in phi.source.degrees)
    assert twisted.target.degrees == tuple(a - e for a in phi.target.degrees)
    char = phi.ring.characteristic
    for m in (phi, psi, composite, dual, twisted):
        assert stores_no_zero(m)
        m.validate()
        assert m.strand_matrix(d).rank() == dense_rank(dense_strand(m, d), char)


@pytest.mark.parametrize("ring", [R_P2, Q_P2, Ring(2, 4), Ring(0, 4)])
def test_koszul_square_cancels_to_an_empty_map(ring):
    # every entry of d o d is a sum of two products that cancel
    for m in range(2, ring.num_vars + 1):
        outer = koszul_differential(ring, m - 1).twisted(1)
        inner = koszul_differential(ring, m)
        square = outer.compose(inner)
        assert square.is_zero()
        assert square.cols == [{}] * inner.source.rank
        expected = dense_compose(outer, inner)
        assert square.matrix == expected
        assert all(p.is_zero() for row in expected for p in row)


# --------------------------------------------------------------------------
# Serre duality on split bundles
# --------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(twists_lists, st.integers(min_value=-4, max_value=4))
def test_serre_duality_split_bundles(twists, d):
    for ring in (R_P1, R_P2):
        n = ring.dim
        f = line_bundle_sum(ring, twists)
        f_dual = line_bundle_sum(ring, tuple(-a for a in twists))
        for i in range(n + 1):
            assert sheaf_cohomology_dim(f, i, d) == sheaf_cohomology_dim(
                f_dual, n - i, -d - n - 1
            )


# --------------------------------------------------------------------------
# twist / sum / tensor compatibilities against the closed form
# --------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    twists_lists,
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
)
def test_twist_matches_closed_form(twists, e, d):
    f = twist(line_bundle_sum(R_P2, twists), e)
    for i in range(3):
        assert sheaf_cohomology_dim(f, i, d) == line_bundle_h(
            2, twists, i, d + e
        )


@settings(max_examples=30, deadline=None)
@given(twists_lists, twists_lists, st.integers(min_value=-3, max_value=3))
def test_direct_sum_additive(ta, tb, d):
    s = direct_sum(line_bundle_sum(R_P2, ta), line_bundle_sum(R_P2, tb))
    for i in range(3):
        assert sheaf_cohomology_dim(s, i, d) == line_bundle_h(
            2, tuple(ta) + tuple(tb), i, d
        )


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(min_value=-2, max_value=2), min_size=1, max_size=2),
    st.lists(st.integers(min_value=-2, max_value=2), min_size=1, max_size=2),
    st.integers(min_value=-3, max_value=3),
)
def test_tensor_of_split_bundles(ta, tb, d):
    t = tensor(line_bundle_sum(R_P2, ta), line_bundle_sum(R_P2, tb))
    expected = tuple(a + b for a in ta for b in tb)
    for i in range(3):
        assert sheaf_cohomology_dim(t, i, d) == line_bundle_h(2, expected, i, d)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(min_value=-2, max_value=2), min_size=1, max_size=2),
    st.lists(st.integers(min_value=-2, max_value=2), min_size=1, max_size=2),
    st.integers(min_value=-3, max_value=3),
)
def test_tensor_is_symmetric_in_cohomology(ta, tb, d):
    a = line_bundle_sum(R_P2, ta)
    b = line_bundle_sum(R_P2, tb)
    left = tensor(a, b)
    right = tensor(b, a)
    for i in range(3):
        assert sheaf_cohomology_dim(left, i, d) == sheaf_cohomology_dim(
            right, i, d
        )


# --------------------------------------------------------------------------
# pullback composition law
# --------------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
)
def test_q_power_composes(a, b):
    m = Presentation(
        GradedFreeModule(R_P2, (0,)),
        GradedMap.from_columns(
            GradedFreeModule(R_P2, (2,)),
            GradedFreeModule(R_P2, (0,)),
            [{0: parse_polynomial(R_P2, "x0*x2 - x1^2")}],
        ),
    )
    nested = q_power_pullback(q_power_pullback(m, a), b)
    direct = q_power_pullback(m, a * b)
    assert nested.gens.degrees == direct.gens.degrees
    assert nested.rels.source.degrees == direct.rels.source.degrees
    assert nested.rels.matrix == direct.rels.matrix


# --------------------------------------------------------------------------
# serialization round trip on randomized presentations
# --------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from(LINEAR_ENTRIES), min_size=2, max_size=2),
        min_size=0,
        max_size=3,
    ),
    st.sampled_from([32003, 0]),
)
def test_round_trip_identity_on_matrix(cols, char):
    ring = Ring(char, 3)
    gens = GradedFreeModule(ring, (0, 0))
    parsed_cols = [{i: parse_polynomial(ring, s) for i, s in enumerate(col)} for col in cols]
    keep = [c for c in parsed_cols if any(not p.is_zero() for p in c.values())]
    source = GradedFreeModule(ring, (1,) * len(keep))
    p = Presentation(gens, GradedMap.from_columns(source, gens, keep))
    back = parse_module(dump_module(p))
    assert back.gens.degrees == p.gens.degrees
    assert back.rels.matrix == p.rels.matrix
