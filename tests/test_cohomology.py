"""Sheaf cohomology via graded local duality, tested against independent
closed forms (tests/oracles.py), Serre duality, and long-exact-sequence
consequences that reduce to Hilbert-function arithmetic.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    binomial,
    bott_h,
    chi_line,
    chi_omega,
    hilbert_polynomial,
    hilbert_polynomial_value,
    line_bundle_h,
)

from shfc.cohomology import (
    _dual_data,
    _dual_rank,
    cohomology_table,
    euler_characteristic,
    euler_characteristic_line,
    ext_strand_dim,
    line_bundle_oracle,
    sheaf_cohomology_dim,
)
from shfc.constructions import q_power_pullback, sym_power, tensor
from shfc.corpus import draw_locally_free
from shfc.invariants import sheaf_regularity
from shfc.moduleio import presentation_from_dict
from shfc.modules import binom
from shfc.resolutions import (
    MINUS_INFINITY,
    Presentation,
    hilbert_function,
)
from shfc.rings import AlgebraError, InternalError, Ring
from shfc.rng import Lcg


def pres(char, nvars, generators, relations):
    return presentation_from_dict(
        {
            "ring": {"char": char, "vars": nvars},
            "generators": generators,
            "relations": relations,
        }
    )


def line_bundle_sum(char, n, twists):
    return Presentation.free(Ring(char, n + 1), tuple(-a for a in twists))


# --------------------------------------------------------------------------
# oracle self-consistency (the oracles vouch for each other before they are
# allowed to vouch for the engine)
# --------------------------------------------------------------------------


def test_oracles_are_self_consistent():
    for n in (1, 2, 3):
        for p in range(0, n + 1):
            for k in range(-(n + 5), n + 6):
                # Serre duality: h^q(Omega^p(k)) = h^{n-q}(Omega^{n-p}(-k))
                for q in range(0, n + 1):
                    assert bott_h(n, p, k, q) == bott_h(n, n - p, -k, n - q)
                # Euler characteristic matches the Koszul recursion
                chi = sum((-1) ** q * bott_h(n, p, k, q) for q in range(n + 1))
                assert chi == chi_omega(n, p, k)
        for d in range(-(n + 5), n + 6):
            chi = sum((-1) ** i * line_bundle_h(n, (0,), i, d) for i in range(n + 1))
            assert chi == chi_line(n, d)
            assert euler_characteristic_line(n, d) == chi_line(n, d)


def test_internal_and_external_line_bundle_oracles_agree():
    for n in (1, 2, 3):
        for twists in [(0,), (2,), (-3,), (1, -1), (0, 2, -2)]:
            for i in range(n + 1):
                for d in range(-(n + 5), n + 6):
                    assert line_bundle_oracle(n, twists, i, d) == line_bundle_h(
                        n, twists, i, d
                    )


# --------------------------------------------------------------------------
# engine vs closed form
# --------------------------------------------------------------------------


def test_structure_sheaf_cohomology():
    for n in (1, 2, 3):
        p = line_bundle_sum(32003, n, (0,))
        for d in range(-(n + 4), n + 5):
            for i in range(n + 1):
                assert sheaf_cohomology_dim(p, i, d) == line_bundle_h(n, (0,), i, d)


def test_line_bundle_sums_match_oracle():
    cases = [
        (1, (3, -2)),
        (2, (1, 1, -4)),
        (2, (-1,)),
        (3, (2, 0, -3)),
    ]
    for n, twists in cases:
        for char in (32003, 0):
            p = line_bundle_sum(char, n, twists)
            for d in range(-(n + 4), n + 5):
                for i in range(n + 1):
                    assert sheaf_cohomology_dim(p, i, d) == line_bundle_h(
                        n, twists, i, d
                    ), (n, twists, char, i, d)


def test_serre_duality_for_line_bundle_sums():
    n = 2
    twists = (2, -1, -3)
    dual_twists = tuple(-a for a in twists)
    p = line_bundle_sum(32003, n, twists)
    q = line_bundle_sum(32003, n, dual_twists)
    for d in range(-5, 6):
        for i in range(n + 1):
            assert sheaf_cohomology_dim(p, i, d) == sheaf_cohomology_dim(
                q, n - i, -d - n - 1
            )


# --------------------------------------------------------------------------
# zero-dimensional support: the section dimension counts the points and the
# higher cohomology vanishes at every twist
# --------------------------------------------------------------------------


def test_single_point():
    p = pres(32003, 3, [0], [["x1"], ["x2"]])
    for d in range(-6, 7):
        assert [sheaf_cohomology_dim(p, i, d) for i in range(3)] == [1, 0, 0]


def test_fat_point():
    p = pres(32003, 3, [0], [["x1^2"], ["x1*x2"], ["x2^2"]])
    for d in range(-6, 7):
        assert [sheaf_cohomology_dim(p, i, d) for i in range(3)] == [3, 0, 0]


def test_two_points():
    # [1:0:0] and [0:0:1]
    p = pres(32003, 3, [0], [["x1"], ["x0*x2"]])
    for d in range(-6, 7):
        assert [sheaf_cohomology_dim(p, i, d) for i in range(3)] == [2, 0, 0]


# --------------------------------------------------------------------------
# one-dimensional support: plane curves, checked against the twisting
# long exact sequence (which here reduces to Hilbert functions)
# --------------------------------------------------------------------------


@pytest.mark.parametrize("k", [3, 4])
def test_plane_curve_cohomology(k):
    f = " + ".join(f"x{j}^{k}" for j in range(3))
    p = pres(32003, 3, [0], [[f]])
    for d in range(-3, 5):
        h0 = sheaf_cohomology_dim(p, 0, d)
        h1 = sheaf_cohomology_dim(p, 1, d)
        h2 = sheaf_cohomology_dim(p, 2, d)
        # depth-2 quotient: sections in every twist equal the module strand
        assert h0 == binomial(d + 2, 2) - binomial(d - k + 2, 2)
        # h^1 from the restriction sequence is a quotient strand of S/(f)
        assert h1 == hilbert_function(p, k - d - 3)
        assert h2 == 0
    # twist 0 recovers the genus
    genus = (k - 1) * (k - 2) // 2
    assert sheaf_cohomology_dim(p, 1, 0) == genus


def test_euler_characteristic_equals_hilbert_polynomial():
    examples = [
        pres(32003, 3, [0], [["x1"], ["x2"]]),
        pres(32003, 3, [0], [["x0*x2 - x1^2"]]),
        pres(32003, 3, [0, -1], []),
        pres(0, 3, [0], [["x0^3 + x1^3 + x2^3"]]),
    ]
    for p in examples:
        coeffs = hilbert_polynomial(p)
        n = p.ring.dim
        for d in range(-5, 6):
            chi = sum((-1) ** i * sheaf_cohomology_dim(p, i, d) for i in range(n + 1))
            assert chi == euler_characteristic(p, d) == hilbert_polynomial_value(coeffs, d)


def finite_support_modules(ring):
    """The zero module, a point (S / (x1, ..., xn)) and an Artinian module
    (S / (x0^2, x1, ..., xn), of length 2), each with its constant chi."""
    char, nvars = ring.characteristic, ring.num_vars
    rest = [[f"x{k}"] for k in range(1, nvars)]
    return [
        ("zero", pres(char, nvars, [0], [["1"]]), 0),
        ("point", pres(char, nvars, [0], rest), 1),
        ("artinian", pres(char, nvars, [0], [["x0^2"]] + rest), 0),
    ]


@pytest.mark.parametrize("char", [32003, 2, 0])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_integer_euler_characteristic_matches_cohomology_and_hilbert_polynomial(char, n):
    ring = Ring(char, n + 1)
    rng = Lcg(500 + 10 * n + (char % 7))
    draws = [draw_locally_free(ring, rng) for _ in range(4)]
    finite = finite_support_modules(ring)
    for desc, p, chi0 in finite:
        assert all(euler_characteristic(p, d) == chi0 for d in range(-n - 3, n + 4)), desc
        # finite support: every twist qualifies, so no smallest one exists
        assert sheaf_regularity(p) == MINUS_INFINITY, desc
    for p, desc in draws:
        # a nonzero vector bundle: chi(F(d)) has degree n, so reg is finite
        assert sheaf_regularity(p) > MINUS_INFINITY, desc
    for p, desc in draws + [(p, desc) for desc, p, _ in finite]:
        coeffs = hilbert_polynomial(p)
        for d in range(-n - 3, n + 4):
            chi = euler_characteristic(p, d)
            h = [sheaf_cohomology_dim(p, i, d) for i in range(n + 1)]
            assert type(chi) is int
            assert chi == sum((-1) ** i * v for i, v in enumerate(h)), (desc, d)
            assert chi == hilbert_polynomial_value(coeffs, d), (desc, d)


# --------------------------------------------------------------------------
# Ext strands feeding the duality formula
# --------------------------------------------------------------------------


def test_ext_of_free_module():
    p = Presentation.free(Ring(32003, 3), (0,))
    for d in range(-3, 4):
        assert ext_strand_dim(p, 0, d) == binomial(d + 2, 2)
        assert ext_strand_dim(p, 1, d) == 0
        assert ext_strand_dim(p, 2, d) == 0


def test_ext_of_residue_field_is_koszul_dual():
    # Ext^3(k, S) is k sitting in internal degree -3; lower Ext vanish
    p = pres(32003, 3, [0], [["x0"], ["x1"], ["x2"]])
    for d in range(-6, 4):
        assert ext_strand_dim(p, 3, d) == (1 if d == -3 else 0)
        for j in range(0, 3):
            assert ext_strand_dim(p, j, d) == 0
    assert ext_strand_dim(p, -1, 0) == 0
    assert ext_strand_dim(p, 4, 0) == 0


def test_negative_ext_dimension_raises_internal_error():
    p = pres(32003, 3, [0], [["x0"], ["x1"], ["x2"]])
    assert ext_strand_dim(p, 3, -3) == 1
    p.cache[("dual_rank", 3, -3)] += 2  # a rank the strand cannot have
    with pytest.raises(InternalError, match="Ext strand bookkeeping"):
        ext_strand_dim(p, 3, -3)


# --------------------------------------------------------------------------
# table object
# --------------------------------------------------------------------------


def test_cohomology_table_values_and_euler():
    p = line_bundle_sum(32003, 2, (-1, 2))
    table = cohomology_table(p, -4, 3)
    assert table.n == 2
    assert table.window == (-4, 3)
    for d in range(-4, 4):
        for i in range(3):
            assert table.value(i, d) == line_bundle_h(2, (-1, 2), i, d)
        euler = sum((-1) ** i * table.value(i, d) for i in range(3))
        assert euler == chi_line(2, d - 1) + chi_line(2, d + 2)


def test_cohomology_table_json_shape():
    p = line_bundle_sum(32003, 1, (0,))
    table = cohomology_table(p, -2, 2)
    data = table.to_json_dict()
    assert data["n"] == 1
    assert data["window"] == [-2, 2]
    assert data["h"][0] == [line_bundle_h(1, (0,), 0, d) for d in range(-2, 3)]
    assert len(data["h"]) == 2


def test_cohomology_table_ascii_layout():
    p = line_bundle_sum(32003, 2, (0,))
    text = cohomology_table(p, -1, 1).to_ascii()
    lines = text.splitlines()
    assert "d=-1" in lines[0] and "d=1" in lines[0]
    # highest cohomological degree printed first
    assert lines[1].startswith("h^2")
    assert lines[-1].startswith("h^0")


def test_bad_inputs_raise():
    p = line_bundle_sum(32003, 2, (0,))
    with pytest.raises(AlgebraError):
        sheaf_cohomology_dim(p, 3, 0)
    with pytest.raises(AlgebraError):
        sheaf_cohomology_dim(p, -1, 0)
    with pytest.raises(AlgebraError):
        cohomology_table(p, 2, 1)


# --------------------------------------------------------------------------
# dual strand ranks from Hilbert numerators against strand elimination
# --------------------------------------------------------------------------


@st.composite
def sheaves(draw):
    """A corpus draw on P^1 to P^3 over F_32003, F_2 or Q, as drawn, tensored
    with a second draw, or taken to Sym^2 or a q-power pullback, q = 2, 3."""
    # P^1 draws are split, so their resolutions have no maps: P^2 and P^3
    # are drawn more often
    ring = Ring(draw(st.sampled_from([32003, 2, 0])), draw(st.sampled_from([2, 3, 3, 4, 4])))
    rng = Lcg(draw(st.integers(0, 2**32)))
    pres, _ = draw_locally_free(ring, rng)
    kind = draw(st.sampled_from(["corpus", "tensor", "sym", "qpow"]))
    if kind == "tensor":
        pres = tensor(pres, draw_locally_free(ring, rng)[0])
    elif kind == "sym":
        pres = sym_power(pres, 2)
    elif kind == "qpow":
        pres = q_power_pullback(pres, draw(st.integers(2, 3)))
    return pres


@settings(max_examples=200, deadline=None)
@given(sheaves())
def test_dual_rank_matches_strand_rank(pres):
    # ascending degrees resume the truncated Groebner basis query by query;
    # the window reaches 8 below every generator degree, where both strands
    # are empty and the binomial sum of the final numerator must vanish too
    n = pres.ring.dim
    _, dual_maps = _dual_data(pres)
    for j, psi in enumerate(dual_maps, 1):
        degrees = psi.source.degrees + psi.target.degrees
        window = range(min(degrees) - 8, max(degrees) + 3)
        ranks = {e: psi.strand_matrix(e).rank() for e in window}
        for e in window:
            assert _dual_rank(pres, j, e) == ranks[e]
        numerator = pres.cache[("numerator", j)](window[-1])
        for e in window:
            assert sum(c * binom(e - m + n, n) for m, c in numerator.items()) == ranks[e]
