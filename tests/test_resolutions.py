"""Minimal free resolutions, Betti tables, regularity, Hilbert data.

Reference values here are classical closed forms (Koszul complexes,
hypersurfaces, points) that can be checked by hand; the exactness of
computed resolutions is verified independently by strand-level linear
algebra in verify_strand_exactness.
"""

import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shfc import resolutions
from shfc.cohomology import euler_characteristic
from shfc.corpus import draw_locally_free
from shfc.groebner import resolve
from shfc.moduleio import presentation_from_dict
from shfc.modules import GradedFreeModule, GradedMap, binom
from shfc.resolutions import (
    MINUS_INFINITY,
    Presentation,
    betti_table,
    hilbert_function,
    hilbert_numerator,
    minimal_free_resolution,
    minimize_presentation,
    module_regularity,
    verify_strand_exactness,
)
from shfc.rings import AlgebraError, InternalError, Polynomial, Ring, monomials_of_degree
from shfc.rng import Lcg

from oracles import (
    binomial,
    hilbert_polynomial,
    minimize_presentation_by_terms,
    monomial_ideal_hilbert_function,
)


def pres(char, nvars, generators, relations):
    return presentation_from_dict(
        {
            "ring": {"char": char, "vars": nvars},
            "generators": generators,
            "relations": relations,
        }
    )


def quotient_by_variables(char, nvars):
    """S / (x0, ..., x_{nvars-1}): the residue field as a graded module."""
    return pres(char, nvars, [0], [[f"x{k}"] for k in range(nvars)])


def test_koszul_resolution_of_residue_field():
    for char in (32003, 0):
        k_module = quotient_by_variables(char, 3)
        res, betti = minimal_free_resolution(k_module)
        assert res.length == 3
        assert betti.entries == {(0, 0): 1, (1, 1): 3, (2, 2): 3, (3, 3): 1}
        assert module_regularity(betti) == 0
        assert verify_strand_exactness(k_module)


def test_koszul_betti_numbers_all_dims():
    for nvars in (2, 3, 4):
        _, betti = minimal_free_resolution(quotient_by_variables(32003, nvars))
        for i in range(nvars + 1):
            assert betti.entries.get((i, i), 0) == binomial(nvars, i)


def test_resolution_length_within_syzygy_bound():
    examples = [
        pres(32003, 3, [0], [["x0*x1"], ["x1*x2^2"]]),
        pres(32003, 3, [0, 1], [["x0", "-1"], ["x1^2", "x2"]]),
        pres(0, 3, [0], [["x0^2 - x1*x2"]]),
    ]
    for p in examples:
        res, _ = minimal_free_resolution(p)
        assert res.length <= p.ring.num_vars
        assert verify_strand_exactness(p)


def test_hypersurface_betti_and_regularity():
    # S/(f) for deg f = k: two-step resolution, regularity k - 1
    for k in (1, 2, 3, 4):
        f = "x0^" + str(k) if k > 1 else "x0"
        p = pres(32003, 3, [0], [[f]])
        assert betti_table(p).entries == {(0, 0): 1, (1, k): 1}
        assert module_regularity(betti_table(p)) == k - 1


def test_free_module_betti():
    p = Presentation.free(Ring(32003, 3), (0, -1, 2))
    _, betti = minimal_free_resolution(p)
    assert betti.entries == {(0, -1): 1, (0, 0): 1, (0, 2): 1}
    assert module_regularity(betti) == 2


def test_zero_module_sentinel():
    # a unit relation kills the only generator
    p = pres(32003, 3, [0], [["1"]])
    _, betti = minimal_free_resolution(p)
    assert betti.entries == {}
    assert module_regularity(betti) == MINUS_INFINITY
    assert hilbert_polynomial(p) == (Fraction(0),)
    assert hilbert_function(p, 0) == 0


def test_minimize_presentation_removes_units():
    # e0*x0 appears only through a generator that a unit relation removes
    p = pres(32003, 3, [0, 1], [["x0", "-1"], ["x0*x1", "x2"]])
    reduced = minimize_presentation(p)
    assert reduced.gens.rank == 1
    assert all(
        not entry.is_constant() for col in reduced.rels.cols for entry in col.values()
    )
    # the surviving module must present the same graded vector space
    for d in range(0, 5):
        assert hilbert_function(p, d) == hilbert_function(reduced, d)


def test_minimize_presentation_idempotent():
    p = pres(32003, 3, [0, 1], [["x0", "-1"], ["x1^2", "x2"], ["x0^2", "0"]])
    once = minimize_presentation(p)
    twice = minimize_presentation(once)
    assert once.gens.degrees == twice.gens.degrees
    assert sorted(once.rels.source.degrees) == sorted(twice.rels.source.degrees)


@st.composite
def presentations_with_units(draw):
    """A corpus draw on P^1 to P^3 over F_32003, F_2 or Q, with planted
    unit columns (a nonzero constant times one generator plus a random
    homogeneous combination of the others) and zero columns shuffled in
    among its relations. Returns the presentation and the planted count."""
    ring = Ring(draw(st.sampled_from([32003, 2, 0])), draw(st.integers(2, 4)))
    base, _ = draw_locally_free(ring, Lcg(draw(st.integers(0, 2**32))))
    gens = base.gens.degrees

    def homogeneous(e):
        if e < 0:
            return Polynomial.zero(ring)
        monos = draw(st.lists(st.sampled_from(monomials_of_degree(ring.num_vars, e)), max_size=3))
        return Polynomial(ring, {m: draw(st.integers(-3, 3)) for m in monos})

    columns = list(zip(base.rels.source.degrees, base.rels.cols))
    planted = draw(st.integers(0, 3))
    for _ in range(planted):
        i = draw(st.integers(0, len(gens) - 1))
        col = {k: homogeneous(gens[i] - a) for k, a in enumerate(gens) if k != i}
        # odd constants are units over F_2 as well
        col[i] = Polynomial.constant(ring, draw(st.sampled_from([1, -1, 3, 7])))
        columns.append((gens[i], col))
    for _ in range(draw(st.integers(0, 2))):
        columns.append((draw(st.integers(-2, 3)), {}))
    columns = draw(st.permutations(columns))
    source = GradedFreeModule(ring, tuple(d for d, _ in columns))
    rels = GradedMap.from_columns(source, base.gens, [c for _, c in columns])
    return Presentation(base.gens, rels), planted


@settings(max_examples=100, deadline=None)
@given(presentations_with_units())
def test_minimize_presentation_matches_term_scan(drawn):
    # units read from degrees are the constant entries a term scan finds,
    # in the same order, so the eliminations agree column for column
    p, planted = drawn
    got = minimize_presentation(p)
    want = minimize_presentation_by_terms(p)
    assert got.gens.degrees == want.gens.degrees
    assert got.rels.source.degrees == want.rels.source.degrees
    assert got.rels.cols == want.rels.cols
    if planted:
        assert got.gens.rank < p.gens.rank


def test_hilbert_function_polynomial_ring():
    p = Presentation.free(Ring(32003, 3), (0,))
    for d in range(-2, 6):
        assert hilbert_function(p, d) == binomial(d + 2, 2)
    assert hilbert_polynomial(p) == (Fraction(1), Fraction(3, 2), Fraction(1, 2))


def test_hilbert_function_point():
    p = pres(32003, 3, [0], [["x1"], ["x2"]])
    assert hilbert_function(p, -1) == 0
    for d in range(0, 6):
        assert hilbert_function(p, d) == 1
    assert hilbert_polynomial(p) == (Fraction(1),)
    assert euler_characteristic(p, 10) == 1
    assert verify_strand_exactness(p)


def test_hilbert_function_conic():
    # S/(q), q a smooth conic in the plane: HF(d) = 2d + 1 for d >= 1
    p = pres(32003, 3, [0], [["x0*x2 - x1^2"]])
    assert [hilbert_function(p, d) for d in range(0, 5)] == [1, 3, 5, 7, 9]
    assert hilbert_polynomial(p) == (Fraction(1), Fraction(2))


def test_hilbert_function_matches_polynomial_beyond_regularity():
    p = pres(32003, 3, [0], [["x0*x1"], ["x1*x2^2"]])
    reg = module_regularity(betti_table(p))
    for d in range(reg + 1, reg + 6):
        assert hilbert_function(p, d) == euler_characteristic(p, d)


def test_residue_field_hilbert_function():
    k_module = quotient_by_variables(32003, 3)
    assert [hilbert_function(k_module, d) for d in range(-1, 4)] == [0, 1, 0, 0, 0]
    assert hilbert_polynomial(k_module) == (Fraction(0),)


def test_resolution_is_cached():
    p = pres(32003, 3, [0], [["x1"], ["x2"]])
    first = minimal_free_resolution(p)
    second = minimal_free_resolution(p)
    assert first[0] is second[0] and first[1] is second[1]


def test_strand_exactness_catches_windowed_degrees():
    # irregular module (shifted generators, mixed relation degrees)
    p = pres(32003, 3, [2, 0], [["x1", "-x0*x2^2"], ["x2^3", "0"]])
    assert verify_strand_exactness(p)


def test_twisted_cubic_betti():
    # rational normal curve of degree 3: 3 quadrics, 2 linear syzygies
    p = pres(
        32003,
        4,
        [0],
        [["x0*x2 - x1^2"], ["x0*x3 - x1*x2"], ["x1*x3 - x2^2"]],
    )
    assert betti_table(p).entries == {(0, 0): 1, (1, 2): 3, (2, 3): 2}
    assert module_regularity(betti_table(p)) == 1
    assert [hilbert_function(p, d) for d in range(0, 5)] == [1, 4, 7, 10, 13]
    assert verify_strand_exactness(p)


def corrupted_twisted_cubic(char):
    """The twisted cubic with one column of its cached syzygy map zeroed:
    consecutive maps still compose to zero, but the complex is no longer
    exact, which only the strand ranks can see."""
    p = pres(char, 4, [0], [["x0*x2 - x1^2"], ["x0*x3 - x1*x2"], ["x1*x3 - x2^2"]])
    res, _ = minimal_free_resolution(p)
    syz = res.maps[1]
    res.maps[1] = GradedMap.from_columns(syz.source, syz.target, [{}] + syz.cols[1:])
    return p


@pytest.mark.parametrize("char", [32003, 0])
def test_strand_exactness_rejects_corrupted_resolution(char):
    assert not issubclass(InternalError, AlgebraError)
    with pytest.raises(InternalError, match="not exact"):
        verify_strand_exactness(corrupted_twisted_cubic(char))


def test_strand_exactness_check_survives_optimized_python(tmp_path):
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    src_dir = os.path.join(os.path.dirname(tests_dir), "src")
    script = (
        "import sys\n"
        "from test_resolutions import corrupted_twisted_cubic, verify_strand_exactness\n"
        "from shfc.rings import InternalError\n"
        "if __debug__:\n"
        "    sys.exit('expected python -O')\n"
        "for char in (32003, 0):\n"
        "    try:\n"
        "        verify_strand_exactness(corrupted_twisted_cubic(char))\n"
        "    except InternalError as exc:\n"
        "        print('raised', char, exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src_dir, tests_dir]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[:2] for line in lines] == [["raised", "32003"], ["raised", "0"]]
    assert all("not exact" in line for line in lines)


def resolve_with_a_unit(phi):
    """A stand-in for groebner.resolve: the true maps, then one more map
    into the last source whose only entry is the constant 1, of degree 0."""
    maps = resolve(phi)
    last = maps[-1].source
    one = Polynomial.constant(phi.ring, 1)
    unit = GradedMap.from_columns(GradedFreeModule(phi.ring, last.degrees[:1]), last, [{0: one}])
    return maps + [unit.validate()]


def test_minimality_check_raises_on_a_unit(monkeypatch):
    monkeypatch.setattr(resolutions, "resolve", resolve_with_a_unit)
    with pytest.raises(InternalError, match="resolution is not minimal"):
        minimal_free_resolution(pres(32003, 3, [0], [["x0"]]))


def test_minimality_check_survives_optimized_python(tmp_path):
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    src_dir = os.path.join(os.path.dirname(tests_dir), "src")
    script = (
        "import sys\n"
        "from shfc import resolutions\n"
        "from shfc.rings import InternalError\n"
        "from test_resolutions import pres, resolve_with_a_unit\n"
        "if __debug__:\n"
        "    sys.exit('expected python -O')\n"
        "resolutions.resolve = resolve_with_a_unit\n"
        "try:\n"
        "    resolutions.minimal_free_resolution(pres(32003, 3, [0], [['x0']]))\n"
        "except InternalError as exc:\n"
        "    print('raised', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src_dir, tests_dir]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised resolution is not minimal\n"


# --------------------------------------------------------------------------
# Hilbert numerators of monomial ideals against a monomial count
# --------------------------------------------------------------------------


def numerator_value(numerator, num_vars, k):
    """dim (S/I)_k from the numerator of the Hilbert series of S/I."""
    return sum(c * binom(k - i + num_vars - 1, num_vars - 1) for i, c in numerator.items())


@st.composite
def monomial_ideals(draw):
    v = draw(st.integers(1, 4))
    gens = draw(st.lists(st.tuples(*[st.integers(0, 4)] * v), max_size=7))
    return v, gens


@settings(max_examples=150, deadline=None)
@given(monomial_ideals())
def test_hilbert_numerator_matches_monomial_count(drawn):
    v, gens = drawn
    numerator = hilbert_numerator(gens)
    for k in range(13):
        assert numerator_value(numerator, v, k) == monomial_ideal_hilbert_function(gens, v, k)


@pytest.mark.parametrize(
    "gens, numerator",
    [
        ([], {0: 1}),  # the zero ideal: S itself
        ([(0, 0, 0)], {}),  # the unit ideal: S/I = 0
        ([(0, 0, 0), (1, 2, 0)], {}),
        ([(2, 0, 0), (0, 1, 1)], {0: 1, 2: -2, 4: 1}),  # coprime: (1 - t^2)^2
        ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], {0: 1, 1: -3, 2: 3, 3: -1}),
        ([(1, 1, 0), (1, 1, 0), (0, 2, 0), (1, 2, 0)], {0: 1, 2: -2, 3: 1}),  # repeated
    ],
)
def test_hilbert_numerator_edge_cases(gens, numerator):
    assert hilbert_numerator(gens) == numerator
    for k in range(8):
        assert numerator_value(numerator, 3, k) == monomial_ideal_hilbert_function(gens, 3, k)


def test_hilbert_numerator_of_a_huge_pure_power_is_closed_form():
    # S/(x^E) over 3 variables: binom(k + 2, 2) - binom(k - E + 2, 2) in
    # degree k, with nothing enumerated
    e = 10**11
    numerator = hilbert_numerator([(0, e, 0)])
    assert numerator == {0: 1, e: -1}
    for k in (0, 5, e - 1, e, e + 7):
        assert numerator_value(numerator, 3, k) == binom(k + 2, 2) - binom(k - e + 2, 2)
