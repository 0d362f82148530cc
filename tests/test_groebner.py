"""Groebner bases, syzygies, minimal generators and resolutions for graded
submodules of free modules.

Correctness is checked black-box: a syzygy map must compose to zero with
its input symbolically, and its image must fill the kernel degree by
degree (rank-nullity on strands). Those two facts pin the kernel exactly.
`resolve` is checked map for map against iterating the two public steps.
"""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import minimal_generators_by_groebner, normal_form_by_scan, reduce_basis_by_scan

from shfc import groebner
from shfc.constructions import q_power_pullback, sym_power, tensor
from shfc.corpus import draw_locally_free
from shfc.groebner import groebner_basis, minimal_generators, resolve, syzygies
from shfc.modules import GradedFreeModule, GradedMap, binom
from shfc.rings import (
    AlgebraError,
    InternalError,
    Polynomial,
    Ring,
    RingMismatchError,
    grevlex_key,
    monomials_of_degree,
    parse_polynomial,
)
from shfc.rng import Lcg

R2 = Ring(32003, 3)
Q2 = Ring(0, 3)
F2 = Ring(2, 3)


def column_map(ring, gen_degrees, columns_text):
    """Columns as lists of strings, degrees inferred."""
    gens = GradedFreeModule(ring, tuple(gen_degrees))
    cols = [[parse_polynomial(ring, s) for s in col] for col in columns_text]
    degrees = []
    for col in cols:
        d = None
        for i, p in enumerate(col):
            if not p.is_zero():
                d = p.homogeneous_degree() + gen_degrees[i]
        degrees.append(d if d is not None else 0)
    source = GradedFreeModule(ring, tuple(degrees))
    return GradedMap.from_columns(source, gens, [dict(enumerate(col)) for col in cols])


def assert_kernel_exact(phi, window):
    """syzygies(phi) composes to zero and surjects onto ker(phi) strandwise."""
    syz = syzygies(phi)
    assert phi.compose(syz).is_zero()
    for d in window:
        phi_strand = phi.strand_matrix(d)
        nullity = phi_strand.shape[1] - phi_strand.rank()
        syz_strand = syz.strand_matrix(d)
        assert syz_strand.rank() == nullity, (d, syz_strand.rank(), nullity)


def test_groebner_basis_of_monomial_ideal_is_itself():
    phi = column_map(R2, [0], [["x0"], ["x1"]])
    gb = groebner_basis(phi)
    lead_monos = set()
    for col in gb.cols:
        lead_monos.add(max(col[0].terms))
    assert lead_monos == {(1, 0, 0), (0, 1, 0)}


def test_groebner_adds_s_polynomial():
    # (x0^2 - x1x2, x0x1 - x2^2): classic example where the S-pair
    # contributes a new degree-3 element
    phi = column_map(R2, [0], [["x0^2 - x1*x2"], ["x0*x1 - x2^2"]])
    gb = groebner_basis(phi)
    assert gb.source.rank >= 3
    assert phi.compose(syzygies(phi)).is_zero()


def test_koszul_syzygies_of_maximal_ideal():
    for ring in (R2, Q2):
        cols = [[f"x{k}"] for k in range(3)]
        phi = column_map(ring, [0], cols)
        syz = syzygies(phi)
        mins = minimal_generators(syz)
        assert mins.source.rank == binom(3, 2)  # the three Koszul relations
        assert set(mins.source.degrees) == {2}
        assert_kernel_exact(phi, range(0, 6))


def test_syzygies_of_injective_map_are_zero():
    phi = column_map(R2, [0], [["x0"]])
    syz = syzygies(phi)
    assert syz.is_zero()


def test_kernel_exactness_point_ideal():
    # ideal of a point in the plane: single Koszul syzygy in degree 2
    phi = column_map(R2, [0], [["x1"], ["x2"]])
    syz = minimal_generators(syzygies(phi))
    assert syz.source.degrees == (2,)
    assert_kernel_exact(phi, range(0, 6))


def test_kernel_exactness_mixed_degrees():
    phi = column_map(R2, [0, 1], [["x0*x1", "x2"], ["x2^3", "x0*x1"]])
    assert_kernel_exact(phi, range(0, 7))


def test_kernel_exactness_char_zero():
    phi = column_map(Q2, [0, 0], [["x0", "-2*x1"], ["x1", "3*x2"]])
    assert_kernel_exact(phi, range(0, 6))


def test_cross_position_pairs_not_skipped():
    # columns straddling both positions, third column = sum of the first two;
    # the degree-1 syzygy (1, 1, -1) must be found, which requires treating
    # S-pairs whose leads share a position but whose tails do not
    phi = column_map(
        R2, [0, 0], [["x0", "x1"], ["x1", "x0"], ["x0 + x1", "x0 + x1"]]
    )
    syz = syzygies(phi)
    assert 1 in syz.source.degrees
    assert_kernel_exact(phi, range(0, 6))


def test_minimal_generators_prunes_redundant():
    # x0 already generates; x0^2 and x0*x1 are redundant
    phi = column_map(R2, [0], [["x0"], ["x0^2"], ["x0*x1"]])
    mins = minimal_generators(phi)
    assert mins.source.rank == 1
    assert mins.source.degrees == (1,)


def test_minimal_generators_keeps_independent():
    phi = column_map(R2, [0], [["x0"], ["x1^2"]])
    mins = minimal_generators(phi)
    assert sorted(mins.source.degrees) == [1, 2]


def _random_matrix_strategy(ring):
    entries = st.sampled_from(
        ["0", "x0", "x1", "x2", "x0 + x1", "x1 + x2", "x0 + 2*x2", "x0 - x1"]
    )
    return st.lists(
        st.lists(entries, min_size=2, max_size=2), min_size=1, max_size=3
    )


@settings(max_examples=40, deadline=None)
@given(_random_matrix_strategy(R2))
def test_kernel_exactness_random_linear_maps(cols):
    phi = column_map(R2, [0, 0], cols)
    assert_kernel_exact(phi, range(0, 5))


@settings(max_examples=25, deadline=None)
@given(
    st.permutations(list(range(3))),
    st.sampled_from([R2, Q2]),
)
def test_groebner_basis_canonical_under_column_order(perm, ring):
    base = [["x0^2", "x1*x2"], ["x1^2", "x0*x2"], ["x2^2", "x0*x1"]]
    phi_a = column_map(ring, [0, 0], base)
    phi_b = column_map(ring, [0, 0], [base[i] for i in perm])
    gb_a = groebner_basis(phi_a)
    gb_b = groebner_basis(phi_b)
    cols_a = set(zip(*gb_a.matrix))
    cols_b = set(zip(*gb_b.matrix))
    assert cols_a == cols_b  # the reduced basis is canonical


# --------------------------------------------------------------------------
# syzygies: the reduced Groebner basis of the kernel, pinned from outside
# --------------------------------------------------------------------------


@st.composite
def homogeneous_maps(draw):
    """Graded maps over P^2 with sparse random homogeneous columns, zero
    entries and zero columns included."""
    ring = draw(st.sampled_from([R2, F2, Q2]))
    target = tuple(draw(st.lists(st.integers(0, 1), min_size=1, max_size=2)))
    columns, degrees = [], []
    for _ in range(draw(st.integers(1, 4))):
        d = draw(st.integers(1, 3))
        col = []
        for a in target:
            monos = monomials_of_degree(3, d - a)
            chosen = draw(st.lists(st.sampled_from(monos), max_size=3)) if monos else []
            col.append(Polynomial(ring, {m: draw(st.integers(-2, 2)) for m in chosen}))
        columns.append(col)
        degrees.append(d)
    source = GradedFreeModule(ring, tuple(degrees))
    return GradedMap.from_columns(
        source, GradedFreeModule(ring, target), [dict(enumerate(c)) for c in columns]
    )


def _column_lead(col):
    """Lowest position with a nonzero entry, then its grevlex-largest
    monomial: the lead under position-over-grevlex."""
    i = next(i for i, p in enumerate(col) if not p.is_zero())
    return i, max(col[i].terms, key=grevlex_key)


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


@settings(max_examples=100, deadline=None)
@given(homogeneous_maps())
def test_syzygies_are_the_reduced_kernel_basis_in_order(phi):
    ring = phi.ring
    syz = syzygies(phi)
    cols = list(zip(*syz.matrix))
    # (a) the columns lie in the kernel
    assert phi.compose(syz).is_zero()
    leads = [_column_lead(col) for col in cols]
    for j, (col, (i, m)) in enumerate(zip(cols, leads)):
        # (b) monic leads
        assert col[i].terms[m] == ring.coeff(1)
        # (c) no term is divisible by the lead of another column
        for k, (pos, lead) in enumerate(leads):
            if k != j:
                assert not any(_divides(lead, mono) for mono in col[pos].terms)
    # (d) leads strictly increase in position-over-grevlex order
    keys = [(-i,) + grevlex_key(m) for i, m in leads]
    assert keys == sorted(set(keys))
    # (e) the leads span the initial module of the kernel in every degree
    for d in range(0, max(phi.source.degrees) + 4):
        strand = phi.strand_matrix(d)
        nullity = strand.shape[1] - strand.rank()
        covered = sum(
            1
            for i, a in enumerate(phi.source.degrees)
            for mono in monomials_of_degree(ring.num_vars, d - a)
            if any(pos == i and _divides(lead, mono) for pos, lead in leads)
        )
        assert covered == nullity, d


def _bad_maps():
    """One map per check of GradedMap.validate, with the error it raises."""
    gens = GradedFreeModule(R2, (0,))
    source = GradedFreeModule(R2, (1,))

    def one_entry(text, ring=R2):
        return GradedMap(source, gens, ((parse_polynomial(ring, text),),))

    return [
        (one_entry("x0 + x1^2"), AlgebraError, "not homogeneous"),
        (one_entry("x0^2"), AlgebraError, r"entry \(0,0\) has degree 2, expected 1"),
        (one_entry("x0", Ring(32003, 4)), RingMismatchError, "different ring"),
        (one_entry("x0", F2), RingMismatchError, "different ring"),
        (
            GradedMap(GradedFreeModule(F2, (1,)), gens, ((parse_polynomial(R2, "x0"),),)),
            RingMismatchError,
            "source and target rings differ",
        ),
    ]


@pytest.mark.parametrize("entry_point", [groebner_basis, syzygies, minimal_generators, resolve])
def test_public_entry_points_reject_invalid_maps(entry_point):
    # the lead term is min(f) only on homogeneous elements, so every public
    # entry point validates its map first
    for phi, error, message in _bad_maps():
        with pytest.raises(error, match=message):
            entry_point(phi)


def test_syzygy_tower_terminates():
    # iterated syzygies of the maximal ideal reach zero within num_vars steps
    phi = column_map(R2, [0], [["x0"], ["x1"], ["x2"]])
    steps = 0
    current = phi
    while True:
        current = minimal_generators(syzygies(current))
        if current.source.rank == 0:
            break
        steps += 1
        assert steps <= 3
    assert steps == 2  # Koszul: relations in step 1, last syzygy in step 2


@st.composite
def corpus_relations(draw):
    """The relation map of a corpus draw on P^2 or P^3, of its tensor
    product with a second draw, of its symmetric square or of its q-power
    pullback. Draws without relations, a free module's, are drawn again:
    on P^1 every corpus module is free."""
    ring = Ring(draw(st.sampled_from([32003, 2, 0])), draw(st.integers(3, 4)))
    rng = Lcg(draw(st.integers(0, 2**32)))
    pres, _ = draw_locally_free(ring, rng)
    while not pres.rels.source.rank:
        pres, _ = draw_locally_free(ring, rng)
    kind = draw(st.sampled_from(["draw", "tensor", "sym", "qpow"]))
    if kind == "tensor":
        pres = tensor(pres, draw_locally_free(ring, rng)[0])
    elif kind == "sym":
        pres = sym_power(pres, 2)
    elif kind == "qpow":
        pres = q_power_pullback(pres, draw(st.integers(2, 3)))
    return pres.rels


@settings(max_examples=100, deadline=None)
@given(corpus_relations())
def test_resolve_equals_iterated_minimal_generators_of_syzygies(phi):
    expected = []
    step = minimal_generators(phi)
    while step.source.rank:
        expected.append(step)
        step = minimal_generators(syzygies(step))
    maps = resolve(phi)
    assert len(maps) == len(expected)
    for got, want in zip(maps, expected):
        assert got.target == want.target
        assert got.source.degrees == want.source.degrees
        assert got.cols == want.cols


def _planted_kernel(nonzero_steps):
    """A stand-in for groebner._kernel: its first nonzero_steps calls return
    the first source generator, a kernel that never runs out, and later
    calls return the zero kernel."""
    calls = []

    def kernel(elems, pk, target_degrees, source_degrees):
        calls.append(None)
        if len(calls) > nonzero_steps:
            return []
        return [{pk.pack(0, (0,) * pk.num_vars): pk.ring.coeff(1)}]

    return kernel


def test_resolve_stops_at_the_hilbert_syzygy_bound(monkeypatch):
    # num_vars maps are allowed, as for the residue field; one more raises
    phi = column_map(R2, [0], [["x0"]])
    monkeypatch.setattr(groebner, "_kernel", _planted_kernel(R2.num_vars - 1))
    assert len(resolve(phi)) == R2.num_vars
    monkeypatch.setattr(groebner, "_kernel", _planted_kernel(R2.num_vars))
    with pytest.raises(InternalError, match="Hilbert syzygy bound exceeded"):
        resolve(phi)


def test_hilbert_syzygy_bound_survives_optimized_python(tmp_path):
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    src_dir = os.path.join(os.path.dirname(tests_dir), "src")
    script = (
        "import sys\n"
        "from shfc import groebner\n"
        "from shfc.rings import InternalError\n"
        "from test_groebner import R2, _planted_kernel, column_map\n"
        "if __debug__:\n"
        "    sys.exit('expected python -O')\n"
        "groebner._kernel = _planted_kernel(10**6)\n"
        "try:\n"
        "    groebner.resolve(column_map(R2, [0], [['x0']]))\n"
        "except InternalError as exc:\n"
        "    print('raised', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src_dir, tests_dir]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised Hilbert syzygy bound exceeded\n"


def test_buchberger_step_bound_raises_internal_error(monkeypatch):
    monkeypatch.setattr(groebner, "_MAX_STEPS", 1)
    with pytest.raises(InternalError, match="step bound"):
        syzygies(column_map(R2, [0], [["x0"], ["x1"]]))


def test_buchberger_step_bound_survives_optimized_python(tmp_path):
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    src_dir = os.path.join(os.path.dirname(tests_dir), "src")
    script = (
        "import sys\n"
        "from shfc import groebner\n"
        "from shfc.rings import InternalError\n"
        "from test_groebner import R2, column_map\n"
        "if __debug__:\n"
        "    sys.exit('expected python -O')\n"
        "groebner._MAX_STEPS = 1\n"
        "try:\n"
        "    groebner.syzygies(column_map(R2, [0], [['x0'], ['x1']]))\n"
        "except InternalError as exc:\n"
        "    print('raised', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src_dir, tests_dir]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised Buchberger loop exceeded step bound\n"


# (x0^2, x1^2, x2^2) in disguise: its resolution climbs to degree 6 over a
# position of degree 0. At the narrowest field width that packs the input,
# 3 bits, exponents of 4 and more would wrap, and without the width guard
# the run returns the Betti degrees [(2, 2, 2), (4, 4, 4, 6, 6), (6, 6, 6)]
CLIMBING = [["x2^2 + 2*x0^2"], ["3*x0^2"], ["x1^2 + 2*x2^2"]]
CLIMBING_DEGREES = [(2, 2, 2), (4, 4, 4), (6,)]


def test_packed_width_overflow_raises_internal_error(monkeypatch):
    phi = column_map(R2, [0], CLIMBING)
    expected = resolve(phi)
    assert [m.source.degrees for m in expected] == CLIMBING_DEGREES
    # no headroom: the width is max(_MIN_WIDTH, 3), and degree 6 needs 4 bits
    monkeypatch.setattr(groebner, "_HEADROOM_BITS", 0)
    for width in range(1, 17):
        monkeypatch.setattr(groebner, "_MIN_WIDTH", width)
        if width <= 3:
            with pytest.raises(InternalError, match="packed exponent width"):
                resolve(phi)
        else:
            got = resolve(phi)
            assert [(m.source, m.target, m.cols) for m in got] == [
                (m.source, m.target, m.cols) for m in expected
            ]


def test_packed_width_overflow_exits_3_under_optimized_python(tmp_path):
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    src_dir = os.path.join(os.path.dirname(tests_dir), "src")
    module = {"ring": {"char": 32003, "vars": 3}, "generators": [0], "relations": CLIMBING}
    path = tmp_path / "climbing.json"
    path.write_text(json.dumps(module))
    script = (
        "import sys\n"
        "from shfc import groebner\n"
        "from shfc.cli import main\n"
        "if __debug__:\n"
        "    sys.exit('expected python -O')\n"
        "groebner._MIN_WIDTH = 1\n"
        "groebner._HEADROOM_BITS = 0\n"
        f"sys.exit(main(['betti', '--module', {str(path)!r}]))\n"
    )
    env = dict(os.environ, PYTHONPATH=src_dir)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == "shfc: internal error: Buchberger degree exceeds the packed exponent width\n"


# --------------------------------------------------------------------------
# packed terms against their tuple versions
# --------------------------------------------------------------------------


@st.composite
def packed_term_pairs(draw):
    """A packing over 2, 5 or 1000 variables, at the floor width or the
    width an exponent of 10**11 forces, and two terms in one position with
    exponents up to 2**(W - 1) - 1; on 1000 variables at most six are
    nonzero. The second term is sometimes a permutation of the first, so
    that equal degrees come up."""
    num_vars = draw(st.sampled_from([2, 5, 1000]))
    pk = groebner._Packing(Ring(32003, num_vars), draw(st.sampled_from([0, 7, 10**11])))
    top = pk.limit - 1
    exponent = st.one_of(st.integers(0, 3), st.integers(0, top), st.just(top))

    def exponents():
        if num_vars <= 5:
            return tuple(draw(st.lists(exponent, min_size=num_vars, max_size=num_vars)))
        r = [0] * num_vars
        for k, e in draw(st.dictionaries(st.integers(0, num_vars - 1), exponent, max_size=6)).items():
            r[k] = e
        return tuple(r)

    pos = draw(st.integers(0, 40))
    a = exponents()
    b = tuple(draw(st.permutations(a))) if draw(st.booleans()) else exponents()
    return pk, pos, a, b


def test_packing_widths():
    ring = Ring(32003, 3)
    assert groebner._Packing(ring, 0).width == 16
    assert groebner._Packing(ring, 4095).width == 16
    assert groebner._Packing(ring, 4096).width == 17
    assert groebner._Packing(ring, 10**11).width == 41


@settings(max_examples=300, deadline=None)
@given(packed_term_pairs())
def test_packed_term_operations_match_tuples(problem):
    pk, pos, a, b = problem
    pa, pb = pk.pack(pos, a), pk.pack(pos, b)
    assert pk.unpack(pa) == (pos, a)
    assert pk.unpack(pb) == (pos, b)
    # int order is (position, exponents reversed) tuple order
    assert (pa < pb) == ((pos, a) < (pos, b))
    assert (pk.pack(pos + 1, a) < pb) == ((pos + 1, a) < (pos, b))
    g = pk.guard
    assert (((pb | g) - pa) & g == g) == all(x <= y for x, y in zip(a, b))
    u = pk.lcm(pa, pb)
    assert u == pk.pack(pos, tuple(map(max, a, b)))
    assert pk.disjoint(pa, pb) == all(x == 0 or y == 0 for x, y in zip(a, b))
    if all(x <= y for x, y in zip(a, b)):
        assert pk.unpack(pb - pa) == (0, tuple(y - x for x, y in zip(a, b)))
        assert (pb - pa) + pa == pb
    # the degree is exact below 2**W; the loop reads a pair's degree as the
    # degree of one lead plus that of the lcm's quotient by it
    if sum(a) <= pk.mask:
        assert pk.degree(pa) == sum(a)
    if sum(a) < pk.limit and sum(b) < pk.limit:
        assert pk.degree(pb) + pk.degree(u - pb) == sum(map(max, a, b))


# --------------------------------------------------------------------------
# minimal generators: strand elimination against Groebner reduction
# --------------------------------------------------------------------------


def assert_matches_groebner_rule(phi):
    """minimal_generators keeps exactly the oracle's columns, in its order."""
    kept = minimal_generators_by_groebner(phi)
    mins = minimal_generators(phi)
    assert mins.target == phi.target
    assert mins.source.degrees == tuple(phi.source.degrees[j] for j in kept)
    assert mins.matrix == tuple(tuple(row[j] for j in kept) for row in phi.matrix)
    return kept


@st.composite
def planted_maps(draw):
    """Random columns over P^2, then planted redundant ones: monomial
    multiples, same-degree linear combinations and zero columns, all
    shuffled in among the originals."""
    ring = draw(st.sampled_from([R2, F2, Q2]))
    target = tuple(draw(st.lists(st.integers(0, 1), min_size=1, max_size=2)))
    coeffs = st.integers(-2, 2)

    def homogeneous(e):
        terms = {m: draw(coeffs) for m in monomials_of_degree(3, e)} if e >= 0 else {}
        return Polynomial(ring, terms)

    columns = []
    for _ in range(draw(st.integers(1, 4))):
        d = draw(st.integers(1, 3))
        columns.append((d, [homogeneous(d - a) for a in target]))
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["multiple", "combination", "zero"]))
        d, col = draw(st.sampled_from(columns))
        if kind == "multiple":
            x = Polynomial.variable(ring, draw(st.integers(0, 2)))
            columns.append((d + 1, [x * p for p in col]))
        elif kind == "combination":
            _, other = draw(st.sampled_from([c for c in columns if c[0] == d]))
            a, b = draw(coeffs), draw(coeffs)
            columns.append((d, [p.scale(a) + q.scale(b) for p, q in zip(col, other)]))
        else:
            columns.append((d, [Polynomial.zero(ring)] * len(target)))
    columns = draw(st.permutations(columns))
    source = GradedFreeModule(ring, tuple(d for d, _ in columns))
    return GradedMap.from_columns(
        source, GradedFreeModule(ring, target), [dict(enumerate(c)) for _, c in columns]
    )


@settings(max_examples=150, deadline=None)
@given(planted_maps())
def test_minimal_generators_match_groebner_oracle(phi):
    phi.validate()
    assert_matches_groebner_rule(phi)


@pytest.mark.parametrize("char", [32003, 2, 0])
def test_minimal_generators_drop_same_degree_combination(char):
    phi = column_map(Ring(char, 3), [0], [["x0"], ["x1"], ["x0 + x1"]])
    assert assert_matches_groebner_rule(phi) == [0, 1]
    # x1*f1 - x0*f2 = -x0*x2^2: the cubic lies in the span only through a
    # degree-3 S-pair, which must be reduced before the cubic is tested
    phi = column_map(Ring(char, 3), [0], [["x0^2"], ["x0*x1 + x2^2"], ["x0*x2^2"]])
    assert assert_matches_groebner_rule(phi) == [0, 1]


@pytest.mark.parametrize("char", [32003, 2, 0])
def test_minimal_generators_wide_degree_spread(char):
    # linear and sextic columns over P^3; the sextics that are multiples of
    # a linear column or combinations of kept sextics are dropped
    ring = Ring(char, 4)
    phi = column_map(ring, [0], [
        ["x2^6"], ["x0*x3^5"], ["x0"], ["x3^6 + x0^2*x2^4"],
        ["x1^3*x2^3 - x0*x1^5"], ["x1"], ["x2^6 - x3^6 + x1*x2*x3^4"], ["x2^5*x3"],
    ])
    assert assert_matches_groebner_rule(phi) == [2, 5, 0, 3, 7]


@st.composite
def reduction_problems(draw):
    """A homogeneous element over P^2 spread over up to three positions,
    and monic homogeneous reducers of lower or equal degree in random order:
    leads may share a position, divide each other or coincide, so the
    reducers are in general no Groebner basis and the result depends on
    which reducer each term picks."""
    ring = draw(st.sampled_from([R2, F2, Q2]))
    degrees = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    coeffs = st.integers(1, ring.characteristic - 1 if ring.characteristic else 5)

    def element(d):
        terms = [
            (pos, m)
            for pos, a in enumerate(degrees)
            for m in monomials_of_degree(3, d - a)
        ]
        support = draw(st.lists(st.sampled_from(terms), min_size=1, max_size=8, unique=True))
        return {t: ring.coeff(draw(coeffs) * draw(st.sampled_from([1, -1]))) for t in support}

    def monic(d):
        g = element(d)
        g[min(g)] = ring.coeff(1)
        return g

    top = max(degrees) + draw(st.integers(1, 3))
    f = element(top)
    reducers = [monic(draw(st.integers(min(degrees), top))) for _ in range(draw(st.integers(0, 7)))]
    return ring, f, draw(st.permutations(reducers))


@settings(max_examples=300, deadline=None)
@given(reduction_problems())
def test_indexed_reduction_matches_full_lead_scan(problem):
    # the engine runs on packed terms, the oracles on (position, exponents
    # reversed) tuples: pack the problem, unpack the engine's results
    ring, f, reducers = problem
    pk = groebner._Packing(ring, 5)

    def packed(g):
        return {pk.pack(*t): c for t, c in g.items()}

    def unpacked(g):
        return {pk.unpack(t): c for t, c in g.items()}

    basis = [packed(g) for g in reducers]
    by_pos = groebner._lead_index(basis, pk)
    expected = normal_form_by_scan(f, reducers, [min(g) for g in reducers], ring)
    assert unpacked(groebner._normal_form(packed(f), basis, by_pos, pk)) == expected
    if reducers:
        got = [unpacked(g) for g in groebner._reduce_basis(basis, pk)]
        assert got == reduce_basis_by_scan(reducers, ring)
