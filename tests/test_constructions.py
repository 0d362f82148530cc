"""Constructions on presentations: twists, sums, tensor/symmetric powers,
power-map pullbacks, Koszul kernels, and the sheaves of differential forms.

The deep checks run through cohomology: each construction has a classical
closed-form answer on line bundles (and a split behaviour on sums) that the
independent oracles provide.
"""

import hashlib

import pytest

from oracles import binomial, bott_h, chi_omega, koszul_kernel_by_groebner, line_bundle_h

from shfc.cohomology import cohomology_table, sheaf_cohomology_dim
from shfc.constructions import (
    direct_sum,
    koszul_differential,
    koszul_kernel,
    omega,
    q_power_pullback,
    sym_power,
    tensor,
    twist,
)
from shfc.moduleio import dump_module, presentation_from_dict
from shfc.modules import GradedMap
from shfc.resolutions import (
    Presentation,
    betti_table,
    hilbert_function,
    module_regularity,
)
from shfc.rings import AlgebraError, Ring
from shfc.suites import SUITES

R_P1 = Ring(32003, 2)
R_P2 = Ring(32003, 3)
R_P3 = Ring(32003, 4)


def line_bundle_sum(ring, twists):
    return Presentation.free(ring, tuple(-a for a in twists))


def pres(char, nvars, generators, relations):
    return presentation_from_dict(
        {
            "ring": {"char": char, "vars": nvars},
            "generators": generators,
            "relations": relations,
        }
    )


def rows(p, lo, hi):
    n = p.ring.dim
    return [
        [sheaf_cohomology_dim(p, i, d) for d in range(lo, hi + 1)]
        for i in range(n + 1)
    ]


# --------------------------------------------------------------------------
# twist / direct sum
# --------------------------------------------------------------------------


def test_twist_shifts_cohomology():
    m = pres(32003, 3, [0], [["x0*x2 - x1^2"]])
    for e in (-2, 1, 3):
        t = twist(m, e)
        for d in range(-3, 4):
            for i in range(3):
                assert sheaf_cohomology_dim(t, i, d) == sheaf_cohomology_dim(
                    m, i, d + e
                )


def test_twist_round_trip_is_identity():
    m = pres(32003, 3, [0, 1], [["x0", "-1"]])
    back = twist(twist(m, 5), -5)
    assert back.gens.degrees == m.gens.degrees
    assert back.rels.source.degrees == m.rels.source.degrees
    assert back.rels.matrix == m.rels.matrix


def test_direct_sum_cohomology_is_additive():
    a = line_bundle_sum(R_P2, (2,))
    b = pres(32003, 3, [0], [["x1"], ["x2"]])
    s = direct_sum(a, b)
    for d in range(-4, 5):
        for i in range(3):
            assert sheaf_cohomology_dim(s, i, d) == sheaf_cohomology_dim(
                a, i, d
            ) + sheaf_cohomology_dim(b, i, d)


def test_direct_sum_rejects_mixed_rings():
    with pytest.raises(AlgebraError):
        direct_sum(line_bundle_sum(R_P2, (0,)), line_bundle_sum(R_P1, (0,)))


# --------------------------------------------------------------------------
# tensor products
# --------------------------------------------------------------------------


def test_tensor_of_line_bundles():
    for a, b in [(0, 0), (1, 2), (-3, 1), (-2, -2)]:
        t = tensor(line_bundle_sum(R_P2, (a,)), line_bundle_sum(R_P2, (b,)))
        assert t.gens.degrees == (-(a + b),)
        for d in range(-4, 5):
            for i in range(3):
                assert sheaf_cohomology_dim(t, i, d) == line_bundle_h(
                    2, (a + b,), i, d
                )


def test_tensor_with_line_bundle_is_twist():
    m = pres(32003, 3, [0], [["x0*x2 - x1^2"]])
    for a in (-2, 1):
        t = tensor(line_bundle_sum(R_P2, (a,)), m)
        for d in range(-3, 4):
            for i in range(3):
                assert sheaf_cohomology_dim(t, i, d) == sheaf_cohomology_dim(
                    m, i, d + a
                )


def test_tensor_distributes_over_sum():
    e = line_bundle_sum(R_P2, (1, -1))
    f = line_bundle_sum(R_P2, (0, 2))
    t = tensor(e, f)
    expect = (1, 3, -1, 1)  # pairwise sums
    for d in range(-4, 5):
        for i in range(3):
            assert sheaf_cohomology_dim(t, i, d) == line_bundle_h(2, expect, i, d)


def test_tensor_with_non_free_module():
    # (S/(x1, x2)) (x) (S/(x1, x0*x2)): supported at the common point
    a = pres(32003, 3, [0], [["x1"], ["x2"]])
    b = pres(32003, 3, [0], [["x1"], ["x0*x2"]])
    t = tensor(a, b)
    for d in range(-3, 4):
        assert sheaf_cohomology_dim(t, 0, d) == 1
        assert sheaf_cohomology_dim(t, 1, d) == 0


# --------------------------------------------------------------------------
# symmetric powers
# --------------------------------------------------------------------------


def test_sym_power_generator_count():
    e = line_bundle_sum(R_P2, (0, 1, -1))
    for r in (1, 2, 3):
        s = sym_power(e, r)
        assert s.gens.rank == binomial(3 + r - 1, r)


def test_sym_one_is_identity():
    m = pres(32003, 3, [0, 1], [["x0", "-1"], ["x1^2", "x2"]])
    s = sym_power(m, 1)
    for d in range(-3, 4):
        for i in range(3):
            assert sheaf_cohomology_dim(s, i, d) == sheaf_cohomology_dim(m, i, d)


def test_sym_power_of_split_bundle():
    # Sym^2(O(a) + O(b)) = O(2a) + O(a+b) + O(2b)
    a, b = 1, -2
    s = sym_power(line_bundle_sum(R_P2, (a, b)), 2)
    expect = (2 * a, a + b, 2 * b)
    for d in range(-4, 5):
        for i in range(3):
            assert sheaf_cohomology_dim(s, i, d) == line_bundle_h(2, expect, i, d)


def test_sym_power_rejects_bad_exponent():
    with pytest.raises(AlgebraError):
        sym_power(line_bundle_sum(R_P2, (0,)), 0)


# --------------------------------------------------------------------------
# power-map pullbacks
# --------------------------------------------------------------------------


def test_q_power_pullback_of_line_bundles():
    for q in (2, 3):
        for a in (-2, 0, 1):
            t = q_power_pullback(line_bundle_sum(R_P2, (a,)), q)
            assert t.gens.degrees == (-q * a,)
            for d in range(-4, 5):
                for i in range(3):
                    assert sheaf_cohomology_dim(t, i, d) == line_bundle_h(
                        2, (q * a,), i, d
                    )


def test_q_power_pullback_scales_relations():
    m = pres(32003, 3, [0], [["x0*x2 - x1^2"]])
    t = q_power_pullback(m, 3)
    assert t.rels.source.degrees == (6,)
    entry = t.rels.matrix[0][0]
    assert set(entry.terms) == {(3, 0, 3), (0, 6, 0)}


def test_q_power_pullback_commutes_with_tensor():
    # pullback is monoidal: f*(E (x) F) and f*E (x) f*F have equal cohomology
    e = line_bundle_sum(R_P2, (1, -1))
    f = pres(32003, 3, [0], [["x0*x2 - x1^2"]])
    lhs = q_power_pullback(tensor(e, f), 2)
    rhs = tensor(q_power_pullback(e, 2), q_power_pullback(f, 2))
    for d in range(-3, 4):
        for i in range(3):
            assert sheaf_cohomology_dim(lhs, i, d) == sheaf_cohomology_dim(
                rhs, i, d
            )


def test_q_power_pullback_rejects_bad_exponent():
    with pytest.raises(AlgebraError):
        q_power_pullback(line_bundle_sum(R_P2, (0,)), 0)


# --------------------------------------------------------------------------
# Koszul kernels and differential forms
# --------------------------------------------------------------------------


def test_koszul_differential_squares_to_zero():
    for ring in (R_P2, R_P3):
        v = ring.num_vars
        for m in range(2, v + 1):
            k_m = koszul_differential(ring, m)
            k_prev = koszul_differential(ring, m - 1).twisted(1)
            assert k_prev.compose(k_m).is_zero()


def test_koszul_kernel_generators_and_relations():
    for ring in (R_P1, R_P2, R_P3):
        n = ring.dim
        for m in range(1, n + 1):
            r_m = koszul_kernel(ring, m)
            assert r_m.gens.degrees == (1,) * binomial(n + 1, m + 1)
            assert r_m.rels.source.degrees == (2,) * binomial(n + 1, m + 2)


def test_koszul_kernel_extremes():
    # R_0 = O and R_n = O(-1)
    for ring in (R_P1, R_P2, R_P3):
        n = ring.dim
        r0 = koszul_kernel(ring, 0)
        assert r0.gens.degrees == (0,) and r0.rels.source.rank == 0
        rn = koszul_kernel(ring, n)
        for d in range(-4, 5):
            for i in range(n + 1):
                assert sheaf_cohomology_dim(rn, i, d) == line_bundle_h(
                    n, (-1,), i, d
                )


def test_koszul_kernel_is_cached():
    assert koszul_kernel(R_P2, 1) is koszul_kernel(R_P2, 1)


def test_koszul_kernel_index_range():
    with pytest.raises(AlgebraError):
        koszul_kernel(R_P2, 3)
    with pytest.raises(AlgebraError):
        koszul_kernel(R_P2, -1)


@pytest.mark.parametrize("char", [2, 3, 32003, 0])
def test_koszul_kernel_matches_resolve_of_the_koszul_map(char):
    # koszul_kernel reads R_m off minimal_free_resolution, with its unit
    # elimination and minimality check; maps 1 and 2 of groebner.resolve
    # on the Koszul map must come out column for column
    for n in range(1, 6):
        ring = Ring(char, n + 1)
        for m in range(n + 1):
            got = koszul_kernel(ring, m)
            want = koszul_kernel_by_groebner(ring, m)
            assert got.gens == want.gens, (n, m)
            assert got.rels.source == want.rels.source, (n, m)
            assert got.rels.target == want.rels.target, (n, m)
            assert got.rels.cols == want.rels.cols, (n, m)


def test_omega_presentation_shape_on_p2():
    w = omega(R_P2, 1)
    assert w.gens.degrees == (2, 2, 2)
    assert w.rels.source.degrees == (3,)
    assert betti_table(koszul_kernel(R_P2, 1)).entries == {(0, 1): 3, (1, 2): 1}


def test_omega_cohomology_matches_closed_form():
    for ring in (R_P1, R_P2, R_P3):
        n = ring.dim
        for p in range(0, n + 1):
            w = omega(ring, p)
            for k in range(-(n + 2), n + 3):
                for q in range(0, n + 1):
                    assert sheaf_cohomology_dim(w, q, k) == bott_h(n, p, k, q), (
                        n,
                        p,
                        k,
                        q,
                    )


def test_omega_euler_characteristic():
    for p in range(0, 3):
        w = omega(R_P2, p)
        for k in range(-4, 5):
            chi = sum((-1) ** q * sheaf_cohomology_dim(w, q, k) for q in range(3))
            assert chi == chi_omega(2, p, k)


def test_cotangent_middle_cohomology():
    # the one-dimensional h^1(Omega^1) in twist 0, and nothing else near it
    w = omega(R_P2, 1)
    table = cohomology_table(w, -1, 1)
    assert table.value(1, 0) == 1
    assert table.value(1, -1) == 0 and table.value(1, 1) == 0


def test_frobenius_pullback_of_omega_regularity():
    # pullback of Omega^1 under the square map on P^2: regularity rises to 5
    w2 = q_power_pullback(omega(R_P2, 1), 2)
    assert module_regularity(betti_table(w2)) == 5
    # h^1 row over twists 1..4: dies exactly entering regularity - 1
    assert [sheaf_cohomology_dim(w2, 1, d) for d in (1, 2, 3, 4)] == [3, 3, 1, 0]


def test_koszul_kernel_sections_equal_euler_characteristic():
    # for d >= 0 the higher cohomology of R_1(d) on P^2 vanishes, so the
    # section count is the (recursion-defined) Euler characteristic
    r1 = koszul_kernel(R_P2, 1)
    for d in range(0, 5):
        assert sheaf_cohomology_dim(r1, 0, d) == chi_omega(2, 1, d + 1)
        assert sheaf_cohomology_dim(r1, 1, d) == 0
        assert sheaf_cohomology_dim(r1, 2, d) == 0


@pytest.mark.parametrize(
    "char, n, p, digest",
    [
        (32003, 3, 1, "1914cc5133c57aee0444fa723e888ef44f844352316a6052c59cee196095fd7d"),
        (32003, 4, 2, "87d30602033f7b97ac7135f3d4041c6d65d7921d2aa024183d1a4a2dc80e6dc2"),
        (2, 3, 2, "2289475ff33ad01ddfd2f530f2dd052f4faa63bf02d6bb843fb262a6eb1a27fb"),
        (0, 3, 1, "28a9837d616cc191235059c7757fe969c91b4b1d1c8d48a83080b91315cf4046"),
        (3, 4, 3, "e6c1baf7306203858115d1165e865edd2477c77d4ce5214504ccac5e687ca466"),
    ],
)
def test_omega_module_bytes_are_pinned(char, n, p, digest):
    # the bytes `shfc construct omega` prints, which the benchmark builds its
    # inputs from; Omega^p comes out of a syzygy computation, so a change in
    # the order or the reduction of syzygies shows here
    text = dump_module(omega(Ring(char, n + 1), p))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def scaled(pres, c):
    """The same module with every relation column scaled by the unit c."""
    cols = [{i: p.scale(c) for i, p in col.items()} for col in pres.rels.cols]
    return Presentation(pres.gens, GradedMap.from_columns(pres.rels.source, pres.gens, cols))


CONSTRUCTIONS = {
    "tensor": lambda e, f: tensor(e, f),
    "sym2": lambda e, f: sym_power(f, 2),
    "qpow3": lambda e, f: q_power_pullback(f, 3),
    "sum": lambda e, f: direct_sum(e, f),
    "twist": lambda e, f: twist(f, 2),
}


@pytest.mark.parametrize(
    "char, name, digest",
    [
        (32003, "tensor", "ff26ad059ccf8cc162ac8c3bb7c2219aa784c713c697f465693f86756d22e176"),
        (32003, "sym2", "f9aac79640ce7f111d54302cf1e0b2a5c2c5df0c1e02f947dbd0a3c82084b8b4"),
        (32003, "qpow3", "ba4d09c05836af2a55c193814f9a8e5b7feaa0537368c16032e087e809ffecb8"),
        (32003, "sum", "53a963a4a285340ebd70b6664d7150101dc059031de4efebd761d1ab150804f6"),
        (32003, "twist", "1195b25de446a8bafe6407fe0bc320f6f4f9d26921a88fe4e7ab1d1b33a6c85b"),
        (0, "tensor", "2c6a628ac4c0b183426ab22cd2e574f3b5e7cc75bbe524e576de39eaee9dfb53"),
        (0, "sym2", "64501a5e957842d97e548290d28bbc0cb3d45618e86267e74f3ea801b2e8dc70"),
        (0, "qpow3", "4ee0ab78035168af103fc811bfe0e0ebc1378b8520406e05916978f9d08eb2bb"),
        (0, "sum", "b9262f1fc59c6c6f3390646b50cb7866779b3eebad714688381ccaea68112d52"),
        (0, "twist", "a1f3e10545255caefcdedc62c2aea1db790fd9728ba0c6f04dcce02008aa9441"),
    ],
)
def test_construction_bytes_are_pinned(char, name, digest):
    # E = Omega^1 on P^3 and F = E(1) with its relations halved, so over Q
    # every column of F carries denominators that dump_module must clear;
    # the zero entries of the sums and products are written as "0"
    ring = Ring(char, 4)
    e = omega(ring, 1)
    f = twist(scaled(e, ring.cinv(ring.coeff(2))), 1)
    text = dump_module(CONSTRUCTIONS[name](e, f))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "suite, dim, char, kwargs, digest",
    [
        ("oracle", 2, 32003, {}, "b5ba868416a84f493edd29d32d7f69561833e878756cfd7fc1a8d9ecd80e1284"),
        ("oracle", 3, 0, {"count": 30}, "42a4b885ac6f7598b7d994fd6ce1b8c3903ff6750d0f2ddfa6501b729e1fade3"),
        ("subadditivity", 2, 32003, {}, "29a5351494699b4f69faa790c5475a29382764948aed683a07a0f9386bdc484b"),
        ("subadditivity", 3, 0, {"count": 6}, "d58c60c401b48a1abff93c115e1e8d3f44694b1a875234741683efe2ef890f63"),
        ("regularity-tensor", 2, 32003, {}, "41c91934dccf1ca46058495f7db821af3619e1f78ce63a74b5564f208ab91033"),
        ("regularity-tensor", 1, 0, {"count": 30}, "2ddef466324521f759c75db8897f332c65d8559b6a134a05eed88ebb241637c5"),
        ("regularity-tensor", 3, 2, {"count": 6}, "25c89279620a65dfde3d3f02dac698bc0a27ae925c23ed45849e82e3b28f6008"),
        ("key-theorem", 2, 2, {}, "7c75738ba199d64558941b6837be0e63f4dc255be52abfd68764c315c77676f6"),
        ("key-theorem", 1, 3, {}, "573fcbe1532b1cc248e65bbbc009d9782cd92f9e81768021d5334721507bbf86"),
        ("bott", 3, 0, {}, "7f2594645c8940284f010ee3ae9cc2381703b9ef117400b98d30021f39feab54"),
        ("bott", 2, 2, {}, "ff8b95bed784e5cc971f19fad60a7a37134fc88ec54e969e84a69587bba08827"),
        ("beilinson", 2, 32003, {}, "5d0ba99e34cd3d39618e911e971ed3e2deb7536f0b518db256e5a3df9b82f255"),
        ("beilinson", 1, 0, {"count": 10}, "c315508ad780e667362d6e4eedb2a371e3fe71d35264866e232e1d8419d03d00"),
        ("beilinson", 3, 2, {"count": 3}, "9b2bd5b64e94fb673448874fdb903311e218893e62c0f46a49075fd560c1b43e"),
    ],
)
def test_verify_report_bytes_are_pinned(suite, dim, char, kwargs, digest):
    # the bytes `shfc verify` prints, over F_p and Q on dims 1-3; the oracle,
    # regularity-tensor and beilinson reports carry the Euler checks and the
    # finite-support test of sheaf_regularity
    report = SUITES[suite](dim=dim, char=char, seed=7, **kwargs)
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest
