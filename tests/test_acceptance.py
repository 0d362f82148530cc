"""Acceptance gate: ten exact, desk-scale criteria, one per test, each
printing a single PASS/FAIL line directly to the terminal (bypassing
capture) so a plain `pytest -v` run shows the scoreboard.

Every comparison is exact — integer equality, tolerance zero. Runtime
budgets from the criteria are asserted as stated; measured times are
printed alongside.
"""

import time

from oracles import bott_h, line_bundle_h

from shfc.cohomology import euler_characteristic, sheaf_cohomology_dim
from shfc.constructions import koszul_kernel, omega, twist
from shfc.corpus import draw_locally_free
from shfc.invariants import level, phi_certificate
from shfc.resolutions import Presentation
from shfc.rings import Ring
from shfc.rng import Lcg
from shfc.suites import (
    DEFAULT_CHAR,
    DEFAULT_SEED,
    verify_beilinson,
    verify_bott,
    verify_key_theorem,
    verify_oracle,
    verify_regularity_tensor,
    verify_subadditivity,
)

RINGS = {n: Ring(DEFAULT_CHAR, n + 1) for n in (1, 2, 3)}


def line_bundle_sum(ring, twists):
    return Presentation.free(ring, tuple(-a for a in twists))


def announce(capsys, num, ok, text):
    with capsys.disabled():
        print(f"[acceptance {num:2d}] {'PASS' if ok else 'FAIL'}  {text}", flush=True)


def test_criterion_01_line_bundle_oracle(capsys):
    t0 = time.monotonic()
    failures = []
    for n in (1, 2, 3):
        report = verify_oracle(dim=n, count=200, seed=DEFAULT_SEED, char=DEFAULT_CHAR)
        if not report.all_pass:
            failures.append((n, [i for i in report.instances if not i["pass"]]))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 60
    announce(
        capsys,
        1,
        ok,
        f"line-bundle oracle: 600 random sums, n in {{1,2,3}}, all (i,d) exact"
        f" ({elapsed:.1f}s < 60s)",
    )
    assert not failures, failures
    assert elapsed < 60


def test_criterion_02_bott_agreement(capsys):
    t0 = time.monotonic()
    mismatches = []
    for n in (1, 2, 3):
        ring = RINGS[n]
        for p in range(n + 1):
            form = omega(ring, p)
            for k in range(-(n + 4), n + 5):
                for q in range(n + 1):
                    got = sheaf_cohomology_dim(form, q, k)
                    want = bott_h(n, p, k, q)
                    if got != want:
                        mismatches.append((n, p, k, q, got, want))
    elapsed = time.monotonic() - t0
    ok = not mismatches and elapsed < 300
    announce(
        capsys,
        2,
        ok,
        f"Bott closed form: h^q(Omega^p(k)) for n<=3, |k|<=n+4, exact"
        f" ({elapsed:.1f}s < 300s)",
    )
    assert not mismatches, mismatches[:10]
    assert elapsed < 300


def test_criterion_03_euler_identity_on_corpus(capsys):
    defects = []
    checked = 0
    for n in (1, 2, 3):
        ring = RINGS[n]
        modules = [(f"R_{m}", koszul_kernel(ring, m)) for m in range(n + 1)]
        modules += [(f"Omega^{p}", omega(ring, p)) for p in range(n + 1)]
        if n == 2:
            rng = Lcg(DEFAULT_SEED)
            for idx in range(40):
                pres, desc = draw_locally_free(ring, rng)
                modules.append((f"draw{idx}:{desc}", pres))
        for desc, pres in modules:
            checked += 1
            for d in range(-n - 5, n + 6):
                chi = sum(
                    (-1) ** i * sheaf_cohomology_dim(pres, i, d)
                    for i in range(n + 1)
                )
                hp = euler_characteristic(pres, d)
                if chi != hp:
                    defects.append((n, desc, d, chi, hp))
    ok = not defects
    announce(
        capsys,
        3,
        ok,
        f"Euler identity: chi(M(d)) == Hilbert polynomial on {checked} corpus"
        f" modules, default windows",
    )
    assert not defects, defects[:10]


def test_criterion_04_level_values(capsys):
    bad = []
    for d in range(0, 4):
        v = level(line_bundle_sum(RINGS[2], (d,))).value
        if v != 0:
            bad.append((f"O({d}) on P^2", v, 0))
    for n in (1, 2, 3):
        v = level(line_bundle_sum(RINGS[n], (-1,))).value
        if v != 1:
            bad.append((f"O(-1) on P^{n}", v, 1))
        result = level(line_bundle_sum(RINGS[n], (-n - 1,)))
        if result.value != n:
            bad.append((f"O(-{n + 1}) on P^{n}", result.value, n))
        # hand-derived binomial witness: h^n(O(-n-1)(-1)) = C(n+1, n)
        top = [w for w in result.witnesses if w["i"] == 0 and w["q"] == n]
        if not top or top[0]["h"] != line_bundle_h(n, (-n - 1,), n, -1):
            bad.append((f"O(-{n + 1}) witness on P^{n}", result.witnesses, "C(n+1,n)"))
    cot = level(omega(RINGS[2], 1))
    if cot.value != 1 or cot.witnesses != ({"q": 1, "i": 1, "h": bott_h(2, 1, -2, 2)},):
        bad.append(("Omega^1 on P^2", cot, 1))
    ok = not bad
    announce(
        capsys,
        4,
        ok,
        "level values: O(0..3) -> 0, O(-1) -> 1, O(-n-1) -> n, Omega^1 on P^2 -> 1,"
        " witnesses cross-checked",
    )
    assert not bad, bad


def test_criterion_05_subadditivity_suite(capsys):
    t0 = time.monotonic()
    report = verify_subadditivity(dim=2, count=100, seed=DEFAULT_SEED, char=DEFAULT_CHAR)
    elapsed = time.monotonic() - t0
    violations = [i for i in report.instances if not i["pass"]]
    ok = report.all_pass and elapsed < 600
    announce(
        capsys,
        5,
        ok,
        f"subadditivity: level(E@F) <= level(E)+level(F), 100 seeded pairs on P^2,"
        f" {len(violations)} violations ({elapsed:.1f}s < 600s)",
    )
    assert report.all_pass, violations[:3]
    assert elapsed < 600


def test_criterion_06_tensor_regularity_suite(capsys):
    report = verify_regularity_tensor(dim=2, count=100, seed=DEFAULT_SEED, char=DEFAULT_CHAR)
    violations = [i for i in report.instances if not i["pass"]]
    ok = report.all_pass
    announce(
        capsys,
        6,
        ok,
        f"tensor regularity + reg-twist vanishing: same 100-pair corpus,"
        f" {len(violations)} violations",
    )
    assert report.all_pass, violations[:3]


def test_criterion_07_key_theorem_suite(capsys):
    t0 = time.monotonic()
    failures = []
    skips = []
    for char in (2, 3, 5):
        for dim in (1, 2):
            report = verify_key_theorem(char=char, dim=dim)
            for inst in report.instances:
                if not inst["pass"]:
                    failures.append((char, dim, inst))
                if inst["relation"].startswith("skipped"):
                    skips.append((char, dim, inst["inputs"]))
    elapsed = time.monotonic() - t0
    ok = not failures and not skips and elapsed < 600
    announce(
        capsys,
        7,
        ok,
        f"key theorem over F_2/F_3/F_5 on P^1 and P^2: 60 pairs, 0 violations,"
        f" {len(skips)} cap-skips ({elapsed:.1f}s < 600s)",
    )
    assert not failures, failures[:3]
    assert not skips, skips
    assert elapsed < 600


def test_criterion_08_beilinson_suite(capsys):
    report = verify_beilinson(dim=2, count=30, seed=DEFAULT_SEED, char=DEFAULT_CHAR)
    violations = [i for i in report.instances if not i["pass"]]
    ok = report.all_pass
    announce(
        capsys,
        8,
        ok,
        f"Beilinson first page: row vanishing above level + Euler identity,"
        f" 30 corpus modules on P^2, {len(violations)} violations",
    )
    assert report.all_pass, violations[:3]


def test_criterion_09_bott_vanishing_suite(capsys):
    failures = []
    for n in (1, 2, 3):
        report = verify_bott(dim=n, char=DEFAULT_CHAR)
        failures += [(n, i) for i in report.instances if not i["pass"]]
    ok = not failures
    announce(
        capsys,
        9,
        ok,
        "Bott vanishing: h^i(Omega^j(d)) == 0 for i > 0, 1 <= d <= n+3, n <= 3",
    )
    assert not failures, failures[:5]


def test_criterion_10_phi_certificates(capsys):
    bad = []
    for n in (1, 2, 3):
        ring = RINGS[n]
        for d in range(-2, n + 3):
            cert = phi_certificate(line_bundle_sum(ring, (d,)))
            expected = level(line_bundle_sum(ring, (d - n,))).value
            if cert.bound != expected:
                bad.append((f"O({d}) on P^{n}", cert.bound, expected))
            if d >= n and cert.bound != 0:
                bad.append((f"O({d}) on P^{n} (ample range)", cert.bound, 0))
    cot = phi_certificate(twist(omega(RINGS[2], 1), 2))
    if cot.bound != 1:
        bad.append(("Omega^1(2) on P^2", cot.bound, 1))
    ok = not bad
    announce(
        capsys,
        10,
        ok,
        "phi certificates: bound == level(O(d-n)) (0 once d >= n);"
        " Omega^1(2) on P^2 -> 1",
    )
    assert not bad, bad
