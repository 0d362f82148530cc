"""Verification suites: seeded, deterministic checks of the vanishing and
subadditivity statements the engine exists to test, packaged as reports.

Every suite returns a VerificationReport whose JSON form is byte-identical
across runs with the same arguments (fixed iteration order, sorted keys,
no timestamps). A failing instance carries the violated relation with both
sides and the participating modules inline as module-file JSON.

Evaluation is sequential: instances are pure and independent, so this is
purely a simplicity choice, and it makes determinism trivial.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .cohomology import euler_characteristic, line_bundle_oracle, sheaf_cohomology_dim
from .constructions import koszul_kernel, omega, q_power_pullback, tensor, twist
from .corpus import draw_locally_free, line_bundle_sum
from .invariants import beilinson_e1, beilinson_euler_mismatch, level, sheaf_regularity
from .moduleio import presentation_to_dict
from .rings import Ring
from .rng import Lcg

DEFAULT_CHAR = 32003
DEFAULT_SEED = 2024


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    seed: int
    instances: tuple
    all_pass: bool

    @classmethod
    def build(cls, suite, seed, instances):
        return cls(suite, seed, tuple(instances), all(i["pass"] for i in instances))

    def to_json_dict(self):
        return {
            "suite": self.suite,
            "seed": self.seed,
            "instances": [dict(i) for i in self.instances],
            "all_pass": self.all_pass,
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))


def _instance(inputs, relation, observed, passed, witness_modules=None):
    entry = {"inputs": inputs, "relation": relation, "observed": observed, "pass": passed}
    if not passed and witness_modules:
        entry["witness_modules"] = {
            name: presentation_to_dict(pres) for name, pres in witness_modules.items()
        }
    return entry


def _sheaf_ring(char, dim):
    return Ring(char, dim + 1)


# --- oracle suite -------------------------------------------------------------

def verify_oracle(dim=2, count=200, seed=DEFAULT_SEED, char=DEFAULT_CHAR):
    """Random direct sums of line bundles: engine cohomology must equal the
    closed-form binomial oracle at every (i, d) in the test window, and the
    alternating sum of h^i must equal the Hilbert polynomial, read as the
    integer chi(F(d)) from the resolution."""
    ring = _sheaf_ring(char, dim)
    n = ring.dim
    rng = Lcg(seed)
    instances = []
    for _ in range(count):
        rank = rng.randint(1, 3)
        twists = tuple(rng.randint(-4, 4) for _ in range(rank))
        pres = line_bundle_sum(ring, twists)
        mismatches = []
        for d in range(-n - 4, n + 5):
            chi = 0
            for i in range(n + 1):
                got = sheaf_cohomology_dim(pres, i, d)
                want = line_bundle_oracle(n, twists, i, d)
                chi += (-1) ** i * got
                if got != want:
                    mismatches.append({"i": i, "d": d, "engine": got, "oracle": want})
            hp = euler_characteristic(pres, d)
            if chi != hp:
                mismatches.append({"d": d, "euler": chi, "hilbert": hp})
        desc = "+".join(f"O({a})" for a in twists)
        instances.append(
            _instance(
                {"module": desc},
                "engine h^i == closed form; Euler char == Hilbert polynomial",
                {"mismatches": mismatches},
                not mismatches,
                {"module": pres},
            )
        )
    return VerificationReport.build("oracle", seed, instances)


# --- subadditivity ------------------------------------------------------------

def verify_subadditivity(dim=2, count=100, seed=DEFAULT_SEED, char=DEFAULT_CHAR):
    """level(E (x) F) <= level(E) + level(F) over seeded locally-free pairs."""
    ring = _sheaf_ring(char, dim)
    rng = Lcg(seed)
    instances = []
    for _ in range(count):
        (e_pres, e_desc) = draw_locally_free(ring, rng)
        (f_pres, f_desc) = draw_locally_free(ring, rng)
        lam_e = level(e_pres).value
        lam_f = level(f_pres).value
        product = tensor(e_pres, f_pres)
        lam_t = level(product).value
        ok = lam_t <= lam_e + lam_f
        instances.append(
            _instance(
                {"E": e_desc, "F": f_desc},
                "level(tensor(E,F)) <= level(E) + level(F)",
                {
                    "level_tensor": lam_t,
                    "level_E": lam_e,
                    "level_F": lam_f,
                    "bound": lam_e + lam_f,
                },
                ok,
                {"E": e_pres, "F": f_pres},
            )
        )
    return VerificationReport.build("subadditivity", seed, instances)


# --- tensor regularity + reg-twisted vanishing ---------------------------------

def verify_regularity_tensor(dim=2, count=100, seed=DEFAULT_SEED, char=DEFAULT_CHAR):
    """On the same seeded pair corpus as subadditivity: (a) if E is p-regular
    and F is q-regular then E (x) F is (p+q)-regular; (b) h^i(E (x) F) = 0
    for i > level(E(-reg F))."""
    ring = _sheaf_ring(char, dim)
    n = ring.dim
    rng = Lcg(seed)
    instances = []
    for _ in range(count):
        (e_pres, e_desc) = draw_locally_free(ring, rng)
        (f_pres, f_desc) = draw_locally_free(ring, rng)
        reg_e = sheaf_regularity(e_pres)
        reg_f = sheaf_regularity(f_pres)
        product = tensor(e_pres, f_pres)
        reg_t = sheaf_regularity(product)
        # locally free and nonzero, so every regularity here is finite
        ok_reg = reg_t <= reg_e + reg_f
        instances.append(
            _instance(
                {"E": e_desc, "F": f_desc},
                "reg(tensor(E,F)) <= reg(E) + reg(F)",
                {"reg_tensor": reg_t, "reg_E": reg_e, "reg_F": reg_f, "bound": reg_e + reg_f},
                ok_reg,
                {"E": e_pres, "F": f_pres},
            )
        )
        lam_shift = level(e_pres, twist=-reg_f).value
        values = {i: sheaf_cohomology_dim(product, i, 0) for i in range(lam_shift + 1, n + 1)}
        ok_van = all(v == 0 for v in values.values())
        instances.append(
            _instance(
                {"E": e_desc, "F": f_desc},
                "h^i(tensor(E,F)) == 0 for i > level(twist(E, -reg(F)))",
                {
                    "level_shifted": lam_shift,
                    "reg_F": reg_f,
                    "h_above": {str(i): v for i, v in values.items()},
                },
                ok_van,
                {"E": e_pres, "F": f_pres},
            )
        )
    return VerificationReport.build("regularity-tensor", seed, instances)


# --- key theorem ---------------------------------------------------------------

def _key_theorem_pairs(ring):
    """Fixed deterministic (E, F) templates; every family is locally free a
    priori. Omega^1 on P^1 is O(-2), so the same names work in both dims."""
    n = ring.dim

    def O(*twists):
        return line_bundle_sum(ring, twists)

    es = [
        (f"O({n})", O(n)),
        ("O(1)", O(1)),
        ("O(-1)", O(-1)),
        ("O(2)+O(0)", O(2, 0)),
        ("Omega^1(2)", twist(omega(ring, 1), 2)),
        ("R_1", koszul_kernel(ring, 1)),
    ]
    fs = [
        ("O", O(0)),
        ("O(1)", O(1)),
        ("O(-3)", O(-3)),
        ("O(-5)", O(-5)),
        ("Omega^1", omega(ring, 1)),
        ("R_1", koszul_kernel(ring, 1)),
    ]
    pairing = [
        (1, 2),  # O(1), O(-3)
        (4, 0),  # Omega^1(2), O
        (0, 0),  # O(n), O
        (2, 2),  # O(-1), O(-3): vacuous, c = n
        (4, 2),  # Omega^1(2), O(-3)
        (5, 4),  # R_1, Omega^1
        (3, 3),  # O(2)+O(0), O(-5)
        (4, 4),  # Omega^1(2), Omega^1
        (1, 5),  # O(1), R_1
        (5, 3),  # R_1, O(-5)
    ]
    return [(es[i], fs[j]) for i, j in pairing]


def _power_cap(n):
    return 9 if n >= 2 else 25


def verify_key_theorem(char=2, dim=2, seed=0):
    """Over F_p: h^i(E^(p^N) (x) F) = 0 for every i > level(E(-n)) once
    p^N >= reg(F). N is the smallest power with p^N >= max(reg F, 1); pairs
    whose p^N exceeds the desk-scale degree cap are reported as skipped."""
    if char == 0:
        raise ValueError("the key theorem suite needs positive characteristic")
    ring = _sheaf_ring(char, dim)
    n = ring.dim
    cap = _power_cap(n)
    instances = []
    for (e_desc, e_pres), (f_desc, f_pres) in _key_theorem_pairs(ring):
        c = level(e_pres, twist=-n).value
        reg_f = sheaf_regularity(f_pres)
        target = max(reg_f, 1)
        power = 1
        big_n = 0
        while power < target:
            power *= char
            big_n += 1
        inputs = {"E": e_desc, "F": f_desc, "p": char}
        if power > cap:
            instances.append(
                _instance(
                    inputs,
                    f"skipped: p^N = {power} exceeds the suite cap {cap}",
                    {"c": c, "reg_F": reg_f, "N": big_n, "pN": power, "cap": cap},
                    True,
                )
            )
            continue
        pulled = q_power_pullback(e_pres, power)
        product = tensor(pulled, f_pres)
        values = {i: sheaf_cohomology_dim(product, i, 0) for i in range(c + 1, n + 1)}
        ok = all(v == 0 for v in values.values())
        instances.append(
            _instance(
                inputs,
                "h^i(qpow(E, p^N) (x) F) == 0 for i > level(twist(E, -n))",
                {
                    "c": c,
                    "reg_F": reg_f,
                    "N": big_n,
                    "pN": power,
                    "h_above": {str(i): v for i, v in values.items()},
                },
                ok,
                {"E": e_pres, "F": f_pres},
            )
        )
    return VerificationReport.build("key-theorem", seed, instances)


# --- Bott vanishing -------------------------------------------------------------

def verify_bott(dim=2, char=DEFAULT_CHAR, seed=0):
    """h^i(Omega^j(d)) = 0 for every i > 0, 0 <= j <= n, 1 <= d <= n+3."""
    ring = _sheaf_ring(char, dim)
    n = ring.dim
    instances = []
    for j in range(n + 1):
        form = omega(ring, j)
        for d in range(1, n + 4):
            values = {i: sheaf_cohomology_dim(form, i, d) for i in range(1, n + 1)}
            ok = all(v == 0 for v in values.values())
            instances.append(
                _instance(
                    {"module": f"Omega^{j}({d})"},
                    "h^i == 0 for all i > 0",
                    {"h": {str(i): v for i, v in values.items()}},
                    ok,
                    {"module": form},
                )
            )
    return VerificationReport.build("bott", seed, instances)


# --- Beilinson ------------------------------------------------------------------

def verify_beilinson(dim=2, count=30, seed=DEFAULT_SEED, char=DEFAULT_CHAR):
    """For seeded corpus modules E: the first-page rows above level(E)
    vanish, and the table Euler-balances chi(E(d)) for d in [-2, 2]."""
    ring = _sheaf_ring(char, dim)
    n = ring.dim
    rng = Lcg(seed)
    instances = []
    for _ in range(count):
        pres, desc = draw_locally_free(ring, rng)
        lam = level(pres).value
        table = beilinson_e1(pres)
        bad_rows = {
            f"{a},{b}": v
            for (a, b), v in sorted(table.entries.items())
            if b > lam and v
        }
        defects = {str(d): beilinson_euler_mismatch(table, pres, d) for d in range(-2, 3)}
        ok = not bad_rows and all(v == 0 for v in defects.values())
        instances.append(
            _instance(
                {"E": desc},
                "e_{ab} == 0 for b > level(E); Euler identity on [-2, 2]",
                {
                    "level": lam,
                    "entries_above_level": bad_rows,
                    "euler_defects": defects,
                },
                ok,
                {"E": pres},
            )
        )
    return VerificationReport.build("beilinson", seed, instances)


SUITES = {
    "oracle": verify_oracle,
    "subadditivity": verify_subadditivity,
    "regularity-tensor": verify_regularity_tensor,
    "key-theorem": verify_key_theorem,
    "bott": verify_bott,
    "beilinson": verify_beilinson,
}
