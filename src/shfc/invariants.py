"""Numerical invariants of coherent sheaves: Castelnuovo-Mumford regularity,
the level invariant, Frobenius-amplitude certificates, Beilinson first-page
tables, and finite-window amplitude probes.

The level of a sheaf F on P^n is

    level(F) = max({q : some i >= 0 has h^{q+i}(F(-1-i)) != 0} or {0}).

Since h^j vanishes for j > n (the dualized resolution has length at most
n+1), the search grid is finite: i in [0, n-1], j = q+i in [i+1, n].
level(F) = 0 exactly when F is 0-regular.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cohomology import euler_characteristic, euler_characteristic_line, sheaf_cohomology_dim
from .constructions import koszul_kernel, q_power_pullback, sym_power, tensor
from .modules import sparse_rank
from .resolutions import MINUS_INFINITY, betti_table, module_regularity
from .rings import AlgebraError, InternalError
from .rng import Lcg


class LocalFreenessError(AlgebraError):
    """Raised when an operation requiring a locally free sheaf is handed a
    presentation that fails the evaluation-rank gate."""


@dataclass(frozen=True)
class LevelResult:
    value: int
    witnesses: tuple  # one {"q","i","h"} dict per nonzero grid entry

    def to_json_dict(self):
        return {"value": self.value, "witnesses": [dict(w) for w in self.witnesses]}


def level(pres, twist=0):
    """Level of the sheafification of pres twisted by `twist`.

    The keyword avoids re-resolving: h^j((M(e))(d)) = h^j(M(d+e)), so all
    twists share one cached resolution of pres.
    """
    n = pres.ring.dim
    witnesses = []
    for i in range(n):
        for j in range(i + 1, n + 1):
            h = sheaf_cohomology_dim(pres, j, twist - 1 - i)
            if h:
                q = j - i
                if q < 1 or q + i > n:
                    raise InternalError(f"level witness q={q}, i={i} outside the grid of P^{n}")
                witnesses.append({"q": q, "i": i, "h": h})
    value = max((w["q"] for w in witnesses), default=0)
    return LevelResult(value, tuple(witnesses))


def sheaf_regularity(pres):
    """Smallest m such that h^i(F(m-i)) = 0 for all 1 <= i <= n, where F is
    the sheafification of pres.

    Returns the minus-infinity sentinel when F has finite support (zero
    sheaf included), which is when chi(F(d)) is constant in d: there all
    higher cohomology vanishes at every twist, so every m qualifies and no
    smallest one exists. Otherwise the criterion holds on an up-interval of
    m (an m-regular sheaf is (m+1)-regular), is satisfied at the module
    regularity, and fails for m << 0 because chi(F(d)) is unbounded while
    h^0 of very negative twists is not; the search decrements from the
    module regularity.
    """
    n = pres.ring.dim
    # chi(F(d)) is a polynomial in d of degree <= n, so taking one value on
    # the n + 1 points d = 0..n means it is constant
    if len({euler_characteristic(pres, d) for d in range(n + 1)}) == 1:
        return MINUS_INFINITY

    def regular(m):
        return all(sheaf_cohomology_dim(pres, i, m - i) == 0 for i in range(1, n + 1))

    m = module_regularity(betti_table(pres))
    if not regular(m):
        raise InternalError("module regularity must bound sheaf regularity")
    while regular(m - 1):
        m -= 1
    return m


# --- local freeness gate ----------------------------------------------------

PROBE_SAMPLES = 20
PROBE_SEED = 101


def _corank_at_point(pres, point):
    cols = [{i: p.evaluate(point) for i, p in col.items()} for col in pres.rels.cols]
    return pres.gens.rank - sparse_rank(cols, pres.ring)


def locally_free_probe(pres):
    """Probabilistic gate: evaluate the relation matrix at PROBE_SAMPLES
    seeded random points (of F_p^{n+1} minus 0 in characteristic p, random
    small integer points in characteristic 0) and report whether the corank
    is constant. Constant corank is evidence of local freeness away from the
    irrelevant point, not a certificate.
    """
    ring = pres.ring
    rng = Lcg(PROBE_SEED)
    p = ring.characteristic
    coranks = set()
    for _ in range(PROBE_SAMPLES):
        while True:
            if p:
                point = [rng.randint(0, p - 1) for _ in range(ring.num_vars)]
            else:
                point = [rng.randint(-50, 50) for _ in range(ring.num_vars)]
            if any(point):
                break
        coranks.add(_corank_at_point(pres, point))
        if len(coranks) > 1:
            return False
    return True


@dataclass(frozen=True)
class PhiCertificate:
    bound: int
    witnesses: tuple

    def to_json_dict(self):
        return {"bound": self.bound, "witnesses": [dict(w) for w in self.witnesses]}


def phi_certificate(pres):
    """Certified upper bound for the Frobenius amplitude of a locally free
    sheaf E on P^n: phi(E) <= level(E(-n)). Refuses input that fails the
    local-freeness gate, since the bound is only stated for bundles."""
    if not locally_free_probe(pres):
        raise LocalFreenessError(
            "relation matrix has non-constant corank at sampled points; "
            "refusing to certify a Frobenius-amplitude bound"
        )
    res = level(pres, twist=-pres.ring.dim)
    return PhiCertificate(res.value, res.witnesses)


# --- Beilinson first page ----------------------------------------------------

@dataclass(frozen=True)
class BeilinsonTable:
    n: int
    entries: dict = field(compare=False)  # (a, b) -> h^b(R_{-a} (x) E), a in [-n,0], b in [0,n]

    def value(self, a, b):
        return self.entries[(a, b)]

    def row(self, b):
        return [self.entries[(a, b)] for a in range(-self.n, 1)]

    def to_json_dict(self):
        return {
            "n": self.n,
            "a_range": [-self.n, 0],
            "e": [self.row(b) for b in range(self.n + 1)],
        }

    def to_ascii(self):
        n = self.n
        header = ["b\\a"] + [str(a) for a in range(-n, 1)]
        rows = [[f"b={b}"] + [str(v) for v in self.row(b)] for b in range(n, -1, -1)]
        widths = [max(len(r[k]) for r in [header] + rows) for k in range(n + 2)]
        lines = [
            "  ".join(cell.rjust(w) for cell, w in zip(r, widths))
            for r in [header] + rows
        ]
        return "\n".join(lines)


def beilinson_e1(pres):
    """First-page table e_{ab} = h^b(R_{-a} (x) E) for a in [-n, 0] and b in
    [0, n], where R_m is the Koszul kernel sheaf (R_m sheafifies to
    Omega^m(m)). Rows above the level of E vanish."""
    ring = pres.ring
    n = ring.dim
    entries = {}
    for a in range(-n, 1):
        product = tensor(koszul_kernel(ring, -a), pres)
        for b in range(n + 1):
            entries[(a, b)] = sheaf_cohomology_dim(product, b, 0)
    return BeilinsonTable(n, entries)


def beilinson_euler_mismatch(table, pres, d):
    """Euler identity defect at twist d:

        sum_{a,b} (-1)^{a+b} e_{ab} chi(O(a+d)) - chi(E(d)),

    which must be 0. Both chi are exact integers: chi(E(d)) from the
    resolution of pres (cohomology.euler_characteristic) and chi(O(m)) from
    the two binomials h^0 and h^n."""
    n = table.n
    total = 0
    for a in range(-n, 1):
        for b in range(n + 1):
            e = table.entries[(a, b)]
            if e:
                sign = -1 if (a + b) % 2 else 1
                total += sign * e * euler_characteristic_line(n, a + d)
    return total - euler_characteristic(pres, d)


# --- amplitude probes ---------------------------------------------------------

@dataclass(frozen=True)
class AmplitudeProbe:
    kind: str
    window: tuple
    probe_twists: tuple
    observed_bound: int
    certified: bool = False

    def to_json_dict(self):
        return {
            "kind": self.kind,
            "window": list(self.window),
            "probe_twists": list(self.probe_twists),
            "observed_bound": self.observed_bound,
            "certified": self.certified,
        }


def amplitude_probe(pres, kind, n_min, n_max, probe_twists, q=2):
    """Finite-window amplitude evidence: the largest i with some
    h^i(P^N(E)(b)) != 0 over N in [n_min, n_max] and b in probe_twists,
    where P^N is Sym^N, the N-th tensor power, or the q^N-power pullback.

    Never a certificate — amplitude is an asymptotic notion no finite window
    decides — so `certified` is always False. The certified route is
    phi_certificate.
    """
    if not probe_twists:
        raise AlgebraError("amplitude probe needs at least one probe twist")
    if n_min < 1 or n_max < n_min:
        raise AlgebraError(f"bad probe window [{n_min}, {n_max}]")
    n = pres.ring.dim
    bound = 0
    for N in range(n_min, n_max + 1):
        if kind == "symmetric":
            power = sym_power(pres, N)
        elif kind == "tensor":
            power = pres
            for _ in range(N - 1):
                power = tensor(power, pres)
        elif kind == "q-power":
            power = q_power_pullback(pres, q**N)
        else:
            raise AlgebraError(f"unknown probe kind {kind!r}")
        for b in probe_twists:
            for i in range(1, n + 1):
                if sheaf_cohomology_dim(power, i, b) and i > bound:
                    bound = i
    return AmplitudeProbe(kind, (n_min, n_max), tuple(probe_twists), bound)
