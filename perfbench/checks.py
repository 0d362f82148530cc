"""Answer checks for every job. Each returns a list of problems; an empty
list means the answer is right. The checks compare explicitly (no `assert`),
so they also run under `python -O`.

Beyond the golden stdout bytes recorded by record_golden.py, the checks test
identities that hold for the true answer whatever the engine does:

* a cohomology column's Euler characteristic equals the closed-form Euler
  characteristic of the family (from its Euler sequence), and moving the
  twist into the module moves the table;
* the Betti table and regularity of M(e) are those of M shifted by e;
* the level of a family twist is the same over F_p and Q (LEVELS is shared
  by level_fp and level_qq), including the level read off a cohomology table;
* the Beilinson page Euler-balances chi(E(d)) on [-2, 2];
* every suite report passes, names its suite and seed, and has the
  instance count the suite is defined to produce.
"""

from __future__ import annotations

import json
import math
import os

import workloads

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

# level(F(e)) for each family twist that a `level` job or a cohomology
# window reaches; the same values must come out over F_32003 and over Q.
LEVELS = {
    ("P3_omega1xomega2", 0): 3,
    ("P3_omega1xomega2", 1): 3,
    ("P2_omega1x3", 0): 2,
    ("P2_omega1x3", 1): 2,
    ("P3_qpow3_omega1", 0): 3,
    ("P3_qpow3_omega1", 1): 2,
}

SUITE_INSTANCES = {
    "oracle": lambda dim: 200,
    "subadditivity": lambda dim: 100,
    "regularity-tensor": lambda dim: 200,
    "key-theorem": lambda dim: 10,
    "bott": lambda dim: (dim + 1) * (dim + 3),
    "beilinson": lambda dim: 30,
}


def load_golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def line_chi(n, m):
    """chi(O(m)) on P^n: C(m + n, n) as a polynomial in m."""
    num = 1
    for j in range(1, n + 1):
        num *= m + j
    return num // math.factorial(n)


def family_chi(family, t):
    """chi(F(t)) from the family's Euler sequence 0 -> Omega^1 -> O(-1)^{n+1}
    -> O -> 0 (pulled back along x -> x^3 for the q-power family)."""
    if family == "P3_qpow3_omega1":
        return 4 * line_chi(3, t - 3) - line_chi(3, t)
    if family == "P4_omega1t1":
        return 5 * line_chi(4, t) - line_chi(4, t + 1)
    raise KeyError(family)


def _json(out):
    try:
        return json.loads(out), None
    except json.JSONDecodeError as exc:
        return None, f"stdout is not JSON: {exc}"


def level_from_table(h, lo, n, t0):
    """level(F(t0)) read from a cohomology table whose first column is twist lo."""
    value = 0
    for i in range(n):
        col = t0 - 1 - i - lo
        if not 0 <= col < len(h[0]):
            return None
        for j in range(i + 1, n + 1):
            if h[j][col]:
                value = max(value, j - i)
    return value


def check_module_job(job, out, golden):
    problems = []
    want = golden.get(job.key)
    if want is None:
        return [f"no golden output recorded for {job.key!r}"]
    if out != want:
        problems.append(f"stdout differs from golden: {out[:120]!r} != {want[:120]!r}")
    data, err = _json(out)
    if err:
        return problems + [err]
    e = job.e
    base = golden.get(job.key.replace(f" e={e}", " e=0"))
    base_data = json.loads(base) if base else None
    if job.cmd == "level":
        want = LEVELS.get((job.family, e))
        if data.get("value") != want:
            problems.append(f"level {data.get('value')} != {want} (shared F_p/Q table)")
    elif job.cmd == "cohomology":
        lo, hi = workloads.COHOMOLOGY_WINDOW
        if data.get("window") != [lo - e, hi - e]:
            problems.append(f"window {data.get('window')} != {[lo - e, hi - e]}")
        h, n = data.get("h"), data.get("n")
        for col, t in enumerate(range(lo, hi + 1)):
            chi = sum((-1) ** i * h[i][col] for i in range(n + 1))
            if chi != family_chi(job.family, t):
                problems.append(f"Euler characteristic {chi} at twist {t} != {family_chi(job.family, t)}")
        if base_data is not None and h != base_data["h"]:
            problems.append("table of M(e) is not the table of M moved by e")
        for t0 in (0, 1):
            got = level_from_table(h, lo, n, t0)
            if got != LEVELS[(job.family, t0)]:
                problems.append(f"level read from table at twist {t0}: {got} != {LEVELS[(job.family, t0)]}")
    elif job.cmd == "reg":
        if base_data is not None and data.get("regularity") != base_data["regularity"] - e:
            problems.append(f"regularity {data.get('regularity')} != {base_data['regularity']} - {e}")
    elif job.cmd == "betti":
        if base_data is not None:
            shifted = [[i, j - e, c] for i, j, c in base_data["betti"]]
            if data.get("betti") != shifted:
                problems.append("Betti table of M(e) is not the table of M shifted by e")
            if data.get("regularity") != base_data["regularity"] - e:
                problems.append(f"regularity {data.get('regularity')} != {base_data['regularity']} - {e}")
    elif job.cmd == "beilinson":
        n = data.get("n")
        rows = data.get("e")
        for d in range(-2, 3):
            total = 0
            for b in range(n + 1):
                for k, a in enumerate(range(-n, 1)):
                    total += (-1) ** ((a + b) % 2) * rows[b][k] * line_chi(n, a + d)
            want = family_chi(job.family, d + e)
            if total != want:
                problems.append(f"Beilinson Euler sum {total} at d={d} != chi {want}")
    return problems


def check_suite_job(job, out):
    data, err = _json(out)
    if err:
        return [err]
    suite = job.argv[1]
    dim = int(job.argv[job.argv.index("--dim") + 1])
    problems = []
    if data.get("all_pass") is not True:
        problems.append("report all_pass is not true")
    if data.get("suite") != suite or data.get("seed") != job.suite_seed:
        problems.append(f"report names {data.get('suite')!r} seed {data.get('seed')}")
    instances = data.get("instances", [])
    if len(instances) != SUITE_INSTANCES[suite](dim):
        problems.append(f"{len(instances)} instances, expected {SUITE_INSTANCES[suite](dim)}")
    if not all(inst.get("pass") is True for inst in instances):
        problems.append("an instance does not pass")
    return problems


def check(job, result, golden):
    """Problems with one job's result (exit code, exception, answer)."""
    if result.get("error"):
        return [f"raised: {result['error'].strip().splitlines()[-1]}"]
    if result.get("code") != 0:
        return [f"exit code {result.get('code')}: {result.get('stderr', '').strip()[:200]}"]
    out = result.get("stdout", "")
    try:
        if job.cmd == "verify":
            return check_suite_job(job, out)
        return check_module_job(job, out, golden)
    except (KeyError, TypeError, IndexError, ValueError, AttributeError) as exc:
        return [f"malformed answer: {type(exc).__name__}: {exc}"]
