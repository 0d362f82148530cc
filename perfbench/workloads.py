"""Workload definitions: which module families are built, which CLI jobs run
on them, and how the seed turns them into a concrete job list.

This module imports nothing from shfc, so the harness can plan a run before
the program is imported.

How the seed is used:

* Every job's input file is M(e) = `construct twist --e e` of a family
  module whose generators and relation columns carry seeded signs (a change
  of basis by +-1: the presented module is the same, the bytes differ).
* A job whose cost does not depend on e over its twist range draws one e per
  run. `cohomology` moves its window by -e, so it always covers the same
  twists of the family sheaf.
* `level` reads cohomology of F(e) at fixed offsets, so its cost depends on
  e: on P^3 Omega^1 x Omega^2 it is 22 s at e = -1, 5.9 s at e = 0 and 1.2 s
  at e = 1. A seeded draw would make wall_s spread by a factor of three
  across seeds, so every pass runs `level` at each twist of its range.
  (`beilinson` is flat, 4.5-5.3 s, for e in -1..2 but 27 s at e = -2, so its
  range stops at 0.)
* Suite jobs pass the benchmark seed, or seeds derived from it, as `--seed`
  (see SUITE_JOBS).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

FP = 32003
QQ = 0

# Family id -> (projective dimension, construction steps). A step is a
# `shfc construct` argv in which "{k}" names the output file of step k.
FAMILIES = {
    "P3_omega1xomega2": (3, [
        ["omega", "--p", "1"],
        ["omega", "--p", "2"],
        ["tensor", "--module", "{0}", "--other", "{1}"],
    ]),
    "P2_omega1x3": (2, [
        ["omega", "--p", "1"],
        ["tensor", "--module", "{0}", "--other", "{0}"],
        ["tensor", "--module", "{1}", "--other", "{0}"],
    ]),
    "P3_qpow3_omega1": (3, [
        ["omega", "--p", "1"],
        ["qpow", "--module", "{0}", "--q", "3"],
    ]),
    "P4_omega1t1": (4, [
        ["omega", "--p", "1"],
        ["twist", "--module", "{0}", "--e", "1"],
    ]),
    "P4_omega1t1x2": (4, [
        ["omega", "--p", "1"],
        ["twist", "--module", "{0}", "--e", "1"],
        ["tensor", "--module", "{1}", "--other", "{1}"],
    ]),
}

COHOMOLOGY_WINDOW = (-3, 3)


@dataclass(frozen=True)
class ModuleJob:
    cmd: str  # CLI subcommand reading one module file
    family: str
    char: int
    twists: tuple = (-2, -1, 0, 1, 2)
    draw: bool = True  # one seeded twist per run, else every twist per pass


# Suite jobs as in scripts/run_all_suites.py: (suite, dim, char or None, seeds).
# seeds "derived": SUITE_SEEDS_PER_RUN seeds derived from the benchmark seed.
# seeds "run": the benchmark seed once; key-theorem and bott only echo it.
# subadditivity keeps run_all_suites.py's seed 2024: its cost at one seed is
# heavy-tailed (0.11 s to 4.3 s over seeds 496-575, from a few large
# qpow tensor products), which made wall_s spread 36% across benchmark seeds.
SUITE_JOBS = (
    [("oracle", n, None, "derived") for n in (1, 2, 3)]
    + [("subadditivity", 2, None, 2024), ("regularity-tensor", 2, None, "derived")]
    + [("key-theorem", n, p, "run") for p in (2, 3, 5) for n in (1, 2)]
    + [("bott", n, None, "run") for n in (1, 2, 3)]
    + [("beilinson", 2, None, "derived")]
)
SUITE_SEEDS_PER_RUN = 8

WORKLOADS = {
    "level_fp": [
        ModuleJob("level", "P3_omega1xomega2", FP, (0, 1), draw=False),
        ModuleJob("level", "P2_omega1x3", FP, (0, 1), draw=False),
        ModuleJob("cohomology", "P3_qpow3_omega1", FP),
        ModuleJob("reg", "P3_omega1xomega2", FP),
    ],
    # P^2 Omega^1 x3 over Q runs at e = 1 only (3 s; 5.8 s at e = 0): shorter
    # passes give each job more samples in a run (run.end_to_end).
    "level_qq": [
        ModuleJob("level", "P2_omega1x3", QQ, (1,), draw=False),
        ModuleJob("level", "P3_qpow3_omega1", QQ, (0, 1), draw=False),
    ],
    "resolve_p4": [
        ModuleJob("betti", "P4_omega1t1x2", FP),
        ModuleJob("beilinson", "P4_omega1t1", FP, (0, 1, 2)),
    ],
    "suites": SUITE_JOBS,
}


@dataclass(frozen=True)
class Job:
    key: str  # stable name; golden outputs are stored under it
    argv: tuple  # CLI argv; module paths are relative to the work directory
    cmd: str
    family: str | None = None
    char: int | None = None
    e: int | None = None
    suite_seed: int | None = None

    @property
    def kind(self):
        """The command apart from its suite seed: wall_s and slowest_job_s
        take, per kind, the time of all its jobs in a pass. A suite's cost
        at one seed varies (oracle --dim 3 takes 0.09-0.17 s), its cost
        over SUITE_SEEDS_PER_RUN seeds much less."""
        if self.suite_seed is None:
            return self.key
        return self.key.replace(f" --seed {self.suite_seed}", "")


def base_file(family, char):
    return f"{family}.c{char}.json"


def twisted_file(family, char, e):
    return f"{family}.c{char}.e{e}.json"


def module_job(spec, e):
    argv = [spec.cmd, "--module", twisted_file(spec.family, spec.char, e)]
    if spec.cmd == "cohomology":
        lo, hi = COHOMOLOGY_WINDOW
        argv += ["--twists", f"{lo - e}:{hi - e}"]
    key = f"{spec.cmd} {spec.family} char={spec.char} e={e}"
    return Job(key, tuple(argv), spec.cmd, spec.family, spec.char, e)


def suite_seeds(mode, seed):
    if mode == "derived":
        return [seed * SUITE_SEEDS_PER_RUN + k for k in range(SUITE_SEEDS_PER_RUN)]
    return [seed if mode == "run" else mode]


def plan(workload, seed):
    """The run's job list, in a fixed order; passes shuffle it."""
    rng = random.Random(seed)
    jobs = []
    if workload == "suites":
        for suite, dim, char, mode in SUITE_JOBS:
            for s in suite_seeds(mode, seed):
                argv = ["verify", suite, "--dim", str(dim), "--seed", str(s)]
                if char is not None:
                    argv += ["--char", str(char)]
                key = " ".join(argv[1:])
                jobs.append(Job(key, tuple(argv), "verify", suite_seed=s))
        return jobs
    for spec in WORKLOADS[workload]:
        if spec.draw:
            jobs.append(module_job(spec, rng.choice(spec.twists)))
        else:
            jobs.extend(module_job(spec, e) for e in spec.twists)
    return jobs


def every_module_job():
    """Every (job, twist) pair any seed can draw; golden outputs cover these."""
    jobs = []
    for workload, specs in WORKLOADS.items():
        if workload == "suites":
            continue
        for spec in specs:
            jobs.extend(module_job(spec, e) for e in spec.twists)
    return jobs


def signs(seed, family, char, part, count):
    """Seeded +-1 for each of `count` generators (part "gens") or relation
    columns (part "rels") of one family module."""
    rng = random.Random(f"{seed}/{family}/{char}/{part}")
    return [rng.choice((1, -1)) for _ in range(count)]


def inputs(jobs):
    """(family, char, e) of every module file the jobs read."""
    return sorted({(j.family, j.char, j.e) for j in jobs if j.family is not None})


def pass_order(jobs, seed, index):
    order = list(jobs)
    random.Random(f"{seed}/pass/{index}").shuffle(order)
    return order
