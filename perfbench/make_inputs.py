"""Generate the module files one run reads: the set-up step timed as setup_s.

    python3 perfbench/make_inputs.py --workload level_fp --seed 7 --out DIR

Run from the repository root, in a fresh interpreter: setup_s is the wall time
of this whole process (start, `import shfc`, building and writing files).
Family modules are built with `shfc construct`, given seeded signs, and
twisted with `shfc construct twist`, so jobs only ever read generated files.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from shfc.cli import main as shfc_main  # noqa: E402
from shfc.modules import GradedMap  # noqa: E402
from shfc.moduleio import load_module, save_module  # noqa: E402
from shfc.resolutions import Presentation  # noqa: E402


def construct(argv):
    code = shfc_main(["construct", *argv])
    if code != 0:
        raise SystemExit(f"shfc construct {' '.join(argv)} exited {code}")


def build_family(family, char, seed, out_dir):
    dim, steps = workloads.FAMILIES[family]
    outputs = []
    for k, step in enumerate(steps):
        path = os.path.join(out_dir, f"{family}.c{char}.step{k}.json")
        argv = [a.format(*outputs) for a in step] + ["--out", path]
        if step[0] in ("omega", "koszulR"):
            argv += ["--char", str(char), "--dim", str(dim)]
        construct(argv)
        outputs.append(path)
    pres = load_module(outputs[-1])
    g = workloads.signs(seed, family, char, "gens", pres.gens.rank)
    c = workloads.signs(seed, family, char, "rels", pres.rels.source.rank)
    rows = [
        [p if g[i] == c[j] else -p for j, p in enumerate(row)]
        for i, row in enumerate(pres.rels.matrix)
    ]
    signed = Presentation(pres.gens, GradedMap(pres.rels.source, pres.gens, rows))
    path = os.path.join(out_dir, workloads.base_file(family, char))
    save_module(signed, path)
    return path


def make_inputs(jobs, seed, out_dir):
    """Write every module file the jobs read into out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    bases = {}
    for family, char, e in workloads.inputs(jobs):
        if (family, char) not in bases:
            bases[family, char] = build_family(family, char, seed, out_dir)
        out = os.path.join(out_dir, workloads.twisted_file(family, char, e))
        construct(["twist", "--module", bases[family, char], "--e", str(e), "--out", out])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    make_inputs(workloads.plan(args.workload, args.seed), args.seed, args.out)


if __name__ == "__main__":
    main()
