"""Record golden stdout for every (job, twist) pair a seed can draw.

    python3 perfbench/record_golden.py

Run from the repository root, at a commit whose answers are trusted; it
rewrites perfbench/golden.json. Every job runs in a fresh forked process, as
in run.py, and every output must pass the engine-independent identities of
checks.py (Euler characteristics, twist shifts, the shared F_p/Q level
table) before anything is written. Outputs do not depend on the seed, whose
signs change the module files but not the module they present.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import run  # sets sys.path for checks and workloads

os.environ.update({var: "1" for var in run.THREAD_VARS})  # before numpy loads

import checks  # noqa: E402
import make_inputs  # noqa: E402  (imports shfc from src/)
import workloads  # noqa: E402


def main():
    jobs = workloads.every_module_job()
    work_dir = os.path.join(run.HERE, ".work", f"golden-{os.getpid()}")
    golden, results = {}, {}
    try:
        make_inputs.make_inputs(jobs, 0, work_dir)
        for job in jobs:
            start = time.perf_counter()
            results[job.key] = run.run_job(job.argv, False, work_dir)
            golden[job.key] = results[job.key].get("stdout", "")
            print(f"{time.perf_counter() - start:7.2f}s  {job.key}", file=sys.stderr)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    bad = 0
    for job in jobs:
        for problem in checks.check(job, results[job.key], golden):
            print(f"WRONG {job.key}: {problem}", file=sys.stderr)
            bad += 1
    for fp_job in jobs:
        if fp_job.cmd == "level" and fp_job.char == workloads.FP:
            qq_key = fp_job.key.replace(f"char={workloads.FP}", f"char={workloads.QQ}")
            if qq_key in golden and golden[qq_key] != golden[fp_job.key]:
                print(f"WRONG {fp_job.key}: differs from {qq_key}", file=sys.stderr)
                bad += 1
    if bad:
        return 1
    with open(checks.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden)} outputs to {checks.GOLDEN_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
