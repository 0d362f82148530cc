"""shfc benchmark: time to an exact answer for real `shfc` CLI commands.

    python3 perfbench/run.py --workload level_fp --seed 1 --seconds 28 --trace 0

Run from the repository root. Each run

1. sets up: a fresh interpreter imports shfc and writes the seed's module
   files (make_inputs.py). This first set-up is cold and is not timed;
   SETUP_REPEATS more, spread evenly over the run's pass time, are, and
   setup_s is their median;
2. repeats passes over the workload's job list while another pass of the
   average length still ends within --seconds of pass time (at least one).
   Every job is `shfc.cli.main(argv)` in a fresh process forked from this
   one, which has imported shfc and run nothing, so each job pays cold
   caches as a CLI user does; jobs run one at a time. With --trace 1 each
   job runs untraced and then traced, back to back (tracing.py);
3. checks every answer (checks.py) and prints two JSON lines on stdout: the
   run's provenance, then, as the last line, the result: with --trace 0 the
   end-to-end metrics, with --trace 1 the per-layer metrics.

A human-readable summary goes to stderr. A record with provenance, every
job's argv and times, and (traced) all spans of the first pass, goes to
perfbench/results/, under a name that no later run reuses.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 10
JOB_TIMEOUT_S = 120
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

sys.path.insert(0, HERE)
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def job_env():
    """Environment for set-up and jobs: one BLAS thread (two cores, jobs run
    one at a time), shfc from this checkout's src/."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup(workload, seed, out_dir, env):
    """Seconds for one fresh set-up writing the run's module files to out_dir."""
    shutil.rmtree(out_dir, ignore_errors=True)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "make_inputs.py"),
         "--workload", workload, "--seed", str(seed), "--out", out_dir],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-500:]}")
    return seconds


def _child(argv, traced):
    from shfc import cli

    recorder = None
    if traced:
        recorder = tracing.Recorder()
        tracing.install(recorder)
    out, err = io.StringIO(), io.StringIO()
    result = {"code": None, "error": None}
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            result["code"] = cli.main(list(argv))
        except BaseException:  # reported to the harness as a failed job
            result["error"] = traceback.format_exc()
        result["seconds"] = time.perf_counter() - start
    result["stdout"] = out.getvalue()
    result["stderr"] = err.getvalue()
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if recorder is not None:
        result["spans"] = recorder.spans
        result["counts"] = dict(recorder.counts)
    return result


def run_job(argv, traced, cwd):
    """Run one CLI job in a forked process and return its result dict."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 0
        signal.alarm(JOB_TIMEOUT_S)  # the default action ends a stuck job
        try:
            os.close(read_fd)
            os.chdir(cwd)
            data = json.dumps(_child(argv, traced)).encode()
        except BaseException:
            data = json.dumps({"error": traceback.format_exc()}).encode()
            status = 1
        try:
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(data)
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    try:
        result = json.loads(data)
    except json.JSONDecodeError:
        result = {"error": f"job process ended with status {status} and no result"}
    return result


class SetupClock:
    """Times SETUP_REPEATS set-ups spread evenly over `seconds` of pass time:
    the k-th when the passes have taken (k - 1/2) / SETUP_REPEATS of it, and
    any still missing when the passes end. Spreading them samples the
    machine's speed across the run rather than at one moment."""

    def __init__(self, seconds, setup_once):
        self.seconds = seconds
        self.setup_once = setup_once
        self.pass_seconds = 0.0
        self.times = []

    def add(self, seconds):
        self.pass_seconds += seconds
        while len(self.times) < SETUP_REPEATS and (
            self.pass_seconds >= (len(self.times) + 0.5) * self.seconds / SETUP_REPEATS
        ):
            self.times.append(self.setup_once())

    def finish(self):
        while len(self.times) < SETUP_REPEATS:
            self.times.append(self.setup_once())


def run_pass(jobs, seed, index, traced, work_dir, golden, clock, keep_spans=False):
    """Run every job once, in the pass's seeded order. With `traced`, each
    job runs untraced and then traced, back to back, so the two differ by
    the tracing alone and not by the machine's speed drift. A traced job's
    spans are reduced to its layer figures at once; raw spans are kept only
    when keep_spans is set."""
    records = []
    for job in workloads.pass_order(jobs, seed, index):
        start = time.perf_counter()
        for with_trace in (False, True) if traced else (False,):
            result = run_job(job.argv, with_trace, work_dir)
            record = {
                "key": job.key,
                "kind": job.kind,
                "argv": list(job.argv),
                "seconds": result.get("seconds"),
                "rss_kb": result.get("rss_kb"),
                "problems": checks.check(job, result, golden),
                "traced": with_trace,
            }
            if with_trace:
                spans = result.get("spans") or []
                record["layers"] = tracing.job_metrics(spans, result.get("counts") or {})
                if keep_spans:
                    record["spans"] = spans
            records.append(record)
        clock.add(time.perf_counter() - start)
    return records


def pass_wall(records):
    return sum(r["seconds"] or 0.0 for r in records)


def split(passes, traced):
    return [[r for r in p if r["traced"] == traced] for p in passes]


def end_to_end(setup_times, passes, attempted, failed):
    """End-to-end metrics from untraced passes. A job kind's time is the
    slowest of its passes: the machine runs in spells up to 1.7 times faster
    than usual, and the slowest pass is the one least likely to have caught
    one (README, "Machine noise"). wall_s sums the kinds' times."""
    by_kind = {}
    for i, p in enumerate(passes):
        for r in p:
            per_pass = by_kind.setdefault(r["kind"], [0.0] * len(passes))
            per_pass[i] += r["seconds"] or 0.0
    kind_seconds = [max(v) for v in by_kind.values()]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (sum(kind_seconds), "s"),
        "slowest_job_s": (max(kind_seconds), "s"),
        "peak_rss_mb": (max(r["rss_kb"] or 0 for p in passes for r in p) / 1024.0, "MB"),
        "ok_ratio": (1.0 - failed / attempted, "ratio"),
    }


PER_LAYER_UNITS = {"_s": "s", "_ratio": "ratio", "_bytes": "bytes"}


def per_layer(passes):
    """Per-layer metrics: the median over passes of each pass total.
    trace.overhead_s sums, over a pass, each traced job's time minus that of
    its untraced twin run just before it."""
    traced_passes, plain_passes = split(passes, True), split(passes, False)
    per_pass = []
    for p in traced_passes:
        totals = {}
        for r in p:
            for name, value in r["layers"].items():
                totals[name] = totals.get(name, 0) + value
        per_pass.append(tracing.layer_metrics(totals))
    metrics = {}
    for name in per_pass[0]:
        unit = next((u for suffix, u in PER_LAYER_UNITS.items() if name.endswith(suffix)), "count")
        metrics[name] = (statistics.median(m[name] for m in per_pass), unit)
    metrics["trace.job_s"] = (statistics.median(pass_wall(p) for p in traced_passes), "s")
    metrics["trace.overhead_s"] = (statistics.median(
        pass_wall(t) - pass_wall(u) for t, u in zip(traced_passes, plain_passes)
    ), "s")
    return metrics


def write_spans(path, records):
    """Spans of one traced pass, one JSON line per job: the job id (its key),
    then [name, start_us, end_us, parent] per span, times in microseconds from
    the job's first span."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            spans = r["spans"]
            t0 = spans[0][1] if spans else 0.0
            fh.write(json.dumps({"job": r["key"], "spans": [
                [name, round((start - t0) * 1e6), round((end - t0) * 1e6), parent]
                for name, start, end, parent in spans
            ]}, separators=(",", ":")) + "\n")


def git_revision():
    """HEAD of a git checkout at ROOT, read from .git without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "shfc")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def provenance(args, jobs):
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "nproc_available": len(os.sched_getaffinity(0)),
        "jobs": [{"key": j.key, "argv": ["shfc", *j.argv]} for j in jobs],
    }


def summarize(metrics, counts, shares=None):
    lines = []
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:40s} {value:14.6g} {unit:6s} {counts.get(name, '')}")
    if shares:
        lines.append("  share of traced job time:")
        for name, share in shares.items():
            lines.append(f"    {name:38s} {100 * share:6.1f}%")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description="shfc benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "shfc", "cli.py")):
        print(f"perfbench: no shfc sources at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    env = job_env()
    os.environ.update({var: "1" for var in THREAD_VARS})  # before numpy loads
    sys.path.insert(0, SRC)

    jobs = workloads.plan(args.workload, args.seed)
    work_dir = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    spare_dir = work_dir + "-spare"
    try:
        # The first set-up writes the jobs' files. It is the run's coldest,
        # so it is kept apart from setup_s; the timed ones write elsewhere.
        first_setup = setup(args.workload, args.seed, work_dir, env)
        clock = SetupClock(args.seconds, lambda: setup(args.workload, args.seed, spare_dir, env))
        import shfc.cli  # noqa: F401  (jobs fork from here with shfc loaded)

        golden = checks.load_golden()
        all_passes = []
        while True:
            all_passes.append(run_pass(
                jobs, args.seed, len(all_passes), bool(args.trace), work_dir, golden, clock,
                keep_spans=args.trace and not all_passes,
            ))
            average = clock.pass_seconds / len(all_passes)
            if clock.pass_seconds + average > args.seconds:  # next pass would overrun
                break
        clock.finish()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        shutil.rmtree(spare_dir, ignore_errors=True)

    setup_times = clock.times
    plain = split(all_passes, False)
    attempted = sum(len(p) for p in all_passes)
    failed = sum(1 for p in all_passes for r in p if r["problems"])
    e2e = end_to_end(setup_times, plain, attempted, failed)
    sample_counts = {
        "setup_s": f"median of {len(setup_times)} set-ups after a first, cold one",
        "wall_s": f"sum over {len({j.kind for j in jobs})} job kinds of the slowest of {len(plain)} passes",
        "slowest_job_s": f"max over {len({j.kind for j in jobs})} job kinds of the slowest of {len(plain)} passes",
        "peak_rss_mb": f"max over {attempted} job processes",
        "ok_ratio": f"{attempted - failed} of {attempted} jobs right",
    }
    shares = None
    if args.trace:
        metrics = per_layer(all_passes)
        job_s = metrics["trace.job_s"][0]
        shares = {
            name: value / job_s
            for name, (value, unit) in metrics.items()
            if unit == "s" and not name.startswith("trace.") and job_s > 0
        }
        rank = metrics["modules.rank_fp_s"][0] + metrics["modules.rank_qq_s"][0]
        resolve = sum(metrics[n][0] for n in (
            "groebner.syzygies_s", "groebner.mingens_s", "resolutions.minimize_s"))
        shares["rank_fp+rank_qq"] = rank / job_s if job_s else 0.0
        shares["syzygies+mingens+minimize"] = resolve / job_s if job_s else 0.0
        per_pass_note = f"median of {len(all_passes)} passes, each job untraced then traced"
        sample_counts.update({name: per_pass_note for name in metrics})
    else:
        metrics = e2e

    prov = provenance(args, jobs)
    record = {
        "provenance": prov,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": sample_counts,
        "first_setup_seconds": first_setup,
        "setup_seconds": setup_times,
        "passes": [
            [{k: r[k] for k in ("key", "argv", "seconds", "rss_kb", "problems", "traced")} for r in p]
            for p in all_passes
        ],
    }
    results_dir = os.path.join(HERE, "results")
    os.makedirs(results_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    with open(os.path.join(results_dir, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        write_spans(os.path.join(results_dir, stem + ".spans.jsonl"), split(all_passes[:1], True)[0])

    for p in all_passes:
        for r in p:
            for problem in r["problems"]:
                print(f"perfbench: WRONG {r['key']}: {problem}", file=sys.stderr)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}:", file=sys.stderr)
    print(summarize(metrics, sample_counts, shares), file=sys.stderr)
    print(json.dumps({"provenance": prov}, separators=(",", ":")))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
