"""The recurra benchmark: one workload, one seed, a closed loop of cold jobs.

    python3 perfbench/run.py --workload proof-sweep --seed 1 --seconds 35 --trace 0

Run it from the root of a checkout; it imports ``recurra`` from ``src/``.
One client runs jobs one after another for ``--seconds`` seconds. Each job
is a fresh interpreter (``job.py``), so every process-global cache in
``recurra`` starts cold, as it does for a CLI user. Outputs are checked
after the measured loop against the benchmark's own reference values.

``--trace 0`` reports the end-to-end metrics.
``--trace 1`` alternates untraced and traced jobs and reports per-layer
metrics from the traced ones (see ``tracer.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Readable lines
before it give each metric's median, quartiles and sample count, and the
failure ratio. The full record, with a machine fingerprint and every
job's argv, goes to ``.perfbench/<workload>-seed<seed>-trace<t>.json``.
Exit status 2, with no result, means the program could not be set up.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
JOB = HERE / "job.py"

#: Import-only probes per run; ``setup_s`` is their median with the jobs'.
SETUP_PROBES = 16
JOB_TIMEOUT_S = 60.0
END_TO_END = {"job_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
#: Nominal duration of ``calibrate()``; every ``_s`` metric is scaled to it.
CALIBRATION_REF_S = 0.6


def calibrate() -> float:
    """Seconds this process takes for a fixed mix of big-integer Bareiss
    elimination and small ``Fraction`` sums, the program's two kinds of work.

    The machine is shared: its speed for this work changes by up to 2x
    within a minute. Timing this loop between jobs gives the speed each job
    ran at.
    """
    rng = random.Random(0)
    n = 32
    m = [[rng.getrandbits(256) for _ in range(n)] for _ in range(n)]
    t0 = time.perf_counter()
    prev = 1
    for k in range(n - 1):
        pivot, top = m[k][k], m[k]
        for row in m[k + 1:]:
            head = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - head * top[j]) // prev
        prev = pivot
    acc = Fraction(0)
    for i in range(1, 30000):
        acc += Fraction(1, i) * Fraction(i % 7 + 1, 3)
        if acc.denominator > 10**30:
            acc = Fraction(acc.numerator % 1000, 7)
    return time.perf_counter() - t0


def _scale(calibrations: list[float]) -> float:
    return CALIBRATION_REF_S / statistics.fmean(calibrations)


class SetupError(RuntimeError):
    """The program under test cannot be imported from this checkout."""


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def fingerprint(args) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "git_commit": commit,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_start": os.getloadavg(),
    }


class Runner:
    """Spawns jobs one at a time and measures each from spawn to exit."""

    def __init__(self, work: Path):
        self.work = work
        self.count = 0
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
        )

    def run(self, steps: list[dict], trace: bool = False) -> dict:
        self.count += 1
        spec = self.work / f"job{self.count}.spec.json"
        out = self.work / f"job{self.count}.out.json"
        log = self.work / f"job{self.count}.log"
        spec.write_text(json.dumps({"steps": steps, "trace": trace}))
        argv = [sys.executable, str(JOB), str(spec), str(out)]
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        with open(log, "wb") as logf:
            t0 = time.monotonic()
            proc = subprocess.Popen(argv, stdout=logf, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=ROOT)
            pidfd = os.pidfd_open(proc.pid)
            try:
                timed_out = not select.select([pidfd], [], [], JOB_TIMEOUT_S)[0]
                if timed_out:
                    proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                t1 = time.monotonic()
            except BaseException:  # interrupted: leave no job running
                proc.kill()
                proc.wait()
                raise
            finally:
                os.close(pidfd)
        proc.returncode = os.waitstatus_to_exitcode(status)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        job = {
            "argv": argv,
            "steps_argv": [s.get("argv", [s["kind"]]) for s in steps],
            "traced": trace,
            "exit": proc.returncode,
            "job_s": t1 - t0,
            "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
            "peak_rss_mb": usage.ru_maxrss / 1024,
        }
        if timed_out or proc.returncode != 0 or not out.is_file():
            tail = log.read_text(errors="replace")[-2000:]
            job["error"] = "timeout" if timed_out else f"exit {proc.returncode}: {tail}"
            return job
        doc = json.loads(out.read_text())
        if Path(doc["recurra_file"]).resolve().parent.parent != SRC:
            raise SetupError(f"recurra was imported from {doc['recurra_file']}, not {SRC}")
        job.update(pid=doc["pid"], setup_s=doc["import_done"] - t0,
                   import_s=doc["import_s"], results=doc["results"], trace=doc["trace"])
        return job


def measure(args, runner: Runner, steps: list[dict], calibrations: list[float]) -> list[dict]:
    """The closed loop: jobs back to back until ``--seconds`` have passed.

    With tracing, jobs come in untraced/traced pairs whose order alternates.
    The machine speed is sampled after every job, so each job is scaled by
    the mean of the calibrations just before and after it.
    """
    jobs = []
    deadline = time.monotonic() + args.seconds
    while not jobs or time.monotonic() < deadline or len(jobs) % (1 + args.trace):
        k = len(jobs)
        traced = bool(args.trace) and (k % 2 == 1) != (k // 2 % 2 == 1)
        job = runner.run(steps, trace=traced)
        calibrations.append(calibrate())
        job["scale"] = _scale(calibrations[-2:])
        jobs.append(job)
    return jobs


def check(jobs: list[dict], steps: list[dict], checker: workloads.Checker) -> list[str]:
    """Mark each job ok or not; return run-level problems."""
    problems = []
    for job in jobs:
        if "error" not in job:
            for step, result in zip(steps, job["results"]):
                why = checker.check(step, result)
                if why:
                    job["error"] = f"{step.get('argv', step['kind'])}: {why}"
                    break
        job["ok"] = "error" not in job
    pids = [job["pid"] for job in jobs if "pid" in job]
    if len(set(pids)) != len(pids):
        problems.append("two jobs shared a PID, so a job did not start cold")
    return problems


def end_to_end(jobs: list[dict], probes: list[dict]) -> dict:
    return {
        "job_s": [j["job_s"] * j["scale"] for j in jobs],
        "cpu_s": [j["cpu_s"] * j["scale"] for j in jobs],
        "peak_rss_mb": [j["peak_rss_mb"] for j in jobs],
        "setup_s": [j["setup_s"] * j["scale"] for j in probes + jobs if "setup_s" in j],
    }


def per_layer(jobs: list[dict], problems: list[str]) -> dict:
    traced = [j for j in jobs if j["traced"] and j["ok"]]
    plain = [j["job_s"] * j["scale"] for j in jobs if not j["traced"] and j["ok"]]
    if not traced or not plain:
        problems.append("no successful traced and untraced job pair")
        return {}
    rows = []
    for j in traced:
        row = tracer.summarize(j["trace"], j["job_s"], j["setup_s"], j["import_s"])
        rows.append({k: v * j["scale"] if k.endswith("_s") else v for k, v in row.items()})
    counts = {name: {row[name] for row in rows} for name in tracer.COUNTS}
    unsteady = sorted(name for name, seen in counts.items() if len(seen) > 1)
    if unsteady:
        problems.append(f"counts differ between traced jobs: {unsteady}")
    stats = {name: [row[name] for row in rows] for name in rows[0]}
    stats["trace.overhead_s"] = [
        statistics.median(j["job_s"] * j["scale"] for j in traced) - statistics.median(plain)
    ]
    return stats


def unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    if "bits" in name:
        return "bits"
    return "1" if name == "trace.coverage" else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "recurra" / "__init__.py").is_file():
        print(f"error: no recurra package under {SRC}", file=sys.stderr)
        return 2
    fp = fingerprint(args)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        runner = Runner(work)
        steps = workloads.make_job(args.workload, args.seed, work)
        checker = workloads.Checker()
        problems = [p for p in [checker.check_inputs(work)] if p]
        warm = runner.run([])  # compiles bytecode; not measured
        if "error" in warm:
            raise SetupError(warm["error"])
        calibrations = [calibrate()]
        probes = [runner.run([]) for _ in range(SETUP_PROBES)]
        if any("error" in p for p in probes):
            raise SetupError(next(p["error"] for p in probes if "error" in p))
        calibrations.append(calibrate())
        for probe in probes:
            probe["scale"] = _scale(calibrations)
        jobs = measure(args, runner, steps, calibrations)
    except SetupError as e:
        print(f"error: cannot set up recurra: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems += check(jobs, steps, checker)
    failed = sum(not j["ok"] for j in jobs)
    if args.trace:
        stats = per_layer(jobs, problems)
    else:
        stats = end_to_end(jobs, probes)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"jobs {len(jobs)}  setup probes {len(probes)}")
    print(f"fail_ratio {failed}/{len(jobs)} = {failed / len(jobs):.4g}")
    for job in jobs:
        if not job["ok"]:
            print(f"FAILED job: {job['error'][:500]}")
    for p in problems:
        print(f"PROBLEM: {p}")
    unscaled = {
        "job_s": statistics.median(j["job_s"] for j in jobs),
        "cpu_s": statistics.median(j["cpu_s"] for j in jobs),
        "setup_s": statistics.median(j["setup_s"] for j in probes + jobs if "setup_s" in j),
    }
    print(f"calibration median {statistics.median(calibrations):.6g} s over "
          f"{len(calibrations)}; each job's _s metrics are multiplied by "
          f"{CALIBRATION_REF_S} s / the mean calibration around it")
    print("unscaled medians: " + ", ".join(f"{k} {v:.6g} s" for k, v in unscaled.items()))
    summary = {}
    for name, values in stats.items():
        # A count repeats exactly (checked above), so report it as measured.
        q1, med, q3 = (values[0],) * 3 if name in tracer.COUNTS else _quartiles(values)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "n": len(values), "unit": unit(name)}
        print(f"{name:28s} {med:14.6g} {unit(name):5s}  q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")

    fp["loadavg_end"] = os.getloadavg()
    record = {
        "fingerprint": fp,
        "samples": {"jobs": len(jobs), "setup_probes": len(probes)},
        "fail_ratio": failed / len(jobs),
        "calibrations": calibrations,
        "unscaled_medians": unscaled,
        "problems": problems,
        "metrics": summary,
        "jobs": [{k: v for k, v in j.items() if k not in ("results", "trace")} for j in jobs],
        "steps": steps,
    }
    traced = [j for j in jobs if j.get("trace")]
    if traced:
        record["spans_of_last_traced_job"] = traced[-1]["trace"]["spans"]
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str)
    )
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": s["median"], "unit": s["unit"]} for name, s in summary.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
