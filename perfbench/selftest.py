"""Self-tests of the benchmark itself; run from the root of a checkout:

    python3 perfbench/selftest.py

* every job runs in its own process, so no two jobs share a PID;
* the output checks reject wrong answers, not only accept right ones;
* two traced runs with the same seed report identical per-layer counts,
  on every workload.

Prints one PASS or FAIL line per test; exits 1 if any failed.
"""
from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import tracer
import workloads as w


def _scratch():
    (run.ROOT / ".perfbench").mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=run.ROOT / ".perfbench")


def test_jobs_never_share_a_pid():
    with _scratch() as tmp:
        runner = run.Runner(Path(tmp))
        jobs = [runner.run([]) for _ in range(4)]
    pids = [job["pid"] for job in jobs]
    assert len(set(pids)) == len(pids), pids
    jobs.append(dict(jobs[0]))
    assert run.check(jobs, [], w.Checker()), "a repeated PID went unnoticed"


def test_checks_reject_wrong_outputs():
    checker = w.Checker()
    mutant = [list(p) for p in w.MATHAR]
    mutant[2][1] += 3
    good6 = w.operator_json(w.compose(w.U_OP, w.MATHAR))
    bad6 = w.operator_json(w.compose(w.U_OP, mutant))

    def verdict(expect, **result):
        return checker.check({"expect": expect}, result)

    def cli(stdout, code=0):
        return {"code": code, "stdout": stdout, "stderr": ""}

    proof = "".join(f"check{i}\tPASS\tok\n" for i in range(w.PROOF_LINES))
    assert verdict("proof", **cli(proof)) is None
    assert verdict("proof", **cli(proof.replace("PASS", "FAIL", 1), 1))
    assert verdict("proof", **cli(proof[: proof.rindex("check")]))
    assert verdict("lclm", **cli(good6)) is None
    assert verdict("lclm", **cli(bad6))
    assert verdict("lclm", **cli(w.operator_json(w.MATHAR)))  # order 5, not 6
    basis = w.operator_json(w.MATHAR) * w.GUESS_BASIS_SIZE
    assert verdict("guess-basis", **cli(basis)) is None
    assert verdict("guess-basis", **cli(basis + w.operator_json(w.MATHAR)))  # 65
    one_bad = w.operator_json(mutant) + w.operator_json(w.MATHAR) * (w.GUESS_BASIS_SIZE - 1)
    assert verdict("guess-basis", **cli(one_bad))
    assert verdict("guess-minimal", **cli(w.operator_json(w.MATHAR)))  # order 5
    assert verdict("guess-minimal", **cli(w.operator_json([[0], [0, 1]])))  # c_0 = 0
    assert verdict("mutant-certify", **cli("NOT CERTIFIED: nonzero\n", 1)) is None
    assert verdict("mutant-certify", **cli("CERTIFIED: all vanish\n"))
    assert verdict("mutant-verify", **cli("PASS\n"))
    assert verdict("ogf", passed=True, order=w.OGF_ORDER) is None
    assert verdict("ogf", passed=False, order=w.OGF_ORDER)
    values = [w.a032123(k) for k in w.ORACLE_K] + [w.a005418(n) for n in w.ORACLE_LENGTHS]
    assert verdict("oracle", values=values) is None
    values[3] += 1
    assert verdict("oracle", values=values)
    with _scratch() as tmp:
        Path(tmp, "mutant-0-0.json").write_text(w.operator_json(w.MATHAR))
        assert checker.check_inputs(Path(tmp)), "an unmutated operator went unnoticed"


def test_traced_counts_repeat():
    for workload in w.WORKLOADS:
        counts = []
        for _ in range(2):
            out = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                 "--seed", "7", "--seconds", "1", "--trace", "1"],
                capture_output=True, text=True, check=True, cwd=run.ROOT,
            ).stdout
            result = json.loads(out.strip().splitlines()[-1])
            assert result["correct"], out
            counts.append({k: result["metrics"][k]["value"] for k in tracer.COUNTS})
        assert counts[0] == counts[1], (workload, counts)
        coverage = result["metrics"]["trace.coverage"]["value"]
        assert coverage >= 0.9, (workload, coverage)


def main() -> int:
    failed = 0
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            try:
                test()
                print(f"PASS {name}")
            except AssertionError as e:
                failed += 1
                print(f"FAIL {name}: {e}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
