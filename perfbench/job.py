"""Run one benchmark job in this fresh interpreter.

    python job.py SPEC.json OUT.json

SPEC holds ``{"steps": [...], "trace": bool}`` (steps as built by
``workloads.make_job``). The first thing done is ``import recurra.cli``;
the monotonic time at which it returns is written to OUT together with
each step's result, so the parent can measure set-up from spawn. An empty
step list makes a set-up probe.
"""
import sys
import time


def main(spec_path: str, out_path: str) -> int:
    t0 = time.monotonic()
    import recurra.cli
    import_done = time.monotonic()

    import io
    import json
    import os
    from contextlib import redirect_stderr, redirect_stdout

    with open(spec_path) as f:
        spec = json.load(f)
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    sequences = recurra.sequences
    results = []
    for step in spec["steps"]:
        if step["kind"] == "cli":
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = recurra.cli.main(step["argv"])
            results.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
        elif step["kind"] == "ogf":
            report = sequences.verify_ogf(step["order"])
            results.append({"passed": report.passed, "order": report.order})
        elif step["kind"] == "oracle":
            values = [sequences.orbit_count_oracle(n, k) for n, k in step["args"]]
            results.append({"values": values})
        else:
            raise ValueError(f"unknown step kind {step['kind']!r}")

    doc = {
        "pid": os.getpid(),
        "import_done": import_done,
        "import_s": import_done - t0,
        "recurra_file": recurra.__file__,
        "results": results,
        "trace": tracer.export() if tracer else None,
    }
    with open(out_path, "w") as f:
        json.dump(doc, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
