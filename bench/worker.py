"""One pass of a workload, in a fresh interpreter.

Reads a job (JSON on stdin), imports frontinv and parses every front once,
prints ``ready`` (the parent's clock for set-up time stops there), then runs
the operation on each front in order, timing each call.  The last line of
standard output is a JSON object with the per-front times and outputs, the
pass time and the peak resident memory; with tracing on it also holds the
per-layer totals.  Outputs are converted after each timed call, outside it.

Started by ``bench/run.py``, one process per pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    job = json.loads(sys.stdin.read())
    sys.path.insert(0, job["src"])

    from frontinv import cli
    from frontinv.front import orient, parse_front, parse_front_file
    from frontinv.legskein import evaluate_B
    from frontinv.rulings import oriented_ruling_polynomial, ruling_polynomial

    workload = job["workload"]
    names = [name for name, _ in job["fronts"]]
    if workload == "verify-braids":
        # `frontinv verify DIR` in process, one front per directory.
        dirs = [str(Path(job["workdir"]) / f"{i:03d}") for i in range(len(names))]
        for d in dirs:
            parse_front_file((Path(d) / "front.front").read_text())

        def op(i):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(["verify", dirs[i]])
            return {"rc": rc, "stdout": buf.getvalue()}

    else:
        words = [parse_front(text) for _, text in job["fronts"]]
        if workload == "rewrite-scrambled":

            def op(i):
                return {"B": evaluate_B(words[i])}

        else:

            def op(i):
                return {"R": ruling_polynomial(words[i]),
                        "OR": oriented_ruling_polynomial(orient(words[i]))}

    sys.stdout.write("ready\n")
    sys.stdout.flush()

    tracer = contextlib.nullcontext()
    if job["trace"]:
        from layers import LayerTracer

        tracer = LayerTracer()
    times, raw = [], []
    with tracer:
        t_pass = time.perf_counter()
        for i in range(len(names)):
            t0 = time.perf_counter()
            try:
                out = op(i)
            except Exception as exc:  # a failed operation is counted, not fatal
                out = {"error": f"{type(exc).__name__}: {exc}"}
            times.append(time.perf_counter() - t0)
            raw.append(out)
        pass_s = time.perf_counter() - t_pass
    outputs = {
        name: {k: v if isinstance(v, (int, str)) else v.terms for k, v in out.items()}
        for name, out in zip(names, raw)
    }
    result = {
        "times": times,
        "outputs": outputs,
        "pass_s": pass_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if job["trace"]:
        result["layers"] = tracer.metrics()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
