"""frontinv benchmark: three workloads over seeded front families.

    python3 bench/run.py --workload verify-braids --seed 1 --seconds 40 --trace 0

The package is imported from the checkout's ``src/``.  A run is made of whole
passes over the workload's fixed, seeded list of fronts.  Each pass runs in a
fresh interpreter (``worker.py``), one at a time and on one thread, as
``frontinv verify`` runs for a user: nothing cached in one pass helps the
next.  A new pass starts while it is expected to end within ``--seconds``;
an untraced run makes at least MIN_PASSES passes.

Each front's time is its best over the run's passes.  On the 2-core host this
was built on, the speed of a core flips between a fast state and one about
1.4x slower every few seconds, for stretches of up to minutes; a front's best
time does not depend on how much of the run fell in the slow state, a mean or
median over passes does.

Untraced (``--trace 0``) the last line reports the end-to-end metrics:

* ``setup_s``: from starting the worker to its first timed call (interpreter
  start, ``import frontinv``, every front parsed once); median over passes.
* ``fronts_per_s``: fronts per second, each front at its best time.
* ``front_ms_p50``: median over fronts of the per-front time.
* ``front_ms_tail``: per-front time at the highest percentile that has at
  least 10 fronts beyond it; the percentile and the sample count are printed
  above the result.
* ``peak_rss_mb``: peak resident memory of a worker; median over passes.

Traced (``--trace 1``) the last line reports the per-layer metrics of
``layers.py``, averaged per front.  Every output is checked after its pass,
outside the timed calls (``workloads.Checker``).  An operation fails when its
check fails or it raises; ``correct`` is false when any operation other than a
named fault front fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PASS_TIMEOUT_S = 150
MIN_PASSES = 3


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_pass(job: dict) -> dict:
    """Start one worker, feed it the job, time its set-up, collect its result."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    watchdog = threading.Timer(PASS_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        proc.stdin.write(json.dumps(job))
        proc.stdin.close()
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode} ({'in' if ready else 'before'} its pass)")
    result = json.loads(rest.splitlines()[-1])
    result["setup_s"] = setup_s
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "frontinv" / "__init__.py").is_file():
        sys.stderr.write(f"error: no frontinv package under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    from layers import METRICS
    from workloads import GENERATORS, Checker

    if args.workload not in GENERATORS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; one of {', '.join(GENERATORS)}\n")
        return 2
    fronts = GENERATORS[args.workload](args.seed, ROOT)
    checker = Checker(fronts)
    job = {
        "src": str(SRC),
        "workload": args.workload,
        "fronts": [(f.name, f.text) for f in fronts],
        "trace": bool(args.trace),
    }
    workdir = None
    if args.workload == "verify-braids":
        workdir = BENCH / ".work" / f"{args.workload}-{args.seed}-{time.time_ns()}"
        job["workdir"] = str(workdir)

    min_passes = 1 if args.trace else MIN_PASSES
    passes = []
    attempted = failed = 0
    failing: set[str] = set()
    try:
        if workdir is not None:
            for i, f in enumerate(fronts):
                (workdir / f"{i:03d}").mkdir(parents=True)
                (workdir / f"{i:03d}" / "front.front").write_text(f.text + "\n")
        t_start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            result = run_pass(job)
            last = time.perf_counter() - t0
            passes.append(result)
            ok = checker.check_pass(result["outputs"])
            attempted += len(ok)
            failed += sum(1 for passed in ok.values() if not passed)
            failing |= {name for name, passed in ok.items() if not passed}
            elapsed = time.perf_counter() - t_start
            if len(passes) >= min_passes and elapsed + last > args.seconds:
                break
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
            with contextlib.suppress(OSError):
                workdir.parent.rmdir()

    unexpected = sorted(name for name in failing if not checker.fronts[name].fault)
    n = len(fronts)
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes of {n} fronts")
    for name in sorted(failing):
        print(f"failed: {name} ({'named fault' if checker.fronts[name].fault else 'UNEXPECTED'})")
    print(f"median pass: {statistics.median(n / p['pass_s'] for p in passes):.4f} fronts/s")
    if args.trace:
        totals = {m: sum(p["layers"][m] for p in passes) / (n * len(passes)) for m in METRICS}
        metrics = {m: {"value": v, "unit": "ms" if m.endswith("_ms") else "count"} for m, v in totals.items()}
    else:
        best = [1000.0 * min(p["times"][i] for p in passes) for i in range(n)]
        q = 100.0 * (1.0 - 10.0 / n)
        metrics = {
            "setup_s": {"value": statistics.median(p["setup_s"] for p in passes), "unit": "s"},
            "fronts_per_s": {"value": 1000.0 * n / sum(best), "unit": "1/s"},
            "front_ms_p50": {"value": statistics.median(best), "unit": "ms"},
            "front_ms_tail": {"value": percentile(best, q), "unit": "ms"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_kb"] for p in passes) / 1024.0, "unit": "MB"},
        }
        print(f"front_ms_tail is p{q:.2f} of {n} per-front times, each the best of {len(passes)} passes")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
