#!/usr/bin/env python3
"""Time split of ``check_front`` between the three routes on one bench family.

    python3 tools/route_split.py --workload verify-braids --seed 1 --repeat 3

Builds the workload's seeded fronts with ``bench/workloads.py`` (read only),
runs ``check_front(word, timings=True)`` on each of them ``--repeat`` times,
and prints the totals over the family of the sweep, rewrite and skein times
and of the whole call, in ms.  Each column is its best (least) total over the
repeats.  All repeats run in one process, so the package's ``lru_cache``
tables are warm after the first.  ``sweep-wide`` is not offered: its fronts
are far past the skein tree's reach.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

from frontinv.check import check_front
from frontinv.front import parse_front
from workloads import rewrite_scrambled, verify_braids

FAMILIES = {"verify-braids": verify_braids, "rewrite-scrambled": rewrite_scrambled}
COLUMNS = ("sweep", "rewrite", "skein", "total")


def route_totals(words) -> dict[str, float]:
    """Per-route ms summed over ``words``, one ``check_front`` each."""
    totals = dict.fromkeys(COLUMNS, 0.0)
    for word in words:
        for route, ms in check_front(word, timings=True)["ms"].items():
            totals[route] += ms
    return totals


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(FAMILIES), default="verify-braids")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--repeat", type=int, default=3)
    args = p.parse_args(argv)
    if args.repeat < 1:
        p.error("--repeat must be at least 1")
    words = [parse_front(f.text) for f in FAMILIES[args.workload](args.seed, ROOT)]
    runs = [route_totals(words) for _ in range(args.repeat)]
    best = {col: min(run[col] for run in runs) for col in COLUMNS}
    print(f"{args.workload} seed {args.seed}: {len(words)} fronts, best of {args.repeat} (ms)")
    for col in COLUMNS:
        print(f"{col:>8} {best[col]:9.1f}  {100 * best[col] / best['total']:5.1f} %")
    return 0


if __name__ == "__main__":
    sys.exit(main())
