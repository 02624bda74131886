#!/usr/bin/env python3
"""Regenerate the expected-value fixtures for the corpus.

Every ruling-related value is produced by the exhaustive 2**cr filter through
the direct condition checker (`is_ruling`), never by the sweep or by either
skein evaluator, so the fixtures stay independent of the code paths they
verify.  Classical invariants come from the front module.

Usage: python3 tools/generate_fixtures.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from frontinv.front import all_orientations, components, invariants, parse_front_file
from frontinv.poly import LaurentPoly
from frontinv.rulings import enumerate_rulings_bruteforce


def polynomial_of(rulings, c: int) -> str:
    terms: dict[int, int] = {}
    for r in rulings:
        e = len(r.switches) - c + 1
        terms[e] = terms.get(e, 0) + 1
    return str(LaurentPoly(terms))


def fixture_json(front_file_text: str) -> str:
    """The expected-value fixture of one ``.front`` file, as written to disk."""
    word, _ = parse_front_file(front_file_text)
    c = word.num_left_cusps
    plain = enumerate_rulings_bruteforce(word)
    record = {
        "front": word.render(),
        "generated_by": "tools/generate_fixtures.py: exhaustive switch-set "
        "enumeration through the direct ruling checker",
        "c": c,
        "cr": word.num_crossings,
        "components": components(word).n_components,
        "rulings": sorted([list(r.switches) for r in plain]),
        "ruling_polynomial": polynomial_of(plain, c),
        "orientations": {},
    }
    for of in all_orientations(word):
        key = "".join("+" if b else "-" for b in of.choices)
        oriented = enumerate_rulings_bruteforce(word, of)
        inv = invariants(of)
        record["orientations"][key] = {
            "w": inv.w,
            "beta": inv.beta,
            "r": inv.r,
            "oriented_rulings": sorted([list(r.switches) for r in oriented]),
            "oriented_polynomial": polynomial_of(oriented, c),
        }
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def main() -> int:
    corpus = ROOT / "corpus"
    outdir = corpus / "expected"
    outdir.mkdir(exist_ok=True)
    for path in sorted(corpus.glob("*.front")):
        out = outdir / f"{path.stem}.json"
        out.write_text(fixture_json(path.read_text()))
        print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
