"""Command-line interface.

Subcommands: validate, invariants, rulings, poly, verify, moves, stabilize,
pd.  Output is deterministic byte-for-byte for fixed inputs, flags and seed;
timing fields are only emitted under ``--timings``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import __version__
from .diagram import from_oriented_front, pd_export, pd_import
from .errors import FrontError
from .front import (
    FrontWord,
    Move,
    all_orientations,
    apply_move,
    components,
    invariants,
    orient,
    parse_front_file,
    random_move_sequence,
    stabilize,
)
from .legskein import evaluate_B
from .poly import render_poly1, render_poly2
from .rulings import enumerate_rulings, oriented_ruling_polynomial, ruling_polynomial
from .toposkein import B_of, Q_of, homfly_H, kauffman_D, sharpness

CROSSING_CAP = 14


def _load_front(path: str):
    text = Path(path).read_text()
    word, flags = parse_front_file(text)
    return word, flags


def _oriented(word: FrontWord, flags):
    return orient(word, flags or None)


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _check_cap(n_crossings: int, force: bool) -> None:
    if n_crossings > CROSSING_CAP and not force:
        raise FrontError(
            f"input has {n_crossings} crossings (cap {CROSSING_CAP}); rerun with --force"
        )


def cmd_validate(args) -> int:
    word, flags = _load_front(args.path)
    _emit(
        {
            "ok": True,
            "letters": len(word.letters),
            "crossings": word.num_crossings,
            "left_cusps": word.num_left_cusps,
            "components": components(word).n_components,
            "orient_flags": {str(k): "+" if v else "-" for k, v in flags.items()},
        }
    )
    return 0


def cmd_invariants(args) -> int:
    word, flags = _load_front(args.path)
    _emit(invariants(_oriented(word, flags)).as_dict())
    return 0


def cmd_rulings(args) -> int:
    word, flags = _load_front(args.path)
    of = _oriented(word, flags)
    poly = (
        oriented_ruling_polynomial(of) if args.oriented else ruling_polynomial(word)
    )
    out = {
        "count": sum(poly.terms.values()),
        "polynomial": render_poly1(poly),
    }
    if args.list:
        rulings = enumerate_rulings(
            word, oriented=args.oriented, oriented_front=of if args.oriented else None
        )
        out["rulings"] = sorted([list(r.switches) for r in rulings])
    _emit(out)
    return 0


def cmd_poly(args) -> int:
    if args.path.endswith(".pd"):
        d = pd_import(Path(args.path).read_text())
        _check_cap(d.n_crossings, args.force)
        if args.which == "kauffman":
            _emit({"kauffman": render_poly2(kauffman_D(d))})
            return 0
        if args.which == "homfly":
            _emit({"homfly": render_poly2(homfly_H(d))})
            return 0
        raise FrontError(f"--which {args.which} needs a .front input")
    word, flags = _load_front(args.path)
    _check_cap(word.num_crossings, args.force)
    of = _oriented(word, flags)
    if args.which == "ruling":
        out = render_poly1(ruling_polynomial(word))
    elif args.which == "oruling":
        out = render_poly1(oriented_ruling_polynomial(of))
    elif args.which == "B-leg":
        trace = [] if args.trace else None
        out = render_poly1(evaluate_B(word, trace=trace))
        if args.trace:
            with open(args.trace, "w") as fh:
                for entry in trace:
                    fh.write(json.dumps(entry, sort_keys=True) + "\n")
    elif args.which == "B-topo":
        out = render_poly1(B_of(of))
    elif args.which == "Q":
        out = render_poly1(Q_of(of))
    elif args.which == "kauffman":
        out = render_poly2(kauffman_D(from_oriented_front(of)))
    elif args.which == "homfly":
        out = render_poly2(homfly_H(from_oriented_front(of)))
    else:
        raise FrontError(f"unknown polynomial {args.which!r}")
    _emit({args.which: out})
    return 0


def _verify_front(word: FrontWord, flags, timings: bool) -> dict:
    ms = dict.fromkeys(("sweep", "rewrite", "skein"), 0.0)

    def timed(route, fn, *args):
        t = time.perf_counter()
        value = fn(*args)
        ms[route] += time.perf_counter() - t
        return value

    t0 = time.perf_counter()
    # all_orientations lists the default orientation first.
    orientations = all_orientations(word) if components(word).n_components <= 2 else None
    default = orientations[0] if orientations else orient(word)
    inv = invariants(_oriented(word, flags) if flags else default)
    R = timed("sweep", ruling_polynomial, word)
    B_leg = timed("rewrite", evaluate_B, word)
    # One skein tree per polynomial: the report's B and Q are [a^(c-1)] of D
    # and of H under the default orientation.
    rep = timed("skein", sharpness, default)
    record: dict = {
        "beta": inv.beta,
        "R": render_poly1(R),
        "B_leg": render_poly1(B_leg),
        "B_topo": render_poly1(rep.B),
        "agree_3_1": R == B_leg == rep.B,
        "kauffman_sharp": rep.kauffman_sharp,
        "homfly_sharp": rep.homfly_sharp,
    }
    if orientations:
        # Reversing every component changes neither H (HOMFLY is invariant
        # under global reversal, and the writhe is unchanged) nor the oriented
        # ruling polynomial (the sweep reads directions only by comparing two
        # strands').  So each reversal pair is evaluated once, on the
        # orientation with choices[0] true.
        by_choices = {of.choices: of for of in orientations}
        values: dict = {}
        oriented_records = []
        agree_4_1 = True
        for of in orientations:
            key = of.choices if of.choices[0] else tuple(not c for c in of.choices)
            if key not in values:
                pair = by_choices[key]
                OR = timed("sweep", oriented_ruling_polynomial, pair)
                Q = rep.Q if all(key) else timed("skein", Q_of, pair)
                values[key] = (OR, Q)
            OR, Q = values[key]
            agree_4_1 = agree_4_1 and OR == Q
            oriented_records.append(
                {
                    "choices": "".join("+" if c else "-" for c in of.choices),
                    "OR": render_poly1(OR),
                    "Q": render_poly1(Q),
                }
            )
        record["oriented"] = oriented_records
        record["agree_4_1"] = agree_4_1
    if timings:
        ms["total"] = time.perf_counter() - t0
        record["ms"] = {route: round(1000 * s, 1) for route, s in ms.items()}
    return record


def cmd_verify(args) -> int:
    corpus = Path(args.corpus)
    paths = sorted(corpus.glob("*.front"))
    if not paths:
        raise FrontError(f"no .front files in {corpus}")
    report = {"schema": 1, "theorem": args.theorem, "fronts": {}}
    all_ok = True
    for path in paths:
        word, flags = parse_front_file(path.read_text())
        _check_cap(word.num_crossings, args.force)
        record = _verify_front(word, flags, args.timings)
        front_ok = True
        if args.theorem in ("3.1", "corollaries"):
            front_ok = front_ok and record["agree_3_1"]
        if args.theorem == "4.1":
            front_ok = front_ok and record.get("agree_4_1", True)
        if args.theorem == "corollaries":
            if record["homfly_sharp"] and not record["kauffman_sharp"]:
                front_ok = False
        record["ok"] = front_ok
        all_ok = all_ok and front_ok
        report["fronts"][path.stem] = record
    report["all_agree"] = all_ok
    _emit(report)
    return 0 if all_ok else 1


def _parse_move(text: str) -> Move:
    parts = text.split(",")
    rule, _, site = parts[0].partition("@")
    inverse = "inverse" in parts[1:]
    m = None
    for p in parts[1:]:
        if p.startswith("m="):
            m = int(p[2:])
    return Move(rule, int(site), inverse, m)


def cmd_moves(args) -> int:
    word, _ = _load_front(args.path)
    if args.apply:
        mv = _parse_move(args.apply)
        word = apply_move(word, mv.rule, mv.site, inverse=mv.inverse, m=mv.m)
        applied = [mv.as_str()]
    else:
        word, moves = random_move_sequence(word, args.random, args.seed)
        applied = [mv.as_str() for mv in moves]
    _emit({"front": word.render(), "applied": applied})
    return 0


def cmd_stabilize(args) -> int:
    word, _ = _load_front(args.path)
    gap, _, pos = args.site.partition(":")
    word = stabilize(word, int(gap), int(pos), args.flavor)
    _emit({"front": word.render()})
    return 0


def cmd_pd(args) -> int:
    word, flags = _load_front(args.path)
    sys.stdout.write(pd_export(from_oriented_front(_oriented(word, flags))))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="frontinv",
        description="Invariants of Legendrian front diagrams given as tangle words.",
    )
    ap.add_argument("--version", action="version", version=f"frontinv {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a .front file")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("invariants", help="classical invariants as JSON")
    p.add_argument("path")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("rulings", help="enumerate rulings and their polynomial")
    p.add_argument("path")
    p.add_argument("--oriented", action="store_true")
    p.add_argument("--list", action="store_true")
    p.set_defaults(func=cmd_rulings)

    p = sub.add_parser("poly", help="compute one of the polynomials")
    p.add_argument("path")
    p.add_argument(
        "--which",
        required=True,
        choices=["ruling", "oruling", "B-leg", "B-topo", "Q", "kauffman", "homfly"],
    )
    p.add_argument("--trace", help="write the reduction trace (B-leg) as JSON lines")
    p.add_argument("--force", action="store_true", help="ignore the crossing cap")
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("verify", help="run the identity suite over a corpus directory")
    p.add_argument("corpus")
    p.add_argument("--theorem", default="3.1", choices=["3.1", "4.1", "corollaries"])
    p.add_argument("--timings", action="store_true")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("moves", help="apply Legendrian moves")
    p.add_argument("path")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--apply", help="rule@site[,inverse][,m=K]")
    g.add_argument("--random", type=int, help="apply N random moves")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_moves)

    p = sub.add_parser("stabilize", help="insert a zig-zag")
    p.add_argument("path")
    p.add_argument("--site", required=True, help="GAP:POS")
    p.add_argument("--flavor", default="down", choices=["up", "down"])
    p.set_defaults(func=cmd_stabilize)

    p = sub.add_parser("pd", help="export the PD code of Top(K)")
    p.add_argument("path")
    p.set_defaults(func=cmd_pd)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FrontError as exc:
        sys.stderr.write(f"error [{exc.code}]: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"error [IO_ERROR]: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
