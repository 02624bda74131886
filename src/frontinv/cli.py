"""Command-line interface.

Subcommands: validate, invariants, rulings, poly, verify, moves, stabilize.
Output is deterministic byte-for-byte for fixed inputs, flags and seed;
timing fields are only emitted under ``--timings``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .check import check_front, front_ok
from .diagram import from_oriented_front
from .errors import BadArgument, FrontError, LimitExceeded
from .front import (
    MOVE_RULES,
    FrontWord,
    Move,
    apply_move,
    components,
    invariants,
    occupancy,
    orient,
    parse_front_file,
    random_move_sequence,
    stabilize,
)
from .legskein import evaluate_B
from .rulings import enumerate_rulings, oriented_ruling_polynomial, ruling_polynomial
from .toposkein import B_of, Q_of, homfly_H, kauffman_D

CROSSING_CAP = 14
# rulings --list refuses a front with more rulings than this; the count
# alone comes from the polynomial at any size.
LIST_LIMIT = 100_000
# moves --random refuses more moves than this; each move rebuilds the word,
# so the time grows with the square of the count.
MOVES_LIMIT = 1_000


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _int_arg(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise BadArgument(f"{what} must be an integer, got {text!r}") from None


def _read_front(path: str | Path) -> tuple[FrontWord, dict[int, bool]]:
    """Parse a ``.front`` file, read as UTF-8 whatever the locale."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse_front_file(text)


def _check_cap(word: FrontWord, force: bool) -> None:
    # The skein routes multiply in a loop factor per crossingless loop, so
    # loops count toward the cap as crossings do.
    comp = components(word)
    crossed = {comp.comp_of[s] for _, pair in occupancy(word).crossing_pairs for s in pair}
    free_loops = comp.n_components - len(crossed)
    if word.num_crossings + free_loops > CROSSING_CAP and not force:
        raise LimitExceeded(
            f"input has {word.num_crossings} crossings and {free_loops} crossingless loops"
            f" (cap {CROSSING_CAP} in all); rerun with --force"
        )


def cmd_validate(args) -> int:
    word, flags = _read_front(args.path)
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
    word, flags = _read_front(args.path)
    _emit(invariants(orient(word, flags))._asdict())
    return 0


def cmd_rulings(args) -> int:
    word, flags = _read_front(args.path)
    of = orient(word, flags) if args.oriented else None
    poly = ruling_polynomial(word) if of is None else oriented_ruling_polynomial(of)
    out = {
        "count": sum(poly.terms.values()),
        "polynomial": str(poly),
    }
    if args.list:
        if out["count"] > LIST_LIMIT:
            raise LimitExceeded(
                f"{out['count']} rulings; --list prints at most {LIST_LIMIT}"
            )
        rulings = enumerate_rulings(word, of)
        out["rulings"] = sorted([list(r.switches) for r in rulings])
    _emit(out)
    return 0


def cmd_poly(args) -> int:
    if args.trace and args.which != "B-leg":
        raise BadArgument(f"--trace needs --which B-leg, not {args.which}")
    word, flags = _read_front(args.path)
    if args.which not in ("ruling", "oruling"):
        # The cap is for the skein routes; the ruling sweep builds no tree.
        _check_cap(word, args.force)
    of = orient(word, flags)
    if args.which == "ruling":
        out = str(ruling_polynomial(word))
    elif args.which == "oruling":
        out = str(oriented_ruling_polynomial(of))
    elif args.which == "B-leg":
        trace = [] if args.trace else None
        out = str(evaluate_B(word, trace=trace))
        if args.trace:
            with open(args.trace, "w") as fh:
                for entry in trace:
                    fh.write(json.dumps(entry, sort_keys=True) + "\n")
    elif args.which == "B-topo":
        out = str(B_of(of))
    elif args.which == "Q":
        out = str(Q_of(of))
    elif args.which == "kauffman":
        out = str(kauffman_D(from_oriented_front(of)))
    else:
        out = str(homfly_H(from_oriented_front(of)))
    _emit({args.which: out})
    return 0


def cmd_verify(args) -> int:
    corpus = Path(args.corpus)
    paths = sorted(corpus.glob("*.front"))
    if not paths:
        raise BadArgument(f"no .front files in {corpus}")
    report = {"schema": 1, "theorem": args.theorem, "fronts": {}}
    all_ok = True
    for path in paths:
        word, flags = _read_front(path)
        _check_cap(word, args.force)
        record = check_front(word, flags, timings=args.timings)
        record["ok"] = front_ok(record, args.theorem)
        all_ok = all_ok and record["ok"]
        report["fronts"][path.stem] = record
    report["all_agree"] = all_ok
    _emit(report)
    return 0 if all_ok else 1


def _parse_move(text: str) -> Move:
    parts = text.split(",")
    rule, _, site = parts[0].partition("@")
    if rule not in MOVE_RULES:
        raise BadArgument(f"unknown move rule {rule!r}; expected one of {', '.join(MOVE_RULES)}")
    inverse, m = False, None
    given = set()
    for p in parts[1:]:
        name = "m" if p.startswith("m=") else p
        if name not in ("inverse", "m"):
            raise BadArgument(f"unknown --apply part {p!r}; expected inverse or m=K")
        if name in given:
            raise BadArgument(f"--apply part {name!r} given twice")
        given.add(name)
        if name == "inverse":
            if rule in ("comm", "type3"):
                raise BadArgument(f"--apply part 'inverse' does not apply to {rule}, its own inverse")
            inverse = True
        else:
            m = _int_arg(p[2:], "--apply m")
    inserts = inverse and rule in ("type1_lo", "type1_hi")
    if m is not None and not inserts:
        raise BadArgument(f"--apply part 'm={m}' is read only by an inverse type1_lo or type1_hi")
    if inserts and m is None:
        raise BadArgument(f"an inverse {rule} inserts a kink and needs the part m=K")
    return Move(rule, _int_arg(site, "--apply SITE"), inverse, m)


def cmd_moves(args) -> int:
    word, _ = _read_front(args.path)
    if args.apply:
        mv = _parse_move(args.apply)
        word = apply_move(word, mv.rule, mv.site, inverse=mv.inverse, m=mv.m)
        applied = [mv.as_str()]
    else:
        if args.random < 0:
            raise BadArgument(f"--random must be at least 0, got {args.random}")
        if args.random > MOVES_LIMIT:
            raise LimitExceeded(f"--random {args.random} exceeds the limit of {MOVES_LIMIT} moves")
        word, moves = random_move_sequence(word, args.random, args.seed)
        applied = [mv.as_str() for mv in moves]
    _emit({"front": word.render(), "applied": applied})
    return 0


def cmd_stabilize(args) -> int:
    word, _ = _read_front(args.path)
    gap, _, pos = args.site.partition(":")
    word = stabilize(word, _int_arg(gap, "--site GAP"), _int_arg(pos, "--site POS"), args.flavor)
    _emit({"front": word.render()})
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
    g.add_argument("--random", type=int, help=f"apply N random moves, N <= {MOVES_LIMIT}")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_moves)

    p = sub.add_parser("stabilize", help="insert a zig-zag")
    p.add_argument("path")
    p.add_argument("--site", required=True, help="GAP:POS")
    p.add_argument("--flavor", default="down", choices=["up", "down"])
    p.set_defaults(func=cmd_stabilize)

    return ap


# Built once: building it costs about 40 times as much as parsing one command
# line, and a program may call main many times.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
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
