from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from math import comb

import pytest

from conftest import CORPUS, LARGE_FRONTS, ROOT, corpus_words

from frontinv import check, cli, errors, rulings, toposkein
from frontinv.cli import main
from frontinv.front import components, crossing_signs, orient, parse_front, stabilize
from frontinv.poly import LaurentPoly, coeff_a, parse_poly


def run_cli(capsys, *args) -> tuple[int, str, str]:
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate(capsys):
    code, out, _ = run_cli(capsys, "validate", str(CORPUS / "trefoil.front"))
    assert code == 0
    data = json.loads(out)
    assert data["ok"] and data["crossings"] == 3 and data["components"] == 1


def test_validate_error(tmp_path, capsys):
    bad = tmp_path / "bad.front"
    bad.write_text("l1 q2 r1\n")
    code, out, err = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert "UNKNOWN_TOKEN" in err


def test_missing_input_file(tmp_path, capsys):
    code, out, err = run_cli(capsys, "validate", str(tmp_path / "missing.front"))
    assert code == 2
    assert out == ""
    assert err.startswith("error [IO_ERROR]: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["validate", "verify"])
def test_undecodable_input_ends_in_one_coded_line(capsys, tmp_path, command):
    f = tmp_path / "bad.front"
    f.write_bytes(b"l1 r1\xff")
    code, out, err = run_cli(capsys, command, str(f if command == "validate" else tmp_path))
    assert code == 2 and out == ""
    assert err.startswith(f"error [IO_ERROR]: {f}: not UTF-8") and err.count("\n") == 1


def test_input_is_read_as_utf8_whatever_the_locale(tmp_path):
    f = tmp_path / "accent.front"
    f.write_bytes("# trèfle\nl1 l3 x2 x2 x2 r1 r1\n".encode("utf-8"))
    # an ASCII locale, in which Python's default encoding cannot read the comment
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "frontinv.cli", "validate", str(f)],
        env=env, capture_output=True, text=True, errors="replace",
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["crossings"] == 3


def test_readme_command_block_runs(capsys, monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line\n\n```sh\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(ROOT)
    outputs = {}
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        args = command.split()
        assert args[0] == "frontinv", line
        code, out, err = run_cli(capsys, *args[1:])
        assert code == 0, (line, err)
        outputs[" ".join(args[1:])] = (json.loads(out), comment.strip())
    # the two lines whose comment states the output
    out, stated = outputs["invariants corpus/trefoil.front"]
    assert out == json.loads(stated)
    out, stated = outputs["poly corpus/trefoil.front --which ruling"]
    assert out == {"ruling": stated}


def test_invariants(capsys):
    code, out, _ = run_cli(capsys, "invariants", str(CORPUS / "trefoil.front"))
    assert code == 0
    assert json.loads(out) == {"c": 2, "cr": 3, "w": 3, "beta": 1, "r": 0}


def test_rulings_listing(capsys):
    code, out, _ = run_cli(capsys, "rulings", str(CORPUS / "trefoil.front"), "--list")
    data = json.loads(out)
    assert data["count"] == 3
    assert data["polynomial"] == "z^2 + 2"
    assert data["rulings"] == [[1], [1, 2, 3], [3]]


def test_rulings_count_without_listing(capsys, tmp_path):
    # 2^40 switch sets: the count must come from the polynomial, not a listing
    n = 40
    f = tmp_path / "twist.front"
    f.write_text("l1 l3 " + "x2 " * n + "r1 r1\n")
    code, out, _ = run_cli(capsys, "rulings", str(f))
    assert code == 0
    data = json.loads(out)
    assert "rulings" not in data
    # T(2,n) twist: C((n+s)/2, s) rulings with s switches, s = n mod 2
    assert data["count"] == sum(comb((n + s) // 2, s) for s in range(0, n + 1, 2))
    # listing them is refused from the count, before any enumeration
    assert data["count"] > cli.LIST_LIMIT
    code, out, err = run_cli(capsys, "rulings", str(f), "--list")
    assert code == 2 and out == ""
    assert err.startswith("error [LIMIT_EXCEEDED]: ") and err.count("\n") == 1


def test_rulings_list_walks_only_live_pairings(capsys, tmp_path, monkeypatch):
    # A zig-zag after a 40-crossing twist: no ruling, so the count passes
    # LIST_LIMIT, but a walk that only learns at the zig-zag that every
    # branch dies would visit F(41) = 165 580 141 switch sets first.
    front = stabilize(parse_front("l1 l3 " + "x2 " * 40 + "r1 r1"), 42, 1, "down")
    f = tmp_path / "zigzag.front"
    f.write_text(front.render() + "\n")
    real = rulings.sweep_step
    calls = []

    def counted(*args, **kw):
        calls.append(1)
        assert len(calls) <= 10_000, "the walk entered pairings that end in no ruling"
        return real(*args, **kw)

    monkeypatch.setattr(rulings, "sweep_step", counted)
    t = time.perf_counter()
    code, out, _ = run_cli(capsys, "rulings", str(f), "--list")
    assert time.perf_counter() - t < 1.0
    assert code == 0
    assert json.loads(out) == {"count": 0, "polynomial": "0", "rulings": []}


def test_poly_ruling_unknot(capsys):
    code, out, _ = run_cli(capsys, "poly", str(CORPUS / "unknot.front"), "--which", "ruling")
    assert code == 0
    assert json.loads(out) == {"ruling": "1"}


@pytest.mark.parametrize("which", ["ruling", "oruling", "B-leg", "B-topo", "Q"])
def test_poly_all_evaluators_trefoil(capsys, which):
    code, out, _ = run_cli(capsys, "poly", str(CORPUS / "trefoil.front"), "--which", which)
    assert code == 0
    assert json.loads(out) == {which: "z^2 + 2"}


def test_poly_two_variable(capsys):
    code, out, _ = run_cli(capsys, "poly", str(CORPUS / "unlink2.front"), "--which", "kauffman")
    assert json.loads(out) == {"kauffman": "z^-1*a + 1 - z^-1*a^-1"}


def test_poly_trace(tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    code, out, _ = run_cli(
        capsys,
        "poly",
        str(CORPUS / "trefoil.front"),
        "--which",
        "B-leg",
        "--trace",
        str(trace_path),
    )
    assert code == 0
    lines = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert lines and all({"rule", "L", "M", "N1", "N2"} <= set(e) for e in lines)


@pytest.mark.parametrize("which", ["ruling", "B-topo", "kauffman"])
def test_trace_needs_B_leg(capsys, tmp_path, which):
    # --trace is written only by the rewrite route; elsewhere it is refused
    # before anything is evaluated, not dropped
    trace = tmp_path / "trace.jsonl"
    code, out, err = run_cli(
        capsys, "poly", str(CORPUS / "trefoil.front"), "--which", which, "--trace", str(trace)
    )
    assert code == 2 and out == ""
    assert err.startswith("error [BAD_ARGUMENT]: ") and err.count("\n") == 1
    assert not trace.exists()


def test_verify_corpus(capsys):
    code, out, _ = run_cli(capsys, "verify", str(CORPUS), "--theorem", "3.1")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["all_agree"] is True
    assert len(report["fronts"]) >= 10
    assert all(rec["agree_3_1"] for rec in report["fronts"].values())


def test_verify_oriented(capsys):
    code, out, _ = run_cli(capsys, "verify", str(CORPUS), "--theorem", "4.1")
    assert code == 0
    report = json.loads(out)
    for rec in report["fronts"].values():
        assert rec["agree_4_1"] is True


def test_verify_corollaries(capsys):
    code, out, _ = run_cli(capsys, "verify", str(CORPUS), "--theorem", "corollaries")
    assert code == 0


def test_verify_evaluates_each_polynomial_once(capsys, monkeypatch):
    calls = {"D": 0, "H": 0, "OR": 0}

    def counting(name, fn):
        def wrapper(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)
        return wrapper

    monkeypatch.setattr(toposkein, "kauffman_D", counting("D", toposkein.kauffman_D))
    monkeypatch.setattr(toposkein, "homfly_H", counting("H", toposkein.homfly_H))
    monkeypatch.setattr(
        check, "oriented_ruling_polynomial", counting("OR", check.oriented_ruling_polynomial)
    )
    code, _, _ = run_cli(capsys, "verify", str(CORPUS))
    assert code == 0
    counts = [components(word).n_components for _, word in corpus_words()]
    assert 3 in counts
    # one D per front; one H per pair of orientations that differ by a
    # global reversal (2^(k-1) pairs for k components), and one oriented
    # sweep per pair but the default one of a front with no negative
    # crossing, whose OR is R
    assert calls["D"] == len(counts)
    assert calls["H"] == sum(2 ** (k - 1) for k in counts)
    positive = [w for _, w in corpus_words() if -1 not in crossing_signs(orient(w))]
    assert positive
    assert calls["OR"] == calls["H"] - len(positive)


def test_verify_checks_every_orientation_of_three_components(capsys):
    code, out, _ = run_cli(capsys, "verify", str(CORPUS), "--theorem", "4.1")
    assert code == 0
    rec = json.loads(out)["fronts"]["split3"]
    assert rec["agree_4_1"] is True and rec["ok"] is True
    assert len(rec["oriented"]) == 8
    assert len({o["choices"] for o in rec["oriented"]}) == 8
    assert all(o["OR"] == o["Q"] for o in rec["oriented"])


def test_verify_fails_front_past_orientation_budget(capsys, monkeypatch):
    # split3 has 4 reversal pairs; below that budget it is not checked, and
    # Theorem 4.1 must not pass it
    monkeypatch.setattr(check, "ORIENTATION_PAIR_BUDGET", 2)
    code, out, _ = run_cli(capsys, "verify", str(CORPUS), "--theorem", "4.1")
    assert code == 1
    report = json.loads(out)
    rec = report["fronts"]["split3"]
    assert rec["agree_4_1"] is None and "oriented" not in rec and rec["ok"] is False
    assert report["fronts"]["hopf"]["ok"] is True and report["all_agree"] is False
    # Theorem 3.1 does not read the oriented check
    code, _, _ = run_cli(capsys, "verify", str(CORPUS), "--theorem", "3.1")
    assert code == 0


def test_verify_fails_when_the_rewrite_route_alone_is_off(capsys, monkeypatch):
    # B_leg off by z on the trefoil alone: the sweep and the skein tree still
    # agree there, and Theorem 3.1 must fail on the rewrite route by itself
    trefoil = parse_front("l1 l3 x2 x2 x2 r1 r1")
    evaluate_B = check.evaluate_B

    def off(word):
        return evaluate_B(word) + LaurentPoly.monomial(1, c=int(word == trefoil))

    monkeypatch.setattr(check, "evaluate_B", off)
    code, out, _ = run_cli(capsys, "verify", str(CORPUS), "--theorem", "3.1")
    assert code == 1
    fronts = json.loads(out)["fronts"]
    assert fronts["trefoil"]["agree_3_1"] is False and fronts["trefoil"]["ok"] is False
    assert fronts["trefoil"]["R"] == fronts["trefoil"]["B_topo"]
    assert all(rec["ok"] for name, rec in fronts.items() if name != "trefoil")


def test_verify_fails_when_one_orientation_alone_is_off(capsys, monkeypatch):
    # the oriented sweep off by z on hopf's reversal pair (+, -) alone; the
    # default order lists (-, -) last, so the verdict must read every pair
    hopf = parse_front("l1 l3 x2 x2 r1 r1")
    sweep = check.oriented_ruling_polynomial

    def off(of):
        wrong = of.word == hopf and of.choices == (True, False)
        return sweep(of) + LaurentPoly.monomial(1, c=int(wrong))

    monkeypatch.setattr(check, "oriented_ruling_polynomial", off)
    code, out, _ = run_cli(capsys, "verify", str(CORPUS), "--theorem", "4.1")
    assert code == 1
    fronts = json.loads(out)["fronts"]
    rec = fronts["hopf"]
    assert rec["agree_4_1"] is False and rec["ok"] is False
    assert [o["choices"] for o in rec["oriented"] if o["OR"] != o["Q"]] == ["-+", "+-"]
    assert rec["oriented"][-1]["OR"] == rec["oriented"][-1]["Q"]
    assert all(rec["ok"] for name, rec in fronts.items() if name != "hopf")


def test_verify_timings_field(capsys):
    _, plain, _ = run_cli(capsys, "verify", str(CORPUS), "--theorem", "4.1")
    _, timed, _ = run_cli(capsys, "verify", str(CORPUS), "--theorem", "4.1", "--timings")
    plain, timed = json.loads(plain), json.loads(timed)
    assert all("ms" not in rec for rec in plain["fronts"].values())
    for rec in timed["fronts"].values():
        ms = rec.pop("ms")
        assert set(ms) == {"sweep", "rewrite", "skein", "total"}
        assert all(v >= 0 for v in ms.values())
        assert ms["sweep"] + ms["rewrite"] + ms["skein"] <= ms["total"] + 0.25
    # without the field, a timed report is the untimed one
    assert timed == plain


def test_verify_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "verify", str(CORPUS))
    _, out2, _ = run_cli(capsys, "verify", str(CORPUS))
    assert out1 == out2


def test_moves_apply(capsys, tmp_path):
    f = tmp_path / "w.front"
    f.write_text("l1 l1 x2 x1 r1 r1\n")
    code, out, _ = run_cli(capsys, "moves", str(f), "--apply", "type2_lo@1")
    assert code == 0
    assert json.loads(out)["front"] == "l1 l2 r1 r1"
    # the insertion reads both of its parts, in either order
    trefoil = str(CORPUS / "trefoil.front")
    code, out, _ = run_cli(capsys, "moves", trefoil, "--apply", "type1_hi@1,m=1,inverse")
    assert code == 0
    assert json.loads(out) == {"front": "l1 l1 x2 r1 l3 x2 x2 x2 r1 r1", "applied": ["type1_hi@1,inverse,m=1"]}


def test_moves_random_deterministic(capsys):
    path = str(CORPUS / "trefoil.front")
    _, out1, _ = run_cli(capsys, "moves", path, "--random", "10", "--seed", "3")
    _, out2, _ = run_cli(capsys, "moves", path, "--random", "10", "--seed", "3")
    assert out1 == out2
    assert len(json.loads(out1)["applied"]) == 10


def test_moves_random_limit(capsys, monkeypatch):
    path = str(CORPUS / "trefoil.front")
    made = []
    monkeypatch.setattr(cli, "random_move_sequence", lambda w, n, seed: made.append(n) or (w, []))
    code, out, err = run_cli(capsys, "moves", path, "--random", str(cli.MOVES_LIMIT + 1))
    assert code == 2 and out == "" and made == []
    assert err.startswith("error [LIMIT_EXCEEDED]: ") and err.count("\n") == 1
    code, _, _ = run_cli(capsys, "moves", path, "--random", str(cli.MOVES_LIMIT))
    assert code == 0 and made == [cli.MOVES_LIMIT]


@pytest.mark.parametrize("text", ["l1 x\u00b2 r1\n", "l\u0661 r1\n", "orient: \u00b9=+\nl1 r1\n"])
def test_non_ascii_digits_end_in_one_coded_line(capsys, tmp_path, text):
    f = tmp_path / "w.front"
    f.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", str(f))
    assert code == 2 and out == ""
    assert err.startswith("error [UNKNOWN_TOKEN]: ") and err.count("\n") == 1


TREFOIL = str(CORPUS / "trefoil.front")


@pytest.mark.parametrize(
    "args",
    [
        ("stabilize", TREFOIL, "--site", "x:1"),
        ("stabilize", TREFOIL, "--site", "1"),
        ("moves", TREFOIL, "--apply", "comm@x"),
        ("moves", TREFOIL, "--apply", "comm"),
        ("moves", TREFOIL, "--apply", "type3@1,m=z"),
        ("moves", TREFOIL, "--random", "-5"),
        # the trefoil has 7 letters, and no strand in gap 0
        ("stabilize", TREFOIL, "--site", "99:1"),
        ("stabilize", TREFOIL, "--site", "0:9"),
        # a directory that holds no .front file
        ("verify", str(CORPUS / "expected")),
        # comm@0 applies on the trefoil; the unknown part must not be dropped
        ("moves", TREFOIL, "--apply", "comm@0,bogus"),
        # parts the rule never reads, and a part given twice
        ("moves", TREFOIL, "--apply", "comm@0,inverse"),
        ("moves", TREFOIL, "--apply", "comm@0,m=5"),
        ("moves", TREFOIL, "--apply", "type1_hi@1,inverse,m=1,m=2"),
        # an unknown rule, and an inserted kink with no m
        ("moves", TREFOIL, "--apply", "typ3@2"),
        ("moves", TREFOIL, "--apply", "type1_hi@1,inverse"),
    ],
)
def test_bad_arguments_end_in_one_coded_line(capsys, args):
    code, out, err = run_cli(capsys, *args)
    assert code == 2 and out == ""
    assert err.startswith("error [BAD_ARGUMENT]: ") and err.count("\n") == 1


def test_stabilize(capsys):
    code, out, _ = run_cli(
        capsys, "stabilize", str(CORPUS / "unknot.front"), "--site", "1:1"
    )
    assert code == 0
    assert json.loads(out)["front"] == "l1 l1 r2 r1"


def _closure(strands: int, gens: list[int]) -> str:
    """Closure l1 .. lk beta rk .. r1 of a positive braid."""
    lefts = [f"l{i}" for i in range(1, strands + 1)]
    rights = [f"r{i}" for i in range(strands, 0, -1)]
    return " ".join(lefts + [f"x{g}" for g in gens] + rights)


@pytest.mark.parametrize("text", list(LARGE_FRONTS.values()), ids=list(LARGE_FRONTS))
def test_work_budget_admits_large_fronts(capsys, tmp_path, text):
    # 15 to 44 crossings or loops, yet little work: every route stops on the
    # work it has done, not on the size of its input
    f = tmp_path / "big.front"
    f.write_text(text + "\n")
    word = parse_front(text)
    R = rulings.ruling_polynomial(word)
    code, out, _ = run_cli(capsys, "verify", str(tmp_path))
    assert code == 0
    rec = json.loads(out)["fronts"]["big"]
    assert rec["ok"] and rec["R"] == rec["B_leg"] == rec["B_topo"] == str(R)
    code, out, _ = run_cli(capsys, "poly", str(f), "--which", "B-topo")
    assert code == 0 and json.loads(out)["B-topo"] == str(R)
    code, out, _ = run_cli(capsys, "poly", str(f), "--which", "kauffman")
    assert code == 0
    D = parse_poly(json.loads(out)["kauffman"])
    assert coeff_a(D, word.num_left_cusps - 1) == R


@pytest.mark.parametrize("command", ["poly", "verify"])
def test_force_is_not_an_option(capsys, command):
    args = [command, str(CORPUS / "trefoil.front")]
    if command == "poly":
        args += ["--which", "kauffman"]
    with pytest.raises(SystemExit) as exc:
        main([*args, "--force"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --force" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,args",
    [
        (_closure(9, list(range(1, 9)) * 8), ["poly", "--which", "ruling"]),
        (_closure(4, [1, 2, 3] * 9), ["verify"]),
        ("l1 r1 " * 1000, ["poly", "--which", "kauffman"]),
    ],
    ids=["9-strand-sweep", "27-crossing-verify", "1000-eyes-kauffman"],
)
def test_oversized_input_ends_in_fuel_exhausted(capsys, tmp_path, monkeypatch, text, args):
    # at the default budget these end in the same line after 1-10 s; a budget
    # 20 times smaller keeps the test fast
    monkeypatch.setattr(errors, "DEFAULT_FUEL", errors.DEFAULT_FUEL // 20)
    f = tmp_path / "big.front"
    f.write_text(text + "\n")
    command, *options = args
    code, out, err = run_cli(capsys, command, str(tmp_path if command == "verify" else f), *options)
    assert code == 2 and out == ""
    assert err.startswith("error [FUEL_EXHAUSTED]: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "where,code_name",
    [("missing", "IO_ERROR"), ("a-file", "IO_ERROR"), ("empty", "BAD_ARGUMENT")],
)
def test_verify_path_that_is_not_a_corpus(capsys, tmp_path, where, code_name):
    # a path that does not exist, or is a file, cannot be read as a corpus;
    # an empty directory can, and holds no front
    path = {"missing": tmp_path / "nonexistent", "a-file": CORPUS / "trefoil.front", "empty": tmp_path}
    code, out, err = run_cli(capsys, "verify", str(path[where]))
    assert code == 2 and out == ""
    assert err.startswith(f"error [{code_name}]: ") and err.count("\n") == 1
