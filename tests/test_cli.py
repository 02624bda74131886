from __future__ import annotations

import json
import time
from math import comb

import pytest

from conftest import CORPUS, corpus_words

from frontinv import check, cli, rulings, toposkein
from frontinv.cli import main
from frontinv.front import components, parse_front, stabilize


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
    # one D per front; one H and one oriented sweep per pair of orientations
    # that differ by a global reversal (2^(k-1) pairs for k components)
    assert calls["D"] == len(counts)
    assert calls["H"] == sum(2 ** (k - 1) for k in counts)
    assert calls["OR"] == sum(2 ** (k - 1) for k in counts)


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


@pytest.mark.parametrize(
    "args",
    [
        ("stabilize", "--site", "x:1"),
        ("stabilize", "--site", "1"),
        ("moves", "--apply", "comm@x"),
        ("moves", "--apply", "comm"),
        ("moves", "--apply", "type3@1,m=z"),
        ("moves", "--random", "-5"),
        # the trefoil has 7 letters, and no strand in gap 0
        ("stabilize", "--site", "99:1"),
        ("stabilize", "--site", "0:9"),
    ],
)
def test_bad_arguments_end_in_one_coded_line(capsys, args):
    command, *rest = args
    code, out, err = run_cli(capsys, command, str(CORPUS / "trefoil.front"), *rest)
    assert code == 2 and out == ""
    assert err.startswith("error [BAD_ARGUMENT]: ") and err.count("\n") == 1


def test_stabilize(capsys):
    code, out, _ = run_cli(
        capsys, "stabilize", str(CORPUS / "unknot.front"), "--site", "1:1"
    )
    assert code == 0
    assert json.loads(out)["front"] == "l1 l1 r2 r1"


def test_pd_export_and_poly_on_pd(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "pd", str(CORPUS / "trefoil.front"))
    assert code == 0
    pd_file = tmp_path / "trefoil.pd"
    pd_file.write_text(out)
    code, out2, _ = run_cli(capsys, "poly", str(pd_file), "--which", "kauffman")
    assert code == 0
    # the distinguished coefficient must still be visible in D
    assert "a" in json.loads(out2)["kauffman"]


def test_crossing_cap(capsys, tmp_path):
    word = "l1 l3 " + "x2 " * 15 + "r1 r1"
    f = tmp_path / "big.front"
    f.write_text(word + "\n")
    code, _, err = run_cli(capsys, "poly", str(f), "--which", "B-topo")
    assert code == 2 and err.startswith("error [LIMIT_EXCEEDED]: ") and "cap" in err
    code, out, _ = run_cli(capsys, "poly", str(f), "--which", "ruling", "--force")
    assert code == 0
    # the cap is for the skein routes: the ruling sweep builds no tree
    code, unforced, _ = run_cli(capsys, "poly", str(f), "--which", "ruling")
    assert code == 0 and unforced == out
    code, _, _ = run_cli(capsys, "poly", str(f), "--which", "oruling")
    assert code == 0
    # the same diagram as PD text is held to the same cap
    code, out, _ = run_cli(capsys, "pd", str(f))
    assert code == 0
    pd_file = tmp_path / "big.pd"
    pd_file.write_text(out)
    code, _, err = run_cli(capsys, "poly", str(pd_file), "--which", "kauffman")
    assert code == 2 and err.startswith("error [LIMIT_EXCEEDED]: ") and "cap" in err
    code, _, _ = run_cli(capsys, "poly", str(pd_file), "--which", "kauffman", "--force")
    assert code == 0
    # a choice PD input cannot serve is refused as such, not for its size
    code, _, err = run_cli(capsys, "poly", str(pd_file), "--which", "ruling")
    assert code == 2 and "needs a .front input" in err


@pytest.mark.parametrize(
    "text",
    ["l1 r1 " * 15, "l1 l3 " + "x2 " * 12 + "r1 r1 " + "l1 r1 " * 3],
    ids=["15-loops", "link-and-3-loops"],
)
def test_crossing_cap_counts_crossingless_loops(capsys, tmp_path, text):
    # each loop costs the skein routes a product: 15 loops, or a 12-crossing
    # link and 3 loops, exceed the cap of 14
    f = tmp_path / "loops.front"
    f.write_text(text + "\n")
    n_crossings = text.count("x")
    loops = text.count("l1 r1")
    assert n_crossings <= cli.CROSSING_CAP < n_crossings + loops
    for args in (("poly", str(f), "--which", "kauffman"), ("verify", str(tmp_path))):
        code, out, err = run_cli(capsys, *args)
        assert code == 2 and out == "" and err.startswith("error [LIMIT_EXCEEDED]: ")
        assert f"{n_crossings} crossings and {loops} crossingless loops" in err
        code, _, _ = run_cli(capsys, *args, "--force")
        assert code == 0
    # the same diagram as PD text: its O lines count the same way
    code, out, _ = run_cli(capsys, "pd", str(f))
    assert code == 0
    pd_file = tmp_path / "loops.pd"
    pd_file.write_text(out)
    code, _, err = run_cli(capsys, "poly", str(pd_file), "--which", "homfly")
    assert code == 2 and err.startswith("error [LIMIT_EXCEEDED]: ")
    assert f"{n_crossings} crossings and {loops} crossingless loops" in err


@pytest.mark.parametrize("text", ["X[1,2,1,2]\n", "X[1,2,3,4]\nX[3,4,1,2]\n"])
def test_non_planar_pd_ends_in_one_coded_line(capsys, tmp_path, text):
    f = tmp_path / "torus.pd"
    f.write_text(text)
    code, out, err = run_cli(capsys, "poly", str(f), "--which", "kauffman")
    assert code == 2 and out == ""
    assert err.startswith("error [NOT_PLANAR]: ") and err.count("\n") == 1
