import argparse
import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import esakialab
from esakialab import cli, regularity
from esakialab.cli import run
from esakialab.heyting import dual_algebra
from esakialab.poset_core import (
    FinitePoset,
    make_delta0,
    make_delta1,
    make_ladder,
    make_medvedev,
    strong_regularization,
)

from corpus import side_by_side


@pytest.fixture()
def written(tmp_path, p1, c2, fork, w3, diamond):
    paths = {}
    for P in (p1, c2, fork, w3, diamond):
        path = tmp_path / f"{P.name.lower()}.json"
        path.write_text(P.to_json() + "\n", encoding="utf-8")
        paths[P.name] = str(path)
    for n in (2, 3):
        F = make_delta0(n)
        path = tmp_path / f"f{n}.json"
        path.write_text(F.to_json(), encoding="utf-8")
        paths[F.name] = str(path)
    return paths


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_families(capsys):
    code, out, err = invoke(capsys, "gen", "medvedev", "2")
    assert code == 0 and err == ""
    assert out == make_medvedev(2).to_json() + "\n"
    code, out, _ = invoke(capsys, "gen", "ladder", "5", "--kind", "R2")
    assert code == 0
    assert json.loads(out)["name"] == "R2@5"
    assert len(json.loads(out)["points"]) == 18


def test_gen_starify(capsys, written):
    code, out, _ = invoke(capsys, "gen", "starify", written["C2"])
    assert code == 0
    with open(written["C2"], encoding="utf-8") as fh:
        star, _ = strong_regularization(FinitePoset.from_json(fh.read()))
    assert out == star.to_json() + "\n"


def test_gen_usage_errors(capsys):
    code, _, err = invoke(capsys, "gen", "medvedev", "x")
    assert code == 2 and "integer size" in err
    code, _, err = invoke(capsys, "gen", "medvedev", "0")
    assert code == 2 and err.startswith("error:")
    code, _, _ = invoke(capsys, "gen", "mystery", "3")
    assert code == 2
    # refused before any of its 27 million label pairs is listed
    code, out, err = invoke(capsys, "gen", "delta0", "3000")
    assert (code, out) == (2, "") and one_error_line(out, err)
    assert err.startswith("error: make_delta0: |P|^2 = 9004^2 = 81072016 row steps, ")


def test_dual_summary(capsys, written):
    code, out, _ = invoke(capsys, "dual", written["V"])
    assert code == 0
    assert out == "size: 5\nregulars: 4\nregularly generated: yes\n"
    code, out, _ = invoke(capsys, "dual", written["C2"], "--json")
    assert code == 0
    assert json.loads(out) == {
        "size": 3,
        "regulars": 2,
        "regularly_generated": False,
    }


def test_dual_on_a_long_chain(capsys, tmp_path):
    # deeper than the interpreter's recursion limit
    points = [f"c{i}" for i in range(1100)]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"points": points, "leq": list(zip(points, points[1:]))}))
    code, out, _ = invoke(capsys, "dual", str(path))
    assert code == 0 and out.startswith("size: 1101\n")


def test_check_regular_contract_line(capsys, tmp_path):
    path = tmp_path / "f2.json"
    path.write_text(make_delta0(2).to_json(), encoding="utf-8")
    code, out, _ = invoke(capsys, "check-regular", str(path))
    assert code == 0
    assert out == "regular: yes (structural=yes, sim-infty=yes, algebraic=yes)\n"


def test_check_regular_small_poset_adds_morphism(capsys, written):
    code, out, _ = invoke(capsys, "check-regular", written["V"])
    assert code == 0
    assert out == (
        "regular: yes (structural=yes, sim-infty=yes,"
        " algebraic=yes, morphism=yes)\n"
    )
    code, out, _ = invoke(capsys, "check-regular", written["C2"])
    assert code == 0
    assert out.startswith("regular: no (structural=no")


def test_dual_refuses_a_wide_antichain(capsys, tmp_path, monkeypatch):
    # 2^22 upsets: the listing stops at the default budget, 10^7 // 22 upsets
    path = tmp_path / "wide22.json"
    wide = FinitePoset([f"a{i}" for i in range(22)], [])
    path.write_text(wide.to_json(), encoding="utf-8")
    monkeypatch.delenv("ESAKIA_MAX_SWEEP", raising=False)
    code, out, err = invoke(capsys, "dual", str(path))
    assert code == 2 and one_error_line(out, err)
    assert err.startswith("error: upsets: |P| x upsets = 22 x 454546 = 10000012 steps, ")


def test_check_regular_closure_guard(capsys, tmp_path, n6, monkeypatch):
    # N6's regulars close at a charge of 212
    path = tmp_path / "n6.json"
    path.write_text(n6.to_json(), encoding="utf-8")
    monkeypatch.setenv("ESAKIA_MAX_SWEEP", "211")
    code, out, err = invoke(capsys, "check-regular", str(path))
    assert code == 2 and one_error_line(out, err)
    assert err.startswith("error: close_under: ")
    monkeypatch.setenv("ESAKIA_MAX_SWEEP", "212")
    code, out, err = invoke(capsys, "check-regular", str(path))
    assert code == 0 and err == ""
    assert out.startswith("regular: no ")


def test_check_regular_json(capsys, written):
    code, out, _ = invoke(capsys, "check-regular", written["D4"], "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True and payload["regular"] is False
    assert set(payload) == {
        "agree", "algebraic", "morphism", "regular", "sim_infty", "structural",
    }


def test_quotient(capsys, written):
    code, out, _ = invoke(capsys, "quotient", written["D4"], "--n", "inf")
    assert code == 0
    assert json.loads(out)["points"] == ["{o,a,b,t}"]
    code, out, _ = invoke(capsys, "quotient", written["V"], "--n", "0")
    assert code == 0
    assert json.loads(out)["points"] == ["r", "a", "b"]
    assert invoke(capsys, "quotient", written["V"], "--n", "-1")[0] == 2
    assert invoke(capsys, "quotient", written["V"], "--n", "x")[0] == 2


def test_quotient_past_the_limit_level(capsys, tmp_path, monkeypatch):
    # the refinement stops at the limit level, however large n is
    path = tmp_path / "m2.json"
    path.write_text(make_medvedev(2).to_json(), encoding="utf-8")
    code, want, err = invoke(capsys, "quotient", str(path), "--n", "inf")
    assert code == 0 and err == ""
    calls = [0]
    real = regularity._refine

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(regularity, "_refine", counting)
    assert invoke(capsys, "quotient", str(path), "--n", "10000000000") == (0, want, "")
    assert calls[0] == 1  # M2's level 0 is already the limit


def test_quotient_label_clash(capsys, tmp_path):
    # the block {a,b} would take the label of the point "{a,b}"
    path = tmp_path / "clash.json"
    path.write_text(json.dumps({"points": ["a", "b", "{a,b}"], "leq": [["a", "b"]]}))
    code, out, err = invoke(capsys, "quotient", str(path), "--n", "inf")
    assert code == 2 and one_error_line(out, err)
    assert "duplicate point labels" in err


def test_validate_modes(capsys, written):
    code, out, _ = invoke(capsys, "validate", written["C2"], "--formula", "p -> p")
    assert (code, out) == (0, "algebraic: valid\n")
    code, out, _ = invoke(capsys, "validate", written["C2"], "--formula", "p | ~p")
    assert (code, out) == (1, "algebraic: invalid\n")
    code, out, _ = invoke(
        capsys, "validate", written["C2"], "--formula", "~~p -> p", "--dna"
    )
    assert (code, out) == (0, "dna: valid\n")
    code, out, _ = invoke(
        capsys, "validate", written["C2"], "--formula", "p (+) ~p", "--team", "1"
    )
    assert (code, out) == (0, "team k=1: valid\n")
    code, out, _ = invoke(
        capsys, "validate", written["C2"], "--formula", "p | ~p", "--json"
    )
    assert code == 1
    assert json.loads(out) == {"mode": "algebraic", "valid": False}


def test_validate_accepts_algebra_files(capsys, written, tmp_path, fork):
    path = tmp_path / "algebra.json"
    path.write_text(dual_algebra(fork).to_json(), encoding="utf-8")
    code, out, _ = invoke(capsys, "validate", str(path), "--formula", "p -> ~~p")
    assert (code, out) == (0, "algebraic: valid\n")


def test_validate_guard_and_usage(capsys, written):
    code, _, err = invoke(
        capsys, "validate", written["C2"], "--formula", "p", "--team", "3"
    )
    assert code == 2 and "force" in err
    code, _, err = invoke(capsys, "validate", written["C2"], "--formula", "p &")
    assert code == 2 and "bad formula" in err
    code, _, _ = invoke(
        capsys, "validate", written["C2"], "--formula", "p", "--dna", "--team", "1"
    )
    assert code == 2


def one_error_line(out: str, err: str) -> bool:
    return out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_validate_team_with_too_many_atoms(capsys, written):
    code, out, err = invoke(
        capsys, "validate", written["C2"], "--formula", "p & q -> r", "--team", "2"
    )
    assert code == 2 and one_error_line(out, err)
    assert "more than k=2" in err


def test_validate_team_rejects_a_negative_k(capsys, written):
    code, out, err = invoke(capsys, "validate", written["C2"], "--formula", "top", "--team", "-1")
    assert code == 2 and one_error_line(out, err)
    assert err == "error: k must be nonnegative\n"


def test_validate_team_skips_the_algebra(capsys, tmp_path):
    # the upset algebra of a 22-point antichain has 2^22 elements; building
    # it took about 25 s, and a wider antichain ran out of memory
    wide = FinitePoset([f"x{i}" for i in range(22)], [])
    path = tmp_path / "wide.json"
    path.write_text(wide.to_json(), encoding="utf-8")
    t0 = time.perf_counter()
    code, out, err = invoke(
        capsys, "validate", str(path), "--formula", "p | ~p", "--team", "1"
    )
    assert (code, out, err) == (1, "team k=1: invalid\n", "")
    assert time.perf_counter() - t0 < 2.0


def test_validate_tensor_where_it_is_undefined(capsys, written):
    # F2's algebra is not regularly generated, so it has no tensor
    for mode in ([], ["--dna"]):
        code, out, err = invoke(
            capsys, "validate", written["F2"], "--formula", "p (+) ~p", *mode
        )
        assert code == 2 and one_error_line(out, err)
        assert "tensor" in err


def test_validate_tensor_on_a_disjoint_union_in_either_point_order(capsys, tmp_path, c3):
    # the 3-chain's algebra has no tensor, so M2 beside it has none, first or last
    orders = (side_by_side(make_medvedev(2), c3), side_by_side(c3, make_medvedev(2)))
    for k, P in enumerate(orders):
        path = tmp_path / f"m2-c3-{k}.json"
        path.write_text(P.to_json(), encoding="utf-8")
        code, out, err = invoke(capsys, "validate", str(path), "--dna", "--formula", "p (+) q")
        assert code == 2 and one_error_line(out, err)
        assert err.startswith("error: tensor needs")


def test_validate_sweep_guard_names_the_function(capsys, written, monkeypatch):
    # C2 has 2 regular elements, so 3 atoms give 8 negative valuations
    monkeypatch.setenv("ESAKIA_MAX_SWEEP", "7")
    code, out, err = invoke(
        capsys, "validate", written["C2"], "--formula", "p -> q -> r -> p", "--dna"
    )
    assert code == 2 and one_error_line(out, err)
    assert err.startswith("error: is_dna_valid: 2^3 = 8 valuations, more than the budget of 7")


def test_validate_malformed_sweep_limit(capsys, written, monkeypatch):
    monkeypatch.setenv("ESAKIA_MAX_SWEEP", "lots")
    code, out, err = invoke(
        capsys, "validate", written["C2"], "--formula", "~~p -> p", "--dna"
    )
    assert code == 2 and one_error_line(out, err)
    assert "ESAKIA_MAX_SWEEP" in err


def test_validate_deep_nesting(capsys, written):
    code, out, err = invoke(
        capsys, "validate", written["C2"], "--formula", "~" * 1500 + "p", "--team", "1"
    )
    assert code == 2 and one_error_line(out, err)
    assert "nested too deeply" in err
    code, out, _ = invoke(
        capsys, "validate", written["C2"], "--formula", "~" * 900 + "p", "--team", "1"
    )
    assert (code, out) == (1, "team k=1: invalid\n")


def test_jankov_output(capsys, written):
    code, out, _ = invoke(capsys, "jankov", written["V"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "atoms: p0={} p1={a} p2={b} p4={r,a,b}"
    assert lines[1] == "second greatest: {a,b}"
    assert lines[2].startswith("chi: ")
    code, out, _ = invoke(capsys, "jankov", written["V"], "--json")
    assert code == 0
    assert set(json.loads(out)) == {"source", "atom_map", "chi"}


def test_jankov_error_codes(capsys, written):
    code, _, err = invoke(capsys, "jankov", written["C2"])
    assert code == 1 and "not regularly generated" in err
    code, _, err = invoke(capsys, "jankov", written["W3"])
    assert code == 2 and "force" in err
    code, out, _ = invoke(capsys, "jankov", written["W3"], "--force")
    assert code == 0 and out.startswith("atoms:")


def test_jankov_errors_on_unnamed_posets(capsys, tmp_path):
    # a poset file need not name its poset; the message must not print None
    for points, leq, words in (
        ([], [], "has no root"),
        (["a", "b"], [], "has no root"),
        (["r", "a"], [["r", "a"]], "is not regularly generated"),
    ):
        path = tmp_path / "unnamed.json"
        path.write_text(json.dumps({"points": points, "leq": leq}), encoding="utf-8")
        code, out, err = invoke(capsys, "jankov", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "an unnamed poset" in err and words in err and "None" not in err


def test_leq(capsys, written):
    code, out, _ = invoke(capsys, "leq", written["C2"], written["D4"])
    assert (code, out) == (0, "leq: yes\n")
    code, out, _ = invoke(capsys, "leq", written["V"], written["C2"])
    assert (code, out) == (0, "leq: no\n")
    code, out, _ = invoke(capsys, "leq", written["C2"], written["D4"], "--json")
    assert code == 0 and json.loads(out) == {"leq": True}


def write_chain(tmp_path, n: int) -> str:
    points = [f"c{i}" for i in range(n)]
    path = tmp_path / f"chain{n}.json"
    pairs = list(zip(points, points[1:]))
    path.write_text(json.dumps({"name": f"C{n}", "points": points, "leq": pairs}))
    return str(path)


def test_leq_on_a_chain_past_the_recursion_limit(capsys, tmp_path):
    # the search goes one point deeper per point of the chain
    chain = write_chain(tmp_path, 1200)
    assert invoke(capsys, "leq", chain, chain) == (0, "leq: yes\n", "")


def test_leq_of_the_fork_in_a_long_chain(capsys, written, tmp_path):
    # every principal upset is searched to its bottom before it fails, so the
    # cost per search node must not grow with the points above it
    chain = write_chain(tmp_path, 400)
    assert invoke(capsys, "leq", written["V"], chain) == (0, "leq: no\n", "")


def write_g6_and_g8(tmp_path) -> list[str]:
    paths = []
    for n in (6, 8):
        path = tmp_path / f"g{n}.json"
        path.write_text(make_delta1(n).to_json(), encoding="utf-8")
        paths.append(str(path))
    return paths


def test_leq_of_g6_in_g8_at_the_default_budget(capsys, tmp_path):
    # false; the plain search runs past ten million nodes, one candidate per
    # orbit of Aut(G6) takes about 113 thousand, listing included
    assert invoke(capsys, "leq", *write_g6_and_g8(tmp_path)) == (0, "leq: no\n", "")


def test_leq_refuses_a_search_past_the_budget(capsys, tmp_path, monkeypatch):
    # G6 <= G8 needs 113,147 nodes: 15^3 plain, as many listing Aut(G6), and
    # this budget ends in the symmetric search
    monkeypatch.setenv("ESAKIA_MAX_SWEEP", "10000")
    code, out, err = invoke(capsys, "leq", *write_g6_and_g8(tmp_path))
    assert code == 2 and one_error_line(out, err)
    assert err == (
        "error: is_leq: search nodes = 10001 nodes, more than the budget of 10000 "
        "(ESAKIA_MAX_SWEEP)\n"
    )


def test_leq_refuses_to_list_the_upsets_of_a_wide_poset(capsys, tmp_path):
    # 22 minimal points: every upset of the other antichain, 2^22 sets; the
    # listing is refused at about 454 thousand
    path = tmp_path / "wide22.json"
    path.write_text(json.dumps({"points": [f"a{i}" for i in range(22)], "leq": []}))
    code, out, err = invoke(capsys, "leq", str(path), str(path))
    assert code == 2 and one_error_line(out, err)
    assert err.startswith("error: is_leq: |B| x generated upsets = 22 x ")


def test_antichain_on_chains_past_the_recursion_limit(capsys, tmp_path):
    chains = write_chain(tmp_path, 1200), write_chain(tmp_path, 1201)
    code, out, err = invoke(capsys, "antichain", *chains)
    assert (code, err) == (1, "")
    assert "comparable pairs: (C1200,C1201)\n" in out
    assert out.endswith("antichain: no\n")


def test_antichain(capsys, written):
    code, out, _ = invoke(capsys, "antichain", written["F2"], written["F3"])
    assert code == 0
    assert "comparable pairs: none" in out
    assert out.endswith("antichain: yes\n")
    code, out, _ = invoke(capsys, "antichain", written["C2"], written["D4"])
    assert code == 1
    assert "comparable pairs: (C2,D4)" in out
    assert out.endswith("antichain: no\n")
    assert invoke(capsys, "antichain", written["C2"])[0] == 2


def test_antichain_of_the_g_tower_to_g7(capsys, tmp_path):
    # one candidate per orbit once a member's searches prove long: G3-G7
    # took about 6 s searched plainly
    paths = []
    for n in range(3, 8):
        path = tmp_path / f"g{n}.json"
        path.write_text(make_delta1(n).to_json(), encoding="utf-8")
        paths.append(str(path))
    code, out, err = invoke(capsys, "antichain", *paths)
    assert (code, err) == (0, "")
    assert "comparable pairs: none" in out
    assert out.endswith("antichain: yes\n")


def test_antichain_json(capsys, written):
    code, out, _ = invoke(
        capsys, "antichain", written["C2"], written["D4"], "--json"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["antichain"] is False
    assert payload["comparable_pairs"] == [[0, 1]]
    assert payload["posets"] == ["C2", "D4"]


def test_dot(capsys, written):
    code, out, _ = invoke(capsys, "dot", written["V"])
    assert code == 0
    assert out.startswith("digraph") and '"r" -> "a"' in out


def test_file_errors(capsys, tmp_path, written):
    assert invoke(capsys, "dual", str(tmp_path / "missing.json"))[0] == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert invoke(capsys, "dual", str(bad))[0] == 2
    shape = tmp_path / "shape.json"
    for text in ('{"rows": []}', *MALFORMED_POSETS):
        shape.write_text(text, encoding="utf-8")
        for cmd in ("dual", "dot"):
            code, out, err = invoke(capsys, cmd, str(shape))
            assert (code, out) == (2, ""), text
            assert err.startswith("error:") and err.count("\n") == 1, text
    binary = tmp_path / "bin.json"
    binary.write_bytes(b"\xff\xfe")
    assert invoke(capsys, "dual", str(binary)) == (2, "", f"error: {binary} is not UTF-8 text\n")


def test_shape_errors_name_the_field(capsys, tmp_path):
    shape = tmp_path / "shape.json"
    for text, says in (
        ("[1, 2]", "a poset file is a JSON object"),
        ("null", "a poset file is a JSON object"),
        ('{"points": ["a"]}', "missing key 'leq'"),
        ('{"points": ["a"], "leq": [["a", "z"]]}', "leq names an unknown point 'z'"),
        # an algebra file, whose base is read as the poset
        ('{"base": 3, "elements": []}', "base: a poset file is a JSON object"),
        ('{"base": {"points": ["a"]}, "elements": []}', "base: missing key 'leq'"),
    ):
        shape.write_text(text, encoding="utf-8")
        code, out, err = invoke(capsys, "dual", str(shape))
        assert (code, out, err) == (2, "", f"error: {shape} does not describe a poset: {says}\n")


def test_deeply_nested_json_is_a_usage_error(capsys, tmp_path, written):
    # deeper than the interpreter's recursion limit, which json.loads reaches
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 5000 + "]" * 5000, encoding="utf-8")
    obj = json.loads(make_medvedev(2).to_json())
    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps(obj)[:-1] + ', "extra": ' + "[" * 3000 + "]" * 3000 + "}")
    for path in (str(deep), str(extra)):
        for argv in (
            ("dual", path),
            ("dot", path),
            ("leq", path, written["V"]),
            ("leq", written["V"], path),
            ("validate", path, "--formula", "p | ~p", "--team", "1"),
        ):
            code, out, err = invoke(capsys, *argv)
            assert code == 2 and one_error_line(out, err), argv
            assert "nests too deeply" in err, argv


def test_no_subcommand_is_usage_error(capsys):
    assert invoke(capsys, )[0] == 2


def test_byte_determinism(capsys, written):
    first = invoke(capsys, "jankov", written["V"], "--json")
    second = invoke(capsys, "jankov", written["V"], "--json")
    assert first == second
    a = invoke(capsys, "check-regular", written["D4"], "--json")
    b = invoke(capsys, "check-regular", written["D4"], "--json")
    assert a == b


def test_parser_is_built_once_per_process(capsys, written, monkeypatch):
    built = [0]
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built[0] += 1
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    for _ in range(5):
        assert invoke(capsys, "dot", written["V"])[0] == 0
        assert invoke(capsys, "leq", written["C2"], written["D4"])[0] == 0
        assert invoke(capsys, "dual")[0] == 2
    # the top-level parser and one per subcommand, once
    assert built[0] == 10


def test_a_reused_parser_answers_as_a_fresh_one(capsys, written):
    V, C2, D4 = written["V"], written["C2"], written["D4"]
    sequence = [
        ["dual"],
        ["--bogus"],
        ["--help"],
        ["validate", "--help"],
        ["validate", C2, "--formula", "p | ~p", "--team", "1"],
        ["validate", C2, "--formula", "p | ~p", "--dna"],
        ["validate", C2, "--formula", "p | ~p"],
        ["validate", C2, "--formula", "~~p -> p", "--json", "--force"],
        ["validate", C2, "--formula", "~~p -> p"],
        ["quotient", D4, "--n", "inf"],
        ["quotient", D4, "--n", "0"],
        ["gen", "ladder", "2", "--kind", "R1"],
        ["gen", "ladder", "2"],
        ["dual", V, "--json"],
        ["dual", V],
        ["check-regular", D4],
        ["jankov", V],
        ["leq", C2, D4],
        ["antichain", written["F2"], written["F3"]],
        ["dot", V],
    ]
    assert {argv[0] for argv in sequence} == {"dual", "--bogus", "--help", *COMMANDS}
    reused = [invoke(capsys, *argv) for argv in sequence]
    fresh = []
    for argv in sequence:
        cli._build_parser.cache_clear()
        fresh.append(invoke(capsys, *argv))
    assert reused == fresh
    assert reused[5][1] == "dna: valid\n" and reused[6][1] == "algebraic: invalid\n"
    assert reused[12][0] == 0 and json.loads(reused[12][1])["name"] == "R0@2"


def python_dash_m(argv, **kwargs) -> subprocess.CompletedProcess:
    """``python -m esakialab argv`` in a child reading this checkout's source."""
    src = os.path.dirname(os.path.dirname(esakialab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-m", "esakialab", *argv], env=env, timeout=60, **kwargs)


def test_python_dash_m_matches_run(capsys, written):
    expected = invoke(capsys, "dual", written["V"])
    done = python_dash_m(["dual", written["V"]], capture_output=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, expected[1].encode(), b"")


def test_a_closed_stdout_is_one_error_line(written):
    # the pipe's read end is closed before the child starts, so its one
    # write fails with EPIPE, and the flush at exit must not raise again
    read, write = os.pipe()
    os.close(read)
    try:
        done = python_dash_m(["dot", written["V"]], stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert done.returncode == 2
    assert done.stderr == b"error: cannot write output: Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_device_is_one_error_line(written):
    with open("/dev/full", "wb") as full:
        done = python_dash_m(["dual", written["V"]], stdout=full, stderr=subprocess.PIPE)
    assert done.returncode == 2
    assert done.stderr == b"error: cannot write output: No space left on device\n"


# -- the exit-code contract on random input ------------------------------------

POINTS = ("a", "b", "c", "d")
# valid JSON with a string where a list belongs, or a label or name that is no string
MALFORMED_POSETS = (
    '{"points": "abc", "leq": ["ab", "bc"]}',
    '{"points": ["a", "b"], "leq": ["ab"]}',
    '{"points": [1, "1"], "leq": []}',
    '{"points": ["a"], "leq": [], "name": 5}',
)
BAD_POSETS = MALFORMED_POSETS + (
    "{",
    "[]",
    '{"points": 3, "leq": []}',
    '{"points": ["a", "a"], "leq": []}',
    '{"points": ["a"], "leq": [["a", "z"]]}',
    '{"points": ["a", "b"], "leq": [["a", "b"], ["b", "a"]]}',
)
LEAVES = ("p", "q", "bot", "top")
BINARY = ("&", "|", "->", "<->", "(+)")
TOKENS = LEAVES + BINARY + ("~", "(", ")")
COMMANDS = ("validate", "jankov", "check-regular", "quotient", "leq", "antichain", "dual", "dot", "gen")


# JSON values that are no poset object, or an object without one of its keys
ODD_VALUES = ([1, 2], None, 3, "points", True, {}, {"points": []}, {"leq": []}, {"base": None, "elements": []})


def random_poset_bytes(rnd) -> bytes:
    roll = rnd.random()
    if roll < 0.05:
        return rnd.randbytes(rnd.randint(0, 8))
    if roll < 0.1:
        return json.dumps(rnd.choice(ODD_VALUES)).encode()
    if roll < 0.2:
        return rnd.choice(BAD_POSETS).encode()
    points = list(POINTS[: rnd.randint(0, len(POINTS))])
    # sorted pairs only go label-upward, so the relation is acyclic
    pairs = [sorted(rnd.choices(points, k=2)) for _ in range(rnd.randint(0, 5))] if points else []
    return json.dumps({"name": rnd.choice(["", "P"]), "points": points, "leq": pairs}).encode()


def random_formula_text(rnd, size: int = 7) -> str:
    """Well-formed text of at most ``size`` nodes over p and q, or token soup."""
    if size == 7 and rnd.random() < 0.2:
        return " ".join(rnd.choices(TOKENS, k=rnd.randint(0, 7)))
    if size == 1 or rnd.random() < 0.3:
        return rnd.choice(LEAVES)
    if size == 2 or rnd.random() < 0.3:
        return "~" + random_formula_text(rnd, size - 1)
    left = rnd.randint(1, size - 2)
    right = random_formula_text(rnd, size - 1 - left)
    return f"({random_formula_text(rnd, left)} {rnd.choice(BINARY)} {right})"


def random_argv(rnd) -> list[str]:
    """An argv whose poset files are the placeholders A and B."""
    cmd = rnd.choice(COMMANDS)
    if cmd == "gen":
        family = rnd.choice(["medvedev", "delta0", "delta1", "ladder", "starify", "mystery"])
        size = "A" if family == "starify" else rnd.choice(["0", "1", "2", "3", "x"])
        argv = [cmd, family, size, *rnd.choice([[], ["--kind", "R1"], ["--kind", "R2"]])]
    elif cmd == "leq":
        argv = [cmd, "A", "B"]
    elif cmd == "antichain":
        argv = [cmd, "A", *rnd.choice([[], ["B"], ["B", "A"]])]
    else:
        argv = [cmd, "A"]
    if cmd == "quotient":
        argv += ["--n", rnd.choice(["0", "1", "2", "inf", "-1", "x"])]
    if cmd == "validate":
        argv += ["--formula", random_formula_text(rnd)]
        argv += rnd.choice([[], ["--dna"], ["--team", "0"], ["--team", "1"], ["--team", "2"],
                            ["--team", "3"], ["--dna", "--team", "1"]])
    if rnd.random() < 0.5:
        argv.append("--json")
    if rnd.random() < 0.1:
        argv.append("--bogus")
    return argv


@settings(
    max_examples=200,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(seed=st.integers(0, 2**32 - 1))
def test_exit_codes_on_random_input(tmp_path, seed):
    # hypothesis draws only the seed: its own choices, mutated between
    # examples, repeated most invocations, where a seeded generator does not
    rnd = random.Random(seed)
    paths = {}
    for key in "AB":
        path = tmp_path / f"{key}.json"
        path.write_bytes(random_poset_bytes(rnd))
        paths[key] = str(path)
    argv = [paths.get(arg, arg) for arg in random_argv(rnd)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out.getvalue() == "", argv
        assert sum("error:" in line for line in err.getvalue().splitlines()) == 1, argv
