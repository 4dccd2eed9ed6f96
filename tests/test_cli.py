import argparse
import contextlib
import io
import json
import os
import re
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from netbargain import blockset, cli, exactlp, matching, oracle

import corpus


def run(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


@pytest.fixture
def k3_file(tmp_path):
    return write(tmp_path, "k3.txt", "a b\nb c\na c\n")


@pytest.fixture
def p3_file(tmp_path):
    return write(tmp_path, "p3.txt", "a b\nb c\n")


@pytest.fixture
def p4_file(tmp_path):
    return write(tmp_path, "p4.txt", "a b\nb c\nc d\n")


@pytest.fixture
def gap1_file(tmp_path, capsys):
    path = str(tmp_path / "gap1.json")
    assert cli.main(["gen", "gap", "--n", "1", "--out", path]) == 0
    capsys.readouterr()
    return path


def test_analyze_k3(capsys, k3_file):
    code, out, _ = run(capsys, "analyze", k3_file)
    assert code == 0
    report = json.loads(out)
    assert report["core"]["status"] == "empty"
    assert report["nu"] == 1
    assert report["omega"] == "1/1"
    assert report["core"]["fractional_value"] == "3/2"


def test_analyze_p3(capsys, p3_file):
    code, out, _ = run(capsys, "analyze", p3_file)
    report = json.loads(out)
    assert code == 0
    assert report["core"]["status"] == "nonempty"
    assert report["core"]["witness"] == {"a": "0/1", "b": "1/1", "c": "0/1"}


def test_analyze_long_path_solves_no_lp(capsys, monkeypatch, tmp_path):
    # a perfect matching exists, so D = A = () and the core witness is 1/2 everywhere
    path = write(tmp_path, "path.txt", "".join(f"v{i} v{i + 1}\n" for i in range(999)))
    solves = []
    solve = exactlp.solve
    monkeypatch.setattr(exactlp, "solve", lambda lp: solves.append(lp) or solve(lp))
    code, out, _ = run(capsys, "analyze", path)
    core = json.loads(out)["core"]
    assert code == 0
    assert core["status"] == "nonempty"
    assert len(core["witness"]) == 1000 and set(core["witness"].values()) == {"1/2"}
    assert solves == []


def test_analyze_empty_file(capsys, tmp_path):
    path = write(tmp_path, "empty.txt", "")
    code, out, _ = run(capsys, "analyze", path)
    report = json.loads(out)
    assert code == 0
    assert report["nu"] == 0
    assert report["core"]["status"] == "nonempty"


def test_stabilize_gap1(capsys, gap1_file):
    code, out, _ = run(capsys, "stabilize", gap1_file)
    report = json.loads(out)
    assert code == 0
    assert len(report["blocking_set"]) == 8
    assert report["guarantee"]["bound_holds"] is True
    assert report["guarantee"]["root_lp_value"] == "8/1"
    assert report["nu"] == 1
    assert report["allocation"]["x1"] == "1/1"


def test_stabilize_p3_empty_blocking_set(capsys, p3_file):
    code, out, _ = run(capsys, "stabilize", p3_file)
    report = json.loads(out)
    assert report["blocking_set"] == []
    assert report["guarantee"]["root_lp_value"] == "0/1"


def test_stabilize_k3_bound_holds(capsys, k3_file):
    code, out, _ = run(capsys, "stabilize", k3_file)
    report = json.loads(out)
    assert code == 0
    assert len(report["blocking_set"]) >= 1
    assert report["guarantee"]["bound_holds"] is True
    assert report["guarantee"]["factor"] == "10/1"


def test_balance_p4_exact_allocation(capsys, p4_file):
    code, out, _ = run(capsys, "balance", p4_file)
    report = json.loads(out)
    assert code == 0
    assert report["balanced_allocation"] == {
        "a": "1/3",
        "b": "2/3",
        "c": "2/3",
        "d": "1/3",
    }
    assert set(report["balance_residuals"].values()) == {"0/1"}


def test_balance_single_edge(capsys, tmp_path):
    path = write(tmp_path, "e.txt", "u v\n")
    code, out, _ = run(capsys, "balance", path)
    report = json.loads(out)
    assert report["balanced_allocation"] == {"u": "1/2", "v": "1/2"}


def test_balance_k3_full_pipeline(capsys, k3_file):
    code, out, _ = run(capsys, "balance", k3_file)
    report = json.loads(out)
    assert code == 0
    assert len(report["matching"]) == 1
    assert set(report["balance_residuals"].values()) <= {"0/1"}


def test_oracle_min_blockset_k3(capsys, k3_file):
    code, out, _ = run(capsys, "oracle", "min-blockset", k3_file)
    report = json.loads(out)
    assert code == 0
    assert report["opt_size"] == 1


def test_oracle_min_blockset_bad_konig_cover_exit_2(capsys, monkeypatch, p3_file):
    # a search that reports no reached vertex makes C every left copy: 3 copies
    # for a matching of 2 on P3's two-copy graph, which is a solver bug
    augment = oracle._augmenting_matching
    monkeypatch.setattr(oracle, "_augmenting_matching", lambda adj, left: (augment(adj, left)[0], set()))
    code, out, err = run(capsys, "oracle", "min-blockset", p3_file)
    assert code == 2
    assert out == ""
    assert "König cover has 3 copies for 2 matched" in err


def test_stabilize_doubled_answer_uncovering_an_edge_exit_2(capsys, monkeypatch, k3_file):
    # K3 blocks a-b and a-c and gives b and c 1/2 each; a pull-back that drops
    # c to 0 leaves the one unblocked edge b-c uncovered, which is a solver bug
    pull_back = blockset.pull_back

    def uncovering(d, xh, bh):
        x, blocked = pull_back(d, xh, bh)
        return {**x, "c": Fraction(0)}, blocked

    monkeypatch.setattr(blockset, "pull_back", uncovering)
    code, out, err = run(capsys, "stabilize", k3_file)
    assert code == 2
    assert out == ""
    assert "I1 violated at b-c" in err


def test_oracle_min_blockset_gap1_uses_instance(capsys, gap1_file):
    code, out, _ = run(capsys, "oracle", "min-blockset", gap1_file)
    report = json.loads(out)
    assert report["opt_size"] == 8
    assert report["nu"] == 1


def test_oracle_min_blockset_size_cutoff_bounds_the_enumeration(capsys, tmp_path):
    path = str(tmp_path / "g.txt")
    assert cli.main(["gen", "sparse", "--n", "9", "--seed", "1", "--out", path]) == 0
    assert len(open(path).read().splitlines()) == 27
    # 1 + 27 + 351 + 2925 candidate sets of at most 3 edges
    code, out, err = run(capsys, "oracle", "min-blockset", path, "--max-size", "3")
    assert code == 0, err
    report = json.loads(out)
    assert report["found"] and report["candidates_checked"] <= 3304
    # with no cutoff, 2**27 sets: too many to try, which is a usage error
    code, out, err = run(capsys, "oracle", "min-blockset", path)
    assert code == 1 and out == ""
    assert "enumeration limit" in err and "internal" not in err


def test_oracle_min_blockset_long_augmenting_paths(capsys, tmp_path):
    # a 3000-vertex path whose cover search walks alternating paths thousands of edges long
    names = [f"p{i:04d}" for i in range(3000)]
    edges = [[a, b] for a, b in zip(names, names[1:])]
    e1 = [edges[1], edges[1001], edges[2001]]  # blocking one keeps the matching number 1500
    obj = {"vertices": names, "edges": edges, "e1": e1,
           "e2": [e for e in edges if e not in e1], "nu": 1499}
    path = write(tmp_path, "path.json", json.dumps(obj))
    code, out, err = run(capsys, "oracle", "min-blockset", path, "--max-size", "1")
    assert code == 0, err
    report = json.loads(out)
    assert not report["found"] and report["candidates_checked"] == 4


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("argv, cap", [(("gap",), 100), (("sparse", "--seed", "1"), 1000)])
def test_gen_size_cap_exit_1(capsys, argv, cap):
    # a size of 10**17 is rejected before any vertex or edge is built; the
    # child's 1 GiB address-space limit turns a missing cap into a MemoryError
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "netbargain.cli", "gen", *argv, "--n", "1" + "0" * 17],
        capture_output=True, text=True, env=env, preexec_fn=_limit_memory, timeout=120,
    )
    assert done.returncode == 1 and done.stdout == ""
    assert f"cap of {cap}" in done.stderr and "internal" not in done.stderr
    with pytest.raises(SystemExit):
        cli.main(["gen", argv[0], "--help"])
    assert f"at most {cap}" in capsys.readouterr().out


def test_gen_gap_writes_instance(capsys, tmp_path):
    path = str(tmp_path / "g.json")
    assert cli.main(["gen", "gap", "--n", "1", "--out", path]) == 0
    obj = json.loads(open(path).read())
    assert len(obj["vertices"]) == 11
    assert obj["nu"] == 1
    assert len(obj["e1"]) == 8


def test_gen_sparse_deterministic_files(capsys, tmp_path):
    a = str(tmp_path / "a.txt")
    b = str(tmp_path / "b.txt")
    assert cli.main(["gen", "sparse", "--n", "6", "--omega", "1", "--seed", "7", "--out", a]) == 0
    assert cli.main(["gen", "sparse", "--n", "6", "--omega", "1", "--seed", "7", "--out", b]) == 0
    assert open(a).read() == open(b).read()


def test_gen_sparse_negative_edges_exit_1(capsys):
    code, _, err = run(capsys, "gen", "sparse", "--n", "4", "--seed", "1", "--edges", "-1")
    assert code == 1
    assert "edge count" in err and "internal" not in err


@pytest.mark.parametrize("flag", ["--nu", "--max-size"])
def test_oracle_min_blockset_negative_flag_exit_1(capsys, k3_file, flag):
    code, out, err = run(capsys, "oracle", "min-blockset", k3_file, flag, "-1")
    assert code == 1
    assert out == "" and flag in err


def _quiet_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


small_ints = st.integers(-3, 8)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(n=small_ints, seed=small_ints, edges=st.none() | small_ints)
def test_gen_sparse_integer_flags_fuzz(n, seed, edges):
    argv = ["gen", "sparse", "--n", str(n), "--seed", str(seed)]
    if edges is not None:
        argv += ["--edges", str(edges)]
    code, err = _quiet_main(argv)
    assert code == (1 if n < 1 or (edges or 0) < 0 else 0), err
    assert "internal" not in err


@pytest.fixture(scope="module")
def k3_module_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "k3.txt"
    path.write_text("a b\nb c\na c\n")
    return str(path)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(nu=st.none() | small_ints, max_size=st.none() | small_ints)
def test_oracle_min_blockset_integer_flags_fuzz(k3_module_file, nu, max_size):
    argv = ["oracle", "min-blockset", k3_module_file]
    for flag, value in (("--nu", nu), ("--max-size", max_size)):
        if value is not None:
            argv += [flag, str(value)]
    code, err = _quiet_main(argv)
    assert code == (1 if min(nu or 0, max_size or 0) < 0 else 0), err
    assert "internal" not in err


def test_dot_export(capsys, k3_file, tmp_path):
    dot = str(tmp_path / "g.dot")
    code, out, _ = run(capsys, "stabilize", k3_file, "--dot", dot)
    report = json.loads(out)
    text = open(dot).read()
    assert text.startswith("graph stabilized {")
    for u, v in report["blocking_set"]:
        assert f'"{u}" -- "{v}" [style=dashed];' in text


_DOT_ID = r'"((?:[^"\\]|\\.)*)"'  # a quoted DOT ID: no bare quote, each backslash escapes


def test_dot_export_escapes_quotes_and_backslashes(capsys, tmp_path):
    # one name holds a double quote, and another ends in a backslash
    path = write(tmp_path, "names.txt", 'a"b c\nc d\\\n')
    dot = str(tmp_path / "g.dot")
    code, _, _ = run(capsys, "stabilize", path, "--dot", dot)
    assert code == 0
    lines = open(dot).read().splitlines()
    assert lines[0] == "graph stabilized {" and lines[-1] == "}"
    vertex = re.compile(rf"  {_DOT_ID};")
    edge = re.compile(rf"  {_DOT_ID} -- {_DOT_ID}(?: \[style=dashed\])?;")
    vertices, edges = [], []
    for line in lines[1:-1]:
        m = vertex.fullmatch(line) or edge.fullmatch(line)
        assert m, line
        names = tuple(re.sub(r'\\(["\\])', r"\1", i) for i in m.groups())
        (vertices if len(names) == 1 else edges).append(names)
    assert vertices == [('a"b',), ("c",), ("d\\",)]
    assert edges == [('a"b', "c"), ("c", "d\\")]


@pytest.mark.parametrize(
    "argv",
    [
        ("stabilize", "{k3}", "--dot", "{missing}/x.dot"),
        ("balance", "{k3}", "--dot", "{directory}"),
        ("gen", "gap", "--n", "2", "--out", "{missing}/g.json"),
        ("gen", "sparse", "--n", "4", "--seed", "1", "--out", "{missing}/g.txt"),
        ("stabilize", "{k3}", "--dot", ""),
        ("gen", "gap", "--n", "1", "--out", ""),
    ],
)
def test_unwritable_output_path_exit_1(capsys, tmp_path, k3_file, argv):
    paths = {"k3": k3_file, "missing": str(tmp_path / "missing"), "directory": str(tmp_path)}
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 1 and out == ""
    assert "internal" not in err


def _options(parser, path=()):
    """The option strings of every leaf subcommand, keyed by its command path."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        flags = {f for a in parser._actions if not isinstance(a, argparse._HelpAction)
                 for f in a.option_strings}
        return {" ".join(path): flags}
    found = {}
    for name, sub in subs[0].choices.items():
        found.update(_options(sub, path + (name,)))
    return found


def test_option_set_is_pinned():
    # a new flag is a new knob: add it here on purpose
    assert _options(cli.build_parser()) == {
        "analyze": {"--trace"},
        "stabilize": {"--trace", "--dot"},
        "balance": {"--trace", "--dot"},
        "oracle min-blockset": {"--nu", "--max-size"},
        "gen gap": {"--n", "--out"},
        "gen sparse": {"--n", "--omega", "--seed", "--edges", "--out"},
    }


@pytest.mark.parametrize("argv", [("analyze",), ("stabilize",), ("balance",), ("oracle", "min-blockset")])
def test_json_flag_is_not_an_option(capsys, k3_file, argv):
    # every report is JSON, so there is no flag to ask for it
    assert run(capsys, *argv, k3_file)[0] == 0
    assert run(capsys, *argv, k3_file, "--json")[0] == 1


def test_trace_flag_includes_traces(capsys, k3_file):
    code, out, _ = run(capsys, "balance", k3_file, "--trace")
    report = json.loads(out)
    assert "blockset" in report["traces"]
    assert all(line.startswith("step=") for line in report["traces"]["blockset"])


@pytest.mark.parametrize("command", ["stabilize", "balance"])
def test_stable_input_is_settled_by_the_core_witness(capsys, monkeypatch, p4_file, command):
    def no_rounding(*args):
        raise AssertionError("the rounding ran on a stable root")

    monkeypatch.setattr(blockset, "_ir", no_rounding)
    code, out, _ = run(capsys, command, p4_file, "--trace")
    report = json.loads(out)
    assert code == 0
    assert report["traces"]["blockset"] == ["step=1 case=core |V|=4 |E1|=3 |E2|=0 nu=2"]
    assert report["allocation"] == report["core"]["witness"]
    assert report["guarantee"] == {"bound_holds": True, "factor": "3/1", "root_lp_value": "0/1"}


def test_one_parser_keeps_no_state_between_calls(capsys, p4_file):
    # main parses every call with the same parser: neither a rejected command
    # line nor a --trace call may leak into the next call's options
    assert run(capsys, "balance", p4_file, "--no-such-flag")[0] == 1
    parser = cli._PARSER
    assert "traces" in json.loads(run(capsys, "balance", p4_file, "--trace")[1])
    code, out, _ = run(capsys, "balance", p4_file)
    assert code == 0 and "traces" not in json.loads(out)
    assert cli._PARSER is parser is not None
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    fresh = subprocess.run(
        [sys.executable, "-m", "netbargain.cli", "balance", p4_file],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert fresh.returncode == 0 and fresh.stdout == out


def test_parse_error_exit_1(capsys, tmp_path):
    path = write(tmp_path, "bad.txt", "a a\n")
    code, _, err = run(capsys, "analyze", path)
    assert code == 1
    assert "line 1" in err


def test_missing_file_exit_1(capsys):
    code, _, err = run(capsys, "analyze", "/nonexistent/file.txt")
    assert code == 1


def test_bad_flag_exit_1(capsys, k3_file):
    code, _, err = run(capsys, "analyze", k3_file, "--omega", "0.5")
    assert code == 1


@pytest.mark.parametrize("command", ["analyze", "stabilize", "balance"])
def test_omega_flag_rejected(capsys, k3_file, command):
    code, out, err = run(capsys, command, k3_file, "--omega", "2")
    assert code == 1 and out == ""
    assert "--omega" in err and "internal" not in err


def test_computed_sparsity_reported_beyond_enumeration(capsys, tmp_path):
    # K5 plus a 20-vertex tail: 25 vertices, global density 6/5, sparsity 2
    ks = [f"k{i}" for i in range(5)]
    edges = [(a, b) for i, a in enumerate(ks) for b in ks[i + 1:]]
    tail = ["k0"] + [f"t{i:02d}" for i in range(20)]
    edges += list(zip(tail, tail[1:]))
    path = write(tmp_path, "k5tail.txt", "".join(f"{u} {v}\n" for u, v in edges))
    for command in ("analyze", "stabilize", "balance"):
        code, out, err = run(capsys, command, path)
        assert code == 0, err
        report = json.loads(out)
        assert report["omega"] == "2/1"
        if command != "analyze":
            assert report["guarantee"]["factor"] == "18/1"


def test_non_utf8_edge_list_exit_1(capsys, tmp_path):
    p = tmp_path / "bad.txt"
    p.write_bytes(b"a b\n\xff\xfe c\n")
    code, _, err = run(capsys, "analyze", str(p))
    assert code == 1
    assert "internal" not in err


def _instance_file(tmp_path, **overrides):
    obj = {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]],
           "e1": [["a", "b"], ["b", "c"]], "e2": [], "nu": 1}
    obj.update(overrides)
    return write(tmp_path, "inst.json", json.dumps(obj))


@pytest.mark.parametrize(
    "field, value",
    [("e1", 5), ("e1", [5]), ("e1", [["a"]]), ("e1", [["a", 1]]), ("e1", "ab"),
     ("e2", [["a", "b", "c"]]), ("nu", True), ("edges", [5]), ("edges", [["a", 1]])],
)
def test_instance_json_bad_field_exit_1(capsys, tmp_path, field, value):
    assert run(capsys, "stabilize", _instance_file(tmp_path))[0] == 0
    code, _, err = run(capsys, "stabilize", _instance_file(tmp_path, **{field: value}))
    assert code == 1
    assert field in err and "internal" not in err


def _json(drop=(), **fields):
    obj = {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]],
           "e1": [["a", "b"]], "e2": [["b", "c"]], "nu": 1, **fields}
    return json.dumps({k: v for k, v in obj.items() if k not in drop})


@pytest.mark.parametrize(
    "text, argv, message",
    [
        ('{"vertices": [', (), "invalid JSON"),
        (_json(drop=("nu",)), (), "missing nu"),
        (_json(nu=-1), (), "nonnegative"),
        (_json(e2=[["a", "b"], ["b", "c"]]), (), "overlap"),
        (_json(e2=[]), (), "partition"),
        (_json(drop=("vertices", "e1", "e2", "nu")), (), "'vertices' and 'edges'"),
        (_json(drop=("e1", "e2", "nu"), vertices="abc"), (), "list of strings"),
        (_json(drop=("e1", "e2", "nu"), edges=[["a", "a"]]), (), "self-loop"),
        (_json(drop=("e1", "e2", "nu"), vertices=["a b"]), (), "invalid vertex name"),
        (_json(drop=("e1", "e2", "nu"), vertices=[""]), (), "invalid vertex name"),
        ('{"vertices": ' + "[" * 100000 + "]" * 100000 + ', "edges": []}', (), "invalid JSON"),
        ('{"vertices": [], "edges": [], "deep": ' + '{"a": ' * 100000 + "1" + "}" * 100001,
         (), "invalid JSON"),
        (None, ("gen", "sparse", "--n", "4", "--omega", "1/2", "--seed", "1"), "at least 1"),
        (None, ("gen", "sparse", "--n", "4", "--omega", "1", "--edges", "6", "--seed", "1"),
         "could not sample"),
        (None, ("gen", "sparse", "--n", "4", "--omega", "", "--seed", "1"), "expected a rational"),
    ],
    ids=["invalid-json", "no-nu", "negative-nu", "overlapping-classes", "classes-not-partition",
         "no-vertices", "vertices-string", "self-loop", "whitespace-name", "empty-name",
         "nested-array", "nested-object", "omega-below-1", "omega-unreachable", "omega-empty"],
)
def test_malformed_input_exit_1(capsys, tmp_path, text, argv, message):
    if text is not None:
        argv = ("analyze", write(tmp_path, "in.json", text))
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert message in err and "internal" not in err


@pytest.mark.parametrize("command", ["stabilize", "balance"])
def test_repeated_instance_edges_collapse(capsys, tmp_path, command):
    obj = {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"], ["a", "c"]],
           "e1": [["a", "b"], ["b", "a"], ["b", "c"]], "e2": [["a", "c"]], "nu": 1}
    repeated = write(tmp_path, "repeated.json", json.dumps(obj))
    obj["e1"] = [["a", "b"], ["b", "c"]]
    plain = write(tmp_path, "plain.json", json.dumps(obj))
    code, out, err = run(capsys, command, repeated)
    assert code == 0, err
    report, expected = json.loads(out), json.loads(run(capsys, command, plain)[1])
    assert report.pop("input_digest") != expected.pop("input_digest")
    assert report == expected


def _protected_file(tmp_path, edges, nu):
    obj = {"vertices": sorted({v for e in edges for v in e}), "edges": edges,
           "e1": [], "e2": edges, "nu": nu}
    return write(tmp_path, "protected.json", json.dumps(obj))


@pytest.mark.parametrize("command", ["stabilize", "balance"])
@pytest.mark.parametrize(
    "edges, nu",
    [([["a", "b"]], 0),
     # the triangle has matching number 1 but fractional matching number 3/2
     ([["a", "b"], ["a", "c"], ["b", "c"]], 1)],
)
def test_protected_edges_beyond_budget_exit_1(capsys, tmp_path, command, edges, nu):
    path = _protected_file(tmp_path, edges, nu)
    code, _, err = run(capsys, command, path)
    assert code == 1
    assert "e2" in err and "internal" not in err
    code, out, _ = run(capsys, "oracle", "min-blockset", path)
    assert code == 0 and json.loads(out)["found"] is False
    assert run(capsys, "stabilize", _protected_file(tmp_path, edges, nu + 1))[0] == 0


def test_balance_budget_above_matching_number_exit_1(capsys, tmp_path):
    path = _protected_file(tmp_path, [["a", "b"], ["a", "c"], ["b", "c"]], 2)
    assert run(capsys, "stabilize", path)[0] == 0
    code, _, err = run(capsys, "balance", path)
    assert code == 1
    assert "matching number" in err and "internal" not in err


@pytest.mark.parametrize("command, runs", [("analyze", 2), ("stabilize", 2), ("balance", 3)])
def test_one_blossom_run_on_the_input_graph(capsys, monkeypatch, p4_file, command, runs):
    # the core diagnosis runs the blossom on G and on its double cover;
    # balance adds one run on the residual graph G'
    calls = []
    blossom = matching._blossom

    def counted(n, adj):
        calls.append(n)
        return blossom(n, adj)

    monkeypatch.setattr(matching, "_blossom", counted)
    assert run(capsys, command, p4_file)[0] == 0
    assert len(calls) == runs
    assert calls.count(4) == runs - 1


def test_unknown_command_exit_1(capsys):
    assert cli.main(["frobnicate"]) == 1


def test_reports_byte_identical_across_runs(capsys, k3_file, p4_file, gap1_file):
    for args in (
        ["analyze", k3_file],
        ["stabilize", k3_file, "--trace"],
        ["balance", p4_file, "--trace"],
        ["stabilize", gap1_file],
        ["oracle", "min-blockset", k3_file],
    ):
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second, args
