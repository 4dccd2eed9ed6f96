import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from netbargain import cli

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


def test_oracle_min_blockset_gap1_uses_instance(capsys, gap1_file):
    code, out, _ = run(capsys, "oracle", "min-blockset", gap1_file)
    report = json.loads(out)
    assert report["opt_size"] == 8
    assert report["nu"] == 1


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


def test_trace_flag_includes_traces(capsys, k3_file):
    code, out, _ = run(capsys, "balance", k3_file, "--trace")
    report = json.loads(out)
    assert "blockset" in report["traces"]
    assert all(line.startswith("step=") for line in report["traces"]["blockset"])


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


def test_omega_below_computed_rejected(capsys, k3_file):
    code, _, err = run(capsys, "stabilize", k3_file, "--omega", "1/2")
    assert code == 1


def test_omega_override_accepted(capsys, k3_file):
    code, out, _ = run(capsys, "stabilize", k3_file, "--omega", "2")
    report = json.loads(out)
    assert code == 0
    assert report["guarantee"]["factor"] == "18/1"


def test_omega_below_sparsity_rejected_beyond_enumeration(capsys, tmp_path):
    # K5 plus a 20-vertex tail: 25 vertices, global density 6/5, sparsity 2
    ks = [f"k{i}" for i in range(5)]
    edges = [(a, b) for i, a in enumerate(ks) for b in ks[i + 1:]]
    tail = ["k0"] + [f"t{i:02d}" for i in range(20)]
    edges += list(zip(tail, tail[1:]))
    path = write(tmp_path, "k5tail.txt", "".join(f"{u} {v}\n" for u, v in edges))
    code, _, err = run(capsys, "analyze", path, "--omega", "3/2")
    assert code == 1
    assert "computed sparsity 2" in err


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
     ("e2", [["a", "b", "c"]]), ("nu", True)],
)
def test_instance_json_bad_field_exit_1(capsys, tmp_path, field, value):
    assert run(capsys, "stabilize", _instance_file(tmp_path))[0] == 0
    code, _, err = run(capsys, "stabilize", _instance_file(tmp_path, **{field: value}))
    assert code == 1
    assert field in err and "internal" not in err


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
