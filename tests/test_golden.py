"""Golden digests of `netbargain balance` on a few small fixed inputs.

Each report's stdout is hashed and compared with a digest recorded from
an earlier release of the solver.  A refactor that claims byte-identical
output must leave every digest in place; a change that moves one on
purpose updates it here and says why in CHANGES.md.  The traced reports
pin the rounding recursion's per-step trace lines, and the stats pin
its counters: together they cover every IR case, a leaf and a bad leaf.
"""

import hashlib
import json

import pytest

from netbargain import blockset, cli, matching, oracle
from netbargain.graphcore import Graph, edge_list_text

import corpus

# (seed, vertices) of the random trees; tree12's balancing runs three
# acceleration LPs with 12 dominance rows
TREES = {"tree10": (5, 10), "tree12": (10, 12)}

GOLDEN = {
    "corpus1": "19cdffcd8f7f4c6a7bdface6cfed86c09d4570735b60fd46ec3130ca9f390cdb",
    "corpus2": "2605d59a892a6470bd92dec50baa0e5173d09a8d18c538ab8e32dac1c0e8a0d0",
    "corpus3": "f24d9935ebdd69fc96ec702c2628dd94aaa37134d3b80104c23158b7a0dd8199",
    "corpus4": "2c6c4bd05b0bccde3f01df3c677ca22ea0fac87ae8c1eeeb22e178c88c3a7b68",
    "corpus5": "9eb72241dfc0570c5318a4980e08fd3c9fc500af2bf981adf4bce3f609febf81",
    "corpus6": "65e98946fd5c8bc32dd52d341b1d598b447b5e9ce402f747df2d4634c5cf6aa2",
    "corpus7": "4b9377a5fe8bb8835d506cbe40519688869231e96a63b74d06363a7271660188",
    "corpus8": "6478cbbe7be4fdd6ef273a492fee74a706768e5c3900401410ecb11ddc4a042c",
    "tree10": "7273226a0ae969a963614c6572b9bf6bd8df26348c31cba28cb371b942742276",
    "tree12": "6ca72d254b5c2c34c57f567fa1909649c4de57b9a34eb254b2067a8d517391a2",
    "p4": "2b9d770998492bccae2e53949538f0f35db9a53be4ffdb6d3ae40e61132ec5ac",
    "gap1": "2ba4555b03b11627fb3f585b023bdc98e54f0f3bf882636f2c32bab8b59cd8bc",
}

# `balance --trace` stdout: corpus3 runs 9 case-2 steps on its doubled
# host and ends at a leaf of value 0, gap2 runs cases 1 and 3, star5 ends
# in a bad leaf at its root (the one relaxation here that the walk
# answers), and tree12, a stable root settled by its core witness
# (`case=core`), pins the balancing trace of its 3 LPs and 7 transfers.
TRACED = {
    "corpus3": "8043af2a741df3c0fbbace532e0140da29c5d85343634fbd60f594388023cf73",
    "gap2": "a425d7af26be1da9d3844105aa2ad9573430d869d663c80429b92e37f75a251e",
    "star5": "54d6ae9918133a7daeba7621b6b05df8b6a640ed7b7583b11d317767ad5eb68f",
    "tree12": "c5e6d5494b13da1681abc4b456994e6876ade6af64f67bf10f0d0401c61afcc3",
}

STATS = {
    "corpus3": {"lp_solves": 16, "ir_returns": 16, "lemma_two_checks": 15,
                "bad_leaves": 0, "case1": 3, "case2": 9, "case3": 3, "leaf": 1},
    "gap2": {"lp_solves": 15, "ir_returns": 16, "lemma_two_checks": 11,
             "bad_leaves": 0, "case1": 3, "case2": 0, "case3": 12, "leaf": 1},
    "star5": {"lp_solves": 1, "ir_returns": 1, "lemma_two_checks": 1,
              "bad_leaves": 1, "case1": 0, "case2": 0, "case3": 0, "leaf": 0},
}


def star_instance(mids: int) -> blockset.GbsInstance:
    """A hub on `mids` protected edges, each mid on one droppable edge."""
    e2 = [("x0", f"y{i}") for i in range(1, mids + 1)]
    e1 = [(f"y{i}", f"o{i}") for i in range(1, mids + 1)]
    return blockset.GbsInstance(Graph.build(e1 + e2), tuple(e1), tuple(e2), mids - 1)


def _instance(name: str) -> blockset.GbsInstance:
    if name.startswith("gap"):
        gap = oracle.gen_gap(int(name[len("gap"):]))
        return blockset.GbsInstance(gap.graph, gap.e1, gap.e2, gap.nu)
    if name.startswith("star"):
        return star_instance(int(name[len("star"):]))
    g = corpus.corpus_graph(int(name[len("corpus"):]))
    return blockset.root_instance(g, matching.matching_number(g))


def _input_file(name: str, tmp_path, capsys) -> str:
    path = tmp_path / (name + ".in")
    if name.startswith("gap"):
        assert cli.main(["gen", "gap", "--n", name[len("gap"):], "--out", str(path)]) == 0
        capsys.readouterr()
        return str(path)
    if name.startswith("star"):
        inst = _instance(name)
        obj = {
            "vertices": list(inst.graph.vertices),
            "edges": [list(e) for e in inst.graph.edges],
            "e1": [list(e) for e in inst.e1],
            "e2": [list(e) for e in inst.e2],
            "nu": inst.nu,
        }
        path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")
        return str(path)
    if name.startswith("corpus"):
        g = corpus.corpus_graph(int(name[len("corpus"):]))
    elif name in TREES:
        g = corpus.random_tree(*TREES[name])
    else:
        g = corpus.p4()
    path.write_text(edge_list_text(g))
    return str(path)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_balance_report_digest(name, tmp_path, capsys):
    path = _input_file(name, tmp_path, capsys)
    assert cli.main(["balance", path]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(TRACED))
def test_traced_balance_report_digest(name, tmp_path, capsys):
    path = _input_file(name, tmp_path, capsys)
    assert cli.main(["balance", "--trace", path]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == TRACED[name]


@pytest.mark.parametrize("name", sorted(STATS))
def test_stabilize_stats(name):
    assert blockset.stabilize_instance(_instance(name)).stats == STATS[name]
