"""Self-tests of the benchmark: span-count cross-check, checker, smoke mode.

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

Run from the root of a source checkout; takes about a minute.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from check import check_balance_report  # noqa: E402
from workloads import WORKLOADS, is_bipartite  # noqa: E402

SEED = 0
ALL = set(WORKLOADS)
DOUBLING = {"corpus", "dense_host"}

#: span -> workloads whose fixed set must reach it (see baseline.json "mapping")
EXPECTED_SPANS = {
    "cli.main": ALL,
    "graphcore.compute_sparsity": ALL,
    "graphcore.bipartite_double": DOUBLING,
    "graphcore.pull_back": DOUBLING,
    "exactlp.solve": ALL,
    "matching.max_matching": ALL,
    "matching.core_status": ALL,
    "blockset.stabilize_instance": ALL,
    "bargain.balanced_outcome": ALL,
    "bargain.surpluses": ALL,
}

#: per-layer counts that must be positive on a workload
POSITIVE = {
    "corpus": ["exactlp.blockset_solves", "exactlp.bargain_solves", "exactlp.matching_solves",
               "blockset.doubled_instances", "blockset.case1", "bargain.lp_solves"],
    "dense_host": ["exactlp.blockset_solves", "exactlp.matching_solves",
                   "blockset.doubled_instances", "blockset.case1"],
    "bipartite_balance": ["exactlp.blockset_solves", "exactlp.bargain_solves",
                          "bargain.lp_solves", "bargain.shifts", "bargain.delta_lp_rows"],
}

#: module attributes through which the pipeline calls a traced function
MUST_PATCH = [
    "netbargain.graphcore.compute_sparsity", "netbargain.cli.compute_sparsity",
    "netbargain.blockset.compute_sparsity", "netbargain.blockset.bipartite_double",
    "netbargain.blockset.pull_back", "netbargain.exactlp.solve",
    "netbargain.matching.max_matching", "netbargain.bargain.max_matching",
    "netbargain.bargain.surpluses",
]

_records: dict[str, dict] = {}


def traced_record(workload: str) -> dict:
    """One traced pass over the fixed set of `workload` (cached per process)."""
    if workload not in _records:
        _records[workload] = run.run(workload, SEED, seconds=0, trace=True)
    return _records[workload]


def _check_span_counts(workload: str) -> None:
    record = traced_record(workload)
    assert record["result"]["correct"], record["problems"]
    m = {k: v["value"] for k, v in record["result"]["metrics"].items()}
    wl = WORKLOADS[workload]
    instances = wl.generate(SEED, run.import_program(), wl.fixed_size)
    non_bipartite = sum(not is_bipartite(edges) for edges in instances)

    # one root relaxation per non-bipartite instance, plus the IR's own solves
    assert m["exactlp.blockset_solves"] == m["blockset.lp_solves"] + non_bipartite, m
    assert m["exactlp.bargain_solves"] == m["bargain.lp_solves"], m
    assert m["exactlp.solves"] == sum(
        m[f"exactlp.{c}_solves"] for c in ("blockset", "bargain", "matching")), m
    for name, where in EXPECTED_SPANS.items():
        hits = record["span_calls"].get(name, 0)
        assert (hits > 0) == (workload in where), (workload, name, hits)
    for name in POSITIVE[workload]:
        assert m[name] > 0, (workload, name)
    assert not record["missing_functions"], record["missing_functions"]
    assert set(MUST_PATCH) <= set(record["patched_attributes"]), record["patched_attributes"]
    assert abs(m["trace.residual_frac"]) < 0.02, m["trace.residual_frac"]


def test_span_counts_corpus():
    _check_span_counts("corpus")


def test_span_counts_dense_host():
    _check_span_counts("dense_host")


def test_span_counts_bipartite_balance():
    _check_span_counts("bipartite_balance")


def test_checker_rejects_broken_reports():
    program = run.import_program()
    wl = WORKLOADS["corpus"]
    edges = next(e for e in wl.generate(SEED, program, wl.fixed_size) if len(e) >= 8)
    path = run.OUT / "selftest-graph.txt"
    run.OUT.mkdir(exist_ok=True)
    path.write_text("".join(f"{u} {v}\n" for u, v in edges))
    rc, text, _, _ = run.call(program.cli.main, str(path))
    path.unlink()
    assert rc == 0 and check_balance_report(edges, text) == []
    good = json.loads(text)

    def broken(edit) -> list[str]:
        rep = json.loads(text)
        edit(rep)
        return check_balance_report(edges, json.dumps(rep))

    v0 = sorted(good["balanced_allocation"])[0]
    assert broken(lambda r: r["matching"].pop())
    assert broken(lambda r: r["balanced_allocation"].__setitem__(v0, "0/1"))
    assert broken(lambda r: r["allocation"].update({v: "0/1" for v in r["allocation"]}))
    assert broken(lambda r: r["guarantee"].__setitem__("root_lp_value", "0/1")) or not good["blocking_set"]
    assert broken(lambda r: r.__setitem__("nu", r["nu"] + 1))
    assert broken(lambda r: r.__setitem__("balanced_allocation", "oops"))


def test_smoke_reports_every_metric_with_its_unit():
    run.smoke()


if __name__ == "__main__":
    tests = [(k, v) for k, v in sorted(globals().items()) if k.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}", flush=True)
