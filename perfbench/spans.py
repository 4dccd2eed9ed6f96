"""Spans around the program's layers, recorded from outside the program.

`Tracer.install` replaces each traced function by a wrapper in every
`netbargain` module that holds it, so both `graphcore.compute_sparsity`
and the names `cli` and `blockset` imported from it are covered.  A span
records its name, start, end, parent span and instance id, plus a few
counts read from the arguments and the result.  Spans stay in memory
until the run writes them out.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "netbargain"

#: (defining module, function) -> span name.  `cli.main` is wrapped by
#: the runner itself, around each traced call.
TRACED = {
    ("graphcore", "compute_sparsity"): "graphcore.compute_sparsity",
    ("graphcore", "bipartite_double"): "graphcore.bipartite_double",
    ("graphcore", "pull_back"): "graphcore.pull_back",
    ("exactlp", "solve"): "exactlp.solve",
    ("matching", "max_matching"): "matching.max_matching",
    ("matching", "core_status"): "matching.core_status",
    ("blockset", "stabilize_instance"): "blockset.stabilize_instance",
    ("bargain", "balanced_outcome"): "bargain.balanced_outcome",
    ("bargain", "surpluses"): "bargain.surpluses",
}

#: span name -> per-layer metric its self time is added to
SELF_TIME_METRIC = {
    "cli.main": "cli.self_s",
    "graphcore.compute_sparsity": "graphcore.sparsity_s",
    "graphcore.bipartite_double": "graphcore.double_s",
    "graphcore.pull_back": "graphcore.double_s",
    "exactlp.solve": "exactlp.solve_s",
    "matching.max_matching": "matching.max_matching_s",
    "matching.core_status": "matching.core_status_s",
    "blockset.stabilize_instance": "blockset.stabilize_s",
    "bargain.balanced_outcome": "bargain.balance_s",
    "bargain.surpluses": "bargain.surpluses_s",
}

#: the spans whose LP solves are attributed to a caller, nearest first
LP_CALLERS = {
    "blockset.stabilize_instance": "blockset",
    "bargain.balanced_outcome": "bargain",
    "matching.core_status": "matching",
}


@dataclass
class Span:
    name: str
    parent: int | None
    instance: int
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


def _observe(name: str, args: tuple, result) -> dict:
    """Counts read at the layer boundary from the call's inputs and result."""
    if name == "exactlp.solve":
        lp = args[0]
        return {
            "rows": len(lp.constraints),
            "cols": len(lp.variables),
            "lp": lp.name,
            "status": result.status,
        }
    if name == "blockset.stabilize_instance":
        return {
            "stats": dict(result.stats),
            "ir_steps": len(result.trace),
            "root_zero": result.root_lp_value == 0,
        }
    if name == "bargain.balanced_outcome":
        return {"lp_solves": result.lp_solves, "shifts": result.shifts}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.instance = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self.missing: list[str] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else None
            span = Span(name, parent, self.instance)
            spans.append(span)
            stack.append(sid)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    spans[parent].child_s += span.end - span.start
            span.info = _observe(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for (mod_name, fn_name), span_name in TRACED.items():
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            original = getattr(home, fn_name, None)
            if original is None:
                self.missing.append(span_name)
                continue
            wrapper = self.wrap(span_name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original, wrapper))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def patched_attributes(self) -> list[str]:
        return sorted(f"{mod.__name__}.{attr}" for mod, attr, _, _ in self._patches)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "instance": s.instance, **s.info,
                }) + "\n")


def layer_metrics(spans: list[Span], first: int = 0, last: int | None = None) -> dict[str, float]:
    """Per-layer totals over the complete span trees in spans[first:last]."""
    last = len(spans) if last is None else last
    out: dict[str, float] = {name: 0.0 for name in set(SELF_TIME_METRIC.values())}
    counts = dict.fromkeys(
        [
            "graphcore.sparsity_calls", "exactlp.solves", "exactlp.blockset_solves",
            "exactlp.bargain_solves", "exactlp.matching_solves", "exactlp.cells",
            "exactlp.infeasible_solves", "matching.max_matching_calls",
            "blockset.lp_solves", "blockset.ir_steps", "blockset.case1", "blockset.case2",
            "blockset.case3", "blockset.leaf", "blockset.bad_leaves",
            "blockset.lemma_two_checks", "blockset.doubled_instances",
            "blockset.zero_root_doubled", "bargain.lp_solves", "bargain.shifts",
            "bargain.surpluses_calls", "bargain.delta_lp_rows",
        ],
        0,
    )
    caller_s = {"blockset": 0.0, "bargain": 0.0, "matching": 0.0}
    solve_max = 0.0
    # an instance took the two-copy path when its stabilize span built the double
    doubled = {s.parent for s in spans[first:last] if s.name == "graphcore.bipartite_double"}
    for sid in range(first, last):
        s = spans[sid]
        out[SELF_TIME_METRIC[s.name]] += s.self_s
        if s.name == "graphcore.compute_sparsity":
            counts["graphcore.sparsity_calls"] += 1
        elif s.name == "matching.max_matching":
            counts["matching.max_matching_calls"] += 1
        elif s.name == "bargain.surpluses":
            counts["bargain.surpluses_calls"] += 1
        elif s.name == "exactlp.solve" and s.info:
            dur = s.end - s.start
            solve_max = max(solve_max, dur)
            counts["exactlp.solves"] += 1
            counts["exactlp.cells"] += s.info["rows"] * s.info["cols"]
            counts["exactlp.infeasible_solves"] += s.info["status"] == "infeasible"
            caller = _lp_caller(spans, s)
            if caller is not None:
                counts[f"exactlp.{caller}_solves"] += 1
                caller_s[caller] += dur
            if s.info["lp"] == "surplus-acceleration":
                counts["bargain.delta_lp_rows"] += s.info["rows"]
        elif s.name == "blockset.stabilize_instance" and s.info:
            stats = s.info["stats"]
            counts["blockset.lp_solves"] += stats["lp_solves"]
            for case in ("case1", "case2", "case3", "leaf", "bad_leaves", "lemma_two_checks"):
                counts[f"blockset.{case}"] += stats[case]
            counts["blockset.ir_steps"] += s.info["ir_steps"]
            counts["blockset.doubled_instances"] += sid in doubled
            counts["blockset.zero_root_doubled"] += sid in doubled and s.info["root_zero"]
        elif s.name == "bargain.balanced_outcome" and s.info:
            counts["bargain.lp_solves"] += s.info["lp_solves"]
            counts["bargain.shifts"] += s.info["shifts"]
    out.update(counts)
    for caller, secs in caller_s.items():
        out[f"exactlp.{caller}_s"] = secs
    out["exactlp.solve_s_max"] = solve_max
    lp = counts["blockset.lp_solves"]
    out["blockset.useful_solve_ratio"] = (lp - counts["blockset.case2"]) / lp if lp else 1.0
    return out


def _lp_caller(spans: list[Span], span: Span) -> str | None:
    parent = span.parent
    while parent is not None:
        caller = LP_CALLERS.get(spans[parent].name)
        if caller is not None:
            return caller
        parent = spans[parent].parent
    return None
