"""Command-line front end with deterministic machine-readable output.

Commands: analyze | stabilize | balance | oracle min-blockset | gen gap |
gen sparse.  Reports are JSON with sorted keys; all rationals render as
canonical "p/q" strings, never decimals.  Exit codes: 0 success, 1 input
error, 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import bargain, blockset, matching, oracle
from .errors import InputError, InternalInvariantError, PreconditionError
from .graphcore import (
    Graph,
    compute_sparsity,
    edge_list_text,
    graph_from_json_obj,
    parse_edge_list,
    to_dot,
)

_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def rational_str(value: Fraction | int) -> str:
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def parse_rational(text: str) -> Fraction:
    if not _RATIONAL_RE.match(text):
        raise InputError(f"expected a rational like '3' or '8/3', got {text!r}")
    return Fraction(text)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        raise InputError(message)


def _edge_pairs(obj: dict, key: str) -> tuple[tuple[str, str], ...]:
    items = obj[key]
    if not isinstance(items, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(isinstance(v, str) for v in e) for e in items
    ):
        raise InputError(f"'{key}' must be a list of vertex-name pairs")
    return tuple((u, v) for u, v in items)


def _load_input(path: str) -> tuple[Graph, blockset.GbsInstance | None, bytes]:
    """Read an edge-list file or an instance/graph JSON file.

    JSON objects carrying "e1"/"e2"/"nu" describe a full instance with a
    fixed droppable-edge class and budget; otherwise the budget defaults
    to the matching number with every edge droppable.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not valid UTF-8: {exc}") from None
    if text.lstrip().startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid JSON in {path}: {exc}") from None
        g = graph_from_json_obj(obj)
        inst = None
        if "nu" in obj or "e1" in obj or "e2" in obj:
            for key in ("e1", "e2", "nu"):
                if key not in obj:
                    raise InputError(f"instance JSON must carry e1, e2 and nu (missing {key})")
            if not isinstance(obj["nu"], int) or isinstance(obj["nu"], bool):
                raise InputError("'nu' must be an integer")
            try:
                e1, e2 = _edge_pairs(obj, "e1"), _edge_pairs(obj, "e2")
                inst = blockset.GbsInstance(g, e1, e2, obj["nu"])
            except PreconditionError as exc:
                raise InputError(f"bad instance JSON: {exc}") from None
        return g, inst, raw
    return parse_edge_list(text), None, raw


def _resolve_omega(g: Graph, flag: str | None) -> Fraction:
    if flag is None:
        return compute_sparsity(g).omega
    override = parse_rational(flag)
    if override < 1:
        raise InputError("--omega must be at least 1")
    computed = compute_sparsity(g).omega
    if override < computed:
        raise InputError(f"--omega {override} is below the computed sparsity {computed}")
    return override


def _alloc_json(alloc: dict[str, Fraction]) -> dict[str, str]:
    return {v: rational_str(val) for v, val in sorted(alloc.items())}


def _core_section(g: Graph) -> tuple[dict, int]:
    report = matching.core_status(g)
    section = {
        "status": report.status,
        "fractional_value": rational_str(report.fractional_value),
        "inessential": list(report.inessential),
    }
    if report.status == "nonempty":
        section["witness"] = _alloc_json(report.witness_allocation)
    else:
        section["offending_edge"] = list(report.offending_edge)
    return section, report.nu


def _emit(report: dict) -> None:
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")


def _base_report(raw: bytes) -> dict:
    return {"input_digest": hashlib.sha256(raw).hexdigest()}


def cmd_analyze(args) -> int:
    g, _, raw = _load_input(args.file)
    report = _base_report(raw)
    core, nu = _core_section(g)
    report["core"] = core
    report["nu"] = nu
    report["omega"] = rational_str(_resolve_omega(g, args.omega))
    _emit(report)
    return 0


def _stabilize_sections(g, inst, raw, args) -> tuple[dict, blockset.BlockingSetResult]:
    omega = _resolve_omega(g, args.omega)
    if inst is None:
        inst = blockset.root_instance(g)
    result = blockset.stabilize_instance(inst, omega=omega)
    report = _base_report(raw)
    core, graph_nu = _core_section(g)
    report["core"] = core
    report["nu"] = inst.nu
    report["graph_nu"] = graph_nu
    report["omega"] = rational_str(omega)
    report["blocking_set"] = [list(e) for e in result.blocking_set]
    report["allocation"] = _alloc_json(result.x_hat)
    report["guarantee"] = {
        "factor": rational_str(result.guarantee_factor),
        "root_lp_value": rational_str(result.root_lp_value),
        "bound_holds": result.bound_holds,
    }
    if args.trace:
        report.setdefault("traces", {})["blockset"] = list(result.trace)
    if args.dot:
        Path(args.dot).write_text(to_dot(g, result.blocking_set, name="stabilized"))
    return report, result


def cmd_stabilize(args) -> int:
    g, inst, raw = _load_input(args.file)
    report, _ = _stabilize_sections(g, inst, raw, args)
    _emit(report)
    return 0


def cmd_balance(args) -> int:
    g, inst, raw = _load_input(args.file)
    report, result = _stabilize_sections(g, inst, raw, args)
    outcome = bargain.balanced_outcome(g, result)
    report["matching"] = [list(e) for e in outcome.matching]
    report["balanced_allocation"] = _alloc_json(outcome.allocation)
    report["alternatives"] = _alloc_json(outcome.alternatives)
    report["balance_residuals"] = {
        f"{u} {v}": rational_str(r) for (u, v), r in sorted(outcome.balance_residual.items())
    }
    if args.trace:
        report.setdefault("traces", {})["bargain"] = list(outcome.trace)
        if outcome.diagnostics:
            report["traces"]["bargain_diagnostics"] = list(outcome.diagnostics)
    _emit(report)
    return 0


def cmd_oracle_min_blockset(args) -> int:
    if min(args.nu or 0, args.max_size or 0) < 0:
        raise InputError("--nu and --max-size must be nonnegative")
    g, inst, raw = _load_input(args.file)
    if args.nu is not None:
        nu = args.nu
    elif inst is not None:
        nu = inst.nu
    else:
        nu = matching.matching_number(g)
    blockable = inst.e1 if inst is not None else None
    result = oracle.brute_min_blocking_set(g, nu, max_size=args.max_size, blockable=blockable)
    report = _base_report(raw)
    report["nu"] = nu
    report["found"] = result.found
    report["candidates_checked"] = result.candidates_checked
    if result.found:
        report["opt_size"] = len(result.blocking_set)
        report["blocking_set"] = [list(e) for e in result.blocking_set]
        report["witness"] = _alloc_json(result.witness)
    _emit(report)
    return 0


def _write_out(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_gen_gap(args) -> int:
    inst = oracle.gen_gap(args.n)
    obj = {
        "vertices": list(inst.graph.vertices),
        "edges": [list(e) for e in inst.graph.edges],
        "e1": [list(e) for e in inst.e1],
        "e2": [list(e) for e in inst.e2],
        "nu": inst.nu,
    }
    _write_out(json.dumps(obj, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def cmd_gen_sparse(args) -> int:
    omega = parse_rational(args.omega) if args.omega else Fraction(3)
    g = oracle.gen_sparse(args.n, omega, args.seed, n_edges=args.edges)
    _write_out(edge_list_text(g), args.out)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="netbargain", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="edge-list or instance-JSON input")
        p.add_argument("--json", action="store_true", help="JSON output (the default)")
        p.add_argument("--omega", metavar="P/Q", help="override the computed sparsity")
        p.add_argument("--trace", action="store_true", help="include per-step traces")

    p = sub.add_parser("analyze", help="matching number, sparsity, and stability status")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("stabilize", help="approximate blocking set with certificate")
    common(p)
    p.add_argument("--dot", metavar="PATH", help="write DOT with blocked edges dashed")
    p.set_defaults(func=cmd_stabilize)

    p = sub.add_parser("balance", help="full pipeline: blocking set plus balanced allocation")
    common(p)
    p.add_argument("--dot", metavar="PATH", help="write DOT with blocked edges dashed")
    p.set_defaults(func=cmd_balance)

    p_oracle = sub.add_parser("oracle", help="exhaustive ground truth")
    oracle_sub = p_oracle.add_subparsers(dest="oracle_command", required=True)
    p = oracle_sub.add_parser("min-blockset", help="exact minimum blocking set by enumeration")
    p.add_argument("file")
    p.add_argument("--json", action="store_true", help="JSON output (the default)")
    p.add_argument("--nu", type=int, help="budget override")
    p.add_argument("--max-size", type=int, default=None, help="enumeration cutoff")
    p.set_defaults(func=cmd_oracle_min_blockset)

    p_gen = sub.add_parser("gen", help="instance generators")
    gen_sub = p_gen.add_subparsers(dest="gen_command", required=True)
    p = gen_sub.add_parser("gap", help="worst-case layered instance (JSON)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_gen_gap)
    p = gen_sub.add_parser("sparse", help="seeded random sparse graph (edge list)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--omega", metavar="P/Q")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--edges", type=int, default=None)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_gen_sparse)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InternalInvariantError, PreconditionError) as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # never abort without a defined exit code
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
