"""netbargain benchmark: seeded `balance` workloads, timed end to end.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports the program from
`src/`.  Load is a closed loop with one client: each instance is one
in-process call of `netbargain.cli.main(["balance", <file>])`, stdout
captured, and the next call starts when it returns.

With `--trace 0` the loop cycles over the seeded pool for `--seconds`
(stopping on a block boundary, see workloads.py) and the last line of
stdout is a JSON object with the end-to-end metrics named in
BENCHMARK.json.  With `--trace 1` the fixed set (the leading blocks of
the pool) is run in passes until `--seconds` are used; each instance is
called once untraced and once with spans around every layer, and the
per-layer metrics are medians over passes.  Every output is checked by
check.py outside the timed region, and its sha256 is compared with any
other call of the same instance in the run.

On a host shared with other workloads the CPU's speed can drift by
20-40 % over seconds to minutes, and a whole 30 s run can land in a slow
or a fast phase.  So a fixed piece of exact-rational arithmetic (the reference
work) is timed before every instance and every set-up pass, and the
end-to-end times are reported in seconds at the nominal speed:
measured time x NOMINAL_REFERENCE_S / mean reference time of the same
phase, set-up or loop (`instances_per_s` is divided by the loop's
factor).  The raw figures and the factors are kept in the run's record.

Results, digests and spans go to `.perfbench_out/` in the checkout.
`--smoke` runs every workload on two instances in both modes and
asserts that each metric of BENCHMARK.json is reported with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

from check import check_balance_report  # noqa: E402
from spans import SELF_TIME_METRIC, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench_out"
#: set-up (import, generate, write) is repeated and its median reported,
#: so neither a cold file cache nor one slow pass decides it
SETUP_REPEATS = 9
#: the tail is the highest percentile with at least this many samples beyond it
TAIL_BEYOND = 10
PROGRAM_MODULES = ("cli", "oracle", "graphcore", "exactlp", "matching", "blockset", "bargain")
#: about the mean time of reference_s() on the 2-vCPU Xeon VM the first
#: baseline was taken on; adjusted end-to-end times are seconds at that speed
NOMINAL_REFERENCE_S = 0.005
_REF_ROW = [Fraction(i % 7 - 3, i % 5 + 1) for i in range(64)]
_REF_PIVOT = [Fraction(i % 3 + 1, i % 4 + 2) for i in range(64)]


def reference_s() -> float:
    """Time of the reference work: 16 small-integer `Fraction` row updates,
    the operation the program's simplex spends its time in.  It shares no
    code with the program, so no change to the program moves it."""
    t0 = time.perf_counter()
    for k in range(1, 17):
        f = Fraction(k % 5 + 1, k % 3 + 2)
        [a - f * b for a, b in zip(_REF_ROW, _REF_PIVOT)]
    return time.perf_counter() - t0


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def program_source() -> Path:
    src = ROOT / "src"
    if not (src / "netbargain" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {src}; run from a full checkout")
    return src


def import_program() -> SimpleNamespace:
    """Import netbargain afresh from this checkout's `src/`, never from elsewhere."""
    src = program_source()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "netbargain" or m.startswith("netbargain.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"netbargain.{name}") for name in PROGRAM_MODULES}
    if not Path(mods["cli"].__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: netbargain was imported from {mods['cli'].__file__}")
    return SimpleNamespace(**mods)


def write_inputs(instances: list, directory: Path) -> list[str]:
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    paths = []
    for i, edges in enumerate(instances):
        path = directory / f"g{i:04d}.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in edges))
        paths.append(str(path))
    return paths


def call(main, path: str) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = main(["balance", path])
        dt = time.perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), dt


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with
    at least TAIL_BEYOND samples beyond it; the maximum on short runs."""
    ordered = sorted(latencies)
    k = len(ordered) - 1 - (TAIL_BEYOND if len(ordered) > TAIL_BEYOND else 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


class Outputs:
    """First output of every instance, whether a later call of it differed,
    and the checker's verdict per instance."""

    def __init__(self, instances: list):
        self.instances = instances
        self.first: dict[int, str] = {}
        self.problems: dict[int, list[str]] = {}
        self.mismatched: set[int] = set()

    def add(self, idx: int, rc: int, text: str, err: str) -> None:
        if rc != 0:
            self.problems.setdefault(idx, []).append(f"exit {rc}: {err.strip()[:200]}")
        if idx not in self.first:
            self.first[idx] = text
        elif text != self.first[idx]:
            self.mismatched.add(idx)

    def check(self) -> None:
        for idx, text in self.first.items():
            if idx in self.problems:
                continue
            found = check_balance_report(self.instances[idx], text)
            if found:
                self.problems[idx] = found
        for idx in self.mismatched:
            self.problems.setdefault(idx, []).append("two calls gave different output")

    def fixed_set(self, size: int) -> dict:
        """Fingerprint and quality of the fixed set, the first `size` instances."""
        digests = [digest(self.first[i]) for i in range(size)]
        blocked = sum(len(json.loads(self.first[i])["blocking_set"]) for i in range(size)
                      if i not in self.problems)
        return {
            "workload_digest": hashlib.sha256("\n".join(digests).encode()).hexdigest(),
            "blocked_edges_total": blocked,
        }

    def digests(self) -> dict[str, str]:
        return {str(i): digest(text) for i, text in sorted(self.first.items())}


def run_timed(program, instances: list, paths: list[str], seconds: float, fixed: int, block: int):
    outputs = Outputs(instances)
    rc, text, err, _ = call(program.cli.main, paths[0])  # warm-up; also a repetition of instance 0
    outputs.add(0, rc, text, err)
    calls: list[tuple[int, float]] = []
    refs: list[float] = []
    start = time.perf_counter()
    while True:
        idx = len(calls) % len(paths)
        refs.append(reference_s())
        rc, text, err, dt = call(program.cli.main, paths[idx])
        outputs.add(idx, rc, text, err)
        calls.append((idx, dt))
        if len(calls) % block == 0 and len(calls) >= fixed and time.perf_counter() - start >= seconds:
            break
    wall = time.perf_counter() - start - sum(refs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    outputs.check()
    latencies = [dt for _, dt in calls]
    value, pct, beyond = tail(latencies)
    raw = {
        "instances_per_s": len(calls) / wall,
        "instance_s_p50": statistics.median(latencies),
        "instance_s_tail": value,
    }
    scale = NOMINAL_REFERENCE_S / statistics.fmean(refs)
    metrics = {
        "instances_per_s": raw["instances_per_s"] / scale,
        "instance_s_p50": raw["instance_s_p50"] * scale,
        "instance_s_tail": raw["instance_s_tail"] * scale,
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {
        "raw_metrics": raw,
        "speed_scale": scale,
        "reference_s": refs,
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "samples": len(calls),
        "wall_s": wall,
        "distinct_instances": len(outputs.first),
        "calls": calls,
    }
    return metrics, [idx for idx, _ in calls], outputs, extra


def run_traced(program, instances: list, paths: list[str], seconds: float, fixed: int):
    outputs = Outputs(instances)
    tracer = Tracer()
    traced_main = tracer.wrap("cli.main", program.cli.main)
    passes: list[dict] = []
    called: list[int] = []
    patched: list[str] = []
    start = time.perf_counter()
    # stop before a pass that would end after `seconds`, judged by the mean pass so far
    while not passes or (time.perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds:
        first_span = len(tracer.spans)
        plain_s = traced_s = 0.0
        for idx in range(fixed):
            for traced in ((False, True) if idx % 2 == 0 else (True, False)):
                if traced:
                    tracer.instance = idx
                    tracer.install()
                    patched = tracer.patched_attributes()
                    try:
                        rc, text, err, dt = call(traced_main, paths[idx])
                    finally:
                        tracer.uninstall()
                    traced_s += dt
                else:
                    rc, text, err, dt = call(program.cli.main, paths[idx])
                    plain_s += dt
                outputs.add(idx, rc, text, err)
                called.append(idx)
        m = layer_metrics(tracer.spans, first_span)
        m["trace_overhead_frac"] = (traced_s - plain_s) / plain_s
        m["trace.instance_s"] = traced_s
        m["trace.residual_frac"] = (
            traced_s - sum(m[name] for name in set(SELF_TIME_METRIC.values()))
        ) / traced_s
        m["exactlp.share"] = m["exactlp.solve_s"] / traced_s
        passes.append(m)
    outputs.check()
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    metrics["failed_frac"] = sum(idx in outputs.problems for idx in called) / len(called)
    metrics["blocked_edges_total"] = outputs.fixed_set(fixed)["blocked_edges_total"]
    calls_by_span: dict[str, int] = {}
    for s in tracer.spans:
        calls_by_span[s.name] = calls_by_span.get(s.name, 0) + 1
    extra = {
        "passes": len(passes),
        "span_calls": calls_by_span,
        "patched_attributes": patched,
        "missing_functions": sorted(set(tracer.missing)),
        "spans": len(tracer.spans),
        "per_pass": passes,
    }
    return metrics, called, outputs, extra, tracer


def run(workload: str, seed: int, seconds: float, trace: bool, limit: int | None = None) -> dict:
    """One benchmark run; returns the result line plus everything recorded."""
    program_source()
    spec = load_spec()
    wl = WORKLOADS[workload]
    count = limit if limit is not None else (wl.fixed_size if trace else None)
    tag = f"{workload}-s{seed}-t{int(trace)}"
    OUT.mkdir(exist_ok=True)
    setup_times, setup_refs = [], []
    for _ in range(SETUP_REPEATS):
        setup_refs.append(reference_s())
        t0 = time.perf_counter()
        program = import_program()
        instances = wl.generate(seed, program, count)
        paths = write_inputs(instances, OUT / f"{tag}-inputs")
        setup_times.append(time.perf_counter() - t0)
    setup_s = statistics.median(setup_times)
    setup_scale = NOMINAL_REFERENCE_S / statistics.fmean(setup_refs)
    fixed = min(wl.fixed_size, len(paths))
    block = min(wl.block_size, len(paths))

    tracer = None
    if trace:
        metrics, called, outputs, extra, tracer = run_traced(
            program, instances, paths, seconds, fixed)
    else:
        metrics, called, outputs, extra = run_timed(
            program, instances, paths, seconds, fixed, block)
        metrics["setup_s"] = setup_s * setup_scale
    wanted = spec["per_layer" if trace else "end_to_end"]
    correct = not outputs.problems and not outputs.mismatched
    result = {
        "correct": correct,
        "attempted": len(called),
        "failed": sum(idx in outputs.problems for idx in called),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "result": result,
        "setup_s": setup_times,
        "setup_speed_scale": setup_scale,
        "fixed_set": outputs.fixed_set(fixed),
        "output_digests": outputs.digests(),
        "problems": {str(k): v for k, v in sorted(outputs.problems.items())},
        **extra,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{tag}-spans.jsonl")
    if correct:
        shutil.rmtree(OUT / f"{tag}-inputs")
    return record


def smoke() -> None:
    spec = load_spec()
    for name in WORKLOADS:
        for trace in (False, True):
            record = run(name, seed=0, seconds=0, trace=trace, limit=2)
            metrics = record["result"]["metrics"]
            for m in spec["per_layer" if trace else "end_to_end"]:
                got = metrics.get(m["name"])
                assert got is not None and got["unit"] == m["unit"], (name, m["name"], got)
            assert record["result"]["correct"], (name, trace, record["problems"])
            print(f"smoke {name} trace={int(trace)}: {len(metrics)} metrics, correct")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="two instances per workload, both modes")
    args = ap.parse_args(argv)
    if args.smoke:
        smoke()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        print(f"passes over the fixed set: {record['passes']}; spans: {record['spans']}")
    else:
        print(
            f"{record['samples']} instances in {record['wall_s']:.2f} s; instance_s_tail is "
            f"p{record['tail_percentile']:.1f} ({record['tail_samples_beyond']} samples beyond); "
            f"times scaled by {record['speed_scale']:.3f} to the nominal speed"
        )
    print(f"workload digest: {record['fixed_set']['workload_digest']}")
    for idx, found in record["problems"].items():
        print(f"instance {idx}: {'; '.join(found)}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
