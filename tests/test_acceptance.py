"""Acceptance suite: one test per shipping criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
The random corpus (200 seeded sparse graphs, at most 14 vertices and 18
edges, sparsity at most 3) is built once and shared.
"""

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction

import pytest

from netbargain import bargain, blockset, cli, exactlp, matching, oracle
from netbargain.graphcore import Graph, compute_sparsity

import corpus
from relaxation import gap_fractional_solution, relaxation_value
from vertexrank import is_vertex

F = Fraction
N_SEEDS = 200


def report(k, detail):
    print(f"\nACCEPTANCE {k}: PASS - {detail}")


@dataclass
class CorpusRun:
    graphs: dict = field(default_factory=dict)
    omegas: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    opts: dict = field(default_factory=dict)
    cores: dict = field(default_factory=dict)
    outcomes: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)
    #: (instance, value) of every relaxation the rounding answered
    nodes: list = field(default_factory=list)
    #: (instance, answer) of every relaxation the walk answered
    walks: list = field(default_factory=list)
    #: (LP, matching, cycle answer or None) of every acceleration LP of balancing
    accelerations: list = field(default_factory=list)
    elapsed: float = 0.0


@pytest.fixture(scope="module")
def corpus_run():
    t0 = time.monotonic()
    run = CorpusRun()
    totals = {
        "ir_returns": 0,
        "lemma_two_checks": 0,
        "bad_leaves": 0,
        "lp_solves": 0,
    }
    solve = blockset.solve_gbs_lp
    walk = blockset._walk
    cycle_answer = bargain._cycle_answer

    def recording(inst):
        ep = solve(inst)
        run.nodes.append((inst, ep.objective))
        return ep

    def recording_walk(inst, side, covers):
        run.walks.append((inst, walk(inst, side, covers)))
        return run.walks[-1][1]

    def recording_cycle(lp, m):
        run.accelerations.append((lp, m, cycle_answer(lp, m)))
        return run.accelerations[-1][2]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(blockset, "solve_gbs_lp", recording)
        patch.setattr(blockset, "_walk", recording_walk)
        patch.setattr(bargain, "_cycle_answer", recording_cycle)
        for seed in range(N_SEEDS):
            g = corpus.corpus_graph(seed)
            assert g.n <= 14 and g.m <= 18
            omega = compute_sparsity(g).omega
            assert omega <= 3
            result = blockset.stabilize(g)
            assert result.omega == omega
            opt = oracle.brute_min_blocking_set(g, matching.matching_number(g))
            assert opt.found
            core = matching.core_status(g)
            outcome = bargain.balanced_outcome(g, result, core.nu)
            run.graphs[seed] = g
            run.omegas[seed] = omega
            run.results[seed] = result
            run.opts[seed] = opt
            run.cores[seed] = core
            run.outcomes[seed] = outcome
            for key in totals:
                totals[key] += result.stats[key]
        # deterministic instances that hit the uniformly fractional leaf
        for idx, mids in enumerate((5, 7)):
            e2 = [("x0", f"y{i}") for i in range(1, mids + 1)]
            e1 = [(f"y{i}", f"o{i}") for i in range(1, mids + 1)]
            inst = blockset.GbsInstance(Graph.build(e1 + e2), tuple(e1), tuple(e2), mids - 1)
            result = blockset.stabilize_instance(inst)
            run.results[f"star{idx}"] = result
            for key in totals:
                totals[key] += result.stats[key]
    run.stats = totals
    run.elapsed = time.monotonic() - t0
    return run


def test_criterion_1_gap_base_case():
    t0 = time.monotonic()
    gap = oracle.gen_gap(1)
    inst = blockset.GbsInstance(gap.graph, gap.e1, gap.e2, gap.nu)
    result = blockset.stabilize_instance(inst)
    opt = oracle.brute_min_blocking_set(gap.graph, gap.nu, blockable=gap.e1)
    elapsed = time.monotonic() - t0
    assert len(result.blocking_set) == 8
    assert opt.found and len(opt.blocking_set) == 8
    assert elapsed < 10
    report(1, f"|B|=8 = OPT=8 on the size-1 worst case in {elapsed:.2f}s")


def test_criterion_2_gap_fractional_value():
    t0 = time.monotonic()
    lp_values = {}
    for n in (1, 2, 3):
        gap = oracle.gen_gap(n)
        inst = blockset.GbsInstance(gap.graph, gap.e1, gap.e2, gap.nu)
        x, z = gap_fractional_solution(gap)
        for u, v in gap.e1:
            assert x[u] + x[v] + z[(u, v)] >= 1
        for u, v in gap.e2:
            assert x[u] + x[v] >= 1
        assert sum(x.values(), F(0)) <= gap.nu
        assert sum(z.values(), F(0)) == 8
        t_n = time.monotonic()
        lp_values[n] = relaxation_value(inst)
        assert lp_values[n] <= 8
        if n == 3:
            assert time.monotonic() - t_n < 30
    # exhaustive integral check, tractable regime
    gap1 = oracle.gen_gap(1)
    assert len(oracle.brute_min_blocking_set(gap1.graph, gap1.nu, blockable=gap1.e1).blocking_set) == 8
    t2 = time.monotonic()
    gap2 = oracle.gen_gap(2)
    opt2 = oracle.brute_min_blocking_set(gap2.graph, gap2.nu, blockable=gap2.e1)
    exhaustive_elapsed = time.monotonic() - t2
    assert exhaustive_elapsed < 300
    assert opt2.found and len(opt2.blocking_set) >= 8  # binary-variable lower bound 4n
    report(
        2,
        f"constructed value 8 feasible for n=1..3, LP optimum "
        f"{'/'.join(str(lp_values[n]) for n in (1, 2, 3))} <= 8; "
        f"integral OPT: n=1 -> 8, n=2 -> {len(opt2.blocking_set)} "
        f"(exhaustive in {exhaustive_elapsed:.1f}s; total {time.monotonic()-t0:.1f}s)",
    )


def test_criterion_3_approximation_guarantee(corpus_run):
    unstable = 0
    for seed in range(N_SEEDS):
        result = corpus_run.results[seed]
        omega = corpus_run.omegas[seed]
        opt_size = len(corpus_run.opts[seed].blocking_set)
        got = len(result.blocking_set)
        assert got <= (8 * omega + 2) * opt_size
        assert got <= result.guarantee_factor * result.root_lp_value
        if opt_size:
            unstable += 1
    assert corpus_run.elapsed < 600
    report(
        3,
        f"{N_SEEDS} seeded graphs ({unstable} unstable): |B| <= (8w+2)*OPT and "
        f"|B| <= factor*root_lp, exact; corpus built in {corpus_run.elapsed:.0f}s",
    )


def test_criterion_4_rounding_invariants(corpus_run):
    checks = corpus_run.stats["ir_returns"]
    assert checks > 0
    report(4, f"cover/budget/size invariants asserted at {checks} recursion returns, 0 violations")


def test_criterion_5_extreme_point_structure(corpus_run):
    two_level = corpus_run.stats["lemma_two_checks"]
    bad = corpus_run.stats["bad_leaves"]
    assert two_level > 0
    assert bad > 0  # the deterministic star instances reach the fractional leaf
    report(
        5,
        f"{two_level} fractional budget-tight points passed the two-level check; "
        f"{bad} uniformly fractional leaves passed all shape checks",
    )


def test_relaxation_values_match_the_simplex(corpus_run):
    # the exact simplex as a reference at every node
    assert len(corpus_run.nodes) == corpus_run.stats["lp_solves"] > 0
    for inst, value in corpus_run.nodes:
        assert relaxation_value(inst) == value
    print(
        f"\n{len(corpus_run.nodes)} relaxations equal the simplex's value; "
        f"{len(corpus_run.walks)} were answered by the walk"
    )


def test_every_walked_answer_is_a_vertex(corpus_run):
    # the bad-leaf rounding needs a vertex, which the walk's adjacent pair gives
    assert corpus_run.walks
    for inst, answer in corpus_run.walks:
        assert is_vertex(blockset._build_lp(inst)[0], answer.values), inst
    print(f"\n{len(corpus_run.walks)} walked relaxation answers are vertices")


def test_acceleration_values_match_the_simplex(corpus_run):
    # the exact simplex, the cycle answers' fallback, as a reference on every LP
    cycles = [(lp, a) for lp, _, a in corpus_run.accelerations if a is not None]
    fallbacks = [(lp, m) for lp, m, a in corpus_run.accelerations if a is None]
    assert cycles
    assert len(fallbacks) == sum(out.simplex_fallbacks for out in corpus_run.outcomes.values())
    # only a total above the residual graph's matching number falls back
    assert all(lp.constraints[0].rhs > len(m) for lp, m in fallbacks)
    for lp, answer in cycles:
        assert answer.values["delta"] == exactlp.solve(lp).objective
    print(
        f"\n{len(cycles)} acceleration LPs answered by the cycle equal the simplex's value; "
        f"{len(fallbacks)} were answered by the simplex fallback"
    )


def test_criterion_6_core_dichotomy(corpus_run):
    nonempty = 0
    for seed in range(N_SEEDS):
        core = corpus_run.cores[seed]
        result = corpus_run.results[seed]
        # core_status itself hard-fails if its three criteria disagree
        lp_gap_nonempty = core.fractional_value == core.nu
        assert lp_gap_nonempty == (core.status == "nonempty")
        if core.status == "nonempty":
            nonempty += 1
            assert result.blocking_set == ()
    report(
        6,
        f"three stability criteria agree on all {N_SEEDS} instances; "
        f"{nonempty} stable ones all got an empty blocking set",
    )


def test_criterion_7_small_balanced_outcomes():
    t0 = time.monotonic()
    p4 = corpus.p4()
    out = bargain.balanced_outcome(p4, blockset.stabilize(p4), 2)
    assert out.allocation == {"a": F(1, 3), "b": F(2, 3), "c": F(2, 3), "d": F(1, 3)}
    edge = corpus.single_edge()
    out2 = bargain.balanced_outcome(edge, blockset.stabilize(edge), 1)
    assert out2.allocation == {"u": F(1, 2), "v": F(1, 2)}
    elapsed = time.monotonic() - t0
    assert elapsed < 1
    report(7, f"4-path -> (1/3,2/3,2/3,1/3) and edge -> (1/2,1/2) in {elapsed:.3f}s")


def test_criterion_8_balancing_work_caps(corpus_run):
    total_lps = total_shifts = 0
    for seed in range(N_SEEDS):
        g = corpus_run.graphs[seed]
        result = corpus_run.results[seed]
        outcome = corpus_run.outcomes[seed]
        m_resid = g.m - len(result.blocking_set)
        assert outcome.lp_solves <= m_resid
        assert outcome.shifts <= m_resid**2
        total_lps += outcome.lp_solves
        total_shifts += outcome.shifts
        final = bargain.surpluses(g.without_edges(result.blocking_set), outcome.allocation)
        assert max(
            (abs(final.s[(u, v)] - final.s[(v, u)]) for u, v in final.graph.edges),
            default=F(0),
        ) == 0
    report(
        8,
        f"balancing used {total_lps} LP solves and {total_shifts} transfers across the corpus, "
        "within the |E'| and |E'|^2 caps; per-transfer clause checks all passed; "
        "final surplus gaps exactly 0",
    )


def test_criterion_9_determinism(tmp_path, capsys):
    files = {}
    files["k3"] = tmp_path / "k3.txt"
    files["k3"].write_text("a b\nb c\na c\n")
    files["p4"] = tmp_path / "p4.txt"
    files["p4"].write_text("a b\nb c\nc d\n")
    files["edge"] = tmp_path / "edge.txt"
    files["edge"].write_text("u v\n")
    assert cli.main(["gen", "gap", "--n", "1", "--out", str(tmp_path / "gap1.json")]) == 0
    files["gap1"] = tmp_path / "gap1.json"
    for seed in (0, 3, 7, 11, 15, 19, 23, 27, 31, 35):
        path = tmp_path / f"sparse{seed}.txt"
        assert cli.main(
            ["gen", "sparse", "--n", str(5 + seed % 9), "--omega", "3",
             "--seed", str(seed), "--out", str(path)]
        ) == 0
        files[f"s{seed}"] = path
    capsys.readouterr()

    commands = [["analyze"], ["stabilize", "--trace"], ["balance", "--trace"]]
    runs = 0
    for path in files.values():
        for command in commands:
            argv = [command[0], str(path)] + command[1:]
            assert cli.main(argv) == 0
            first = capsys.readouterr().out
            assert cli.main(argv) == 0
            second = capsys.readouterr().out
            assert first == second, argv
            assert json.loads(first)  # valid JSON payload
            runs += 1
    report(9, f"{runs} command/file pairs produced byte-identical JSON on repeat runs")
