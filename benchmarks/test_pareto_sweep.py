"""Configuration-batched word-length search and the Pareto budget sweep.

PR 1 made *one* evaluation cheap by compiling the graph into a reusable
plan; this harness quantifies the next layer: evaluating a whole greedy
round of single-bit-decrement candidates as one configuration-batched
pass instead of one plan walk per candidate.  Three claims are pinned:

* **equivalence** — the greedy search returns bit-identical assignments,
  powers and histories with the noise memo disabled, on Table-I
  filter-bank systems (where coefficient precision tracks the data path,
  the hardest case for response sharing);
* **speed** — on a ten-stage cascade, one greedy round's candidates (the
  uniform start with each tunable decremented) evaluate at least 2x
  faster as one ``evaluate_psd_batch`` call than one by one, each a
  requantize plus a cold ``evaluate_psd`` walk, with bit-identical rows;
* **scale** — sweeping a range of noise budgets through the shared
  optimizer yields a cost-vs-noise Pareto front (>= 5 points), each point
  cross-validated against the Monte-Carlo reference.
"""

from __future__ import annotations

import statistics
import time

from repro.analysis._engine import memoization_disabled
from repro.analysis.psd_method import evaluate_psd, evaluate_psd_batch
from repro.lti.fir_design import design_fir_highpass, design_fir_lowpass
from repro.lti.iir_design import design_iir_filter
from repro.sfg.builder import SfgBuilder
from repro.sfg.plan import compile_plan
from repro.systems.filter_bank import (
    build_filter_graph,
    generate_fir_bank,
    generate_iir_bank,
)
from repro.systems.pareto import budget_range, sweep_noise_budgets
from repro.systems.wordlength import WordLengthOptimizer
from repro.utils.tables import TextTable

from conftest import write_bench, write_report


def _cascade_graph(stages: int = 10, bits: int = 16):
    """A deep FIR/IIR cascade: one tunable word length per stage."""
    builder = SfgBuilder("ten-stage-cascade")
    signal = builder.input("x", fractional_bits=bits)
    for index in range(stages):
        if index % 3 == 2:
            b, a = design_iir_filter(3, 0.2 + 0.05 * index, kind="lowpass",
                                     family="butterworth")
            signal = builder.iir(f"iir{index}", b, a, signal,
                                 fractional_bits=bits)
        elif index % 3 == 1:
            signal = builder.fir(f"fir{index}", design_fir_highpass(11, 0.3),
                                 signal, fractional_bits=bits)
        else:
            signal = builder.fir(f"fir{index}", design_fir_lowpass(13, 0.45),
                                 signal, fractional_bits=bits)
    builder.output("y", signal)
    return builder.build()


def test_pareto_sweep_and_batched_speedup(bench_config, results_dir):
    n_psd = min(512, bench_config["default_n_psd"])
    budget = 1e-7

    # --- equivalence on Table-I filter-bank systems -----------------------
    entries = generate_fir_bank(2) + generate_iir_bank(2)
    for entry in entries:
        result = WordLengthOptimizer(build_filter_graph(entry, 16),
                                     n_psd=n_psd).optimize(budget)
        with memoization_disabled():
            cold = WordLengthOptimizer(build_filter_graph(entry, 16),
                                       n_psd=n_psd).optimize(budget)
        assert result.assignment == cold.assignment, entry.name
        assert result.noise_power == cold.noise_power, entry.name
        assert result.history == cold.history, entry.name

    # --- per-round speed-up on the ten-stage cascade ----------------------
    graph = _cascade_graph()
    uniform = WordLengthOptimizer(graph, method="psd",
                                  n_psd=n_psd).uniform_search(budget)
    candidates = [dict(uniform, **{name: bits - 1})
                  for name, bits in uniform.items()]
    plan = compile_plan(graph)
    plan.requantize(uniform)

    def one_by_one() -> list:
        powers = []
        with plan.preserve_quantization(), memoization_disabled():
            for candidate in candidates:
                plan.requantize(candidate)
                powers.append(evaluate_psd(plan, n_psd).total_power)
        return powers

    def batched() -> list:
        return list(evaluate_psd_batch(plan, n_psd, candidates).total_power)

    timings = {}
    rows = {}
    for name, round_ in (("one_by_one", one_by_one), ("batched", batched)):
        round_()  # warm the response cache and the memo
        samples = []
        for _ in range(5):
            start = time.perf_counter()
            rows[name] = round_()
            samples.append(time.perf_counter() - start)
        timings[name] = statistics.median(samples)
    assert rows["batched"] == rows["one_by_one"]
    speedup = timings["one_by_one"] / timings["batched"]

    # --- the budget sweep -------------------------------------------------
    sweep_points = 7 if bench_config["mode"] == "full" else 6
    validate = (bench_config["filter_bank_samples"]
                if bench_config["mode"] == "full" else 20_000)
    sweep_graph = _cascade_graph()
    start = time.perf_counter()
    front = sweep_noise_budgets(sweep_graph,
                                budget_range(1e-5, 1e-8, sweep_points),
                                method="psd", n_psd=n_psd,
                                validate_samples=validate)
    sweep_time = time.perf_counter() - start

    table = TextTable(
        ["quantity", "value"],
        title=(f"Batched word-length search + Pareto sweep "
               f"({bench_config['mode']} mode, N_PSD={n_psd})"))
    table.add_row("round candidates", len(candidates))
    table.add_row("round, batched [s]", round(timings["batched"], 4))
    table.add_row("round, one by one cold [s]",
                  round(timings["one_by_one"], 4))
    table.add_row("per-round speed-up", round(speedup, 2))
    table.add_row(f"sweep wall clock [s] ({sweep_points} budgets)",
                  round(sweep_time, 3))
    table.add_row("pareto points", len(front.points))
    table.add_row("pareto-optimal points", len(front.pareto_points()))
    report = table.render() + "\n\n" + front.describe()
    write_report(results_dir, "pareto_sweep.txt", report)
    write_bench(results_dir, "pareto_sweep",
                workload={"n_psd": n_psd,
                          "round_candidates": len(candidates),
                          "sweep_points": sweep_points,
                          "pareto_points": len(front.points)},
                seconds={"round_batched": timings["batched"],
                         "round_one_by_one": timings["one_by_one"],
                         "sweep": sweep_time},
                speedup={"per_round": speedup},
                tags=("pareto",))

    # Acceptance: >= 2x per greedy round, and a front of >= 5 points, each
    # inside the sub-one-bit band of its own Monte-Carlo validation.
    assert speedup >= 2.0, \
        f"batched rounds should be at least 2x faster, got {speedup:.2f}x"
    assert len(front.points) >= 5
    for point in front.points:
        assert point.noise_power <= point.budget
        assert -3.0 < point.ed < 0.75, \
            f"estimate off by over one bit at budget {point.budget:.1e}"
