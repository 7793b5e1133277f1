"""Unit tests for the word-length optimization use-case."""

import numpy as np
import pytest

import repro.systems.wordlength as wordlength_module
from repro.analysis._engine import memoization_disabled
from repro.analysis.agnostic_method import evaluate_agnostic
from repro.analysis.flat_method import evaluate_flat
from repro.analysis.psd_method import evaluate_psd
from repro.lti.fir_design import design_fir_highpass, design_fir_lowpass
from repro.sfg.builder import SfgBuilder
from repro.sfg.plan import compile_plan
from repro.systems.filter_bank import build_filter_graph, generate_fir_bank, generate_iir_bank
from repro.systems.wordlength import WordLengthOptimizer


def _two_stage_graph(bits=12):
    builder = SfgBuilder("wl")
    x = builder.input("x", fractional_bits=bits)
    lp = builder.fir("lp", design_fir_lowpass(15, 0.4), x, fractional_bits=bits)
    hp = builder.fir("hp", design_fir_highpass(15, 0.5), lp, fractional_bits=bits)
    builder.output("y", hp)
    return builder.build()


class TestUniformSearch:
    def test_uniform_search_meets_budget(self):
        graph = _two_stage_graph()
        optimizer = WordLengthOptimizer(graph, method="psd", n_psd=128,
                                        min_bits=4, max_bits=20)
        budget = 1e-7
        assignment = optimizer.uniform_search(budget)
        assert len(set(assignment.values())) == 1
        assert evaluate_psd(graph, 128).total_power <= budget

    def test_tighter_budget_needs_more_bits(self):
        graph = _two_stage_graph()
        optimizer = WordLengthOptimizer(graph, n_psd=128, min_bits=4,
                                        max_bits=22)
        loose = optimizer.uniform_search(1e-5)
        tight = optimizer.uniform_search(1e-9)
        assert list(tight.values())[0] > list(loose.values())[0]

    def test_impossible_budget_rejected(self):
        optimizer = WordLengthOptimizer(_two_stage_graph(), n_psd=64,
                                        min_bits=4, max_bits=8)
        with pytest.raises(ValueError):
            optimizer.uniform_search(1e-12)

    def test_non_positive_budget_rejected(self):
        optimizer = WordLengthOptimizer(_two_stage_graph(), n_psd=64)
        with pytest.raises(ValueError):
            optimizer.uniform_search(0.0)

    @pytest.mark.parametrize("budget",
                             [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_budget_rejected(self, budget):
        # Regression: NaN slipped through the `budget <= 0` guard (every
        # comparison with NaN is False), so the binary search "converged"
        # on nonsense instead of failing fast.  Infinities are equally
        # meaningless as noise budgets.
        optimizer = WordLengthOptimizer(_two_stage_graph(), n_psd=64)
        with pytest.raises(ValueError, match="finite"):
            optimizer.uniform_search(budget)
        with pytest.raises(ValueError, match="finite"):
            optimizer.optimize(budget)


class TestGreedyOptimization:
    def test_result_meets_budget_and_beats_uniform(self):
        graph = _two_stage_graph()
        optimizer = WordLengthOptimizer(graph, method="psd", n_psd=128,
                                        min_bits=4, max_bits=20)
        budget = 1e-7
        uniform = optimizer.uniform_search(budget)
        result = optimizer.optimize(budget)
        assert result.noise_power <= budget
        assert result.total_bits <= sum(uniform.values())
        assert result.evaluations > 0
        assert result.history[0][0] >= result.history[-1][0]

    def test_assignment_applied_to_graph(self):
        graph = _two_stage_graph()
        optimizer = WordLengthOptimizer(graph, n_psd=64, min_bits=4,
                                        max_bits=18)
        result = optimizer.optimize(1e-6)
        for name, bits in result.assignment.items():
            assert graph.node(name).quantization.fractional_bits == bits

    def test_agnostic_and_flat_drivers_also_work(self):
        for method in ("agnostic", "flat"):
            graph = _two_stage_graph()
            optimizer = WordLengthOptimizer(graph, method=method, n_psd=64,
                                            min_bits=4, max_bits=18)
            result = optimizer.optimize(1e-6)
            assert result.noise_power <= 1e-6

    def test_graph_without_quantized_nodes_rejected(self):
        builder = SfgBuilder("plain")
        x = builder.input("x")
        h = builder.fir("h", [1.0], x)
        builder.output("y", h)
        with pytest.raises(ValueError):
            WordLengthOptimizer(builder.build())

    def test_invalid_bit_range_rejected(self):
        with pytest.raises(ValueError):
            WordLengthOptimizer(_two_stage_graph(), min_bits=8, max_bits=4)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            WordLengthOptimizer(_two_stage_graph(), method="psychic")

    @pytest.mark.parametrize("option", [{"mode": "batch"}, {"batch": True}])
    def test_candidate_strategy_is_not_an_option(self, option):
        # Batched rounds are the only strategy; the old selectors are
        # gone rather than silently ignored.
        with pytest.raises(TypeError):
            WordLengthOptimizer(_two_stage_graph(), **option)


def _cold_oracle(graph, budget, **options):
    """The same greedy search with every candidate walked cold, one by one.

    Each candidate is requantized into the plan and evaluated by a scalar
    walk with the noise memo disabled, instead of by the batched round.
    """
    optimizer = WordLengthOptimizer(graph, **options)
    optimizer._noise_powers = lambda candidates: np.array(
        [optimizer._noise_power(candidate) for candidate in candidates])
    with memoization_disabled():
        return optimizer.optimize(budget)


def _cold_power(graph, method, assignment, n_psd):
    """Scalar evaluation of ``assignment`` on a freshly compiled plan."""
    plan = compile_plan(graph)
    plan.requantize(assignment)
    with memoization_disabled():
        if method == "psd":
            return evaluate_psd(plan, n_psd).total_power
        if method == "flat":
            return evaluate_flat(plan).power
        return evaluate_agnostic(plan).power


class TestBatchedGreedyEquivalence:
    """Batched rounds are bit-identical to the cold per-candidate search."""

    @staticmethod
    def _assert_matches_oracle(build, method, budget, granularity):
        options = dict(method=method, n_psd=128, granularity=granularity)
        result = WordLengthOptimizer(build(), **options).optimize(budget)
        oracle = _cold_oracle(build(), budget, **options)
        assert result.assignment == oracle.assignment
        assert result.noise_power == oracle.noise_power
        assert result.evaluations == oracle.evaluations
        assert result.history == oracle.history
        assert result.noise_power == _cold_power(
            build(), method, result.assignment, 128)

    @pytest.mark.parametrize("method", ["psd", "flat", "agnostic"])
    def test_identical_on_cascade(self, method):
        self._assert_matches_oracle(_two_stage_graph, method, 1e-6, "node")

    @pytest.mark.parametrize("method", ["psd", "flat", "agnostic"])
    def test_identical_on_cascade_at_edge_granularity(self, method):
        self._assert_matches_oracle(_two_stage_graph, method, 1e-6, "edge")

    def test_identical_on_table1_filter_bank(self):
        # The Table-I graphs tie coefficient precision to the data path,
        # so the batched rounds exercise per-config frequency responses.
        for entry in generate_fir_bank(2) + generate_iir_bank(2):
            for method in ("psd", "flat", "agnostic"):
                for granularity in ("node", "edge"):
                    self._assert_matches_oracle(
                        lambda: build_filter_graph(entry, 16), method, 1e-7,
                        granularity)


class TestEvaluationAccounting:
    """`evaluations` must count distinct candidate evaluations exactly."""

    def _counting_optimizer(self, monkeypatch):
        counter = {"evaluations": 0}
        real_scalar = wordlength_module.evaluate_psd
        real_batch = wordlength_module.evaluate_psd_batch

        def counting_scalar(system, n_psd, *args, **kwargs):
            counter["evaluations"] += 1
            return real_scalar(system, n_psd, *args, **kwargs)

        def counting_batch(system, n_psd, assignments, *args, **kwargs):
            counter["evaluations"] += len(assignments)
            return real_batch(system, n_psd, assignments, *args, **kwargs)

        monkeypatch.setattr(wordlength_module, "evaluate_psd",
                            counting_scalar)
        monkeypatch.setattr(wordlength_module, "evaluate_psd_batch",
                            counting_batch)
        optimizer = WordLengthOptimizer(_two_stage_graph(), method="psd",
                                        n_psd=128)
        return optimizer, counter

    def test_reported_count_matches_actual_calls(self, monkeypatch):
        optimizer, counter = self._counting_optimizer(monkeypatch)
        result = optimizer.optimize(1e-7)
        assert result.evaluations == counter["evaluations"]

    def test_no_reevaluation_of_known_powers(self, monkeypatch):
        # history[0] comes from the binary search and the final power from
        # the accepting round: the count is exactly the uniform-search
        # evaluations plus one per greedy candidate, nothing on top.
        optimizer, counter = self._counting_optimizer(monkeypatch)
        result = optimizer.optimize(1e-7)
        # Every accepted move comes from one full candidate round, plus one
        # final round that accepted nothing; on this graph no node reaches
        # min_bits, so every round proposes one candidate per tunable node.
        assert all(bits > optimizer.min_bits
                   for bits in result.assignment.values())
        greedy_evaluations = len(result.history) * len(optimizer._tunable)
        uniform_evaluations = result.evaluations - greedy_evaluations
        # Binary search over [4, 20] costs 1 (feasibility at max_bits)
        # plus at most ceil(log2(width)) probes — and crucially not the
        # extra history[0] / final_power evaluations the seed version paid.
        assert 1 <= uniform_evaluations <= 6
        assert result.evaluations == counter["evaluations"]
