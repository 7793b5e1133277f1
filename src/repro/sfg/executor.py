"""Dual-mode execution of an acyclic signal-flow graph.

The executor evaluates the graph in topological order, keeping one sample
vector per node output.  Two modes are supported:

* ``double`` — the infinite-precision reference (IEEE double precision);
* ``fixed`` — bit-true fixed-point execution in which every node applies
  its :class:`~repro.sfg.nodes.QuantizationSpec`.

Execution runs from a :class:`~repro.sfg.plan.CompiledPlan` — the graph is
validated, ordered and index-resolved once at compile time; the plan is
then run any number of times.  :meth:`SfgExecutor.run_pair` evaluates both
precision modes in one traversal, which is what the simulation-based
accuracy evaluation needs (see
:class:`repro.analysis.simulation_method.SimulationEvaluator`), and a 2-D
``(trials, samples)`` stimulus runs a whole Monte-Carlo batch in one
vectorized pass.

The fixed half is backend-selectable through :mod:`repro.simkernel`:
under the ``codegen`` backend the plan's schedule walk is replaced by a
single lowered op tape (:mod:`repro.simkernel.codegen`) whenever the
plan can be lowered, with bitwise-identical results.
"""

from __future__ import annotations

import numpy as np

from repro.sfg.graph import SignalFlowGraph
from repro.sfg.plan import CompiledPlan, ExecutionResult, compile_plan


class SfgExecutor:
    """Executes a validated, acyclic :class:`SignalFlowGraph`.

    Accepts either a graph (compiled on construction, with the compiled
    plan cached per graph object) or an already-compiled
    :class:`CompiledPlan`.
    """

    def __init__(self, system: SignalFlowGraph | CompiledPlan):
        self.plan = compile_plan(system)
        self.graph = self.plan.graph

    def run(self, inputs: dict[str, np.ndarray], mode: str = "double",
            keep_signals: bool = False) -> ExecutionResult:
        """Execute the graph on the given stimulus.

        Parameters
        ----------
        inputs:
            Mapping from input-node name to its sample vector; a 2-D array
            of shape ``(trials, samples)`` runs every trial in one
            vectorized batch.
        mode:
            ``double`` for the infinite-precision reference or ``fixed``
            for bit-true fixed-point execution.
        keep_signals:
            Whether to retain every intermediate node output in the
            result (useful for debugging and for block-level validation
            tests).
        """
        return self.plan.run(inputs, mode=mode, keep_signals=keep_signals)

    def run_pair(self, inputs: dict[str, np.ndarray],
                 keep_signals: bool = False
                 ) -> tuple[ExecutionResult, ExecutionResult]:
        """Execute both precision modes in one traversal.

        Returns ``(reference, fixed)`` results computed side by side over
        a single walk of the schedule.
        """
        return self.plan.run_pair(inputs, keep_signals=keep_signals)

    def run_error(self, inputs: dict[str, np.ndarray],
                  output: str | None = None) -> np.ndarray:
        """Error signal (fixed-point minus double) at one output."""
        reference, fixed = self.run_pair(inputs)
        reference = reference.output(output)
        fixed = fixed.output(output)
        if reference.shape != fixed.shape:
            # Both modes run the same schedule on the same stimulus, so a
            # length mismatch can only be a node implementation bug.
            raise ValueError(
                "reference and fixed-point outputs have different shapes: "
                f"{reference.shape} vs {fixed.shape}")
        return fixed - reference
