"""Shared graph-walking machinery of the analytical evaluation engines.

All three analytical methods traverse the acyclic signal-flow graph in
topological order, maintaining one noise representation per node output
(moments, PSD, or per-source tracked spectra) and injecting each node's own
quantization-noise source at its output.  The only thing that changes
between methods is the *representation* and its propagation rules, which
are already encapsulated in the node classes; this module factors the
traversal itself.

The traversal runs over a :class:`~repro.sfg.plan.CompiledPlan`:
validation, topological ordering and noise-source discovery happen once at
plan compilation, and each walk simply replays the index-based schedule.
Per-node frequency responses (block responses and IIR noise-shaping
responses) come from the plan's memoized cache, so repeated evaluations of
the same graph — the word-length optimizer's inner loop, the execution-time
benchmark — skip every FFT-sized computation after the first call.

Incremental re-evaluation
-------------------------
On top of the response cache, each plan carries one :class:`NoiseMemo`: a
pull-based cache of the *propagated* per-node representations themselves,
one channel per ``(representation, n_bins)``.  A pull first folds pending
spec/coefficient mutations into the plan (``plan.refresh()``, which stamps
the edited steps with a new plan epoch), then recomputes only the
downstream cone of the steps dirtied since the channel last synced,
reusing every other node's cached value as-is.  Because a cone recompute
replays exactly the same operations the full walk would, on bit-identical
cached inputs, the result is bit-identical to a cold walk — the
``incremental`` check of :func:`repro.verify.differential.verify_graph`
fuzzes that equivalence, and ``ARCHITECTURE.md`` spells out the exactness
argument.  This is what turns the word-length optimizer's one-node
candidate edits from O(nodes) walks into O(depth) cone updates.

The batched walks pull the scalar memo as their baseline: only the steps
whose stacked word lengths deviate from the plan's live configuration —
plus their downstream cone — are recomputed with the vectorized rules;
every other step broadcasts its cached scalar value across the config
axis (bit-identical by the batched-walk row contract pinned in
``tests/test_analysis_batch.py``).

Memoization is on by default and exact, so there is normally no reason to
turn it off; :func:`memoization_disabled` exists for honest cold-cache
baselines (timing harnesses, the differential check's reference side) and
restores the previous state on exit.  The generic :func:`walk` with
user-supplied callbacks is never memoized: arbitrary callbacks are opaque,
so there is no sound cache key for them.

Returned representations are shared with the memo: treat them as
immutable (which every representation class already is by convention).
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from functools import partial
from typing import Callable

import numpy as np

from repro.fixedpoint.noise_model import NoiseStats
from repro.obs import MetricsRegistry, metric_inc, span
from repro.psd.batch import PsdStack
from repro.psd.spectrum import DiscretePsd
from repro.psd.propagation import TrackedSpectrum
from repro.sfg.graph import SignalFlowGraph
from repro.sfg.nodes import (
    AddNode,
    DownsampleNode,
    IirNode,
    Node,
    OutputNode,
    UpsampleNode,
    _LtiMixin,
)
from repro.sfg.plan import CompiledPlan, ConfigStack, compile_plan, walk_plan


def node_noise_sources(system: SignalFlowGraph | CompiledPlan
                       ) -> dict[str, NoiseStats]:
    """Moments of the noise source generated at each node (if any)."""
    plan = compile_plan(system)
    return {step.name: step.noise for step in plan.noise_steps}


# ----------------------------------------------------------------------
# Memoization switch
# ----------------------------------------------------------------------
# A stack rather than a flag so disabled regions nest; the top entry is
# the current state.
_MEMO_STATE: list[bool] = [True]


def memoization_enabled() -> bool:
    """Whether walks may pull from (and update) the per-plan NoiseMemo."""
    return _MEMO_STATE[-1]


@contextmanager
def memoization_disabled():
    """Force full cold walks for the duration of the block.

    Used by the honest baselines: the differential ``incremental`` check's
    reference side, the timing harnesses that must not measure cache hits,
    and the cold per-candidate oracle the word-length optimizer is tested
    against.  Results are bit-identical
    either way; only the amount of recomputation differs.
    """
    _MEMO_STATE.append(False)
    try:
        yield
    finally:
        _MEMO_STATE.pop()


# ----------------------------------------------------------------------
# Per-step evaluation rules (shared by cold walks and memo pulls)
# ----------------------------------------------------------------------
def _psd_inputs(step, values) -> list:
    """Predecessor PSDs of a step, with fanout-tap noise injected.

    A tapped edge re-quantizes the value it carries, so its white PQN
    noise enters *before* the node's propagation rule — an IIR target
    shapes it with the full block transfer function, not the internal
    noise-shaping response.  No-op taps (``tap.noise is None``) are
    skipped entirely, keeping tap-free plans bitwise untouched.
    """
    inputs = [values[i] for i in step.predecessors]
    taps = step.edge_taps
    if taps is not None:
        for port, tap in enumerate(taps):
            if tap is not None and tap.noise is not None:
                psd = inputs[port]
                inputs[port] = psd + DiscretePsd.white(tap.noise, psd.n_bins)
    return inputs


def _psd_step(plan: CompiledPlan, n_psd: int, step, values) -> DiscretePsd:
    node = step.node
    if step.is_source:
        acc = DiscretePsd.zero(n_psd)
    elif isinstance(node, _LtiMixin):
        # Same rule as Node.propagate_psd, but the block response is
        # sampled once per (node, bins) and memoized on the plan.  The
        # input PSD may live on fewer bins than n_psd when the signal
        # was decimated upstream.
        (psd,) = _psd_inputs(step, values)
        acc = psd.filtered(plan.block_response(step, psd.n_bins))
    else:
        acc = node.propagate_psd(_psd_inputs(step, values), n_psd)
    if step.noise is not None:
        acc = acc + plan.shaped_noise_psd(step, acc.n_bins)
    return acc


def _stats_inputs(step, values) -> list:
    inputs = [values[i] for i in step.predecessors]
    taps = step.edge_taps
    if taps is not None:
        for port, tap in enumerate(taps):
            if tap is not None and tap.noise is not None:
                inputs[port] = inputs[port] + tap.noise
    return inputs


def _stats_step(plan: CompiledPlan, step, values) -> NoiseStats:
    node = step.node
    if step.is_source:
        acc = NoiseStats(0.0, 0.0)
    elif isinstance(node, _LtiMixin):
        (stats,) = _stats_inputs(step, values)
        energy, dc = plan.block_gains(step)
        acc = NoiseStats(mean=stats.mean * dc,
                         variance=stats.variance * energy)
    else:
        acc = node.propagate_stats(_stats_inputs(step, values))
    if step.noise is not None:
        acc = acc + plan.shaped_noise_stats(step)
    return acc


def _tracked_inputs(step, values, n_psd: int) -> list:
    inputs = [values[i] for i in step.predecessors]
    taps = step.edge_taps
    if taps is not None:
        for port, tap in enumerate(taps):
            if tap is not None and tap.noise is not None:
                inputs[port] = inputs[port] + TrackedSpectrum.from_source(
                    tap.key, tap.noise, n_psd)
    return inputs


def _tracked_step(plan: CompiledPlan, n_psd: int, step,
                  values) -> TrackedSpectrum:
    node = step.node
    if step.is_source:
        acc = TrackedSpectrum.zero(n_psd)
    elif isinstance(node, _LtiMixin):
        (tracked,) = _tracked_inputs(step, values, n_psd)
        acc = tracked.filtered(plan.block_response(step, n_psd))
    else:
        acc = node.propagate_tracked(_tracked_inputs(step, values, n_psd),
                                     n_psd)
    if step.noise is not None:
        acc = acc + plan.shaped_noise_tracked(step, n_psd)
    return acc


def _full_walk(plan: CompiledPlan, compute_step) -> list:
    """Cold walk: evaluate every step, no cache involved."""
    plan.refresh()
    with span("analysis.walk", kind="uncached", steps=len(plan.steps)):
        values: list = [None] * len(plan.steps)
        for step in plan.steps:
            values[step.index] = compute_step(step, values)
    return values


# ----------------------------------------------------------------------
# The per-plan memo
# ----------------------------------------------------------------------
class _Channel:
    """One representation's cached per-step values and their sync epoch."""

    __slots__ = ("values", "epoch")

    def __init__(self, values: list, epoch: int):
        self.values = values
        self.epoch = epoch


class NoiseMemo:
    """Pull-based cache of propagated per-node noise representations.

    One memo lives on each plan (see :func:`plan_memo`); channels are
    keyed by representation and bin count, e.g. ``("psd", 512)``.  The
    counters make the work split observable: ``full_walks`` counts cold
    channel builds, ``cone_recomputes`` counts pulls that re-evaluated a
    dirty cone, and ``steps_recomputed`` / ``steps_reused`` count the
    per-step work either way — the word-length optimizer surfaces their
    deltas in :class:`~repro.systems.wordlength.WordLengthResult`.

    The counters are backed by a private (always-on) metrics registry;
    the attribute names remain the public surface as read-only views,
    and every increment is mirrored into the process-wide observability
    session (`repro.obs`) under ``memo.*`` when one is enabled.
    """

    #: Bound on the flat method's path-function entries (one entry per
    #: distinct (output, sources, coefficient fingerprint) seen).
    PATH_CACHE_LIMIT = 32

    def __init__(self, plan: CompiledPlan):
        self.plan = plan
        self._channels: dict[tuple, _Channel] = {}
        # Symbolic path functions of the flat method, LRU-bounded: they
        # depend only on the plan's coefficient fingerprint, not on the
        # data-path word lengths, so the optimizer's requantize loop hits
        # one entry over and over.
        self.path_functions: "OrderedDict[tuple, dict]" = OrderedDict()
        self.metrics = MetricsRegistry()
        self._full_walks = self.metrics.counter("memo.full_walks")
        self._cone_recomputes = self.metrics.counter("memo.cone_recomputes")
        self._steps_recomputed = self.metrics.counter("memo.steps_recomputed")
        self._steps_reused = self.metrics.counter("memo.steps_reused")

    @property
    def full_walks(self) -> int:
        return self._full_walks.value

    @property
    def cone_recomputes(self) -> int:
        return self._cone_recomputes.value

    @property
    def steps_recomputed(self) -> int:
        return self._steps_recomputed.value

    @property
    def steps_reused(self) -> int:
        return self._steps_reused.value

    def counters(self) -> dict[str, int]:
        """Snapshot of the work counters (cheap, copy-safe)."""
        return {"full_walks": self.full_walks,
                "cone_recomputes": self.cone_recomputes,
                "steps_recomputed": self.steps_recomputed,
                "steps_reused": self.steps_reused}

    def _pull(self, key: tuple, compute_step) -> list:
        """Per-step values of one channel, recomputing only dirty cones.

        Exception-safe: values are computed into a private list and
        committed (together with the sync epoch) only when the whole
        cone succeeded, so a failing walk — e.g. a multirate graph
        rejecting tracked propagation — never half-updates the channel.
        """
        plan = self.plan
        plan.refresh()
        channel = self._channels.get(key)
        if channel is None:
            with span("analysis.walk", kind="cold", channel=key[0],
                      steps=len(plan.steps)):
                values: list = [None] * len(plan.steps)
                for step in plan.steps:
                    values[step.index] = compute_step(step, values)
            self._channels[key] = _Channel(values, plan.epoch)
            self._full_walks.inc()
            self._steps_recomputed.inc(len(plan.steps))
            metric_inc("memo.full_walks")
            metric_inc("memo.steps_recomputed", len(plan.steps))
            return values
        dirty = plan.steps_dirty_since(channel.epoch)
        if len(dirty):
            cone = plan.downstream_cone(dirty)
            with span("analysis.cone_pull", channel=key[0], cone=len(cone),
                      steps=len(plan.steps)):
                values = list(channel.values)
                for index in cone:
                    values[index] = compute_step(plan.steps[index], values)
            channel.values = values
            self._cone_recomputes.inc()
            self._steps_recomputed.inc(len(cone))
            self._steps_reused.inc(len(plan.steps) - len(cone))
            metric_inc("memo.cone_recomputes")
            metric_inc("memo.steps_recomputed", len(cone))
            metric_inc("memo.steps_reused", len(plan.steps) - len(cone))
        channel.epoch = plan.epoch
        return channel.values

    def psd(self, n_psd: int) -> list:
        """Per-step :class:`DiscretePsd` values (index-aligned)."""
        return self._pull(("psd", n_psd), partial(_psd_step, self.plan, n_psd))

    def stats(self) -> list:
        """Per-step :class:`NoiseStats` values (index-aligned)."""
        return self._pull(("stats",), partial(_stats_step, self.plan))

    def tracked(self, n_psd: int) -> list:
        """Per-step :class:`TrackedSpectrum` values (index-aligned)."""
        return self._pull(("tracked", n_psd),
                          partial(_tracked_step, self.plan, n_psd))


_MEMO_ATTRIBUTE = "_noise_memo"


def plan_memo(system: SignalFlowGraph | CompiledPlan) -> NoiseMemo:
    """The (per-plan, lazily created) :class:`NoiseMemo` of a system.

    The memo lives on the plan object, so everything evaluating the same
    graph — optimizer rounds, Pareto budgets, campaign jobs — shares one
    cache, and it is reclaimed together with the plan.
    """
    plan = compile_plan(system)
    memo = getattr(plan, _MEMO_ATTRIBUTE, None)
    if memo is None or memo.plan is not plan:
        memo = NoiseMemo(plan)
        setattr(plan, _MEMO_ATTRIBUTE, memo)
    return memo


def walk(system: SignalFlowGraph | CompiledPlan, n_bins: int,
         zero: Callable[[Node], object],
         propagate: Callable[[Node, list], object],
         inject: Callable[[Node, NoiseStats, object], object],
         ) -> dict[str, object]:
    """Generic noise-propagation traversal (node-level callbacks).

    Never memoized: the callbacks are opaque, so no sound cache key
    exists.  The typed walks below are the memoized fast paths.

    Parameters
    ----------
    system:
        Acyclic signal-flow graph, or a plan compiled from one; a bare
        graph is compiled (and the compiled plan cached per graph), so
        validation happens once per structure, not once per walk.
    n_bins:
        Number of PSD bins (unused by moment-only representations but part
        of the shared signature).
    zero:
        ``zero(node)`` returns the representation of "no noise" for a node
        with no predecessors.
    propagate:
        ``propagate(node, input_representations)`` applies the node's
        propagation rule.
    inject:
        ``inject(node, stats, representation)`` adds the node's own noise
        source (already known to be non-trivial) to the representation at
        the node output.

    Returns
    -------
    dict
        Mapping from node name to the noise representation at its output.
    """
    plan = compile_plan(system)
    return walk_plan(
        plan,
        zero=lambda step: zero(step.node),
        propagate=lambda step, inputs: propagate(step.node, inputs),
        inject=lambda step, acc: inject(step.node, step.noise, acc),
    )


# ----------------------------------------------------------------------
# Cached plan walks, one per noise representation
# ----------------------------------------------------------------------
def walk_psd(plan: CompiledPlan, n_psd: int) -> dict[str, DiscretePsd]:
    """PSD propagation over a compiled plan, incremental when memoized."""
    if memoization_enabled():
        values = plan_memo(plan).psd(n_psd)
    else:
        values = _full_walk(plan, partial(_psd_step, plan, n_psd))
    return {step.name: values[step.index] for step in plan.steps}


def walk_stats(plan: CompiledPlan) -> dict[str, NoiseStats]:
    """Moment propagation over a compiled plan, incremental when memoized."""
    if memoization_enabled():
        values = plan_memo(plan).stats()
    else:
        values = _full_walk(plan, partial(_stats_step, plan))
    return {step.name: values[step.index] for step in plan.steps}


def walk_tracked(plan: CompiledPlan, n_psd: int) -> dict[str, TrackedSpectrum]:
    """Per-source tracked propagation, incremental when memoized."""
    if memoization_enabled():
        values = plan_memo(plan).tracked(n_psd)
    else:
        values = _full_walk(plan, partial(_tracked_step, plan, n_psd))
    return {step.name: values[step.index] for step in plan.steps}


# ----------------------------------------------------------------------
# Batched plan walks (one pass per configuration stack)
# ----------------------------------------------------------------------
def _psd_batch_inputs(stack: ConfigStack, step, slots) -> list:
    """Predecessor PSD stacks with per-config fanout-tap noise injected.

    Mirrors :func:`_psd_inputs` row by row: a port is injected when *any*
    config taps it (silent configs add exact zeros, the same contract as
    the own-noise injection below).
    """
    inputs = [slots[i] for i in step.predecessors]
    noise = stack.edge_noise(step)
    if noise:
        for port, (means, variances) in noise.items():
            psd = inputs[port]
            inputs[port] = psd + PsdStack.white(means, variances, psd.n_bins)
    return inputs


def _psd_batch_step(plan: CompiledPlan, n_psd: int, stack: ConfigStack,
                    step, slots) -> PsdStack:
    node = step.node
    if step.is_source:
        acc = PsdStack.zero(stack.size, n_psd)
    elif isinstance(node, _LtiMixin):
        (psd,) = _psd_batch_inputs(stack, step, slots)
        acc = psd.filtered(stack.block_response(step, psd.n_bins))
    elif isinstance(node, AddNode):
        inputs = _psd_batch_inputs(stack, step, slots)
        acc = PsdStack.zero(stack.size, inputs[0].n_bins)
        for sign, psd in zip(node.signs, inputs):
            acc = acc + psd.scaled(sign)
    elif isinstance(node, OutputNode):
        (psd,) = _psd_batch_inputs(stack, step, slots)
        acc = psd.copy()
    elif isinstance(node, DownsampleNode):
        (psd,) = _psd_batch_inputs(stack, step, slots)
        acc = psd.downsampled(node.factor)
    elif isinstance(node, UpsampleNode):
        (psd,) = _psd_batch_inputs(stack, step, slots)
        acc = psd.upsampled(node.factor)
    else:
        raise NotImplementedError(
            f"batched PSD propagation does not support node type "
            f"{type(node).__name__}")
    noise = stack.noise(step)
    if noise is not None:
        means, variances = noise
        own = PsdStack.white(means, variances, acc.n_bins)
        if isinstance(node, IirNode):
            own = own.filtered(stack.shaping_response(step, acc.n_bins))
        acc = acc + own
    return acc


def _stats_batch_inputs(stack: ConfigStack, step, slots) -> list:
    inputs = [slots[i] for i in step.predecessors]
    noise = stack.edge_noise(step)
    if noise:
        for port, (means, variances) in noise.items():
            inputs[port] = inputs[port] + NoiseStats(mean=means,
                                                     variance=variances)
    return inputs


def _stats_batch_step(plan: CompiledPlan, stack: ConfigStack, step,
                      slots) -> NoiseStats:
    node = step.node
    if step.is_source:
        zeros = np.zeros(stack.size)
        acc = NoiseStats(mean=zeros, variance=zeros)
    elif isinstance(node, _LtiMixin):
        (stats,) = _stats_batch_inputs(stack, step, slots)
        energy, dc = stack.block_gains(step)
        acc = NoiseStats(mean=stats.mean * dc,
                         variance=stats.variance * energy)
    else:
        acc = node.propagate_stats(_stats_batch_inputs(stack, step, slots))
    noise = stack.noise(step)
    if noise is not None:
        means, variances = noise
        if isinstance(node, IirNode):
            energy, dc = stack.shaping_gains(step)
            own = NoiseStats(mean=means * dc, variance=variances * energy)
        else:
            own = NoiseStats(mean=means, variance=variances)
        acc = acc + own
    return acc


def _deviant_cone(plan: CompiledPlan, stack: ConfigStack) -> set[int]:
    """Steps the batched walk must actually vectorize.

    A step is *deviant* when some config of the stack gives it a word
    length — its own, or a tap on one of its incoming edges — other than
    the plan's live one; outside the downstream cone of the deviant
    steps, every config's row provably equals the scalar walk of the
    live configuration, so the cached scalar value can be broadcast
    instead of recomputed.
    """
    deviant = []
    for step in plan.steps:
        if any(b != step.node.quantization.fractional_bits
               for b in stack.bits(step)):
            deviant.append(step.index)
            continue
        edge_bits = stack.edge_bits(step)
        if edge_bits:
            taps = step.edge_taps
            for port, bits in edge_bits.items():
                live = None
                if taps is not None and taps[port] is not None:
                    live = taps[port].bits
                if any(b != live for b in bits):
                    deviant.append(step.index)
                    break
    return set(plan.downstream_cone(deviant)) if deviant else set()


def _broadcast_psd(psd: DiscretePsd, size: int) -> PsdStack:
    # broadcast_to keeps the scalar bins as a read-only view: every
    # downstream PsdStack operation allocates fresh arrays, so sharing is
    # safe and the boundary injection costs O(1) memory per step.
    return PsdStack(np.broadcast_to(psd.ac, (size, psd.ac.shape[0])),
                    np.full(size, psd.mean))


def _broadcast_stats(stats: NoiseStats, size: int) -> NoiseStats:
    return NoiseStats(mean=np.full(size, stats.mean),
                      variance=np.full(size, stats.variance))


def walk_psd_batch(plan: CompiledPlan, n_psd: int,
                   stack: ConfigStack) -> dict[str, PsdStack]:
    """PSD propagation of a whole configuration stack in one pass.

    Row ``k`` of every returned :class:`PsdStack` is bit-identical to the
    scalar :func:`walk_psd` of configuration ``k``: each operation applies
    the same operand pairs in the same order, only vectorized along the
    leading config axis, and the per-node responses come from the same
    plan cache the scalar walk uses.  When memoization is enabled, only
    the deviant cone of the stack (see :func:`_deviant_cone`) is
    vectorized; every other step broadcasts the scalar memo's cached
    value.  The stack must have been resolved against the plan's current
    spec state (every in-repo caller constructs it immediately before
    walking).
    """
    if memoization_enabled():
        base = plan_memo(plan).psd(n_psd)
        cone = _deviant_cone(plan, stack)
    else:
        base, cone = None, set(range(len(plan.steps)))
    with span("analysis.walk_batch", representation="psd",
              configs=stack.size, cone=len(cone)):
        slots: list = [None] * len(plan.steps)
        for step in plan.steps:
            if step.index in cone:
                slots[step.index] = _psd_batch_step(plan, n_psd, stack, step,
                                                    slots)
            else:
                slots[step.index] = _broadcast_psd(base[step.index],
                                                   stack.size)
    return {step.name: slots[step.index] for step in plan.steps}


def walk_stats_batch(plan: CompiledPlan,
                     stack: ConfigStack) -> dict[str, NoiseStats]:
    """Moment propagation of a whole configuration stack in one pass.

    Returns :class:`NoiseStats` objects whose ``mean`` / ``variance``
    fields are ``(K,)`` arrays (the dataclass arithmetic is elementwise,
    so every propagation rule applies unchanged).  Entry ``k`` is
    bit-identical to the scalar :func:`walk_stats` of configuration ``k``.
    Deviant-cone reuse mirrors :func:`walk_psd_batch`.
    """
    if memoization_enabled():
        base = plan_memo(plan).stats()
        cone = _deviant_cone(plan, stack)
    else:
        base, cone = None, set(range(len(plan.steps)))
    with span("analysis.walk_batch", representation="stats",
              configs=stack.size, cone=len(cone)):
        slots: list = [None] * len(plan.steps)
        for step in plan.steps:
            if step.index in cone:
                slots[step.index] = _stats_batch_step(plan, stack, step,
                                                      slots)
            else:
                slots[step.index] = _broadcast_stats(base[step.index],
                                                     stack.size)
    return {step.name: slots[step.index] for step in plan.steps}
