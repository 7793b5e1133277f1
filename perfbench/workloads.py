"""The benchmark's workloads and the worker process that runs one of them.

Each workload is a closed loop with one caller: an operation starts only
after the previous one returned.  A run repeats the workload's fixed op
sequence ("a pass") for about ``--seconds``: it always finishes at least
one whole pass and stops only between passes, so every run measures the
same mix of operations.

Worker protocol (``perfbench/run.py`` is the caller)::

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S \
        --trace 0|1 --workdir DIR [--setup-only] [--scale full|min]

The worker prints ``ready`` on its standard output once set-up is done
(the caller times set-up up to that line; ``--setup-only`` exits there),
then one JSON line with the measurements.  Everything else it or the
library prints goes to standard error.  ``--scale min`` (a smaller op
sequence) exists for ``perfbench/selftest.py``, which also drives the
workload classes in-process to check that their output checks fire.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import reference_seconds, speed_factor
from tracing import Tracer, covered_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SYSTEMS = HERE / "systems"

# The psd Ed band the paper calls sub-one-bit accuracy.
ED_BAND_PCT = (-300.0, 75.0)
# PSD bins of every word-length search and of its cold re-evaluation.
N_PSD = 256


class CheckFailed(Exception):
    """An operation returned, but its output failed a check."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def _run_child(argv: list, stdout_path: Path) -> tuple:
    """Run a child to completion; ``(exit code, peak RSS in MB)``."""
    with open(stdout_path, "w") as stdout:
        process = subprocess.Popen(argv, cwd=ROOT, env=_child_env(),
                                   stdout=stdout, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(process.pid, 0)
    process.returncode = os.waitstatus_to_exitcode(status)
    return process.returncode, usage.ru_maxrss / 1024.0


def _float_after(label: str, text: str) -> float:
    match = re.search(re.escape(label) + r"\s*([-+0-9.eE]+|nan|inf)", text)
    if match is None:
        raise CheckFailed(f"output lacks {label!r}")
    value = float(match.group(1))
    if not math.isfinite(value):
        raise CheckFailed(f"{label} {value} is not finite")
    return value


# ----------------------------------------------------------------------
# cli_analytic
# ----------------------------------------------------------------------
class CliAnalytic:
    """Fixed ``python -m repro.cli`` commands, each timed from process
    start to exit (the untraced run) or run in-process through
    ``repro.cli.main`` (the traced run)."""

    name = "cli_analytic"
    budget = 1e-7

    def __init__(self, seed: int, scale: str, workdir: Path, traced: bool):
        self.workdir = workdir
        self.traced = traced
        fir, iir, cascade = (str(SYSTEMS.relative_to(ROOT) / f"{stem}.json")
                             for stem in ("table1_fir", "table1_iir",
                                          "cascade10"))
        seed_args = ["--seed", str(seed)]
        if scale == "min":
            self.ops = [
                ["evaluate", fir, "--method", "psd", *seed_args],
                ["compare", iir, "--samples", "4096", "--methods", "psd",
                 *seed_args]]
        else:
            self.ops = [
                ["evaluate", path, "--method", method, *seed_args]
                for path, method in ((fir, "psd"), (iir, "flat"),
                                     (cascade, "agnostic"))]
            self.ops += [
                ["optimize", cascade, "--budget", f"{self.budget:g}",
                 *seed_args],
                ["compare", iir, "--samples", "20000", "--methods", "psd",
                 "flat", "agnostic", *seed_args]]
        self.peak_rss_mb = 0.0

    def setup(self) -> None:
        if self.traced:
            import repro.cli  # noqa: F401  (commands then run in-process)
        self._command(self.ops[0])

    def _command(self, argv: list) -> str:
        if self.traced:
            import repro.cli

            stream = io.StringIO()
            with contextlib.redirect_stdout(stream):
                status = repro.cli.main(list(argv))
            output = stream.getvalue()
        else:
            out_path = self.workdir / "cli.txt"
            status, rss = _run_child(
                [sys.executable, "-m", "repro.cli", *argv], out_path)
            self.peak_rss_mb = max(self.peak_rss_mb, rss)
            output = out_path.read_text()
        if status != 0:
            raise CheckFailed(f"exit status {status}: {output[-300:]}")
        return output

    def run_op(self, argv: list):
        return self._command(argv)

    def check(self, argv: list, output: str) -> dict:
        counters = {"jobs": 1}
        if argv[0] == "evaluate":
            if _float_after("estimated output noise power:", output) <= 0:
                raise CheckFailed("non-positive noise power")
        elif argv[0] == "optimize":
            noise = _float_after("estimated output noise:", output)
            if noise > self.budget:
                raise CheckFailed(f"noise {noise:.3e} over the budget")
            counters["total_bits"] = int(_float_after(
                "total fractional bits:", output))
            counters["evaluations"] = int(_float_after(
                "analytical evaluations:", output))
        elif argv[0] == "compare":
            start = argv.index("--methods") + 1
            end = next((i for i in range(start, len(argv))
                        if argv[i].startswith("--")), len(argv))
            rows = [[field.strip() for field in line.split("|")]
                    for line in output.splitlines()
                    if line.count("|") == 3
                    and not line.startswith("method")]
            if [row[0] for row in rows] != argv[start:end]:
                raise CheckFailed(f"compare rows {rows} do not match the "
                                  f"methods {argv[start:end]}")
            for row in rows:
                float(row[2])
                if row[3] != "yes":
                    raise CheckFailed(f"compare row not sub-one-bit: {row}")
        return counters

    def final_problems(self) -> list:
        return systems_problems()

    def peak_rss(self) -> float:
        if self.traced:
            return _self_rss_mb()
        return self.peak_rss_mb

    def extras(self) -> dict:
        """Startup split, measured only in the traced run."""
        interpreter = statistics.median(
            _timed_child([sys.executable, "-c", "pass"], self.workdir)
            for _ in range(5))
        imports = statistics.median(
            _timed_child([sys.executable, "-c", "import repro.cli"],
                         self.workdir) for _ in range(3))
        return {"cli.interpreter_s": interpreter,
                "cli.import_s": max(0.0, imports - interpreter),
                "importtime_top10": _importtime_top(self.workdir)}


def _timed_child(argv: list, workdir: Path) -> float:
    start = time.perf_counter()
    status, _ = _run_child(argv, workdir / "child.txt")
    elapsed = time.perf_counter() - start
    if status != 0:
        raise CheckFailed(f"{argv} exited {status}")
    return elapsed


def _importtime_top(workdir: Path, count: int = 10) -> list:
    """The largest self import times of ``import repro.cli``."""
    out_path = workdir / "importtime.txt"
    status, _ = _run_child(
        [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
        out_path)
    if status != 0:
        raise CheckFailed(f"importtime run exited {status}")
    rows = []
    for line in out_path.read_text().splitlines():
        match = re.match(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s*(\S+)",
                         line)
        if match:
            rows.append({"module": match.group(3),
                         "self_s": int(match.group(1)) / 1e6,
                         "cumulative_s": int(match.group(2)) / 1e6})
    rows.sort(key=lambda row: row["self_s"], reverse=True)
    return rows[:count]


def systems_problems() -> list:
    """Committed inputs must regenerate byte for byte."""
    from make_systems import check_systems

    mismatched = check_systems()
    return ([f"committed systems do not regenerate byte-identically: "
             f"{', '.join(mismatched)}"] if mismatched else [])


def system_fingerprints() -> dict:
    from repro.sfg.serialization import graph_fingerprint, load_graph

    return {path.stem: graph_fingerprint(load_graph(path))
            for path in sorted(SYSTEMS.glob("*.json"))}


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# wordlength_search
# ----------------------------------------------------------------------
class WordlengthSearch:
    """Greedy word-length searches in one long-lived process: each op
    loads a committed system and runs the optimizer to its result."""

    name = "wordlength_search"

    def __init__(self, scale: str):
        # A word-length search has no random input, so it takes no seed.
        # An op is (system, method or "sweep", granularity, budget); the
        # sweep's budget None stands for its six budgets.
        if scale == "min":
            self.ops = [("cascade10", "psd", "node", 1e-7)]
        else:
            self.ops = [("bank32", "psd", "node", 1e-7),
                        ("cascade10", "psd", "node", 1e-7),
                        ("bank16", "psd", "edge", 1e-6),
                        ("cascade10", "flat", "node", 1e-7),
                        ("bank16", "sweep", "node", None)]

    def setup(self) -> None:
        from repro.systems.pareto import budget_range

        self._sweep_budgets = [float(b) for b in budget_range(1e-4, 1e-8, 6)]
        self.run_op(("cascade10", "psd", "node", 1e-7))

    def run_op(self, op):
        from repro.sfg.serialization import load_graph
        from repro.systems.pareto import sweep_noise_budgets
        from repro.systems.wordlength import WordLengthOptimizer

        stem, method, granularity, budget = op
        graph = load_graph(SYSTEMS / f"{stem}.json")
        if method == "sweep":
            budgets = self._sweep_budgets if budget is None else [budget]
            front = sweep_noise_budgets(graph, budgets, n_psd=N_PSD)
            return graph, budgets, [(point.budget, point.assignment,
                                     point.noise_power, point.total_bits,
                                     point.evaluations)
                                    for point in front.points]
        result = WordLengthOptimizer(
            graph, method=method, n_psd=N_PSD,
            granularity=granularity).optimize(budget)
        return graph, [budget], [(budget, result.assignment,
                                  result.noise_power, result.total_bits,
                                  result.evaluations)]

    def check(self, op, outcome) -> dict:
        # NoiseMemo's counters are public; plan_memo, which finds a
        # graph's memo, lives in the engine module.
        from repro.analysis._engine import plan_memo

        graph, budgets, results = outcome
        if len(results) != len(budgets):
            raise CheckFailed(f"{op}: {len(budgets) - len(results)} of "
                              f"{len(budgets)} budgets not met")
        method = "psd" if op[1] == "sweep" else op[1]
        counters = {"jobs": len(results), "total_bits": 0,
                    "evaluations": 0, **plan_memo(graph).counters()}
        for budget, assignment, power, total_bits, evaluations in results:
            if not power <= budget:
                raise CheckFailed(f"{op}: noise {power:.3e} over budget "
                                  f"{budget:.3e}")
            cold = cold_noise_power(op[0], assignment, method)
            if cold != power:
                raise CheckFailed(f"{op}: cold re-evaluation gives {cold!r}, "
                                  f"the search reported {power!r}")
            counters["total_bits"] += total_bits
            counters["evaluations"] += evaluations
        return counters

    def final_problems(self) -> list:
        return systems_problems()

    def peak_rss(self) -> float:
        return _self_rss_mb()

    def extras(self) -> dict:
        return {}


def cold_noise_power(stem: str, assignment: dict, method: str) -> float:
    """Noise power of ``assignment`` on a freshly loaded system."""
    from repro.analysis import evaluate_flat, evaluate_psd
    from repro.sfg.plan import compile_plan
    from repro.sfg.serialization import load_graph

    plan = compile_plan(load_graph(SYSTEMS / f"{stem}.json"))
    plan.requantize(assignment)
    if method == "psd":
        return evaluate_psd(plan, N_PSD).total_power
    return evaluate_flat(plan).power


# ----------------------------------------------------------------------
# campaign_cold / campaign_warm
# ----------------------------------------------------------------------
def campaign_spec(seed: int, scale: str):
    """The campaign both campaign workloads run.  The random scenario is
    single-rate so every seed expands to the same number of jobs."""
    from repro.campaign import CampaignSpec, ScenarioSpec

    random_graph = ScenarioSpec("random", {"seed": seed, "multirate": 0})
    if scale == "min":
        scenarios = (ScenarioSpec("fft_butterfly"), random_graph)
        wordlengths = (8, 12)
    else:
        scenarios = (ScenarioSpec("cascaded_sos_bank"),
                     ScenarioSpec("polyphase_decimator"),
                     ScenarioSpec("fft_butterfly"),
                     ScenarioSpec("table1_iir"),
                     random_graph)
        wordlengths = (8, 12, 16)
    return CampaignSpec(scenarios=scenarios,
                        methods=("psd", "flat", "simulation"),
                        wordlengths=wordlengths, seed=seed)


def campaign_ed_abs_max(result) -> float:
    """Check a campaign's records; the largest |Ed| of its psd records."""
    from repro.campaign import CampaignReport

    if result.failed_records:
        raise CheckFailed(f"{len(result.failed_records)} failed records")
    eds = [row["ed_percent"] for row in CampaignReport(result.records).rows()
           if row["method"] == "psd"]
    if not eds or None in eds:
        raise CheckFailed("a psd record has no simulation to compare with")
    low, high = ED_BAND_PCT
    outside = [ed for ed in eds if not low < ed < high]
    if outside:
        raise CheckFailed(f"psd Ed outside ({low:g} %, {high:g} %): "
                          f"{outside}")
    return max(abs(ed) for ed in eds)


def _comparable(record: dict) -> str:
    """A record without the fields that say where it was served from."""
    return json.dumps({key: value for key, value in record.items()
                       if key not in ("cached", "cache_schema")},
                      sort_keys=True)


class CampaignCold:
    """One campaign per op into a fresh, empty cache, on a 2-process
    pool: every job is computed and written to the cache."""

    name = "campaign_cold"
    workers = 2
    ops = [None]

    def __init__(self, seed: int, scale: str, workdir: Path):
        self.spec = campaign_spec(seed, scale)
        self.workdir = workdir
        self.observe = False
        self.obs_spans: list = []
        self._runs = 0

    def setup(self) -> None:
        self.check(None, self.run_op(None))

    def run_op(self, _op):
        from repro import obs
        from repro.campaign import run_campaign

        self._runs += 1
        cache_dir = self.workdir / f"cold-{self._runs}"
        if not self.observe:
            return cache_dir, run_campaign(self.spec, cache_dir=cache_dir,
                                           workers=self.workers)
        # Pool workers do not report wrapper spans; the library's own
        # observability session ships theirs home.
        with obs.observe(trace=True) as session:
            result = run_campaign(self.spec, cache_dir=cache_dir,
                                  workers=self.workers)
        self.obs_spans.extend(session.trace.snapshot())
        return cache_dir, result

    def check(self, _op, outcome) -> dict:
        cache_dir, result = outcome
        shutil.rmtree(cache_dir, ignore_errors=True)
        if result.cache_hits:
            raise CheckFailed(f"{result.cache_hits} cache hits in a cold "
                              "campaign")
        return {"jobs": result.total_jobs,
                "ed_abs_max_pct": campaign_ed_abs_max(result),
                "cache_hits": result.cache_hits,
                "cache_jobs": result.total_jobs,
                "retries": result.retries,
                "pool_rebuilds": result.pool_rebuilds}

    def samples_by_scenario(self) -> dict:
        """Stimulus samples one simulation run of each scenario reads."""
        from repro.campaign import expand_campaign
        from repro.sfg.serialization import graph_from_dict

        prepared, _, _ = expand_campaign(self.spec)
        return {scenario.spec.name: scenario.stimulus.num_samples
                * len(graph_from_dict(scenario.graph_dict).input_names())
                for scenario in prepared}

    def final_problems(self) -> list:
        return []

    def peak_rss(self) -> float:
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return max(_self_rss_mb(), children / 1024.0)

    def extras(self) -> dict:
        return {}


class CampaignWarm:
    """The same campaign against a cache filled during set-up: every job
    is a cache hit, so only expansion, cache reads and the join run."""

    name = "campaign_warm"
    ops = [None]

    def __init__(self, seed: int, scale: str, workdir: Path):
        self.spec = campaign_spec(seed, scale)
        self.cache_dir = workdir / "warm-cache"

    def setup(self) -> None:
        from repro.campaign import run_campaign

        # The fill runs on a pool, so the simulations' memory stays in the
        # pool's processes and peak_rss() measures the warm path only.
        cold = run_campaign(self.spec, cache_dir=self.cache_dir,
                            workers=CampaignCold.workers)
        campaign_ed_abs_max(cold)
        self.cold_records = [_comparable(r) for r in cold.records]
        self.check(None, self.run_op(None))

    def run_op(self, _op):
        from repro.campaign import run_campaign

        return run_campaign(self.spec, cache_dir=self.cache_dir)

    def check(self, _op, result) -> dict:
        if result.cache_hits != result.total_jobs:
            raise CheckFailed(f"{result.total_jobs - result.cache_hits} of "
                              f"{result.total_jobs} jobs missed the cache")
        if [_comparable(r) for r in result.records] != self.cold_records:
            raise CheckFailed("warm records differ from the cold records "
                              "that filled the cache")
        return {"jobs": result.total_jobs, "cache_hits": result.cache_hits,
                "cache_jobs": result.total_jobs, "retries": result.retries,
                "pool_rebuilds": result.pool_rebuilds}

    def final_problems(self) -> list:
        return []

    def peak_rss(self) -> float:
        return _self_rss_mb()

    def extras(self) -> dict:
        return {}


def make_workload(name: str, seed: int, scale: str, workdir: Path,
                  traced: bool):
    """The workload called ``name``, given only the arguments it uses."""
    if name == CliAnalytic.name:
        return CliAnalytic(seed, scale, workdir, traced)
    if name == WordlengthSearch.name:
        return WordlengthSearch(scale)
    if name == CampaignCold.name:
        return CampaignCold(seed, scale, workdir)
    return CampaignWarm(seed, scale, workdir)


WORKLOAD_NAMES = (CliAnalytic.name, WordlengthSearch.name, CampaignCold.name,
                  CampaignWarm.name)


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def measure(workload, seconds: float, tracer=None) -> dict:
    """Run whole passes of the op sequence for about ``seconds``.

    Another pass starts only while at least half a pass fits before the
    deadline, so a run overshoots ``seconds`` by at most half a pass.
    Only the op itself is timed (and traced); its output check runs
    outside the timed region, and so does a garbage collection before
    each pass, so every pass starts from a collected heap (what set-up
    left is frozen first, so that collection stays short).  A pass time
    is the sum of its op times.  The host-speed reference of
    ``hostspeed.py`` runs before the first op and after every op; a
    scaled pass time sums each op time scaled by the two reference
    samples around it.  An op that raises or fails its check counts as
    failed, and the loop goes on.
    """
    latencies: list = []
    pass_times: list = []
    errors: list = []
    counters: dict = {}
    scaled_pass_times: list = []
    references: list = []
    gc.collect()
    gc.freeze()
    references.append(reference_seconds())
    run_start = time.perf_counter()
    deadline = run_start + seconds
    while (not pass_times or time.perf_counter()
           + (time.perf_counter() - run_start) / len(pass_times) / 2
           < deadline):
        gc.collect()
        pass_start = len(latencies)
        for op in workload.ops:
            if tracer is not None:
                tracer.enabled = True
            error = outcome = None
            start = time.perf_counter()
            try:
                outcome = workload.run_op(op)
            except Exception as exc:  # a failed op is counted, not fatal
                error = exc
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.enabled = False
            latencies.append(elapsed)
            if error is None:
                try:
                    _accumulate(counters, workload.check(op, outcome))
                except Exception as exc:
                    error = exc
            if error is not None:
                errors.append(f"{op!r}: {type(error).__name__}: {error}")
            references.append(reference_seconds())
        pass_times.append(sum(latencies[pass_start:]))
        scaled_pass_times.append(sum(
            latencies[index] * speed_factor(references[index:index + 2])
            for index in range(pass_start, len(latencies))))
    return {"latencies": latencies, "pass_times": pass_times,
            "scaled_pass_times": scaled_pass_times,
            "passes": len(pass_times), "errors": errors,
            "counters": counters, "references": references}


def _accumulate(total: dict, counters: dict) -> None:
    for key, value in counters.items():
        if key == "ed_abs_max_pct":
            total[key] = max(total.get(key, 0.0), value)
        else:
            total[key] = total.get(key, 0) + value


def end_to_end_metrics(workload, phase: dict) -> dict:
    """Every end-to-end metric but ``setup_s`` (the caller times set-up)."""
    jobs_per_pass = phase["counters"].get("jobs", 0) / phase["passes"]
    pass_mean = statistics.mean(phase["scaled_pass_times"])
    return {
        "pass_mean_s": (pass_mean, "s"),
        "jobs_per_s": (jobs_per_pass / pass_mean, "jobs/s"),
        "peak_rss_mb": (workload.peak_rss(), "MB"),
    }


def install_layer_wrappers(tracer) -> None:
    """Time the public calls of each layer, wherever they are bound."""
    import numpy as np

    import repro.cli
    from repro.analysis import (
        SimulationEvaluator,
        evaluate_agnostic,
        evaluate_agnostic_batch,
        evaluate_flat,
        evaluate_flat_batch,
        evaluate_psd,
        evaluate_psd_batch,
        evaluate_psd_tracked,
    )
    from repro.campaign import ResultCache, expand_campaign
    from repro.psd.estimation import estimate_psd, estimate_psd_batch
    from repro.sfg.plan import CompiledPlan, compile_plan
    from repro.sfg.serialization import load_graph
    from repro.systems.pareto import sweep_noise_budgets
    from repro.systems.wordlength import WordLengthOptimizer

    def stimulus_samples(args, kwargs) -> int:
        inputs = args[1] if len(args) > 1 else kwargs["inputs"]
        if isinstance(inputs, dict):
            return int(sum(np.size(value) for value in inputs.values()))
        return int(np.size(inputs))

    tracer.patch_function(repro.cli.main, "cli.command")
    tracer.patch_function(load_graph, "sfg.load_graph")
    tracer.patch_function(compile_plan, "sfg.compile_plan")
    tracer.patch_method(CompiledPlan, "requantize", "sfg.requantize")
    tracer.patch_method(CompiledPlan, "run", "sfg.plan_run",
                        stimulus_samples)
    tracer.patch_method(CompiledPlan, "run_pair", "sfg.plan_run",
                        stimulus_samples)
    for func in (evaluate_psd, evaluate_psd_tracked, evaluate_flat,
                 evaluate_agnostic):
        tracer.patch_function(func, "analysis.estimate")
    for func in (evaluate_psd_batch, evaluate_flat_batch,
                 evaluate_agnostic_batch):
        tracer.patch_function(func, "analysis.walk_batch")
    tracer.patch_method(SimulationEvaluator, "evaluate_batch",
                        "analysis.sim_batch")
    tracer.patch_method(WordLengthOptimizer, "optimize", "systems.optimize")
    tracer.patch_function(sweep_noise_budgets, "systems.sweep")
    tracer.patch_function(estimate_psd, "psd.welch")
    tracer.patch_function(estimate_psd_batch, "psd.welch")
    tracer.patch_function(expand_campaign, "campaign.expand")
    tracer.patch_method(ResultCache, "get", "campaign.cache_get")
    tracer.patch_method(ResultCache, "put", "campaign.cache_put")


# (metric, unit) of the traced run; "/op" values are divided by the ops
# of the traced phase.  Which end-to-end metric each layer should move,
# and where it should stay flat:
#   cli       pass_mean_s on cli_analytic, setup_s elsewhere; flat on the
#             pass_mean_s / jobs_per_s of the in-process workloads
#   sfg       requantize: pass_mean_s on wordlength_search; plan_run:
#             jobs_per_s on campaign_cold, flat on wordlength_search and
#             campaign_warm
#   analysis  walks and memo: pass_mean_s on wordlength_search, flat on
#             campaign_warm; sim_batch: jobs_per_s on campaign_cold
#   systems   pass_mean_s on wordlength_search; cli_analytic only through
#             its one optimize command
#   psd       jobs_per_s on campaign_cold; flat on wordlength_search and
#             campaign_warm
#   campaign  get/expand: jobs_per_s on campaign_warm; put/pool:
#             jobs_per_s on campaign_cold; flat on wordlength_search
PER_LAYER = (
    ("cli.interpreter_s", "s"), ("cli.import_s", "s"),
    ("cli.command_s", "s/op"),
    ("sfg.load_graph_s", "s/op"), ("sfg.compile_plan_s", "s/op"),
    ("sfg.compile_plan.calls", "count/op"), ("sfg.requantize_s", "s/op"),
    ("sfg.requantize.calls", "count/op"), ("sfg.plan_run_s", "s/op"),
    ("sfg.plan_run.calls", "count/op"),
    ("sfg.plan_run.samples_per_s", "1/s"),
    ("analysis.estimate_s", "s/op"), ("analysis.walk_batch_s", "s/op"),
    ("analysis.walk_batch.calls", "count/op"),
    ("analysis.sim_batch_s", "s/op"),
    ("analysis.memo.full_walks", "count/op"),
    ("analysis.memo.steps_recomputed", "count/op"),
    ("analysis.memo.reuse_ratio", "ratio"),
    ("systems.optimize_self_s", "s/op"), ("systems.evaluations", "count/op"),
    ("systems.sweep_s", "s/op"), ("systems.total_bits", "bits"),
    ("psd.welch_s", "s/op"), ("psd.welch.calls", "count/op"),
    ("campaign.expand_s", "s/op"), ("campaign.cache_get_s", "s/op"),
    ("campaign.cache_get.calls", "count/op"),
    ("campaign.cache_put_s", "s/op"),
    ("campaign.cache_put.calls", "count/op"),
    ("campaign.hit_ratio", "ratio"), ("campaign.payload_busy_s", "s/op"),
    ("campaign.pool_idle_s", "s/op"), ("campaign.retries", "count/op"),
    ("campaign.pool_rebuilds", "count/op"),
    ("campaign.ed_abs_max_pct", "%"),
    ("trace.overhead_pct", "%"),
)


def layer_metrics(tracer, traced: dict, untraced: dict,
                  extras: dict) -> dict:
    """The per-layer metrics of one traced run, all in :data:`PER_LAYER`.

    Times are self times (a layer's span minus its child spans) except
    ``cli.command_s`` and ``campaign.payload_busy_s``, which are whole
    commands and whole worker payloads.
    """
    table = tracer.layer_table()
    ops = len(traced["latencies"])
    passes = traced["passes"]
    counters = traced["counters"]

    def row(name: str) -> dict:
        return table.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                "samples": 0})

    values = {"cli.interpreter_s": extras.get("cli.interpreter_s", 0.0),
              "cli.import_s": extras.get("cli.import_s", 0.0),
              "cli.command_s": row("cli.command")["total_s"] / ops}
    for metric, unit in PER_LAYER:
        if metric in values or unit not in ("s/op", "count/op"):
            continue
        span_name, _, kind = metric.rpartition(".")
        if kind == "calls":
            values[metric] = row(span_name)["calls"] / ops
        elif metric.endswith("_s") and row(metric[:-2])["calls"]:
            values[metric] = row(metric[:-2])["self_s"] / ops
    plan_run = row("sfg.plan_run")
    values["sfg.plan_run.samples_per_s"] = (
        plan_run["samples"] / plan_run["self_s"] if plan_run["self_s"]
        else 0.0)
    reused = counters.get("steps_reused", 0)
    recomputed = counters.get("steps_recomputed", 0)
    payloads = tracer.busy_intervals("campaign.payload")
    values.update({
        "analysis.memo.full_walks": counters.get("full_walks", 0) / ops,
        "analysis.memo.steps_recomputed": recomputed / ops,
        "analysis.memo.reuse_ratio": (reused / (reused + recomputed)
                                      if reused + recomputed else 0.0),
        "systems.optimize_self_s": row("systems.optimize")["self_s"] / ops,
        "systems.evaluations": counters.get("evaluations", 0) / ops,
        "systems.total_bits": counters.get("total_bits", 0) / passes,
        "campaign.hit_ratio": (counters.get("cache_hits", 0)
                               / counters["cache_jobs"]
                               if counters.get("cache_jobs") else 0.0),
        "campaign.payload_busy_s": row("campaign.payload")["total_s"] / ops,
        "campaign.pool_idle_s": (
            (sum(traced["latencies"]) - covered_seconds(payloads)) / ops
            if payloads else 0.0),
        "campaign.retries": counters.get("retries", 0) / ops,
        "campaign.pool_rebuilds": counters.get("pool_rebuilds", 0) / ops,
        "campaign.ed_abs_max_pct": counters.get("ed_abs_max_pct", 0.0),
        "trace.overhead_pct": 100.0 * (
            statistics.mean(traced["scaled_pass_times"])
            / statistics.mean(untraced["scaled_pass_times"]) - 1.0),
    })
    units = dict(PER_LAYER)
    return {metric: (values.get(metric, 0.0), units[metric])
            for metric, _ in PER_LAYER}


# ----------------------------------------------------------------------
# Worker entry point
# ----------------------------------------------------------------------
def provenance() -> dict:
    import numpy
    import scipy

    from repro.simkernel.backend import numba_available, resolve_backend

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numba": numba_available(),
            "sim_backend": resolve_backend(), "nproc": os.cpu_count()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run one workload")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--scale", choices=("full", "min"), default="full")
    args = parser.parse_args(argv)

    # Protocol lines go to the original stdout; anything else printed in
    # this process (library output included) lands on stderr.
    protocol = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    sys.path.insert(0, str(SRC))
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = make_workload(args.workload, args.seed, args.scale, workdir,
                             bool(args.trace))
    workload.setup()
    print("ready", file=protocol, flush=True)
    if args.setup_only:
        return 0

    if not args.trace:
        phase = measure(workload, args.seconds)
        metrics = end_to_end_metrics(workload, phase)
        layers = {}
        extras = {}
    else:
        untraced = measure(workload, args.seconds / 2)
        tracer = Tracer()
        install_layer_wrappers(tracer)
        cold = workload.name == CampaignCold.name
        if cold:
            workload.observe = True
        try:
            phase = measure(workload, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        if cold:
            tracer.ingest_obs(workload.obs_spans,
                              workload.samples_by_scenario())
        extras = workload.extras()
        metrics = layer_metrics(tracer, phase, untraced, extras)
        layers = tracer.layer_table()
        phase["errors"] += untraced["errors"]
        phase["latencies"] += untraced["latencies"]
    problems = workload.final_problems()
    result = {
        "workload": workload.name,
        "attempted": len(phase["latencies"]),
        "failed": len(phase["errors"]),
        "errors": phase["errors"][:20],
        "problems": problems,
        "passes": phase["passes"],
        "pass_times_s": phase["pass_times"],
        "scaled_pass_times_s": phase["scaled_pass_times"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "layers": layers,
        "importtime_top10": extras.get("importtime_top10", []),
        "counters": phase["counters"],
        "latencies_s": phase["latencies"][:200],
        "references_s": phase["references"][:201],
        "provenance": provenance(),
    }
    if workload.name in ("cli_analytic", "wordlength_search"):
        result["system_fingerprints"] = system_fingerprints()
    print(json.dumps(result), file=protocol, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
