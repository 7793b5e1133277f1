"""Self-test of the benchmark at minimal size.

Usage (from the repository root)::

    python3 perfbench/selftest.py

Checks that

* every workload of ``perfbench/run.py`` runs at minimal size and prints,
  as its last line, the result object with every end-to-end metric
  (``--trace 0``) or every per-layer metric (``--trace 1``), each with
  the unit ``BENCHMARK.json`` names;
* the output checks fire: a tampered cache record makes
  ``campaign_warm`` fail ops, and so does an unreachable noise budget on
  ``wordlength_search`` (both workloads are driven in-process with the
  fault applied after set-up; their error rate must be above 0);
* the committed systems regenerate byte-identically;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's
  files, the benchmark exits nonzero without printing a result.

Exits 1 and lists what failed, 0 when everything holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench-work"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_benchmark(args: list, cwd: Path = ROOT) -> tuple:
    """``(exit status, parsed last stdout line or None, stdout)``."""
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "0", "--seconds", "1",
         "--scale", "min", *args], cwd=cwd, capture_output=True, text=True,
        timeout=600)
    lines = completed.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return completed.returncode, result, completed.stdout


def check_metrics(spec: dict) -> list:
    problems = [f"BENCHMARK.json names an unknown workload {w['name']!r}"
                for w in spec["workloads"] if w["name"] not in WORKLOAD_NAMES]
    for workload in WORKLOAD_NAMES:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            status, result, _ = run_benchmark(
                ["--workload", workload, "--trace", str(trace)])
            if status != 0 or result is None:
                problems.append(f"{label}: exit status {status}")
                continue
            if set(result) != RESULT_KEYS or not result["correct"]:
                problems.append(f"{label}: bad result {result}")
                continue
            expected = {m["name"]: m["unit"] for m in spec[key]}
            emitted = {name: metric["unit"]
                       for name, metric in result["metrics"].items()}
            if emitted != expected:
                problems.append(f"{label}: metrics {emitted} differ from "
                                f"BENCHMARK.json {expected}")
            print(f"ok: {label} emits its {len(expected)} metrics")
    return problems


def tamper_cache(workload) -> None:
    """Scale the power of one cached campaign record by 1.5."""
    path = sorted(workload.cache_dir.glob("*/*.json"))[0]
    record = json.loads(path.read_text())
    record["power"] = record["power"] * 1.5
    path.write_text(json.dumps(record))


def unreachable_budgets(workload) -> None:
    """Give every search a noise budget no word lengths can meet."""
    workload.ops = [(stem, method, granularity, 1e-30)
                    for stem, method, granularity, _ in workload.ops]


def check_faults() -> list:
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import workloads

    SCRATCH.mkdir(exist_ok=True)
    problems = []
    for workload, fault in (
            (workloads.CampaignWarm, tamper_cache),
            (workloads.WordlengthSearch, unreachable_budgets)):
        with tempfile.TemporaryDirectory(dir=SCRATCH) as workdir:
            instance = workloads.make_workload(workload.name, 0, "min",
                                               Path(workdir), False)
            instance.setup()
            fault(instance)
            phase = workloads.measure(instance, 1.0)
        failed, attempted = len(phase["errors"]), len(phase["latencies"])
        if not failed:
            problems.append(f"{workload.name} with {fault.__name__}: no op "
                            f"of {attempted} failed its check")
        else:
            print(f"ok: {workload.name} with {fault.__name__} fails "
                  f"{failed} of {attempted} ops")
    return problems


def check_regeneration() -> list:
    completed = subprocess.run(
        [sys.executable, "perfbench/make_systems.py", "--check"], cwd=ROOT,
        capture_output=True, text=True)
    if completed.returncode != 0:
        return [f"make_systems --check: {completed.stderr.strip()}"]
    print("ok: committed systems regenerate byte-identically")
    return []


def check_without_sources() -> list:
    bare = SCRATCH / f"selftest-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        status, result, stdout = run_benchmark(
            ["--workload", "wordlength_search"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if status == 0 or stdout.strip():
        return [f"without sources: exit status {status}, printed "
                f"{stdout.strip()[:200]!r}"]
    print("ok: without sources the benchmark exits "
          f"{status} and prints no result")
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = (check_metrics(spec) + check_faults() + check_regeneration()
                + check_without_sources())
    for problem in problems:
        print(f"FAILED: {problem}")
    try:
        SCRATCH.rmdir()
    except OSError:
        pass
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
