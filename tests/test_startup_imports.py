"""``scipy.signal`` loads only when a float ``lfilter`` runs.

Importing ``scipy.signal`` costs about two seconds, most of the start-up
of a CLI process.  Only float IIR filtering needs it, so the library
reaches it through one helper, :func:`repro.lti.transfer_function.lfilter`,
that imports it on its first call.  These tests pin that down: the
analytical psd paths never load it, a pooled campaign loads it before its
workers fork, no module imports it at module level, and the helper is
bit-for-bit ``scipy.signal.lfilter``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.lti.fir_design import design_fir_lowpass
from repro.lti.transfer_function import lfilter
from repro.sfg import SfgBuilder, save_graph

SRC = Path(repro.__file__).resolve().parent.parent

# Reports at interpreter exit whether scipy.signal was ever imported.
_REPORT_AT_EXIT = """
import atexit, sys
atexit.register(lambda: print("scipy.signal loaded:",
                              "scipy.signal" in sys.modules))
"""
# Runs ``python -m repro.cli <argv>`` under that report.
_CLI_RUNNER = _REPORT_AT_EXIT + """
import runpy
sys.argv = ["repro.cli", *sys.argv[1:]]
runpy.run_module("repro.cli", run_name="__main__")
"""


def _python(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env)


@pytest.fixture(scope="module")
def fir_system(tmp_path_factory):
    builder = SfgBuilder("fir")
    x = builder.input("x", fractional_bits=12)
    h = builder.fir("h", design_fir_lowpass(12, 0.4), x, fractional_bits=12)
    builder.output("y", h)
    path = tmp_path_factory.mktemp("startup") / "fir.json"
    save_graph(builder.build(), path)
    return str(path)


class TestWhenScipySignalLoads:
    def test_importing_the_cli(self):
        process = _python("-c", "import sys, repro.cli; "
                                "print('scipy.signal' in sys.modules)")
        assert process.returncode == 0, process.stderr
        assert process.stdout.strip() == "False"

    @pytest.mark.parametrize("argv", [
        ["evaluate", "{system}", "--method", "psd"],
        ["optimize", "{system}", "--budget", "1e-7"],
    ], ids=["evaluate-psd", "optimize"])
    def test_analytical_psd_commands(self, fir_system, argv):
        argv = [arg.format(system=fir_system) for arg in argv]
        process = _python("-c", _CLI_RUNNER, *argv)
        assert process.returncode == 0, process.stderr
        assert process.stdout.splitlines()[-1] == "scipy.signal loaded: False"

    def test_runner_detects_a_float_lfilter(self):
        # The atexit report is not vacuous: one float IIR filter loads it.
        process = _python("-c", _REPORT_AT_EXIT + """
from repro.lti.transfer_function import TransferFunction
TransferFunction([1.0], [1.0, -0.5]).impulse_response(4)
""")
        assert process.returncode == 0, process.stderr
        assert process.stdout.splitlines()[-1] == "scipy.signal loaded: True"

    def test_pooled_campaign_loads_it_before_forking(self):
        # Forked pool workers inherit the parent's modules; without the
        # preload every worker of every pool pays the import itself.
        process = _python("-c", _REPORT_AT_EXIT + """
from repro.campaign import CampaignSpec, ScenarioSpec, run_campaign
run_campaign(CampaignSpec(scenarios=(ScenarioSpec("fft_butterfly"),
                                     ScenarioSpec("table1_fir")),
                          methods=("psd",), wordlengths=(8,), n_psd=64),
             workers=2)
""")
        assert process.returncode == 0, process.stderr
        assert process.stdout.splitlines()[-1] == "scipy.signal loaded: True"


def _scipy_signal_import_sites(tree):
    """``(enclosing function or None, line)`` of every import of
    ``scipy.signal`` or of anything from it."""
    sites = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            names = [module] + [f"{module}.{alias.name}"
                                for alias in node.names]
        else:
            names = []
        if any(name == "scipy.signal" or name.startswith("scipy.signal.")
               for name in names):
            sites.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return sites


def test_scipy_signal_has_one_lazy_import_site():
    sites = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        found = _scipy_signal_import_sites(ast.parse(path.read_text()))
        if found:
            sites[path.relative_to(SRC).as_posix()] = [f for f, _ in found]
    assert sites == {"repro/lti/transfer_function.py": ["lfilter"]}


def test_import_site_scan_sees_every_spelling():
    tree = ast.parse("import scipy.signal\n"
                     "from scipy import signal\n"
                     "from scipy.signal import lfilter\n"
                     "from scipy.signal.windows import hann\n"
                     "import scipy.fft\n"
                     "def f():\n    from scipy.signal import lfilter\n")
    assert _scipy_signal_import_sites(tree) == [
        (None, 1), (None, 2), (None, 3), (None, 4), ("f", 7)]


class TestLfilterHelper:
    """The helper is ``scipy.signal.lfilter``, bit for bit."""

    b = np.array([0.3, -0.2, 0.15])
    a = np.array([1.7, -0.9, 0.35])  # a[0] != 1: lfilter normalizes

    def test_one_dimensional_input(self, rng):
        from scipy import signal

        x = rng.uniform(-1.0, 1.0, 500)
        np.testing.assert_array_equal(
            lfilter(self.b, self.a, x).view(np.int64),
            signal.lfilter(self.b, self.a, x).view(np.int64))

    def test_batched_input_along_the_last_axis(self, rng):
        from scipy import signal

        x = rng.uniform(-1.0, 1.0, (4, 300))
        np.testing.assert_array_equal(
            lfilter(self.b, self.a, x, axis=-1).view(np.int64),
            signal.lfilter(self.b, self.a, x, axis=-1).view(np.int64))
