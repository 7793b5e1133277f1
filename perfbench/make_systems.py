"""Regenerate the serialized systems the benchmark runs on.

Usage (from the repository root)::

    python3 perfbench/make_systems.py            # rewrite perfbench/systems/
    python3 perfbench/make_systems.py --check    # verify byte-identity only

The systems are deterministic functions of the library's generators, so
regeneration must reproduce the committed files byte for byte; ``--check``
exits 1 and names the first file that differs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SYSTEMS_DIR = HERE / "systems"


def _cascade_graph(stages: int = 10, bits: int = 16):
    """The ten-stage FIR/IIR cascade of the Pareto-sweep harness
    (``benchmarks/test_pareto_sweep.py``): one tunable width per stage."""
    from repro.lti.fir_design import design_fir_highpass, design_fir_lowpass
    from repro.lti.iir_design import design_iir_filter
    from repro.sfg.builder import SfgBuilder

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


def build_systems() -> dict:
    """Every committed system, by file stem."""
    from repro.systems.families import build_scalability_bank
    from repro.systems.filter_bank import (
        build_filter_graph,
        generate_fir_bank,
        generate_iir_bank,
    )

    # Table-I entries: a 24-tap high-pass FIR and a 3rd-order high-pass
    # Butterworth IIR.
    return {
        "table1_fir": build_filter_graph(generate_fir_bank(5)[4], 16),
        "table1_iir": build_filter_graph(generate_iir_bank(5)[4], 16),
        "cascade10": _cascade_graph(),
        "bank16": build_scalability_bank(branches=16),
        "bank32": build_scalability_bank(branches=32),
    }


def serialized_systems() -> dict:
    """``{stem: JSON text}`` exactly as :func:`save_graph` writes it."""
    import json

    from repro.sfg.serialization import graph_to_dict

    return {stem: json.dumps(graph_to_dict(graph), indent=2) + "\n"
            for stem, graph in build_systems().items()}


def check_systems() -> list:
    """Names of committed system files that regeneration does not
    reproduce byte for byte (missing files included)."""
    mismatched = []
    for stem, text in serialized_systems().items():
        path = SYSTEMS_DIR / f"{stem}.json"
        if not path.is_file() or path.read_bytes() != text.encode():
            mismatched.append(path.name)
    return mismatched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="verify the committed files instead of "
                             "rewriting them")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "src"))
    if args.check:
        mismatched = check_systems()
        if mismatched:
            print(f"regenerated systems differ: {', '.join(mismatched)}",
                  file=sys.stderr)
            return 1
        print("committed systems regenerate byte-identically")
        return 0
    SYSTEMS_DIR.mkdir(exist_ok=True)
    for stem, text in serialized_systems().items():
        (SYSTEMS_DIR / f"{stem}.json").write_text(text)
        print(f"wrote {SYSTEMS_DIR.name}/{stem}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
