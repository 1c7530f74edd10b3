"""Command-line entry point: ``repro-experiments [names...]``.

Runs the requested harnesses (default: all) and prints each paper-style
table with its paper-vs-measured notes.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.experiments.registry import REGISTRY, get_experiment
from repro.hls.compile import COMPILE_LEVELS

__all__ = ["main"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("names", nargs="*", default=[],
                        help=f"experiments to run (default: all); "
                             f"choices: {', '.join(sorted(REGISTRY))}")
    parser.add_argument("--fast", action="store_true",
                        help="reduced frame populations (CI mode)")
    parser.add_argument("--compile-level", type=int,
                        choices=COMPILE_LEVELS, default=0, metavar="{0,2}",
                        help="graph-compiler level for the reference "
                             "designs (0=naive executor, 2=compiled plan: "
                             "LUTs, fused MACs, per-tap convs, arena); "
                             "bit-identical at either level")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments and exit")
    args = parser.parse_args(argv)

    if args.list:
        for name in sorted(REGISTRY):
            print(name)
        return 0

    from repro.experiments.common import set_compile_level

    set_compile_level(args.compile_level)
    names = args.names or sorted(REGISTRY)
    for name in names:
        try:
            harness = get_experiment(name)
        except KeyError as exc:
            print(exc, file=sys.stderr)
            return 2
        t0 = time.time()
        result = harness(args.fast)
        print(result.render())
        _render_figures(result)
        print(f"  [{name} regenerated in {time.time() - t0:.1f}s]")
        print()
    return 0


def _render_figures(result) -> None:
    """Print ASCII figures for harnesses that produced plottable series."""
    from repro.experiments.figures import ascii_histogram, ascii_series

    series = result.series
    if "latencies_s" in series:
        print()
        print(ascii_histogram(series["latencies_s"], bins=14,
                              unit_scale=1e3, unit_label="ms",
                              title="latency distribution"))
    if "bits" in series and "MI" in series:
        print()
        print(ascii_series(series["bits"], series["MI"],
                           title="mean |Δ| vs total bits — MI",
                           x_label="bits", y_label="|Δ|"))
        print(ascii_series(series["bits"], series["RR"],
                           title="mean |Δ| vs total bits — RR",
                           x_label="bits", y_label="|Δ|"))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
