"""Benchmark command: one run of one workload, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload unet_loop --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` installs
the per-layer ledger and reports the per-layer metrics instead.  Every
metric is printed by name with its unit, then the last line is the
result object.  The exit code is non-zero when a correctness gate fails.
See perfbench/README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

WORKLOADS = ("unet_loop", "cartpole_ticks", "serve_inflight", "serve_paced")

#: Workloads the command runs but BENCHMARK.json leaves out, and why.
DROPPED = {
    "serve_paced": (
        "operations fail and timings do not hold still: at the paper's "
        "rate the daemon shed 8-53 % of frames over 5 seeds of 10 s on a "
        "2-vCPU host, and IQR/median was 0.84 for latency_p50_ms, 0.63 "
        "for latency_p99_ms and 0.37 for fps (perfbench/README.md); "
        "serve_inflight gates the same daemon"),
}

#: Units of printed metrics that BENCHMARK.json does not list.
EXTRA_UNITS = {
    "latency_p99_ms": "ms",
    "fail_frac": "ratio",
    "deadline_met_frac": "ratio",
    "serve.gen_late_ms_p50": "ms",
    "serve.gen_late_ms_p99": "ms",
}


def _units(spec: dict) -> dict:
    units = dict(EXTRA_UNITS)
    for group in ("end_to_end", "per_layer"):
        units.update({e["name"]: e["unit"] for e in spec[group]})
    return units


def _emit(result, spec: dict, trace: bool) -> dict:
    """Print every metric with its unit; return the result object."""
    units = _units(spec)

    def unit(name):
        # A compiled-plan step this file does not list yet.
        return units.get(name, "us" if name.startswith("hls.step.") else "?")

    for name, value in sorted(result.end_to_end.items()):
        print(f"end_to_end {name} = {value:.6g} {unit(name)}")
    for name, value in sorted(result.per_layer.items()):
        print(f"per_layer {name} = {value:.6g} {unit(name)}")
    for name, reason in sorted(result.unmeasured.items()):
        print(f"unmeasured {name}: {reason}")
    for reason in result.divergences:
        print(f"DIVERGED: {reason}")
    listed = spec["per_layer" if trace else "end_to_end"]
    measured = result.per_layer if trace else result.end_to_end
    metrics, absent = {}, []
    for entry in listed:
        name = entry["name"]
        if name not in measured and name not in result.unmeasured:
            absent.append(name)
        metrics[name] = {"value": float(measured.get(name, 0.0)),
                         "unit": entry["unit"]}
    if absent:
        print("not run on this workload (reported as 0): "
              + ", ".join(absent))
    return {"correct": result.correct, "attempted": int(result.attempted),
            "failed": int(result.failed), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true",
                        help="list the workloads and exit")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.list:
        for entry in spec["workloads"]:
            print(f"{entry['name']}: {entry['why']}")
        for name, why in DROPPED.items():
            print(f"{name} (not in BENCHMARK.json): {why}")
        return 0
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    from perfbench.procs import adopt_orphans, stop_all

    adopt_orphans()
    try:
        out = _measure(args, spec)
    finally:
        stop_all()
    print(json.dumps(out), flush=True)
    return 0 if out["correct"] else 1


def _measure(args, spec: dict) -> dict:
    from perfbench.program import import_program

    import_program()
    from perfbench.envinfo import environment

    module = importlib.import_module(f"perfbench.{args.workload}")
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    if args.workload in DROPPED:
        print(f"note: {args.workload} is not in BENCHMARK.json: "
              f"{DROPPED[args.workload]}")
    result = module.run(args.seed, args.seconds, bool(args.trace), T_START)
    print("context " + json.dumps(result.info, sort_keys=True, default=str))
    return _emit(result, spec, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
