"""plant-bench — the pluggable-plant layer under its bit-identity gate.

Not a paper table: the paper's workload is the open-loop beam-loss
substrate.  This harness exercises the :mod:`repro.plants` interface on
the workload that stresses it hardest — the closed-loop cartpole, where
every published trip changes the next frame — and asserts the property
that makes plug-in plants trustworthy on this stack: **bit-exact
determinism across executors**.  The same seeded episode is driven

* on the naive sequential executor (the reference semantics),
* on the batched fast path,
* on the compiled fast path (level 2),
* on a 2-shard worker-pool farm, and
* on the same farm with a worker hard-killed mid-plan (chaos),

and every run must produce the identical :class:`FrameRecord` stream,
word for word — while the quantized MLP controller actually stabilises
the pole.  Any divergence (or a dropped pole on the reference
executor) raises — this harness is the CI smoke behind the
``cartpole_closedloop`` benchmark in ``tools/bench_report.py``.
"""

from __future__ import annotations

import time

from repro.core.api import RuntimeConfig, build_farm, run_control_loop
from repro.experiments.common import ExperimentResult
from repro.plants import CartpolePlant
from repro.utils.tables import Table

__all__ = ["run"]


def _quality_cells(c) -> list:
    """Table cells from a ControlQuality (or its merged dict form)."""
    if not isinstance(c, dict):
        from dataclasses import asdict

        c = asdict(c)
    return [
        "yes" if c.get("stabilized") else "NO",
        f"{c.get('trip_precision', float('nan')):.2f}/"
        f"{c.get('trip_recall', float('nan')):.2f}",
        f"{c.get('rms_state_error', float('nan')):.4f}",
    ]


def run(fast: bool = False) -> ExperimentResult:
    """Drive one cartpole episode every way; assert all ways agree."""
    plant = CartpolePlant()
    model = plant.default_model()
    n_frames = 60 if fast else 200
    seed = 3

    executors = [
        ("naive sequential", RuntimeConfig(batch_inference=False)),
        ("batched", RuntimeConfig(batch_inference=True)),
        ("compiled (level 2)",
         RuntimeConfig(batch_inference=True, compile_level=2)),
    ]

    t = Table(["Execution mode", "Identical", "Stabilised", "Trip P/R",
               "RMS theta", "Throughput (fps)"],
              title="Plant-bench: closed-loop cartpole determinism "
                    "+ control quality")
    divergent = []

    reference = None
    for label, config in executors:
        t0 = time.perf_counter()
        result = run_control_loop(model, n_frames=n_frames, seed=seed,
                                  config=config, plant=plant)
        fps = n_frames / (time.perf_counter() - t0)
        if reference is None:
            reference, same = result, True
        else:
            same = result.records == reference.records
        if not same:
            divergent.append(label)
        t.add_row([label, "yes" if same else "NO",
                   *_quality_cells(result.control), f"{fps:.0f}"])

    farm = build_farm(model,
                      config=RuntimeConfig(batch_inference=True,
                                           compile_level=2),
                      plant=plant, n_shards=2, seed=5)
    farm_ref = farm.serve_plant_reference(n_frames)
    farm_runs = [
        ("farm: 2-shard reference", farm_ref),
        ("farm: 2-worker pool", farm.serve_plant(n_frames, workers=2)),
        ("farm: 2-worker + shard-1 crash",
         farm.serve_plant(n_frames, workers=2, chaos_crash_shards=(1,))),
    ]
    for label, result in farm_runs:
        same = result.records == farm_ref.records
        if not same:
            divergent.append(label)
        t.add_row([label, "yes" if same else "NO",
                   *_quality_cells(result.health.control or {}),
                   f"{result.throughput_fps:.0f}"])

    control = reference.control
    chaos = farm_runs[-1][1]
    notes = [
        f"episode: {n_frames} frames, seed {seed}, 8 monitors over "
        f"2 hubs, hand-crafted quantized vote MLP "
        f"(deadband |u| > {plant.deadband:g})",
        "determinism contract: every executor tier and every farm run "
        "must reproduce the naive / sequential-reference FrameRecord "
        "stream bit for bit (docs/plants.md)",
        f"control quality (reference): stabilised in "
        f"{control.stabilization_time_s * 1e3:.0f} ms, trip "
        f"precision/recall {control.trip_precision:.2f}/"
        f"{control.trip_recall:.2f} vs the float control law, "
        f"RMS pole angle {control.rms_state_error:.4f} rad",
        f"chaos run: {chaos.health.worker_restarts} worker restart(s), "
        f"{chaos.health.requeued_tasks} requeued plant task(s), still "
        f"bit-identical",
        "farm sessions are per-shard (ordered within a shard), so the "
        "farm episode differs from the single-runtime episode by "
        "construction — identity is asserted per execution family",
    ]
    if divergent:
        raise AssertionError(
            f"closed-loop runs diverged from their reference: "
            f"{divergent}")
    if not control.stabilized:
        raise AssertionError(
            "the quantized controller failed to stabilise the pole on "
            "the reference executor")
    return ExperimentResult(name="plant-bench", table=t, notes=notes)
