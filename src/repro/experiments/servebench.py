"""serve-bench — the sharded serving front-end under its determinism gate.

Not a paper table: the paper deploys one central node.  This harness
exercises the scale-out path (:mod:`repro.serve`) the deployment sketch
implies — N runtime replicas over round-robin BLM stream shards, a
deadline-aware micro-batch scheduler, and a spawn-based worker pool —
and asserts the property that makes the farm trustworthy for machine
protection: **bit-exact determinism**.  The same frame block is served

* sequentially in-process (the reference semantics),
* on a 1-worker pool,
* on a 4-worker pool, and
* on a pool whose first worker is hard-killed mid-plan (chaos),

and every run must produce the identical :class:`FrameRecord` stream,
word for word.  Any divergence raises — this harness is the CI smoke
for the ``farm_serve`` entry of ``tools/bench_report.py``, which
aborts when its 4-worker pool diverges from the reference.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.api import RuntimeConfig, build_farm, build_runtime
from repro.experiments.common import ExperimentResult, bundle, converted
from repro.obs import ObsConfig
from repro.serve import BatchingPolicy
from repro.utils.tables import Table

__all__ = ["run"]


def _identical(reference, result) -> bool:
    """Full-stream bit identity: records and output rows."""
    return (reference.records == result.records
            and np.array_equal(reference.outputs, result.outputs))


def run(fast: bool = False) -> ExperimentResult:
    """Serve one frame block every way; assert all ways agree exactly."""
    b = bundle()
    unet_hls = converted("Layer-based Precision ac_fixed<16, x>")
    n_frames = 48 if fast else 160
    frames = b.dataset.x_eval[:n_frames]

    farm = build_farm(
        unet_hls,
        config=RuntimeConfig(batch_inference=True),
        obs=ObsConfig(flight_frames=32),
        n_shards=4,
        batching=BatchingPolicy(max_batch=8),
        seed=7,
        arrival_mode="backlog",
    )

    reference = farm.serve_reference(frames)
    runs = [
        ("sequential reference", reference),
        ("1-worker pool", farm.serve(frames, workers=1)),
        ("4-worker pool", farm.serve(frames, workers=4)),
        ("4-worker pool + shard-1 crash",
         farm.serve(frames, workers=4, chaos_crash_shards=(1,))),
    ]

    # Single-runtime baseline for the throughput column.
    runtime = build_runtime(unet_hls,
                            config=RuntimeConfig(batch_inference=True))
    t0 = time.perf_counter()
    runtime.run(frames, seed=99)
    base_fps = n_frames / (time.perf_counter() - t0)

    t = Table(["Serving mode", "Identical", "Restarts", "Requeued",
               "Throughput (fps)"],
              title="Serve-bench: sharded farm determinism + throughput")
    divergent = []
    for label, result in runs:
        same = _identical(reference, result)
        if not same:
            divergent.append(label)
        t.add_row([label, "yes" if same else "NO",
                   result.health.worker_restarts,
                   result.health.requeued_tasks,
                   f"{result.throughput_fps:.0f}"])
    t.add_row(["single runtime (no farm)", "-", "-", "-",
               f"{base_fps:.0f}"])

    chaos = runs[-1][1]
    obs = reference.obs or {}
    notes = [
        f"frames: {n_frames} over {farm.n_shards} shards, "
        f"{reference.plan.n_batches} micro-batches (backlog arrivals, "
        f"max_batch={farm.batching.max_batch})",
        "determinism contract: every mode's FrameRecord stream and "
        "output block must equal the sequential reference "
        "bit for bit (docs/serving.md)",
        f"chaos run: {chaos.health.worker_restarts} worker restart(s), "
        f"{chaos.health.requeued_tasks} requeued shard task(s), still "
        f"bit-identical",
        f"merged obs export: format "
        f"{obs.get('meta', {}).get('format')!r}, "
        f"{obs.get('meta', {}).get('merged_shards')} shard snapshots, "
        f"frames.total={obs.get('metrics', {}).get('counters', {}).get('frames.total')}",
        "pool throughput includes replica build + spawn startup; at "
        "benchmark scale see serve_pool4 in tools/bench_report.py",
    ]
    if divergent:
        raise AssertionError(
            f"farm runs diverged from the sequential reference: "
            f"{divergent}")
    return ExperimentResult(name="serve-bench", table=t, notes=notes)
