"""replay-bench — bursty traffic replay through the serving daemon.

daemon-bench drives polite lock-step streams; real BLM traffic is
bursty — synchronized trains of frames at the digitizer period with
quiet gaps between them, many streams at once.  This harness replays
exactly that: a seeded on-off arrival schedule
(:func:`~repro.serve.replay.synth_schedule`) is pushed through the
daemon's own admission path offline
(:func:`~repro.serve.replay.simulate_admission` — real
:class:`~repro.serve.daemon.StreamIngress` objects, deterministic
service model), fixing every shed decision and batch boundary up
front, bit for bit.  The admitted frames then run through a live
daemon over real sockets (:func:`~repro.serve.daemon.drive_streams`)
and must reproduce :func:`~repro.serve.daemon.serve_streams_reference`
exactly, while the table reports what operators care about:
aggregate throughput, per-stream p50/p99 node latency (simulated
clock, the 3 ms budget's currency), and how much each stream shed.

Four checks raise: the simulation must be rerun-stable, it must shed
at least one frame (else the load no longer exercises admission
control), every admitted frame must reproduce the reference, and the
worst per-stream p99 node latency must hold the paper's 3 ms
machine-protection budget (``FRAME_PERIOD_S``).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.api import RuntimeConfig, start_daemon
from repro.experiments.common import ExperimentResult, bundle, converted
from repro.obs import ObsConfig
from repro.serve import BatchingPolicy, drive_streams, serve_streams_reference
from repro.serve.replay import (
    BurstModel,
    accepted_frames,
    simulate_admission,
    synth_schedule,
)
from repro.serve.workers import OUTPUT_COLUMNS, FarmSpec
from repro.soc.board import FRAME_PERIOD_S
from repro.utils.tables import Table

__all__ = ["run"]

_NODE_LAT = OUTPUT_COLUMNS.index("node_latency_s")


def run(fast: bool = False) -> ExperimentResult:
    """Replay 8 seeded bursty streams; assert identity, report sheds."""
    b = bundle()
    unet_hls = converted("Layer-based Precision ac_fixed<16, x>")
    n_streams = 8
    # 24 frames/stream is the floor at which every stream's bursts
    # overflow the queue bound (sheds on all 8 streams) — fast mode
    # must exercise the shedding path, not just the happy path.
    per_stream = 24 if fast else 48
    policy = BatchingPolicy(max_batch=8)
    config = RuntimeConfig(batch_inference=True)
    spec = FarmSpec(model=unet_hls, config=config,
                    obs=ObsConfig(flight_frames=32))

    schedule = synth_schedule(
        n_streams, per_stream, seed=11,
        model=BurstModel(burst_mean=24.0, gap_mean_s=0.012))
    sim = simulate_admission(schedule, batching=policy, queue_limit=6,
                             workers=2, service_per_frame_s=1.2e-3)
    # Determinism is the headline claim: the same seed must fix the
    # same arrivals and the same shed decisions, run after run.
    again = simulate_admission(
        synth_schedule(n_streams, per_stream, seed=11,
                       model=BurstModel(burst_mean=24.0,
                                        gap_mean_s=0.012)),
        batching=policy, queue_limit=6, workers=2,
        service_per_frame_s=1.2e-3)
    if sim.signature() != again.signature():
        raise AssertionError("replay simulation is not deterministic "
                             "under a fixed seed")
    if sim.total_shed == 0:
        raise AssertionError(
            "bursty replay shed nothing — the load no longer exercises "
            "admission control (retune the burst model)")

    x = b.dataset.x_eval
    stream_frames = [x[s * per_stream:(s + 1) * per_stream]
                     for s in range(n_streams)]
    admitted = accepted_frames(sim, stream_frames)
    reference = serve_streams_reference(spec, admitted, batching=policy,
                                        seed=7, arrival_mode="backlog")

    # The queue bound admits everything the simulation admitted: the
    # shed decisions were made offline, and a second, racy shed on the
    # live daemon would break the contract.
    handle = start_daemon(unet_hls, config=config,
                          obs=ObsConfig(flight_frames=32),
                          workers=4, batching=policy, seed=7,
                          queue_limit=4096, arrival_mode="backlog")
    with handle:
        rows, shed, wall_s = drive_streams(handle, admitted, timeout_s=300.0)
    live_shed = {s: seqs for s, seqs in shed.items() if seqs}
    if live_shed:
        raise AssertionError(f"the daemon shed frames the simulation "
                             f"admitted: {live_shed}")

    def node_ms(s: int, q: float) -> float:
        lat = rows[s][:, _NODE_LAT]
        return float(np.percentile(lat, q) * 1e3) if len(lat) else 0.0

    worst_p99_ms = max(node_ms(s, 99) for s in rows)
    divergent: List[str] = []
    t = Table(["Stream", "Offered", "Accepted", "Shed",
               "p50 node (ms)", "p99 node (ms)"],
              title=f"Replay-bench: {n_streams} seeded bursty streams "
                    f"through the serving daemon")
    for s, ssim in enumerate(sim.streams):
        if not np.array_equal(rows[s], reference[s].rows):
            divergent.append(f"stream {s}")
        t.add_row([str(s), str(ssim.offered), str(len(ssim.accepted)),
                   str(len(ssim.shed)), f"{node_ms(s, 50):.3f}",
                   f"{node_ms(s, 99):.3f}"])
    t.add_row(["total", str(sim.total_offered),
               str(sim.total_accepted), str(sim.total_shed),
               "", f"{worst_p99_ms:.3f}"])
    if divergent:
        raise AssertionError("replay rows diverged from the sequential "
                             "reference: " + ", ".join(divergent))
    if worst_p99_ms > FRAME_PERIOD_S * 1e3:
        raise AssertionError(
            f"bursty replay p99 node latency {worst_p99_ms:.3f} ms breaks "
            f"the {FRAME_PERIOD_S * 1e3:.1f} ms machine-protection budget")

    notes = [
        f"aggregate throughput {sim.total_accepted / wall_s:.0f} fps "
        f"over {sim.total_accepted} admitted frames ({wall_s:.2f} s wall)",
        "shed decisions and batch boundaries are fixed offline by the "
        "deterministic admission simulation (same seed, same sheds); "
        "the live run reproduces the sequential reference bit-exactly",
        f"worst per-stream p99 node latency {worst_p99_ms:.3f} ms "
        f"(simulated clock) within the "
        f"{FRAME_PERIOD_S * 1e3:.0f} ms machine-protection budget",
    ]
    return ExperimentResult(name="replay-bench", table=t, notes=notes)
