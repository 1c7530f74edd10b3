"""daemon-bench — the persistent serving daemon under sustained load.

The serve-bench harness proves the sharded farm deterministic for one
pre-planned frame block; this harness proves the same property for the
**daemon** (:mod:`repro.serve.daemon`), where frames arrive one at a
time over sockets, streams interleave arbitrarily, and the worker pool
is persistent and warm.  Four concurrent client streams are driven
from a single thread through the real TCP front (``repro-serve/1``
protocol), twice:

* **round 1 (cold)** — ``start_daemon`` (which spawns the workers)
  plus the first batches, which pay replica conversion/compile,
  inside the measurement window: exactly what a one-shot ``serve()``
  call pays every time;
* **round 2 (steady-state)** — the same load on the now-warm pool
  (live workers, cached replica template), the daemon's reason to
  exist.

Every result row of every stream must be bit-identical to
:func:`~repro.serve.daemon.serve_streams_reference` — the sequential
one-replica-per-stream reference — and any divergence raises.  The
table also reports admission-control sheds, worker restarts, and the
p99 *simulated* node latency (the quantity the paper's 3 ms machine-
protection budget constrains; the hard SLO gate lives in
``tools/bench_report.py``).
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import numpy as np

from repro.core.api import RuntimeConfig, start_daemon
from repro.experiments.common import ExperimentResult, bundle, converted
from repro.obs import ObsConfig
from repro.serve import BatchingPolicy, serve_streams_reference
from repro.serve.workers import OUTPUT_COLUMNS, FarmSpec
from repro.utils.tables import Table

__all__ = ["run"]

_NODE_LAT = OUTPUT_COLUMNS.index("node_latency_s")


def _drive_round(handle, stream_frames: Dict[int, np.ndarray],
                 timeout_s: float = 600.0) -> Tuple[Dict[int, np.ndarray],
                                                    int, float]:
    """Interleave all streams' frames over live sockets; gather rows.

    Returns ``(rows by stream, frames shed, wall seconds)``.  Single
    threaded on purpose: the interleaving is adversarial for the
    daemon (every stream advances in lock-step) yet reproducible.
    """
    t0 = time.perf_counter()
    clients = {sid: handle.client(stream_id=sid) for sid in stream_frames}
    try:
        longest = max(f.shape[0] for f in stream_frames.values())
        for i in range(longest):
            for sid, frames in stream_frames.items():
                if i < frames.shape[0]:
                    clients[sid].send(frames[i])
                clients[sid].pump()
        rows: Dict[int, np.ndarray] = {}
        shed = 0
        for sid, c in clients.items():
            c.finish(timeout_s=timeout_s)
            shed += len(c.shed)
            n = stream_frames[sid].shape[0]
            got = np.full((n, len(OUTPUT_COLUMNS)), np.nan)
            for seq, row in c.results.items():
                got[seq, :] = row
            rows[sid] = got
    finally:
        for c in clients.values():
            c.close()
    return rows, shed, time.perf_counter() - t0


def run(fast: bool = False) -> ExperimentResult:
    """Serve 4 interleaved TCP streams, cold then warm; assert identity."""
    b = bundle()
    unet_hls = converted("Layer-based Precision ac_fixed<16, x>")
    per_stream = 10 if fast else 40
    n_streams = 4
    x = b.dataset.x_eval
    policy = BatchingPolicy(max_batch=8)
    config = RuntimeConfig(batch_inference=True)
    spec = FarmSpec(model=unet_hls, config=config,
                    obs=ObsConfig(flight_frames=32))

    def frames_for(sids) -> Dict[int, np.ndarray]:
        return {sid: x[(sid % n_streams) * per_stream:
                       (sid % n_streams + 1) * per_stream]
                for sid in sids}

    round1 = frames_for(range(n_streams))
    round2 = frames_for(range(n_streams, 2 * n_streams))
    reference = serve_streams_reference(
        spec, {**round1, **round2}, batching=policy, seed=7)

    t0 = time.perf_counter()
    handle = start_daemon(unet_hls, config=config,
                          obs=ObsConfig(flight_frames=32),
                          workers=n_streams, batching=policy, seed=7)
    spawn_s = time.perf_counter() - t0
    with handle:
        rows1, shed1, wall1 = _drive_round(handle, round1)
        wall1 += spawn_s
        rows2, shed2, wall2 = _drive_round(handle, round2)
        report = handle.drain()

    n_round = n_streams * per_stream
    rounds = [("round 1 (cold: spawn + replica build)", rows1, shed1, wall1),
              ("round 2 (steady state, warm pool)", rows2, shed2, wall2)]
    t = Table(["Load round", "Identical", "Shed", "p99 node lat (ms)",
               "Throughput (fps)"],
              title="Daemon-bench: persistent serving front under "
                    "4 interleaved TCP streams")
    divergent: List[str] = []
    p99s = []
    for label, rows, shed, wall in rounds:
        same = all(np.array_equal(rows[sid], reference[sid].rows)
                   for sid in rows)
        if not same:
            divergent.append(label)
        lat = np.concatenate([rows[sid][:, _NODE_LAT] for sid in rows])
        p99 = float(np.percentile(lat, 99) * 1e3)
        p99s.append(p99)
        t.add_row([label, "yes" if same else "NO", shed,
                   f"{p99:.3f}", f"{n_round / wall:.0f}"])

    speedup = wall1 / wall2 if wall2 > 0 else float("inf")
    obs = report.obs or {}
    notes = [
        f"{n_streams} concurrent streams x {per_stream} frames/round, "
        f"interleaved frame-by-frame from one thread over TCP "
        f"(stream arrivals, max_batch={policy.max_batch})",
        "determinism contract: every stream's result rows equal "
        "serve_streams_reference (one persistent replica per stream) "
        "bit for bit — docs/serving.md, daemon section",
        f"steady-state vs cold speedup: {speedup:.1f}x "
        f"({wall1:.2f}s -> {wall2:.2f}s for {n_round} frames)",
        f"epoch report: {report.frames_total} frames over "
        f"{report.streams} streams, {report.batches} micro-batches, "
        f"{report.frames_shed} shed, "
        f"{report.worker_restarts} worker restart(s)",
        f"p99 simulated node latency: {max(p99s):.3f} ms against the "
        f"paper's 3 ms machine-protection budget "
        f"(hard gate: daemon_slo in tools/bench_report.py)",
        f"merged obs export: format "
        f"{obs.get('meta', {}).get('format')!r}, "
        f"{obs.get('meta', {}).get('merged_shards')} stream snapshots",
    ]
    if divergent:
        raise AssertionError(
            f"daemon rounds diverged from the sequential per-stream "
            f"reference: {divergent}")
    if report.frames_total != 2 * n_round:
        raise AssertionError(
            f"drain lost frames: {report.frames_total} != {2 * n_round}")
    return ExperimentResult(name="daemon-bench", table=t, notes=notes)
