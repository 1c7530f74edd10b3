"""``serve_inflight``: the serving daemon under a closed-loop load.

The daemon is the one ``serve_paced`` drives (see
:mod:`perfbench.serving`): the U-Net design at compile level 2 behind
``repro.start_daemon`` with two workers, the default ``BatchingPolicy``
and stream arrivals, in its own process.  The generator holds one
``StreamClient`` connection and keeps ``WINDOW`` frames of it
unanswered: each result row that comes back releases the stream's next
seeded eval frame.  The load follows the daemon's speed, so nothing is
shed, and fps and latency measure the protocol, the ingress, the pool
and a worker.

Four is the smallest window that gives every frame the same path.  The
ingress closes a pair of frames only when the frame after it arrives,
and a stream has one batch at a worker at a time.  With four frames out
there is always one pair at the worker and the next pair waiting for the
frame that closes it, so every frame waits one pair's service time,
then takes one.  With three, every other frame skips the wait, and the
median falls between the two halves.

One stream, not two: with two streams both workers compute at once, and
the run falls into a fast or a slow mode (about 300 or 100 frames/s on
a 2-vCPU host, see README.md), the same BLAS-thread contention that
makes ``serve_paced`` unsteady.
"""

from __future__ import annotations

from time import perf_counter
from typing import List

import numpy as np

from perfbench.common import (
    Result,
    median,
    pct_ms,
    program_seed,
    self_peak_rss_mib,
    workload_rng,
)
from perfbench.ledger import Ledger, one
from perfbench.serving import (
    SETTLE_TIMEOUT_S,
    DaemonHost,
    Streams,
    gate,
    ingress_holds_s,
    node_p99_ms,
    serve_layers,
    unmeasured_layers,
)

#: Client streams; see the module docstring for why one.
STREAMS = 1
#: Unanswered frames each stream keeps at the daemon.
WINDOW = 4
#: Length of one timing window (s); metrics are medians over windows.
WINDOW_S = 1.0
#: Frames per stream whose records give ``sim_node_p99_ms``: a fixed
#: count, so the figure depends on the seed alone.
SIM_FRAMES = 200
#: Frame indices drawn per refill of a stream's seeded order.
ORDER_CHUNK = 1024


class _Order:
    """A stream's seeded sequence of eval-frame indices, drawn on demand
    from a generator of its own, so the frame a sequence number gets
    does not depend on how fast the daemon answers."""

    def __init__(self, rng: np.random.Generator, n_frames: int):
        self.rng = rng
        self.n_frames = n_frames
        self.idx: List[int] = []

    def __getitem__(self, j: int) -> int:
        while j >= len(self.idx):
            self.idx.extend(
                self.rng.integers(0, self.n_frames, ORDER_CHUNK).tolist())
        return self.idx[j]


def _closed_loop(address, x, orders, seconds: float, ledger=None) -> dict:
    """Keep ``WINDOW`` frames out per stream for *seconds*, then settle."""
    from repro.serve import StreamClient

    streams = Streams(address, range(STREAMS))
    sent: List[List[float]] = [[] for _ in range(STREAMS)]

    def top_up(k: int) -> None:
        client = streams.clients[k]
        answered = len(streams.arrived[k]) + len(client.shed)
        while len(sent[k]) - answered < WINDOW:
            j = len(sent[k])
            sent[k].append(perf_counter())
            client.send(x[orders[k][j]], seq=j)

    if ledger is not None:
        ledger.install(StreamClient, "send", "serve.client.send", items=one)
    try:
        start = perf_counter()
        end = start + seconds
        for k in range(STREAMS):
            top_up(k)
        while True:
            now = perf_counter()
            if now >= end:
                break
            for k in streams.wait(end - now):
                top_up(k)
        streams.settle(SETTLE_TIMEOUT_S)
    finally:
        if ledger is not None:
            ledger.restore()
        streams.close()
    return {
        "start": start,
        "end": end,
        "sent": sent,
        "arrived": streams.arrived,
        "results": [c.results for c in streams.clients],
        "shed": [set(c.shed) for c in streams.clients],
    }


def _phase_metrics(phase: dict, gate_out: dict) -> dict:
    """Windowed fps and latency over the timed span, and the accounting."""
    n_windows = max(1, int((phase["end"] - phase["start"]) / WINDOW_S))
    windows = [[] for _ in range(n_windows)]
    latencies = []
    for k in range(STREAMS):
        for j, t in phase["arrived"][k].items():
            latency = t - phase["sent"][k][j]
            latencies.append(latency)
            w = int((t - phase["start"]) / WINDOW_S)
            if w < n_windows:
                windows[w].append(latency)
    timed = [w for w in windows if w]
    shed = sum(len(s) for s in phase["shed"])
    return {
        "sent": sum(len(s) for s in phase["sent"]),
        "completed": len(latencies),
        "failed": shed + gate_out["missing"] + gate_out["diverged"],
        "fps": median([len(w) / WINDOW_S for w in windows]),
        "latency_p50_ms": median([pct_ms(w, 50) for w in timed]),
        "latency_p90_ms": median([pct_ms(w, 90) for w in timed]),
        # A 1 s window holds a few hundred frames, too few for its own
        # p99, so this one is over the whole timed span.
        "latency_p99_ms": pct_ms([v for w in windows for v in w], 99),
        "latency_samples": sum(len(w) for w in windows),
        "windows": n_windows,
        "latency_p50_ms_pooled": pct_ms(latencies, 50),
        "sim_node_p99_ms": node_p99_ms(phase["results"], SIM_FRAMES),
        "latencies_s": latencies,
    }


def _traced_layers(report, phase: dict, gate_out: dict, ledger: Ledger,
                   metrics: dict) -> dict:
    out = serve_layers(report, ledger)
    holds = [h for k in range(STREAMS) for h in ingress_holds_s(
        gate_out, k, lambda j, k=k: phase["sent"][k][j])]
    out["serve.ingress_hold_ms_mean"] = (
        float(np.mean(holds)) * 1e3 if holds else 0.0)
    # Share of summed frame latency no measured layer covers: client
    # send, ingress hold and worker compute.
    covered = (ledger.inclusive.get("serve.client.send", 0.0) + sum(holds)
               + out["serve.worker.us_per_frame"] * 1e-6
               * metrics["completed"])
    out["unattributed_frac"] = 1.0 - covered / sum(metrics["latencies_s"])
    return out


def run(seed: int, seconds: float, trace: bool, t_start: float) -> Result:
    from repro.pretrained.bundle import reference_dataset

    import_s = perf_counter() - t_start
    res = Result()
    daemon_seed = program_seed(seed)
    x = reference_dataset().x_eval
    phases = [False, True] if trace else [False]
    span = seconds / len(phases)
    with DaemonHost(daemon_seed) as host:
        t_ready = host.wait_ready(x[0])
        t_warm = perf_counter()
        res.end_to_end["setup_s"] = t_warm - t_start
        res.info["setup_import_s"] = import_s

        outcomes = []
        for n, traced in enumerate(phases):
            ledger = None
            if traced:
                host.trace(x[0])
                ledger = Ledger()
            orders = [_Order(workload_rng(seed, 1 + STREAMS * n + k), len(x))
                      for k in range(STREAMS)]
            phase = _closed_loop(host.address, x, orders, span, ledger)
            frames = [x[[orders[k][j] for j in range(len(phase["sent"][k]))]]
                      for k in range(STREAMS)]
            outcomes.append((phase, frames, host.drain(), ledger))
        generator_rss = self_peak_rss_mib()
        daemon_rss = host.stop()
    res.end_to_end["peak_rss_mib"] = generator_rss + daemon_rss

    spec = host.spec()
    measured = []
    for phase, frames, report, ledger in outcomes:
        gate_out = gate(frames, phase["results"], phase["shed"], spec,
                        daemon_seed)
        metrics = _phase_metrics(phase, gate_out)
        measured.append(metrics)
        res.attempted += metrics["sent"]
        res.failed += metrics["failed"]
        if gate_out["diverged"]:
            res.divergences.append(
                f"{gate_out['diverged']} result rows differ from "
                f"serve_streams_reference")
        if ledger is not None:
            res.per_layer.update(_traced_layers(report, phase, gate_out,
                                                ledger, metrics))
    plain = measured[0]
    for key in ("fps", "latency_p50_ms", "latency_p90_ms", "latency_p99_ms",
                "sim_node_p99_ms"):
        res.end_to_end[key] = plain[key]
    res.end_to_end["fail_frac"] = res.failed / res.attempted
    res.info.update({k: plain[k] for k in (
        "sent", "completed", "latency_samples", "windows",
        "latency_p50_ms_pooled")})
    res.info["latency_basis"] = "send to result row at the client"
    if trace:
        res.per_layer["trace_overhead"] = (measured[1]["latency_p50_ms"]
                                           / plain["latency_p50_ms"])
        res.per_layer.update(host.setup_layers(t_ready, t_warm))
        res.unmeasured.update(unmeasured_layers())
    return res
