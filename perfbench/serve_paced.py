"""``serve_paced``: the U-Net design behind the serving daemon, open loop.

The daemon runs in its own process (see :mod:`perfbench.serving`).  This
process is the load generator: one thread, two ``StreamClient``
connections.  Each stream sends a seeded eval frame every 6 ms on a
wall-clock grid, the two grids offset by 3 ms, so the daemon receives
the paper's one frame per 3 ms.  Every frame is timed from its due time
to the moment its result row reaches the client, so a stall is charged
to every frame it delays.

Nothing here pins BLAS threads, lowers the rate or cuts workers: the
daemon sheds frames under this load on some runs and not on others, and
the benchmark reports that as it is.  It is left out of BENCHMARK.json
for that reason; ``serve_inflight`` gates the same daemon instead.
"""

from __future__ import annotations

from time import perf_counter
from typing import List

import numpy as np

from perfbench.common import (
    Result,
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

STREAMS = 2
#: Per-stream send period and the offset between the two grids (s).
PERIOD_S = 0.006
OFFSET_S = 0.003
#: A result within this long of its due time meets the deadline (s).
DEADLINE_S = 0.003
#: Delay between the first send and the grid's first due time (s).
LEAD_S = 0.05


def _paced(address, frames: List[np.ndarray], ledger=None) -> dict:
    """Send every stream's frames on its grid; time each from its due."""
    from repro.serve import StreamClient

    n = len(frames[0])
    streams = Streams(address, range(STREAMS))
    if ledger is not None:
        ledger.install(StreamClient, "send", "serve.client.send", items=one)
    late = []
    try:
        t0 = perf_counter() + LEAD_S
        for j in range(n):
            for k, client in enumerate(streams.clients):
                due = t0 + k * OFFSET_S + j * PERIOD_S
                now = streams.wait_until(due)
                client.send(frames[k][j], seq=j)
                late.append(now - due)
        streams.settle(SETTLE_TIMEOUT_S)
    finally:
        if ledger is not None:
            ledger.restore()
        streams.close()
    return {
        "t0": t0,
        "late_s": late,
        "arrived": streams.arrived,
        "results": [c.results for c in streams.clients],
        "shed": [set(c.shed) for c in streams.clients],
    }


def _due(phase: dict, k: int, j: int) -> float:
    return phase["t0"] + k * OFFSET_S + j * PERIOD_S


def _phase_metrics(phase: dict, gate_out: dict, n: int) -> dict:
    sent = len(phase["late_s"])
    latencies, last = [], phase["t0"]
    for k in range(STREAMS):
        for j, t in phase["arrived"][k].items():
            latencies.append(t - _due(phase, k, j))
            last = max(last, t)
    shed = sum(len(s) for s in phase["shed"])
    met = sum(lat <= DEADLINE_S for lat in latencies)
    return {
        "sent": sent,
        "completed": len(latencies),
        "shed": shed,
        "failed": shed + gate_out["missing"] + gate_out["diverged"],
        "fps": len(latencies) / (last - phase["t0"]),
        "latency_p50_ms": pct_ms(latencies, 50),
        "latency_p90_ms": pct_ms(latencies, 90),
        "latency_p99_ms": pct_ms(latencies, 99),
        "latency_samples": len(latencies),
        "deadline_met_frac": met / sent,
        "sim_node_p99_ms": node_p99_ms(phase["results"], n),
        "latencies_s": latencies,
    }


def _traced_layers(report, phase: dict, gate_out: dict, ledger: Ledger,
                   metrics: dict) -> dict:
    out = serve_layers(report, ledger)
    out["serve.gen_late_ms_p50"] = pct_ms(phase["late_s"], 50)
    out["serve.gen_late_ms_p99"] = pct_ms(phase["late_s"], 99)
    holds = [h for k in range(STREAMS) for h in ingress_holds_s(
        gate_out, k, lambda j, k=k: _due(phase, k, j))]
    out["serve.ingress_hold_ms_mean"] = (
        float(np.mean(holds)) * 1e3 if holds else 0.0)
    # Share of summed frame latency no measured layer covers: generator
    # lateness, client send, ingress hold and worker compute.
    covered = (sum(phase["late_s"])
               + ledger.inclusive.get("serve.client.send", 0.0)
               + sum(holds)
               + out["serve.worker.us_per_frame"] * 1e-6
               * metrics["completed"])
    out["unattributed_frac"] = 1.0 - covered / sum(metrics["latencies_s"])
    return out


def run(seed: int, seconds: float, trace: bool, t_start: float) -> Result:
    from repro.pretrained.bundle import reference_dataset

    import_s = perf_counter() - t_start
    res = Result()
    daemon_seed = program_seed(seed)
    with DaemonHost(daemon_seed) as host:
        x = reference_dataset().x_eval
        phases = [False, True] if trace else [False]
        per_stream = int(seconds / len(phases) / PERIOD_S)
        rng = workload_rng(seed, 1)
        frames = [[x[rng.integers(0, len(x), per_stream)]
                   for _ in range(STREAMS)] for _ in phases]

        t_ready = host.wait_ready(x[0])
        t_warm = perf_counter()
        res.end_to_end["setup_s"] = t_warm - t_start
        res.info["setup_import_s"] = import_s

        outcomes = []
        for traced, block in zip(phases, frames):
            ledger = None
            if traced:
                host.trace(x[0])
                ledger = Ledger()
            phase = _paced(host.address, block, ledger)
            outcomes.append((phase, host.drain(), ledger))
        generator_rss = self_peak_rss_mib()
        daemon_rss = host.stop()
    res.end_to_end["peak_rss_mib"] = generator_rss + daemon_rss

    spec = host.spec()
    measured = []
    for (phase, report, ledger), block in zip(outcomes, frames):
        gate_out = gate(block, phase["results"], phase["shed"], spec,
                        daemon_seed)
        metrics = _phase_metrics(phase, gate_out, per_stream)
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
                "deadline_met_frac", "sim_node_p99_ms"):
        res.end_to_end[key] = plain[key]
    res.end_to_end["fail_frac"] = res.failed / res.attempted
    res.info.update({k: plain[k] for k in ("sent", "completed", "shed",
                                            "latency_samples")})
    res.info["latency_basis"] = "due time to result row at the client"
    late = outcomes[0][0]["late_s"]
    res.info["gen_late_samples"] = len(late)
    res.info["gen_late_ms_p50"] = pct_ms(late, 50)
    res.info["gen_late_ms_p99"] = pct_ms(late, 99)
    if trace:
        res.per_layer["trace_overhead"] = (measured[1]["latency_p50_ms"]
                                           / plain["latency_p50_ms"])
        res.per_layer.update(host.setup_layers(t_ready, t_warm))
        res.unmeasured.update(unmeasured_layers())
    return res
