"""Turning recorded spans into paper-style latency statistics.

The paper's headline table quotes per-stage and end-to-end latencies
(1.74 ms average U-Net system latency, 0.31 ms MLP, 575 fps).  These
helpers aggregate a :class:`~repro.obs.spans.Tracer`'s recorded spans —
the simulated-clock intervals the board emitted while the loop ran —
into exactly those numbers, so ``repro-experiments obs-report`` can
print the table from a live run instead of recomputing closed forms.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.obs.spans import Tracer

__all__ = [
    "BOARD_STAGES",
    "stage_summary",
    "per_frame_stage_sums",
    "node_latencies_s",
]

#: The board's step 1–8 stage spans, in pipeline order (names match the
#: :class:`~repro.soc.board.FrameTiming` fields).
BOARD_STAGES = ("preprocess", "write_input", "trigger", "ip_compute",
                "irq", "read_output", "postprocess", "jitter")


def _stats(samples: Dict[str, Sequence[float]]
           ) -> Dict[str, Dict[str, float]]:
    """count / mean / p50 / p90 / p99 / max of every sample list.

    Lists of equal length share one row-wise percentile call: each row is
    reduced exactly as a one-dimensional call would reduce it, and a
    snapshot summarises a dozen stages of one sample per frame each.
    """
    by_count: Dict[int, List[str]] = {}
    for name, durations in samples.items():
        by_count.setdefault(len(durations), []).append(name)
    out: Dict[str, Dict[str, float]] = {}
    for count, names in by_count.items():
        if count == 0:
            out.update((name, {"count": 0, "mean_s": 0.0, "p50_s": 0.0,
                               "p90_s": 0.0, "p99_s": 0.0, "max_s": 0.0})
                       for name in names)
            continue
        arr = np.array([samples[name] for name in names], dtype=np.float64)
        p50, p90, p99 = np.percentile(arr, (50, 90, 99), axis=1)
        mean, top = arr.mean(axis=1), arr.max(axis=1)
        for i, name in enumerate(names):
            out[name] = {"count": count, "mean_s": float(mean[i]),
                         "p50_s": float(p50[i]), "p90_s": float(p90[i]),
                         "p99_s": float(p99[i]), "max_s": float(top[i])}
    return out


def stage_summary(tracer: Tracer, names: Optional[Sequence[str]] = None,
                  clock: str = "sim") -> Dict[str, Dict[str, float]]:
    """Per-span-name latency statistics (exact percentiles over the
    recorded spans; unlike the fixed-bucket histograms these hold the
    full per-run sample in hand).  One pass over the span store, however
    many names are summarised."""
    durations = tracer.durations_by_name(clock)
    if names is None:
        names = sorted(durations)
    stats = _stats({name: durations.get(name, ()) for name in names})
    return {name: stats[name] for name in names}


def per_frame_stage_sums(tracer: Tracer,
                         stages: Sequence[str] = BOARD_STAGES
                         ) -> Dict[int, float]:
    """Frame index → summed simulated duration of the given stage spans.

    One pass over the span store; frames missing every stage (hung
    before the pipeline started) are absent from the result.
    """
    wanted = frozenset(stages)
    sums: Dict[int, float] = {}
    for s in tracer.spans():
        if s.name in wanted and s.frame is not None:
            d = s.sim_duration_s
            if d is not None:
                sums[s.frame] = sums.get(s.frame, 0.0) + d
    return sums


def node_latencies_s(tracer: Tracer,
                     stages: Sequence[str] = BOARD_STAGES) -> np.ndarray:
    """Per-frame node latency (steps 1–8) reconstructed from the stage
    spans, in frame order — the distribution behind the paper's average
    system latency and fps figures."""
    sums = per_frame_stage_sums(tracer, stages)
    return np.array([sums[f] for f in sorted(sums)])
