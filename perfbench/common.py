"""Shared pieces of the workloads: results, percentiles, memory, seeds."""

from __future__ import annotations

import resource
import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

import numpy as np


@dataclass
class Result:
    """What one workload run measured and checked."""

    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    #: Per-layer metrics this workload cannot measure from outside the
    #: program, with the reason.
    unmeasured: Dict[str, str] = field(default_factory=dict)
    #: Sample counts behind percentiles and other context for the report.
    info: Dict[str, Any] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Why the run's outputs are wrong; empty when every gate passed.
    divergences: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.divergences


def workload_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator *stream* of the workload seed."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


def program_seed(seed: int) -> int:
    """The seed handed to the program's own seeded calls."""
    return int(workload_rng(seed, 0).integers(0, 2**31))


def pct_ms(values_s: Sequence[float], q: float) -> float:
    """Percentile *q* of seconds, in milliseconds (linear interpolation)."""
    return float(np.percentile(np.asarray(values_s, dtype=np.float64), q)
                 * 1e3)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def self_peak_rss_mib() -> float:
    """Peak resident set of this process so far, MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mib(pid: int) -> float:
    """Peak resident set of a live process, MiB (Linux ``VmHWM``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def window_stats(windows) -> Dict[str, float]:
    """Windowed end-to-end timings, the median over windows.

    Each window is ``(frames, wall_s, per_frame_latencies_s)``: its fps is
    frames over wall time, its latency percentiles are over its frames.
    A burst of host noise then moves one window, not the reported value.
    """
    return {
        "fps": median([frames / wall for frames, wall, _ in windows]),
        "latency_p50_ms": median([pct_ms(lat, 50) for _, _, lat in windows]),
        "latency_p90_ms": median([pct_ms(lat, 90) for _, _, lat in windows]),
        "latency_p99_ms": median([pct_ms(lat, 99) for _, _, lat in windows]),
    }


def pooled_stats(windows) -> Dict[str, float]:
    """End-to-end timings over every frame of every window.

    fps is all frames over all wall time and the percentiles are over
    every frame's latency, so a host that runs some windows in a fast
    and some in a slow mode moves the figures in proportion to the mix,
    where a median over windows jumps from one mode to the other.
    """
    latencies = [v for _, _, lat in windows for v in lat]
    return {
        "fps": (sum(frames for frames, _, _ in windows)
                / sum(wall for _, wall, _ in windows)),
        "latency_p50_ms": pct_ms(latencies, 50),
        "latency_p90_ms": pct_ms(latencies, 90),
        "latency_p99_ms": pct_ms(latencies, 99),
    }


def diverging(a: Sequence[Any], b: Sequence[Any]) -> int:
    """Positions where two record streams differ (length gap included)."""
    return sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
