"""BLM hub aggregation.

The central node "receives inputs from seven BLM hubs distributed around
the accelerator complex" (paper, Section III-A).  Each hub serves a
contiguous arc of monitors and forwards its slice of the frame over
Ethernet; the central node must wait for the *last* hub before it can
assemble the 260-value input array.  The per-hub arrival jitter modelled
here feeds the SoC simulator's step-0 timing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.utils.rng import SeedLike, default_rng

__all__ = ["HubNetwork"]


@dataclass(frozen=True)
class HubNetwork:
    """Seven hubs covering 260 monitors in contiguous arcs.

    Parameters
    ----------
    n_monitors, n_hubs:
        Defaults match the facility (260 monitors, 7 hubs).
    mean_latency_s / jitter_s:
        Per-hub Ethernet forwarding latency model (mean + half-normal
        jitter), used by :meth:`arrival_times`; finite and non-negative.
    """

    n_monitors: int = 260
    n_hubs: int = 7
    mean_latency_s: float = 120e-6
    jitter_s: float = 25e-6

    def __post_init__(self):
        if self.n_hubs <= 0 or self.n_monitors <= 0:
            raise ValueError("n_hubs and n_monitors must be positive")
        if self.n_hubs > self.n_monitors:
            raise ValueError("more hubs than monitors")
        for name in ("mean_latency_s", "jitter_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"{name} must be finite and >= 0, got {value}")

    def spans(self) -> List[Tuple[int, int]]:
        """Half-open monitor index ranges ``[(start, stop), ...]`` per hub.

        Monitors are split as evenly as possible (260 / 7 → five hubs of
        37 monitors and two of 38… precisely, remainder spread over the
        first hubs).
        """
        base = self.n_monitors // self.n_hubs
        rem = self.n_monitors % self.n_hubs
        spans = []
        start = 0
        for h in range(self.n_hubs):
            size = base + (1 if h < rem else 0)
            spans.append((start, start + size))
            start += size
        return spans

    def split_frame(self, frame: np.ndarray) -> List[np.ndarray]:
        """Slice one 260-value frame into per-hub packets (views)."""
        frame = np.asarray(frame)
        if frame.shape[-1] != self.n_monitors:
            raise ValueError(
                f"frame must have {self.n_monitors} monitors, got {frame.shape}"
            )
        return [frame[..., a:b] for a, b in self.spans()]

    def assemble(self, packets: List[np.ndarray]) -> np.ndarray:
        """Reassemble per-hub packets into the full frame."""
        if len(packets) != self.n_hubs:
            raise ValueError(f"expected {self.n_hubs} packets, got {len(packets)}")
        sizes = [b - a for a, b in self.spans()]
        for p, size in zip(packets, sizes):
            if p.shape[-1] != size:
                raise ValueError("packet sizes do not match hub spans")
        return np.concatenate(packets, axis=-1)

    def arrival_times(self, n_frames: int, seed: SeedLike = 0) -> np.ndarray:
        """Per-hub packet arrival offsets, shape ``(n_frames, n_hubs)``.

        Offsets are relative to the digitizer tick; the frame is complete
        at ``arrival_times(...).max(axis=1)``.
        """
        if n_frames <= 0:
            raise ValueError(f"n_frames must be positive, got {n_frames}")
        rng = default_rng(seed)
        jitter = np.abs(rng.normal(0.0, self.jitter_s, size=(n_frames, self.n_hubs)))
        return self.mean_latency_s + jitter

    def frame_complete_times(self, n_frames: int, seed: SeedLike = 0) -> np.ndarray:
        """Time (s after the tick) when the last hub packet has arrived."""
        return self.arrival_times(n_frames, seed).max(axis=1)

    # ------------------------------------------------------------------
    # Fault-injection hook
    # ------------------------------------------------------------------
    def faulted_arrival_times(self, n_frames: int, seed: SeedLike = 0,
                              *, extra_delay_s: np.ndarray = None,
                              drop_mask: np.ndarray = None) -> np.ndarray:
        """Per-hub arrivals under injected network faults.

        The healthy arrival stream is drawn exactly as
        :meth:`arrival_times` (same seed → same base jitter), then
        ``extra_delay_s`` (per ``(frame, hub)`` seconds) is added and
        hubs masked by ``drop_mask`` become ``+inf`` — the packet never
        arrives.  Callers decide completion/staleness from the result;
        :func:`numpy.isfinite` recovers the arrived-hub mask.
        """
        times = self.arrival_times(n_frames, seed)
        if extra_delay_s is not None:
            extra = np.asarray(extra_delay_s, dtype=np.float64)
            if extra.shape != times.shape:
                raise ValueError(
                    f"extra_delay_s must have shape {times.shape}, "
                    f"got {extra.shape}"
                )
            if extra.size and extra.min() < 0:
                raise ValueError("extra_delay_s must be non-negative")
            times = times + extra
        if drop_mask is not None:
            mask = np.asarray(drop_mask, dtype=bool)
            if mask.shape != times.shape:
                raise ValueError(
                    f"drop_mask must have shape {times.shape}, got {mask.shape}"
                )
            times = np.where(mask, np.inf, times)
        return times
