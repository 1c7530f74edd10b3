"""The Hard Processor System: Linux user-space application timing.

Steps 1, 2, 7 and 8 of the paper's Fig 2 run on the HPS under embedded
Linux: write the standardized frame into the input buffer over the
bridge, poke the trigger, block on the interrupt, read the results back
to SDRAM.  Two timing ingredients matter:

* deterministic per-word MMIO costs (the bridge model), and
* *operating-system scheduling jitter* — the paper attributes the rare
  latency excursions above 2 ms to "task scheduling in the operating
  system" (Section V).  :class:`OSJitter` models it as a small
  exponential per-frame perturbation plus rare heavy preemption spikes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from repro.utils.rng import SeedLike, default_rng

__all__ = ["HPSConfig", "OSJitter"]


@dataclass(frozen=True)
class HPSConfig:
    """User-space application timing constants.

    The defaults were calibrated so that the full step 1–8 pipeline costs
    ≈0.17 ms on top of the IP latency, reproducing the paper's measured
    1.74 ms (U-Net, IP 1.57 ms) and 0.31 ms (MLP) system latencies.
    Every field is a finite, non-negative number of seconds.
    """

    #: standardize + pack the frame before writing (step 0→1 boundary)
    preprocess_s: float = 4e-6
    #: unpack + hand the probabilities to the controller (after step 8)
    postprocess_s: float = 5e-6
    #: interrupt delivery + context switch back into the user process
    irq_latency_s: float = 8e-6
    #: one CSR access on the lightweight bridge (trigger / ack)
    csr_access_s: float = 0.4e-6

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"{f.name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class OSJitter:
    """Linux scheduling noise on the user-space timeline.

    Per frame: ``Exp(scale)`` baseline jitter, plus with probability
    ``spike_rate`` a preemption spike ``Uniform(spike_min, spike_max)``.
    Defaults reproduce Fig 5(c): 99.97 % of U-Net frames below 1.9 ms,
    worst case ≈ 2.27 ms (spike ≈ 0.5 ms), and the paper's MLP worst case
    of 0.91 ms (0.31 ms mean + ≈ 0.6 ms spike headroom is never reached
    because spikes are capped at ``spike_max``).  The scale and the spike
    bounds are finite.
    """

    scale_s: float = 12e-6
    spike_rate: float = 0.0004
    spike_min_s: float = 60e-6
    spike_max_s: float = 470e-6

    def __post_init__(self):
        for name in ("scale_s", "spike_min_s", "spike_max_s"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.scale_s < 0:
            raise ValueError("scale_s must be >= 0")
        if not 0.0 <= self.spike_rate <= 1.0:
            raise ValueError("spike_rate must be in [0, 1]")
        if not 0 <= self.spike_min_s <= self.spike_max_s:
            raise ValueError("need 0 <= spike_min_s <= spike_max_s")

    def sample(self, n_frames: int, rng: SeedLike = 0) -> np.ndarray:
        """Per-frame jitter seconds, shape ``(n_frames,)``."""
        if n_frames < 0:
            raise ValueError(f"n_frames must be >= 0, got {n_frames}")
        gen = default_rng(rng)
        base = gen.exponential(self.scale_s, size=n_frames) if self.scale_s else (
            np.zeros(n_frames)
        )
        spikes = gen.random(n_frames) < self.spike_rate
        magnitudes = gen.uniform(self.spike_min_s, self.spike_max_s,
                                 size=n_frames)
        return base + np.where(spikes, magnitudes, 0.0)
