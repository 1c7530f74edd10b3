"""repro.obs — the unified observability layer.

One subsystem replaces the four ad-hoc telemetry surfaces that grew
across PRs 1–3 (``PerformanceCounters`` events, ``RunStats`` fields,
``FrameRecord`` scraping, ``tools/bench_report.py`` timings):

* :class:`~repro.obs.spans.Tracer` — nested spans over the whole
  inference path (hub readout → DMA/bridge transfers → IP compute →
  decision ladder → publish), each with wall-clock and simulated-clock
  timestamps,
* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges and
  fixed-bucket latency histograms (p50/p90/p99/max per stage, deadline
  misses and fault tallies folded in from :mod:`repro.soc.faults`),
* :class:`~repro.obs.recorder.FlightRecorder` — a bounded ring of the
  last N frames' spans + health state, frozen into JSONL post-mortems
  on watchdog trips and output-guard rejections.

The three are assembled by :class:`Observability` and switched on
through :class:`ObsConfig` (the keyword-only config dataclass the
``repro.core.api`` facade takes).  The contract, enforced by
tests/test_obs.py:

* **zero-cost when off** — no tracer object exists by default; every
  instrumented call site is a single ``is not None`` guard,
* **bit-identical when on** — enabling observability changes no output
  word on any executor path (naive, batched, compiled,
  fault-injected).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.obs.export import OBS_FORMAT, obs_snapshot, write_obs_json
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.recorder import FlightRecorder
from repro.obs.spans import Span, Tracer

__all__ = [
    "ObsConfig",
    "Observability",
    "Tracer",
    "Span",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "FlightRecorder",
    "DEFAULT_LATENCY_BUCKETS_S",
    "OBS_FORMAT",
    "obs_snapshot",
    "write_obs_json",
]


@dataclass(frozen=True, kw_only=True)
class ObsConfig:
    """Keyword-only observability configuration (see ``repro.core.api``).

    Parameters
    ----------
    enabled:
        Master switch; ``ObsConfig(enabled=False)`` (or passing no
        config at all) keeps the runtime on the zero-cost no-op path.
    flight_frames:
        Ring capacity of the flight recorder (last N frames).
    max_spans:
        Span-store ring capacity (``None`` keeps everything).
    trace_kernels:
        Additionally record one span per HLS kernel / compiled step per
        forward pass (wall clock).  Detailed but hot — leave off in
        deployment-style loops.
    dump_path:
        When set, every post-mortem (watchdog trip, output-guard
        rejection) is appended to this JSONL file as it happens.
    """

    enabled: bool = True
    flight_frames: int = 256
    max_spans: Optional[int] = 65536
    trace_kernels: bool = False
    dump_path: Optional[str] = None

    def __post_init__(self):
        if self.flight_frames < 1:
            raise ValueError(
                f"flight_frames must be >= 1, got {self.flight_frames}")
        if self.max_spans is not None and self.max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {self.max_spans}")


@dataclass
class Observability:
    """The assembled tracer + metrics + flight recorder bundle.

    Built from an :class:`ObsConfig` via :meth:`from_config`; attached
    to a :class:`~repro.soc.runtime.CentralNodeRuntime` (which threads
    the tracer into its boards and, when ``trace_kernels`` is set, into
    their HLS models).
    """

    tracer: Tracer
    metrics: MetricsRegistry
    recorder: FlightRecorder
    config: ObsConfig

    @classmethod
    def from_config(cls, config: Optional[ObsConfig]) -> Optional["Observability"]:
        """Build the bundle, or ``None`` when observability is off."""
        if config is None or not config.enabled:
            return None
        return cls(
            tracer=Tracer(max_spans=config.max_spans),
            metrics=MetricsRegistry(),
            recorder=FlightRecorder(capacity=config.flight_frames),
            config=config,
        )

    # ------------------------------------------------------------------
    def snapshot(self, runtime=None) -> dict:
        """Machine-readable snapshot (see :mod:`repro.obs.export`)."""
        return obs_snapshot(self, runtime)

    def export(self, path, runtime=None):
        """Write :meth:`snapshot` to a JSON file; returns the path."""
        return write_obs_json(path, self, runtime)
