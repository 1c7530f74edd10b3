"""The `Plant` interface: pluggable data substrates for the control loop.

The paper's pipeline — quantized model → Achilles board → trip
controller → actuation — is general, but the reproduction grew up
hard-wired to one workload (beam-loss de-blending, open loop).  A
:class:`Plant` packages everything workload-specific behind one
picklable object:

* **frame synthesis** — a seeded :class:`PlantSession` produces the
  per-tick monitor vectors the hubs deliver,
* **actuation** — ``session.step(record)`` feeds the published decision
  back into the plant state (closed loop) or ignores it (open loop),
* **topology** — :meth:`Plant.hubs` / :meth:`Plant.controller` describe
  how monitors concentrate into hubs and how model outputs become trip
  decisions,
* **ground truth + scoring** — :meth:`PlantSession.quality` folds a run
  record stream into a :class:`ControlQuality` summary (stabilisation
  time, time-to-trip, trip precision/recall, RMS state error).

Plants must be frozen dataclasses (hashable, picklable): a plant rides
a :class:`~repro.serve.workers.FarmSpec` to spawned workers and must
rebuild bit-identically from a pickle round-trip.  All stochasticity
lives in the *session*, derived from an explicit seed — two sessions
with the same seed replay the same trajectory no matter which process
or executor drives them.

This module deliberately imports only numpy: concrete plants pull in
the beam-loss substrate or the cartpole dynamics, never the other way
around.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ControlQuality",
    "Plant",
    "PlantSession",
    "fold_control_metrics",
    "merge_control_dicts",
]

#: Spawn-key namespace for session RNG derivation.  The runtime derives
#: its per-run streams with ``spawn_key=(start,)`` where ``start`` is a
#: frame index (see :func:`repro.soc.runtime.derive_stream_seeds`); the
#: session uses this large constant so the two families can never
#: collide for any realistic frame count.
SESSION_SPAWN_KEY = 0x504C414E54  # "PLANT"


def session_rng(seed: Any) -> np.random.Generator:
    """Derive a plant session's private RNG from a runtime-style seed.

    Mirrors :func:`repro.soc.runtime.derive_stream_seeds`'s coercion
    rules — a ``Generator`` is consumed directly (caller-managed
    state), a ``SeedSequence`` extends its spawn key, anything else
    (int / None) seeds a fresh sequence — but under the disjoint
    :data:`SESSION_SPAWN_KEY` namespace, so drawing the session stream
    never perturbs the hub/board jitter streams.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        child = np.random.SeedSequence(
            entropy=seed.entropy,
            spawn_key=tuple(seed.spawn_key) + (SESSION_SPAWN_KEY,))
    else:
        child = np.random.SeedSequence(entropy=seed,
                                       spawn_key=(SESSION_SPAWN_KEY,))
    return np.random.default_rng(child)


@dataclass(frozen=True)
class ControlQuality:
    """Control-quality summary of one run (plant-agnostic shape).

    Fields that do not apply to a plant (stabilisation for an open-loop
    substrate, ground-truth scores when the plant never saw the frames)
    are ``nan`` — never silently zero, which would read as "perfectly
    fast" or "always wrong".
    """

    frames: int
    trips: int
    trip_rate: float
    #: Seconds (on the digitizer grid) until the first trip; ``nan``
    #: when no frame tripped.
    time_to_first_trip_s: float
    #: Seconds until the plant state first entered (and held) its
    #: stabilisation band; ``nan`` for open-loop plants or runs that
    #: never stabilised.
    stabilization_time_s: float
    stabilized: bool
    #: Decision quality against the plant's per-frame ground truth
    #: (``nan`` when no truth was available for the run).
    trip_precision: float
    trip_recall: float
    #: RMS of the plant's primary state error (``nan`` for plants with
    #: no continuous state, e.g. open-loop classification substrates).
    rms_state_error: float
    mean_latency_s: float
    deadline_miss_rate: float

    @classmethod
    def from_records(cls, records: Sequence[Any],
                     period_s: float) -> "ControlQuality":
        """Generic record-stream summary (no plant state, no truth)."""
        g = summarize_records(records, period_s)
        return cls(stabilization_time_s=math.nan, stabilized=False,
                   trip_precision=math.nan, trip_recall=math.nan,
                   rms_state_error=math.nan, **g)

    def render(self) -> str:
        """Multi-line printable summary (skips non-applicable fields)."""
        lines = ["control quality:"]
        lines.append(f"  frames: {self.frames}, trips: {self.trips} "
                     f"({self.trip_rate:.1%})")
        if not math.isnan(self.time_to_first_trip_s):
            lines.append(f"  time to first trip: "
                         f"{self.time_to_first_trip_s * 1e3:.1f} ms")
        if not math.isnan(self.stabilization_time_s):
            lines.append(f"  stabilised in "
                         f"{self.stabilization_time_s * 1e3:.1f} ms")
        elif self.stabilized:
            lines.append("  stabilised")
        if not math.isnan(self.trip_precision):
            lines.append(f"  trip precision/recall: "
                         f"{self.trip_precision:.2f}/{self.trip_recall:.2f}")
        if not math.isnan(self.rms_state_error):
            lines.append(f"  rms state error: {self.rms_state_error:.4f}")
        lines.append(f"  mean latency: {self.mean_latency_s * 1e3:.3f} ms, "
                     f"deadline miss rate: {self.deadline_miss_rate:.2%}")
        return "\n".join(lines)


def summarize_records(records: Sequence[Any],
                      period_s: float) -> Dict[str, Any]:
    """The generic (plant-independent) :class:`ControlQuality` fields."""
    n = len(records)
    trips = [r for r in records if r.decision.machine is not None]
    first = math.nan
    if trips:
        first = trips[0].frame_index * period_s + trips[0].total_latency_s
    misses = sum(1 for r in records if not r.decision.deadline_met)
    mean_latency = (sum(r.total_latency_s for r in records) / n
                    if n else math.nan)
    return {
        "frames": n,
        "trips": len(trips),
        "trip_rate": len(trips) / n if n else 0.0,
        "time_to_first_trip_s": first,
        "mean_latency_s": mean_latency,
        "deadline_miss_rate": misses / n if n else 0.0,
    }


def score_against_truth(decisions: Sequence[Optional[str]],
                        truth: Sequence[Optional[str]],
                        ) -> Tuple[float, float]:
    """Micro-averaged trip precision/recall over machine labels.

    ``None`` entries are no-trip frames; a correct trip means the
    decided machine equals the true machine.  Returns ``(nan, nan)``
    when nothing was decided / true respectively... precisely: each is
    ``nan`` only when its denominator is empty.
    """
    if len(decisions) != len(truth):
        raise ValueError(f"{len(decisions)} decisions vs "
                         f"{len(truth)} truth labels")
    decided = sum(1 for d in decisions if d is not None)
    trips_true = sum(1 for t in truth if t is not None)
    correct = sum(1 for d, t in zip(decisions, truth)
                  if d is not None and d == t)
    precision = correct / decided if decided else math.nan
    recall = correct / trips_true if trips_true else math.nan
    return precision, recall


class PlantSession(ABC):
    """One seeded episode of a plant: state, frames, actuation, truth.

    A session is single-threaded and stateful; every executor drives it
    the same way — synthesize a frame, run it through the stack, feed
    the resulting record (or raw output) back — so the trajectory is a
    pure function of (plant, seed, decision stream) and bit-identity
    across executors follows from record-stream bit-identity.
    """

    plant: "Plant"

    @abstractmethod
    def next_frame(self) -> np.ndarray:
        """Synthesize the next tick's monitor vector (1-D float64)."""

    @abstractmethod
    def apply(self, action: Optional[str]) -> None:
        """Advance the plant one tick under *action* (a machine name or
        ``None`` for no trip).  Open-loop plants ignore the action —
        their frame cursor advances in :meth:`next_frame`."""

    def step(self, record: Any) -> None:
        """Feed one :class:`~repro.soc.runtime.FrameRecord` back.

        The default actuation rule: the decided machine acts on the
        plant only when the decision actually reached the actuation
        network (``record.published``); abstained and dead-lettered
        frames apply no action.
        """
        machine = record.decision.machine if record.published else None
        self.apply(machine)

    def step_output(self, output: np.ndarray) -> None:
        """Feed one raw (dequantized) model output back — the
        model-level loop ``repro.dse.score.plant_problem`` scores, with
        no runtime/controller in between."""
        self.apply(self.plant.action_from_output(output))

    @abstractmethod
    def quality(self, records: Sequence[Any]) -> ControlQuality:
        """Score the episode's record stream (plant-specific fields
        filled from session state and ground truth)."""


class Plant(ABC):
    """A picklable workload description (see module docstring).

    Concrete plants are frozen dataclasses; everything stochastic lives
    in :meth:`session`.
    """

    #: Human-readable workload name (used in reports and benchmarks).
    name: str = "plant"
    #: Whether published decisions feed back into the next frame.
    closed_loop: bool = False

    @property
    @abstractmethod
    def machine_names(self) -> Tuple[str, ...]:
        """Actuation channels, in controller output order."""

    @property
    def expected_monitors(self) -> Optional[int]:
        """Monitor count a model must match (``None`` = any)."""
        return None

    @abstractmethod
    def hubs(self, n_monitors: int):
        """The :class:`~repro.beamloss.hubs.HubNetwork` concentrating
        *n_monitors* monitors for this plant."""

    @abstractmethod
    def controller(self):
        """A fresh :class:`~repro.beamloss.controller.TripController`
        turning model outputs into actions for this plant."""

    @abstractmethod
    def session(self, seed: Any = 0) -> PlantSession:
        """Start a seeded episode."""

    @abstractmethod
    def default_model(self):
        """A ready-to-run model for this plant (float
        :class:`~repro.nn.Model`; callers convert per their config)."""

    def action_from_output(self, output: np.ndarray) -> Optional[str]:
        """Map one raw model output to an action, exactly as the trip
        controller would (machine name or ``None``)."""
        decision = self.controller().decide(output)
        return decision.machine


# ----------------------------------------------------------------------
# Aggregation / observability folding
# ----------------------------------------------------------------------
def fold_control_metrics(metrics, quality: ControlQuality) -> None:
    """Mirror *quality* into an obs metrics registry as gauges.

    Keys are ``control.<field>``; ``nan`` fields are skipped (a gauge
    that never existed reads as "not applicable", a ``nan`` gauge
    poisons downstream aggregation).
    """
    for f in fields(quality):
        value = getattr(quality, f.name)
        if isinstance(value, bool):
            value = 1.0 if value else 0.0
        value = float(value)
        if math.isnan(value):
            continue
        metrics.set_gauge(f"control.{f.name}", value)


def _weighted_nanmean(pairs: List[Tuple[float, int]]) -> float:
    num = den = 0.0
    for value, weight in pairs:
        if value is None or math.isnan(value):
            continue
        num += value * weight
        den += weight
    return num / den if den else math.nan


def merge_control_dicts(dicts: Sequence[Optional[Dict[str, Any]]],
                        ) -> Optional[Dict[str, Any]]:
    """Fold per-shard ``dataclasses.asdict(ControlQuality)`` payloads.

    Each shard is an independent episode, so: counts sum, rates and
    latencies average frame-weighted, ``time_to_first_trip_s`` is the
    earliest across shards, ``stabilization_time_s`` the latest (the
    farm is stable when its slowest shard is), ``stabilized`` requires
    every shard, and the RMS error recombines through the sum of
    squares.  ``None`` entries (shards without control scoring) are
    ignored; all-``None`` returns ``None``.
    """
    ds = [d for d in dicts if d]
    if not ds:
        return None
    frames = sum(int(d.get("frames", 0)) for d in ds)
    trips = sum(int(d.get("trips", 0)) for d in ds)
    firsts = [d.get("time_to_first_trip_s", math.nan) for d in ds]
    firsts = [t for t in firsts if t is not None and not math.isnan(t)]
    stabs = [d.get("stabilization_time_s", math.nan) for d in ds]
    stabs_known = [t for t in stabs if t is not None and not math.isnan(t)]
    rms_pairs = [(d.get("rms_state_error", math.nan), d.get("frames", 0))
                 for d in ds]
    ms = _weighted_nanmean([(r * r if r is not None else math.nan, w)
                            for r, w in rms_pairs])
    return {
        "frames": frames,
        "trips": trips,
        "trip_rate": trips / frames if frames else 0.0,
        "time_to_first_trip_s": min(firsts) if firsts else math.nan,
        "stabilization_time_s": (max(stabs_known)
                                 if stabs_known and len(stabs_known) == len(ds)
                                 else math.nan),
        "stabilized": all(bool(d.get("stabilized")) for d in ds),
        "trip_precision": _weighted_nanmean(
            [(d.get("trip_precision", math.nan), d.get("frames", 0))
             for d in ds]),
        "trip_recall": _weighted_nanmean(
            [(d.get("trip_recall", math.nan), d.get("frames", 0))
             for d in ds]),
        "rms_state_error": math.sqrt(ms) if not math.isnan(ms) else math.nan,
        "mean_latency_s": _weighted_nanmean(
            [(d.get("mean_latency_s", math.nan), d.get("frames", 0))
             for d in ds]),
        "deadline_miss_rate": _weighted_nanmean(
            [(d.get("deadline_miss_rate", math.nan), d.get("frames", 0))
             for d in ds]),
    }
