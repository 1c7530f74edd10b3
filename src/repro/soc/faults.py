"""Seeded, deterministic fault injection for the central-node loop.

The deployed system exists to trip a lossy machine quickly and *safely*;
the companion readout paper (Berlioz et al.) documents the failures a
fielded node actually sees: late or lost hub packets, stuck monitors,
wedged IP cores, lost interrupts and single-event upsets in the on-chip
RAMs.  This module models those as composable :class:`FaultSpec` objects
compiled by a :class:`FaultInjector` into a per-frame
:class:`FaultSchedule`.

Design rules:

* **Deterministic** — the schedule is a pure function of
  ``(seed, specs, frame_index)``.  Every per-frame draw uses its own
  generator seeded from that triple, so batch boundaries, fault-spec
  reordering of *other* frames, or component dimensions never perturb a
  frame's fault stream.  Two injectors built with the same seed and
  specs produce bit-identical schedules.
* **Hooks, not subclasses** — components stay fault-free by default and
  expose small injection points: :meth:`HubNetwork.faulted_arrival_times
  <repro.beamloss.hubs.HubNetwork.faulted_arrival_times>`,
  ``AchillesBoard.process_frame(..., faults=...)``,
  ``NeuralIPCore.run(extra_busy_s=...)`` and
  ``ACNETLog.inject_failures``.  The hardened
  :class:`~repro.soc.runtime.CentralNodeRuntime` is the orchestrator
  that routes schedule events into those hooks.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.utils.rng import default_rng

__all__ = [
    "FaultKind",
    "FaultEvent",
    "FaultSpec",
    "HubDropFault",
    "HubDelayFault",
    "StuckMonitorFault",
    "NoisyMonitorFault",
    "IPHangFault",
    "LostIRQFault",
    "SEUFault",
    "ACNETFault",
    "FaultInjector",
    "FaultSchedule",
    "FrameFaults",
    "FrameHangError",
    "flip_bit",
    "fault_counter_name",
    "fault_counter_names",
    "fold_health_counters",
    "HEALTH_COUNTER_PREFIXES",
]


class FrameHangError(RuntimeError):
    """A frame never completed (the IP's interrupt was never observed).

    Subclasses :class:`RuntimeError` so pre-existing callers that treated
    a wedged board as a generic runtime failure keep working; the
    hardened runtime catches this specific type for watchdog recovery.
    """


class FaultKind(enum.Enum):
    """The fault taxonomy (see ``docs/robustness.md``)."""

    HUB_DROP = "hub_drop"           # a hub's Ethernet packet is lost
    HUB_DELAY = "hub_delay"         # a hub's packet arrives late
    STUCK_MONITOR = "stuck_monitor"  # a BLM channel reads a constant
    NOISY_MONITOR = "noisy_monitor"  # a BLM channel adds gross noise
    IP_HANG = "ip_hang"             # IP busy time exceeds the watchdog
    LOST_IRQ = "lost_irq"           # completion interrupt never delivered
    SEU = "seu"                     # bit flip in an on-chip RAM word
    ACNET_FAIL = "acnet_fail"       # transient publish transport failure


@dataclass(frozen=True)
class FaultEvent:
    """One concrete fault occurrence, bound to a frame.

    ``target``/``value``/``detail`` are kind-specific:

    =============  =======================  ==========================
    kind           target                   value / detail
    =============  =======================  ==========================
    HUB_DROP       hub index (-1: random)   uniform draw in [0, 1)
    HUB_DELAY      hub index (-1: random)   extra delay seconds
    STUCK_MONITOR  monitor index            stuck reading
    NOISY_MONITOR  monitor index            additive noise draw
    IP_HANG        —                        extra busy seconds
    LOST_IRQ       —                        —
    SEU            bit index (0..15)        word fraction / RAM name
    ACNET_FAIL     —                        failing attempt count
    =============  =======================  ==========================
    """

    frame_index: int
    kind: FaultKind
    target: int = 0
    value: float = 0.0
    detail: str = ""

    def key(self) -> Tuple:
        """Canonical tuple for signatures and bit-identity comparisons."""
        return (self.frame_index, self.kind.value, self.target,
                float(self.value), self.detail)


# ----------------------------------------------------------------------
# Fault specifications
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultSpec:
    """Base class: when and how often a fault class fires.

    Parameters
    ----------
    rate:
        Per-frame firing probability within the active window (1.0 means
        every frame in the window).
    start / stop:
        Half-open frame-index window ``[start, stop)`` the spec is
        active in (``stop=None``: forever).
    """

    rate: float = 1.0
    start: int = 0
    stop: Optional[int] = None

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.start < 0:
            raise ValueError("start must be >= 0")
        if self.stop is not None and self.stop <= self.start:
            raise ValueError("stop must be > start")

    def active(self, frame_index: int) -> bool:
        """Whether the spec's window covers *frame_index*."""
        return frame_index >= self.start and (
            self.stop is None or frame_index < self.stop
        )

    def events(self, frame_index: int, rng) -> List[FaultEvent]:
        """Concrete events for a frame the spec fired on."""
        raise NotImplementedError


@dataclass(frozen=True)
class HubDropFault(FaultSpec):
    """A hub's packet never arrives (``hub=None``: a random hub)."""

    hub: Optional[int] = None

    def events(self, frame_index, rng):
        if self.hub is None:
            return [FaultEvent(frame_index, FaultKind.HUB_DROP, target=-1,
                               value=float(rng.random()))]
        return [FaultEvent(frame_index, FaultKind.HUB_DROP, target=self.hub)]


@dataclass(frozen=True)
class HubDelayFault(FaultSpec):
    """A hub's packet arrives *delay_s* late (``hub=None``: random hub)."""

    hub: Optional[int] = None
    delay_s: float = 2e-3

    def __post_init__(self):
        super().__post_init__()
        if not (math.isfinite(self.delay_s) and self.delay_s >= 0):
            raise ValueError(
                f"delay_s must be finite and >= 0, got {self.delay_s}")

    def events(self, frame_index, rng):
        target = -1 if self.hub is None else self.hub
        # The random-hub draw is stored alongside the delay so the
        # resolver needs no extra randomness.
        frac = float(rng.random()) if self.hub is None else 0.0
        return [FaultEvent(frame_index, FaultKind.HUB_DELAY, target=target,
                           value=self.delay_s, detail=f"{frac:.17g}")]


@dataclass(frozen=True)
class StuckMonitorFault(FaultSpec):
    """One BLM channel reads a constant (stuck-at) value."""

    monitor: int = 0
    value: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if self.monitor < 0:
            raise ValueError("monitor must be >= 0")

    def events(self, frame_index, rng):
        return [FaultEvent(frame_index, FaultKind.STUCK_MONITOR,
                           target=self.monitor, value=self.value)]


@dataclass(frozen=True)
class NoisyMonitorFault(FaultSpec):
    """One BLM channel adds gross Gaussian noise (sigma in standardized
    input units)."""

    monitor: int = 0
    sigma: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if self.monitor < 0:
            raise ValueError("monitor must be >= 0")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")

    def events(self, frame_index, rng):
        noise = float(rng.normal(0.0, self.sigma))
        return [FaultEvent(frame_index, FaultKind.NOISY_MONITOR,
                           target=self.monitor, value=noise)]


@dataclass(frozen=True)
class IPHangFault(FaultSpec):
    """The IP's busy time is inflated by *extra_s* (enough to blow the
    watchdog budget by default)."""

    extra_s: float = 5e-3

    def __post_init__(self):
        super().__post_init__()
        if not (math.isfinite(self.extra_s) and self.extra_s >= 0):
            raise ValueError(
                f"extra_s must be finite and >= 0, got {self.extra_s}")

    def events(self, frame_index, rng):
        return [FaultEvent(frame_index, FaultKind.IP_HANG,
                           value=self.extra_s)]


@dataclass(frozen=True)
class LostIRQFault(FaultSpec):
    """The completion interrupt is raised by the control IP but never
    reaches the HPS."""

    def events(self, frame_index, rng):
        return [FaultEvent(frame_index, FaultKind.LOST_IRQ)]


@dataclass(frozen=True)
class SEUFault(FaultSpec):
    """Single-event upset: one bit of one word flips in an on-chip RAM.

    ``ram`` selects the buffer (``"input"`` before compute, ``"output"``
    after compute); the word is picked uniformly inside the frame's live
    span, the bit uniformly in [0, 16) unless pinned.
    """

    ram: str = "output"
    bit: Optional[int] = None

    def __post_init__(self):
        super().__post_init__()
        if self.ram not in ("input", "output"):
            raise ValueError(f"ram must be 'input' or 'output', got {self.ram!r}")
        if self.bit is not None and not 0 <= self.bit < 16:
            raise ValueError("bit must be in [0, 16)")

    def events(self, frame_index, rng):
        frac = float(rng.random())
        bit = int(rng.integers(0, 16)) if self.bit is None else self.bit
        return [FaultEvent(frame_index, FaultKind.SEU, target=bit,
                           value=frac, detail=self.ram)]


@dataclass(frozen=True)
class ACNETFault(FaultSpec):
    """The next *failures* publish attempts of the frame's decision fail
    with a transient transport error."""

    failures: int = 1

    def __post_init__(self):
        super().__post_init__()
        if self.failures < 1:
            raise ValueError("failures must be >= 1")

    def events(self, frame_index, rng):
        return [FaultEvent(frame_index, FaultKind.ACNET_FAIL,
                           value=float(self.failures))]


# ----------------------------------------------------------------------
# Injector and schedule
# ----------------------------------------------------------------------
class FaultInjector:
    """Compiles fault specs into deterministic per-frame events.

    Parameters
    ----------
    specs:
        The composable fault specifications.
    seed:
        Integer root seed.  Each (spec, frame) draw is seeded from
        ``(seed, spec_index, frame_index)``, so schedules are
        reproducible regardless of how runs are batched.
    """

    def __init__(self, specs: Sequence[FaultSpec], seed: int = 0):
        specs = tuple(specs)
        for s in specs:
            if not isinstance(s, FaultSpec):
                raise TypeError(f"not a FaultSpec: {s!r}")
        self.specs = specs
        self.seed = int(seed)

    def events_for_frame(self, frame_index: int) -> Tuple[FaultEvent, ...]:
        """All fault events hitting one frame (deterministic)."""
        if frame_index < 0:
            raise ValueError("frame_index must be >= 0")
        events: List[FaultEvent] = []
        for si, spec in enumerate(self.specs):
            if not spec.active(frame_index):
                continue
            rng = default_rng([self.seed, si, frame_index])
            if rng.random() >= spec.rate:
                continue
            events.extend(spec.events(frame_index, rng))
        return tuple(events)

    def plan(self, start: int, n_frames: int) -> "FaultSchedule":
        """The fault schedule for frames ``[start, start + n_frames)``."""
        if start < 0 or n_frames < 0:
            raise ValueError("start and n_frames must be >= 0")
        events: List[FaultEvent] = []
        for f in range(start, start + n_frames):
            events.extend(self.events_for_frame(f))
        return FaultSchedule(start=start, n_frames=n_frames,
                             events=tuple(events))


@dataclass(frozen=True)
class FaultSchedule:
    """The compiled fault plan for a contiguous frame range."""

    start: int
    n_frames: int
    events: Tuple[FaultEvent, ...]

    def __post_init__(self):
        by_frame: Dict[int, List[FaultEvent]] = {}
        for e in self.events:
            by_frame.setdefault(e.frame_index, []).append(e)
        frozen = {f: tuple(evs) for f, evs in by_frame.items()}
        # Dense per-frame index over the schedule's own window: the
        # speculative runtime calls for_frame twice per frame (mask
        # build + replay ladder), so the common case must be a plain
        # list index, not a hash probe.  The dict is kept only for
        # out-of-window queries, which hash mostly-empty frames anyway.
        dense: Tuple[Tuple[FaultEvent, ...], ...] = tuple(
            frozen.get(self.start + i, ()) for i in range(self.n_frames)
        )
        object.__setattr__(self, "_dense", dense)
        object.__setattr__(self, "_by_frame", frozen)

    def for_frame(self, frame_index: int) -> Tuple[FaultEvent, ...]:
        """Events hitting *frame_index* (empty tuple when clean).

        O(1): a dense tuple lookup inside the schedule's window, a dict
        fallback outside it.
        """
        i = frame_index - self.start
        if 0 <= i < self.n_frames:
            return self._dense[i]
        return self._by_frame.get(frame_index, ())

    def counts(self) -> Dict[str, int]:
        """Events per fault class."""
        out: Dict[str, int] = {}
        for e in self.events:
            out[e.kind.value] = out.get(e.kind.value, 0) + 1
        return out

    def signature(self) -> Tuple[Tuple, ...]:
        """Canonical, hashable form — two schedules are bit-identical
        iff their signatures are equal."""
        return tuple(e.key() for e in self.events)

    def __len__(self) -> int:
        return len(self.events)


# ----------------------------------------------------------------------
# Board-side per-frame fault bundle
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FrameFaults:
    """The board-level faults active during one ``process_frame`` call.

    Built by the runtime from the schedule; ``AchillesBoard`` consumes it
    at its injection points (IP busy-time inflation, IRQ suppression,
    RAM bit flips).
    """

    ip_extra_s: float = 0.0
    lost_irq: bool = False
    seu: Tuple[FaultEvent, ...] = ()

    @classmethod
    def from_events(cls, events: Sequence[FaultEvent]) -> Optional["FrameFaults"]:
        """Extract the board-relevant subset; ``None`` when empty."""
        extra = 0.0
        lost = False
        seu: List[FaultEvent] = []
        for e in events:
            if e.kind is FaultKind.IP_HANG:
                extra += e.value
            elif e.kind is FaultKind.LOST_IRQ:
                lost = True
            elif e.kind is FaultKind.SEU:
                seu.append(e)
        if not extra and not lost and not seu:
            return None
        return cls(ip_extra_s=extra, lost_irq=lost, seu=tuple(seu))


# ----------------------------------------------------------------------
# Observability folding
# ----------------------------------------------------------------------

#: Canonical metric name of one fault kind's counter (the runtime bumps
#: the same name in its :class:`~repro.soc.counters.PerformanceCounters`
#: events; the observability layer mirrors them 1:1).
def fault_counter_name(kind: FaultKind) -> str:
    return f"fault.{kind.value}"


def fault_counter_names() -> Tuple[str, ...]:
    """Metric names of every fault-kind counter, in taxonomy order."""
    return tuple(fault_counter_name(k) for k in FaultKind)


#: Event-counter prefixes the runtime maintains that belong in a metrics
#: snapshot: injected faults plus the health tallies derived from them.
HEALTH_COUNTER_PREFIXES = ("fault.", "frame.", "watchdog.", "guard.",
                           "hub.", "acnet.", "degrade.", "spec.")


def fold_health_counters(counters, metrics) -> None:
    """Mirror the runtime's fault/health event counters into a
    :class:`~repro.obs.metrics.MetricsRegistry`.

    *counters* is a :class:`~repro.soc.counters.PerformanceCounters`;
    only the :data:`HEALTH_COUNTER_PREFIXES` families are folded, and the
    mirror is idempotent (``set_count`` keeps counters monotone), so the
    fold can run per frame or once per snapshot.
    """
    for name, value in counters.counts().items():
        if name.startswith(HEALTH_COUNTER_PREFIXES):
            metrics.set_count(name, value)


def flip_bit(word: int, bit: int, width_bits: int = 16) -> int:
    """Flip one bit of a two's-complement *width_bits* word.

    Works on the unsigned bit pattern so flipping the sign bit of a
    positive word yields the corresponding negative word, exactly like
    an SEU in the physical RAM cell.
    """
    if not 1 <= width_bits <= 62:
        raise ValueError("width_bits must be in [1, 62]")
    mask = (1 << width_bits) - 1
    u = (int(word) & mask) ^ (1 << (bit % width_bits))
    if u >= 1 << (width_bits - 1):
        u -= 1 << width_bits
    return u
