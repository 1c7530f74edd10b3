"""Performance counters.

The paper integrates "performance counters to measure real latency"
into the platform-designer subsystem (Section IV-B).  This module is
that block: named timestamp counters latched against the simulator
clock, from which per-step durations are derived.
"""

from __future__ import annotations

from typing import Dict, List

__all__ = ["PerformanceCounters"]


class PerformanceCounters:
    """Named start/stop interval counters with cycle resolution.

    Counters are keyed by step name (e.g. ``"step1_write_input"``); each
    ``start``/``stop`` pair adds one measured interval to the counter's
    interval count and running total, so a long-lived board holds two
    numbers per counter however many frames it runs.  ``clock_hz``
    converts to cycle counts like the hardware counters would report.

    Besides intervals, the block carries plain *event counters*
    (``increment``/``count``) — the health/fault tallies the hardened
    runtime exposes through its :class:`~repro.soc.runtime.HealthReport`.
    """

    def __init__(self, clock_hz: float = 100e6):
        if clock_hz <= 0:
            raise ValueError(f"clock_hz must be positive, got {clock_hz}")
        self.clock_hz = clock_hz
        self._open: Dict[str, List[float]] = {}
        # per counter: [intervals recorded, their summed seconds]
        self._totals: Dict[str, list] = {}
        self._events: Dict[str, int] = {}

    def start(self, name: str, now: float) -> None:
        """Latch a start timestamp of counter *name*.

        Re-entrant: starting an already-running counter pushes a nested
        start, and ``stop``/``cancel`` pair LIFO with the most recent
        one.  (Historically a nested ``start`` raised, which left the
        counter's bookkeeping half-updated in the caller's error path
        and silently corrupted later intervals; the tracer builds on
        these counters, so nesting had to become well-defined.)
        """
        self._open.setdefault(name, []).append(now)

    def stop(self, name: str, now: float) -> float:
        """Close the most recent open start; returns the interval in
        seconds.  Raises if the counter is not running."""
        stack = self._open.get(name)
        if not stack:
            raise RuntimeError(f"counter {name!r} was not started")
        begin = stack[-1]
        if now < begin:
            raise ValueError(f"counter {name!r}: stop before start")
        stack.pop()
        if not stack:
            del self._open[name]
        seconds = now - begin
        tally = self._totals.get(name)
        if tally is None:
            self._totals[name] = [1, seconds]
        else:
            tally[0] += 1
            tally[1] += seconds
        return seconds

    def cancel(self, name: str) -> None:
        """Discard the most recent open start (watchdog-abandoned
        frame); a clean no-op if the counter is not running."""
        stack = self._open.get(name)
        if stack:
            stack.pop()
            if not stack:
                del self._open[name]

    def open_count(self, name: str) -> int:
        """Currently-open (nested) starts of counter *name*."""
        return len(self._open.get(name, ()))

    # ------------------------------------------------------------------
    # Event counters
    # ------------------------------------------------------------------
    def increment(self, name: str, n: int = 1) -> int:
        """Bump event counter *name* by *n*; returns the new count."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        self._events[name] = self._events.get(name, 0) + n
        return self._events[name]

    def count(self, name: str) -> int:
        """Current value of event counter *name* (0 if never bumped)."""
        return self._events.get(name, 0)

    def counts(self) -> Dict[str, int]:
        """All event counters (copy)."""
        return dict(self._events)

    # ------------------------------------------------------------------
    def interval_count(self, name: str) -> int:
        """Intervals counter *name* has recorded (0 if never stopped)."""
        tally = self._totals.get(name)
        return tally[0] if tally is not None else 0

    def total_seconds(self, name: str) -> float:
        """Summed duration of counter *name*'s intervals, added in the
        order they were recorded."""
        tally = self._totals.get(name)
        return tally[1] if tally is not None else 0.0

    def total_cycles(self, name: str) -> int:
        """Sum of counter *name* in clock cycles."""
        return int(round(self.total_seconds(name) * self.clock_hz))

    def names(self) -> List[str]:
        """All counters that recorded at least one interval."""
        return sorted(self._totals)

    def reset(self) -> None:
        """Clear all state (interval totals, open intervals, event
        counters)."""
        self._open.clear()
        self._totals.clear()
        self._events.clear()
