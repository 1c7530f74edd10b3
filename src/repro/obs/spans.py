"""Structured spans: the tracing half of the observability layer.

A :class:`Tracer` records **nested spans** — named intervals with both a
wall-clock duration (what the host actually spent) and an optional
simulated-clock interval (what the modelled hardware spent, the numbers
the paper's latency tables quote).  The control loop opens one ``frame``
span per digitizer tick; the board, the IP executors and the publish
path attach child spans under it.

Two recording styles:

* ``with tracer.span("frame", frame=fi) as sp:`` — an *open* span
  wrapping live code; children recorded inside nest under it, and the
  handle is the mutable :class:`Span` itself (set ``sim_t0``/``sim_t1``
  or extra ``attrs`` before the block exits).
* ``tracer.record("ip_compute", sim_t0=a, sim_t1=b)`` — a
  *retroactive* span for an interval already measured on the simulated
  clock (the event-driven board knows its timestamps exactly); it
  attaches to the innermost open span and inherits its frame index.

Design rules (see docs/observability.md):

* **Zero-cost when off** — components hold ``tracer = None`` by default
  and guard every call site with a single ``is not None`` test; no
  tracer object exists unless observability was requested.
* **Pure observer** — a tracer never touches data, RNG streams or the
  simulated clock, so enabling it is bit-identical by construction (and
  asserted by tests/test_obs.py on every executor path).
* **Bounded** — the span store is a ring (``max_spans``); unbounded
  growth on a long-lived node is not an option.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterable, List, Optional

__all__ = ["Span", "Tracer"]


@dataclass(slots=True)
class Span:
    """One named interval.

    ``wall_t0``/``wall_t1`` are host ``perf_counter`` seconds;
    ``sim_t0``/``sim_t1`` are simulated-clock seconds when the interval
    exists on the modelled hardware (retroactive spans recorded from the
    event-driven simulation).  ``frame`` ties the span to a digitizer
    frame index; ``parent_id`` links the tree.
    """

    name: str
    span_id: int
    parent_id: Optional[int]
    frame: Optional[int]
    wall_t0: float
    wall_t1: float
    sim_t0: Optional[float] = None
    sim_t1: Optional[float] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def wall_duration_s(self) -> float:
        """Host seconds spent inside the span."""
        return self.wall_t1 - self.wall_t0

    @property
    def sim_duration_s(self) -> Optional[float]:
        """Simulated seconds covered (None for wall-only spans)."""
        if self.sim_t0 is None or self.sim_t1 is None:
            return None
        return self.sim_t1 - self.sim_t0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form (the flight-recorder / exporter payload)."""
        d: Dict[str, Any] = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "frame": self.frame,
            "wall_us": round(self.wall_duration_s * 1e6, 3),
        }
        sim = self.sim_duration_s
        if sim is not None:
            d["sim_t0_s"] = self.sim_t0
            d["sim_us"] = round(sim * 1e6, 3)
        if self.attrs:
            d["attrs"] = dict(self.attrs)
        return d


class _OpenSpan:
    """Context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._close(self.span)


class Tracer:
    """Bounded recorder of nested :class:`Span` trees.

    Parameters
    ----------
    max_spans:
        Ring capacity of the finished-span store; the oldest spans are
        evicted first.  ``None`` keeps everything (offline analysis of a
        short run).
    """

    def __init__(self, max_spans: Optional[int] = 65536):
        if max_spans is not None and max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self.max_spans = max_spans
        self._spans: Deque[Span] = deque(maxlen=max_spans)
        self._stack: List[Span] = []
        self._next_id = 0
        self.dropped = 0  # spans evicted from the ring

    # ------------------------------------------------------------------
    def _new(self, name: str, frame: Optional[int], wall_t0: float,
             wall_t1: float, sim_t0: Optional[float],
             sim_t1: Optional[float], attrs: Dict[str, Any]) -> Span:
        parent = self._stack[-1] if self._stack else None
        if frame is None and parent is not None:
            frame = parent.frame
        span_id = self._next_id
        self._next_id = span_id + 1
        # Positional: the hot path of every traced frame, and a keyword
        # call costs Span.__init__ twice as much.
        return Span(name, span_id,
                    parent.span_id if parent is not None else None,
                    frame, wall_t0, wall_t1, sim_t0, sim_t1, attrs)

    def _append(self, span: Span) -> None:
        if len(self._spans) == self._spans.maxlen:
            self.dropped += 1
        self._spans.append(span)

    def _close(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(
                f"span {span.name!r} closed out of order (open stack: "
                f"{[s.name for s in self._stack]})"
            )
        self._stack.pop()
        span.wall_t1 = time.perf_counter()
        self._append(span)

    # ------------------------------------------------------------------
    def span(self, name: str, *, frame: Optional[int] = None,
             sim_t0: Optional[float] = None, **attrs: Any) -> _OpenSpan:
        """Open a live span; use as ``with tracer.span(...) as sp:``.

        The span is appended to the store when the block exits (children
        therefore precede their parent in completion order).
        """
        now = time.perf_counter()
        span = self._new(name, frame, now, now, sim_t0, None, attrs)
        self._stack.append(span)
        return _OpenSpan(self, span)

    def record(self, name: str, *, frame: Optional[int] = None,
               sim_t0: Optional[float] = None,
               sim_t1: Optional[float] = None,
               wall_t0: Optional[float] = None,
               wall_t1: Optional[float] = None, **attrs: Any) -> Span:
        """Record a completed interval retroactively.

        Attaches to the innermost open span (inheriting its frame index
        unless *frame* is given).  Wall timestamps default to "now" —
        a zero-duration marker for intervals that only exist on the
        simulated clock.
        """
        now = time.perf_counter()
        w0 = now if wall_t0 is None else wall_t0
        w1 = now if wall_t1 is None else wall_t1
        span = self._new(name, frame, w0, w1, sim_t0, sim_t1, attrs)
        self._append(span)
        return span

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def spans(self, name: Optional[str] = None) -> List[Span]:
        """Finished spans in completion order (optionally filtered)."""
        if name is None:
            return list(self._spans)
        return [s for s in self._spans if s.name == name]

    def frame_spans(self, frame: int) -> List[Span]:
        """All spans of one frame, in completion order.

        Frames complete contiguously, so this scans backwards from the
        newest span and stops at the first older frame — O(spans of the
        frame), not O(ring).
        """
        out: List[Span] = []
        seen = False
        for s in reversed(self._spans):
            if s.frame == frame:
                seen = True
                out.append(s)
            elif seen and s.frame is not None and s.frame < frame:
                break
        out.reverse()
        return out

    def children(self, span_id: int) -> List[Span]:
        """Direct children of a span."""
        return [s for s in self._spans if s.parent_id == span_id]

    def frame_tree(self, frame: int) -> Dict[str, Any]:
        """The frame's span tree as nested dicts (root = ``frame`` span)."""
        spans = self.frame_spans(frame)
        by_parent: Dict[Optional[int], List[Span]] = {}
        for s in spans:
            by_parent.setdefault(s.parent_id, []).append(s)

        def build(span: Span) -> Dict[str, Any]:
            node = span.to_dict()
            kids = by_parent.get(span.span_id, [])
            if kids:
                node["children"] = [build(k) for k in kids]
            return node

        roots = [s for s in spans if s.parent_id is None
                 or all(p.span_id != s.parent_id for p in spans)]
        if len(roots) == 1:
            return build(roots[0])
        return {"name": f"frame:{frame}", "children": [build(r) for r in roots]}

    def names(self) -> List[str]:
        """Distinct span names recorded so far (sorted)."""
        return sorted({s.name for s in self._spans})

    def __len__(self) -> int:
        return len(self._spans)

    def open_depth(self) -> int:
        """Currently-open nesting depth (0 when idle)."""
        return len(self._stack)

    def reset(self) -> None:
        """Drop every finished span (open spans stay on the stack)."""
        self._spans.clear()
        self.dropped = 0

    # ------------------------------------------------------------------
    def durations_by_name(self, clock: str = "sim") -> Dict[str, List[float]]:
        """:meth:`durations_s` of every recorded name in one pass over the
        store (a name with no span on *clock* maps to an empty list)."""
        if clock not in ("sim", "wall"):
            raise ValueError(f"clock must be 'sim' or 'wall', got {clock!r}")
        wall = clock == "wall"
        out: Dict[str, List[float]] = {}
        for s in self._spans:
            durs = out.get(s.name)
            if durs is None:
                durs = out[s.name] = []
            # the duration properties, inlined: a snapshot runs this loop
            # over every stored span
            if wall:
                durs.append(s.wall_t1 - s.wall_t0)
            elif s.sim_t0 is not None and s.sim_t1 is not None:
                durs.append(s.sim_t1 - s.sim_t0)
        return out

    def durations_s(self, name: str, clock: str = "sim") -> List[float]:
        """Durations of every span called *name* on one clock.

        ``clock="sim"`` skips wall-only spans; ``clock="wall"`` returns
        host durations for all of them.
        """
        return self.durations_by_name(clock).get(name, [])
