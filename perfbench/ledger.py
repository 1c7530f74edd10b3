"""Per-layer ledger: timing wrappers around the program's public calls.

Traced runs install a :class:`Ledger` over the calls each layer exposes
(``HLSModel.predict``, ``NeuralIPCore.precompute_raw_outputs``,
``AchillesBoard.process_frame``, ``CentralNodeRuntime.run``, plant
session methods, ``StreamClient.send``, ...).  Every wrapped call is a
span; a span's *self* time is its duration minus the time of the timed
calls made inside it.  ``predict`` runs with ``profile=True`` so the
compiled plan's own per-step times (``RunStats.step_times``) land in the
ledger as children of the ``predict`` span.

Nothing here edits the program: wrappers are attributes set on its
classes and modules for the duration of a traced phase and removed by
:meth:`Ledger.restore`.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional


class Ledger:
    """Inclusive and self seconds, call counts and work items per span."""

    def __init__(self) -> None:
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.items: Dict[str, int] = defaultdict(int)
        self._open: List[List[float]] = []      # child seconds per open span
        self._installed: List[tuple] = []

    # -- recording -----------------------------------------------------
    def add(self, name: str, seconds: float, items: int = 0) -> None:
        """Record a leaf span timed by the program itself."""
        self.inclusive[name] += seconds
        self.self_s[name] += seconds
        self.calls[name] += 1
        self.items[name] += items
        if self._open:
            self._open[-1][0] += seconds

    def wrap(self, name: str, fn: Callable, *,
             items: Optional[Callable[..., int]] = None,
             children: Optional[Callable[..., Dict[str, float]]] = None,
             force_kwargs: Optional[Dict[str, Any]] = None) -> Callable:
        """A timed stand-in for *fn*.

        *items(args, result)* counts the work of one call (frames, ticks);
        *children(args, result)* returns program-timed child spans
        (``{name: seconds}``) to charge inside this span;
        *force_kwargs* are passed on every call (``profile=True``).
        """
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if force_kwargs:
                kwargs.update(force_kwargs)
            frame = [0.0]
            self._open.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - t0
                self._open.pop()
            n = items(args, result) if items is not None else 0
            if children is not None:
                self._open.append(frame)
                for child, seconds in children(args, result).items():
                    self.add(child, seconds, n)
                self._open.pop()
            self.inclusive[name] += duration
            self.self_s[name] += duration - frame[0]
            self.calls[name] += 1
            self.items[name] += n
            if self._open:
                self._open[-1][0] += duration
            return result

        return timed

    # -- installation --------------------------------------------------
    def install(self, owner: Any, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` (class, module or instance) by a wrapper."""
        original = getattr(owner, attr)
        saved = vars(owner).get(attr)
        setattr(owner, attr, self.wrap(name, original, **options))
        self._installed.append((owner, attr, saved))

    def restore(self) -> None:
        """Remove every installed wrapper (last installed first)."""
        while self._installed:
            owner, attr, saved = self._installed.pop()
            if saved is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    # -- reading -------------------------------------------------------
    def total_self_s(self) -> float:
        """Self seconds summed over every span (no double counting)."""
        return sum(self.self_s.values())

    def per_item_us(self, name: str, *, own: bool = False) -> float:
        """Microseconds per work item of span *name* (self time if *own*)."""
        n = self.items.get(name, 0)
        if not n:
            return 0.0
        seconds = (self.self_s if own else self.inclusive).get(name, 0.0)
        return seconds / n * 1e6

    def per_call_us(self, name: str, *, own: bool = False) -> float:
        """Microseconds per call of span *name* (self time if *own*)."""
        n = self.calls.get(name, 0)
        if not n:
            return 0.0
        seconds = (self.self_s if own else self.inclusive).get(name, 0.0)
        return seconds / n * 1e6


def batch_rows(args, result) -> int:
    """Rows of the array passed as the first argument after ``self``."""
    return int(len(args[1]))


def one(args, result) -> int:
    return 1


def step_times(args, result) -> Dict[str, float]:
    """The compiled plan's per-step seconds of the ``predict`` just run."""
    stats = args[0].last_run_stats
    times = (stats.step_times if stats is not None else None) or {}
    return {f"hls.step.{step}": seconds for step, seconds in times.items()}


def install_hot_path(ledger: Ledger) -> None:
    """Wrap the in-process hot path: ``repro.hls`` and ``repro.soc``."""
    from repro.hls.model import HLSModel
    from repro.soc.board import AchillesBoard
    from repro.soc.ip_core import NeuralIPCore
    from repro.soc.runtime import CentralNodeRuntime

    ledger.install(HLSModel, "predict", "hls.predict", items=batch_rows,
                   children=step_times, force_kwargs={"profile": True})
    ledger.install(NeuralIPCore, "precompute_raw_outputs", "soc.precompute",
                   items=batch_rows)
    ledger.install(AchillesBoard, "process_frame", "soc.board", items=one)
    ledger.install(CentralNodeRuntime, "run", "soc.runtime",
                   items=batch_rows)


def install_setup(ledger: Ledger) -> None:
    """Wrap the set-up calls ``build_runtime`` makes: profile, convert,
    compile."""
    import repro.core.api as api
    import repro.hls.precision as precision
    from repro.hls.model import HLSModel

    ledger.install(precision, "profile_model", "setup.profile")
    ledger.install(api, "convert", "setup.convert")
    ledger.install(HLSModel, "compile", "setup.compile")


def hls_metrics(ledger: Ledger) -> Dict[str, float]:
    """``hls.predict.*`` and ``hls.step.*`` rows of the ledger."""
    calls = ledger.calls.get("hls.predict", 0)
    frames = ledger.items.get("hls.predict", 0)
    out = {
        "hls.predict.calls": float(calls),
        "hls.predict.frames_per_call": frames / calls if calls else 0.0,
        "hls.predict.us_per_frame": ledger.per_item_us("hls.predict"),
    }
    for name in ledger.items:
        if name.startswith("hls.step."):
            out[f"{name}.us_per_frame"] = ledger.per_item_us(name)
    return out


def soc_metrics(ledger: Ledger, runtimes) -> Dict[str, float]:
    """``soc.*`` rows of the ledger plus the runtimes' batched share."""
    frames = sum(len(r.records) for r in runtimes)
    batched = sum(r.counters.count("frame.batched") for r in runtimes)
    return {
        "soc.precompute.self_us_per_frame": ledger.per_item_us(
            "soc.precompute", own=True),
        "soc.board.us_per_frame": ledger.per_item_us("soc.board", own=True),
        "soc.runtime.self_us_per_call": ledger.per_call_us(
            "soc.runtime", own=True),
        "soc.frames_batched_frac": batched / frames if frames else 0.0,
    }
