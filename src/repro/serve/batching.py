"""Deadline-aware micro-batching for the serving farm.

A shard's frames arrive on its own 3 ms digitizer grid.  Dispatching
every frame alone wastes the bit-exact batched/compiled predict path
(one chunked ``precompute_raw_outputs`` per block amortizes the Python
dispatch overhead, see docs/performance.md); waiting forever violates
the real-time contract.  The :class:`MicroBatcher` accumulates frames
and flushes a batch when

* the batch is full (``max_batch`` frames), or
* admitting the next frame would push the *oldest* queued frame past
  its dispatch deadline ``t_arrival + slack_s``, accounting for the
  predicted dispatch cost ``est_cost_per_frame_s * (len + 1)``.

Everything is computed on the **simulated** arrival clock — pure
arithmetic over arrival timestamps — so a batch plan is a deterministic
function of (arrival times, policy).  That determinism is what lets the
farm prove worker-pool runs bit-identical to the sequential in-process
reference: both execute the *same* plan, and the runtime folds each
batch's start index into its seed derivation identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.soc.board import FRAME_PERIOD_S

__all__ = ["BatchingPolicy", "MicroBatcher", "plan_microbatches",
           "ARRIVAL_MODES", "check_arrival_mode", "arrivals",
           "stream_arrivals", "backlog_arrivals"]

#: Arrival models of the farm, the daemon's ingress and their references:
#: ``"stream"`` (one frame per period, a live digitizer grid) or
#: ``"backlog"`` (everything queued at t=0, a replay).
ARRIVAL_MODES = ("stream", "backlog")


@dataclass(frozen=True)
class BatchingPolicy:
    """Tunables of the micro-batching scheduler.

    Parameters
    ----------
    max_batch:
        Hard batch-size cap (default: the fast path's shm/cache block).
    slack_s:
        How long a queued frame may wait before its batch must
        dispatch (default: one 3 ms digitizer period).
    est_cost_per_frame_s:
        Predicted per-frame dispatch cost, subtracted from the oldest
        frame's remaining slack when deciding whether one more frame
        still fits (0 disables the cost model).
    """

    max_batch: int = 32
    slack_s: float = FRAME_PERIOD_S
    est_cost_per_frame_s: float = 0.0

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        # ``not x >= 0`` also refuses NaN, which would switch the
        # deadline rule off; ``inf`` keeps its meaning (no deadline).
        if not self.slack_s >= 0:
            raise ValueError(f"slack_s must be >= 0, got {self.slack_s}")
        if not self.est_cost_per_frame_s >= 0:
            raise ValueError(f"est_cost_per_frame_s must be >= 0, "
                             f"got {self.est_cost_per_frame_s}")


class MicroBatcher:
    """Streaming accumulator producing deterministic batch boundaries.

    ``push`` frames in arrival order; whenever admitting a frame would
    violate the policy, the pending batch is returned (flushed) and the
    new frame starts the next one.  Call :meth:`flush` at end of stream
    for the tail batch.  Batches are half-open ``(start, stop)`` ranges
    over push order — frames are never reordered.
    """

    def __init__(self, policy: Optional[BatchingPolicy] = None):
        self.policy = policy or BatchingPolicy()
        self._start: Optional[int] = None   # first position of open batch
        self._count = 0                     # frames in the open batch
        self._t_first = 0.0                 # arrival of the oldest frame
        self._next_pos = 0

    # ------------------------------------------------------------------
    def _would_miss(self, t_arrival: float) -> bool:
        """Would the oldest queued frame miss its dispatch deadline if
        this frame joined the batch?"""
        p = self.policy
        dispatch_at = t_arrival + p.est_cost_per_frame_s * (self._count + 1)
        return dispatch_at > self._t_first + p.slack_s

    def push(self, t_arrival: float) -> Optional[Tuple[int, int]]:
        """Admit the next frame (arriving at *t_arrival*).

        Returns the flushed ``(start, stop)`` batch when admitting the
        frame closed the previous batch, else ``None``.
        """
        flushed = None
        if self._count and (self._count >= self.policy.max_batch
                            or self._would_miss(t_arrival)):
            flushed = (self._start, self._start + self._count)
            self._start, self._count = None, 0
        if self._count == 0:
            self._start = self._next_pos
            self._t_first = float(t_arrival)
        self._count += 1
        self._next_pos += 1
        return flushed

    def flush(self) -> Optional[Tuple[int, int]]:
        """Close the pending batch (end of stream)."""
        if not self._count:
            return None
        batch = (self._start, self._start + self._count)
        self._start, self._count = None, 0
        return batch


def plan_microbatches(arrivals_s: Sequence[float],
                      policy: Optional[BatchingPolicy] = None,
                      ) -> List[Tuple[int, int]]:
    """Batch plan for a known arrival sequence (ascending timestamps).

    Returns contiguous half-open ``(start, stop)`` ranges covering
    ``0..len(arrivals)-1`` exactly once, in order.
    """
    arrivals = np.asarray(arrivals_s, dtype=np.float64)
    if np.any(np.isnan(arrivals)):
        # NaN compares false against everything, so it would sail
        # through the monotonicity check below and then poison every
        # deadline comparison downstream (batch boundaries — and hence
        # seeds and records — would silently depend on NaN semantics).
        raise ValueError("arrival times must not contain NaN")
    if arrivals.size and np.any(np.diff(arrivals) < 0):
        raise ValueError("arrival times must be non-decreasing")
    mb = MicroBatcher(policy)
    plan: List[Tuple[int, int]] = []
    for t in arrivals:
        b = mb.push(float(t))
        if b is not None:
            plan.append(b)
    tail = mb.flush()
    if tail is not None:
        plan.append(tail)
    return plan


def check_arrival_mode(mode: str) -> str:
    """Return *mode*; raise ValueError unless it is an arrival mode."""
    if mode not in ARRIVAL_MODES:
        raise ValueError(f"arrival_mode must be one of {ARRIVAL_MODES}, "
                         f"got {mode!r}")
    return mode


def arrivals(n: int, mode: str, period_s: float = FRAME_PERIOD_S
             ) -> np.ndarray:
    """Arrival times of *n* frames under arrival *mode*: the one clock
    every batch plan is drawn on."""
    if check_arrival_mode(mode) == "backlog":
        return backlog_arrivals(n)
    return stream_arrivals(n, period_s)


def stream_arrivals(n: int, period_s: float = FRAME_PERIOD_S) -> np.ndarray:
    """Arrival times of a live synchronous stream: one frame per tick."""
    return np.arange(n, dtype=np.float64) * period_s


def backlog_arrivals(n: int) -> np.ndarray:
    """Arrival times of a replayed backlog: everything queued at t=0.

    With the cost model off (``est_cost_per_frame_s == 0``, the
    default) the batcher fills every batch to ``max_batch``.  With a
    positive cost estimate the deadline check still applies at t=0 —
    the oldest queued frame's dispatch deadline is ``slack_s`` after
    arrival regardless of when it arrived — so backlogs split as soon
    as ``est_cost_per_frame_s * (len + 1) > slack_s``, which may be
    well before ``max_batch``.  That is deliberate: a backlog must not
    be allowed to blow the per-frame latency budget just because it is
    a backlog.
    """
    return np.zeros(n, dtype=np.float64)
