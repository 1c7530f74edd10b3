"""The de-blending trip controller.

"Based on the output, the source with higher probability will be
mitigated for that given time frame" (paper, Section III-A), and "the
lossy machine can be tripped off as soon as possible in order to control
radioactivity".  This module turns a 520-value model output into a trip
decision and tracks deadline compliance against the 3 ms digitizer
period.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["TripDecision", "TripController"]

#: Hard real-time budget per frame (paper: 3 ms poll rate).
FRAME_DEADLINE_S = 3e-3


@dataclass(frozen=True)
class TripDecision:
    """Outcome of one frame.

    Attributes
    ----------
    frame_index:
        Sequence number of the digitizer frame.
    machine:
        Name of the machine to trip, or ``None`` when no monitor exceeded
        the loss-probability threshold (healthy frame).
    score:
        The winning machine's aggregate probability mass.
    latency_s:
        End-to-end decision latency for this frame.
    deadline_met:
        ``latency_s <= deadline`` for the controlling deadline.
    """

    frame_index: int
    machine: Optional[str]
    score: float
    latency_s: float
    deadline_met: bool


@dataclass
class TripController:
    """Aggregates per-monitor probabilities into machine-level decisions.

    Parameters
    ----------
    machine_names:
        Output channel order, e.g. ``("MI", "RR")``.
    probability_threshold:
        A monitor "votes" for a machine when that machine's probability
        exceeds this value.
    min_votes:
        Minimum number of voting monitors before tripping anything — a
        single noisy monitor must not take down an accelerator.
    deadline_s:
        Real-time budget (default: the 3 ms digitizer period).
    """

    machine_names: Tuple[str, ...] = ("MI", "RR")
    probability_threshold: float = 0.5
    min_votes: int = 3
    deadline_s: float = FRAME_DEADLINE_S
    decisions: List[TripDecision] = field(default_factory=list)

    def __post_init__(self):
        if len(self.machine_names) < 2:
            raise ValueError("need at least two machines")
        if not 0.0 < self.probability_threshold < 1.0:
            raise ValueError("probability_threshold must be in (0, 1)")
        if self.min_votes < 1:
            raise ValueError("min_votes must be >= 1")
        if self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")

    # ------------------------------------------------------------------
    def decide(self, output: np.ndarray, latency_s: float = 0.0,
               frame_index: Optional[int] = None) -> TripDecision:
        """Decide on one flat model output (520 values, monitor-major).

        The machine with the larger probability mass over above-threshold
        monitors is tripped, provided it collected ``min_votes`` votes.
        """
        output = np.asarray(output, dtype=np.float64).ravel()
        n_machines = len(self.machine_names)
        if output.size % n_machines:
            raise ValueError(
                f"output size {output.size} not divisible by "
                f"{n_machines} machines"
            )
        probs = output.reshape(-1, n_machines)  # (monitors, machines)
        votes = probs > self.probability_threshold
        # Each machine's mass adds its voting monitors in monitor order,
        # exactly as summing the vote-masked column would: a skipped
        # term is a 0.0, and adding 0.0 is exact.
        masses = np.add.reduce(probs, axis=0, where=votes)
        winner = int(masses.argmax())
        if np.count_nonzero(votes[:, winner]) >= self.min_votes:
            machine = self.machine_names[winner]
            score = float(masses[winner])
        else:
            machine, score = None, 0.0
        decision = TripDecision(
            frame_index=len(self.decisions) if frame_index is None else frame_index,
            machine=machine,
            score=score,
            latency_s=float(latency_s),
            deadline_met=latency_s <= self.deadline_s,
        )
        self.decisions.append(decision)
        return decision

    def abstain(self, frame_index: Optional[int] = None,
                latency_s: float = 0.0) -> TripDecision:
        """Record an explicit no-trip decision *without* voting.

        The degraded runtime calls this when a frame cannot be trusted
        (watchdog timeout, corrupted output, stale inputs): no machine is
        tripped, but the frame still produces a decision record — faults
        must never silently disappear from the decision stream.
        """
        decision = TripDecision(
            frame_index=len(self.decisions) if frame_index is None else frame_index,
            machine=None,
            score=0.0,
            latency_s=float(latency_s),
            deadline_met=latency_s <= self.deadline_s,
        )
        self.decisions.append(decision)
        return decision

    def decide_batch(self, outputs: np.ndarray,
                     latencies_s: Optional[Sequence[float]] = None,
                     start_index: Optional[int] = None) -> List[TripDecision]:
        """Run :meth:`decide` over a batch of frames.

        ``start_index`` numbers the batch's frames ``start_index + i``;
        without it each decision falls back to :meth:`decide`'s default
        (the controller's running decision count), which keeps lone
        batches compatible but misnumbers mixed batch/single-frame use —
        pass an explicit start index in that case.
        """
        outputs = np.asarray(outputs, dtype=np.float64)
        if outputs.ndim != 2:
            raise ValueError(f"outputs must be 2-D, got {outputs.shape}")
        if latencies_s is None:
            latencies_s = np.zeros(outputs.shape[0])
        if len(latencies_s) != outputs.shape[0]:
            raise ValueError("latencies length must match frame count")
        return [
            self.decide(
                out, lat,
                frame_index=None if start_index is None else start_index + i,
            )
            for i, (out, lat) in enumerate(zip(outputs, latencies_s))
        ]

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def trip_counts(self) -> dict:
        """Trips per machine plus healthy-frame count (key ``None``)."""
        counts = {name: 0 for name in self.machine_names}
        counts[None] = 0
        for d in self.decisions:
            counts[d.machine] += 1
        return counts

    def deadline_miss_rate(self) -> float:
        """Fraction of frames that blew the real-time budget."""
        if not self.decisions:
            return 0.0
        misses = sum(1 for d in self.decisions if not d.deadline_met)
        return misses / len(self.decisions)

    def accuracy_against(self, true_machines: Sequence[Optional[str]]) -> float:
        """Fraction of decisions matching ground-truth primary sources."""
        if len(true_machines) != len(self.decisions):
            raise ValueError(
                f"got {len(true_machines)} truths for {len(self.decisions)} decisions"
            )
        hits = sum(
            1 for d, t in zip(self.decisions, true_machines) if d.machine == t
        )
        return hits / max(len(self.decisions), 1)
