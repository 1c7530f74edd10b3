"""Deterministic bursty traffic replay (``repro.serve.replay``).

The scale-out claims of the serving stack need load that looks like
the deployment story — many synchronous BLM streams, arriving in
bursts, competing for admission — and they need it **reproducibly**,
so a benchmark number or a shed count can be pinned in CI.  This
module synthesises that load on the simulated clock:

1. :func:`synth_schedule` draws per-stream arrival times from a
   seeded **on-off (Poisson-burst) process**: bursts of
   geometrically-distributed length at the stream's frame period,
   separated by exponential quiet gaps.  Same seed → byte-identical
   schedule (each stream draws from its own
   ``SeedSequence(seed, spawn_key=(REPLAY_SPAWN_TAG, stream))``).
2. :func:`simulate_admission` replays those arrivals through the
   daemon's **own admission path** — one
   :class:`~repro.serve.daemon.StreamIngress` per stream, the same
   queue-depth shedding and micro-batch planning the socket front
   uses — against a deterministic service model (``workers`` parallel
   batch slots, affine batch cost).  The event loop is pure
   arithmetic: same schedule + same knobs → same accepted sets, same
   shed decisions, same simulated queueing latencies.
3. :func:`accepted_frames` cuts each stream down to the frames it
   admitted, ready for :func:`~repro.serve.daemon.drive_streams` to
   feed through a live daemon over real sockets.  Wall throughput is
   measured there, while the per-frame node latencies stay
   deterministic (they come from the simulated board clock inside the
   records, never from wall time).

The deterministic/measured split is deliberate: **decisions** (admit
or shed, batch boundaries) are fixed by the simulation so they can be
asserted bit-exactly, while **wall throughput** is measured on the
real execution path those decisions feed.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serve.batching import BatchingPolicy
from repro.soc.board import FRAME_PERIOD_S

__all__ = [
    "REPLAY_SPAWN_TAG",
    "BurstModel",
    "ReplaySchedule",
    "StreamSim",
    "ReplaySim",
    "synth_schedule",
    "simulate_admission",
    "accepted_frames",
]

#: Spawn-key tag namespacing replay RNG streams away from the serving
#: seeds (``SERVE_SPAWN_TAG``) — ASCII "RPLY".
REPLAY_SPAWN_TAG = 0x52504C59


@dataclass(frozen=True)
class BurstModel:
    """On-off (Poisson-burst) arrival process for one BLM stream.

    A stream alternates between ON bursts — ``burst_mean`` frames on
    average (geometric), spaced ``period_s`` apart (the digitizer
    grid) — and OFF gaps with mean ``gap_mean_s`` (exponential).
    ``burst_mean = inf`` degenerates to a steady synchronous stream.
    """

    period_s: float = FRAME_PERIOD_S
    burst_mean: float = 8.0
    gap_mean_s: float = 4 * FRAME_PERIOD_S

    def __post_init__(self):
        if not (math.isfinite(self.period_s) and self.period_s > 0):
            raise ValueError(f"period_s must be finite and > 0, "
                             f"got {self.period_s}")
        if not self.burst_mean >= 1:        # NaN fails; inf is allowed
            raise ValueError(f"burst_mean must be >= 1, "
                             f"got {self.burst_mean}")
        if not (math.isfinite(self.gap_mean_s) and self.gap_mean_s >= 0):
            raise ValueError(f"gap_mean_s must be finite and >= 0, "
                             f"got {self.gap_mean_s}")


@dataclass(frozen=True)
class ReplaySchedule:
    """Per-stream arrival times (seconds, non-decreasing) for one replay."""

    seed: int
    model: BurstModel
    arrivals: Tuple[Tuple[float, ...], ...]     # stream -> arrival times

    @property
    def n_streams(self) -> int:
        return len(self.arrivals)

    @property
    def n_frames(self) -> int:
        return sum(len(a) for a in self.arrivals)

    def signature(self) -> Tuple:
        """Hashable identity of the full schedule (determinism pins)."""
        return (self.seed, self.model, self.arrivals)


def synth_schedule(n_streams: int, frames_per_stream: int, *,
                   seed: int = 0,
                   model: Optional[BurstModel] = None) -> ReplaySchedule:
    """Draw a seeded bursty arrival schedule for *n_streams* streams."""
    if n_streams < 1:
        raise ValueError(f"n_streams must be >= 1, got {n_streams}")
    if frames_per_stream < 1:
        raise ValueError(f"frames_per_stream must be >= 1, "
                         f"got {frames_per_stream}")
    model = model or BurstModel()
    streams: List[Tuple[float, ...]] = []
    for s in range(n_streams):
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=seed, spawn_key=(REPLAY_SPAWN_TAG, s)))
        times: List[float] = []
        t = float(rng.exponential(model.gap_mean_s)) if model.gap_mean_s \
            else 0.0
        while len(times) < frames_per_stream:
            if math.isinf(model.burst_mean):    # one steady burst
                burst = frames_per_stream
            else:
                burst = int(rng.geometric(1.0 / model.burst_mean)) \
                    if model.burst_mean > 1 else 1
            for i in range(burst):
                if len(times) >= frames_per_stream:
                    break
                times.append(t + i * model.period_s)
            t = times[-1] + model.period_s
            if model.gap_mean_s:
                t += float(rng.exponential(model.gap_mean_s))
        streams.append(tuple(times))
    return ReplaySchedule(seed=seed, model=model,
                          arrivals=tuple(streams))


# ----------------------------------------------------------------------
# Deterministic admission + service simulation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StreamSim:
    """One stream's deterministic replay outcome."""

    stream: int
    offered: int
    accepted: Tuple[int, ...]       # offered-order indices admitted
    shed: Tuple[int, ...]           # offered-order indices refused
    n_batches: int
    sim_latency_s: Tuple[float, ...]  # per accepted frame: done - arrival

    def latency_percentile(self, q: float) -> float:
        if not self.sim_latency_s:
            return 0.0
        return float(np.percentile(np.asarray(self.sim_latency_s), q))


@dataclass(frozen=True)
class ReplaySim:
    """The full deterministic outcome of one simulated replay."""

    schedule: ReplaySchedule
    queue_limit: int
    workers: int
    service_per_frame_s: float
    service_base_s: float
    streams: Tuple[StreamSim, ...]

    @property
    def total_offered(self) -> int:
        return sum(s.offered for s in self.streams)

    @property
    def total_accepted(self) -> int:
        return sum(len(s.accepted) for s in self.streams)

    @property
    def total_shed(self) -> int:
        return sum(len(s.shed) for s in self.streams)

    def signature(self) -> Tuple:
        """Every admission decision, hashable (determinism pins)."""
        return tuple((s.stream, s.accepted, s.shed, s.n_batches)
                     for s in self.streams)


def simulate_admission(schedule: ReplaySchedule, *,
                       batching: Optional[BatchingPolicy] = None,
                       queue_limit: int = 64,
                       workers: int = 4,
                       period_s: float = FRAME_PERIOD_S,
                       arrival_mode: str = "stream",
                       service_per_frame_s: Optional[float] = None,
                       service_base_s: float = 2e-4) -> ReplaySim:
    """Replay *schedule* through the daemon's admission path, offline.

    One :class:`~repro.serve.daemon.StreamIngress` per stream (the
    exact class the socket daemon admits through) fed in global
    arrival order; ready micro-batches execute on a deterministic
    server model — ``workers`` parallel slots, one in-flight batch per
    stream (the daemon's dispatch rule), batch cost
    ``service_base_s + service_per_frame_s × len`` (the per-frame cost
    defaults to the batching policy's own estimate).  Everything is
    integer/float arithmetic on the simulated clock: same inputs,
    same shed decisions, bit for bit.
    """
    from repro.serve.daemon import StreamIngress

    batching = batching or BatchingPolicy()
    if service_per_frame_s is None:
        # The batching policy's own cost estimate when it has one;
        # otherwise a nominal per-frame cost so bursts actually queue.
        service_per_frame_s = batching.est_cost_per_frame_s or 2.5e-4
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    n = schedule.n_streams
    ingress = [StreamIngress(s, policy=batching, period_s=period_s,
                             queue_limit=queue_limit,
                             arrival_mode=arrival_mode)
               for s in range(n)]
    placeholder = np.zeros(1)
    accepted: List[List[int]] = [[] for _ in range(n)]
    shed: List[List[int]] = [[] for _ in range(n)]
    arrival_t: List[List[float]] = [[] for _ in range(n)]   # per accepted
    done_t: List[List[float]] = [[] for _ in range(n)]
    n_batches = [0] * n
    in_flight = [False] * n
    free_slots = workers
    backlog: List[Tuple[int, Tuple[int, int]]] = []   # FIFO submissions

    # Event heap: (time, seq, kind, stream, payload).  Kinds sort
    # within a timestamp by insertion order (seq), which is itself
    # deterministic — arrivals in offered order, then each stream's
    # EOS, completions as they are scheduled.
    seq = 0
    heap: List[Tuple[float, int, str, int, Any]] = []
    for s in range(n):
        for i, t in enumerate(schedule.arrivals[s]):
            heapq.heappush(heap, (float(t), seq, "arrival", s, i))
            seq += 1
        heapq.heappush(heap, (float(schedule.arrivals[s][-1]), seq,
                              "end", s, None))
        seq += 1

    def service_s(batch: Tuple[int, int]) -> float:
        return service_base_s + service_per_frame_s * (batch[1] - batch[0])

    def start_batch(s: int, batch: Tuple[int, int], t: float) -> None:
        nonlocal seq
        heapq.heappush(heap, (t + service_s(batch), seq,
                              "complete", s, batch))
        seq += 1

    def maybe_dispatch(s: int, t: float) -> None:
        nonlocal free_slots
        if in_flight[s]:
            return
        batch = ingress[s].next_ready()
        if batch is None:
            return
        in_flight[s] = True
        n_batches[s] += 1
        if free_slots > 0:
            free_slots -= 1
            start_batch(s, batch, t)
        else:
            backlog.append((s, batch))

    while heap:
        t, _, kind, s, payload = heapq.heappop(heap)
        ing = ingress[s]
        if kind == "arrival":
            if ing.offer(placeholder):
                accepted[s].append(payload)
                arrival_t[s].append(t)
            else:
                shed[s].append(payload)
            maybe_dispatch(s, t)
        elif kind == "end":
            ing.end()
            maybe_dispatch(s, t)
        else:  # complete
            a, b = payload
            ing.mark_completed(b - a)
            done_t[s].extend([t] * (b - a))
            in_flight[s] = False
            if backlog:
                s2, batch2 = backlog.pop(0)
                start_batch(s2, batch2, t)
            else:
                free_slots += 1
            maybe_dispatch(s, t)

    streams = []
    for s in range(n):
        if len(done_t[s]) != len(accepted[s]):  # pragma: no cover
            raise AssertionError(
                f"stream {s}: {len(done_t[s])} completions for "
                f"{len(accepted[s])} accepted frames")
        lat = tuple(d - a for d, a in zip(done_t[s], arrival_t[s]))
        streams.append(StreamSim(
            stream=s,
            offered=len(schedule.arrivals[s]),
            accepted=tuple(accepted[s]),
            shed=tuple(shed[s]),
            n_batches=n_batches[s],
            sim_latency_s=lat,
        ))
    return ReplaySim(schedule=schedule, queue_limit=queue_limit,
                     workers=workers,
                     service_per_frame_s=service_per_frame_s,
                     service_base_s=service_base_s,
                     streams=tuple(streams))


def accepted_frames(sim: ReplaySim,
                    stream_frames: Sequence[np.ndarray],
                    ) -> Dict[int, np.ndarray]:
    """Each stream's admitted frame subsequence, ready to execute."""
    if len(stream_frames) != len(sim.streams):
        raise ValueError(f"{len(stream_frames)} frame blocks for "
                         f"{len(sim.streams)} simulated streams")
    out: Dict[int, np.ndarray] = {}
    for s, ssim in enumerate(sim.streams):
        frames = np.ascontiguousarray(stream_frames[s], dtype=np.float64)
        if len(frames) < ssim.offered:
            raise ValueError(f"stream {s}: schedule offers {ssim.offered} "
                             f"frames but only {len(frames)} provided")
        out[s] = frames[np.asarray(ssim.accepted, dtype=np.intp)] \
            if ssim.accepted else frames[:0]
    return out
