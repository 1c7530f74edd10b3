"""`ShardedNodeFarm`: one central node per BLM stream shard.

The paper deploys a single central node; its deployment sketch (and the
distributed-readout companion paper) feed *many* synchronous BLM
streams into the accelerator complex.  The farm is that scale-out: N
:class:`~repro.soc.runtime.CentralNodeRuntime` replicas, one per
stream shard, each with an independent spawn-key-derived seed stream,
fed through a deadline-aware micro-batching scheduler and executed
either

* **in-process, sequentially** — the reference semantics, or
* **on a** :class:`~repro.serve.workers.Pool` of local spawn workers
  and/or remote host agents, with crash detection, worker restart and
  task requeue.

The determinism contract (asserted by ``tests/test_serve.py`` and the
``farm_serve`` entry of ``tools/bench_report.py``): both execution
modes produce **bit-identical** :class:`FrameRecord` streams for every
worker count, because

1. sharding and micro-batch planning are pure arithmetic over frame
   indices and simulated arrival times (:mod:`repro.serve.sharding`,
   :mod:`repro.serve.batching`),
2. every shard task is self-contained and pure — a fresh replica, a
   shard-local seed, the task's own frames — so execution order across
   shards (or re-execution after a crash) cannot change any output,
3. both modes run the *same* :func:`~repro.serve.workers.execute_task`
   code path on replicas built from the same pickled spec.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serve.batching import (
    BatchingPolicy,
    arrivals,
    check_arrival_mode,
    plan_microbatches,
)
from repro.serve.health import FarmHealth, merge_shard_health
from repro.serve.merge import merge_obs_snapshots
from repro.serve.sharding import ShardPlan
from repro.serve.workers import (
    MAX_RESTARTS,
    OUTPUT_COLUMNS,
    FarmSpec,
    Pool,
    PoolStats,
    Task,
    execute_task,
)
from repro.soc.runtime import FrameRecord

__all__ = ["ShardedNodeFarm", "FarmPlan", "FarmResult"]


@dataclass(frozen=True)
class FarmPlan:
    """The deterministic execution plan for one run: one final,
    self-contained :class:`~repro.serve.workers.Task` per shard."""

    shard_plan: ShardPlan
    tasks: Tuple[Task, ...]

    @property
    def n_batches(self) -> int:
        return sum(len(t.batches) for t in self.tasks)


@dataclass
class FarmResult:
    """Everything one :meth:`ShardedNodeFarm.serve` call produced."""

    records: List[FrameRecord]          # global submission order
    by_shard: List[List[FrameRecord]]   # shard → local-order records
    outputs: np.ndarray                 # (n, len(OUTPUT_COLUMNS))
    health: FarmHealth
    plan: FarmPlan
    obs: Optional[Dict[str, Any]] = None  # merged repro-obs/1 snapshot
    wall_s: float = 0.0
    workers: int = 0

    @property
    def throughput_fps(self) -> float:
        """Aggregate frames per wall-clock second of the serve call."""
        return len(self.records) / self.wall_s if self.wall_s > 0 else 0.0

    def signature(self) -> list:
        """The full per-frame output stream, for bit-identity asserts."""
        return self.records


class ShardedNodeFarm:
    """A deterministic multi-stream serving front-end.

    Parameters
    ----------
    spec:
        The :class:`~repro.serve.workers.FarmSpec` replica recipe
        (model, fallback, runtime config, per-shard obs config).
    n_shards:
        Stream shards = runtime replicas.  Each shard is its own
        digitizer stream with an independent seed stream.
    batching:
        Micro-batching policy (deadline slack, max batch, cost model).
    seed:
        Farm seed; shard ``s`` derives its streams via
        :func:`~repro.serve.sharding.shard_seed`.
    arrival_mode:
        ``"stream"`` — each shard's frames arrive on its own 3 ms grid
        (live serving; batch sizes follow the slack window).
        ``"backlog"`` — all frames are already queued (replay /
        throughput benchmarking; batches fill to ``max_batch``).
    hosts:
        ``"host:port"`` addresses of running
        :class:`~repro.serve.remote.HostAgent` processes.  When given,
        every pooled :meth:`serve` or :meth:`serve_plant` dispatches
        shard tasks uniformly across the in-process workers
        (``workers`` of them; 0 = fully remote) *and* the remote
        hosts, links of one :class:`~repro.serve.workers.Pool` — with
        partition-aware crash recovery and the same bit-identity
        contract.
    """

    def __init__(self, spec: FarmSpec, *, n_shards: int = 4,
                 batching: Optional[BatchingPolicy] = None,
                 seed: Optional[int] = 0,
                 arrival_mode: str = "stream",
                 hosts: Sequence[Any] = ()):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.spec = spec
        self.n_shards = n_shards
        self.batching = batching or BatchingPolicy()
        self.seed = seed
        self.arrival_mode = check_arrival_mode(arrival_mode)
        self.hosts = tuple(hosts)
        self._pool: Optional[Pool] = None

    # ------------------------------------------------------------------
    def _make_pool(self, workers: int, max_restarts: Optional[int]) -> Pool:
        return Pool(self.spec,
                    workers if self.hosts else min(workers, self.n_shards),
                    hosts=self.hosts,
                    max_restarts=(MAX_RESTARTS if max_restarts is None
                                  else max_restarts)).start()

    def start_pool(self, workers: int = 4, *,
                   max_restarts: Optional[int] = None) -> Pool:
        """Start a persistent warm pool reused by every later serve().

        Spawn + replica cold-start then happen once instead of once per
        :meth:`serve` call — the steady-state serving mode.  Restart and
        requeue budgets are cumulative over the pool's lifetime; the
        per-call ``FarmHealth`` still reports per-call deltas.  Close
        with :meth:`close` (or use the farm as a context manager).
        With ``hosts`` configured, *workers* local links sit beside the
        remote hosts.
        """
        if self._pool is not None:
            raise RuntimeError("farm already holds a started pool")
        self._pool = self._make_pool(workers, max_restarts)
        return self._pool

    @property
    def pool(self) -> Optional[Pool]:
        """The persistent pool, when :meth:`start_pool` was called."""
        return self._pool

    def close(self) -> None:
        """Tear down the persistent pool (no-op without one)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "ShardedNodeFarm":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    @property
    def _closed_loop(self) -> bool:
        """True when the spec's plant synthesises its own frames."""
        return bool(getattr(self.spec.plant, "closed_loop", False))

    def plan(self, n_frames: int, chaos_crash_shards: Sequence[int] = (),
             *, frames: Optional[np.ndarray] = None) -> FarmPlan:
        """The deterministic shard/batch plan for *n_frames* frames.

        Shard ``s`` owns global frames ``s, s + n_shards, ...``; with
        *frames* given, its task carries that slice.  Open-loop shards
        batch per the policy on their own arrival clock; a closed-loop
        shard steps one frame per batch, its session ordered end to end.
        """
        if frames is not None and len(frames) != n_frames:
            raise ValueError(f"plan for {n_frames} frames got "
                             f"{len(frames)}")
        shard_plan = ShardPlan(n_frames=n_frames, n_shards=self.n_shards)
        crash_set = set(chaos_crash_shards)
        unknown = crash_set - set(range(self.n_shards))
        if unknown:
            raise ValueError(f"chaos_crash_shards {sorted(unknown)} outside "
                             f"[0, {self.n_shards})")
        tasks = []
        for s in range(self.n_shards):
            n = shard_plan.shard_size(s)
            if self._closed_loop:
                batches = tuple((i, i + 1) for i in range(n))
            else:
                batches = tuple(plan_microbatches(
                    arrivals(n, self.arrival_mode, self.spec.period_s),
                    self.batching))
            tasks.append(Task(
                task_id=s, session=s, seed_entropy=self.seed,
                batches=batches, final=True, crash=s in crash_set,
                frames=(None if frames is None else
                        np.ascontiguousarray(frames[s::self.n_shards],
                                             dtype=np.float64))))
        return FarmPlan(shard_plan=shard_plan, tasks=tuple(tasks))

    # ------------------------------------------------------------------
    def serve(self, frames: np.ndarray, *, workers: int = 4,
              chaos_crash_shards: Sequence[int] = (),
              max_restarts: Optional[int] = None) -> FarmResult:
        """Run a frame block through the farm.

        ``workers >= 1`` uses the pool — the persistent one when
        :meth:`start_pool` was called (warm, no spawn or replica
        cold-start in the call), else a pool built and torn down inside
        the call; ``workers == 0`` executes the same plan sequentially
        in-process (the bit-identity reference), unless remote ``hosts``
        are configured, which then serve it all.  Warm and cold runs
        are bit-identical: the warm replica template is the
        deterministic product of the same spec (see
        :class:`~repro.serve.workers.ReplicaSource`).
        *chaos_crash_shards* hard-kills the worker first claiming each
        listed shard's task (test hook; requires a pool); the
        supervisor restarts and requeues, and the results must still
        be bit-identical.
        """
        frames = self._frames(frames)
        self._check_workers(workers, chaos_crash_shards)
        return self._run(self.plan(len(frames), chaos_crash_shards,
                                   frames=frames),
                         workers if workers >= 1 or self.hosts else None,
                         max_restarts)

    def serve_reference(self, frames: np.ndarray) -> FarmResult:
        """The sequential in-process reference.

        Always executes the plan inline in this process — even on a
        farm configured with remote ``hosts`` — because this is the
        stream every other execution mode is asserted bit-identical
        against.
        """
        frames = self._frames(frames)
        return self._run(self.plan(len(frames), frames=frames), None)

    def serve_plant(self, n_frames: int, *, workers: int = 4,
                    chaos_crash_shards: Sequence[int] = (),
                    max_restarts: Optional[int] = None) -> FarmResult:
        """Run *n_frames* of closed-loop sessions through the farm.

        No frames travel: each shard's worker synthesises its stream
        from the spec's plant and feeds every published action back
        before the next frame, so actuation order within a shard is
        total and the run is bit-identical to
        :meth:`serve_plant_reference` for every worker count and
        topology — local workers, host agents, or both, as for
        :meth:`serve` — including under *chaos_crash_shards* (a
        shard's task is pure, so the supervisor requeues a crashed
        shard's whole session).
        """
        self._check_plant(n_frames)
        self._check_workers(workers, chaos_crash_shards)
        return self._run(self.plan(n_frames, chaos_crash_shards),
                         workers if workers >= 1 or self.hosts else None,
                         max_restarts)

    def serve_plant_reference(self, n_frames: int) -> FarmResult:
        """The sequential in-process closed-loop reference."""
        self._check_plant(n_frames)
        return self._run(self.plan(n_frames), None)

    # ------------------------------------------------------------------
    def _frames(self, frames: np.ndarray) -> np.ndarray:
        if self._closed_loop:
            raise ValueError(
                f"{type(self.spec.plant).__name__} is closed-loop: it "
                f"synthesises its own frames — use serve_plant(n_frames)")
        frames = np.ascontiguousarray(frames, dtype=np.float64)
        if frames.ndim != 2:
            raise ValueError(f"frames must be 2-D, got {frames.shape}")
        return frames

    def _check_plant(self, n_frames: int) -> None:
        if not self._closed_loop:
            raise ValueError("serve_plant needs a closed-loop plant on the "
                             "farm spec (build_farm(..., plant=...))")
        if n_frames < 1:
            raise ValueError(f"n_frames must be >= 1, got {n_frames}")

    def _check_workers(self, workers: int, chaos_crash_shards) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if chaos_crash_shards and workers < 1 and not self.hosts:
            raise ValueError("chaos_crash_shards requires workers >= 1")

    def _run(self, plan: FarmPlan, workers: Optional[int],
             max_restarts: Optional[int] = None) -> FarmResult:
        """Run *plan* inline (``workers`` None) or on the pool, then
        gather its rows and records into global frame order."""
        t0 = time.perf_counter()
        stats = PoolStats()
        if workers is None:
            results = [execute_task(self.spec, t) for t in plan.tasks]
        else:
            pool = self._pool
            if pool is None:
                pool = self._make_pool(workers, max_restarts)
            elif max_restarts is not None:
                raise ValueError("max_restarts is fixed at start_pool() time")
            before = dataclasses.replace(pool.stats)
            try:
                handle = pool.wait(pool.submit(plan.tasks))
                after = pool.stats
                stats = PoolStats(
                    workers=pool.n_workers,
                    worker_restarts=(after.worker_restarts
                                     - before.worker_restarts),
                    requeued_tasks=(after.requeued_tasks
                                    - before.requeued_tasks),
                    host_failures=after.host_failures - before.host_failures)
            finally:
                if pool is not self._pool:
                    pool.close()
            results = [handle.results[t.task_id] for t in plan.tasks]
        wall_s = time.perf_counter() - t0

        shards = plan.shard_plan
        outputs = np.empty((shards.n_frames, len(OUTPUT_COLUMNS)))
        for s, r in enumerate(results):
            outputs[s::self.n_shards] = r.rows
        by_shard = [r.records for r in results]
        health = merge_shard_health(
            [r.health for r in results],
            n_shards=self.n_shards,
            workers=stats.workers,
            batches=plan.n_batches,
            worker_restarts=stats.worker_restarts,
            requeued_tasks=stats.requeued_tasks,
            host_failures=stats.host_failures,
        )
        obs = None
        snaps = [r.obs_snapshot for r in results if r.obs_snapshot is not None]
        if snaps:
            obs = merge_obs_snapshots(
                snaps, extra_meta={"n_shards": self.n_shards,
                                   "workers": stats.workers})
        return FarmResult(records=shards.gather(by_shard), by_shard=by_shard,
                          outputs=outputs, health=health, plan=plan, obs=obs,
                          wall_s=wall_s, workers=stats.workers)
