"""Task execution: runtime replicas, one task, one pool of links.

The execution layer under :class:`~repro.serve.farm.ShardedNodeFarm`,
:class:`~repro.serve.daemon.ServingDaemon` and
:class:`~repro.serve.remote.HostAgent`:

* :class:`FarmSpec` — a picklable recipe for one runtime replica
  (model + fallback + :class:`~repro.core.api.RuntimeConfig` +
  :class:`~repro.obs.ObsConfig`).  Every replica is built from a
  pickle round-trip of the spec's models, so the in-process reference
  constructs *exactly* what a spawned worker deserialises — sharing no
  mutable state with the parent either way.
* :class:`ReplicaSource` — a per-process warm template: the first
  replica pays the full cold build (conversion + compilation), later
  replicas deserialise the cached converted/compiled models.  Replicas
  still share no mutable state (the cache holds bytes), and warm ==
  cold bit-exactly because conversion and compilation are
  deterministic.
* :class:`Task` / :class:`TaskResult` — the one unit of work: a seeded
  session resumed at a frame index.  A farm shard, a closed-loop plant
  shard and a daemon stream batch are all tasks.
* :func:`execute_task` — runs a task; the same path inline (the
  reference) and in every worker.
* :class:`Pool` — a persistent pool whose links are local spawn workers
  or host-agent sockets (:mod:`repro.serve.remote`).  The links share
  one pending queue, one routing rule, one requeue-or-fail path, one
  restart budget and one wait over every link's readable handle.

A task's frames travel in its message and its output rows (see
:data:`OUTPUT_COLUMNS`) come back in its :class:`TaskResult`, over both
transports.  A local worker talks to the pool over **its own pipe**:
tasks go down it and results come back up it.  One pipe per worker —
never a queue shared between workers — is load-bearing for crash
recovery: ``multiprocessing.Queue.put`` hands the payload to a feeder
thread that flushes it while holding a write lock *shared by every
writer*, so a worker that hard-exits moments after a put can die inside
that critical section and silently deadlock all surviving writers.  A
pipe has exactly one writer and no shared lock, so a crashing worker
can only ever poison its own channel, and results it flushed before
dying are still delivered ahead of the EOF that signals the crash.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import ObsConfig, Observability
from repro.serve.sharding import shard_seed
from repro.soc.board import FRAME_PERIOD_S
from repro.soc.runtime import (
    STATUS_CORRUPT,
    STATUS_DEGRADED,
    STATUS_OK,
    STATUS_STALE,
    STATUS_WATCHDOG,
    CentralNodeRuntime,
    FrameRecord,
)

__all__ = [
    "FarmSpec",
    "ReplicaSource",
    "Task",
    "TaskResult",
    "WorkerCrashError",
    "Pool",
    "BlockHandle",
    "PoolStats",
    "execute_task",
    "OUTPUT_COLUMNS",
    "STATUS_CODES",
]

#: Status → numeric code for the ``status`` output column.
STATUS_CODES: Tuple[str, ...] = (STATUS_OK, STATUS_DEGRADED, STATUS_STALE,
                                 STATUS_CORRUPT, STATUS_WATCHDOG)

#: Columns of the per-frame output row (float64 each).  ``machine`` is
#: the index into the controller's ``machine_names`` (-1 = no trip);
#: ``status`` indexes :data:`STATUS_CODES`.
OUTPUT_COLUMNS: Tuple[str, ...] = ("score", "machine", "total_latency_s",
                                   "node_latency_s", "hub_delay_s",
                                   "status", "published")

#: ``multiprocessing`` start method of local workers: ``spawn`` is the
#: only one that never inherits parent state (determinism) and works
#: identically everywhere.
START_METHOD = "spawn"

#: Longest wall time with work outstanding but no result, no lost link
#: and no respawn before the pool gives up (guards CI against hangs).
STALL_TIMEOUT_S = 300.0

#: Default restart budget: lost links (worker restarts plus host
#: failures) a pool absorbs before it raises :class:`WorkerCrashError`.
MAX_RESTARTS = 8


@dataclass(frozen=True)
class FarmSpec:
    """Picklable recipe for one shard's runtime replica.

    ``model``/``fallback`` may be float :class:`~repro.nn.Model`\\ s or
    converted :class:`~repro.hls.HLSModel`\\ s — they pass through
    :func:`repro.core.api.build_runtime`, which converts and compiles
    per ``config.compile_level``.  ``obs`` being non-None gives every
    replica its *own* observability bundle; the farm merges the
    per-shard snapshots afterwards (:mod:`repro.serve.merge`).

    ``injector`` arms every replica with the same
    :class:`~repro.soc.faults.FaultInjector` recipe (specs + seed);
    schedules are a pure function of (seed, spec, frame index), so each
    shard's chaos is identical no matter which worker runs it, and the
    runtime's speculative ladder keeps the batched fast path live under
    the armed injector.

    ``plant`` (a :class:`~repro.plants.Plant`, or None for the default
    beam-loss wiring) rides the spec to every replica: it supplies the
    hub topology and trip controller at build time, and — for
    closed-loop plants — the session a :class:`Task` drives.  Plants
    are small frozen dataclasses, so the pickle round-trip is cheap and
    every worker reconstructs the same workload.
    """

    model: Any
    fallback: Any = None
    config: Any = None          # RuntimeConfig (default built lazily)
    obs: Optional[ObsConfig] = None
    injector: Any = None        # FaultInjector (stateless, picklable)
    plant: Any = None           # Plant (frozen, picklable)

    @property
    def period_s(self) -> float:
        """The replica's frame period: its config's, else the paper's."""
        return (FRAME_PERIOD_S if self.config is None
                else self.config.period_s)

    def build_runtime(self) -> CentralNodeRuntime:
        """A fresh, fully private runtime replica (cold build).

        The models are pickle round-tripped so replicas built in this
        process share nothing with the spec (or each other) — the exact
        object graph a spawned worker gets off the wire.
        """
        return self._assemble(_copy(self.model), _copy(self.fallback))

    def _assemble(self, model, fallback) -> CentralNodeRuntime:
        from repro.core.api import RuntimeConfig, build_runtime

        return build_runtime(
            model,
            fallback=fallback,
            config=self.config or RuntimeConfig(),
            obs=Observability.from_config(self.obs),
            injector=_copy(self.injector),
            plant=_copy(self.plant),
        )


def _copy(obj: Any) -> Any:
    """A private deep copy through pickle (None stays None)."""
    return None if obj is None else pickle.loads(pickle.dumps(obj))


class ReplicaSource:
    """Per-process warm replica factory for one :class:`FarmSpec`.

    The first :meth:`build_runtime` call performs the full cold build
    (pickle round-trip, float→HLS conversion, graph compilation per
    ``config.compile_level``) and caches the *converted and compiled*
    models as pickled bytes.  Every later call deserialises that
    template and assembles a fresh runtime shell (boards, RAMs, hub
    network, controller, counters) around it.  Replicas therefore
    share **no mutable state** — the cache holds bytes, not objects —
    while the expensive model work is paid once per worker process
    instead of once per task.

    Warm is bit-identical to cold: conversion and compilation are
    deterministic functions of the spec, so the cached template is
    exactly what every cold build would have produced, and
    :func:`repro.core.api.build_runtime` skips re-compilation when it
    receives an already-compiled :class:`~repro.hls.HLSModel`.
    """

    def __init__(self, spec: FarmSpec):
        self.spec = spec
        self._template: Optional[bytes] = None

    def build_runtime(self) -> CentralNodeRuntime:
        if self._template is not None:
            return self.spec._assemble(*pickle.loads(self._template))
        runtime = self.spec.build_runtime()
        fallback = (runtime.fallback_board.ip.hls_model
                    if runtime.fallback_board is not None else None)
        self._template = pickle.dumps((runtime.board.ip.hls_model, fallback))
        return runtime


@dataclass(frozen=True)
class Task:
    """One step of a seeded session — the one unit of work.

    The session is a runtime replica seeded with
    ``shard_seed(seed_entropy, session)``; the task resumes it at
    session-local frame ``start``.  A link holding the session's live
    replica continues it.  A task is **self-contained** when its
    ``replay`` batches cover the ``start`` frames before it: it then
    runs on a fresh replica, which re-runs ``replay`` first.  Replay is
    a pure function of the frames and batch boundaries, so it lands in
    the lost state bit for bit — this is what makes requeue after a
    crash safe.  A farm shard (``start=0``) is self-contained.

    ``batches`` are half-open ranges of session-local frame indices,
    run in order.  For an open-loop plant ``frames`` holds the rows of
    ``replay`` then of ``batches``; a closed-loop plant
    (``spec.plant.closed_loop``) synthesises each frame and takes each
    published action back before the next, so no frames travel.
    ``final`` returns the session's obs snapshot and drops its replica.
    ``crash`` is a test hook: a worker claiming a crash-flagged task
    dies hard before running it (the pool requeues it with the flag
    cleared).
    """

    task_id: int
    session: int
    seed_entropy: Optional[int]
    batches: Tuple[Tuple[int, int], ...] = ()
    start: int = 0
    replay: Tuple[Tuple[int, int], ...] = ()
    frames: Optional[np.ndarray] = field(default=None, compare=False,
                                         repr=False)
    final: bool = False
    crash: bool = False

    @property
    def self_contained(self) -> bool:
        """True when the task can run on a link holding no session state."""
        return sum(b - a for a, b in self.replay) == self.start


@dataclass
class TaskResult:
    """What one task produced: its records and their output rows, the
    replica's cumulative health, and (``final`` only) its obs snapshot."""

    task_id: int
    session: int
    records: List[FrameRecord]
    rows: np.ndarray                    # (len(records), len(OUTPUT_COLUMNS))
    health: Dict[str, Any]
    obs_snapshot: Optional[Dict[str, Any]] = None


class WorkerCrashError(RuntimeError):
    """The pool exhausted its restart budget (or lost all its links)."""


# ----------------------------------------------------------------------
# Task execution (shared by the inline reference and worker processes)
# ----------------------------------------------------------------------
def execute_task(spec: FarmSpec, task: Task, *,
                 source: Optional[ReplicaSource] = None,
                 live: Optional[Dict[int, tuple]] = None) -> TaskResult:
    """Run *task*: the inline reference path and every worker's path.

    *live* maps session → ``(runtime, seed, plant session)``.  A worker
    passes the same dict to every call, so a session's replica lives on
    between its tasks; a self-contained task always starts a fresh one
    (from *source* when given: warm, bit-identical to cold).  Raises
    :class:`LookupError` for a continuation whose session *live* does
    not hold.
    """
    from repro.plants import fold_control_metrics, run_closed_loop

    def run(batches, offset):
        records: List[FrameRecord] = []
        for a, b in batches:
            if plant is None:
                records += runtime.run(task.frames[offset:offset + b - a],
                                       seed=seed)
            else:
                records += run_closed_loop(runtime, plant, b - a, seed=seed)
            offset += b - a
        return records

    live = {} if live is None else live
    if task.self_contained:
        runtime = (source or spec).build_runtime()
        seed = shard_seed(task.seed_entropy, task.session)
        plant = (runtime.plant.session(seed)
                 if getattr(runtime.plant, "closed_loop", False) else None)
        live[task.session] = (runtime, seed, plant)
        run(task.replay, 0)
    elif task.session not in live:
        raise LookupError(f"session {task.session}: continuation at frame "
                          f"{task.start} reached a link without its state")
    runtime, seed, plant = live[task.session]
    if len(runtime.records) != task.start:
        raise AssertionError(
            f"session {task.session}: replica is at frame "
            f"{len(runtime.records)}, task starts at {task.start}")
    records = run(task.batches, sum(b - a for a, b in task.replay))
    health = runtime.health_report()
    if plant is not None:
        health = dataclasses.replace(health,
                                     control=plant.quality(runtime.records))
    obs_snapshot = None
    if task.final:
        del live[task.session]
        if runtime.obs is not None:
            if health.control is not None:
                fold_control_metrics(runtime.obs.metrics, health.control)
            obs_snapshot = runtime.obs.snapshot(runtime=runtime)
    return TaskResult(task_id=task.task_id, session=task.session,
                      records=records, rows=_rows(runtime, records),
                      health=dataclasses.asdict(health),
                      obs_snapshot=obs_snapshot)


def _rows(runtime: CentralNodeRuntime,
          records: Sequence[FrameRecord]) -> np.ndarray:
    """Encode *records* as :data:`OUTPUT_COLUMNS` rows."""
    machines = {name: float(i) for i, name
                in enumerate(runtime.controller.machine_names)}
    statuses = {status: float(i) for i, status in enumerate(STATUS_CODES)}
    rows = np.empty((len(records), len(OUTPUT_COLUMNS)))
    for i, r in enumerate(records):
        machine = r.decision.machine
        rows[i] = (float(r.decision.score),
                   -1.0 if machine is None else machines[machine],
                   float(r.total_latency_s), float(r.node_latency_s),
                   float(r.hub_delay_s), statuses[r.status],
                   1.0 if r.published else 0.0)
    return rows


# ----------------------------------------------------------------------
# Local worker link
# ----------------------------------------------------------------------
def _worker_main(spec: FarmSpec, conn, supervisor_pid: int) -> None:
    """Worker loop: run the tasks *conn* brings until the ``None`` sentinel.

    One :class:`ReplicaSource` per process keeps replica builds warm
    across tasks; the ``live`` dict keeps each session's replica alive
    between its tasks.

    *conn* is this worker's private end of a duplex pipe: tasks arrive
    on it and results leave on it, each direction with one writer.
    ``send`` completes synchronously in this thread, so once a task's
    result is on the wire no later crash can retract or block it.  A
    deterministic task failure is reported as its traceback text before
    the worker dies, so the supervisor can fail loudly instead of
    requeue-looping a poisoned task.

    Orphan guard: the worker exits as soon as its parent is no longer
    *supervisor_pid* (the supervisor's own pid, handed over at spawn),
    checked before every read, and reads time out each idle second.  A
    supervisor that dies without sending the sentinel (SIGKILLed host
    agent, crashed parent) re-parents the worker to init or a
    subreaper, so ``getppid()`` changes the moment it dies, even while
    the worker is still starting up; its end of the pipe closing ends
    the loop too.
    """
    source = ReplicaSource(spec)
    live: Dict[int, tuple] = {}
    try:
        while os.getppid() == supervisor_pid:
            if not conn.poll(1.0):
                continue
            try:
                task = conn.recv()
            except EOFError:
                break
            if task is None:
                break
            if task.crash:
                # Test hook: die hard (no cleanup, no result) so the
                # supervisor exercises real crash detection.
                os._exit(13)
            try:
                result = execute_task(spec, task, source=source, live=live)
            except Exception:
                import traceback

                conn.send((task.task_id, traceback.format_exc()))
                raise
            conn.send((task.task_id, result))
    finally:
        conn.close()


class _WorkerLink:
    """A local spawn worker behind one private duplex pipe, whose EOF
    means the worker died."""

    slots = 1

    def __init__(self, ctx, spec: FarmSpec):
        self.handle, child = ctx.Pipe()
        self.proc = ctx.Process(target=_worker_main,
                                args=(spec, child, os.getpid()), daemon=True)
        self.proc.start()
        # Drop the parent's copy of the child's end so the pipe hits EOF
        # the instant its (sole) worker dies.
        child.close()
        self.pid = self.proc.pid
        self.name = f"worker {self.pid}"
        self.inflight: Dict[int, Task] = {}

    def send(self, task: Optional[Task]) -> None:
        self.handle.send(task)

    def recv(self) -> List[Tuple[int, Any]]:
        try:
            tid, result = self.handle.recv()
        except EOFError:
            raise ConnectionError(f"{self.name} exited") from None
        if isinstance(result, str):
            raise WorkerCrashError(f"{self.name} failed task {tid}:\n{result}")
        return [(tid, result)]

    def close(self) -> None:
        """Ask the worker to exit; :meth:`join` waits for it."""
        try:
            self.send(None)
        except OSError:
            pass

    def join(self) -> None:
        self.proc.join(timeout=5.0)
        if self.proc.is_alive():  # pragma: no cover - defensive
            self.proc.terminate()
            self.proc.join(timeout=1.0)
        self.handle.close()


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
@dataclass
class PoolStats:
    """Supervisor bookkeeping, cumulative over the pool's lifetime.

    ``worker_restarts`` counts respawned local workers,
    ``host_failures`` lost host-agent connections; both spend the one
    restart budget, and every self-contained task a lost link held is
    counted in ``requeued_tasks``.
    """

    workers: int = 0
    worker_restarts: int = 0
    requeued_tasks: int = 0
    host_failures: int = 0


@dataclass
class BlockHandle:
    """The tasks of one :meth:`Pool.submit` call on their way through.

    ``results`` fills in by ``task_id``.  ``failed`` collects the
    continuations the pool could not run because their session's state
    died with its link (the caller owns the history and decides whether
    to resubmit with replay).
    """

    tasks: Tuple[Task, ...]
    results: Dict[int, TaskResult] = field(default_factory=dict)
    failed: List[Task] = field(default_factory=list)

    @property
    def done(self) -> bool:
        return len(self.results) + len(self.failed) == len(self.tasks)


class Pool:
    """A persistent pool of links: local spawn workers and host agents.

    Lifecycle: :meth:`start` spawns *workers* local worker processes
    (each holding a warm :class:`ReplicaSource`) and connects to every
    ``"host:port"`` in *hosts* (running
    :class:`~repro.serve.remote.HostAgent`\\ s, each link as wide as
    the agent's worker count); :meth:`submit` queues tasks;
    :meth:`pump` (or :meth:`wait`) dispatches, waits on every link's
    readable handle at once, collects results and repairs lost links;
    :meth:`close` tears the pool down.

    Routing: a session that has a home link — the link holding its
    replica — goes there; otherwise only a self-contained task may run,
    on the link with the most free slots, which becomes its home.  A
    continuation with no home is failed back to its handle.

    A lost link (worker exit or host partition, seen as EOF on its
    handle) requeues the self-contained tasks it held at the front of
    the queue, fails its continuations back, and spends one unit of the
    ``max_restarts`` budget; exceeding it raises
    :class:`WorkerCrashError`.  A lost worker is respawned, idle or
    busy, so the pool holds its capacity (an N-worker pool that quietly
    degrades to one worker would pass every bit-identity test while
    losing all its throughput).  A lost host is not reconnected; losing
    the last link raises.
    """

    def __init__(self, spec: FarmSpec, workers: int = 0, *,
                 hosts: Sequence[Any] = (), max_restarts: int = MAX_RESTARTS):
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
        if not workers and not hosts:
            raise ValueError("a pool needs at least one worker or host")
        self.spec = spec
        self.workers = workers
        self.hosts = tuple(hosts)
        self.max_restarts = max_restarts
        self.stats = PoolStats()
        self.links: List[Any] = []
        self._ctx = None
        self._pending: Deque[Task] = deque()
        self._blocks: Dict[int, BlockHandle] = {}   # task_id -> handle
        self._homes: Dict[int, Any] = {}            # session -> link
        self._last_progress = time.monotonic()

    # -- lifecycle -----------------------------------------------------
    @property
    def started(self) -> bool:
        return self._ctx is not None

    @property
    def n_workers(self) -> int:
        """Worker slots over every live link."""
        return sum(link.slots for link in self.links)

    def start(self) -> "Pool":
        """Connect the hosts and spawn the workers (idempotent)."""
        if self._ctx is None:
            import multiprocessing as mp

            self._ctx = mp.get_context(START_METHOD)
            if self.hosts:
                from repro.serve.remote import _HostLink

                payload = pickle.dumps(self.spec)
                self.links += [_HostLink(h, payload) for h in self.hosts]
            self.links += [_WorkerLink(self._ctx, self.spec)
                           for _ in range(self.workers)]
            self.stats.workers = self.n_workers
            self._last_progress = time.monotonic()
        return self

    def close(self) -> None:
        """Tear the pool down (sentinels first, then join every worker)."""
        for link in self.links:
            link.close()
        for link in self.links:
            link.join()
        self.links.clear()
        self._pending.clear()
        self._blocks.clear()
        self._homes.clear()
        self._ctx = None

    # -- introspection -------------------------------------------------
    def alive_workers(self) -> int:
        """Live local worker processes right now."""
        return sum(1 for link in self.links
                   if isinstance(link, _WorkerLink) and link.proc.is_alive())

    def home(self, session: int) -> Any:
        """The link holding *session*'s replica, if any."""
        return self._homes.get(session)

    def handles(self) -> List[Any]:
        """Every link's readable handle, for an embedding event loop.

        Readiness (a result, or EOF) means "call :meth:`pump` now";
        never read a handle directly.  The set changes when a link is
        lost or respawned, so re-read it after every pump.
        """
        return [link.handle for link in self.links]

    # -- submission ----------------------------------------------------
    def submit(self, tasks: Sequence[Task]) -> BlockHandle:
        """Queue *tasks*; ids must be unique among work in flight."""
        if not self.started:
            raise RuntimeError("pool is not started")
        if not tasks:
            raise ValueError("submit needs at least one task")
        ids = [t.task_id for t in tasks]
        if len(set(ids)) != len(ids) or set(ids) & self._blocks.keys():
            raise ValueError(f"task ids {ids} collide with work in flight")
        handle = BlockHandle(tuple(tasks))
        self._blocks.update((tid, handle) for tid in ids)
        self._pending.extend(tasks)
        self._last_progress = time.monotonic()
        return handle

    # -- supervision ---------------------------------------------------
    def pump(self, timeout_s: float = 0.05) -> bool:
        """One supervision step: dispatch, wait, collect, repair, and
        dispatch again into the slots the news freed.

        Returns True when any link had news (a result or a lost link).
        Raises :class:`WorkerCrashError` on budget exhaustion, a
        reported task error, or a stall (work outstanding, nothing
        moving).
        """
        if not self.started:
            raise RuntimeError("pool is not started")
        self._dispatch()
        by_handle = {link.handle: link for link in self.links}
        ready = mp_connection.wait(list(by_handle), timeout_s)
        for h in ready:
            link = by_handle[h]
            try:
                for tid, result in link.recv():
                    self._settle(link.inflight.pop(tid), result)
            except ConnectionError as exc:
                self._lose(link, str(exc))
        if ready:
            self._last_progress = time.monotonic()
            self._dispatch()
        elif (self._blocks and time.monotonic() - self._last_progress
              > STALL_TIMEOUT_S):
            raise WorkerCrashError(
                f"no progress for {STALL_TIMEOUT_S:.0f}s "
                f"({len(self._blocks)} tasks outstanding)")
        return bool(ready)

    def wait(self, handle: BlockHandle,
             timeout_s: Optional[float] = None) -> BlockHandle:
        """Pump until *handle* completes (stall timeout still applies)."""
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        while not handle.done:
            self.pump()
            if deadline is not None and time.monotonic() > deadline:
                raise WorkerCrashError(
                    f"tasks incomplete after {timeout_s:.0f}s")
        return handle

    def _dispatch(self) -> None:
        for task in list(self._pending):
            link = self._homes.get(task.session)
            if link is None and not task.self_contained:
                self._pending.remove(task)
                self._settle(task, None)
                continue
            if link is None:
                link = max(self.links, key=_free_slots)
            if _free_slots(link) < 1:
                continue
            self._pending.remove(task)
            link.inflight[task.task_id] = task
            self._homes[task.session] = link
            try:
                link.send(task)
            except OSError as exc:
                self._lose(link, f"send failed: {exc}")

    def _settle(self, task: Task, result: Optional[TaskResult]) -> None:
        """Hand *task*'s result to its handle; None fails it back."""
        handle = self._blocks.pop(task.task_id)
        if result is None or task.final:
            self._homes.pop(task.session, None)
        if result is None:
            handle.failed.append(task)
        else:
            handle.results[task.task_id] = result

    def _lose(self, link: Any, reason: str) -> None:
        """A link died: requeue or fail its tasks, spend budget, respawn."""
        self.links.remove(link)
        link.close()
        link.join()
        self._homes = {s: l for s, l in self._homes.items() if l is not link}
        for task in reversed(list(link.inflight.values())):
            if task.self_contained:
                self.stats.requeued_tasks += 1
                self._pending.appendleft(dataclasses.replace(task, crash=False))
            else:
                self._settle(task, None)
        local = isinstance(link, _WorkerLink)
        if local:
            self.stats.worker_restarts += 1
        else:
            self.stats.host_failures += 1
        if (self.stats.worker_restarts + self.stats.host_failures
                > self.max_restarts):
            raise WorkerCrashError(
                f"restart budget exhausted ({self.max_restarts} restarts); "
                f"last casualty was {link.name} ({reason})")
        if local:
            self.links.append(_WorkerLink(self._ctx, self.spec))
        elif not self.links:
            raise WorkerCrashError(
                f"every link is lost (last: {link.name}, {reason})")
        self.stats.workers = self.n_workers


def _free_slots(link: Any) -> int:
    return link.slots - len(link.inflight)
