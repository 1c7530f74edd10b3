"""``repro.serve.daemon`` — the persistent async serving front-end.

Architecture (one process, two concurrency domains):

* **asyncio event loop** — accepts many concurrent client connections
  (:mod:`repro.serve.protocol` framing), runs per-stream admission
  control + micro-batching (:class:`StreamIngress`, sans-io so the
  deterministic parts are unit-testable without sockets), and is the
  *only* owner of the started :class:`~repro.serve.workers.Pool`: it
  keeps a reader on every link handle (:meth:`Pool.handles`), pumps
  the pool when one is readable or a batch is submitted (supervision
  included: crash detection, respawn, requeue), and resolves the
  batches waiting on it.  One thread touches the pool, so no pool
  state is ever shared; the host agent follows the same rule.
* **persistent worker processes** — spawned once, each holding a warm
  :class:`~repro.serve.workers.ReplicaSource` and the live per-stream
  runtime replicas (a stream's home worker is the pool's routing).

Determinism contract — the daemon extension of docs/serving.md:

* Batch boundaries are a pure function of each stream's *accepted*
  frame sequence: the ingress clock is ``accepted_index * period_s``
  (``"stream"`` mode) or all-zeros (``"backlog"`` mode), never wall
  time.  Two runs that accept the same frames produce the same
  batches, seeds, and records.
* Each stream is served by one persistent runtime replica fed its
  batches in order — exactly the sequential reference
  (:func:`serve_streams_reference`) — so concurrent streams are
  bit-identical to serving each stream alone.
* Crash recovery replays: when a stream's home worker dies, the pool
  fails the next batch back and the daemon resubmits it with the
  stream's full accepted history (``Task.replay``); the fresh replica
  re-runs history batch-by-batch and lands in the lost state
  bit-exactly.  The daemon retains accepted frames per stream for this
  until the stream drains (the documented memory cost of a
  crash-survivable stream).
* A stream that drains (ended, every batch completed) sends one
  ``final`` task: its worker returns the obs snapshot and drops the
  replica, and the daemon drops the stream's frames and history.
* Shedding is *admission-time*: a refused frame never enters the
  stream, so the accepted subsequence — and therefore every record —
  is exactly what a client that never sent the shed frames would get.
  Shed counts are reported in ``FarmHealth.frames_shed`` and the
  ``serve.frames_shed`` counter of the merged ``repro-obs/1`` export.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.serve.batching import (
    BatchingPolicy,
    MicroBatcher,
    arrivals,
    check_arrival_mode,
    plan_microbatches,
)
from repro.serve.health import FarmHealth, merge_shard_health
from repro.serve.merge import merge_obs_snapshots
from repro.serve.protocol import (
    ASSIGN_STREAM,
    MessageDecoder,
    MsgKind,
    ProtocolError,
    SERVE_PROTO_VERSION,
    StreamClient,
    pack_eos,
    pack_error,
    pack_result,
    pack_shed,
    pack_welcome,
    unpack_frame,
    unpack_hello,
)
from repro.serve.workers import (
    OUTPUT_COLUMNS,
    BlockHandle,
    FarmSpec,
    Pool,
    Task,
    TaskResult,
    execute_task,
)
from repro.soc.board import FRAME_PERIOD_S
from repro.soc.runtime import FrameRecord

__all__ = [
    "StreamIngress",
    "ServingDaemon",
    "DaemonHandle",
    "DaemonReport",
    "ReferenceStream",
    "serve_streams_reference",
    "drive_streams",
]

#: While batches wait on the pool, the loop pumps it at least this often
#: (s), so the pool's stall guard (``STALL_TIMEOUT_S``) fires even when
#: no link ever answers.
STALL_CHECK_S = 1.0


def _spec_n_monitors(spec: FarmSpec) -> int:
    """Monitors per frame, from the spec's model (0 = unknown)."""
    model = spec.model
    shape = getattr(model, "input_shape", None)
    if shape is None:
        inputs = getattr(model, "inputs", None)
        if inputs:
            shape = getattr(inputs[0], "shape", None)
    if shape is None:
        return 0
    try:
        return int(np.prod(tuple(shape)))
    except (TypeError, ValueError):  # pragma: no cover - defensive
        return 0


# ----------------------------------------------------------------------
# Sans-io per-stream admission + batching
# ----------------------------------------------------------------------
class StreamIngress:
    """Admission control + micro-batching for one stream (sans-io).

    Deterministic by construction: :meth:`offer` decides shed-or-accept
    from the queue depth (``accepted - completed`` vs ``queue_limit``)
    and stamps accepted frames on the simulated arrival clock
    (``accepted_index * period_s``), so given the same sequence of
    ``offer``/``mark_completed`` calls the accepted set, the batch
    boundaries, and the shed count are all reproducible — which is how
    the overload tests pin shedding exactly, with no sockets involved.
    """

    def __init__(self, stream_id: int, *,
                 policy: Optional[BatchingPolicy] = None,
                 period_s: float = FRAME_PERIOD_S,
                 queue_limit: int = 64,
                 arrival_mode: str = "stream"):
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self.stream_id = stream_id
        self.policy = policy or BatchingPolicy()
        self.period_s = period_s
        self.queue_limit = queue_limit
        self.arrival_mode = check_arrival_mode(arrival_mode)
        self.frames: List[np.ndarray] = []   # accepted, stream-local order
        self.ready: Deque[Tuple[int, int]] = deque()
        self.accepted = 0
        self.completed = 0
        self.shed = 0
        self.ended = False
        self._batcher = MicroBatcher(self.policy)

    @property
    def queue_depth(self) -> int:
        """Accepted frames not yet completed (in queue or in flight)."""
        return self.accepted - self.completed

    def offer(self, frame: np.ndarray) -> bool:
        """Admit or shed one frame; True when accepted."""
        if self.ended or self.queue_depth >= self.queue_limit:
            self.shed += 1
            return False
        t = (0.0 if self.arrival_mode == "backlog"
             else self.accepted * self.period_s)
        flushed = self._batcher.push(t)
        if flushed is not None:
            self.ready.append(flushed)
        self.frames.append(np.asarray(frame, dtype=np.float64))
        self.accepted += 1
        return True

    def end(self) -> None:
        """End of stream: flush the tail batch, refuse further frames."""
        if self.ended:
            return
        self.ended = True
        tail = self._batcher.flush()
        if tail is not None:
            self.ready.append(tail)

    def next_ready(self) -> Optional[Tuple[int, int]]:
        return self.ready.popleft() if self.ready else None

    def mark_completed(self, n: int) -> None:
        self.completed += n

    @property
    def drained(self) -> bool:
        """Ended, nothing queued, nothing in flight."""
        return self.ended and not self.ready and self.completed == self.accepted


# ----------------------------------------------------------------------
# Daemon
# ----------------------------------------------------------------------
@dataclass
class DaemonReport:
    """Final accounting of one daemon epoch (between start and drain)."""

    health: FarmHealth
    obs: Optional[Dict[str, Any]]
    streams: int
    frames_total: int
    frames_shed: int
    batches: int
    worker_restarts: int
    requeued_tasks: int


class _Stream:
    __slots__ = ("sid", "ingress", "writer", "seqs", "history", "batches",
                 "inflight", "finished", "last_health", "obs_snapshot",
                 "drained", "failed")

    def __init__(self, sid: int, ingress: StreamIngress, writer):
        self.sid = sid
        self.ingress = ingress
        self.writer = writer
        self.seqs: List[int] = []        # client seq per accepted frame
        self.history: List[Tuple[int, int]] = []   # completed batches
        self.batches = 0                 # completed batches, kept at finish
        self.inflight = False
        self.finished = False            # final task done, frames dropped
        self.last_health: Dict[str, Any] = {}
        self.obs_snapshot: Optional[Dict[str, Any]] = None
        self.drained = asyncio.Event()
        self.failed: Optional[BaseException] = None


class ServingDaemon:
    """Persistent asyncio serving front over a warm worker pool.

    Lifecycle: ``await start()`` spawns the pool and begins listening;
    clients connect, HELLO a stream id, and stream frames; ``await
    drain()`` stops admission, flushes every accepted frame, and
    returns the epoch's :class:`DaemonReport`; ``await reload()``
    drains and then swaps in a fresh pool (same or new spec) without
    dropping the listener; ``await stop()`` drains and tears everything
    down.  Both finish their teardown even when a stream failed, then
    raise that stream's error.  Synchronous callers use
    :class:`DaemonHandle`.
    """

    def __init__(self, spec: FarmSpec, *, workers: int = 4,
                 batching: Optional[BatchingPolicy] = None,
                 seed: Optional[int] = 0,
                 queue_limit: int = 64,
                 arrival_mode: str = "stream",
                 host: str = "127.0.0.1", port: int = 0,
                 max_restarts: int = 32):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.spec = spec
        self.workers = workers
        self.batching = batching or BatchingPolicy()
        self.seed = seed
        self.queue_limit = queue_limit
        self.arrival_mode = check_arrival_mode(arrival_mode)
        self.host = host
        self.port = port
        self.max_restarts = max_restarts
        self.n_monitors = _spec_n_monitors(spec)
        self._streams: Dict[int, _Stream] = {}
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._pool: Optional[Pool] = None
        self._pool_error: Optional[BaseException] = None
        self._waiting: List[Tuple[BlockHandle, asyncio.Future]] = []
        self._readers: Dict[Any, int] = {}      # pool handle -> its fd
        self._stall_check: Optional[asyncio.TimerHandle] = None
        self._tasks: set = set()
        self._next_tid = 0
        self._next_auto_sid = 0
        self._draining = False
        self._closed = False

    # -- lifecycle -----------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        if self._server is None:
            raise RuntimeError("daemon is not started")
        return self._server.sockets[0].getsockname()[:2]

    async def start(self) -> "ServingDaemon":
        if self._server is not None:
            raise RuntimeError("daemon already started")
        self._loop = asyncio.get_running_loop()
        # Bind first: a taken port then fails before any worker spawns.
        self._server = await asyncio.start_server(
            self._handle_conn, host=self.host, port=self.port)
        self._start_pool()
        return self

    async def drain(self) -> DaemonReport:
        """Stop admission, flush all accepted frames, report the epoch.

        Every frame accepted before the drain is still executed and its
        result delivered; frames arriving during the drain are shed.
        Streams still open are ended, and each finishes as it drains
        (final task included).  Idempotent per epoch (a second drain
        reports the same totals).
        """
        self._draining = True
        streams = list(self._streams.values())
        for s in streams:
            s.ingress.end()
            self._maybe_dispatch(s)
        for s in streams:
            await s.drained.wait()
        for s in streams:
            if s.failed is not None:
                raise s.failed
        return self._report(streams)

    async def reload(self, spec: Optional[FarmSpec] = None) -> DaemonReport:
        """Drain, then swap in a fresh pool (optionally a new spec).

        The listener stays up throughout; live client connections are
        closed after their results are delivered (clients reconnect to
        the new epoch).  Stream ids may be reused after the reload.
        """
        try:
            return await self.drain()
        finally:
            self._close_clients()
            self._close_pool(RuntimeError("the daemon reloaded its pool"))
            if spec is not None:
                self.spec = spec
                self.n_monitors = _spec_n_monitors(spec)
            self._streams.clear()
            self._start_pool()
            self._draining = False

    async def stop(self) -> DaemonReport:
        """Drain, close the listener, tear down the pool."""
        try:
            return await self.drain()
        finally:
            self._closed = True
            if self._server is not None:
                self._server.close()
                await self._server.wait_closed()
            self._close_clients()
            self._close_pool(RuntimeError("the daemon is stopped"))

    def _close_clients(self) -> None:
        for s in self._streams.values():
            if s.writer is not None:
                try:
                    s.writer.close()
                except Exception:  # pragma: no cover - defensive
                    pass

    # -- the pool, owned by the loop -----------------------------------
    def _start_pool(self) -> None:
        self._pool = Pool(self.spec, self.workers,
                          max_restarts=self.max_restarts).start()
        self._pool_error = None
        self._sync_readers()

    async def _run_task(self, task: Task) -> BlockHandle:
        """Submit *task* and wait until the pool settles it."""
        if self._pool_error is not None:
            raise self._pool_error
        done = self._loop.create_future()
        self._waiting.append((self._pool.submit([task]), done))
        self._pump()
        return await done

    def _pump(self) -> None:
        """Pump the pool once without waiting, then resolve the settled
        batches and re-sync the readers and the stall check."""
        try:
            self._pool.pump(0.0)
        except Exception as exc:
            self._close_pool(exc)
            return
        for handle, done in self._waiting:
            if handle.done and not done.done():
                done.set_result(handle)
        self._waiting = [(h, d) for h, d in self._waiting if not h.done]
        self._sync_readers()
        if self._waiting and self._stall_check is None:
            self._stall_check = self._loop.call_later(STALL_CHECK_S,
                                                      self._stall_tick)

    def _stall_tick(self) -> None:
        self._stall_check = None
        self._pump()

    def _sync_readers(self) -> None:
        """Keep one reader per live pool handle.  A lost link's handle is
        closed inside the pump and its respawn may reuse the fd number,
        so readers are tracked per handle object, and stale ones are
        removed before new ones are added."""
        live = self._pool.handles() if self._pool_error is None else []
        for handle in [h for h in self._readers if h not in live]:
            self._loop.remove_reader(self._readers.pop(handle))
        for handle in live:
            if handle not in self._readers:
                self._readers[handle] = handle.fileno()
                self._loop.add_reader(self._readers[handle], self._pump)

    def _close_pool(self, error: BaseException) -> None:
        """Stop driving the pool and close it; every batch waiting on it,
        and every later one, fails with *error*."""
        if self._pool_error is not None:
            return
        self._pool_error = error
        self._sync_readers()
        if self._stall_check is not None:
            self._stall_check.cancel()
            self._stall_check = None
        for _handle, done in self._waiting:
            if not done.done():
                done.set_exception(error)
        self._waiting = []
        self._pool.close()

    # -- per-connection handler ----------------------------------------
    def _allocate_sid(self, requested: int) -> Optional[int]:
        if requested != ASSIGN_STREAM:
            if requested in self._streams:
                return None
            return requested
        while self._next_auto_sid in self._streams:
            self._next_auto_sid += 1
        sid = self._next_auto_sid
        self._next_auto_sid += 1
        return sid

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        decoder = MessageDecoder()
        stream: Optional[_Stream] = None
        sock = writer.get_extra_info("socket")
        if sock is not None:
            # RESULT messages go out per frame; Nagle would park each
            # one behind the previous unACKed write for up to a
            # delayed-ACK interval.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            while True:
                data = await reader.read(1 << 16)
                if not data:
                    break
                try:
                    decoder.feed(data)
                    msgs = list(decoder)
                except ProtocolError as exc:
                    writer.write(pack_error(f"protocol error: {exc}"))
                    await writer.drain()
                    break
                for kind, payload in msgs:
                    if kind == MsgKind.HELLO:
                        try:
                            version, requested = unpack_hello(payload)
                        except ProtocolError as exc:
                            writer.write(pack_error(str(exc)))
                            await writer.drain()
                            return
                        if version != SERVE_PROTO_VERSION:
                            # Application-level refusal, not a framing
                            # violation: a too-new client gets a clean
                            # ERROR + close instead of decoder poison.
                            writer.write(pack_error(
                                f"unsupported repro-serve protocol "
                                f"version {version} (server speaks "
                                f"{SERVE_PROTO_VERSION})"))
                            await writer.drain()
                            return
                        if stream is not None:
                            writer.write(pack_error("duplicate HELLO"))
                            await writer.drain()
                            return
                        if self._draining or self._closed:
                            writer.write(pack_error("daemon is draining"))
                            await writer.drain()
                            return
                        sid = self._allocate_sid(requested)
                        if sid is None:
                            writer.write(pack_error(
                                "stream id already in use"))
                            await writer.drain()
                            return
                        ingress = StreamIngress(
                            sid, policy=self.batching,
                            period_s=self.spec.period_s,
                            queue_limit=self.queue_limit,
                            arrival_mode=self.arrival_mode)
                        stream = _Stream(sid, ingress, writer)
                        self._streams[sid] = stream
                        writer.write(pack_welcome(sid, self.n_monitors))
                        await writer.drain()
                        continue
                    if stream is None:
                        writer.write(pack_error("HELLO required first"))
                        await writer.drain()
                        return
                    if kind == MsgKind.FRAME:
                        try:
                            seq, vec = unpack_frame(payload)
                        except ProtocolError as exc:
                            writer.write(pack_error(str(exc)))
                            await writer.drain()
                            return
                        if self.n_monitors and len(vec) != self.n_monitors:
                            writer.write(pack_error(
                                f"frame has {len(vec)} samples, stream "
                                f"expects {self.n_monitors}"))
                            await writer.drain()
                            return
                        if self._draining or not stream.ingress.offer(vec):
                            if self._draining:
                                stream.ingress.shed += 1
                            writer.write(pack_shed(seq))
                            await writer.drain()
                            continue
                        stream.seqs.append(seq)
                        self._maybe_dispatch(stream)
                    elif kind == MsgKind.EOS:
                        stream.ingress.end()
                        self._maybe_dispatch(stream)
                        await stream.drained.wait()
                        if stream.failed is not None:
                            writer.write(pack_error(
                                f"stream failed: {stream.failed}"))
                        else:
                            writer.write(pack_eos())
                        await writer.drain()
                        return
                    else:
                        writer.write(pack_error(
                            f"unexpected {kind.name} from client"))
                        await writer.drain()
                        return
        finally:
            if stream is not None:
                # Disconnect without EOS: accepted frames still run to
                # completion (drain must lose nothing), results are
                # discarded at the dead socket.
                stream.ingress.end()
                stream.writer = None
                self._maybe_dispatch(stream)
            try:
                writer.close()
            except Exception:  # pragma: no cover - defensive
                pass

    # -- batch dispatch ------------------------------------------------
    def _maybe_dispatch(self, s: _Stream) -> None:
        """Start the stream's next step — a ready batch, or its final
        task once drained — or mark it drained when none is left."""
        if s.inflight:
            return
        if s.failed is not None or s.finished:
            s.drained.set()
            return
        nxt = s.ingress.next_ready()
        if nxt is not None:
            coro = self._run_batch(s, *nxt)
        elif s.ingress.drained:
            coro = self._finish(s)
        else:
            return
        s.inflight = True
        task = asyncio.get_running_loop().create_task(self._step(s, coro))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _step(self, s: _Stream, coro) -> None:
        """Await one step of *s*; a failure fails the stream."""
        try:
            await coro
        except BaseException as exc:
            s.failed = exc
        finally:
            s.inflight = False
            self._maybe_dispatch(s)

    async def _run_batch(self, s: _Stream, a: int, b: int) -> None:
        result = await self._execute_batch(s, a, b)
        s.history.append((a, b))
        s.batches += 1
        s.last_health = result.health
        s.ingress.mark_completed(b - a)
        if s.writer is not None:
            try:
                for seq, row in zip(s.seqs[a:b], result.rows):
                    s.writer.write(pack_result(seq, row))
                await s.writer.drain()
            except (ConnectionError, RuntimeError):
                s.writer = None

    async def _execute_batch(self, s: _Stream, a: int, b: int) -> TaskResult:
        """Run batch ``[a, b)`` on the stream's home worker; when the pool
        fails that continuation back (the home died with the replica),
        resubmit it replaying the stream's history on a fresh one."""
        for replay in ((), tuple(s.history)):
            n_replay = sum(y - x for x, y in replay)
            task = Task(task_id=self._alloc_tid(), session=s.sid,
                        seed_entropy=self.seed, batches=((a, b),), start=a,
                        replay=replay,
                        frames=np.asarray(s.ingress.frames[a - n_replay:b],
                                          dtype=np.float64))
            handle = await self._run_task(task)
            if not handle.failed:
                return handle.results[task.task_id]
        raise RuntimeError(f"stream {s.sid}: batch ({a}, {b}) failed after "
                           f"replaying its history")

    async def _finish(self, s: _Stream) -> None:
        """The stream drained: collect its final health and obs snapshot
        (its worker drops the replica), then drop its frames and
        history, keeping the batch count for the report."""
        if s.batches:
            task = Task(task_id=self._alloc_tid(), session=s.sid,
                        seed_entropy=self.seed, start=s.ingress.accepted,
                        final=True)
            handle = await self._run_task(task)
            # Failed back when the home died after the last batch: keep
            # the last batch's (cumulative) health; the obs snapshot is
            # lost with the replica.
            result = handle.results.get(task.task_id)
            if result is not None:
                s.last_health = result.health
                s.obs_snapshot = result.obs_snapshot
        s.ingress.frames, s.history, s.seqs = [], [], []
        s.finished = True

    def _alloc_tid(self) -> int:
        tid = self._next_tid
        self._next_tid += 1
        return tid

    # -- reporting -----------------------------------------------------
    def _report(self, streams: List[_Stream]) -> DaemonReport:
        streams = sorted(streams, key=lambda s: s.sid)
        shard_health = [s.last_health for s in streams if s.last_health]
        frames_total = sum(s.ingress.accepted for s in streams)
        frames_shed = sum(s.ingress.shed for s in streams)
        batches = sum(s.batches for s in streams)
        stats = self._pool.stats
        health = merge_shard_health(
            shard_health,
            n_shards=len(streams),
            workers=self.workers,
            batches=batches,
            worker_restarts=stats.worker_restarts,
            requeued_tasks=stats.requeued_tasks,
            frames_shed=frames_shed,
        )
        obs = None
        snaps = [s.obs_snapshot for s in streams if s.obs_snapshot]
        if snaps:
            obs = merge_obs_snapshots(
                snaps, extra_meta={"streams": len(streams),
                                   "workers": self.workers})
            counters = obs.setdefault("metrics", {}).setdefault(
                "counters", {})
            counters["serve.frames_shed"] = frames_shed
        return DaemonReport(
            health=health,
            obs=obs,
            streams=len(streams),
            frames_total=frames_total,
            frames_shed=frames_shed,
            batches=batches,
            worker_restarts=stats.worker_restarts,
            requeued_tasks=stats.requeued_tasks,
        )


# ----------------------------------------------------------------------
# Synchronous wrapper
# ----------------------------------------------------------------------
def _halt_loop(loop: asyncio.AbstractEventLoop, thread: threading.Thread,
               timeout_s: float) -> None:
    """Stop *loop*, join the thread running it and close it once that
    thread has ended (a loop that still runs cannot be closed)."""
    loop.call_soon_threadsafe(loop.stop)
    thread.join(timeout=timeout_s)
    if not thread.is_alive():
        loop.close()


class DaemonHandle:
    """A :class:`ServingDaemon` on a background event loop.

    The facade for synchronous callers (tests, benchmarks, the CLI):
    ``DaemonHandle.launch(spec)`` returns once the daemon is listening;
    ``handle.client()`` connects a :class:`StreamClient`;
    ``drain()``/``reload()``/``stop()`` proxy the async calls.  Also a
    context manager (``with`` stops the daemon on exit).
    """

    def __init__(self, daemon: ServingDaemon, loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread):
        self.daemon = daemon
        self._loop = loop
        self._thread = thread
        self._stopped = False

    @classmethod
    def launch(cls, spec: FarmSpec, *, timeout_s: float = 120.0,
               **daemon_kwargs) -> "DaemonHandle":
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True,
                                  name="repro-serve-daemon")
        thread.start()

        async def boot() -> ServingDaemon:
            daemon = ServingDaemon(spec, **daemon_kwargs)
            await daemon.start()
            return daemon

        fut = asyncio.run_coroutine_threadsafe(boot(), loop)
        try:
            daemon = fut.result(timeout=timeout_s)
        except Exception:
            _halt_loop(loop, thread, timeout_s=5.0)
            raise
        return cls(daemon, loop, thread)

    @property
    def address(self) -> Tuple[str, int]:
        return self.daemon.address

    def client(self, stream_id: int = ASSIGN_STREAM,
               **kwargs) -> StreamClient:
        host, port = self.address
        return StreamClient(host, port, stream_id=stream_id, **kwargs)

    def _call(self, coro, timeout_s: float):
        fut = asyncio.run_coroutine_threadsafe(coro, self._loop)
        return fut.result(timeout=timeout_s)

    def drain(self, timeout_s: float = 300.0) -> DaemonReport:
        return self._call(self.daemon.drain(), timeout_s)

    def reload(self, spec: Optional[FarmSpec] = None,
               timeout_s: float = 300.0) -> DaemonReport:
        return self._call(self.daemon.reload(spec), timeout_s)

    def stop(self, timeout_s: float = 300.0) -> Optional[DaemonReport]:
        if self._stopped:
            return None
        try:
            return self._call(self.daemon.stop(), timeout_s)
        finally:
            self._stopped = True
            _halt_loop(self._loop, self._thread, timeout_s=10.0)

    def __enter__(self) -> "DaemonHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


# ----------------------------------------------------------------------
# Sequential reference
# ----------------------------------------------------------------------
@dataclass
class ReferenceStream:
    """One stream's sequential-reference output."""

    records: List[FrameRecord]
    rows: np.ndarray                    # (n, len(OUTPUT_COLUMNS))
    batches: List[Tuple[int, int]]
    health: Dict[str, Any] = field(default_factory=dict)


def serve_streams_reference(spec: FarmSpec,
                            stream_frames: Mapping[int, np.ndarray], *,
                            batching: Optional[BatchingPolicy] = None,
                            seed: Optional[int] = 0,
                            arrival_mode: str = "stream",
                            period_s: Optional[float] = None,
                            ) -> Dict[int, ReferenceStream]:
    """The daemon's bit-identity reference, sequential and in-process.

    One persistent replica per stream, fed the same micro-batch plan
    the daemon's ingress produces for the same accepted frames (the
    plan is a pure function of accepted count, policy, and arrival
    mode).  A daemon serving these frames — any worker count, any
    interleaving, with or without crash replays — must reproduce these
    records and output rows bit-exactly.
    """
    policy = batching or BatchingPolicy()
    if period_s is None:
        period_s = spec.period_s
    out: Dict[int, ReferenceStream] = {}
    for sid, frames in stream_frames.items():
        frames = np.ascontiguousarray(frames, dtype=np.float64)
        plan = plan_microbatches(
            arrivals(frames.shape[0], arrival_mode, period_s), policy)
        result = execute_task(spec, Task(task_id=sid, session=sid,
                                         seed_entropy=seed,
                                         batches=tuple(plan), frames=frames))
        out[sid] = ReferenceStream(records=result.records, rows=result.rows,
                                   batches=plan, health=result.health)
    return out


def drive_streams(handle: DaemonHandle,
                  stream_frames: Mapping[int, np.ndarray], *,
                  timeout_s: float = 600.0,
                  ) -> Tuple[Dict[int, np.ndarray], Dict[int, List[int]],
                             float]:
    """Feed interleaved client streams through a live daemon.

    Opens one client per stream id of *stream_frames*, sends one frame
    per stream per pass and pumps each socket after its send, so every
    stream advances in lock-step from one thread; then finishes every
    stream.  Returns ``(rows, shed, wall_s)``: each stream's result rows
    in sequence order (the accepted frames only, so they equal
    :func:`serve_streams_reference` over those frames), each stream's
    shed sequence numbers, and the wall seconds from the first connect
    to the last result.
    """
    clients: Dict[int, StreamClient] = {}
    t0 = time.perf_counter()
    try:
        for sid in stream_frames:
            clients[sid] = handle.client(stream_id=sid)
        longest = max(map(len, stream_frames.values()), default=0)
        for i in range(longest):
            for sid, frames in stream_frames.items():
                if i < len(frames):
                    clients[sid].send(frames[i])
                clients[sid].pump()
        for client in clients.values():
            client.finish(timeout_s=timeout_s)
        wall_s = time.perf_counter() - t0
    finally:
        for client in clients.values():
            client.close()
    rows = {sid: np.array([c.results[seq] for seq in sorted(c.results)],
                          dtype=np.float64).reshape(-1, len(OUTPUT_COLUMNS))
            for sid, c in clients.items()}
    shed = {sid: sorted(c.shed) for sid, c in clients.items()}
    return rows, shed, wall_s
