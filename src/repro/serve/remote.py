"""Cross-host shard transport (``repro-hosts/1``): agents + host pool.

The farm's execution layer so far assumed one machine: spawn workers
sharing :class:`~multiprocessing.shared_memory.SharedMemory` blocks
with the supervisor.  This module extends the same contract across a
network boundary with nothing but the stdlib:

* :class:`HostAgent` — a process listening on a TCP socket.  It
  receives a pickled :class:`~repro.serve.workers.FarmSpec` once
  (``HOST_SPEC``), starts its own local
  :class:`~repro.serve.workers.WorkerPool` (each worker holding the
  warm :class:`~repro.serve.workers.ReplicaSource` byte template, so
  the cold conversion/compilation is paid once per host), and then
  executes self-contained :class:`~repro.serve.workers.ShardTask`\\ s
  shipped as ``HOST_TASK`` messages, answering each with a
  ``HOST_RESULT`` carrying the pickled
  :class:`~repro.serve.workers.TaskResult` (records, health, and the
  per-shard ``repro-obs/1`` snapshot) plus the output rows.
* :class:`HostPool` — the farm-side front-end.  It presents the same
  ``start/submit/pump/wait/close/run`` surface as
  :class:`~repro.serve.workers.WorkerPool` but dispatches each shard
  task to whichever executor has a free slot — an optional in-process
  worker pool or any connected host agent — so local and remote
  capacity are used uniformly.

**Bit-identity across the wire.**  A shard task is pure: fresh
replica, spawn-key shard seed, its own frames.  The transport ships
each task with exactly its shard's frame slice
(:func:`~repro.serve.workers.localize_shard_task` rewrites the global
indices to the contiguous slice — same frames, same seed, same batch
boundaries), and every payload is a pickle of the same float64 arrays
and :class:`FrameRecord` dataclasses the in-process path produces, so
a remote shard's records are byte-identical to the local ones.

**Partition-aware crash recovery.**  A host connection that dies
(EOF, reset, SIGKILLed agent) is treated exactly like a dead worker:
every shard task in flight on that host is requeued at the front of
the pending queue and lands on a surviving executor; the casualty is
counted in ``PoolStats.host_failures`` against the restart budget.
Requeue is provably safe for the same reason it is locally — the
tasks are pure.  Host agents guard the other direction too: a worker
orphaned by a SIGKILLed agent notices its parent vanished and exits
instead of lingering.
"""

from __future__ import annotations

import argparse
import os
import pickle
import selectors
import signal
import socket
import subprocess
import sys
import time
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.serve.protocol import (
    HOST_MAX_PAYLOAD,
    HOSTS_PROTO_VERSION,
    MessageDecoder,
    MsgKind,
    ProtocolError,
    pack,
    pack_error,
    pack_host_hello,
    pack_host_welcome,
    unpack_host_hello,
    unpack_host_welcome,
)
from repro.serve.workers import (
    OUTPUT_COLUMNS,
    BlockHandle,
    FarmSpec,
    PoolStats,
    ShardTask,
    WorkerCrashError,
    WorkerPool,
    localize_shard_task,
)

__all__ = [
    "HostAgent",
    "HostPool",
    "AgentProcess",
    "spawn_agent",
    "parse_host",
]

#: How long a blocking protocol send may stall before the peer is
#: declared dead (both sides always drain their sockets, so a healthy
#: peer never gets near this).
_SEND_TIMEOUT_S = 60.0


def parse_host(address: Union[str, Tuple[str, int]]) -> Tuple[str, int]:
    """``"host:port"`` (or an ``(host, port)`` pair) → ``(host, port)``."""
    if isinstance(address, tuple):
        host, port = address
        return str(host), int(port)
    host, sep, port = str(address).rpartition(":")
    if not sep or not host:
        raise ValueError(f"host address must be 'host:port', "
                         f"got {address!r}")
    return host, int(port)


def _send_msg(sock: socket.socket, data: bytes) -> None:
    """Blocking send with a liveness bound, restoring non-blocking mode."""
    sock.settimeout(_SEND_TIMEOUT_S)
    try:
        sock.sendall(data)
    finally:
        sock.setblocking(False)


# ----------------------------------------------------------------------
# The agent (server side)
# ----------------------------------------------------------------------
#: Selector key sentinel marking a worker result pipe (vs a farm
#: connection); readiness means "pump the pool", never "read here".
_POOL_PIPE = object()


class _AgentConn:
    """One accepted farm connection and its in-flight bookkeeping."""

    __slots__ = ("sock", "decoder", "greeted", "closed")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.decoder = MessageDecoder(max_payload=HOST_MAX_PAYLOAD)
        self.greeted = False
        self.closed = False


class HostAgent:
    """A ``repro-hosts/1`` execution agent for one machine.

    Listens on ``host:port`` (port 0 = ephemeral), serves any number
    of farm connections, and executes the tasks they ship on an
    internal :class:`WorkerPool` of ``workers`` spawn processes.  The
    pool is created when the first ``HOST_SPEC`` arrives and reused
    for every task after that — replica cold-start is paid once per
    host, warm builds thereafter.  A later ``HOST_SPEC`` with
    different bytes is refused (one agent serves one spec; restart the
    agent to change models).

    Run it as a process: ``python -m repro.serve.remote --port 0
    --workers 2`` (announces ``repro-hosts/1 listening <host> <port>``
    on stdout), or programmatically via :func:`spawn_agent`.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 workers: int = 2, max_restarts: int = 8,
                 start_method: str = "spawn",
                 stall_timeout_s: float = 300.0):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.host = host
        self.port = port
        self.workers = workers
        self.max_restarts = max_restarts
        self.start_method = start_method
        self.stall_timeout_s = stall_timeout_s
        self.address: Optional[Tuple[str, int]] = None
        self._sel: Optional[selectors.DefaultSelector] = None
        self._lsock: Optional[socket.socket] = None
        self._pool: Optional[WorkerPool] = None
        self._spec_payload: Optional[bytes] = None
        self._conns: List[_AgentConn] = []
        # task_id -> (conn, handle, task)
        self._inflight: Dict[int, Tuple[_AgentConn, BlockHandle, Any]] = {}
        # fd -> worker result pipe currently registered in the selector
        self._pool_pipes: Dict[int, Any] = {}
        self._stop = False

    # -- lifecycle -----------------------------------------------------
    def bind(self) -> Tuple[str, int]:
        """Open the listening socket; returns the bound ``(host, port)``."""
        if self._lsock is not None:
            return self.address
        lsock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        lsock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        lsock.bind((self.host, self.port))
        lsock.listen(16)
        lsock.setblocking(False)
        self._lsock = lsock
        self._sel = selectors.DefaultSelector()
        self._sel.register(lsock, selectors.EVENT_READ, None)
        self.address = lsock.getsockname()[:2]
        return self.address

    def stop(self) -> None:
        self._stop = True

    def close(self) -> None:
        for conn in list(self._conns):
            self._close_conn(conn)
        if self._sel is not None:
            self._sel.close()
            self._sel = None
        if self._lsock is not None:
            self._lsock.close()
            self._lsock = None
        self._inflight.clear()
        self._pool_pipes.clear()
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        self._spec_payload = None

    def serve_forever(self, announce: bool = False) -> None:
        """Accept and serve farm connections until :meth:`stop`."""
        host, port = self.bind()
        if announce:
            print(f"repro-hosts/1 listening {host} {port}", flush=True)
        try:
            while not self._stop:
                self._step()
        finally:
            self.close()

    # -- event loop ----------------------------------------------------
    def _step(self) -> None:
        # The worker result pipes sit in the selector beside the farm
        # sockets (see WorkerPool.result_connections), so the agent
        # sleeps until either a message or a result is actually ready —
        # no poll interval to tune, and no idle burn stealing CPU from
        # the workers on small machines.  Pool events (a result, or a
        # dead worker's EOF) are never read here; they mean "pump now".
        self._sync_pool_pipes()
        pool_event = False
        for key, _ in self._sel.select(0.2):
            if key.data is None:
                self._accept()
            elif key.data is _POOL_PIPE:
                pool_event = True
            else:
                self._service_conn(key.data)
        if self._pool is not None and (pool_event or self._inflight):
            try:
                self._pool.pump(0.0)
            except WorkerCrashError as exc:
                self._fail_everything(f"host pool failed: {exc}")
                return
            self._collect_done()

    def _sync_pool_pipes(self) -> None:
        """Mirror the pool's live result pipes into the selector."""
        current: Dict[int, Any] = {}
        if self._pool is not None:
            for conn in self._pool.result_connections():
                try:
                    current[conn.fileno()] = conn
                except (OSError, ValueError):  # pragma: no cover - closing
                    continue
        if current.keys() == self._pool_pipes.keys():
            return
        for fd, conn in self._pool_pipes.items():
            if fd not in current:
                try:
                    self._sel.unregister(conn)
                except (KeyError, ValueError, OSError):
                    pass
        for fd, conn in current.items():
            if fd not in self._pool_pipes:
                self._sel.register(conn, selectors.EVENT_READ, _POOL_PIPE)
        self._pool_pipes = current

    def _accept(self) -> None:
        try:
            sock, _ = self._lsock.accept()
        except OSError:  # pragma: no cover - accept raced a reset
            return
        sock.setblocking(False)
        # Nagle holds a small write behind an unACKed tail segment for
        # up to a delayed-ACK interval (~40 ms) — fatal for a
        # request/response protocol that ships several back-to-back
        # pickles per round.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = _AgentConn(sock)
        self._conns.append(conn)
        self._sel.register(sock, selectors.EVENT_READ, conn)

    def _close_conn(self, conn: _AgentConn) -> None:
        if conn.closed:
            return
        conn.closed = True
        if conn in self._conns:
            self._conns.remove(conn)
        try:
            if self._sel is not None:
                self._sel.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        try:
            conn.sock.close()
        except OSError:  # pragma: no cover - defensive
            pass

    def _refuse(self, conn: _AgentConn, text: str) -> None:
        try:
            _send_msg(conn.sock, pack_error(text))
        except OSError:
            pass
        self._close_conn(conn)

    def _service_conn(self, conn: _AgentConn) -> None:
        while not conn.closed:
            try:
                data = conn.sock.recv(1 << 18)
            except BlockingIOError:
                return
            except OSError:
                data = b""
            if not data:
                self._close_conn(conn)
                return
            try:
                conn.decoder.feed(data)
                msgs = list(conn.decoder)
            except ProtocolError as exc:
                self._refuse(conn, f"protocol error: {exc}")
                return
            for kind, payload in msgs:
                self._handle_msg(conn, kind, payload)
                if conn.closed:
                    return

    def _handle_msg(self, conn: _AgentConn, kind: MsgKind,
                    payload: bytes) -> None:
        if kind == MsgKind.HOST_HELLO:
            try:
                version = unpack_host_hello(payload)
            except ProtocolError as exc:
                self._refuse(conn, str(exc))
                return
            if version != HOSTS_PROTO_VERSION:
                # Clean application-level refusal (no decoder poison):
                # a farm speaking a different repro-hosts version gets
                # told so and the connection closes in good order.
                self._refuse(conn,
                             f"unsupported repro-hosts protocol version "
                             f"{version} (agent speaks "
                             f"{HOSTS_PROTO_VERSION})")
                return
            conn.greeted = True
            _send_msg(conn.sock, pack_host_welcome(self.workers))
            return
        if not conn.greeted:
            self._refuse(conn, "HOST_HELLO required first")
            return
        if kind == MsgKind.HOST_SPEC:
            if self._spec_payload is None:
                try:
                    spec = pickle.loads(payload)
                except Exception as exc:
                    self._refuse(conn, f"bad HOST_SPEC payload: {exc}")
                    return
                if not isinstance(spec, FarmSpec):
                    self._refuse(conn, "HOST_SPEC payload must be a "
                                       "pickled FarmSpec")
                    return
                pool = WorkerPool(spec, self.workers,
                                  start_method=self.start_method,
                                  max_restarts=self.max_restarts,
                                  stall_timeout_s=self.stall_timeout_s)
                pool.start()
                self._pool = pool
                self._spec_payload = payload
            elif payload != self._spec_payload:
                self._refuse(conn, "agent already serves a different "
                                   "FarmSpec (one spec per agent)")
                return
            _send_msg(conn.sock, pack(MsgKind.HOST_SPEC_OK))
            return
        if kind == MsgKind.HOST_TASK:
            if self._pool is None:
                self._refuse(conn, "HOST_SPEC required before HOST_TASK")
                return
            try:
                task_kind, task, frames = pickle.loads(payload)
                if task_kind != "shard":
                    raise ValueError(f"unsupported task kind "
                                     f"{task_kind!r} (repro-hosts/1 "
                                     f"ships shard tasks)")
                handle = self._pool.submit(
                    np.asarray(frames, dtype=np.float64), [task])
            except Exception as exc:
                self._refuse(conn, f"bad HOST_TASK: {exc}")
                return
            self._inflight[task.task_id] = (conn, handle, task)
            return
        if kind == MsgKind.ERROR:  # pragma: no cover - client courtesy
            self._close_conn(conn)
            return
        self._refuse(conn, f"unexpected message kind {kind.name} "
                           f"on a repro-hosts/1 connection")

    # -- completion ----------------------------------------------------
    def _collect_done(self) -> None:
        for tid in [t for t, (_, h, _) in self._inflight.items() if h.done]:
            conn, handle, task = self._inflight.pop(tid)
            if conn.closed:
                continue            # farm gone; result has no audience
            result = handle.results.get(tid)
            if result is None:
                self._refuse(conn, f"task {tid} failed unrecoverably "
                                   f"on the agent")
                continue
            payload = pickle.dumps((tid, result, handle.outputs))
            try:
                _send_msg(conn.sock, pack(MsgKind.HOST_RESULT, payload,
                                          max_payload=HOST_MAX_PAYLOAD))
            except OSError:
                self._close_conn(conn)

    def _fail_everything(self, text: str) -> None:
        """The internal pool is beyond repair: tell every client, reset."""
        for conn, _, _ in self._inflight.values():
            self._refuse(conn, text)
        self._inflight.clear()
        if self._pool is not None:
            try:
                self._pool.close()
            except Exception:  # pragma: no cover - defensive
                pass
            self._pool = None
        self._spec_payload = None


# ----------------------------------------------------------------------
# Agent process management (tests, benchmarks, CI)
# ----------------------------------------------------------------------
class AgentProcess:
    """A spawned :class:`HostAgent` subprocess and its address."""

    def __init__(self, proc: subprocess.Popen, address: Tuple[str, int]):
        self.proc = proc
        self.address = address

    @property
    def pid(self) -> int:
        return self.proc.pid

    def kill(self) -> None:
        """SIGKILL — the partition every recovery test wants."""
        self.proc.kill()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:  # pragma: no cover - defensive
            self.proc.kill()
            self.proc.wait(timeout=5.0)
        if self.proc.stdout is not None:
            self.proc.stdout.close()

    def __enter__(self) -> "AgentProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def spawn_agent(workers: int = 2, *, host: str = "127.0.0.1",
                max_restarts: int = 8,
                timeout_s: float = 60.0) -> AgentProcess:
    """Launch a localhost :class:`HostAgent` subprocess, wait for its
    announcement line, and return the running :class:`AgentProcess`."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.serve.remote",
         "--host", host, "--port", "0",
         "--workers", str(workers), "--max-restarts", str(max_restarts)],
        stdout=subprocess.PIPE, env=env, text=True)
    os.set_blocking(proc.stdout.fileno(), False)
    deadline = time.monotonic() + timeout_s
    line = ""
    while True:
        chunk = proc.stdout.readline()
        if chunk:
            line += chunk
            if line.endswith("\n"):
                break
        if proc.poll() is not None:
            raise RuntimeError(
                f"host agent exited with {proc.returncode} before "
                f"announcing its address")
        if time.monotonic() > deadline:
            proc.kill()
            raise TimeoutError("host agent did not announce its address")
        time.sleep(0.01)
    parts = line.split()
    if len(parts) != 4 or parts[0] != "repro-hosts/1":
        proc.kill()
        raise RuntimeError(f"unexpected agent announcement: {line!r}")
    return AgentProcess(proc, (parts[2], int(parts[3])))


# ----------------------------------------------------------------------
# The host pool (farm side)
# ----------------------------------------------------------------------
class _RemoteEntry:
    """One shard task with its localized payload and routing state."""

    __slots__ = ("task", "localized", "frames", "block", "completed")

    def __init__(self, task: ShardTask, localized: ShardTask,
                 frames: np.ndarray, block: BlockHandle):
        self.task = task
        self.localized = localized
        self.frames = frames
        self.block = block
        self.completed = False


class _HostLink:
    """One live connection to a :class:`HostAgent`."""

    def __init__(self, address: Tuple[str, int], spec_payload: bytes,
                 connect_timeout_s: float):
        self.address = address
        self.sock = socket.create_connection(address,
                                             timeout=connect_timeout_s)
        # See HostAgent._accept: back-to-back task pickles must not
        # queue behind Nagle waiting on a delayed ACK.
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.decoder = MessageDecoder(max_payload=HOST_MAX_PAYLOAD)
        self.inflight: Dict[int, _RemoteEntry] = {}
        self.sock.sendall(pack_host_hello())
        kind, payload = self._await(MsgKind.HOST_WELCOME, connect_timeout_s)
        version, self.slots = unpack_host_welcome(payload)
        if version != HOSTS_PROTO_VERSION:
            self.sock.close()
            raise ProtocolError(
                f"host {address[0]}:{address[1]} speaks repro-hosts "
                f"version {version}, this farm speaks "
                f"{HOSTS_PROTO_VERSION}")
        self.sock.sendall(pack(MsgKind.HOST_SPEC, spec_payload,
                               max_payload=HOST_MAX_PAYLOAD))
        self._await(MsgKind.HOST_SPEC_OK, connect_timeout_s)
        self.sock.setblocking(False)

    def _await(self, want: MsgKind,
               timeout_s: float) -> Tuple[MsgKind, bytes]:
        """Blockingly read the next message; it must be *want*."""
        self.sock.settimeout(timeout_s)
        while True:
            msg = self.decoder.next_message()
            if msg is not None:
                kind, payload = msg
                if kind == MsgKind.ERROR:
                    raise ProtocolError(
                        f"host {self.address[0]}:{self.address[1]}: "
                        f"{payload.decode('utf-8', 'replace')}")
                if kind != want:
                    raise ProtocolError(f"expected {want.name}, host sent "
                                        f"{kind.name}")
                return msg
            data = self.sock.recv(1 << 18)
            if not data:
                raise ConnectionError(
                    f"host {self.address[0]}:{self.address[1]} closed "
                    f"during the handshake")
            self.decoder.feed(data)

    def send_task(self, entry: _RemoteEntry) -> None:
        payload = pickle.dumps(("shard", entry.localized, entry.frames))
        _send_msg(self.sock, pack(MsgKind.HOST_TASK, payload,
                                  max_payload=HOST_MAX_PAYLOAD))
        self.inflight[entry.task.task_id] = entry

    def poll(self) -> List[Tuple[int, Any, np.ndarray]]:
        """Drain buffered results (non-blocking).

        Raises :class:`ConnectionError` on EOF/reset (partition) and
        :class:`WorkerCrashError` on an agent-reported task failure.
        """
        out: List[Tuple[int, Any, np.ndarray]] = []
        while True:
            try:
                data = self.sock.recv(1 << 18)
            except BlockingIOError:
                break
            except OSError as exc:
                raise ConnectionError(str(exc)) from exc
            if not data:
                raise ConnectionError("host connection closed")
            try:
                self.decoder.feed(data)
                msgs = list(self.decoder)
            except ProtocolError as exc:
                raise ConnectionError(f"framing error from host: {exc}") \
                    from exc
            for kind, payload in msgs:
                if kind == MsgKind.HOST_RESULT:
                    out.append(pickle.loads(payload))
                elif kind == MsgKind.ERROR:
                    raise WorkerCrashError(
                        f"host {self.address[0]}:{self.address[1]}: "
                        f"{payload.decode('utf-8', 'replace')}")
        return out

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - defensive
            pass


class HostPool:
    """Uniform dispatch of shard tasks over local workers + host agents.

    The cross-host sibling of :class:`WorkerPool`, with the same
    lifecycle (``start``/``submit``/``pump``/``wait``/``close``, plus
    one-shot ``run``) and the same failure semantics extended to
    partitions: a lost host connection requeues every shard it held
    (pure tasks — requeue is bit-identical), counts against the
    restart budget as a ``host_failure``, and the work lands on the
    surviving executors.  Losing the last executor raises
    :class:`WorkerCrashError`.

    ``hosts`` are ``"host:port"`` strings (or ``(host, port)`` pairs)
    of running :class:`HostAgent`\\ s; ``local_workers`` adds an
    in-process spawn pool beside them (0 = serve entirely remotely).
    Only :class:`ShardTask`\\ s are routable — stream affinity does not
    survive a partition, so the daemon keeps streams on its local
    pool.
    """

    def __init__(self, spec: FarmSpec,
                 hosts: Sequence[Union[str, Tuple[str, int]]], *,
                 local_workers: int = 0, max_restarts: int = 8,
                 start_method: str = "spawn",
                 stall_timeout_s: float = 300.0,
                 connect_timeout_s: float = 120.0):
        if not hosts:
            raise ValueError("HostPool needs at least one host "
                             "(use WorkerPool for purely local serving)")
        if local_workers < 0:
            raise ValueError(f"local_workers must be >= 0, "
                             f"got {local_workers}")
        self.spec = spec
        self.host_addresses = [parse_host(h) for h in hosts]
        self.local_workers = local_workers
        self.max_restarts = max_restarts
        self.start_method = start_method
        self.stall_timeout_s = stall_timeout_s
        self.connect_timeout_s = connect_timeout_s
        self.stats = PoolStats()
        self._local: Optional[WorkerPool] = None
        self._links: List[_HostLink] = []
        self._pending: deque = deque()
        self._active: Dict[int, _RemoteEntry] = {}
        self._local_handles: Dict[int, Tuple[BlockHandle, _RemoteEntry]] = {}
        self._outs: Dict[int, np.ndarray] = {}      # block_id -> out matrix
        self._started = False
        self._next_block = 0
        self._rotation = 0
        self._last_progress = time.monotonic()

    # -- lifecycle -----------------------------------------------------
    @property
    def started(self) -> bool:
        return self._started

    @property
    def n_workers(self) -> int:
        """Total worker slots: local + every connected host's."""
        return self.local_workers + sum(l.slots for l in self._links)

    def alive_hosts(self) -> int:
        return len(self._links)

    def start(self) -> "HostPool":
        if self._started:
            return self
        spec_payload = pickle.dumps(self.spec)
        for address in self.host_addresses:
            self._links.append(_HostLink(address, spec_payload,
                                         self.connect_timeout_s))
        if self.local_workers:
            self._local = WorkerPool(self.spec, self.local_workers,
                                     start_method=self.start_method,
                                     max_restarts=self.max_restarts,
                                     stall_timeout_s=self.stall_timeout_s)
            self._local.start()
        self.stats.workers = self.n_workers
        self._started = True
        self._last_progress = time.monotonic()
        return self

    def close(self) -> None:
        for link in self._links:
            link.close()
        self._links.clear()
        if self._local is not None:
            self._local.close()
            self._local = None
        self._pending.clear()
        self._active.clear()
        self._local_handles.clear()
        self._outs.clear()
        self._started = False

    def __enter__(self) -> "HostPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- submission ----------------------------------------------------
    def submit(self, frames: np.ndarray,
               tasks: Sequence[ShardTask]) -> BlockHandle:
        """Ship a frame block's shard tasks to the executors."""
        if not self._started:
            raise RuntimeError("host pool is not started")
        if not tasks:
            raise ValueError("submit needs at least one task")
        for t in tasks:
            if not isinstance(t, ShardTask):
                raise TypeError(
                    f"HostPool routes ShardTasks only, got "
                    f"{type(t).__name__} (streams stay on their local "
                    f"pool: affinity does not survive a partition)")
            if t.task_id in self._active:
                raise ValueError(f"task_id {t.task_id} is already in flight")
        frames = np.ascontiguousarray(frames, dtype=np.float64)
        if frames.ndim != 2:
            frames = frames.reshape(len(frames), -1)
        handle = BlockHandle(
            block_id=self._next_block,
            tasks=tuple(tasks),
            _out_shape=(frames.shape[0], len(OUTPUT_COLUMNS)),
            _remaining=len(tasks),
            _stats0=(self.stats.worker_restarts, self.stats.requeued_tasks,
                     self.stats.host_failures),
        )
        self._next_block += 1
        self._outs[handle.block_id] = np.full(handle._out_shape, np.nan)
        for t in tasks:
            localized, local_frames = localize_shard_task(t, frames)
            entry = _RemoteEntry(t, localized, local_frames, handle)
            self._pending.append(entry)
            self._active[t.task_id] = entry
        self._last_progress = time.monotonic()
        return handle

    # -- supervision ---------------------------------------------------
    def pump(self, timeout_s: float = 0.05) -> bool:
        """One supervision step: dispatch, drain local + remote, repair."""
        if not self._started:
            raise RuntimeError("host pool is not started")
        self._dispatch()
        progressed = self._drain_remote()
        progressed |= self._drain_local(0.0 if progressed else timeout_s)
        if progressed:
            self._last_progress = time.monotonic()
            return True
        if self._local is None:
            self._wait_sockets(timeout_s)
        if (self._outstanding()
                and time.monotonic() - self._last_progress
                > self.stall_timeout_s):
            raise WorkerCrashError(
                f"no host-pool progress for {self.stall_timeout_s:.0f}s "
                f"({self._outstanding()} tasks outstanding)")
        return False

    def wait(self, handle: BlockHandle,
             timeout_s: Optional[float] = None) -> BlockHandle:
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        while not handle.done:
            self.pump()
            if deadline is not None and time.monotonic() > deadline:
                raise WorkerCrashError(
                    f"block {handle.block_id} incomplete after "
                    f"{timeout_s:.0f}s")
        return handle

    def _outstanding(self) -> int:
        return len(self._active)

    def _local_inflight(self) -> int:
        return len(self._local_handles)

    def _dispatch(self) -> None:
        # Round-robin over executors (each host link, then the local
        # pool), one task per free slot per pass, so remote and local
        # capacity fill uniformly.
        executors: List[Any] = list(self._links)
        if self._local is not None:
            executors.append("local")
        if not executors:
            return
        idle_passes = 0
        n = len(executors)
        while self._pending and idle_passes < n:
            executor = executors[self._rotation % n]
            self._rotation += 1
            entry = None
            while self._pending:
                head = self._pending[0]
                if head.completed:
                    self._pending.popleft()
                    continue
                entry = head
                break
            if entry is None:
                return
            if executor == "local":
                if self._local_inflight() >= self.local_workers:
                    idle_passes += 1
                    continue
                self._pending.popleft()
                inner = self._local.submit(entry.frames, [entry.localized])
                self._local_handles[entry.task.task_id] = (inner, entry)
            else:
                if len(executor.inflight) >= executor.slots:
                    idle_passes += 1
                    continue
                self._pending.popleft()
                try:
                    executor.send_task(entry)
                except (ConnectionError, OSError) as exc:
                    self._pending.appendleft(entry)
                    self._lose_link(executor, str(exc))
                    return
            idle_passes = 0

    def _drain_remote(self) -> bool:
        progressed = False
        for link in list(self._links):
            try:
                results = link.poll()
            except ConnectionError as exc:
                self._lose_link(link, str(exc))
                continue
            for tid, result, rows in results:
                link.inflight.pop(tid, None)
                self._complete(tid, result, rows)
                progressed = True
        return progressed

    def _drain_local(self, timeout_s: float) -> bool:
        if self._local is None:
            return False
        self._local.pump(timeout_s)
        self.stats.worker_restarts = self._local.stats.worker_restarts
        progressed = False
        for tid in [t for t, (h, _) in self._local_handles.items()
                    if h.done]:
            inner, entry = self._local_handles.pop(tid)
            if inner.failed:  # pragma: no cover - shard tasks requeue
                raise WorkerCrashError(
                    f"local execution of task {tid} failed unrecoverably")
            self._complete(tid, inner.results[tid], inner.outputs)
            progressed = True
        return progressed

    def _wait_sockets(self, timeout_s: float) -> None:
        """Idle wait on the host sockets (readiness, not a sleep poll)."""
        if not self._links:
            time.sleep(min(max(timeout_s, 0.0), 0.05))
            return
        sel = selectors.DefaultSelector()
        try:
            for link in self._links:
                sel.register(link.sock, selectors.EVENT_READ, link)
            sel.select(max(timeout_s, 0.0))
        finally:
            sel.close()

    def _lose_link(self, link: _HostLink, reason: str) -> None:
        """Partition: requeue everything the host held, spend budget."""
        if link not in self._links:
            return
        self._links.remove(link)
        link.close()
        self.stats.workers = self.n_workers
        requeued = [e for e in link.inflight.values() if not e.completed]
        link.inflight.clear()
        for entry in reversed(requeued):
            self._pending.appendleft(entry)
        self.stats.requeued_tasks += len(requeued)
        self.stats.host_failures += 1
        if self.stats.host_failures > self.max_restarts:
            raise WorkerCrashError(
                f"host failure budget exhausted ({self.max_restarts}); "
                f"last partition was {link.address[0]}:{link.address[1]} "
                f"({reason})")
        if not self._links and self._local is None:
            raise WorkerCrashError(
                f"all host connections lost and no local workers remain "
                f"(last: {link.address[0]}:{link.address[1]}, {reason})")

    def _complete(self, tid: int, result: Any, rows: np.ndarray) -> None:
        entry = self._active.pop(tid, None)
        if entry is None or entry.completed:
            return
        entry.completed = True
        block = entry.block
        block.results[tid] = result
        out = self._outs[block.block_id]
        idx = np.asarray(entry.task.global_indices, dtype=np.intp)
        out[idx, :] = np.asarray(rows, dtype=np.float64)
        block._remaining -= 1
        if block._remaining == 0:
            block.outputs = self._outs.pop(block.block_id)
            r0, q0, h0 = block._stats0
            block.stats = PoolStats(
                workers=self.n_workers,
                worker_restarts=self.stats.worker_restarts - r0,
                requeued_tasks=self.stats.requeued_tasks - q0,
                host_failures=self.stats.host_failures - h0,
            )
            block.done = True

    # -- one-shot compatibility path -----------------------------------
    def run(self, frames: np.ndarray, tasks: List[ShardTask],
            ) -> Tuple[List[Any], np.ndarray, PoolStats]:
        """Execute *tasks* over *frames*; returns (results, outputs, stats).

        Mirrors :meth:`WorkerPool.run`: a cold pool connects/spawns for
        the call and tears down after; a started pool runs warm and
        reports the per-call stats delta.
        """
        owns = not self._started
        if owns:
            self.start()
        try:
            handle = self.submit(frames, list(tasks))
            self.wait(handle)
            ordered = [handle.results[t.task_id] for t in tasks]
            return ordered, handle.outputs, handle.stats
        finally:
            if owns:
                self.close()


# ----------------------------------------------------------------------
# CLI: run one agent
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.remote",
        description="Run a repro-hosts/1 host agent: executes shard "
                    "tasks shipped by a remote ShardedNodeFarm on a "
                    "local worker pool.")
    parser.add_argument("--host", default="127.0.0.1",
                        help="interface to bind (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=0,
                        help="port to bind (0 = ephemeral, announced "
                             "on stdout)")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes on this host (default: 2)")
    parser.add_argument("--max-restarts", type=int, default=8,
                        help="worker crash budget (default: 8)")
    args = parser.parse_args(argv)
    agent = HostAgent(host=args.host, port=args.port,
                      workers=args.workers,
                      max_restarts=args.max_restarts)
    # SIGTERM (AgentProcess.close, a service manager) stops the agent
    # the way Ctrl-C does: serve_forever's finally closes the pool, so
    # the workers are joined and their semaphores released before exit.
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        agent.serve_forever(announce=True)
    except KeyboardInterrupt:
        pass
    return 0


def _interrupt(signum, frame):
    raise KeyboardInterrupt


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
