"""Cross-host task transport (``repro-hosts/1``): agents + host links.

The pool's links need not be local processes.  This module carries the
same tasks across a network boundary with nothing but the stdlib:

* :class:`HostAgent` — a process listening on a TCP socket.  It
  receives a pickled :class:`~repro.serve.workers.FarmSpec` once
  (``HOST_SPEC``), starts its own local
  :class:`~repro.serve.workers.Pool` of spawn workers (each holding the
  warm :class:`~repro.serve.workers.ReplicaSource` byte template, so
  the cold conversion/compilation is paid once per host), and then runs
  the :class:`~repro.serve.workers.Task`\\ s shipped as ``HOST_TASK``
  messages, answering each with a ``HOST_RESULT`` carrying the pickled
  :class:`~repro.serve.workers.TaskResult` (records, output rows,
  health, and for a final task its ``repro-obs/1`` snapshot).
* :class:`_HostLink` — the pool's side of one agent connection: a link
  as wide as the agent's worker count, beside (or instead of) local
  worker links.

**Bit-identity across the wire.**  A task carries its own frames, seed
entropy, session and batch boundaries, and every payload is a pickle of
the same float64 arrays and :class:`FrameRecord` dataclasses the
in-process path produces, so a remote task's records are byte-identical
to the local ones.

**Partition-aware crash recovery.**  A host connection that dies (EOF,
reset, SIGKILLed agent) is a lost link like a dead worker: the pool
requeues every self-contained task it held at the front of its queue,
where it lands on a surviving link, and counts the casualty in
``PoolStats.host_failures`` against the restart budget.  Host agents
guard the other direction too: a worker orphaned by a SIGKILLed agent
notices its parent vanished and exits instead of lingering.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import pickle
import signal
import socket
import subprocess
import sys
import time
from multiprocessing import connection as mp_connection
from typing import Any, Dict, List, Optional, Tuple, Union

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
    BlockHandle,
    FarmSpec,
    Pool,
    Task,
    WorkerCrashError,
)

__all__ = [
    "HostAgent",
    "AgentProcess",
    "spawn_agent",
    "parse_host",
]

#: How long a blocking protocol send may stall before the peer is
#: declared dead (both sides always drain their sockets, so a healthy
#: peer never gets near this).
_SEND_TIMEOUT_S = 60.0

#: How long a pool waits for an agent to accept and answer its handshake.
CONNECT_TIMEOUT_S = 120.0


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


def _nodelay(sock: socket.socket) -> None:
    # Nagle holds a small write behind an unACKed tail segment for up
    # to a delayed-ACK interval (~40 ms) — fatal for a request/response
    # protocol that ships several back-to-back pickles per round.
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


# ----------------------------------------------------------------------
# The agent (server side)
# ----------------------------------------------------------------------
class _AgentConn:
    """One accepted farm connection."""

    __slots__ = ("sock", "decoder", "greeted", "closed")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.decoder = MessageDecoder(max_payload=HOST_MAX_PAYLOAD)
        self.greeted = False
        self.closed = False


class HostAgent:
    """A ``repro-hosts/1`` execution agent for one machine.

    Listens on ``host:port`` (port 0 = ephemeral), serves any number
    of farm connections, and runs the tasks they ship on an internal
    :class:`~repro.serve.workers.Pool` of ``workers`` spawn processes.
    The pool is created when the first ``HOST_SPEC`` arrives and reused
    for every task after that — replica cold-start is paid once per
    host, warm builds thereafter.  A later ``HOST_SPEC`` with different
    bytes is refused (one agent serves one spec; restart the agent to
    change models).

    Run it as a process: ``python -m repro.serve.remote --port 0
    --workers 2`` (announces ``repro-hosts/1 listening <host> <port>``
    on stdout), or programmatically via :func:`spawn_agent`.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 workers: int = 2, max_restarts: int = 8):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.host = host
        self.port = port
        self.workers = workers
        self.max_restarts = max_restarts
        self.address: Optional[Tuple[str, int]] = None
        self._lsock: Optional[socket.socket] = None
        self._pool: Optional[Pool] = None
        self._spec_payload: Optional[bytes] = None
        self._conns: Dict[socket.socket, _AgentConn] = {}
        # agent task id -> (conn, the farm's task id, handle)
        self._inflight: Dict[int, Tuple[_AgentConn, int, BlockHandle]] = {}
        self._next_tid = 0
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
        self.address = lsock.getsockname()[:2]
        return self.address

    def stop(self) -> None:
        self._stop = True

    def close(self) -> None:
        for conn in list(self._conns.values()):
            self._close_conn(conn)
        if self._lsock is not None:
            self._lsock.close()
            self._lsock = None
        self._inflight.clear()
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
        # One wait over the listener, every farm socket and every pool
        # link, so the agent sleeps until a message or a result is
        # actually ready — no poll interval to tune, and no idle burn
        # stealing CPU from the workers on small machines.  A ready pool
        # handle (a result, or a dead worker's EOF) is never read here;
        # it means "pump now".
        pool_handles = self._pool.handles() if self._pool is not None else []
        pool_event = False
        for obj in mp_connection.wait(
                [self._lsock, *self._conns, *pool_handles], 0.2):
            if obj is self._lsock:
                self._accept()
            elif obj in self._conns:
                self._service_conn(self._conns[obj])
            else:
                pool_event = True
        if self._pool is not None and (pool_event or self._inflight):
            try:
                self._pool.pump(0.0)
            except WorkerCrashError as exc:
                self._fail_everything(f"host pool failed: {exc}")
                return
            self._collect_done()

    def _accept(self) -> None:
        try:
            sock, _ = self._lsock.accept()
        except OSError:  # pragma: no cover - accept raced a reset
            return
        sock.setblocking(False)
        _nodelay(sock)
        self._conns[sock] = _AgentConn(sock)

    def _close_conn(self, conn: _AgentConn) -> None:
        if conn.closed:
            return
        conn.closed = True
        self._conns.pop(conn.sock, None)
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
                self._pool = Pool(spec, self.workers,
                                  max_restarts=self.max_restarts).start()
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
                task = pickle.loads(payload)
                if not isinstance(task, Task):
                    raise TypeError(f"payload must be a pickled Task, got "
                                    f"{type(task).__name__}")
                # Every farm numbers its tasks from 0, so the agent's
                # pool runs each under an agent-wide id.  The session
                # stays the farm's: it seeds the replica.
                handle = self._pool.submit(
                    [dataclasses.replace(task, task_id=self._next_tid)])
            except Exception as exc:
                self._refuse(conn, f"bad HOST_TASK: {exc}")
                return
            self._inflight[self._next_tid] = (conn, task.task_id, handle)
            self._next_tid += 1
            return
        if kind == MsgKind.ERROR:  # pragma: no cover - client courtesy
            self._close_conn(conn)
            return
        self._refuse(conn, f"unexpected message kind {kind.name} "
                           f"on a repro-hosts/1 connection")

    # -- completion ----------------------------------------------------
    def _collect_done(self) -> None:
        for tid in [t for t, (_, _, h) in self._inflight.items() if h.done]:
            conn, farm_tid, handle = self._inflight.pop(tid)
            if conn.closed:
                continue            # farm gone; result has no audience
            # A failed-back task (its session's state died with an agent
            # worker) travels as None, and the farm's pool fails it too.
            result = handle.results.get(tid)
            if result is not None:
                result.task_id = farm_tid
            payload = pickle.dumps((farm_tid, result))
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
# The pool's link to one agent (farm side)
# ----------------------------------------------------------------------
class _HostLink:
    """One pool link: a live connection to a :class:`HostAgent`."""

    def __init__(self, address: Union[str, Tuple[str, int]],
                 spec_payload: bytes):
        self.address = parse_host(address)
        self.name = "host {}:{}".format(*self.address)
        self.inflight: Dict[int, Task] = {}
        self.decoder = MessageDecoder(max_payload=HOST_MAX_PAYLOAD)
        self.handle = socket.create_connection(self.address,
                                               timeout=CONNECT_TIMEOUT_S)
        _nodelay(self.handle)
        self.handle.sendall(pack_host_hello())
        version, self.slots = unpack_host_welcome(
            self._await(MsgKind.HOST_WELCOME))
        if version != HOSTS_PROTO_VERSION:
            self.handle.close()
            raise ProtocolError(
                f"{self.name} speaks repro-hosts version {version}, "
                f"this farm speaks {HOSTS_PROTO_VERSION}")
        self.handle.sendall(pack(MsgKind.HOST_SPEC, spec_payload,
                                 max_payload=HOST_MAX_PAYLOAD))
        self._await(MsgKind.HOST_SPEC_OK)
        self.handle.setblocking(False)

    def _await(self, want: MsgKind) -> bytes:
        """Blockingly read the next message's payload; it must be *want*."""
        while True:
            msg = self.decoder.next_message()
            if msg is not None:
                kind, payload = msg
                if kind == MsgKind.ERROR:
                    raise ProtocolError(
                        f"{self.name}: {payload.decode('utf-8', 'replace')}")
                if kind != want:
                    raise ProtocolError(f"expected {want.name}, host sent "
                                        f"{kind.name}")
                return payload
            data = self.handle.recv(1 << 18)
            if not data:
                raise ConnectionError(
                    f"{self.name} closed during the handshake")
            self.decoder.feed(data)

    def send(self, task: Task) -> None:
        _send_msg(self.handle, pack(MsgKind.HOST_TASK, pickle.dumps(task),
                                    max_payload=HOST_MAX_PAYLOAD))

    def recv(self) -> List[Tuple[int, Any]]:
        """Drain buffered ``(task_id, result)`` pairs (non-blocking).

        Raises :class:`ConnectionError` on EOF/reset (partition) and
        :class:`WorkerCrashError` on an agent-reported failure.
        """
        out: List[Tuple[int, Any]] = []
        while True:
            try:
                data = self.handle.recv(1 << 18)
            except BlockingIOError:
                return out
            except OSError as exc:
                raise ConnectionError(str(exc)) from exc
            if not data:
                raise ConnectionError(f"{self.name} closed the connection")
            try:
                self.decoder.feed(data)
                msgs = list(self.decoder)
            except ProtocolError as exc:
                raise ConnectionError(f"framing error from {self.name}: "
                                      f"{exc}") from exc
            for kind, payload in msgs:
                if kind == MsgKind.HOST_RESULT:
                    out.append(pickle.loads(payload))
                elif kind == MsgKind.ERROR:
                    raise WorkerCrashError(
                        f"{self.name}: {payload.decode('utf-8', 'replace')}")

    def close(self) -> None:
        try:
            self.handle.close()
        except OSError:  # pragma: no cover - defensive
            pass

    def join(self) -> None:
        """Nothing to wait for: the agent outlives its links."""


# ----------------------------------------------------------------------
# CLI: run one agent
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.remote",
        description="Run a repro-hosts/1 host agent: runs the tasks a "
                    "remote ShardedNodeFarm's pool ships on a local "
                    "worker pool.")
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
    # the workers are joined before exit.
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
