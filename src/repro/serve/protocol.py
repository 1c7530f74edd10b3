"""Length-prefixed wire protocols for serving (``repro-serve/1``) and
cross-host shard transport (``repro-hosts/1``).

Every message is a 9-byte header — magic ``b"RSRV"``, kind (u8),
payload length (u32), network byte order — followed by the payload.
The stream-serving messages (``repro-serve/1``, daemon ↔ client):

========  =========  =====================================================
kind      direction  payload
========  =========  =====================================================
HELLO     c → s      u32 protocol version, u32 requested stream id
                     (``ASSIGN_STREAM`` = pick one)
WELCOME   s → c      u32 stream id, u32 n_monitors (0 = not enforced)
FRAME     c → s      u64 client sequence number + n_monitors f64 samples
RESULT    s → c      u64 sequence number + 7 f64 (:data:`OUTPUT_COLUMNS`)
SHED      s → c      u64 sequence number (frame refused by admission)
EOS       c ↔ s      empty (client: no more frames; server: all results
                     for the accepted frames have been sent)
ERROR     s → c      UTF-8 text; the connection closes after it
========  =========  =====================================================

The host-transport messages (``repro-hosts/1``, farm ↔ host agent)
share the same framing and ERROR message and add:

============  =========  =================================================
kind          direction  payload
============  =========  =================================================
HOST_HELLO    c → s      u32 protocol version
HOST_WELCOME  s → c      u32 protocol version, u32 agent worker slots
HOST_SPEC     c → s      pickled :class:`~repro.serve.workers.FarmSpec`
HOST_SPEC_OK  s → c      empty (replica source armed; tasks may follow)
HOST_TASK     c → s      pickled :class:`~repro.serve.workers.Task`
                         (its frames travel inside it)
HOST_RESULT   s → c      pickle of ``(task_id, TaskResult)``, the result
                         carrying the output rows; ``None`` in place of
                         the result fails the task back (the agent lost
                         the session's state)
============  =========  =================================================

Both sides of either protocol **version-check the handshake**: a HELLO
or HOST_HELLO advertising an unknown version is answered with a clean
ERROR reply and an orderly close — an application-level refusal, not a
framing violation, so the decoder is never poisoned by a merely
too-new peer.

The framing layer is **sans-io**: :class:`MessageDecoder` consumes raw
bytes and yields ``(kind, payload)`` pairs, so the same code path runs
under asyncio in the daemon, over a blocking socket in
:class:`StreamClient`, byte-at-a-time in unit tests, and under the
host agent's event loop.  All numeric payloads are little-endian
float64 — the dtype of a worker's output rows — so a result row is
bit-identical to the row the worker wrote.
"""

from __future__ import annotations

import selectors
import socket
import struct
import time
from enum import IntEnum
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

__all__ = [
    "MAGIC",
    "ASSIGN_STREAM",
    "SERVE_PROTO_VERSION",
    "HOSTS_PROTO_VERSION",
    "MAX_PAYLOAD",
    "HOST_MAX_PAYLOAD",
    "MsgKind",
    "ProtocolError",
    "MessageDecoder",
    "StreamClient",
    "pack",
    "pack_hello",
    "pack_welcome",
    "pack_frame",
    "pack_result",
    "pack_shed",
    "pack_eos",
    "pack_error",
    "pack_host_hello",
    "pack_host_welcome",
    "unpack_hello",
    "unpack_welcome",
    "unpack_frame",
    "unpack_result",
    "unpack_seq",
    "unpack_host_hello",
    "unpack_host_welcome",
]

MAGIC = b"RSRV"
_HEADER = struct.Struct("!4sBI")
_U32 = struct.Struct("!I")
_U32x2 = struct.Struct("!II")
_U64 = struct.Struct("!Q")

#: Payloads above this are a protocol violation (guards the decoder
#: against allocating unbounded buffers for a corrupt length field).
MAX_PAYLOAD = 1 << 24

#: The host transport ships a task's frames and its pickled records in
#: one message, so its decoder accepts larger payloads.
HOST_MAX_PAYLOAD = 1 << 28

#: Version this build speaks for ``repro-serve/1`` (HELLO handshake).
SERVE_PROTO_VERSION = 1

#: Version this build speaks for ``repro-hosts/1`` (HOST_HELLO).  2:
#: HOST_TASK carries one pickled Task, HOST_RESULT ``(task_id, result)``.
HOSTS_PROTO_VERSION = 2

#: HELLO stream id meaning "server assigns".
ASSIGN_STREAM = 0xFFFFFFFF


class MsgKind(IntEnum):
    HELLO = 1
    WELCOME = 2
    FRAME = 3
    RESULT = 4
    SHED = 5
    EOS = 6
    ERROR = 7
    # repro-hosts/1 (farm <-> host agent) -------------------------------
    HOST_HELLO = 8
    HOST_WELCOME = 9
    HOST_SPEC = 10
    HOST_SPEC_OK = 11
    HOST_TASK = 12
    HOST_RESULT = 13


class ProtocolError(ValueError):
    """Malformed framing or payload."""


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def pack(kind: MsgKind, payload: bytes = b"", *,
         max_payload: int = MAX_PAYLOAD) -> bytes:
    if len(payload) > max_payload:
        raise ProtocolError(f"payload of {len(payload)} bytes exceeds "
                            f"the payload bound ({max_payload})")
    return _HEADER.pack(MAGIC, int(kind), len(payload)) + payload


def pack_hello(stream_id: int = ASSIGN_STREAM,
               version: int = SERVE_PROTO_VERSION) -> bytes:
    return pack(MsgKind.HELLO, _U32x2.pack(version, stream_id))


def pack_welcome(stream_id: int, n_monitors: int) -> bytes:
    return pack(MsgKind.WELCOME, _U32x2.pack(stream_id, n_monitors))


def pack_frame(seq: int, vec: np.ndarray) -> bytes:
    data = np.ascontiguousarray(vec, dtype="<f8").tobytes()
    return pack(MsgKind.FRAME, _U64.pack(seq) + data)


def pack_result(seq: int, row: np.ndarray) -> bytes:
    data = np.ascontiguousarray(row, dtype="<f8").tobytes()
    return pack(MsgKind.RESULT, _U64.pack(seq) + data)


def pack_shed(seq: int) -> bytes:
    return pack(MsgKind.SHED, _U64.pack(seq))


def pack_eos() -> bytes:
    return pack(MsgKind.EOS)


def pack_error(text: str) -> bytes:
    return pack(MsgKind.ERROR, text.encode("utf-8", "replace"))


def pack_host_hello(version: int = HOSTS_PROTO_VERSION) -> bytes:
    return pack(MsgKind.HOST_HELLO, _U32.pack(version))


def pack_host_welcome(slots: int,
                      version: int = HOSTS_PROTO_VERSION) -> bytes:
    return pack(MsgKind.HOST_WELCOME, _U32x2.pack(version, slots))


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------
def unpack_hello(payload: bytes) -> Tuple[int, int]:
    """HELLO payload → ``(version, requested_stream_id)``."""
    if len(payload) != _U32x2.size:
        raise ProtocolError(f"HELLO payload must be {_U32x2.size} bytes")
    return _U32x2.unpack(payload)


def unpack_welcome(payload: bytes) -> Tuple[int, int]:
    if len(payload) != _U32x2.size:
        raise ProtocolError(f"WELCOME payload must be {_U32x2.size} bytes")
    return _U32x2.unpack(payload)


def _seq_and_floats(payload: bytes, what: str) -> Tuple[int, np.ndarray]:
    if len(payload) < _U64.size or (len(payload) - _U64.size) % 8:
        raise ProtocolError(f"{what} payload must be 8 + 8k bytes, "
                            f"got {len(payload)}")
    seq = _U64.unpack_from(payload)[0]
    values = np.frombuffer(payload, dtype="<f8", offset=_U64.size).copy()
    return seq, values


def unpack_frame(payload: bytes) -> Tuple[int, np.ndarray]:
    return _seq_and_floats(payload, "FRAME")


def unpack_result(payload: bytes) -> Tuple[int, np.ndarray]:
    return _seq_and_floats(payload, "RESULT")


def unpack_seq(payload: bytes) -> int:
    if len(payload) != _U64.size:
        raise ProtocolError(f"payload must be {_U64.size} bytes")
    return _U64.unpack(payload)[0]


def unpack_host_hello(payload: bytes) -> int:
    """HOST_HELLO payload → advertised protocol version."""
    if len(payload) != _U32.size:
        raise ProtocolError(f"HOST_HELLO payload must be {_U32.size} bytes")
    return _U32.unpack(payload)[0]


def unpack_host_welcome(payload: bytes) -> Tuple[int, int]:
    """HOST_WELCOME payload → ``(version, agent_worker_slots)``."""
    if len(payload) != _U32x2.size:
        raise ProtocolError(
            f"HOST_WELCOME payload must be {_U32x2.size} bytes")
    return _U32x2.unpack(payload)


class MessageDecoder:
    """Incremental sans-io frame decoder.

    ``feed`` raw bytes in any fragmentation; iterate to drain complete
    ``(kind, payload)`` messages.  Framing violations raise
    :class:`ProtocolError` and poison the decoder (a stream that lost
    sync cannot be trusted again).  ``max_payload`` defaults to the
    serve-protocol bound; the host transport passes
    :data:`HOST_MAX_PAYLOAD` (whole frame blocks per message).
    """

    def __init__(self, max_payload: int = MAX_PAYLOAD):
        self._buf = bytearray()
        self._poisoned = False
        self._max_payload = max_payload

    def feed(self, data: bytes) -> None:
        if self._poisoned:
            raise ProtocolError("decoder is poisoned after a framing error")
        self._buf.extend(data)

    def __iter__(self) -> Iterator[Tuple[MsgKind, bytes]]:
        while True:
            msg = self.next_message()
            if msg is None:
                return
            yield msg

    def next_message(self) -> Optional[Tuple[MsgKind, bytes]]:
        if self._poisoned:
            raise ProtocolError("decoder is poisoned after a framing error")
        if len(self._buf) < _HEADER.size:
            return None
        magic, kind, length = _HEADER.unpack_from(self._buf)
        if magic != MAGIC:
            self._poisoned = True
            raise ProtocolError(f"bad magic {bytes(magic)!r}")
        if length > self._max_payload:
            self._poisoned = True
            raise ProtocolError(f"payload length {length} exceeds "
                                f"the payload bound ({self._max_payload})")
        try:
            kind = MsgKind(kind)
        except ValueError:
            self._poisoned = True
            raise ProtocolError(f"unknown message kind {kind}") from None
        if len(self._buf) < _HEADER.size + length:
            return None
        payload = bytes(self._buf[_HEADER.size:_HEADER.size + length])
        del self._buf[:_HEADER.size + length]
        return kind, payload


# ----------------------------------------------------------------------
# Blocking client (tests, benchmarks, experiments)
# ----------------------------------------------------------------------
class StreamClient:
    """One daemon stream over a blocking socket.

    Small by design — send frames, pump the socket, collect results —
    so tests and benchmarks can drive many interleaved streams from a
    single thread.  ``results`` maps the client's sequence numbers to
    :data:`~repro.serve.workers.OUTPUT_COLUMNS` rows; ``shed`` holds
    the sequence numbers the daemon refused under admission control.
    """

    def __init__(self, host: str, port: int,
                 stream_id: int = ASSIGN_STREAM,
                 connect_timeout_s: float = 30.0):
        self.sock = socket.create_connection((host, port),
                                             timeout=connect_timeout_s)
        self._sel = selectors.DefaultSelector()
        self._decoder = MessageDecoder()
        self.results: Dict[int, np.ndarray] = {}
        self.shed: List[int] = []
        self.errors: List[str] = []
        self.eos_seen = False
        self._next_seq = 0
        try:
            # Frames stream back-to-back as small writes; without NODELAY
            # Nagle parks each one behind the previous write's unACKed
            # tail for up to a delayed-ACK interval.
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.sock.setblocking(False)
            self._sel.register(self.sock, selectors.EVENT_READ)
            self._send_all(pack_hello(stream_id))
            self.stream_id, self.n_monitors = self._await_welcome(
                connect_timeout_s)
        except BaseException:
            # A refused HELLO (draining, stream id in use) must not leave
            # the socket for the garbage collector to find.
            self.close()
            raise

    # -- plumbing ------------------------------------------------------
    def _wait_io(self, timeout_s: float, *, write: bool = False) -> None:
        """Block until the socket is ready (or *timeout_s* elapses).

        A readiness wait instead of a sleep poll: the client wakes the
        instant data (or buffer space, with ``write=True``) arrives —
        no 1–2 ms latency floor on small-batch round-trips, no burnt
        CPU at high stream counts.
        """
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if write
                                         else 0)
        self._sel.modify(self.sock, events)
        try:
            self._sel.select(max(timeout_s, 0.0))
        finally:
            self._sel.modify(self.sock, selectors.EVENT_READ)

    def _send_all(self, data: bytes) -> None:
        view = memoryview(data)
        while view:
            try:
                sent = self.sock.send(view)
            except BlockingIOError:
                # Socket buffer full: keep draining server pushes so a
                # send-heavy client can never deadlock against a
                # result-heavy server, then wait for writability (or
                # fresh server data) instead of spinning.
                self.pump()
                self._wait_io(0.25, write=True)
                continue
            view = view[sent:]

    def _await_welcome(self, timeout_s: float) -> Tuple[int, int]:
        deadline = time.monotonic() + timeout_s
        while True:
            self.pump()
            if hasattr(self, "_welcome"):
                return self._welcome
            if self.errors:
                raise ProtocolError(f"server error: {self.errors[0]}")
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("no WELCOME from daemon")
            self._wait_io(min(remaining, 0.25))

    # -- public --------------------------------------------------------
    def send(self, vec: np.ndarray, seq: Optional[int] = None) -> int:
        """Ship one frame; returns its sequence number."""
        if seq is None:
            seq = self._next_seq
        self._next_seq = max(self._next_seq, seq + 1)
        self._send_all(pack_frame(seq, vec))
        return seq

    def send_eos(self) -> None:
        self._send_all(pack_eos())

    def pump(self) -> None:
        """Drain whatever the socket has buffered (non-blocking)."""
        while True:
            try:
                data = self.sock.recv(1 << 16)
            except BlockingIOError:
                return
            except OSError:
                return
            if not data:
                return
            self._decoder.feed(data)
            for kind, payload in self._decoder:
                if kind == MsgKind.RESULT:
                    seq, row = unpack_result(payload)
                    self.results[seq] = row
                elif kind == MsgKind.SHED:
                    self.shed.append(unpack_seq(payload))
                elif kind == MsgKind.EOS:
                    self.eos_seen = True
                elif kind == MsgKind.WELCOME:
                    self._welcome = unpack_welcome(payload)
                elif kind == MsgKind.ERROR:
                    self.errors.append(payload.decode("utf-8", "replace"))

    def settled(self) -> bool:
        """Every sent frame is accounted for (result or shed)."""
        return len(self.results) + len(self.shed) >= self._next_seq

    def wait_settled(self, timeout_s: float = 60.0) -> None:
        deadline = time.monotonic() + timeout_s
        while True:
            self.pump()
            if self.settled():
                return
            if self.errors:
                raise ProtocolError(f"server error: {self.errors[0]}")
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"stream {self.stream_id}: "
                    f"{len(self.results)} results + {len(self.shed)} shed "
                    f"of {self._next_seq} frames after {timeout_s:.0f}s")
            self._wait_io(min(remaining, 0.25))

    def finish(self, timeout_s: float = 60.0) -> None:
        """EOS handshake: flush the tail batch, wait for all results."""
        self.send_eos()
        deadline = time.monotonic() + timeout_s
        while True:
            self.pump()
            if self.eos_seen and self.settled():
                return
            if self.errors:
                raise ProtocolError(f"server error: {self.errors[0]}")
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"stream {self.stream_id}: no EOS "
                                   f"after {timeout_s:.0f}s")
            self._wait_io(min(remaining, 0.25))

    def close(self) -> None:
        try:
            self._sel.close()
        except Exception:  # pragma: no cover - defensive
            pass
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - defensive
            pass

    def __enter__(self) -> "StreamClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
