"""Tests for ``repro.serve.daemon`` + ``repro.serve.protocol``.

The daemon extends the farm's determinism contract to frames that
arrive one at a time over sockets (docs/serving.md, daemon section):

* the ``repro-serve/1`` framing layer is sans-io and loss-free under
  arbitrary fragmentation, and poisons itself on any framing violation,
* :class:`StreamIngress` makes admission + batching a pure function of
  the offer/complete sequence — shedding and batch boundaries are
  reproducible with no sockets involved,
* concurrent TCP streams are bit-identical to the sequential
  per-stream reference (:func:`serve_streams_reference`), interleaving
  and crash replays included,
* overload sheds at admission only: whatever was accepted produces
  exactly the records of a run that never saw the shed frames,
* drain loses no accepted frame; reload swaps the pool under a live
  listener,
* the ``repro.core.api.start_daemon`` facade validates like
  ``build_farm``.

No pytest-asyncio: the daemon runs on its own background loop thread
via :class:`DaemonHandle`, and tests drive it synchronously.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.core.api import RuntimeConfig, start_daemon
from repro.plants import BeamLossPlant
from repro.hls import HLSConfig, convert
from repro.nn import Conv1D, Dense, Flatten, Input, Model, ReLU, Sigmoid
from repro.obs import ObsConfig, Observability
from repro.serve import (
    BatchingPolicy,
    FarmSpec,
    OUTPUT_COLUMNS,
    ServingDaemon,
    StreamIngress,
    drive_streams,
    serve_streams_reference,
)
from repro.serve.batching import plan_microbatches, stream_arrivals
from repro.serve.protocol import (
    ASSIGN_STREAM,
    MAX_PAYLOAD,
    MessageDecoder,
    MsgKind,
    ProtocolError,
    pack,
    pack_eos,
    pack_error,
    pack_frame,
    pack_hello,
    pack_result,
    pack_shed,
    pack_welcome,
    unpack_frame,
    unpack_hello,
    unpack_result,
    unpack_seq,
    unpack_welcome,
)

N_MONITORS = 16


@pytest.fixture(scope="module")
def tiny_hls():
    inp = Input((N_MONITORS, 1), name="in")
    x = Conv1D(4, 3, seed=21, name="c1")(inp)
    x = ReLU(name="r1")(x)
    x = Dense(2, seed=23, name="d1")(x)
    x = Sigmoid(name="s1")(x)
    model = Model(inp, Flatten(name="f1")(x), name="daemon-tiny")
    return convert(model, HLSConfig())


@pytest.fixture(scope="module")
def tiny_spec(tiny_hls):
    return FarmSpec(model=tiny_hls,
                    config=RuntimeConfig(batch_inference=True),
                    plant=BeamLossPlant(min_votes=1))


def frames_for(n, seed=77):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0, size=(n, N_MONITORS))


def launch(tiny_hls, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("batching", BatchingPolicy(max_batch=4))
    kwargs.setdefault("seed", 5)
    return start_daemon(tiny_hls,
                        config=RuntimeConfig(batch_inference=True),
                        plant=BeamLossPlant(min_votes=1),
                        **kwargs)


# ----------------------------------------------------------------------
# Wire protocol: framing round-trips, fragmentation, poisoning
# ----------------------------------------------------------------------
class TestProtocol:
    def test_round_trip_survives_any_fragmentation(self):
        vec = np.random.default_rng(1).normal(size=N_MONITORS)
        row = np.random.default_rng(2).normal(size=7)
        wire = (pack_hello(9) + pack_welcome(9, N_MONITORS)
                + pack_frame(3, vec) + pack_result(3, row)
                + pack_shed(4) + pack_eos() + pack_error("boom"))
        dec = MessageDecoder()
        msgs = []
        for i in range(len(wire)):            # worst case: byte at a time
            dec.feed(wire[i:i + 1])
            msgs.extend(dec)
        kinds = [k for k, _ in msgs]
        assert kinds == [MsgKind.HELLO, MsgKind.WELCOME, MsgKind.FRAME,
                         MsgKind.RESULT, MsgKind.SHED, MsgKind.EOS,
                         MsgKind.ERROR]
        assert unpack_hello(msgs[0][1]) == (1, 9)
        assert unpack_welcome(msgs[1][1]) == (9, N_MONITORS)
        seq, got_vec = unpack_frame(msgs[2][1])
        assert seq == 3
        # bit-exact: the wire carries the same little-endian f64 words
        assert got_vec.tobytes() == vec.astype("<f8").tobytes()
        seq, got_row = unpack_result(msgs[3][1])
        assert seq == 3 and got_row.tobytes() == row.astype("<f8").tobytes()
        assert unpack_seq(msgs[4][1]) == 4
        assert msgs[6][1].decode() == "boom"

    def test_decoder_poisons_on_bad_magic(self):
        dec = MessageDecoder()
        dec.feed(b"XXXX" + bytes(5))
        with pytest.raises(ProtocolError, match="magic"):
            dec.next_message()
        with pytest.raises(ProtocolError, match="poisoned"):
            dec.feed(pack_eos())

    def test_decoder_rejects_oversize_and_unknown_kind(self):
        import struct
        dec = MessageDecoder()
        dec.feed(struct.pack("!4sBI", b"RSRV", 1, MAX_PAYLOAD + 1))
        with pytest.raises(ProtocolError, match="payload bound"):
            dec.next_message()
        dec2 = MessageDecoder()
        dec2.feed(struct.pack("!4sBI", b"RSRV", 200, 0))
        with pytest.raises(ProtocolError, match="unknown message kind"):
            dec2.next_message()
        with pytest.raises(ProtocolError, match="exceeds"):
            pack(MsgKind.FRAME, bytes(MAX_PAYLOAD + 1))

    def test_unpack_validation(self):
        with pytest.raises(ProtocolError):
            unpack_hello(b"\x00")
        with pytest.raises(ProtocolError):
            unpack_welcome(b"\x00" * 3)
        with pytest.raises(ProtocolError, match="8 \\+ 8k"):
            unpack_frame(b"\x00" * 11)
        with pytest.raises(ProtocolError):
            unpack_seq(b"\x00" * 4)


# ----------------------------------------------------------------------
# StreamIngress: sans-io admission + batching determinism
# ----------------------------------------------------------------------
class TestStreamIngress:
    def test_batches_equal_plan_microbatches(self):
        policy = BatchingPolicy(max_batch=4)
        ing = StreamIngress(0, policy=policy, period_s=3e-3,
                            queue_limit=64)
        n = 11
        for f in frames_for(n):
            assert ing.offer(f)
        ing.end()
        got = []
        while (b := ing.next_ready()) is not None:
            got.append(b)
        assert got == plan_microbatches(stream_arrivals(n, 3e-3), policy)
        assert ing.shed == 0

    def test_shed_at_queue_limit_is_deterministic(self):
        ing = StreamIngress(0, policy=BatchingPolicy(max_batch=2),
                            queue_limit=4)
        frames = frames_for(10)
        admitted = [ing.offer(f) for f in frames]
        # exactly the first queue_limit frames are in, the rest shed
        assert admitted == [True] * 4 + [False] * 6
        assert (ing.accepted, ing.shed) == (4, 6)
        # completions reopen the window deterministically
        ing.mark_completed(2)
        assert ing.offer(frames[0]) and ing.offer(frames[1])
        assert not ing.offer(frames[2])
        assert (ing.accepted, ing.shed) == (6, 7)
        # the accepted clock never advanced for shed frames
        assert ing.frames[-1] is not None and len(ing.frames) == 6

    def test_ended_stream_sheds_everything(self):
        ing = StreamIngress(0, queue_limit=8)
        assert ing.offer(frames_for(1)[0])
        ing.end()
        assert not ing.offer(frames_for(1)[0])
        assert ing.shed == 1
        assert not ing.drained            # one accepted frame pending
        ing.mark_completed(1)
        ing.next_ready()
        assert ing.drained or ing.next_ready() is None

    def test_validation(self):
        with pytest.raises(ValueError, match="queue_limit"):
            StreamIngress(0, queue_limit=0)
        with pytest.raises(ValueError, match="arrival_mode"):
            StreamIngress(0, arrival_mode="poisson")


# ----------------------------------------------------------------------
# End-to-end over TCP
# ----------------------------------------------------------------------
class TestDaemonEndToEnd:
    def test_concurrent_streams_bit_identical_to_reference(
            self, tiny_hls, tiny_spec):
        policy = BatchingPolicy(max_batch=4)
        stream_frames = {s: frames_for(10 + s, seed=100 + s)
                         for s in range(3)}
        ref = serve_streams_reference(tiny_spec, stream_frames,
                                      batching=policy, seed=5)
        total = sum(f.shape[0] for f in stream_frames.values())
        with launch(tiny_hls) as handle:
            clients = {s: handle.client(stream_id=s)
                       for s in stream_frames}
            longest = max(f.shape[0] for f in stream_frames.values())
            for i in range(longest):      # adversarial interleaving
                for s, frames in stream_frames.items():
                    if i < frames.shape[0]:
                        clients[s].send(frames[i])
            for s, c in clients.items():
                c.finish(timeout_s=120)
                assert c.eos_seen and not c.shed
                n = stream_frames[s].shape[0]
                got = np.asarray([c.results[i] for i in range(n)])
                assert np.array_equal(got, ref[s].rows), f"stream {s}"
                c.close()
            report = handle.drain()
        assert report.frames_total == total
        assert report.frames_shed == 0
        assert report.batches == sum(len(r.batches) for r in ref.values())
        assert report.health.frames_total == total
        assert report.health.frames_shed == 0
        assert report.obs is None         # no ObsConfig on the spec

    def test_overload_sheds_at_admission_only(self, tiny_hls, tiny_spec):
        # Blast one stream with a queue bound far below the load: some
        # frames shed (reported per frame), and the accepted
        # subsequence produces exactly the records of a run that never
        # saw the shed frames — the admission-time shedding contract.
        frames = frames_for(40)
        with launch(tiny_hls, queue_limit=4) as handle:
            c = handle.client(stream_id=0)
            for i in range(frames.shape[0]):
                c.send(frames[i])
            c.finish(timeout_s=120)
            report = handle.drain()
            assert c.shed                              # overload happened
            accepted = sorted(c.results)
            assert sorted(c.shed) + accepted == sorted(
                range(frames.shape[0])) or not set(c.shed) & set(accepted)
            assert len(accepted) + len(c.shed) == frames.shape[0]
            ref = serve_streams_reference(
                tiny_spec, {0: frames[accepted]},
                batching=BatchingPolicy(max_batch=4), seed=5)
            got = np.asarray([c.results[i] for i in accepted])
            assert np.array_equal(got, ref[0].rows)
            c.close()
        assert report.frames_shed == len(c.shed)
        assert report.health.frames_shed == report.frames_shed
        assert report.frames_total == len(accepted)

    def test_drain_loses_no_accepted_frame_and_reload_reopens(
            self, tiny_hls, tiny_spec):
        frames = frames_for(10)
        ref = serve_streams_reference(
            tiny_spec, {7: frames}, batching=BatchingPolicy(max_batch=4),
            seed=5)
        with launch(tiny_hls) as handle:
            c = handle.client(stream_id=7)
            for i in range(frames.shape[0]):
                c.send(frames[i])
            # Wait for the first two batches' results — the socket is
            # ordered, so their arrival proves all 10 frames were
            # accepted.  Frames 8..9 are then parked in the open tail
            # batch (mid-stream partials wait for the policy boundary).
            deadline = time.monotonic() + 60
            while len(c.results) < 8 and time.monotonic() < deadline:
                c.pump()
                time.sleep(0.002)
            assert len(c.results) >= 8 and not c.shed
            # No EOS: drain must still flush and deliver the tail.
            report = handle.drain()
            c.wait_settled(timeout_s=60)
            assert len(c.results) == frames.shape[0] and not c.shed
            assert report.frames_total == frames.shape[0]
            got = np.asarray([c.results[i]
                              for i in range(frames.shape[0])])
            assert np.array_equal(got, ref[7].rows)
            # While draining, new connections are refused...
            with pytest.raises(ProtocolError, match="draining"):
                handle.client(stream_id=8)
            c.close()
            # ... until a reload swaps in a fresh pool; stream ids are
            # then reusable and results stay bit-identical.
            handle.reload()
            c2 = handle.client(stream_id=7)
            for i in range(frames.shape[0]):
                c2.send(frames[i])
            c2.finish(timeout_s=120)
            got2 = np.asarray([c2.results[i]
                               for i in range(frames.shape[0])])
            assert np.array_equal(got2, ref[7].rows)
            c2.close()

    def test_home_worker_crash_replays_history_bit_exactly(
            self, tiny_hls, tiny_spec):
        frames = frames_for(16, seed=42)
        ref = serve_streams_reference(
            tiny_spec, {0: frames}, batching=BatchingPolicy(max_batch=4),
            seed=5)
        with launch(tiny_hls, workers=2) as handle:
            c = handle.client(stream_id=0)
            for i in range(8):
                c.send(frames[i])
            # Stream-mode batches flush in pairs; 6 results prove three
            # completed batches of replica state live on the home
            # worker (frames 6..7 park in the open tail batch).
            deadline = time.monotonic() + 120
            while len(c.results) < 6 and time.monotonic() < deadline:
                c.pump()
                time.sleep(0.002)
            assert len(c.results) >= 6
            pool = handle.daemon._pool
            home = pool.home(0)
            assert home is not None
            os.kill(home.pid, signal.SIGKILL)
            deadline = time.monotonic() + 60
            while (pool.stats.worker_restarts < 1
                   and time.monotonic() < deadline):
                time.sleep(0.02)                # the loop's reader reaps
            for i in range(8, 16):
                c.send(frames[i])
            c.finish(timeout_s=120)
            assert not c.shed
            got = np.asarray([c.results[i] for i in range(16)])
            assert np.array_equal(got, ref[0].rows)
            report = handle.drain()
            c.close()
        assert report.worker_restarts >= 1
        assert report.frames_total == 16

    def test_stalled_worker_fails_the_stream_and_stop_still_tears_down(
            self, tiny_hls, monkeypatch):
        # A home worker that stops answering (SIGSTOP: alive, silent) is
        # caught by the pool's stall guard, which only the loop's stall
        # check can reach: no result, no EOF, so no reader ever fires.
        # stop() must then finish its teardown and only after that
        # raise the failed stream's error.
        import socket as socket_mod

        import repro.serve.workers as workers_mod
        from repro.serve import WorkerCrashError

        monkeypatch.setattr(workers_mod, "STALL_TIMEOUT_S", 2.0)
        frames = frames_for(16)
        handle = launch(tiny_hls)
        stopped_pid = None
        try:
            c = handle.client(stream_id=0)
            for i in range(8):
                c.send(frames[i])
            deadline = time.monotonic() + 120
            while len(c.results) < 6 and time.monotonic() < deadline:
                c.pump()
                time.sleep(0.002)
            assert len(c.results) >= 6
            stopped_pid = handle.daemon._pool.home(0).pid
            os.kill(stopped_pid, signal.SIGSTOP)
            for i in range(8, 16):
                c.send(frames[i])
            t0 = time.monotonic()
            with pytest.raises(ProtocolError,
                               match="stream failed: no progress for 2s"):
                c.finish(timeout_s=60)
            assert time.monotonic() - t0 >= 2.0
            c.close()
            address = handle.address
            with pytest.raises(WorkerCrashError, match="no progress for 2s"):
                handle.stop()
            assert handle._stopped and not handle._thread.is_alive()
            with pytest.raises(OSError):
                socket_mod.create_connection(address, timeout=5).close()
        finally:
            if stopped_pid is not None:
                try:
                    os.kill(stopped_pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            handle.stop()

    def test_reload_after_a_pool_failure_reopens(self, tiny_hls, tiny_spec):
        # With no restart budget, killing the home worker fails the pool
        # and the stream.  reload() still swaps in a fresh pool and
        # reopens admission, then raises that failure.
        from repro.serve import WorkerCrashError

        frames = frames_for(10)
        ref = serve_streams_reference(
            tiny_spec, {0: frames}, batching=BatchingPolicy(max_batch=4),
            seed=5)
        with launch(tiny_hls, max_restarts=0) as handle:
            c = handle.client(stream_id=0)
            for i in range(4):
                c.send(frames[i])
            deadline = time.monotonic() + 120
            while len(c.results) < 2 and time.monotonic() < deadline:
                c.pump()
                time.sleep(0.002)
            assert len(c.results) >= 2
            os.kill(handle.daemon._pool.home(0).pid, signal.SIGKILL)
            with pytest.raises(ProtocolError, match="restart budget"):
                c.finish(timeout_s=60)
            c.close()
            with pytest.raises(WorkerCrashError, match="restart budget"):
                handle.reload()
            c2 = handle.client(stream_id=0)
            for f in frames:
                c2.send(f)
            c2.finish(timeout_s=120)
            got = np.asarray([c2.results[i] for i in range(len(frames))])
            assert np.array_equal(got, ref[0].rows)
            c2.close()

    def test_stream_finishes_when_it_drains(self, tiny_hls):
        # A stream that ends (EOS) and completes its last batch sends its
        # final task at once: by the time the client sees EOS, the
        # daemon holds none of its frames or history, has its obs
        # snapshot, and its worker has dropped the replica — no drain()
        # needed.  The epoch's totals are unchanged by the early finish.
        frames = {s: frames_for(6 + s, seed=200 + s) for s in range(3)}
        ref = serve_streams_reference(
            FarmSpec(model=tiny_hls,
                     config=RuntimeConfig(batch_inference=True),
                     plant=BeamLossPlant(min_votes=1)),
            frames, batching=BatchingPolicy(max_batch=4), seed=5)
        with launch(tiny_hls, obs=ObsConfig(flight_frames=4)) as handle:
            for s, block in frames.items():
                c = handle.client(stream_id=s)
                for f in block:
                    c.send(f)
                c.finish(timeout_s=120)
                got = np.asarray([c.results[i] for i in range(len(block))])
                assert np.array_equal(got, ref[s].rows)
                c.close()
                stream = handle.daemon._streams[s]
                assert stream.finished
                assert not stream.ingress.frames
                assert not stream.history and not stream.seqs
                assert stream.batches == len(ref[s].batches)
                assert stream.obs_snapshot is not None
                assert handle.daemon._pool.home(s) is None
            report = handle.drain()
        assert report.frames_total == sum(len(f) for f in frames.values())
        assert report.batches == sum(len(r.batches) for r in ref.values())
        assert report.obs["metrics"]["counters"]["frames.total"] == \
            report.frames_total
        assert report.health.frames_total == report.frames_total

    def test_stream_id_collision_and_missing_hello_rejected(
            self, tiny_hls):
        with launch(tiny_hls) as handle:
            c = handle.client(stream_id=3)
            with pytest.raises(ProtocolError, match="already in use"):
                handle.client(stream_id=3)
            c.close()
            # A FRAME before HELLO is a protocol violation.
            import socket as socket_mod
            raw = socket_mod.create_connection(handle.address, timeout=30)
            raw.sendall(pack_frame(0, np.zeros(N_MONITORS)))
            dec = MessageDecoder()
            deadline = time.monotonic() + 30
            msg = None
            while msg is None and time.monotonic() < deadline:
                data = raw.recv(1 << 16)
                if not data:
                    break
                dec.feed(data)
                msg = dec.next_message()
            raw.close()
            assert msg is not None and msg[0] == MsgKind.ERROR
            assert b"HELLO" in msg[1]

    def test_unknown_protocol_version_refused_cleanly(self, tiny_hls):
        # A HELLO advertising a future repro-serve version gets a clean
        # application-level ERROR (naming both versions) and a close —
        # never a framing poison — and the listener stays healthy for
        # the next well-versioned client.
        import socket as socket_mod
        with launch(tiny_hls) as handle:
            raw = socket_mod.create_connection(handle.address, timeout=30)
            raw.sendall(pack_hello(0, version=99))
            dec = MessageDecoder()
            msg = None
            deadline = time.monotonic() + 30
            while msg is None and time.monotonic() < deadline:
                data = raw.recv(1 << 16)
                if not data:
                    break
                dec.feed(data)
                msg = dec.next_message()
            assert msg is not None and msg[0] == MsgKind.ERROR
            assert b"version" in msg[1] and b"99" in msg[1]
            # server closes after the refusal
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                data = raw.recv(1 << 16)
                if not data:
                    break
                dec.feed(data)
            raw.close()
            # the daemon still serves properly-versioned clients
            c = handle.client(stream_id=0)
            frames = frames_for(4)
            for i in range(4):
                c.send(frames[i])
            c.finish(timeout_s=120)
            assert len(c.results) == 4 and not c.errors
            c.close()


# ----------------------------------------------------------------------
# drive_streams: the one multi-stream client loop
# ----------------------------------------------------------------------
class TestDriveStreams:
    def test_unequal_streams_match_the_reference(self, tiny_hls,
                                                 tiny_spec):
        stream_frames = {0: frames_for(9, seed=1), 1: frames_for(0),
                         2: frames_for(4, seed=2)}
        ref = serve_streams_reference(
            tiny_spec, stream_frames, batching=BatchingPolicy(max_batch=4),
            seed=5)
        with launch(tiny_hls) as handle:
            rows, shed, wall_s = drive_streams(handle, stream_frames,
                                               timeout_s=120)
        assert shed == {0: [], 1: [], 2: []}
        assert wall_s > 0
        for s, frames in stream_frames.items():
            assert rows[s].shape == (len(frames), len(OUTPUT_COLUMNS))
            assert np.array_equal(rows[s], ref[s].rows), f"stream {s}"

    def test_sheds_are_reported_per_stream(self, tiny_hls, tiny_spec):
        # Two frames fill the queue and no batch closes before EOS, so
        # each stream keeps frames 0..1 and sheds the rest.
        stream_frames = {0: frames_for(6, seed=3), 1: frames_for(3, seed=4)}
        with launch(tiny_hls, queue_limit=2) as handle:
            rows, shed, _ = drive_streams(handle, stream_frames,
                                          timeout_s=120)
        assert shed == {0: [2, 3, 4, 5], 1: [2]}
        ref = serve_streams_reference(
            tiny_spec, {s: f[:2] for s, f in stream_frames.items()},
            batching=BatchingPolicy(max_batch=4), seed=5)
        for s in stream_frames:
            assert np.array_equal(rows[s], ref[s].rows), f"stream {s}"


# ----------------------------------------------------------------------
# Facade + constructor validation
# ----------------------------------------------------------------------
class TestDaemonFacade:
    def test_start_daemon_validates_like_build_farm(self, tiny_hls):
        with pytest.raises(TypeError, match="ObsConfig"):
            start_daemon(tiny_hls,
                         obs=Observability.from_config(ObsConfig()))
        with pytest.raises(TypeError, match="ObsConfig"):
            start_daemon(tiny_hls, obs=object())

    def test_taken_port_fails_before_spawning_workers(self, tiny_hls):
        import multiprocessing as mp

        with launch(tiny_hls, workers=1) as handle:
            children = len(mp.active_children())
            with pytest.raises(OSError):
                launch(tiny_hls, port=handle.address[1])
            assert len(mp.active_children()) == children

    def test_daemon_validation(self, tiny_spec):
        with pytest.raises(ValueError, match="workers"):
            ServingDaemon(tiny_spec, workers=0)
        with pytest.raises(ValueError, match="arrival_mode"):
            ServingDaemon(tiny_spec, arrival_mode="poisson")
        with pytest.raises(ValueError, match="arrival_mode"):
            serve_streams_reference(tiny_spec, {0: frames_for(2)},
                                    arrival_mode="poisson")

    def test_exports(self):
        import repro.serve as serve
        for name in ("ServingDaemon", "DaemonHandle", "DaemonReport",
                     "StreamIngress", "serve_streams_reference",
                     "drive_streams",
                     "StreamClient", "MessageDecoder", "ProtocolError"):
            assert hasattr(serve, name), name
        from repro.core.api import __all__ as api_all
        assert "start_daemon" in api_all
