"""Tests for ``repro.serve.remote`` + ``repro.serve.replay``.

The cross-host guarantees pinned here:

* shipping a shard task to a host agent changes *nothing* about its
  output: remote runs are bit-identical to the sequential in-process
  reference for mixed local/remote topologies and every compile level,
* SIGKILLing an agent mid-run is survivable: the pool requeues the
  dead host's in-flight shards under the restart budget and the
  results are still bit-identical (partition-aware recovery),
* closing an agent (SIGTERM) shuts its pool down in order: exit code
  0, no worker or resource tracker left behind,
* the ``repro-hosts/1`` handshake refuses unknown protocol versions
  with a clean application-level error, never a framing poison,
* the bursty traffic-replay generator is seeded-deterministic: same
  seed, same arrival schedule, same shed decisions, bit for bit.
"""

import os
import pickle
import socket
import time

import numpy as np
import pytest

from repro.core.api import RuntimeConfig, build_farm
from repro.plants import BeamLossPlant
from repro.hls import HLSConfig, convert
from repro.nn import Conv1D, Dense, Flatten, Input, Model, ReLU, Sigmoid
from repro.serve import BatchingPolicy, FarmSpec, ShardedNodeFarm
from repro.serve.protocol import (
    HOST_MAX_PAYLOAD,
    HOSTS_PROTO_VERSION,
    MessageDecoder,
    MsgKind,
    pack,
    pack_host_hello,
    unpack_host_welcome,
)
from repro.serve.remote import parse_host, spawn_agent
from repro.serve.replay import (
    BurstModel,
    accepted_frames,
    simulate_admission,
    synth_schedule,
)
from repro.serve.workers import Pool, Task, WorkerCrashError

N_MONITORS = 16


@pytest.fixture(scope="module")
def tiny_hls():
    inp = Input((N_MONITORS, 1), name="in")
    x = Conv1D(4, 3, seed=21, name="c1")(inp)
    x = ReLU(name="r1")(x)
    x = Dense(2, seed=23, name="d1")(x)
    x = Sigmoid(name="s1")(x)
    model = Model(inp, Flatten(name="f1")(x), name="remote-tiny")
    return convert(model, HLSConfig())


def frames_for(n, seed=77):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0, size=(n, N_MONITORS))


def _children(pid):
    """``(pid, cmdline)`` of every process whose parent is *pid*."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            with open(f"/proc/{entry}/cmdline", "rb") as f:
                cmd = f.read().replace(b"\0", b" ").decode()
        except OSError:
            continue
        if ppid == pid:
            out.append((int(entry), cmd))
    return out


def _alive(pid):
    """True while *pid* exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _shard_rows(handle):
    """Each shard's output rows, as bytes, in shard order."""
    return [handle.results[t.task_id].rows.tobytes() for t in handle.tasks]


def _shard_rows_of(result, n_shards):
    """The same for a farm result (shard s owns rows s, s + n, ...)."""
    return [np.ascontiguousarray(result.outputs[s::n_shards]).tobytes()
            for s in range(n_shards)]


def farm_for(hls, *, level=0, n_shards=3, hosts=(), seed=3):
    return build_farm(
        hls,
        config=RuntimeConfig(compile_level=level, batch_inference=True),
        plant=BeamLossPlant(min_votes=1),
        n_shards=n_shards,
        batching=BatchingPolicy(max_batch=4),
        seed=seed,
        hosts=hosts,
    )


# ----------------------------------------------------------------------
# Pure helpers
# ----------------------------------------------------------------------
class TestHelpers:
    def test_parse_host(self):
        assert parse_host("127.0.0.1:9000") == ("127.0.0.1", 9000)
        assert parse_host(("10.0.0.2", 80)) == ("10.0.0.2", 80)
        assert parse_host("[::1]:80") == ("[::1]", 80)
        with pytest.raises(ValueError, match="host:port"):
            parse_host("no-port-here")

    def test_plan_ships_each_shard_its_own_frames(self, tiny_hls):
        frames = frames_for(12)
        farm = farm_for(tiny_hls)
        task = farm.plan(12, frames=frames).tasks[1]   # globals 1, 4, 7, 10
        assert task.session == 1 and task.start == 0   # seed unchanged
        assert task.seed_entropy == farm.seed
        assert task.batches == ((0, 2), (2, 4))        # shard-local
        assert np.array_equal(task.frames, frames[[1, 4, 7, 10]])
        # bit-identity of the slice matters, not just value equality
        assert (task.frames.dtype == np.float64
                and task.frames.flags["C_CONTIGUOUS"])

    def test_host_pool_validates_inputs(self, tiny_hls):
        spec = FarmSpec(model=tiny_hls, config=RuntimeConfig())
        with pytest.raises(ValueError, match="at least one worker or host"):
            Pool(spec, 0, hosts=())
        with pytest.raises(ValueError, match="workers"):
            Pool(spec, -1, hosts=["127.0.0.1:1"])
        pool = Pool(spec, hosts=["127.0.0.1:1"])
        with pytest.raises(RuntimeError, match="not started"):
            pool.submit([Task(task_id=0, session=0, seed_entropy=0)])


# ----------------------------------------------------------------------
# Cross-host bit-identity + partition recovery (real agent processes)
# ----------------------------------------------------------------------
class TestCrossHost:
    @pytest.mark.parametrize("level", [0, 2])
    def test_remote_topologies_bit_identical(self, tiny_hls, level):
        frames = frames_for(24)
        farm = farm_for(tiny_hls, level=level)
        ref = farm.serve_reference(frames)
        with spawn_agent(workers=1) as a1, spawn_agent(workers=1) as a2:
            # both topologies reuse one spec object so the agents see
            # one FarmSpec each (one spec per agent by contract)
            two_remote = ShardedNodeFarm(
                farm.spec, n_shards=3, batching=farm.batching,
                seed=farm.seed, hosts=[a1.address, a2.address])
            res = two_remote.serve(frames, workers=0)
            assert np.array_equal(res.outputs, ref.outputs), \
                f"2-remote diverged at level {level}"
            assert res.health.host_failures == 0

            mixed = ShardedNodeFarm(
                farm.spec, n_shards=3, batching=farm.batching,
                seed=farm.seed, hosts=[a1.address])
            res2 = mixed.serve(frames, workers=1)
            assert np.array_equal(res2.outputs, ref.outputs), \
                f"1-local+1-remote diverged at level {level}"

    def test_sigkill_partition_requeues_and_stays_identical(
            self, tiny_hls):
        frames = frames_for(30)
        farm = farm_for(tiny_hls, n_shards=4)
        ref = farm.serve_reference(frames)
        with spawn_agent(workers=1) as a1, spawn_agent(workers=1) as a2:
            hosted = ShardedNodeFarm(
                farm.spec, n_shards=4, batching=farm.batching,
                seed=farm.seed, hosts=[a1.address, a2.address])
            pool = hosted.start_pool(workers=0)
            tasks = hosted.plan(len(frames), frames=frames).tasks
            try:
                handle = pool.submit(tasks)
                a2.kill()                        # hard partition
                pool.wait(handle, timeout_s=300)
                assert _shard_rows(handle) == _shard_rows_of(ref, 4)
                assert pool.stats.host_failures == 1
                assert pool.stats.requeued_tasks >= 1
                assert pool.n_workers == 1       # a1's single slot
                # the pool keeps serving on the surviving host
                res = hosted.serve(frames)
                assert np.array_equal(res.outputs, ref.outputs)
                assert res.records == ref.records
                assert res.health.host_failures == 0
            finally:
                pool.close()

    @pytest.mark.skipif(not os.path.isdir("/proc"),
                        reason="reads the process table from /proc")
    def test_close_exits_zero_and_leaves_no_children(self, tiny_hls):
        """close() sends SIGTERM; the agent takes the Ctrl-C path
        (pool closed, workers joined) and exits 0.  Its resource
        tracker follows once the agent's end of its pipe closes."""
        frames = frames_for(12)
        farm = farm_for(tiny_hls, n_shards=2)
        agent = spawn_agent(workers=2)
        try:
            hosted = ShardedNodeFarm(
                farm.spec, n_shards=2, batching=farm.batching,
                seed=farm.seed, hosts=[agent.address])
            res = hosted.serve(frames, workers=0)
            assert res.health.host_failures == 0
            kids = _children(agent.pid)
            workers = [pid for pid, cmd in kids
                       if "resource_tracker" not in cmd]
            assert len(workers) == 2, kids
        finally:
            agent.close()
        assert agent.proc.returncode == 0
        assert not any(_alive(pid) for pid in workers)  # joined on exit
        deadline = time.monotonic() + 10.0
        while (any(_alive(pid) for pid, _ in kids)
               and time.monotonic() < deadline):
            time.sleep(0.05)
        assert not any(_alive(pid) for pid, _ in kids), kids

    def test_farms_sharing_an_agent_keep_their_own_task_ids(self,
                                                            tiny_hls):
        # Every farm numbers its tasks from 0; the agent runs them under
        # agent-wide ids and answers each farm under its own.  The two
        # farms' seeds differ, so any crossed result shows.
        frames = frames_for(12)
        farms = [farm_for(tiny_hls, n_shards=2, seed=seed)
                 for seed in (3, 4)]
        with spawn_agent(workers=2) as agent:
            hosted = [ShardedNodeFarm(
                farms[0].spec, n_shards=2, batching=f.batching, seed=f.seed,
                hosts=[agent.address]) for f in farms]
            pools = [h.start_pool(workers=0, max_restarts=0) for h in hosted]
            try:
                handles = [p.submit(h.plan(len(frames), frames=frames).tasks)
                           for p, h in zip(pools, hosted)]
                deadline = time.monotonic() + 120
                while (not all(h.done for h in handles)
                       and time.monotonic() < deadline):
                    for pool in pools:
                        pool.pump(0.02)
                for f, handle in zip(farms, handles):
                    assert handle.done and not handle.failed
                    assert _shard_rows(handle) == _shard_rows_of(
                        f.serve_reference(frames), 2)
                    assert sorted(handle.results) == [0, 1]
                    assert all(handle.results[tid].task_id == tid
                               for tid in handle.results)
            finally:
                for pool in pools:
                    pool.close()

    def test_partition_budget_exhausts_into_crash_error(self, tiny_hls):
        # One host, no local workers, budget 0: losing the only link
        # must surface as WorkerCrashError, not a hang.
        frames = frames_for(12)
        farm = farm_for(tiny_hls, n_shards=2)
        with spawn_agent(workers=1) as a1:
            hosted = ShardedNodeFarm(
                farm.spec, n_shards=2, batching=farm.batching,
                seed=farm.seed, hosts=[a1.address])
            pool = hosted.start_pool(workers=0, max_restarts=0)
            try:
                pool.submit(hosted.plan(len(frames), frames=frames).tasks)
                a1.kill()
                with pytest.raises(WorkerCrashError):
                    deadline = time.monotonic() + 120
                    while time.monotonic() < deadline:
                        pool.pump()
            finally:
                pool.close()

    def test_hosts_version_mismatch_refused_cleanly(self, tiny_hls):
        with spawn_agent(workers=1) as agent:
            raw = socket.create_connection(agent.address, timeout=30)
            try:
                raw.sendall(pack_host_hello(version=99))
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
            finally:
                raw.close()
            # the agent still welcomes a properly-versioned peer
            raw2 = socket.create_connection(agent.address, timeout=30)
            try:
                raw2.sendall(pack_host_hello())
                dec = MessageDecoder()
                msg = None
                deadline = time.monotonic() + 30
                while msg is None and time.monotonic() < deadline:
                    data = raw2.recv(1 << 16)
                    if not data:
                        break
                    dec.feed(data)
                    msg = dec.next_message()
                assert msg is not None and msg[0] == MsgKind.HOST_WELCOME
                version, slots = unpack_host_welcome(msg[1])
                assert version == HOSTS_PROTO_VERSION and slots == 1
                # ... and refuses a HOST_TASK that is not a pickled Task
                raw2.sendall(pack(MsgKind.HOST_SPEC,
                                  pickle.dumps(FarmSpec(model=tiny_hls)),
                                  max_payload=HOST_MAX_PAYLOAD))
                raw2.sendall(pack(MsgKind.HOST_TASK, pickle.dumps(object())))
                msgs = []
                deadline = time.monotonic() + 60
                while (not any(k == MsgKind.ERROR for k, _ in msgs)
                       and time.monotonic() < deadline):
                    data = raw2.recv(1 << 16)
                    if not data:
                        break
                    dec.feed(data)
                    msgs.extend(dec)
                assert [k for k, _ in msgs] == [MsgKind.HOST_SPEC_OK,
                                                MsgKind.ERROR]
                assert b"pickled Task" in msgs[1][1]
            finally:
                raw2.close()


# ----------------------------------------------------------------------
# Bursty replay: seeded determinism of arrivals + shed decisions
# ----------------------------------------------------------------------
class TestReplay:
    MODEL = BurstModel(burst_mean=24.0, gap_mean_s=0.012)

    def test_schedule_is_seeded_deterministic(self):
        a = synth_schedule(6, 20, seed=9, model=self.MODEL)
        b = synth_schedule(6, 20, seed=9, model=self.MODEL)
        assert a.signature() == b.signature()
        c = synth_schedule(6, 20, seed=10, model=self.MODEL)
        assert a.signature() != c.signature()
        for arrivals in a.arrivals:
            assert len(arrivals) == 20
            assert all(t2 >= t1 for t1, t2 in zip(arrivals, arrivals[1:]))

    def test_streams_draw_independent_arrival_processes(self):
        sched = synth_schedule(4, 16, seed=9, model=self.MODEL)
        assert len(set(sched.arrivals)) == 4       # pairwise distinct

    def test_admission_simulation_deterministic_and_conserving(self):
        sched = synth_schedule(8, 24, seed=11, model=self.MODEL)
        kw = dict(batching=BatchingPolicy(max_batch=8), queue_limit=6,
                  workers=2, service_per_frame_s=1.2e-3)
        sim = simulate_admission(sched, **kw)
        again = simulate_admission(sched, **kw)
        assert sim.signature() == again.signature()
        assert sim.total_shed > 0                  # bursts overflow
        for s in sim.streams:
            # conservation: every offered frame is accepted xor shed,
            # in offered order, disjointly
            assert sorted(s.accepted + s.shed) == list(range(s.offered))
            assert len(s.sim_latency_s) == len(s.accepted)
            assert all(lat >= 0 for lat in s.sim_latency_s)
            assert s.n_batches >= 1

    def test_wider_queue_sheds_less(self):
        sched = synth_schedule(8, 24, seed=11, model=self.MODEL)
        tight = simulate_admission(sched, queue_limit=4, workers=2,
                                   service_per_frame_s=1.2e-3)
        wide = simulate_admission(sched, queue_limit=64, workers=2,
                                  service_per_frame_s=1.2e-3)
        assert wide.total_shed < tight.total_shed
        assert wide.total_accepted > tight.total_accepted

    def test_accepted_frames_selects_admitted_subsequence(self):
        sched = synth_schedule(2, 10, seed=11, model=self.MODEL)
        sim = simulate_admission(sched, queue_limit=2, workers=1,
                                 service_per_frame_s=5e-3)
        stream_frames = [frames_for(10, seed=s) for s in range(2)]
        admitted = accepted_frames(sim, stream_frames)
        for s, ssim in enumerate(sim.streams):
            assert np.array_equal(
                admitted[s], stream_frames[s][list(ssim.accepted)])
        with pytest.raises(ValueError, match="frame blocks"):
            accepted_frames(sim, stream_frames[:1])

    def test_burst_model_validation(self):
        with pytest.raises(ValueError, match="period_s"):
            BurstModel(period_s=0)
        with pytest.raises(ValueError, match="burst_mean"):
            BurstModel(burst_mean=0.5)
        with pytest.raises(ValueError, match="gap_mean_s"):
            BurstModel(gap_mean_s=-1.0)
        with pytest.raises(ValueError, match="n_streams"):
            synth_schedule(0, 5)
        with pytest.raises(ValueError, match="frames_per_stream"):
            synth_schedule(1, 0)
