"""Tests for ``repro.serve`` — the sharded multi-worker serving front-end.

The load-bearing guarantees pinned here:

* sharding and micro-batch planning are pure arithmetic with exact,
  pinnable outputs (round-robin assignment, deadline-aware flushes),
* a farm run on the spawn worker pool is **bit-identical** to the same
  plan executed sequentially in-process, for every worker count and
  compile level — the determinism contract of docs/serving.md,
* a hard worker crash is detected, the worker restarted, the shard task
  requeued, and the results are *still* bit-identical (tasks are pure),
* per-shard observability snapshots merge into one ``repro-obs/1``
  document whose counters/histograms equal a single registry that saw
  every sample,
* the ``repro.core.api`` facade (``build_farm``/``serve_frames``)
  validates its inputs and round-trips through the farm,
* the one task's resume contract: replaying any prefix of a session's
  batch plan on a fresh replica and running the rest reproduces the
  uninterrupted session bit for bit, and a continuation that reaches a
  link without its session state is failed back, never run.
"""

import dataclasses
import os
import signal
import time

import numpy as np
import pytest

import repro
from repro.core.api import RuntimeConfig, build_farm, serve_frames
from repro.plants import BeamLossPlant, CartpolePlant
from repro.hls import HLSConfig, convert
from repro.nn import Conv1D, Dense, Flatten, Input, Model, ReLU, Sigmoid
from repro.obs import MetricsRegistry, ObsConfig, Observability
from repro.serve import (
    BatchingPolicy,
    FarmSpec,
    ShardedNodeFarm,
    Pool,
    ShardPlan,
    Task,
    WorkerCrashError,
    execute_task,
    merge_obs_snapshots,
    plan_microbatches,
    shard_seed,
)
from repro.serve.batching import arrivals
from repro.serve.merge import merge_histogram_summaries, merge_metrics_snapshots
from repro.soc.board import FRAME_PERIOD_S
from repro.soc.faults import (
    ACNETFault,
    FaultInjector,
    HubDelayFault,
    HubDropFault,
    IPHangFault,
    LostIRQFault,
    NoisyMonitorFault,
    SEUFault,
    StuckMonitorFault,
)

N_MONITORS = 16


@pytest.fixture(scope="module")
def tiny_model():
    inp = Input((N_MONITORS, 1), name="in")
    x = Conv1D(4, 3, seed=21, name="c1")(inp)
    x = ReLU(name="r1")(x)
    x = Dense(2, seed=23, name="d1")(x)
    x = Sigmoid(name="s1")(x)
    return Model(inp, Flatten(name="f1")(x), name="serve-tiny")


@pytest.fixture(scope="module")
def tiny_hls(tiny_model):
    return convert(tiny_model, HLSConfig())


def frames_for(n, seed=77):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0, size=(n, N_MONITORS))


def farm_for(hls, *, level=0, n_shards=3, obs=None, max_batch=4,
             arrival_mode="backlog", seed=3):
    return build_farm(
        hls,
        config=RuntimeConfig(compile_level=level, batch_inference=True),
        plant=BeamLossPlant(min_votes=1),
        obs=obs,
        n_shards=n_shards,
        batching=BatchingPolicy(max_batch=max_batch),
        seed=seed,
        arrival_mode=arrival_mode,
    )


# ----------------------------------------------------------------------
# Sharding: pure round-robin arithmetic
# ----------------------------------------------------------------------
class TestSharding:
    def test_round_robin_round_trip(self):
        plan = ShardPlan(n_frames=11, n_shards=3)
        for g in range(11):
            s, p = plan.shard_of(g), plan.local_of(g)
            assert plan.global_of(s, p) == g
        assert plan.shard_globals(0) == (0, 3, 6, 9)
        assert plan.shard_globals(1) == (1, 4, 7, 10)
        assert plan.shard_globals(2) == (2, 5, 8)
        assert [plan.shard_size(s) for s in range(3)] == [4, 4, 3]

    def test_gather_inverts_sharding(self):
        plan = ShardPlan(n_frames=10, n_shards=4)
        per_shard = [[g for g in plan.shard_globals(s)] for s in range(4)]
        assert plan.gather(per_shard) == list(range(10))

    def test_gather_validates_sizes(self):
        plan = ShardPlan(n_frames=6, n_shards=2)
        with pytest.raises(ValueError, match="expected 2 shard lists"):
            plan.gather([[0, 2, 4]])
        with pytest.raises(ValueError, match="shard 1"):
            plan.gather([[0, 2, 4], [1, 3]])

    def test_shard_seeds_are_independent_and_reproducible(self):
        draws = {}
        for shard in range(4):
            rng = np.random.default_rng(shard_seed(3, shard))
            draws[shard] = tuple(rng.integers(0, 2**63, size=4))
            again = np.random.default_rng(shard_seed(3, shard))
            assert tuple(again.integers(0, 2**63, size=4)) == draws[shard]
        assert len(set(draws.values())) == 4      # pairwise distinct
        other_farm = np.random.default_rng(shard_seed(4, 0))
        assert tuple(other_farm.integers(0, 2**63, size=4)) != draws[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardPlan(n_frames=4, n_shards=0)
        with pytest.raises(ValueError):
            shard_seed(0, -1)
        with pytest.raises(ValueError):
            ShardPlan(n_frames=4, n_shards=2).shard_globals(2)


# ----------------------------------------------------------------------
# Micro-batching: deterministic, pinnable plans
# ----------------------------------------------------------------------
class TestBatching:
    def test_backlog_fills_to_max_batch(self):
        plan = plan_microbatches(arrivals(10, "backlog"),
                                 BatchingPolicy(max_batch=4))
        assert plan == [(0, 4), (4, 8), (8, 10)]

    def test_zero_slack_stream_dispatches_singletons(self):
        plan = plan_microbatches(arrivals(4, "stream", FRAME_PERIOD_S),
                                 BatchingPolicy(max_batch=8, slack_s=0.0))
        assert plan == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_deadline_aware_early_flush(self):
        # Slack of 3 ticks, 1 ms predicted dispatch cost per queued
        # frame: the 4th frame would push the oldest past its deadline
        # (9 ms arrival + 4 ms dispatch > 0 ms + 9 ms slack), so every
        # batch flushes at 3 frames although max_batch is 32.
        policy = BatchingPolicy(max_batch=32, slack_s=3 * FRAME_PERIOD_S,
                                est_cost_per_frame_s=1e-3)
        plan = plan_microbatches(arrivals(10, "stream", FRAME_PERIOD_S),
                                 policy)
        assert plan == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_plan_covers_exactly_once_in_order(self):
        plan = plan_microbatches(arrivals(23, "stream", FRAME_PERIOD_S),
                                 BatchingPolicy(max_batch=5))
        flat = [i for a, b in plan for i in range(a, b)]
        assert flat == list(range(23))

    def test_arrivals_must_be_sorted(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            plan_microbatches([0.0, 2.0, 1.0], BatchingPolicy())

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BatchingPolicy(max_batch=0)
        with pytest.raises(ValueError):
            BatchingPolicy(slack_s=-1.0)
        with pytest.raises(ValueError):
            BatchingPolicy(est_cost_per_frame_s=-1.0)
        # NaN would switch the deadline rule off; inf keeps its meaning.
        with pytest.raises(ValueError, match="slack_s"):
            BatchingPolicy(slack_s=float("nan"))
        with pytest.raises(ValueError, match="est_cost_per_frame_s"):
            BatchingPolicy(est_cost_per_frame_s=float("nan"))
        BatchingPolicy(slack_s=float("inf"))
        BatchingPolicy(est_cost_per_frame_s=float("inf"))


# ----------------------------------------------------------------------
# The determinism contract: pool == sequential reference, bit for bit
# ----------------------------------------------------------------------
class TestBitIdentity:
    @pytest.mark.parametrize("level", [0, 2])
    def test_pool_matches_reference_across_worker_counts(self, tiny_hls,
                                                         level):
        frames = frames_for(24)
        farm = farm_for(tiny_hls, level=level)
        reference = farm.serve_reference(frames)
        assert len(reference.records) == 24
        assert not np.isnan(reference.outputs).any()
        for workers in (1, 2, 4):
            result = farm.serve(frames, workers=workers)
            assert result.records == reference.records, \
                f"workers={workers} level={level} diverged"
            assert np.array_equal(result.outputs, reference.outputs)
            assert result.health.worker_restarts == 0
            assert result.health.frames_total == 24

    def test_stream_arrival_mode_matches_reference(self, tiny_hls):
        frames = frames_for(18)
        farm = farm_for(tiny_hls, arrival_mode="stream", max_batch=8)
        reference = farm.serve_reference(frames)
        result = farm.serve(frames, workers=2)
        assert result.records == reference.records

    def test_records_interleave_in_global_order(self, tiny_hls):
        frames = frames_for(10)
        farm = farm_for(tiny_hls)
        result = farm.serve_reference(frames)
        assert [r.frame_index for r in
                result.by_shard[0]] == [0, 1, 2, 3]      # shard-local
        assert len(result.records) == 10
        # Row g of the output block belongs to global frame g: its
        # score column equals the gathered record's decision score.
        for g, record in enumerate(result.records):
            assert result.outputs[g, 0] == float(record.decision.score)


# ----------------------------------------------------------------------
# Crash recovery: requeued tasks stay bit-identical
# ----------------------------------------------------------------------
class TestCrashRecovery:
    def test_crashes_are_detected_requeued_and_identical(self, tiny_hls):
        frames = frames_for(18)
        farm = farm_for(tiny_hls)
        reference = farm.serve_reference(frames)
        result = farm.serve(frames, workers=2, chaos_crash_shards=(0, 2))
        assert result.health.worker_restarts == 2
        assert result.health.requeued_tasks == 2
        assert result.records == reference.records
        assert np.array_equal(result.outputs, reference.outputs)
        assert "worker restarts: 2" in result.health.render()

    def test_restart_budget_exhaustion_raises(self, tiny_hls):
        frames = frames_for(6)
        farm = farm_for(tiny_hls)
        with pytest.raises(WorkerCrashError, match="budget"):
            farm.serve(frames, workers=1, chaos_crash_shards=(1,),
                       max_restarts=0)

    def test_pool_validation(self, tiny_hls):
        spec = FarmSpec(model=tiny_hls)
        with pytest.raises(ValueError, match="at least one worker or host"):
            Pool(spec, 0)
        with pytest.raises(ValueError, match="workers"):
            Pool(spec, -1, hosts=["127.0.0.1:1"])
        with pytest.raises(ValueError):
            Pool(spec, 1, max_restarts=-1)
        with pytest.raises(RuntimeError, match="not started"):
            Pool(spec, 1).submit([Task(task_id=0, session=0,
                                       seed_entropy=0)])


# ----------------------------------------------------------------------
# Farm-level chaos: speculation keeps pool == sequential, bit for bit
# ----------------------------------------------------------------------
class TestFarmChaos:
    SPECS = [
        HubDropFault(rate=0.03),
        HubDelayFault(rate=0.02, delay_s=4e-3),
        StuckMonitorFault(monitor=5, value=4.0, rate=0.03),
        NoisyMonitorFault(monitor=12, sigma=8.0, rate=0.03),
        IPHangFault(rate=0.02, extra_s=5e-3),
        LostIRQFault(rate=0.02),
        SEUFault(rate=0.03, ram="output", bit=15),
        ACNETFault(rate=0.03, failures=1),
    ]

    def chaos_farm(self, hls, *, batch_inference=True, obs=None):
        return build_farm(
            hls,
            config=RuntimeConfig(batch_inference=batch_inference),
            plant=BeamLossPlant(min_votes=1),
            obs=obs,
            injector=FaultInjector(self.SPECS, seed=99),
            n_shards=3,
            batching=BatchingPolicy(max_batch=16),
            seed=3,
            arrival_mode="backlog",
        )

    def test_pool_matches_reference_under_chaos(self, tiny_hls):
        frames = frames_for(220)
        farm = self.chaos_farm(tiny_hls)
        reference = farm.serve_reference(frames)

        # The speculative farm is bit-identical to the same farm on the
        # sequential path (batched inference off).
        sequential = self.chaos_farm(tiny_hls, batch_inference=False)
        seq_ref = sequential.serve_reference(frames)
        assert reference.records == seq_ref.records
        assert seq_ref.health.frames_speculated == 0

        # The ladder actually engaged: faults fired, yet the majority of
        # the block rode the precomputed fast path.
        h = reference.health
        assert h.fault_counts, "chaos farm injected no faults"
        assert h.frames_speculated + h.frames_replayed == 220
        assert h.frames_speculated > 110
        assert sum(h.invalidation_counts.values()) == h.frames_replayed
        assert "speculation:" in h.render()

        for workers in (1, 2, 4):
            result = farm.serve(frames, workers=workers)
            assert result.records == reference.records, \
                f"workers={workers} diverged under chaos"
            assert np.array_equal(result.outputs, reference.outputs)
            rh = result.health
            assert rh.frames_speculated == h.frames_speculated
            assert rh.frames_replayed == h.frames_replayed
            assert rh.invalidation_counts == h.invalidation_counts

    def test_merged_obs_snapshot_carries_spec_counters(self, tiny_hls):
        frames = frames_for(36)
        farm = self.chaos_farm(tiny_hls, obs=ObsConfig(flight_frames=8))
        result = farm.serve(frames, workers=2)
        counters = result.obs["metrics"]["counters"]
        assert counters["spec.speculated"] == result.health.frames_speculated
        assert (counters.get("spec.replayed", 0)
                == result.health.frames_replayed)
        assert result.health.frames_speculated > 0
        per_shard = sum(s["metrics"]["counters"].get("spec.speculated", 0)
                        for s in result.obs["shards"])
        assert per_shard == counters["spec.speculated"]


# ----------------------------------------------------------------------
# Observability merging
# ----------------------------------------------------------------------
class TestObsMerge:
    def test_merged_histogram_equals_single_registry(self):
        buckets = (1e-3, 2e-3, 4e-3)
        shard_a, shard_b, whole = (MetricsRegistry() for _ in range(3))
        a_vals = [0.5e-3, 1.5e-3, 3e-3, 9e-3]
        b_vals = [0.2e-3, 1.1e-3, 1.9e-3]
        for v in a_vals:
            shard_a.histogram("lat", buckets_s=buckets).observe(v)
        for v in b_vals:
            shard_b.histogram("lat", buckets_s=buckets).observe(v)
        for v in a_vals + b_vals:
            whole.histogram("lat", buckets_s=buckets).observe(v)

        merged = merge_histogram_summaries(
            [shard_a.snapshot()["histograms"]["lat"],
             shard_b.snapshot()["histograms"]["lat"]])
        expected = whole.snapshot()["histograms"]["lat"]
        assert merged["count"] == expected["count"] == 7
        assert merged["mean"] == pytest.approx(expected["mean"])
        for q in ("p50", "p90", "p99", "max"):
            assert merged[q] == expected[q]
        assert merged["buckets"] == expected["buckets"]

    def test_farm_merges_shard_snapshots(self, tiny_hls):
        frames = frames_for(12)
        farm = farm_for(tiny_hls, obs=ObsConfig(flight_frames=8))
        result = farm.serve(frames, workers=2)
        obs = result.obs
        assert obs is not None
        assert obs["meta"]["format"] == "repro-obs/1"
        assert obs["meta"]["merged_shards"] == 3
        assert obs["meta"]["workers"] == 2
        assert obs["metrics"]["counters"]["frames.total"] == 12
        assert len(obs["shards"]) == 3
        shard_total = sum(s["metrics"]["counters"]["frames.total"]
                          for s in obs["shards"])
        assert shard_total == 12
        assert obs["recorder"]["frames_seen"] == 12

    def test_counters_sum_and_gauges_max(self):
        snaps = [
            {"metrics": {"counters": {"a": 2}, "gauges": {"g": 1.0},
                         "histograms": {}},
             "spans": {"count": 3, "dropped": 0,
                       "stages_sim": {}, "stages_wall": {}},
             "recorder": {"capacity": 4, "frames_seen": 3,
                          "retained": 3, "trips": 0}},
            {"metrics": {"counters": {"a": 5, "b": 1},
                         "gauges": {"g": 7.0}, "histograms": {}},
             "spans": {"count": 2, "dropped": 1,
                       "stages_sim": {}, "stages_wall": {}},
             "recorder": {"capacity": 4, "frames_seen": 2,
                          "retained": 2, "trips": 1}},
        ]
        merged = merge_obs_snapshots(snaps, include_shards=False)
        assert merged["metrics"]["counters"] == {"a": 7, "b": 1}
        assert merged["metrics"]["gauges"] == {"g": 7.0}
        assert merged["spans"] == {"count": 5, "dropped": 1,
                                   "stages_sim": {}, "stages_wall": {}}
        assert merged["recorder"]["trips"] == 1
        assert "shards" not in merged

    def test_heterogeneous_histogram_sets_merge(self):
        # Cross-host merges see uneven shards: a host that served no
        # frames ships no latency histogram at all, another ships an
        # empty one.  Metrics present on only some shards must merge
        # as if the others simply observed nothing.
        buckets = (1e-3, 4e-3)
        with_lat, without = MetricsRegistry(), MetricsRegistry()
        for v in (0.5e-3, 2e-3, 9e-3):
            with_lat.histogram("lat", buckets_s=buckets).observe(v)
        without.histogram("other", buckets_s=buckets).observe(1e-3)
        empty = MetricsRegistry()
        empty.histogram("lat", buckets_s=buckets)      # declared, unused
        snaps = [{"metrics": r.snapshot()}
                 for r in (with_lat, without, empty)]
        merged = merge_metrics_snapshots([s["metrics"] for s in snaps])
        assert set(merged["histograms"]) == {"lat", "other"}
        lat = merged["histograms"]["lat"]
        assert lat["count"] == 3 and lat["max"] == 9e-3
        solo = merge_histogram_summaries(
            [with_lat.snapshot()["histograms"]["lat"]])
        for q in ("count", "mean", "p50", "p90", "p99", "max"):
            assert lat[q] == solo[q]
        assert merged["histograms"]["other"]["count"] == 1

    def test_all_empty_histograms_merge_to_zero(self):
        merged = merge_histogram_summaries(
            [{"count": 0, "mean": 0.0, "max": 0.0, "buckets": []},
             {}])                           # host with no histogram data
        assert merged == {"count": 0, "mean": 0.0, "p50": 0.0,
                          "p90": 0.0, "p99": 0.0, "max": 0.0,
                          "buckets": []}

    def test_empty_counter_maps_and_mismatched_stages_merge(self):
        # One shard with empty counters/gauges, one missing the metrics
        # key entirely, and span stage sets that only partially overlap
        # (a remote host that never ran the publish stage).
        snaps = [
            {"metrics": {"counters": {}, "gauges": {}, "histograms": {}},
             "spans": {"count": 1, "dropped": 0,
                       "stages_sim": {"infer": {"count": 2,
                                                "mean_s": 2.0,
                                                "max_s": 3.0}},
                       "stages_wall": {}}},
            {"spans": {"count": 2, "dropped": 1,
                       "stages_sim": {"infer": {"count": 2,
                                                "mean_s": 4.0,
                                                "max_s": 5.0},
                                      "publish": {"count": 1,
                                                  "mean_s": 1.0,
                                                  "max_s": 1.0}},
                       "stages_wall": {"io": {"count": 0}}}},
            {"metrics": {"counters": {"frames.total": 4}}},
        ]
        merged = merge_obs_snapshots(snaps, include_shards=False,
                                     extra_meta={"transport": "hosts"})
        assert merged["meta"]["merged_shards"] == 3
        assert merged["meta"]["transport"] == "hosts"
        assert merged["metrics"]["counters"] == {"frames.total": 4}
        assert merged["metrics"]["gauges"] == {}
        stages = merged["spans"]["stages_sim"]
        assert stages["infer"] == {"count": 4, "mean_s": 3.0,
                                   "max_s": 5.0}   # count-weighted mean
        assert stages["publish"] == {"count": 1, "mean_s": 1.0,
                                     "max_s": 1.0}
        # a stage present only with zero count folds to the zero row
        assert merged["spans"]["stages_wall"]["io"] == {
            "count": 0, "mean_s": 0.0, "max_s": 0.0}
        assert merged["spans"]["count"] == 3
        assert merged["recorder"]["frames_seen"] == 0


# ----------------------------------------------------------------------
# The facade
# ----------------------------------------------------------------------
class TestServeFacade:
    def test_top_level_exports(self):
        assert repro.build_farm is build_farm
        assert repro.serve_frames is serve_frames

    def test_serve_frames_builds_and_serves(self, tiny_hls):
        frames = frames_for(9)
        result = serve_frames(tiny_hls, frames, workers=0, n_shards=3,
                              plant=BeamLossPlant(min_votes=1),
                              batching=BatchingPolicy(max_batch=4),
                              arrival_mode="backlog", seed=3)
        farm = farm_for(tiny_hls, max_batch=4)
        assert result.records == farm.serve_reference(frames).records

    def test_serve_frames_accepts_ready_farm(self, tiny_hls):
        frames = frames_for(6)
        farm = farm_for(tiny_hls)
        result = serve_frames(farm, frames, workers=0)
        assert result.records == farm.serve_reference(frames).records
        with pytest.raises(TypeError, match="ready farm"):
            serve_frames(farm, frames, workers=0,
                         config=RuntimeConfig())

    def test_build_farm_rejects_shared_observability(self, tiny_hls):
        with pytest.raises(TypeError, match="ObsConfig"):
            build_farm(tiny_hls,
                       obs=Observability.from_config(ObsConfig()))
        with pytest.raises(TypeError, match="ObsConfig"):
            build_farm(tiny_hls, obs=object())

    def test_farm_validation(self, tiny_hls):
        spec = FarmSpec(model=tiny_hls)
        with pytest.raises(ValueError, match="n_shards"):
            ShardedNodeFarm(spec, n_shards=0)
        with pytest.raises(ValueError, match="arrival_mode"):
            ShardedNodeFarm(spec, arrival_mode="poisson")
        farm = ShardedNodeFarm(spec, n_shards=2)
        with pytest.raises(ValueError, match="2-D"):
            farm.serve(np.zeros(4), workers=0)
        with pytest.raises(ValueError, match="workers"):
            farm.serve(frames_for(4), workers=-1)
        with pytest.raises(ValueError, match="chaos"):
            farm.serve(frames_for(4), workers=0, chaos_crash_shards=(0,))
        with pytest.raises(ValueError, match="outside"):
            farm.plan(4, chaos_crash_shards=(5,))

    def test_plan_is_deterministic(self, tiny_hls):
        farm = farm_for(tiny_hls, max_batch=4)
        assert farm.plan(10) == farm.plan(10)
        plan = farm.plan(10)
        assert plan.n_batches == sum(len(t.batches) for t in plan.tasks)
        assert plan.tasks[1].batches == ((0, 3),)      # 3 frames, 1 batch


# ----------------------------------------------------------------------
# Batching contracts: NaN rejection, backlog x cost-model interaction
# ----------------------------------------------------------------------
class TestBatchingContracts:
    def test_nan_arrivals_rejected(self):
        # NaN compares false against everything, so without the explicit
        # check it would sail through the monotonicity guard and poison
        # every deadline comparison (batch boundaries — and hence seeds
        # and records — would silently depend on NaN semantics).
        with pytest.raises(ValueError, match="NaN"):
            plan_microbatches([0.0, float("nan"), 0.0], BatchingPolicy())
        with pytest.raises(ValueError, match="NaN"):
            plan_microbatches([float("nan")], BatchingPolicy())

    def test_backlog_cost_model_splits_before_max_batch(self):
        arr = arrivals(9, "backlog")
        # Cost model off (the default): batches fill to max_batch.
        assert plan_microbatches(arr, BatchingPolicy(max_batch=4)) == [
            (0, 4), (4, 8), (8, 9)]
        # Positive per-frame cost: even though every frame arrived at
        # t=0, the oldest frame's deadline is slack_s after arrival, so
        # the batch splits as soon as cost * (len + 1) > slack — here
        # at 3 frames, well before max_batch=8 (docstring contract of
        # arrivals).
        pol = BatchingPolicy(max_batch=8, slack_s=3e-3,
                             est_cost_per_frame_s=1e-3)
        assert plan_microbatches(arr, pol) == [(0, 3), (3, 6), (6, 9)]


# ----------------------------------------------------------------------
# Persistent warm pool: start_pool + supervision regressions
# ----------------------------------------------------------------------
class TestWarmPool:
    def test_warm_serves_are_bit_identical_to_cold_reference(self, tiny_hls):
        farm = farm_for(tiny_hls, n_shards=4)
        frames = frames_for(24)
        ref = farm.serve_reference(frames)
        with farm:
            pool = farm.start_pool(4)
            r1 = farm.serve(frames)
            r2 = farm.serve(frames)
            assert r1.records == ref.records
            assert r2.records == ref.records
            assert np.array_equal(r2.outputs, ref.outputs)
            assert pool.stats.worker_restarts == 0
            assert pool.alive_workers() == 4
            # The link handles back the host agent's event loop: one
            # selectable Connection per live worker.
            conns = pool.handles()
            assert len(conns) == 4
            assert all(isinstance(c.fileno(), int) for c in conns)
            with pytest.raises(ValueError, match="fixed at start_pool"):
                farm.serve(frames, max_restarts=1)
            with pytest.raises(RuntimeError, match="already holds"):
                farm.start_pool(4)
        assert farm.pool is None

    def test_idle_worker_crash_respawns_to_full_strength(self, tiny_hls):
        # Regression: the old supervisor respawned only when *every*
        # worker was gone, so an idle casualty with survivors left a
        # 4-worker pool at 3 forever — and wasn't counted as a restart.
        farm = farm_for(tiny_hls, n_shards=4)
        frames = frames_for(24)
        ref = farm.serve_reference(frames)
        with farm:
            pool = farm.start_pool(4)
            farm.serve(frames)                       # pool is idle now
            t_kill = time.monotonic()
            os.kill(pool.links[0].pid, signal.SIGKILL)
            deadline = time.monotonic() + 60
            while (pool.stats.worker_restarts < 1
                   and time.monotonic() < deadline):
                pool.pump(0.02)
            assert pool.stats.worker_restarts == 1   # counted
            while (pool.alive_workers() < 4
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            assert pool.alive_workers() == 4         # held at strength
            # Regression: the respawn must refresh the stall clock —
            # recovery is progress, not a hang to time out on.
            assert pool._last_progress >= t_kill
            r = farm.serve(frames)
            assert r.records == ref.records
            assert r.health.worker_restarts == 0     # per-call delta
        assert pool.stats.worker_restarts == 1       # cumulative

    def test_idle_pump_sleeps_instead_of_busy_spinning(self, tiny_hls):
        # Regression: with every result pipe down (workers mid-respawn
        # after a mass crash) the supervisor used to spin a zero-timeout
        # poll loop at 100% CPU.  Lost links are now replaced inside the
        # pump that sees them, so a started pool always has a handle to
        # wait on; a pump with nothing ready must sleep.
        pool = Pool(FarmSpec(model=tiny_hls), 1).start()
        try:
            t0_wall, t0_cpu = time.perf_counter(), time.process_time()
            for _ in range(5):
                assert pool.pump(0.03) is False
            wall = time.perf_counter() - t0_wall
            cpu = time.process_time() - t0_cpu
        finally:
            pool.close()
        assert wall >= 0.12          # it actually waited
        assert cpu < wall / 2        # ... by sleeping, not spinning

    def test_pump_dispatches_into_the_slot_a_result_frees(self, tiny_hls):
        # A task queued behind a busy worker goes out in the same pump
        # that collects that worker's result.  An event loop that pumps
        # only when a link has news (the daemon, the host agent) would
        # otherwise leave it queued until its next wake-up.
        pool = Pool(FarmSpec(model=tiny_hls), 1).start()
        try:
            handle = pool.submit([
                Task(task_id=i, session=i, seed_entropy=0,
                     batches=((0, 2),), frames=frames_for(2))
                for i in range(2)])
            deadline = time.monotonic() + 60
            while not handle.results and time.monotonic() < deadline:
                pool.pump(0.05)
            assert list(handle.results) == [0]
            assert list(pool.links[0].inflight) == [1]
            pool.wait(handle, timeout_s=60)
        finally:
            pool.close()

    def test_silent_worker_trips_the_stall_guard(self, tiny_hls,
                                                 monkeypatch):
        # A stopped worker is alive but never answers: no result, no
        # EOF.  Only the stall guard ends the wait, with an error.
        import repro.serve.workers as workers_mod

        monkeypatch.setattr(workers_mod, "STALL_TIMEOUT_S", 2.0)
        pool = Pool(FarmSpec(model=tiny_hls), 1).start()
        pid = pool.links[0].pid
        try:
            os.kill(pid, signal.SIGSTOP)
            task = Task(task_id=0, session=0, seed_entropy=0,
                        batches=((0, 4),), frames=frames_for(4))
            t0 = time.monotonic()
            with pytest.raises(WorkerCrashError, match="no progress for 2s"):
                pool.wait(pool.submit([task]), timeout_s=60)
            assert time.monotonic() - t0 >= 2.0
        finally:
            os.kill(pid, signal.SIGKILL)
            pool.close()

    def test_worker_exits_when_its_supervisor_pid_is_dead(self, tiny_hls):
        # Regression: a worker whose supervisor died while it was still
        # starting used to take init as its supervisor and loop forever.
        # The supervisor's pid now comes with the spawn, so a worker
        # handed a dead one exits on entry; one handed a live pid stays.
        import multiprocessing as mp

        from repro.serve.workers import _worker_main

        ctx = mp.get_context("spawn")
        gone = ctx.Process(target=os.getpid)
        gone.start()
        gone.join()
        spec = FarmSpec(model=tiny_hls)
        workers, pipes = [], []
        for supervisor in (gone.pid, os.getpid()):
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=_worker_main,
                               args=(spec, child, supervisor), daemon=True)
            proc.start()
            child.close()
            workers.append(proc)
            pipes.append(parent)
        orphan, kept = workers
        try:
            t0 = time.monotonic()
            orphan.join(timeout=20.0)
            assert orphan.exitcode == 0
            assert time.monotonic() - t0 < 10.0
            assert kept.is_alive()
            pipes[1].send(None)
            kept.join(timeout=20.0)
            assert kept.exitcode == 0
        finally:
            for proc in workers:
                if proc.is_alive():
                    proc.kill()
                    proc.join()
            for parent in pipes:
                parent.close()


# ----------------------------------------------------------------------
# The one task: resume contract + routing
# ----------------------------------------------------------------------
def _session_case(name, tiny_hls):
    """``(spec, session, seed, frames, batches)`` for one session kind."""
    if name == "open-loop-shard":
        spec = FarmSpec(model=tiny_hls,
                        config=RuntimeConfig(batch_inference=True),
                        plant=BeamLossPlant(min_votes=1),
                        injector=FaultInjector(TestFarmChaos.SPECS, seed=99))
        batches = plan_microbatches(arrivals(40, "backlog"),
                                    BatchingPolicy(max_batch=8))
        return spec, 2, 3, frames_for(40), batches
    if name == "closed-loop-cartpole":
        plant = CartpolePlant()
        spec = FarmSpec(model=convert(plant.default_model(), HLSConfig()),
                        config=RuntimeConfig(batch_inference=True,
                                             compile_level=2),
                        plant=plant)
        return spec, 1, 5, None, [(i, i + 1) for i in range(8)]
    spec = FarmSpec(model=tiny_hls,
                    config=RuntimeConfig(batch_inference=True),
                    plant=BeamLossPlant(min_votes=1))
    batches = plan_microbatches(arrivals(11, "stream", FRAME_PERIOD_S),
                                BatchingPolicy(max_batch=4))
    return spec, 7, 5, frames_for(11, seed=42), batches


def _run_resumed(spec, session, seed, frames, batches, k):
    """Replay ``batches[:k]`` on a fresh replica with ``batches[k]``, then
    continue batch by batch on the live replica, as the daemon does."""
    live = {}
    results = []
    for j in range(k, len(batches)):
        start = batches[j][0]
        replay = tuple(batches[:k]) if j == k else ()
        results.append(execute_task(spec, Task(
            task_id=j, session=session, seed_entropy=seed,
            batches=(batches[j],), start=start, replay=replay,
            frames=None if frames is None else frames[
                start - sum(b - a for a, b in replay):batches[j][1]]),
            live=live))
    return results


class TestTaskResume:
    CASES = ["open-loop-shard", "closed-loop-cartpole", "daemon-stream"]

    @pytest.mark.parametrize("case", CASES)
    def test_replay_any_prefix_then_run_rest_is_bit_identical(
            self, tiny_hls, case):
        spec, session, seed, frames, batches = _session_case(case, tiny_hls)
        whole = execute_task(spec, Task(
            task_id=0, session=session, seed_entropy=seed,
            batches=tuple(batches), frames=frames))
        assert len(whole.records) == batches[-1][1]
        for k in range(len(batches)):
            results = _run_resumed(spec, session, seed, frames, batches, k)
            start = batches[k][0]
            records = [r for res in results for r in res.records]
            rows = np.concatenate([res.rows for res in results])
            assert records == whole.records[start:], f"split at batch {k}"
            assert rows.tobytes() == whole.rows[start:].tobytes()
            assert results[-1].health == whole.health

    def test_continuation_without_state_is_failed_back_never_run(
            self, tiny_hls):
        spec, session, seed, frames, batches = _session_case(
            "daemon-stream", tiny_hls)
        (a0, b0), (a1, b1) = batches[:2]
        first = Task(task_id=0, session=session, seed_entropy=seed,
                     batches=((a0, b0),), frames=frames[a0:b0])
        cont = Task(task_id=1, session=session, seed_entropy=seed,
                    batches=((a1, b1),), start=a1, frames=frames[a1:b1])
        assert not cont.self_contained
        with pytest.raises(LookupError, match="without its state"):
            execute_task(spec, cont)
        whole = execute_task(spec, Task(
            task_id=9, session=session, seed_entropy=seed,
            batches=tuple(batches[:2]), frames=frames[:b1]))
        pool = Pool(spec, 2).start()
        try:
            # No link holds the session: the pool fails the continuation
            # back at dispatch (a worker running it would raise).
            orphan = pool.wait(pool.submit([cont]), timeout_s=120)
            assert orphan.failed == [cont] and not orphan.results
            assert pool.home(session) is None
            # The first batch homes the session on one link; the
            # continuation follows it there, and the final task then
            # returns the replica's health and releases the home.
            records = []
            for t in (first, dataclasses.replace(cont, task_id=2)):
                handle = pool.wait(pool.submit([t]), timeout_s=120)
                records += handle.results[t.task_id].records
            assert records == whole.records
            assert pool.home(session) is not None
            final = Task(task_id=3, session=session, seed_entropy=seed,
                         start=b1, final=True)
            done = pool.wait(pool.submit([final]), timeout_s=120)
            assert done.results[3].health == whole.health
            assert pool.home(session) is None
            assert pool.stats.worker_restarts == 0
        finally:
            pool.close()


def test_removed_serving_names_fail_loudly():
    import repro.serve as serve
    import repro.serve.remote as remote
    import repro.serve.replay as replay
    import repro.serve.workers as workers

    gone = ("ShardTask", "PlantTask", "StreamTask", "StreamFinish",
            "execute_shard_task", "execute_plant_task",
            "execute_stream_task", "finish_stream", "localize_shard_task",
            "WorkerPool", "HostPool", "ReplayReport", "replay_streams")
    for name in gone:
        for module in (serve, workers, remote, replay):
            assert not hasattr(module, name), f"{module.__name__}.{name}"
        with pytest.raises(ImportError):
            exec(f"from repro.serve import {name}", {})
    assert not hasattr(Pool, "run")
