"""Inference-throughput benchmark report.

Measures the simulation's frame throughput on the reference U-Net design
across model-level ``HLSModel.predict`` configurations (per-frame loop,
one batched call on the naive executor, and the compiled graph plan) and
the full ``CentralNodeRuntime`` control loop (sequential, batched,
batched-on-compiled-plan, the compiled loop with the ``repro.obs``
tracing layer on, and the fault-active chaos pair) — and writes the
results to ``BENCH_inference.json``:

* ``fps`` — frames per second (wall clock, best of ``rounds``),
* ``latency_p50_ms`` / ``latency_p99_ms`` — per-frame wall-clock latency
  percentiles (individually timed frames for the sequential predict;
  per-round amortized block time elsewhere),
* ``peak_rss_kib`` — per benchmark, the process peak resident set
  sampled right after that benchmark finished (monotone: the delta over
  the previous benchmark is the growth it caused), plus the global peak,
* ``per_kernel`` — naive and compiled per-kernel milliseconds from a
  profiled batched pass, with compiled fused steps lined up against the
  sum of the naive kernels they absorbed,
* ``speedups`` — batched-over-sequential and compiled-over-batched
  ratios, plus the traced-over-untraced ``obs_overhead`` ratio: the
  median per-pass fps ratio of ``OBS_PAIR_ROUNDS`` alternating passes
  of the traced compiled loop and an untraced twin (the run fails when
  tracing costs more than ``1 - OBS_OVERHEAD_FLOOR`` of fps),
* ``obs`` — the metrics/spans/recorder snapshot from the traced round,
* ``runtime_chaos_sequential`` / ``chaos_compiled`` — the control loop
  under an active fault schedule (every fault class at moderate rates),
  frame-at-a-time versus the speculative fault-aware fast path on the
  compiled plan.  The speculative run is asserted bit-identical to the
  sequential chaos reference before timing, and the run fails when the
  within-run ``chaos_speculation`` speedup drops below
  ``CHAOS_SPECULATION_FLOOR`` — the whole point of the taint model is
  that chaos no longer forfeits the fast path,
* ``serve_reference`` / ``serve_pool4`` — the sharded serving front-end
  (:mod:`repro.serve`, backlog arrivals) executed sequentially
  in-process and on a 4-worker spawn pool.  Pool wall time includes
  replica build and worker spawn, so it is a cold-start figure; the
  ``serve_pool`` speedup is reported but not baseline-gated,
* ``daemon_steady`` — the same block through the serving daemon over
  real TCP at ``DAEMON_STREAMS`` concurrent streams.  Bit-identity
  gated; the run additionally fails when the daemon's steady-state fps
  drops below the cold-start pool (``DAEMON_STEADY_FLOOR``) or its p99
  simulated node latency breaks the ``DAEMON_SLO_P99_MS``
  machine-protection SLO,
* ``serve_warm4`` / ``serve_remote2`` — the same block on the farm's
  persistent warm pool (``start_pool``, 4 local workers) and across two
  localhost host agents (``repro-hosts/1``, 2 workers each, zero
  local).  Both pools stay up while ``REMOTE_PAIR_ROUNDS`` alternating
  rounds time one then the other, so drift of the host hits both sides
  of each pair.  Bit-identity gated against the sequential farm
  reference shard by shard; the run fails when the median per-pair
  ratio of remote to warm fps drops below ``REMOTE_STEADY_FLOOR`` at
  equal total workers,
* ``cartpole_closedloop`` — the closed-loop cartpole plant
  (:class:`repro.plants.CartpolePlant`) driven tick by tick on the
  compiled fast path.  Closed loops pay one 1-frame block per tick, so
  this is the small-batch figure the plant layer rides on.  The
  compiled episode is asserted bit-identical to the naive sequential
  executor, and the run fails if the quantized controller fails to
  stabilise the pole,
* ``replay_burst`` — 8 seeded bursty streams through a dedicated
  daemon (:mod:`repro.serve.replay`).  Shed decisions and batch
  boundaries are fixed offline by the deterministic admission
  simulation (asserted rerun-stable); the admitted frames must
  reproduce the sequential per-stream reference bit-exactly, and the
  worst per-stream p99 *simulated* node latency is gated against the
  same ``DAEMON_SLO_P99_MS`` budget.  Shed counts land in the meta.
* ``dse_pareto`` — the deterministic design-space-exploration
  autotuner (:mod:`repro.dse`) over the U-Net problem.  Three hard
  gates: non-empty Pareto front, recommended config fits the Arria-10
  resource model, and a seeded rerun reproduces the front byte for
  byte.  Search wall time and candidate counts land in the report.

All fast paths (batched, compiled, farm pool) are asserted bit-identical
to their reference before any timing, so the report can never quote a
speedup for a path that diverged — a farm pool run that diverges from
the sequential farm reference aborts the report.

Usage::

    PYTHONPATH=src python tools/bench_report.py [--quick]
        [--out BENCH_inference.json] [--baseline benchmarks/BENCH_baseline.json]

With ``--baseline`` the run exits non-zero if either the fault-free
batched runtime fps or the compiled runtime fps regressed more than 20 %
below the committed baseline (CI uses this as a performance smoke test;
absolute numbers are machine-dependent, see docs/performance.md).
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

#: Fractional fps floor relative to the baseline before the run fails.
REGRESSION_FLOOR = 0.8

#: Traced compiled loop must keep at least this fraction of the untraced
#: fps (the obs layer's contract: near-zero overhead when on, zero when
#: off).  Checked on every run, no baseline file needed.
OBS_OVERHEAD_FLOOR = 0.9

#: Alternating untraced/traced passes behind the observability gate's
#: median ratio (two best-of-rounds figures timed apart read 0.74-0.99
#: on one tree).
OBS_PAIR_ROUNDS = 5

#: Speculative chaos fast path must beat the sequential fault-path
#: baseline by at least this factor within the same run (no baseline
#: file needed — both sides are timed on the same machine).
CHAOS_SPECULATION_FLOOR = 1.5

#: The design every number in the report refers to.
STRATEGY = "Layer-based Precision ac_fixed<16, x>"

#: Benchmarks the baseline gate checks (both executors must hold).
#: The serve benchmarks stay ungated: pool fps includes spawn cold-start
#: and is far too machine-dependent for a committed floor.
GATED_BENCHMARKS = ("runtime_batched", "runtime_compiled")

#: Farm geometry for the serve benchmarks.
SERVE_SHARDS = 4
SERVE_MAX_BATCH = 16

#: Daemon steady-state serving: stream count and the hard SLO on the
#: p99 *simulated* node latency (the paper's machine-protection budget
#: is 3 ms end-to-end; the node share must stay under it with 4
#: concurrent streams live).  Deterministic — not machine-dependent —
#: so it is a hard gate with no baseline file.
DAEMON_STREAMS = 4
DAEMON_SLO_P99_MS = 3.0

#: Steady-state daemon throughput must at least match the cold-start
#: 4-worker pool within the same run (the daemon's reason to exist:
#: spawn + replica build amortised away).
DAEMON_STEADY_FLOOR = 1.0

#: Cross-host serving: two localhost agents, two workers each (equal
#: total workers to the warm in-process pool), and the fps floor the
#: warm remote pool must hold against ``serve_warm4`` — the transport
#: tax budget.
REMOTE_HOSTS = 2
REMOTE_WORKERS_PER_HOST = 2
REMOTE_STEADY_FLOOR = 0.9

#: Alternating warm/remote round pairs behind the remote gate's median
#: ratio (one round per side ranged 0.48-1.93 on one tree).
REMOTE_PAIR_ROUNDS = 5

#: Bursty replay load: stream count, the admission queue bound fed to
#: the deterministic simulation, and its service model (2 simulated
#: batch slots, 1.2 ms/frame) — tuned so every stream's bursts
#: overflow the bound and shed.
REPLAY_STREAMS = 8
REPLAY_QUEUE_LIMIT = 6
REPLAY_SIM_WORKERS = 2
REPLAY_SERVICE_PER_FRAME_S = 1.2e-3


def _rss_kib() -> int:
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _percentiles_ms(latencies_s: List[float]) -> Dict[str, float]:
    lat = np.asarray(latencies_s)
    return {
        "latency_p50_ms": float(np.percentile(lat, 50) * 1e3),
        "latency_p99_ms": float(np.percentile(lat, 99) * 1e3),
    }


def _bench(run_round: Callable[[], List[float]], rounds: int,
           n_frames: int) -> Dict[str, float]:
    """Time ``rounds`` repetitions; each returns per-frame latencies.

    The peak RSS is sampled here, after the rounds, so each benchmark
    records the high-water mark as of its own completion instead of one
    end-of-process figure that hides which path allocated the memory.
    """
    return _alternate({"run": run_round}, rounds, n_frames)["run"]


def _alternate(runs: Dict[str, Callable[[], List[float]]], rounds: int,
               n_frames: int) -> Dict[str, Dict[str, object]]:
    """Time *runs* in ``rounds`` alternating passes (one round of each
    per pass); per run: best-of-rounds fps plus every round's wall."""
    walls: Dict[str, List[float]] = {name: [] for name in runs}
    samples: Dict[str, List[float]] = {name: [] for name in runs}
    for _ in range(rounds):
        for name, run_round in runs.items():
            t0 = time.perf_counter()
            samples[name].extend(run_round())
            walls[name].append(time.perf_counter() - t0)
    out = {}
    for name in runs:
        best = min(walls[name])
        out[name] = {"fps": n_frames / best, "wall_s": best,
                     "frames": n_frames, "rounds": rounds,
                     "round_walls_s": walls[name],
                     "peak_rss_kib": _rss_kib()}
        out[name].update(_percentiles_ms(samples[name]))
    return out


def _per_kernel(naive_model, compiled_model, unet_in) -> Dict[str, object]:
    """Per-kernel milliseconds of one profiled batched pass per executor.

    Compiled fused steps cover several naive kernels (a decoder concat,
    its conv and the conv's activation run as one step); the
    ``compiled`` table keys them by step name and lists the absorbed
    kernels under ``covers`` so the two columns stay comparable.
    """
    naive_model.predict(unet_in, profile=True, executor="naive")
    naive_ms = {k: v * 1e3
                for k, v in naive_model.last_run_stats.step_times.items()}

    compiled_model.predict(unet_in, profile=True)
    stats = compiled_model.last_run_stats
    compiled_ms = {k: v * 1e3 for k, v in stats.step_times.items()}

    steps = {}
    for step in compiled_model.compiled_plan.steps:
        naive_sum = sum(naive_ms.get(name, 0.0) for name in step.covers)
        steps[step.name] = {
            "covers": list(step.covers),
            "naive_ms": round(naive_sum, 4),
            "compiled_ms": round(compiled_ms.get(step.name, 0.0), 4),
        }
    return {
        "naive_ms": {k: round(v, 4) for k, v in naive_ms.items()},
        "compiled_steps": steps,
    }


def build_report(quick: bool = False) -> Dict[str, object]:
    from repro.experiments.common import bundle, converted, reference_configs
    from repro.hls.converter import convert
    from repro.soc.board import AchillesBoard
    from repro.soc.runtime import CentralNodeRuntime

    n_frames = 64 if quick else 256
    rounds = 2 if quick else 3

    b = bundle()
    model = converted(STRATEGY)
    # The compiled twin is a fresh conversion: the shared ``converted``
    # cache stays on the naive executor for every other caller.
    compiled_model = convert(b.unet, reference_configs()[STRATEGY])
    compile_report = compiled_model.compile(level=2)
    frames = b.dataset.x_eval[:n_frames]
    if frames.shape[0] < n_frames:  # pragma: no cover - tiny eval splits
        n_frames = frames.shape[0]
    unet_in = b.dataset.unet_inputs(frames)

    # Correctness gate: every fast path must be bit-identical before any
    # of their timings are worth reporting.
    batched = model.predict(unet_in)
    stacked = np.concatenate([model.predict(unet_in[i:i + 1])
                              for i in range(n_frames)])
    if not np.array_equal(batched, stacked):
        raise AssertionError("batched predict diverged from per-frame loop")
    if not np.array_equal(compiled_model.predict(unet_in), batched):
        raise AssertionError("compiled predict diverged from naive executor")

    def predict_sequential() -> List[float]:
        lats = []
        for i in range(n_frames):
            t0 = time.perf_counter()
            model.predict(unet_in[i:i + 1])
            lats.append(time.perf_counter() - t0)
        return lats

    def predict_blocked(m) -> List[float]:
        # Same cache-friendly chunking the runtime fast path uses.
        from repro.soc.ip_core import BATCH_BLOCK_FRAMES
        t0 = time.perf_counter()
        for i in range(0, n_frames, BATCH_BLOCK_FRAMES):
            m.predict(unet_in[i:i + BATCH_BLOCK_FRAMES])
        return [(time.perf_counter() - t0) / n_frames]

    def runtime_round(m, batch: bool, traced: bool = False) -> List[float]:
        from repro.obs import ObsConfig, Observability
        obs = Observability.from_config(ObsConfig()) if traced else None
        rt = CentralNodeRuntime(board=AchillesBoard(m),
                                batch_inference=batch, obs=obs)
        t0 = time.perf_counter()
        rt.run(frames, seed=7)
        wall = time.perf_counter() - t0
        if traced:
            last_obs_snapshot["snapshot"] = obs.snapshot(runtime=rt)
        return [wall / n_frames]

    last_obs_snapshot: Dict[str, object] = {}

    # Chaos fast path: the speculative ladder keeps the compiled batch
    # engaged while a fault injector is live.  Moderate per-class rates —
    # representative chaos, not a worst-case soak.
    from repro.soc.faults import (ACNETFault, FaultInjector, HubDropFault,
                                  IPHangFault, LostIRQFault,
                                  NoisyMonitorFault, SEUFault)

    def chaos_injector() -> FaultInjector:
        return FaultInjector([
            HubDropFault(rate=0.02),
            NoisyMonitorFault(monitor=129, sigma=8.0, rate=0.03),
            IPHangFault(rate=0.02, extra_s=5e-3),
            LostIRQFault(rate=0.02),
            SEUFault(rate=0.02, ram="output"),
            ACNETFault(rate=0.03, failures=1),
        ], seed=2024)

    def chaos_round(m, batch: bool, sink: Dict[str, object] | None = None
                    ) -> List[float]:
        rt = CentralNodeRuntime(board=AchillesBoard(m),
                                injector=chaos_injector(),
                                batch_inference=batch)
        t0 = time.perf_counter()
        records = rt.run(frames, seed=7)
        wall = time.perf_counter() - t0
        if sink is not None:
            sink["records"] = records
            sink["health"] = rt.health_report()
        return [wall / n_frames]

    chaos_seq: Dict[str, object] = {}
    chaos_spec: Dict[str, object] = {}
    chaos_round(model, False, chaos_seq)
    chaos_round(compiled_model, True, chaos_spec)
    if chaos_spec["records"] != chaos_seq["records"]:
        raise AssertionError(
            "speculative chaos run diverged from the sequential fault-path "
            "reference — taint model correctness contract broken")
    chaos_health = chaos_spec["health"]
    if not chaos_health.frames_speculated:
        raise AssertionError(
            "speculation never engaged under the chaos schedule — the "
            "chaos_compiled benchmark would just re-time the slow path")

    # Sharded serving front-end: bit-identity gate first, timing after.
    from repro.core.api import RuntimeConfig, build_farm
    from repro.serve import BatchingPolicy

    farm = build_farm(model,
                      config=RuntimeConfig(batch_inference=True),
                      n_shards=SERVE_SHARDS,
                      batching=BatchingPolicy(max_batch=SERVE_MAX_BATCH),
                      seed=7, arrival_mode="backlog")
    serve_ref = farm.serve_reference(frames)
    serve_pool = farm.serve(frames, workers=4)
    if serve_pool.records != serve_ref.records or not np.array_equal(
            serve_pool.outputs, serve_ref.outputs):
        raise AssertionError(
            "4-worker farm pool diverged from the sequential farm "
            "reference — serving determinism contract broken")

    def serve_round(workers: int) -> List[float]:
        result = farm.serve(frames, workers=workers)
        if result.records != serve_ref.records:
            raise AssertionError(
                f"farm run (workers={workers}) diverged mid-benchmark")
        return [result.wall_s / n_frames]

    serve_rounds = 1 if quick else 2

    # Persistent daemon: 4 TCP streams fed round-robin slices of the
    # same frame block, so stream s reproduces farm shard s bit-exactly
    # (same shard_seed derivation, same backlog arrivals, same policy) —
    # a cross-layer identity gate between the one-shot farm and the
    # daemon.  One reference per (round, stream) because stream ids feed
    # seed derivation and every round uses fresh ids on the warm pool.
    from repro.core.api import start_daemon
    from repro.serve.daemon import serve_streams_reference
    from repro.serve.workers import OUTPUT_COLUMNS

    node_lat_col = OUTPUT_COLUMNS.index("node_latency_s")
    stream_frames = {s: frames[s::DAEMON_STREAMS]
                     for s in range(DAEMON_STREAMS)}
    daemon_rounds_total = serve_rounds + 1  # +1 warm-up
    daemon_refs = serve_streams_reference(
        farm.spec,
        {sid: stream_frames[sid % DAEMON_STREAMS]
         for sid in range(daemon_rounds_total * DAEMON_STREAMS)},
        batching=BatchingPolicy(max_batch=SERVE_MAX_BATCH),
        seed=7, arrival_mode="backlog")
    for s in range(DAEMON_STREAMS):
        if not np.array_equal(daemon_refs[s].rows,
                              serve_ref.outputs[s::DAEMON_STREAMS]):
            raise AssertionError(
                "per-stream daemon reference diverged from the farm "
                "shard reference — cross-layer determinism broken")

    daemon_meta: Dict[str, object] = {"next_sid": 0, "node_p99_ms": 0.0}

    def daemon_round(handle) -> List[float]:
        base = daemon_meta["next_sid"]
        daemon_meta["next_sid"] = base + DAEMON_STREAMS
        t0 = time.perf_counter()
        clients = {s: handle.client(stream_id=base + s)
                   for s in range(DAEMON_STREAMS)}
        lats: List[float] = []
        try:
            longest = max(f.shape[0] for f in stream_frames.values())
            for i in range(longest):
                for s, block in stream_frames.items():
                    if i < block.shape[0]:
                        clients[s].send(block[i])
                    clients[s].pump()
            for s, c in clients.items():
                c.finish(timeout_s=600.0)
                if c.shed:
                    raise AssertionError(
                        f"daemon shed {len(c.shed)} frames under the "
                        f"benchmark load (queue_limit too small)")
                n = stream_frames[s].shape[0]
                got = np.asarray([c.results[i] for i in range(n)])
                if not np.array_equal(got, daemon_refs[base + s].rows):
                    raise AssertionError(
                        f"daemon stream {base + s} diverged from the "
                        f"sequential per-stream reference")
                lats.extend(got[:, node_lat_col].tolist())
        finally:
            for c in clients.values():
                c.close()
        wall = time.perf_counter() - t0
        daemon_meta["node_p99_ms"] = max(
            daemon_meta["node_p99_ms"],
            float(np.percentile(lats, 99) * 1e3))
        return [wall / n_frames]

    benchmarks = {
        "predict_sequential": _bench(predict_sequential, rounds, n_frames),
        "predict_batched": _bench(lambda: predict_blocked(model), rounds,
                                  n_frames),
        "predict_compiled": _bench(lambda: predict_blocked(compiled_model),
                                   rounds, n_frames),
        "runtime_sequential": _bench(lambda: runtime_round(model, False),
                                     rounds, n_frames),
        "runtime_batched": _bench(lambda: runtime_round(model, True), rounds,
                                  n_frames),
        "runtime_compiled": _bench(lambda: runtime_round(compiled_model, True),
                                   rounds, n_frames),
        "runtime_chaos_sequential": _bench(
            lambda: chaos_round(model, False), rounds, n_frames),
        "chaos_compiled": _bench(
            lambda: chaos_round(compiled_model, True), rounds, n_frames),
        "serve_reference": _bench(lambda: serve_round(0), serve_rounds,
                                  n_frames),
        "serve_pool4": _bench(lambda: serve_round(4), serve_rounds,
                              n_frames),
    }

    # Observability cost: the traced compiled loop against an untraced
    # twin in alternating passes, so drift of the host hits both sides
    # of each pair.  ``runtime_compiled`` above keeps its own rounds: it
    # feeds the baseline gate.
    obs_pairs = _alternate(
        {"untraced": lambda: runtime_round(compiled_model, True),
         "traced": lambda: runtime_round(compiled_model, True, traced=True)},
        OBS_PAIR_ROUNDS, n_frames)
    benchmarks["runtime_compiled_traced"] = obs_pairs["traced"]
    obs_ratios = [u / t for u, t in
                  zip(obs_pairs["untraced"]["round_walls_s"],
                      obs_pairs["traced"]["round_walls_s"])]

    # Daemon steady state: spawn + listener up before timing; the first
    # (untimed) round also pays the replica template cold build.
    handle = start_daemon(model, config=RuntimeConfig(batch_inference=True),
                          workers=DAEMON_STREAMS,
                          batching=BatchingPolicy(max_batch=SERVE_MAX_BATCH),
                          seed=7, arrival_mode="backlog",
                          queue_limit=max(64, n_frames))
    with handle:
        daemon_round(handle)  # warm-up round, untimed
        benchmarks["daemon_steady"] = _bench(
            lambda: daemon_round(handle), serve_rounds, n_frames)
        daemon_report = handle.drain()
    if daemon_report.worker_restarts:
        raise AssertionError(
            f"daemon workers crashed {daemon_report.worker_restarts} "
            f"time(s) during a fault-free benchmark")

    # Warm pool against cross-host serving: two localhost agents take
    # the farm's shards over repro-hosts/1.  Identity is gated shard by
    # shard against the sequential reference (the farm scatters each
    # shard's rows back by global index, so any transport corruption
    # shows).  Spawn, connect and replica builds are paid before the
    # timed rounds; the warm pool starts only now so serve_pool4 above
    # stays the cold-start figure.
    from repro.serve.farm import ShardedNodeFarm
    from repro.serve.remote import spawn_agent

    def remote_round(remote_farm) -> List[float]:
        result = remote_farm.serve(frames, workers=0)
        if result.records != serve_ref.records:
            raise AssertionError(
                "remote farm records diverged from the sequential farm "
                "reference — cross-host determinism contract broken")
        for s in range(SERVE_SHARDS):
            if not np.array_equal(result.outputs[s::SERVE_SHARDS],
                                  serve_ref.outputs[s::SERVE_SHARDS]):
                raise AssertionError(
                    f"remote shard {s} rows diverged from the in-process "
                    f"shard {s} rows")
        if result.health.host_failures:
            raise AssertionError(
                "host connections dropped during a fault-free benchmark")
        return [result.wall_s / n_frames]

    with spawn_agent(workers=REMOTE_WORKERS_PER_HOST) as a1, \
            spawn_agent(workers=REMOTE_WORKERS_PER_HOST) as a2:
        remote_farm = ShardedNodeFarm(
            farm.spec, n_shards=SERVE_SHARDS,
            batching=BatchingPolicy(max_batch=SERVE_MAX_BATCH),
            seed=7, arrival_mode="backlog",
            hosts=[a1.address, a2.address])
        with farm, remote_farm:
            farm.start_pool(4)
            remote_farm.start_pool(workers=0)
            serve_round(4)              # untimed: engage the live workers
            remote_round(remote_farm)   # untimed: replica builds
            paired = _alternate(
                {"serve_warm4": lambda: serve_round(4),
                 "serve_remote2": lambda: remote_round(remote_farm)},
                REMOTE_PAIR_ROUNDS, n_frames)
    benchmarks.update(paired)
    remote_ratios = [w / r for w, r in
                     zip(paired["serve_warm4"]["round_walls_s"],
                         paired["serve_remote2"]["round_walls_s"])]

    # Closed-loop plant: identity + stabilisation gates first, then the
    # per-tick wall time of the compiled episode.
    from repro.core.api import build_runtime, run_control_loop
    from repro.plants import CartpolePlant, run_closed_loop

    cartpole = CartpolePlant()
    cartpole_frames = 64 if quick else 256
    cartpole_config = RuntimeConfig(batch_inference=True, compile_level=2)

    def cartpole_episode(config: RuntimeConfig):
        return run_control_loop(cartpole.default_model(),
                                n_frames=cartpole_frames, seed=3,
                                config=config, plant=cartpole)

    cartpole_ref = cartpole_episode(RuntimeConfig(batch_inference=False))
    cartpole_fast = cartpole_episode(cartpole_config)
    if cartpole_fast.records != cartpole_ref.records:
        raise AssertionError(
            "compiled closed-loop cartpole episode diverged from the "
            "naive sequential executor — plant determinism contract "
            "broken")
    if not cartpole_fast.control.stabilized:
        raise AssertionError(
            "the quantized cartpole controller failed to stabilise the "
            "pole — cartpole_closedloop would benchmark a broken loop")

    def cartpole_round() -> List[float]:
        rt = build_runtime(cartpole.default_model(),
                           config=cartpole_config, plant=cartpole)
        session = cartpole.session(3)
        t0 = time.perf_counter()
        run_closed_loop(rt, session, cartpole_frames, seed=3)
        return [(time.perf_counter() - t0) / cartpole_frames]

    benchmarks["cartpole_closedloop"] = _bench(cartpole_round, rounds,
                                               cartpole_frames)

    # Bursty traffic replay: seeded arrivals, deterministic admission.
    from repro.serve.replay import (BurstModel, accepted_frames,
                                    replay_streams, simulate_admission,
                                    synth_schedule)

    replay_per_stream = 24 if quick else 48
    replay_model = BurstModel(burst_mean=24.0, gap_mean_s=0.012)
    replay_policy = BatchingPolicy(max_batch=SERVE_MAX_BATCH)

    def replay_sim():
        return simulate_admission(
            synth_schedule(REPLAY_STREAMS, replay_per_stream, seed=11,
                           model=replay_model),
            batching=replay_policy, queue_limit=REPLAY_QUEUE_LIMIT,
            workers=REPLAY_SIM_WORKERS,
            service_per_frame_s=REPLAY_SERVICE_PER_FRAME_S)

    sim = replay_sim()
    if sim.signature() != replay_sim().signature():
        raise AssertionError(
            "replay admission simulation is not rerun-stable — seeded "
            "determinism contract broken")
    if sim.total_shed == 0:
        raise AssertionError(
            "bursty replay shed nothing — the load no longer exercises "
            "admission control (retune the burst model)")
    replay_frames = [b.dataset.x_eval[s * replay_per_stream:
                                      (s + 1) * replay_per_stream]
                     for s in range(REPLAY_STREAMS)]
    admitted = accepted_frames(sim, replay_frames)
    replay_refs = serve_streams_reference(
        farm.spec, admitted, batching=replay_policy, seed=7,
        arrival_mode="backlog")

    replay_handle = start_daemon(
        model, config=RuntimeConfig(batch_inference=True),
        workers=DAEMON_STREAMS, batching=replay_policy, seed=7,
        arrival_mode="backlog", queue_limit=4096)
    with replay_handle:
        replay_report = replay_streams(replay_handle, sim, replay_frames)
    node_lats: List[float] = []
    for s in range(REPLAY_STREAMS):
        n = len(admitted[s])
        got = np.asarray([replay_report.rows[s][i] for i in range(n)])
        if n and not np.array_equal(got, replay_refs[s].rows):
            raise AssertionError(
                f"replay stream {s} diverged from the sequential "
                f"per-stream reference")
        node_lats.extend(replay_report.node_latency_s[s].tolist())
    replay_bm = {
        "fps": replay_report.aggregate_fps,
        "wall_s": replay_report.wall_s,
        "frames": replay_report.frames_executed,
        "rounds": 1,
        "peak_rss_kib": _rss_kib(),
    }
    replay_bm.update(_percentiles_ms(node_lats))
    benchmarks["replay_burst"] = replay_bm
    # Deterministic DSE over the quantization/reuse/serving knob space.
    # Three hard gates, no baseline file: the Pareto front must be
    # non-empty, the recommended design must fit the Arria-10 resource
    # model, and a seeded rerun must reproduce the front byte for byte.
    from repro.dse import DSESettings, run_dse, unet_problem

    dse_settings = DSESettings(mode="adaptive",
                               budget=8 if quick else 12, seed=0)
    dse_problem = unet_problem(fast=quick, seed=0)
    t0 = time.perf_counter()
    dse_result = run_dse(dse_problem, settings=dse_settings)
    dse_wall = time.perf_counter() - t0
    dse_rerun = run_dse(dse_problem, settings=dse_settings)
    if not dse_result.front:
        raise AssertionError("DSE produced an empty Pareto front")
    if dse_result.front_json() != dse_rerun.front_json():
        raise AssertionError(
            "DSE seeded rerun diverged from the first front — "
            "determinism contract broken")
    dse_rec = dse_result.recommended
    if dse_rec is None or not dse_rec.fits:
        raise AssertionError(
            "DSE recommended config does not fit the Arria-10 "
            "resource model")
    benchmarks["dse_pareto"] = {
        "candidates_per_s": dse_result.n_simulated / dse_wall,
        "wall_s": dse_wall,
        "simulated": dse_result.n_simulated,
        "prefiltered": dse_result.n_prefiltered,
        "rounds": 1,
        "peak_rss_kib": _rss_kib(),
    }
    dse_meta = {
        "mode": dse_settings.mode,
        "budget": dse_settings.budget,
        "seed": dse_settings.seed,
        "front_size": len(dse_result.front),
        "rerun_identical": True,
        "recommended_strategy": dse_rec.candidate.strategy,
        "recommended_fits": dse_rec.fits,
        "recommended_accuracy": dse_rec.accuracy,
        "recommended_node_p99_ms": dse_rec.node_p99_ms,
        "recommended_fps_model": dse_rec.fps,
    }

    replay_meta = {
        "streams": REPLAY_STREAMS,
        "frames_per_stream": replay_per_stream,
        "queue_limit": REPLAY_QUEUE_LIMIT,
        "offered": sim.total_offered,
        "accepted": sim.total_accepted,
        "shed": sim.total_shed,
        "shed_per_stream": [len(s.shed) for s in sim.streams],
        "node_p99_ms_per_stream": [
            replay_report.node_p(s, 99) * 1e3
            for s in range(REPLAY_STREAMS)],
        "worst_node_p99_ms": replay_report.worst_node_p99_ms(),
        "slo_p99_ms": DAEMON_SLO_P99_MS,
    }

    return {
        "meta": {
            "strategy": STRATEGY,
            "quick": quick,
            "n_frames": n_frames,
            "rounds": rounds,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "compile": {
                "level": 2,
                "luts": len(compile_report.luts),
                "fused": len(compile_report.fused),
                "arena_words": compile_report.arena_words,
            },
            "chaos": {
                "frames_speculated": chaos_health.frames_speculated,
                "frames_replayed": chaos_health.frames_replayed,
                "invalidation_counts": dict(
                    chaos_health.invalidation_counts),
            },
            "serve": {
                "n_shards": SERVE_SHARDS,
                "max_batch": SERVE_MAX_BATCH,
                "workers": 4,
                "rounds": serve_rounds,
                "arrival_mode": "backlog",
                "n_batches": serve_ref.plan.n_batches,
            },
            "daemon": {
                "streams": DAEMON_STREAMS,
                "rounds": serve_rounds,
                "arrival_mode": "backlog",
                "queue_limit": max(64, n_frames),
                "node_p99_ms": daemon_meta["node_p99_ms"],
                "slo_p99_ms": DAEMON_SLO_P99_MS,
                "frames_total": daemon_report.frames_total,
                "frames_shed": daemon_report.frames_shed,
                "batches": daemon_report.batches,
            },
            "obs": {
                "rounds": OBS_PAIR_ROUNDS,
                "pair_ratios": obs_ratios,
                "floor": OBS_OVERHEAD_FLOOR,
            },
            "remote": {
                "hosts": REMOTE_HOSTS,
                "workers_per_host": REMOTE_WORKERS_PER_HOST,
                "local_workers": 0,
                "rounds": REMOTE_PAIR_ROUNDS,
                "pair_ratios": remote_ratios,
                "floor_vs_warm": REMOTE_STEADY_FLOOR,
            },
            "plant": {
                "name": cartpole.name,
                "episode_frames": cartpole_frames,
                "seed": 3,
                "stabilized": cartpole_fast.control.stabilized,
                "stabilization_ms":
                    cartpole_fast.control.stabilization_time_s * 1e3,
                "trip_precision": cartpole_fast.control.trip_precision,
                "trip_recall": cartpole_fast.control.trip_recall,
                "rms_state_error": cartpole_fast.control.rms_state_error,
            },
            "replay": replay_meta,
            "dse": dse_meta,
        },
        "peak_rss_kib": _rss_kib(),
        "benchmarks": benchmarks,
        "per_kernel": _per_kernel(model, compiled_model, unet_in),
        "speedups": {
            "predict": (benchmarks["predict_batched"]["fps"]
                        / benchmarks["predict_sequential"]["fps"]),
            "predict_compile": (benchmarks["predict_compiled"]["fps"]
                                / benchmarks["predict_batched"]["fps"]),
            "runtime": (benchmarks["runtime_batched"]["fps"]
                        / benchmarks["runtime_sequential"]["fps"]),
            "runtime_compile": (benchmarks["runtime_compiled"]["fps"]
                                / benchmarks["runtime_batched"]["fps"]),
            # Median of the alternating per-pass fps ratios (the gate).
            "obs_overhead": float(np.median(obs_ratios)),
            "chaos_speculation": (
                benchmarks["chaos_compiled"]["fps"]
                / benchmarks["runtime_chaos_sequential"]["fps"]),
            "serve_pool": (benchmarks["serve_pool4"]["fps"]
                           / benchmarks["serve_reference"]["fps"]),
            "serve_warm": (benchmarks["serve_warm4"]["fps"]
                           / benchmarks["serve_pool4"]["fps"]),
            "daemon_steady": (benchmarks["daemon_steady"]["fps"]
                              / benchmarks["serve_pool4"]["fps"]),
            # Median of the alternating per-pair fps ratios (the gate).
            "serve_remote": float(np.median(remote_ratios)),
        },
        "obs": last_obs_snapshot.get("snapshot"),
    }


def check_baseline(report: Dict[str, object], baseline_path: Path) -> bool:
    """True if every gated benchmark's fps held within the floor."""
    baseline = json.loads(baseline_path.read_text())
    ok = True
    for name in GATED_BENCHMARKS:
        base = baseline["benchmarks"].get(name)
        if base is None:  # pragma: no cover - pre-compiler baselines
            print(f"{name}: no baseline entry, skipping")
            continue
        fps = report["benchmarks"][name]["fps"]
        ratio = fps / base["fps"]
        print(f"{name} fps: {fps:.1f} vs baseline {base['fps']:.1f} "
              f"({ratio:.2f}x, floor {REGRESSION_FLOOR:.2f}x)")
        ok = ok and ratio >= REGRESSION_FLOOR
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller frame block / fewer rounds (CI)")
    parser.add_argument("--out", type=Path,
                        default=Path("BENCH_inference.json"))
    parser.add_argument("--baseline", type=Path, default=None,
                        help="committed report to compare against; exits "
                             "1 on a >20%% fps regression")
    args = parser.parse_args(argv)

    report = build_report(quick=args.quick)
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    bm = report["benchmarks"]
    print(f"wrote {args.out}")
    for name in ("predict_sequential", "predict_batched", "predict_compiled",
                 "runtime_sequential", "runtime_batched", "runtime_compiled",
                 "runtime_compiled_traced", "runtime_chaos_sequential",
                 "chaos_compiled", "serve_reference", "serve_pool4",
                 "serve_warm4", "daemon_steady", "serve_remote2",
                 "cartpole_closedloop", "replay_burst"):
        r = bm[name]
        print(f"  {name:20s} {r['fps']:8.1f} fps  "
              f"p50 {r['latency_p50_ms']:.3f} ms  "
              f"p99 {r['latency_p99_ms']:.3f} ms  "
              f"rss {r['peak_rss_kib']} KiB")
    sp = report["speedups"]
    print(f"  speedups: predict {sp['predict']:.2f}x "
          f"(compile {sp['predict_compile']:.2f}x), "
          f"runtime {sp['runtime']:.2f}x "
          f"(compile {sp['runtime_compile']:.2f}x); "
          f"peak RSS {report['peak_rss_kib']} KiB")
    obs = report["meta"]["obs"]
    print(f"  obs overhead: traced compiled loop at "
          f"{sp['obs_overhead']:.2f}x untraced fps, median of "
          f"{obs['rounds']} alternating passes "
          f"({', '.join(f'{r:.2f}' for r in obs['pair_ratios'])}; "
          f"floor {OBS_OVERHEAD_FLOOR:.2f}x)")
    chaos = report["meta"]["chaos"]
    print(f"  chaos: speculative compiled loop at "
          f"{sp['chaos_speculation']:.2f}x the sequential fault-path "
          f"baseline (floor {CHAOS_SPECULATION_FLOOR:.2f}x; "
          f"{chaos['frames_speculated']} speculated, "
          f"{chaos['frames_replayed']} replayed, bit-identity gated)")
    print(f"  serve: 4-worker pool at {sp['serve_pool']:.2f}x the "
          f"sequential farm reference (bit-identity gated, cold-start "
          f"wall, not baseline-gated)")
    daemon = report["meta"]["daemon"]
    print(f"  daemon: steady state at {sp['daemon_steady']:.2f}x the "
          f"cold-start pool (floor {DAEMON_STEADY_FLOOR:.2f}x; warm pool "
          f"at {sp['serve_warm']:.2f}x), p99 node latency "
          f"{daemon['node_p99_ms']:.3f} ms at {daemon['streams']} "
          f"concurrent streams (SLO {daemon['slo_p99_ms']:.1f} ms)")
    remote = report["meta"]["remote"]
    print(f"  remote: {remote['hosts']} host agents x "
          f"{remote['workers_per_host']} workers at "
          f"{sp['serve_remote']:.2f}x the in-process warm pool, median of "
          f"{remote['rounds']} alternating pairs "
          f"({', '.join(f'{r:.2f}' for r in remote['pair_ratios'])}; "
          f"floor {REMOTE_STEADY_FLOOR:.2f}x, equal total workers, "
          f"bit-identity gated shard by shard)")
    plant = report["meta"]["plant"]
    print(f"  plant: closed-loop {plant['name']} stabilised in "
          f"{plant['stabilization_ms']:.0f} ms, trip precision/recall "
          f"{plant['trip_precision']:.2f}/{plant['trip_recall']:.2f} "
          f"(compiled tick loop, bit-identity gated against the naive "
          f"executor)")
    replay = report["meta"]["replay"]
    print(f"  replay: {replay['streams']} bursty streams, "
          f"{replay['accepted']}/{replay['offered']} admitted "
          f"({replay['shed']} shed, deterministic), worst per-stream "
          f"p99 node latency {replay['worst_node_p99_ms']:.3f} ms "
          f"(SLO {replay['slo_p99_ms']:.1f} ms)")
    dse = report["meta"]["dse"]
    dse_bm = bm["dse_pareto"]
    print(f"  dse: {dse['mode']} search (budget {dse['budget']}, seed "
          f"{dse['seed']}) simulated {dse_bm['simulated']} / pre-filtered "
          f"{dse_bm['prefiltered']} candidates in {dse_bm['wall_s']:.1f} s; "
          f"front size {dse['front_size']}, rerun byte-identical; "
          f"recommended {dse['recommended_strategy']} "
          f"(acc {dse['recommended_accuracy']:.1%}, fits, node p99 "
          f"{dse['recommended_node_p99_ms']:.3f} ms)")

    if sp["obs_overhead"] < OBS_OVERHEAD_FLOOR:
        print("observability overhead beyond the floor", file=sys.stderr)
        return 1
    if sp["chaos_speculation"] < CHAOS_SPECULATION_FLOOR:
        print("speculative chaos fast path below the floor", file=sys.stderr)
        return 1
    if daemon["node_p99_ms"] > DAEMON_SLO_P99_MS:
        print(f"daemon p99 node latency {daemon['node_p99_ms']:.3f} ms "
              f"breaks the {DAEMON_SLO_P99_MS:.1f} ms SLO", file=sys.stderr)
        return 1
    if sp["daemon_steady"] < DAEMON_STEADY_FLOOR:
        print("daemon steady-state throughput below the cold-start pool",
              file=sys.stderr)
        return 1
    if sp["serve_remote"] < REMOTE_STEADY_FLOOR:
        print(f"cross-host serving at {sp['serve_remote']:.2f}x the warm "
              f"pool is below the {REMOTE_STEADY_FLOOR:.2f}x floor",
              file=sys.stderr)
        return 1
    if replay["worst_node_p99_ms"] > DAEMON_SLO_P99_MS:
        print(f"bursty replay p99 node latency "
              f"{replay['worst_node_p99_ms']:.3f} ms breaks the "
              f"{DAEMON_SLO_P99_MS:.1f} ms SLO", file=sys.stderr)
        return 1
    if args.baseline is not None:
        if not args.baseline.exists():
            print(f"baseline {args.baseline} missing", file=sys.stderr)
            return 1
        if not check_baseline(report, args.baseline):
            print("performance regression beyond the floor", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
