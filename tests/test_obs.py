"""Tests for the ``repro.obs`` observability layer and the redesigned
``repro.core.api`` facade.

The load-bearing guarantees pinned here:

* the tracer is a pure observer — every executor path (naive,
  batched, compiled) is bit-identical with obs on vs off,
* the 260-frame span tree has the documented shape (one ``frame`` root
  per tick, every board stage + decide/publish nested under it),
* fixed-bucket histogram percentiles are deterministic upper-edge
  values a test can pin exactly,
* the flight recorder is a true ring and freezes a post-mortem the
  moment a watchdog trip lands.
"""

import json

import numpy as np
import pytest

import repro
from repro.core.api import RuntimeConfig, build_runtime, run_control_loop
from repro.plants import BeamLossPlant
from repro.hls import HLSConfig, convert, uniform_config
from repro.nn import Conv1D, Dense, Flatten, Input, Model, ReLU, Sigmoid
from repro.obs import (
    FlightRecorder,
    Histogram,
    MetricsRegistry,
    ObsConfig,
    Observability,
    Tracer,
)
from repro.obs.report import BOARD_STAGES, node_latencies_s, stage_summary
from repro.soc.faults import FaultInjector, IPHangFault
from repro.soc.runtime import STATUS_WATCHDOG

N_MONITORS = 16


@pytest.fixture(scope="module")
def obs_model():
    inp = Input((N_MONITORS, 1), name="in")
    x = Conv1D(4, 3, seed=11, name="c1")(inp)
    x = ReLU(name="r1")(x)
    x = Dense(2, seed=13, name="d1")(x)
    x = Sigmoid(name="s1")(x)
    return Model(inp, Flatten(name="f1")(x), name="obs-tiny")


@pytest.fixture(scope="module")
def obs_hls(obs_model):
    return convert(obs_model, HLSConfig())


def frames_for(n, seed=99):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0, size=(n, N_MONITORS))


def loop(hls, frames, *, obs=None, seed=5, level=0, batch=True,
         injector=None):
    """One control-loop run through the facade on a fresh conversion."""
    cfg = RuntimeConfig(compile_level=level, batch_inference=batch)
    runtime = build_runtime(hls, config=cfg, obs=obs, injector=injector,
                            plant=BeamLossPlant(min_votes=1))
    return run_control_loop(runtime, frames, seed=seed)


# ----------------------------------------------------------------------
# Tracer unit behaviour
# ----------------------------------------------------------------------
class TestTracer:
    def test_live_span_nesting_and_frame_inheritance(self):
        tr = Tracer()
        with tr.span("frame", frame=7, sim_t0=0.0) as root:
            with tr.span("inner") as child:
                pass
            root.sim_t1 = 1.0
        spans = tr.spans()
        assert [s.name for s in spans] == ["inner", "frame"]
        inner, frame = spans
        assert inner.parent_id == frame.span_id
        assert inner.frame == 7          # inherited from the open stack
        assert frame.sim_duration_s == 1.0
        assert tr.open_depth() == 0

    def test_record_is_retroactive_and_nests(self):
        tr = Tracer()
        with tr.span("frame", frame=3):
            tr.record("ip_compute", sim_t0=1.0, sim_t1=2.5, words=4)
        ip = tr.spans("ip_compute")[0]
        assert ip.frame == 3
        assert ip.sim_duration_s == 1.5
        assert ip.attrs["words"] == 4
        assert ip.parent_id == tr.spans("frame")[0].span_id

    def test_ring_eviction_counts_drops(self):
        tr = Tracer(max_spans=4)
        for i in range(10):
            tr.record("s", frame=i, sim_t0=0.0, sim_t1=1.0)
        assert len(tr.spans()) == 4
        assert tr.dropped == 6
        assert [s.frame for s in tr.spans()] == [6, 7, 8, 9]

    def test_out_of_order_close_raises(self):
        tr = Tracer()
        a = tr.span("a")
        b = tr.span("b")
        with pytest.raises(RuntimeError):
            a.__exit__(None, None, None)
        b.__exit__(None, None, None)
        a.__exit__(None, None, None)

    def test_to_dict_is_json_safe(self):
        tr = Tracer()
        tr.record("s", frame=1, sim_t0=0.0, sim_t1=1e-3,
                  arr=np.float64(2.0))
        json.dumps(tr.spans()[0].to_dict())


# ----------------------------------------------------------------------
# Histograms: deterministic, pinnable percentiles
# ----------------------------------------------------------------------
class TestHistogram:
    def test_percentiles_pin_to_bucket_upper_edges(self):
        h = Histogram("lat", buckets_s=(1e-3, 1e-2, 1e-1))
        for v in [0.4e-3] * 50 + [5e-3] * 40 + [50e-3] * 10:
            h.observe(v)
        assert h.count == 100
        assert h.percentile(50) == 1e-3
        assert h.percentile(90) == 1e-2
        assert h.percentile(99) == 1e-1
        assert h.percentile(100) == 1e-1

    def test_overflow_bucket_reports_exact_max(self):
        h = Histogram("lat", buckets_s=(1e-3,))
        h.observe(0.5)
        h.observe(2.0)
        assert h.percentile(99) == 2.0   # overflow → exact max, not an edge
        assert h.max_value == 2.0

    def test_empty_and_invalid_q(self):
        h = Histogram("lat")
        assert h.percentile(50) == 0.0
        with pytest.raises(ValueError):
            h.percentile(0)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_registry_snapshot_round_trips_json(self):
        m = MetricsRegistry()
        m.inc("a", 3)
        m.set_gauge("g", 1.5)
        m.observe("h", 2e-3)
        snap = json.loads(json.dumps(m.snapshot()))
        assert snap["counters"]["a"] == 3
        assert snap["histograms"]["h"]["count"] == 1

    def test_existing_histogram_bucket_mismatch_raises(self):
        # Regression: re-requesting a histogram with different buckets
        # used to silently return the old one — the caller would then
        # read percentiles quantised to edges it never asked for.
        m = MetricsRegistry()
        h = m.histogram("lat", buckets_s=(1e-3, 2e-3))
        assert m.histogram("lat") is h                       # no buckets
        assert m.histogram("lat", buckets_s=(1e-3, 2e-3)) is h  # same
        assert m.histogram("lat", buckets_s=[1e-3, 2e-3]) is h  # any seq
        with pytest.raises(ValueError, match="already exists"):
            m.histogram("lat", buckets_s=(1e-3, 4e-3))


# ----------------------------------------------------------------------
# The 260-frame span tree
# ----------------------------------------------------------------------
class TestSpanTree:
    N = 260

    @pytest.fixture(scope="class")
    def run260(self, obs_hls):
        obs = Observability.from_config(ObsConfig(flight_frames=64))
        result = loop(obs_hls, frames_for(self.N), obs=obs)
        return result, obs

    def test_one_frame_root_per_tick(self, run260):
        result, obs = run260
        frames = obs.tracer.spans("frame")
        assert len(frames) == self.N
        assert [s.frame for s in frames] == list(range(self.N))
        assert all(s.parent_id is None for s in frames)

    def test_every_stage_nested_under_its_frame(self, run260):
        _, obs = run260
        for fi in (0, 1, 137, self.N - 1):
            tree = obs.tracer.frame_tree(fi)
            assert tree["name"] == "frame"
            children = {c["name"] for c in tree["children"]}
            expected = {"hub_readout", "decide", "publish", *BOARD_STAGES}
            assert expected <= children

    def test_span_sums_match_frame_records(self, run260):
        result, obs = run260
        node = node_latencies_s(obs.tracer)
        recorded = np.array([r.node_latency_s for r in result.records])
        np.testing.assert_allclose(node, recorded, rtol=0, atol=1e-12)

    def test_frame_span_covers_hub_plus_node(self, run260):
        result, obs = run260
        for s, r in zip(obs.tracer.spans("frame"), result.records):
            assert s.sim_duration_s == pytest.approx(r.total_latency_s)

    def test_metrics_folded_per_frame(self, run260):
        result, obs = run260
        snap = obs.metrics.snapshot()
        assert snap["counters"]["frames.total"] == self.N
        assert snap["histograms"]["latency.total_s"]["count"] == self.N
        assert snap["counters"]["frames.status.ok"] == sum(
            1 for r in result.records if r.status == "ok")

    def test_stage_summary_has_exact_stats(self, run260):
        _, obs = run260
        summary = stage_summary(obs.tracer, names=["ip_compute"])
        s = summary["ip_compute"]
        assert s["count"] == self.N
        assert 0 < s["p50_s"] <= s["p99_s"] <= s["max_s"]

    def test_export_snapshot_json_safe(self, run260, tmp_path):
        result, obs = run260
        snap = obs.snapshot(runtime=result.runtime)
        payload = json.loads(json.dumps(snap))
        assert payload["meta"]["format"] == "repro-obs/1"
        assert payload["health"]["frames_total"] == self.N
        path = tmp_path / "obs.json"
        obs.export(path, runtime=result.runtime)
        assert json.loads(path.read_text())["spans"]["count"] > 0


# ----------------------------------------------------------------------
# Flight recorder ring + post-mortem on an injected hang
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_ring_keeps_last_n(self, obs_hls):
        obs = Observability.from_config(ObsConfig(flight_frames=8))
        loop(obs_hls, frames_for(40), obs=obs)
        entries = obs.recorder.entries()
        assert obs.recorder.frames_seen == 40
        assert [e["frame"] for e in entries] == list(range(32, 40))

    def test_hang_trips_postmortem(self, obs_hls, tmp_path):
        dump = tmp_path / "postmortem.jsonl"
        obs = Observability.from_config(
            ObsConfig(flight_frames=8, dump_path=str(dump)))
        injector = FaultInjector(
            [IPHangFault(rate=1.0, start=12, stop=13, extra_s=5e-3)],
            seed=3)
        result = loop(obs_hls, frames_for(20), obs=obs, injector=injector,
                      batch=False)
        hung = [r for r in result.records if r.status == STATUS_WATCHDOG]
        assert [r.frame_index for r in hung] == [12]
        assert obs.recorder.trips == 1
        pm = obs.recorder.postmortems[0]
        assert pm["reason"] == STATUS_WATCHDOG
        assert pm["frame_index"] == 12
        assert pm["entries"][-1]["frame"] == 12
        assert pm["entries"][-1]["status"] == STATUS_WATCHDOG

        lines = [json.loads(l) for l in dump.read_text().splitlines()]
        assert lines[0]["record"] == "header"
        assert lines[0]["reason"] == STATUS_WATCHDOG
        assert lines[-1]["frame"] == 12

    def test_recorder_unit_ring_and_trip_cap(self):
        rec = FlightRecorder(capacity=4, max_postmortems=2)
        for i in range(10):
            rec.append({"frame": i})
        assert [e["frame"] for e in rec.entries()] == [6, 7, 8, 9]
        for t in range(3):
            rec.mark_trip("watchdog_timeout", frame_index=t)
        assert rec.trips == 3
        assert len(rec.postmortems) == 2   # bounded, oldest evicted

    def test_jsonl_headers_carry_frames_seen(self):
        # Regression: the post-mortem header used to drop frames_seen,
        # so a dump could not say how much history the ring had lost.
        rec = FlightRecorder(capacity=4)
        for i in range(10):
            rec.append({"frame": i})

        lines = rec.to_jsonl().splitlines()
        header = json.loads(lines[0])
        assert header["record"] == "header"
        assert header["reason"] == "snapshot"
        assert header["frames_seen"] == 10
        assert header["n_entries"] == 4 == len(lines) - 1
        assert header["capacity"] == 4

        pm = rec.mark_trip("watchdog_timeout", frame_index=9)
        rec.append({"frame": 10})          # post-trip frames keep flowing
        lines = rec.to_jsonl(pm).splitlines()
        header = json.loads(lines[0])
        assert header["reason"] == "watchdog_timeout"
        assert header["frame_index"] == 9
        assert header["trip_number"] == 1
        assert header["frames_seen"] == 11   # total ever seen, not ring
        assert header["n_entries"] == 4 == len(lines) - 1
        assert [json.loads(l)["frame"] for l in lines[1:]] == [6, 7, 8, 9]


# ----------------------------------------------------------------------
# Bit-identity: obs is a pure observer on every executor path
# ----------------------------------------------------------------------
class TestBitIdentity:
    PATHS = [
        pytest.param(dict(level=0, batch=False), id="naive-sequential"),
        pytest.param(dict(level=0, batch=True), id="batched"),
        pytest.param(dict(level=2, batch=True), id="compiled-l2"),
    ]

    @staticmethod
    def signature(result):
        return (
            [r.total_latency_s for r in result.records],
            [r.decision.machine for r in result.records],
            [r.decision.score for r in result.records],
            [r.status for r in result.records],
        )

    @pytest.mark.parametrize("path", PATHS)
    def test_obs_on_equals_obs_off(self, obs_model, path):
        frames = frames_for(32)
        on = loop(convert(obs_model, HLSConfig()), frames,
                  obs=Observability.from_config(ObsConfig()), **path)
        off = loop(convert(obs_model, HLSConfig()), frames, **path)
        assert self.signature(on) == self.signature(off)

    def test_traced_kernels_do_not_perturb(self, obs_model):
        frames = frames_for(16)
        obs = Observability.from_config(ObsConfig(trace_kernels=True))
        on = loop(convert(obs_model, HLSConfig()), frames, obs=obs,
                  batch=False)
        off = loop(convert(obs_model, HLSConfig()), frames, batch=False)
        assert self.signature(on) == self.signature(off)
        assert any(n.startswith("kernel.") for n in obs.tracer.names())


# ----------------------------------------------------------------------
# The facade itself
# ----------------------------------------------------------------------
class TestFacade:
    def test_top_level_exports(self):
        for name in ("load_pretrained", "build_runtime", "run_control_loop",
                     "codesign_and_deploy", "RuntimeConfig", "ObsConfig"):
            assert hasattr(repro, name)

    def test_build_runtime_from_float_model(self, obs_model):
        rt = build_runtime(obs_model,
                           config=RuntimeConfig(compile_level=2),
                           plant=BeamLossPlant(min_votes=1))
        assert rt.board.ip.hls_model.compile_level == 2
        assert rt.hubs.n_monitors == N_MONITORS
        assert rt.obs is None            # zero-cost default: no tracer
        assert rt.board.tracer is None

    def test_build_runtime_obs_config_builds_bundle(self, obs_hls):
        rt = build_runtime(obs_hls, obs=ObsConfig(flight_frames=4))
        assert rt.obs is not None
        assert rt.board.tracer is rt.obs.tracer
        assert rt.obs.recorder.capacity == 4

    def test_run_control_loop_accepts_runtime_and_attaches_obs(self,
                                                               obs_hls):
        rt = build_runtime(obs_hls, plant=BeamLossPlant(min_votes=1))
        result = run_control_loop(rt, frames_for(6), seed=2,
                                  obs=ObsConfig())
        assert result.runtime is rt
        assert result.obs is rt.obs
        assert len(result.records) == 6
        assert result.health.frames_total == 6
        assert result.total_latencies_s.shape == (6,)

    def test_config_validation(self, obs_hls):
        with pytest.raises(ValueError):
            RuntimeConfig(compile_level=5)
        with pytest.raises(ValueError):
            RuntimeConfig(period_s=0.0)
        with pytest.raises(ValueError):
            ObsConfig(flight_frames=0)
        with pytest.raises(TypeError):
            build_runtime(object())
        with pytest.raises(TypeError):
            build_runtime(obs_hls, obs=object())  # type: ignore[arg-type]

    def test_fallback_model_converted_and_installed(self, obs_model,
                                                    obs_hls):
        rt = build_runtime(obs_hls, fallback=obs_model,
                           plant=BeamLossPlant(min_votes=1))
        assert rt.fallback_board is not None
        assert rt.fallback_board.ip.hls_model is not obs_hls


# ----------------------------------------------------------------------
# Observability re-attach: no stale kernel tracer
# ----------------------------------------------------------------------
class TestObsReattach:
    """Regression: re-attaching with ``trace_kernels=False`` (or
    detaching entirely) used to leave the previous bundle's tracer on
    ``board.ip.hls_model`` — kernel spans kept flowing into a tracer
    the runtime no longer owned."""

    @staticmethod
    def _assert_wired(rt, obs, trace_kernels):
        tracer = obs.tracer if obs is not None else None
        kernel = tracer if (obs is not None and trace_kernels) else None
        for board in (rt.board, rt.fallback_board):
            assert board.tracer is tracer
            assert board.ip.hls_model.tracer is kernel

    def test_reattach_matrix_clears_stale_kernel_tracer(self, obs_model,
                                                        obs_hls):
        rt = build_runtime(obs_hls, fallback=obs_model,
                           plant=BeamLossPlant(min_votes=1))
        # Every transition of trace_kernels on/off/detached, twice over,
        # so each state is reached both from "on" and from "off".
        for trace_kernels in (True, False, None, True, None, False, True):
            if trace_kernels is None:
                obs = None
            else:
                obs = Observability.from_config(
                    ObsConfig(trace_kernels=trace_kernels))
            rt.attach_observability(obs)
            assert rt.obs is obs
            self._assert_wired(rt, obs, trace_kernels)

    def test_reattach_off_stops_kernel_spans(self, obs_hls):
        traced = Observability.from_config(ObsConfig(trace_kernels=True))
        rt = build_runtime(obs_hls, plant=BeamLossPlant(min_votes=1),
                           obs=traced)
        rt.run(frames_for(2), seed=1)
        assert any(n.startswith("kernel.") for n in traced.tracer.names())

        untraced = Observability.from_config(ObsConfig(trace_kernels=False))
        rt.attach_observability(untraced)
        rt.run(frames_for(2), seed=1)
        assert not any(n.startswith("kernel.")
                       for n in untraced.tracer.names())
        # And the old bundle stopped receiving spans entirely.
        before = len(traced.tracer.names())
        rt.run(frames_for(2), seed=1)
        assert len(traced.tracer.names()) == before
