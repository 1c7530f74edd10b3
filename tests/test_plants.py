"""Tests for ``repro.plants`` — the pluggable-workload interface.

The load-bearing guarantees pinned here:

* **golden behavior preservation** — the plant refactor replays the
  pre-refactor run records (sequential, compiled, farm) bit for bit
  (``tests/data/golden_beamloss.json``, captured by
  ``tools/golden_records.py`` on the pre-plant tree),
* **plant conformance** — both shipped plants honor the session
  contract: seeded determinism, 1-D float64 frames, picklable specs,
* **closed-loop bit-identity** — a cartpole run is identical across
  every executor tier (sequential / batched, naive / compiled) under
  fault injection, and on the worker-pool farm (including
  worker-crash chaos),
* the redesigned facade validates its inputs (ready runtime + build
  keywords now raises, closed-loop plants are rejected by the
  frame-shipping entry points).
"""

import json
import math
import pickle
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.api import (
    RuntimeConfig,
    build_farm,
    build_runtime,
    run_control_loop,
    serve_frames,
    start_daemon,
)
from repro.hls import HLSConfig, convert
from repro.nn import Dense, Input, Model, Sigmoid
from repro.obs import ObsConfig
from repro.plants import (
    BeamLossPlant,
    CartpolePlant,
    ControlQuality,
    Plant,
    merge_control_dicts,
    run_closed_loop,
)
from repro.serve import FarmSpec
from repro.soc.board import FRAME_PERIOD_S, AchillesBoard
from repro.soc.faults import (
    FaultInjector,
    HubDelayFault,
    LostIRQFault,
    NoisyMonitorFault,
    SEUFault,
)

from tools.golden_records import OUT_PATH as GOLDEN_PATH
from tools.golden_records import (
    CARTPOLE_PATH,
    capture,
    cartpole_episode,
    serialize_records,
)

#: A small beam-loss geometry (16 monitors, matching the conftest
#: ``tiny_model``) so conformance tests never touch the big reference
#: dataset.
SMALL_BEAMLOSS = dict(n_train=24, n_val=6, n_eval=12, dataset_seed=7)


@pytest.fixture(scope="module")
def beamloss_tiny_model():
    """A minimal model reading the substrate's 260 monitors."""
    inp = Input((260,), name="in")
    out = Sigmoid(name="s1")(Dense(2, seed=5, name="d1")(inp))
    return Model(inp, out, name="plants-tiny")


@pytest.fixture(scope="module")
def cartpole():
    return CartpolePlant()


@pytest.fixture(scope="module")
def cartpole_model(cartpole):
    return cartpole.default_model()


@pytest.fixture(scope="module")
def cartpole_hls(cartpole_model):
    return convert(cartpole_model, HLSConfig())


def chaos_injector(seed=5):
    """Faults sized for the cartpole's 8-monitor / 2-hub layout."""
    return FaultInjector([
        HubDelayFault(rate=0.05, delay_s=4e-3),
        NoisyMonitorFault(monitor=3, sigma=2.0, rate=0.05),
        SEUFault(rate=0.05, ram="output", bit=12),
        LostIRQFault(rate=0.03),
    ], seed=seed)


# ----------------------------------------------------------------------
# Golden records: the refactor is a pure re-plumbing
# ----------------------------------------------------------------------
class TestGoldenBeamLoss:
    """Replay the pre-refactor scenarios and compare byte for byte."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_PATH.read_text())

    @pytest.fixture(scope="class")
    def current(self, reference_bundle):
        del reference_bundle  # ensure the shipped weights exist first
        return capture()

    @pytest.mark.parametrize("scenario", ["sequential", "compiled", "farm"])
    def test_records_bit_identical(self, golden, current, scenario):
        assert current[scenario] == golden[scenario], (
            f"golden {scenario} records diverged — the plant layer must "
            f"not change beam-loss behavior")

    def test_farm_outputs_bit_identical(self, golden, current):
        assert current["farm_outputs"] == golden["farm_outputs"]


class TestGoldenCartpole:
    """Replay the recorded one-frame-per-tick cartpole episodes byte for
    byte.  The compiled ≡ naive checks cannot catch a change to the seed
    derivation, the draw streams or the per-frame ladder, which both
    executors share; this fixture (``tests/data/golden_cartpole.json``)
    does not move with them."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(CARTPOLE_PATH.read_text())

    @pytest.mark.parametrize("level", [0, 2])
    @pytest.mark.parametrize("scenario", ["clean", "faulted"])
    def test_episode_bit_identical(self, golden, level, scenario):
        episode = cartpole_episode(level, faulted=scenario == "faulted")
        assert episode == golden[scenario]


# ----------------------------------------------------------------------
# Plant conformance: both shipped plants honor the session contract
# ----------------------------------------------------------------------
PLANTS = [
    pytest.param(BeamLossPlant(min_votes=1, **SMALL_BEAMLOSS),
                 id="beamloss"),
    pytest.param(CartpolePlant(), id="cartpole"),
]


@pytest.mark.parametrize("plant", PLANTS)
class TestPlantConformance:
    def test_frame_contract(self, plant):
        session = plant.session(3)
        frame = np.asarray(session.next_frame())
        assert frame.ndim == 1
        assert frame.dtype == np.float64
        if plant.expected_monitors is not None:
            assert frame.shape == (plant.expected_monitors,)

    def test_seeded_determinism(self, plant):
        def roll(seed):
            session = plant.session(seed)
            frames = []
            for _ in range(6):
                frames.append(session.next_frame().copy())
                session.apply(None)
            return np.stack(frames)

        assert np.array_equal(roll(11), roll(11))

    def test_hub_and_controller_wiring(self, plant):
        n = plant.expected_monitors or 16
        hubs = plant.hubs(n)
        assert hubs.n_monitors == n
        controller = plant.controller()
        assert tuple(controller.machine_names) == plant.machine_names

    def test_action_from_output_names_a_machine(self, plant):
        n_out = len(plant.machine_names) * (4 if plant.closed_loop else 1)
        action = plant.action_from_output(np.full(n_out, 0.99))
        assert action is None or action in plant.machine_names

    def test_plant_pickles(self, plant):
        assert pickle.loads(pickle.dumps(plant)) == plant

    def test_farm_spec_rides_plant(self, plant, cartpole_hls):
        spec = FarmSpec(model=cartpole_hls, config=RuntimeConfig(),
                        plant=plant)
        assert pickle.loads(pickle.dumps(spec)).plant == plant


class TestCartpoleSessionPhysics:
    def test_distinct_seeds_diverge(self, cartpole):
        a, b = cartpole.session(1), cartpole.session(2)
        assert not np.array_equal(a.next_frame(), b.next_frame())

    def test_failure_resets_are_counted(self, cartpole):
        session = cartpole.session(0)
        for _ in range(400):  # uncontrolled pole falls quickly
            session.next_frame()
            session.apply(None)
        assert session.failures > 0

    def test_ideal_action_deadband(self, cartpole):
        assert cartpole.ideal_action((0.0, 0.0, 0.0, 0.0)) is None
        assert cartpole.ideal_action((0.0, 0.0, 0.15, 0.0)) == "RIGHT"
        assert cartpole.ideal_action((0.0, 0.0, -0.15, 0.0)) == "LEFT"


# ----------------------------------------------------------------------
# Closed loop through the facade: control quality + executor identity
# ----------------------------------------------------------------------
def cartpole_loop(model, *, n_frames=60, seed=11, injector=None,
                  **config_kwargs):
    return run_control_loop(
        model, n_frames=n_frames, seed=seed,
        config=RuntimeConfig(**config_kwargs),
        injector=injector, plant=CartpolePlant())


class TestCartpoleClosedLoop:
    def test_stabilizes_under_compiled_fast_path(self, cartpole_model):
        result = cartpole_loop(cartpole_model, n_frames=200, seed=3,
                               batch_inference=True, compile_level=2)
        c = result.control
        assert isinstance(c, ControlQuality)
        assert c.stabilized
        assert c.stabilization_time_s < 0.5
        assert c.trip_precision > 0.9
        assert c.trip_recall > 0.8
        assert c.rms_state_error < 0.05
        assert result.health.control is c
        assert "control quality" in result.health.render()
        assert result.runtime.plant.name == "cartpole"

    def test_session_zero_state_abstains(self, cartpole, cartpole_hls):
        # At the upright rest state every monitor probability sits at
        # sigmoid(-vote_bias) < 0.5, so the controller abstains.
        board = AchillesBoard(cartpole_hls)
        board.process_frame(np.zeros(8))
        probs = board.last_output()
        assert np.all(probs < 0.5)
        assert cartpole.action_from_output(probs) is None

    #: (batch_inference, compile_level) executor matrix.
    EXECUTORS = [(False, 0), (False, 2), (True, 0), (True, 2)]

    def test_bit_identical_across_executors_under_chaos(self,
                                                        cartpole_model):
        runs = {}
        for batch, level in self.EXECUTORS:
            result = cartpole_loop(cartpole_model,
                                   injector=chaos_injector(),
                                   batch_inference=batch,
                                   compile_level=level)
            runs[(batch, level)] = serialize_records(result.records)
        reference = runs[(False, 0)]
        for key, records in runs.items():
            assert records == reference, (
                f"executor {key} diverged from the naive reference")

    def test_fault_injection_perturbs_the_trajectory(self, cartpole_model):
        clean = cartpole_loop(cartpole_model)
        chaotic = cartpole_loop(cartpole_model, injector=chaos_injector())
        assert sum(chaotic.health.fault_counts.values()) > 0
        assert (serialize_records(chaotic.records)
                != serialize_records(clean.records))

    def test_closed_loop_rejects_frames(self, cartpole_model):
        with pytest.raises(ValueError, match="closed-loop"):
            run_control_loop(cartpole_model, np.zeros((4, 8)),
                             plant=CartpolePlant())
        with pytest.raises(ValueError, match="n_frames"):
            run_control_loop(cartpole_model, plant=CartpolePlant())

    def test_open_loop_plant_synthesises_frames(self, beamloss_tiny_model):
        plant = BeamLossPlant(min_votes=1, **SMALL_BEAMLOSS)
        result = run_control_loop(beamloss_tiny_model, n_frames=5,
                                  plant=plant)
        assert len(result.records) == 5
        assert result.control.frames == 5
        assert not result.control.stabilized  # open loop never claims it


# ----------------------------------------------------------------------
# Closed loop on the farm: per-shard sessions, crash recovery
# ----------------------------------------------------------------------
class TestCartpoleFarm:
    N_FRAMES = 40

    def farm_for(self, model, **kwargs):
        return build_farm(
            model,
            config=RuntimeConfig(batch_inference=True, compile_level=2),
            plant=CartpolePlant(),
            n_shards=2,
            seed=5,
            **kwargs)

    def test_pool_matches_reference_and_survives_crash(self,
                                                       cartpole_hls):
        farm = self.farm_for(cartpole_hls)
        reference = farm.serve_plant_reference(self.N_FRAMES)
        inline = farm.serve_plant(self.N_FRAMES, workers=0)
        pooled = farm.serve_plant(self.N_FRAMES, workers=2)
        chaos = farm.serve_plant(self.N_FRAMES, workers=2,
                                 chaos_crash_shards=[1])

        golden = serialize_records(reference.records)
        assert serialize_records(inline.records) == golden
        assert serialize_records(pooled.records) == golden
        assert serialize_records(chaos.records) == golden
        assert chaos.health.worker_restarts == 1
        assert chaos.health.requeued_tasks >= 1

    def test_control_quality_merges_across_shards(self, cartpole_hls):
        farm = self.farm_for(cartpole_hls)
        health = farm.serve_plant_reference(self.N_FRAMES).health
        control = health.control
        assert control is not None
        assert control["frames"] == self.N_FRAMES
        assert "stabilized" in control
        assert "control:" in health.render()

    def test_frame_serving_rejects_closed_loop_plants(self, cartpole_hls):
        farm = self.farm_for(cartpole_hls)
        frames = np.zeros((4, 8))
        with pytest.raises(ValueError, match="serve_plant"):
            farm.serve(frames)
        with pytest.raises(ValueError, match="serve_plant"):
            farm.serve_reference(frames)
        with pytest.raises(ValueError, match="serve_plant"):
            serve_frames(cartpole_hls, frames, plant=CartpolePlant())
        with pytest.raises(ValueError, match="serve_plant"):
            start_daemon(cartpole_hls, plant=CartpolePlant())

    def test_closed_loop_serving_over_a_host_agent(self, cartpole_hls):
        # The closed-loop task carries no frames, so it runs on a host
        # agent's worker as on a local one, crash requeue included.
        from repro.serve.remote import spawn_agent

        reference = self.farm_for(cartpole_hls).serve_plant_reference(
            self.N_FRAMES)
        with spawn_agent(workers=2) as agent:
            farm = self.farm_for(cartpole_hls, hosts=[agent.address])
            plain = farm.serve_plant(self.N_FRAMES, workers=0)
            chaos = farm.serve_plant(self.N_FRAMES, workers=0,
                                     chaos_crash_shards=[1])
        golden = serialize_records(reference.records)
        for run in (plain, chaos):
            assert serialize_records(run.records) == golden
            assert run.health.control == reference.health.control
            assert run.health.host_failures == 0


# ----------------------------------------------------------------------
# ControlQuality plumbing
# ----------------------------------------------------------------------
class TestControlQuality:
    def test_from_records_open_loop(self, beamloss_tiny_model):
        plant = BeamLossPlant(min_votes=1, **SMALL_BEAMLOSS)
        session = plant.session(0)
        frames = np.stack([session.next_frame() for _ in range(6)])
        runtime = build_runtime(beamloss_tiny_model, plant=plant)
        records = runtime.run(frames)
        c = ControlQuality.from_records(records, runtime.period_s)
        assert c.frames == 6
        assert 0.0 <= c.trip_rate <= 1.0
        assert math.isnan(c.rms_state_error)

    def test_merge_control_dicts(self):
        a = {"frames": 10, "trips": 2, "trip_rate": 0.2,
             "time_to_first_trip_s": 0.006, "stabilization_time_s": 0.03,
             "stabilized": True, "trip_precision": 1.0,
             "trip_recall": 0.5, "rms_state_error": 0.01,
             "mean_latency_s": 1e-3, "deadline_miss_rate": 0.0}
        b = dict(a, frames=30, trips=3, trip_rate=0.1,
                 time_to_first_trip_s=0.003, stabilization_time_s=0.06,
                 trip_recall=1.0, rms_state_error=0.03)
        merged = merge_control_dicts([a, b])
        assert merged["frames"] == 40
        assert merged["trips"] == 5
        assert merged["time_to_first_trip_s"] == pytest.approx(0.003)
        assert merged["stabilization_time_s"] == pytest.approx(0.06)
        assert merged["stabilized"] is True
        # frames-weighted: (0.5*10 + 1.0*30) / 40
        assert merged["trip_recall"] == pytest.approx(0.875)
        assert merge_control_dicts([None, None]) is None
        assert merge_control_dicts([a, None])["frames"] == 10

    def test_obs_gauges_folded(self, cartpole_model):
        result = run_control_loop(cartpole_model, n_frames=20, seed=3,
                                  obs=ObsConfig(), plant=CartpolePlant())
        gauges = result.obs.metrics.snapshot()["gauges"]
        assert gauges["control.frames"] == 20.0
        assert "control.trip_rate" in gauges


# ----------------------------------------------------------------------
# Facade redesign: validation, one spelling per API
# ----------------------------------------------------------------------
class TestFacadeRedesign:
    def test_ready_runtime_plus_build_kwargs_raises(self, tiny_model):
        runtime = build_runtime(tiny_model,
                                plant=BeamLossPlant(min_votes=1,
                                                    **SMALL_BEAMLOSS))
        frames = np.zeros((2, 16))
        with pytest.raises(ValueError, match=r"build keywords.*config"):
            run_control_loop(runtime, frames, config=RuntimeConfig())
        with pytest.raises(ValueError, match=r"build keywords.*plant"):
            run_control_loop(runtime, frames, plant=CartpolePlant())

    def test_ready_runtime_still_accepts_obs(self, tiny_model):
        runtime = build_runtime(tiny_model,
                                plant=BeamLossPlant(min_votes=1,
                                                    **SMALL_BEAMLOSS))
        result = run_control_loop(runtime, np.zeros((2, 16)),
                                  obs=ObsConfig())
        assert result.obs is runtime.obs is not None

    def test_monitor_mismatch_raises(self, tiny_model):
        with pytest.raises(ValueError, match="8-monitor"):
            build_runtime(tiny_model, plant=CartpolePlant())

    def test_removed_spellings_fail_loudly(self, tiny_model):
        """Every API has one spelling: the removed keyword and attribute
        aliases raise instead of being silently accepted."""
        from repro.dse import Candidate, SearchSpace, score as dse_score
        from repro.hls import HLSConfig, convert
        from repro.hls.model import RunStats

        for removed in ("n_hubs", "min_votes", "speculation"):
            with pytest.raises(TypeError, match=removed):
                RuntimeConfig(**{removed: 1})
        with pytest.raises(TypeError, match="include_bn"):
            repro.load_pretrained(include_bn=False)
        hls = convert(tiny_model, HLSConfig())
        with pytest.raises(TypeError, match="compiled"):
            hls.predict(np.zeros((1, 16, 1)), compiled=True)
        with pytest.raises(TypeError):
            repro.codesign_and_deploy(tiny_model, np.zeros((4, 16, 1)),
                                      None)
        assert not hasattr(RunStats, "kernel_times")
        assert not hasattr(repro.ControlLoopResult, "latencies_s")
        with pytest.raises(TypeError, match="batch_size"):
            Candidate(batch_size=16)
        with pytest.raises(TypeError, match="workers"):
            SearchSpace(workers=(0,))
        assert not hasattr(dse_score, "ServiceModel")

    def test_plants_exported_at_top_level(self):
        assert issubclass(repro.BeamLossPlant, repro.Plant)
        assert issubclass(repro.CartpolePlant, repro.Plant)
        assert repro.ControlQuality is ControlQuality

    def test_run_closed_loop_validates(self, cartpole, cartpole_hls):
        runtime = build_runtime(cartpole_hls, plant=cartpole)
        with pytest.raises(ValueError, match="n_frames"):
            run_closed_loop(runtime, cartpole.session(0), -1)
