"""Tests for the design-space-exploration autotuner (repro.dse)."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.codesign import DesignConstraints
from repro.dse import (
    Candidate,
    CandidateScore,
    DSESettings,
    SearchSpace,
    build_config,
    open_loop_problem,
    pareto_front,
    plant_problem,
    run_dse,
    score_candidate,
    unet_problem,
)
from repro.dse.driver import MODES, _recommend
from repro.dse.pareto import dominates
from repro.experiments import common
from repro.hls.profiling import profile_model
from repro.nn import Dense, Input, Model, ReLU, Sigmoid
from repro.obs import MetricsRegistry
from repro.plants import CartpolePlant


def small_model():
    inp = Input((8,), name="in")
    x = Dense(16, seed=0, name="d1")(inp)
    x = ReLU(name="r")(x)
    x = Dense(2, seed=1, name="d2")(x)
    out = Sigmoid(name="s")(x)
    return Model(inp, out, name="sm")


class TestCandidate:
    def test_uniform_canonicalises_precision_perturbations(self):
        a = Candidate(strategy="uniform<16,7>", margin_bits=1,
                      layer_deltas=(("d1", 1),))
        b = Candidate(strategy="uniform<16,7>")
        assert a.margin_bits == 0 and a.layer_deltas == ()
        assert a.key() == b.key()

    def test_layer_deltas_sorted(self):
        a = Candidate(layer_deltas=(("z", 1), ("a", -1)))
        assert a.layer_deltas == (("a", -1), ("z", 1))

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            Candidate(strategy="uniform[16,7]")

    def test_key_roundtrips_dict(self):
        c = Candidate(strategy="layer-based", margin_bits=1,
                      layer_deltas=(("d1", -1),), default_reuse=64)
        import json

        assert json.loads(c.key()) == c.to_dict()

    def test_reference_precision_flag(self):
        assert Candidate().is_reference_precision
        assert not Candidate(margin_bits=1).is_reference_precision
        assert not Candidate(default_reuse=64).is_reference_precision

    def test_perturbation_counts_integer_bits_moved(self):
        c = Candidate(margin_bits=1, layer_deltas=(("a", -1), ("b", 1)))
        assert c.perturbation == 3
        assert Candidate(strategy="uniform<16,7>", margin_bits=1,
                         layer_deltas=(("a", 1),)).perturbation == 0
        assert all(a.perturbation == 0 for a in SearchSpace().anchors())


class TestSearchSpace:
    def test_anchors_cover_paper_ladder(self):
        space = SearchSpace()
        anchors = space.anchors()
        assert [a.strategy for a in anchors] == [
            "uniform<18,10>", "uniform<16,7>", "layer-based"]
        # anchors sit at the deployed reference reuse point
        assert all(a.is_reference_precision for a in anchors)

    def test_grid_is_rng_free_and_deterministic(self):
        space = SearchSpace(layer_names=("d1", "d2"))
        g1 = [c.key() for c in space.grid(12)]
        g2 = [c.key() for c in space.grid(12)]
        assert g1 == g2
        assert len(g1) == len(set(g1))  # deduplicated
        assert 0 < len(g1) <= 12

    def test_sample_stream_is_seed_stable(self):
        space = SearchSpace(layer_names=("d1", "d2"))
        draw = lambda: [space.sample(np.random.default_rng(7)).key()
                        for _ in range(5)]
        assert draw() == draw()

    def test_mutate_perturbs_at_most_one_knob(self):
        space = SearchSpace(layer_names=("d1",))
        base = Candidate()
        changed = 0
        for seed in range(8):
            mutant = space.mutate(base, np.random.default_rng(seed))
            diffs = [k for k, v in mutant.to_dict().items()
                     if v != base.to_dict()[k]]
            # a re-draw may land on the current value (no-op mutation)
            assert len(diffs) <= 1
            changed += bool(diffs)
        assert changed > 0


class TestBuildConfig:
    def test_layer_delta_applied_and_clamped(self):
        m = small_model()
        x = np.random.default_rng(0).normal(size=(32, 8))
        profiles = profile_model(m, x)
        base = build_config(Candidate(), m, profiles)
        up = build_config(Candidate(layer_deltas=(("d1", 1),)), m, profiles)
        assert (up.for_layer("d1").result.integer
                == base.for_layer("d1").result.integer + 1)
        # a huge negative delta clamps at 1 integer bit, never below
        down = build_config(
            Candidate(layer_deltas=(("d1", -99),)), m, profiles)
        assert down.for_layer("d1").result.integer == 1

    def test_reuse_knobs_flow_through(self):
        m = small_model()
        cfg = build_config(Candidate(strategy="uniform<16,7>",
                                     default_reuse=16,
                                     dense_sigmoid_reuse=130), m)
        assert cfg.for_layer("d1").reuse_factor == 130  # dense rule
        assert cfg.for_layer("r").reuse_factor == 16


class TestPareto:
    def test_dominates(self):
        assert dominates((2.0, 1.0), (1.0, 1.0))
        assert not dominates((1.0, 1.0), (1.0, 1.0))
        assert not dominates((2.0, 0.0), (1.0, 1.0))
        with pytest.raises(ValueError):
            dominates((1.0,), (1.0, 2.0))

    def test_front_drops_dominated_keeps_trades(self):
        items = [("a", (1.0, 5.0)), ("b", (5.0, 1.0)),
                 ("c", (0.5, 0.5)), ("d", (1.0, 5.0))]
        front = pareto_front(items, objectives=lambda it: it[1],
                             tie_break=lambda it: it[0])
        assert [n for n, _ in front] == ["a", "b", "d"]  # duplicates live

    def test_front_order_independent_of_input_order(self):
        items = [("a", (1.0, 5.0)), ("b", (5.0, 1.0)), ("c", (3.0, 3.0))]
        f1 = pareto_front(items, lambda it: it[1], lambda it: it[0])
        f2 = pareto_front(items[::-1], lambda it: it[1], lambda it: it[0])
        assert f1 == f2


class TestScoring:
    def test_estimator_prefilter_skips_simulation(self):
        m = small_model()
        x = np.random.default_rng(1).normal(size=(16, 8))
        problem = open_loop_problem(
            m, x, eval_frames=8, name="tiny",
            constraints=DesignConstraints(latency_budget_s=1e-9))
        score = score_candidate(problem, Candidate())
        assert not score.simulated
        assert score.reject_reason == "estimator: over latency budget"
        assert not score.feasible

    def test_screening_pass_never_simulates(self):
        m = small_model()
        x = np.random.default_rng(1).normal(size=(16, 8))
        problem = open_loop_problem(m, x, eval_frames=8, name="tiny")
        score = score_candidate(problem, Candidate(), eval_frames=0)
        assert not score.simulated and score.reject_reason is None
        assert not math.isnan(score.est_ip_latency_ms)

    def test_open_loop_score_is_seed_pure(self):
        m = small_model()
        x = np.random.default_rng(2).normal(size=(16, 8))
        mk = lambda: open_loop_problem(m, x, eval_frames=8, name="tiny")
        s1 = score_candidate(mk(), Candidate())
        s2 = score_candidate(mk(), Candidate())
        assert s1.to_dict() == s2.to_dict()
        assert s1.simulated
        assert math.isfinite(s1.node_p99_ms) and s1.node_p99_ms > 0

    def test_negative_eval_frames_rejected(self):
        m = small_model()
        x = np.random.default_rng(1).normal(size=(16, 8))
        problem = open_loop_problem(m, x, eval_frames=8, name="tiny")
        with pytest.raises(ValueError, match="eval_frames"):
            score_candidate(problem, Candidate(), eval_frames=-3)


def _score(candidate, accuracy, node_p99_ms, pressure=0.1):
    return CandidateScore(
        candidate=candidate, fits=True, est_latency_ok=True, simulated=True,
        accuracy=accuracy, node_p99_ms=node_p99_ms,
        alut_fraction=pressure, register_fraction=pressure,
        dsp_fraction=pressure, m20k_fraction=pressure,
        memory_bits_fraction=pressure)


class TestRank:
    def test_perturbation_adopted_only_when_more_accurate(self):
        profiled = _score(Candidate(), 1.0, 2.0)
        faster = _score(Candidate(margin_bits=1, default_reuse=16), 1.0, 1.0)
        assert _recommend([faster, profiled]) is profiled
        # Both sit on the front: the perturbed one trades bits for p99.
        front = pareto_front([profiled, faster], CandidateScore.objectives,
                             tie_break=lambda s: s.candidate.key())
        assert len(front) == 2
        # A perturbation that buys accuracy wins, even when slower.
        coarse = _score(Candidate(), 0.9, 2.0)
        sharper = _score(Candidate(layer_deltas=(("d1", 1),)), 1.0, 3.0)
        assert _recommend([coarse, sharper]) is sharper

    def test_resource_pressure_breaks_latency_ties(self):
        lean = _score(Candidate(default_reuse=64), 1.0, 2.0, pressure=0.2)
        wide = _score(Candidate(default_reuse=16), 1.0, 2.0, pressure=0.5)
        assert _recommend([wide, lean]) is lean
        assert _recommend([]) is None


class TestFrameCounts:
    """Frame counts below 1 fail at the DSE's boundary, naming the
    keyword, before any scoring work."""

    @pytest.mark.parametrize("n", [0, -3])
    def test_screen_frames(self, n):
        with pytest.raises(ValueError, match="screen_frames"):
            DSESettings(screen_frames=n)

    def test_open_loop_eval_frames(self):
        x = np.zeros((4, 8))
        with pytest.raises(ValueError, match="eval_frames"):
            open_loop_problem(small_model(), x, eval_frames=0)

    def test_plant_frame_counts(self):
        with pytest.raises(ValueError, match="eval_frames"):
            plant_problem(CartpolePlant(), eval_frames=0)
        with pytest.raises(ValueError, match="profile_frames"):
            plant_problem(CartpolePlant(), profile_frames=0)

    def test_unet_eval_frames(self):
        with pytest.raises(ValueError, match="eval_frames"):
            unet_problem(fast=True, eval_frames=0)


def test_import_loads_no_serving_module():
    """The DSE scores designs from the hardware model alone: importing
    it pulls in nothing from the serving stack."""
    code = ("import sys, repro.dse\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith('repro.serve')))\n")
    src = str(Path(repro.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=300,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


class TestDriverDeterminism:
    """Same seed ⇒ byte-identical front, in every mode (satellite 4)."""

    @pytest.fixture(scope="class")
    def problem(self):
        return plant_problem(CartpolePlant(), eval_frames=96,
                             profile_frames=64, seed=0)

    @pytest.mark.parametrize("mode", MODES)
    def test_seeded_rerun_byte_identical(self, problem, mode):
        settings = DSESettings(mode=mode, budget=5, seed=11,
                               survivors=2, mutations=1)
        r1 = run_dse(problem, settings=settings)
        r2 = run_dse(problem, settings=settings)
        assert r1.front_json() == r2.front_json()
        assert r1.front, f"{mode}: empty front"
        assert r1.recommended is not None and r1.recommended.feasible
        assert any(s is r1.recommended for s in r1.front)

    def test_anchors_always_evaluated(self, problem):
        res = run_dse(problem, settings=DSESettings(
            mode="random", budget=4, seed=0))
        strategies = {s.candidate.strategy for s in res.evaluated
                      if s.candidate.is_reference_precision}
        assert {"uniform<18,10>", "uniform<16,7>",
                "layer-based"} <= strategies

    def test_adaptive_budget_respected(self, problem):
        settings = DSESettings(mode="adaptive", budget=4, seed=1,
                               survivors=2, mutations=2)
        res = run_dse(problem, settings=settings)
        # screening round short-sims at most budget candidates and the
        # refinement round fully evaluates at most budget more
        assert res.n_simulated <= 2 * settings.budget

    def test_different_seeds_may_change_pool_not_crash(self, problem):
        for seed in (0, 1):
            res = run_dse(problem, settings=DSESettings(
                mode="random", budget=4, seed=seed))
            assert res.front


class TestUnetRecommendation:
    """The recommended U-Net config must reproduce the deployed
    layer-based <16,x> strategy within one integer bit (satellite 4)."""

    @pytest.mark.parametrize("seed", range(10))
    def test_recommendation_pins_paper_design(self, seed):
        from repro.hls.precision import layer_based_config

        problem = unet_problem(fast=True, eval_frames=32)
        res = run_dse(problem, settings=DSESettings(
            mode="adaptive", budget=6, seed=seed, survivors=2, mutations=1))
        rec = res.recommended
        assert rec is not None and rec.feasible
        assert rec.candidate.strategy == "layer-based"
        assert rec.fits  # corrected `fits`: registers + memory bits too
        assert rec.register_fraction < 1.0
        deployed = layer_based_config(problem.model, None,
                                      profiles=problem.profiles)
        chosen = build_config(rec.candidate, problem.model,
                              problem.profiles)
        for name in problem.profiles:
            got = chosen.for_layer(name).result.integer
            ref = deployed.for_layer(name).result.integer
            assert abs(got - ref) <= 1, (
                f"layer {name}: recommended {got} integer bits vs "
                f"deployed {ref}")


class TestConvertedCache:
    """The explicit (strategy, level) LRU in experiments.common
    (satellite 3): sizing, counters, and the repro.obs mirror."""

    @pytest.fixture(autouse=True)
    def _restore_cache(self):
        saved_cache = common._converted_cache.copy()
        saved_size = common._converted_cache_maxsize
        saved_counts = dict(common._converted_cache_counts)
        yield
        common._converted_cache.clear()
        common._converted_cache.update(saved_cache)
        common._converted_cache_maxsize = saved_size
        common._converted_cache_counts.clear()
        common._converted_cache_counts.update(saved_counts)

    def _fill(self, n):
        common._converted_cache.clear()
        for i in range(n):
            common._converted_cache[(f"s{i}", 0)] = object()

    def test_resize_returns_previous_and_shrink_evicts_oldest(self):
        common.set_converted_cache_size(8)
        self._fill(6)
        before = common.converted_cache_stats()["evictions"]
        assert common.set_converted_cache_size(4) == 8
        stats = common.converted_cache_stats()
        assert stats["size"] == 4 and stats["maxsize"] == 4
        assert stats["evictions"] == before + 2
        # oldest entries went first
        assert ("s0", 0) not in common._converted_cache
        assert ("s5", 0) in common._converted_cache

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            common.set_converted_cache_size(0)

    def test_stats_shape(self):
        stats = common.converted_cache_stats()
        assert {"hits", "misses", "evictions", "size",
                "maxsize"} <= set(stats)

    def test_fold_metrics_into_registry(self):
        common.set_converted_cache_size(8)
        self._fill(3)
        common._converted_cache_counts.update(
            {"hits": 5, "misses": 2, "evictions": 1})
        metrics = MetricsRegistry()
        common.fold_converted_cache_metrics(metrics)
        assert metrics.count("experiments.converted_cache.hits") == 5
        assert metrics.count("experiments.converted_cache.misses") == 2
        assert metrics.count("experiments.converted_cache.evictions") == 1
        assert metrics.gauge("experiments.converted_cache.size").value == 3
        assert metrics.gauge(
            "experiments.converted_cache.maxsize").value == 8
