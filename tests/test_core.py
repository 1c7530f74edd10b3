"""Tests for the co-design optimizer and deployment API."""

import numpy as np
import pytest

from repro.core import (
    CodesignOptimizer,
    DesignConstraints,
    codesign_and_deploy,
    deploy,
)
from repro.hls.config import HLSConfig
from repro.hls.converter import convert
from repro.hls.device import CYCLONE_V
from repro.hls.precision import layer_based_config, uniform_config
from repro.nn import Conv1D, Dense, Flatten, Input, Model, ReLU, Sigmoid


def make_trained_like_model(scale=100.0):
    """A small conv model with input magnitudes like the real substrate
    (values beyond ±64 so uniform<16,7> fails)."""
    inp = Input((16, 1), name="in")
    x = Conv1D(4, 3, seed=3, name="c1")(inp)
    x = ReLU(name="r1")(x)
    x = Dense(2, seed=4, name="d")(x)
    x = Sigmoid(name="s")(x)
    out = Flatten(name="f")(x)
    return Model(inp, out, name="toy")


@pytest.fixture(scope="module")
def optimizer():
    model = make_trained_like_model()
    rng = np.random.default_rng(0)
    x = rng.normal(size=(60, 16, 1)) * 40  # values up to ~±150
    return CodesignOptimizer(model, x, eval_frames=40)


class TestCodesignOptimizer:
    def test_evaluate_records_history(self, optimizer):
        n0 = len(optimizer.history)
        res = optimizer.evaluate(uniform_config(16, 7, model=optimizer.model))
        assert len(optimizer.history) == n0 + 1
        assert set(res.accuracy) == {"MI", "RR"}

    def test_uniform16_fails_accuracy(self, optimizer):
        res = optimizer.evaluate(uniform_config(16, 7, model=optimizer.model))
        assert not res.accuracy_ok  # wrap on ±150 inputs

    def test_layer_based_feasible(self, optimizer):
        cfg = layer_based_config(optimizer.model, optimizer.x_profile,
                                 profiles=optimizer.profiles)
        res = optimizer.evaluate(cfg)
        assert res.accuracy_ok
        assert res.feasible, res.describe()

    def test_optimize_returns_feasible(self, optimizer):
        res = optimizer.optimize()
        assert res.feasible
        # For a toy model the 18-bit uniform design already fits, so the
        # ladder legitimately stops there; on the full U-Net it proceeds
        # to layer-based (covered by the integration tests).
        assert res.config.strategy in ("uniform<18,10>", "layer-based<16,x>")

    def test_describe_mentions_verdict(self, optimizer):
        res = optimizer.optimize()
        assert "FEASIBLE" in res.describe()

    def test_impossible_constraints_raise(self):
        model = make_trained_like_model()
        x = np.random.default_rng(0).normal(size=(40, 16, 1)) * 40
        constraints = DesignConstraints(latency_budget_s=1e-9)
        opt = CodesignOptimizer(model, x, constraints, eval_frames=20)
        with pytest.raises(RuntimeError):
            opt.optimize()

    def test_constraint_validation(self):
        with pytest.raises(ValueError):
            DesignConstraints(latency_budget_s=0)
        with pytest.raises(ValueError):
            DesignConstraints(accuracy_floor=0.0)


class TestDeploy:
    def test_deploy_verified(self):
        model = make_trained_like_model()
        hm = convert(model, HLSConfig())
        x = np.random.default_rng(0).normal(size=(6, 16))
        deployment = deploy(model, hm, x, min_accuracy=0.5)
        assert deployment.verified, [str(r) for r in deployment.verification]
        assert deployment.system_latency_s > 0
        assert deployment.throughput_fps > 0

    def test_meets_requirement_contract(self):
        model = make_trained_like_model()
        hm = convert(model, HLSConfig())
        x = np.random.default_rng(0).normal(size=(4, 16))
        deployment = deploy(model, hm, x, min_accuracy=0.5)
        # a 16-input toy easily meets 3 ms / 320 fps
        assert deployment.meets_requirement()
        assert not deployment.meets_requirement(deadline_s=1e-9)


class TestOneCall:
    def test_codesign_and_deploy(self):
        model = make_trained_like_model()
        x = np.random.default_rng(0).normal(size=(40, 16, 1)) * 40
        design, deployment = codesign_and_deploy(model, x, eval_frames=30,
                                                 verify_frames=4)
        assert design.feasible
        assert deployment.verified


class TestSearchedCodesign:
    """``codesign_and_deploy(search=)`` deploys exactly the design the
    DSE recommends."""

    @pytest.fixture(scope="class")
    def setup(self):
        from repro.dse import DSESettings, open_loop_problem, run_dse
        from repro.dse.space import build_config

        model = make_trained_like_model()
        x = np.random.default_rng(0).normal(size=(40, 16, 1)) * 40
        profiles = CodesignOptimizer(model, x, eval_frames=30).profiles
        problem = open_loop_problem(model, x, eval_frames=30,
                                    profiles=profiles, name="codesign")
        res = run_dse(problem, settings=DSESettings(mode="adaptive"))
        assert res.recommended is not None
        want = build_config(res.recommended.candidate, model, profiles)
        return model, x, want

    @pytest.mark.parametrize("search", ["adaptive", "settings"])
    def test_deploys_the_recommended_design(self, setup, search):
        from repro.dse import DSESettings

        model, x, want = setup
        if search == "settings":
            search = DSESettings(mode="adaptive")
        design, deployment = codesign_and_deploy(
            model, x, eval_frames=30, verify_frames=4, search=search)
        assert deployment.verified
        got = deployment.hls_model.config
        for layer in model.layers:
            assert (got.for_layer(layer.name).result
                    == want.for_layer(layer.name).result), layer.name
            assert (got.for_layer(layer.name).reuse_factor
                    == want.for_layer(layer.name).reuse_factor), layer.name

    def test_unknown_mode_rejected(self):
        model = make_trained_like_model()
        x = np.random.default_rng(0).normal(size=(40, 16, 1)) * 40
        with pytest.raises(ValueError, match="mode"):
            codesign_and_deploy(model, x, eval_frames=30, verify_frames=4,
                                search="exhaustive")
