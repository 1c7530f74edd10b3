"""Tests for HLS configuration and precision strategies."""

import numpy as np
import pytest

from repro.fixed import FixedPointFormat, Overflow
from repro.hls.config import (
    DEFAULT_PRECISION,
    DEFAULT_REUSE_FACTOR,
    HLSConfig,
    LayerConfig,
)
from repro.hls.precision import (
    DENSE_SIGMOID_REUSE,
    apply_reference_reuse,
    layer_based_config,
    uniform_config,
)
from repro.hls.profiling import LayerProfile, _abs_peak, profile_model
from repro.nn import Dense, Input, Model, ReLU, Sigmoid


def small_model():
    inp = Input((8,), name="x")
    h = Dense(4, seed=0, name="h")(inp)
    r = ReLU(name="r")(h)
    o = Dense(3, seed=1, name="o")(r)
    s = Sigmoid(name="s")(o)
    return Model(inp, s, name="small")


class TestHLSConfig:
    def test_defaults_match_paper(self):
        cfg = HLSConfig()
        assert cfg.default.result == DEFAULT_PRECISION
        assert cfg.default.reuse_factor == DEFAULT_REUSE_FACTOR == 32
        assert cfg.clock_hz == 100e6

    def test_layer_override_merging(self):
        cfg = HLSConfig()
        special = FixedPointFormat(16, 10)
        cfg.set_layer("conv", result=special)
        resolved = cfg.for_layer("conv")
        assert resolved.result == special
        assert resolved.weight == cfg.default.weight  # fell through
        assert resolved.reuse_factor == 32

    def test_set_layer_merges_incrementally(self):
        cfg = HLSConfig()
        cfg.set_layer("a", reuse_factor=64)
        cfg.set_layer("a", result=FixedPointFormat(16, 3))
        resolved = cfg.for_layer("a")
        assert resolved.reuse_factor == 64
        assert resolved.result.integer == 3

    def test_with_reuse_factor_global(self):
        cfg = HLSConfig().with_reuse_factor(128)
        assert cfg.for_layer("anything").reuse_factor == 128

    def test_with_reuse_factor_selected_layers(self):
        cfg = HLSConfig().with_reuse_factor(260, layer_names=["d"])
        assert cfg.for_layer("d").reuse_factor == 260
        assert cfg.for_layer("other").reuse_factor == 32

    def test_invalid_reuse(self):
        with pytest.raises(ValueError):
            HLSConfig().with_reuse_factor(0)

    def test_describe_lists_overrides(self):
        cfg = HLSConfig()
        cfg.set_layer("lay", reuse_factor=7)
        assert "lay" in cfg.describe()

    def test_incomplete_default_rejected(self):
        with pytest.raises(ValueError):
            HLSConfig(default=LayerConfig(weight=None))


class TestUniformConfig:
    def test_formats(self):
        cfg = uniform_config(18, 10)
        assert cfg.default.result.spec() == "ac_fixed<18, 10, true>"
        assert cfg.default.weight.spec() == "ac_fixed<18, 10, true>"
        assert cfg.default.result.overflow is Overflow.WRAP

    def test_reference_reuse_applied(self):
        m = small_model()
        cfg = uniform_config(16, 7, model=m)
        assert cfg.for_layer("h").reuse_factor == DENSE_SIGMOID_REUSE
        assert cfg.for_layer("s").reuse_factor == DENSE_SIGMOID_REUSE
        assert cfg.for_layer("r").reuse_factor == 32

    def test_strategy_label(self):
        assert uniform_config(16, 7).strategy == "uniform<16,7>"


class TestProfiling:
    def test_profiles_every_layer(self):
        m = small_model()
        x = np.random.default_rng(0).normal(size=(20, 8))
        profiles = profile_model(m, x)
        assert set(profiles) == {l.name for l in m.layers}

    def test_max_abs_correct_for_input(self):
        m = small_model()
        x = np.zeros((4, 8))
        x[2, 5] = -9.5
        profiles = profile_model(m, x)
        assert profiles["x"].max_abs_output == pytest.approx(9.5)

    def test_weight_maxima(self):
        m = small_model()
        layer = m.get_layer("h")
        layer.params["kernel"][0, 0] = 123.0
        profiles = profile_model(m, np.zeros((2, 8)))
        assert profiles["h"].max_abs_weight == pytest.approx(123.0)

    def test_batched_profiling_consistent(self):
        m = small_model()
        x = np.random.default_rng(1).normal(size=(30, 8))
        a = profile_model(m, x, batch_size=7)
        b = profile_model(m, x, batch_size=30)
        for name in a:
            assert a[name].max_abs_output == pytest.approx(
                b[name].max_abs_output
            )

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            profile_model(small_model(), np.zeros((0, 8)))

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            LayerProfile(max_abs_output=-1, max_abs_weight=0)

    @pytest.mark.parametrize("name, make", [
        ("constant", lambda r: np.full(5000, 3.25)),
        ("constant-negative", lambda r: np.full((7, 13, 5), -2.0)),
        ("all-zero", lambda r: np.zeros(20_000)),
        ("n=1", lambda r: np.array([-4.5])),
        ("n=2", lambda r: np.array([1.0, -3.0])),
        ("n=3", lambda r: np.array([0.5, -3.0, 2.0])),
        ("ties-at-threshold",
         lambda r: r.integers(-3, 4, size=100_000).astype(float)),
        ("negative-heavy", lambda r: r.normal(-5.0, 1.0, size=(64, 130, 8))),
        ("relu-like", lambda r: np.maximum(r.normal(size=(32, 260, 40)), 0)),
        ("relu-sparse", lambda r: np.maximum(r.normal(-2.5, 1.0, 80_000), 0)),
        ("heavy-tail", lambda r: r.standard_cauchy(size=50_000)),
    ])
    def test_peak_matches_numpy(self, name, make):
        a = make(np.random.default_rng(7))
        assert np.float64(_abs_peak(a)).tobytes() == np.abs(a).max().tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_names_first_layer(self, bad):
        x = np.random.default_rng(2).normal(size=(40, 8))
        x[33, 4] = bad
        with np.errstate(all="ignore"), \
                pytest.raises(ValueError, match="layer 'x'.*rows 0..39"):
            profile_model(small_model(), x)

    def test_non_finite_activation_names_layer(self):
        # Finite inputs, but the first Dense overflows to inf.
        m = small_model()
        m.get_layer("h").params["kernel"][:] = 1e308
        x = np.full((3, 8), 10.0)
        with np.errstate(all="ignore"), \
                pytest.raises(ValueError, match="layer 'h'"):
            profile_model(m, x, batch_size=2)


class TestLayerBasedConfig:
    def test_integer_bits_track_profile(self):
        m = small_model()
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 8)) * 40  # inputs up to ~±150
        cfg = layer_based_config(m, x)
        input_fmt = cfg.for_layer("x").result
        # needs ~8-9 integer bits for |x| ≈ 150
        assert input_fmt.integer >= 8
        assert input_fmt.width == 16
        sig_fmt = cfg.for_layer("s").result
        assert sig_fmt.integer <= 2  # sigmoid outputs ≤ 1

    def test_margin_bits_add_headroom(self):
        m = small_model()
        x = np.random.default_rng(0).normal(size=(20, 8))
        base = layer_based_config(m, x)
        plus = layer_based_config(m, x, margin_bits=1)
        assert (plus.for_layer("x").result.integer
                == base.for_layer("x").result.integer + 1)

    def test_width_sweep(self):
        m = small_model()
        x = np.random.default_rng(0).normal(size=(20, 8))
        for width in (10, 12, 16, 18):
            cfg = layer_based_config(m, x, width=width)
            assert cfg.for_layer("h").result.width == width

    def test_precomputed_profiles_used(self):
        m = small_model()
        x = np.random.default_rng(0).normal(size=(20, 8))
        profiles = profile_model(m, x)
        cfg = layer_based_config(m, None, profiles=profiles)
        assert cfg.for_layer("x").result.width == 16

    def test_reference_reuse_applied(self):
        m = small_model()
        x = np.random.default_rng(0).normal(size=(20, 8))
        cfg = layer_based_config(m, x)
        assert cfg.for_layer("o").reuse_factor == DENSE_SIGMOID_REUSE

    def test_strategy_label(self):
        m = small_model()
        x = np.zeros((5, 8))
        assert "layer-based" in layer_based_config(m, x).strategy
        assert "+1" in layer_based_config(m, x, margin_bits=1).strategy


#: Per-layer (result, weight) integer bits that ``layer_based_config``
#: derives for the bundled U-Net from its 1500 training frames.  Literal
#: on purpose: a float-forward change that moves any bit of the paper's
#: design fails here instead of being recomputed away.
UNET_INTEGER_BITS = {
    0: {
        "blm_input": (9, 9), "enc1_conv": (8, 1), "enc1_relu": (8, 8),
        "enc1_pool": (8, 8), "enc2_conv": (8, 1), "enc2_relu": (7, 7),
        "enc2_pool": (7, 7), "bottleneck_conv": (7, 1),
        "bottleneck_relu": (7, 7), "dec2_up": (7, 7),
        "dec2_concat": (7, 7), "dec2_conv": (7, 1), "dec2_relu": (7, 7),
        "dec1_up": (7, 7), "dec1_concat": (8, 8), "dec1_conv": (8, 1),
        "dec1_relu": (7, 7), "head_dense": (6, 1), "head_sigmoid": (1, 1),
        "output_flatten": (1, 1),
    },
    1: {
        "blm_input": (10, 10), "enc1_conv": (9, 2), "enc1_relu": (9, 9),
        "enc1_pool": (9, 9), "enc2_conv": (9, 2), "enc2_relu": (8, 8),
        "enc2_pool": (8, 8), "bottleneck_conv": (8, 2),
        "bottleneck_relu": (8, 8), "dec2_up": (8, 8),
        "dec2_concat": (8, 8), "dec2_conv": (8, 2), "dec2_relu": (8, 8),
        "dec1_up": (8, 8), "dec1_concat": (9, 9), "dec1_conv": (9, 2),
        "dec1_relu": (8, 8), "head_dense": (7, 2), "head_sigmoid": (2, 2),
        "output_flatten": (2, 2),
    },
}


class TestBundledUNetDesign:
    @pytest.mark.parametrize("margin_bits", [0, 1])
    def test_integer_bits_pinned(self, margin_bits):
        from repro.experiments.common import bundle, unet_profiles

        model = bundle().unet
        cfg = layer_based_config(model, None, margin_bits=margin_bits,
                                 profiles=unet_profiles())
        got = {layer.name: (cfg.for_layer(layer.name).result.integer,
                            cfg.for_layer(layer.name).weight.integer)
               for layer in model.layers}
        assert got == UNET_INTEGER_BITS[margin_bits]
        assert all(cfg.for_layer(name).result.width == 16 for name in got)
