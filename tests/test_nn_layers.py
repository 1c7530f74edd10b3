"""Layer-level tests: shapes, forward semantics, gradient checks."""

import numpy as np
import pytest

from repro.nn import (
    Add,
    AveragePooling1D,
    BatchNormalization,
    Concatenate,
    Conv1D,
    Dense,
    Flatten,
    Input,
    Linear,
    MaxPooling1D,
    Model,
    ReLU,
    Reshape,
    Sigmoid,
    Softmax,
    Tanh,
    UpSampling1D,
)
from repro.nn.losses import MeanSquaredError


def numeric_grad_check(build, x_shape, seed=0, eps=1e-6, tol=1e-5,
                       n_checks=3):
    """Generic central-difference gradient check for a single-layer model."""
    rng = np.random.default_rng(seed)
    inp = Input(x_shape[1:])
    out_ref = build(inp)
    model = Model(inp, out_ref)
    x = rng.normal(size=x_shape)
    y = rng.normal(size=(x_shape[0],) + model.outputs[0].shape)
    loss = MeanSquaredError()

    pred = model.forward(x, training=True)
    model.backward(loss.grad(y, pred))
    for layer in model.trainable_layers():
        for key, p in layer.params.items():
            g = layer.grads[key]
            for _ in range(n_checks):
                idx = tuple(rng.integers(0, s) for s in p.shape)
                orig = p[idx]
                p[idx] = orig + eps
                lp = loss.value(y, model.forward(x, training=True))
                p[idx] = orig - eps
                lm = loss.value(y, model.forward(x, training=True))
                p[idx] = orig
                num = (lp - lm) / (2 * eps)
                denom = max(1e-6, abs(num) + abs(g[idx]))
                assert abs(num - g[idx]) / denom < tol, (
                    f"{layer.name}/{key}{idx}: {num} vs {g[idx]}"
                )


def input_grad_check(build, x_shape, seed=0, eps=1e-6, tol=1e-5):
    """Central-difference check of dL/dx."""
    rng = np.random.default_rng(seed)
    inp = Input(x_shape[1:])
    model = Model(inp, build(inp))
    x = rng.normal(size=x_shape)
    y = rng.normal(size=(x_shape[0],) + model.outputs[0].shape)
    loss = MeanSquaredError()
    pred = model.forward(x, training=True)
    (dx,) = model.backward(loss.grad(y, pred))
    for _ in range(4):
        idx = tuple(rng.integers(0, s) for s in x.shape)
        orig = x[idx]
        x[idx] = orig + eps
        lp = loss.value(y, model.forward(x, training=True))
        x[idx] = orig - eps
        lm = loss.value(y, model.forward(x, training=True))
        x[idx] = orig
        num = (lp - lm) / (2 * eps)
        denom = max(1e-6, abs(num) + abs(dx[idx]))
        assert abs(num - dx[idx]) / denom < tol


class TestDense:
    def test_output_shape_flat(self):
        inp = Input((10,))
        ref = Dense(4, seed=0)(inp)
        assert ref.shape == (4,)

    def test_output_shape_sequence(self):
        inp = Input((20, 3))
        ref = Dense(4, seed=0)(inp)
        assert ref.shape == (20, 4)

    def test_forward_matches_matmul(self):
        inp = Input((5,))
        layer = Dense(3, seed=1)
        model = Model(inp, layer(inp))
        x = np.random.default_rng(0).normal(size=(4, 5))
        expected = x @ layer.params["kernel"] + layer.params["bias"]
        np.testing.assert_allclose(model.forward(x), expected)

    def test_no_bias_param_absent(self):
        inp = Input((5,))
        layer = Dense(3, use_bias=False, seed=1)
        layer(inp)
        assert "bias" not in layer.params
        assert layer.count_params() == 15

    def test_gradients(self):
        numeric_grad_check(lambda t: Dense(3, seed=2)(t), (4, 6))

    def test_gradients_sequence(self):
        numeric_grad_check(lambda t: Dense(3, seed=2)(t), (2, 7, 4))

    def test_input_gradients(self):
        input_grad_check(lambda t: Dense(3, seed=2)(t), (4, 6))

    def test_invalid_units(self):
        with pytest.raises(ValueError):
            Dense(0)


class TestConv1D:
    def test_same_padding_shape(self):
        inp = Input((20, 3))
        assert Conv1D(5, 3, seed=0)(inp).shape == (20, 5)

    def test_valid_padding_shape(self):
        inp = Input((20, 3))
        assert Conv1D(5, 5, padding="valid", seed=0)(inp).shape == (16, 5)

    def test_identity_kernel(self):
        inp = Input((8, 1))
        layer = Conv1D(1, 3, use_bias=False, seed=0)
        model = Model(inp, layer(inp))
        k = np.zeros((3, 1, 1))
        k[1, 0, 0] = 1.0  # center tap = identity
        layer.params["kernel"] = k
        x = np.random.default_rng(0).normal(size=(2, 8, 1))
        np.testing.assert_allclose(model.forward(x), x)

    def test_shift_kernel(self):
        # A kernel with only the left tap set shifts the sequence.
        inp = Input((8, 1))
        layer = Conv1D(1, 3, use_bias=False, seed=0)
        model = Model(inp, layer(inp))
        k = np.zeros((3, 1, 1))
        k[0, 0, 0] = 1.0
        layer.params["kernel"] = k
        x = np.arange(8, dtype=float).reshape(1, 8, 1)
        out = model.forward(x)
        np.testing.assert_allclose(out[0, 1:, 0], x[0, :-1, 0])
        assert out[0, 0, 0] == 0.0  # zero padding

    def test_matches_manual_correlation(self):
        rng = np.random.default_rng(3)
        inp = Input((10, 2))
        layer = Conv1D(3, 3, padding="valid", seed=4)
        model = Model(inp, layer(inp))
        x = rng.normal(size=(1, 10, 2))
        out = model.forward(x)
        W, b = layer.params["kernel"], layer.params["bias"]
        for t in range(8):
            expected = np.einsum("kc,kcf->f", x[0, t:t + 3], W) + b
            np.testing.assert_allclose(out[0, t], expected, atol=1e-12)

    def test_gradients(self):
        numeric_grad_check(lambda t: Conv1D(3, 3, seed=5)(t), (2, 10, 2))

    def test_gradients_valid(self):
        numeric_grad_check(
            lambda t: Conv1D(2, 5, padding="valid", seed=5)(t), (2, 12, 3)
        )

    def test_input_gradients(self):
        input_grad_check(lambda t: Conv1D(3, 3, seed=5)(t), (2, 10, 2))

    def test_even_kernel_same_padding(self):
        inp = Input((10, 1))
        assert Conv1D(2, 4, seed=0)(inp).shape == (10, 2)

    @pytest.mark.parametrize("padding, k, qat", [
        ("same", 3, False), ("valid", 3, False), ("same", 4, False),
        ("valid", 4, False), ("same", 1, False), ("same", 5, True),
    ])
    def test_forward_matches_per_position_einsum(self, padding, k, qat):
        from repro.fixed import FixedPointFormat, quantize

        rng = np.random.default_rng(k)
        # 40 samples of length 57 fill one GEMM block and part of a second.
        inp = Input((57, 3))
        layer = Conv1D(5, k, padding=padding, seed=k)
        model = Model(inp, layer(inp))
        layer.params["bias"] = rng.normal(size=5)
        kernel = layer.params["kernel"]
        if qat:
            layer.weight_quantizer = FixedPointFormat(6, 1)
            kernel = quantize(kernel, layer.weight_quantizer)
            assert not np.array_equal(kernel, layer.params["kernel"])
        x = rng.normal(size=(40, 57, 3))
        out = model.forward(x)
        left = (k - 1) // 2 if padding == "same" else 0
        xp = np.pad(x, ((0, 0), (left, k - 1 - left), (0, 0))
                    ) if padding == "same" else x
        assert out.shape == (40, xp.shape[1] - k + 1, 5)
        assert out.flags.c_contiguous
        for t in range(out.shape[1]):
            expected = np.einsum("nkc,kcf->nf", xp[:, t:t + k], kernel)
            np.testing.assert_allclose(out[:, t], expected + layer.params["bias"],
                                       rtol=1e-12, atol=1e-13)

    def test_bad_padding(self):
        with pytest.raises(ValueError):
            Conv1D(2, 3, padding="full")

    def test_kernel_too_large(self):
        inp = Input((4, 1))
        with pytest.raises(ValueError):
            Conv1D(2, 9, padding="valid", seed=0)(inp)


class TestPooling:
    def test_max_forward(self):
        inp = Input((6, 1))
        model = Model(inp, MaxPooling1D(2)(inp))
        x = np.array([[1, 5, 2, 2, 9, 0]], dtype=float).reshape(1, 6, 1)
        np.testing.assert_allclose(model.forward(x).ravel(), [5, 2, 9])

    def test_avg_forward(self):
        inp = Input((6, 1))
        model = Model(inp, AveragePooling1D(2)(inp))
        x = np.array([[1, 5, 2, 2, 9, 0]], dtype=float).reshape(1, 6, 1)
        np.testing.assert_allclose(model.forward(x).ravel(), [3, 2, 4.5])

    def test_odd_length_truncates(self):
        inp = Input((7, 2))
        assert MaxPooling1D(2)(inp).shape == (3, 2)

    def test_max_backward_routes_to_argmax(self):
        inp = Input((4, 1))
        model = Model(inp, MaxPooling1D(2)(inp))
        x = np.array([[1.0, 3.0, 2.0, 0.5]]).reshape(1, 4, 1)
        model.forward(x, training=True)
        (dx,) = model.backward(np.ones((1, 2, 1)))
        np.testing.assert_allclose(dx.ravel(), [0, 1, 1, 0])

    def test_max_backward_routes_ties_to_first_maximum(self):
        inp = Input((9, 2))
        model = Model(inp, MaxPooling1D(3)(inp))
        x = np.array([[2.0, 7.0], [2.0, 7.0], [1.0, 7.0],
                      [0.0, -1.0], [4.0, -3.0], [4.0, -1.0],
                      [5.0, 6.0], [5.0, 6.0], [5.0, 6.0]]).reshape(1, 9, 2)
        out = model.forward(x, training=True)
        np.testing.assert_array_equal(out[0], [[2, 7], [4, -1], [5, 6]])
        grad = np.array([[10.0, 20.0], [30.0, 40.0], [50.0, 60.0]])
        (dx,) = model.backward(grad.reshape(1, 3, 2))
        np.testing.assert_array_equal(dx[0], [
            [10, 20], [0, 0], [0, 0],
            [0, 40], [30, 0], [0, 0],
            [50, 60], [0, 0], [0, 0]])

    def test_avg_backward_uniform(self):
        inp = Input((4, 1))
        model = Model(inp, AveragePooling1D(2)(inp))
        x = np.zeros((1, 4, 1))
        model.forward(x, training=True)
        (dx,) = model.backward(np.ones((1, 2, 1)))
        np.testing.assert_allclose(dx.ravel(), [0.5, 0.5, 0.5, 0.5])

    def test_max_grad_check_via_input(self):
        input_grad_check(lambda t: MaxPooling1D(2)(t), (2, 8, 2), seed=9)

    def test_pool_size_validation(self):
        with pytest.raises(ValueError):
            MaxPooling1D(1)

    def test_260_chain(self):
        # The reference chain 260 → 130 → 65.
        inp = Input((260, 1))
        p1 = MaxPooling1D(2)(inp)
        p2 = MaxPooling1D(2)(p1)
        assert p1.shape == (130, 1)
        assert p2.shape == (65, 1)


class TestUpSampling:
    def test_forward_repeats(self):
        inp = Input((3, 1))
        model = Model(inp, UpSampling1D(2)(inp))
        x = np.array([[1.0, 2.0, 3.0]]).reshape(1, 3, 1)
        np.testing.assert_allclose(
            model.forward(x).ravel(), [1, 1, 2, 2, 3, 3]
        )

    def test_backward_sums(self):
        inp = Input((3, 1))
        model = Model(inp, UpSampling1D(2)(inp))
        model.forward(np.zeros((1, 3, 1)), training=True)
        g = np.arange(6, dtype=float).reshape(1, 6, 1)
        (dx,) = model.backward(g)
        np.testing.assert_allclose(dx.ravel(), [1, 5, 9])

    def test_roundtrip_with_pool(self):
        inp = Input((65, 4))
        up = UpSampling1D(2)(inp)
        assert up.shape == (130, 4)

    def test_grad_check(self):
        input_grad_check(lambda t: UpSampling1D(2)(t), (2, 5, 3))


class TestMerge:
    def test_concat_channels(self):
        a, b = Input((5, 2)), Input((5, 3))
        ref = Concatenate()(a, b)
        assert ref.shape == (5, 5)

    def test_concat_backward_splits(self):
        a, b = Input((2, 2)), Input((2, 1))
        model = Model([a, b], Concatenate()(a, b))
        model.forward([np.zeros((1, 2, 2)), np.ones((1, 2, 1))],
                      training=True)
        g = np.arange(6, dtype=float).reshape(1, 2, 3)
        da, db = model.backward(g)
        assert da.shape == (1, 2, 2)
        assert db.shape == (1, 2, 1)
        np.testing.assert_allclose(db.ravel(), [2, 5])

    def test_concat_shape_mismatch(self):
        a, b = Input((5, 2)), Input((6, 3))
        with pytest.raises(ValueError):
            Concatenate()(a, b)

    def test_add_forward(self):
        a, b = Input((4,)), Input((4,))
        model = Model([a, b], Add()(a, b))
        out = model.forward([np.ones((2, 4)), 2 * np.ones((2, 4))])
        np.testing.assert_allclose(out, 3.0)

    def test_add_shape_mismatch(self):
        a, b = Input((4,)), Input((5,))
        with pytest.raises(ValueError):
            Add()(a, b)


class TestActivations:
    @pytest.mark.parametrize("layer_cls,func", [
        (ReLU, lambda x: np.maximum(x, 0)),
        (Sigmoid, lambda x: 1 / (1 + np.exp(-x))),
        (Tanh, np.tanh),
        (Linear, lambda x: x),
    ])
    def test_forward_values(self, layer_cls, func):
        inp = Input((7,))
        model = Model(inp, layer_cls()(inp))
        x = np.linspace(-3, 3, 7).reshape(1, 7)
        np.testing.assert_allclose(model.forward(x), func(x), atol=1e-12)

    def test_softmax_sums_to_one(self):
        inp = Input((5, 3))
        model = Model(inp, Softmax()(inp))
        x = np.random.default_rng(0).normal(size=(2, 5, 3)) * 10
        out = model.forward(x)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0)

    def test_sigmoid_extreme_stable(self):
        inp = Input((2,))
        model = Model(inp, Sigmoid()(inp))
        out = model.forward(np.array([[-700.0, 700.0]]))
        assert np.isfinite(out).all()
        assert out[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert out[0, 1] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("layer_cls", [ReLU, Sigmoid, Tanh, Softmax])
    def test_grad_check(self, layer_cls):
        input_grad_check(lambda t: layer_cls()(t), (3, 6), seed=3, tol=1e-4)


class TestBatchNorm:
    def test_training_normalizes(self):
        inp = Input((50, 4))
        model = Model(inp, BatchNormalization()(inp))
        x = np.random.default_rng(0).normal(3.0, 5.0, size=(16, 50, 4))
        out = model.forward(x, training=True)
        assert abs(out.mean()) < 0.05
        assert abs(out.std() - 1.0) < 0.05

    def test_inference_uses_moving_stats(self):
        inp = Input((4,))
        bn = BatchNormalization(momentum=0.0)  # adopt batch stats at once
        model = Model(inp, bn(inp))
        x = np.random.default_rng(0).normal(10.0, 2.0, size=(256, 4))
        model.forward(x, training=True)
        out = model.forward(x, training=False)
        assert abs(out.mean()) < 0.1

    def test_gradients(self):
        numeric_grad_check(
            lambda t: BatchNormalization()(t), (8, 5), seed=5, tol=1e-4
        )

    def test_fused_scale_shift_matches_inference(self):
        inp = Input((4,))
        bn = BatchNormalization(momentum=0.0)
        model = Model(inp, bn(inp))
        x = np.random.default_rng(1).normal(5.0, 3.0, size=(128, 4))
        model.forward(x, training=True)
        scale, shift = bn.inference_scale_shift()
        np.testing.assert_allclose(
            model.forward(x, training=False), scale * x + shift, atol=1e-9
        )

    def test_invalid_momentum(self):
        with pytest.raises(ValueError):
            BatchNormalization(momentum=1.0)


class TestReshapeLayers:
    def test_flatten(self):
        inp = Input((4, 3))
        assert Flatten()(inp).shape == (12,)

    def test_flatten_roundtrip_grad(self):
        input_grad_check(lambda t: Flatten()(t), (2, 4, 3))

    def test_reshape(self):
        inp = Input((12,))
        assert Reshape((4, 3))(inp).shape == (4, 3)

    def test_reshape_size_mismatch(self):
        inp = Input((10,))
        with pytest.raises(ValueError):
            Reshape((4, 3))(inp)

    def test_flatten_order_monitor_major(self):
        # (monitors, machines) flattens monitor-major — the 520-value
        # output layout [m0_MI, m0_RR, m1_MI, ...].
        inp = Input((3, 2))
        model = Model(inp, Flatten()(inp))
        x = np.arange(6, dtype=float).reshape(1, 3, 2)
        np.testing.assert_allclose(model.forward(x).ravel(),
                                   [0, 1, 2, 3, 4, 5])


class TestLayerProtocol:
    def test_layer_reuse_rejected(self):
        layer = Dense(2, seed=0)
        a, b = Input((3,)), Input((3,))
        layer(a)
        with pytest.raises(RuntimeError):
            layer(b)

    def test_call_on_non_tensor_rejected(self):
        with pytest.raises(TypeError):
            Dense(2)(np.zeros((1, 3)))

    def test_backward_before_forward(self):
        inp = Input((3,))
        layer = Dense(2, seed=0)
        layer(inp)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 2)))

    def test_unique_autonames(self):
        names = {Dense(2).name for _ in range(10)}
        assert len(names) == 10
