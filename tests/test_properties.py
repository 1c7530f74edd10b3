"""Cross-module property-based tests (hypothesis).

These fuzz the invariants that hold the reproduction together:

* any model built from the supported layer vocabulary converts and
  produces finite outputs of the right shape,
* at generous precision the converted model tracks the float model,
* compiled ``predict`` equals the naive executor bit for bit on seeded
  U-Net-like conv graphs (every conv lowering path, every rounding ×
  overflow mode),
* the event simulator never goes back in time,
* hub splitting is a partition for any (monitors, hubs) pair,
* the trip controller's decision is permutation-consistent.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fixed import FixedPointFormat, Overflow, Rounding
from repro.hls import HLSConfig, convert
from repro.hls.config import LayerConfig, WIDE_ACCUM
from repro.hls.latency import estimate_latency
from repro.hls.resources import estimate_resources
from repro.nn import (
    AveragePooling1D,
    Concatenate,
    Conv1D,
    Dense,
    Flatten,
    Input,
    MaxPooling1D,
    Model,
    ReLU,
    Sigmoid,
    Tanh,
    UpSampling1D,
)
from repro.soc.event import Simulator


def build_random_model(draw):
    """Strategy helper: a random, valid conv/dense stack."""
    length = draw(st.sampled_from([8, 12, 16, 20]))
    inp = Input((length, 1))
    x = inp
    n_blocks = draw(st.integers(1, 3))
    for i in range(n_blocks):
        filters = draw(st.integers(1, 6))
        kernel = draw(st.sampled_from([1, 3, 5]))
        x = Conv1D(filters, kernel, seed=draw(st.integers(0, 100)))(x)
        act = draw(st.sampled_from([ReLU, Tanh, Sigmoid]))
        x = act()(x)
        if draw(st.booleans()) and x.shape[0] >= 4:
            pool = draw(st.sampled_from([MaxPooling1D, AveragePooling1D]))
            x = pool(2)(x)
        elif draw(st.booleans()):
            x = UpSampling1D(2)(x)
    x = Dense(draw(st.integers(1, 4)), seed=draw(st.integers(0, 100)))(x)
    out = Flatten()(x)
    return Model(inp, out)


@st.composite
def models(draw):
    return build_random_model(draw)


class TestConverterFuzz:
    @settings(max_examples=25, deadline=None)
    @given(models(), st.integers(0, 2**31 - 1))
    def test_any_model_converts_and_runs(self, model, data_seed):
        hm = convert(model, HLSConfig())
        x = np.random.default_rng(data_seed).normal(size=(2,) + tuple(
            model.inputs[0].shape))
        out = hm.predict(x)
        assert out.shape == (2,) + tuple(model.outputs[0].shape)
        assert np.isfinite(out).all()

    @settings(max_examples=15, deadline=None)
    @given(models(), st.integers(0, 2**31 - 1))
    def test_high_precision_tracks_float(self, model, data_seed):
        wide = FixedPointFormat(40, 20, overflow=Overflow.SAT)
        config = HLSConfig(default=LayerConfig(
            weight=wide, result=wide, accum=WIDE_ACCUM, reuse_factor=8))
        hm = convert(model, config)
        x = np.random.default_rng(data_seed).normal(
            size=(3,) + tuple(model.inputs[0].shape))
        y_f = model.forward(x)
        y_q = hm.predict(x)
        # LUT activations bound the residual error.
        assert np.abs(y_f - y_q).max() < 0.05

    @settings(max_examples=15, deadline=None)
    @given(models())
    def test_estimators_always_positive(self, model):
        hm = convert(model, HLSConfig())
        lat = estimate_latency(hm)
        assert lat.total_cycles > 0
        res = estimate_resources(hm)
        assert res.block_memory_bits > 0
        assert res.registers >= 0

    @settings(max_examples=10, deadline=None)
    @given(models(), st.sampled_from([4, 16, 64]))
    def test_latency_monotone_in_reuse(self, model, reuse):
        lo = estimate_latency(convert(model, HLSConfig().with_reuse_factor(
            reuse))).total_cycles
        hi = estimate_latency(convert(model, HLSConfig().with_reuse_factor(
            reuse * 2))).total_cycles
        assert hi >= lo


#: Every rounding × overflow pair: the ones the compiled epilogues
#: special-case and the ones they must leave to the naive casts.
QUANT_MODES = [(r, o) for r in Rounding for o in Overflow]

#: Seeds of the generated conv graphs (a fixed slice, so tier-1 stays
#: deterministic).
CONV_GRAPH_SEEDS = list(range(64))

#: How a decoder level's up-sample meets its conv: through the skip
#: concat, straight in, or (refused, the up-sample is built) with a
#: second reader, with a cast no producer can take, or into a valid conv.
UP_FOLDS = ["concat", "concat", "direct", "second", "cast", "valid"]


def build_conv_graph(seed):
    """A seeded U-Net-like conv graph and its config, for the
    compiled-vs-naive differential test.

    1–3 levels of ``same`` convs with max-pooling by 2 or 3 (average
    pooling on some levels: a naive kernel whose output the next conv
    must copy into its own zero-edged buffer), then up-sampling by the
    same factor into every decoder conv, in one of the :data:`UP_FOLDS`
    ways (a skip concat folds in as split-K), plus a stem and a head conv
    that may be ``valid``; kernel sizes from {1, 2, 3, 5}.  Result
    formats cycle through every rounding × overflow mode, the stem's
    weights have zero integer bits, and some convs get a narrow
    truncating accumulator.
    """
    rng = np.random.default_rng(seed)
    ksize = lambda: int(rng.choice([1, 2, 3, 5]))
    chans = lambda: int(rng.integers(1, 6))
    padding = lambda: str(rng.choice(["same", "valid"]))
    levels = int(rng.integers(1, 4))
    factors = [int(rng.choice([2, 2, 3])) for _ in range(levels)]
    stem_k, stem_pad = ksize(), padding()
    length = int(np.prod(factors)) * int(rng.integers(2, 5))
    inp = Input((length + (stem_k - 1) * (stem_pad == "valid"), 1),
                name="in")
    x = Conv1D(chans(), stem_k, padding=stem_pad, seed=seed, name="stem")(inp)
    skips = []
    for i in range(levels):
        x = Conv1D(chans(), ksize(), seed=seed + i, name=f"e{i}_conv")(x)
        x = ReLU(name=f"e{i}_act")(x)
        skips.append(x)
        pool = MaxPooling1D if rng.random() < 0.7 else AveragePooling1D
        x = pool(factors[i], name=f"e{i}_pool")(x)
    x = Conv1D(chans(), ksize(), seed=seed + 5, name="mid_conv")(x)
    x = ReLU(name="mid_act")(x)
    sources = {}  # routing layer -> the layer whose grid it may keep
    recast = set()  # up-samples whose grid must differ from their source
    for i in reversed(range(levels)):
        fold = str(rng.choice(UP_FOLDS))
        sources[f"d{i}_up"] = x.layer.name
        sources[f"d{i}_cat"] = f"e{i}_act"
        up = UpSampling1D(factors[i], name=f"d{i}_up")(x)
        operands = [up, skips[i]]
        if fold == "direct":
            operands = [up]
        elif fold == "second":
            operands.append(Conv1D(chans(), 1, seed=seed + 17 + i,
                                   name=f"d{i}_side")(up))
        elif fold == "cast":
            # a second up-sample of the same stream: the first one's
            # producer has two readers, so its cast cannot move up
            recast.add(f"d{i}_up")
            sources[f"d{i}_up2"] = x.layer.name
            operands.append(UpSampling1D(factors[i], name=f"d{i}_up2")(x))
        if len(operands) > 1:
            up = Concatenate(name=f"d{i}_cat")(*operands)
        # a valid conv may shrink the stream only where nothing is
        # concatenated after it
        k, pad = ksize(), "same"
        if fold == "valid":
            k, pad = (int(rng.choice([2, 3])) if i == 0 else 1), "valid"
        x = Conv1D(chans(), k, padding=pad, seed=seed + 9 + i,
                   name=f"d{i}_conv")(up)
        x = ReLU(name=f"d{i}_act")(x)
    head_k, head_pad = ksize(), padding()
    if head_pad == "valid" and head_k > x.shape[0]:
        head_pad = "same"  # a valid conv needs k <= length
    x = Conv1D(2, head_k, padding=head_pad, seed=seed + 13, name="head")(x)
    x = Sigmoid(name="head_act")(x)
    model = Model(inp, Flatten(name="out")(x))

    config = HLSConfig()
    results = {}
    for j, layer in enumerate(model.layers):
        rounding, overflow = QUANT_MODES[(seed + j) % len(QUANT_MODES)]
        fmt = dict(rounding=rounding, overflow=overflow)
        width = int(rng.choice([10, 12, 16]))
        results[layer.name] = FixedPointFormat(
            width, int(rng.integers(0, 7)), **fmt)
        # Mostly keep routing layers on their source's grid, as the
        # layer-based strategy does: then no operand of a concat needs a
        # cast it cannot push up, and the concat folds into its conv.
        if layer.name in sources and rng.random() < 0.7:
            results[layer.name] = results[sources[layer.name]]
        if (layer.name in recast
                and results[layer.name] == results[sources[layer.name]]):
            results[layer.name] = FixedPointFormat(width + 2, 7, **fmt)
        kwargs = {"result": results[layer.name]}
        if isinstance(layer, Conv1D):
            integer = 0 if layer.name == "stem" else int(rng.integers(0, 3))
            kwargs["weight"] = FixedPointFormat(12, integer, **fmt)
            if rng.random() < 0.3:
                kwargs["accum"] = FixedPointFormat(24, 10, overflow=overflow)
        config.set_layer(layer.name, **kwargs)
    return model, config


class TestConvLoweringDifferential:
    """Compiled ``predict`` == the naive executor on generated graphs."""

    @pytest.fixture(scope="class")
    def graphs(self):
        return {seed: build_conv_graph(seed) for seed in CONV_GRAPH_SEEDS}

    @pytest.mark.parametrize("level", [2])
    @pytest.mark.parametrize("seed", CONV_GRAPH_SEEDS)
    def test_compiled_equals_naive(self, graphs, seed, level):
        model, config = graphs[seed]
        hm = convert(model, config)
        hm.compile(level=level)
        x = np.random.default_rng(seed).normal(
            0.0, 3.0, size=(33,) + tuple(model.inputs[0].shape))
        for n in (1, 2, 7, 33):
            assert np.array_equal(hm.predict(x[:n]),
                                  hm.predict(x[:n], executor="naive")), n

    def test_generator_covers_every_lowering_path(self, graphs):
        """The seed slice reaches split-K, the pad-copy fallback, valid
        convs, every kernel size, up-sample folds by 2 and 3 with and
        without a concat, every reason to refuse the fold, and every
        rounding × overflow mode."""
        seen = set()
        for model, config in graphs.values():
            hm = convert(model, config)
            report = hm.compile(level=2)
            seen.update(("refused", why) for why in report.fallbacks.values())
            for step in hm.compiled_plan.steps:
                conv = getattr(step, "conv", None)
                if not conv:
                    continue
                seen.add(("k", conv["k"]))
                seen.add(("valid", conv["pad"] == (0, 0) and conv["k"] > 1))
                seen.add(("split-K", len(step.inputs) > 1))
                seen.add(("pad copy", not all(step.reads_padded)))
                seen.add(("mode", step.mode))
                if conv["up"] is not None:
                    seen.add(("fold", conv["up"][1], len(step.inputs) > 1))
            for kernel in hm.kernels:
                fmt = kernel.config.result
                seen.add((fmt.rounding, fmt.overflow))
        for k in (1, 2, 3, 5):
            assert ("k", k) in seen
        for flag in ("valid", "split-K", "pad copy"):
            assert (flag, True) in seen, flag
        assert ("mode", "raw") in seen and ("mode", "naive") in seen
        for fold in [(2, True), (3, True), (2, False), (3, False)]:
            assert ("fold",) + fold in seen, fold
        for why in ("up-sample has a second reader",
                    "up-sample cast cannot be pushed up",
                    "up-sample feeds a valid conv"):
            assert ("refused", why) in seen, why
        for mode in QUANT_MODES:
            assert mode in seen


class TestSimulatorProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=30))
    def test_time_monotone(self, delays):
        sim = Simulator()
        seen = []
        for d in delays:
            sim.schedule(d, lambda: seen.append(sim.now))
        sim.run()
        assert seen == sorted(seen)
        assert sim.events_processed == len(delays)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=10),
           st.floats(0.0, 10.0))
    def test_run_until_boundary(self, delays, until):
        sim = Simulator()
        fired = []
        for d in delays:
            sim.schedule(d, lambda d=d: fired.append(d))
        sim.run(until=until)
        assert all(d <= until for d in fired)
        assert sim.now <= until or not delays


class TestHubProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 400), st.integers(1, 20))
    def test_spans_partition(self, n_monitors, n_hubs):
        from repro.beamloss.hubs import HubNetwork

        if n_hubs > n_monitors:
            return
        net = HubNetwork(n_monitors=n_monitors, n_hubs=n_hubs)
        spans = net.spans()
        covered = []
        for a, b in spans:
            covered.extend(range(a, b))
        assert covered == list(range(n_monitors))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 300), st.integers(1, 9),
           st.integers(0, 2**31 - 1))
    def test_split_assemble_identity(self, n_monitors, n_hubs, seed):
        from repro.beamloss.hubs import HubNetwork

        if n_hubs > n_monitors:
            return
        net = HubNetwork(n_monitors=n_monitors, n_hubs=n_hubs)
        frame = np.random.default_rng(seed).normal(size=n_monitors)
        packets = net.split_frame(frame)
        np.testing.assert_array_equal(net.assemble(packets), frame)


class TestControllerProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_machine_symmetry(self, seed):
        """Swapping the two machine channels must swap the decision."""
        from repro.beamloss.controller import TripController

        rng = np.random.default_rng(seed)
        probs = rng.uniform(size=(40, 2))
        a = TripController(machine_names=("MI", "RR"), min_votes=1)
        d1 = a.decide(probs.ravel())
        b = TripController(machine_names=("RR", "MI"), min_votes=1)
        d2 = b.decide(probs[:, ::-1].ravel())
        assert d1.machine == d2.machine

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.floats(0.3, 0.9))
    def test_score_nonnegative_and_bounded(self, seed, threshold):
        from repro.beamloss.controller import TripController

        rng = np.random.default_rng(seed)
        probs = rng.uniform(size=(40, 2))
        ctl = TripController(probability_threshold=threshold, min_votes=1)
        d = ctl.decide(probs.ravel())
        assert 0.0 <= d.score <= probs.size
