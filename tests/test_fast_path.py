"""Bit-identity tests for the batched-inference fast path, the planned
executor and the vectorized fixed-point casts.

The fast paths are only allowed to exist because they are provably
bit-identical to the historical frame-at-a-time code; every test here
pins some piece of that proof:

* ``HLSModel.predict`` on a batch equals the stacked per-frame loop,
* the liveness-planned executor frees intermediates without changing
  results (and ``trace`` still retains everything),
* skipped requantization on grid-preserving kernels changes nothing,
* the runtime's ``batch_inference`` path replays the sequential records
  exactly — fault-free, with a fallback board, and with an injector
  (speculatively: tainted frames replay in-line, clean frames ride the
  precomputed words),
* the vectorized round/saturate pipeline matches a scalar pure-Python
  reference on every rounding × overflow mode,
* ``derive_stream_seeds`` decorrelates successive ``run()`` calls while
  keeping replays reproducible,
* ``SignalTrace`` keeps a pre-trigger window only when asked.
"""

import numpy as np
import pytest

from repro.beamloss.controller import TripController
from repro.beamloss.hubs import HubNetwork
from repro.fixed import FixedPointFormat, from_raw, quantize, quantize_, to_raw
from repro.fixed.format import Overflow, Rounding
from repro.hls import HLSConfig, convert
from repro.soc.board import AchillesBoard
from repro.soc.faults import (
    ACNETFault,
    FaultInjector,
    HubDelayFault,
    IPHangFault,
    LostIRQFault,
    NoisyMonitorFault,
    SEUFault,
)
from repro.soc.runtime import (
    CentralNodeRuntime,
    DegradationPolicy,
    derive_stream_seeds,
)
from repro.soc.trace import SignalTrace

N_MONITORS = 16
N_HUBS = 4


@pytest.fixture(scope="module")
def tiny_hls(tiny_model):
    return convert(tiny_model, HLSConfig())


@pytest.fixture(scope="module")
def frames():
    rng = np.random.default_rng(99)
    return rng.normal(0.0, 1.0, size=(64, N_MONITORS))


def make_runtime(hls_model, batch=True, specs=None, with_fallback=False):
    return CentralNodeRuntime(
        board=AchillesBoard(hls_model),
        fallback_board=AchillesBoard(hls_model) if with_fallback else None,
        hubs=HubNetwork(n_monitors=N_MONITORS, n_hubs=N_HUBS),
        controller=TripController(min_votes=1),
        injector=(FaultInjector(specs, seed=3)
                  if specs is not None else None),
        policy=DegradationPolicy(),
        batch_inference=batch,
    )


# ----------------------------------------------------------------------
# Model-level batching
# ----------------------------------------------------------------------
class TestBatchedPredict:
    def test_tiny_model_batch_equals_loop(self, tiny_hls, rng):
        x = rng.normal(0.0, 1.0, size=(24,) + tuple(tiny_hls.input_shape))
        batched = tiny_hls.predict(x)
        stacked = np.concatenate([tiny_hls.predict(x[i:i + 1])
                                  for i in range(len(x))])
        assert np.array_equal(batched, stacked)

    def test_unet_batch_equals_loop(self, reference_bundle,
                                    reference_hls_unet):
        ds = reference_bundle.dataset
        x = ds.unet_inputs(ds.x_eval[:16])
        batched = reference_hls_unet.predict(x)
        stacked = np.concatenate([reference_hls_unet.predict(x[i:i + 1])
                                  for i in range(len(x))])
        assert np.array_equal(batched, stacked)

    def test_split_invariance(self, tiny_hls, rng):
        """Any chunking of a batch gives the same bits (the property the
        cache-sized blocks in ``precompute_raw_outputs`` rely on)."""
        x = rng.normal(0.0, 1.0, size=(10,) + tuple(tiny_hls.input_shape))
        whole = tiny_hls.predict(x)
        parts = np.concatenate([tiny_hls.predict(x[:3]),
                                tiny_hls.predict(x[3:7]),
                                tiny_hls.predict(x[7:])])
        assert np.array_equal(whole, parts)


# ----------------------------------------------------------------------
# Planned executor
# ----------------------------------------------------------------------
class TestLivenessPlan:
    def test_unet_peak_live_pinned(self, reference_bundle,
                                   reference_hls_unet):
        ds = reference_bundle.dataset
        x = ds.unet_inputs(ds.x_eval[:4])
        reference_hls_unet.predict(x)
        stats = reference_hls_unet.last_run_stats
        assert not stats.retained_all
        assert stats.peak_live == reference_hls_unet.planned_peak_live()
        # The U-Net's widest cut: the deepest stack of open skip
        # connections. Keep-everything would hold every stream instead.
        assert stats.peak_live == 4
        assert stats.peak_live < len(reference_hls_unet.kernels)
        # Every stream except the model output is freed during the pass.
        assert stats.freed == len(reference_hls_unet.kernels) - 1

    def test_trace_retains_every_stream(self, tiny_hls, rng):
        x = rng.normal(0.0, 1.0, size=(3,) + tuple(tiny_hls.input_shape))
        streams = tiny_hls.trace(x)
        assert set(streams) == {k.name for k in tiny_hls.kernels}
        stats = tiny_hls.last_run_stats
        assert stats.retained_all
        assert stats.freed == 0
        assert stats.peak_live == len(tiny_hls.kernels)

    def test_predict_frees_intermediates(self, tiny_hls, rng):
        x = rng.normal(0.0, 1.0, size=(3,) + tuple(tiny_hls.input_shape))
        tiny_hls.predict(x)
        stats = tiny_hls.last_run_stats
        assert stats.peak_live == tiny_hls.planned_peak_live()
        assert stats.peak_live < len(tiny_hls.kernels)
        assert stats.freed > 0

    def test_trace_and_predict_agree(self, tiny_hls, rng):
        x = rng.normal(0.0, 1.0, size=(5,) + tuple(tiny_hls.input_shape))
        out = tiny_hls.predict(x)
        assert np.array_equal(out,
                              tiny_hls.trace(x)[tiny_hls.kernels[-1].name])


class TestRequantizationPlan:
    def test_skips_are_bit_exact(self, reference_bundle, reference_hls_unet):
        """Forcing every skipped cast back on must change nothing."""
        ds = reference_bundle.dataset
        x = ds.unet_inputs(ds.x_eval[:8])
        planned = reference_hls_unet.predict(x)
        skipped = [k for k in reference_hls_unet.kernels if not k.requantize]
        assert skipped, "plan found no redundant requantization on the U-Net"
        try:
            for k in skipped:
                k.requantize = True
            defensive = reference_hls_unet.predict(x)
        finally:
            for k in skipped:
                k.requantize = False
        assert np.array_equal(planned, defensive)


# ----------------------------------------------------------------------
# Runtime fast path
# ----------------------------------------------------------------------
class TestRuntimeFastPath:
    def test_fault_free_records_identical(self, tiny_hls, frames):
        fast = make_runtime(tiny_hls, batch=True)
        slow = make_runtime(tiny_hls, batch=False)
        rec_fast = fast.run(frames, seed=11)
        rec_slow = slow.run(frames, seed=11)
        assert rec_fast == rec_slow
        assert fast.counters.count("frame.batched") == len(frames)
        assert slow.counters.count("frame.batched") == 0

    def test_fault_free_with_fallback_board(self, tiny_hls, frames):
        fast = make_runtime(tiny_hls, batch=True, with_fallback=True)
        slow = make_runtime(tiny_hls, batch=False, with_fallback=True)
        assert fast.run(frames, seed=4) == slow.run(frames, seed=4)

    def test_successive_runs_identical(self, tiny_hls, frames):
        """The fast path composes across run() calls like the slow one."""
        fast = make_runtime(tiny_hls, batch=True)
        slow = make_runtime(tiny_hls, batch=False)
        for lo, hi in ((0, 20), (20, 50), (50, 64)):
            assert (fast.run(frames[lo:hi], seed=8)
                    == slow.run(frames[lo:hi], seed=8))

    def test_fault_free_run_has_no_spec_counters(self, tiny_hls, frames):
        """Without an injector the speculative ladder never engages —
        the plain batched path keeps its original counters only."""
        fast = make_runtime(tiny_hls, batch=True)
        fast.run(frames, seed=11)
        assert fast.counters.count("spec.speculated") == 0
        assert fast.counters.count("spec.replayed") == 0


# ----------------------------------------------------------------------
# Speculative fault-aware batching
# ----------------------------------------------------------------------
class TestSpeculativeLadder:
    def test_mixed_chaos_bit_identical_and_majority_batched(
            self, tiny_hls, frames):
        specs = [NoisyMonitorFault(rate=0.1, sigma=0.5),
                 HubDelayFault(rate=0.1, delay_s=1e-4),
                 ACNETFault(rate=0.1),
                 SEUFault(rate=0.05),
                 LostIRQFault(rate=0.05)]
        fast = make_runtime(tiny_hls, batch=True, specs=specs,
                            with_fallback=True)
        slow = make_runtime(tiny_hls, batch=False, specs=specs,
                            with_fallback=True)
        rec_fast = fast.run(frames, seed=11)
        rec_slow = slow.run(frames, seed=11)
        assert rec_fast == rec_slow
        assert any(r.fault_kinds for r in rec_fast)
        spec = fast.counters.count("spec.speculated")
        replayed = fast.counters.count("spec.replayed")
        assert spec == fast.counters.count("frame.batched")
        assert spec + replayed == len(frames)
        # The point of the ladder: most of the block rides the fast path.
        assert spec > len(frames) // 2

    def test_timing_and_publish_faults_ride_speculation(self, tiny_hls,
                                                        frames):
        """TIMING/POST taint never invalidates raw words: every frame of
        a block under pure hang/IRQ/publish chaos stays batched."""
        specs = [IPHangFault(rate=0.2, extra_s=5e-3),
                 LostIRQFault(rate=0.1),
                 ACNETFault(rate=0.2)]
        fast = make_runtime(tiny_hls, batch=True, specs=specs)
        slow = make_runtime(tiny_hls, batch=False, specs=specs)
        rec_fast = fast.run(frames, seed=11)
        rec_slow = slow.run(frames, seed=11)
        assert rec_fast == rec_slow
        assert any(r.fault_kinds for r in rec_fast)
        assert fast.counters.count("spec.speculated") == len(frames)
        assert fast.counters.count("spec.replayed") == 0

    def test_seu_taint_propagates_one_scrub_frame(self, tiny_hls, frames):
        """A RAM upset invalidates the hit frame and the next (the scrub
        pass); speculation re-engages right after."""
        hit = 10
        specs = [SEUFault(rate=1.0, start=hit, stop=hit + 1)]
        fast = make_runtime(tiny_hls, batch=True, specs=specs)
        slow = make_runtime(tiny_hls, batch=False, specs=specs)
        rec_fast = fast.run(frames, seed=11)
        assert rec_fast == slow.run(frames, seed=11)
        assert rec_fast[hit].fault_kinds == ("seu",)
        assert fast.counters.count("spec.replayed") == 2
        assert fast.counters.count("spec.speculated") == len(frames) - 2
        inval = fast.health_report().invalidation_counts
        assert inval == {"model_state": 2}

    def test_input_taint_replays_only_touched_frames(self, tiny_hls,
                                                     frames):
        hit = 7
        specs = [NoisyMonitorFault(rate=1.0, sigma=0.5,
                                   start=hit, stop=hit + 3)]
        fast = make_runtime(tiny_hls, batch=True, specs=specs)
        slow = make_runtime(tiny_hls, batch=False, specs=specs)
        assert fast.run(frames, seed=11) == slow.run(frames, seed=11)
        assert fast.counters.count("spec.replayed") == 3
        assert fast.counters.count("spec.speculated") == len(frames) - 3
        assert fast.health_report().invalidation_counts == {"input": 3}

    def test_health_report_surfaces_speculation_stats(self, tiny_hls,
                                                      frames):
        specs = [NoisyMonitorFault(rate=0.2, sigma=0.5)]
        fast = make_runtime(tiny_hls, batch=True, specs=specs)
        fast.run(frames, seed=11)
        report = fast.health_report()
        assert report.frames_speculated == fast.counters.count(
            "spec.speculated")
        assert report.frames_replayed == fast.counters.count("spec.replayed")
        assert report.frames_speculated + report.frames_replayed == len(frames)
        assert sum(report.invalidation_counts.values()) == \
            report.frames_replayed
        assert "speculation:" in report.render()

    def test_taint_carries_across_run_calls(self, tiny_hls, frames):
        """An SEU on the last frame of a block leaves the model tainted;
        the next run() call's first frame replays in-line as the scrub."""
        specs = [SEUFault(rate=1.0, start=19, stop=20)]
        fast = make_runtime(tiny_hls, batch=True, specs=specs)
        slow = make_runtime(tiny_hls, batch=False, specs=specs)
        for lo, hi in ((0, 20), (20, 40)):
            assert (fast.run(frames[lo:hi], seed=8)
                    == slow.run(frames[lo:hi], seed=8))
        # frame 19 (the hit) and frame 20 (the cross-block scrub) replay.
        assert fast.counters.count("spec.replayed") == 2
        assert fast.health_report().invalidation_counts == {"model_state": 2}

    def test_precomputed_words_match_inline_run(self, tiny_hls, frames):
        board = AchillesBoard(tiny_hls)
        ip = board.ip
        pre = ip.precompute_raw_outputs(frames[:8])
        for i in range(8):
            ip.input_ram.write(0, ip.quantize_input(frames[i]))
            ip.run()
            inline = ip.output_ram.read(0, ip.n_outputs)
            assert np.array_equal(pre[i], inline)


# ----------------------------------------------------------------------
# Seed derivation
# ----------------------------------------------------------------------
class TestSeedDerivation:
    def test_successive_runs_decorrelated(self, tiny_hls, frames):
        """Regression: back-to-back run() calls used to replay the very
        same hub/jitter streams for different frame ranges."""
        runtime = make_runtime(tiny_hls)
        first = runtime.run(frames[:20], seed=6)
        second = runtime.run(frames[:20], seed=6)  # same inputs, frames 20-39
        delays_a = [r.hub_delay_s for r in first]
        delays_b = [r.hub_delay_s for r in second]
        assert delays_a != delays_b

    def test_replay_is_reproducible(self, tiny_hls, frames):
        a = make_runtime(tiny_hls).run(frames, seed=6)
        b = make_runtime(tiny_hls).run(frames, seed=6)
        assert a == b

    def test_derivation_depends_on_start_and_seed(self):
        assert derive_stream_seeds(6, 0) == derive_stream_seeds(6, 0)
        assert derive_stream_seeds(6, 0) != derive_stream_seeds(6, 20)
        assert derive_stream_seeds(6, 0) != derive_stream_seeds(7, 0)

    @staticmethod
    def _reference_seeds(seed, start):
        """The derivation as first written: two ``integers(0, 2**62)``
        draws of a generator seeded by the spawned child sequence."""
        if isinstance(seed, np.random.Generator):
            rng = seed
        else:
            if isinstance(seed, np.random.SeedSequence):
                child = np.random.SeedSequence(
                    entropy=seed.entropy,
                    spawn_key=tuple(seed.spawn_key) + (start,))
            else:
                child = np.random.SeedSequence(entropy=seed,
                                               spawn_key=(start,))
            rng = np.random.default_rng(child)
        return int(rng.integers(0, 2**62)), int(rng.integers(0, 2**62))

    @pytest.mark.parametrize("start", [0, 1, 2, 17, 499, 10**6, 2**40])
    def test_derivation_pinned_to_reference(self, start):
        """Every seed kind derives the pair the reference formula does,
        so a faster derivation cannot move a record."""
        for seed in (0, 5, 6, 2**31 - 1, 2**63 + 12345):
            assert derive_stream_seeds(seed, start) == \
                self._reference_seeds(seed, start)
        for seq in (np.random.SeedSequence(9),
                    np.random.SeedSequence(9).spawn(3)[2],
                    np.random.SeedSequence([1, 2, 3], spawn_key=(4,))):
            assert derive_stream_seeds(seq, start) == \
                self._reference_seeds(seq, start)
        mine, ref = np.random.default_rng(start), np.random.default_rng(start)
        for _ in range(3):  # the caller's generator advances alike
            assert derive_stream_seeds(mine, start) == \
                self._reference_seeds(ref, start)

    def test_derivation_pinned_values(self):
        assert derive_stream_seeds(6, 0) == (3729470044915877167,
                                             920942939802445272)

    def test_generator_is_consumed_directly(self):
        g1 = np.random.default_rng(5)
        first = derive_stream_seeds(g1, 0)
        # caller-managed state: a second derivation advances the stream
        assert derive_stream_seeds(g1, 0) != first
        # the start index is ignored for generators
        assert derive_stream_seeds(np.random.default_rng(5), 123) == first


# ----------------------------------------------------------------------
# Vectorized fixed-point casts vs a scalar reference
# ----------------------------------------------------------------------
def scalar_quantize(value: float, fmt: FixedPointFormat) -> float:
    """Straight-line scalar reference of the round/saturate pipeline."""
    import math

    scaled = value / fmt.lsb
    if fmt.overflow is Overflow.WRAP:
        if abs(scaled) >= 2.0**62:
            scaled = math.fmod(scaled, float(2**fmt.width))
    else:
        scaled = min(max(scaled, -(2.0**62)), 2.0**62)
    if fmt.rounding is Rounding.TRN:
        r = math.floor(scaled)
    elif fmt.rounding is Rounding.RND:
        r = math.floor(scaled + 0.5)
    elif fmt.rounding is Rounding.RND_CONV:
        r = float(np.rint(scaled))
    else:  # RND_ZERO
        r = (math.ceil(scaled - 0.5) if scaled >= 0
             else math.floor(scaled + 0.5))
    raw = int(r)
    if fmt.overflow in (Overflow.SAT, Overflow.SAT_SYM):
        raw = min(max(raw, fmt.raw_min), fmt.raw_max)
    else:
        raw = (raw - fmt.raw_min) % (2**fmt.width) + fmt.raw_min
    return raw * fmt.lsb


def golden_formats():
    for width, integer in [(16, 7), (18, 10), (16, 2), (8, 9), (12, -2),
                           (54, 20), (1, 1)]:
        for signed in (True, False):
            for rounding in Rounding:
                for overflow in Overflow:
                    try:
                        yield FixedPointFormat(width=width, integer=integer,
                                               signed=signed,
                                               rounding=rounding,
                                               overflow=overflow)
                    except ValueError:
                        continue


class TestGoldenVectors:
    def test_quantize_matches_scalar_reference(self):
        for fmt in golden_formats():
            lsb = fmt.lsb
            vals = np.array([0.0, -0.0, 0.5 * lsb, -0.5 * lsb, 1.5 * lsb,
                             -1.5 * lsb, fmt.max_value, fmt.min_value,
                             fmt.max_value + lsb, fmt.min_value - lsb,
                             fmt.max_value * 3, fmt.min_value * 3,
                             0.1, -0.1, 123.456, -123.456, 1e30, -1e30])
            rng = np.random.default_rng(7)
            span = 2.0 * abs(fmt.max_value) + 1.0
            vals = np.concatenate([vals,
                                   rng.uniform(-span, span, 200)])
            with np.errstate(all="ignore"):
                got = quantize(vals, fmt)
                want = np.array([scalar_quantize(float(v), fmt)
                                 for v in vals])
            assert np.array_equal(got, want), fmt

    def test_quantize_inplace_variant(self):
        fmt = FixedPointFormat(width=16, integer=7)
        rng = np.random.default_rng(8)
        vals = rng.uniform(-300.0, 300.0, 500)
        expected = quantize(vals, fmt)
        buf = vals.copy()
        out = quantize_(buf, fmt)
        assert out is buf                       # mutated in place
        assert np.array_equal(out, expected)
        assert not np.array_equal(vals, buf)    # original untouched

    def test_quantize_never_mutates_caller(self):
        fmt = FixedPointFormat(width=16, integer=7)
        vals = np.array([0.1, 1.7, -2.3])
        kept = vals.copy()
        quantize(vals, fmt)
        assert np.array_equal(vals, kept)

    def test_quantize_inplace_rejects_non_float64(self):
        fmt = FixedPointFormat(width=16, integer=7)
        with pytest.raises(TypeError):
            quantize_(np.array([1, 2, 3]), fmt)
        with pytest.raises(TypeError):
            quantize_([1.0, 2.0], fmt)

    def test_to_raw_out_parameter(self):
        fmt = FixedPointFormat(width=16, integer=7)
        rng = np.random.default_rng(9)
        vals = rng.uniform(-300.0, 300.0, 64)
        expected = to_raw(vals, fmt)
        out = np.empty(64, dtype=np.int64)
        got = to_raw(vals, fmt, out=out)
        assert got is out
        assert np.array_equal(out, expected)
        assert np.array_equal(from_raw(out, fmt), quantize(vals, fmt))
        with pytest.raises(ValueError):
            to_raw(vals, fmt, out=np.empty(63, dtype=np.int64))

    def test_scalar_and_zero_d_inputs(self):
        fmt = FixedPointFormat(width=16, integer=7)
        assert quantize(1.23456, fmt) == scalar_quantize(1.23456, fmt)
        assert quantize(np.float64(-7.7), fmt) == scalar_quantize(-7.7, fmt)


# ----------------------------------------------------------------------
# SignalTrace pre-trigger window
# ----------------------------------------------------------------------
class TestPreTrigger:
    @staticmethod
    def _fire_on(signal_name):
        return lambda sig, val: sig == signal_name

    def test_default_discards_pre_trigger(self):
        trace = SignalTrace(trigger=self._fire_on("go"))
        trace.record(0.0, "warmup", 1)
        trace.record(1.0, "go", 1)
        trace.record(2.0, "after", 1)
        assert [s.signal for s in trace.samples()] == ["go", "after"]

    def test_window_keeps_last_samples(self):
        trace = SignalTrace(trigger=self._fire_on("go"), pre_trigger=2)
        for t in range(5):
            trace.record(float(t), f"pre{t}", t)
        trace.record(5.0, "go", 1)
        trace.record(6.0, "after", 1)
        assert ([s.signal for s in trace.samples()]
                == ["pre3", "pre4", "go", "after"])
        assert trace.assert_order("pre3", "pre4", "go", "after")

    def test_window_shorter_than_history(self):
        trace = SignalTrace(trigger=self._fire_on("go"), pre_trigger=8)
        trace.record(0.0, "only", 1)
        trace.record(1.0, "go", 1)
        assert [s.signal for s in trace.samples()] == ["only", "go"]

    def test_clear_rearms_and_clears_window(self):
        trace = SignalTrace(trigger=self._fire_on("go"), pre_trigger=2)
        trace.record(0.0, "stale", 1)
        trace.clear()
        trace.record(1.0, "fresh", 1)
        trace.record(2.0, "go", 1)
        assert [s.signal for s in trace.samples()] == ["fresh", "go"]

    def test_no_trigger_ignores_window(self):
        trace = SignalTrace(pre_trigger=4)
        trace.record(0.0, "a", 1)
        assert len(trace) == 1

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            SignalTrace(pre_trigger=-1)
