"""Tests for the SoC simulator components."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hls.config import HLSConfig
from repro.hls.converter import convert
from repro.soc import (
    AchillesBoard,
    AvalonBridge,
    ControlIP,
    DualPortRAM,
    HPSConfig,
    NeuralIPCore,
    OSJitter,
    PerformanceCounters,
    SignalTrace,
    Simulator,
)
from repro.soc.control import ControlState
from repro.soc.dma import DMAEngine


class TestSimulator:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(3.0, lambda: log.append("c"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(2.0, lambda: log.append("b"))
        sim.run()
        assert log == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_ties_fire_in_schedule_order(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append(1))
        sim.schedule(1.0, lambda: log.append(2))
        sim.run()
        assert log == [1, 2]

    def test_run_until(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append(1))
        sim.schedule(5.0, lambda: log.append(2))
        sim.run(until=2.0)
        assert log == [1]
        assert sim.now == 2.0
        assert sim.pending == 1

    def test_nested_scheduling(self):
        sim = Simulator()
        log = []

        def outer():
            log.append(("outer", sim.now))
            sim.schedule(0.5, lambda: log.append(("inner", sim.now)))

        sim.schedule(1.0, outer)
        sim.run()
        assert log == [("outer", 1.0), ("inner", 1.5)]

    def test_advance(self):
        sim = Simulator()
        sim.advance(2.5)
        assert sim.now == 2.5
        with pytest.raises(ValueError):
            sim.advance(-1.0)

    def test_past_scheduling_rejected(self):
        sim = Simulator()
        sim.advance(5.0)
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda: None)

    def test_runaway_guard(self):
        sim = Simulator()

        def loop():
            sim.schedule(0.1, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(RuntimeError):
            sim.run(max_events=100)


class TestAvalonBridge:
    def test_write_time_linear(self):
        b = AvalonBridge("b", write_ns=100.0, read_ns=120.0)
        assert b.write_time(10) == pytest.approx(1e-6)
        assert b.read_time(10) == pytest.approx(1.2e-6)

    def test_zero_words_free(self):
        b = AvalonBridge("b")
        assert b.write_time(0) == 0.0

    def test_burst_discount_structure(self):
        b = AvalonBridge("b", write_ns=100.0, burst_ns=10.0)
        # first word full cost, rest incremental
        assert b.write_time(2) == pytest.approx((200 + 10) * 1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            AvalonBridge("b", write_ns=0.0)
        with pytest.raises(ValueError):
            AvalonBridge("b").write_time(-1)


class TestDualPortRAM:
    def test_write_read_roundtrip(self):
        ram = DualPortRAM(16, 16)
        data = np.array([1, -2, 30000], dtype=np.int64)
        ram.write(3, data)
        np.testing.assert_array_equal(ram.read(3, 3), data)

    def test_width_enforced(self):
        ram = DualPortRAM(4, 16)
        with pytest.raises(OverflowError):
            ram.write(0, np.array([40000], dtype=np.int64))
        with pytest.raises(OverflowError):
            ram.write(0, np.array([-40000], dtype=np.int64))

    def test_bounds_enforced(self):
        ram = DualPortRAM(4, 16)
        with pytest.raises(IndexError):
            ram.write(3, np.zeros(2, dtype=np.int64))
        with pytest.raises(IndexError):
            ram.read(0, 5)

    def test_poke_peek(self):
        ram = DualPortRAM(4, 16)
        ram.poke(2, -5)
        assert ram.peek(2) == -5

    def test_access_counters(self):
        ram = DualPortRAM(8, 16)
        ram.write(0, np.zeros(4, dtype=np.int64))
        ram.read(0, 2)
        assert ram.write_count == 4
        assert ram.read_count == 2

    def test_clear(self):
        ram = DualPortRAM(4, 16)
        ram.poke(0, 7)
        ram.clear()
        assert ram.peek(0) == 0

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(-32768, 32767), min_size=1, max_size=16))
    def test_roundtrip_property(self, words):
        ram = DualPortRAM(16, 16)
        arr = np.array(words, dtype=np.int64)
        ram.write(0, arr)
        np.testing.assert_array_equal(ram.read(0, len(words)), arr)


class TestControlIP:
    def test_happy_path(self):
        started, irq = [], []
        ctl = ControlIP(start_ip=lambda: started.append(1),
                        raise_irq=lambda: irq.append(1))
        ctl.csr_write(ControlIP.TRIGGER, 1)
        assert ctl.state is ControlState.RUNNING
        ctl.ip_done()
        assert ctl.state is ControlState.DONE_IRQ
        ctl.csr_write(ControlIP.IRQ_ACK, 1)
        assert ctl.state is ControlState.IDLE
        assert started == [1] and irq == [1]
        assert ctl.trigger_count == 1 and ctl.irq_count == 1

    def test_status_register(self):
        ctl = ControlIP()
        assert ctl.csr_read(ControlIP.STATUS) == 0
        ctl.csr_write(ControlIP.TRIGGER, 1)
        assert ctl.csr_read(ControlIP.STATUS) == 1
        ctl.ip_done()
        assert ctl.csr_read(ControlIP.STATUS) == 2

    def test_double_trigger_rejected(self):
        ctl = ControlIP()
        ctl.csr_write(ControlIP.TRIGGER, 1)
        with pytest.raises(RuntimeError):
            ctl.csr_write(ControlIP.TRIGGER, 1)

    def test_spurious_done_rejected(self):
        with pytest.raises(RuntimeError):
            ControlIP().ip_done()

    def test_spurious_ack_rejected(self):
        with pytest.raises(RuntimeError):
            ControlIP().csr_write(ControlIP.IRQ_ACK, 1)

    def test_write_zero_noop(self):
        ctl = ControlIP()
        ctl.csr_write(ControlIP.TRIGGER, 0)
        assert ctl.state is ControlState.IDLE

    def test_bad_register(self):
        with pytest.raises(IndexError):
            ControlIP().csr_write(0x9, 1)
        with pytest.raises(IndexError):
            ControlIP().csr_read(0x0)


class TestOSJitter:
    def test_nonnegative(self):
        j = OSJitter()
        assert (j.sample(10_000, rng=0) >= 0).all()

    def test_spikes_present_at_high_rate(self):
        j = OSJitter(spike_rate=0.5, spike_min_s=1e-3, spike_max_s=2e-3)
        s = j.sample(1000, rng=0)
        assert (s > 1e-3).mean() > 0.3

    def test_no_spikes_at_zero_rate(self):
        j = OSJitter(spike_rate=0.0, scale_s=1e-6)
        assert j.sample(1000, rng=0).max() < 50e-6

    def test_deterministic(self):
        j = OSJitter()
        np.testing.assert_array_equal(j.sample(100, rng=5),
                                      j.sample(100, rng=5))

    def test_validation(self):
        with pytest.raises(ValueError):
            OSJitter(spike_rate=2.0)
        with pytest.raises(ValueError):
            OSJitter(spike_min_s=2.0, spike_max_s=1.0)
        # A non-finite timing constant gives NaN node latencies that a
        # deadline comparison silently turns into misses.
        nan, inf = float("nan"), float("inf")
        for kwargs, name in (({"scale_s": nan}, "scale_s"),
                             ({"scale_s": inf}, "scale_s"),
                             ({"spike_min_s": nan}, "spike_min_s"),
                             ({"spike_max_s": nan}, "spike_max_s"),
                             ({"spike_max_s": inf}, "spike_max_s"),
                             ({"spike_min_s": inf, "spike_max_s": inf},
                              "spike_min_s")):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                OSJitter(**kwargs)
        for name in ("preprocess_s", "postprocess_s", "irq_latency_s",
                     "csr_access_s"):
            for bad in (nan, inf):
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    HPSConfig(**{name: bad})


class TestCountersAndTrace:
    def test_counter_intervals(self):
        c = PerformanceCounters(clock_hz=100e6)
        c.start("x", 1.0)
        assert c.stop("x", 1.5) == pytest.approx(0.5)
        assert c.total_cycles("x") == 50_000_000
        assert c.names() == ["x"]

    def test_counter_keeps_a_count_and_a_total(self):
        """A board lives for millions of frames: each counter holds its
        interval count and running total, not one pair per interval."""
        c = PerformanceCounters(clock_hz=100e6)
        seconds = []
        for i, d in enumerate([0.25, 1e-7, 3.5e-6, 0.125] * 500):
            c.start("x", float(i))
            seconds.append(c.stop("x", i + d))
        assert c.interval_count("x") == len(seconds)
        # the total adds the intervals in the order they were recorded
        assert c.total_seconds("x") == sum(seconds)
        assert c.total_cycles("x") == round(sum(seconds) * 100e6)
        assert c.interval_count("never") == 0
        assert c.total_seconds("never") == 0.0
        assert not hasattr(c, "intervals") and not hasattr(c, "durations")

    def test_counter_misuse(self):
        c = PerformanceCounters()
        with pytest.raises(RuntimeError):
            c.stop("never", 1.0)
        c.start("x", 1.0)
        with pytest.raises(ValueError):
            c.stop("x", 0.5)

    def test_nested_start_pairs_lifo(self):
        c = PerformanceCounters()
        c.start("x", 1.0)
        c.start("x", 2.0)  # nested start is well-defined (LIFO pairing)
        assert c.open_count("x") == 2
        assert c.stop("x", 3.0) == pytest.approx(1.0)
        assert c.stop("x", 4.0) == pytest.approx(3.0)
        assert c.open_count("x") == 0
        with pytest.raises(RuntimeError):
            c.stop("x", 5.0)

    def test_cancel_pops_innermost_only(self):
        c = PerformanceCounters()
        c.start("x", 1.0)
        c.start("x", 2.0)
        c.cancel("x")  # discards the nested start, keeps the outer one
        assert c.stop("x", 3.0) == pytest.approx(2.0)
        c.cancel("x")  # not running: clean no-op
        assert c.open_count("x") == 0

    def test_trace_capture_and_order(self):
        tr = SignalTrace(depth=8)
        tr.record(1.0, "a", 1)
        tr.record(2.0, "b", 1)
        tr.record(3.0, "a", 0)
        assert tr.assert_order("a", "b")
        assert not tr.assert_order("b", "a")
        assert tr.last("a").value == 0
        assert len(tr.samples("a")) == 2

    def test_trace_ring_buffer(self):
        tr = SignalTrace(depth=3)
        for i in range(10):
            tr.record(float(i), "s", i)
        assert len(tr) == 3
        assert tr.samples()[0].value == 7

    def test_trace_trigger(self):
        tr = SignalTrace(depth=8,
                         trigger=lambda sig, val: sig == "go" and val == 1)
        tr.record(0.0, "noise", 1)
        assert len(tr) == 0
        tr.record(1.0, "go", 1)
        tr.record(2.0, "after", 1)
        assert [s.signal for s in tr.samples()] == ["go", "after"]


class TestDMA:
    def test_setup_dominates_small(self):
        dma = DMAEngine(setup_s=35e-6, bytes_per_s=1.2e9)
        t = dma.transfer_time(520)  # one 260-word frame
        assert t == pytest.approx(35e-6, rel=0.05)

    def test_bandwidth_dominates_large(self):
        dma = DMAEngine(setup_s=35e-6, bytes_per_s=1.2e9)
        t = dma.transfer_time(12_000_000)
        assert t == pytest.approx(0.01, rel=0.05)

    def test_round_trip(self):
        dma = DMAEngine()
        rt = dma.frame_round_trip(260, 520)
        assert rt > 2 * dma.setup_s * 0.99

    def test_validation(self):
        with pytest.raises(ValueError):
            DMAEngine(setup_s=-1)
        with pytest.raises(ValueError):
            DMAEngine().transfer_time(-1)


@pytest.fixture(scope="module")
def tiny_board(tiny_model):
    hm = convert(tiny_model, HLSConfig())
    return AchillesBoard(hm, trace=SignalTrace())


class TestBoard:
    def test_functional_output_matches_hls(self, tiny_model, tiny_board):
        from repro.fixed import quantize

        rng = np.random.default_rng(0)
        frames = rng.normal(size=(4, 16))
        result = tiny_board.run(frames)
        hls = tiny_board.ip.hls_model
        expected = hls.predict(frames[:, :, None]).reshape(4, -1)
        expected = quantize(expected, tiny_board.ip.output_format)
        np.testing.assert_array_equal(result.outputs, expected)

    def test_timing_breakdown_sums(self, tiny_board):
        timing = tiny_board.process_frame(np.zeros(16))
        parts = (timing.preprocess + timing.write_input + timing.trigger
                 + timing.ip_compute + timing.irq + timing.read_output
                 + timing.postprocess + timing.jitter)
        assert timing.total == pytest.approx(parts)

    def test_ip_compute_matches_latency_model(self, tiny_board):
        timing = tiny_board.process_frame(np.zeros(16))
        assert timing.ip_compute == pytest.approx(
            tiny_board.ip.compute_latency_s, rel=1e-6
        )

    def test_deterministic_latency_matches_run(self, tiny_model):
        hm = convert(tiny_model, HLSConfig())
        board = AchillesBoard(hm, jitter=OSJitter(scale_s=0.0,
                                                  spike_rate=0.0))
        res = board.run(np.zeros((3, 16)))
        det = board.deterministic_latency_s()
        np.testing.assert_allclose(res.latencies_s, det, rtol=1e-9)

    def test_distribution_matches_functional(self, tiny_model):
        hm = convert(tiny_model, HLSConfig())
        board = AchillesBoard(hm)
        run = board.run(np.zeros((20, 16)), seed=3)
        dist = AchillesBoard(hm).sample_latency_distribution(20, seed=3)
        np.testing.assert_allclose(run.latencies_s, dist, rtol=1e-9)

    def test_paced_mode_aligns_to_ticks(self, tiny_model):
        hm = convert(tiny_model, HLSConfig())
        board = AchillesBoard(hm)
        board.run(np.zeros((3, 16)), paced=True, period_s=3e-3)
        # After 3 paced frames the clock sits past the 2nd tick.
        assert board.sim.now >= 2 * 3e-3

    def test_signal_order(self, tiny_board):
        tiny_board.trace.clear()
        tiny_board.process_frame(np.zeros(16))
        assert tiny_board.trace.assert_order("trigger", "ip_busy", "irq")

    def test_counters_recorded(self, tiny_board):
        tiny_board.counters.reset()
        tiny_board.process_frame(np.zeros(16))
        assert set(tiny_board.counters.names()) == {
            "step1_write_input", "ip_compute", "step8_read_output"
        }

    def test_fsm_idle_after_frame(self, tiny_board):
        tiny_board.process_frame(np.zeros(16))
        assert tiny_board.control.state is ControlState.IDLE

    def test_fraction_below(self, tiny_board):
        res = tiny_board.run(np.zeros((5, 16)))
        assert res.fraction_below(1.0) == 1.0
        assert res.fraction_below(0.0) == 0.0

    def test_bad_frames_shape(self, tiny_board):
        with pytest.raises(ValueError):
            tiny_board.run(np.zeros((3, 16, 1)))


class TestNeuralIPCore:
    def test_ram_too_small_rejected(self, tiny_model):
        hm = convert(tiny_model, HLSConfig())
        small = DualPortRAM(4, 16)
        big = DualPortRAM(512, 16)
        with pytest.raises(ValueError):
            NeuralIPCore(hm, small, big)
        with pytest.raises(ValueError):
            NeuralIPCore(hm, big, small)

    def test_quantize_dequantize_roundtrip(self, tiny_board):
        frame = np.linspace(-3, 3, 16)
        raw = tiny_board.ip.quantize_input(frame)
        back = tiny_board.ip.dequantize_output(raw[: tiny_board.ip.n_outputs]) \
            if tiny_board.ip.n_outputs <= 16 else None
        # round-trip through the input format:
        from repro.fixed import from_raw

        recovered = from_raw(raw, tiny_board.ip.input_format)
        np.testing.assert_allclose(recovered, frame, atol=2e-2)

    def test_run_counts(self, tiny_board):
        before = tiny_board.ip.runs
        tiny_board.process_frame(np.zeros(16))
        assert tiny_board.ip.runs == before + 1


class TestPipelinedThroughput:
    def test_beats_sequential(self, tiny_model):
        hm = convert(tiny_model, HLSConfig())
        board = AchillesBoard(hm)
        seq = 1.0 / board.deterministic_latency_s()
        piped = board.pipelined_throughput_fps()
        assert piped >= seq

    def test_bounded_by_bottleneck(self, tiny_model):
        hm = convert(tiny_model, HLSConfig())
        board = AchillesBoard(hm)
        piped = board.pipelined_throughput_fps()
        # the pipeline can never beat its slowest stage
        assert piped <= (1.0 / board.ip.compute_latency_s) * (1 + 1e-9)
