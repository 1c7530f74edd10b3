"""Unit tests for the fault-injection subsystem (`repro.soc.faults`) and
the component-level injection hooks it drives."""

import numpy as np
import pytest

from repro.beamloss.acnet import ACNETLog, ACNETTransportError
from repro.beamloss.controller import TripController, TripDecision
from repro.beamloss.hubs import HubNetwork
from repro.hls import HLSConfig, convert
from repro.soc.board import AchillesBoard
from repro.soc.control import ControlIP, ControlState
from repro.soc.counters import PerformanceCounters
from repro.soc.faults import (
    ACNETFault,
    FaultInjector,
    FaultKind,
    FrameFaults,
    FrameHangError,
    HubDelayFault,
    HubDropFault,
    IPHangFault,
    LostIRQFault,
    NoisyMonitorFault,
    SEUFault,
    StuckMonitorFault,
    flip_bit,
)


def decision(machine=None, idx=0):
    return TripDecision(frame_index=idx, machine=machine, score=1.0,
                        latency_s=1e-3, deadline_met=True)


class TestSpecs:
    def test_rate_validated(self):
        with pytest.raises(ValueError):
            HubDropFault(rate=1.5)
        with pytest.raises(ValueError):
            HubDropFault(rate=-0.1)

    def test_window_validated(self):
        with pytest.raises(ValueError):
            IPHangFault(start=5, stop=5)
        with pytest.raises(ValueError):
            IPHangFault(start=-1)

    def test_kind_specific_validation(self):
        with pytest.raises(ValueError):
            HubDelayFault(delay_s=-1.0)
        with pytest.raises(ValueError):
            NoisyMonitorFault(sigma=-1.0)
        with pytest.raises(ValueError):
            SEUFault(ram="flash")
        with pytest.raises(ValueError):
            SEUFault(bit=16)
        with pytest.raises(ValueError):
            ACNETFault(failures=0)
        with pytest.raises(ValueError):
            IPHangFault(extra_s=-1e-3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("spec, field", [(IPHangFault, "extra_s"),
                                             (HubDelayFault, "delay_s")])
    def test_non_finite_timing_refused(self, spec, field, bad):
        with pytest.raises(ValueError, match=field):
            spec(**{field: bad})

    def test_window_active(self):
        spec = LostIRQFault(start=10, stop=20)
        assert not spec.active(9)
        assert spec.active(10)
        assert spec.active(19)
        assert not spec.active(20)

    def test_injector_rejects_non_specs(self):
        with pytest.raises(TypeError):
            FaultInjector([object()])


class TestInjectorDeterminism:
    SPECS = [
        HubDropFault(rate=0.3),
        HubDelayFault(rate=0.2, delay_s=1e-3),
        NoisyMonitorFault(monitor=3, sigma=2.0, rate=0.5),
        SEUFault(rate=0.4, ram="input"),
        IPHangFault(rate=0.1),
    ]

    def test_same_seed_bit_identical_schedules(self):
        a = FaultInjector(self.SPECS, seed=99).plan(0, 300)
        b = FaultInjector(self.SPECS, seed=99).plan(0, 300)
        assert a.signature() == b.signature()
        assert a.counts() == b.counts()

    def test_different_seed_differs(self):
        a = FaultInjector(self.SPECS, seed=1).plan(0, 300)
        b = FaultInjector(self.SPECS, seed=2).plan(0, 300)
        assert a.signature() != b.signature()

    def test_batch_boundaries_do_not_matter(self):
        """A frame's events depend only on (seed, specs, frame), never on
        how runs were batched."""
        inj = FaultInjector(self.SPECS, seed=7)
        whole = inj.plan(0, 100)
        split = inj.plan(40, 20)
        for f in range(40, 60):
            assert whole.for_frame(f) == split.for_frame(f)

    def test_rate_one_fires_every_frame(self):
        sched = FaultInjector([LostIRQFault(rate=1.0)], seed=0).plan(0, 25)
        assert all(sched.for_frame(f) for f in range(25))

    def test_rate_zero_never_fires(self):
        sched = FaultInjector([LostIRQFault(rate=0.0)], seed=0).plan(0, 25)
        assert len(sched) == 0

    def test_window_respected_in_schedule(self):
        sched = FaultInjector([IPHangFault(start=5, stop=8)], seed=0).plan(0, 20)
        frames = {e.frame_index for e in sched.events}
        assert frames == {5, 6, 7}


class TestFlipBit:
    def test_involution(self):
        for word in (-32768, -1, 0, 1, 12345, 32767):
            for bit in (0, 7, 15):
                assert flip_bit(flip_bit(word, bit), bit) == word

    def test_stays_in_range(self):
        for word in (-32768, -129, 0, 255, 32767):
            for bit in range(16):
                flipped = flip_bit(word, bit)
                assert -32768 <= flipped <= 32767

    def test_sign_bit(self):
        assert flip_bit(0, 15) == -32768

    def test_width_validated(self):
        with pytest.raises(ValueError):
            flip_bit(0, 0, width_bits=0)


class TestFrameFaults:
    def test_from_events_extracts_board_faults(self):
        inj = FaultInjector([IPHangFault(rate=1.0, extra_s=2e-3),
                             LostIRQFault(rate=1.0),
                             SEUFault(rate=1.0, ram="output"),
                             HubDropFault(rate=1.0)], seed=0)
        ff = FrameFaults.from_events(inj.events_for_frame(0))
        assert ff.ip_extra_s == pytest.approx(2e-3)
        assert ff.lost_irq
        assert len(ff.seu) == 1

    def test_from_events_none_when_board_clean(self):
        inj = FaultInjector([HubDropFault(rate=1.0)], seed=0)
        assert FrameFaults.from_events(inj.events_for_frame(0)) is None


class TestHubNetworkHook:
    def test_faulted_matches_clean_when_no_faults(self):
        hubs = HubNetwork()
        clean = hubs.arrival_times(10, seed=3)
        faulted = hubs.faulted_arrival_times(10, seed=3)
        np.testing.assert_array_equal(clean, faulted)

    def test_drop_becomes_inf(self):
        hubs = HubNetwork()
        mask = np.zeros((5, hubs.n_hubs), dtype=bool)
        mask[2, 4] = True
        times = hubs.faulted_arrival_times(5, seed=0, drop_mask=mask)
        assert np.isinf(times[2, 4])
        assert np.isfinite(times).sum() == times.size - 1

    def test_delay_added(self):
        hubs = HubNetwork()
        extra = np.zeros((4, hubs.n_hubs))
        extra[1, 0] = 5e-3
        base = hubs.arrival_times(4, seed=1)
        times = hubs.faulted_arrival_times(4, seed=1, extra_delay_s=extra)
        assert times[1, 0] == pytest.approx(base[1, 0] + 5e-3)

    def test_shapes_validated(self):
        hubs = HubNetwork()
        with pytest.raises(ValueError):
            hubs.faulted_arrival_times(3, extra_delay_s=np.zeros((3, 2)))
        with pytest.raises(ValueError):
            hubs.faulted_arrival_times(3, drop_mask=np.zeros((1, 1), bool))
        with pytest.raises(ValueError):
            hubs.faulted_arrival_times(
                3, extra_delay_s=np.full((3, hubs.n_hubs), -1e-3))


class TestBoardHooks:
    def _board(self, tiny_model):
        return AchillesBoard(convert(tiny_model, HLSConfig()))

    def test_ip_hang_inflates_busy_time(self, tiny_model):
        board = self._board(tiny_model)
        clean = board.process_frame(np.zeros(16))
        hung = board.process_frame(
            np.zeros(16), faults=FrameFaults(ip_extra_s=5e-3))
        assert hung.ip_compute == pytest.approx(clean.ip_compute + 5e-3)

    def test_lost_irq_raises_and_recovers(self, tiny_model):
        board = self._board(tiny_model)
        with pytest.raises(FrameHangError):
            board.process_frame(np.zeros(16), faults=FrameFaults(lost_irq=True))
        board.recover()
        assert board.control.state is ControlState.IDLE
        # the very next frame processes cleanly
        timing = board.process_frame(np.zeros(16))
        assert timing.total > 0

    def test_output_seu_corrupts_readback(self, tiny_model):
        board = self._board(tiny_model)
        board.process_frame(np.zeros(16))
        clean = board.last_output()
        inj = FaultInjector([SEUFault(rate=1.0, ram="output", bit=15)], seed=1)
        ff = FrameFaults.from_events(inj.events_for_frame(0))
        board.process_frame(np.zeros(16), faults=ff)
        corrupted = board.last_output()
        assert not np.array_equal(clean, corrupted)
        assert corrupted.min() < 0  # sign bit flipped on a sigmoid output

    def test_input_seu_stays_in_ram_range(self, tiny_model):
        """Input-buffer upsets must produce valid 16-bit words (the RAM
        model raises on out-of-range), just corrupted ones."""
        board = self._board(tiny_model)
        inj = FaultInjector([SEUFault(rate=1.0, ram="input")], seed=5)
        for f in range(4):
            ff = FrameFaults.from_events(inj.events_for_frame(f))
            board.process_frame(np.zeros(16), faults=ff)  # must not raise


class TestControlReset:
    def test_reset_from_any_state(self):
        ctl = ControlIP()
        ctl.csr_write(ControlIP.TRIGGER, 1)
        assert ctl.state is ControlState.RUNNING
        ctl.reset()
        assert ctl.state is ControlState.IDLE
        ctl.reset()  # idempotent
        assert ctl.state is ControlState.IDLE


class TestCounters:
    def test_event_counters(self):
        c = PerformanceCounters()
        assert c.count("x") == 0
        c.increment("x")
        c.increment("x", 2)
        assert c.count("x") == 3
        assert c.counts() == {"x": 3}
        c.reset()
        assert c.count("x") == 0

    def test_increment_validated(self):
        with pytest.raises(ValueError):
            PerformanceCounters().increment("x", -1)

    def test_cancel_open_interval(self):
        c = PerformanceCounters()
        c.start("step", 0.0)
        c.cancel("step")
        c.start("step", 1.0)  # would raise "already running" without cancel
        assert c.stop("step", 2.0) == pytest.approx(1.0)

    def test_cancel_missing_is_noop(self):
        PerformanceCounters().cancel("nothing")


class TestACNETPolicies:
    def test_strict_raises_out_of_order(self):
        log = ACNETLog()
        log.publish(decision(), sent_at_s=1.0)
        with pytest.raises(ValueError):
            log.publish(decision(), sent_at_s=0.5)

    def test_drop_policy_counts(self):
        log = ACNETLog(order_policy="drop")
        log.publish(decision(), sent_at_s=1.0)
        assert log.publish(decision(), sent_at_s=0.5) is None
        assert log.dropped_out_of_order == 1
        assert len(log) == 1
        # in-order publishing still works afterwards
        assert log.publish(decision(), sent_at_s=2.0) is not None

    def test_policy_validated(self):
        with pytest.raises(ValueError):
            ACNETLog(order_policy="chaos")

    def test_injected_failures_raise_then_clear(self):
        log = ACNETLog()
        log.inject_failures(2)
        for _ in range(2):
            with pytest.raises(ACNETTransportError):
                log.publish(decision(), sent_at_s=0.0)
        assert log.publish(decision(), sent_at_s=0.0) is not None

    def test_inject_failures_validated(self):
        with pytest.raises(ValueError):
            ACNETLog().inject_failures(-1)


class TestControllerSatellites:
    def _output(self, mi=0.0, rr=0.0, n=10):
        out = np.zeros((n, 2))
        out[:, 0] = mi
        out[:, 1] = rr
        return out.ravel()

    def test_decide_batch_threads_start_index(self):
        ctl = TripController(min_votes=1)
        ctl.decide(self._output(mi=0.9), frame_index=41)
        batch = ctl.decide_batch(
            np.stack([self._output(rr=0.9), self._output()]),
            start_index=42,
        )
        assert [d.frame_index for d in batch] == [42, 43]

    def test_decide_batch_default_unchanged(self):
        ctl = TripController(min_votes=1)
        batch = ctl.decide_batch(np.stack([self._output(), self._output()]))
        assert [d.frame_index for d in batch] == [0, 1]

    def test_abstain_records_no_trip(self):
        ctl = TripController()
        d = ctl.abstain(frame_index=5, latency_s=4e-3)
        assert d.machine is None
        assert d.frame_index == 5
        assert not d.deadline_met
        assert ctl.decisions == [d]
        assert ctl.trip_counts()[None] == 1


# ----------------------------------------------------------------------
# Fault-taint model (repro.soc.taint)
# ----------------------------------------------------------------------
class TestTaintModel:
    def test_every_fault_kind_is_classified(self):
        """Exhaustiveness pin: a new FaultKind must pick a taint class
        explicitly — it can never default to speculation-safe."""
        from repro.soc.taint import TAINT_OF, taint_of

        assert set(TAINT_OF) == set(FaultKind)
        for kind in FaultKind:
            assert taint_of(kind) is TAINT_OF[kind]

    def test_classification_matches_corruption_surface(self):
        from repro.soc.taint import TAINT_OF, TaintClass

        assert {k for k, t in TAINT_OF.items()
                if t is TaintClass.INPUT} == {
            FaultKind.HUB_DROP, FaultKind.HUB_DELAY,
            FaultKind.STUCK_MONITOR, FaultKind.NOISY_MONITOR}
        assert TAINT_OF[FaultKind.SEU] is TaintClass.MODEL_STATE
        assert {k for k, t in TAINT_OF.items()
                if t is TaintClass.TIMING} == {
            FaultKind.IP_HANG, FaultKind.LOST_IRQ}
        assert TAINT_OF[FaultKind.ACNET_FAIL] is TaintClass.POST

    def test_classify_events_folds_flags(self):
        from repro.soc.faults import FaultEvent
        from repro.soc.taint import classify_events

        clean = classify_events(())
        assert clean.clean and not clean.invalidates_raw
        mixed = classify_events((
            FaultEvent(0, FaultKind.LOST_IRQ),
            FaultEvent(0, FaultKind.SEU, detail="output"),
        ))
        assert mixed.timing and mixed.model_state
        assert not mixed.input and not mixed.post
        assert mixed.invalidates_raw
        timing_only = classify_events((FaultEvent(0, FaultKind.IP_HANG),))
        assert not timing_only.invalidates_raw

    def test_speculation_mask_rules(self):
        """INPUT and SEU frames are masked, SEU also masks its scrub
        frame; TIMING/POST frames stay valid; carried-in model taint
        masks frame 0."""
        from repro.soc.taint import speculation_mask

        specs = [StuckMonitorFault(monitor=1, rate=1.0, start=2, stop=3),
                 SEUFault(rate=1.0, start=5, stop=6),
                 IPHangFault(rate=1.0, start=8, stop=9),
                 ACNETFault(rate=1.0, start=9, stop=10)]
        sched = FaultInjector(specs, seed=0).plan(0, 12)
        mask = speculation_mask(sched, 0, 12)
        expect = np.ones(12, dtype=bool)
        expect[2] = False           # input taint
        expect[5] = False           # SEU hit
        expect[6] = False           # its scrub frame
        assert np.array_equal(mask, expect)

        carried = speculation_mask(sched, 0, 12, model_tainted=True)
        assert not carried[0]
        assert np.array_equal(carried[1:], expect[1:])

    def test_seu_on_last_frame_masks_nothing_beyond_block(self):
        from repro.soc.taint import speculation_mask

        sched = FaultInjector([SEUFault(rate=1.0, start=9, stop=10)],
                              seed=0).plan(0, 10)
        mask = speculation_mask(sched, 0, 10)
        assert not mask[9]
        assert mask[:9].all()


class TestScheduleIndex:
    """FaultSchedule.for_frame is O(1): a dense tuple index inside the
    window, dict fallback outside."""

    def test_dense_and_fallback_agree(self):
        specs = [IPHangFault(rate=0.3), SEUFault(rate=0.2)]
        inj = FaultInjector(specs, seed=12)
        sched = inj.plan(10, 50)
        for f in range(10, 60):
            assert sched.for_frame(f) == inj.events_for_frame(f)
        # Out-of-window queries stay well-defined (and empty).
        assert sched.for_frame(0) == ()
        assert sched.for_frame(9) == ()
        assert sched.for_frame(60) == ()
        assert sched.for_frame(-3) == ()

    def test_dense_index_covers_window(self):
        sched = FaultInjector([LostIRQFault(rate=1.0)], seed=0).plan(5, 4)
        assert len(sched._dense) == 4
        for i, fi in enumerate(range(5, 9)):
            assert sched._dense[i] == sched.for_frame(fi)
