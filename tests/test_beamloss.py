"""Tests for the beam-loss substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.beamloss import (
    ACNETLog,
    BLMArray,
    BurstDynamics,
    HubNetwork,
    LossSite,
    Machine,
    TripController,
    TunnelGeometry,
    blend,
    default_mi,
    default_rr,
    make_dataset,
)
from repro.beamloss.controller import TripDecision
from repro.beamloss.dataset import Standardizer


class TestGeometry:
    geo = TunnelGeometry()

    def test_monitor_count(self):
        assert self.geo.monitor_positions.shape == (260,)

    def test_spacing(self):
        assert self.geo.monitor_spacing == pytest.approx(3319.0 / 260)

    def test_ring_distance_symmetric(self):
        assert self.geo.ring_distance(10.0, 3300.0) == pytest.approx(
            self.geo.ring_distance(3300.0, 10.0)
        )

    def test_ring_distance_wraps(self):
        # Going the short way around the ring.
        d = self.geo.ring_distance(0.0, 3319.0 - 5.0)
        assert d == pytest.approx(5.0)

    def test_index_distance_wraps(self):
        assert self.geo.monitor_index_distance(0, 259) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TunnelGeometry(n_monitors=0)
        with pytest.raises(ValueError):
            TunnelGeometry(circumference_m=-1)


class TestMachines:
    def test_footprint_shape(self):
        geo = TunnelGeometry()
        m = default_mi()
        fp = m.footprint(geo)
        assert fp.shape == (len(m.sites), 260)
        assert (fp >= 0).all()

    def test_footprint_peaks_at_centers(self):
        geo = TunnelGeometry()
        site = LossSite(center=100.0, width=3.0, strength=2.0)
        m = Machine("X", (site, site))
        fp = m.footprint(geo)
        assert np.argmax(fp[0]) == 100
        assert fp[0, 100] == pytest.approx(2.0)

    def test_footprint_periodic(self):
        geo = TunnelGeometry()
        site = LossSite(center=0.0, width=4.0)
        fp = Machine("X", (site, site)).footprint(geo)
        # Symmetric across the ring seam.
        assert fp[0, 1] == pytest.approx(fp[0, 259])

    def test_losses_shape_and_positivity(self):
        geo = TunnelGeometry()
        losses = default_rr().losses(geo, 50, seed=1)
        assert losses.shape == (50, 260)
        assert (losses >= 0).all()

    def test_losses_deterministic(self):
        geo = TunnelGeometry()
        a = default_mi().losses(geo, 20, seed=3)
        b = default_mi().losses(geo, 20, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_dynamics_burst_increases_mean(self):
        quiet = BurstDynamics(burst_rate=0.0)
        bursty = BurstDynamics(burst_rate=0.2, burst_scale=10.0)
        rng1, rng2 = np.random.default_rng(0), np.random.default_rng(0)
        q = quiet.sample(500, 4, rng1)
        b = bursty.sample(500, 4, rng2)
        assert b.mean() > q.mean() + 0.5

    def test_dynamics_nonnegative(self):
        d = BurstDynamics(ar_noise=0.5)
        out = d.sample(200, 3, np.random.default_rng(0))
        assert (out >= 0).all()

    def test_dynamics_validation(self):
        with pytest.raises(ValueError):
            BurstDynamics(ar_coeff=1.0)
        with pytest.raises(ValueError):
            BurstDynamics(burst_rate=1.5)
        with pytest.raises(ValueError):
            BurstDynamics(burst_decay=-0.1)

    def test_site_validation(self):
        with pytest.raises(ValueError):
            LossSite(center=0, width=0)

    def test_machine_needs_sites(self):
        with pytest.raises(ValueError):
            Machine("X", ())

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 100), st.integers(1, 8))
    def test_dynamics_shape_property(self, n_frames, n_sites):
        d = BurstDynamics()
        out = d.sample(n_frames, n_sites, np.random.default_rng(0))
        assert out.shape == (n_frames, n_sites)
        assert (out >= 0).all()


class TestBlending:
    def test_total_is_sum(self):
        geo = TunnelGeometry()
        fr = blend([default_mi(), default_rr()], geo, 30, seed=0)
        np.testing.assert_allclose(fr.total, fr.per_machine.sum(axis=0))

    def test_targets_in_unit_interval(self):
        geo = TunnelGeometry()
        fr = blend([default_mi(), default_rr()], geo, 30, seed=0)
        assert (fr.targets >= 0).all() and (fr.targets <= 1).all()

    def test_targets_sum_below_one(self):
        # Fractions gated by significance never exceed 1 in total.
        geo = TunnelGeometry()
        fr = blend([default_mi(), default_rr()], geo, 30, seed=0)
        assert (fr.targets.sum(axis=-1) <= 1.0 + 1e-9).all()

    def test_rr_dominates_mi_on_average(self):
        # The calibrated asymmetry behind the paper's 0.17 vs 0.42.
        geo = TunnelGeometry()
        fr = blend([default_mi(), default_rr()], geo, 300, seed=0)
        assert fr.targets[..., 1].mean() > 1.5 * fr.targets[..., 0].mean()

    def test_flat_layout_monitor_major(self):
        geo = TunnelGeometry()
        fr = blend([default_mi(), default_rr()], geo, 5, seed=0)
        flat = fr.flat_targets()
        assert flat.shape == (5, 520)
        np.testing.assert_array_equal(flat[:, 0], fr.targets[:, 0, 0])
        np.testing.assert_array_equal(flat[:, 1], fr.targets[:, 0, 1])

    def test_quiet_monitors_zero_targets(self):
        geo = TunnelGeometry()
        fr = blend([default_mi(), default_rr()], geo, 100, seed=0)
        quiet = fr.total < np.quantile(fr.total, 0.28)
        assert fr.targets[quiet].max() == 0.0

    def test_needs_two_machines(self):
        with pytest.raises(ValueError):
            blend([default_mi()], TunnelGeometry(), 10)


class TestBLM:
    def test_counts_in_paper_range(self):
        blm = BLMArray()
        counts = blm.digitize(np.zeros((100, 260)), seed=0)
        assert counts.min() >= 104_000
        assert counts.max() <= 120_000

    def test_counts_saturate(self):
        blm = BLMArray()
        counts = blm.digitize(np.full((2, 260), 1e9), seed=0)
        assert counts.max() == blm.adc_max

    def test_counts_integer_valued(self):
        blm = BLMArray()
        counts = blm.digitize(np.ones((5, 260)), seed=0)
        np.testing.assert_array_equal(counts, np.rint(counts))

    def test_gain_monotone(self):
        blm = BLMArray(noise_counts=0.0)
        low = blm.digitize(np.ones((1, 260)), seed=0)
        high = blm.digitize(np.full((1, 260), 2.0), seed=0)
        assert (high >= low).all()

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            BLMArray().digitize(np.zeros((10, 99)))

    def test_deterministic_pedestals(self):
        a, b = BLMArray(seed=3), BLMArray(seed=3)
        np.testing.assert_array_equal(a.pedestal, b.pedestal)


class TestHubs:
    net = HubNetwork()

    def test_spans_cover_monitors(self):
        spans = self.net.spans()
        assert len(spans) == 7
        assert spans[0][0] == 0
        assert spans[-1][1] == 260
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert a1 == b0  # contiguous

    def test_split_assemble_roundtrip(self):
        frame = np.arange(260.0)
        packets = self.net.split_frame(frame)
        np.testing.assert_array_equal(self.net.assemble(packets), frame)

    def test_split_checks_width(self):
        with pytest.raises(ValueError):
            self.net.split_frame(np.zeros(100))

    def test_arrival_times_positive(self):
        t = self.net.arrival_times(50, seed=0)
        assert t.shape == (50, 7)
        assert (t >= self.net.mean_latency_s).all()

    def test_frame_complete_is_max(self):
        t = self.net.arrival_times(10, seed=1)
        done = HubNetwork().frame_complete_times(10, seed=1)
        np.testing.assert_allclose(done, t.max(axis=1))

    def test_validation(self):
        with pytest.raises(ValueError):
            HubNetwork(n_hubs=0)
        with pytest.raises(ValueError):
            HubNetwork(n_hubs=300, n_monitors=260)
        # A NaN or infinite latency would mark every hub missing: every
        # frame stale, with no error raised.
        for name in ("mean_latency_s", "jitter_s"):
            for bad in (float("nan"), float("inf")):
                with pytest.raises(ValueError, match=name):
                    HubNetwork(**{name: bad})


class TestStandardizer:
    def test_transform_inverse_roundtrip(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(105_000, 120_000, size=(50, 10))
        s = Standardizer.fit(x)
        np.testing.assert_allclose(s.inverse_transform(s.transform(x)), x)

    def test_global_statistics(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(105_000, 120_000, size=(50, 10))
        s = Standardizer.fit(x)
        assert np.unique(s.mean).size == 1
        assert np.unique(s.std).size == 1

    def test_needs_two_frames(self):
        with pytest.raises(ValueError):
            Standardizer.fit(np.zeros((1, 5)))

    def test_rejects_constant_data(self):
        with pytest.raises(ValueError):
            Standardizer.fit(np.full((10, 5), 7.0))


class TestDataset:
    def test_split_sizes(self, small_dataset):
        ds = small_dataset
        assert ds.raw_train.shape == (120, 260)
        assert ds.raw_val.shape == (30, 260)
        assert ds.raw_eval.shape == (60, 260)
        assert ds.y_train.shape == (120, 520)

    def test_raw_magnitudes(self, small_dataset):
        assert small_dataset.raw_train.min() >= 100_000
        assert small_dataset.raw_train.max() <= 131_071

    def test_standardized_values_span_wrap_threshold(self, small_dataset):
        # The Table II precondition: plenty of inputs beyond ±64 but
        # none beyond ±512.
        x = small_dataset.x_train
        assert (np.abs(x) > 64).mean() > 0.05
        assert np.abs(x).max() < 512

    def test_unet_inputs_shape(self, small_dataset):
        ds = small_dataset
        assert ds.unet_inputs(ds.x_train).shape == (120, 260, 1)

    def test_deterministic(self):
        a = make_dataset(n_train=20, n_val=5, n_eval=5, seed=3)
        b = make_dataset(n_train=20, n_val=5, n_eval=5, seed=3)
        np.testing.assert_array_equal(a.raw_train, b.raw_train)
        np.testing.assert_array_equal(a.y_eval, b.y_eval)

    def test_splits_differ(self, small_dataset):
        ds = small_dataset
        assert not np.array_equal(ds.raw_train[:30], ds.raw_eval[:30])


class TestTripController:
    def _output(self, mi=0.0, rr=0.0, monitors=260):
        out = np.zeros((monitors, 2))
        out[:, 0] = mi
        out[:, 1] = rr
        return out.ravel()

    def test_trips_dominant_machine(self):
        ctl = TripController()
        d = ctl.decide(self._output(mi=0.9, rr=0.1))
        assert d.machine == "MI"

    def test_healthy_frame_no_trip(self):
        ctl = TripController()
        d = ctl.decide(self._output(mi=0.1, rr=0.2))
        assert d.machine is None

    def test_min_votes_suppresses_single_monitor(self):
        ctl = TripController(min_votes=3)
        out = np.zeros((260, 2))
        out[5, 1] = 0.99  # one noisy monitor
        d = ctl.decide(out.ravel())
        assert d.machine is None

    def test_deadline_tracking(self):
        ctl = TripController()
        ctl.decide(self._output(mi=0.9), latency_s=1.7e-3)
        ctl.decide(self._output(mi=0.9), latency_s=3.5e-3)
        assert ctl.deadline_miss_rate() == pytest.approx(0.5)

    def test_batch_and_counts(self):
        ctl = TripController()
        outs = np.stack([self._output(mi=0.9), self._output(rr=0.9),
                         self._output()])
        ctl.decide_batch(outs)
        counts = ctl.trip_counts()
        assert counts["MI"] == 1 and counts["RR"] == 1 and counts[None] == 1

    def test_accuracy_against_truth(self):
        ctl = TripController()
        ctl.decide(self._output(mi=0.9))
        ctl.decide(self._output(rr=0.9))
        assert ctl.accuracy_against(["MI", "MI"]) == pytest.approx(0.5)

    def test_output_width_checked(self):
        with pytest.raises(ValueError):
            TripController().decide(np.zeros(521))

    def test_validation(self):
        with pytest.raises(ValueError):
            TripController(probability_threshold=0.0)
        with pytest.raises(ValueError):
            TripController(min_votes=0)


class TestACNET:
    def _decision(self, machine="MI"):
        return TripDecision(frame_index=0, machine=machine, score=1.0,
                            latency_s=1e-3, deadline_met=True)

    def test_delivery_time(self):
        log = ACNETLog(transport_latency_s=100e-6)
        rec = log.publish(self._decision(), sent_at_s=1.0)
        assert rec.delivered_at_s == pytest.approx(1.0001)

    def test_order_enforced(self):
        log = ACNETLog()
        log.publish(self._decision(), sent_at_s=1.0)
        with pytest.raises(ValueError):
            log.publish(self._decision(), sent_at_s=0.5)

    def test_trips_filter(self):
        log = ACNETLog()
        log.publish(self._decision("MI"), 0.0)
        log.publish(self._decision(None), 1.0)
        assert len(log.trips()) == 1
        assert len(log) == 2
