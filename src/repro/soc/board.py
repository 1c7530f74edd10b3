"""The assembled central node: Achilles Arria 10 SoC board.

``AchillesBoard`` wires the HPS application, bridges, on-chip buffers,
control IP and the neural IP core together and executes the paper's
step 0–9 pipeline per frame:

====  ==========================================================
step  action (Fig 2)
====  ==========================================================
0     frame assembled in SDRAM (hub Ethernet arrival — optional)
1     HPS writes the input buffer through the bridge
2     HPS pokes the trigger; control IP starts the U-Net IP
3–6   IP reads the buffer, computes, writes the output buffer
7     control IP raises the interrupt; HPS wakes
8     HPS reads the results back to SDRAM
9     decision leaves over Ethernet (handled by the controller)
====  ==========================================================

Both on-chip RAMs use their 32-bit HPS-side port (two 16-bit samples per
bus beat) and their 16-bit IP-side port, as in the paper's buffer design.

Two execution modes:

* :meth:`run` — full functional simulation (real quantized data flows
  through the buffers; outputs are bit-identical to the HLS C-sim),
* :meth:`sample_latency_distribution` — vectorised timing-only sampling
  for population statistics (Fig 5c needs 10,000 frames; the functional
  path would recompute the same deterministic pipeline every time).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.hls.model import HLSModel
from repro.soc.avalon import AvalonBridge, HPS2FPGA_BRIDGE, LIGHTWEIGHT_BRIDGE
from repro.soc.control import ControlIP, ControlState
from repro.soc.counters import PerformanceCounters
from repro.soc.event import Simulator
from repro.soc.faults import FrameFaults, FrameHangError, flip_bit
from repro.soc.hps import HPSConfig, OSJitter
from repro.soc.ip_core import NeuralIPCore
from repro.soc.ocram import DualPortRAM
from repro.soc.trace import SignalTrace
from repro.utils.rng import SeedLike, default_rng

__all__ = ["AchillesBoard", "FrameTiming", "SystemRunResult"]

#: The digitizer hands the HPS a new frame every 3 ms.
FRAME_PERIOD_S = 3e-3


@dataclass(frozen=True)
class FrameTiming:
    """Per-step breakdown of one frame (all seconds)."""

    preprocess: float
    write_input: float       # step 1
    trigger: float           # step 2
    ip_compute: float        # steps 3–6
    irq: float               # step 7
    read_output: float       # step 8
    postprocess: float
    jitter: float

    @property
    def total(self) -> float:
        """End-to-end step 1–8 latency (what the paper's Fig 5c plots)."""
        return (self.preprocess + self.write_input + self.trigger
                + self.ip_compute + self.irq + self.read_output
                + self.postprocess + self.jitter)


@dataclass
class SystemRunResult:
    """Outputs and timing of a multi-frame run."""

    outputs: np.ndarray
    timings: List[FrameTiming]
    mode: str

    @property
    def latencies_s(self) -> np.ndarray:
        """Per-frame step 1–8 latency."""
        return np.array([t.total for t in self.timings])

    @property
    def mean_latency_s(self) -> float:
        return float(self.latencies_s.mean())

    @property
    def throughput_fps(self) -> float:
        """Sustained frames per second in free-running mode."""
        return 1.0 / self.mean_latency_s

    def fraction_below(self, threshold_s: float) -> float:
        """Fraction of frames faster than *threshold_s* (Fig 5c metric)."""
        lat = self.latencies_s
        return float((lat < threshold_s).mean())


class AchillesBoard:
    """The central node with a neural IP programmed into the fabric."""

    def __init__(
        self,
        hls_model: HLSModel,
        hps: Optional[HPSConfig] = None,
        jitter: Optional[OSJitter] = None,
        data_bridge: AvalonBridge = HPS2FPGA_BRIDGE,
        csr_bridge: AvalonBridge = LIGHTWEIGHT_BRIDGE,
        trace: Optional[SignalTrace] = None,
        tracer=None,
    ):
        self.sim = Simulator()
        self.hps = hps or HPSConfig()
        self.jitter = jitter or OSJitter()
        self.data_bridge = data_bridge
        self.csr_bridge = csr_bridge
        self.trace = trace
        #: Optional :class:`~repro.obs.spans.Tracer`: when attached the
        #: board records one retroactive span per pipeline stage with
        #: exact simulated-clock timestamps.  ``None`` (default) is the
        #: zero-cost path; the tracer is a pure observer either way.
        self.tracer = tracer
        self.counters = PerformanceCounters()

        n_in = int(np.prod(hls_model.input_shape))
        n_out = int(np.prod(hls_model.output_shape))
        self.input_ram = DualPortRAM(max(n_in, 512), 16, "input_buffer")
        self.output_ram = DualPortRAM(max(n_out, 512), 16, "output_buffer")
        self.ip = NeuralIPCore(hls_model, self.input_ram, self.output_ram)
        self._irq_time: Optional[float] = None
        self._pending_faults: Optional[FrameFaults] = None
        self._pending_precomputed: Optional[np.ndarray] = None
        self.control = ControlIP(
            start_ip=self._start_ip,
            raise_irq=self._on_irq,
        )

    # ------------------------------------------------------------------
    # Fabric-side callbacks
    # ------------------------------------------------------------------
    def _start_ip(self) -> None:
        self._record("ip_busy", 1)
        faults = self._pending_faults
        extra = faults.ip_extra_s if faults is not None else 0.0
        pre = self._pending_precomputed
        # Plain call when nothing special is pending so test doubles that
        # stub `ip.run` with a zero-argument callable keep working.
        if pre is not None:
            busy = self.ip.run(extra_busy_s=extra, precomputed_raw=pre)
        elif extra:
            busy = self.ip.run(extra_busy_s=extra)
        else:
            busy = self.ip.run()
        self.sim.schedule(busy, self._ip_finished)

    def _ip_finished(self) -> None:
        self._record("ip_busy", 0)
        self.control.ip_done()

    def _on_irq(self) -> None:
        if self._pending_faults is not None and self._pending_faults.lost_irq:
            # The control IP asserted the line but the HPS never saw it
            # (injected LOST_IRQ fault): leave _irq_time unset so the
            # frame surfaces as a hang, not stale data.
            self._record("irq_lost", 1)
            return
        self._record("irq", 1)
        self._irq_time = self.sim.now

    def _record(self, signal: str, value) -> None:
        if self.trace is not None:
            self.trace.record(self.sim.now, signal, value)

    # ------------------------------------------------------------------
    @staticmethod
    def _bus_words(samples: int) -> int:
        """16-bit samples → 32-bit bus beats on the HPS-side port."""
        return math.ceil(samples / 2)

    def process_frame(self, frame: np.ndarray,
                      jitter_s: float = 0.0,
                      faults: Optional[FrameFaults] = None,
                      precomputed_raw: Optional[np.ndarray] = None
                      ) -> FrameTiming:
        """Run one frame through steps 1–8; returns its timing breakdown.

        The frame's model output is left in the output RAM; read it with
        :meth:`last_output`.  ``faults`` is the injection hook: the
        board-level faults (IP busy-time inflation, IRQ suppression, SEU
        bit flips in the on-chip RAMs) active during this frame.  A
        suppressed interrupt raises :class:`FrameHangError`; call
        :meth:`recover` before processing further frames.

        ``precomputed_raw`` hands the IP this frame's raw output words
        from a batched :meth:`NeuralIPCore.precompute_raw_outputs` call:
        the event-driven timing simulation runs unchanged (bridge
        transfers, trigger, IRQ, reads), only the in-line forward pass is
        skipped.  Never combine it with datapath faults — the runtime
        falls back to in-line compute whenever faults are injected.
        """
        sim = self.sim
        tr = self.tracer
        self._pending_faults = faults
        self._pending_precomputed = precomputed_raw
        t_pre = self.hps.preprocess_s
        t0 = sim.now
        sim.advance(t_pre)
        if tr is not None:
            tr.record("preprocess", sim_t0=t0, sim_t1=sim.now)

        # Step 1: write the quantized frame through the data bridge.
        self.counters.start("step1_write_input", sim.now)
        t0 = sim.now
        raw = self.ip.quantize_input(frame)
        self.input_ram.write(0, raw)
        t_write = self.data_bridge.write_time(self._bus_words(raw.size))
        sim.advance(t_write)
        self.counters.stop("step1_write_input", sim.now)
        if tr is not None:
            tr.record("write_input", sim_t0=t0, sim_t1=sim.now,
                      words=self._bus_words(raw.size))
        self._apply_seu("input")

        # Step 2: trigger through the CSR bridge.  The IP starts when the
        # write lands, i.e. after the bus access completes.
        t_trig = self.hps.csr_access_s + self.csr_bridge.write_time(1)
        t0 = sim.now
        sim.advance(t_trig)
        if tr is not None:
            tr.record("trigger", sim_t0=t0, sim_t1=sim.now)
        self._record("trigger", 1)
        self.control.csr_write(ControlIP.TRIGGER, 1)

        # Steps 3–6: the IP completion event is already scheduled; run
        # the event queue until the IRQ fires.
        self.counters.start("ip_compute", sim.now)
        self._irq_time = None
        sim.run()  # drains the queue; `now` lands on the IRQ event time
        if self._irq_time is None:
            self.counters.cancel("ip_compute")
            raise FrameHangError(
                "IP never raised its interrupt (frame hung)"
            )
        t_ip = self.counters.stop("ip_compute", sim.now)
        if tr is not None:
            tr.record("ip_compute", sim_t0=sim.now - t_ip, sim_t1=sim.now,
                      precomputed=precomputed_raw is not None)
        self._apply_seu("output")

        # Step 7: interrupt delivery + context switch.
        t_irq = self.hps.irq_latency_s
        t0 = sim.now
        sim.advance(t_irq)
        if tr is not None:
            tr.record("irq", sim_t0=t0, sim_t1=sim.now)

        # Step 8: read results back over the data bridge, acknowledge.
        self.counters.start("step8_read_output", sim.now)
        t0 = sim.now
        t_read = self.data_bridge.read_time(self._bus_words(self.ip.n_outputs))
        sim.advance(t_read)
        self.counters.stop("step8_read_output", sim.now)
        self.control.csr_write(ControlIP.IRQ_ACK, 1)
        t_ack = self.hps.csr_access_s + self.csr_bridge.write_time(1)
        sim.advance(t_ack)
        if tr is not None:
            tr.record("read_output", sim_t0=t0, sim_t1=sim.now)
        self._record("irq", 0)

        t_post = self.hps.postprocess_s
        t0 = sim.now
        sim.advance(t_post)
        if tr is not None:
            tr.record("postprocess", sim_t0=t0, sim_t1=sim.now)
        if jitter_s:
            t0 = sim.now
            sim.advance(jitter_s)
            if tr is not None:
                tr.record("jitter", sim_t0=t0, sim_t1=sim.now)
        elif tr is not None:
            # Zero-jitter frames still report the stage so per-frame
            # stage sums always cover the full FrameTiming breakdown.
            tr.record("jitter", sim_t0=sim.now, sim_t1=sim.now)
        self._pending_faults = None
        self._pending_precomputed = None

        return FrameTiming(
            preprocess=t_pre,
            write_input=t_write,
            trigger=t_trig,
            ip_compute=t_ip,
            irq=t_irq,
            read_output=t_read + t_ack,
            postprocess=t_post,
            jitter=jitter_s,
        )

    def _apply_seu(self, ram_name: str) -> None:
        """Flip the scheduled SEU bits in one of the on-chip RAMs.

        Input-buffer upsets land after the HPS write (the IP computes on
        corrupted words); output-buffer upsets land after the compute
        (the HPS reads corrupted results).
        """
        if self._pending_faults is None:
            return
        ram = self.input_ram if ram_name == "input" else self.output_ram
        span = self.ip.n_inputs if ram_name == "input" else self.ip.n_outputs
        for e in self._pending_faults.seu:
            if e.detail != ram_name:
                continue
            word_index = min(int(e.value * span), span - 1)
            word = ram.peek(word_index)
            ram.poke(word_index, flip_bit(word, e.target, ram.width_bits))
            self._record(f"seu_{ram_name}", word_index)

    def recover(self) -> None:
        """Watchdog recovery after a hung frame (:class:`FrameHangError`).

        Drains any in-flight fabric events, pulls the control IP's hard
        reset line, clears the interrupt bookkeeping and drops pending
        fault state, leaving the board ready for the next frame.
        """
        self.sim.run()
        if self.control.state is not ControlState.IDLE:
            self.control.reset()
        self._irq_time = None
        self._pending_faults = None
        self._pending_precomputed = None
        self.counters.cancel("ip_compute")

    def last_output(self) -> np.ndarray:
        """Dequantized model output of the most recent frame."""
        raw = self.output_ram.read(0, self.ip.n_outputs)
        return self.ip.dequantize_output(raw)

    # ------------------------------------------------------------------
    def run(self, frames: np.ndarray, seed: SeedLike = 0,
            paced: bool = False,
            period_s: float = FRAME_PERIOD_S) -> SystemRunResult:
        """Process a batch of frames functionally.

        ``paced=True`` aligns each frame's start to the 3 ms digitizer
        grid (deployment mode); otherwise frames run back-to-back
        (throughput-measurement mode, the paper's 575 fps figure).
        """
        frames = np.asarray(frames, dtype=np.float64)
        if frames.ndim != 2:
            raise ValueError(
                f"frames must be (n, n_inputs), got {frames.shape}")
        n = frames.shape[0]
        jitters = self.jitter.sample(n, rng=seed)
        outputs = np.empty((n, self.ip.n_outputs))
        timings: List[FrameTiming] = []
        # Pacing is anchored at this run's start so consecutive paced
        # runs on one board stay on a periodic grid.
        base = self.sim.now
        for i in range(n):
            if paced:
                tick = base + i * period_s
                if self.sim.now < tick:
                    self.sim.advance(tick - self.sim.now)
            timing = self.process_frame(frames[i], jitter_s=float(jitters[i]))
            outputs[i] = self.last_output()
            timings.append(timing)
        return SystemRunResult(outputs=outputs, timings=timings,
                               mode="paced" if paced else "free")

    # ------------------------------------------------------------------
    def deterministic_latency_s(self) -> float:
        """Step 1–8 latency with zero OS jitter (closed form)."""
        t = self.hps.preprocess_s
        t += self.data_bridge.write_time(self._bus_words(self.ip.n_inputs))
        t += self.hps.csr_access_s + self.csr_bridge.write_time(1)
        t += self.ip.compute_latency_s
        t += self.hps.irq_latency_s
        t += self.data_bridge.read_time(self._bus_words(self.ip.n_outputs))
        t += self.hps.csr_access_s + self.csr_bridge.write_time(1)
        t += self.hps.postprocess_s
        return t

    def pipelined_throughput_fps(self) -> float:
        """Throughput with ping-pong (double) buffering — a future-work
        extension: with two input/output buffer pairs, the HPS transfers
        of frame *i+1* overlap the IP's compute of frame *i*, so the
        sustained rate is bounded by the slower of the two stages rather
        than their sum.  Per-frame latency is unchanged; only throughput
        improves.  (The deployed design processes sequentially — its
        575 fps already satisfies the 320 fps requirement.)
        """
        transfers = (
            self.hps.preprocess_s
            + self.data_bridge.write_time(self._bus_words(self.ip.n_inputs))
            + self.hps.irq_latency_s
            + self.data_bridge.read_time(self._bus_words(self.ip.n_outputs))
            + 2 * (self.hps.csr_access_s + self.csr_bridge.write_time(1))
            + self.hps.postprocess_s
        )
        bottleneck = max(transfers, self.ip.compute_latency_s)
        return 1.0 / bottleneck

    def sample_latency_distribution(self, n_frames: int,
                                    seed: SeedLike = 0) -> np.ndarray:
        """Vectorised per-frame latencies (deterministic base + jitter).

        Statistically identical to running :meth:`run` over *n_frames*
        (the functional pipeline is deterministic), but fast enough for
        the 10,000-frame population behind Fig 5(c).
        """
        if n_frames <= 0:
            raise ValueError(f"n_frames must be positive, got {n_frames}")
        base = self.deterministic_latency_s()
        return base + self.jitter.sample(n_frames, rng=seed)
