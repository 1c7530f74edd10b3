"""The converted fixed-point model.

:class:`HLSModel` is the bit-accurate C-simulation twin of the generated
IP core: an ordered DAG of :class:`~repro.hls.kernels.base.HLSKernel`
objects.  ``predict`` runs a whole batch through the quantized datapath;
``trace`` additionally returns every intermediate stream (the hook used
by the verification flow and the outlier analysis of Fig 5b).

Execution is *liveness-planned*: at construction the model precomputes
each kernel's last consumer, and ``predict`` frees every intermediate
stream the moment its final reader has run.  Peak live memory is then
bounded by the widest cut through the DAG (for the U-Net: the deepest
stack of open skip connections) instead of the sum of all intermediate
streams.  ``trace`` keeps the historical keep-everything semantics.

The same planning pass removes redundant requantization: a routing
kernel (flatten, reshape, concat, ...) whose producers already emit the
kernel's own result grid performs no cast at all — quantization is
idempotent on in-range grid values, so skipping it is bit-exact.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.hls.config import HLSConfig
from repro.hls.kernels.base import HLSKernel

__all__ = ["HLSModel", "RunStats", "EXECUTORS"]

#: Valid ``HLSModel.predict(executor=...)`` spellings.
EXECUTORS = ("auto", "naive", "plan")

#: Grid widths up to this stay exactly representable through the int64 /
#: float64 round trip, making requantization provably idempotent; wider
#: formats keep the defensive cast.
_EXACT_GRID_WIDTH = 52


@dataclass(frozen=True)
class RunStats:
    """Executor telemetry of the most recent forward pass.

    ``peak_live`` counts the largest number of kernel output streams held
    simultaneously (the model input is not counted); ``freed`` counts the
    intermediates released before the pass returned.  ``compiled`` is
    True when the pass ran on a compiled plan (see
    :meth:`HLSModel.compile`); ``step_times`` holds per-step wall
    seconds when the pass ran with ``profile=True`` — one entry per
    kernel on the naive executor, one per (possibly fused) step on the
    compiled plan, matching the span names the observability layer
    emits.
    """

    peak_live: int
    freed: int
    retained_all: bool
    compiled: bool = False
    step_times: Optional[Dict[str, float]] = None


class HLSModel:
    """Ordered kernels + their wiring.

    Parameters
    ----------
    kernels:
        Kernels in topological order; the first must be the input kernel
        (``input_names == ["__input__"]``), the last produces the model
        output.
    config:
        The :class:`HLSConfig` the model was converted with (kept for
        reports).
    name:
        Model name, inherited from the source network.
    """

    def __init__(self, kernels: List[HLSKernel], config: HLSConfig,
                 name: str = "hls_model"):
        if not kernels:
            raise ValueError("need at least one kernel")
        if kernels[0].input_names != ["__input__"]:
            raise ValueError("first kernel must be the model input")
        names = [k.name for k in kernels]
        if len(set(names)) != len(names):
            raise ValueError("duplicate kernel names")
        known = set()
        for k in kernels:
            for dep in k.input_names:
                if dep != "__input__" and dep not in known:
                    raise ValueError(
                        f"kernel {k.name!r} depends on {dep!r} before it is defined"
                    )
            known.add(k.name)
        self.kernels = list(kernels)
        self.config = config
        self.name = name
        self._by_name = {k.name: k for k in kernels}
        #: stats of the most recent ``predict``/``trace`` call
        self.last_run_stats: Optional[RunStats] = None
        self._dies_after = self._plan_liveness()
        self._plan_requantization()
        #: compiled plan installed by :meth:`compile` (``None`` = naive)
        self._compiled = None
        self.compile_level = 0
        #: optional :class:`~repro.obs.spans.Tracer`; when attached (via
        #: ``ObsConfig(trace_kernels=True)``) every forward pass records
        #: one wall-clock span per kernel / compiled step.  ``None`` is
        #: the zero-cost default.
        self.tracer = None

    # ------------------------------------------------------------------
    # Execution planning
    # ------------------------------------------------------------------
    def _plan_liveness(self) -> List[List[str]]:
        """Per-kernel list of producer streams whose last consumer it is.

        ``_dies_after[i]`` names the intermediates that can be freed the
        moment ``kernels[i]`` has produced its output.  The final
        kernel's own stream is never listed (it is the model output).
        """
        last_consumer: Dict[str, int] = {}
        for idx, kernel in enumerate(self.kernels):
            for dep in kernel.input_names:
                last_consumer[dep] = idx
        dies_after: List[List[str]] = [[] for _ in self.kernels]
        for dep, idx in last_consumer.items():
            if dep != "__input__":
                dies_after[idx].append(dep)
        return dies_after

    def _plan_requantization(self) -> None:
        """Clear the result cast on grid-preserving kernels whose
        producers already emit this kernel's exact result format.

        Safe because quantization is idempotent: a value already on an
        in-range fixed-point grid maps to itself.  Restricted to widths
        whose raw values are exact in float64 (widths ≤ 52 bits); the
        16/18-bit formats the paper uses are far inside that.
        """
        for kernel in self.kernels:
            fmt = kernel.config.result
            if not kernel.grid_preserving or fmt.width > _EXACT_GRID_WIDTH:
                continue
            producers = kernel.input_names
            if "__input__" in producers:
                continue  # raw float input always needs the entry cast
            if all(self._by_name[dep].config.result == fmt
                   for dep in producers):
                kernel.requantize = False

    def planned_peak_live(self) -> int:
        """Peak simultaneously-live streams of the liveness plan.

        Static mirror of the count ``predict`` reports through
        :attr:`last_run_stats` — the regression tests pin both so the
        keep-everything executor cannot silently return.
        """
        live = 0
        peak = 0
        for idx in range(len(self.kernels)):
            live += 1
            peak = max(peak, live)
            live -= len(self._dies_after[idx])
        return peak

    # ------------------------------------------------------------------
    def get_kernel(self, name: str) -> HLSKernel:
        """Kernel lookup by layer name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no kernel named {name!r}") from None

    @property
    def input_shape(self):
        """Input shape excluding batch."""
        return self.kernels[0].input_shapes[0]

    @property
    def output_shape(self):
        """Output shape excluding batch."""
        return self.kernels[-1].output_shape

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def compile(self, level: int = 2):
        """Install the bit-exact compiled plan (see :mod:`repro.hls.compile`).

        * ``level=0`` — uninstall: back to the naive liveness executor.
        * ``level=2`` — activation LUTs, fused MAC+requantize pipelines,
          per-tap conv GEMMs, per-operand concat casts and the static
          arena planner.

        Returns the :class:`~repro.hls.compile.CompileReport`.  Every
        rewrite is proven bit-identical at compile time or refused, so
        ``predict`` outputs are unchanged at either level (``trace``
        always runs the naive graph — the verification flow needs every
        intermediate stream).
        """
        from repro.hls.compile import (CompileReport, check_compile_level,
                                       compile_model)
        check_compile_level(level)
        if level == 0:
            self._compiled = None
            self.compile_level = 0
            return CompileReport(level=0)
        plan = compile_model(self)
        self._compiled = plan
        self.compile_level = level
        return plan.report

    @property
    def compiled(self) -> bool:
        """True when a compiled plan is installed."""
        return self._compiled is not None

    @property
    def compiled_plan(self):
        """The installed :class:`~repro.hls.compile.CompiledPlan` (or None)."""
        return self._compiled

    # ------------------------------------------------------------------
    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[1:] != tuple(self.input_shape):
            raise ValueError(
                f"expected input shape (n, {self.input_shape}), got {x.shape}"
            )
        return x

    def _run(self, x: np.ndarray, retain_all: bool = False,
             profile: bool = False) -> Dict[str, np.ndarray]:
        x = self._check_input(x)
        values: Dict[str, np.ndarray] = {}
        peak = 0
        freed = 0
        tracer = self.tracer
        timed = profile or tracer is not None
        times: Optional[Dict[str, float]] = {} if profile else None
        for idx, kernel in enumerate(self.kernels):
            ins = [
                x if dep == "__input__" else values[dep]
                for dep in kernel.input_names
            ]
            if timed:
                t0 = _time.perf_counter()
            values[kernel.name] = kernel.forward(ins)
            if timed:
                t1 = _time.perf_counter()
                if profile:
                    times[kernel.name] = t1 - t0
                if tracer is not None:
                    tracer.record(f"kernel.{kernel.name}",
                                  wall_t0=t0, wall_t1=t1)
            if len(values) > peak:
                peak = len(values)
            if not retain_all:
                for dep in self._dies_after[idx]:
                    del values[dep]
                    freed += 1
        self.last_run_stats = RunStats(peak_live=peak, freed=freed,
                                       retained_all=retain_all,
                                       step_times=times)
        return values

    def predict(self, x: np.ndarray, *, profile: bool = False,
                executor: str = "auto") -> np.ndarray:
        """Quantized inference over a batch ``(n, *input_shape)``.

        ``executor`` selects the execution path:

        * ``"auto"`` (default) — the compiled plan when one is installed
          (see :meth:`compile`), the naive liveness executor otherwise;
        * ``"naive"`` — force the naive executor (the bit-identity tests
          compare the two);
        * ``"plan"`` — require the compiled plan (raises if none).

        ``profile=True`` records per-step wall time into
        ``last_run_stats.step_times``.

        Intermediate streams are freed as soon as their last consumer has
        run (naive path) or live in preassigned arena slots (compiled
        path), so peak memory is the plan's peak cut, not the whole DAG.
        """
        if executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}, got {executor!r}")
        plan = self._compiled
        if executor == "plan" and plan is None:
            raise ValueError("no compiled plan installed; call compile()")
        if plan is not None and executor != "naive":
            x = self._check_input(x)
            y, peak, freed, times = plan.run(x, profile=profile,
                                             tracer=self.tracer)
            self.last_run_stats = RunStats(peak_live=peak, freed=freed,
                                           retained_all=False, compiled=True,
                                           step_times=times)
            return y
        return self._run(x, profile=profile)[self.kernels[-1].name]

    def trace(self, x: np.ndarray) -> Dict[str, np.ndarray]:
        """Per-kernel output streams (keyed by layer name).

        Keeps every intermediate alive and always executes the naive
        graph — fused compiled steps do not materialise every stream;
        use :meth:`predict` for the fast path.
        """
        return self._run(x, retain_all=True)

    # ------------------------------------------------------------------
    def count_weights(self) -> int:
        """Total quantized parameter scalars."""
        return sum(k.weight_words for k in self.kernels)

    def total_multiplications(self) -> int:
        """Total MACs per inference across all kernels."""
        return sum(k.n_mult_total for k in self.kernels)

    def summary(self) -> str:
        """Per-kernel description dump."""
        lines = [f"HLSModel: {self.name} (strategy={self.config.strategy})"]
        lines.extend("  " + k.describe() for k in self.kernels)
        lines.append(
            f"  total weights={self.count_weights():,} "
            f"MACs/inference={self.total_multiplications():,}"
        )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<HLSModel {self.name!r}: {len(self.kernels)} kernels>"
