"""Candidate scoring: estimator pre-filter + deterministic simulation.

Scoring is two-staged, mirroring rule4ml's pre-fit estimator loop:

1. **Pre-filter** (microseconds): convert the candidate's config and
   run the structural :func:`~repro.hls.resources.estimate_resources` /
   :func:`~repro.hls.latency.estimate_latency` models.  Candidates that
   do not fit the device or blow the latency budget are rejected here
   and never pay for simulation.
2. **Simulation** (sub-second): fixed-point accuracy against the float
   reference (or closed-loop :class:`~repro.plants.ControlQuality`),
   plus simulated per-frame node latencies from the hardened runtime.

Every number is a pure function of (candidate, problem seed):

* accuracy — bit-exact fixed-point arithmetic;
* node latency — the board's *simulated* latency model (seeded jitter);
* resources — the structural estimator's utilisation fractions.

The wall clock never enters a score, so a seeded rerun reproduces the
Pareto front byte for byte.  Host serving throughput is not scored: no
hardware model predicts it, so serving knobs are chosen by measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.codesign import DesignConstraints
from repro.dse.space import Candidate, build_config
from repro.hls.latency import estimate_latency
from repro.hls.model import HLSModel
from repro.hls.converter import convert
from repro.hls.profiling import profile_model
from repro.hls.resources import estimate_resources
from repro.plants import BeamLossPlant, Plant
from repro.verify.comparators import close_enough_accuracy

__all__ = ["CandidateScore", "DSEProblem", "score_candidate",
           "unet_problem", "open_loop_problem", "plant_problem"]


def _nearest_rank(values: np.ndarray, q: float) -> float:
    """Deterministic nearest-rank percentile (no interpolation)."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    if len(v) == 0:
        return math.nan
    rank = min(len(v) - 1, max(0, math.ceil(q * len(v)) - 1))
    return float(v[rank])


@dataclass
class CandidateScore:
    """Everything one candidate scored (estimators + simulation)."""

    candidate: Candidate
    fits: bool
    est_latency_ok: bool
    simulated: bool
    reject_reason: Optional[str] = None
    accuracy: float = 0.0
    accuracy_by_machine: Dict[str, float] = field(default_factory=dict)
    node_p99_ms: float = math.nan
    est_ip_latency_ms: float = math.nan
    alut_fraction: float = math.nan
    register_fraction: float = math.nan
    dsp_fraction: float = math.nan
    m20k_fraction: float = math.nan
    memory_bits_fraction: float = math.nan
    control: Dict[str, float] = field(default_factory=dict)

    @property
    def resource_pressure(self) -> float:
        """Worst utilisation fraction (the binding resource)."""
        return max(self.alut_fraction, self.register_fraction,
                   self.dsp_fraction, self.m20k_fraction,
                   self.memory_bits_fraction)

    @property
    def feasible(self) -> bool:
        return (self.simulated and self.fits and self.est_latency_ok
                and self.reject_reason is None)

    def objectives(self) -> Tuple[float, int, float, float]:
        """Maximise: accuracy, −perturbation, −node p99, −resource
        pressure.

        Margin bits and ±1 deltas move integer bits at a fixed width, so
        they rarely move latency or resources; ranked before p99, a
        perturbation is adopted only when it buys accuracy.
        """
        return (round(self.accuracy, 9), -self.candidate.perturbation,
                round(-self.node_p99_ms, 6),
                round(-self.resource_pressure, 6))

    def to_dict(self) -> Dict[str, object]:
        def r(x: float) -> float:
            return round(float(x), 6) if not math.isnan(x) else float("nan")

        return {
            "candidate": self.candidate.to_dict(),
            "fits": self.fits,
            "feasible": self.feasible,
            "simulated": self.simulated,
            "reject_reason": self.reject_reason,
            "accuracy": r(self.accuracy),
            "accuracy_by_machine": {k: r(v) for k, v in
                                    sorted(self.accuracy_by_machine.items())},
            "node_p99_ms": r(self.node_p99_ms),
            "est_ip_latency_ms": r(self.est_ip_latency_ms),
            "alut_fraction": r(self.alut_fraction),
            "register_fraction": r(self.register_fraction),
            "dsp_fraction": r(self.dsp_fraction),
            "m20k_fraction": r(self.m20k_fraction),
            "memory_bits_fraction": r(self.memory_bits_fraction),
            "control": {k: r(v) for k, v in sorted(self.control.items())},
        }


@dataclass
class DSEProblem:
    """One scoring problem: a model + plant + deterministic workload.

    ``converted_lookup`` lets a problem reuse externally-cached
    converted models (the experiment harnesses plug
    :func:`repro.experiments.common.converted_at` in here) for
    candidates at the paper's reference precision points; any other
    candidate converts fresh.
    """

    name: str
    model: object
    plant: Plant
    profiles: Dict[str, object]
    constraints: DesignConstraints
    seed: int = 0
    eval_frames: int = 64
    #: Open-loop: raw 2-D monitor frames for the runtime + model-shaped
    #: eval inputs and the float reference outputs.  Closed-loop: None.
    frames: Optional[np.ndarray] = None
    x_eval: Optional[np.ndarray] = None
    y_float: Optional[np.ndarray] = None
    converted_lookup: Optional[Callable[[Candidate], Optional[HLSModel]]] = None

    @property
    def closed_loop(self) -> bool:
        return self.plant.closed_loop


def _converted_for(problem: DSEProblem, candidate: Candidate) -> HLSModel:
    """A converted (not yet compiled) model for *candidate*."""
    if problem.converted_lookup is not None:
        cached = problem.converted_lookup(candidate)
        if cached is not None:
            return cached
    config = build_config(candidate, problem.model, problem.profiles)
    return convert(problem.model, config)


def score_candidate(problem: DSEProblem, candidate: Candidate,
                    eval_frames: Optional[int] = None) -> CandidateScore:
    """Score one candidate (pre-filter, then simulate if plausible).

    ``eval_frames`` caps the simulated frames (default: the problem's);
    0 stops after the estimators, a screening pass.
    """
    from repro.core.api import RuntimeConfig, build_runtime, run_control_loop

    if eval_frames is not None and eval_frames < 0:
        raise ValueError(f"eval_frames must be >= 0, got {eval_frames}")
    hls = _converted_for(problem, candidate)
    resources = estimate_resources(hls, problem.constraints.device)
    latency = estimate_latency(hls)
    est_total = latency.latency_s + problem.constraints.system_overhead_s
    est_latency_ok = est_total <= problem.constraints.latency_budget_s
    score = CandidateScore(
        candidate=candidate,
        fits=resources.fits,
        est_latency_ok=est_latency_ok,
        simulated=False,
        est_ip_latency_ms=latency.latency_s * 1e3,
        alut_fraction=resources.alut_fraction,
        register_fraction=resources.register_fraction,
        dsp_fraction=resources.dsp_fraction,
        m20k_fraction=resources.m20k_fraction,
        memory_bits_fraction=resources.memory_bits_fraction,
    )
    if not resources.fits:
        score.reject_reason = "estimator: does not fit device"
        return score
    if not est_latency_ok:
        score.reject_reason = "estimator: over latency budget"
        return score
    if eval_frames == 0:
        # Estimator-only screening pass: fit-plausible, not simulated.
        return score

    # ------------------------------------------------------------ simulate
    n_eval = min(eval_frames if eval_frames is not None
                 else problem.eval_frames, problem.eval_frames)
    if not hls.compiled:  # cached reference models already are
        hls.compile()
    config = RuntimeConfig(batch_inference=True)
    if problem.closed_loop:
        runtime = build_runtime(hls, config=config, plant=problem.plant)
        result = run_control_loop(runtime, n_frames=n_eval,
                                  seed=problem.seed)
        records, quality = result.records, result.control
        score.control = {
            "stabilization_time_s": quality.stabilization_time_s,
            "stabilized": float(quality.stabilized),
            "trip_precision": quality.trip_precision,
            "trip_recall": quality.trip_recall,
            "rms_state_error": quality.rms_state_error,
        }
        pr = [v for v in (quality.trip_precision, quality.trip_recall)
              if not math.isnan(v)]
        accuracy = min(pr) if pr else 1.0
        if not quality.stabilized:
            accuracy = 0.0
        score.accuracy = accuracy
        score.accuracy_by_machine = {problem.plant.name: accuracy}
    else:
        y_fixed = hls.predict(problem.x_eval[:n_eval])
        by_machine = close_enough_accuracy(
            problem.y_float[:n_eval], y_fixed,
            machine_names=problem.plant.machine_names)
        score.accuracy_by_machine = dict(by_machine)
        score.accuracy = min(by_machine.values())
        runtime = build_runtime(hls, config=config, plant=problem.plant)
        records = runtime.run(problem.frames[:n_eval], seed=problem.seed)

    node_lats = np.array([r.node_latency_s for r in records])
    score.node_p99_ms = _nearest_rank(node_lats, 0.99) * 1e3
    score.simulated = True

    if score.accuracy < problem.constraints.accuracy_floor:
        score.reject_reason = "simulated: under accuracy floor"
    elif (score.node_p99_ms * 1e-3 + problem.constraints.system_overhead_s
          > problem.constraints.latency_budget_s):
        score.reject_reason = "simulated: node p99 over budget"
    return score


# ----------------------------------------------------------------------
# Problem constructors
# ----------------------------------------------------------------------
def _require_frames(**counts: int) -> None:
    """Refuse a frame count below 1, naming its keyword."""
    for name, n in counts.items():
        if n < 1:
            raise ValueError(f"{name} must be >= 1, got {n}")


def open_loop_problem(model, x_profile: np.ndarray, *,
                      plant: Optional[Plant] = None,
                      constraints: Optional[DesignConstraints] = None,
                      eval_frames: int = 64, seed: int = 0,
                      profiles: Optional[dict] = None,
                      name: str = "open-loop") -> DSEProblem:
    """A generic open-loop problem from a float model + profile set.

    *x_profile* is model-shaped; the runtime sees the same frames
    flattened to raw monitor rows (hub ingestion is 2-D).
    """
    _require_frames(eval_frames=eval_frames)
    plant = plant or BeamLossPlant()
    x_profile = np.asarray(x_profile, dtype=np.float64)
    if profiles is None:
        profiles = profile_model(model, x_profile)
    n = min(eval_frames, x_profile.shape[0])
    x_eval = x_profile[:n]
    return DSEProblem(
        name=name, model=model, plant=plant, profiles=profiles,
        constraints=constraints or DesignConstraints(), seed=seed,
        eval_frames=n, frames=x_eval.reshape(n, -1), x_eval=x_eval,
        y_float=model.forward(x_eval),
    )


def unet_problem(*, fast: bool = False,
                 constraints: Optional[DesignConstraints] = None,
                 seed: int = 0,
                 eval_frames: Optional[int] = None) -> DSEProblem:
    """The paper's U-Net de-blending problem, wired to the experiment
    harnesses' shared bundle and converted-model cache."""
    from repro.dse.space import REFERENCE_STRATEGIES
    from repro.experiments import common

    n = eval_frames if eval_frames is not None else (48 if fast else 200)
    _require_frames(eval_frames=n)
    b = common.bundle()
    profiles = common.unet_profiles()
    frames = np.asarray(b.dataset.x_eval[:n], dtype=np.float64)
    x_eval = b.dataset.unet_inputs(frames)
    titles = dict(zip(REFERENCE_STRATEGIES,
                      ["Uniform Precision ac_fixed<18, 10>",
                       "Uniform Precision ac_fixed<16, 7>",
                       "Layer-based Precision ac_fixed<16, x>"]))

    def lookup(candidate: Candidate) -> Optional[HLSModel]:
        # Reference precision points ride the shared (strategy, level)
        # cache at the compiled level.
        if not candidate.is_reference_precision:
            return None
        title = titles.get(candidate.strategy)
        if title is None:
            return None
        return common.converted_at(title, 2)

    return DSEProblem(
        name="unet-beamloss", model=b.unet, plant=BeamLossPlant(),
        profiles=profiles, constraints=constraints or DesignConstraints(),
        seed=seed, eval_frames=len(frames), frames=frames, x_eval=x_eval,
        y_float=b.unet.forward(x_eval), converted_lookup=lookup,
    )


def plant_problem(plant: Plant, *,
                  constraints: Optional[DesignConstraints] = None,
                  eval_frames: int = 96, profile_frames: int = 128,
                  seed: int = 0, name: Optional[str] = None) -> DSEProblem:
    """A closed-loop problem for *plant* (e.g. the cartpole scenario).

    Layer profiles come from driving the plant's float controller
    through a seeded episode (``session.step_output`` feedback), so the
    layer-based strategy sees realistic closed-loop activations.
    """
    _require_frames(eval_frames=eval_frames, profile_frames=profile_frames)
    model = plant.default_model()
    session = plant.session(seed)
    states: List[np.ndarray] = []
    for _ in range(profile_frames):
        frame = session.next_frame()
        states.append(frame)
        out = model.forward(frame[None])
        session.step_output(out[0])
    x_profile = np.stack(states)
    profiles = profile_model(model, x_profile)
    return DSEProblem(
        name=name or plant.name, model=model, plant=plant,
        profiles=profiles, constraints=constraints or DesignConstraints(),
        seed=seed, eval_frames=eval_frames,
    )
