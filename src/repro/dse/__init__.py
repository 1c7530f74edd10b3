"""Deterministic design-space exploration over the paper's knob space.

The paper tuned per-layer ``ac_fixed<16,x>`` integer bits and reuse
factors by hand against Quartus fit reports.  :mod:`repro.dse`
automates that loop over the same co-design knobs — precision
strategy, margin bits, per-layer integer bits and reuse factors — with
the pre-fit estimators (:func:`~repro.hls.resources.
estimate_resources`, :func:`~repro.hls.latency.estimate_latency`)
filtering out fit-implausible candidates before any of them pays for
fixed-point simulation.

Everything is reproducible from a single :class:`numpy.random.
SeedSequence`: scores are pure functions of the candidate and the
problem seed (fixed-point accuracy, simulated node latencies and
estimated resources — never the wall clock), so a seeded rerun emits a
byte-identical Pareto front.
"""

from repro.dse.driver import DSEResult, DSESettings, run_dse
from repro.dse.pareto import pareto_front
from repro.dse.score import (CandidateScore, DSEProblem, score_candidate,
                             unet_problem, open_loop_problem, plant_problem)
from repro.dse.space import Candidate, SearchSpace, build_config

__all__ = [
    "Candidate",
    "SearchSpace",
    "build_config",
    "CandidateScore",
    "DSEProblem",
    "score_candidate",
    "unet_problem",
    "open_loop_problem",
    "plant_problem",
    "pareto_front",
    "DSESettings",
    "DSEResult",
    "run_dse",
]
