"""The search driver: random / grid / adaptive modes, one SeedSequence.

All three modes share the same shape:

1. inject the paper's anchor ladder (the search can only improve on the
   published design, never lose it),
2. generate a candidate pool (mode-specific),
3. pre-filter every candidate through the structural estimators (free),
4. simulate the fit-plausible survivors,
5. emit the Pareto front over (accuracy, −perturbation, −node p99,
   −resource pressure) and recommend its lexicographic best.

Determinism contract: every random draw comes from generators spawned
from ``SeedSequence(settings.seed)`` in a fixed order; scores are pure
functions of (candidate, problem seed); ties break on the candidate's
canonical key.  Same seed ⇒ byte-identical ``front_json()``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.dse.pareto import pareto_front
from repro.dse.score import CandidateScore, DSEProblem, score_candidate
from repro.dse.space import Candidate, SearchSpace

__all__ = ["DSESettings", "DSEResult", "run_dse"]

MODES = ("random", "grid", "adaptive")


@dataclass(frozen=True)
class DSESettings:
    """Driver policy (keyword-friendly, hashable)."""

    mode: str = "adaptive"
    #: Simulation budget per search round: random/grid simulate at most
    #: this many candidates total (anchors included); adaptive
    #: short-screens up to ``budget`` candidates and then fully
    #: evaluates at most ``budget`` survivors + mutations.
    budget: int = 16
    seed: int = 0
    #: Adaptive mode: survivors kept per halving round, and how many
    #: seeded mutations each survivor spawns for the refinement round.
    survivors: int = 4
    mutations: int = 2
    #: Adaptive mode: short-simulation frame count for the first round
    #: (successive halving pays full frames only for survivors).
    screen_frames: int = 24

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, "
                             f"got {self.mode!r}")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.survivors < 1 or self.mutations < 0:
            raise ValueError("invalid survivors/mutations")
        if self.screen_frames < 1:
            raise ValueError(f"screen_frames must be >= 1, "
                             f"got {self.screen_frames}")


@dataclass
class DSEResult:
    """Everything one search produced."""

    problem: str
    mode: str
    seed: int
    #: Every candidate that was scored, pre-filtered rejects included,
    #: in deterministic evaluation order.
    evaluated: List[CandidateScore]
    #: Non-dominated feasible scores, sorted by candidate key.
    front: List[CandidateScore]
    recommended: Optional[CandidateScore]

    @property
    def n_simulated(self) -> int:
        return sum(1 for s in self.evaluated if s.simulated)

    @property
    def n_prefiltered(self) -> int:
        return sum(1 for s in self.evaluated if not s.simulated)

    def front_json(self) -> str:
        """Canonical JSON of the front — the byte-identity artefact."""
        return json.dumps([s.to_dict() for s in self.front],
                          sort_keys=True, separators=(",", ":"))

    def to_dict(self) -> Dict[str, object]:
        return {
            "problem": self.problem,
            "mode": self.mode,
            "seed": self.seed,
            "n_evaluated": len(self.evaluated),
            "n_simulated": self.n_simulated,
            "n_prefiltered": self.n_prefiltered,
            "front": [s.to_dict() for s in self.front],
            "recommended": (self.recommended.to_dict()
                            if self.recommended else None),
        }


def _rank(score: CandidateScore) -> Tuple[Tuple[float, ...], str]:
    """Sort key, best first: the objectives in order, then the key.

    The lexicographic best over the objectives is never dominated, so
    the recommendation always sits on the Pareto front.
    """
    return tuple(-v for v in score.objectives()), score.candidate.key()


def _recommend(scores: List[CandidateScore]) -> Optional[CandidateScore]:
    """The best-ranked feasible score, or None."""
    feasible = [s for s in scores if s.feasible]
    return min(feasible, key=_rank) if feasible else None


def _dedup(candidates: List[Candidate]) -> List[Candidate]:
    seen: set = set()
    out: List[Candidate] = []
    for c in candidates:
        k = c.key()
        if k not in seen:
            seen.add(k)
            out.append(c)
    return out


def _pool(problem: DSEProblem, space: SearchSpace, settings: DSESettings,
          rng: np.random.Generator, size: int) -> List[Candidate]:
    """Anchors + mode-specific pool, deduplicated, deterministic order."""
    pool = list(space.anchors())
    if settings.mode == "grid":
        pool.extend(space.grid(size))
    else:
        attempts = 0
        while len(_dedup(pool)) < size and attempts < size * 20:
            pool.append(space.sample(rng))
            attempts += 1
    return _dedup(pool)[:max(size, len(space.anchors()))]


def run_dse(problem: DSEProblem,
            space: Optional[SearchSpace] = None,
            settings: Optional[DSESettings] = None) -> DSEResult:
    """Search *space* on *problem* under *settings*; see module doc."""
    settings = settings or DSESettings()
    if space is None:
        space = SearchSpace(
            layer_names=tuple(sorted(problem.profiles)),
        )
    ss = np.random.SeedSequence(settings.seed)
    rng_pool, rng_mut = (np.random.default_rng(c) for c in ss.spawn(2))

    #: Log of every scoring run (screening passes included), in order.
    evaluated: List[CandidateScore] = []
    #: Final score per candidate key — in adaptive mode only rejects and
    #: full-frame scores land here, so the front never mixes screening
    #: frame counts with full evaluations.
    scored: Dict[str, CandidateScore] = {}

    if settings.mode in ("random", "grid"):
        pool = _pool(problem, space, settings, rng_pool, settings.budget)
        for candidate in pool:
            score = score_candidate(problem, candidate)
            evaluated.append(score)
            scored[candidate.key()] = score
    else:  # adaptive: estimator rank → short sim → mutate survivors
        pool = _pool(problem, space, settings, rng_pool,
                     settings.budget * 3)
        anchor_keys = {c.key() for c in space.anchors()}
        # Round 0 (free): estimator screening of the whole pool.
        screened: List[CandidateScore] = []
        for candidate in pool:
            est = score_candidate(problem, candidate, eval_frames=0)
            evaluated.append(est)
            if est.reject_reason is not None:
                scored[candidate.key()] = est
            else:
                screened.append(est)
        # Round 1: short simulation of the best estimator ranks (anchors
        # always make the cut), cheapest-estimated-latency first.
        screened.sort(key=lambda s: (s.candidate.key() not in anchor_keys,
                                     s.est_ip_latency_ms,
                                     s.candidate.key()))
        # Closed-loop quality is not frame-separable (a pole cannot
        # stabilise inside a truncated episode), so screening only
        # shortens open-loop problems.
        short = (problem.eval_frames if problem.closed_loop
                 else min(settings.screen_frames, problem.eval_frames))
        round1_scores: List[CandidateScore] = []
        for s in screened[:settings.budget]:
            sc = score_candidate(problem, s.candidate, eval_frames=short)
            evaluated.append(sc)
            round1_scores.append(sc)
        # Round 2: full-frame evaluation of the survivors plus their
        # seeded mutations (mutations landing on already-settled keys —
        # estimator rejects — are skipped; their verdict stands).
        survivors = sorted(
            (s for s in round1_scores
             if s.simulated and s.reject_reason is None),
            key=_rank)[:settings.survivors]
        finalists: List[Candidate] = [s.candidate for s in survivors]
        for s in survivors:
            for _ in range(settings.mutations):
                finalists.append(space.mutate(s.candidate, rng_mut))
        for candidate in _dedup(finalists)[:settings.budget]:
            key = candidate.key()
            if key in scored:
                continue
            full = score_candidate(problem, candidate)
            evaluated.append(full)
            scored[key] = full

    feasible = [s for s in scored.values() if s.feasible]
    front = pareto_front(feasible, CandidateScore.objectives,
                         tie_break=lambda s: s.candidate.key())
    return DSEResult(
        problem=problem.name, mode=settings.mode, seed=settings.seed,
        evaluated=evaluated, front=front,
        recommended=_recommend(feasible),
    )
