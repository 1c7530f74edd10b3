"""The co-design knob space: candidates, sampling, grids, mutations.

A :class:`Candidate` is one point in the space of the knobs the paper
turns by hand (Section IV): precision strategy, per-layer integer bits
and the two reuse factors.  Serving knobs (batch size, shard and
worker counts) are not searched: no hardware model predicts them, so
they are chosen by measuring the serving host.
:class:`SearchSpace` enumerates/samples candidates deterministically —
grids never touch an RNG, and random sampling draws only from
generators handed in by the driver (all spawned from one
``SeedSequence``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.hls.config import HLSConfig
from repro.hls.precision import (DENSE_SIGMOID_REUSE, apply_reference_reuse,
                                 layer_based_config, uniform_config)

__all__ = ["Candidate", "SearchSpace", "build_config",
           "REFERENCE_STRATEGIES"]

#: The paper's strategy ladder, in its Table II order.
REFERENCE_STRATEGIES = ("uniform<18,10>", "uniform<16,7>", "layer-based")


def _parse_strategy(strategy: str) -> Tuple[str, int, int]:
    """``"uniform<W,I>"`` → ("uniform", W, I); ``"layer-based"`` → 16-bit."""
    if strategy == "layer-based":
        return ("layer-based", 16, 0)
    if strategy.startswith("uniform<") and strategy.endswith(">"):
        w, i = strategy[len("uniform<"):-1].split(",")
        return ("uniform", int(w), int(i))
    raise ValueError(f"unknown strategy {strategy!r}; expected "
                     f"'layer-based' or 'uniform<W,I>'")


@dataclass(frozen=True)
class Candidate:
    """One point in the quantization/reuse knob space.

    ``layer_deltas`` perturbs the layer-based strategy's profiled
    per-layer integer bits by ±1 — the resolution the paper's own
    margin-bit experiment (Fig 5b) works at — and is ignored (and
    canonicalised away) for uniform strategies, as is ``margin_bits``.
    The defaults are the paper's deployed design.
    """

    strategy: str = "layer-based"
    margin_bits: int = 0
    layer_deltas: Tuple[Tuple[str, int], ...] = ()
    default_reuse: int = 32
    dense_sigmoid_reuse: int = DENSE_SIGMOID_REUSE

    def __post_init__(self) -> None:
        _parse_strategy(self.strategy)  # validate
        if self.strategy != "layer-based" and (
                self.margin_bits or self.layer_deltas):
            # Canonical form: precision perturbations only exist on the
            # layer-based strategy, so uniform candidates that differ
            # only in ignored fields collapse to one key.
            object.__setattr__(self, "margin_bits", 0)
            object.__setattr__(self, "layer_deltas", ())
        object.__setattr__(self, "layer_deltas",
                           tuple(sorted((str(n), int(d))
                                        for n, d in self.layer_deltas)))

    @property
    def is_reference_precision(self) -> bool:
        """Exactly one of the paper's ladder points (cache-eligible)."""
        return (self.margin_bits == 0 and not self.layer_deltas
                and self.default_reuse == 32
                and self.dense_sigmoid_reuse == DENSE_SIGMOID_REUSE)

    @property
    def perturbation(self) -> int:
        """Integer bits moved off the profiled design: margin bits plus
        every layer delta's magnitude (0 for uniform strategies)."""
        return self.margin_bits + sum(abs(d) for _, d in self.layer_deltas)

    def to_dict(self) -> Dict[str, object]:
        return {
            "strategy": self.strategy,
            "margin_bits": self.margin_bits,
            "layer_deltas": [list(d) for d in self.layer_deltas],
            "default_reuse": self.default_reuse,
            "dense_sigmoid_reuse": self.dense_sigmoid_reuse,
        }

    def key(self) -> str:
        """Canonical identity string (dedup + deterministic tie-breaks)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))


def build_config(candidate: Candidate, model,
                 profiles: Optional[dict] = None) -> HLSConfig:
    """Materialise a candidate into an :class:`~repro.hls.HLSConfig`."""
    kind, width, integer = _parse_strategy(candidate.strategy)
    if kind == "uniform":
        config = uniform_config(width, integer, model=model)
    else:
        config = layer_based_config(model, None, width=width,
                                    margin_bits=candidate.margin_bits,
                                    profiles=profiles)
    apply_reference_reuse(config, model,
                          default_reuse=candidate.default_reuse,
                          dense_sigmoid_reuse=candidate.dense_sigmoid_reuse)
    for name, delta in candidate.layer_deltas:
        current = config.for_layer(name)
        new_int = min(max(current.result.integer + delta, 1), width)
        config.set_layer(name, result=current.result.with_(integer=new_int))
    return config


@dataclass(frozen=True)
class SearchSpace:
    """Axis definitions of the knob space (all tuples are ordered)."""

    strategies: Tuple[str, ...] = REFERENCE_STRATEGIES
    margin_bits: Tuple[int, ...] = (0, 1)
    layer_delta_values: Tuple[int, ...] = (-1, 1)
    max_perturbed_layers: int = 2
    default_reuse: Tuple[int, ...] = (16, 32, 64, 128)
    dense_sigmoid_reuse: Tuple[int, ...] = (130, 260, 520)
    #: Names of layers whose integer bits may be perturbed (layer-based
    #: strategy only); usually the profiled layers of the model.
    layer_names: Tuple[str, ...] = ()

    # ------------------------------------------------------------------
    def anchors(self) -> List[Candidate]:
        """The paper's strategy ladder at its deployed reuse point.

        Always injected first into every search mode, so the published
        Table II comparison is on every Pareto front and the search can
        only improve on the paper's hand-tuned design, never lose it.
        """
        return [Candidate(strategy=s) for s in self.strategies]

    # ------------------------------------------------------------------
    def sample(self, rng: np.random.Generator) -> Candidate:
        """One uniformly-sampled candidate (index draws only, so the
        stream is stable across numpy versions)."""
        pick = lambda axis: axis[int(rng.integers(len(axis)))]
        strategy = pick(self.strategies)
        margin = 0
        deltas: Tuple[Tuple[str, int], ...] = ()
        if strategy == "layer-based":
            margin = pick(self.margin_bits)
            if self.layer_names and self.max_perturbed_layers:
                n_perturb = int(rng.integers(self.max_perturbed_layers + 1))
                if n_perturb:
                    idx = rng.choice(len(self.layer_names),
                                     size=min(n_perturb,
                                              len(self.layer_names)),
                                     replace=False)
                    deltas = tuple(
                        (self.layer_names[int(i)],
                         pick(self.layer_delta_values))
                        for i in sorted(int(j) for j in idx))
        return Candidate(
            strategy=strategy, margin_bits=margin, layer_deltas=deltas,
            default_reuse=pick(self.default_reuse),
            dense_sigmoid_reuse=pick(self.dense_sigmoid_reuse),
        )

    # ------------------------------------------------------------------
    def grid(self, max_candidates: int) -> List[Candidate]:
        """Deterministic lattice subsample of the full product grid.

        Enumerates the mixed-radix product of every axis (precision
        perturbations excluded — grids stay on the profiled bits) and
        takes ``max_candidates`` evenly-strided points.  No RNG.
        """
        axes: List[Tuple] = [self.strategies, self.margin_bits,
                             self.default_reuse, self.dense_sigmoid_reuse]
        total = 1
        for axis in axes:
            total *= len(axis)
        n = min(max_candidates, total)
        out: List[Candidate] = []
        seen = set()
        for j in range(n):
            flat = (j * (total - 1)) // max(n - 1, 1)
            coords = []
            for axis in reversed(axes):
                flat, r = divmod(flat, len(axis))
                coords.append(axis[r])
            (dr2, dr, mb, st) = coords
            cand = Candidate(strategy=st, margin_bits=mb,
                             default_reuse=dr, dense_sigmoid_reuse=dr2)
            if cand.key() not in seen:
                seen.add(cand.key())
                out.append(cand)
        return out

    # ------------------------------------------------------------------
    def mutate(self, candidate: Candidate,
               rng: np.random.Generator) -> Candidate:
        """Perturb one knob of *candidate* (adaptive-mode neighborhood)."""
        knobs = ["default_reuse", "dense_sigmoid_reuse"]
        if candidate.strategy == "layer-based":
            knobs.append("margin_bits")
            if self.layer_names:
                knobs.append("layer_delta")
        knob = knobs[int(rng.integers(len(knobs)))]
        pick = lambda axis: axis[int(rng.integers(len(axis)))]
        if knob == "layer_delta":
            name = self.layer_names[int(rng.integers(len(self.layer_names)))]
            delta = pick(self.layer_delta_values)
            deltas = dict(candidate.layer_deltas)
            deltas[name] = delta
            items = sorted(deltas.items())[-self.max_perturbed_layers:] \
                if self.max_perturbed_layers else []
            return replace(candidate, layer_deltas=tuple(items))
        axis = {"default_reuse": self.default_reuse,
                "dense_sigmoid_reuse": self.dense_sigmoid_reuse,
                "margin_bits": self.margin_bits}[knob]
        return replace(candidate, **{knob: pick(axis)})
