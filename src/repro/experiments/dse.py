"""dse — the deterministic design-space-exploration harness.

Runs :func:`repro.dse.run_dse` over the paper's U-Net de-blending
problem in all three modes (random / grid / adaptive), asserts the
determinism contract (a seeded rerun of each mode reproduces the
Pareto front byte for byte) and that each recommendation sits on its
front, and renders the adaptive front as a paper-style table.  The
harness also checks that the adaptive front is non-empty and that the
recommended configuration reproduces the deployed design: the
layer-based ``<16,x>`` strategy, fitting the Arria 10 under the
corrected resource model, inside the 3 ms budget.

The converted-model cache in :mod:`repro.experiments.common` is sized
up for the sweep and its hit/miss counters are folded into a
:mod:`repro.obs` metrics registry (reported in the notes).
"""

from __future__ import annotations

from repro.dse import DSESettings, run_dse, unet_problem
from repro.dse.space import build_config
from repro.experiments.common import (ExperimentResult,
                                      converted_cache_stats,
                                      fold_converted_cache_metrics,
                                      set_converted_cache_size)
from repro.hls.precision import layer_based_config
from repro.obs.metrics import MetricsRegistry
from repro.utils.tables import Table

__all__ = ["run"]

MODES = ("random", "grid", "adaptive")


def _label(candidate) -> str:
    return (f"{candidate.strategy} ru={candidate.default_reuse}/"
            f"{candidate.dense_sigmoid_reuse}")


def run(fast: bool = False) -> ExperimentResult:
    """Search the co-design knob space on the U-Net problem; verify
    rerun byte-identity and the paper-pin of the recommendation."""
    budget = 8 if fast else 16
    set_converted_cache_size(max(16, budget * 2))
    problem = unet_problem(fast=fast, seed=0)

    notes = []
    results = {}
    for mode in MODES:
        settings = DSESettings(mode=mode, budget=budget, seed=0)
        result = run_dse(problem, settings=settings)
        rerun = run_dse(problem, settings=settings)
        if result.front_json() != rerun.front_json():
            raise AssertionError(
                f"DSE mode {mode!r} is nondeterministic: seeded rerun "
                f"diverged from the first front")
        results[mode] = result
        rec = result.recommended
        picked = "nothing"
        if rec is not None:
            if not any(s is rec for s in result.front):
                raise AssertionError(f"DSE mode {mode!r} recommended a "
                                     f"design that is not on its front")
            picked = (f"{_label(rec.candidate)} "
                      f"(+{rec.candidate.perturbation} int bits, "
                      f"node p99 {rec.node_p99_ms:.3f} ms)")
        notes.append(
            f"{mode}: {result.n_simulated} simulated / "
            f"{result.n_prefiltered} pre-filtered, front size "
            f"{len(result.front)}, rerun byte-identical; recommended "
            f"{picked}")

    adaptive = results["adaptive"]
    rec = adaptive.recommended
    if not adaptive.front or rec is None:
        raise AssertionError("adaptive DSE found no feasible design for "
                             "the paper's U-Net problem")
    if not rec.fits:
        raise AssertionError("adaptive DSE recommended a design that does "
                             "not fit the Arria-10 resource model")
    if rec.candidate.strategy != "layer-based":
        raise AssertionError(
            f"recommended strategy {rec.candidate.strategy!r}; the paper "
            f"deployed the layer-based <16,x> strategy")
    # Pin: the recommended per-layer integer bits stay within one bit of
    # the deployed profile-derived grid.
    deployed = layer_based_config(problem.model, None,
                                  profiles=problem.profiles)
    chosen = build_config(rec.candidate, problem.model, problem.profiles)
    for name in problem.profiles:
        want = deployed.for_layer(name).result.integer
        got = chosen.for_layer(name).result.integer
        if abs(got - want) > 1:
            raise AssertionError(
                f"layer {name}: recommended integer bits {got} drift "
                f">1 from the deployed grid {want}")
    notes.append("recommended config reproduces the deployed layer-based "
                 "<16,x> strategy within one integer bit per layer")

    metrics = MetricsRegistry()
    fold_converted_cache_metrics(metrics)
    stats = converted_cache_stats()
    notes.append(
        f"converted-model cache: {stats['hits']} hits / "
        f"{stats['misses']} misses / {stats['evictions']} evictions "
        f"(size {stats['size']}/{stats['maxsize']}; counters exported "
        f"as experiments.converted_cache.* obs metrics)")

    table = Table(
        ["Design point", "Acc", "+int bits", "node p99 ms",
         "IP ms", "ALUT", "Regs", "Feasible"],
        title=f"DSE Pareto front — U-Net de-blending (adaptive, "
              f"budget {budget}, seed 0)")
    for score in adaptive.front:
        marker = " <- recommended" if score is rec else ""
        table.add_row([
            _label(score.candidate) + marker,
            f"{score.accuracy:.1%}",
            f"{score.candidate.perturbation}",
            f"{score.node_p99_ms:.3f}",
            f"{score.est_ip_latency_ms:.2f}",
            f"{score.alut_fraction:.0%}",
            f"{score.register_fraction:.0%}",
            "yes" if score.feasible else "no",
        ])

    return ExperimentResult(name="dse", table=table, notes=notes)
