"""``unet_loop``: the paper's U-Net design driven in process, batch runs.

Set-up is the README way: ``load_pretrained()`` then ``build_runtime``
with layer-based precision profiled on the training split and compile
level 2, default ``BeamLossPlant``, no faults.  The load is
``CentralNodeRuntime.run`` over the 1000 eval frames, each pass in a
fresh seeded order.  Compiled ``repro.hls`` steps do most of the work
and ``repro.serve`` none, so compiler and kernel changes show here.
"""

from __future__ import annotations

from time import perf_counter

from perfbench.common import (
    Result,
    diverging,
    median,
    pct_ms,
    self_peak_rss_mib,
    window_stats,
    workload_rng,
)
from perfbench.ledger import (
    Ledger,
    hls_metrics,
    install_hot_path,
    install_setup,
    soc_metrics,
)

#: Frames of the untimed warm-up call (arena, caches, lazy imports).
WARMUP_FRAMES = 64


def _set_up(ledger):
    from repro import RuntimeConfig, build_runtime, load_pretrained

    t0 = perf_counter()
    bundle = load_pretrained()
    t1 = perf_counter()
    x_train = bundle.dataset.unet_inputs(bundle.dataset.x_train)
    runtime = build_runtime(bundle.unet, x_profile=x_train,
                            config=RuntimeConfig(compile_level=2))
    phases = {"setup.load_s": t1 - t0}
    if ledger is not None:
        for span in ("profile", "convert", "compile"):
            phases[f"setup.{span}_s"] = ledger.inclusive.get(
                f"setup.{span}", 0.0)
    return bundle, runtime, phases


def _passes(runtime, x, rng, rt_seed, seconds, blocks):
    """Run seeded-order passes over *x* for *seconds*; wall per pass."""
    walls = []
    start = perf_counter()
    while not walls or perf_counter() - start < seconds:
        frames = x[rng.permutation(len(x))]
        t0 = perf_counter()
        runtime.run(frames, seed=rt_seed)
        walls.append(perf_counter() - t0)
        blocks.append(frames)
    return walls


def _formulations(runtime):
    """Conv formulations the compiler's wall-clock tuner picked."""
    plan = runtime.board.ip.hls_model.compiled_plan
    return [step.conv["formulation"] for step in plan.steps
            if getattr(step, "conv", None)]


def run(seed: int, seconds: float, trace: bool, t_start: float) -> Result:
    from repro import RuntimeConfig, build_runtime
    from repro.hls.converter import convert

    res = Result()
    setup_ledger = Ledger() if trace else None
    if trace:
        install_setup(setup_ledger)
    try:
        bundle, runtime, phases = _set_up(setup_ledger)
    finally:
        if trace:
            setup_ledger.restore()
    res.end_to_end["setup_s"] = perf_counter() - t_start
    res.info["conv_formulations"] = _formulations(runtime)

    x = bundle.dataset.x_eval
    n = len(x)
    rng = workload_rng(seed, 1)
    rt_seed = int(workload_rng(seed, 2).integers(0, 2**31))
    blocks = [x[rng.permutation(n)[:WARMUP_FRAMES]]]
    runtime.run(blocks[0], seed=rt_seed)
    first_timed = len(runtime.records)
    share = seconds / (2 if trace else 1)
    plain = _passes(runtime, x, rng, rt_seed, share, blocks)
    if trace:
        ledger = Ledger()
        install_hot_path(ledger)
        try:
            traced = _passes(runtime, x, rng, rt_seed, share, blocks)
        finally:
            ledger.restore()
    res.end_to_end["peak_rss_mib"] = self_peak_rss_mib()

    # A pass is one window.  All its frames complete when ``run``
    # returns, so every frame's latency is the pass's wall time.
    windows = [(n, w, [w]) for w in plain]
    res.end_to_end.update(window_stats(windows))
    # Over the first timed pass only: how many passes fit in the run
    # depends on host speed, the first pass on the seed alone.
    res.end_to_end["sim_node_p99_ms"] = pct_ms(
        [rec.node_latency_s
         for rec in runtime.records[first_timed:first_timed + n]], 99)
    res.info["passes"] = len(plain)
    res.info["latency_samples"] = n * len(plain)
    res.info["latency_basis"] = ("wall time of the pass a frame is in: "
                                 "every frame of a pass completes with it")

    if trace:
        res.per_layer.update(phases)
        res.per_layer.update(hls_metrics(ledger))
        res.per_layer.update(soc_metrics(ledger, [runtime]))
        res.per_layer["trace_overhead"] = median(traced) / median(plain)
        res.per_layer["unattributed_frac"] = (
            1.0 - ledger.total_self_s() / sum(traced))

    # Correctness gate, outside the timed phase: the same calls on the
    # naive executor (compile level 0) of a freshly converted model.
    naive = build_runtime(convert(bundle.unet,
                                  runtime.board.ip.hls_model.config),
                          config=RuntimeConfig(compile_level=0))
    for frames in blocks:
        naive.run(frames, seed=rt_seed)
    wrong = diverging(runtime.records, naive.records)
    if wrong:
        res.divergences.append(
            f"{wrong} of {len(runtime.records)} records differ from the "
            f"naive executor")
    res.failed = diverging(runtime.records[first_timed:],
                           naive.records[first_timed:])
    res.attempted = len(runtime.records) - first_timed
    res.end_to_end["fail_frac"] = res.failed / res.attempted
    return res
