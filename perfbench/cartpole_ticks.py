"""``cartpole_ticks``: the closed-loop cartpole plant, one frame per tick.

Set-up is ``CartpolePlant`` with its hand-crafted quantized 2-dense MLP
at compile level 2.  The load is ``run_closed_loop`` one tick at a time,
so a tick's wall time is the controller's actuation delay.  The model is
tiny: per-call overhead in ``repro.soc`` (seed derivation, hub arrivals,
jitter, board pipeline, ladder) and ``repro.plants`` dominates, and
``repro.hls`` only ever runs at batch size 1.

The timed phase is a series of fixed-length episodes, each a fresh
runtime around the compiled model and a fresh seeded session, so memory
and per-tick cost do not drift with run length.  Every episode is played
``ROUNDS`` times, the rounds seconds apart.  fps and the tail
percentiles are over every tick of every round.  An episode is a pure
function of its seeds, so each round does the same work, and the median
is over each tick's best round: the host's speed flips between two
modes, and the median of every tick falls in whichever held most of the
run (see README.md).
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter

from perfbench.common import (
    Result,
    diverging,
    median,
    pct_ms,
    program_seed,
    self_peak_rss_mib,
    pooled_stats,
    workload_rng,
)
from perfbench.ledger import (
    Ledger,
    hls_metrics,
    install_hot_path,
    install_setup,
    one,
    soc_metrics,
)
from perfbench.program import SRC

#: Fresh-process set-ups per run; ``setup_s`` reports their median.
SETUPS = 15
#: Ticks per episode.
EPISODE_TICKS = 500
#: Untimed warm-up ticks before the first episode.
WARMUP_TICKS = 50
#: Times each episode is played.
ROUNDS = 8
#: Episodes whose records give ``sim_node_p99_ms``: a fixed count, so the
#: figure depends on the seed alone, not on how many episodes fit.  Every
#: untraced phase plays at least this many.
SIM_EPISODES = 8

#: One set-up from process start: import the program, build the runtime.
_SETUP_CODE = f"""
import sys
sys.path.insert(0, {str(SRC)!r})
from repro import CartpolePlant, RuntimeConfig, build_runtime
plant = CartpolePlant()
build_runtime(plant.default_model(), config=RuntimeConfig(compile_level=2),
              plant=plant)
print("ready", flush=True)
"""


def _fresh_setup_s() -> float:
    """Seconds from starting a new interpreter to a built runtime."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", _SETUP_CODE],
                            stdout=subprocess.PIPE, text=True)
    with proc:
        line = proc.stdout.readline()
        t1 = perf_counter()
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up process failed (exit {code})")
    return t1 - t0


def _episode(runtime, session, rt_seed):
    """One episode, tick by tick; (wall per tick, episode wall)."""
    from repro.plants import run_closed_loop

    walls = []
    start = perf_counter()
    for _ in range(EPISODE_TICKS):
        t0 = perf_counter()
        run_closed_loop(runtime, session, 1, seed=rt_seed)
        walls.append(perf_counter() - t0)
    return walls, perf_counter() - start


def _play(model, config, plant, session_seed: int, rt_seed: int,
          ledger=None):
    """One episode on a fresh runtime and session, timed by *ledger* if
    given; (runtime, session, wall per tick, episode wall)."""
    from repro import build_runtime

    runtime = build_runtime(model, config=config, plant=plant)
    session = plant.session(session_seed)
    if ledger is not None:
        install_hot_path(ledger)
        ledger.install(session, "next_frame", "plants.session", items=one)
        ledger.install(session, "step", "plants.session")
    try:
        walls, wall = _episode(runtime, session, rt_seed)
    finally:
        if ledger is not None:
            ledger.restore()
    return runtime, session, walls, wall


def run(seed: int, seconds: float, trace: bool, t_start: float) -> Result:
    from repro import CartpolePlant, RuntimeConfig, build_runtime
    from repro.plants import run_closed_loop

    res = Result()
    setup_walls = [_fresh_setup_s() for _ in range(SETUPS)]
    res.end_to_end["setup_s"] = median(setup_walls)
    res.info["setup_walls_s"] = setup_walls

    plant = CartpolePlant()
    config = RuntimeConfig(compile_level=2)
    setup_ledger = Ledger()
    if trace:
        install_setup(setup_ledger)
    try:
        model = build_runtime(plant.default_model(), config=config,
                              plant=plant).board.ip.hls_model
    finally:
        setup_ledger.restore()
    if trace:
        res.per_layer.update({
            "setup.load_s": 0.0,
            "setup.profile_s": 0.0,
            "setup.convert_s": setup_ledger.inclusive["setup.convert"],
            "setup.compile_s": setup_ledger.inclusive["setup.compile"],
        })
    reference_config = RuntimeConfig(compile_level=0, batch_inference=False)
    episode_seeds = workload_rng(seed, 1)
    run_closed_loop(build_runtime(model, config=config, plant=plant),
                    plant.session(0), WARMUP_TICKS, seed=program_seed(seed))

    ledger = Ledger()
    phases = {}
    traced_runtimes = []
    node = []
    for traced in ([False, True] if trace else [False]):
        budget = seconds / 2 if trace else seconds
        # (session seed, runtime seed, round-one records, plays), a play
        # being (wall per tick, episode wall)
        episodes = []
        wall_s = 0.0
        timing = ledger if traced else None

        # Round one draws new episodes until its share of the budget is
        # spent; each draws its own session and runtime seeds, so the
        # episodes' jitter and hub-arrival streams are independent.
        least = 0 if traced else SIM_EPISODES
        while wall_s < budget / ROUNDS or len(episodes) < least:
            session_seed, rt_seed = (
                int(v) for v in episode_seeds.integers(0, 2**31, size=2))
            runtime, session, walls, wall = _play(
                model, config, plant, session_seed, rt_seed, timing)
            if traced:
                traced_runtimes.append(runtime)
            wall_s += wall
            records = runtime.records
            if not traced and len(episodes) < SIM_EPISODES:
                node.extend(r.node_latency_s for r in records)

            # Correctness gate, outside the timed episode: the naive
            # sequential executor gives the same records for the same
            # episode, and the quantized controller stabilised the pole.
            reference = build_runtime(plant.default_model(),
                                      config=reference_config, plant=plant)
            run_closed_loop(reference, plant.session(session_seed),
                            EPISODE_TICKS, seed=rt_seed)
            wrong = diverging(records, reference.records)
            if wrong:
                res.divergences.append(
                    f"episode {session_seed}: {wrong} tick records differ "
                    f"from the naive sequential executor")
            if not session.quality(records).stabilized:
                res.divergences.append(
                    f"episode {session_seed}: the pole never stabilised")
            res.failed += wrong
            res.attempted += len(records)
            episodes.append((session_seed, rt_seed, records,
                             [(walls, wall)]))

        # The other rounds play the same episodes again, in order, and
        # must give the same records.
        for _ in range(ROUNDS - 1):
            for session_seed, rt_seed, first, plays in episodes:
                runtime, _, walls, wall = _play(
                    model, config, plant, session_seed, rt_seed, timing)
                if traced:
                    traced_runtimes.append(runtime)
                wrong = diverging(runtime.records, first)
                if wrong:
                    res.divergences.append(
                        f"episode {session_seed}: {wrong} tick records "
                        f"differ between rounds")
                res.failed += wrong
                res.attempted += len(walls)
                plays.append((walls, wall))
        every = [(len(walls), wall, walls)
                 for *_, plays in episodes for walls, wall in plays]
        best = [min(tick) for *_, plays in episodes
                for tick in zip(*(walls for walls, _ in plays))]
        phases[traced] = (every, best)
    res.end_to_end["peak_rss_mib"] = self_peak_rss_mib()

    every, best = phases[False]
    stats = pooled_stats(every)
    res.info["latency_p50_ms_every_tick"] = stats["latency_p50_ms"]
    stats["latency_p50_ms"] = pct_ms(best, 50)
    res.end_to_end.update(stats)
    res.end_to_end["sim_node_p99_ms"] = pct_ms(node, 99)
    res.end_to_end["fail_frac"] = res.failed / res.attempted
    res.info.update({
        "episodes": len(every) // ROUNDS,
        "rounds": ROUNDS,
        "latency_samples": sum(n for n, _, _ in every),
        "latency_p50_samples": len(best),
        "latency_basis": ("wall time of each closed-loop tick; the p50 "
                          f"over each tick's best of {ROUNDS} rounds"),
    })
    if trace:
        traced, traced_best = phases[True]
        res.per_layer.update(hls_metrics(ledger))
        res.per_layer.update(soc_metrics(ledger, traced_runtimes))
        res.per_layer["plants.session.us_per_tick"] = ledger.per_item_us(
            "plants.session")
        res.per_layer["trace_overhead"] = (
            pct_ms(traced_best, 50) / stats["latency_p50_ms"])
        res.per_layer["unattributed_frac"] = (
            1.0 - ledger.total_self_s() / sum(w for _, w, _ in traced))
    return res
