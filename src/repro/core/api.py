"""The one-stop facade: pretrained models → runtime → control loop.

Four calls cover the whole reproduction:

* :func:`load_pretrained` — the reference U-Net/MLP bundle + dataset,
* :func:`build_runtime` — convert/compile a model and place it on a
  hardened :class:`~repro.soc.runtime.CentralNodeRuntime`,
* :func:`run_control_loop` — drive frames through the loop and hand
  back records, health, and (optionally) the observability bundle,
* :func:`codesign_and_deploy` — the paper's co-design pipeline
  (Section IV-D) ending in a verified :class:`Deployment`.

Scale-out rides on the same facade: :func:`build_farm` /
:func:`serve_frames` wrap :mod:`repro.serve`'s deterministic sharded
serving front-end (N runtime replicas, micro-batching, spawn worker
pool) without changing any single-runtime call site.

Every entry point is **plant-generic**: the workload — frame
synthesis, hub topology, trip policy, actuation feedback,
control-quality scoring — lives behind a
:class:`~repro.plants.Plant` passed as ``plant=``.  The default is
:class:`~repro.plants.BeamLossPlant` (the paper's open-loop
de-blending workload), so every pre-plant call site behaves bit for
bit as before; pass :class:`~repro.plants.CartpolePlant` (or your
own plant) to run a closed-loop scenario through the same runtime,
chaos and serving layers.

Configuration travels in two keyword-only dataclasses —
:class:`RuntimeConfig` for the datapath and
:class:`~repro.obs.ObsConfig` for tracing/metrics/flight-recording —
so call sites read as named policy, not positional soup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.core.codesign import CodesignOptimizer, CodesignResult, DesignConstraints
from repro.core.deployment import Deployment, deploy
from repro.hls.compile import check_compile_level
from repro.hls.converter import convert
from repro.hls.model import HLSModel
from repro.hls.precision import layer_based_config, uniform_config
from repro.nn.model import Model
from repro.plants import (
    BeamLossPlant,
    ControlQuality,
    Plant,
    fold_control_metrics,
    run_closed_loop,
)
from repro.obs import ObsConfig, Observability
from repro.pretrained.bundle import ReferenceBundle, load_reference_bundle
from repro.soc.board import FRAME_PERIOD_S, AchillesBoard
from repro.soc.faults import FaultInjector
from repro.soc.runtime import (
    CentralNodeRuntime,
    DegradationPolicy,
    FrameRecord,
    HealthReport,
)

__all__ = [
    "RuntimeConfig",
    "ControlLoopResult",
    "load_pretrained",
    "build_runtime",
    "run_control_loop",
    "build_farm",
    "serve_frames",
    "start_daemon",
    "codesign_and_deploy",
]

ModelLike = Union[Model, HLSModel]
ObsLike = Union[ObsConfig, Observability, None]


@dataclass(frozen=True, kw_only=True)
class RuntimeConfig:
    """Datapath policy for :func:`build_runtime` (keyword-only).

    Parameters
    ----------
    period_s:
        Digitizer tick (the paper's 3 ms frame period); positive and
        finite.
    batch_inference:
        Engage the bit-exact batched fast path when eligible (with a
        fault injector attached, speculatively: see
        :mod:`repro.soc.taint`).
    compile_level:
        Graph-compiler level (0 = naive, 2 = the compiled plan).
    precision:
        ``(width, integer)`` used when a float model must be converted
        and no profiling data is supplied (uniform ``ac_fixed``).
    profile_width:
        Total width for the layer-based strategy when ``x_profile`` IS
        supplied to :func:`build_runtime`.
    policy:
        Degradation ladder thresholds (watchdog, fallback, recovery).
    """

    period_s: float = FRAME_PERIOD_S
    batch_inference: bool = True
    compile_level: int = 0
    precision: Tuple[int, int] = (16, 7)
    profile_width: int = 16
    policy: DegradationPolicy = field(default_factory=DegradationPolicy)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.period_s) and self.period_s > 0):
            raise ValueError(
                f"period_s must be positive and finite, got {self.period_s}")
        check_compile_level(self.compile_level)
        w, i = self.precision
        if w <= 0 or i < 0 or i > w:
            raise ValueError(f"invalid precision {self.precision}")


@dataclass
class ControlLoopResult:
    """Everything :func:`run_control_loop` produced, in one place."""

    records: List[FrameRecord]
    health: HealthReport
    runtime: CentralNodeRuntime
    obs: Optional[Observability] = None
    #: Control-quality summary for the run (also on ``health.control``).
    control: Optional[ControlQuality] = None
    #: The plant that drove the run (``runtime.plant``).
    plant: Optional[Plant] = None

    @property
    def total_latencies_s(self) -> np.ndarray:
        """Per-frame total latency (hub readout + node), frame order."""
        return np.array([r.total_latency_s for r in self.records])


def load_pretrained(*, train_if_missing: bool = True) -> ReferenceBundle:
    """The reference bundle: trained U-Net + MLP + deblending dataset.

    Thin facade over
    :func:`repro.pretrained.bundle.load_reference_bundle`; the only
    behavioural difference is that missing weights are trained by
    default (the quickstart should never dead-end on a fresh clone).

    The bundle is beam-loss-specific (its dataset is the plant's
    substrate); plant-generic code should take models from
    ``plant.default_model()`` instead.  Variant bundles (e.g. the
    batch-norm U-Net) come from
    :func:`repro.pretrained.bundle.load_reference_bundle` directly.
    """
    return load_reference_bundle(train_if_missing=train_if_missing)


def _as_hls(model: ModelLike, x_profile: Optional[np.ndarray],
            config: RuntimeConfig) -> HLSModel:
    """Convert a float model (layer-based if profiled, else uniform)."""
    if isinstance(model, HLSModel):
        return model
    if not isinstance(model, Model):
        raise TypeError(f"expected Model or HLSModel, got {type(model)!r}")
    if x_profile is not None:
        cfg = layer_based_config(model, np.asarray(x_profile, np.float64),
                                 width=config.profile_width)
    else:
        width, integer = config.precision
        cfg = uniform_config(width, integer, model=model)
    return convert(model, cfg)


def build_runtime(model: ModelLike, *,
                  x_profile: Optional[np.ndarray] = None,
                  fallback: Optional[ModelLike] = None,
                  config: Optional[RuntimeConfig] = None,
                  obs: ObsLike = None,
                  injector: Optional[FaultInjector] = None,
                  plant: Optional[Plant] = None,
                  ) -> CentralNodeRuntime:
    """Place *model* on a hardened central-node runtime.

    *model* (and *fallback*) may be a trained float
    :class:`~repro.nn.Model` — converted here, layer-based when
    *x_profile* is given, uniform ``precision`` otherwise — or an
    already-converted :class:`~repro.hls.HLSModel`, used as-is.
    *obs* may be an :class:`~repro.obs.ObsConfig` (a bundle is built),
    a ready :class:`~repro.obs.Observability`, or None (zero-cost off).

    *plant* supplies the workload-specific wiring — hub topology and
    trip controller — and rides on the runtime for closed-loop driving
    and control-quality scoring downstream.  Default:
    :class:`~repro.plants.BeamLossPlant` (exactly the pre-plant
    wiring).
    """
    config = config or RuntimeConfig()
    plant = plant or BeamLossPlant()
    hls = _as_hls(model, x_profile, config)
    if config.compile_level and not hls.compiled:
        hls.compile(level=config.compile_level)

    fallback_board = None
    if fallback is not None:
        fb = _as_hls(fallback, None, config)
        if config.compile_level and not fb.compiled:
            fb.compile(level=config.compile_level)
        fallback_board = AchillesBoard(fb)

    if isinstance(obs, ObsConfig):
        obs = Observability.from_config(obs)
    elif not (obs is None or isinstance(obs, Observability)):
        raise TypeError(f"obs must be ObsConfig/Observability/None, "
                        f"got {type(obs)!r}")

    n_monitors = int(np.prod(hls.input_shape))
    expected = plant.expected_monitors
    if expected is not None and expected != n_monitors:
        raise ValueError(
            f"{type(plant).__name__} synthesises {expected}-monitor "
            f"frames but the model reads {n_monitors} monitors")
    return CentralNodeRuntime(
        board=AchillesBoard(hls),
        fallback_board=fallback_board,
        hubs=plant.hubs(n_monitors),
        controller=plant.controller(),
        period_s=config.period_s,
        batch_inference=config.batch_inference,
        policy=config.policy,
        injector=injector,
        obs=obs,
        plant=plant,
    )


def run_control_loop(model: Union[ModelLike, CentralNodeRuntime],
                     frames: Optional[np.ndarray] = None, *,
                     n_frames: Optional[int] = None,
                     seed: int = 0,
                     x_profile: Optional[np.ndarray] = None,
                     fallback: Optional[ModelLike] = None,
                     config: Optional[RuntimeConfig] = None,
                     obs: ObsLike = None,
                     injector: Optional[FaultInjector] = None,
                     plant: Optional[Plant] = None,
                     ) -> ControlLoopResult:
    """Drive the control loop and summarise the run.

    Accepts either something buildable (see :func:`build_runtime`) or a
    ready :class:`~repro.soc.runtime.CentralNodeRuntime` — the latter
    lets callers reuse one runtime across stretches of frames (passing
    any other build keyword alongside a ready runtime raises
    ``ValueError``; it used to be silently ignored).

    The workload comes from the runtime's plant:

    * **open-loop plant** (e.g. the default
      :class:`~repro.plants.BeamLossPlant`) — pass *frames* (exactly
      the historical behavior, bit for bit), or pass *n_frames* to
      let the plant synthesise them;
    * **closed-loop plant** (``plant.closed_loop``) — pass *n_frames*
      only; each published action feeds back through
      ``session.apply`` before the next frame is synthesised
      (:func:`repro.plants.run_closed_loop`).

    The run is scored into a :class:`~repro.plants.ControlQuality`
    (on ``result.control`` and ``result.health.control``, and folded
    into the observability metrics as ``control.*`` gauges).
    """
    if isinstance(model, CentralNodeRuntime):
        given = sorted(k for k, v in (("config", config),
                                      ("x_profile", x_profile),
                                      ("fallback", fallback),
                                      ("injector", injector),
                                      ("plant", plant)) if v is not None)
        if given:
            raise ValueError(
                f"run_control_loop got a ready runtime plus build "
                f"keywords {given}; configure them in build_runtime "
                f"instead")
        runtime = model
        if obs is not None:
            if isinstance(obs, ObsConfig):
                obs = Observability.from_config(obs)
            runtime.attach_observability(obs)
    else:
        runtime = build_runtime(model, x_profile=x_profile,
                                fallback=fallback, config=config,
                                obs=obs, injector=injector, plant=plant)

    plant_obj = runtime.plant
    session = None
    if plant_obj is not None and plant_obj.closed_loop:
        if frames is not None:
            raise ValueError(
                f"{type(plant_obj).__name__} is closed-loop: it "
                f"synthesises its own frames — pass n_frames, not "
                f"frames")
        if n_frames is None:
            raise ValueError("closed-loop runs need n_frames")
        session = plant_obj.session(seed)
        records = run_closed_loop(runtime, session, n_frames, seed=seed)
    else:
        if frames is None:
            if n_frames is None:
                raise ValueError("pass frames or n_frames")
            if plant_obj is None:
                raise ValueError(
                    "n_frames needs a plant to synthesise frames")
            session = plant_obj.session(seed)
            frames = np.stack([session.next_frame()
                               for _ in range(n_frames)])
        elif n_frames is not None:
            raise ValueError("pass frames or n_frames, not both")
        records = runtime.run(np.asarray(frames, dtype=np.float64),
                              seed=seed)

    if session is not None:
        control = session.quality(records)
    else:
        control = ControlQuality.from_records(records, runtime.period_s)
    health = replace(runtime.health_report(), control=control)
    if runtime.obs is not None:
        fold_control_metrics(runtime.obs.metrics, control)
    return ControlLoopResult(records=records,
                             health=health,
                             runtime=runtime,
                             obs=runtime.obs,
                             control=control,
                             plant=plant_obj)


def build_farm(model: ModelLike, *,
               fallback: Optional[ModelLike] = None,
               config: Optional[RuntimeConfig] = None,
               obs: Optional[ObsConfig] = None,
               injector: Optional[FaultInjector] = None,
               plant: Optional[Plant] = None,
               n_shards: int = 4,
               batching=None,
               seed: Optional[int] = 0,
               arrival_mode: str = "stream",
               hosts=()):
    """Build a :class:`~repro.serve.ShardedNodeFarm` over *model*.

    Each of the *n_shards* stream shards gets its own runtime replica
    (built exactly like :func:`build_runtime` would, per *config*) and
    an independent spawn-key-derived seed stream from *seed*.  *obs*
    must be an :class:`~repro.obs.ObsConfig` (or None): every replica
    owns a private observability bundle, and the farm merges the
    per-shard snapshots into one ``repro-obs/1`` export — a ready
    :class:`~repro.obs.Observability` instance cannot be shared across
    replicas, so it is rejected.

    *batching* is a :class:`~repro.serve.BatchingPolicy`;
    *arrival_mode* is ``"stream"`` (live 3 ms grids per shard) or
    ``"backlog"`` (replay/throughput: batches fill to ``max_batch``).

    *injector* arms every replica with the same fault specs + seed;
    fault schedules stay a pure function of (seed, spec, frame index)
    per shard, so worker count never perturbs the chaos (and the
    speculative ladder keeps the batched fast path live under it).

    *hosts* is a sequence of ``"host:port"`` addresses of running
    ``repro-hosts/1`` agents (``python -m repro.serve.remote``); when
    non-empty, ``serve()`` dispatches shard tasks across those agents
    (plus any local workers), each a link of one
    :class:`~repro.serve.workers.Pool` — bit-identical to the
    single-machine run, with partition-aware crash recovery.

    *plant* rides the (picklable) spec to every replica.  Closed-loop
    plants serve via ``farm.serve_plant(n_frames)``: each shard runs
    its own ordered closed-loop session, so per-stream bit-identity
    extends to the farm.
    """
    from repro.serve import FarmSpec, ShardedNodeFarm

    if isinstance(obs, Observability):
        raise TypeError(
            "build_farm needs a per-replica ObsConfig (or None), not a "
            "ready Observability — replicas cannot share one bundle")
    if not (obs is None or isinstance(obs, ObsConfig)):
        raise TypeError(f"obs must be ObsConfig or None, got {type(obs)!r}")
    spec = FarmSpec(model=model, fallback=fallback,
                    config=config or RuntimeConfig(), obs=obs,
                    injector=injector, plant=plant)
    return ShardedNodeFarm(spec, n_shards=n_shards, batching=batching,
                           seed=seed, arrival_mode=arrival_mode,
                           hosts=hosts)


def serve_frames(model, frames: np.ndarray, *,
                 workers: int = 4,
                 fallback: Optional[ModelLike] = None,
                 config: Optional[RuntimeConfig] = None,
                 obs: Optional[ObsConfig] = None,
                 plant: Optional[Plant] = None,
                 n_shards: int = 4,
                 batching=None,
                 seed: Optional[int] = 0,
                 arrival_mode: str = "stream",
                 **serve_kwargs):
    """Serve *frames* through a sharded farm; returns a ``FarmResult``.

    *model* is anything :func:`build_farm` accepts, or a ready
    :class:`~repro.serve.ShardedNodeFarm` (the remaining build keywords
    are then rejected, mirroring :func:`run_control_loop`'s runtime
    reuse).  ``workers >= 1`` runs the spawn worker pool; ``workers ==
    0`` runs the identical plan sequentially in-process — the
    bit-identity reference the tests and the ``serve_throughput``
    gate compare against.
    """
    from repro.serve import ShardedNodeFarm

    if isinstance(model, ShardedNodeFarm):
        overrides = {"fallback": fallback, "config": config, "obs": obs,
                     "batching": batching, "plant": plant}
        given = sorted(k for k, v in overrides.items() if v is not None)
        if given:
            raise TypeError(
                f"serve_frames got a ready farm plus build keywords "
                f"{given}; configure them in build_farm instead")
        farm = model
    else:
        if plant is not None and plant.closed_loop:
            raise ValueError(
                f"{type(plant).__name__} is closed-loop: it synthesises "
                f"its own frames — use build_farm(...).serve_plant(...)")
        farm = build_farm(model, fallback=fallback, config=config,
                          obs=obs, plant=plant, n_shards=n_shards,
                          batching=batching, seed=seed,
                          arrival_mode=arrival_mode)
    return farm.serve(np.asarray(frames, dtype=np.float64),
                      workers=workers, **serve_kwargs)


def start_daemon(model: ModelLike, *,
                 fallback: Optional[ModelLike] = None,
                 config: Optional[RuntimeConfig] = None,
                 obs: Optional[ObsConfig] = None,
                 injector: Optional[FaultInjector] = None,
                 plant: Optional[Plant] = None,
                 workers: int = 4,
                 batching=None,
                 seed: Optional[int] = 0,
                 queue_limit: int = 64,
                 arrival_mode: str = "stream",
                 host: str = "127.0.0.1",
                 port: int = 0,
                 **daemon_kwargs):
    """Launch the persistent serving daemon; returns a ``DaemonHandle``.

    The daemon listens on ``(host, port)`` (port 0 picks a free one —
    read ``handle.address``), spawns *workers* persistent warm worker
    processes once, and serves any number of concurrent client streams
    over the length-prefixed ``repro-serve/1`` protocol
    (:mod:`repro.serve.protocol`).  Each stream runs on its own
    persistent runtime replica with micro-batching per *batching*,
    bit-identical to the sequential per-stream reference
    (:func:`repro.serve.daemon.serve_streams_reference`).

    *queue_limit* bounds each stream's accepted-but-uncompleted queue;
    frames beyond it are shed at admission (reported per frame to the
    client and counted in ``FarmHealth.frames_shed``).  Use
    ``handle.drain()`` for the end-of-epoch report, ``handle.reload()``
    to swap in fresh workers without dropping the listener, and
    ``handle.stop()`` (or a ``with`` block) to tear down.

    Model/obs validation matches :func:`build_farm`.
    """
    from repro.serve import FarmSpec
    from repro.serve.daemon import DaemonHandle

    if isinstance(obs, Observability):
        raise TypeError(
            "start_daemon needs a per-replica ObsConfig (or None), not a "
            "ready Observability — replicas cannot share one bundle")
    if not (obs is None or isinstance(obs, ObsConfig)):
        raise TypeError(f"obs must be ObsConfig or None, got {type(obs)!r}")
    if plant is not None and plant.closed_loop:
        raise ValueError(
            f"{type(plant).__name__} is closed-loop: the daemon's "
            f"stream protocol ships caller frames — run it through "
            f"build_farm(...).serve_plant(...) instead")
    spec = FarmSpec(model=model, fallback=fallback,
                    config=config or RuntimeConfig(), obs=obs,
                    injector=injector, plant=plant)
    return DaemonHandle.launch(spec, workers=workers, batching=batching,
                               seed=seed, queue_limit=queue_limit,
                               arrival_mode=arrival_mode, host=host,
                               port=port, **daemon_kwargs)


def codesign_and_deploy(
    model: Model,
    x_profile: np.ndarray,
    *,
    constraints: Optional[DesignConstraints] = None,
    eval_frames: int = 100,
    verify_frames: int = 8,
    search=None,
) -> Tuple[CodesignResult, Deployment]:
    """Run the full paper pipeline for one trained model.

    Profiles → layer-based precision → reuse tuning → constraint checks →
    deployment on the simulated Achilles board → staged verification.
    Returns the chosen design point and the verified deployment.

    ``search`` engages the :mod:`repro.dse` autotuner instead of the
    paper's fixed strategy ladder: pass a mode string (``"random"`` /
    ``"grid"`` / ``"adaptive"``) or a ready
    :class:`~repro.dse.DSESettings`.  The DSE's recommended design is
    re-evaluated through the codesign optimizer (same accuracy/latency/
    fit verdicts as the ladder) and deployed; if the search finds no
    feasible design — or its recommendation fails the optimizer's
    checks — the pipeline falls back to the ladder, so ``search`` can
    only improve on the paper's design, never lose it.
    """
    x_profile = np.asarray(x_profile, dtype=np.float64)
    optimizer = CodesignOptimizer(model, x_profile, constraints,
                                  eval_frames=eval_frames)
    design = None
    if search is not None:
        from repro.dse import DSESettings, open_loop_problem, run_dse
        from repro.dse.space import build_config

        settings = (DSESettings(mode=search) if isinstance(search, str)
                    else search)
        problem = open_loop_problem(
            model, x_profile, constraints=constraints,
            eval_frames=eval_frames, profiles=optimizer.profiles,
            name="codesign")
        dse_result = run_dse(problem, settings=settings)
        if dse_result.recommended is not None:
            config = build_config(dse_result.recommended.candidate,
                                  model, optimizer.profiles)
            candidate_design = optimizer.evaluate(config)
            if candidate_design.feasible:
                design = candidate_design
    if design is None:
        design = optimizer.optimize()
    flat = x_profile[:verify_frames].reshape(verify_frames, -1)
    deployment = deploy(model, design.hls_model, flat)
    return design, deployment
