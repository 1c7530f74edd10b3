"""repro.serve — the sharded multi-worker serving front-end.

Scales the single :class:`~repro.soc.runtime.CentralNodeRuntime` to a
farm of stream shards (the "many BLM streams, many nodes" deployment of
the distributed-readout companion paper) without giving up the repo's
load-bearing property: **bit-exact determinism**.  A farm run on a
spawn-based worker pool produces the same :class:`FrameRecord` stream,
word for word, as the same plan executed sequentially in one process —
for every worker count and every compile level.

Layering (bottom up):

* :mod:`repro.serve.sharding` — round-robin stream shards + spawn-key
  seed derivation,
* :mod:`repro.serve.batching` — deadline-aware micro-batch planning on
  the simulated arrival clock,
* :mod:`repro.serve.workers` — picklable replica specs, the one task
  (a seeded session resumed at a frame), and the one pool whose links
  are local spawn workers or host agents, with crash recovery,
* :mod:`repro.serve.merge` — per-shard metrics/span snapshot merging
  into one ``repro-obs/1`` export,
* :mod:`repro.serve.health` — :class:`FarmHealth` aggregation,
* :mod:`repro.serve.farm` — :class:`ShardedNodeFarm`, tying it all
  together,
* :mod:`repro.serve.protocol` — the ``repro-serve/1`` length-prefixed
  wire protocol (sans-io decoder + blocking :class:`StreamClient`),
* :mod:`repro.serve.daemon` — :class:`ServingDaemon`, the persistent
  socket-serving front: warm worker pool, per-stream micro-batching,
  admission control, drain/reload,
* :mod:`repro.serve.remote` — the ``repro-hosts/1`` cross-host task
  transport: :class:`HostAgent` processes run tasks for pool links on
  other machines, with partition-aware recovery,
* :mod:`repro.serve.replay` — seeded bursty traffic-replay load
  generation and its deterministic admission simulation.

See docs/serving.md for the architecture and the determinism contract;
``repro.core.api`` exposes the :func:`~repro.core.api.build_farm` /
:func:`~repro.core.api.serve_frames` /
:func:`~repro.core.api.start_daemon` facade.
"""

from repro.serve.batching import BatchingPolicy, MicroBatcher, plan_microbatches
from repro.serve.daemon import (
    DaemonHandle,
    DaemonReport,
    ServingDaemon,
    StreamIngress,
    drive_streams,
    serve_streams_reference,
)
from repro.serve.farm import FarmPlan, FarmResult, ShardedNodeFarm
from repro.serve.health import FarmHealth, merge_shard_health
from repro.serve.merge import merge_metrics_snapshots, merge_obs_snapshots
from repro.serve.protocol import MessageDecoder, MsgKind, ProtocolError, StreamClient
from repro.serve.replay import (
    BurstModel,
    ReplaySchedule,
    ReplaySim,
    simulate_admission,
    synth_schedule,
)
from repro.serve.sharding import ShardPlan, shard_seed
from repro.serve.workers import (
    OUTPUT_COLUMNS,
    STATUS_CODES,
    BlockHandle,
    FarmSpec,
    Pool,
    PoolStats,
    ReplicaSource,
    Task,
    TaskResult,
    WorkerCrashError,
    execute_task,
)

__all__ = [
    "BatchingPolicy",
    "MicroBatcher",
    "plan_microbatches",
    "FarmPlan",
    "FarmResult",
    "ShardedNodeFarm",
    "FarmHealth",
    "merge_shard_health",
    "merge_metrics_snapshots",
    "merge_obs_snapshots",
    "ShardPlan",
    "shard_seed",
    "FarmSpec",
    "Task",
    "TaskResult",
    "WorkerCrashError",
    "Pool",
    "PoolStats",
    "BlockHandle",
    "ReplicaSource",
    "execute_task",
    "OUTPUT_COLUMNS",
    "STATUS_CODES",
    "ServingDaemon",
    "DaemonHandle",
    "DaemonReport",
    "StreamIngress",
    "serve_streams_reference",
    "drive_streams",
    "MessageDecoder",
    "MsgKind",
    "ProtocolError",
    "StreamClient",
    "HostAgent",
    "AgentProcess",
    "spawn_agent",
    "BurstModel",
    "ReplaySchedule",
    "ReplaySim",
    "synth_schedule",
    "simulate_admission",
]

# repro.serve.remote doubles as the host-agent entry point
# (``python -m repro.serve.remote``); importing it eagerly here would
# make runpy warn about the module being in sys.modules before it runs
# as __main__.  Resolve its exports lazily instead (PEP 562).
_REMOTE_EXPORTS = ("HostAgent", "AgentProcess", "spawn_agent")


def __getattr__(name):
    if name in _REMOTE_EXPORTS:
        from repro.serve import remote
        return getattr(remote, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
