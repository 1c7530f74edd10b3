"""remote-bench — cross-host shard serving over ``repro-hosts/1``.

serve-bench and daemon-bench pin the determinism contract for a farm
and a socket daemon on *one* machine; this harness extends the proof
across the host boundary.  Two localhost host agents
(:func:`~repro.serve.remote.spawn_agent` — separate processes, real
TCP, separate worker pools) take the farm's shard tasks as links of
one :class:`~repro.serve.workers.Pool`, and every output row must be
bit-identical to the sequential in-process reference.  The second
round SIGKILLs one agent mid-flight: the pool must detect the
partition, requeue that host's in-flight shards onto the survivors
under the restart budget, and *still* reproduce the reference word for
word — the cross-host incarnation of the worker-crash recovery pledge.
The agent that is closed normally must shut its pool down in order and
exit 0.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

from repro.core.api import RuntimeConfig
from repro.experiments.common import ExperimentResult, bundle, converted
from repro.serve.farm import ShardedNodeFarm
from repro.serve.remote import spawn_agent
from repro.serve.workers import FarmSpec
from repro.utils.tables import Table

__all__ = ["run"]


def run(fast: bool = False) -> ExperimentResult:
    """Serve one frame block across two host agents; kill one mid-run."""
    b = bundle()
    unet_hls = converted("Layer-based Precision ac_fixed<16, x>")
    n_frames = 48 if fast else 192
    n_shards = 4
    frames = b.dataset.x_eval[:n_frames]
    spec = FarmSpec(model=unet_hls,
                    config=RuntimeConfig(batch_inference=True))

    farm_ref = ShardedNodeFarm(spec, n_shards=n_shards, seed=11)
    ref = farm_ref.serve_reference(frames)

    rows: List[List[str]] = []
    divergent: List[str] = []

    with spawn_agent(workers=2) as a1, spawn_agent(workers=2) as a2:
        # Round 1: clean run split across both agents, zero local
        # workers — every frame crosses the wire twice.
        farm = ShardedNodeFarm(spec, n_shards=n_shards, seed=11,
                               hosts=[a1.address, a2.address])
        t0 = time.perf_counter()
        res = farm.serve(frames, workers=0)
        wall = time.perf_counter() - t0
        same = bool(np.array_equal(res.outputs, ref.outputs))
        if not same:
            divergent.append("clean 2-host run diverged from reference")
        rows.append(["2 hosts, clean", "yes" if same else "NO",
                     str(res.health.host_failures),
                     str(res.health.requeued_tasks),
                     f"{n_frames / wall:.0f}"])

        # Round 2: warm pool, SIGKILL agent 2 while its shards are in
        # flight.  Partition-aware recovery must requeue them onto
        # agent 1 and keep the outputs bit-identical.
        farm2 = ShardedNodeFarm(spec, n_shards=n_shards, seed=11,
                                hosts=[a1.address, a2.address])
        pool = farm2.start_pool(workers=0)
        try:
            t0 = time.perf_counter()
            tasks = farm2.plan(n_frames, frames=frames).tasks
            handle = pool.submit(tasks)
            a2.kill()                      # hard partition, mid-run
            pool.wait(handle)
            wall2 = time.perf_counter() - t0
            # Shard s holds global rows s, s + n_shards, ...
            same2 = all(np.array_equal(handle.results[t.task_id].rows,
                                       ref.outputs[t.session::n_shards])
                        for t in tasks)
            if not same2:
                divergent.append("post-partition run diverged "
                                 "from reference")
            if pool.stats.host_failures < 1:
                divergent.append("SIGKILL did not register as a "
                                 "host partition")
            rows.append(["2 hosts, one SIGKILLed mid-run",
                         "yes" if same2 else "NO",
                         str(pool.stats.host_failures),
                         str(pool.stats.requeued_tasks),
                         f"{n_frames / wall2:.0f}"])
        finally:
            pool.close()
    # a2 was SIGKILLed; a1 got the normal close (SIGTERM).
    if a1.proc.returncode != 0:
        raise AssertionError(
            f"host agent exited with {a1.proc.returncode} on close, not 0: "
            f"its workers were not shut down in order")

    t = Table(["Topology", "Identical", "Host partitions",
               "Requeued shards", "Throughput (fps)"],
              title="Remote-bench: shard serving across two host "
                    "agents (repro-hosts/1)")
    for r in rows:
        t.add_row(r)
    if divergent:
        raise AssertionError("remote-bench identity violations: "
                             + "; ".join(divergent))
    notes = [
        f"{n_frames} frames x {n_shards} shards over 2 localhost "
        f"agents (2 workers each); outputs bit-identical to the "
        f"sequential reference in both rounds",
        "partition recovery: killing an agent mid-run requeues its "
        "in-flight shards onto the survivor under the restart budget",
        "the surviving agent exits 0 on close (SIGTERM stops it like "
        "Ctrl-C: pool closed, workers joined)",
    ]
    return ExperimentResult(name="remote-bench", table=t, notes=notes)
