"""The serving daemon under test, and what the serving workloads share.

The daemon runs in a process of its own: the paper's U-Net design
behind ``repro.start_daemon`` with compile level 2, two workers, the
default ``BatchingPolicy`` and stream arrivals.  The workload's own
process is the load generator: one thread and its ``StreamClient``
connections, so it never competes for the daemon's GIL.  Nothing here
pins BLAS threads.

The per-stream ingress closes a micro-batch only when the next frame of
the stream arrives (or at end of stream), and a stream has at most one
batch in flight at a time.
"""

from __future__ import annotations

import multiprocessing
import pickle
import selectors
from time import perf_counter
from typing import Callable, Dict, List

import numpy as np

from perfbench.common import pct_ms, self_peak_rss_mib, vm_hwm_mib

WORKERS = 2
#: Stream ids of the warm-up streams (one frame each, one per worker),
#: apart from the timed streams' ids 0, 1, ...
WARMUP_STREAMS = (1000, 1001)
#: Bounds on waits for the daemon host and for results (s).
SETUP_TIMEOUT_S = 150.0
SETTLE_TIMEOUT_S = 60.0


# ----------------------------------------------------------------------
# Daemon host process
# ----------------------------------------------------------------------
def host_main(conn, daemon_seed: int) -> None:
    """Build the design, start the daemon and serve commands on *conn*.

    Commands: ``drain`` (reply: the epoch's ``DaemonReport``), ``trace``
    (reload the pool with kernel-span observability on), ``stop`` (reply:
    peak RSS of this process and its workers, MiB).
    """
    from perfbench.program import import_program

    import_program()
    from repro import ObsConfig, RuntimeConfig, load_pretrained, start_daemon
    from repro.hls.converter import convert
    from repro.hls.precision import layer_based_config
    from repro.serve import FarmSpec

    handle = None
    try:
        config = RuntimeConfig(compile_level=2)
        t0 = perf_counter()
        bundle = load_pretrained()
        t1 = perf_counter()
        hls_config = layer_based_config(
            bundle.unet, bundle.dataset.unet_inputs(bundle.dataset.x_train),
            width=config.profile_width)
        t2 = perf_counter()
        hls = convert(bundle.unet, hls_config)
        t3 = perf_counter()
        handle = start_daemon(hls, config=config, workers=WORKERS,
                              seed=daemon_seed)
        t4 = perf_counter()
        conn.send(("ready", {
            "address": handle.address,
            "design": pickle.dumps(hls),
            "setup.load_s": t1 - t0,
            "setup.profile_s": t2 - t1,
            "setup.convert_s": t3 - t2,
            "setup.daemon_start_s": t4 - t3,
        }))
        while True:
            command = conn.recv()
            if command == "drain":
                conn.send(("report", handle.drain()))
            elif command == "trace":
                handle.reload(FarmSpec(
                    model=hls, config=config,
                    obs=ObsConfig(trace_kernels=True, max_spans=None)))
                conn.send(("traced", None))
            elif command == "stop":
                rss = self_peak_rss_mib() + sum(
                    vm_hwm_mib(p.pid) for p in multiprocessing.active_children())
                handle.stop()
                handle = None
                conn.send(("stopped", rss))
                return
            else:
                raise ValueError(f"unknown command {command!r}")
    finally:
        if handle is not None:
            handle.stop()
        conn.close()


def _expect(conn, kind: str, timeout_s: float):
    if not conn.poll(timeout_s):
        raise TimeoutError(f"daemon host sent no {kind!r} in {timeout_s:.0f}s")
    got, payload = conn.recv()
    if got != kind:
        raise RuntimeError(f"daemon host replied {got!r}, expected {kind!r}")
    return payload


class DaemonHost:
    """The daemon host process, driven over a pipe.

    Use as a context manager: on exit the host is stopped, and killed if
    it does not end in time.
    """

    def __init__(self, daemon_seed: int):
        ctx = multiprocessing.get_context("spawn")
        self.conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(target=host_main,
                                   args=(child_conn, daemon_seed),
                                   name="perfbench-daemon-host")
        self.process.start()
        child_conn.close()
        self.ready: Dict = {}

    def __enter__(self) -> "DaemonHost":
        return self

    def __exit__(self, *exc) -> None:
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(10.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()
        self.conn.close()

    @property
    def address(self):
        return self.ready["address"]

    def wait_ready(self, frame: np.ndarray) -> float:
        """Wait for the daemon, then warm both workers up with *frame*;
        returns the time the daemon reported ready."""
        self.ready = _expect(self.conn, "ready", SETUP_TIMEOUT_S)
        t_ready = perf_counter()
        warm_up(self.address, frame)
        return t_ready

    def drain(self):
        """The ``DaemonReport`` of the epoch so far."""
        self.conn.send("drain")
        return _expect(self.conn, "report", SETTLE_TIMEOUT_S)

    def trace(self, frame: np.ndarray) -> None:
        """Reload the pool with kernel spans on, and warm it up."""
        self.conn.send("trace")
        _expect(self.conn, "traced", SETUP_TIMEOUT_S)
        warm_up(self.address, frame)

    def stop(self) -> float:
        """Stop the daemon; peak RSS of its processes, MiB."""
        self.conn.send("stop")
        rss = _expect(self.conn, "stopped", SETTLE_TIMEOUT_S)
        self.process.join(SETTLE_TIMEOUT_S)
        return rss

    def spec(self):
        """The daemon's design as a ``FarmSpec``, for the reference."""
        from repro import RuntimeConfig
        from repro.serve import FarmSpec

        return FarmSpec(model=pickle.loads(self.ready["design"]),
                        config=RuntimeConfig(compile_level=2))

    def setup_layers(self, t_ready: float, t_warm: float) -> Dict[str, float]:
        """``setup.*`` rows of the serving set-up."""
        out = {f"setup.{key}_s": self.ready[f"setup.{key}_s"]
               for key in ("load", "profile", "convert", "daemon_start")}
        out["setup.first_result_s"] = t_warm - t_ready
        return out


# ----------------------------------------------------------------------
# Client side
# ----------------------------------------------------------------------
class Streams:
    """The generator's client connections, with result arrival times."""

    def __init__(self, address, stream_ids):
        from repro.serve import StreamClient

        host, port = address
        self.clients = [StreamClient(host, port, stream_id=sid)
                        for sid in stream_ids]
        self.arrived: List[Dict[int, float]] = [{} for _ in self.clients]
        self.sel = selectors.DefaultSelector()
        for k, client in enumerate(self.clients):
            self.sel.register(client.sock, selectors.EVENT_READ, k)

    def collect(self, k: int) -> None:
        client = self.clients[k]
        client.pump()
        now = perf_counter()
        arrived = self.arrived[k]
        new = len(client.results) - len(arrived)
        if new:
            for seq in list(client.results)[-new:]:
                arrived[seq] = now

    def wait(self, timeout_s: float) -> List[int]:
        """Collect what arrives within *timeout_s*; the streams that got
        something."""
        ready = [key.data for key, _ in self.sel.select(max(timeout_s, 0.0))]
        for k in ready:
            self.collect(k)
        return ready

    def wait_until(self, t: float) -> float:
        """Collect results until wall time *t*; returns the time."""
        while True:
            now = perf_counter()
            if now >= t:
                return now
            self.wait(t - now)

    def settle(self, timeout_s: float) -> None:
        """End every stream and collect until all frames are answered."""
        for client in self.clients:
            client.send_eos()
        deadline = perf_counter() + timeout_s
        while not all(c.eos_seen and c.settled() for c in self.clients):
            for c in self.clients:
                if c.errors:
                    raise RuntimeError(f"daemon error: {c.errors[0]}")
            if perf_counter() > deadline:
                return
            self.wait(0.25)

    def close(self) -> None:
        self.sel.close()
        for client in self.clients:
            client.close()


def warm_up(address, frame: np.ndarray) -> None:
    """One frame on each warm-up stream, both in flight at once, so each
    worker builds its replica before the timed phase."""
    streams = Streams(address, WARMUP_STREAMS)
    try:
        for client in streams.clients:
            client.send(frame)
        streams.settle(SETUP_TIMEOUT_S)
        if not all(len(c.results) == 1 for c in streams.clients):
            raise RuntimeError("warm-up frames got no result")
    finally:
        streams.close()


# ----------------------------------------------------------------------
# Correctness gate and per-layer rows
# ----------------------------------------------------------------------
def gate(frames: List[np.ndarray], results, shed, spec,
         daemon_seed: int) -> dict:
    """Compare every result row with ``serve_streams_reference`` run over
    that stream's accepted subsequence; returns per-frame accounting.

    *frames[k]* holds stream *k*'s frames in sequence order, *results[k]*
    its result rows by sequence number and *shed[k]* the sequence numbers
    the daemon refused.
    """
    from repro.serve import serve_streams_reference

    streams = range(len(frames))
    accepted = [[j for j in range(len(frames[k])) if j not in shed[k]]
                for k in streams]
    reference = serve_streams_reference(
        spec, {k: frames[k][accepted[k]] for k in streams}, seed=daemon_seed)
    diverged = missing = 0
    for k in streams:
        rows = reference[k].rows
        for i, j in enumerate(accepted[k]):
            got = results[k].get(j)
            if got is None:
                missing += 1
            elif not np.array_equal(np.asarray(got).view(np.int64),
                                    rows[i].view(np.int64)):
                diverged += 1
    return {"diverged": diverged, "missing": missing, "accepted": accepted,
            "batches": {k: reference[k].batches for k in streams}}


def ingress_holds_s(gate_out: dict, k: int,
                    sent_at: Callable[[int], float]) -> List[float]:
    """Ingress hold of stream *k*'s accepted frames: from a frame's send
    to the send of the frame whose arrival closed its micro-batch (the
    tail batch, closed by end of stream, is left out)."""
    accepted = gate_out["accepted"][k]
    holds = []
    for a, b in gate_out["batches"][k]:
        if b < len(accepted):
            close_t = sent_at(accepted[b])
            holds.extend(close_t - sent_at(j) for j in accepted[a:b])
    return holds


def serve_layers(report, ledger) -> Dict[str, float]:
    """Per-layer rows of a traced epoch: ``DaemonReport`` counts, its
    ``repro-obs/1`` kernel spans and the client's send wrapper."""
    warm = len(WARMUP_STREAMS)
    stages = report.obs["spans"]["stages_wall"]
    frames = report.frames_total

    def total(name):
        s = stages.get(name, {})
        return s.get("count", 0) * s.get("mean_s", 0.0)

    steps = {name[len("step."):]: total(name) for name in stages
             if name.startswith("step.")}
    calls = max((stages[f"step.{s}"]["count"] for s in steps), default=0)
    out = {
        "serve.client.send_us": ledger.per_call_us("serve.client.send"),
        "serve.batch_frames_mean": ((frames - warm) / (report.batches - warm)
                                    if report.batches > warm else 0.0),
        "serve.shed": float(report.frames_shed),
        "serve.worker_restarts": float(report.worker_restarts),
        "serve.requeued_tasks": float(report.requeued_tasks),
        "serve.worker.us_per_frame": (
            (total("batch_precompute") + total("frame")) / frames * 1e6),
        "hls.predict.calls": float(calls),
        "hls.predict.frames_per_call": frames / calls if calls else 0.0,
        "hls.predict.us_per_frame": sum(steps.values()) / frames * 1e6,
        "obs.spans_per_frame": report.obs["spans"]["count"] / frames,
    }
    for step, seconds in steps.items():
        out[f"hls.step.{step}.us_per_frame"] = seconds / frames * 1e6
    return out


def unmeasured_layers() -> Dict[str, str]:
    """Per-layer rows the generator cannot read on a serving workload."""
    out = {"setup.compile_s": (
        "compilation runs inside each worker on its first task; it is "
        "part of setup.first_result_s")}
    for name in ("soc.precompute.self_us_per_frame",
                 "soc.board.us_per_frame", "soc.runtime.self_us_per_call",
                 "soc.frames_batched_frac"):
        out[name] = ("runs inside the worker processes, out of reach of the "
                     "generator's wrappers; their compute per frame is "
                     "serve.worker.us_per_frame")
    return out


def node_p99_ms(results, first: int) -> float:
    """p99 of ``node_latency_s`` over the first *first* sequence numbers
    of every stream that have a result row."""
    from repro.serve.workers import OUTPUT_COLUMNS

    col = OUTPUT_COLUMNS.index("node_latency_s")
    node = [rows[j][col] for rows in results for j in range(first)
            if j in rows]
    return pct_ms(node, 99)
