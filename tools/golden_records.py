"""Golden run records for behavior-preservation tests.

The `repro.plants` refactor moved the beam-loss data substrate behind
the :class:`~repro.plants.BeamLossPlant` interface.  The refactor claims
to be a pure re-plumbing: every run record the facade produced before
must come out bit-identical after.  This tool captured the reference
records *on the pre-refactor tree* and wrote them to
``tests/data/golden_beamloss.json``; ``tests/test_plants.py`` replays
the same three scenarios through the current code and compares the
serialized streams byte for byte.

A second fixture, ``tests/data/golden_cartpole.json``, pins the
one-frame tick path: two seeded closed-loop cartpole episodes, one clean
and one under a fault schedule, captured before the tick path's fixed
per-call cost was cut.  ``tests/test_plants.py`` replays them at compile
levels 0 and 2.  Unlike the compiled ≡ naive tests, a golden file does
not move when a change shifts both executors at once (seed derivation,
the draw streams, the per-frame ladder).

Floats are serialized with ``float.hex()`` so the comparison is exact
(no repr rounding, no JSON float round-trip ambiguity).

Usage (only needed to regenerate after an *intentional* behavior
change — never to paper over an accidental one)::

    PYTHONPATH=src python tools/golden_records.py            # beam loss
    PYTHONPATH=src python tools/golden_records.py cartpole   # cartpole
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

#: Frame-block length.  Small enough to keep the fixture and the replay
#: test cheap, long enough to cross micro-batch boundaries on the farm.
N_FRAMES = 24

#: Farm geometry for the serve scenario.
FARM_SHARDS = 2
FARM_MAX_BATCH = 8

SEED = 7

OUT_PATH = Path(__file__).resolve().parent.parent / "tests" / "data" / \
    "golden_beamloss.json"

#: Cartpole episode length, session seed and runtime seed.
CARTPOLE_TICKS = 300
CARTPOLE_SESSION_SEED = 3
CARTPOLE_SEED = 11

CARTPOLE_PATH = OUT_PATH.with_name("golden_cartpole.json")


def _hex(x: float) -> str:
    return float(x).hex()


def record_to_jsonable(rec) -> dict:
    """Exact, stable serialization of one FrameRecord."""
    d = rec.decision
    return {
        "frame_index": int(rec.frame_index),
        "hub_delay_s": _hex(rec.hub_delay_s),
        "node_latency_s": _hex(rec.node_latency_s),
        "decision": {
            "frame_index": int(d.frame_index),
            "machine": d.machine,
            "score": _hex(d.score),
            "latency_s": _hex(d.latency_s),
            "deadline_met": bool(d.deadline_met),
        },
        "status": rec.status,
        "engine": rec.engine,
        "fault_kinds": list(rec.fault_kinds),
        "substituted_hubs": [int(h) for h in rec.substituted_hubs],
        "publish_attempts": int(rec.publish_attempts),
        "published": bool(rec.published),
    }


def serialize_records(records) -> list:
    return [record_to_jsonable(r) for r in records]


def capture() -> dict:
    """Run the three scenarios on the current tree and serialize them."""
    from repro.core.api import RuntimeConfig, build_farm, run_control_loop
    from repro.pretrained import load_reference_bundle
    from repro.serve import BatchingPolicy

    bundle = load_reference_bundle(train_if_missing=False)
    frames = bundle.dataset.x_eval[:N_FRAMES]

    sequential = run_control_loop(
        bundle.unet, frames, seed=SEED,
        config=RuntimeConfig(batch_inference=False))
    compiled = run_control_loop(
        bundle.unet, frames, seed=SEED,
        config=RuntimeConfig(batch_inference=True, compile_level=2))

    farm = build_farm(bundle.unet,
                      config=RuntimeConfig(batch_inference=True),
                      n_shards=FARM_SHARDS,
                      batching=BatchingPolicy(max_batch=FARM_MAX_BATCH),
                      seed=SEED, arrival_mode="backlog")
    served = farm.serve_reference(frames)

    return {
        "meta": {
            "n_frames": N_FRAMES,
            "seed": SEED,
            "farm_shards": FARM_SHARDS,
            "farm_max_batch": FARM_MAX_BATCH,
            "scenarios": {
                "sequential": "RuntimeConfig(batch_inference=False)",
                "compiled": ("RuntimeConfig(batch_inference=True, "
                             "compile_level=2)"),
                "farm": (f"build_farm(n_shards={FARM_SHARDS}, "
                         f"BatchingPolicy(max_batch={FARM_MAX_BATCH}), "
                         f"arrival_mode='backlog').serve_reference"),
            },
        },
        "sequential": serialize_records(sequential.records),
        "compiled": serialize_records(compiled.records),
        "farm": serialize_records(served.records),
        "farm_outputs": [[_hex(v) for v in row] for row in served.outputs],
    }


def _cartpole_injector():
    """Every fault class the 8-monitor, 2-hub cartpole layout can take."""
    from repro.soc.faults import (
        ACNETFault,
        FaultInjector,
        HubDelayFault,
        HubDropFault,
        IPHangFault,
        LostIRQFault,
        NoisyMonitorFault,
        SEUFault,
        StuckMonitorFault,
    )

    return FaultInjector([
        # frame 0 has no last-known-good slice yet; six straight drops
        # outlast the staleness limit
        HubDropFault(hub=0, start=0, stop=1),
        HubDropFault(hub=1, start=150, stop=156),
        HubDropFault(rate=0.06),
        HubDelayFault(rate=0.04, delay_s=4e-3),
        StuckMonitorFault(monitor=5, value=0.25, rate=0.03),
        NoisyMonitorFault(monitor=2, sigma=0.5, rate=0.04),
        IPHangFault(rate=0.02),
        LostIRQFault(rate=0.02),
        SEUFault(rate=0.03, ram="output", bit=12),
        ACNETFault(rate=0.04, failures=2),
    ], seed=CARTPOLE_SEED)


def cartpole_episode(compile_level: int, faulted: bool) -> dict:
    """One seeded cartpole episode at *compile_level*, serialized."""
    from repro.core.api import RuntimeConfig, build_runtime
    from repro.plants import CartpolePlant, run_closed_loop

    plant = CartpolePlant()
    runtime = build_runtime(
        plant.default_model(), plant=plant,
        config=RuntimeConfig(compile_level=compile_level),
        injector=_cartpole_injector() if faulted else None)
    session = plant.session(CARTPOLE_SESSION_SEED)
    frames = hashlib.sha1()
    next_frame = session.next_frame

    def recorded_frame():
        frame = next_frame()
        frames.update(frame.tobytes())
        return frame

    session.next_frame = recorded_frame
    records = run_closed_loop(runtime, session, CARTPOLE_TICKS,
                              seed=CARTPOLE_SEED)
    return {
        "records": serialize_records(records),
        "frames_sha1": frames.hexdigest(),
        "failures": int(session.failures),
        "final_state": [_hex(v) for v in session.state],
    }


def capture_cartpole() -> dict:
    """The clean and the faulted cartpole episodes (naive executor)."""
    return {
        "meta": {
            "ticks": CARTPOLE_TICKS,
            "session_seed": CARTPOLE_SESSION_SEED,
            "seed": CARTPOLE_SEED,
            "compile_level": 0,
        },
        "clean": cartpole_episode(0, faulted=False),
        "faulted": cartpole_episode(0, faulted=True),
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["cartpole"]:
        golden = capture_cartpole()
        CARTPOLE_PATH.write_text(
            json.dumps(golden, separators=(",", ":")) + "\n")
        print(f"wrote {CARTPOLE_PATH} "
              f"({len(golden['clean']['records'])} clean records, "
              f"{len(golden['faulted']['records'])} faulted)")
        return 0
    if argv:
        print("usage: golden_records.py [cartpole]", file=sys.stderr)
        return 2
    golden = capture()
    OUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    OUT_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {OUT_PATH} "
          f"({len(golden['sequential'])} sequential records, "
          f"{len(golden['compiled'])} compiled, {len(golden['farm'])} farm)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
