#!/usr/bin/env python
"""Quickstart: the ``repro.core.api`` facade, end to end.

Loads the pre-trained de-blending U-Net, runs the ML/HLS co-design
pipeline (profile → layer-based precision → constraint checks), deploys
the winning design on the simulated Achilles Arria 10 board, verifies it
with the staged flow, then drives live frames through the hardened
control loop with the observability layer on and reads the latency
figures back out of the recorded spans.

Run:  python examples/quickstart.py
"""

import numpy as np

import repro


def main() -> None:
    print("loading pre-trained bundle (dataset + U-Net) ...")
    bundle = repro.load_pretrained()
    dataset = bundle.dataset

    print("running ML/HLS co-design ...")
    design, deployment = repro.codesign_and_deploy(
        bundle.unet,
        dataset.unet_inputs(dataset.x_train[:300]),
        eval_frames=100,
        verify_frames=6,
    )
    print(f"  chosen design: {design.describe()}")
    print(f"  verification: "
          f"{'ALL PASS' if deployment.verified else 'FAILURES'}")
    for stage in deployment.verification:
        print(f"    {stage}")

    print("\ndeployment summary:")
    lat_ms = deployment.system_latency_s * 1e3
    print(f"  system latency : {lat_ms:.2f} ms (paper: 1.74 ms)")
    print(f"  throughput     : {deployment.throughput_fps:.0f} fps "
          f"(requirement: 320 fps, paper: 575 fps)")
    print(f"  meets contract : {deployment.meets_requirement()}")

    print("\ndriving 64 live frames through the hardened control loop "
          "(observability on) ...")
    result = repro.run_control_loop(
        design.hls_model,
        dataset.x_eval[:64],
        config=repro.RuntimeConfig(compile_level=2),
        obs=repro.ObsConfig(flight_frames=64),
    )
    node_ms = result.total_latencies_s * 1e3
    print(f"  frames processed : {result.health.frames_total} "
          f"(status: {result.health.status_counts})")
    print(f"  total latency     : mean {node_ms.mean():.3f} ms, "
          f"p99 {float(np.percentile(node_ms, 99)):.3f} ms")
    snap = result.obs.metrics.snapshot()
    print(f"  deadline misses  : "
          f"{snap['counters'].get('frames.deadline_miss', 0)}")
    tree = result.obs.tracer.frame_tree(0)
    stages = ", ".join(c["name"] for c in tree["children"])
    print(f"  frame 0 span tree: frame -> {stages}")


if __name__ == "__main__":
    main()
