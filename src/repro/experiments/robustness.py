"""Robustness sweep — chaos run of the hardened central-node runtime.

Not a paper table: the paper ships the happy path and verifies it with
testbenches, SignalTap and the in-system memory editor.  This harness
exercises the *unhappy* paths a fielded machine-protection node sees
(documented in the companion readout paper): every fault class is
injected into a stretch of eval frames on the deployed U-Net board, with
the Table 3 MLP board standing by as the degraded-mode fallback, and the
resulting :class:`~repro.soc.runtime.HealthReport` is printed.

The invariant under test is *zero silent failures*: every frame produces
a record, and every injected fault is absorbed, recorded as degraded, or
explicitly detected.

The sweep runs with the speculative fault-aware ladder engaged (the
deployment default) and replays the identical chaos on a sequential
reference runtime: the two record streams must be bit-identical, or the
harness raises — the CI chaos-smoke step runs exactly this check.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, bundle, converted
from repro.hls.converter import convert
from repro.hls.precision import uniform_config
from repro.soc.board import AchillesBoard
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
from repro.soc.runtime import CentralNodeRuntime, DegradationPolicy
from repro.utils.tables import Table

__all__ = ["run", "default_fault_specs"]


def default_fault_specs():
    """The chaos-sweep fault mix: every fault class at a moderate rate."""
    return [
        HubDropFault(rate=0.08),
        HubDelayFault(rate=0.04, delay_s=4e-3),
        StuckMonitorFault(monitor=17, value=4.0, rate=0.10),
        NoisyMonitorFault(monitor=129, sigma=8.0, rate=0.10),
        IPHangFault(rate=0.04, extra_s=5e-3),
        LostIRQFault(rate=0.04),
        SEUFault(rate=0.10, ram="output"),
        SEUFault(rate=0.05, ram="input"),
        ACNETFault(rate=0.08, failures=1),
        ACNETFault(rate=0.02, failures=5),
    ]


def run(fast: bool = False) -> ExperimentResult:
    """Chaos-sweep the hardened runtime and summarise its health."""
    b = bundle()
    unet_hls = converted("Layer-based Precision ac_fixed<16, x>")
    mlp_hls = convert(b.mlp, uniform_config(16, 7))
    n_frames = 48 if fast else 200

    def make_runtime(**overrides):
        return CentralNodeRuntime(
            board=AchillesBoard(unet_hls),
            fallback_board=AchillesBoard(mlp_hls),
            injector=FaultInjector(default_fault_specs(), seed=2024),
            policy=DegradationPolicy(miss_threshold=2, recovery_streak=8),
            **overrides,
        )

    runtime = make_runtime()  # the speculative batched fast path
    records = runtime.run(b.dataset.x_eval[:n_frames], seed=7)
    health = runtime.health_report()

    # Chaos bit-identity: the speculative ladder must replay the exact
    # sequential reference under the same schedule, bit for bit.
    reference = make_runtime(batch_inference=False)
    ref_records = reference.run(b.dataset.x_eval[:n_frames], seed=7)
    if records != ref_records:
        raise AssertionError(
            "speculative chaos run diverged from the sequential reference")

    t = Table(["Robustness Metric", "Value"],
              title="Robustness: chaos sweep of the hardened runtime")
    t.add_row(["Frames processed", health.frames_total])
    for status, count in sorted(health.status_counts.items()):
        t.add_row([f"Frames {status}", count])
    for kind, count in sorted(health.fault_counts.items()):
        t.add_row([f"Injected {kind}", count])
    t.add_row(["Frames speculated (fast path)", health.frames_speculated])
    t.add_row(["Frames replayed in-line", health.frames_replayed])
    for cause, count in sorted(health.invalidation_counts.items()):
        t.add_row([f"Invalidated ({cause})", count])
    t.add_row(["Watchdog trips", health.watchdog_trips])
    t.add_row(["Hub slices substituted", health.substituted_slices])
    t.add_row(["Degradation transitions", len(health.transitions)])
    t.add_row(["Deadline miss rate", f"{health.deadline_miss_rate:.2%}"])
    t.add_row(["Publish retries", health.publish_retries])
    t.add_row(["Dead letters", health.dead_letters])

    flagged = sum(1 for r in records if r.flagged)
    faulted = sum(1 for r in records if r.fault_kinds)
    silent = sum(
        1 for r in records
        if r.fault_kinds and not r.flagged
    )
    notes = [
        f"records emitted for every frame: {len(records)}/{n_frames}",
        f"frames hit by injected faults: {faulted}; flagged records: {flagged}",
        f"silent fault failures (must be 0): {silent}",
        f"speculative run bit-identical to sequential reference: "
        f"{records == ref_records} "
        f"({health.frames_speculated} speculated, "
        f"{health.frames_replayed} replayed)",
        "degradation ladder: full -> last-known-good -> MLP fallback -> "
        "no-trip (docs/robustness.md)",
    ]
    notes.append(health.render())
    if silent:
        raise AssertionError(
            f"{silent} injected-fault frames produced unflagged records"
        )
    return ExperimentResult(name="robustness", table=t, notes=notes)
