"""Fault-taint model: which state can each fault class corrupt?

The batched fast path exists because the raw output words of a frame are
a pure function of the frame's input vector and the model — so a whole
block can be precomputed up front.  A fault breaks that purity in one of
exactly four ways, and the speculative execution ladder of
:class:`~repro.soc.runtime.CentralNodeRuntime` keys every invalidation
decision off this classification:

=============  ====================================  =====================
taint class    fault kinds                           corrupted state
=============  ====================================  =====================
INPUT          hub drop/delay, stuck/noisy monitor   this frame's input
                                                     vector (drops engage
                                                     last-known-good
                                                     substitution, monitor
                                                     faults rewrite
                                                     channels) — the
                                                     precomputed raw words
                                                     no longer describe
                                                     what the IP would see
MODEL_STATE    RAM SEU                               the on-chip buffers:
                                                     every frame from the
                                                     hit onward is suspect
                                                     until an in-line
                                                     frame has rewritten
                                                     the full RAM span
                                                     (the scrub)
TIMING         IP hang, lost IRQ                     deadlines, watchdog
                                                     and IRQ behaviour —
                                                     but **not** the raw
                                                     output words, which
                                                     stay bit-identical
POST           ACNET publish failure                 the uplink only; raw
                                                     outputs remain valid
=============  ====================================  =====================

Only INPUT and MODEL_STATE taint invalidate a precomputed raw row:
TIMING-tainted frames ride the speculative words through the unchanged
event-driven timing simulation (an over-budget or IRQ-less frame hangs
identically either way), and POST-tainted frames are pure publish-path
events.  ``HubDelayFault`` is classified as INPUT taint even though the
current hub model delivers the same payload late — in a fielded readout
chain a delayed packet may carry a different digitizer snapshot, and the
conservative class keeps the taint model honest if the hub model grows
that behaviour.

The MODEL_STATE propagation horizon is grounded in the board's buffer
design: both on-chip RAMs are rewritten over their full frame span every
frame (``AchillesBoard.process_frame`` writes ``n_inputs`` words, the IP
writes ``n_outputs`` words), so one completed in-line frame *after* the
hit scrubs the upset.  The hit frame itself cannot scrub — its input
upset lands after the HPS write and its output upset after the compute.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.soc.faults import FaultEvent, FaultKind, FaultSchedule

__all__ = [
    "TaintClass",
    "FrameTaint",
    "TAINT_OF",
    "CAUSE_INPUT",
    "CAUSE_MODEL_STATE",
    "CAUSE_FALLBACK",
    "INVALIDATION_CAUSES",
    "classify_events",
    "taint_of",
    "speculation_mask",
]


class TaintClass(enum.Enum):
    """What a fault can corrupt (see the module table)."""

    INPUT = "input"              # this frame's input vector
    MODEL_STATE = "model_state"  # on-chip RAM state, hit frame onward
    TIMING = "timing"            # deadlines/IRQ only; raw words valid
    POST = "post"                # publish path only; raw words valid


#: Every :class:`FaultKind` maps to exactly one taint class; the
#: exhaustiveness is pinned by ``tests/test_faults.py`` so a new fault
#: kind cannot silently default to "speculation-safe".
TAINT_OF: Dict[FaultKind, TaintClass] = {
    FaultKind.HUB_DROP: TaintClass.INPUT,
    FaultKind.HUB_DELAY: TaintClass.INPUT,
    FaultKind.STUCK_MONITOR: TaintClass.INPUT,
    FaultKind.NOISY_MONITOR: TaintClass.INPUT,
    FaultKind.SEU: TaintClass.MODEL_STATE,
    FaultKind.IP_HANG: TaintClass.TIMING,
    FaultKind.LOST_IRQ: TaintClass.TIMING,
    FaultKind.ACNET_FAIL: TaintClass.POST,
}

#: Invalidation-cause labels used in ``spec.invalidated.<cause>``
#: counters and :attr:`HealthReport.invalidation_counts`.  ``fallback``
#: is not a taint class: it marks frames the hysteresis ladder moved to
#: the fallback engine, whose precomputed (primary-model) rows are
#: therefore the wrong model's outputs.
CAUSE_INPUT = TaintClass.INPUT.value
CAUSE_MODEL_STATE = TaintClass.MODEL_STATE.value
CAUSE_FALLBACK = "fallback"
INVALIDATION_CAUSES: Tuple[str, ...] = (CAUSE_INPUT, CAUSE_MODEL_STATE,
                                        CAUSE_FALLBACK)


def taint_of(kind: FaultKind) -> TaintClass:
    """The taint class of one fault kind (raises on an unmapped kind)."""
    try:
        return TAINT_OF[kind]
    except KeyError:  # pragma: no cover - enum and map move together
        raise KeyError(f"fault kind {kind!r} has no taint classification; "
                       f"extend repro.soc.taint.TAINT_OF")


@dataclass(frozen=True)
class FrameTaint:
    """The taint set of one frame's fault events."""

    input: bool = False
    model_state: bool = False
    timing: bool = False
    post: bool = False

    @property
    def invalidates_raw(self) -> bool:
        """Whether the frame's precomputed raw row must be discarded
        (MODEL_STATE forward propagation is the runtime's job — this is
        the hit-frame view only)."""
        return self.input or self.model_state

    @property
    def clean(self) -> bool:
        return not (self.input or self.model_state or self.timing
                    or self.post)


def classify_events(events: Sequence[FaultEvent]) -> FrameTaint:
    """Fold one frame's fault events into its :class:`FrameTaint`."""
    if not events:
        return _CLEAN
    flags = {c: False for c in TaintClass}
    for e in events:
        flags[taint_of(e.kind)] = True
    return FrameTaint(
        input=flags[TaintClass.INPUT],
        model_state=flags[TaintClass.MODEL_STATE],
        timing=flags[TaintClass.TIMING],
        post=flags[TaintClass.POST],
    )


_CLEAN = FrameTaint()


def speculation_mask(schedule: FaultSchedule, start: int, n: int,
                     model_tainted: bool = False) -> np.ndarray:
    """Static raw-validity mask for a speculative block, shape ``(n,)``.

    ``mask[i]`` is True when frame ``start + i``'s precomputed raw row
    is *worth computing*: no INPUT or MODEL_STATE taint lands on the
    frame, and it is not inside the statically-known propagation window
    of an earlier SEU hit (the hit frame plus one — the first post-hit
    frame always replays in-line, and its completed pass is the scrub).
    ``model_tainted`` marks taint carried in from a previous block, which
    masks frame 0 (its in-line replay scrubs).

    The mask is an *optimization bound*, not the correctness gate: the
    runtime re-validates every frame dynamically (a scrub frame that
    hangs keeps the taint alive past the static window) and only ever
    consumes rows the mask requested — so a dynamically-extended taint
    costs a wasted precomputed row, never a corrupt one.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    mask = np.ones(n, dtype=bool)
    if model_tainted and n:
        mask[0] = False
    for i in range(n):
        taint = classify_events(schedule.for_frame(start + i))
        if taint.invalidates_raw:
            mask[i] = False
        if taint.model_state and i + 1 < n:
            mask[i + 1] = False  # the designated scrub frame
    return mask
