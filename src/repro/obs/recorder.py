"""Bounded JSONL flight recorder for post-mortem dumps.

A machine-protection node cannot keep every frame forever, but when the
watchdog trips or the output guard rejects a frame, the operator needs
the *recent past*, not just the aggregate counters.  The
:class:`FlightRecorder` keeps the last N per-frame entries (status,
latency breakdown, span tree, fault kinds) in a ring; on a trip it
freezes a copy of the ring — a **post-mortem** — and optionally appends
it to a JSONL dump file.

Entries are plain JSON-safe dicts; the JSONL form is one frame entry
per line, so dumps stream into standard tooling (``jq``, pandas).  A
frame's spans are kept as the tracer's finished :class:`Span` objects
and rendered into the entry only when the ring is read (a trip, a dump,
:meth:`FlightRecorder.entries`), so recording costs no per-frame
serialisation.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import (Any, Deque, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from repro.obs.spans import Span

__all__ = ["FlightRecorder"]


class FlightRecorder:
    """Ring buffer of per-frame observability entries.

    Parameters
    ----------
    capacity:
        Frames retained in the ring (the "last N frames" window).
    max_postmortems:
        Frozen ring copies kept after trips; older post-mortems are
        dropped first (each one is up to *capacity* entries, so this
        bounds total memory).
    """

    def __init__(self, capacity: int = 256, max_postmortems: int = 8):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if max_postmortems < 1:
            raise ValueError(
                f"max_postmortems must be >= 1, got {max_postmortems}")
        self.capacity = capacity
        #: (entry, the frame's spans or None), oldest first
        self._ring: Deque[Tuple[Dict[str, Any], Optional[Sequence[Span]]]] = (
            deque(maxlen=capacity))
        self.postmortems: Deque[Dict[str, Any]] = deque(maxlen=max_postmortems)
        self.frames_seen = 0
        self.trips = 0

    # ------------------------------------------------------------------
    def append(self, entry: Mapping[str, Any],
               spans: Optional[Sequence[Span]] = None) -> None:
        """Record one frame entry (a JSON-safe mapping).  *spans*, the
        frame's finished spans, become the entry's ``"spans"`` list of
        :meth:`Span.to_dict` payloads when the ring is read."""
        self._ring.append((dict(entry), spans))
        self.frames_seen += 1

    def entries(self) -> List[Dict[str, Any]]:
        """Current ring contents, oldest first (copies)."""
        out = []
        for entry, spans in self._ring:
            entry = dict(entry)
            if spans is not None:
                entry["spans"] = [s.to_dict() for s in spans]
            out.append(entry)
        return out

    def __len__(self) -> int:
        return len(self._ring)

    # ------------------------------------------------------------------
    def mark_trip(self, reason: str,
                  frame_index: Optional[int] = None) -> Dict[str, Any]:
        """Freeze the ring into a post-mortem (watchdog trip, output
        guard rejection, ...) and return it.

        The snapshot is an independent copy: frames recorded after the
        trip keep flowing into the live ring without touching it.
        """
        self.trips += 1
        snapshot = {
            "reason": reason,
            "frame_index": frame_index,
            "trip_number": self.trips,
            "entries": self.entries(),
        }
        self.postmortems.append(snapshot)
        return snapshot

    # ------------------------------------------------------------------
    @staticmethod
    def _jsonl(header: Dict[str, Any],
               entries: List[Dict[str, Any]]) -> str:
        lines = [json.dumps(header, sort_keys=True)]
        lines.extend(json.dumps(e, sort_keys=True) for e in entries)
        return "\n".join(lines) + "\n"

    def to_jsonl(self, postmortem: Optional[Mapping[str, Any]] = None) -> str:
        """Serialise a post-mortem (default: the live ring) as JSONL.

        The first line is a header record (``{"record": "header", ...}``)
        carrying the trip metadata; every following line is one frame
        entry.  Both header variants are self-describing: they carry
        ``frames_seen`` (total frames ever recorded, not just retained)
        and ``n_entries`` (how many entry lines follow), so a dump can be
        parsed without knowing which variant produced it.
        """
        if postmortem is None:
            entries = self.entries()
            header = {"record": "header", "reason": "snapshot",
                      "frames_seen": self.frames_seen,
                      "n_entries": len(entries),
                      "capacity": self.capacity}
        else:
            entries = list(postmortem.get("entries", []))
            header = {"record": "header",
                      "reason": postmortem.get("reason"),
                      "frame_index": postmortem.get("frame_index"),
                      "trip_number": postmortem.get("trip_number"),
                      "frames_seen": self.frames_seen,
                      "n_entries": len(entries),
                      "capacity": self.capacity}
        return self._jsonl(header, entries)

    def dump(self, path: Union[str, Path],
             postmortem: Optional[Mapping[str, Any]] = None) -> Path:
        """Append a post-mortem (default: the live ring) to a JSONL file.

        Appending keeps every trip of a run in one file, each introduced
        by its header line.
        """
        path = Path(path)
        with path.open("a", encoding="utf-8") as fh:
            fh.write(self.to_jsonl(postmortem))
        return path
