"""Stop every process a run started, and wait for each to end.

A workload starts processes of its own (set-up interpreters, the daemon
host) and the program starts more under them (worker processes and
multiprocessing's resource tracker).  The benchmark process makes itself
the reaper of its orphaned descendants, so a worker whose parent died
is still its child, and before it exits it ends and waits for every
child it has.
"""

from __future__ import annotations

import ctypes
import os
import signal
import sys
import time
from typing import List, Set

#: ``prctl`` option that makes orphaned descendants children of the caller.
PR_SET_CHILD_SUBREAPER = 36
#: How long children get to end after SIGTERM before SIGKILL (s).
GRACE_S = 10.0
#: How long to wait for killed children before giving up (s).
KILL_WAIT_S = 10.0


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants (Linux)."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
            raise OSError(ctypes.get_errno(), "prctl failed")
    except (OSError, AttributeError) as exc:
        print(f"perfbench: cannot adopt orphaned processes: {exc}",
              file=sys.stderr)


def children() -> List[int]:
    """Process ids whose parent is this process, zombies included."""
    me = os.getpid()
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as f:
                stat = f.read()
        except OSError:
            continue
        # The parent id is the second field after the ")" closing comm.
        if int(stat[stat.rindex(")") + 2:].split()[1]) == me:
            out.append(int(entry))
    return out


def _release_resource_tracker() -> None:
    """Close this process's end of multiprocessing's resource tracker.

    The tracker ignores SIGTERM; it ends, after unlinking any shared
    memory left registered, once every process holding its pipe has
    closed it.
    """
    module = sys.modules.get("multiprocessing.resource_tracker")
    if module is None:
        return
    tracker = module._resource_tracker
    with tracker._lock:
        if tracker._fd is not None:
            os.close(tracker._fd)
            tracker._fd = None
            tracker._pid = None


def _reaped(pid: int) -> bool:
    try:
        done, _ = os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return done == pid


def _signal(pid: int, sig: int) -> None:
    try:
        os.kill(pid, sig)
    except ProcessLookupError:
        pass


def stop_all() -> None:
    """End every child of this process and wait for each.

    Children still running get SIGTERM, then SIGKILL after ``GRACE_S``;
    orphans handed to this process on the way are treated the same.
    """
    _release_resource_tracker()
    start = time.monotonic()
    termed: Set[int] = set()
    while True:
        left = [pid for pid in children() if not _reaped(pid)]
        if not left:
            return
        waited = time.monotonic() - start
        if waited > GRACE_S + KILL_WAIT_S:
            raise RuntimeError(f"processes {left} did not end")
        for pid in left:
            if waited > GRACE_S:
                _signal(pid, signal.SIGKILL)
            elif pid not in termed:
                termed.add(pid)
                _signal(pid, signal.SIGTERM)
        time.sleep(0.02)
