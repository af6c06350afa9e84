"""Process-table helpers read straight from ``/proc`` (no psutil here).

The benchmark samples memory from outside the engine: it sums the resident
set of its own driver process and of every Ray worker or actor process that
descends from it.  Ray's own daemons (GCS, raylet, agents) are left out, so
the number tracks what the engine's code holds, not Ray's fixed footprint.
"""

from __future__ import annotations

import os
import signal
import threading
import time

_PAGE = os.sysconf("SC_PAGE_SIZE")


def _ppid_map() -> dict[int, int]:
    out = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat", "rb") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name is parenthesised and may hold spaces
        fields = stat[stat.rfind(b")") + 2:].split()
        if fields[0] != b"Z":  # a zombie has ended; only its exit status is left
            out[int(d)] = int(fields[1])
    return out


def descendants(root: int | None = None) -> list[int]:
    """Every live process below ``root`` (default: this process)."""
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    for pid, ppid in _ppid_map().items():
        children.setdefault(ppid, []).append(pid)
    out, todo = [], [root]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode("utf-8", "replace")
    except OSError:
        return ""


def rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as f:
            return int(f.read().split()[1]) * _PAGE
    except (OSError, IndexError, ValueError):
        return 0


def is_ray_worker(cmd: str) -> bool:
    """Ray task workers and actors retitle themselves ``ray::<name>``."""
    return cmd.startswith("ray::") or "default_worker.py" in cmd


def engine_rss_bytes() -> int:
    """Driver RSS plus the RSS of every Ray worker/actor process."""
    total = rss_bytes(os.getpid())
    for pid in descendants():
        if is_ray_worker(cmdline(pid)):
            total += rss_bytes(pid)
    return total


def rss_of_matching(needle: str) -> int:
    """Summed RSS of descendant processes whose command line holds ``needle``."""
    return sum(rss_bytes(p) for p in descendants() if needle in cmdline(p))


class PeakRss:
    """Samples :func:`engine_rss_bytes` on a thread until stopped."""

    def __init__(self, period_s: float = 0.1):
        self.period_s = period_s
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while True:
            self.peak = max(self.peak, engine_rss_bytes())
            if self._stop.wait(self.period_s):
                return

    def __enter__(self) -> "PeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, engine_rss_bytes())


def reap_descendants(grace_s: float = 20.0) -> list[int]:
    """Wait for every descendant to exit; SIGKILL what is left after
    ``grace_s``.  Returns the pids that had to be killed."""
    deadline = time.monotonic() + grace_s
    while time.monotonic() < deadline:
        if not descendants():
            return []
        time.sleep(0.2)
    left = descendants()
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    deadline = time.monotonic() + grace_s
    while descendants() and time.monotonic() < deadline:
        time.sleep(0.1)
    return left
