"""Small statistics helpers shared by every workload.

The percentile helper enforces the benchmark's reporting rule: a
percentile is only reported when at least ``MIN_BEYOND`` samples lie
strictly beyond it, so a tail figure is never read off one or two slow
outliers.
"""

from __future__ import annotations

import math
import os
import statistics
import threading
import time
from typing import Iterable, List, Sequence

#: Samples that must lie strictly above a reported percentile.
MIN_BEYOND = 10


class SparseTail(ValueError):
    """A percentile was requested that the sample cannot support."""


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0 < q < 100), linear interpolation.

    Raises :class:`SparseTail` when fewer than :data:`MIN_BEYOND`
    samples lie strictly above the result.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {q!r}")
    data = sorted(float(v) for v in values)
    if not data:
        raise SparseTail(f"p{q:g} of an empty sample")
    position = (len(data) - 1) * q / 100.0
    lower = math.floor(position)
    upper = min(lower + 1, len(data) - 1)
    value = data[lower]
    if data[upper] != value:  # also keeps inf - inf out of the arithmetic
        value += (data[upper] - value) * (position - lower)
    beyond = sum(1 for v in data if v > value)
    if beyond < MIN_BEYOND:
        raise SparseTail(
            f"p{q:g} of {len(data)} samples has {beyond} beyond it; "
            f"need {MIN_BEYOND}"
        )
    return value


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


# ----------------------------------------------------------------------
# resident memory of a process tree

def _rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _children(pid: int) -> List[int]:
    found: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as f:
                found.extend(int(p) for p in f.read().split())
        except OSError:
            continue
    return found


def tree_rss_mb(root: int) -> float:
    """Summed resident memory of ``root`` and all its descendants."""
    total = 0
    pending = [root]
    while pending:
        pid = pending.pop()
        total += _rss_kb(pid)
        pending.extend(_children(pid))
    return total / 1024.0


class PeakRss:
    """Samples the benchmark's process tree until stopped; keeps the peak."""

    def __init__(self, period_s: float = 0.05) -> None:
        self.period_s = period_s
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        pid = os.getpid()
        while True:
            self.peak_mb = max(self.peak_mb, tree_rss_mb(pid))
            if self._stop.wait(self.period_s):
                return

    def __enter__(self) -> "PeakRss":
        self._thread.start()
        return self

    def __exit__(self, *_exc: object) -> None:
        self._stop.set()
        self._thread.join()


class Deadline:
    """Wall-clock budget for one timed window."""

    def __init__(self, seconds: float) -> None:
        self.end = time.perf_counter() + float(seconds)

    def expired(self) -> bool:
        return time.perf_counter() >= self.end
