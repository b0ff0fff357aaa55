"""Host-speed normalisation of the benchmark's timings.

The shared VM the benchmark was tuned on changes speed by itself: one
identical 4-seed Fig. 18 unit, timed back to back, took 1.35-2.11 s,
with CPU time equal to wall time (the process is never descheduled; the
core it runs on gets slower), and the slow spells last from seconds to
minutes.  No amount of averaging inside a 30 s run removes a spell that
covers the whole run.

So every timed piece of work is bracketed by a short, fixed reference
kernel (:func:`reference_kernel`: small complex linear algebra, FFTs
and dictionary updates in the interpreter, the mix the simulator spends
its time in).  Its time before and after the work gives the host's
momentary speed, and the work's time is rescaled to what it would have
taken on a host where the kernel takes :data:`REFERENCE_S`.  The kernel
is the benchmark's own code and never calls the program, so a change
to the program moves the normalised time exactly as it moves the wall
time.

The program slows down less than the kernel when the host slows down,
so the rescaling uses the program's measured elasticity,
:data:`ELASTICITY`, rather than a plain ratio.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

#: The reference kernel's time [s] on the host the benchmark was tuned
#: on (a 2-vCPU x86 VM, ``Intel Xeon Processor``, one BLAS thread): the
#: scale of every normalised time.
REFERENCE_S = 0.05
#: How far the program's time follows the kernel's: a unit's time scales
#: as (kernel time) ** ELASTICITY.  Fitted on four sets of ten benchmark
#: runs per simulation workload, with the host at 0.77-1.88 times the
#: reference speed: at 0.8 the four set medians agreed within 4.8%
#: (fig18-mobile) and 1.5% (network-4x64), and no set spread more than
#: 6.3% and 5.3% (interquartile over median).  At 0.7 the set medians
#: differed by up to 12% and 7%, with a plain ratio (1.0) by up to 8%
#: and 7%, spreads up to 7% and 9%; raw, sets spread up to 26% and 15%.
#: serve-jobs' two pinned sets agreed within 0.8% at 0.8.
ELASTICITY = 0.8

_RNG = np.random.default_rng(20211019)
_MATRIX = _RNG.standard_normal((16, 16)) + 1j * _RNG.standard_normal((16, 16))
_SIGNAL = _RNG.standard_normal(64) + 1j * _RNG.standard_normal(64)
_ANGLES = np.linspace(-1.0, 1.0, 32)
_ROUNDS = 200


def reference_kernel() -> float:
    """Run the fixed reference work once; returns its wall time [s]."""
    started = time.perf_counter()
    total = 0.0
    table: Dict[int, float] = {}
    for i in range(_ROUNDS):
        dictionary = np.exp(1j * np.pi * np.outer(np.arange(16), _ANGLES + i * 1e-3))
        solution = np.linalg.lstsq(dictionary, _SIGNAL[:16], rcond=None)[0]
        singular = np.linalg.svd(_MATRIX, compute_uv=False)
        spectrum = np.fft.fft(_SIGNAL).tolist()
        for k, z in enumerate(spectrum * 3):
            table[k % 50] = table.get(k % 50, 0.0) + abs(z) * 1e-3
        total += float(np.abs(solution).max()) + float(singular[0])
        total += max(table.values())
    if not math.isfinite(total):
        raise ArithmeticError("reference kernel produced a non-finite value")
    return time.perf_counter() - started


@dataclass
class HostClock:
    """Wall times of timed pieces of work, each bracketed by the kernel.

    Call :meth:`start` once, then :meth:`record` after each piece of
    work: the kernel after one piece is the kernel before the next, so
    ``n`` pieces cost ``n + 1`` kernel runs.
    """

    #: ``(wall_s, kernel_before_s, kernel_after_s)`` per piece of work.
    pieces: List[Tuple[float, float, float]] = field(default_factory=list)
    _last: float = 0.0

    def start(self) -> None:
        self._last = reference_kernel()

    def record(self, wall_s: float) -> None:
        """Book a piece of work that just ended."""
        before = self._last
        self._last = reference_kernel()
        self.pieces.append((wall_s, before, self._last))

    def normalised(self) -> List[float]:
        return [normalise(*piece) for piece in self.pieces]

    def speed(self) -> List[float]:
        """Host speed per piece, relative to the reference host (1 = same)."""
        return [2.0 * REFERENCE_S / (before + after)
                for _w, before, after in self.pieces]


def normalise(wall_s: float, before_s: float, after_s: float) -> float:
    """``wall_s`` rescaled to a host where the kernel takes :data:`REFERENCE_S`."""
    return wall_s * (2.0 * REFERENCE_S / (before_s + after_s)) ** ELASTICITY
