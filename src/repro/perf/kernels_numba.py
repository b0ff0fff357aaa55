"""Numba-compiled implementations of the registered compute kernels.

Every kernel is written as an explicit-loop function that ``numba.njit``
compiles when numba is importable; without numba the undecorated Python
function remains callable, which is how the differential parity tests
exercise this backend's *algorithms* on tiny inputs even in
environments that cannot JIT.  The backend registry marks the backend
unavailable in that case, so production dispatch falls back to the
NumPy reference — the pyfuncs never run on hot paths.

Numerical contract (see DESIGN.md "Compute backends"): loop kernels
reassociate float reductions, so results match :mod:`repro.perf.kernels_numpy` to a documented
tolerance (``rtol=1e-7``), not bitwise.

Kernels are **pure functions of their array arguments**: no RNG, no
telemetry, no global state (``__backend_kernels__`` marks the module
for the RL310/RL311 lint rules).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, TypeVar, cast

import numpy as np
import numpy.typing as npt

try:
    import numba  # type: ignore[import-not-found, import-untyped, unused-ignore]

    _numba: Optional[Any] = numba
except ImportError:  # pragma: no cover - exercised via NUMBA_AVAILABLE
    _numba = None

__all__ = [
    "KERNELS",
    "NUMBA_AVAILABLE",
    "PY_KERNELS",
    "array_factor",
    "batch_frequency_response",
]

#: Marks this module's functions as registered backend kernels for the
#: repro-lint purity rules (RL310: no RNG, RL311: no telemetry).
__backend_kernels__ = True

#: Whether numba imported; the registry gates availability on this.
NUMBA_AVAILABLE: bool = _numba is not None

_ComplexArray = npt.NDArray[np.complex128]
_F = TypeVar("_F", bound=Callable[..., object])

#: Kernel name -> undecorated Python function (for differential tests
#: that must run without a JIT).
PY_KERNELS: Dict[str, Callable[..., object]] = {}


def _kernel(function: _F) -> _F:
    """Register the pyfunc and JIT-compile it when numba is present."""
    PY_KERNELS[function.__name__] = function
    if _numba is None:
        return function
    return cast(_F, _numba.njit(cache=True)(function))


@_kernel
def batch_frequency_response(
    steering: _ComplexArray,
    rotation: _ComplexArray,
    gains: _ComplexArray,
    tx_weights: _ComplexArray,
) -> _ComplexArray:
    """Loop form of the batched beamformed response ``(T, F)``."""
    num_samples, num_paths, num_elements = steering.shape
    num_freqs = rotation.shape[1]
    out = np.empty((num_samples, num_freqs), dtype=np.complex128)
    path_alphas = np.empty(num_paths, dtype=np.complex128)
    for t in range(num_samples):
        for l in range(num_paths):  # noqa: E741
            acc = 0.0 + 0.0j
            for n in range(num_elements):
                acc += steering[t, l, n] * tx_weights[n]
            path_alphas[l] = gains[t, l] * acc
        for f in range(num_freqs):
            acc = 0.0 + 0.0j
            for l in range(num_paths):  # noqa: E741
                acc += rotation[t, f, l] * path_alphas[l]
            out[t, f] = acc
    return out


@_kernel
def array_factor(
    steering_matrix: _ComplexArray,
    weights: _ComplexArray,
) -> _ComplexArray:
    """Loop form of the ``(M,)`` array-factor product."""
    num_angles, num_elements = steering_matrix.shape
    out = np.empty(num_angles, dtype=np.complex128)
    for m in range(num_angles):
        acc = 0.0 + 0.0j
        for n in range(num_elements):
            acc += steering_matrix[m, n] * weights[n]
        out[m] = acc
    return out


#: Kernel name -> (possibly JIT-compiled) implementation.
KERNELS: Dict[str, Callable[..., object]] = {
    "batch_frequency_response": batch_frequency_response,
    "array_factor": array_factor,
}
