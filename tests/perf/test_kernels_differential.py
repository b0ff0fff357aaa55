"""Differential fast-vs-reference tests for every registered kernel.

Each compiled kernel's *algorithm* (the undecorated Python function in
``PY_KERNELS``) is compared against the NumPy reference on small inputs,
so the parity contract is checked even in environments without numba.
When numba is importable, the JIT-compiled kernels are additionally
checked against the same references — compilation must not change the
arithmetic.

Tolerances: the loop kernels reassociate float reductions and are held
to well inside the documented backend tolerance of ``rtol=1e-7``.
"""

import numpy as np
import pytest

from repro.perf import kernels_numpy
from repro.perf.kernels_numba import KERNELS, NUMBA_AVAILABLE, PY_KERNELS

#: Documented cross-backend agreement (DESIGN.md "Compute backends").
BACKEND_RTOL = 1e-7


def _rng():
    return np.random.default_rng(20210813)  # mmReliable's SIGCOMM slot


def _batch_inputs():
    rng = _rng()
    steering = (
        rng.standard_normal((4, 3, 8)) + 1j * rng.standard_normal((4, 3, 8))
    )
    rotation = (
        rng.standard_normal((4, 16, 3)) + 1j * rng.standard_normal((4, 16, 3))
    )
    gains = (
        rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    )
    weights = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    return steering, rotation, gains, weights


def test_every_kernel_has_a_python_reference_pair():
    assert set(PY_KERNELS) == set(kernels_numpy.KERNELS)
    assert set(KERNELS) == set(kernels_numpy.KERNELS)


class TestPyKernelParity:
    """PY_KERNELS (undecorated loop algorithms) vs the NumPy reference."""

    def test_batch_frequency_response(self):
        steering, rotation, gains, weights = _batch_inputs()
        reference = kernels_numpy.batch_frequency_response(
            steering, rotation, gains, weights
        )
        fast = PY_KERNELS["batch_frequency_response"](
            steering, rotation, gains, weights
        )
        np.testing.assert_allclose(fast, reference, rtol=BACKEND_RTOL)

    def test_array_factor(self):
        rng = _rng()
        steering = (
            rng.standard_normal((11, 8)) + 1j * rng.standard_normal((11, 8))
        )
        weights = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        reference = kernels_numpy.array_factor(steering, weights)
        fast = PY_KERNELS["array_factor"](steering, weights)
        np.testing.assert_allclose(fast, reference, rtol=BACKEND_RTOL)


@pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed")
class TestJitKernelParity:
    """The JIT-compiled kernels vs the NumPy reference (numba only)."""

    def test_batch_frequency_response(self):
        steering, rotation, gains, weights = _batch_inputs()
        reference = kernels_numpy.batch_frequency_response(
            steering, rotation, gains, weights
        )
        fast = KERNELS["batch_frequency_response"](
            steering, rotation, gains, weights
        )
        np.testing.assert_allclose(fast, reference, rtol=BACKEND_RTOL)

    def test_array_factor(self):
        rng = _rng()
        steering = (
            rng.standard_normal((11, 8)) + 1j * rng.standard_normal((11, 8))
        )
        weights = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        reference = kernels_numpy.array_factor(steering, weights)
        fast = KERNELS["array_factor"](steering, weights)
        np.testing.assert_allclose(fast, reference, rtol=BACKEND_RTOL)
