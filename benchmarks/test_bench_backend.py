"""Bench: compute-backend kernel throughput, per registered backend.

Parametrized over every *available* backend so `scripts/bench_compare.py`
can gate both the NumPy reference and the compiled backend against the
committed baseline.  In environments without numba only the numpy leg
runs (the numba leg is skipped, and bench_compare tolerates the
one-sided baseline entries).
"""

import numpy as np
import pytest

from repro.perf.backend import available_backends, dispatch, use_backend

BACKENDS = [
    pytest.param(
        name,
        marks=()
        if available
        else pytest.mark.skip(reason=f"backend {name!r} unavailable"),
    )
    for name, available in available_backends().items()
]


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_backend_batch_channel_sampling(benchmark, once, backend_name):
    """Batched beamformed frequency response, the link-SNR hot loop."""
    rng = np.random.default_rng(12)
    num_samples, num_paths, num_elements, num_freqs = 512, 3, 16, 64
    steering = np.exp(
        1j * rng.uniform(0.0, 2.0 * np.pi, (num_samples, num_paths, num_elements))
    )
    rotation = np.exp(
        1j * rng.uniform(0.0, 2.0 * np.pi, (num_samples, num_freqs, num_paths))
    )
    gains = (
        rng.standard_normal((num_samples, num_paths))
        + 1j * rng.standard_normal((num_samples, num_paths))
    )
    weights = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, num_elements))

    def sample():
        with use_backend(backend_name):
            return dispatch(
                "batch_frequency_response", steering, rotation, gains, weights
            )

    response = once(benchmark, sample)
    assert response.shape == (num_samples, num_freqs)
    assert np.all(np.isfinite(response))
