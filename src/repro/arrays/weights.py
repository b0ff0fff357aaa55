"""Beamforming weight containers and hardware quantization.

A :class:`BeamWeights` wraps the complex weight vector applied at the phased
array's phase shifters / attenuators and enforces the unit-norm (constant
total-radiated-power) invariant the paper relies on for FCC compliance.

:class:`WeightQuantizer` models the hardware control resolution: the
testbed offers 6-bit phase shifters and 27 dB of per-element gain control;
commodity 802.11ad hardware offers as little as 2-bit phase and on/off
amplitude.  Multi-beam fidelity under quantization is one of the ablations
called out in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.utils import unit_vector
from repro.utils.units import db_to_linear, linear_to_db

__all__ = [
    "BeamWeights",
    "WeightQuantizer",
    "TESTBED_QUANTIZER",
    "COMMODITY_QUANTIZER",
]


@dataclass(frozen=True)
class BeamWeights:
    """An immutable unit-norm beamforming weight vector.

    Use :meth:`from_vector` to build one from an arbitrary complex vector;
    it normalizes to unit L2 norm so total radiated power is conserved.
    """

    vector: np.ndarray

    def __post_init__(self) -> None:
        vector = np.asarray(self.vector, dtype=complex)
        if vector.ndim != 1:
            raise ValueError(f"weights must be 1-D, got shape {vector.shape}")
        # np.isclose(norm, 1.0, atol=1e-6) as a scalar rule; NaN/inf fail.
        if not abs(float(np.linalg.norm(vector)) - 1.0) <= 1e-6 + 1e-5:
            raise ValueError(
                "weights must be unit norm (TRP conservation); "
                "use BeamWeights.from_vector() to normalize"
            )
        object.__setattr__(self, "vector", vector)
        self.vector.setflags(write=False)

    @classmethod
    def from_vector(cls, vector: np.ndarray) -> "BeamWeights":
        """Normalize ``vector`` to unit norm and wrap it."""
        return cls(unit_vector(np.asarray(vector, dtype=complex)))

    @property
    def num_elements(self) -> int:
        return self.vector.shape[0]

    def phases(self) -> np.ndarray:
        """Per-element phases in radians, in ``[-pi, pi)``."""
        return np.angle(self.vector)

    def amplitudes(self) -> np.ndarray:
        """Per-element amplitudes (linear)."""
        return np.abs(self.vector)

    def scaled(self, complex_factor: complex) -> np.ndarray:
        """The raw vector scaled by a complex factor (no longer unit norm)."""
        return self.vector * complex_factor

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self.vector.astype(dtype)
        return self.vector


@dataclass(frozen=True)
class WeightQuantizer:
    """Quantize beam weights to hardware phase / amplitude resolution.

    Parameters
    ----------
    phase_bits:
        Phase-shifter resolution; phases snap to ``2^phase_bits`` uniform
        levels over ``[0, 2 pi)``.  The testbed has 6 bits; commodity
        802.11ad hardware has 2.
    amplitude_range_db:
        Total per-element gain-control range.  Amplitudes more than this far
        below the strongest element clip to the floor.  ``None`` disables
        amplitude quantization. The testbed offers 27 dB.
    amplitude_bits:
        Resolution of the gain control within ``amplitude_range_db``.
        ``amplitude_bits=1`` with a large range models on/off antenna
        control.  ``None`` leaves amplitudes continuous within range.
    """

    phase_bits: Optional[int] = 6
    amplitude_range_db: Optional[float] = 27.0
    amplitude_bits: Optional[int] = None

    def __post_init__(self) -> None:
        if self.phase_bits is not None and self.phase_bits < 1:
            raise ValueError(f"phase_bits must be >= 1, got {self.phase_bits!r}")
        if self.amplitude_bits is not None and self.amplitude_bits < 1:
            raise ValueError(
                f"amplitude_bits must be >= 1, got {self.amplitude_bits!r}"
            )
        if self.amplitude_range_db is not None and self.amplitude_range_db <= 0:
            raise ValueError(
                "amplitude_range_db must be positive, got "
                f"{self.amplitude_range_db!r}"
            )

    def quantize_phases(self, phases_rad: np.ndarray) -> np.ndarray:
        """Snap phases to the phase-shifter grid."""
        if self.phase_bits is None:
            return np.asarray(phases_rad, dtype=float)
        levels = 2 ** self.phase_bits
        step = 2.0 * np.pi / levels
        return np.round(np.asarray(phases_rad, dtype=float) / step) * step

    def quantize_amplitudes(self, amplitudes: np.ndarray) -> np.ndarray:
        """Apply the gain-control floor and (optionally) discretize in dB."""
        amplitudes = np.asarray(amplitudes, dtype=float)
        if self.amplitude_range_db is None:
            return amplitudes
        peak = np.max(amplitudes)
        if peak == 0:
            return amplitudes
        floor = peak * float(db_to_linear(-self.amplitude_range_db))
        clipped = np.where(amplitudes < floor, floor, amplitudes)
        if self.amplitude_bits is None:
            return clipped
        # Discretize the attenuation (in dB below the peak) into 2^bits steps.
        levels = 2 ** self.amplitude_bits
        atten_db = -linear_to_db(clipped / peak)
        step_db = self.amplitude_range_db / (levels - 1) if levels > 1 else np.inf
        snapped_db = (
            np.round(atten_db / step_db) * step_db if np.isfinite(step_db) else 0.0
        )
        return peak * db_to_linear(-np.asarray(snapped_db))

    def apply(self, weights: BeamWeights) -> BeamWeights:
        """Quantize a weight vector and re-normalize to unit norm."""
        phases = self.quantize_phases(weights.phases())
        amplitudes = self.quantize_amplitudes(weights.amplitudes())
        return BeamWeights.from_vector(amplitudes * np.exp(1j * phases))


#: The paper's testbed control resolution (Section 5.1).
TESTBED_QUANTIZER = WeightQuantizer(phase_bits=6, amplitude_range_db=27.0)

#: Commodity 802.11ad-class control (2-bit phase, on/off amplitude).
COMMODITY_QUANTIZER = WeightQuantizer(
    phase_bits=2, amplitude_range_db=40.0, amplitude_bits=1
)
