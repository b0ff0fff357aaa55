"""Exhaustive beam training: one SSB probe per codebook direction."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.arrays.codebook import Codebook
from repro.beamtraining.base import BeamTrainingResult
from repro.channel.geometric import GeometricChannel
from repro.phy.ofdm import ChannelSounder
from repro.phy.reference_signals import ProbeBudget, ProbeKind


@dataclass
class ExhaustiveTrainer:
    """Scan every codebook beam and record its received power.

    This is the default 5G NR SSB sweep: slow (one SSB per direction) but
    complete — it measures the ``p_k`` for every direction at once, which
    the multi-beam establishment step reuses.
    """

    codebook: Codebook
    sounder: ChannelSounder

    def train(
        self,
        channel: GeometricChannel,
        budget: Optional[ProbeBudget] = None,
        time_s: float = 0.0,
    ) -> BeamTrainingResult:
        """Run the sweep against the current channel."""
        estimates = self.sounder.sound_many(
            channel, [weights.vector for _, weights in self.codebook],
            time_s=time_s,
        )
        # Each probe's mean_power, in one pass over the stacked CSI.
        csi = np.array([estimate.csi for estimate in estimates])
        powers = np.mean(np.abs(csi) ** 2, axis=1)
        if budget is not None:
            budget.charge(ProbeKind.SSB, time_s=time_s, count=len(self.codebook))
        return BeamTrainingResult(
            angles_rad=self.codebook.angles_rad.copy(),
            powers=powers,
            num_probes=len(self.codebook),
        )
