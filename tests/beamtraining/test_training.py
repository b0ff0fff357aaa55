"""Tests for beam training (exhaustive + hierarchical) and peak picking."""

import numpy as np
import pytest

from repro.arrays import UniformLinearArray, uniform_codebook
from repro.beamtraining import (
    BeamTrainingResult,
    ExhaustiveTrainer,
    HierarchicalTrainer,
    top_k_directions,
)
from repro.phy.ofdm import ChannelSounder, OfdmConfig
from repro.phy.reference_signals import ProbeBudget, ProbeKind
from repro.sim.scenarios import two_path_channel


@pytest.fixture
def array():
    return UniformLinearArray(num_elements=8)


@pytest.fixture
def sounder():
    return ChannelSounder(config=OfdmConfig(num_subcarriers=64), rng=0)


@pytest.fixture
def channel(array):
    return two_path_channel(
        array, los_angle_rad=0.0, nlos_angle_rad=np.deg2rad(30.0),
        delta_db=-5.0,
    )


class TestBeamTrainingResult:
    def test_best_angle(self):
        result = BeamTrainingResult(
            angles_rad=np.array([0.0, 0.5]), powers=np.array([1.0, 2.0]),
            num_probes=2,
        )
        assert result.best_angle_rad == pytest.approx(0.5)
        assert result.best_power == pytest.approx(2.0)

    def test_power_at_nearest(self):
        result = BeamTrainingResult(
            angles_rad=np.array([0.0, 0.5]), powers=np.array([1.0, 2.0]),
            num_probes=2,
        )
        assert result.power_at(0.45) == pytest.approx(2.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            BeamTrainingResult(
                angles_rad=np.zeros(3), powers=np.zeros(2), num_probes=3
            )


class TestExhaustiveTrainer:
    def test_finds_los(self, array, sounder, channel):
        trainer = ExhaustiveTrainer(
            codebook=uniform_codebook(array, 33), sounder=sounder
        )
        result = trainer.train(channel)
        assert result.best_angle_rad == pytest.approx(0.0, abs=np.deg2rad(4.0))

    def test_probe_count_equals_codebook(self, array, sounder, channel):
        trainer = ExhaustiveTrainer(
            codebook=uniform_codebook(array, 16), sounder=sounder
        )
        budget = ProbeBudget()
        result = trainer.train(channel, budget=budget)
        assert result.num_probes == 16
        assert budget.total_probes(ProbeKind.SSB) == 16

    def test_sees_both_paths(self, array, sounder, channel):
        trainer = ExhaustiveTrainer(
            codebook=uniform_codebook(array, 33), sounder=sounder
        )
        result = trainer.train(channel)
        angles, powers = top_k_directions(result, 2)
        assert len(angles) == 2
        found = sorted(np.rad2deg(angles))
        assert found[0] == pytest.approx(0.0, abs=4.0)
        assert found[1] == pytest.approx(30.0, abs=4.0)


    def test_sweep_matches_per_beam_sounding(self, array, channel):
        def fresh_sounder():
            return ChannelSounder(
                config=OfdmConfig(), rng=np.random.default_rng(7)
            )

        codebook = uniform_codebook(array, 33)
        swept = fresh_sounder()
        result = ExhaustiveTrainer(codebook=codebook, sounder=swept).train(
            channel, time_s=0.01
        )
        looped = fresh_sounder()
        powers = [
            looped.sound(channel, weights.vector, time_s=0.01).mean_power
            for _, weights in codebook
        ]
        np.testing.assert_allclose(result.powers, powers, rtol=1e-9)
        # Same noise draws in the same order: the RNG ends in one state.
        assert (
            swept.rng.bit_generator.state == looped.rng.bit_generator.state
        )


class TestHierarchicalTrainer:
    def test_converges_to_los(self, array, sounder, channel):
        trainer = HierarchicalTrainer(
            array=array, sounder=sounder, num_levels=5, branching=2
        )
        result = trainer.train(channel)
        assert result.best_angle_rad == pytest.approx(0.0, abs=np.deg2rad(6.0))

    def test_logarithmic_probe_count(self, array, sounder, channel):
        trainer = HierarchicalTrainer(
            array=array, sounder=sounder, num_levels=5, branching=2
        )
        result = trainer.train(channel)
        assert result.num_probes == 10  # 2 probes x 5 levels

    def test_fewer_probes_than_exhaustive(self, array, sounder, channel):
        hier = HierarchicalTrainer(array=array, sounder=sounder, num_levels=5)
        exhaustive = ExhaustiveTrainer(
            codebook=uniform_codebook(array, 32), sounder=sounder
        )
        assert (
            hier.train(channel).num_probes
            < exhaustive.train(channel).num_probes
        )

    def test_refine_around(self, array, sounder, channel):
        trainer = HierarchicalTrainer(array=array, sounder=sounder)
        angle, power = trainer.refine_around(
            channel, center_rad=np.deg2rad(2.0), span_rad=np.deg2rad(10.0)
        )
        assert abs(angle) < np.deg2rad(8.0)
        assert power > 0

    def test_validation(self, array, sounder):
        with pytest.raises(ValueError):
            HierarchicalTrainer(array=array, sounder=sounder, num_levels=0)
        with pytest.raises(ValueError):
            HierarchicalTrainer(array=array, sounder=sounder, branching=1)


class TestTopKDirections:
    def make_result(self):
        angles = np.deg2rad(np.linspace(-60, 60, 25))
        powers = np.ones(25) * 1e-12
        powers[12] = 1.0   # 0 deg
        powers[13] = 0.9   # adjacent, should be suppressed
        powers[18] = 0.3   # 30 deg
        return BeamTrainingResult(
            angles_rad=angles, powers=powers, num_probes=25
        )

    def test_non_maximum_suppression(self):
        angles, powers = top_k_directions(
            self.make_result(), 2, min_separation_rad=np.deg2rad(10.0)
        )
        assert np.rad2deg(angles[0]) == pytest.approx(0.0, abs=1.0)
        assert np.rad2deg(angles[1]) == pytest.approx(30.0, abs=1.0)

    def test_noise_floor_excluded(self):
        angles, _ = top_k_directions(
            self.make_result(), 5, min_separation_rad=np.deg2rad(10.0),
            min_relative_power_db=20.0,
        )
        assert len(angles) == 2  # the 1e-12 noise bins never qualify

    def test_k_one(self):
        angles, powers = top_k_directions(self.make_result(), 1)
        assert len(angles) == 1
        assert powers[0] == pytest.approx(1.0)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            top_k_directions(self.make_result(), 0)
