"""The simulation workloads: Fig. 18(b)(c) ensembles and a 4-cell network.

A *unit* is the piece of work one timing sample covers:

* ``fig18-mobile``: one Fig. 18(b)(c) reproduction,
  ``run_mobile_ensembles(seeds=<block>, workers=1)`` — five systems,
  :data:`FIG18_SEEDS` fresh seed, 1 s horizon, mobility plus blockage
  (the pool check repeats :data:`POOL_SEEDS` units' seeds as one
  ensemble with ``workers=2``);
* ``network-4x64``: one 4-cell, 64-user, 0.05 s network run with a fresh
  seed.

Seeds come from the benchmark's ``--seed`` only; the program sees
nothing else.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from perfbench import tracing

#: Seeds per Fig. 18 unit (each seed runs all five systems for 1 s).
#: One seed keeps a unit short (about 0.5 s), so the host-speed kernel
#: around it tracks the host closely (see ``hostspeed.py``).
FIG18_SEEDS = 1
#: Seeds of one pool-checked ensemble: a single-seed ensemble never
#: uses the pool.
POOL_SEEDS = 4
FIG18_SYSTEMS = ("mmreliable", "reactive", "beamspy", "widebeam", "oracle")
FIG18_HORIZON_S = 1.0
NETWORK_CELLS = 4
NETWORK_USERS = 64
NETWORK_HORIZON_S = 0.05
#: Units whose outputs define the quality metrics: a fixed set per
#: ``--seed``, so quality never depends on how fast the program ran.
#: A timed window runs at least this many units.
QUALITY_UNITS = {"fig18": 32, "network": 21}
MIN_FAIRNESS = 0.9


def seed_base(seed: int) -> int:
    """First program seed of a benchmark seed's blocks (blocks never overlap)."""
    return 100_000 + 1_000 * int(seed)


def fig18_block(seed: int, unit: int) -> Tuple[int, ...]:
    start = seed_base(seed) + unit * FIG18_SEEDS
    return tuple(range(start, start + FIG18_SEEDS))


def network_seed(seed: int, unit: int) -> int:
    return seed_base(seed) + unit


#: Program seed of the warm-up unit in set-up: the same for every
#: ``--seed`` (and outside every seed block), because a unit's cost
#: depends on its seed and set-up must be the same work on every run.
WARMUP_SEED = 99_999


class CheckFailed(AssertionError):
    """An output of the program is wrong; the run must fail."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class UnitResult:
    """One unit's wall time, work done and outputs."""

    wall_s: float
    sim_s: float
    runs: int
    failed: int
    #: Exact output values, for bitwise comparisons.
    fingerprint: Tuple[Any, ...]
    #: Quality inputs: per-system metric tuples or network aggregates.
    quality: Dict[str, Any] = field(default_factory=dict)
    #: ``ExecutorStats`` of each ensemble (fig18 only).
    executor: List[Any] = field(default_factory=list)


# ----------------------------------------------------------------------
# fig18

def _metric_tuple(metrics: Any) -> Tuple[float, ...]:
    return (
        float(metrics.reliability),
        float(metrics.mean_throughput_bps),
        float(metrics.product),
        float(metrics.mean_snr_db),
        float(metrics.probe_airtime_s),
        int(metrics.training_rounds),
    )


def fig18_unit(seeds: Tuple[int, ...], workers: int = 1) -> UnitResult:
    from repro.experiments.fig18_end2end import run_mobile_ensembles

    started = time.perf_counter()
    summaries = run_mobile_ensembles(seeds=seeds, workers=workers)
    wall_s = time.perf_counter() - started
    quality = {
        system: [_metric_tuple(m) for m in summaries[system].metrics]
        for system in FIG18_SYSTEMS
    }
    stats = [summaries[system].stats for system in FIG18_SYSTEMS]
    return UnitResult(
        wall_s=wall_s,
        sim_s=len(seeds) * len(FIG18_SYSTEMS) * FIG18_HORIZON_S,
        runs=sum(s.total_runs for s in stats),
        failed=sum(len(summaries[system].failures) for system in FIG18_SYSTEMS),
        fingerprint=tuple(
            (system, tuple(quality[system])) for system in FIG18_SYSTEMS
        ),
        quality=quality,
        executor=stats,
    )


def fig18_quality(units: List[UnitResult]) -> Dict[str, float]:
    """mmReliable's link quality and T x R gain over the quality units."""
    import numpy as np

    def column(system: str, index: int) -> np.ndarray:
        return np.asarray(
            [row[index] for unit in units for row in unit.quality[system]]
        )

    return {
        "mmr_reliability": float(np.median(column("mmreliable", 0))),
        "mmr_throughput_mbps": float(np.mean(column("mmreliable", 1))) / 1e6,
        "txr_gain": float(
            np.mean(column("mmreliable", 2)) / np.mean(column("reactive", 2))
        ),
    }


def check_fig18(unit: UnitResult) -> None:
    check(unit.failed == 0, f"{unit.failed} fig18 link runs failed")
    for system in FIG18_SYSTEMS:
        for row in unit.quality[system]:
            check(0.0 <= row[0] <= 1.0, f"{system} reliability {row[0]} out of [0, 1]")
            check(row[1] >= 0.0, f"{system} throughput {row[1]} negative")


def merged_fingerprint(units: List[UnitResult]) -> Tuple[Any, ...]:
    """The fingerprint of one ensemble over all ``units``' seeds, in order."""
    return tuple(
        (system, tuple(row for unit in units for row in unit.quality[system]))
        for system in FIG18_SYSTEMS
    )


def traced_fig18_unit(seeds: Tuple[int, ...]) -> UnitResult:
    """A serial fig18 unit with every seed-run's layers traced.

    ``run_mobile_ensembles`` builds its ensemble specs as usual; each
    spec is turned into a simulator-factory spec whose link simulators
    are proxied (:func:`perfbench.tracing.traced_spec`).
    """
    from repro.experiments import fig18_end2end

    real_execute = fig18_end2end.execute_ensemble

    def execute_traced(spec: Any) -> Any:
        return real_execute(tracing.traced_spec(spec))

    fig18_end2end.execute_ensemble = execute_traced
    try:
        with tracing.tracing():
            return fig18_unit(seeds)
    finally:
        fig18_end2end.execute_ensemble = real_execute


# ----------------------------------------------------------------------
# network

def _network_scenario() -> Any:
    from repro.network.scenario import NetworkScenario, row_of_cells

    return NetworkScenario(
        cells=row_of_cells(NETWORK_CELLS),
        num_users=NETWORK_USERS,
        duration_s=NETWORK_HORIZON_S,
    )


def network_unit(seed: int, traced: bool = False) -> UnitResult:
    from repro.network.simulator import NetworkSimulator

    started = time.perf_counter()
    scenario = _network_scenario()
    if traced:
        with tracing.tracing():
            metrics = NetworkSimulator(
                scenario=tracing.wrap_network_scenario(scenario), seed=seed
            ).run().metrics()
    else:
        metrics = NetworkSimulator(scenario=scenario, seed=seed).run().metrics()
    wall_s = time.perf_counter() - started
    users = metrics.users
    return UnitResult(
        wall_s=wall_s,
        sim_s=len(users) * NETWORK_HORIZON_S,
        runs=1,
        failed=0,
        fingerprint=(
            tuple(
                (u.user_index, u.cell_index, float(u.slot_share))
                + _metric_tuple(u.link)
                for u in users
            ),
            int(metrics.probe_slots_denied),
            float(metrics.fairness),
        ),
        quality={
            "users": [u.user_index for u in users],
            "reliability": float(metrics.reliability),
            "throughput_bps": float(metrics.mean_throughput_bps),
            "fairness": float(metrics.fairness),
        },
    )


def network_warmup(seed: int) -> None:
    """A small network over the same cells (fills the same caches)."""
    from repro.network.simulator import NetworkSimulator

    scenario = _network_scenario().with_options(num_users=2 * NETWORK_CELLS)
    NetworkSimulator(scenario=scenario, seed=seed).run().metrics()


def check_network(unit: UnitResult) -> None:
    quality = unit.quality
    check(
        sorted(quality["users"]) == list(range(NETWORK_USERS)),
        f"network simulated users {quality['users']}, not all {NETWORK_USERS}",
    )
    check(
        0.0 < quality["reliability"] <= 1.0,
        f"network reliability {quality['reliability']} not in (0, 1]",
    )
    check(
        quality["fairness"] > MIN_FAIRNESS,
        f"network fairness {quality['fairness']} <= {MIN_FAIRNESS}",
    )


def network_quality(units: List[UnitResult]) -> Dict[str, float]:
    import numpy as np

    return {
        "mmr_reliability": float(
            np.mean([u.quality["reliability"] for u in units])
        ),
        "mmr_throughput_mbps": float(
            np.mean([u.quality["throughput_bps"] for u in units])
        ) / 1e6,
    }
