"""Tests of the benchmark itself: ``python3 -m pytest perfbench/tests -q``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import metrics, serve_workload, sim_workloads, stats  # noqa: E402


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def test_metric_names_units_and_bounds_match_benchmark_json():
    spec = _benchmark_json()
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == metrics.END_TO_END
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == metrics.per_layer()
    from perfbench.run import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_percentile_refuses_sparse_tails():
    values = list(range(100))
    with pytest.raises(stats.SparseTail):
        stats.percentile(values, 95)
    assert stats.percentile(values, 90) == pytest.approx(89.1)
    with pytest.raises(stats.SparseTail):
        stats.percentile(list(range(19)), 50)
    assert stats.percentile(list(range(20)), 50) == 9.5
    with pytest.raises(stats.SparseTail):
        stats.percentile([1.0] * 50, 50)
    with pytest.raises(stats.SparseTail):
        stats.percentile([], 50)


def test_other_seed_other_inputs():
    assert sim_workloads.fig18_block(0, 0) != sim_workloads.fig18_block(1, 0)
    assert not set(sim_workloads.fig18_block(0, 5)) & set(
        sim_workloads.fig18_block(1, 0)
    )
    assert sim_workloads.network_seed(0, 3) != sim_workloads.network_seed(1, 3)
    a, b = serve_workload.Workload(0), serve_workload.Workload(1)
    assert a.fresh_job() != b.fresh_job()
    assert a.paced_schedule(5.0) != b.paced_schedule(5.0)


def test_same_seed_same_serve_inputs():
    first, second = serve_workload.Workload(7), serve_workload.Workload(7)
    assert [first.fresh_job() for _ in range(4)] == [
        second.fresh_job() for _ in range(4)
    ]
    assert first.paced_schedule(3.0) == second.paced_schedule(3.0)


@pytest.mark.parametrize("seed", [0, 1])
def test_checks_pass_on_other_seeds(seed):
    network = sim_workloads.network_unit(sim_workloads.network_seed(seed, 0))
    sim_workloads.check_network(network)
    fig18 = sim_workloads.fig18_unit(sim_workloads.fig18_block(seed, 0))
    sim_workloads.check_fig18(fig18)


def test_network_check_catches_missing_users():
    unit = sim_workloads.network_unit(sim_workloads.network_seed(0, 0))
    unit.quality["users"] = unit.quality["users"][:-1]
    with pytest.raises(sim_workloads.CheckFailed):
        sim_workloads.check_network(unit)


def test_traced_fig18_unit_is_bitwise_equal():
    seeds = sim_workloads.fig18_block(3, 0)
    plain = sim_workloads.fig18_unit(seeds)
    traced = sim_workloads.traced_fig18_unit(seeds)
    assert traced.fingerprint == plain.fingerprint


def test_pool_fig18_unit_is_bitwise_equal():
    blocks = [sim_workloads.fig18_block(4, i) for i in range(2)]
    serial = [sim_workloads.fig18_unit(block) for block in blocks]
    pooled = sim_workloads.fig18_unit(sum(blocks, ()), workers=2)
    assert pooled.executor[0].backend == "process"
    assert pooled.fingerprint == sim_workloads.merged_fingerprint(serial)


def test_traced_network_unit_is_bitwise_equal():
    from perfbench import tracing

    seed = sim_workloads.network_seed(2, 0)
    plain = sim_workloads.network_unit(seed)
    tracing.TRACER.reset()
    traced = sim_workloads.network_unit(seed, traced=True)
    assert traced.fingerprint == plain.fingerprint
    layers = tracing.TRACER.snapshot()["layers"]
    assert layers["network.interference.penalties_db"][0] == 1
    assert layers["core.maintenance.establish"][0] == sim_workloads.NETWORK_USERS


def test_patches_are_undone():
    from repro.core.superres import SuperResolver
    from perfbench import tracing

    original = SuperResolver.estimate
    with tracing.tracing():
        assert SuperResolver.estimate is not original
    assert SuperResolver.estimate is original


def test_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig18-mobile",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert '"correct"' not in result.stdout


def test_host_normalisation_rescales_to_the_reference_host():
    from perfbench import hostspeed

    ref = hostspeed.REFERENCE_S
    clock = hostspeed.HostClock(pieces=[(1.0, ref, ref), (1.0, 2 * ref, 2 * ref)])
    assert clock.normalised() == [1.0, pytest.approx(0.5 ** hostspeed.ELASTICITY)]
    assert clock.speed() == [1.0, 0.5]
    assert hostspeed.reference_kernel() > 0.0
