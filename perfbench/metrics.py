"""The benchmark's metric names, units and bounds (mirrored in BENCHMARK.json).

End-to-end metrics are measured untraced and printed for every workload
with ``--trace 0``.  Per-layer metrics come from the traced run
(``--trace 1``); their counts and times are *per unit* of the workload
(one Fig. 18 reproduction, one network run, one submitted job), so they
compare across commits that fit a different number of units into the
timed window.  A layer that does not run on a workload reads 0.
"""

from __future__ import annotations

from typing import List, Tuple

#: (name, unit, better, bound): bound is the share of the parent's median
#: by which the metric may worsen before a change counts as a regression.
#: Throughputs are medians over a run's units (or bursts), each unit's
#: time rescaled by the host's momentary speed (``hostspeed.py``; see
#: NOTES.md): on the shared 2-core VM the benchmark was tuned on, the
#: host alone moved run medians of identical work by up to 30%.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("sim_s_per_s", "s/s", "higher", 0.2),
    ("jobs_per_s", "1/s", "higher", 0.2),
    ("success_frac", "frac", "higher", 0.01),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("mmr_reliability", "frac", "higher", 0.1),
    ("mmr_throughput_mbps", "Mbps", "higher", 0.15),
]

#: Traced layers whose calls/busy/self are reported: (layer, fields).
LAYER_FIELDS: List[Tuple[str, Tuple[str, ...]]] = [
    ("core.maintenance.step", ("calls", "busy_s", "self_s")),
    ("core.superres.estimate", ("calls", "busy_s")),
    ("core.tracking.update", ("calls", "busy_s")),
    ("phy.ofdm.sound", ("calls", "busy_s")),
    ("core.maintenance.establish", ("calls", "busy_s", "self_s")),
    ("beamtraining.train", ("calls", "busy_s")),
    ("core.maintenance.link_snr_db_batch", ("calls", "busy_s")),
    ("channel.synth", ("calls", "busy_s")),
    ("sim.link.run", ("calls", "self_s")),
    ("network.interference.penalties_db", ("busy_s",)),
    ("network.scheduler.plan_cell", ("busy_s",)),
    ("serve.journal.append", ("calls", "busy_s")),
    ("serve.runner.execute_job", ("calls", "busy_s")),
]

_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s"}

#: Per-layer metrics that are not plain span totals: (name, unit, better).
EXTRA_PER_LAYER: List[Tuple[str, str, str]] = [
    ("baselines.step.busy_s", "s", "lower"),
    ("network.scenario.build_s", "s", "lower"),
    ("network.scheduler.probe_slots_denied", "count", "lower"),
    ("sim.executor.wall_s", "s", "lower"),
    ("sim.executor.busy_s", "s", "lower"),
    ("sim.executor.utilization", "frac", "higher"),
    ("sim.executor.pool_overhead_s", "s", "lower"),
    ("sim.executor.retries", "count", "lower"),
    ("sim.executor.pool_speedup", "ratio", "higher"),
    ("perf.cache.hit_ratio", "frac", "higher"),
    ("perf.cache.lookups", "count", "lower"),
    ("serve.journal.appends_per_job", "count", "lower"),
    ("serve.server.submit_ack_p50_ms", "ms", "lower"),
    ("serve.queue.wait_p50_ms", "ms", "lower"),
    ("serve.queue.wait_p90_ms", "ms", "lower"),
    ("serve.queue.depth_max", "count", "lower"),
    ("serve.server.executions_per_submission", "count", "lower"),
    ("serve.server.coalesced", "count", "higher"),
    ("serve.server.cached", "count", "higher"),
    ("serve.server.shed", "count", "lower"),
    ("serve.server.retries", "count", "lower"),
    ("serve.server.shutdown_stalls", "count", "lower"),
    ("loadgen.send_lag_p90_ms", "ms", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("failed_frac", "frac", "lower"),
    ("quality.txr_gain", "ratio", "higher"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.unaccounted_frac", "frac", "lower"),
]


def per_layer() -> List[Tuple[str, str, str]]:
    """Every per-layer metric: (name, unit, better)."""
    metrics = [
        (f"{layer}.{f}", _UNITS[f], "lower")
        for layer, fields in LAYER_FIELDS
        for f in fields
    ]
    return metrics + EXTRA_PER_LAYER


def units() -> dict:
    """Metric name -> unit, for both kinds."""
    table = {name: unit for name, unit, _b, _bound in END_TO_END}
    table.update({name: unit for name, unit, _b in per_layer()})
    return table
