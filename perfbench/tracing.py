"""Layer tracing from outside ``src/``: spans around calls into each layer.

Two mechanisms, both used only by the traced run (``--trace 1``):

* **Instance proxies** (:class:`Traced`) around the duck-typed objects
  :class:`repro.sim.link.LinkSimulator` already accepts — the scenario,
  the beam manager, ``manager.sounder`` and ``manager.trainer`` — and
  around :class:`repro.network.scenario.NetworkScenario`.  A proxy
  forwards every attribute read and write to the wrapped object and
  times only the listed methods, so the program computes exactly what
  it computes untraced.
* **Class patches** (:func:`patched_layers`) on public methods the
  proxies cannot reach: ``SuperResolver.estimate``,
  ``MultiBeamTracker.update``, ``InterferenceModel.penalties_db``,
  ``SlotScheduler.plan_cell``, ``JobJournal.append``,
  ``AdmissionQueue.offer``/``pop`` and ``execute_job`` as
  :mod:`repro.serve.server` imports it.  They are undone on exit.

A span's *self* time is its duration minus the time covered by spans it
called.  Spans nest per thread.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.perf.cache import cache_stats


def cache_totals() -> Tuple[int, int]:
    stats = cache_stats().values()
    return (
        sum(s["hits"] for s in stats),
        sum(s["lookups"] for s in stats),
    )


class Tracer:
    """Per-layer call counts, busy time and self time for one process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.enabled = False
        self.reset()

    def reset(self) -> None:
        """Zero every total."""
        with self._lock:
            self._local = threading.local()
            self.layers: Dict[str, List[float]] = {}
            self.counters: Dict[str, float] = {}
            self.root_busy_s = 0.0
            self.queue_waits_s: List[float] = []
            self.queue_depth_max = 0
            self._enqueued: Dict[int, float] = {}

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer: str, fn: Callable[..., Any], *args: Any,
             **kwargs: Any) -> Any:
        """Run ``fn`` inside a span named ``layer``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        stack.append(0.0)
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            children = stack.pop()
            with self._lock:
                totals = self.layers.setdefault(layer, [0, 0.0, 0.0])
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - children
                if not stack:
                    self.root_busy_s += elapsed
            if stack:
                stack[-1] += elapsed

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    # queue bookkeeping (serve layer)

    def enqueued(self, key: int, depth: int) -> None:
        with self._lock:
            self._enqueued[key] = time.perf_counter()
            self.queue_depth_max = max(self.queue_depth_max, depth)

    def dequeued(self, key: int) -> None:
        with self._lock:
            started = self._enqueued.pop(key, None)
            if started is not None:
                self.queue_waits_s.append(time.perf_counter() - started)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe totals, with the process's cache counters so far."""
        hits, lookups = cache_totals()
        with self._lock:
            return {
                "layers": {k: list(v) for k, v in self.layers.items()},
                "counters": dict(self.counters),
                "root_busy_s": self.root_busy_s,
                "queue_waits_s": list(self.queue_waits_s),
                "queue_depth_max": self.queue_depth_max,
                "cache_hits": hits,
                "cache_lookups": lookups,
            }

    def dump(self, path: str) -> None:
        """Write :meth:`snapshot` atomically to ``path``."""
        partial_path = f"{path}.part"
        with open(partial_path, "w", encoding="utf-8") as stream:
            json.dump(self.snapshot(), stream)
        os.replace(partial_path, path)


#: The process's tracer.  Module-level because the class patches must
#: reach it without arguments.
TRACER = Tracer()


def diff(later: Dict[str, Any], earlier: Dict[str, Any]) -> Dict[str, Any]:
    """What happened between two snapshots of one tracer."""
    layers = {}
    for name, totals in later["layers"].items():
        before = earlier["layers"].get(name, [0, 0.0, 0.0])
        layers[name] = [a - b for a, b in zip(totals, before)]
    return {
        "layers": layers,
        "counters": {
            name: value - earlier["counters"].get(name, 0)
            for name, value in later["counters"].items()
        },
        "root_busy_s": later["root_busy_s"] - earlier["root_busy_s"],
        "queue_waits_s": later["queue_waits_s"][len(earlier["queue_waits_s"]):],
        "queue_depth_max": later["queue_depth_max"],
        "cache_hits": later["cache_hits"] - earlier["cache_hits"],
        "cache_lookups": later["cache_lookups"] - earlier["cache_lookups"],
    }


# ----------------------------------------------------------------------
# instance proxies

class Traced:
    """Forwards everything to ``inner``; times the methods in ``spans``.

    ``spans`` maps a method name to ``(layer, wrap_result)``, where
    ``wrap_result`` (or ``None``) wraps the method's return value.
    """

    __slots__ = ("_inner", "_spans")

    def __init__(
        self,
        inner: Any,
        spans: Dict[str, Tuple[str, Optional[Callable[[Any], Any]]]],
    ) -> None:
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(self, "_spans", spans)

    def __getattr__(self, name: str) -> Any:
        value = getattr(self._inner, name)
        span = self._spans.get(name)
        if span is None:
            return value
        layer, wrap_result = span

        def timed(*args: Any, **kwargs: Any) -> Any:
            result = TRACER.call(layer, value, *args, **kwargs)
            return result if wrap_result is None else wrap_result(result)

        return timed

    def __setattr__(self, name: str, value: Any) -> None:
        setattr(self._inner, name, value)


def _layer_prefix(obj: Any) -> str:
    module = type(obj).__module__
    return module[len("repro."):] if module.startswith("repro.") else module


def _wrap_batch(batch: Any) -> Traced:
    return Traced(batch, {"precompute": ("channel.synth", None)})


def wrap_scenario(scenario: Any) -> Traced:
    """A link scenario whose channel synthesis is timed."""
    return Traced(scenario, {
        "channel_at": ("channel.synth", None),
        "channel_batch": ("channel.synth", _wrap_batch),
    })


_SOUND = ("phy.ofdm.sound", None)


def wrap_manager(manager: Any) -> Traced:
    """A beam manager with its sounder and trainer proxied too.

    Layers are named after the manager's module, so mmReliable's
    :class:`~repro.core.maintenance.MultiBeamManager` reports as
    ``core.maintenance.*`` and each baseline under ``baselines.*``.
    """
    sounder = Traced(manager.sounder, {
        "sound": _SOUND, "sound_many": _SOUND,
        "sound_with_band_weights": _SOUND,
    })
    manager.sounder = sounder
    trainer = getattr(manager, "trainer", None)
    if trainer is not None:
        if getattr(trainer, "sounder", None) is not None:
            trainer.sounder = sounder
        manager.trainer = Traced(
            trainer, {"train": ("beamtraining.train", None)}
        )
    prefix = _layer_prefix(manager)
    return Traced(manager, {
        name: (f"{prefix}.{name}", None)
        for name in ("establish", "step", "link_snr_db", "link_snr_db_batch")
    })


def wrap_network_scenario(scenario: Any) -> Traced:
    """A :class:`NetworkScenario` whose per-user links come out traced."""
    build = "network.scenario.build"
    return Traced(scenario, {
        "user_batch": (build, None),
        "link_scenario": (build, wrap_scenario),
        "build_manager": (build, wrap_manager),
    })


class TracedLinkRun:
    """A :class:`LinkSimulator` whose ``run`` is timed as ``sim.link.run``."""

    def __init__(self, simulator: Any) -> None:
        self.simulator = simulator

    def install_fault_injector(self, injector: Any) -> None:
        self.simulator.install_fault_injector(injector)

    def run(self) -> Any:
        return TRACER.call("sim.link.run", self.simulator.run)


def traced_link_simulator(
    scenario_factory: Callable[[int], Any],
    manager_factory: Callable[[int], Any],
    duration_s: float,
    sample_period_s: float,
    maintenance_period_s: float,
    seed: int,
) -> TracedLinkRun:
    """Simulator factory: the executor's own link build, proxied."""
    from repro.sim.link import LinkSimulator

    simulator = LinkSimulator(
        scenario=wrap_scenario(scenario_factory(seed)),
        manager=wrap_manager(manager_factory(seed)),
        duration_s=duration_s,
        sample_period_s=sample_period_s,
        maintenance_period_s=maintenance_period_s,
    )
    return TracedLinkRun(simulator)


def traced_spec(spec: Any) -> Any:
    """An ensemble spec whose seed-runs build traced link simulators."""
    factory = functools.partial(
        traced_link_simulator,
        spec.scenario_factory,
        spec.manager_factory,
        spec.duration_s,
        spec.sample_period_s,
        spec.maintenance_period_s,
    )
    return spec.with_options(
        scenario_factory=None, manager_factory=None, simulator_factory=factory
    )


# ----------------------------------------------------------------------
# class patches

def _timed_method(layer: str, original: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(original)
    def timed(*args: Any, **kwargs: Any) -> Any:
        return TRACER.call(layer, original, *args, **kwargs)

    return timed


@contextlib.contextmanager
def patched_layers() -> Iterator[None]:
    """Patch the public layer methods named in the module docstring."""
    from repro.core.superres import SuperResolver
    from repro.core.tracking import MultiBeamTracker
    from repro.network.interference import InterferenceModel
    from repro.network.scheduler import SlotScheduler
    from repro.serve import server as serve_server
    from repro.serve.journal import JobJournal
    from repro.serve.queue import AdmissionQueue

    originals = [
        (SuperResolver, "estimate", SuperResolver.estimate),
        (MultiBeamTracker, "update", MultiBeamTracker.update),
        (InterferenceModel, "penalties_db", InterferenceModel.penalties_db),
        (SlotScheduler, "plan_cell", SlotScheduler.plan_cell),
        (JobJournal, "append", JobJournal.append),
        (AdmissionQueue, "offer", AdmissionQueue.offer),
        (AdmissionQueue, "pop", AdmissionQueue.pop),
        (serve_server, "execute_job", serve_server.execute_job),
    ]
    plan_cell = SlotScheduler.plan_cell
    offer = AdmissionQueue.offer
    pop = AdmissionQueue.pop

    def traced_plan_cell(self: Any, *args: Any, **kwargs: Any) -> Any:
        plan = TRACER.call(
            "network.scheduler.plan_cell", plan_cell, self, *args, **kwargs
        )
        if TRACER.enabled:
            TRACER.count(
                "network.scheduler.probe_slots_denied", plan.probe_slots_denied
            )
        return plan

    def traced_offer(self: Any, record: Any) -> Any:
        evicted = TRACER.call("serve.queue.offer", offer, self, record)
        if TRACER.enabled:
            TRACER.enqueued(id(record), len(self))
        return evicted

    def traced_pop(self: Any) -> Any:
        record = TRACER.call("serve.queue.pop", pop, self)
        if record is not None and TRACER.enabled:
            TRACER.dequeued(id(record))
        return record

    SuperResolver.estimate = _timed_method(
        "core.superres.estimate", SuperResolver.estimate
    )
    MultiBeamTracker.update = _timed_method(
        "core.tracking.update", MultiBeamTracker.update
    )
    InterferenceModel.penalties_db = _timed_method(
        "network.interference.penalties_db", InterferenceModel.penalties_db
    )
    SlotScheduler.plan_cell = traced_plan_cell
    JobJournal.append = _timed_method(
        "serve.journal.append", JobJournal.append
    )
    AdmissionQueue.offer = traced_offer
    AdmissionQueue.pop = traced_pop
    serve_server.execute_job = _timed_method(
        "serve.runner.execute_job", serve_server.execute_job
    )
    try:
        yield
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)


@contextlib.contextmanager
def tracing() -> Iterator[Tracer]:
    """Enable :data:`TRACER` with the class patches in place.

    Totals accumulate across uses until :meth:`Tracer.reset`.
    """
    with patched_layers():
        TRACER.enabled = True
        try:
            yield TRACER
        finally:
            TRACER.enabled = False
