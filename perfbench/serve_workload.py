"""The ``serve-jobs`` workload: the job server under a burst and a paced load.

The server runs in its own process, started the way users start it
(``python -m repro serve``, default job workers, fsync on), on the one
CPU the benchmark pins the serve-jobs run to.  This client
speaks the wire protocol over at most two connections: one carries
submissions, the other waits, results and stats.

* ``burst``: :data:`BURST_JOBS` distinct micro-ensemble jobs submitted
  back to back (each after the previous acknowledgement), then drained;
  repeated.  The burst stays below the queue's shedding threshold.  The
  client runs the host-speed reference kernel between bursts, while the
  server is idle (see ``hostspeed.py``).
* ``paced``: open-loop Poisson arrivals at :data:`PACED_RATE_PER_S`.  A
  share :data:`DUPLICATE_SHARE` are exact duplicates of earlier paced
  jobs (served by coalescing or from the succeeded cache); the rest are
  fresh jobs at the two horizons of :data:`HORIZONS_S`.  Latency runs
  from each request's due time to its result.

Nothing here imports the simulator: the client only builds job dicts.
"""

from __future__ import annotations

import json
import math
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from perfbench.hostspeed import HostClock

#: The two micro-job horizons [s]; every fresh job adds a sub-sample
#: jitter (see :func:`job_dict`) so jobs stay distinct at equal cost.
HORIZONS_S = (0.01, 0.05)
SEEDS_PER_JOB = 2
#: Jobs per burst: below the default queue's shedding threshold (48).
BURST_JOBS = 32
#: Paced arrival rate, a third of the burst capacity measured at the
#: commit that introduced the benchmark (44 jobs/s on a 2-core x86 VM);
#: fixed so that every commit sees the same offered load.  At half the
#: capacity, queueing amplified the host's own speed swings into a 24%
#: run-to-run spread of the median latency.
PACED_RATE_PER_S = 15.0
DUPLICATE_SHARE = 0.25
#: Enough paced requests for a p90 with ten samples beyond it, also of
#: the queue waits, which only the fresh three quarters of them have.
MIN_PACED_REQUESTS = 180
#: Shares of the timed window spent in each phase (the rest drains).
BURST_SHARE = 0.55
PACED_SHARE = 0.4
#: Concurrent executions of ``repro serve`` (its default ``--job-workers``).
JOB_WORKERS = 2
#: Bound on a graceful server shutdown before it counts as a stall.
SHUTDOWN_BOUND_S = 10.0
READY_TIMEOUT_S = 60.0


def job_dict(horizon_s: float, index: int, jitter_s: float) -> Dict[str, Any]:
    """A fresh micro-ensemble job.

    The horizon gets ``0.3 ms + jitter + index ns`` added: the sample
    count (one per ms) is the same for every job of a horizon, while the
    content hash (and so the job) is distinct.
    """
    return {
        "kind": "ensemble",
        "seeds": SEEDS_PER_JOB,
        "duration_s": horizon_s + 3e-4 + jitter_s + index * 1e-9,
    }


class Workload:
    """The generated inputs of one run, all drawn from ``--seed``."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"serve-jobs/{int(seed)}")
        self.jitter_s = self.rng.uniform(0.0, 2e-4)
        self.fresh = 0

    def fresh_job(self) -> Dict[str, Any]:
        """The next fresh job; horizons alternate."""
        job = job_dict(
            HORIZONS_S[self.fresh % len(HORIZONS_S)], self.fresh, self.jitter_s
        )
        self.fresh += 1
        return job

    def paced_schedule(self, seconds: float) -> List[Tuple[float, Optional[int]]]:
        """``(offset_s, duplicate_of)`` arrivals; ``None`` means fresh.

        Arrivals continue past ``seconds`` until there are
        :data:`MIN_PACED_REQUESTS`, so every reported percentile has its
        ten samples beyond it.
        """
        arrivals: List[Tuple[float, Optional[int]]] = []
        offset = 0.0
        fresh_positions: List[int] = []
        while True:
            offset += self.rng.expovariate(PACED_RATE_PER_S)
            if offset >= seconds and len(arrivals) >= MIN_PACED_REQUESTS:
                return arrivals
            if fresh_positions and self.rng.random() < DUPLICATE_SHARE:
                arrivals.append((offset, self.rng.choice(fresh_positions)))
            else:
                fresh_positions.append(len(arrivals))
                arrivals.append((offset, None))


# ----------------------------------------------------------------------
# wire protocol

class Connection:
    """One persistent JSON-lines connection to the server."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.stream = self.sock.makefile("r", encoding="utf-8")

    def send(self, payload: Dict[str, Any]) -> None:
        self.sock.sendall((json.dumps(payload) + "\n").encode("utf-8"))

    def receive(self) -> Dict[str, Any]:
        line = self.stream.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        self.send(payload)
        return self.receive()

    def wait(self, job_id: str) -> Dict[str, Any]:
        """The job's terminal record (progress events are skipped)."""
        self.send({"op": "wait", "id": job_id})
        while True:
            reply = self.receive()
            if "ok" in reply:
                if not reply["ok"]:
                    raise RuntimeError(f"wait {job_id}: {reply}")
                return reply["job"]

    def close(self) -> None:
        self.stream.close()
        self.sock.close()


# ----------------------------------------------------------------------
# the server process

@dataclass
class ServerProcess:
    process: subprocess.Popen
    port: int
    journal: str
    #: ``time.monotonic()`` of the server's clock zero.
    clock_zero: float = 0.0

    def sync_clock(self, conn: Connection) -> None:
        """Estimate the server's clock zero from the fastest stats round trip."""
        best = None
        for _ in range(5):
            sent = time.monotonic()
            uptime = conn.request({"op": "stats"})["stats"]["uptime_s"]
            received = time.monotonic()
            if best is None or received - sent < best[0]:
                best = (received - sent, 0.5 * (sent + received) - uptime)
        assert best is not None
        self.clock_zero = best[1]

    def client_time(self, server_s: float) -> float:
        return self.clock_zero + server_s

    def stop(self, conn: Optional[Connection]) -> int:
        """Graceful shutdown within :data:`SHUTDOWN_BOUND_S`; returns 1 on
        a stall (the server is then killed), else 0."""
        try:
            if conn is not None:
                conn.request({"op": "shutdown"})
            else:
                self.process.send_signal(signal.SIGTERM)
        except (OSError, ConnectionError):
            pass
        try:
            self.process.wait(timeout=SHUTDOWN_BOUND_S)
            return 0
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            return 1


def spawn_server(run_dir: str, env: Dict[str, str], name: str,
                 traced_dump: Optional[str] = None) -> ServerProcess:
    """Start ``repro serve`` on an ephemeral port; wait until it is bound."""
    journal = os.path.join(run_dir, f"{name}.jsonl")
    ready = os.path.join(run_dir, f"{name}.ready")
    serve_args = [
        "serve", "--port", "0", "--journal", journal, "--ready-file", ready,
    ]
    if traced_dump is None:
        command = [sys.executable, "-m", "repro"] + serve_args
    else:
        here = os.path.dirname(os.path.abspath(__file__))
        command = [
            sys.executable, os.path.join(here, "serve_traced.py"), traced_dump,
        ] + serve_args
    with open(os.path.join(run_dir, f"{name}.log"), "w", encoding="utf-8") as log:
        process = subprocess.Popen(
            command, env=env, stdout=log, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
        )
    deadline = time.monotonic() + READY_TIMEOUT_S
    while True:
        if os.path.exists(ready):
            with open(ready, encoding="utf-8") as stream:
                address = stream.read().strip()
            if address[-1:].isdigit():  # written in full
                break
        if process.poll() is not None or time.monotonic() > deadline:
            process.kill()
            process.wait()
            raise RuntimeError(f"job server did not start (see {name}.log)")
        time.sleep(0.005)
    port = int(address.rsplit(":", 1)[1])
    return ServerProcess(process, port, journal)


def dump_server_trace(server: ServerProcess, path: str) -> Dict[str, Any]:
    """Ask a traced server for its totals (``SIGUSR1``) and read them."""
    if os.path.exists(path):
        os.remove(path)
    server.process.send_signal(signal.SIGUSR1)
    deadline = time.monotonic() + 30.0
    while not os.path.exists(path):
        if time.monotonic() > deadline:
            raise RuntimeError("traced server wrote no trace")
        time.sleep(0.01)
    with open(path, encoding="utf-8") as stream:
        return json.load(stream)


# ----------------------------------------------------------------------
# the client

@dataclass
class Submission:
    """One request the client sent, and what came of it."""

    phase: str
    job: Dict[str, Any]
    due: float
    duplicate_of: Optional[int] = None
    sent: float = 0.0
    acked: float = 0.0
    reply: Dict[str, Any] = field(default_factory=dict)

    @property
    def accepted(self) -> bool:
        return bool(self.reply.get("ok"))

    @property
    def job_id(self) -> str:
        return str(self.reply.get("id", ""))


@dataclass
class ServeRun:
    submissions: List[Submission] = field(default_factory=list)
    #: Per burst: (jobs, simulated link-seconds, drain wall [s]).
    bursts: List[Tuple[int, float, float]] = field(default_factory=list)
    records: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Brackets each burst's drain with the host-speed reference kernel.
    clock: HostClock = field(default_factory=HostClock)


def _submit(conn: Connection, sub: Submission) -> None:
    sub.sent = time.monotonic()
    sub.reply = conn.request({"op": "submit", "job": sub.job})
    sub.acked = time.monotonic()


def _collect(conn: Connection, run: ServeRun, subs: List[Submission]) -> None:
    for sub in subs:
        if sub.accepted and sub.job_id not in run.records:
            run.records[sub.job_id] = conn.wait(sub.job_id)


def warm_up(workload: Workload, control: Connection, submit: Connection,
            run: ServeRun) -> None:
    """One job per horizon, before any timing (fills the server's caches)."""
    subs = [
        Submission("warmup", workload.fresh_job(), time.monotonic())
        for _ in HORIZONS_S
    ]
    for sub in subs:
        _submit(submit, sub)
    _collect(control, run, subs)
    run.submissions.extend(subs)


def burst_phase(server: ServerProcess, workload: Workload, control: Connection,
                submit: Connection, run: ServeRun, seconds: float) -> None:
    """Bursts of distinct jobs until ``seconds`` have passed."""
    end = time.monotonic() + seconds
    run.clock.start()
    while True:
        subs = [
            Submission("burst", workload.fresh_job(), time.monotonic())
            for _ in range(BURST_JOBS)
        ]
        for sub in subs:
            sub.due = time.monotonic()
            _submit(submit, sub)
        _collect(control, run, subs)
        finished = max(
            server.client_time(run.records[s.job_id]["finished_at_s"])
            for s in subs
        )
        sim_s = sum(SEEDS_PER_JOB * s.job["duration_s"] for s in subs)
        run.bursts.append((len(subs), sim_s, finished - subs[0].sent))
        run.clock.record(finished - subs[0].sent)
        run.submissions.extend(subs)
        if time.monotonic() >= end:
            return


def paced_phase(workload: Workload, control: Connection, submit: Connection,
                run: ServeRun, seconds: float) -> None:
    """Open-loop arrivals; acknowledgements are read on another thread."""
    schedule = workload.paced_schedule(seconds)
    subs: List[Submission] = []
    for _offset, duplicate_of in schedule:
        job = (
            workload.fresh_job()
            if duplicate_of is None
            else subs[duplicate_of].job
        )
        subs.append(Submission("paced", job, 0.0, duplicate_of))
    pending: List[Submission] = []
    pending_lock = threading.Lock()
    errors: List[BaseException] = []

    def read_acks() -> None:
        try:
            for _ in subs:
                reply = submit.receive()
                now = time.monotonic()
                with pending_lock:
                    sub = pending.pop(0)
                sub.reply, sub.acked = reply, now
        except BaseException as error:  # surfaced after the join
            errors.append(error)

    reader = threading.Thread(target=read_acks, daemon=True)
    reader.start()
    start = time.monotonic() + 0.01
    for sub, (offset, _dup) in zip(subs, schedule):
        sub.due = start + offset
        delay = sub.due - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        with pending_lock:
            pending.append(sub)
        sub.sent = time.monotonic()
        submit.send({"op": "submit", "job": sub.job})
    reader.join(timeout=120)
    if reader.is_alive() or errors:
        raise RuntimeError(f"paced acknowledgements lost: {errors}")
    _collect(control, run, subs)
    run.submissions.extend(subs)


def latencies_s(server: ServerProcess, run: ServeRun) -> List[float]:
    """Due time to result, per paced request.

    A refused, shed or failed request misses every latency target, so it
    counts as infinitely late.
    """
    values = []
    for sub in run.submissions:
        if sub.phase != "paced":
            continue
        record = run.records.get(sub.job_id) if sub.accepted else None
        if record is None or record["state"] != "succeeded":
            values.append(math.inf)
            continue
        done = server.client_time(record["finished_at_s"])
        values.append(max(done, sub.acked) - sub.due)
    return values


# ----------------------------------------------------------------------
# the audit

def read_journal(path: str) -> List[Dict[str, Any]]:
    ops = []
    with open(path, encoding="utf-8") as stream:
        for line in stream:
            if line.strip():
                ops.append(json.loads(line))
    return ops


def audit(run: ServeRun, ops: List[Dict[str, Any]]) -> Tuple[List[str], Dict[str, float]]:
    """Check the served results against the journal; returns problems and counts."""
    problems: List[str] = []
    fresh = [s for s in run.submissions if s.duplicate_of is None]
    duplicates = [s for s in run.submissions if s.duplicate_of is not None]
    accepted_ids = {s.job_id for s in run.submissions if s.accepted}
    terminal: Dict[str, int] = {}
    starts = 0
    for op in ops:
        if op["op"] in ("done", "shed"):
            terminal[op["id"]] = terminal.get(op["id"], 0) + 1
        elif op["op"] == "start":
            starts += 1
    for job_id in sorted(accepted_ids):
        if terminal.get(job_id, 0) != 1:
            problems.append(
                f"{job_id}: {terminal.get(job_id, 0)} terminal journal entries"
            )
        elif run.records[job_id]["state"] != "succeeded":
            problems.append(f"{job_id}: ended {run.records[job_id]['state']}")
    distinct_fresh = {json.dumps(s.job, sort_keys=True) for s in fresh}
    if starts != len(distinct_fresh):
        problems.append(
            f"{starts} executions for {len(distinct_fresh)} distinct fresh jobs"
        )
    paced = [s for s in run.submissions if s.phase == "paced"]
    for sub in duplicates:
        original = paced[sub.duplicate_of]
        if not (sub.accepted and original.accepted):
            continue
        mine = run.records[sub.job_id].get("result")
        theirs = run.records[original.job_id].get("result")
        if mine != theirs:
            problems.append(
                f"duplicate {sub.job_id} result differs from {original.job_id}"
            )
    counts = {
        "journal_ops": float(len(ops)),
        "accepted_jobs": float(len(accepted_ids)),
        "executions": float(starts),
        "fresh": float(len(fresh)),
        "duplicates": float(len(duplicates)),
    }
    return problems, counts


def quality(run: ServeRun) -> Dict[str, float]:
    """mmReliable link quality over the first burst's jobs (fixed per seed)."""
    first = [s for s in run.submissions if s.phase == "burst"][:BURST_JOBS]
    results = [run.records[s.job_id]["result"] for s in first]
    return {
        "mmr_reliability": sum(r["median_reliability"] for r in results)
        / len(results),
        "mmr_throughput_mbps": sum(r["mean_throughput_bps"] for r in results)
        / len(results) / 1e6,
    }
