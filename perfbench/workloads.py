"""The benchmark's workloads and the stepped driver that runs them.

A pass drives one workload through the program's public run path,
exactly as :func:`repro.cluster.runner.run_experiment` composes it:
``build_cluster`` -> ``FaultSchedule.install`` -> ``Cluster.run_until``
-> ``collect_result``.  The only difference is that ``run_until`` is
called once per fixed sim-time slice, so the host cost of every slice
can be timed; ``run_until`` leaves the clock exactly at each horizon,
so back-to-back slices dispatch the same events as one long call (the
benchmark's tests compare the two digests).

Everything a pass returns besides host timings is a pure function of
the workload and its seed, which is what :func:`digest` hashes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.cluster.builder import Cluster, build_cluster  # noqa: E402
from repro.cluster.faults import FaultSchedule  # noqa: E402
from repro.cluster.metrics import ExperimentResult  # noqa: E402
from repro.cluster.runner import RunSpec, collect_result  # noqa: E402
from repro.population.spec import PopulationSpec  # noqa: E402

import refloop  # noqa: E402

#: Offered load of the million-user arm: think time is N / OFFERED (figM).
MILLION_OFFERED = 50_000.0


@dataclass(frozen=True)
class Workload:
    """One benchmark input: a system under a load, cut into sim-time slices."""

    name: str
    system: str
    clients: int
    horizon: float
    warmup: float
    slices: int
    think_time: Optional[float] = None  # set => aggregate population
    crash_leader_at: Optional[float] = None
    bucket_width: float = 0.25

    @property
    def slice_width(self) -> float:
        return self.horizon / self.slices

    @property
    def warmup_slices(self) -> int:
        return round(self.warmup / self.slice_width)

    def boundaries(self) -> list[float]:
        """Slice ends; the last is exactly the horizon."""
        ends = [self.horizon * i / self.slices for i in range(1, self.slices)]
        return ends + [self.horizon]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # Fig. 2's deep-overload point: 3x past the ~50-client knee.
        Workload("paxos-overload", "paxos", 150, horizon=1.3, warmup=0.3, slices=260),
        # The paper's headline point: same load, proactive rejection on.
        Workload("idem-overload", "idem", 150, horizon=1.3, warmup=0.3, slices=260),
        # figM's 1M arm: analytic closed loop at the 50k req/s knee.
        Workload(
            "idem-million",
            "idem",
            1_000_000,
            horizon=1.5,
            warmup=0.25,
            slices=240,
            think_time=1_000_000 / MILLION_OFFERED,
        ),
        # Fig. 10's shape: a leader crash; 10 ms buckets resolve the outage, and
        # the run goes on long enough that outage slices stay a minority.  Slices
        # of 10 ms (about 40 ms of host time) let the reference runs around each
        # slice track the host speed better than 25 ms slices did.
        Workload(
            "idem-leader-crash",
            "idem",
            100,
            horizon=4.2,
            warmup=0.3,
            slices=420,
            crash_leader_at=1.0,
            bucket_width=0.01,
        ),
    )
}


def run_spec(workload: Workload, seed: int) -> RunSpec:
    """The :class:`RunSpec` the program receives for ``workload`` and ``seed``."""
    population = None
    if workload.think_time is not None:
        population = PopulationSpec(
            think_time=workload.think_time, reject_reentry="think"
        )
    faults = None
    if workload.crash_leader_at is not None:
        faults = FaultSchedule().crash_leader(workload.crash_leader_at)
    return RunSpec(
        system=workload.system,
        clients=workload.clients,
        duration=workload.horizon,
        warmup=workload.warmup,
        seed=seed,
        population=population,
        faults=faults,
        bucket_width=workload.bucket_width,
    )


def build(spec: RunSpec) -> Cluster:
    """Set-up: the cluster ``run_experiment`` builds, faults installed."""
    cluster = build_cluster(
        spec.system,
        spec.clients,
        seed=spec.seed,
        profile=spec.profile,
        overrides=spec.overrides,
        window_start=spec.warmup,
        window_end=spec.duration,
        schedule=spec.schedule,
        bucket_width=spec.bucket_width,
        stop_time=spec.duration,
        population=spec.population,
        core=spec.core,
    )
    if spec.faults is not None:
        spec.faults.install(cluster)
    return cluster


@dataclass
class Pass:
    """One run of a workload's full horizon."""

    workload: Workload
    result: ExperimentResult
    cluster: Cluster
    raw: list[float] = field(default_factory=list)  # host s per slice
    refs: list[float] = field(default_factory=list)  # reference runs between slices
    safety_violations: Optional[list[str]] = None

    @property
    def calibrated(self) -> list[float]:
        return refloop.calibrate_slices(self.raw, self.refs)

    @property
    def ops(self) -> int:
        """Client ops completed over the whole horizon: committed + rejected."""
        stats = self.result.client_stats
        return int(stats["successes"] + stats["rejections"])

    def measured_slowdowns(self) -> list[float]:
        """Calibrated host s per sim s of every post-warm-up slice."""
        width = self.workload.slice_width
        return [c / width for c in self.calibrated[self.workload.warmup_slices :]]


def run_pass(
    workload: Workload,
    seed: int,
    profiler=None,
    safety: bool = False,
) -> Pass:
    """Build, step through every slice timing it, and collect the result.

    A ``profiler`` (:class:`cProfile.Profile`) is switched on around
    each ``run_until`` only.  With ``safety`` a :class:`SafetyChecker`
    observes the pass; such a pass is not timed for reporting.
    """
    spec = run_spec(workload, seed)
    cluster = build(spec)
    checker = None
    if safety:
        from repro.cluster.chaos import SafetyChecker

        checker = SafetyChecker()
        checker.attach(cluster)
    raw: list[float] = []
    refs = [refloop.time_reference()]
    clock = time.perf_counter
    run_until = cluster.run_until
    for end in workload.boundaries():
        started = clock()
        if profiler is None:
            run_until(end)
        else:
            profiler.enable()
            run_until(end)
            profiler.disable()
        raw.append(clock() - started)
        refs.append(refloop.time_reference())
    result = collect_result(spec, cluster)
    violations = checker.finish(cluster, lag_slack=2.0) if checker is not None else None
    return Pass(workload, result, cluster, raw, refs, violations)


def digest(result: ExperimentResult) -> str:
    """Hash of every deterministic output of a run (16 hex digits)."""
    payload = {
        "throughput": result.throughput,
        "latency": asdict(result.latency),
        "reject_throughput": result.reject_throughput,
        "reject_latency": asdict(result.reject_latency),
        "timeouts": result.timeouts,
        "traffic": result.traffic,
        "replica_stats": result.replica_stats,
        "client_stats": result.client_stats,
        "dispatched_events": result.sim_stats["dispatched_events"],
    }
    text = json.dumps(payload, sort_keys=True, allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def outage(p: Pass) -> float:
    """Longest sim-time span without a committed reply after the fault.

    Resolved to the workload's metric bucket; 0 without a fault.
    """
    crash = p.workload.crash_leader_at
    if crash is None:
        return 0.0
    width = p.workload.bucket_width
    counter = p.cluster.metrics.reply_counter
    longest = current = 0
    for index in range(int(crash / width), int(p.workload.horizon / width + 1e-9)):
        current = current + 1 if counter.count_in_bucket(index) == 0 else 0
        longest = max(longest, current)
    return longest * width


def failed_ops(result: ExperimentResult) -> int:
    """Ops that ended in a timeout or a give-up."""
    stats = result.client_stats
    return int(stats["timeouts"] + stats["give_ups"])


def outcomes(p: Pass) -> dict[str, float]:
    """The paper's end-to-end model outputs (sim time; exact per seed)."""
    result = p.result
    stats = result.client_stats
    attempted = stats["commands"]
    return {
        "sim_goodput_rps": result.throughput,
        "sim_p50_ms": result.latency.p50 * 1e3,
        "sim_p99_ms": result.latency.p99 * 1e3,
        "sim_p999_ms": result.latency.p999 * 1e3,
        "sim_reject_share": stats["rejections"] / attempted,
        "sim_reject_p99_ms": result.reject_latency.p99 * 1e3,
        "sim_outage_s": outage(p),
        "error_share": failed_ops(result) / attempted,
    }


def work_counters(p: Pass) -> dict[str, float]:
    """Per-layer work counts from public result fields and loop counters."""
    result = p.result
    ops = p.ops
    replicas = result.replica_stats
    leader = p.cluster.current_leader()
    followers = [s for i, s in enumerate(replicas) if i != leader]
    traffic = result.traffic
    stats = result.client_stats
    accepted = sum(s["accepted"] for s in replicas)
    rejected = sum(s["rejected"] for s in replicas)
    arrivals = stats.get("arrivals", 0)
    return {
        "sim.events_per_op": result.sim_stats["dispatched_events"] / ops,
        "sim.peak_heap": result.sim_stats["peak_heap"],
        "sim.processor.leader_busy_frac": replicas[leader]["utilization"],
        "sim.processor.follower_busy_frac": sum(s["utilization"] for s in followers)
        / len(followers),
        "net.msgs_per_op": traffic["total_messages"] / ops,
        "net.bytes_per_op": traffic["total_bytes"] / ops,
        "net.replica_bytes_per_op": traffic["replica_bytes"] / ops,
        "protocols.ops_per_batch": max(s["executed"] for s in replicas)
        / max(1, sum(s["proposals"] for s in replicas)),
        "protocols.view_changes": max(s["view"] for s in replicas),
        "core.accept_ratio": accepted / (accepted + rejected) if accepted + rejected else 1.0,
        "core.forwards_per_kop": 1e3 * sum(s["forwards"] for s in replicas) / ops,
        "core.fetches_per_kop": 1e3 * sum(s["fetches"] for s in replicas) / ops,
        "clients.load_amplification": stats["load_amplification"],
        "population.arrivals_per_op": arrivals / ops,
        "population.shed_share": stats.get("shed_arrivals", 0) / arrivals if arrivals else 0.0,
    }


def invariant_problems(p: Pass) -> list[str]:
    """Consistency checks every pass must satisfy, whatever its seed."""
    problems = []
    result = p.result
    stats = result.client_stats
    settled = stats["successes"] + stats["rejections"] + stats["timeouts"]
    if settled > stats["commands"]:
        problems.append(f"{settled} ops settled but only {stats['commands']} issued")
    if p.ops < 1:
        problems.append("no client op completed")
    if not refloop.supports_tail(result.latency.count, 0.999):
        problems.append(
            f"{result.latency.count} committed samples cannot support p99.9"
        )
    if failed_ops(result):
        problems.append(f"{failed_ops(result)} ops timed out or gave up")
    for name, value in outcomes(p).items():
        if not math.isfinite(value) or value < 0:
            problems.append(f"{name} = {value}")
    if p.workload.crash_leader_at is not None and outage(p) <= 0:
        problems.append("the leader crash caused no outage")
    return problems
