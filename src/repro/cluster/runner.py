"""The experiment runner: one run = one seeded simulation.

A :class:`RunSpec` describes everything about a run (system, load,
duration, faults, overrides); :func:`run_experiment` executes it and
returns an :class:`~repro.cluster.metrics.ExperimentResult`.  The
conventions follow the paper's methodology (Section 7.1): a warm-up
period is excluded from measurement, and results are averaged over
multiple seeded runs by the experiment layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Optional

from repro.cluster.builder import Cluster, build_cluster
from repro.cluster.faults import FaultSchedule
from repro.cluster.metrics import ExperimentResult
from repro.cluster.profile import ClusterProfile
from repro.population.aggregate import AggregateClientNode
from repro.population.spec import PopulationSpec
from repro.workload.open_loop import ArrivalSpec, OpenLoopDriver
from repro.workload.schedule import LoadSchedule


@dataclass
class RunSpec:
    """A complete description of one experiment run."""

    system: str
    clients: int
    duration: float = 1.0
    warmup: float = 0.3
    seed: int = 0
    profile: Optional[ClusterProfile] = None
    overrides: dict[str, Any] = field(default_factory=dict)
    faults: Optional[FaultSchedule] = None
    schedule: Optional[LoadSchedule] = None
    # Open-loop load generation: when set, clients are not started as a
    # closed loop; an OpenLoopDriver feeds them Poisson arrivals at the
    # spec's piecewise rates instead (metastability experiments).
    arrivals: Optional[ArrivalSpec] = None
    # Aggregate client population (repro.population): when set, the
    # ``clients`` count becomes N *virtual* clients folded into one
    # AggregateClientNode.  Composes with ``schedule`` (modulates the
    # active population) and ``arrivals`` (drives the aggregate
    # open-loop instead of closed-loop).  When None, nothing changes —
    # runs are byte-identical to the per-object client path.
    population: Optional[PopulationSpec] = None
    bucket_width: float = 0.25
    keep_metrics: bool = False
    # Attach a SafetyChecker and report invariant violations in the
    # result (crash/chaos experiments).
    safety: bool = False
    # Attach an ObservabilityHub (repro.obs): request-lifecycle tracing
    # plus periodically sampled replica internals.  Observer-only — a
    # seeded run returns byte-identical results with this on or off.
    observe: bool = False
    obs_sample_interval: float = 0.01
    # Record replica-state probe series (repro.obs.probes) into a flight
    # recorder and run the drift detectors over them; findings land in
    # ExperimentResult.findings.  Implies a hub.  Observer-pure like
    # `observe` — probing rides the same sampling tick, so a probed run
    # is byte-identical to an observed one (and to a bare one).
    probes: bool = False
    # Not a field (RunSpec(core=...) is a TypeError) and always None:
    # there is one event loop.  Kept only because perfbench/workloads.py
    # reads spec.core.
    core: ClassVar[Optional[str]] = None

    def __post_init__(self) -> None:
        if self.warmup >= self.duration:
            raise ValueError(
                f"warmup ({self.warmup}) must be shorter than the run "
                f"duration ({self.duration})"
            )


def run_experiment(spec: RunSpec) -> ExperimentResult:
    """Execute one run and collect its results."""
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
        start_clients=spec.arrivals is None or spec.population is not None,
        population=spec.population,
        arrivals=spec.arrivals if spec.population is not None else None,
    )
    driver = None
    if spec.arrivals is not None and spec.population is None:
        driver = OpenLoopDriver(
            cluster.loop,
            cluster.clients,
            spec.arrivals,
            cluster.rng.stream("open_loop.arrivals"),
            stop_time=spec.duration,
        )
        driver.start()
    checker = None
    if spec.safety:
        from repro.cluster.chaos import SafetyChecker

        checker = SafetyChecker()
        checker.attach(cluster)
    hub = None
    if spec.observe or spec.probes:
        from repro.obs import ObservabilityHub

        # Probe-only runs keep a minimal tracer (events drop at the cap)
        # so the recorder's memory footprint dominates, not the trace.
        hub = ObservabilityHub(
            sample_interval=spec.obs_sample_interval,
            max_events=2_000_000 if spec.observe else 1,
            probes=spec.probes,
        )
        hub.attach(cluster, horizon=spec.duration)
        if spec.faults is not None:
            hub.annotate_faults(spec.faults, spec.duration)
    if spec.faults is not None:
        spec.faults.install(cluster)
    cluster.run_until(spec.duration)
    return collect_result(spec, cluster, checker, hub, driver)


def collect_result(
    spec: RunSpec, cluster: Cluster, checker=None, hub=None, driver=None
) -> ExperimentResult:
    """Assemble an :class:`ExperimentResult` from a finished cluster."""
    metrics = cluster.metrics
    client_stats = cluster.client_stats()
    if driver is not None:
        client_stats["arrivals"] = driver.arrivals
        client_stats["shed_arrivals"] = driver.shed_arrivals
    elif len(cluster.clients) == 1 and isinstance(
        cluster.clients[0], AggregateClientNode
    ):
        node = cluster.clients[0]
        client_stats["virtual_clients"] = node.n_clients
        client_stats["arrivals"] = node.arrivals_generated
        client_stats["shed_arrivals"] = node.shed_arrivals
        client_stats["lost_arrivals"] = node.lost_arrivals
        client_stats["feedback_ticks"] = node.feedback_ticks
    findings = None
    if hub is not None and hub.recorder is not None:
        from repro.obs import DetectorConfig, findings_jsonable, run_detectors

        findings = findings_jsonable(
            run_detectors(
                hub.recorder,
                DetectorConfig(interval=spec.obs_sample_interval),
            )
        )
    return ExperimentResult(
        system=spec.system,
        clients=spec.clients,
        seed=spec.seed,
        duration=spec.duration,
        warmup=spec.warmup,
        throughput=metrics.throughput(),
        latency=metrics.latency_summary(),
        reject_throughput=metrics.reject_throughput(),
        reject_latency=metrics.reject_latency_summary(),
        timeouts=metrics.timeouts,
        traffic=cluster.network.traffic.snapshot(),
        replica_stats=cluster.replica_stats(),
        metrics=metrics if spec.keep_metrics else None,
        # The run stops mid-flight (no drain), so window-deep lag
        # between live replicas is legitimate; allow double slack.
        safety_violations=(
            checker.finish(cluster, lag_slack=2.0) if checker is not None else None
        ),
        obs=hub,
        findings=findings,
        sim_stats={
            "dispatched_events": cluster.loop.dispatched_events,
            "peak_heap": cluster.loop.peak_heap,
            "drained_tombstones": cluster.loop.drained_tombstones,
        },
        client_stats=client_stats,
    )
