"""Campaign planning: expand an experiment selection into a job DAG.

Every figure/table of the paper decomposes into fully independent,
deterministic jobs — either one seeded simulation run (a
:class:`~repro.cluster.runner.RunSpec`) or one Table 1 traffic cell.
The planner asks each experiment module for the specs behind its
``run()`` (``plan_runs``/``plan_cells``) and wraps them into
:class:`Job` objects with a *content-addressed key*: the SHA-256 of the
canonicalised job payload plus the ``repro`` package version and the
cache schema version.  Two jobs with the same key are the same
computation, so

* identical specs shared by several experiments (e.g. the 2x/8x idem
  points of Figures 7 and 9b) execute once per campaign, and
* results can be cached on disk and reused across campaigns.

The key deliberately excludes the experiment id and the display label —
only what determines the simulation's outcome is hashed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Optional

import repro
from repro.cluster.faults import (
    CrashFault,
    FaultSchedule,
    HealFault,
    LatencySpike,
    LossWindow,
    PartitionFault,
    RecoverFault,
    SlowReplica,
)
from repro.cluster.profile import ClusterProfile
from repro.cluster.runner import RunSpec
from repro.experiments.registry import get_experiment
from repro.population.spec import PopulationSpec
from repro.workload.open_loop import ArrivalSpec
from repro.workload.schedule import (
    BurstSchedule,
    ConstantSchedule,
    LoadSchedule,
    StepSchedule,
)
from repro.workload.ycsb import YcsbProfile

# Bump when the payload format or result layout changes incompatibly;
# old cache entries then simply stop matching.
# Schema history: 2 — ExperimentResult gained sim_stats (event-loop
# execution profile), changing pickles and result fingerprints.
# 3 — ExperimentResult gained client_stats (resilience counters),
# MetricsCollector gained timeout latencies, and RunSpec payloads
# gained schedule/arrivals entries (open-loop retry-storm runs).
# 4 — RunSpec payloads gained probes/probe_interval (replica-state
# probing + drift detection), ExperimentResult gained findings.
# 5 — RunSpec payloads gained a population entry (repro.population
# aggregate-client backend) and client_stats gained aggregate-pool
# counters for population runs.
# 6 — sharded campaign execution: a "sim-shard" job kind (a sim payload
# plus a cohort descriptor) and a shard-merge reducer.
# 7 — sharded execution removed: K clusters at C/K clients change the
# per-replica load, so no schema-6 cohort entry may match again.
CACHE_SCHEMA = 7

KIND_SIM = "sim"
KIND_CELL = "tab1-cell"

_FAULT_TYPES = {
    cls.__name__: cls
    for cls in (
        CrashFault,
        RecoverFault,
        PartitionFault,
        HealFault,
        LossWindow,
        SlowReplica,
        LatencySpike,
    )
}


_SCHEDULE_TYPES = {
    cls.__name__: cls for cls in (ConstantSchedule, StepSchedule, BurstSchedule)
}


class UnplannableSpec(ValueError):
    """The spec uses features the campaign cannot serialise (and hence
    cannot key, distribute or cache); it must run inline instead."""


@dataclass(frozen=True)
class Job:
    """One independent unit of campaign work."""

    experiment_id: str
    kind: str  # KIND_SIM or KIND_CELL
    payload: dict[str, Any]  # canonical JSON-safe description; treat as immutable
    label: str  # human-readable, excluded from the key

    @property
    def key(self) -> str:
        return job_key(self.kind, self.payload)


def canonical_json(value: Any) -> str:
    """Deterministic JSON rendering (sorted keys, no whitespace)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def job_key(kind: str, payload: dict[str, Any]) -> str:
    """Content-addressed key of a job."""
    text = f"{CACHE_SCHEMA}:{repro.__version__}:{kind}:{canonical_json(payload)}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _check_jsonable(value: Any, where: str) -> Any:
    """Validate that ``value`` contains only JSON-safe primitives."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_check_jsonable(item, where) for item in value]
    if isinstance(value, dict):
        return {
            str(key): _check_jsonable(item, where) for key, item in value.items()
        }
    raise UnplannableSpec(
        f"{where} contains a non-serialisable value of type {type(value).__name__}"
    )


def profile_to_payload(profile: ClusterProfile) -> dict[str, Any]:
    """Serialise a cluster profile (including its workload) to JSON-safe data."""
    payload = dataclasses.asdict(profile)
    return _check_jsonable(payload, "ClusterProfile")


def payload_to_profile(payload: dict[str, Any]) -> ClusterProfile:
    data = dict(payload)
    workload = YcsbProfile(**data.pop("workload"))
    return ClusterProfile(workload=workload, **data)


def faults_to_payload(faults: FaultSchedule) -> list[dict[str, Any]]:
    """Serialise a fault schedule; every fault is a frozen dataclass of
    primitives, keyed by its class name."""
    serialised = []
    for fault in faults.faults:
        name = type(fault).__name__
        if name not in _FAULT_TYPES:
            raise UnplannableSpec(f"unknown fault type {name!r}")
        entry = {"type": name}
        entry.update(_check_jsonable(dataclasses.asdict(fault), name))
        serialised.append(entry)
    return serialised


def payload_to_faults(payload: list[dict[str, Any]]) -> FaultSchedule:
    faults = []
    for entry in payload:
        data = dict(entry)
        cls = _FAULT_TYPES[data.pop("type")]
        faults.append(cls(**data))
    return FaultSchedule(faults)


def schedule_to_payload(schedule: LoadSchedule) -> dict[str, Any]:
    """Serialise a built-in load schedule; like faults, every built-in
    schedule is a frozen dataclass of primitives keyed by class name.
    Custom :class:`LoadSchedule` subclasses stay unplannable."""
    cls = type(schedule)
    if _SCHEDULE_TYPES.get(cls.__name__) is not cls:
        raise UnplannableSpec(
            f"load schedule type {cls.__name__!r} is not campaign-serialisable"
        )
    entry = {"type": cls.__name__}
    entry.update(_check_jsonable(dataclasses.asdict(schedule), cls.__name__))
    return entry


def payload_to_schedule(payload: dict[str, Any]) -> LoadSchedule:
    data = dict(payload)
    cls = _SCHEDULE_TYPES[data.pop("type")]
    if cls is StepSchedule:
        data["steps"] = tuple(
            (float(time), int(clients)) for time, clients in data["steps"]
        )
    return cls(**data)


def arrivals_to_payload(arrivals: ArrivalSpec) -> dict[str, Any]:
    """Serialise an open-loop arrival plan (piecewise Poisson rates)."""
    return {
        "steps": [[float(time), float(rate)] for time, rate in arrivals.steps]
    }


def payload_to_arrivals(payload: dict[str, Any]) -> ArrivalSpec:
    return ArrivalSpec(
        steps=tuple((float(time), float(rate)) for time, rate in payload["steps"])
    )


def population_to_payload(population: PopulationSpec) -> dict[str, Any]:
    """Serialise an aggregate client-population spec (frozen dataclass
    of primitives, like the fault and arrival types)."""
    return _check_jsonable(dataclasses.asdict(population), "PopulationSpec")


def payload_to_population(payload: dict[str, Any]) -> PopulationSpec:
    return PopulationSpec(**payload)


def spec_to_payload(spec: RunSpec) -> dict[str, Any]:
    """Canonical JSON-safe description of a run spec.

    Raises :class:`UnplannableSpec` for specs the campaign cannot
    faithfully reconstruct in a worker process (custom load-schedule
    subclasses, observability hubs attached to the result).
    """
    if spec.observe:
        raise UnplannableSpec("observed runs (spec.observe) are not cacheable")
    return {
        "system": spec.system,
        "clients": spec.clients,
        "duration": spec.duration,
        "warmup": spec.warmup,
        "seed": spec.seed,
        "bucket_width": spec.bucket_width,
        "keep_metrics": spec.keep_metrics,
        "safety": spec.safety,
        "overrides": _check_jsonable(spec.overrides, "RunSpec.overrides"),
        "profile": None if spec.profile is None else profile_to_payload(spec.profile),
        "faults": None if spec.faults is None else faults_to_payload(spec.faults),
        "schedule": (
            None if spec.schedule is None else schedule_to_payload(spec.schedule)
        ),
        "arrivals": (
            None if spec.arrivals is None else arrivals_to_payload(spec.arrivals)
        ),
        "population": (
            None
            if spec.population is None
            else population_to_payload(spec.population)
        ),
        "probes": spec.probes,
        "probe_interval": spec.obs_sample_interval,
    }


def payload_to_spec(payload: dict[str, Any]) -> RunSpec:
    """Reconstruct a run spec from its canonical payload."""
    return RunSpec(
        system=payload["system"],
        clients=payload["clients"],
        duration=payload["duration"],
        warmup=payload["warmup"],
        seed=payload["seed"],
        bucket_width=payload["bucket_width"],
        keep_metrics=payload["keep_metrics"],
        safety=payload["safety"],
        overrides=dict(payload["overrides"]),
        profile=(
            None if payload["profile"] is None else payload_to_profile(payload["profile"])
        ),
        faults=(
            None if payload["faults"] is None else payload_to_faults(payload["faults"])
        ),
        schedule=(
            None
            if payload["schedule"] is None
            else payload_to_schedule(payload["schedule"])
        ),
        arrivals=(
            None
            if payload["arrivals"] is None
            else payload_to_arrivals(payload["arrivals"])
        ),
        population=(
            None
            if payload.get("population") is None
            else payload_to_population(payload["population"])
        ),
        probes=payload["probes"],
        obs_sample_interval=payload["probe_interval"],
    )


def sim_job(experiment_id: str, spec: RunSpec) -> Job:
    """Wrap one run spec into a campaign job."""
    return Job(
        experiment_id=experiment_id,
        kind=KIND_SIM,
        payload=spec_to_payload(spec),
        label=f"{experiment_id}/{spec.system}/c{spec.clients}/s{spec.seed}",
    )


def cell_job(experiment_id: str, kwargs: dict[str, Any]) -> Job:
    """Wrap one Table 1 cell into a campaign job."""
    return Job(
        experiment_id=experiment_id,
        kind=KIND_CELL,
        payload=_check_jsonable(dict(kwargs), "tab1 cell"),
        label=f"{experiment_id}/{kwargs['system']}/{kwargs['load_label']}",
    )


def plan_experiment(
    experiment_id: str,
    quick: bool = False,
    runs: Optional[int] = None,
    seed0: int = 0,
    duration: Optional[float] = None,
) -> list[Job]:
    """All jobs one experiment needs, in its execution order."""
    module = get_experiment(experiment_id)
    jobs: list[Job] = []
    if hasattr(module, "plan_cells"):
        for kwargs in module.plan_cells(quick=quick, seed0=seed0):
            jobs.append(cell_job(experiment_id, kwargs))
    if hasattr(module, "plan_runs"):
        for spec in module.plan_runs(
            quick=quick, runs=runs, seed0=seed0, duration=duration
        ):
            jobs.append(sim_job(experiment_id, spec))
    if not jobs:
        raise UnplannableSpec(
            f"experiment {experiment_id!r} declares no plan_runs/plan_cells"
        )
    return jobs


def plan_campaign(
    experiment_ids: list[str],
    quick: bool = False,
    runs: Optional[int] = None,
    seed0: int = 0,
    duration: Optional[float] = None,
) -> list[Job]:
    """All jobs of a campaign, in experiment order (duplicates included;
    the executor dedups by key)."""
    jobs: list[Job] = []
    for experiment_id in experiment_ids:
        jobs.extend(
            plan_experiment(
                experiment_id, quick=quick, runs=runs, seed0=seed0, duration=duration
            )
        )
    return jobs
