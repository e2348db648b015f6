"""The campaign engine: plan → execute → aggregate → gate.

A campaign run has four phases:

1. **Plan** — expand the experiment selection into independent jobs
   (:mod:`repro.campaign.plan`).
2. **Execute** — resolve each distinct job against the content-addressed
   cache, fan the misses out over the process pool, spot-verify a sample
   of hits (:mod:`repro.campaign.pool` / :mod:`repro.campaign.cache`).
3. **Aggregate** — run each experiment's *unchanged serial* ``run()``
   with a :class:`CampaignExecutor` installed, so every simulation it
   asks for is served from the pre-computed result map.  Output is
   therefore byte-identical to the serial path by construction.
4. **Gate** — extract headline metrics and compare them against the
   committed ``BENCH_*.json`` baselines (:mod:`repro.campaign.baseline`).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from repro.campaign import baseline as baseline_mod
from repro.campaign.cache import (
    DEFAULT_CACHE_DIR,
    MISS,
    ResultCache,
)
from repro.campaign.gc import record_run
from repro.campaign.plan import (
    KIND_CELL,
    KIND_SIM,
    UnplannableSpec,
    job_key,
    plan_campaign,
    spec_to_payload,
)
from repro.campaign.pool import ExecutionStats, execute_jobs, execute_payload
from repro.cluster.metrics import ExperimentResult
from repro.cluster.runner import RunSpec, run_experiment
from repro.experiments import common
from repro.experiments.registry import EXPERIMENTS, get_experiment


class CampaignExecutor:
    """Serves experiment jobs from a pre-computed result map.

    Installed via :func:`repro.experiments.common.use_executor` for the
    aggregation phase.  A request the plan did not cover (plan drift, or
    a spec that cannot be serialised) runs inline and is counted in
    ``stats.inline_misses`` so tests can assert full plan coverage.
    """

    def __init__(
        self,
        results: dict[str, Any],
        stats: ExecutionStats,
        cache: Optional[ResultCache] = None,
    ):
        self.results = results
        self.stats = stats
        self.cache = cache

    def _resolve(self, kind: str, payload: dict[str, Any], fallback) -> Any:
        key = job_key(kind, payload)
        if key in self.results:
            return self.results[key]
        result = fallback()
        self.stats.inline_misses += 1
        self.results[key] = result
        return result

    def run_spec(self, spec: RunSpec) -> ExperimentResult:
        try:
            payload = spec_to_payload(spec)
        except UnplannableSpec:
            self.stats.inline_misses += 1
            return run_experiment(spec)
        return self._resolve(KIND_SIM, payload, lambda: run_experiment(spec))

    def run_cell(self, kwargs: dict[str, Any]) -> Any:
        payload = dict(kwargs)
        return self._resolve(
            KIND_CELL, payload, lambda: execute_payload(KIND_CELL, payload)
        )


class CachingExecutor:
    """Cache-through executor (no pre-plan): check the disk cache, run
    on miss, store.  Used to make ad-hoc reruns (e.g. the benchmark
    suite with ``REPRO_BENCH_CACHE=1``) incremental without a campaign.
    """

    def __init__(self, cache: ResultCache):
        self.cache = cache

    def _through(self, kind: str, payload: dict[str, Any]) -> Any:
        key = job_key(kind, payload)
        cached = self.cache.load(key)
        if cached is not MISS:
            return cached
        result = execute_payload(kind, payload)
        self.cache.store(key, result)
        return result

    def run_spec(self, spec: RunSpec) -> ExperimentResult:
        try:
            payload = spec_to_payload(spec)
        except UnplannableSpec:
            return run_experiment(spec)
        return self._through(KIND_SIM, payload)

    def run_cell(self, kwargs: dict[str, Any]) -> Any:
        return self._through(KIND_CELL, dict(kwargs))


@dataclass
class CampaignOptions:
    """Everything a campaign run needs."""

    experiments: list[str] = field(default_factory=lambda: list(EXPERIMENTS))
    quick: bool = False
    runs: Optional[int] = None
    duration: Optional[float] = None
    seed0: int = 0
    jobs: int = 0  # 0 = one worker per CPU
    cache_dir: Optional[Path] = DEFAULT_CACHE_DIR
    verify_fraction: float = 0.0
    check: bool = False
    update_baselines: bool = False
    baseline_dir: Path = baseline_mod.DEFAULT_BASELINE_DIR
    echo: Optional[Callable[[str], None]] = None  # progress sink (stderr)

    def resolved_jobs(self) -> int:
        if self.jobs and self.jobs > 0:
            return self.jobs
        return os.cpu_count() or 1

    def settings(self) -> dict[str, Any]:
        """The settings fingerprint recorded in baselines and reports."""
        return {
            "quick": self.quick,
            "runs": self.runs,
            "duration": self.duration,
            "seed0": self.seed0,
        }


@dataclass
class ExperimentOutcome:
    """One experiment's aggregated campaign output."""

    experiment_id: str
    data: Any
    text: str
    headlines: dict[str, float]


@dataclass
class CampaignResult:
    """The outcome of one whole campaign."""

    options: CampaignOptions
    outcomes: list[ExperimentOutcome]
    stats: ExecutionStats
    baseline_report: Optional[baseline_mod.BaselineReport] = None
    baseline_paths: list[Path] = field(default_factory=list)

    @property
    def headlines(self) -> dict[str, dict[str, float]]:
        return {o.experiment_id: o.headlines for o in self.outcomes}

    @property
    def ok(self) -> bool:
        if self.stats.verify_failures:
            return False
        if self.baseline_report is not None and not self.baseline_report.ok:
            return False
        return True

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1


def resolve_experiment_ids(selection: list[str]) -> list[str]:
    """Expand/validate a selection; ``["all"]`` means every experiment."""
    if not selection or selection == ["all"]:
        return list(EXPERIMENTS)
    for experiment_id in selection:
        get_experiment(experiment_id)  # raises KeyError with a clear message
    return list(dict.fromkeys(selection))


def run_campaign(options: CampaignOptions) -> CampaignResult:
    """Run one campaign end to end (no printing; see ``repro.cli``)."""
    echo = options.echo or (lambda message: None)
    ids = resolve_experiment_ids(options.experiments)

    plan_started = time.perf_counter()
    jobs = plan_campaign(
        ids,
        quick=options.quick,
        runs=options.runs,
        seed0=options.seed0,
        duration=options.duration,
    )
    plan_seconds = time.perf_counter() - plan_started
    echo(
        f"campaign: planned {len(jobs)} job(s) across {len(ids)} experiment(s) "
        f"({len({job.key for job in jobs})} distinct)"
    )

    cache = ResultCache(options.cache_dir) if options.cache_dir is not None else None
    results, stats = execute_jobs(
        jobs,
        workers=options.resolved_jobs(),
        cache=cache,
        verify_fraction=options.verify_fraction,
        echo=echo,
    )
    stats.plan_seconds = plan_seconds
    if cache is not None:
        # Manifest for --gc: which keys this campaign referenced.
        record_run(cache.root, [job.key for job in jobs])
        stats.cache_entries, stats.cache_bytes = cache.size()

    aggregate_started = time.perf_counter()
    outcomes: list[ExperimentOutcome] = []
    executor = CampaignExecutor(results, stats, cache)
    with common.use_executor(executor):
        for experiment_id in ids:
            module = get_experiment(experiment_id)
            data = module.run(
                quick=options.quick,
                runs=options.runs,
                seed0=options.seed0,
                duration=options.duration,
            )
            outcomes.append(
                ExperimentOutcome(
                    experiment_id=experiment_id,
                    data=data,
                    text=module.render(data),
                    headlines=baseline_mod.extract_headlines(experiment_id, data),
                )
            )
    stats.aggregate_seconds = time.perf_counter() - aggregate_started

    result = CampaignResult(options=options, outcomes=outcomes, stats=stats)
    if options.update_baselines:
        for outcome in outcomes:
            if not outcome.headlines:
                continue
            result.baseline_paths.append(
                baseline_mod.write_baseline(
                    options.baseline_dir,
                    outcome.experiment_id,
                    outcome.headlines,
                    options.settings(),
                )
            )
    if options.check:
        result.baseline_report = baseline_mod.check_baselines(
            options.baseline_dir, result.headlines, options.settings()
        )
    return result
