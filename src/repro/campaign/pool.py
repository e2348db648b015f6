"""Parallel job execution over a spawn-safe process pool.

Jobs are deduplicated by content-addressed key, resolved against the
disk cache, and the remaining misses fan out over a
``multiprocessing``-``spawn`` process pool (workers import ``repro``
fresh from the job payload — no state is inherited from the parent
beyond ``sys.path``).  The merge is *deterministic by construction*:
results land in a dict keyed by job hash, and the experiments'
unchanged serial aggregation code consumes them in its own order — so
campaign output is byte-identical regardless of scheduling order or
worker count.

If the platform cannot provide a process pool (sandboxes without
semaphores, 1-CPU containers where it is pointless), execution falls
back to in-process serial with a note on ``echo`` — results are
identical either way.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Any, Callable, Optional

from repro.campaign.cache import MISS, ResultCache, result_fingerprint, should_verify
from repro.campaign.plan import KIND_CELL, KIND_SIM, Job, payload_to_spec


class CacheVerificationError(RuntimeError):
    """A cached result differed from a fresh run of the same job."""


def execute_payload(kind: str, payload: dict[str, Any]) -> Any:
    """Run one job payload to completion (also the worker entry point)."""
    if kind == KIND_SIM:
        from repro.cluster.runner import run_experiment

        result = run_experiment(payload_to_spec(payload))
        # Probed runs carry a hub only as scaffolding for the detectors,
        # which already ran (result.findings); drop it so pickled cache
        # entries stay small and free of live simulation objects.
        if result.obs is not None:
            result.obs = None
        return result
    if kind == KIND_CELL:
        from repro.experiments.tab1_overhead import measure_cell

        return measure_cell(**payload)
    raise ValueError(f"unknown job kind {kind!r}")


def _pool_worker(item: tuple[str, str, dict[str, Any]]) -> tuple[str, Any, float]:
    key, kind, payload = item
    started = time.perf_counter()
    result = execute_payload(kind, payload)
    return key, result, time.perf_counter() - started


def job_profile(
    job: Job, result: Any, wall_seconds: float, cached: bool = False
) -> dict[str, Any]:
    """Performance profile of one executed job.

    Pairs worker wall time with the simulator's own counters
    (``ExperimentResult.sim_stats``); written into the cache sidecar so
    the cost survives for later ``--slowest`` reports.  Non-simulation
    jobs (tab1 cells) profile wall time only.
    """
    sim = getattr(result, "sim_stats", None) or {}
    dispatched = sim.get("dispatched_events")
    events_per_sec = None
    if dispatched and wall_seconds > 0:
        events_per_sec = dispatched / wall_seconds
    profile = {
        "key": job.key,
        "label": job.label,
        "kind": job.kind,
        "wall_seconds": wall_seconds,
        "dispatched_events": dispatched,
        "events_per_sec": events_per_sec,
        "peak_heap": sim.get("peak_heap"),
        "drained_tombstones": sim.get("drained_tombstones"),
        "cached": cached,
    }
    findings = getattr(result, "findings", None)
    if findings is not None:
        # Probed run: drift-detector findings ride the sidecar so
        # `campaign --report` can surface them for cache hits too.
        profile["findings"] = findings
    return profile


@dataclass
class ExecutionStats:
    """What happened while resolving a campaign's jobs."""

    planned: int = 0  # jobs requested by the plan (with duplicates)
    unique: int = 0  # distinct job keys
    cache_hits: int = 0
    executed: int = 0  # fresh runs (pool or serial)
    stored: int = 0  # results written to the cache
    verified: int = 0  # cache hits re-run by the spot checker
    verify_failures: int = 0
    inline_misses: int = 0  # aggregation-time runs the plan did not cover
    workers: int = 1  # pool width actually used (1 = serial)
    pool_fallback: bool = False  # pool unavailable, ran serial instead
    cache_entries: int = 0  # results on disk after the run
    cache_bytes: int = 0  # on-disk footprint (results + sidecars)
    plan_seconds: float = 0.0
    execute_seconds: float = 0.0
    aggregate_seconds: float = 0.0
    # Per-job performance profiles (see job_profile): fresh runs are
    # timed directly, cache hits carry the profile recorded in their
    # sidecar when they originally executed.
    job_profiles: list[dict[str, Any]] = field(default_factory=list)

    @property
    def hit_rate(self) -> float:
        """Cache hits as a fraction of distinct jobs."""
        return self.cache_hits / self.unique if self.unique else 0.0

    def merge_timings(self) -> dict[str, float]:
        return {
            "plan_seconds": self.plan_seconds,
            "execute_seconds": self.execute_seconds,
            "aggregate_seconds": self.aggregate_seconds,
        }


def execute_jobs(
    jobs: list[Job],
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    verify_fraction: float = 0.0,
    echo: Optional[Callable[[str], None]] = None,
) -> tuple[dict[str, Any], ExecutionStats]:
    """Resolve every job to a result; returns ``(results by key, stats)``.

    ``verify_fraction`` > 0 re-runs a deterministic sample of cache hits
    and raises :class:`CacheVerificationError` on any divergence (the
    stale entry is evicted first, so the next campaign self-heals).
    """
    echo = echo or (lambda message: None)
    stats = ExecutionStats(planned=len(jobs), workers=max(1, workers))
    started = time.perf_counter()

    # Deduplicate by key, keeping first-seen order (the plan's order).
    unique: dict[str, Job] = {}
    for job in jobs:
        unique.setdefault(job.key, job)
    stats.unique = len(unique)

    results: dict[str, Any] = {}
    pending: list[Job] = []
    for key, job in unique.items():
        cached = cache.load(key) if cache is not None else MISS
        if cached is MISS:
            pending.append(job)
        else:
            results[key] = cached
            stats.cache_hits += 1
            profile = cache.load_profile(key)
            if profile is not None:
                stats.job_profiles.append({**profile, "cached": True})

    _verify_sample(results, unique, cache, verify_fraction, stats, echo)

    if pending:
        echo(
            f"campaign: executing {len(pending)} job(s) "
            f"({stats.cache_hits} cached) on {stats.workers} worker(s)"
        )
        executed = _execute_pending(pending, stats, echo)
        for job in pending:
            result, wall_seconds = executed[job.key]
            results[job.key] = result
            profile = job_profile(job, result, wall_seconds)
            stats.job_profiles.append(profile)
            if cache is not None:
                cache.store(job.key, result, job, profile=profile)
                stats.stored += 1
    stats.execute_seconds = time.perf_counter() - started
    return results, stats


def _execute_pending(
    pending: list[Job], stats: ExecutionStats, echo: Callable[[str], None]
) -> dict[str, tuple[Any, float]]:
    """Run the cache misses, in parallel when possible.

    Returns ``{job key: (result, wall seconds)}``.
    """
    if stats.workers > 1 and len(pending) > 1:
        try:
            return _execute_parallel(pending, stats, echo)
        except (BrokenProcessPool, OSError, PermissionError) as error:
            stats.pool_fallback = True
            echo(f"campaign: process pool unavailable ({error}); running serially")
    return {job.key: _execute_one(job, stats) for job in pending}


def _execute_one(job: Job, stats: ExecutionStats) -> tuple[Any, float]:
    started = time.perf_counter()
    result = execute_payload(job.kind, dict(job.payload))
    wall_seconds = time.perf_counter() - started
    stats.executed += 1
    return result, wall_seconds


def _execute_parallel(
    pending: list[Job], stats: ExecutionStats, echo: Callable[[str], None]
) -> dict[str, tuple[Any, float]]:
    """Fan the pending jobs out over a spawn pool; keyed merge."""
    items = [(job.key, job.kind, dict(job.payload)) for job in pending]
    by_key = {job.key: job for job in pending}
    executed: dict[str, tuple[Any, float]] = {}
    context = get_context("spawn")
    with ProcessPoolExecutor(
        max_workers=min(stats.workers, len(items)),
        mp_context=context,
    ) as pool:
        futures = {pool.submit(_pool_worker, item) for item in items}
        while futures:
            done, futures = wait(futures, return_when=FIRST_COMPLETED)
            for future in done:
                key, result, wall_seconds = future.result()
                executed[key] = (result, wall_seconds)
                stats.executed += 1
                echo(f"campaign: finished {by_key[key].label}")
    return executed


def _verify_sample(
    results: dict[str, Any],
    unique: dict[str, Job],
    cache: Optional[ResultCache],
    fraction: float,
    stats: ExecutionStats,
    echo: Callable[[str], None],
) -> None:
    """Re-run a deterministic sample of cache hits and diff fingerprints."""
    if cache is None or fraction <= 0.0:
        return
    for key, cached in list(results.items()):
        if not should_verify(key, fraction):
            continue
        job = unique[key]
        fresh = execute_payload(job.kind, dict(job.payload))
        stats.verified += 1
        if result_fingerprint(fresh) != result_fingerprint(cached):
            stats.verify_failures += 1
            cache.evict(key)
            results[key] = fresh
            echo(f"campaign: STALE cache entry for {job.label} (evicted)")
    if stats.verify_failures:
        raise CacheVerificationError(
            f"{stats.verify_failures} cached result(s) diverged from fresh runs; "
            "stale entries were evicted — re-run the campaign"
        )
