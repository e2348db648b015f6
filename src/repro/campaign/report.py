"""Campaign reporting: the stderr summary and the JSON artifact.

The rendered *experiment* outputs (what goes to stdout) are fully
deterministic — no wall-clock content — so two campaign runs with the
same settings can be diffed byte-for-byte (the CI smoke job does).
Everything timing- or machine-dependent lives here instead: the stderr
summary and the machine-readable report written by ``--report``, which
CI parses for the cache-hit-rate assertion and uploads as an artifact.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.campaign.engine import CampaignOptions, CampaignResult


def _format_bytes(size: int) -> str:
    """Human-readable byte count (binary units)."""
    value = float(size)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            if unit == "B":
                return f"{int(value)} {unit}"
            return f"{value:.1f} {unit}"
        value /= 1024
    return f"{int(size)} B"


def render_summary(result: CampaignResult) -> str:
    """Human-readable campaign summary (stderr; not byte-stable)."""
    stats = result.stats
    lines = [
        "Campaign summary:",
        f"  experiments : {', '.join(o.experiment_id for o in result.outcomes)}",
        f"  jobs        : {stats.planned} planned, {stats.unique} distinct",
        f"  cache       : {stats.cache_hits} hit(s), {stats.executed} executed, "
        f"{stats.stored} stored ({100 * stats.hit_rate:.0f}% hit rate)",
        f"  workers     : {stats.workers}"
        + (" (pool unavailable; ran serially)" if stats.pool_fallback else ""),
    ]
    if result.options.cache_dir is not None:
        lines.insert(
            4,
            f"  cache size  : {stats.cache_entries} entr"
            f"{'y' if stats.cache_entries == 1 else 'ies'}, "
            f"{_format_bytes(stats.cache_bytes)} on disk",
        )
    if stats.verified or stats.verify_failures:
        lines.append(
            f"  verified    : {stats.verified} spot-check(s), "
            f"{stats.verify_failures} failure(s)"
        )
    if stats.inline_misses:
        lines.append(
            f"  plan drift  : {stats.inline_misses} job(s) ran inline "
            "(not covered by the plan)"
        )
    lines.append(
        f"  wall time   : plan {stats.plan_seconds:.2f}s, "
        f"execute {stats.execute_seconds:.2f}s, "
        f"aggregate {stats.aggregate_seconds:.2f}s"
    )
    if result.baseline_paths:
        lines.append(
            "  baselines   : wrote "
            + ", ".join(path.name for path in result.baseline_paths)
        )
    finding_lines = render_findings(result)
    if finding_lines:
        lines.append(finding_lines)
    return "\n".join(lines)


def render_findings(result: CampaignResult) -> str:
    """Drift-detector findings of probed jobs, one line each (stderr).

    Empty string when no probed job produced findings — the healthy
    case prints nothing.
    """
    lines: list[str] = []
    total = 0
    for profile in result.stats.job_profiles:
        for finding in profile.get("findings") or ():
            total += 1
            lines.append(
                f"    {profile['label']}: [{finding['rule']}] "
                f"{finding['node']} "
                f"{finding['start']:.2f}-{finding['end']:.2f}s — "
                f"{finding['summary']}"
            )
    if not lines:
        return ""
    return f"  drift       : {total} finding(s) from probed jobs\n" + "\n".join(lines)


def render_slowest(result: CampaignResult, k: int) -> str:
    """The top-``k`` most expensive jobs of the campaign (stderr).

    Profiles come from :func:`repro.campaign.pool.job_profile`: fresh
    runs are timed in the worker, cache hits report the wall time
    recorded in their sidecar when they originally executed.
    """
    profiles = [
        profile
        for profile in result.stats.job_profiles
        if profile.get("wall_seconds") is not None
    ]
    profiles.sort(key=lambda profile: profile["wall_seconds"], reverse=True)
    top = profiles[:k]
    lines = [f"Slowest {len(top)} of {len(profiles)} profiled job(s):"]
    if not top:
        lines.append("  (no job profiles recorded)")
        return "\n".join(lines)
    lines.append("  wall      events     ev/s        job")
    for profile in top:
        dispatched = profile.get("dispatched_events")
        rate = profile.get("events_per_sec")
        events_text = f"{dispatched:>9,}" if dispatched is not None else "        -"
        rate_text = f"{rate:>10,.0f}" if rate else "         -"
        cached_text = " (cached)" if profile.get("cached") else ""
        lines.append(
            f"  {profile['wall_seconds']:7.2f}s {events_text}  {rate_text}  "
            f"{profile['label']}{cached_text}"
        )
    return "\n".join(lines)


def report_jsonable(result: CampaignResult) -> dict[str, Any]:
    """The machine-readable campaign report (CI artifact)."""
    options: CampaignOptions = result.options
    stats = result.stats
    return {
        "experiments": [o.experiment_id for o in result.outcomes],
        "settings": options.settings(),
        "stats": {
            "planned": stats.planned,
            "unique": stats.unique,
            "cache_hits": stats.cache_hits,
            "hit_rate": stats.hit_rate,
            "executed": stats.executed,
            "stored": stats.stored,
            "verified": stats.verified,
            "verify_failures": stats.verify_failures,
            "inline_misses": stats.inline_misses,
            "workers": stats.workers,
            "pool_fallback": stats.pool_fallback,
            "cache_entries": stats.cache_entries,
            "cache_bytes": stats.cache_bytes,
            **stats.merge_timings(),
        },
        "job_profiles": stats.job_profiles,
        "headlines": result.headlines,
        "baseline": (
            None
            if result.baseline_report is None
            else result.baseline_report.to_jsonable()
        ),
        "ok": result.ok,
    }


def write_report(path: Path, result: CampaignResult) -> Path:
    """Write the JSON report for ``--report PATH``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(report_jsonable(result), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path
