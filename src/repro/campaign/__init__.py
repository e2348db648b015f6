"""``repro.campaign`` — parallel experiment campaigns with a
content-addressed result cache and a baseline regression gate.

Quickstart::

    from repro.campaign import CampaignOptions, run_campaign

    result = run_campaign(CampaignOptions(experiments=["fig2", "fig6"], jobs=4))
    for outcome in result.outcomes:
        print(outcome.text)

Or from the command line::

    repro-experiments campaign --jobs 4                # all figures/tables
    repro-experiments campaign --check                 # gate against baselines
    repro-experiments campaign --update-baselines      # refresh BENCH_*.json

See ``docs/CAMPAIGNS.md`` for the planner/cache/baseline model.
"""

from repro.campaign.baseline import (
    BaselineEntry,
    BaselineReport,
    check_baselines,
    extract_headlines,
    load_baseline,
    write_baseline,
)
from repro.campaign.cache import MISS, ResultCache, result_fingerprint, should_verify
from repro.campaign.gc import GcReport, collect_garbage, record_run
from repro.campaign.engine import (
    CachingExecutor,
    CampaignExecutor,
    CampaignOptions,
    CampaignResult,
    ExperimentOutcome,
    resolve_experiment_ids,
    run_campaign,
)
from repro.campaign.plan import (
    CACHE_SCHEMA,
    Job,
    UnplannableSpec,
    job_key,
    payload_to_spec,
    plan_campaign,
    plan_experiment,
    spec_to_payload,
)
from repro.campaign.pool import (
    CacheVerificationError,
    ExecutionStats,
    execute_jobs,
    execute_payload,
    job_profile,
)
from repro.campaign.report import (
    render_slowest,
    render_summary,
    report_jsonable,
    write_report,
)

__all__ = [
    "BaselineEntry",
    "BaselineReport",
    "CACHE_SCHEMA",
    "CacheVerificationError",
    "CachingExecutor",
    "CampaignExecutor",
    "CampaignOptions",
    "CampaignResult",
    "ExecutionStats",
    "ExperimentOutcome",
    "GcReport",
    "Job",
    "MISS",
    "ResultCache",
    "UnplannableSpec",
    "check_baselines",
    "collect_garbage",
    "execute_jobs",
    "execute_payload",
    "extract_headlines",
    "job_key",
    "job_profile",
    "load_baseline",
    "payload_to_spec",
    "plan_campaign",
    "plan_experiment",
    "record_run",
    "render_slowest",
    "render_summary",
    "report_jsonable",
    "resolve_experiment_ids",
    "result_fingerprint",
    "run_campaign",
    "should_verify",
    "spec_to_payload",
    "write_baseline",
    "write_report",
]
