"""Tests for ``repro.perf`` and the campaign's per-job profiling.

The perf scenarios are microbenchmarks, so these tests run them at a
tiny ``scale`` — what is under test is the *machinery* (determinism of
dispatched counts, baseline gating, CLI plumbing, sidecar profiles),
never the absolute speed of the CI runner.
"""

import json
from types import SimpleNamespace

import pytest

from repro.campaign import ExecutionStats, ResultCache, execute_jobs, job_profile
from repro.campaign.plan import sim_job
from repro.campaign.report import render_slowest
from repro.cluster.runner import RunSpec
from repro.perf import (
    SCENARIOS,
    PerfResult,
    check_perf_baseline,
    render_results,
    results_jsonable,
    run_scenarios,
    write_perf_baseline,
)
from repro.perf.runner import BASELINE_NAME, load_perf_baseline

#: Large enough that every scenario dispatches real work, small enough
#: that the whole module stays fast.
TINY = 0.01


def fake_result(
    scenario: str = "event_churn", rate: float = 1000.0, events: int = 100
) -> PerfResult:
    return PerfResult(
        scenario=scenario,
        wall_seconds=events / rate,
        dispatched_events=events,
        events_per_sec=rate,
        peak_heap=10,
        drained_tombstones=0,
    )


# -- scenarios ----------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_runs_and_reports_counters(name):
    result = SCENARIOS[name](TINY)
    assert result.scenario == name
    assert result.dispatched_events > 0
    assert result.wall_seconds > 0
    assert result.events_per_sec > 0
    assert result.peak_heap > 0


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_dispatched_counts_are_deterministic(name):
    first = SCENARIOS[name](TINY)
    second = SCENARIOS[name](TINY)
    assert first.dispatched_events == second.dispatched_events
    assert first.peak_heap == second.peak_heap


def test_run_scenarios_defaults_to_all_in_catalog_order():
    results = run_scenarios(repeat=1, scale=TINY)
    assert [r.scenario for r in results] == list(SCENARIOS)


def test_run_scenarios_selects_named_subset():
    results = run_scenarios(["event_churn"], repeat=1, scale=TINY)
    assert [r.scenario for r in results] == ["event_churn"]


def test_run_scenarios_rejects_unknown_names():
    with pytest.raises(KeyError, match="no_such_scenario"):
        run_scenarios(["no_such_scenario"], repeat=1, scale=TINY)


def test_render_results_lists_every_scenario():
    results = [fake_result("event_churn"), fake_result("fig2_slice")]
    text = render_results(results)
    assert "event_churn" in text and "fig2_slice" in text


def test_results_jsonable_round_trips_through_json():
    document = results_jsonable([fake_result()], repeat=3, scale=1.0)
    parsed = json.loads(json.dumps(document))
    assert parsed["bench"] == "simulator"
    assert parsed["settings"] == {"scale": 1.0, "repeat": 3}
    assert parsed["results"][0]["scenario"] == "event_churn"


# -- baseline gate ------------------------------------------------------


def test_missing_baseline_fails_with_pointer(tmp_path):
    report = check_perf_baseline(tmp_path, [fake_result()], scale=1.0)
    assert not report.ok and report.exit_code == 1
    assert report.entries[0].status == "missing-baseline"
    assert "--update-baselines" in report.render()


def test_write_then_check_passes(tmp_path):
    results = [fake_result()]
    path = write_perf_baseline(tmp_path, results, scale=1.0)
    assert path.name == BASELINE_NAME
    report = check_perf_baseline(tmp_path, results, scale=1.0)
    assert report.ok and report.exit_code == 0
    assert "=> PASS" in report.render()


def test_scale_mismatch_refuses_to_compare(tmp_path):
    write_perf_baseline(tmp_path, [fake_result()], scale=1.0)
    report = check_perf_baseline(tmp_path, [fake_result()], scale=0.5)
    assert not report.ok
    assert report.entries[0].status == "settings-mismatch"


def test_rate_regression_beyond_band_fails(tmp_path):
    write_perf_baseline(tmp_path, [fake_result(rate=1000.0)], scale=1.0)
    report = check_perf_baseline(tmp_path, [fake_result(rate=500.0)], scale=1.0)
    assert not report.ok
    statuses = {entry.metric: entry.status for entry in report.entries}
    assert statuses["event_churn.events_per_sec"] == "regressed"
    assert "=> FAIL" in report.render()


def test_rate_within_band_passes(tmp_path):
    write_perf_baseline(tmp_path, [fake_result(rate=1000.0)], scale=1.0)
    report = check_perf_baseline(tmp_path, [fake_result(rate=700.0)], scale=1.0)
    assert report.ok


def test_rate_improvement_passes_with_a_hint(tmp_path):
    write_perf_baseline(tmp_path, [fake_result(rate=1000.0)], scale=1.0)
    report = check_perf_baseline(tmp_path, [fake_result(rate=2000.0)], scale=1.0)
    assert report.ok
    statuses = {entry.metric: entry.status for entry in report.entries}
    assert statuses["event_churn.events_per_sec"] == "improved"


def test_dispatched_count_drift_fails_even_when_faster(tmp_path):
    write_perf_baseline(tmp_path, [fake_result(events=100)], scale=1.0)
    report = check_perf_baseline(
        tmp_path, [fake_result(rate=5000.0, events=101)], scale=1.0
    )
    assert not report.ok
    statuses = {entry.metric: entry.status for entry in report.entries}
    assert statuses["event_churn.dispatched_events"] == "count-drift"


def test_unknown_scenario_in_run_is_a_new_metric(tmp_path):
    write_perf_baseline(tmp_path, [fake_result("event_churn")], scale=1.0)
    report = check_perf_baseline(tmp_path, [fake_result("fig2_slice")], scale=1.0)
    assert report.ok  # new metrics pass; the next --update-baselines adopts them
    assert {entry.status for entry in report.entries} == {"new-metric"}


def test_rebless_carries_notes_and_tolerance_forward(tmp_path):
    import json

    write_perf_baseline(
        tmp_path, [fake_result(rate=1000.0)], scale=1.0, notes={"why": "measured"}
    )
    path = tmp_path / BASELINE_NAME
    document = json.loads(path.read_text())
    document["tolerance"]["relative"] = 0.25
    path.write_text(json.dumps(document))
    # A plain re-bless must only replace the measurements: the human
    # notes and the tolerance band survive.
    write_perf_baseline(tmp_path, [fake_result(rate=2000.0)], scale=1.0)
    document = load_perf_baseline(tmp_path)
    assert document["notes"] == {"why": "measured"}
    assert document["tolerance"]["relative"] == 0.25
    assert document["metrics"]["event_churn.events_per_sec"] == 2000.0


def test_baseline_document_shape(tmp_path):
    write_perf_baseline(tmp_path, [fake_result()], scale=1.0, notes={"why": "test"})
    document = load_perf_baseline(tmp_path)
    assert document["bench"] == "simulator"
    assert document["settings"] == {"scale": 1.0}
    assert document["notes"] == {"why": "test"}
    assert document["metrics"]["event_churn.dispatched_events"] == 100


def test_committed_baseline_covers_every_scenario():
    from pathlib import Path

    directory = Path(__file__).parent.parent / "benchmarks" / "baselines"
    document = load_perf_baseline(directory)
    assert document is not None, "BENCH_simulator.json must be committed"
    for name in SCENARIOS:
        assert f"{name}.events_per_sec" in document["metrics"]
        assert f"{name}.dispatched_events" in document["metrics"]


# -- perf CLI -----------------------------------------------------------


def perf_argv(*extra):
    return [
        "perf", "--scenarios", "event_churn", "--repeat", "2",
        "--scale", str(TINY), *extra,
    ]


def test_perf_cli_prints_table_and_writes_report(tmp_path, capsys):
    from repro.cli import main

    report_path = tmp_path / "perf-report.json"
    assert main(perf_argv("--report", str(report_path))) == 0
    assert "event_churn" in capsys.readouterr().out
    document = json.loads(report_path.read_text())
    assert document["results"][0]["scenario"] == "event_churn"


def test_perf_cli_baseline_cycle(tmp_path, capsys):
    """--update-baselines → --check passes → perturb count → --check fails."""
    from repro.cli import main

    baseline_dir = tmp_path / "baselines"
    argv = perf_argv("--baseline-dir", str(baseline_dir))
    assert main(argv + ["--update-baselines"]) == 0
    capsys.readouterr()
    assert main(argv + ["--check"]) == 0
    assert "=> PASS" in capsys.readouterr().err

    path = baseline_dir / BASELINE_NAME
    document = json.loads(path.read_text())
    document["metrics"]["event_churn.dispatched_events"] += 1
    path.write_text(json.dumps(document))
    assert main(argv + ["--check"]) == 1
    assert "count-drift" in capsys.readouterr().err


def test_perf_cli_unknown_scenario_exits_two(capsys):
    from repro.cli import main

    assert main(["perf", "--scenarios", "bogus", "--repeat", "1"]) == 2
    assert "unknown perf scenario" in capsys.readouterr().err


# -- campaign per-job profiles ------------------------------------------


def tiny_spec(seed: int = 0) -> RunSpec:
    return RunSpec(system="idem", clients=2, duration=0.3, warmup=0.1, seed=seed)


def test_job_profile_pairs_wall_time_with_sim_counters():
    job = sim_job("fig2", tiny_spec())
    result = SimpleNamespace(
        sim_stats={"dispatched_events": 500, "peak_heap": 42, "drained_tombstones": 7}
    )
    profile = job_profile(job, result, wall_seconds=0.5)
    assert profile["key"] == job.key
    assert profile["dispatched_events"] == 500
    assert profile["events_per_sec"] == pytest.approx(1000.0)
    assert profile["peak_heap"] == 42
    assert profile["drained_tombstones"] == 7
    assert profile["cached"] is False


def test_job_profile_tolerates_results_without_sim_stats():
    job = sim_job("fig2", tiny_spec())
    profile = job_profile(job, object(), wall_seconds=0.5)
    assert profile["wall_seconds"] == 0.5
    assert profile["dispatched_events"] is None
    assert profile["events_per_sec"] is None


def test_cache_sidecar_profile_round_trip(tmp_path):
    cache = ResultCache(tmp_path)
    job = sim_job("fig2", tiny_spec())
    profile = job_profile(job, object(), wall_seconds=1.25)
    cache.store(job.key, {"data": 1}, job, profile=profile)
    assert cache.load_profile(job.key) == profile
    assert cache.load_profile("0" * 64) is None


def test_execute_jobs_profiles_fresh_and_cached_runs(tmp_path):
    cache = ResultCache(tmp_path)
    jobs = [sim_job("fig2", tiny_spec())]

    _, cold = execute_jobs(jobs, cache=cache)
    assert len(cold.job_profiles) == 1
    fresh = cold.job_profiles[0]
    assert fresh["cached"] is False
    assert fresh["wall_seconds"] > 0
    assert fresh["dispatched_events"] > 0

    _, warm = execute_jobs(jobs, cache=cache)
    assert warm.executed == 0 and warm.cache_hits == 1
    cached = warm.job_profiles[0]
    assert cached["cached"] is True
    # The sidecar preserved the original execution's cost.
    assert cached["wall_seconds"] == fresh["wall_seconds"]
    assert cached["dispatched_events"] == fresh["dispatched_events"]


def test_render_slowest_orders_by_wall_time():
    stats = ExecutionStats(
        job_profiles=[
            {"label": "fast", "wall_seconds": 0.1, "dispatched_events": 10,
             "events_per_sec": 100.0, "cached": False},
            {"label": "slow", "wall_seconds": 2.0, "dispatched_events": 10,
             "events_per_sec": 5.0, "cached": True},
            {"label": "unprofiled", "wall_seconds": None},
        ]
    )
    text = render_slowest(SimpleNamespace(stats=stats), k=1)
    assert "Slowest 1 of 2" in text
    assert "slow (cached)" in text
    assert "fast" not in text


def test_render_slowest_with_no_profiles():
    text = render_slowest(SimpleNamespace(stats=ExecutionStats()), k=5)
    assert "no job profiles" in text
