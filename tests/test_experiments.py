"""Tests for the experiment suite machinery (fast paths only).

Full experiment runs live in ``benchmarks/``; here we test the shared
sweep/averaging machinery, the renderers (against synthetic data) and
the registry/CLI plumbing.
"""

import pytest

from repro.experiments import EXPERIMENTS, run_experiment_by_id
from repro.experiments import common
from repro.experiments import (
    fig2_existing_protocols,
    fig6_comparison,
    fig7_reject_behavior,
    fig8_threshold,
    fig9_disruptive,
    fig10_replica_crash,
    tab1_overhead,
)


def make_point(system="idem", clients=50, **overrides) -> common.Point:
    values = dict(
        system=system,
        clients=clients,
        load_factor=clients / 50,
        throughput=43_000.0,
        throughput_std=500.0,
        latency_ms=1.3,
        latency_std_ms=0.2,
        reject_throughput=100.0,
        reject_latency_ms=1.5,
        reject_latency_std_ms=1.0,
        timeouts=0,
        runs=2,
    )
    values.update(overrides)
    return common.Point(**values)


class TestCommon:
    def test_point_properties(self):
        point = make_point(throughput=40_000, reject_throughput=10_000)
        assert point.throughput_kops == pytest.approx(40.0)
        assert point.reject_share == pytest.approx(0.2)

    def test_reject_share_of_idle_point(self):
        point = make_point(throughput=0.0, reject_throughput=0.0)
        assert point.reject_share == 0.0

    def test_render_table_alignment(self):
        table = common.render_table("T", ["col", "x"], [["a", "1"], ["bb", "22"]])
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "col" in lines[2]
        assert lines[3].startswith("---")

    def test_point_rows_with_rejects(self):
        rows = common.point_rows([make_point()], with_rejects=True)
        assert len(rows[0]) == len(common.REJECT_HEADERS)

    def test_averaged_point_runs_real_simulations(self):
        point = common.averaged_point(
            "idem", clients=2, runs=2, duration=0.3, warmup=0.1
        )
        assert point.runs == 2
        assert point.throughput > 0
        assert point.clients == 2

    def test_sweep_lengths(self):
        points = common.sweep("idem", [1, 2], runs=1, duration=0.3, warmup=0.1)
        assert [p.clients for p in points] == [1, 2]

    def test_defaults_respect_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS", "7")
        monkeypatch.setenv("REPRO_DURATION", "2.5")
        assert common.default_runs() == 7
        assert common.default_duration() == 2.5


class TestRenderers:
    def test_fig2_render(self):
        data = fig2_existing_protocols.Fig2Data([make_point("paxos")])
        text = fig2_existing_protocols.render(data)
        assert "Figure 2" in text and "paxos" in text

    def test_fig2_saturation_point(self):
        slow = make_point("paxos", clients=25, throughput=20_000)
        fast = make_point("paxos", clients=50, throughput=50_000)
        data = fig2_existing_protocols.Fig2Data([slow, fast])
        assert data.saturation_point() is fast

    def test_fig6_render_and_accessors(self):
        curves = {
            system: [make_point(system, 50), make_point(system, 200, latency_ms=4.0)]
            for system in fig6_comparison.SYSTEMS
        }
        data = fig6_comparison.Fig6Data(curves)
        assert data.max_throughput("idem") == 43_000.0
        assert data.latency_at_max_load("paxos") == 4.0
        text = fig6_comparison.render(data)
        assert "Figure 6" in text and "bftsmart" in text

    def test_fig7_point_lookup(self):
        data = fig7_reject_behavior.Fig7Data([make_point(clients=100)])
        assert data.point_at(2.0).clients == 100
        with pytest.raises(KeyError):
            data.point_at(9.0)

    def test_fig8_render(self):
        data = fig8_threshold.Fig8Data({20: [make_point()], 75: [make_point()]})
        text = fig8_threshold.render(data)
        assert "RT=" in text and "Figure 8" in text

    def test_fig9_render(self):
        data = fig9_disruptive.Fig9Data([make_point()], [make_point(clients=700)])
        text = fig9_disruptive.render(data)
        assert "Figure 9a" in text and "Figure 9b" in text

    def test_tab1_cell_math(self):
        cell = tab1_overhead.Tab1Cell(
            system="idem",
            load_label="high (1x)",
            clients=50,
            requests_completed=1000,
            total_bytes=3_300_000,
            client_bytes=3_000_000,
            replica_bytes=300_000,
            rejects=0,
            sim_seconds=1.0,
        )
        assert cell.bytes_per_request == pytest.approx(3300.0)
        assert cell.projected_gb_per_million == pytest.approx(3.3)

    def test_tab1_lookup(self):
        cell = tab1_overhead.Tab1Cell(
            "idem", "high (1x)", 50, 1, 1, 1, 0, 0, 1.0
        )
        data = tab1_overhead.Tab1Data([cell], 1)
        assert data.cell("idem", "high (1x)") is cell
        with pytest.raises(KeyError):
            data.cell("idem", "nope")

    def test_fig10_timeline_outage_detection(self):
        series = [(0.0, 100.0), (0.25, 0.0), (0.5, 0.0), (0.75, 50.0)]
        outage = fig10_replica_crash._longest_outage(series, 0.25, 1.0, 0.25)
        assert outage == pytest.approx(0.5)

    def test_fig10_find(self):
        run = fig10_replica_crash.TimelineRun(
            system="idem",
            clients=100,
            target="leader",
            crash_time=3.5,
            duration=9.0,
            throughput_series=[],
            latency_series=[],
            reject_rate_series=[],
            reject_latency_series=[],
            service_gap=1.5,
            reject_downtime=0.0,
            pre_throughput=43_000,
            post_throughput=39_000,
            pre_latency_ms=1.1,
            post_latency_ms=1.6,
            timeouts=0,
        )
        data = fig10_replica_crash.Fig10Data([run], [])
        assert data.find("idem", 100, "leader") is run
        with pytest.raises(KeyError):
            data.find("idem", 50, "leader")


class _SpecRecorder:
    """Executor stub: records every requested spec, serves a canned result."""

    def __init__(self, result):
        self.result = result
        self.specs = []

    def run_spec(self, spec):
        self.specs.append(spec)
        return self.result

    def run_cell(self, kwargs):  # pragma: no cover - fig2 never asks
        raise AssertionError("unexpected tab1 cell")


@pytest.fixture(scope="module")
def canned_result():
    from repro.cluster.runner import RunSpec, run_experiment

    return run_experiment(
        RunSpec(system="idem", clients=2, duration=0.3, warmup=0.1, seed=0)
    )


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        assert set(EXPERIMENTS) == {
            "fig2", "fig3", "fig6", "fig7", "tab1", "fig8", "fig9", "fig10",
            "figR", "figM",
        }

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            run_experiment_by_id("fig99")

    def test_unknown_id_message_lists_choices(self):
        with pytest.raises(KeyError) as error:
            run_experiment_by_id("fig99")
        message = str(error.value)
        assert "unknown experiment" in message and "fig2" in message

    def test_modules_expose_run_and_render(self):
        for module in EXPERIMENTS.values():
            assert callable(module.run)
            assert callable(module.render)

    def test_modules_expose_campaign_plan(self):
        for module in EXPERIMENTS.values():
            assert hasattr(module, "plan_runs") or hasattr(module, "plan_cells")

    def test_explicit_runs_and_duration_reach_sweep(self, canned_result):
        recorder = _SpecRecorder(canned_result)
        with common.use_executor(recorder):
            text = run_experiment_by_id(
                "fig2", quick=True, runs=2, seed0=5, duration=0.7
            )
        assert "Figure 2" in text
        points = fig2_existing_protocols.QUICK_CLIENTS
        assert len(recorder.specs) == 2 * len(points)
        assert {spec.duration for spec in recorder.specs} == {0.7}
        # Two seeded runs per point, seeds counted up from seed0.
        for start in range(0, len(recorder.specs), 2):
            pair = recorder.specs[start : start + 2]
            assert [spec.seed for spec in pair] == [5, 6]

    def test_env_runs_is_default_only_fallback(self, monkeypatch, canned_result):
        monkeypatch.setenv("REPRO_RUNS", "3")
        recorder = _SpecRecorder(canned_result)
        with common.use_executor(recorder):
            run_experiment_by_id("fig2", quick=False, duration=0.4)
        full = fig2_existing_protocols.FULL_CLIENTS
        assert len(recorder.specs) == 3 * len(full)  # env supplies the default
        recorder.specs.clear()
        with common.use_executor(recorder):
            run_experiment_by_id("fig2", quick=False, runs=1, duration=0.4)
        assert len(recorder.specs) == len(full)  # explicit runs wins over env


class TestCli:
    def test_list(self, capsys):
        from repro.cli import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig6" in out and "tab1" in out

    def test_unknown_experiment_exits_nonzero(self, capsys):
        from repro.cli import main

        assert main(["nope"]) == 2

    @pytest.mark.parametrize(
        "argv", [["--sim-core", "array", "--list"], ["campaign", "--shards", "2"]]
    )
    def test_removed_flags_are_usage_errors(self, argv, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
