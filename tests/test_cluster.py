"""Tests for the cluster builder, fault schedules, metrics and runner."""

import math

import pytest

from repro.cluster.builder import SYSTEMS, build_cluster, build_config
from repro.cluster.faults import CrashFault, FaultSchedule, resolve_target
from repro.cluster.metrics import MetricsCollector
from repro.cluster.profile import ClusterProfile
from repro.cluster.runner import RunSpec, run_experiment
from repro.core.config import IdemConfig

from tests.conftest import small_profile


class TestBuilder:
    def test_registry_contains_all_paper_systems(self):
        for system in ("idem", "idem-nopr", "idem-noaqm", "paxos", "paxos-lbr", "bftsmart"):
            assert system in SYSTEMS

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError, match="unknown system"):
            build_cluster("zab", 1)

    def test_zero_clients_rejected(self):
        with pytest.raises(ValueError):
            build_cluster("idem", 0)

    def test_event_core_cannot_be_selected(self):
        with pytest.raises(ValueError, match="event core"):
            build_cluster("idem", 2, core="array")

    def test_build_config_applies_overrides(self):
        config = build_config("idem", ClusterProfile(), {"reject_threshold": 20})
        assert isinstance(config, IdemConfig)
        assert config.reject_threshold == 20

    def test_build_config_rejects_unknown_override(self):
        with pytest.raises(ValueError, match="unknown config overrides"):
            build_config("idem", ClusterProfile(), {"no_such_field": 1})

    def test_system_variants_set_their_flags(self):
        assert build_config("idem-nopr", ClusterProfile()).rejection_enabled is False
        assert build_config("idem-noaqm", ClusterProfile()).acceptance == "taildrop"
        assert build_config("paxos-lbr", ClusterProfile()).leader_rejection is True

    def test_bftsmart_gets_the_cost_factor(self):
        profile = ClusterProfile(bftsmart_cost_factor=2.0)
        paxos = build_config("paxos", profile)
        bft = build_config("bftsmart", profile)
        assert bft.cost_message == pytest.approx(2 * paxos.cost_message)

    def test_cluster_has_n_replicas_and_k_clients(self):
        cluster = build_cluster("idem", 7, profile=small_profile())
        assert len(cluster.replicas) == 3
        assert len(cluster.clients) == 7

    def test_replica_state_machines_are_preloaded(self):
        cluster = build_cluster("idem", 1, profile=small_profile())
        assert all(len(replica.app) == 50 for replica in cluster.replicas)

    def test_current_leader_of_fresh_cluster(self):
        cluster = build_cluster("idem", 1, profile=small_profile())
        assert cluster.current_leader() == 0


class TestFaults:
    def test_crash_fault_validation(self):
        with pytest.raises(ValueError):
            CrashFault(-1.0, "leader")
        with pytest.raises(ValueError):
            CrashFault(1.0, "bystander")

    def test_schedule_is_chainable(self):
        schedule = FaultSchedule().crash_leader(1.0).crash_follower(2.0)
        assert len(schedule.faults) == 2

    def test_resolve_leader_target(self):
        cluster = build_cluster("idem", 1, profile=small_profile())
        assert resolve_target(cluster, "leader") == 0

    def test_resolve_follower_target(self):
        cluster = build_cluster("idem", 1, profile=small_profile())
        assert resolve_target(cluster, "follower") in (1, 2)

    def test_resolve_skips_crashed_replicas(self):
        cluster = build_cluster("idem", 1, profile=small_profile())
        cluster.crash_replica(1)
        assert resolve_target(cluster, "follower") == 2

    def test_resolve_explicit_index(self):
        cluster = build_cluster("idem", 1, profile=small_profile())
        assert resolve_target(cluster, 2) == 2
        cluster.crash_replica(2)
        assert resolve_target(cluster, 2) is None

    def test_crash_severs_the_replica(self):
        cluster = build_cluster("idem", 1, profile=small_profile())
        cluster.crash_replica(0)
        assert cluster.replicas[0].halted
        assert cluster.network.is_crashed(cluster.replicas[0].address)


class TestMetricsCollector:
    def test_throughput_over_window(self):
        metrics = MetricsCollector(window_start=1.0, window_end=2.0)
        for i in range(10):
            metrics.record_success(1.0 + i * 0.1, 0.001)
        assert metrics.throughput() == pytest.approx(10.0)

    def test_warmup_excluded(self):
        metrics = MetricsCollector(window_start=1.0, window_end=2.0)
        metrics.record_success(0.5, 123.0)
        assert metrics.latency_summary().count == 0

    def test_reject_share_bookkeeping(self):
        metrics = MetricsCollector(0.0, 1.0)
        metrics.record_success(0.5, 0.001)
        metrics.record_reject(0.6, 0.002)
        assert metrics.reject_throughput() == pytest.approx(1.0)
        assert metrics.reject_latency_summary().mean == pytest.approx(0.002)

    def test_timeline_means(self):
        metrics = MetricsCollector(0.0, 10.0, bucket_width=1.0)
        metrics.record_success(0.2, 0.002)
        metrics.record_success(0.8, 0.004)
        metrics.record_success(1.5, 0.010)
        timeline = metrics.latency_timeline()
        assert timeline == [(0.0, pytest.approx(0.003)), (1.0, pytest.approx(0.010))]

    def test_timeouts_counted(self):
        metrics = MetricsCollector()
        metrics.record_timeout(1.0)
        metrics.record_timeout(2.0)
        assert metrics.timeouts == 2

    def test_first_reject_time(self):
        metrics = MetricsCollector()
        assert metrics.first_reject_time is None
        metrics.record_reject(3.0, 0.001)
        metrics.record_reject(4.0, 0.001)
        assert metrics.first_reject_time == 3.0


class TestRunner:
    def test_warmup_must_be_shorter_than_duration(self):
        with pytest.raises(ValueError):
            RunSpec(system="idem", clients=1, duration=1.0, warmup=1.0)

    def test_event_core_is_not_a_run_field(self):
        with pytest.raises(TypeError):
            RunSpec(system="idem", clients=2, core="array")
        assert RunSpec(system="idem", clients=2).core is None

    def test_result_fields(self):
        spec = RunSpec(
            system="idem",
            clients=2,
            duration=0.4,
            warmup=0.1,
            seed=3,
            profile=small_profile(),
        )
        result = run_experiment(spec)
        assert result.system == "idem"
        assert result.clients == 2
        assert result.throughput > 0
        assert result.latency.count > 0
        assert result.traffic["total_bytes"] > 0
        assert len(result.replica_stats) == 3
        assert result.metrics is None  # not kept by default
        assert "idem" in result.describe()

    def test_keep_metrics(self):
        spec = RunSpec(
            system="idem",
            clients=1,
            duration=0.3,
            warmup=0.1,
            profile=small_profile(),
            keep_metrics=True,
        )
        assert run_experiment(spec).metrics is not None

    def test_properties(self):
        spec = RunSpec(
            system="idem", clients=1, duration=0.3, warmup=0.1, profile=small_profile()
        )
        result = run_experiment(spec)
        assert result.latency_ms == pytest.approx(result.latency.mean * 1e3)
        assert result.throughput_kops == pytest.approx(result.throughput / 1e3)


class TestScheduledLoad:
    def test_load_schedule_limits_active_clients(self):
        from repro.workload.schedule import StepSchedule

        schedule = StepSchedule(((0.0, 2), (0.6, 6)))
        cluster = build_cluster(
            "idem", 6, profile=small_profile(), schedule=schedule, stop_time=1.2
        )
        cluster.run_until(0.55)
        active_early = sum(1 for c in cluster.clients if c.successes > 0)
        cluster.run_until(1.2)
        cluster.stop_clients()
        cluster.run_until(1.5)
        active_late = sum(1 for c in cluster.clients if c.successes > 0)
        assert active_early == 2
        assert active_late == 6
