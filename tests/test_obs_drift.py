"""Tests for drift detection (repro.obs.detect) and the IDEM
active-slot leak it exists to catch.

The synthetic-recorder tests pin each rule's firing and non-firing
conditions; the replica-level tests pin the leak fix itself
(``IdemReplica._release_dedup_dead``); the storm regression runs the
figR reject-retry arm with the fix monkeypatched away and demands the
``active_set_leak`` detector flags it — and stays silent on the fixed
code.
"""

from __future__ import annotations

import pytest

from repro.app.commands import Command, KvOp
from repro.cluster.builder import build_cluster
from repro.core.replica import ActiveRequest, IdemReplica
from repro.obs import DetectorConfig, FlightRecorder, run_detectors
from repro.protocols.messages import Request

from tests.conftest import small_profile

INTERVAL = 0.01
CONFIG = DetectorConfig(interval=INTERVAL)


def _record_ticks(recorder, node, start, end, **series):
    """Record constant-or-callable series on the detector's cadence."""
    ticks = int(round((end - start) / INTERVAL))
    for tick in range(ticks + 1):
        time = start + tick * INTERVAL
        for name, value in series.items():
            recorder.record(
                time, node, name, value(time) if callable(value) else float(value)
            )


def _rules(findings):
    return sorted({finding.rule for finding in findings})


class TestActiveSetLeakRule:
    def test_sustained_dead_slots_fire(self):
        recorder = FlightRecorder()
        _record_ticks(
            recorder, "replica-0", 0.0, 1.0,
            up=1.0, dead_slots=1.0, active_slots=5.0, admission_threshold=5.0,
        )
        findings = run_detectors(recorder, CONFIG)
        assert _rules(findings) == ["active_set_leak"]
        finding = findings[0]
        assert finding.node == "replica-0"
        assert finding.end - finding.start >= CONFIG.min_window
        assert finding.evidence["dead_end"] == 1.0
        assert finding.evidence["threshold"] == 5.0

    def test_growing_dead_slots_fire(self):
        recorder = FlightRecorder()
        _record_ticks(
            recorder, "replica-0", 0.0, 1.0,
            up=1.0, dead_slots=lambda t: 1.0 + int(t * 4),
        )
        findings = run_detectors(recorder, CONFIG)
        assert "active_set_leak" in _rules(findings)

    def test_promptly_released_slots_do_not_fire(self):
        recorder = FlightRecorder()
        # Dead slots appear for 0.2 s at a time, then are swept — the
        # healthy transient the execute-path sweep leaves behind.
        _record_ticks(
            recorder, "replica-0", 0.0, 2.0,
            up=1.0, dead_slots=lambda t: 1.0 if (t % 0.5) < 0.2 else 0.0,
        )
        assert run_detectors(recorder, CONFIG) == []

    def test_decreasing_count_breaks_the_window(self):
        recorder = FlightRecorder()
        # Climbs for 0.4 s, releases one, climbs for 0.4 s: each leg is
        # shorter than min_window, so no finding.
        _record_ticks(
            recorder, "replica-0", 0.0, 0.8,
            up=1.0, dead_slots=lambda t: 2.0 if 0.35 < t <= 0.45 else 3.0,
        )
        assert run_detectors(recorder, CONFIG) == []

    def test_downtime_gap_breaks_the_window(self):
        recorder = FlightRecorder()
        _record_ticks(recorder, "replica-0", 0.0, 0.3, up=1.0, dead_slots=1.0)
        # 0.4 s sampling gap (crash), then another short stretch.
        _record_ticks(recorder, "replica-0", 0.7, 1.0, up=1.0, dead_slots=1.0)
        assert run_detectors(recorder, CONFIG) == []

    def test_halted_replica_does_not_fire(self):
        recorder = FlightRecorder()
        _record_ticks(recorder, "replica-0", 0.0, 1.0, up=0.0, dead_slots=2.0)
        assert run_detectors(recorder, CONFIG) == []

    def test_protocol_without_dedup_series_is_exempt(self):
        recorder = FlightRecorder()
        _record_ticks(
            recorder, "replica-0", 0.0, 1.0,
            up=1.0, active_slots=50.0, admission_threshold=50.0,
        )
        assert "active_set_leak" not in _rules(run_detectors(recorder, CONFIG))


class TestOtherRules:
    def test_threshold_pinned_fires(self):
        recorder = FlightRecorder()
        _record_ticks(
            recorder, "replica-1", 0.0, 1.0,
            up=1.0, active_slots=5.0, admission_threshold=5.0,
            executed_total=100.0, rejected_total=lambda t: 100.0 * t,
        )
        assert "threshold_pinned" in _rules(run_detectors(recorder, CONFIG))

    def test_threshold_pinned_needs_flat_executions(self):
        recorder = FlightRecorder()
        _record_ticks(
            recorder, "replica-1", 0.0, 1.0,
            up=1.0, active_slots=5.0, admission_threshold=5.0,
            executed_total=lambda t: 50.0 * t, rejected_total=lambda t: 100.0 * t,
        )
        assert "threshold_pinned" not in _rules(run_detectors(recorder, CONFIG))

    def test_occupancy_imbalance_fires_on_growth(self):
        recorder = FlightRecorder()
        _record_ticks(
            recorder, "replica-2", 0.0, 1.0,
            up=1.0, active_slots=lambda t: 1.0 + int(t * 6), executed_total=40.0,
        )
        assert "occupancy_imbalance" in _rules(run_detectors(recorder, CONFIG))

    def test_post_fault_non_recovery(self):
        recorder = FlightRecorder()
        # Goodput climbs before the fault, flatlines after it.
        _record_ticks(
            recorder, "clients", 0.0, 3.0,
            successes=lambda t: 100.0 * min(t, 1.0),
        )
        recorder.mark(1.0, 1.5, "crash replica-1")
        findings = run_detectors(recorder, CONFIG)
        assert _rules(findings) == ["post_fault_non_recovery"]

    def test_recovered_fault_is_silent(self):
        recorder = FlightRecorder()
        _record_ticks(
            recorder, "clients", 0.0, 3.0, successes=lambda t: 100.0 * t,
        )
        recorder.mark(1.0, 1.5, "crash replica-1")
        assert run_detectors(recorder, CONFIG) == []

    def test_findings_are_sorted(self):
        recorder = FlightRecorder()
        for node in ("replica-2", "replica-0"):
            _record_ticks(recorder, node, 0.0, 1.0, up=1.0, dead_slots=1.0)
        findings = run_detectors(recorder, CONFIG)
        assert [finding.node for finding in findings] == ["replica-0", "replica-2"]


def _any_command() -> Command:
    return Command(KvOp.UPDATE, "user00000001", 10)


def _plant_dead_slot(replica, cid: int, onr: int, executed: int) -> None:
    """Fabricate a dedup-dead active entry: the client already executed
    ``executed`` >= ``onr`` elsewhere while (cid, onr) still holds a slot."""
    rid = (cid, onr)
    request = Request(rid, _any_command())
    replica._occupy_slot(rid, ActiveRequest(request, 0.0))
    replica.request_store[rid] = request
    replica.executed_onr[cid] = executed


class TestLeakFix:
    """Unit tests of ``IdemReplica._release_dedup_dead`` itself."""

    def _cluster(self, **overrides):
        overrides.setdefault("reject_threshold", 1)
        overrides.setdefault("acceptance", "taildrop")
        # Clients stay idle: the tests inject requests directly so the
        # only traffic is the one being asserted about.
        return build_cluster(
            "idem",
            1,
            seed=1,
            profile=small_profile(),
            overrides=overrides,
            start_clients=False,
        )

    def test_direct_sweep_frees_and_caches(self):
        cluster = self._cluster()
        replica = cluster.replicas[1]
        _plant_dead_slot(replica, cid=77, onr=1, executed=2)
        _plant_dead_slot(replica, cid=77, onr=2, executed=2)
        replica._release_dedup_dead(77)
        assert (77, 1) not in replica.active
        assert (77, 2) not in replica.active
        assert (77, 1) not in replica.request_store
        # Bodies stay servable for late proposals by other replicas.
        assert (77, 1) in replica.rejected_cache
        assert (77, 2) in replica.rejected_cache

    def test_sweep_spares_live_entries(self):
        cluster = self._cluster()
        replica = cluster.replicas[1]
        _plant_dead_slot(replica, cid=77, onr=3, executed=2)  # onr 3 is live
        replica._release_dedup_dead(77)
        assert (77, 3) in replica.active

    def test_reject_path_sweeps(self):
        cluster = self._cluster()
        replica = cluster.replicas[1]
        _plant_dead_slot(replica, cid=77, onr=1, executed=2)
        # Occupancy 1 >= threshold 1, so this request is rejected — and
        # the reject path must free the client's dead slot.
        replica.deliver(cluster.clients[0].address, Request((77, 3), _any_command()))
        cluster.run_until(0.05)
        assert (77, 1) not in replica.active

    def test_accept_path_sweeps(self):
        cluster = self._cluster(reject_threshold=10)
        replica = cluster.replicas[1]
        _plant_dead_slot(replica, cid=88, onr=1, executed=3)
        replica.deliver(cluster.clients[0].address, Request((88, 4), _any_command()))
        cluster.run_until(0.05)
        # The dead slot is gone (and its body stays servable); the new
        # request went through the normal pipeline.
        assert (88, 1) not in replica.active
        assert (88, 1) in replica.rejected_cache
        assert replica.stats["accepted"] >= 1


def _assert_index_matches_active(replica) -> None:
    """The per-client index holds exactly ``active``'s rids, by client."""
    grouped: dict[int, set] = {}
    for rid in replica.active:
        grouped.setdefault(rid[0], set()).add(rid)
    assert replica._active_by_client == grouped


def _dead_slots_by_scan(replica) -> float:
    """``dead_slots`` the long way: every active rid against its client."""
    executed = replica.executed_onr
    return float(sum(1 for rid in replica.active if executed.get(rid[0], 0) >= rid[1]))


class TestActiveIndex:
    """``IdemReplica._active_by_client`` mirrors ``active`` at all times."""

    def test_dedup_release_caches_in_ascending_rid_order(self):
        cluster = TestLeakFix()._cluster()
        replica = cluster.replicas[1]
        for onr in (9, 70000, 12, 5, 1000, 3):
            _plant_dead_slot(replica, cid=77, onr=onr, executed=1000)
        _plant_dead_slot(replica, cid=66, onr=1, executed=1)
        dead = [rid for rid in replica._active_by_client[77] if rid[1] <= 1000]
        assert dead != sorted(dead)  # the index alone does not give the order
        assert replica.probe_state()["dead_slots"] == _dead_slots_by_scan(replica) == 6
        replica._release_dedup_dead(77)
        assert list(replica.rejected_cache) == [
            (77, 3), (77, 5), (77, 9), (77, 12), (77, 1000)
        ]
        assert list(replica.active) == [(77, 70000), (66, 1)]
        assert replica.probe_state()["dead_slots"] == 1
        _assert_index_matches_active(replica)

    def test_index_tracks_a_storm_arm(self, monkeypatch):
        from repro.cluster import runner
        from repro.experiments.figR_retry_storm import (
            ANY_RETRY,
            BASE_OVERRIDES,
            IDEM_OVERRIDES,
            storm_spec,
        )

        built = []
        checks = []
        build = runner.build_cluster

        def check(replicas):
            for replica in replicas:
                _assert_index_matches_active(replica)
                assert replica.probe_state()["dead_slots"] == _dead_slots_by_scan(
                    replica
                )
            checks.append(len(checks))

        def build_and_audit(*args, **kwargs):
            cluster = build(*args, **kwargs)
            built.append(cluster)
            step = 0.25
            for i in range(1, int(kwargs["stop_time"] / step) + 1):
                cluster.loop.call_at(i * step, check, cluster.replicas)
            return cluster

        monkeypatch.setattr(runner, "build_cluster", build_and_audit)
        overrides = {**BASE_OVERRIDES, **IDEM_OVERRIDES, **ANY_RETRY}
        runner.run_experiment(storm_spec("idem", "naive-any", overrides, 0))
        (cluster,) = built
        assert checks
        # The audit ran through the storm itself, rejections included.
        assert sum(r.stats["rejected"] for r in cluster.replicas) > 0
        check(cluster.replicas)

    @pytest.mark.parametrize("system", ["idem", "idem-multileader"])
    def test_index_survives_leader_crash_and_state_transfer(self, system):
        cluster = build_cluster(
            system, 6, seed=1, profile=small_profile(), stop_time=2.0
        )
        cluster.run_until(0.8)
        cluster.crash_replica(0)
        cluster.run_until(1.5)
        recovered = cluster.recover_replica(0)
        cluster.run_until(2.0)
        assert recovered.stats["state_transfers"] >= 1
        for replica in cluster.replicas:
            _assert_index_matches_active(replica)
        cluster.stop_clients()
        cluster.run_until(3.0)
        for replica in cluster.replicas:
            _assert_index_matches_active(replica)


class TestStormRegression:
    """The acceptance gate: pre-fix figR storm fires the detector,
    the fixed code runs the same storm clean and recovers."""

    def _storm_result(self):
        from repro.cluster.runner import run_experiment
        from repro.experiments.figR_retry_storm import (
            ANY_RETRY,
            BASE_OVERRIDES,
            IDEM_OVERRIDES,
            storm_spec,
        )

        overrides = {**BASE_OVERRIDES, **IDEM_OVERRIDES, **ANY_RETRY}
        spec = storm_spec("idem", "naive-any", overrides, 0, probes=True)
        return run_experiment(spec)

    def test_prefix_storm_flags_the_leak(self, monkeypatch):
        monkeypatch.setattr(
            IdemReplica, "_release_dedup_dead", lambda self, cid: None
        )
        result = self._storm_result()
        rules = {finding["rule"] for finding in result.findings}
        assert "active_set_leak" in rules

    def test_fixed_storm_is_clean_and_recovers(self):
        from repro.experiments.figR_retry_storm import (
            ANY_RETRY,
            BASE_OVERRIDES,
            IDEM_OVERRIDES,
            measure_storm,
        )

        overrides = {**BASE_OVERRIDES, **IDEM_OVERRIDES, **ANY_RETRY}
        run = measure_storm("idem", "naive-any", overrides, probes=True)
        assert run.recovered
        assert run.drift_findings == 0
