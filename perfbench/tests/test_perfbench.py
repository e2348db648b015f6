"""Tests of the benchmark itself: arithmetic, rules, schema and purity.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import ast
import gc
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import ledger
import refloop
import run
import workloads
from repro.cluster.metrics import ExperimentResult
from repro.cluster.runner import run_experiment
from repro.sim.monitor import SummaryStats

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def short(name: str) -> workloads.Workload:
    """A workload cut to a fraction of a second of simulated time."""
    full = workloads.WORKLOADS[name]
    if full.crash_leader_at is not None:
        return replace(full, horizon=0.5, warmup=0.1, slices=20, crash_leader_at=0.2)
    return replace(full, horizon=0.3, warmup=0.1, slices=12)


# -- calibrated seconds ---------------------------------------------------


def test_calibrate_scales_by_nominal_over_measured_reference():
    nominal = refloop.NOMINAL_REF_S
    assert refloop.calibrate(3.0, nominal) == pytest.approx(3.0)
    assert refloop.calibrate(3.0, 2 * nominal) == pytest.approx(1.5)
    assert refloop.calibrate(3.0, nominal / 4) == pytest.approx(12.0)
    with pytest.raises(ValueError):
        refloop.calibrate(1.0, 0.0)


def test_each_slice_is_calibrated_by_the_reference_runs_around_it():
    refs = [1.0, 3.0, 1.0, 1.0]
    raw = [2.0, 2.0, 2.0]
    expected = [refloop.calibrate(2.0, 2.0), refloop.calibrate(2.0, 2.0), refloop.calibrate(2.0, 1.0)]
    assert refloop.calibrate_slices(raw, refs) == pytest.approx(expected)
    with pytest.raises(ValueError):
        refloop.calibrate_slices(raw, refs[:-1])


def test_reference_loop_is_deterministic_work():
    assert refloop.reference_loop() == refloop.reference_loop()
    assert refloop.time_reference() > 0


def test_reference_loop_leaves_the_collector_as_it_was_and_no_garbage():
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            gc.collect()
            refloop.time_reference()
            assert gc.isenabled() is enabled
            assert gc.collect() == 0
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_reference_loop_imports_nothing_from_the_program():
    tree = ast.parse(open(os.path.join(BENCH, "refloop.py")).read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module.split(".")[0])
    assert imported <= set(sys.stdlib_module_names) | {"__future__"}
    probe = "import sys, refloop; refloop.time_reference(); print(any(m == 'repro' or m.startswith('repro.') for m in sys.modules))"
    done = subprocess.run(
        [sys.executable, "-c", probe], cwd=BENCH, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"


# -- slice percentile rule ------------------------------------------------


def test_tail_percentile_needs_ten_samples_beyond_it():
    values = [float(i) for i in range(100)]
    assert refloop.tail_percentile(values, 0.9) == pytest.approx(89.1)
    assert refloop.tail_percentile(values, 0.5) == pytest.approx(49.5)
    with pytest.raises(ValueError):
        refloop.tail_percentile(values[:99], 0.9)
    assert refloop.tail_percentile([1.0] * 10_000, 0.999) == 1.0
    with pytest.raises(ValueError):
        refloop.tail_percentile([1.0] * 9_999, 0.999)


def test_every_workload_leaves_a_supported_slice_p90():
    for workload in workloads.WORKLOADS.values():
        measured = workload.slices - workload.warmup_slices
        assert refloop.supports_tail(measured, 0.9), workload.name
        assert workload.warmup_slices * workload.slice_width == pytest.approx(workload.warmup)
        assert workload.boundaries()[-1] == workload.horizon


# -- error share ----------------------------------------------------------


def fake_pass(client_stats: dict) -> workloads.Pass:
    latency = SummaryStats(20_000, 1e-3, 0.0, 1e-3, 1e-3, 1e-3, 1e-3, 1e-3, 1e-3)
    result = ExperimentResult(
        system="idem",
        clients=1,
        seed=0,
        duration=1.0,
        warmup=0.1,
        throughput=1000.0,
        latency=latency,
        reject_throughput=0.0,
        reject_latency=SummaryStats.empty(),
        timeouts=client_stats["timeouts"],
        traffic={},
        client_stats=client_stats,
    )
    return workloads.Pass(workloads.WORKLOADS["idem-overload"], result, None)


def test_error_share_counts_timeouts_and_give_ups_against_attempts():
    stats = {"commands": 200, "successes": 150, "rejections": 20, "timeouts": 6, "give_ups": 4}
    p = fake_pass(stats)
    assert workloads.failed_ops(p.result) == 10
    assert workloads.outcomes(p)["error_share"] == pytest.approx(10 / 200)
    assert workloads.outcomes(p)["sim_reject_share"] == pytest.approx(20 / 200)
    assert any("timed out" in problem for problem in workloads.invariant_problems(p))
    clean = fake_pass(dict(stats, timeouts=0, give_ups=0))
    assert workloads.outcomes(clean)["error_share"] == 0.0
    assert workloads.invariant_problems(clean) == []


def test_a_failed_output_check_reports_every_op_failed():
    units = {"setup_s": "s"}
    line = json.loads(run.result_line(False, 50, 0, {"setup_s": 0.2}, units))
    assert line["failed"] == line["attempted"] == 50
    assert json.loads(run.result_line(True, 50, 0, {"setup_s": 0.2}, units))["failed"] == 0


# -- output schema --------------------------------------------------------


def test_benchmark_json_matches_what_the_benchmark_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(m["better"] in ("lower", "higher") for m in spec["end_to_end"] + spec["per_layer"])


def test_result_line_schema():
    units = run.END_TO_END
    metrics = dict.fromkeys(units, 1.5)
    line = json.loads(run.result_line(True, 7, 0, metrics, units))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(units)
    assert all(set(entry) == {"value", "unit"} for entry in line["metrics"].values())


def test_references_cover_the_default_and_held_out_seed():
    with open(run.REFERENCES) as handle:
        references = json.load(handle)
    for name in run.WORKLOAD_NAMES:
        for seed in (references["default_seed"], references["held_out_seed"]):
            assert len(references["digests"][name][str(seed)]) == 16


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "idem-overload", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# -- driver equivalence and traced-run purity -----------------------------


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_stepped_driver_matches_one_shot_run_experiment(name):
    workload = short(name)
    stepped = workloads.run_pass(workload, seed=3)
    one_shot = run_experiment(workloads.run_spec(workload, seed=3))
    assert workloads.digest(stepped.result) == workloads.digest(one_shot)
    assert stepped.result.sim_stats == one_shot.sim_stats


def test_safety_checker_is_observer_only_on_the_crash_workload():
    workload = short("idem-leader-crash")
    checked = workloads.run_pass(workload, seed=3, safety=True)
    plain = workloads.run_pass(workload, seed=3)
    assert checked.safety_violations == []
    assert workloads.digest(checked.result) == workloads.digest(plain.result)


def test_traced_pass_leaves_outputs_unchanged_and_shares_sum_to_one():
    workload = short("idem-overload")
    plain = workloads.run_pass(workload, seed=3)
    traced, book = run.traced_pass(workload, seed=3)
    assert workloads.digest(traced.result) == workloads.digest(plain.result)
    shares = book.self_shares()
    assert set(shares) == set(ledger.LAYER_NAMES)
    assert sum(shares.values()) == pytest.approx(1.0)
    assert shares["core"] > 0 and shares["sim.loop"] > 0
    assert book.draws() > 0


LEDGER_PROBE = """
import dataclasses, json, sys
sys.path.insert(0, {bench!r})
import run, workloads
workload = dataclasses.replace(workloads.WORKLOADS[{name!r}], horizon=0.3, warmup=0.1, slices=12)
plain = workloads.run_pass(workload, seed=5)
traced, book = run.traced_pass(workload, seed=5)
metrics = run.layer_metrics(plain, traced, book)
print(json.dumps({{k: v for k, v in metrics.items()
                  if not k.endswith("self_share") and k != "trace.overhead"}}))
"""


@pytest.mark.parametrize("name", ["idem-overload", "idem-million"])
def test_counts_repeat_exactly_across_hash_seeds(name):
    outputs = []
    for hash_seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        done = subprocess.run(
            [sys.executable, "-c", LEDGER_PROBE.format(bench=BENCH, name=name)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        outputs.append(json.loads(done.stdout.strip().splitlines()[-1]))
    assert outputs[0] == outputs[1]
    assert outputs[0]["core.calls_per_op"] > 0
