"""The repository's benchmark: one workload per invocation.

Usage, from the repository root::

    python3 perfbench/run.py --workload idem-overload --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up time in fresh
processes, then as many full passes of the workload as fit in
``--seconds``, every host timing in calibrated seconds (see
:mod:`refloop`).  ``--trace 1`` runs one untraced and one profiled pass
and reports the per-layer ledger instead.  Either way the run checks
its outputs: every pass must hash to the same digest, which must equal
the reference in ``references.json`` when one is recorded for the
workload and seed.  With ``--trace 0`` the crash workload also makes a
safety-checked pass.

Human-readable lines come first; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 0 for a correct run, 1 for a failed output check or when
``src/repro`` cannot be imported (then nothing is printed on standard
output), and 2 when the arguments are wrong.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import refloop

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCES = os.path.join(HERE, "references.json")

try:
    import ledger
    import workloads
except ModuleNotFoundError as missing:
    # A tree without src/repro: fail before measuring or printing a result.
    sys.exit(f"cannot import the program from {os.path.join(ROOT, 'src')}: {missing}")

#: Workload names, in BENCHMARK.json order.
WORKLOAD_NAMES = tuple(workloads.WORKLOADS)

#: End-to-end metrics (reported with --trace 0) and their units.
END_TO_END = {
    "setup_s": "s",
    "host_us_per_op": "us",
    "slowdown_p50": "s/s",
    "slowdown_p90": "s/s",
    "peak_rss_mb": "MB",
    "sim_goodput_rps": "1/s",
    "sim_p50_ms": "ms",
    "sim_p99_ms": "ms",
    "sim_p999_ms": "ms",
}

#: Model outputs that read 0 on some workloads; printed on every run,
#: reported as metrics by the traced run.
ZERO_ABLE = {
    "sim_reject_share": "ratio",
    "sim_reject_p99_ms": "ms",
    "sim_outage_s": "s",
    "error_share": "ratio",
}

WORK_COUNTERS = {
    "sim.events_per_op": "events/op",
    "sim.peak_heap": "count",
    "sim.processor.leader_busy_frac": "ratio",
    "sim.processor.follower_busy_frac": "ratio",
    "sim.rng.draws_per_op": "draws/op",
    "net.msgs_per_op": "msgs/op",
    "net.bytes_per_op": "B/op",
    "net.replica_bytes_per_op": "B/op",
    "protocols.ops_per_batch": "ops/batch",
    "protocols.view_changes": "count",
    "core.accept_ratio": "ratio",
    "core.forwards_per_kop": "count/kop",
    "core.fetches_per_kop": "count/kop",
    "clients.load_amplification": "ratio",
    "population.arrivals_per_op": "ratio",
    "population.shed_share": "ratio",
}

#: Fresh-process set-ups per run (after one discarded warm-up that
#: compiles the bytecode cache); their median is ``setup_s``.
SETUP_REPEATS = 21


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric (reported with --trace 1) and its unit."""
    units: dict[str, str] = {}
    for layer in ledger.LAYER_NAMES:
        units[f"{layer}.self_share"] = "share"
        units[f"{layer}.calls_per_op"] = "calls/op"
    units.update(WORK_COUNTERS)
    units["trace.overhead"] = "ratio"
    units.update(ZERO_ABLE)
    return units


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(name: str, seed: int) -> float:
    """Median calibrated set-up seconds over fresh processes."""
    probe = os.path.join(HERE, "setup_probe.py")
    samples = []
    for attempt in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, probe, name, str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        if attempt == 0:
            continue
        sample = json.loads(done.stdout.strip().splitlines()[-1])
        samples.append(sample)
        calibrated = refloop.calibrate(sample["raw_s"], sample["ref_s"])
        print(
            f"  setup {attempt}: raw {sample['raw_s']:.4f} s, "
            f"ref {sample['ref_s'] * 1e3:.3f} ms -> {calibrated:.4f} cal s"
        )
    return statistics.median(refloop.calibrate(s["raw_s"], s["ref_s"]) for s in samples)


def load_reference(name: str, seed: int) -> str | None:
    with open(REFERENCES) as handle:
        return json.load(handle)["digests"].get(name, {}).get(str(seed))


class Check:
    """Collects output-check failures of one run."""

    def __init__(self, name: str, seed: int):
        self.reference = load_reference(name, seed)
        self.problems: list[str] = []
        self.digest: str | None = None

    def add_digest(self, label: str, value: str) -> None:
        if self.digest is None:
            self.digest = value
            if self.reference is not None and value != self.reference:
                self.problems.append(f"{label}: digest {value} != reference {self.reference}")
        elif value != self.digest:
            self.problems.append(f"{label}: digest {value} != first pass {self.digest}")

    def report(self) -> bool:
        source = "reference" if self.reference is not None else "no reference for this seed"
        print(f"  output digest {self.digest} ({source})")
        for problem in self.problems:
            print(f"  CHECK FAILED: {problem}")
        return not self.problems


def check_pass(check: Check, label: str, p) -> None:
    check.add_digest(label, workloads.digest(p.result))
    check.problems.extend(f"{label}: {problem}" for problem in workloads.invariant_problems(p))


def check_safety(check: Check, workload, seed: int) -> None:
    """Safety-checked pass of a fault workload, outside any timed region."""
    if workload.crash_leader_at is None:
        return
    p = workloads.run_pass(workload, seed, safety=True)
    check_pass(check, "safety pass", p)
    check.problems.extend(f"safety: {v}" for v in p.safety_violations)
    print(f"  safety checker: {len(p.safety_violations)} violations")


def describe_pass(index: int, p) -> None:
    raw = sum(p.raw)
    cal = sum(p.calibrated)
    print(
        f"  pass {index}: raw {raw:.3f} s, reference median "
        f"{statistics.median(p.refs) * 1e3:.3f} ms (nominal {refloop.NOMINAL_REF_S * 1e3:.3f}),"
        f" calibrated {cal:.3f} s, {p.ops} ops"
    )


def print_metrics(title: str, metrics: dict[str, float], units: dict[str, str]) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>16.6g} {units[name]}")


def timed_run(workload, seed: int, seconds: float, check: Check):
    """--trace 0: set-up probes, then passes until ``seconds`` are used."""
    setup_s = measure_setup(workload.name, seed)
    deadline = time.perf_counter() + seconds
    passes = 0
    per_op: list[float] = []
    # Slice percentiles are taken per pass: pooling the slices of a
    # varying number of passes moved the pooled p90 with the pass count.
    p50s: list[float] = []
    p90s: list[float] = []
    while True:
        started = time.perf_counter()
        p = workloads.run_pass(workload, seed)
        took = time.perf_counter() - started
        passes += 1
        describe_pass(passes, p)
        check_pass(check, f"pass {passes}", p)
        per_op.append(sum(p.calibrated) / p.ops * 1e6)
        slowdowns = p.measured_slowdowns()
        p50s.append(statistics.median(slowdowns))
        p90s.append(refloop.tail_percentile(slowdowns, 0.9))
        if passes == 1:
            outcomes = workloads.outcomes(p)
            commands = int(p.result.client_stats["commands"])
            failed = workloads.failed_ops(p.result)
        # Drop the pass before the next one, so peak RSS is one pass's.
        del p
        gc.collect()
        if time.perf_counter() + took > deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    check_safety(check, workload, seed)
    metrics = {
        "setup_s": setup_s,
        "host_us_per_op": statistics.median(per_op),
        "slowdown_p50": statistics.median(p50s),
        "slowdown_p90": statistics.median(p90s),
        "peak_rss_mb": peak_rss_mb,
    }
    metrics.update((name, outcomes[name]) for name in END_TO_END if name in outcomes)
    print(f"  {len(slowdowns)} post-warm-up slices in each of {passes} passes")
    print_metrics("model outputs that may read 0:", {n: outcomes[n] for n in ZERO_ABLE}, ZERO_ABLE)
    attempted = commands * passes
    failed *= passes
    return metrics, END_TO_END, attempted, failed


def traced_pass(workload, seed: int):
    """A pass with cProfile on around every slice, and its ledger."""
    profiler = cProfile.Profile(builtins=True)
    traced = workloads.run_pass(workload, seed, profiler=profiler)
    return traced, ledger.Ledger(profiler, workloads.SRC)


def layer_metrics(plain, traced, book) -> dict[str, float]:
    """Every per-layer metric, in :func:`per_layer_units` order."""
    shares = book.self_shares()
    calls = book.calls()
    ops = plain.ops
    metrics: dict[str, float] = {}
    for layer in ledger.LAYER_NAMES:
        metrics[f"{layer}.self_share"] = shares[layer]
        metrics[f"{layer}.calls_per_op"] = calls[layer] / ops
    metrics.update(workloads.work_counters(plain))
    metrics["sim.rng.draws_per_op"] = book.draws() / ops
    metrics["trace.overhead"] = sum(traced.calibrated) / sum(plain.calibrated)
    metrics.update(workloads.outcomes(plain))
    return {name: metrics[name] for name in per_layer_units()}


def traced_run(workload, seed: int, check: Check):
    """--trace 1: an untraced and a profiled pass; the per-layer ledger."""
    plain = workloads.run_pass(workload, seed)
    describe_pass(1, plain)
    check_pass(check, "untraced pass", plain)
    traced, book = traced_pass(workload, seed)
    describe_pass(2, traced)
    check_pass(check, "traced pass", traced)
    metrics = layer_metrics(plain, traced, book)
    print(f"  self shares sum to {sum(book.self_shares().values()):.6f}")
    attempted = int(plain.result.client_stats["commands"]) * 2
    failed = workloads.failed_ops(plain.result) * 2
    return metrics, per_layer_units(), attempted, failed


def result_line(correct: bool, attempted: int, failed: int, metrics, units) -> str:
    """The final JSON line; a failed output check counts every op as failed."""
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed if correct else attempted,
            "metrics": {
                name: {"value": value, "unit": units[name]} for name, value in metrics.items()
            },
        }
    )


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    check = Check(workload.name, args.seed)
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}")
    if args.trace:
        metrics, units, attempted, failed = traced_run(workload, args.seed, check)
    else:
        metrics, units, attempted, failed = timed_run(
            workload, args.seed, args.seconds, check
        )
    correct = check.report()
    print_metrics("metrics:", metrics, units)
    print(result_line(correct, attempted, failed, metrics, units))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
