"""The perf scenario runner and its committed baseline gate.

``run_scenarios`` executes the named scenarios best-of-``repeat`` (the
fastest run is the least-noisy estimate of the code's speed), and the
baseline machinery mirrors the campaign's ``BENCH_*.json`` convention:
``benchmarks/baselines/BENCH_simulator.json`` records events/sec and
dispatched-event counts per scenario.  The gate is asymmetric by
design:

* ``dispatched_events`` must match **exactly** — the scenarios are
  deterministic, so any drift means the simulation's behaviour changed,
  not its speed;
* ``events_per_sec`` may regress by at most the relative tolerance
  (generous, default −40%: CI runners are noisy).  Faster-than-baseline
  results pass (and are labelled ``improved`` as a hint to refresh).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

import repro
from repro.perf.scenarios import (
    PerfResult,
    event_churn,
    fig2_slice,
    net_multicast,
    timer_restart_storm,
)

#: Scenario name -> callable(scale) in canonical (report) order.
SCENARIOS = {
    "event_churn": event_churn,
    "timer_restart_storm": timer_restart_storm,
    "net_multicast": net_multicast,
    "fig2_slice": fig2_slice,
}

DEFAULT_BASELINE_DIR = Path("benchmarks") / "baselines"
BASELINE_NAME = "BENCH_simulator.json"

#: Only a slowdown beyond this relative fraction fails the gate.
DEFAULT_RELATIVE_TOLERANCE = 0.40


def run_scenarios(
    names: Optional[list[str]] = None, repeat: int = 3, scale: float = 1.0
) -> list[PerfResult]:
    """Run the selected scenarios; best (fastest) of ``repeat`` each."""
    if names is None:
        names = list(SCENARIOS)
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        raise KeyError(
            f"unknown perf scenario(s) {', '.join(unknown)}; "
            f"available: {', '.join(SCENARIOS)}"
        )
    results = []
    for name in names:
        scenario = SCENARIOS[name]
        best: Optional[PerfResult] = None
        for _ in range(max(1, repeat)):
            result = scenario(scale)
            if best is None or result.events_per_sec > best.events_per_sec:
                best = result
        results.append(best)
    return results


def render_results(results: list[PerfResult]) -> str:
    """Human-readable results table."""
    lines = [
        "Simulator perf scenarios:",
        "  scenario             wall       events        ev/s  peak heap  drained",
    ]
    for result in results:
        lines.append(
            f"  {result.scenario:<19s} {result.wall_seconds:6.3f}s "
            f"{result.dispatched_events:>9,}  {result.events_per_sec:>10,.0f}  "
            f"{result.peak_heap:>9,}  {result.drained_tombstones:>7,}"
        )
    return "\n".join(lines)


def results_jsonable(
    results: list[PerfResult], repeat: int, scale: float
) -> dict[str, Any]:
    """The machine-readable perf report (CI artifact)."""
    return {
        "bench": "simulator",
        "version": repro.__version__,
        "settings": {"scale": scale, "repeat": repeat},
        "results": [result.to_jsonable() for result in results],
    }


def baseline_path(directory: Path) -> Path:
    return Path(directory) / BASELINE_NAME


def write_perf_baseline(
    directory: Path,
    results: list[PerfResult],
    scale: float,
    notes: Optional[dict[str, Any]] = None,
) -> Path:
    """Write/refresh the committed simulator perf baseline.

    A re-bless only replaces the measurements: the previous baseline's
    ``notes`` (the human record of *why* the numbers are what they are)
    and its ``tolerance`` block carry forward unless explicitly
    overridden.
    """
    metrics: dict[str, float] = {}
    for result in results:
        metrics[f"{result.scenario}.events_per_sec"] = result.events_per_sec
        metrics[f"{result.scenario}.dispatched_events"] = result.dispatched_events
    previous = load_perf_baseline(directory) or {}
    tolerance = dict(
        previous.get("tolerance") or {"relative": DEFAULT_RELATIVE_TOLERANCE}
    )
    tolerance.setdefault("relative", DEFAULT_RELATIVE_TOLERANCE)
    document = {
        "bench": "simulator",
        "version": repro.__version__,
        "settings": {"scale": scale},
        "tolerance": tolerance,
        "metrics": metrics,
    }
    if notes is None:
        notes = previous.get("notes")
    if notes:
        document["notes"] = notes
    path = baseline_path(directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def load_perf_baseline(directory: Path) -> Optional[dict[str, Any]]:
    path = baseline_path(directory)
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


@dataclass
class PerfCheckEntry:
    """One gated metric (or one structural problem)."""

    metric: str
    status: str  # "ok" | "improved" | "regressed" | "count-drift" | ...
    baseline: Optional[float] = None
    current: Optional[float] = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "improved", "new-metric")


@dataclass
class PerfCheckReport:
    """The outcome of gating one perf run against the baseline."""

    entries: list[PerfCheckEntry] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(entry.ok for entry in self.entries)

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def render(self) -> str:
        lines = ["Perf baseline check:"]
        for entry in self.entries:
            value = ""
            if entry.baseline is not None or entry.current is not None:
                value = (
                    f": baseline={_fmt(entry.baseline)} current={_fmt(entry.current)}"
                )
            lines.append(
                f"  {entry.status:12s} {entry.metric}{value}"
                + (f"  {entry.detail}" if entry.detail else "")
            )
        verdict = (
            "PASS"
            if self.ok
            else f"FAIL ({sum(1 for entry in self.entries if not entry.ok)} problem(s))"
        )
        lines.append(f"  => {verdict}")
        return "\n".join(lines)


def _fmt(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.6g}"


def check_perf_baseline(
    directory: Path, results: list[PerfResult], scale: float
) -> PerfCheckReport:
    """Gate a perf run against the committed baseline."""
    report = PerfCheckReport()
    document = load_perf_baseline(directory)
    if document is None:
        report.entries.append(
            PerfCheckEntry(
                "*",
                "missing-baseline",
                detail=f"no {BASELINE_NAME}; run perf --update-baselines",
            )
        )
        return report
    recorded_scale = document.get("settings", {}).get("scale")
    if recorded_scale != scale:
        report.entries.append(
            PerfCheckEntry(
                "*",
                "settings-mismatch",
                detail=f"baseline recorded scale={recorded_scale}, run used {scale}",
            )
        )
        return report
    relative = float(
        document.get("tolerance", {}).get("relative", DEFAULT_RELATIVE_TOLERANCE)
    )
    metrics = document.get("metrics", {})
    for result in results:
        _check_rate(report, metrics, result, relative)
        _check_count(report, metrics, result)
    return report


def _check_rate(
    report: PerfCheckReport,
    metrics: dict[str, Any],
    result: PerfResult,
    relative: float,
) -> None:
    metric = f"{result.scenario}.events_per_sec"
    baseline = metrics.get(metric)
    if baseline is None:
        report.entries.append(
            PerfCheckEntry(metric, "new-metric", current=result.events_per_sec)
        )
        return
    baseline = float(baseline)
    current = result.events_per_sec
    if current < baseline * (1.0 - relative):
        status, detail = "regressed", f"slower than −{relative * 100:.0f}% band"
    elif current > baseline * (1.0 + relative):
        status, detail = "improved", "faster than band; consider --update-baselines"
    else:
        status, detail = "ok", ""
    report.entries.append(
        PerfCheckEntry(metric, status, baseline=baseline, current=current, detail=detail)
    )


def _check_count(
    report: PerfCheckReport, metrics: dict[str, Any], result: PerfResult
) -> None:
    metric = f"{result.scenario}.dispatched_events"
    baseline = metrics.get(metric)
    if baseline is None:
        report.entries.append(
            PerfCheckEntry(metric, "new-metric", current=result.dispatched_events)
        )
        return
    exact = int(baseline) == result.dispatched_events
    report.entries.append(
        PerfCheckEntry(
            metric,
            "ok" if exact else "count-drift",
            baseline=float(baseline),
            current=float(result.dispatched_events),
            detail=""
            if exact
            else "deterministic event count changed — simulation behaviour drifted",
        )
    )
