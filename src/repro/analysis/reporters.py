"""detlint output: the human report and the JSON artifact."""

from __future__ import annotations

from typing import Any

from repro.analysis.engine import LintReport
from repro.analysis.rules import RULES


def render_text(report: LintReport, verbose: bool = False) -> str:
    """The human-readable report.

    Active findings always print; pass ``verbose`` to also list what
    the pragmas and the baseline are currently suppressing.
    """
    lines: list[str] = []
    for error in report.parse_errors:
        lines.append(f"parse error: {error}")
    for finding in report.active:
        rule = RULES[finding.rule]
        lines.append(
            f"{finding.location()}: {finding.rule} [{rule.family}] {finding.message}"
        )
        if finding.source_line:
            lines.append(f"    {finding.source_line}")
    if verbose:
        for finding in report.findings:
            if finding.active:
                continue
            reason = f" ({finding.suppression_reason})" if finding.suppression_reason else ""
            lines.append(
                f"{finding.location()}: {finding.rule} suppressed by "
                f"{finding.suppressed_by}{reason}"
            )
    stale = report.baseline.stale_entries()
    for entry in stale:
        lines.append(
            f"stale baseline entry: {entry.rule} in {entry.module} no longer "
            f"matches anything ({entry.context!r}) — regenerate with --update-baseline"
        )
    unjustified = report.baseline.unjustified_entries()
    for entry in unjustified:
        lines.append(
            f"baseline entry without justification: {entry.rule} in "
            f"{entry.module} ({entry.context!r}) — every suppression needs a reason"
        )
    lines.append(
        f"detlint: {report.files_scanned} file(s), "
        f"{len(report.active)} active finding(s), "
        f"{len(report.pragma_suppressed)} pragma-suppressed, "
        f"{len(report.baseline_suppressed)} baseline-suppressed"
    )
    return "\n".join(lines)


def render_json(report: LintReport) -> dict[str, Any]:
    """The machine-readable report (CI artifact / --json)."""
    return {
        "files_scanned": report.files_scanned,
        "parse_errors": list(report.parse_errors),
        "findings": [finding.to_jsonable() for finding in report.findings],
        "counts": {
            "active": len(report.active),
            "pragma_suppressed": len(report.pragma_suppressed),
            "baseline_suppressed": len(report.baseline_suppressed),
        },
        "baseline": {
            "entries": len(report.baseline.entries),
            "stale": [entry.to_jsonable() for entry in report.baseline.stale_entries()],
            "unjustified": [
                entry.to_jsonable() for entry in report.baseline.unjustified_entries()
            ],
        },
        "ok": report.ok
        and not report.baseline.unjustified_entries()
        and not report.baseline.stale_entries(),
    }


def render_rule_catalog() -> str:
    """The ``--rules`` listing."""
    lines = []
    for rule in RULES.values():
        lines.append(f"{rule.id} [{rule.family}] {rule.title}")
        lines.append(f"    {rule.rationale}")
    return "\n".join(lines)
