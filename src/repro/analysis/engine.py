"""The detlint engine: walk files, run checkers, apply suppressions.

v2 is project-wide: the tree is parsed once into a
:class:`~repro.analysis.index.ProjectIndex`, the per-module family
checkers (DET/OBS/CAMP/PROTO/PERF) run per file as before, and the
interprocedural pass (:mod:`repro.analysis.interproc`) chases calls
across modules for OBS005.  Suppression (pragmas, baseline) is applied
*after* analysis, to the raw findings.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

from repro.analysis import camp, config, det, interproc, perfrule, proto, purity
from repro.analysis.baseline import PLACEHOLDER_REASON, Baseline
from repro.analysis.findings import CheckContext, Finding
from repro.analysis.index import ProjectIndex, build_index
from repro.analysis.pragmas import parse_pragmas
from repro.analysis.rules import RULES

_FAMILY_CHECKERS = {
    "DET": det.check,
    "OBS": purity.check,
    "CAMP": camp.check,
    "PROTO": proto.check,
    "PERF": perfrule.check,
}


@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    parse_errors: list[str] = field(default_factory=list)
    baseline: Baseline = field(default_factory=Baseline)

    @property
    def active(self) -> list[Finding]:
        return [f for f in self.findings if f.active]

    @property
    def pragma_suppressed(self) -> list[Finding]:
        return [f for f in self.findings if f.suppressed_by == "pragma"]

    @property
    def baseline_suppressed(self) -> list[Finding]:
        return [f for f in self.findings if f.suppressed_by == "baseline"]

    @property
    def ok(self) -> bool:
        """Whether the gate passes (no active findings, no parse errors)."""
        return not self.active and not self.parse_errors


def module_name_for(path: Path) -> str:
    """Dotted module name of a source file.

    Anchored at the ``repro`` package dir; repo tooling under ``tools/``
    anchors there instead (``tools/overhead_guard.py`` ->
    ``tools.overhead_guard``) so scopes can address it.
    """
    parts = list(path.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts.pop()
    for anchor in ("repro", "tools"):
        for index in range(len(parts) - 1, -1, -1):
            if parts[index] == anchor:
                return ".".join(parts[index:])
    return ".".join(parts[-1:]) if parts else str(path)


def iter_python_files(paths: Iterable[Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: set[Path] = set()
    for path in paths:
        path = Path(path)
        if path.is_dir():
            files.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            files.add(path)
    return sorted(files)


def _module_findings(
    context: CheckContext, tree: ast.AST
) -> list[Finding]:
    """Raw per-module findings (no suppression state)."""
    findings: list[Finding] = []
    wanted_families = {RULES[rule_id].family for rule_id in context.active_rules}
    for family, checker in _FAMILY_CHECKERS.items():
        if family in wanted_families:
            findings.extend(checker(context, tree))
    return findings


def _apply_suppressions(
    findings: list[Finding], lines: list[str], baseline: Baseline
) -> None:
    """Mark findings suppressed by pragmas or justified baseline entries."""
    pragmas = parse_pragmas(lines)
    for finding in findings:
        pragma = pragmas.get(finding.line)
        if pragma is not None and pragma.covers(finding.rule):
            finding.suppressed_by = "pragma"
            finding.suppression_reason = pragma.reason
            continue
        entry = baseline.match(finding)
        if entry is not None:
            reason = entry.reason.strip()
            if not reason or reason == PLACEHOLDER_REASON:
                # A placeholder justification is no justification: the
                # entry suppresses nothing, the finding stays active,
                # and the gate fails hard until a real reason replaces
                # the "TODO" stamped by --update-baseline.
                continue
            finding.suppressed_by = "baseline"
            finding.suppression_reason = entry.reason


def _context_for(
    module: str, path: str, source: str, rules_filter: Optional[set[str]]
) -> Optional[CheckContext]:
    active_rules = config.rules_for_module(module)
    if rules_filter is not None:
        active_rules &= rules_filter
    if not active_rules:
        return None
    return CheckContext(
        module=module,
        path=path,
        lines=source.splitlines(),
        active_rules=active_rules,
    )


def _lint_index(
    index: ProjectIndex, rules_filter: Optional[set[str]], report: LintReport
) -> None:
    """Run the v2 pipeline over an already-built index into ``report``."""
    facts, summaries = interproc.analyse(index)
    for name in sorted(index.modules):
        info = index.modules[name]
        context = _context_for(name, info.path, info.source, rules_filter)
        if context is None:
            continue
        findings = _module_findings(context, info.tree)
        findings.extend(interproc.check_module(context, index, facts, summaries))
        _apply_suppressions(findings, context.lines, report.baseline)
        report.findings.extend(findings)
    report.findings.sort(key=Finding.sort_key)


def lint_paths(
    paths: Iterable[Path],
    baseline: Optional[Baseline] = None,
    rules_filter: Optional[set[str]] = None,
) -> LintReport:
    """Lint every Python file under ``paths`` (the project entry point)."""
    report = LintReport(baseline=baseline or Baseline())
    files = iter_python_files(paths)
    index, errors = build_index((module_name_for(path), path) for path in files)
    report.files_scanned = len(files)
    report.parse_errors.extend(errors)
    _lint_index(index, rules_filter, report)
    return report


def lint_project(
    sources: dict[str, str],
    baseline: Optional[Baseline] = None,
    rules_filter: Optional[set[str]] = None,
) -> LintReport:
    """Lint in-memory ``{module: source}`` as one project (fixtures)."""
    report = LintReport(baseline=baseline or Baseline())
    index = ProjectIndex()
    for name, source in sources.items():
        try:
            index.add_source(name, source, f"<{name}>")
        except SyntaxError as error:
            report.parse_errors.append(f"<{name}>: {error}")
    report.files_scanned = len(sources)
    _lint_index(index, rules_filter, report)
    return report


def lint_file(
    path: Path,
    baseline: Baseline,
    module: Optional[str] = None,
    rules_filter: Optional[set[str]] = None,
) -> list[Finding]:
    """Lint one file in isolation (no cross-module context)."""
    source = Path(path).read_text(encoding="utf-8")
    return _lint_text(
        source,
        module or module_name_for(Path(path)),
        str(path),
        baseline,
        rules_filter,
    )


def lint_source(
    source: str,
    module: str,
    baseline: Optional[Baseline] = None,
    rules_filter: Optional[set[str]] = None,
) -> list[Finding]:
    """Lint a source string as dotted ``module`` (fixture-test entry).

    Runs the per-module checkers only; cross-module analysis needs
    :func:`lint_project` / :func:`lint_paths`.
    """
    return _lint_text(
        source, module, f"<{module}>", baseline or Baseline(), rules_filter
    )


def _lint_text(
    source: str,
    module: str,
    path: str,
    baseline: Baseline,
    rules_filter: Optional[set[str]],
) -> list[Finding]:
    tree = ast.parse(source, filename=path)
    context = _context_for(module, path, source, rules_filter)
    if context is None:
        return []
    findings = _module_findings(context, tree)
    findings.sort(key=Finding.sort_key)
    _apply_suppressions(findings, context.lines, baseline)
    return findings
