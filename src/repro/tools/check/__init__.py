"""``repro check`` — the project-invariant static analyzer.

The repo's correctness story rests on invariants no unit test can see
until they break: byte-identical merges of combinable state,
day-boundary snapshot isolation under a lock, allocation-free columnar hot loops, and a
checkpoint wire format that versions its own changes.  This package
makes those invariants machine-checked: an AST pass over the source
tree with five project-specific rule families (see
:mod:`repro.tools.check.rules`), path-scoped configuration in
``pyproject.toml`` under ``[tool.repro-check]``, and
``# repro: ignore[rule-id]`` line suppressions with unused-suppression
detection.

Run it as ``repro check [PATHS...]`` or ``python -m repro.tools.check``;
``--format json`` emits the machine-readable document described in the
README (stable ``schema_version``), and exit status is 0 only when no
finding of ``error`` severity survives suppression.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import re
import sys
import tokenize
import tomllib
from dataclasses import dataclass
from pathlib import Path

#: Version of the ``--format json`` output document.  Bump only on
#: incompatible changes to the finding/summary shape.
JSON_SCHEMA_VERSION = 1

#: Findings the framework itself emits (suppression bookkeeping).
RULE_UNUSED_SUPPRESSION = "unused-suppression"
RULE_UNKNOWN_RULE = "unknown-rule"

_SUPPRESSION_RE = re.compile(
    r"#\s*repro:\s*ignore\[([A-Za-z0-9_\-, ]+)\]"
)


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location.

    ``line`` is 1-based; ``col`` is 1-based (``ast`` column offsets are
    shifted by one so editors and humans agree on what column 1 means).
    """

    rule: str
    severity: str  # "error" | "warning"
    path: str  # project-relative posix path
    line: int
    col: int
    message: str

    def to_dict(self) -> dict:
        """JSON-serializable form — one row of ``--format json``."""
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Finding":
        """Rebuild a finding from :meth:`to_dict` output."""
        return cls(
            rule=payload["rule"],
            severity=payload["severity"],
            path=payload["path"],
            line=payload["line"],
            col=payload["col"],
            message=payload["message"],
        )

    def render(self) -> str:
        """The ascii-format line for this finding."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.severity}[{self.rule}] {self.message}"
        )


class Module:
    """One parsed source file, shared by every rule that scans it."""

    __slots__ = ("path", "relpath", "source", "lines", "tree", "suppressions")

    def __init__(self, path: Path, root: Path) -> None:
        self.path = path
        try:
            self.relpath = path.relative_to(root).as_posix()
        except ValueError:
            self.relpath = path.as_posix()
        self.source = path.read_text()
        self.lines = self.source.splitlines()
        self.tree = ast.parse(self.source, filename=str(path))
        #: line number -> set of rule ids suppressed on that line.
        #: Only real COMMENT tokens count — the marker inside a string
        #: or docstring (e.g. documentation quoting the syntax) is not
        #: a suppression.
        self.suppressions: dict[int, set[str]] = {}
        try:
            tokens = tokenize.generate_tokens(io.StringIO(self.source).readline)
            for token in tokens:
                if token.type != tokenize.COMMENT:
                    continue
                match = _SUPPRESSION_RE.search(token.string)
                if match:
                    self.suppressions[token.start[0]] = {
                        rule.strip()
                        for rule in match.group(1).split(",")
                        if rule.strip()
                    }
        except tokenize.TokenError:
            pass


class Rule:
    """Base class for one rule family.

    Subclasses set ``id``/``description``, optionally override
    ``default_paths`` (project-relative path prefixes the rule scans
    when the config has none), and implement :meth:`check`.
    """

    id: str = ""
    description: str = ""
    default_severity: str = "error"
    default_paths: tuple[str, ...] = ()

    def check(self, module: Module, options: dict, project: "Project"):
        """Yield :class:`Finding` objects for one module."""
        raise NotImplementedError

    def finalize(self, options: dict, project: "Project"):
        """Yield project-wide findings after every module was scanned."""
        return ()


class Project:
    """Shared context for one checker run: root, config, module cache."""

    __slots__ = ("root", "config", "_modules")

    def __init__(self, root: Path, config: dict) -> None:
        self.root = root
        self.config = config
        self._modules: dict[Path, Module] = {}

    def module(self, path: Path) -> Module:
        """The parsed module for ``path`` (cached per run)."""
        path = path.resolve()
        cached = self._modules.get(path)
        if cached is None:
            cached = self._modules[path] = Module(path, self.root)
        return cached

    def rule_options(self, rule_id: str) -> dict:
        """The ``[tool.repro-check.<rule>]`` table (empty if absent)."""
        options = self.config.get(rule_id, {})
        return options if isinstance(options, dict) else {}


def load_pyproject_config(root: Path) -> dict:
    """The ``[tool.repro-check]`` table of ``root/pyproject.toml``."""
    pyproject = root / "pyproject.toml"
    if not pyproject.is_file():
        return {}
    with open(pyproject, "rb") as handle:
        data = tomllib.load(handle)
    return data.get("tool", {}).get("repro-check", {})


def find_project_root(start: Path | None = None) -> Path:
    """Nearest ancestor of ``start`` carrying a ``pyproject.toml``."""
    current = (start or Path.cwd()).resolve()
    for candidate in (current, *current.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return current


def iter_python_files(paths: list[Path]) -> list[Path]:
    """Every ``.py`` file under ``paths``, sorted for stable output."""
    found: set[Path] = set()
    for path in paths:
        if path.is_dir():
            found.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            found.add(path)
    return sorted(found)


def _scoped(
    module_rel: str, options: dict, defaults: tuple[str, ...]
) -> bool:
    """True when a rule's path scope covers ``module_rel``."""
    scopes = options.get("paths", list(defaults))
    if scopes:
        if not any(
            module_rel == scope or module_rel.startswith(scope.rstrip("/") + "/")
            for scope in scopes
        ):
            return False
    for excluded in options.get("exclude", []):
        if module_rel == excluded or module_rel.startswith(
            excluded.rstrip("/") + "/"
        ):
            return False
    return True


def run_check(
    paths: list[Path],
    *,
    root: Path | None = None,
    config: dict | None = None,
    rules: list[str] | None = None,
) -> tuple[list[Finding], dict]:
    """Run the analyzer over ``paths``.

    Returns ``(findings, summary)``.  ``config`` overrides the
    ``[tool.repro-check]`` table (tests use this to point rules at
    fixture corpora); ``rules`` selects a subset of rule ids.
    """
    from repro.tools.check.rules import ALL_RULES

    root = (root or find_project_root()).resolve()
    config = load_pyproject_config(root) if config is None else config
    project = Project(root, config)

    by_id = {rule.id: rule for rule in ALL_RULES}
    if rules:
        unknown = sorted(set(rules) - set(by_id))
        if unknown:
            raise ValueError(
                f"unknown rule id(s): {', '.join(unknown)}; "
                f"known: {', '.join(sorted(by_id))}"
            )
        selected = [by_id[rule_id] for rule_id in rules]
    else:
        selected = list(ALL_RULES)
    active_ids = {rule.id for rule in selected}

    files = iter_python_files([path.resolve() for path in paths])
    findings: list[Finding] = []
    used_suppressions: dict[tuple[str, int], set[str]] = {}
    modules: list[Module] = []
    for path in files:
        module = project.module(path)
        modules.append(module)
        for rule in selected:
            options = project.rule_options(rule.id)
            if not _scoped(module.relpath, options, rule.default_paths):
                continue
            severity = options.get("severity", rule.default_severity)
            for finding in rule.check(module, options, project):
                if severity != rule.default_severity:
                    finding = Finding(
                        rule=finding.rule,
                        severity=severity,
                        path=finding.path,
                        line=finding.line,
                        col=finding.col,
                        message=finding.message,
                    )
                suppressed = module.suppressions.get(finding.line, set())
                if finding.rule in suppressed:
                    used_suppressions.setdefault(
                        (module.relpath, finding.line), set()
                    ).add(finding.rule)
                    continue
                findings.append(finding)
    for rule in selected:
        options = project.rule_options(rule.id)
        findings.extend(rule.finalize(options, project))

    # Suppression hygiene: a comment naming a rule that ran but caught
    # nothing is dead weight; a comment naming no known rule is a typo.
    known_ids = set(by_id) | {RULE_UNUSED_SUPPRESSION, RULE_UNKNOWN_RULE}
    for module in modules:
        for line, ids in sorted(module.suppressions.items()):
            used = used_suppressions.get((module.relpath, line), set())
            for rule_id in sorted(ids):
                if rule_id not in known_ids:
                    findings.append(
                        Finding(
                            rule=RULE_UNKNOWN_RULE,
                            severity="error",
                            path=module.relpath,
                            line=line,
                            col=1,
                            message=(
                                f"suppression names unknown rule "
                                f"{rule_id!r}"
                            ),
                        )
                    )
                elif rule_id in active_ids and rule_id not in used:
                    findings.append(
                        Finding(
                            rule=RULE_UNUSED_SUPPRESSION,
                            severity="error",
                            path=module.relpath,
                            line=line,
                            col=1,
                            message=(
                                f"unused suppression: no {rule_id!r} "
                                f"finding on this line"
                            ),
                        )
                    )

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    summary = {
        "files_checked": len(files),
        "findings": len(findings),
        "rules_run": sorted(active_ids),
    }
    return findings, summary


def render_json(findings: list[Finding], summary: dict) -> str:
    """The ``--format json`` document (see README "Static analysis")."""
    return json.dumps(
        {
            "schema_version": JSON_SCHEMA_VERSION,
            "tool": "repro-check",
            "findings": [finding.to_dict() for finding in findings],
            "summary": summary,
        },
        indent=2,
        sort_keys=True,
    )


def render_ascii(findings: list[Finding], summary: dict) -> str:
    """Human-readable report: one line per finding plus a footer."""
    lines = [finding.render() for finding in findings]
    lines.append(
        f"repro check: {summary['findings']} finding(s) in "
        f"{summary['files_checked']} file(s)"
    )
    return "\n".join(lines)


def write_schema_snapshot(root: Path | None = None) -> Path:
    """Regenerate the committed checkpoint-schema snapshot.

    Extracts the current ``CHECKPOINT_VERSION`` and the ``state_dict``
    key fingerprints of every registered merge-algebra class, then
    writes them to the path the ``wire-symmetry`` rule checks against.
    Run this (``repro check --write-schema``) after intentionally
    changing a checkpoint payload *and* bumping the version.
    """
    from repro.tools.check.rules import WireSymmetryRule

    root = (root or find_project_root()).resolve()
    config = load_pyproject_config(root)
    project = Project(root, config)
    options = project.rule_options(WireSymmetryRule.id)
    snapshot = WireSymmetryRule().current_schema(options, project)
    target = root / options.get(
        "schema", "tests/fixtures/checkpoint_schema.json"
    )
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    return target


def main(argv: list[str] | None = None) -> int:
    """CLI entry (``repro check`` / ``python -m repro.tools.check``)."""
    parser = argparse.ArgumentParser(
        prog="repro check",
        description=(
            "Static analysis of the repro source tree against its "
            "project invariants (determinism, lock discipline, merge "
            "algebra, hot-path hygiene, wire/checkpoint symmetry)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to scan (default: configured paths)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        dest="rules",
        metavar="RULE_ID",
        help="run only this rule (repeatable)",
    )
    parser.add_argument(
        "--format",
        choices=("ascii", "json"),
        default="ascii",
        dest="output_format",
        help="report format (default: ascii)",
    )
    parser.add_argument(
        "--write-schema",
        action="store_true",
        help="regenerate the checkpoint schema snapshot and exit",
    )
    args = parser.parse_args(argv)

    root = find_project_root()
    if args.write_schema:
        target = write_schema_snapshot(root)
        print(f"wrote {target}")
        return 0
    config = load_pyproject_config(root)
    if args.paths:
        paths = [Path(path) for path in args.paths]
    else:
        paths = [root / path for path in config.get("paths", ["src"])]
    try:
        findings, summary = run_check(paths, root=root, rules=args.rules)
    except ValueError as error:
        print(f"repro check: {error}", file=sys.stderr)
        return 2
    if args.output_format == "json":
        print(render_json(findings, summary))
    else:
        print(render_ascii(findings, summary))
    return 1 if any(f.severity == "error" for f in findings) else 0
