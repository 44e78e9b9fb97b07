"""The rule engine behind ``repro check``.

Each rule is an AST pass over one parsed module (plus an optional
cross-module ``finalize`` for project-wide invariants such as seed-salt
uniqueness).  The engine owns everything rules should not reimplement:
file discovery, parsing, parent links on AST nodes, test-file
classification and inline ``# repro: allow[rule-id]`` suppressions.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.findings import Finding

#: Inline suppression: ``# repro: allow[rule-id]`` or
#: ``# repro: allow[rule-a, rule-b]``.  On its own line, the comment
#: covers the following line (for statements with no trailing room).
_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([a-zA-Z0-9_\-, ]+)\]")

#: Attribute annotation consumed by the lock-discipline rule:
#: ``self._jobs = {}  # guarded-by: _lock`` (commas list alternates).
GUARDED_BY_RE = re.compile(r"#\s*guarded-by:\s*([A-Za-z0-9_,\- ]+)")


class ParentVisitor(ast.NodeVisitor):
    """Annotates every node with ``repro_parent`` for upward walks."""

    def generic_visit(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            child.repro_parent = node  # type: ignore[attr-defined]
        super().generic_visit(node)


def parents(node: ast.AST):
    """The ancestor chain of ``node``, innermost first."""
    current = getattr(node, "repro_parent", None)
    while current is not None:
        yield current
        current = getattr(current, "repro_parent", None)


def walk_scope(scope: ast.AST):
    """Yield ``scope``'s descendants without entering nested functions.

    ``ast.walk`` has no pruning: skipping a nested ``FunctionDef`` node
    still visits everything inside it, so per-scope rules would report
    each nested finding once per enclosing scope.  This walker treats a
    nested function/lambda as opaque — it is yielded (so a rule can
    recurse deliberately) but its body is not.
    """
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


@dataclass
class ModuleInfo:
    """One parsed source file handed to every rule."""

    path: str  # as the user named it (printed in findings)
    rel_path: str  # root-relative posix form (rule and test-file scoping)
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)
    is_test: bool = False

    def line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def finding(self, node_or_line, rule: str, message: str) -> Finding:
        if isinstance(node_or_line, int):
            line, col = node_or_line, 0
        else:
            line, col = node_or_line.lineno, node_or_line.col_offset
        return Finding(path=self.path, line=line, col=col, rule=rule, message=message)

    def allowed_rules(self, lineno: int) -> set[str]:
        """Rule ids suppressed on ``lineno`` by inline allow comments."""
        allowed: set[str] = set()
        for candidate in (lineno, lineno - 1):
            text = self.line(candidate)
            match = _ALLOW_RE.search(text)
            if match is None:
                continue
            if candidate == lineno - 1 and not text.lstrip().startswith("#"):
                continue  # only a standalone comment covers the next line
            allowed.update(part.strip() for part in match.group(1).split(","))
        return allowed


class Rule:
    """Base class: one invariant, one stable ``rule_id``."""

    rule_id: str = ""
    description: str = ""
    #: Most invariants are about production determinism/concurrency and
    #: deliberately do not apply to tests (which poke at edge cases).
    applies_to_tests: bool = False

    def check_module(self, module: ModuleInfo) -> list[Finding]:
        return []

    def finalize(self) -> list[Finding]:
        """Cross-module findings, emitted after every file was visited."""
        return []


def _is_test_path(rel_path: str) -> bool:
    parts = Path(rel_path).parts
    name = Path(rel_path).name
    return (
        "tests" in parts
        or name.startswith("test_")
        or name == "conftest.py"
        or name.startswith("bench_")
        or "benchmarks" in parts
    )


class AnalysisEngine:
    """Runs a rule set over a file list and applies suppressions."""

    def __init__(self, rules: list[Rule], root: str | Path | None = None):
        ids = [rule.rule_id for rule in rules]
        if len(ids) != len(set(ids)):
            raise ValueError(f"duplicate rule ids: {sorted(ids)}")
        self.rules = list(rules)
        #: Rules scope and classify files by their path relative to
        #: this directory (normally the repo root).
        self.root = Path(root).resolve() if root is not None else Path.cwd()

    # ------------------------------------------------------------------
    def collect_files(self, paths: list[str]) -> list[str]:
        files: list[str] = []
        for path in paths:
            p = Path(path)
            if p.is_dir():
                files.extend(str(f) for f in sorted(p.rglob("*.py")))
            elif p.suffix == ".py":
                files.append(str(p))
            else:
                raise FileNotFoundError(f"{path}: not a .py file or directory")
        seen: set[str] = set()
        unique = []
        for f in files:
            resolved = str(Path(f).resolve())
            if resolved not in seen:
                seen.add(resolved)
                unique.append(f)
        return unique

    def load_module(self, path: str) -> ModuleInfo | Finding:
        source = Path(path).read_text()
        try:
            resolved = Path(path).resolve().relative_to(self.root)
            rel_path = resolved.as_posix()
        except ValueError:
            rel_path = Path(path).as_posix()
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            return Finding(
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                rule="syntax-error",
                message=f"file does not parse: {exc.msg}",
            )
        ParentVisitor().visit(tree)
        return ModuleInfo(
            path=path,
            rel_path=rel_path,
            source=source,
            tree=tree,
            lines=source.splitlines(),
            is_test=_is_test_path(rel_path),
        )

    def check_paths(self, paths: list[str]) -> list[Finding]:
        """All non-suppressed findings from ``paths``, sorted."""
        findings: list[Finding] = []
        for path in self.collect_files(paths):
            loaded = self.load_module(path)
            if isinstance(loaded, Finding):
                findings.append(loaded)
                continue
            for rule in self.rules:
                if loaded.is_test and not rule.applies_to_tests:
                    continue
                for finding in rule.check_module(loaded):
                    allowed = loaded.allowed_rules(finding.line)
                    if finding.rule not in allowed and "*" not in allowed:
                        findings.append(finding)
        for rule in self.rules:
            findings.extend(rule.finalize())
        return sorted(findings)


@dataclass
class CheckResult:
    """Outcome of one ``repro check`` run."""

    findings: list[Finding]
    n_files: int

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0


def run_check(
    paths: list[str],
    rules: list[Rule] | None = None,
    root: str | Path | None = None,
) -> CheckResult:
    """Run the default (or given) rule set over ``paths``."""
    if rules is None:
        from repro.analysis.rules import default_rules

        rules = default_rules()
    engine = AnalysisEngine(rules, root=root)
    files = engine.collect_files(paths)
    return CheckResult(findings=engine.check_paths(paths), n_files=len(files))
