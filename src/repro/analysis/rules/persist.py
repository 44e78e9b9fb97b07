"""validate-before-persist: store writes come after validation.

The rehydration-poisoning bug: tenant registration persisted its
metadata *before* a settings value was validated, so an invalid value
landed in ``app.json``, the session constructor raised, and every later
restart of the whole service crashed re-reading the poisoned record.
The fix (and the invariant since): within any ``service/`` function
that both validates and writes, every store write must come after the
last guarding ``_validate_*`` call.

A "write" is a call to a known durable-write method whose receiver
mentions ``store`` (``self.store.append_many``, ``store.register_app``,
...) or the store's own ``self._write_json``; a "validator" is any call
whose name starts with ``_validate`` or ``validate_``.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import ModuleInfo, Rule
from repro.analysis.findings import Finding

#: Durable-write entry points of HistoryStore (and its meta files).
WRITE_METHODS = frozenset(
    {
        "append",
        "append_many",
        "append_winners",
        "register_app",
        "save_artifacts",
        "save_deployment",
        "save_transfer",
        "_write_json",
    }
)


def _call_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_validator(func: ast.expr) -> bool:
    name = _call_name(func)
    return name is not None and (
        name.startswith("_validate") or name.startswith("validate_")
    )


def _is_store_write(func: ast.expr) -> bool:
    if not isinstance(func, ast.Attribute) or func.attr not in WRITE_METHODS:
        return False
    if func.attr == "_write_json":
        # The store's own serializer helper: any receiver counts.
        return True
    receiver = ast.unparse(func.value)
    return "store" in receiver


class ValidateBeforePersistRule(Rule):
    rule_id = "validate-before-persist"
    description = (
        "in service/ code, HistoryStore/meta writes may not precede the "
        "function's _validate_* call (rehydration poisoning)"
    )

    def check_module(self, module: ModuleInfo) -> list[Finding]:
        if "service/" not in module.rel_path:
            return []
        findings: list[Finding] = []
        for scope in ast.walk(module.tree):
            if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            writes: list[ast.Call] = []
            validator_lines: list[int] = []
            for node in ast.walk(scope):
                if node is not scope and isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                if not isinstance(node, ast.Call):
                    continue
                if _is_validator(node.func):
                    validator_lines.append(node.lineno)
                elif _is_store_write(node.func):
                    writes.append(node)
            if not validator_lines:
                continue
            last_validation = max(validator_lines)
            for write in writes:
                if write.lineno < last_validation:
                    name = _call_name(write.func)
                    findings.append(
                        module.finding(
                            write,
                            self.rule_id,
                            f"store write {name}(...) precedes a _validate_* call "
                            "in the same function; a failure after the write "
                            "poisons the store and every later rehydration",
                        )
                    )
        return findings
