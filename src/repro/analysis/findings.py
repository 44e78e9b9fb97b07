"""The finding record shared by the engine, the rules, and the CLI."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    ``path`` is the file as the user named it (what gets printed).
    """

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"

    def to_json(self) -> dict:
        """Stable ``--json`` schema (covered by tests; extend, don't rename)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
