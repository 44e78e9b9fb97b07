"""Repo-specific static analysis: ``repro check``.

An AST-based rule engine (:mod:`repro.analysis.engine`) plus the rule
set (:mod:`repro.analysis.rules`) encoding the invariants this codebase
has repeatedly paid for in review: RNG seed discipline, hash-order
iteration, falsy-zero defaulting, float equality, validate-before-
persist write ordering in the service layer, and lock discipline for
annotated shared attributes.

A finding is accepted only inline: a ``# repro: allow[rule-id]``
comment on (or immediately above) the offending line keeps a deliberate
violation visible at its call site (see ``docs/static-analysis.md``).
"""

from repro.analysis.engine import AnalysisEngine, Finding, Rule, run_check
from repro.analysis.rules import default_rules

__all__ = [
    "AnalysisEngine",
    "Finding",
    "Rule",
    "default_rules",
    "run_check",
]
