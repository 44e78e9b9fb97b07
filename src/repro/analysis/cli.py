"""The ``repro check`` command.

Exit codes: 0 — clean, 1 — findings, 2 — usage error.  A finding is
accepted only by an inline ``# repro: allow[rule-id]`` comment.
``--json`` emits a machine-readable report with a stable schema (see
:meth:`repro.analysis.findings.Finding.to_json`); CI consumes the human
form and the exit code.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis.engine import run_check
from repro.analysis.rules import default_rules


def build_check_parser(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="machine-readable report on stdout (stable schema)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def cmd_check(args) -> int:
    rules = default_rules()
    if args.list_rules:
        for rule in rules:
            print(f"{rule.rule_id:24s} {rule.description}")
        return 0
    try:
        result = run_check(args.paths, rules=rules)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if args.as_json:
        print(
            json.dumps(
                {
                    "version": 1,
                    "files": result.n_files,
                    "findings": [f.to_json() for f in result.findings],
                    "exit_code": result.exit_code,
                },
                indent=2,
            )
        )
        return result.exit_code

    for finding in result.findings:
        print(finding.format())
    print(f"checked {result.n_files} file(s): {len(result.findings)} finding(s)")
    return result.exit_code
