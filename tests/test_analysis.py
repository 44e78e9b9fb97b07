"""Tests for the ``repro check`` static-analysis subsystem."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import default_rules, run_check
from repro.analysis.engine import AnalysisEngine
from repro.analysis.rules.falsyzero import FalsyZeroRule
from repro.analysis.rules.floateq import FloatEqRule
from repro.analysis.rules.hashiter import HashIterationRule
from repro.analysis.rules.locks import LockDisciplineRule
from repro.analysis.rules.persist import ValidateBeforePersistRule
from repro.analysis.rules.rng import RngDisciplineRule

REPO_ROOT = Path(__file__).resolve().parent.parent


def check_source(tmp_path, source, rules, name="mod.py"):
    """Write ``source`` under ``tmp_path`` and run ``rules`` over it."""
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return run_check([str(path)], rules=rules, root=tmp_path).findings


class TestRngDiscipline:
    def test_flags_stdlib_random_import(self, tmp_path):
        findings = check_source(
            tmp_path, "import random\nx = random.random()\n", [RngDisciplineRule()]
        )
        assert [f.rule for f in findings] == ["rng-discipline"]

    def test_flags_from_random_import(self, tmp_path):
        findings = check_source(
            tmp_path, "from random import choice\n", [RngDisciplineRule()]
        )
        assert len(findings) == 1

    def test_flags_naked_default_rng(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            import numpy as np
            rng = np.random.default_rng(7)
            """,
            [RngDisciplineRule()],
        )
        assert len(findings) == 1
        assert "ensure_rng" in findings[0].message

    def test_ensure_rng_is_clean(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            from repro.stats.sampling import ensure_rng
            rng = ensure_rng(7)
            x = rng.integers(10)
            """,
            [RngDisciplineRule()],
        )
        assert findings == []

    def test_flags_colliding_seed_salts_across_modules(self, tmp_path):
        rule = RngDisciplineRule()
        (tmp_path / "a.py").write_text("A_SEED_SALT = 0x1234\n")
        (tmp_path / "b.py").write_text("B_SEED_SALT = 0x1234\n")
        result = run_check([str(tmp_path)], rules=[rule], root=tmp_path)
        assert len(result.findings) == 2
        assert all("salt" in f.message.lower() for f in result.findings)

    def test_distinct_salts_are_clean(self, tmp_path):
        rule = RngDisciplineRule()
        (tmp_path / "a.py").write_text("A_SEED_SALT = 0x1234\n")
        (tmp_path / "b.py").write_text("B_SEED_SALT = 0x4321\n")
        result = run_check([str(tmp_path)], rules=[rule], root=tmp_path)
        assert result.findings == []

    def test_benchmark_salt_colliding_with_library_salt_is_flagged(self, tmp_path):
        library = tmp_path / "src" / "repro" / "replay" / "trace.py"
        library.parent.mkdir(parents=True)
        library.write_text("REPLAY_SEED_SALT = 0x3EBA\n")
        bench = tmp_path / "benchmarks" / "bench_sweep.py"
        bench.parent.mkdir()
        bench.write_text("SWEEP_SALT = 0x3EBA\n")
        result = run_check(
            [str(tmp_path / "src"), str(tmp_path / "benchmarks")],
            rules=[RngDisciplineRule()], root=tmp_path,
        )
        assert sorted(Path(f.path).relative_to(tmp_path).as_posix() for f in result.findings) == [
            "benchmarks/bench_sweep.py", "src/repro/replay/trace.py",
        ]

    def test_test_files_keep_their_rng_freedom(self, tmp_path):
        """Only the salt check reaches tests and benchmarks."""
        bench = tmp_path / "benchmarks" / "bench_load.py"
        bench.parent.mkdir()
        bench.write_text(
            "import random\nimport numpy as np\n"
            "rng = np.random.default_rng(7)\nLOAD_SALT = 0x1234\n"
        )
        result = run_check([str(bench)], rules=[RngDisciplineRule()], root=tmp_path)
        assert result.findings == []

    def test_repo_salts_are_disjoint(self):
        """The tree's salts, checked as CI's ``repro check`` checks them."""
        rule = RngDisciplineRule()
        paths = [str(REPO_ROOT / d) for d in ("src", "tests", "benchmarks")]
        result = run_check(paths, rules=[rule], root=REPO_ROOT)
        assert result.findings == []
        # Not vacuous: at least REPLAY_SEED_SALT and SHADOW_SEED_SALT were seen.
        assert len(rule._salts) >= 2


class TestHashIteration:
    def test_flags_for_over_set_literal(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            for x in {1, 2, 3}:
                print(x)
            """,
            [HashIterationRule()],
        )
        assert [f.rule for f in findings] == ["hash-iteration"]

    def test_flags_set_bound_name_and_keys(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            s = set()
            out = [x for x in s]
            d = {}
            for k in d.keys():
                print(k)
            """,
            [HashIterationRule()],
        )
        assert len(findings) == 2

    def test_sorted_wrapping_is_clean(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            s = frozenset((1, 2))
            for x in sorted(s):
                print(x)
            out = sorted({3, 4})
            d = {}
            keys = sorted(d.keys())
            """,
            [HashIterationRule()],
        )
        assert findings == []

    def test_test_files_are_exempt(self, tmp_path):
        findings = check_source(
            tmp_path,
            "for x in {1, 2}:\n    print(x)\n",
            [HashIterationRule()],
            name="test_mod.py",
        )
        assert findings == []


class TestFalsyZero:
    def test_flags_or_default_on_optional_numeric_param(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            def f(duration_s: float | None = None, fallback: float = 1.0):
                return duration_s or fallback
            """,
            [FalsyZeroRule()],
        )
        assert [f.rule for f in findings] == ["falsy-zero"]

    def test_flags_optional_subscript_annotation(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            from typing import Optional

            def f(n: Optional[int]):
                return n or 5
            """,
            [FalsyZeroRule()],
        )
        assert len(findings) == 1

    def test_is_none_check_is_clean(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            def f(duration_s: float | None = None):
                return 1.0 if duration_s is None else duration_s
            """,
            [FalsyZeroRule()],
        )
        assert findings == []

    def test_flags_get_or_numeric_default(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            def f(d):
                return d.get("count") or 0
            """,
            [FalsyZeroRule()],
        )
        assert len(findings) == 1

    def test_two_arg_get_is_clean(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            def f(d):
                return d.get("count", 0)
            """,
            [FalsyZeroRule()],
        )
        assert findings == []

    def test_non_numeric_or_is_clean(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            def f(name: str | None = None):
                return name or "anonymous"
            """,
            [FalsyZeroRule()],
        )
        assert findings == []


class TestFloatEq:
    def test_flags_float_literal_comparison(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            def f(x):
                return x == 1.5
            """,
            [FloatEqRule()],
        )
        assert [f.rule for f in findings] == ["float-eq"]

    def test_flags_float_annotated_name(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            def f(a: float, b: float):
                return a != b
            """,
            [FloatEqRule()],
        )
        assert len(findings) == 1

    def test_int_comparison_and_isclose_are_clean(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            import math

            def f(a: float, b: float, n: int):
                return n == 3 and math.isclose(a, b)
            """,
            [FloatEqRule()],
        )
        assert findings == []

    def test_lambda_bodies_are_checked(self, tmp_path):
        findings = check_source(
            tmp_path,
            "key = lambda x: x == 0.5\n",
            [FloatEqRule()],
        )
        assert len(findings) == 1


class TestValidateBeforePersist:
    RULES = [ValidateBeforePersistRule()]

    def test_flags_write_before_validation(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            def register(self, app_id, meta):
                self.store.register_app(app_id, meta)
                _validate_tuner(meta["tuner"])
            """,
            self.RULES,
            name="service/registry.py",
        )
        assert [f.rule for f in findings] == ["validate-before-persist"]

    def test_write_after_validation_is_clean(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            def register(self, app_id, meta):
                _validate_tuner(meta["tuner"])
                self.store.register_app(app_id, meta)
            """,
            self.RULES,
            name="service/registry.py",
        )
        assert findings == []

    def test_only_applies_to_service_paths(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            def register(self, app_id, meta):
                self.store.register_app(app_id, meta)
                _validate_tuner(meta["tuner"])
            """,
            self.RULES,
            name="core/other.py",
        )
        assert findings == []

    def test_repo_registry_register_validates_first(self):
        result = run_check(
            [str(REPO_ROOT / "src" / "repro" / "service" / "registry.py")],
            rules=[ValidateBeforePersistRule()],
            root=REPO_ROOT,
        )
        assert result.findings == []


RACE_FIXTURE = """
import threading


class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self.hits = 0  # guarded-by: _lock

    def record(self):
        # Seeded race: unsynchronized read-modify-write of guarded state.
        self.hits += 1

    def snapshot(self):
        with self._lock:
            return self.hits
"""


class TestLockDiscipline:
    RULES = [LockDisciplineRule()]

    def test_flags_seeded_race_fixture(self, tmp_path):
        findings = check_source(tmp_path, RACE_FIXTURE, self.RULES)
        assert len(findings) == 1
        assert findings[0].rule == "lock-discipline"
        assert "hits" in findings[0].message
        assert "record" in findings[0].message

    def test_locked_access_and_locked_suffix_are_clean(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            import threading


            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.hits = 0  # guarded-by: _lock

                def record(self):
                    with self._lock:
                        self._bump_locked()

                def _bump_locked(self):
                    self.hits += 1
            """,
            self.RULES,
        )
        assert findings == []

    def test_condition_alias_guard(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            import threading


            class Q:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._cond = threading.Condition(self._lock)
                    self.items = []  # guarded-by: _lock, _cond

                def put(self, item):
                    with self._cond:
                        self.items.append(item)
                        self._cond.notify()
            """,
            self.RULES,
        )
        assert findings == []

    def test_subscripted_guard_table(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            import threading


            class Shards:
                def __init__(self, n):
                    self._locks = [threading.Lock() for _ in range(n)]
                    self.counts = [0] * n  # guarded-by: _locks

                def bump(self, shard):
                    with self._locks[shard]:
                        self.counts[shard] += 1
            """,
            self.RULES,
        )
        assert findings == []

    def test_closure_guarded_variable(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            import threading


            def run(jobs):
                lock = threading.Lock()
                cursor = 0  # guarded-by: lock

                def good():
                    nonlocal cursor
                    with lock:
                        cursor += 1

                def bad():
                    nonlocal cursor
                    cursor += 1

                return good, bad
            """,
            self.RULES,
        )
        assert len(findings) == 1
        assert "bad" in findings[0].message

    def test_outer_with_does_not_protect_closure(self, tmp_path):
        # A `with` in the declaring function is NOT held when the
        # closure later runs on another thread.
        findings = check_source(
            tmp_path,
            """
            import threading


            def run():
                lock = threading.Lock()
                cursor = 0  # guarded-by: lock

                with lock:
                    def worker():
                        nonlocal cursor
                        cursor += 1

                return worker
            """,
            self.RULES,
        )
        assert len(findings) == 1


class TestSuppressions:
    def test_same_line_allow(self, tmp_path):
        findings = check_source(
            tmp_path,
            "x = 1.0 == 1.0  # repro: allow[float-eq]\n",
            [FloatEqRule()],
        )
        assert findings == []

    def test_standalone_comment_covers_next_line(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            # repro: allow[float-eq]
            x = 1.0 == 1.0
            """,
            [FloatEqRule()],
        )
        assert findings == []

    def test_allow_for_other_rule_does_not_suppress(self, tmp_path):
        findings = check_source(
            tmp_path,
            "x = 1.0 == 1.0  # repro: allow[hash-iteration]\n",
            [FloatEqRule()],
        )
        assert len(findings) == 1

    def test_code_line_above_does_not_suppress(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            y = 2  # repro: allow[float-eq]
            x = 1.0 == 1.0
            """,
            [FloatEqRule()],
        )
        assert len(findings) == 1


class TestEngine:
    def test_duplicate_rule_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            AnalysisEngine([FloatEqRule(), FloatEqRule()])

    def test_syntax_error_is_a_finding(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def f(:\n")
        result = run_check([str(path)], rules=[FloatEqRule()], root=tmp_path)
        assert [f.rule for f in result.findings] == ["syntax-error"]

    def test_findings_are_not_duplicated_across_scopes(self, tmp_path):
        # Nested functions must not be revisited once per enclosing
        # scope (the naive ast.walk pitfall).
        findings = check_source(
            tmp_path,
            """
            def outer():
                def inner():
                    return 1.0 == 1.0
                return inner
            """,
            [FloatEqRule()],
        )
        assert len(findings) == 1

    def test_default_rules_cover_the_catalog(self):
        ids = {rule.rule_id for rule in default_rules()}
        assert ids == {
            "rng-discipline",
            "hash-iteration",
            "falsy-zero",
            "float-eq",
            "validate-before-persist",
            "lock-discipline",
        }


class TestCLI:
    def _run(self, *argv, cwd=REPO_ROOT):
        env_src = str(REPO_ROOT / "src")
        return subprocess.run(
            [sys.executable, "-m", "repro", "check", *argv],
            capture_output=True,
            text=True,
            cwd=cwd,
            env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"},
        )

    def test_self_check_is_clean(self):
        # No baseline exists: an inline allow comment is the only way a
        # finding is accepted.
        assert not (REPO_ROOT / "analysis-baseline.json").exists()
        proc = self._run("src/", "tests/", "benchmarks/")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 finding(s)" in proc.stdout

    def test_json_schema_is_stable(self, tmp_path):
        proc = self._run("src/repro", "--json")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        report = json.loads(proc.stdout)
        assert set(report) == {"version", "files", "findings", "exit_code"}
        assert report["version"] == 1
        assert report["exit_code"] == 0
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n")
        report = json.loads(self._run(str(bad), "--json").stdout)
        assert report["exit_code"] == 1
        for entry in report["findings"]:
            assert set(entry) == {"rule", "path", "line", "col", "message"}

    def test_new_finding_fails_with_exit_1(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n")
        proc = self._run(str(bad))
        assert proc.returncode == 1
        assert "rng-discipline" in proc.stdout

    def test_usage_error_exits_2(self, tmp_path):
        notes = tmp_path / "notes.txt"
        notes.write_text("not python\n")
        assert self._run(str(notes)).returncode == 2
        for retired in ("--baseline=x.json", "--no-baseline", "--update-baseline"):
            assert self._run("src/repro", retired).returncode == 2, retired

    def test_list_rules(self):
        proc = self._run("--list-rules")
        assert proc.returncode == 0
        for rule in default_rules():
            assert rule.rule_id in proc.stdout
