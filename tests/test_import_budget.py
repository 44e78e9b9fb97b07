"""Import budget: a cold ``repro tune`` loads only what it calls.

Start-up is a large share of a short tuning session, so ``import
repro.cli`` and the benchmark's cold-session set-up (perfbench's
``COLD_SETUP_CODE``: import the tuner, build simulator, plan and tuner)
must not load scipy's ``linalg`` / ``special`` packages and the
array-API layer behind them, the baseline tuners, the figure-16 models,
or the replay race and transfer machinery.  Each check runs in a fresh
interpreter and reads ``sys.modules``.

The file also runs as a script, against whichever ``repro`` the
interpreter imports (an installed wheel in CI's plain-install step):
``python tests/test_import_budget.py``.  It needs no pytest.
"""

import ast
import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]
#: The directory holding the ``repro`` under test.
PACKAGE_PARENT = Path(repro.__file__).resolve().parents[1]

FORBIDDEN = (
    "scipy.linalg",
    "scipy.special",
    "scipy._lib._array_api",
    "numpy.f2py",
    "repro.baselines",
    "repro.harness.experiment",
    "repro.ml.gbrt",
    "repro.ml.svr",
    "repro.replay.racing",
    "repro.transfer.donor",
)


def cold_setup_code() -> str:
    """perfbench's ``COLD_SETUP_CODE``, read from its source."""
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "COLD_SETUP_CODE" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError("COLD_SETUP_CODE not found in perfbench/workloads.py")


def forbidden_loaded(statement: str, *argv: str) -> list[str]:
    """The forbidden modules a fresh interpreter holds after ``statement``."""
    probe = f"{statement}; import sys; print(*(m for m in {FORBIDDEN!r} if m in sys.modules))"
    result = subprocess.run(
        [sys.executable, "-c", probe, *argv], check=True, capture_output=True, text=True
    )
    return result.stdout.split()


def test_cli_import_stays_in_budget():
    statement = "import sys; sys.path.insert(0, sys.argv[1]); import repro.cli"
    loaded = forbidden_loaded(statement, str(PACKAGE_PARENT))
    assert not loaded, f"import repro.cli loaded {loaded}"


def test_cold_session_setup_stays_in_budget():
    loaded = forbidden_loaded(cold_setup_code(), str(PACKAGE_PARENT), "x86", "tpcds")
    assert not loaded, f"the cold-session set-up loaded {loaded}"


if __name__ == "__main__":
    test_cli_import_stays_in_budget()
    test_cold_session_setup_stays_in_budget()
    print(f"import budget holds for {PACKAGE_PARENT / 'repro'}")
