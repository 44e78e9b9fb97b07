"""Timing discipline for concurrency tests.

``wait_until`` polls a condition against a deadline instead of sleeping
a wall-clock guess (the classic flake source on loaded CI machines).

A plain module (not ``conftest.py``) so test files can import it by name
without colliding with the benchmarks directory's conftest on sys.path
in a full-repo run.
"""

import time


def wait_until(predicate, timeout=5.0, interval=0.005, message=None):
    """Poll ``predicate`` until truthy or the deadline passes.

    Returns the predicate's (truthy) value.  Replaces the
    sleep-then-assert pattern: the test proceeds the moment the
    condition holds (fast machines stay fast) and only a genuinely hung
    condition burns the full timeout before failing loudly.
    """
    deadline = time.monotonic() + timeout
    while True:
        value = predicate()
        if value:
            return value
        if time.monotonic() >= deadline:
            raise AssertionError(
                message or f"condition not met within {timeout}s: {predicate}"
            )
        time.sleep(interval)

