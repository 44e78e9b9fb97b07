"""Shared fixtures: simulators, applications, and sample configurations.

The timing helper for concurrency tests (``wait_until``) lives in
:mod:`timing_helpers` — a plain module so tests can import it without
tripping over the benchmarks conftest on sys.path.
"""

import numpy as np
import pytest

from repro.sparksim import (
    SparkSQLSimulator,
    arm_cluster,
    get_application,
    x86_cluster,
)
from repro.sparksim.configspace import ConfigSpace


@pytest.fixture(scope="session")
def arm():
    return arm_cluster()


@pytest.fixture(scope="session")
def x86():
    return x86_cluster()


@pytest.fixture()
def sim_x86(x86):
    return SparkSQLSimulator(x86)


@pytest.fixture()
def sim_arm(arm):
    return SparkSQLSimulator(arm)


@pytest.fixture()
def sim_x86_quiet(x86):
    """Noise-free simulator for deterministic assertions."""
    return SparkSQLSimulator(x86, noise=0.0)


@pytest.fixture(scope="session")
def tpcds():
    return get_application("tpcds")


@pytest.fixture(scope="session")
def tpch():
    return get_application("tpch")


@pytest.fixture(scope="session")
def join_app():
    return get_application("join")


@pytest.fixture(scope="session")
def scan_app():
    return get_application("scan")


@pytest.fixture()
def space_x86(x86):
    return ConfigSpace.for_cluster(x86)


@pytest.fixture()
def space_arm(arm):
    return ConfigSpace.for_cluster(arm)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
