"""Benchmark application builders: TPC-DS, TPC-H, and HiBench SQL.

Each builder returns an :class:`~repro.sparksim.query.Application` whose
per-query stage profiles reproduce the latency structure the paper
reports (query mix, shuffle volumes, sensitive/insensitive split).
Applications are plan templates: data volumes are fractions of the input
datasize, so one application object serves every datasize.
"""

from repro.sparksim.query import Application
from repro.sparksim.workloads.hibench import (
    hibench_aggregation,
    hibench_join,
    hibench_scan,
)
from repro.sparksim.workloads.tpcds import tpcds_application
from repro.sparksim.workloads.tpch import tpch_application

_BUILDERS = {
    "tpcds": tpcds_application,
    "tpch": tpch_application,
    "join": hibench_join,
    "scan": hibench_scan,
    "aggregation": hibench_aggregation,
}

#: Display names used by the paper's figures, keyed by builder name.
DISPLAY_NAMES = {
    "tpcds": "TPC-DS",
    "tpch": "TPC-H",
    "join": "Join",
    "scan": "Scan",
    "aggregation": "Aggregation",
}

#: The five input data sizes of Table 1, in GB.
PAPER_DATASIZES_GB = (100.0, 200.0, 300.0, 400.0, 500.0)


def list_benchmarks() -> list[str]:
    """Names accepted by :func:`get_application`, in paper order."""
    return list(_BUILDERS)


#: The application of each builder name, built at its first request.
_APPLICATIONS: dict[str, Application] = {}


def get_application(name: str) -> Application:
    """The benchmark application of ``name`` (case-insensitive).

    Builders are pure and applications immutable, so every call with
    one name returns the same object, built once.
    """
    key = name.lower().replace("-", "").replace("_", "")
    app = _APPLICATIONS.get(key)
    if app is None:
        try:
            builder = _BUILDERS[key]
        except KeyError:
            raise ValueError(f"unknown benchmark {name!r}; choose from {list(_BUILDERS)}") from None
        app = _APPLICATIONS.setdefault(key, builder())
    return app


__all__ = [
    "DISPLAY_NAMES",
    "PAPER_DATASIZES_GB",
    "get_application",
    "hibench_aggregation",
    "hibench_join",
    "hibench_scan",
    "list_benchmarks",
    "tpcds_application",
    "tpch_application",
]
