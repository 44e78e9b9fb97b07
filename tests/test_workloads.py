"""Tests for the TPC-DS / TPC-H / HiBench workload builders."""

import pytest

from repro.sparksim.query import StageKind
from repro.sparksim.workloads import get_application, list_benchmarks
from repro.sparksim.workloads.tpcds import (
    CSQ_SHUFFLE_FRACTIONS,
    SELECTION_QUERIES,
    tpcds_application,
    tpcds_query_names,
)
from repro.sparksim.workloads.tpch import tpch_application


class TestTPCDS:
    def test_104_queries(self, tpcds):
        assert len(tpcds.queries) == 104

    def test_variant_names_present(self, tpcds):
        names = set(tpcds.query_names)
        for base in ("Q14", "Q23", "Q24", "Q39", "Q64"):
            assert f"{base}a" in names and f"{base}b" in names
            assert base not in names

    def test_q72_shuffles_52_percent(self, tpcds):
        # Section 5.11: Q72's shuffles process 52 GB of a 100 GB input.
        q72 = tpcds.query("Q72")
        assert q72.total_shuffle_fraction == pytest.approx(0.52, abs=0.01)

    def test_q08_shuffle_is_tiny(self, tpcds):
        # Section 5.11: Q08 shuffles only ~5 MB at 100 GB.
        q08 = tpcds.query("Q08")
        assert q08.total_shuffle_fraction * 100 * 1024 < 10  # under 10 MB

    def test_selection_queries_are_scans(self, tpcds):
        for name in SELECTION_QUERIES:
            query = tpcds.query(name)
            assert query.category == "selection"
            assert all(s.kind is StageKind.SCAN for s in query.stages)

    def test_csq_queries_shuffle_more_than_others(self, tpcds):
        csq_min = min(
            tpcds.query(n).total_shuffle_fraction for n in CSQ_SHUFFLE_FRACTIONS
        )
        other_max = max(
            q.total_shuffle_fraction
            for q in tpcds.queries
            if q.name not in CSQ_SHUFFLE_FRACTIONS
        )
        assert csq_min > other_max

    def test_deterministic_across_builds(self):
        a = tpcds_application()
        b = tpcds_application()
        assert a.queries == b.queries

    def test_query_name_generation(self):
        names = tpcds_query_names()
        assert len(names) == 104
        assert names[0] == "Q01"
        assert names[-1] == "Q99"


class TestTPCH:
    def test_22_queries(self, tpch):
        assert len(tpch.queries) == 22
        assert tpch.query_names[0] == "Q01"

    def test_deterministic(self):
        assert tpch_application().queries == tpch_application().queries

    def test_has_sensitive_and_light_queries(self, tpch):
        shuffles = [q.total_shuffle_fraction for q in tpch.queries]
        assert max(shuffles) > 0.2
        assert min(shuffles) < 0.05


class TestHiBench:
    def test_single_query_each(self):
        for name in ("join", "scan", "aggregation"):
            app = get_application(name)
            assert len(app.queries) == 1

    def test_scan_is_map_only(self, scan_app):
        query = scan_app.queries[0]
        assert query.category == "selection"
        assert query.total_shuffle_fraction == 0.0

    def test_join_has_large_shuffle(self, join_app):
        assert join_app.queries[0].total_shuffle_fraction >= 0.3


class TestRegistry:
    def test_lists_five_benchmarks(self):
        assert list_benchmarks() == ["tpcds", "tpch", "join", "scan", "aggregation"]

    def test_name_normalization(self):
        assert get_application("TPC-DS").name == "TPC-DS"
        assert get_application("tpc_h").name == "TPC-H"

    def test_unknown_benchmark(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            get_application("ycsb")

    def test_one_shared_application_per_name(self):
        for name in list_benchmarks():
            assert get_application(name) is get_application(name.upper())
        assert get_application("TPC-DS") is get_application("tpc_ds")
        assert get_application("tpch") is not get_application("tpcds")
