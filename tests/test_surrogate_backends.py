"""The retired surrogate-backend setting stays rejected.

Every ``DatasizeAwareGP`` is the exact GP, so there is no backend to
choose: the retired ``backend`` / ``surrogate_backend`` keywords, tenant
key, service default and CLI flag are all rejected, the tenant key
before the store write (HTTP 400, no poisoned meta).
"""

import pytest

from repro.core.dagp import DatasizeAwareGP
from repro.core.tuner import BOLoop
from repro.service import HistoryStore, ServiceError, TuningClient, TuningRegistry, TuningService

#: Small LOCAT settings so tuning sessions stay cheap in tests.
TINY_TUNER = {"n_qcsa": 10, "n_iicp": 8, "max_iterations": 6, "min_iterations": 3, "n_mcmc": 0}


class TestDAGPBackends:
    def test_invalid_backend_rejected(self):
        # There is one surrogate, the exact GP: no backend to name.
        with pytest.raises(TypeError, match="backend"):
            DatasizeAwareGP(3, backend="exact")
        with pytest.raises(TypeError, match="surrogate_backend"):
            BOLoop(dim=2, surrogate_backend="exact")


class TestServiceBackendSetting:
    def test_invalid_backend_rejected_before_persisting(self, tmp_path):
        """Value (not just key) validation must run before the store
        write: a rejected registration that left its meta behind would
        crash every later rehydration of the whole service."""
        store = HistoryStore(tmp_path / "store")
        registry = TuningRegistry(store)
        for value in ("exact", "sparse", "turbo"):
            with pytest.raises(ValueError, match="unknown tuner settings.*surrogate_backend"):
                registry.register("bad", "scan", tuner={"surrogate_backend": value})
        assert "bad" not in registry
        assert not store.has_app("bad")
        # The store stays rehydratable.
        TuningRegistry(HistoryStore(tmp_path / "store"))

    def test_invalid_registry_default_rejected(self, tmp_path):
        # There is no service-wide backend default to set any more.
        with pytest.raises(TypeError, match="default_surrogate_backend"):
            TuningRegistry(HistoryStore(tmp_path / "store"), default_surrogate_backend="sparse")

    def test_http_400_before_store_write(self, tmp_path):
        """The HTTP layer mirror of the registry test: the retired
        tuner.surrogate_backend answers 400 and leaves no tenant meta,
        so a restart of the same store rehydrates cleanly."""
        store_dir = str(tmp_path / "store")
        with TuningService(store_dir, port=0, n_workers=1).start() as service:
            client = TuningClient(service.url)
            with pytest.raises(ServiceError) as excinfo:
                client.register_app(
                    "bad", "join", tuner={**TINY_TUNER, "surrogate_backend": "sparse"}
                )
            assert excinfo.value.status == 400
            assert "surrogate_backend" in str(excinfo.value)
            client.register_app("good", "join", tuner=TINY_TUNER)
            client.close()
        # The poisoned registration left nothing behind: a restart
        # rehydrates only the valid tenant.
        restarted = TuningService(store_dir, port=0, n_workers=1).start()
        try:
            assert restarted.registry.app_ids() == ["good"]
        finally:
            restarted.close()


class TestCLIBackendFlags:
    def test_unknown_backend_rejected(self):
        """Neither ``repro tune`` nor ``repro serve`` takes a backend."""
        from repro.cli import build_parser

        for command in ("tune", "serve"):
            for value in ("exact", "sparse", "auto"):
                with pytest.raises(SystemExit):
                    build_parser().parse_args([command, "--surrogate-backend", value])
