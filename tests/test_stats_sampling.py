"""Tests for repro.stats.sampling."""

import numpy as np
import pytest

from repro.stats.sampling import ensure_rng


class TestEnsureRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_seed_is_reproducible(self):
        a = ensure_rng(42).random(5)
        b = ensure_rng(42).random(5)
        np.testing.assert_array_equal(a, b)

    def test_generator_passes_through(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    def test_numpy_integer_accepted(self):
        gen = ensure_rng(np.int64(7))
        assert isinstance(gen, np.random.Generator)

    def test_rejects_strings(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")

