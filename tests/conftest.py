"""Shared fixtures for the test suite."""

from __future__ import annotations

import concurrent.futures

import pytest

from repro.graph.workload import autoregressive, encoder, prompt
from repro.hw.presets import siracusa_platform
from repro.models import mobilebert, tinyllama_42m, tinyllama_scaled


@pytest.fixture(autouse=True)
def _isolated_persistent_cache(tmp_path, monkeypatch):
    """Keep the persistent evaluation cache hermetic per test.

    CLI sessions persist evaluations under ``~/.cache/repro`` by
    default; tests must neither read a developer's warm cache (which
    would mask engine regressions) nor pollute it, so every test gets a
    throwaway cache directory.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)


@pytest.fixture
def tinyllama():
    """The TinyLlama-42M configuration used throughout the paper."""
    return tinyllama_42m()


@pytest.fixture
def tinyllama_64h():
    """The scaled-up (64-head) TinyLlama of the scalability study."""
    return tinyllama_scaled()


@pytest.fixture
def mobilebert_config():
    """The MobileBERT encoder configuration."""
    return mobilebert()


@pytest.fixture
def autoregressive_workload(tinyllama):
    """TinyLlama autoregressive workload (S=128), the paper's main workload."""
    return autoregressive(tinyllama, 128)


@pytest.fixture
def prompt_workload(tinyllama):
    """TinyLlama prompt workload (S=16)."""
    return prompt(tinyllama, 16)


@pytest.fixture
def encoder_workload(mobilebert_config):
    """MobileBERT encoder workload (S=268)."""
    return encoder(mobilebert_config, 268)


@pytest.fixture
def single_chip_platform():
    """A single Siracusa chip."""
    return siracusa_platform(1)


@pytest.fixture
def eight_chip_platform():
    """The paper's 8-chip Siracusa system."""
    return siracusa_platform(8)


@pytest.fixture
def four_chip_platform():
    """A 4-chip Siracusa system (MobileBERT's operating point)."""
    return siracusa_platform(4)


@pytest.fixture
def pools(monkeypatch):
    """The keyword arguments of every process pool started meanwhile."""
    started = []
    real = concurrent.futures.ProcessPoolExecutor

    def recording(*args, **kwargs):
        started.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording)
    return started
