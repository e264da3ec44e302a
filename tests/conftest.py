"""Shared fixtures: small clusters, profilers and graphs, cached per session."""

from __future__ import annotations

import pytest

from repro.cluster.profiler import FabricProfiler
from repro.cluster.topology import v100_cluster
from repro.graph.models import OPT_175B, OPT_6_7B
from repro.graph.transformer import build_block_graph, build_mlp_graph


@pytest.fixture(scope="session", autouse=True)
def _hermetic_cache(tmp_path_factory):
    """Point the persistent search cache at a per-session temp directory.

    Tests must neither read a developer's warm cache nor pollute it.
    """
    import os

    directory = tmp_path_factory.mktemp("primepar-cache")
    saved = os.environ.get("PRIMEPAR_CACHE_DIR")
    os.environ["PRIMEPAR_CACHE_DIR"] = str(directory)
    yield directory
    if saved is None:
        os.environ.pop("PRIMEPAR_CACHE_DIR", None)
    else:
        os.environ["PRIMEPAR_CACHE_DIR"] = saved


@pytest.fixture
def no_disk_cache(monkeypatch):
    """Switch the disk cache off (``PRIMEPAR_CACHE=0``) for one test, so
    every replay simulates instead of answering from a stored report."""
    monkeypatch.setenv("PRIMEPAR_CACHE", "0")


@pytest.fixture(autouse=True)
def _restore_repro_logger():
    """Undo ``repro.obs.configure_logging`` side effects after each test.

    The CLI sets ``propagate=False`` on the ``repro`` logger; left in
    place, that would blind ``caplog`` (which captures at the root
    logger) for every test that runs afterwards.
    """
    import logging

    logger = logging.getLogger("repro")
    saved = (logger.handlers[:], logger.propagate, logger.level)
    yield
    logger.handlers[:], logger.propagate, logger.level = saved


@pytest.fixture(scope="session")
def topo4():
    return v100_cluster(4)


@pytest.fixture(scope="session")
def topo8():
    return v100_cluster(8)


@pytest.fixture(scope="session")
def topo16():
    return v100_cluster(16)


@pytest.fixture(scope="session")
def profiler4(topo4):
    return FabricProfiler(topo4)


@pytest.fixture(scope="session")
def profiler8(topo8):
    return FabricProfiler(topo8)


@pytest.fixture(scope="session")
def profiler16(topo16):
    return FabricProfiler(topo16)


@pytest.fixture(scope="session")
def small_block():
    """One OPT-6.7B block at batch 8 — the default search workload."""
    return build_block_graph(OPT_6_7B.block_shape(batch=8))


@pytest.fixture(scope="session")
def large_block():
    """One OPT-175B block at batch 8."""
    return build_block_graph(OPT_175B.block_shape(batch=8))


@pytest.fixture(scope="session")
def small_mlp():
    return build_mlp_graph(OPT_6_7B.block_shape(batch=8))


@pytest.fixture(scope="session")
def large_mlp():
    return build_mlp_graph(OPT_175B.block_shape(batch=8))
