"""Pytest bootstrap: make ``repro`` importable and wire the test tiers.

The package is normally installed with ``pip install -e .``; the sys.path
fallback keeps the test and benchmark suites runnable in offline environments
where an editable install is not possible.

Markers
-------
``tier1``
    The fast regression tier (everything under ``tests/``); this is the suite
    a PR must keep green.  Run it alone with ``pytest -m tier1``.
``golden``
    Golden-trace regression tests (``tests/golden/``): every registered
    scenario's fingerprint must match its checked-in trace byte for byte.
    Regenerate traces and cost rows deliberately with ``make golden-update``.
``slow``
    The heavyweight tail (large-cluster scenarios, scale sweeps).  Skip it
    during tight edit loops with ``pytest -m "not slow"``.
"""

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent / "src"
if str(_SRC) not in sys.path:
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(_SRC))

import pytest  # noqa: E402


@pytest.fixture(autouse=True, scope="session")
def _isolated_result_store(tmp_path_factory):
    """Point the orchestrator's result store at a per-session temp directory.

    Orchestrated sweeps cache fingerprints under ``REPRO_CACHE_DIR`` (default:
    ``.repro-cache/`` at the repo root); tests must neither read developer
    caches nor litter the tree, so the whole session — including the pool
    worker processes, which inherit the environment — uses a throwaway store.
    Tests that exercise cache semantics pass an explicit store path instead.
    """
    import os

    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("repro-cache"))
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "tier1: fast regression tier; must stay green on every PR")
    config.addinivalue_line(
        "markers", "golden: golden-trace regression tests over the scenario registry")
    config.addinivalue_line(
        "markers", "slow: heavyweight tests (large clusters, scale sweeps)")


def pytest_collection_modifyitems(config, items):
    """Attach tier markers by location so the tiers need no per-file boilerplate."""
    tests_root = Path(__file__).resolve().parent / "tests"
    golden_root = tests_root / "golden"
    for item in items:
        path = Path(str(item.fspath))
        if golden_root in path.parents:
            item.add_marker(pytest.mark.golden)
        if tests_root in path.parents:
            item.add_marker(pytest.mark.tier1)
