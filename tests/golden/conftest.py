"""Fixtures for the golden-trace suite."""

from pathlib import Path

import pytest

#: Where the checked-in golden traces live (one JSON file per scenario).
TRACE_DIR = Path(__file__).resolve().parent / "traces"

#: Per-scenario work counts with coalescing on (one row per scenario).
COSTS_PATH = Path(__file__).resolve().parent / "costs.json"


@pytest.fixture
def trace_dir() -> Path:
    """The checked-in golden-trace directory."""
    return TRACE_DIR


@pytest.fixture
def costs_path() -> Path:
    """The checked-in work-count file (``{scenario: {physical, logical}}``)."""
    return COSTS_PATH
