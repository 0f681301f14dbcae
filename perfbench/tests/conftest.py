"""Test set-up for ``pytest perfbench/tests`` (not part of the tier-1 suite)."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import workloads  # noqa: E402

TINY = {
    "EXPLORE": {"rows": 600, "queries": 40},
    "INDEPENDENT_WARM": {"rows": 500, "cache_capacity": 8, "preload_queries": 16, "queries": 30},
    "COLD_SCAN": {"rows": 500, "queries": 20},
    "SHARDED_TENANTS": {"rows": 2_000, "queries": 60},
    "DYNAMIC_MIXED": {
        "rows": 300,
        "cache_capacity": 6,
        "queries": 30,
        "insert_batches": 12,
        "delete_batches": 12,
        "checkpoint_every": 5,
    },
}


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload so a pass takes milliseconds."""
    for table, sizes in TINY.items():
        for key, value in sizes.items():
            monkeypatch.setitem(getattr(workloads, table), key, value)
    return workloads.WORKLOADS
