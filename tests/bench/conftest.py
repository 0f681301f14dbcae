"""Shared fixtures for the bench tests."""

import dataclasses

import pytest

from repro.storage.table import DiskTable


@pytest.fixture
def lossy_table(monkeypatch):
    """Every ``DiskTable`` range query loses its first matching row -- the
    defect every soak must catch."""
    honest = DiskTable.range_query

    def drops_first_row(self, lo, hi):
        result = honest(self, lo, hi)
        return dataclasses.replace(
            result, points=result.points[1:], rowids=result.rowids[1:]
        )

    monkeypatch.setattr(DiskTable, "range_query", drops_first_row)
