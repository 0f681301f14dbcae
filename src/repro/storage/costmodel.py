"""Simulated disk latency model.

The paper's running times are dominated by disk I/O: the authors attribute
CBCS's advantage to "the reduced reads from disk, which reduces both fetching
and skyline computation" and observe that "random access [is] more time
consuming" when many range queries are issued (Section 7.3.3).  Since this
reproduction runs in memory, a cost model assigns a simulated latency to
every fetch so those effects stay visible:

- each *contiguous run* of heap pages costs one seek (``seek_ms``), so many
  small scattered range queries pay more than one big scan, and
- each page read costs ``page_read_ms``.

Defaults are calibrated so that the Baseline method on one million
independent 5-D points (reading on the order of 10^5 points, as in the
paper's Figure 8a) lands near the paper's ≈1 s per query: ≈10^3 pages of 128
points at 0.5 ms plus a few dozen seeks at 5 ms.  Absolute values only scale
the y-axis; the comparisons between methods depend on ratios, not on the
constants themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DiskCostModel:
    """Latency constants for the simulated disk.

    ``clustered`` selects how heap fetches are charged.  When True (default),
    the heap is assumed clustered in index order (PostgreSQL ``CLUSTER``-style
    or an OS read-ahead regime): one range query reads one contiguous run of
    ``ceil(rows / page_size)`` pages and pays a single seek.  Fetch latency is
    then proportional to the points read plus one random access per range
    query -- exactly the trade-off the paper's MPR/aMPR comparison hinges on
    (few points + many queries versus more points + few queries).  When
    False, fetches are charged by the physical pages and contiguous page runs
    actually touched in the (insertion-ordered) heap.
    """

    seek_ms: float = 5.0
    page_read_ms: float = 0.5
    page_size: int = 128
    clustered: bool = True

    def __post_init__(self) -> None:
        if self.page_size < 1:
            raise ValueError("page_size must be positive")
        if self.seek_ms < 0 or self.page_read_ms < 0:
            raise ValueError("latencies must be non-negative")

    def fetch_cost_ms(self, n_seeks: int, n_pages: int) -> float:
        """Return the simulated latency of reading ``n_pages`` pages in
        ``n_seeks`` contiguous runs."""
        return n_seeks * self.seek_ms + n_pages * self.page_read_ms

    def sequential_scan_cost_ms(self, n_pages: int) -> float:
        """Return the simulated latency of one sequential full scan."""
        if n_pages == 0:
            return 0.0
        return self.fetch_cost_ms(1, n_pages)

    def fetch_shape(self, rows, heap_pages=None):
        """Forecast ``(pages, seeks)`` of one range query per entry of ``rows``.

        ``rows`` is an array of estimated row counts, fractional ones
        included -- any positive estimate costs at least one page behind one
        seek, zero costs nothing -- and ``heap_pages`` broadcasts against it.
        :class:`~repro.storage.table.Forecast` prices plan boxes with it.

        Clustered heaps read one contiguous run: ``ceil(rows / page_size)``
        pages behind a single seek -- exactly what :meth:`DiskTable
        ._charge_fetch` will charge, so clustered predictions differ from
        actuals only through the row-count estimate itself.

        Unclustered heaps scatter the rows over ``heap_pages`` physical
        pages; the expected number of *distinct* pages touched follows the
        Yao/Cardenas approximation ``P * (1 - (1 - 1/P)^n)``, and the
        expected number of contiguous runs (seeks) among ``k`` uniformly
        chosen pages out of ``P`` is ``k * (P - k + 1) / P``.  Without a
        ``heap_pages`` hint the unclustered forecast degrades to the
        pessimistic one-page-per-row bound.
        """
        rows = np.asarray(rows, dtype=float)
        some = rows > 0
        if self.clustered:
            # no row, no page: ceil(0) needs no masking
            pages = np.ceil(rows / self.page_size)
            return pages.astype(np.int64), some.astype(np.int64)
        if heap_pages is None or np.any(np.asarray(heap_pages) < 1):
            # No heap-size hint: pessimistic scatter, one page per row.
            pages = seeks = np.ceil(rows)
        else:
            pool = np.asarray(heap_pages, dtype=float)
            expected = pool * (1.0 - (1.0 - 1.0 / pool) ** rows)
            pages = np.maximum(
                1, np.minimum(np.minimum(pool, np.ceil(rows)), np.ceil(expected))
            )
            runs = pages * (pool - pages + 1) / pool
            seeks = np.maximum(1, np.minimum(pages, np.ceil(runs)))
        return (
            np.where(some, pages, 0).astype(np.int64),
            np.where(some, seeks, 0).astype(np.int64),
        )
