"""The naive constrained-skyline plan of Börzsönyi et al. [3].

"The naive approach ... is to execute a range query to fetch points
satisfying the constraints, and then compute the skyline over those points
using an efficient skyline algorithm" (paper Section 1).  The paper's
Baseline uses SFS for the skyline stage, as do we.
"""

from __future__ import annotations

from repro.geometry.constraints import Constraints
from repro.obs import NULL_OBS
from repro.skyline.sfs import sfs_skyline
from repro.stats import QueryOutcome, Stopwatch
from repro.storage.table import DiskTable


class BaselineMethod:
    """The naive plan: fetch ``S_C`` with one range query and run SFS over
    it (the harness's Baseline)."""

    name = "Baseline"

    def __init__(self, table: DiskTable, obs=None):
        self.table = table
        self.obs = NULL_OBS if obs is None else obs

    def query(self, constraints: Constraints) -> QueryOutcome:
        """Answer one constrained skyline query."""
        obs = self.obs
        watch = Stopwatch(tracer=obs.tracer)
        with obs.tracer.span("baseline.query"):
            with watch.stage("fetch_wall"):
                result = self.table.range_query(constraints.lo, constraints.hi)
            with watch.stage("skyline"):
                skyline = result.points[sfs_skyline(result.points)]
        io = result.io_stats()  # this query's charges alone
        watch.timings.fetch_io_ms = io.simulated_io_ms
        outcome = QueryOutcome(
            skyline=skyline, method=self.name, timings=watch.timings, io=io
        )
        obs.record_outcome(outcome)
        return outcome
