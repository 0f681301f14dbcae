"""Chaos soak: prove availability and correctness under storage faults.

The resilience layer's acceptance test (ISSUE PR 4): a mixed workload over
a :class:`~repro.storage.faults.FaultyDiskTable` must complete with

- zero unhandled exceptions,
- every non-stale answer bit-identical to the reference skyline computed
  directly over the dataset (the ``ampr`` and ``bounding`` ladder rungs are
  degraded but still exact, so they are checked too),
- at least ``min_exact_fraction`` of queries answered above the stale-serve
  rung, and
- circuit-breaker open/half-open/closed transitions observable in the
  exported metrics (exercised by a forced-outage drill after the main
  phase, excluded from the availability accounting).

Everything is seeded: dataset, workload, and fault schedule, so a soak is
replayable bit-for-bit.  Run it via ``python -m repro.bench --chaos N
--faults PROFILE`` or directly::

    from repro.bench.chaos import run_chaos_soak
    report = run_chaos_soak(n_queries=200, profile="default", seed=0)
    print(report.render_text())
    assert report.passed
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.bench.harness import scaled
from repro.core.cbcs import RUNG_STALE, RUNG_UNAVAILABLE, CBCS
from repro.data.generator import independent
from repro.skyline.reference import constrained_reference, same_multiset
from repro.storage.faults import FaultInjector, FaultyDiskTable, get_profile
from repro.storage.table import DiskTable
from repro.workload.generator import WorkloadGenerator

#: Rungs whose answers may legitimately differ from the reference.
_STALE_RUNGS = (RUNG_STALE, RUNG_UNAVAILABLE)


@dataclass
class ChaosReport:
    """Everything the soak measured, plus the pass/fail verdict inputs."""

    profile: str
    seed: int
    n_queries: int
    unhandled_exceptions: int = 0
    incorrect_answers: int = 0
    exact_answers: int = 0
    stale_serves: int = 0
    retries: int = 0
    rungs: Dict[str, int] = field(default_factory=dict)
    fault_counts: Dict[str, int] = field(default_factory=dict)
    breaker_states_seen: List[str] = field(default_factory=list)
    drill_queries: int = 0
    errors: List[str] = field(default_factory=list)
    min_exact_fraction: float = 0.99

    @property
    def exact_fraction(self) -> float:
        """Fraction of main-phase queries answered above the stale rung."""
        if not self.n_queries:
            return 1.0
        return (self.n_queries - self.stale_serves) / self.n_queries

    @property
    def breaker_cycled(self) -> bool:
        """Did the breaker visit open, half-open, and closed states?"""
        return {"open", "half_open", "closed"} <= set(self.breaker_states_seen)

    @property
    def passed(self) -> bool:
        return (
            self.unhandled_exceptions == 0
            and self.incorrect_answers == 0
            and self.exact_fraction >= self.min_exact_fraction
            and (self.drill_queries == 0 or self.breaker_cycled)
        )

    def as_dict(self) -> dict:
        return {
            "profile": self.profile,
            "seed": self.seed,
            "n_queries": self.n_queries,
            "unhandled_exceptions": self.unhandled_exceptions,
            "incorrect_answers": self.incorrect_answers,
            "exact_answers": self.exact_answers,
            "stale_serves": self.stale_serves,
            "exact_fraction": self.exact_fraction,
            "min_exact_fraction": self.min_exact_fraction,
            "retries": self.retries,
            "rungs": dict(self.rungs),
            "fault_counts": dict(self.fault_counts),
            "breaker_states_seen": list(self.breaker_states_seen),
            "breaker_cycled": self.breaker_cycled,
            "drill_queries": self.drill_queries,
            "errors": list(self.errors),
            "passed": self.passed,
        }

    def render_text(self) -> str:
        lines = [
            f"# chaos soak (profile={self.profile}, seed={self.seed}, "
            f"{self.n_queries} queries)",
            f"unhandled exceptions : {self.unhandled_exceptions}",
            f"incorrect answers    : {self.incorrect_answers}",
            f"exact answers        : {self.exact_answers}",
            f"stale serves         : {self.stale_serves} "
            f"(exact fraction {self.exact_fraction:.1%}, "
            f"floor {self.min_exact_fraction:.0%})",
            f"retries              : {self.retries}",
            f"degraded rungs       : {self.rungs or '{}'}",
            f"faults injected      : {self.fault_counts}",
        ]
        if self.drill_queries:
            lines.append(
                f"breaker drill        : {self.drill_queries} queries, "
                f"states seen {sorted(set(self.breaker_states_seen))} "
                f"({'full cycle' if self.breaker_cycled else 'INCOMPLETE'})"
            )
        for err in self.errors:
            lines.append(f"error: {err}")
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)


def run_chaos_soak(
    n_queries: int = 200,
    profile: str = "default",
    seed: int = 0,
    n_points: Optional[int] = None,
    ndim: int = 4,
    obs=None,
    breaker_drill: bool = True,
    min_exact_fraction: float = 0.99,
) -> ChaosReport:
    """Run the chaos soak and return its :class:`ChaosReport`.

    The main phase runs ``n_queries`` mixed queries (exploratory refinement
    chains plus independent queries) against a resilient CBCS over a
    fault-injecting table, checking every answer above the stale rung
    bit-for-bit against the reference skyline.  The drill phase then forces
    a storage outage long enough to open the circuit breaker, keeps querying
    through cooldown and half-open probing, and verifies the breaker closes
    again -- so all three states show up in the metrics registry.
    """
    fault_profile = get_profile(profile)
    if n_points is None:
        n_points = scaled(2_000, 10_000, 50_000)
    data = independent(n_points, ndim, seed=seed)
    metrics = obs.metrics if obs is not None and obs.enabled else None
    injector = FaultInjector(profile=fault_profile, seed=seed, metrics=metrics)
    table = FaultyDiskTable(DiskTable(data), injector)
    engine = CBCS(table, obs=obs, resilience=True)
    breaker = engine.resilience.breaker

    gen = WorkloadGenerator(data, seed=seed)
    n_exploratory = n_queries // 2
    queries = list(gen.exploratory_stream(n_exploratory))
    queries += list(gen.independent_queries(n_queries - n_exploratory))

    report = ChaosReport(
        profile=fault_profile.name,
        seed=seed,
        n_queries=len(queries),
        min_exact_fraction=min_exact_fraction,
    )
    for i, constraints in enumerate(queries):
        try:
            outcome = engine.query(constraints)
        except Exception as exc:  # the whole point: this must never happen
            report.unhandled_exceptions += 1
            report.errors.append(f"query {i}: {type(exc).__name__}: {exc}")
            continue
        report.retries += outcome.retries
        if outcome.degraded is not None:
            report.rungs[outcome.degraded] = (
                report.rungs.get(outcome.degraded, 0) + 1
            )
        if outcome.degraded in _STALE_RUNGS:
            report.stale_serves += 1
            continue
        reference = constrained_reference(data, constraints)
        if same_multiset(np.asarray(outcome.skyline), reference):
            report.exact_answers += 1
        else:
            report.incorrect_answers += 1
            report.errors.append(
                f"query {i}: non-stale answer differs from reference "
                f"({len(outcome.skyline)} vs {len(reference)} points, "
                f"rung={outcome.degraded})"
            )
    report.fault_counts = injector.fault_counts()

    if breaker_drill:
        report.breaker_states_seen.append(breaker.state)
        drill = iter(
            WorkloadGenerator(data, seed=seed + 1).independent_queries(40)
        )

        def drill_query():
            constraints = next(drill)
            try:
                engine.query(constraints)
            except Exception as exc:
                report.unhandled_exceptions += 1
                report.errors.append(
                    f"drill query {report.drill_queries}: "
                    f"{type(exc).__name__}: {exc}"
                )
            report.drill_queries += 1
            report.breaker_states_seen.append(breaker.state)

        # Phase 1: total outage until the breaker trips open.  Rejections in
        # the open state never reach storage, so the outage budget only pays
        # for admitted attempts; a generous budget keeps probes failing too.
        injector.force_outage(10_000)
        for _ in range(20):
            if breaker.state == "open":
                break
            drill_query()
        # Phase 2: storage recovers; keep querying through cooldown and the
        # half-open probes until the breaker closes again.
        injector.clear_outage()
        for _ in range(20):
            if breaker.state == "closed":
                break
            drill_query()
        for transition in breaker.transitions:
            if transition.to_state not in report.breaker_states_seen:
                report.breaker_states_seen.append(transition.to_state)
        if not report.breaker_cycled:
            report.errors.append(
                "breaker drill did not cycle through open/half_open/closed: "
                f"saw {sorted(set(report.breaker_states_seen))}"
            )
    return report
