"""Constrained-skyline query workloads (paper Section 7.1).

"Existing constrained skyline work does not study sets of queries, but only
single queries.  We therefore construct a query generator mimicking
interactive search patterns":

- the **initial query** of a session places each dimension's lower and upper
  constraint "randomly between 0 and 3 standard deviations from the mean of
  dimension i, modeling that, for example, average-sized houses are most
  likely to be searched";
- each **refinement** picks a random dimension, picks increase/decrease of
  the lower/upper constraint at random, and moves that bound by 5-10% (of
  the constraint interval's current width, in our reading); a session issues
  1-10 refinements after its initial query.

Two workload shapes are produced, matching the paper's:

1. *Interactive exploratory search*: sessions of an initial query followed by
   its refinement chain (``exploratory_sessions`` /
   ``exploratory_stream``).
2. *Independent queries*: a stream of initial queries only
   (``independent_queries``), modelling unrelated users of a multi-user
   system.
"""

from __future__ import annotations

from typing import List, Union

import numpy as np

from repro.geometry.constraints import Constraints

Rng = Union[int, np.random.Generator, None]


class WorkloadGenerator:
    """Generates constraint queries shaped like the paper's workloads."""

    def __init__(
        self,
        data: np.ndarray,
        seed: Rng = None,
        min_width_fraction: float = 0.01,
    ):
        """``data`` supplies the per-dimension means/deviations and domain
        that anchor query placement; it is not otherwise consumed."""
        data = np.asarray(data, dtype=float)
        if data.ndim != 2 or len(data) == 0:
            raise ValueError("data must be a non-empty (n, d) array")
        self.mean = data.mean(axis=0)
        self.std = data.std(axis=0)
        self.domain_lo = data.min(axis=0)
        self.domain_hi = data.max(axis=0)
        self.ndim = data.shape[1]
        self.min_width = np.maximum(
            (self.domain_hi - self.domain_lo) * min_width_fraction, 1e-12
        )
        self._rng = (
            seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        )

    # ------------------------------------------------------------------
    # Single queries
    # ------------------------------------------------------------------
    def initial_query(self) -> Constraints:
        """Return a fresh query with bounds within 0-3 sigma of each mean."""
        rng = self._rng
        lo = np.empty(self.ndim)
        hi = np.empty(self.ndim)
        for i in range(self.ndim):
            if self.domain_hi[i] - self.domain_lo[i] <= 0 or self.std[i] <= 0:
                # Degenerate/constant dimension: the only sensible
                # constraint is the whole (single-point) domain.
                lo[i], hi[i] = self.domain_lo[i], self.domain_hi[i]
                continue
            while True:
                offsets = rng.uniform(0.0, 3.0 * self.std[i], size=2)
                offsets *= rng.choice([-1.0, 1.0], size=2)
                a, b = np.sort(self.mean[i] + offsets)
                a = float(np.clip(a, self.domain_lo[i], self.domain_hi[i]))
                b = float(np.clip(b, self.domain_lo[i], self.domain_hi[i]))
                if b - a >= self.min_width[i]:
                    lo[i], hi[i] = a, b
                    break
        return Constraints(lo, hi)

    def refine(self, query: Constraints) -> Constraints:
        """Return one incremental change of ``query``: 5-10% movement of a
        random bound of a random dimension."""
        rng = self._rng
        dim = int(rng.integers(self.ndim))
        width = float(query.hi[dim] - query.lo[dim])
        step = float(rng.uniform(0.05, 0.10)) * max(width, self.min_width[dim])
        move_lower = bool(rng.random() < 0.5)
        increase = bool(rng.random() < 0.5)
        delta = step if increase else -step
        if move_lower:
            new_lo = float(
                np.clip(
                    query.lo[dim] + delta,
                    self.domain_lo[dim],
                    query.hi[dim] - self.min_width[dim],
                )
            )
            return query.with_bound(dim, lower=min(new_lo, float(query.hi[dim])))
        new_hi = float(
            np.clip(
                query.hi[dim] + delta,
                query.lo[dim] + self.min_width[dim],
                self.domain_hi[dim],
            )
        )
        return query.with_bound(dim, upper=max(new_hi, float(query.lo[dim])))

    # ------------------------------------------------------------------
    # Workloads
    # ------------------------------------------------------------------
    def session(self) -> List[Constraints]:
        """Return one exploratory session: an initial query plus 1-10
        refinements, each derived from the previous query."""
        queries = [self.initial_query()]
        for _ in range(int(self._rng.integers(1, 11))):
            queries.append(self.refine(queries[-1]))
        return queries

    def exploratory_stream(self, n_queries: int) -> List[Constraints]:
        """Return ``n_queries`` queries from back-to-back sessions."""
        out: List[Constraints] = []
        while len(out) < n_queries:
            out.extend(self.session())
        return out[:n_queries]

    def exploratory_sessions(
        self, n_sessions: int, queries_per_session: int
    ) -> List[List[Constraints]]:
        """Return ``n_sessions`` independent streams of the given length --
        the paper's "5 independent sets of 100 queries" (Section 7.1)."""
        return [
            self.exploratory_stream(queries_per_session) for _ in range(n_sessions)
        ]

    def independent_queries(self, n: int) -> List[Constraints]:
        """Return ``n`` unrelated initial queries (multi-user workload)."""
        return [self.initial_query() for _ in range(n)]

    def zipf_stream(
        self,
        n: int,
        universe: int = 50,
        alpha: float = 1.1,
        shrink_fraction: float = 0.3,
        max_shrink: float = 0.2,
    ) -> List[Constraints]:
        """A zipf-skewed multi-user serving stream of ``n`` queries.

        Real concurrent traffic is popularity-skewed: a handful of "head"
        regions draw most requests.  This models it by drawing each request
        from a fixed ``universe`` of base queries with rank-``k``
        probability proportional to ``1/k**alpha`` -- so identical requests
        recur (in-flight *dedup* opportunities) -- and, with probability
        ``shrink_fraction``, narrowing the drawn query by moving one or
        more *upper* bounds down by up to ``max_shrink`` of the interval
        width.  A shrunken variant keeps every lower bound, so whenever its
        base query is in flight it is exactly the subsumption-coalescible
        geometry (generalized Theorem 3); it also exercises the cache's
        case-b path on repeats.  Deterministic given the generator's seed.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        if universe < 1:
            raise ValueError("universe must be at least 1")
        if not 0.0 <= shrink_fraction <= 1.0:
            raise ValueError("shrink_fraction must be in [0, 1]")
        rng = self._rng
        bases = [self.initial_query() for _ in range(universe)]
        ranks = np.arange(1, universe + 1, dtype=float)
        probs = ranks**-float(alpha)
        probs /= probs.sum()
        out: List[Constraints] = []
        for _ in range(n):
            base = bases[int(rng.choice(universe, p=probs))]
            if rng.random() >= shrink_fraction:
                out.append(base)
                continue
            lo, hi = base.lo.copy(), base.hi.copy()
            dims = rng.random(self.ndim) < 0.5
            if not dims.any():
                dims[int(rng.integers(self.ndim))] = True
            for dim in np.flatnonzero(dims):
                width = hi[dim] - lo[dim]
                shrink = float(rng.uniform(0.0, max_shrink)) * width
                hi[dim] = max(hi[dim] - shrink, lo[dim] + self.min_width[dim])
            out.append(Constraints(lo, hi))
        return out

    def partition_stream(
        self,
        n: int,
        tenants: int = 8,
        key_dim: int = 0,
        alpha: float = 1.1,
        concentration: float = 0.15,
        queries_per_tenant: int = 8,
        shrink_fraction: float = 0.3,
        max_shrink: float = 0.2,
    ) -> List[Constraints]:
        """A partition-skewed multi-tenant stream of ``n`` queries.

        The sharded-deployment workload: each *tenant* (a city's users, in
        the real-estate scenario) is anchored to a narrow interval of the
        partition key -- ``concentration`` of the domain width on
        ``key_dim`` -- so its queries touch few shards of a table
        partitioned on that dimension, and a zipf(``alpha``) draw over
        tenants makes head tenants dominate the traffic.  Every tenant
        reuses a fixed set of ``queries_per_tenant`` base queries (repeat
        hits for both skyline caches and the pruning-set cache), shrunk as
        in :meth:`zipf_stream` with probability ``shrink_fraction`` (upper
        bounds only, so variants stay subsumption-coalescible and inside
        the tenant's key interval).  Deterministic given the generator's
        seed.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        if tenants < 1:
            raise ValueError("tenants must be at least 1")
        if not 0 <= key_dim < self.ndim:
            raise ValueError(f"key_dim {key_dim} out of range for {self.ndim} dims")
        if not 0.0 < concentration <= 1.0:
            raise ValueError("concentration must be in (0, 1]")
        if not 0.0 <= shrink_fraction <= 1.0:
            raise ValueError("shrink_fraction must be in [0, 1]")
        rng = self._rng
        domain_width = self.domain_hi[key_dim] - self.domain_lo[key_dim]
        half = max(domain_width * concentration, self.min_width[key_dim]) / 2.0
        bases: List[List[Constraints]] = []
        for _ in range(tenants):
            center = float(
                rng.uniform(self.domain_lo[key_dim], self.domain_hi[key_dim])
            )
            key_lo = float(
                np.clip(center - half, self.domain_lo[key_dim], self.domain_hi[key_dim])
            )
            key_hi = float(
                np.clip(center + half, self.domain_lo[key_dim], self.domain_hi[key_dim])
            )
            if key_hi - key_lo < self.min_width[key_dim]:
                key_hi = min(
                    key_lo + self.min_width[key_dim], float(self.domain_hi[key_dim])
                )
                key_lo = key_hi - self.min_width[key_dim]
            tenant_bases = []
            for _ in range(max(1, queries_per_tenant)):
                base = self.initial_query()
                lo, hi = base.lo.copy(), base.hi.copy()
                lo[key_dim], hi[key_dim] = key_lo, key_hi
                tenant_bases.append(Constraints(lo, hi))
            bases.append(tenant_bases)
        ranks = np.arange(1, tenants + 1, dtype=float)
        probs = ranks**-float(alpha)
        probs /= probs.sum()
        out: List[Constraints] = []
        for _ in range(n):
            tenant = bases[int(rng.choice(tenants, p=probs))]
            base = tenant[int(rng.integers(len(tenant)))]
            if rng.random() >= shrink_fraction:
                out.append(base)
                continue
            lo, hi = base.lo.copy(), base.hi.copy()
            dims = rng.random(self.ndim) < 0.5
            if not dims.any():
                dims[int(rng.integers(self.ndim))] = True
            for dim in np.flatnonzero(dims):
                width = hi[dim] - lo[dim]
                shrink = float(rng.uniform(0.0, max_shrink)) * width
                hi[dim] = max(hi[dim] - shrink, lo[dim] + self.min_width[dim])
            out.append(Constraints(lo, hi))
        return out
