"""Live introspection of a :class:`~repro.core.cache.SkylineCache`.

The cache *is* the paper's contribution, yet until now its only runtime
surface was a handful of counters.  :class:`CacheView` renders the live
cache population as evidence an operator can act on:

- **per-item accounting**: skyline size, memory footprint, use count and
  the per-case hit split (how often the item served an ``exact`` hit vs a
  case a-d reuse), recency;
- **coverage fraction**: the Monte-Carlo-estimated share of the constraint
  space covered by at least one cached region -- the live analogue of the
  paper's "preloaded cache" premise (a cold cache covers ~0, a warmed one
  approaches 1);
- **quarantine listing**: the self-healing layer's recent evictions with
  their invariant-violation reason and the ``query_id`` whose verification
  triggered them.

Snapshots are plain dicts (JSON-ready, written as ``cache.json`` by the
bench CLI) and render as text via :func:`render_cacheview` /
``repro.obs.report``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.obs.schema import OBS_SCHEMA_VERSION

__all__ = ["CacheView", "view_for", "render_cacheview"]


class CacheView:
    """Read-only introspection over a live cache (never mutates it)."""

    def __init__(self, cache, bounds=None, coverage_samples: int = 4096):
        """``bounds`` is an optional ``(lo, hi)`` pair of arrays framing the
        constraint space for the coverage estimate (e.g. the data's min/max
        per dimension); without it the view frames the union of the cached
        regions themselves, falling back to each item's skyline MBR on
        unbounded constraint sides."""
        self.cache = cache
        self.bounds = bounds
        self.coverage_samples = int(coverage_samples)

    # ------------------------------------------------------------------
    # Coverage
    # ------------------------------------------------------------------
    def _frame(self, items) -> Optional[tuple]:
        if self.bounds is not None:
            lo, hi = self.bounds
            return np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        if not items:
            return None
        los, his = [], []
        for item in items:
            lo = np.asarray(item.constraints.lo, dtype=float).copy()
            hi = np.asarray(item.constraints.hi, dtype=float).copy()
            lo[~np.isfinite(lo)] = item.mbr_lo[~np.isfinite(lo)]
            hi[~np.isfinite(hi)] = item.mbr_hi[~np.isfinite(hi)]
            los.append(lo)
            his.append(hi)
        return np.min(los, axis=0), np.max(his, axis=0)

    def coverage_fraction(self, items=None) -> float:
        """Share of the framed constraint space inside >= 1 cached region.

        Estimated on a seeded low-discrepancy-ish uniform sample, so the
        number is deterministic for a given cache state; ``nan`` on an
        empty cache.
        """
        if items is None:
            items = list(self.cache)
        frame = self._frame(items)
        if not items or frame is None:
            return float("nan")
        lo, hi = frame
        span = hi - lo
        if not np.all(np.isfinite(span)) or np.any(span < 0):
            return float("nan")
        rng = np.random.default_rng(0)
        points = lo + rng.random((self.coverage_samples, len(lo))) * span
        covered = np.zeros(len(points), dtype=bool)
        for item in items:
            covered |= item.constraints.satisfied_mask(points)
            if covered.all():
                break
        return float(covered.mean())

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------
    @staticmethod
    def _item_nbytes(item) -> int:
        """Approximate in-memory footprint of one cached entry."""
        nbytes = int(item.skyline.nbytes)
        nbytes += int(np.asarray(item.mbr_lo).nbytes)
        nbytes += int(np.asarray(item.mbr_hi).nbytes)
        return nbytes

    def snapshot(self, top: int = 10) -> dict:
        """JSON-ready view of the cache population and its health."""
        items = list(self.cache)
        stats = self.cache.stats()
        per_item: List[dict] = []
        total_bytes = 0
        total_points = 0
        for item in sorted(items, key=lambda it: it.use_count, reverse=True):
            nbytes = self._item_nbytes(item)
            total_bytes += nbytes
            total_points += item.skyline_size
            per_item.append(
                {
                    "item_id": item.item_id,
                    "skyline_size": item.skyline_size,
                    "bytes": nbytes,
                    "use_count": item.use_count,
                    "case_uses": dict(getattr(item, "case_uses", {}) or {}),
                    "inserted_at": item.inserted_at,
                    "last_used": item.last_used,
                }
            )
        case_totals: Dict[str, int] = {}
        for rec in per_item:
            for case, count in rec["case_uses"].items():
                case_totals[case] = case_totals.get(case, 0) + count
        return {
            "schema": OBS_SCHEMA_VERSION,
            "items": len(items),
            "capacity": stats.get("capacity"),
            "policy": stats.get("policy"),
            "total_points": total_points,
            "total_bytes": total_bytes,
            "hit_rate": stats.get("hit_rate"),
            "insertions": stats.get("insertions"),
            "evictions": stats.get("evictions"),
            "refreshes": stats.get("refreshes"),
            "quarantined": stats.get("quarantined"),
            "coverage_fraction": self.coverage_fraction(items),
            "case_hit_totals": case_totals,
            "top_items": per_item[:top],
            "quarantine_log": [
                dict(entry) for entry in getattr(self.cache, "quarantine_log", ())
            ],
        }

    def export_gauges(self, metrics) -> None:
        """Mirror the headline numbers into a metrics registry."""
        snap = self.snapshot(top=0)
        metrics.set_gauge("cache_bytes", snap["total_bytes"])
        metrics.set_gauge("cache_points", snap["total_points"])
        coverage = snap["coverage_fraction"]
        if coverage == coverage:  # skip NaN: an empty cache covers nothing
            metrics.set_gauge("cache_coverage_fraction", coverage)


def view_for(source, bounds=None, coverage_samples: int = 4096):
    """A :class:`CacheView` of ``source``: an engine's ``cache`` attribute,
    or the source itself for a bare ``SkylineCache``."""
    cache = getattr(source, "cache", None)
    return CacheView(
        cache if cache is not None else source,
        bounds=bounds,
        coverage_samples=coverage_samples,
    )


def render_cacheview(snapshot: dict) -> str:
    """Aligned-text rendering of a :meth:`CacheView.snapshot` dict."""
    from repro.bench.reporting import format_table

    coverage = snapshot.get("coverage_fraction")
    coverage_txt = (
        f"{coverage:.1%}" if coverage is not None and coverage == coverage else "n/a"
    )
    header = (
        f"items={snapshot.get('items', 0)} "
        f"points={snapshot.get('total_points', 0)} "
        f"bytes={snapshot.get('total_bytes', 0)} "
        f"coverage={coverage_txt} "
        f"hit_rate={snapshot.get('hit_rate', 0.0):.1%} "
        f"quarantined={snapshot.get('quarantined', 0)}"
    )
    sections = [f"# cache introspection\n{header}"]
    case_totals = snapshot.get("case_hit_totals") or {}
    if case_totals:
        rows = [[case, count] for case, count in sorted(case_totals.items())]
        sections.append(
            format_table(["case", "hits"], rows, title="Hits by overlap case")
        )
    top = snapshot.get("top_items") or []
    if top:
        rows = [
            [
                rec["item_id"],
                rec["skyline_size"],
                rec["bytes"],
                rec["use_count"],
                ",".join(
                    f"{case}:{count}"
                    for case, count in sorted(rec.get("case_uses", {}).items())
                )
                or "-",
            ]
            for rec in top
        ]
        sections.append(
            format_table(
                ["item", "|sky|", "bytes", "uses", "case uses"],
                rows,
                title="Hottest cache items",
            )
        )
    quarantine = snapshot.get("quarantine_log") or []
    if quarantine:
        rows = [
            [
                entry.get("item_id", "?"),
                entry.get("reason", "?"),
                entry.get("query_id") or "-",
            ]
            for entry in quarantine
        ]
        sections.append(
            format_table(
                ["item", "reason", "query_id"],
                rows,
                title="Quarantine log (most recent last)",
            )
        )
    return "\n\n".join(sections)
