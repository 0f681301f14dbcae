"""Per-query decision provenance: the engine's EXPLAIN ANALYZE.

The CBCS paper's whole contribution is a *decision* -- pick one cached
skyline, classify the overlap case, plan MPR/aMPR boxes -- yet a plain
:class:`~repro.stats.QueryOutcome` only shows the chosen plan.  This module
records the decision itself:

- every cache candidate the strategy considered, with its overlap volume,
  incremental case, score, and a machine-readable rejection reason
  (``"outscored"``, ``"failed-verification"``, ``"not-sampled"``, ...);
- the selected item and the resulting plan summary;
- per plan box, the *predicted* points/pages/seeks/io_ms (the table's
  :class:`~repro.storage.table.Forecast`, the one the planner shaped the
  plan with) joined against the *actual* executed values stamped on each
  :class:`~repro.storage.table.RangeResult`;
- ``predicted_io_ms`` of the plan as shaped, of the region computer's boxes
  issued one by one, and of the one-box alternative -- the shaping decision.

One record is emitted per ``query()`` call, stamped with the query's
correlation id, so ``explain.jsonl`` joins 1:1 with ``queries.jsonl`` and
the trace.  The record is built *once, after the query body ran*, by pure
functions of the query's one :class:`~repro.core.planner.QueryPlan` -- the
candidates it was planned against, the items cache verification rejected,
the per-box :class:`~repro.storage.table.RangeResult` parts of its fetch --
and the outcome, so the engine carries no explain state beside the plan.
A degraded query's record describes the configured pass that failed plus
what served it instead (``degraded``: ``stale`` or ``unavailable``); boxes
whose fetch never completed keep ``"actual": null``.  A pass whose planning
raised left no plan: its record is the outcome head alone.  An exact hit
was found by the cache's key probe, not by the overlap search: its record
lists that one candidate, has no boxes, and its predicted and actual costs
are zero.

Wiring: the bench CLI (``--explain``) sets an :class:`ExplainRecorder` on
``Observability.explainer``; :meth:`repro.core.cbcs.CBCS.query` then emits
one record per query.  With
observability off (or no recorder installed) nothing is built and answers
are bit-identical.

CLI::

    python -m repro.obs.explain OBS_DIR          # one summary line per query
    python -m repro.obs.explain OBS_DIR QID      # full record for one query
"""

from __future__ import annotations

import json
import sys
from collections import deque
from pathlib import Path
from typing import List, Optional

from repro.obs.schema import check_versions, stamp

#: Rejection reason stamped on candidates the self-healing cache removed
#: before planning (failed ``verify_and_heal``).
REJECT_FAILED_VERIFICATION = "failed-verification"

#: ``no_candidates_reason`` values for records without a candidate table.
REASON_EMPTY_CACHE = "empty-cache"
REASON_NO_OVERLAP = "no-overlapping-candidates"

_COST_KEYS = ("points", "pages", "seeks", "io_ms")

_PLAN_KEYS = (
    "case",
    "cache_hit",
    "stable",
    "item_id",
    "reusable_points",
    "range_queries",
    "region_boxes",
    "estimated_points",
)


def _sum_costs(costs) -> dict:
    total = {"points": 0, "pages": 0, "seeks": 0, "io_ms": 0.0}
    for cost in costs:
        for key in _COST_KEYS:
            total[key] += cost.get(key, 0)
    total["io_ms"] = round(float(total["io_ms"]), 6)
    return total


def _actual_cost(part) -> dict:
    """What one executed range query charged (a ``RangeResult``)."""
    return {
        "points": int(part.rows_fetched),
        "pages": int(part.pages_read),
        "seeks": int(part.seeks),
        "io_ms": round(float(part.io_ms), 6),
    }


def explain_record(outcome, method, strategy=None, **sections) -> dict:
    """One query's EXPLAIN record: the outcome head followed by the
    ``sections`` of :func:`plan_sections` (none when planning itself
    failed)."""
    record = {"query_id": outcome.query_id, "method": method}
    if strategy is not None:
        record["strategy"] = strategy
    record.update(
        case=outcome.case,
        cache_hit=bool(outcome.cache_hit),
        stable=outcome.stable,
        degraded=outcome.degraded,
        **sections,
    )
    return stamp(record)


def plan_sections(planner, plan) -> dict:
    """The decision + predicted-vs-actual sections of one executed plan.

    ``plan`` is the query's :class:`~repro.core.planner.QueryPlan`:
    ``plan.rejected`` the cache items verification removed before it was
    built, ``plan.cache_items`` the cache size it saw, ``plan.parts`` the
    per-box fetch results in plan order (empty when the fetch never
    completed, so every box keeps ``"actual": null``).  I/O-free forecast
    and cost-model math only.
    """
    from repro.geometry.box import BoxSet

    planner.annotate(plan)
    forecast = planner.forecast(plan.boxes)
    model = forecast.model
    # the shaping decision: what was planned, what the region computer's
    # boxes would have cost one by one (a miss or an exact hit has none but
    # the plan's), and the one-box alternative
    region = plan.boxes if plan.mpr is None else plan.mpr.boxes
    query = plan.constraints
    shaping = {
        "plan": forecast,
        "region": planner.forecast(region),
        "one_box": planner.forecast(BoxSet(query.lo[None], query.hi[None])),
    }
    candidates = [dict(row) for row in plan.candidates_scored] + [
        planner.candidate_row(query, item, rejection=REJECT_FAILED_VERIFICATION)
        for item in plan.rejected
    ]
    reason = None
    if not candidates:
        reason = REASON_EMPTY_CACHE if plan.cache_items == 0 else REASON_NO_OVERLAP
    # per-box actuals join in plan order; a fetch that never completed
    # (a degraded query) leaves every box unexecuted
    executed = len(plan.parts) == len(plan.boxes)
    actuals = (
        [_actual_cost(part) for part in plan.parts]
        if executed
        else [None] * len(plan.boxes)
    )
    boxes = [
        {
            "box": box,
            "predicted": {
                "points": int(round(rows)),
                "pages": int(pages),
                "seeks": int(seeks),
                "io_ms": round(model.fetch_cost_ms(int(seeks), int(pages)), 6),
            },
            "actual": actual,
        }
        for box, actual, rows, pages, seeks in zip(
            plan.boxes.to_dicts(),
            actuals,
            forecast.rows,
            forecast.pages,
            forecast.seeks,
        )
    ]
    return {
        "cache_items": int(plan.cache_items),
        "no_candidates_reason": reason,
        "candidates": candidates,
        "plan": {key: getattr(plan, key) for key in _PLAN_KEYS},
        "boxes": boxes,
        "predicted_io_ms": {
            key: round(cost.io_ms(), 6) for key, cost in shaping.items()
        },
        "predicted": _sum_costs(row["predicted"] for row in boxes),
        "actual": _sum_costs(row["actual"] for row in boxes) if executed else None,
    }


class ExplainRecorder:
    """The record fan-out behind ``Observability.explainer``.

    Install on ``Observability.explainer``; every ``query()`` then emits
    exactly one record here.  Records go to an optional JSONL sink
    (``explain.jsonl``), an optional
    :class:`~repro.obs.calibration.CalibrationLedger`, and an in-memory
    ring buffer (``keep`` most recent) for tests and interactive use.
    """

    def __init__(self, sink=None, ledger=None, keep: int = 0):
        self.sink = sink
        self.ledger = ledger
        self.records_emitted = 0
        self._keep: Optional[deque] = deque(maxlen=keep) if keep else None

    def record(self, record: dict) -> None:
        self.records_emitted += 1
        if self._keep is not None:
            self._keep.append(record)
        if self.ledger is not None:
            self.ledger.add(record)
        if self.sink is not None:
            self.sink.emit(record)

    @property
    def records(self) -> List[dict]:
        """The buffered most-recent records (empty unless ``keep > 0``)."""
        return list(self._keep or ())

    def close(self) -> None:
        if self.sink is not None:
            close = getattr(self.sink, "close", None)
            if close is not None:
                close()


# ----------------------------------------------------------------------
# Reading + rendering
# ----------------------------------------------------------------------
def load_records(path) -> List[dict]:
    """Read an ``explain.jsonl`` file, skipping blank/corrupt lines."""
    records: List[dict] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                records.append(record)
    return records


def _fmt_cost(cost: Optional[dict]) -> str:
    if not cost:
        return "-"
    return (
        f"{cost.get('points', 0)}pt/{cost.get('pages', 0)}pg/"
        f"{cost.get('seeks', 0)}sk/{cost.get('io_ms', 0.0):.1f}ms"
    )


def render_summary(records: List[dict]) -> str:
    """One aligned line per record: the query-level predicted-vs-actual."""
    from repro.bench.reporting import format_table

    if not records:
        return "(no explain records)"
    rows = []
    for rec in records:
        plan = rec.get("plan") or {}
        rows.append(
            [
                rec.get("query_id") or "-",
                rec.get("case") or "-",
                rec.get("degraded") or "-",
                str(plan.get("item_id", "-")),
                len(rec.get("candidates") or ()),
                len(rec.get("boxes") or ()),
                _fmt_cost(rec.get("predicted")),
                _fmt_cost(rec.get("actual")),
            ]
        )
    return format_table(
        [
            "query_id",
            "case",
            "degraded",
            "item",
            "cands",
            "boxes",
            "predicted",
            "actual",
        ],
        rows,
        title=f"Explain records ({len(records)} queries)",
    )


def render_record(record: dict) -> str:
    """Full multi-table rendering of one query's provenance record."""
    from repro.bench.reporting import format_table

    plan = record.get("plan") or {}
    lines = [
        f"# explain {record.get('query_id') or '(no id)'}",
        f"method={record.get('method')} strategy={record.get('strategy')} "
        f"case={record.get('case')} cache_hit={record.get('cache_hit')} "
        f"stable={record.get('stable')} degraded={record.get('degraded')}",
        f"cache_items={record.get('cache_items')} "
        f"plan: item={plan.get('item_id')} "
        f"reuse={plan.get('reusable_points')} "
        f"range_queries={plan.get('range_queries')} "
        f"(region: {plan.get('region_boxes')} boxes) "
        f"est_points={plan.get('estimated_points')}",
    ]
    shaping = record.get("predicted_io_ms")
    if shaping:
        lines.append(
            "predicted io_ms: "
            + " ".join(f"{key}={shaping.get(key)}" for key in ("plan", "region", "one_box"))
        )
    candidates = record.get("candidates") or []
    if candidates:
        rows = [
            [
                str(c.get("item_id")),
                c.get("case") or "-",
                f"{c.get('overlap_volume', 0.0):.4g}",
                c.get("skyline_size", 0),
                json.dumps(c.get("score")),
                "<selected>" if c.get("selected") else (c.get("rejection") or "-"),
            ]
            for c in candidates
        ]
        lines.append(
            format_table(
                ["item", "case", "overlap", "skyline", "score", "verdict"],
                rows,
                title="Candidates considered",
            )
        )
    else:
        lines.append(
            f"candidates: none ({record.get('no_candidates_reason')})"
        )
    boxes = record.get("boxes") or []
    if boxes:
        rows = [
            [i, _fmt_cost(b.get("predicted")), _fmt_cost(b.get("actual"))]
            for i, b in enumerate(boxes)
        ]
        lines.append(
            format_table(
                ["box", "predicted", "actual"],
                rows,
                title="Plan boxes (predicted vs actual)",
            )
        )
    pred, act = record.get("predicted"), record.get("actual")
    lines.append(f"totals: predicted {_fmt_cost(pred)} actual {_fmt_cost(act)}")
    return "\n\n".join(lines)


def main(argv=None) -> int:
    """CLI: render explain records from an ``--obs`` directory."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.explain",
        description=(
            "Render per-query planner decision provenance "
            "(explain.jsonl) from an --obs output directory."
        ),
    )
    parser.add_argument(
        "obs_dir", metavar="OBS_DIR",
        help="directory a `python -m repro.bench --obs DIR --explain` "
             "run wrote",
    )
    parser.add_argument(
        "query_id", metavar="QID", nargs="?",
        help="render the full record of one query instead of the summary",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit raw JSON instead of aligned tables",
    )
    try:
        opts = parser.parse_args(list(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    path = Path(opts.obs_dir) / "explain.jsonl"
    if not path.is_file():
        print(f"no explain records at {path} (run bench with --obs --explain)")
        return 2
    try:
        records = load_records(path)
    except OSError as exc:
        print(f"cannot read {path}: {exc}")
        return 2
    for warning in check_versions(records, str(path)):
        print(f"warning: {warning}", file=sys.stderr)
    if opts.query_id is not None:
        matches = [r for r in records if r.get("query_id") == opts.query_id]
        if not matches:
            print(f"query_id {opts.query_id!r} not found in {path}")
            return 1
        for record in matches:
            print(
                json.dumps(record, indent=2)
                if opts.json
                else render_record(record)
            )
        return 0
    if opts.json:
        print(json.dumps(records, indent=2))
    else:
        print(render_summary(records))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
