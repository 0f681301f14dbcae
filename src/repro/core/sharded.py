"""``ShardedCBCS``: what is left of the fleet engine -- a constructor.

Sharding is a storage layout (:class:`~repro.storage.sharding.ShardedTable`
is a base table), so the fleet engine is the ordinary
:class:`~repro.core.cbcs.CBCS` over it: one cache, one planner, one EXPLAIN
record.  This name survives only because the repository benchmark
(``perfbench/workloads.py``, which a change under ``src/`` may not edit)
builds its sharded workload through it; new code writes
``CBCS(ShardedTable(...))`` (DESIGN.md section 5, item 15).
"""

from __future__ import annotations

from repro.core.cbcs import CBCS

__all__ = ["ShardedCBCS"]


def ShardedCBCS(table, strategy_factory=None, **cbcs_kwargs) -> CBCS:
    """``CBCS(table, strategy=strategy_factory(), **cbcs_kwargs)``."""
    strategy = strategy_factory() if strategy_factory is not None else None
    return CBCS(table, strategy=strategy, **cbcs_kwargs)
