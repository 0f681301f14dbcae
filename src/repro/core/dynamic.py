"""``DynamicCBCS``: the writable engine's old name, now an alias.

:class:`~repro.core.cbcs.CBCS` takes writes itself (``insert_points``,
``delete_points``, ``durability=``, ``recover``), so there is one engine
class.  This module survives only because the repository benchmark
(``perfbench/``, which a change under ``src/`` may not edit) imports it and
wraps its ``sfs_skyline`` name; new code writes ``CBCS`` (DESIGN.md
section 5, item 21).
"""

from repro.core.cbcs import CBCS
from repro.skyline.sfs import sfs_skyline

__all__ = ["DynamicCBCS", "sfs_skyline"]

DynamicCBCS = CBCS
