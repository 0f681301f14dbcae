"""The host-speed probe: a fixed reference computation timed beside the ops.

The sandbox this benchmark runs in moves between speeds in phases that outlast
a run (README, "What this host does to a timing"): everything, the per-op
minimum too, reads 10-60% slower for minutes, then recovers.  No estimator
inside one run sees past that, but a reference computation timed in the same
passes, at the same moments and with the same estimator slows down with the
ops, so the *ratio* of the two holds still.

:func:`probe` is that reference: about 0.4 ms of the kind of work the engine's
median query does (attribute access, small dicts and lists, sorting with a key,
many small numpy calls on 4-wide rows).  It imports nothing from ``repro``, so
no change to the program can move it.  The pass loop calls it before every
:data:`EVERY`-th op and times it like an op; its noise floor is taken per
position over the passes, exactly as an op's is, and the median over positions
is the run's ``host.probe_ms``.  Every figure computed from the noise floor is
then multiplied by ``host.scale`` = :data:`REFERENCE_MS` / ``host.probe_ms``:
it reads in milliseconds of a host on which the probe takes
:data:`REFERENCE_MS`.
"""

from __future__ import annotations

import numpy as np

#: the probe runs before every EVERY-th op of a pass
EVERY = 5
#: the probe's floor on the quiet host the baseline was taken on: with it,
#: ``host.scale`` is 1 there and the figures read as that host's milliseconds
REFERENCE_MS = 0.39

_ROWS = np.random.default_rng(20150323).random((64, 4))


class _Box:
    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = lo
        self.hi = hi


def probe() -> float:
    """Run the reference computation once; the return value only keeps it honest."""
    rows = _ROWS
    seen = {}
    acc = 0.0
    for i in range(60):
        box = _Box(rows[i % 64], rows[(i * 7) % 64])
        if (box.lo <= box.hi).all():
            acc += 1.0
        seen[i] = (i, float(box.lo[0]))
        lo = np.minimum(box.lo, box.hi)
        hi = np.maximum(box.lo, box.hi)
        acc += float(np.prod(hi - lo))
    ordered = sorted(seen.values(), key=lambda item: item[1])
    inside = rows[(rows >= 0.2).all(axis=1) & (rows <= 0.9).all(axis=1)]
    order = np.argsort(inside.sum(axis=1))
    return acc + len(ordered) + float(order[0])
