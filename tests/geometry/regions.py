"""A box-by-box Python reference of the region kernel
(:class:`repro.geometry.box.BoxSet`).

A box here is a pair ``(lo, hi)`` of lists of Python floats: the closed box
``[lo[j], hi[j]]`` per dimension ``j``, faces at +-inf allowed.  It holds a
double iff every ``lo <= hi``, no ``lo`` is ``+inf`` and no ``hi`` is
``-inf``.  Each operation takes one box at a time, cuts with
``math.nextafter``, and returns the pieces the ``BoxSet`` docstrings name,
in the order they name, so the tests compare the two row by row by exact
float equality.  Nothing here calls the kernel.
"""

import math

import numpy as np

INF = math.inf


def rows_of(boxes):
    """``boxes`` -- a ``BoxSet`` or a list of boxes -- as a list of boxes."""
    if hasattr(boxes, "lo"):
        return list(zip(boxes.lo.tolist(), boxes.hi.tolist()))
    return [(list(lo), list(hi)) for lo, hi in boxes]


def closed(lo, hi):
    """The closed box ``[lo, hi]`` as Python floats."""
    if len(lo) != len(hi):
        raise ValueError("lo and hi must have the same length")
    return [float(v) for v in lo], [float(v) for v in hi]


def holds_a_double(box):
    lo, hi = box
    return all(a <= b and a != INF and b != -INF for a, b in zip(lo, hi))


def solid(boxes):
    """The boxes that hold a double, in order."""
    return [box for box in rows_of(boxes) if holds_a_double(box)]


def contains(box, point):
    lo, hi = box
    return all(a <= v <= b for a, v, b in zip(lo, point, hi))


def mask(boxes, points):
    """The ``(m,)`` mask of the rows of ``points`` inside any of ``boxes``."""
    points = np.asarray(points, dtype=float)
    covered = np.zeros(len(points), dtype=bool)
    for lo, hi in rows_of(boxes):
        covered |= ((points >= lo) & (points <= hi)).all(axis=1)
    return covered


def volume(box):
    lo, hi = box
    return math.prod(max(b - a, 0.0) for a, b in zip(lo, hi))


def intersect(a, b):
    (a_lo, a_hi), (b_lo, b_hi) = a, b
    return (
        [max(x, y) for x, y in zip(a_lo, b_lo)],
        [min(x, y) for x, y in zip(a_hi, b_hi)],
    )


def meets(a, b):
    return holds_a_double(intersect(a, b))


def corner(point):
    """``DR(point)``, the closed upper corner ``{p | p >= point}``."""
    return [float(v) for v in point], [INF] * len(point)


def below(u):
    """The closed face of ``(-inf, u)``: the double below ``u`` (a face at
    +inf stays there)."""
    return u if u == INF else math.nextafter(u, -INF)


def subtract_corner(box, point):
    """``box`` minus ``DR(point)``: piece ``i`` is ``box`` clipped to ``[u,
    inf)`` in the dimensions ``< i`` and to ``(-inf, u)`` in dimension
    ``i``; the pieces holding no double are dropped."""
    lo, hi = box
    u = [float(v) for v in point]
    if len(u) != len(lo):
        raise ValueError("point dimensionality mismatch")
    pieces = []
    for i in range(len(u)):
        piece = (
            [max(a, v) for a, v in zip(lo[:i], u)] + lo[i:],
            hi[:i] + [min(hi[i], below(u[i]))] + hi[i + 1 :],
        )
        if holds_a_double(piece):
            pieces.append(piece)
    return pieces


def split_corners(boxes, corners):
    """``BoxSet.split_corners``: per corner, ``(inside, outside)`` of the
    boxes the previous corner left outside (the empty ones dropped
    first)."""
    outside = solid(boxes)
    pairs = []
    for u in corners:
        region = corner(u)
        inside = [intersect(b, region) for b in outside if meets(b, region)]
        outside = [p for b in outside for p in subtract_corner(b, u)]
        pairs.append((inside, outside))
    return pairs


def subtract_corners(boxes, corners):
    """``BoxSet.subtract_corners``: each corner cuts only the boxes that
    meet it; the others pass whole, in their place."""
    rows = solid(boxes)
    for u in corners:
        region = corner(u)
        rows = [
            piece
            for b in rows
            for piece in (subtract_corner(b, u) if meets(b, region) else [b])
        ]
    return rows


def subtract_box(box, other):
    """``BoxSet.difference``: per dimension ``i`` the slab of ``box`` below
    and the slab above its intersection with ``other`` (the cut), narrowed
    to the cut in the dimensions ``< i``; slabs holding no double dropped.
    A box ``other`` misses comes back whole."""
    lo, hi = box
    cut_lo, cut_hi = intersect(box, other)
    if not holds_a_double((cut_lo, cut_hi)):
        return [box] if holds_a_double(box) else []
    slabs = []
    for i in range(len(lo)):
        down = (
            cut_lo[:i] + lo[i:],
            cut_hi[:i] + [math.nextafter(cut_lo[i], -INF)] + hi[i + 1 :],
        )
        up = (
            cut_lo[:i] + [math.nextafter(cut_hi[i], INF)] + lo[i + 1 :],
            cut_hi[:i] + hi[i:],
        )
        slabs += [slab for slab in (down, up) if holds_a_double(slab)]
    return slabs


def pairwise_disjoint(boxes):
    """No two of ``boxes`` share a double: :func:`meets` of every pair, one
    box against all later ones at a time."""
    rows = rows_of(boxes)
    lo = np.array([box[0] for box in rows], dtype=float)
    hi = np.array([box[1] for box in rows], dtype=float)
    for i in range(len(lo) - 1):
        meet_lo = np.maximum(lo[i], lo[i + 1 :])
        meet_hi = np.minimum(hi[i], hi[i + 1 :])
        shared = (meet_lo <= meet_hi) & (meet_lo != INF) & (meet_hi != -INF)
        if shared.all(axis=1).any():
            return False
    return True
