"""Marching-squares iso-level contour extraction on metric surfaces.

Cells are classified corner by corner against the level (a corner exactly
at the level counts as above it), crossings are placed by linear
interpolation along cell edges, and the per-cell segments are chained into
polylines. Saddle cells are disambiguated by the cell-center average.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .harness import SweepResult
from .tensors import as_tensor

__all__ = ["marching_squares", "iso_contour", "contour_text"]

# Segment table indexed by corner bits (b00 | b10<<1 | b11<<2 | b01<<3);
# edges are S, E, N, W of the cell. Saddle cases 5 and 10 hold two choices,
# indexed at runtime by whether the cell-center average is at or above the level.
_SEGMENTS = {
    0: [],
    1: [("W", "S")],
    2: [("S", "E")],
    3: [("W", "E")],
    4: [("E", "N")],
    5: ([("W", "S"), ("E", "N")], [("S", "E"), ("W", "N")]),
    6: [("S", "N")],
    7: [("W", "N")],
    8: [("N", "W")],
    9: [("S", "N")],
    10: ([("S", "E"), ("N", "W")], [("W", "S"), ("E", "N")]),
    11: [("E", "N")],
    12: [("W", "E")],
    13: [("S", "E")],
    14: [("W", "S")],
    15: [],
}


def _edge_crossing(xs, ys, values, level, edge, i, j):
    # Canonical endpoint order (lower grid index first) so the two cells
    # sharing an edge compute bit-identical crossing coordinates.
    if edge == "S":
        (ia, ja), (ib, jb) = (i, j), (i + 1, j)
    elif edge == "N":
        (ia, ja), (ib, jb) = (i, j + 1), (i + 1, j + 1)
    elif edge == "W":
        (ia, ja), (ib, jb) = (i, j), (i, j + 1)
    else:  # "E"
        (ia, ja), (ib, jb) = (i + 1, j), (i + 1, j + 1)
    va = values[ia, ja]
    vb = values[ib, jb]
    t = (level - va) / (vb - va)
    return (xs[ia] + t * (xs[ib] - xs[ia]), ys[ja] + t * (ys[jb] - ys[ja]))


def _chain(segments):
    """Join shared-endpoint segments into polylines; cycles repeat the start."""
    adjacency: dict = {}
    for index, (a, b) in enumerate(segments):
        adjacency.setdefault(a, []).append((b, index))
        adjacency.setdefault(b, []).append((a, index))
    used = [False] * len(segments)

    def walk(start):
        line = [start]
        current = start
        while True:
            step = next(
                ((other, idx) for other, idx in adjacency[current] if not used[idx]),
                None,
            )
            if step is None:
                return line
            other, idx = step
            used[idx] = True
            line.append(other)
            current = other

    polylines = []
    for vertex, incident in adjacency.items():
        if len(incident) % 2 == 1 and any(not used[idx] for _, idx in incident):
            polylines.append(walk(vertex))
    for index, (a, _) in enumerate(segments):
        if not used[index]:
            polylines.append(walk(a))
    return polylines


def marching_squares(xs, ys, values, level: float):
    """Polylines of `values == level` over the grid xs x ys.

    values is (len(xs), len(ys)); returned vertices are (x, y) pairs in
    grid coordinates. A level missed by the whole surface yields [].
    """
    xs = as_tensor(xs, "x coordinates").ravel()
    ys = as_tensor(ys, "y coordinates").ravel()
    values = as_tensor(values, "surface")
    if values.shape != (xs.size, ys.size):
        raise ShapeError(
            f"surface shape {values.shape} does not match grid {(xs.size, ys.size)}"
        )
    level = float(level)
    above = values >= level

    segments = []
    for i in range(xs.size - 1):
        for j in range(ys.size - 1):
            case = (
                int(above[i, j])
                | int(above[i + 1, j]) << 1
                | int(above[i + 1, j + 1]) << 2
                | int(above[i, j + 1]) << 3
            )
            pairs = _SEGMENTS[case]
            if case in (5, 10):
                center = (values[i, j] + values[i + 1, j]
                          + values[i + 1, j + 1] + values[i, j + 1]) / 4.0
                pairs = pairs[bool(center >= level)]
            for edge_a, edge_b in pairs:
                segments.append((
                    _edge_crossing(xs, ys, values, level, edge_a, i, j),
                    _edge_crossing(xs, ys, values, level, edge_b, i, j),
                ))
    return _chain(segments)


def iso_contour(result: SweepResult, metric: str, level: float):
    """Iso-level polylines of a sweep metric in (delta_k, delta_v) coordinates."""
    surface = result.surface(metric)
    return marching_squares(
        np.asarray(result.dk_values), np.asarray(result.dv_values), surface, level
    )


def contour_text(polylines) -> str:
    """One 'x,y' vertex per line, 17 significant digits, blank line between polylines."""
    chunks = []
    for line in polylines:
        chunks.append("\n".join(f"{x:.17g},{y:.17g}" for x, y in line))
    return ("\n\n".join(chunks) + "\n") if chunks else ""
