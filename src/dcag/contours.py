"""Marching-squares iso-level contour extraction on metric surfaces.

Cells are classified corner by corner against the level (a corner exactly
at the level counts as above it), crossings are placed by linear
interpolation along cell edges, and the per-cell segments are chained into
polylines. Saddle cells are disambiguated by the cell-center average.
A sweep's iso-contour is marching_squares(dk_values, dv_values,
surfaces[metric], level), in (delta_k, delta_v) coordinates.
"""

from __future__ import annotations

from .errors import ShapeError
from .tensors import _csv_lines, as_tensor

__all__ = ["marching_squares", "contour_text"]

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


# Offsets of each cell edge's corners (ia, ja, ib, jb) from (i, j, i, j), lower grid
# index first, so the two cells sharing an edge compute bit-identical crossings.
_EDGE_ENDS = {"S": (0, 0, 1, 0), "N": (0, 1, 1, 1), "W": (0, 0, 0, 1), "E": (1, 0, 1, 1)}


def _edge_crossing(xs, ys, values, level, edge, i, j):
    ia, ja, ib, jb = (corner + offset for corner, offset in zip((i, j, i, j), _EDGE_ENDS[edge]))
    va, vb = values[ia, ja], values[ib, jb]
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


def contour_text(polylines) -> str:
    """One 'x,y' vertex per line, 17 significant digits, blank line between polylines."""
    return "\n".join("".join(line + "\n" for line in _csv_lines(polyline))
                     for polyline in polylines)
