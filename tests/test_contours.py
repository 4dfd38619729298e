import numpy as np
import pytest

from dcag import ShapeError, contour_text, marching_squares
from oracles import bilinear


def surface_result(dk_values, dv_values, fn):
    """Sweep-shaped surfaces, one (n_dk, n_dv) array per metric; mse is an analytic function."""
    shape = (len(dk_values), len(dv_values))
    return {"mse": np.array([[fn(dk, dv) for dv in dv_values] for dk in dk_values]),
            "psnr": np.full(shape, 1.0), "ssim": np.full(shape, 0.5)}


class TestMarchingSquares:
    def test_constant_surface_misses_other_levels(self):
        xs = ys = np.linspace(0.0, 1.0, 4)
        values = np.full((4, 4), 2.0)
        assert marching_squares(xs, ys, values, 3.0) == []
        # at the constant itself every corner counts as above: still empty
        assert marching_squares(xs, ys, values, 2.0) == []

    @pytest.mark.parametrize("values, level, expected", [
        # case 5, corners (0, 0) and (1, 1) above: a center at or above the level joins them
        ([[1.0, 0.0], [0.0, 1.0]], 0.5, {((0.5, 0.0), (1.0, 0.5)), ((0.0, 0.5), (0.5, 1.0))}),
        ([[1.0, 0.0], [0.0, 1.0]], 0.6, {((0.0, 0.4), (0.4, 0.0)), ((0.6, 1.0), (1.0, 0.6))}),
        # case 10, corners (1, 0) and (0, 1) above
        ([[0.0, 1.0], [1.0, 0.0]], 0.5, {((0.0, 0.5), (0.5, 0.0)), ((0.5, 1.0), (1.0, 0.5))}),
        ([[0.0, 1.0], [1.0, 0.0]], 0.6, {((0.6, 0.0), (1.0, 0.4)), ((0.0, 0.6), (0.4, 1.0))}),
    ])
    def test_saddle_cells_follow_the_center(self, values, level, expected):
        lines = marching_squares([0.0, 1.0], [0.0, 1.0], np.array(values), level)
        got = {tuple(sorted((round(x, 12), round(y, 12)) for x, y in line)) for line in lines}
        assert got == expected

    def test_level_outside_range_is_empty(self, rng):
        xs = ys = np.linspace(0.0, 1.0, 5)
        values = rng.random((5, 5))
        assert marching_squares(xs, ys, values, 7.5) == []

    def test_plane_gives_straight_line(self):
        xs = ys = np.linspace(1.0, 2.0, 6)
        values = xs[:, None] + ys[None, :]
        polylines = marching_squares(xs, ys, values, 2.5)
        assert polylines
        vertices = [v for line in polylines for v in line]
        assert len(vertices) >= 2
        for x, y in vertices:
            assert abs((x + y) - 2.5) <= 1e-9

    def test_vertices_reproduce_level_under_bilinear_interp(self, rng):
        xs = np.linspace(1.0, 1.2, 7)
        ys = np.linspace(0.9, 1.3, 6)
        values = rng.random((7, 6))
        level = 0.5
        span = float(values.max() - values.min())
        for line in marching_squares(xs, ys, values, level):
            for x, y in line:
                assert abs(bilinear(xs, ys, values, x, y) - level) <= 1e-6 * span

    def test_corner_at_level_counts_as_above(self):
        # the left column sits exactly at the level; its corners classify as
        # above, so the contour runs along that column's edge
        xs = np.array([0.0, 1.0])
        ys = np.array([0.0, 1.0])
        values = np.array([[1.0, 1.0], [0.0, 0.0]])
        polylines = marching_squares(xs, ys, values, 1.0)
        vertices = sorted(v for line in polylines for v in line)
        assert vertices == [(0.0, 0.0), (0.0, 1.0)]

    def test_closed_loop_repeats_start_vertex(self):
        xs = ys = np.linspace(0.0, 4.0, 5)
        values = np.zeros((5, 5))
        values[2, 2] = 10.0  # single interior peak -> one closed ring
        polylines = marching_squares(xs, ys, values, 5.0)
        assert len(polylines) == 1
        ring = polylines[0]
        assert ring[0] == ring[-1]
        assert len(ring) == 5  # four crossings plus the repeated start

    def test_adjacent_cells_share_bitwise_vertices(self, rng):
        # chaining only works if shared edges interpolate identically, which
        # shows up as polylines longer than a single segment
        xs = ys = np.linspace(0.0, 1.0, 9)
        values = np.sin(3.0 * xs[:, None]) + np.cos(2.0 * ys[None, :])
        polylines = marching_squares(xs, ys, values, 0.4)
        assert any(len(line) > 2 for line in polylines)

    def test_shape_validation(self, rng):
        with pytest.raises(ShapeError, match="surface shape"):
            marching_squares(np.arange(3.0), np.arange(4.0), rng.random((4, 3)), 0.5)


class TestIsoContour:
    def test_plane_through_sweep_result(self):
        dks = np.linspace(1.0, 1.2, 5)
        dvs = np.linspace(1.0, 1.2, 5)
        surfaces = surface_result(dks, dvs, lambda dk, dv: dk + dv)
        polylines = marching_squares(dks, dvs, surfaces["mse"], 2.25)
        assert polylines
        for x, y in (v for line in polylines for v in line):
            assert abs((x + y) - 2.25) <= 1e-9

    def test_level_above_surface_is_empty(self):
        grid = [1.0, 1.1]
        surfaces = surface_result(grid, grid, lambda dk, dv: 0.0)
        assert marching_squares(grid, grid, surfaces["mse"], 0.9) == []


class TestContourText:
    def test_empty_contours_render_empty_file(self):
        assert contour_text([]) == ""

    def test_polyline_formatting(self):
        text = contour_text([[(1.0, 2.0), (1.5, 2.5)], [(0.25, 0.5)]])
        assert text == "1,2\n1.5,2.5\n\n0.25,0.5\n"

    def test_17_digit_roundtrip(self):
        x = 1.0 / 3.0
        y = 2.0 / 7.0
        line = contour_text([[(x, y)]]).strip().split(",")
        assert float(line[0]) == x
        assert float(line[1]) == y
