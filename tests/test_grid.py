import itertools

import numpy as np
import pytest

from quantocds.grid import (Grid4D, GridConfig, ScalarField, build_grid,
                            cell_slices, interpolate, interpolation_matrix)
from quantocds.model import ModelParams


def default_grid(**model_kwargs) -> Grid4D:
    return build_grid(GridConfig(), ModelParams().with_(**model_kwargs))


def test_default_grid_shape_and_spacing():
    g = default_grid()
    assert g.size == 10_000
    assert g.shape == (10, 10, 10, 10)
    assert g.axes[0][1] - g.axes[0][0] == pytest.approx(1.0 / 9.0)
    assert g.axes[1][-1] == pytest.approx(1.0)
    assert g.axes[2][0] == pytest.approx(-6.0)
    assert g.axes[3][-1] == pytest.approx(4.0)


def test_jump_adjusted_bounds():
    assert default_grid(gamma_rhat=4.0).axes[1][-1] == pytest.approx(5.0)
    assert default_grid(gamma_z=-0.5).axes[3][-1] == pytest.approx(2.0)
    # positive FX jump / negative rate jump leave the bounds alone
    assert default_grid(gamma_z=0.5).axes[3][-1] == pytest.approx(4.0)
    assert default_grid(gamma_rhat=-0.5).axes[1][-1] == pytest.approx(1.0)


def test_grid_config_rejects_bad_bounds():
    with pytest.raises(ValueError):
        GridConfig(n_R=3)
    with pytest.raises(ValueError):
        GridConfig(z_max=-1.0)
    with pytest.raises(ValueError):
        GridConfig(y_min=1.0)
    for counts in ({"n_R": 10.7}, {"n_y": 12.0}):
        with pytest.raises(ValueError, match="must be an integer"):
            GridConfig(**counts)


def test_interpolation_exact_at_nodes():
    g = default_grid()
    rng = np.random.default_rng(5)
    f = ScalarField(g, rng.standard_normal(g.size))
    for flat in rng.integers(0, g.size, size=20):
        multi = np.unravel_index(int(flat), g.shape)
        x = [g.axes[k][multi[k]] for k in range(4)]
        assert interpolate(f, x) == pytest.approx(f.values[int(flat)], abs=1e-13)


def test_interpolation_exact_on_affine_fields():
    g = default_grid()
    R, rr, y, z = g.coordinate_fields()
    f = ScalarField(g, 0.3 + 1.7 * R - 0.4 * rr + 0.05 * y + 2.0 * z)
    rng = np.random.default_rng(6)
    for _ in range(30):
        x = [rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(-6, 0),
             rng.uniform(0, 4)]
        want = 0.3 + 1.7 * x[0] - 0.4 * x[1] + 0.05 * x[2] + 2.0 * x[3]
        assert abs(interpolate(f, x) - want) < 1e-12


def test_coordinate_field_readout():
    g = default_grid()
    f = ScalarField(g, g.coordinate_fields()[3])
    assert interpolate(f, [0.45, 0.03, -4.089, 1.15]) == pytest.approx(1.15, abs=1e-12)


def test_interpolation_linear_in_field():
    g = default_grid()
    rng = np.random.default_rng(7)
    f = ScalarField(g, rng.standard_normal(g.size))
    h = ScalarField(g, rng.standard_normal(g.size))
    x = [0.37, 0.51, -2.2, 3.1]
    combo = ScalarField(g, 1.3 * f.values + 0.7 * h.values)
    assert abs(interpolate(combo, x)
               - (1.3 * interpolate(f, x) + 0.7 * interpolate(h, x))) < 1e-12


def corner_products(grid: Grid4D, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference rows of the interpolation matrix, one corner at a time:
    each corner weight is a product over the axes in axis order, each
    column the corner's flat index."""
    cells, locs = [], []
    for axis, x in zip(grid.axes, pts.T):
        if len(axis) == 1:
            # a one-node axis: its node with weight 1, whatever x is
            cells.append(np.zeros(len(x), dtype=int))
            locs.append(np.zeros(len(x)))
            continue
        i = np.clip(np.searchsorted(axis, x, side="right") - 1, 0, len(axis) - 2)
        cells.append(i)
        locs.append((x - axis[i]) / (axis[i + 1] - axis[i]))
    data, cols = [], []
    ranges = [(0, 1) if len(a) > 1 else (0,) for a in grid.axes]
    for bits in itertools.product(*ranges):
        w = np.ones(len(pts))
        for t, b in zip(locs, bits):
            w = w * (t if b else 1.0 - t)
        data.append(w)
        cols.append(np.ravel_multi_index([i + b for i, b in zip(cells, bits)], grid.shape))
    return np.stack(data, axis=1), np.stack(cols, axis=1)


def test_interpolation_matrix_matches_corner_products():
    # points inside the hull, beyond it and on nodes, on a full grid, on
    # a solve grid whose R and rhat axes keep two nodes, and on one whose
    # R axis is the single node R0 (8 corners per row)
    rng = np.random.default_rng(9)
    g = default_grid(gamma_z=-0.5)
    keep = cell_slices(g, ModelParams().x0, (0, 1))
    cut = Grid4D(tuple(a[k] for a, k in zip(g.axes, keep)))
    one_node = Grid4D((np.array([ModelParams().R0]),) + cut.axes[1:])
    for grid, width in ((g, 16), (cut, 16), (one_node, 8)):
        lo = np.array([a[0] for a in grid.axes])
        span = np.array([a[-1] for a in grid.axes]) - lo
        # the one-node axis has no span: draw its coordinates from [0, 1]
        span = np.where(span > 0.0, span, 1.0)
        inside = lo + span * rng.random((500, 4))
        beyond = lo - 0.5 * span + 2.0 * span * rng.random((500, 4))
        on_nodes = np.stack([a[rng.integers(0, len(a), 200)] for a in grid.axes], axis=1)
        for pts in (inside, beyond, on_nodes):
            E = interpolation_matrix(grid, pts)
            data, cols = corner_products(grid, pts)
            assert np.array_equal(E.indptr, width * np.arange(len(pts) + 1))
            assert np.array_equal(E.data.reshape(-1, width), data)
            assert np.array_equal(E.indices.reshape(-1, width), cols)
            assert np.all(np.diff(cols, axis=1) > 0)


def test_extrapolation_continuous_across_hull():
    g = default_grid()
    rng = np.random.default_rng(8)
    f = ScalarField(g, rng.standard_normal(g.size))
    eps = 1e-8
    base = [0.5, 0.5, -3.0, 2.0]
    hull = {0: (0.0, 1.0), 1: (0.0, 1.0), 2: (-6.0, 0.0), 3: (0.0, 4.0)}
    for axis, (lo, hi) in hull.items():
        for edge in (lo, hi):
            xin, xout = list(base), list(base)
            sign = 1.0 if edge == lo else -1.0
            xin[axis] = edge + sign * eps
            xout[axis] = edge - sign * eps
            assert abs(interpolate(f, xin) - interpolate(f, xout)) < 1e-5


def test_extrapolation_exact_on_affine_fields():
    g = default_grid()
    R, rr, y, z = g.coordinate_fields()
    f = ScalarField(g, 2.0 * z - 0.5 * rr)
    # far outside the hull in both shifted coordinates
    assert interpolate(f, [0.5, 3.0, -3.0, 10.0]) == pytest.approx(2.0 * 10.0 - 0.5 * 3.0,
                                                                   abs=1e-10)


def test_field_length_checked():
    g = default_grid()
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros(5))


@pytest.mark.parametrize("point", [[np.nan, 0.03, -4.0, 1.15], [0.45, np.inf, -4.0, 1.15],
                                   [0.45, 0.03, -np.inf, 1.15], [0.45, 0.03, -4.0, np.nan]])
def test_non_finite_point_rejected(point):
    # a non-finite coordinate has no cell to read from: refused, not nan
    f = ScalarField(default_grid(), np.zeros(default_grid().size))
    with pytest.raises(ValueError, match="finite"):
        interpolate(f, point)


def test_field_finiteness_checked():
    g = default_grid()
    bad = np.zeros(g.size)
    bad[7] = np.nan
    with pytest.raises(ValueError, match="finite"):
        ScalarField(g, bad)
