"""Tensor-product spatial grid over (R, rhat, y, z) and multilinear interpolation.

Axis order is fixed as (R, rhat, y, z) with the z index fastest
(C-order flattening).  Grids are uniform per axis.  When jumps are
active the rhat axis is extended by the factor 1+gamma_rhat (positive
jumps) and the z axis is truncated by 1+gamma_z (negative jumps) so
that post-jump states remain resolved.

Every sparse matrix of the engine is a ``Csr``: the three CSR arrays
and a shape, applied by scipy's compiled kernels.  Those kernels live
in the extension module ``scipy.sparse._sparsetools``, which this
module loads by itself: ``importlib.util.find_spec("scipy")`` locates
scipy without running its code, and the extension is executed from
scipy's ``sparse`` directory.  No quote imports the ``scipy.sparse``
package, whose array-API shim also loads ``numpy.f2py``.  A process
that imports ``quantocds.cli`` holds 29.5 MiB of RSS and 231 modules,
against 50.9 MiB and 554 modules when this module imported
``scipy.sparse`` (Python 3.11, numpy 2.4, scipy 1.17; numpy alone
takes about 27 MiB).  Every benchmark workload imports the package, so
each one's peak RSS fell by about as much (perfbench medians on a
2-core Xeon, MB = 10^6 bytes): fx-sweep 60.76 -> 43.38 MB,
refined-grid 94.33 -> 77.45 MB, mc-check 255.8 -> 241.1 MB.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, require_integers, require_real

__all__ = ["Csr", "GridConfig", "Grid4D", "ScalarField", "build_grid",
           "interpolate", "interpolation_matrix", "cell_slices"]


def _load_sparsetools():
    """scipy's compiled sparse kernels, without the ``scipy.sparse`` package.

    Once ``scipy.sparse`` is imported, its own module is returned.
    Otherwise the extension is loaded here and taken out of
    ``sys.modules`` again, so that a later ``import scipy.sparse``
    imports it as usual; both modules then hold the same functions."""
    name = "scipy.sparse._sparsetools"
    if name in sys.modules:
        return sys.modules[name]
    scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    spec = importlib.machinery.PathFinder.find_spec(name, [os.path.join(scipy_dir, "sparse")])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(name, None)
    return module


# private scipy API: the compiled kernels behind scipy's CSR methods
sparsetools = _load_sparsetools()


def index_dtype(largest: int) -> type:
    """int32 when the largest dimension, column index or row pointer of
    a CSR matrix fits in it, else int64: the type scipy's CSR
    constructor picks."""
    return np.int32 if largest < 2**31 else np.int64


@dataclass(frozen=True, eq=False)
class Csr:
    """A CSR matrix: row i holds ``data[indptr[i]:indptr[i+1]]`` at the
    columns ``indices[indptr[i]:indptr[i+1]]``.  The arrays are those of
    ``scipy.sparse.csr_matrix``, with one index type, and scipy's
    kernels apply them: ``A @ x`` is ``csr_matvec`` and ``toarray`` is
    ``csr_todense``, as in scipy, so they give scipy's bits.

    The kernels read without bounds checks, so a matrix is refused with
    ValueError unless ``data`` and ``indices`` are vectors of one
    length, ``indices`` and ``indptr`` share one index type (int32 or
    int64), ``indptr`` holds rows + 1 pointers that start at 0, never
    decrease and end at ``len(data)``, and every column index lies in
    [0, columns).  The check reads every index once."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]
    format = "csr"

    def __post_init__(self):
        m, n = self.shape
        data, indices, indptr = self.data, self.indices, self.indptr
        if data.ndim != 1 or indices.shape != data.shape:
            raise ValueError(f"data and indices must be vectors of one length, "
                             f"got shapes {data.shape} and {indices.shape}")
        if indices.dtype != indptr.dtype or indices.dtype not in (np.int32, np.int64):
            raise ValueError(f"indices and indptr need one index type, int32 or int64, "
                             f"got {indices.dtype} and {indptr.dtype}")
        if m < 0 or n < 0 or indptr.shape != (m + 1,):
            raise ValueError(f"a {m}x{n} matrix needs {m + 1} row pointers, "
                             f"got shape {indptr.shape}")
        if indptr[0] != 0 or indptr[-1] != data.size or (m and np.diff(indptr).min() < 0):
            raise ValueError(f"row pointers must rise from 0 to {data.size} without decreasing")
        if data.size and not (0 <= indices.min() and indices.max() < n):
            raise ValueError(f"column indices must lie in [0, {n})")

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        m, n = self.shape
        x = np.asarray(x)
        if x.shape != (n,):
            raise ValueError(f"cannot apply a {m}x{n} matrix to shape {x.shape}")
        y = np.zeros(m, dtype=self.data.dtype)
        sparsetools.csr_matvec(m, n, self.indptr, self.indices, self.data, x, y)
        return y

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.data.dtype)
        sparsetools.csr_todense(*self.shape, self.indptr, self.indices, self.data, out)
        return out


@dataclass(frozen=True)
class GridConfig:
    """Axis bounds and node counts before any jump adjustment.

    R spans exactly [0, 1]; rhat in [0, rhat_max]; y in [y_min, 0];
    z in [0, z_max].  All node counts must be at least 4 so a 3-point
    stencil never exhausts an axis.  Node counts are integers.
    """

    rhat_max: float = 1.0
    y_min: float = -6.0
    z_max: float = 4.0
    n_R: int = 10
    n_rhat: int = 10
    n_y: int = 10
    n_z: int = 10

    def __post_init__(self):
        counts = ("n_R", "n_rhat", "n_y", "n_z")
        require_integers(self, counts)
        for name in ("rhat_max", "y_min", "z_max"):
            require_real(name, getattr(self, name))
        for name in counts:
            if getattr(self, name) < 4:
                raise ValueError(f"{name} must be >= 4 (3-point stencil support)")
        if not 0.0 < self.rhat_max < np.inf:
            raise ValueError("rhat_max must be positive and finite")
        if not -np.inf < self.y_min < 0.0:
            raise ValueError("y_min must be negative and finite")
        if not 0.0 < self.z_max < np.inf:
            raise ValueError("z_max must be positive and finite")


@dataclass(frozen=True)
class Grid4D:
    """Uniform tensor-product grid with C-order flattening (z fastest)."""

    axes: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return tuple(len(a) for a in self.axes)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    def coordinate_fields(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Nodal coordinate arrays (R, rhat, y, z), each of length N."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return tuple(m.ravel() for m in mesh)


@dataclass
class ScalarField:
    """Nodal values of a scalar quantity on a Grid4D."""

    grid: Grid4D
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.size,):
            raise ValueError(
                f"field length {self.values.shape} does not match grid size {self.grid.size}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")


def build_grid(cfg: GridConfig, p: ModelParams) -> Grid4D:
    """Build the computational grid, jump-adjusting the rhat/z upper bounds.

    A positive rhat jump extends the rhat axis to rhat_max*(1+gamma_rhat);
    a negative FX jump truncates the z axis to z_max*(1+gamma_z).  Node
    counts are unchanged.
    """
    rhat_hi = cfg.rhat_max * (1.0 + p.gamma_rhat) if p.gamma_rhat > 0 else cfg.rhat_max
    # full devaluation (gamma_z = -1) would collapse the axis; the
    # post-jump FX is identically zero then, so the domain stays unscaled
    z_hi = cfg.z_max * (1.0 + p.gamma_z) if -1.0 < p.gamma_z < 0.0 else cfg.z_max
    axes = (
        np.linspace(0.0, 1.0, cfg.n_R),
        np.linspace(0.0, rhat_hi, cfg.n_rhat),
        np.linspace(cfg.y_min, 0.0, cfg.n_y),
        np.linspace(0.0, z_hi, cfg.n_z),
    )
    return Grid4D(axes)


def _cells_and_weights(axis: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bracketing cell index and local coordinate along one axis.

    Points outside the hull keep the nearest boundary cell and a local
    coordinate outside [0, 1]: that is multilinear extrapolation.
    """
    i = np.clip(np.searchsorted(axis, x, side="right") - 1, 0, len(axis) - 2)
    t = (x - axis[i]) / (axis[i + 1] - axis[i])
    return i, t


def cell_slices(grid: Grid4D, point, axes) -> tuple[slice, ...]:
    """Per-axis index ranges keeping, on each axis in ``axes``, only the
    two nodes of the cell that ``interpolation_matrix`` uses for
    ``point``, and every node of the other axes."""
    keep = [slice(None)] * len(grid.axes)
    for k in axes:
        i, _ = _cells_and_weights(grid.axes[k], point[k])
        keep[k] = slice(i, i + 2)
    return tuple(keep)


def interpolation_matrix(grid: Grid4D, points: np.ndarray) -> Csr:
    """Sparse operator evaluating fields at arbitrary points.

    Row m of the result applied to a flattened field gives the
    multilinear interpolation (or out-of-hull extrapolation) at
    ``points[m]``.  Each row holds the 2^k corners of the point's cell
    in ascending column order, k counting the axes with at least two
    nodes; a corner's weight is the product of the per-axis linear
    weights, taken in axis order.  An axis of one node takes weight 1
    on that node whatever the point's coordinate: the field is constant
    along it.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != 4:
        raise ValueError("points must have 4 columns (R, rhat, y, z)")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    m = pts.shape[0]
    cols, vals = np.zeros((m, 1), dtype=np.intp), np.ones((m, 1))
    for k, axis in enumerate(grid.axes):
        if len(axis) == 1:
            continue                # one corner of weight 1 at index 0
        i, t = _cells_and_weights(axis, pts[:, k])
        corners, weights = np.stack([i, i + 1], axis=1), np.stack([1.0 - t, t], axis=1)
        cols = (cols[:, :, None] * len(axis) + corners[:, None, :]).reshape(m, -1)
        vals = (vals[:, :, None] * weights[:, None, :]).reshape(m, -1)
    itype = index_dtype(max(m, grid.size, cols.size))
    return Csr(vals.ravel(), cols.ravel().astype(itype),
               (cols.shape[1] * np.arange(m + 1)).astype(itype), (m, grid.size))


def interpolate(f: ScalarField, x) -> float:
    """Multilinear interpolation of ``f`` at a single 4D point.

    Inside the hull this is ordinary multilinear interpolation, exact at
    nodes and on fields affine in each coordinate; outside the hull the
    boundary cell's multilinear form is extended (extrapolation).
    """
    E = interpolation_matrix(f.grid, np.asarray(x, dtype=float)[None, :])
    return float((E @ f.values)[0])
