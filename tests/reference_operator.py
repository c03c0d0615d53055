"""Term-by-term reference build of the operators, for tests only.

Each axis's D1 and D2 come from the public ``rbf_fd_weights`` and are
lifted to the tensor grid as I (x) M (x) I; every term, its coefficient
evaluated on the flattened coordinate fields, is added as diags(coef)
@ lifted operator, and the stacked transpose is a ``bmat`` of
transposed blocks.  The engine writes the same entries straight into
per-node slots; the tests require the two builds to agree bit for bit.

The module also reads matrices off the engine for tests that march or
inspect them: ``as_scipy`` views an engine ``Csr`` as scipy's
``csr_matrix``, for scipy's arithmetic; ``engine_blocks`` gives A1 and
A2 as the diagonal blocks of the engine's stacked operator, and
``slots_csr`` turns the slot values of a ``StencilSlots`` layout into a
CSR matrix.
"""
from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sps

from quantocds.grid import Csr, Grid4D, interpolation_matrix
from quantocds.model import BoundaryKind, ModelParams, boundary_regimes
from quantocds.pde import coupling_shift_matrix, stacked_transpose
from quantocds.rbffd import StencilSlots, rbf_fd_weights

_AXIS_BOUNDARIES = (("R=0", "R=1"), ("rhat=0", "rhat=max"),
                    ("y=min", "y=max"), ("z=0", "z=max"))


def lift_axis_operator(shape, axis: int, M: sps.spmatrix) -> sps.csr_matrix:
    """Lift a per-axis matrix to the full tensor-product grid.

    Returns the Kronecker product I (x) M (x) I in CSR, built directly:
    row (a, i, b) holds, in M's order and with M's explicit zeros, the
    entries of row i at columns (a*n + j)*inner + b.  Every row of M
    must store the same number of entries, as the 3-point stencil rows
    of ``axis_operators`` do.
    """
    M = sps.csr_matrix(M)
    n = shape[axis]
    outer, inner = math.prod(shape[:axis]), math.prod(shape[axis + 1:])
    width = np.diff(M.indptr)
    if M.shape != (n, n) or np.any(width != width[0]):
        raise ValueError(f"need an {n}x{n} matrix with the same number of "
                         "stored entries in every row")
    cols = M.indices.reshape(n, -1)[None, :, None, :]
    cols = ((np.arange(outer)[:, None, None, None] * n + cols) * inner
            + np.arange(inner)[None, None, :, None])
    data = np.broadcast_to(M.data.reshape(n, -1)[None, :, None, :], cols.shape)
    size = outer * n * inner
    return sps.csr_matrix((data.ravel(), cols.ravel(), width[0] * np.arange(size + 1)),
                          shape=(size, size))


def axis_operators(coords) -> tuple[sps.csr_matrix, sps.csr_matrix]:
    """Per-axis D1 and D2 from 3-point stencils, three stored entries a row.

    The weights are those of the unit stencil {0, h, 2h}, h = 1/(n-1),
    with eps = 2h (one-sided at the first and last rows, centered
    elsewhere), divided by the axis length to the derivative order, so
    the matrices differentiate in the physical coordinate.
    """
    coords = np.asarray(coords, dtype=float)
    n, length = coords.size, coords[-1] - coords[0]
    h = 1.0 / (n - 1)
    nodes = np.array([0.0, h, 2.0 * h])
    cols = (np.clip(np.arange(n) - 1, 0, n - 3)[:, None] + np.arange(3)).ravel()
    mats = []
    for order in (1, 2):
        w = np.empty((n, 3))
        for row, center in ((0, 0.0), (slice(1, -1), h), (-1, 2.0 * h)):
            w[row] = rbf_fd_weights(nodes, center, 2.0 * h, order).weights
        mats.append(sps.csr_matrix((w.ravel() / length**order, cols, 3 * np.arange(n + 1)),
                                   shape=(n, n)))
    return mats[0], mats[1]


def reference_terms(grid: Grid4D, p: ModelParams) -> list[tuple[np.ndarray, tuple[int, ...]]]:
    """The 14 terms of L as (coefficient at every node, axes) pairs,
    evaluated on the flattened coordinate fields."""
    R, rr, y, z = grid.coordinate_fields()
    RR = np.clip(R * (1.0 - R), 0.0, None)
    rp = np.clip(rr, 0.0, None)
    rho = np.asarray(p.rho, dtype=float)
    one = np.ones(grid.size)
    return [
        (0.5 * p.sigma_R**2 * RR, (0, 0)),
        (0.5 * p.sigma_rhat**2 * rp, (1, 1)),
        (0.5 * p.sigma_y**2 * one, (2, 2)),
        (0.5 * p.sigma_z**2 * z**2, (3, 3)),
        (p.kappa_R * (p.theta_R - R), (0,)),
        (p.kappa_rhat * (p.theta_rhat - rr), (1,)),
        (p.kappa_y * (p.theta_y - y), (2,)),
        ((p.r_dom - rr) * z, (3,)),
        (rho[0, 1] * p.sigma_R * p.sigma_rhat * np.sqrt(RR * rp), (0, 1)),
        (rho[0, 2] * p.sigma_R * p.sigma_z * z * np.sqrt(RR), (0, 3)),
        (rho[1, 2] * p.sigma_rhat * p.sigma_z * z * np.sqrt(rp), (3, 1)),
        (rho[0, 3] * p.sigma_R * p.sigma_y * np.sqrt(RR), (0, 2)),
        (rho[1, 3] * p.sigma_rhat * p.sigma_y * np.sqrt(rp), (2, 1)),
        (rho[3, 2] * p.sigma_y * p.sigma_z * z, (2, 3)),
    ]


def reference_L(grid: Grid4D, p: ModelParams) -> sps.csr_matrix:
    """L as the running sum of diags(coef) @ lifted operator, term by term."""
    regimes = boundary_regimes(p)
    van = BoundaryKind.VANISHING_SECOND_DERIVATIVE
    terms = [(coef, axes) for coef, axes in reference_terms(grid, p)
             if np.any(coef != 0.0)]
    D1, D2 = {}, {}
    for k in sorted({k for _, axes in terms for k in axes}):
        d1, d2 = axis_operators(grid.axes[k])
        for row, b in zip((0, -1), _AXIS_BOUNDARIES[k]):
            if regimes[b] is van:
                # zeroed in place: lift_axis_operator needs three stored entries per row
                d2.data.reshape(-1, 3)[row] = 0.0
        D1[k] = lift_axis_operator(grid.shape, k, d1)
        D2[k] = lift_axis_operator(grid.shape, k, d2)

    L = sps.csr_matrix((grid.size, grid.size))
    for coef, axes in terms:
        if len(axes) == 1:
            op = D1[axes[0]]
        elif axes[0] == axes[1]:
            op = D2[axes[0]]
        else:
            op = D1[axes[0]] @ D1[axes[1]]
        L = L + sps.diags(coef) @ op
    return L.tocsr()


def reference_pde1(grid: Grid4D, p: ModelParams, L: sps.csr_matrix) -> sps.csr_matrix:
    """A1 = L - r."""
    return (L - p.r_dom * sps.identity(grid.size, format="csr")).tocsr()


def reference_pde2(grid: Grid4D, p: ModelParams, L: sps.csr_matrix) -> sps.csr_matrix:
    """A2 = L - (r + lambda) - lambda*gamma_z*z*D1_z."""
    _, _, y, z = grid.coordinate_fields()
    lam = np.exp(y)
    A = L - sps.diags(p.r_dom + lam)
    if p.gamma_z != 0.0:
        d1z, _ = axis_operators(grid.axes[3])
        D1z = lift_axis_operator(grid.shape, 3, d1z)
        A = A - sps.diags(lam * p.gamma_z * z) @ D1z
    return A.tocsr()


def reference_stacked(grid: Grid4D, p: ModelParams) -> tuple[sps.csr_matrix, np.ndarray]:
    """S^T for S = [[A1, 0], [Lambda C, A2]] from transposed blocks, and
    the readout row at x0."""
    L = reference_L(grid, p)
    A1, A2 = reference_pde1(grid, p, L), reference_pde2(grid, p, L)
    _, _, y, _ = grid.coordinate_fields()
    coupling = sps.diags(np.exp(y)) @ as_scipy(coupling_shift_matrix(grid, p))
    St = sps.bmat([[A1.T, coupling.T], [None, A2.T]], format="csr")
    return St, interpolation_matrix(grid, p.x0[None, :]).toarray()[0]


def as_scipy(M: Csr) -> sps.csr_matrix:
    """scipy's ``csr_matrix`` on the arrays of the engine's ``Csr``."""
    return sps.csr_matrix((M.data, M.indices, M.indptr), shape=M.shape)


def same_csr(a: sps.csr_matrix, b: sps.csr_matrix) -> bool:
    """Equal shape and equal data, indices and indptr arrays."""
    return a.shape == b.shape and all(
        np.array_equal(getattr(a, attr), getattr(b, attr))
        for attr in ("data", "indices", "indptr"))


def engine_blocks(grid: Grid4D, p: ModelParams) -> tuple[sps.csr_matrix, sps.csr_matrix]:
    """A1 = L - r and A2, the diagonal blocks of the engine's stacked
    operator S, read off the transpose of ``stacked_transpose``."""
    S = as_scipy(stacked_transpose(grid, p)).T.tocsr()
    n = grid.size
    return S[:n, :n], S[n:, n:]


def slots_csr(slots: StencilSlots, vals: np.ndarray) -> sps.csr_matrix:
    """The matrix whose slot values are ``vals``, every slot stored
    (exact zeros included), with sorted rows."""
    nslots, size = len(vals), math.prod(slots.shape)
    M = sps.csr_matrix((vals.reshape(nslots, size).T.ravel(),
                        slots.cols.reshape(nslots, size).T.ravel(),
                        nslots * np.arange(size + 1)), shape=(size, size))
    M.sort_indices()
    return M


def slot_axis_operators(coords) -> tuple[sps.csr_matrix, sps.csr_matrix]:
    """The engine's D1 and D2 of one axis: a unit-coefficient term
    written into the slots of a one-axis grid."""
    slots = StencilSlots(Grid4D((np.asarray(coords, dtype=float),)), (0,), [])
    mats = []
    for term in ((0,), (0, 0)):
        vals = np.zeros(slots.cols.shape)
        slots.add(vals, 1.0, term)
        mats.append(slots_csr(slots, vals))
    return mats[0], mats[1]
