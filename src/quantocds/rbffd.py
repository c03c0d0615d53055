"""Gaussian RBF-FD differentiation weights and the 4D spatial operator.

Derivative weights come from local collocation with the Gaussian kernel
phi(d) = exp(-eps^2 d^2) on 3-node stencils: interior nodes use the
centered stencil, edge nodes a one-sided one.  Per-axis differentiation
matrices are lifted to the full tensor grid by Kronecker products and
combined with nodewise coefficient diagonals into the sparse operator

    L = sum_a 1/2 s_a(x) d^2/dx_a^2  +  sum_{a<b} c_ab(x) d^2/dx_a dx_b
        + sum_a b_a(x) d/dx_a

of the pricing equations (14 terms: 4 pure second derivatives, 6 mixed,
4 convection).

Numerical note: for uniformly spaced stencils the collocation system is
solved in closed form.  The naive 3x3 solve loses up to 11 digits at
fine spacings because the Gram matrix approaches the rank-one flat
limit (its determinant is (1-E)^3 (1+E) with E = exp(-2 eps^2 h^2)),
while the closed forms isolate every cancellation inside expm1/sinh
calls and stay accurate to machine precision for any eps*h.

The shape parameter follows the eps = 2h rule with h measured on the
axis rescaled to unit length, i.e. eps_hat = 2/(n-1) on [0,1]; weights
are computed in that frame and mapped back by the chain rule.  Applying
eps = 2h literally in physical units makes eps*h order one on coarse
wide axes, where raw Gaussian collocation rows stop annihilating affine
functions and the discretization loses consistency.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps

from .grid import Grid4D
from .model import ModelParams, boundary_regimes, BoundaryKind

__all__ = [
    "StencilWeights",
    "ShapeParameterError",
    "rbf_fd_weights",
    "build_axis_operators",
    "lift_axis_operator",
    "operator_terms",
    "assemble_L",
    "CONDITION_LIMIT",
]

CONDITION_LIMIT = 1e12

# (low, high) boundary names of each grid axis, as keyed by boundary_regimes
_AXIS_BOUNDARIES = (("R=0", "R=1"), ("rhat=0", "rhat=max"),
                   ("y=min", "y=max"), ("z=0", "z=max"))


class ShapeParameterError(ValueError):
    """Collocation matrix numerically singular; increase eps*h."""


@dataclass(frozen=True)
class StencilWeights:
    """Differentiation weights of one local stencil."""

    center: float
    nodes: np.ndarray
    weights: np.ndarray
    order: int
    epsilon: float


def _gaussian_rhs(nodes: np.ndarray, center: float, eps: float, order: int) -> np.ndarray:
    d = center - nodes
    e = np.exp(-(eps * d) ** 2)
    if order == 1:
        return -2.0 * eps**2 * d * e
    return (4.0 * eps**4 * d * d - 2.0 * eps**2) * e


def _uniform3_weights(h: float, eps: float, pos: str, order: int) -> np.ndarray:
    """Closed-form collocation weights for nodes {0, h, 2h}.

    ``pos`` locates the differentiation point: 'left' (x=0), 'mid'
    (x=h) or 'right' (x=2h).  Exact solutions of the 3x3 Gaussian
    collocation system, arranged so every difference of near-unit
    exponentials goes through expm1/sinh/tanh.
    """
    t = (eps * h) ** 2
    em = np.expm1(-2.0 * t)          # E - 1 < 0
    E = 1.0 + em
    sE = np.exp(-t)                  # sqrt(E)
    e2, e4 = eps**2, eps**4
    if pos == "mid":
        if order == 1:
            w = 2.0 * sE * e2 * h / (em * (E + 1.0))
            return np.array([w, 0.0, -w])
        w0 = 4.0 * sE * e4 * h * h / (em * em)
        w1 = -2.0 * e2 * (em * em + 4.0 * t * E) / (em * em)
        return np.array([w0, w1, w0])
    if order == 1:
        w0 = 2.0 * E * e2 * h * (2.0 * E + 1.0) / (em * (E + 1.0))
        w1 = 4.0 * E * e2 * h * np.cosh(t) / ((E + 1.0) * np.tanh(t))
        w2 = -e2 * h / np.sinh(2.0 * t)
        w = np.array([w0, w1, w2])
        return w if pos == "left" else -w[::-1]
    w0 = 2.0 * e2 * (2.0 * t * E * (4.0 * E * E - E - 1.0)
                     - em * em * (E + 1.0)) / (em * em * (E + 1.0))
    w1 = -4.0 * sE * e4 * h * h * (3.0 * E * E - 1.0) / (em * em)
    w2 = 4.0 * E * e4 * h * h * (3.0 * E - 1.0) / (em * em * (E + 1.0))
    w = np.array([w0, w1, w2])
    return w if pos == "left" else w[::-1]


def rbf_fd_weights(nodes, center: float, epsilon: float, order: int) -> StencilWeights:
    """Weights w with sum_i w_i f(x_i) ~ f^(order)(center).

    Solves the symmetric collocation system A w = b, A_ij =
    phi(|x_i - x_j|), b_i = phi^(order)(|center - x_i|).  Uniform
    3-node stencils whose center coincides with a node take the
    closed-form path; anything else is solved densely, guarded by a
    condition-number check.
    """
    nodes = np.asarray(nodes, dtype=float)
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if nodes.size < 3 or np.unique(nodes).size != nodes.size:
        raise ValueError("need at least 3 distinct nodes")
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")

    if nodes.size == 3:
        srt = np.argsort(nodes)
        xs = nodes[srt]
        h0, h1 = xs[1] - xs[0], xs[2] - xs[1]
        if np.isclose(h0, h1, rtol=1e-12, atol=0.0):
            for pos, xc in (("left", xs[0]), ("mid", xs[1]), ("right", xs[2])):
                if np.isclose(center, xc, rtol=0.0, atol=1e-13 * max(1.0, abs(xc))):
                    ws = _uniform3_weights(h0, epsilon, pos, order)
                    w = np.empty(3)
                    w[srt] = ws
                    return StencilWeights(center, nodes, w, order, epsilon)

    A = np.exp(-(epsilon * (nodes[:, None] - nodes[None, :])) ** 2)
    cond = np.linalg.cond(A)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise ShapeParameterError(
            f"collocation matrix condition {cond:.2e} exceeds {CONDITION_LIMIT:.0e}; "
            "increase epsilon*h or use a uniform stencil")
    b = _gaussian_rhs(nodes, center, epsilon, order)
    w = np.linalg.solve(A, b)
    return StencilWeights(center, nodes, w, order, epsilon)


def build_axis_operators(coords: np.ndarray) -> tuple[sps.csr_matrix, sps.csr_matrix]:
    """Per-axis sparse D1, D2 from 3-point RBF-FD stencils.

    On a uniform axis the weights do not depend on the node, so each
    order needs three stencils: one-sided at the first and last rows,
    centered everywhere in between.  They are generated on the axis
    mapped to unit length with eps = 2h = 2/(n-1) and scaled back, so
    the matrices differentiate in the physical coordinate.
    """
    coords = np.asarray(coords, dtype=float)
    n = coords.size
    if n < 4:
        raise ValueError("axis needs at least 4 nodes")
    length = coords[-1] - coords[0]
    h, eps = 1.0 / (n - 1), 2.0 / (n - 1)
    cols = (np.clip(np.arange(n) - 1, 0, n - 3)[:, None] + np.arange(3)).ravel()
    indptr = 3 * np.arange(n + 1)
    mats = []
    for order in (1, 2):
        w = np.empty((n, 3))
        w[0], w[1:-1], w[-1] = (_uniform3_weights(h, eps, pos, order)
                                for pos in ("left", "mid", "right"))
        mats.append(sps.csr_matrix(((w / length**order).ravel(), cols, indptr),
                                   shape=(n, n)))
    return mats[0], mats[1]


def lift_axis_operator(shape, axis: int, M: sps.spmatrix) -> sps.csr_matrix:
    """Lift a per-axis matrix to the full tensor-product grid.

    Returns the Kronecker product I (x) M (x) I in CSR, built directly:
    row (a, i, b) holds, in M's order and with M's explicit zeros, the
    entries of row i at columns (a*n + j)*inner + b.  Every row of M
    must store the same number of entries, as the 3-point stencil rows
    of ``build_axis_operators`` do.
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


def operator_terms(grid: Grid4D, p: ModelParams) -> list[tuple[np.ndarray, tuple[int, ...]]]:
    """The 14 terms of L as (nodal coefficient, axes) pairs, in the order
    ``assemble_L`` sums them.

    ``axes`` names the derivative: (k,) is d/dx_k, (k, k) is
    d^2/dx_k^2, and (a, b) with a != b is the mixed derivative
    D1_a D1_b.  Coefficients are evaluated nodewise; rhat is clipped at
    zero inside square roots (the CIR diffusion is only defined for
    rhat >= 0, and jump-extended grids never go negative anyway).
    """
    R, rr, y, z = grid.coordinate_fields()
    RR = np.clip(R * (1.0 - R), 0.0, None)
    rp = np.clip(rr, 0.0, None)
    rho = np.asarray(p.rho, dtype=float)
    one = np.ones(grid.size)
    return [
        # pure second derivatives
        (0.5 * p.sigma_R**2 * RR, (0, 0)),
        (0.5 * p.sigma_rhat**2 * rp, (1, 1)),
        (0.5 * p.sigma_y**2 * one, (2, 2)),
        (0.5 * p.sigma_z**2 * z**2, (3, 3)),
        # convection
        (p.kappa_R * (p.theta_R - R), (0,)),
        (p.kappa_rhat * (p.theta_rhat - rr), (1,)),
        (p.kappa_y * (p.theta_y - y), (2,)),
        ((p.r_dom - rr) * z, (3,)),
        # mixed derivatives; correlation indices follow (R, rhat, z, y)
        (rho[0, 1] * p.sigma_R * p.sigma_rhat * np.sqrt(RR * rp), (0, 1)),
        (rho[0, 2] * p.sigma_R * p.sigma_z * z * np.sqrt(RR), (0, 3)),
        (rho[1, 2] * p.sigma_rhat * p.sigma_z * z * np.sqrt(rp), (3, 1)),
        (rho[0, 3] * p.sigma_R * p.sigma_y * np.sqrt(RR), (0, 2)),
        (rho[1, 3] * p.sigma_rhat * p.sigma_y * np.sqrt(rp), (2, 1)),
        (rho[3, 2] * p.sigma_y * p.sigma_z * z, (2, 3)),
    ]


def assemble_L(grid: Grid4D, p: ModelParams) -> sps.csr_matrix:
    """Assemble the full diffusion-convection operator on the grid.

    Sums the nonzero terms of ``operator_terms``.  Boundary regimes
    come from ``boundary_regimes``: rows on a vanishing-second-derivative
    boundary lose the D2 contribution normal to that boundary;
    degenerate-pde boundaries keep the PDE row, whose normal diffusion
    coefficient vanishes there by itself.  One-sided first-derivative
    stencils at the edges come from the axis operators.  Axis operators
    are built only for axes some nonzero term differentiates along, so
    an axis no term uses may have fewer nodes than a stencil needs.
    """
    regimes = boundary_regimes(p)
    van = BoundaryKind.VANISHING_SECOND_DERIVATIVE
    terms = [(coef, axes) for coef, axes in operator_terms(grid, p)
             if np.any(coef != 0.0)]
    D1, D2 = {}, {}
    for k in sorted({k for _, axes in terms for k in axes}):
        d1, d2 = build_axis_operators(grid.axes[k])
        for row, b in zip((0, -1), _AXIS_BOUNDARIES[k]):
            if regimes[b].kind is van:
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
