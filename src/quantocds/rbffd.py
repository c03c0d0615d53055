"""Gaussian RBF-FD differentiation weights and the 4D spatial operator.

Derivative weights come from local collocation with the Gaussian kernel
phi(d) = exp(-eps^2 d^2) on 3-node stencils: interior nodes use the
centered stencil, edge nodes a one-sided one.  They discretize the
sparse operator

    L = sum_a 1/2 s_a(x) d^2/dx_a^2  +  sum_{a<b} c_ab(x) d^2/dx_a dx_b
        + sum_a b_a(x) d/dx_a

of the pricing equations (14 terms: 4 pure second derivatives, 6 mixed,
4 convection).  On the tensor grid every row of L has the same shape:
the node itself, two stencil neighbours along each axis some term
differentiates along, and four corners for each mixed pair.  L is
stored in those fixed slots (``StencilSlots``): each term adds its
nodal coefficient times the per-axis stencil weight into its slots, in
term order.  ``pde.stacked_transpose`` has ``operator_slots`` write the
table into the arrays of the transposed stacked operator of both
pricing equations, copies the slot values row-major behind it and
transposes them straight into that operator, so the untransposed
operator is never built (its docstring gives the build's peak memory).

Numerical note: every stencil is uniform with 3 nodes and centred on
one of them, so the collocation system is solved in closed form.  A
naive 3x3 solve loses up to 11 digits at fine spacings because the Gram
matrix approaches the rank-one flat limit (its determinant is
(1-E)^3 (1+E) with E = exp(-2 eps^2 h^2)), while the closed forms
isolate every cancellation inside expm1/sinh calls and stay accurate
to machine precision for any eps*h.

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
from typing import Callable

import numpy as np

from .grid import Grid4D
from .model import ModelParams, boundary_regimes, BoundaryKind

__all__ = [
    "StencilWeights",
    "rbf_fd_weights",
    "operator_terms",
    "StencilSlots",
    "operator_slots",
]

# (low, high) boundary names of each grid axis, as keyed by boundary_regimes
_AXIS_BOUNDARIES = (("R=0", "R=1"), ("rhat=0", "rhat=max"),
                   ("y=min", "y=max"), ("z=0", "z=max"))


@dataclass(frozen=True)
class StencilWeights:
    """Differentiation weights of one local stencil."""

    center: float
    nodes: np.ndarray
    weights: np.ndarray
    order: int
    epsilon: float


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

    The exact solution of the symmetric collocation system A w = b,
    A_ij = phi(|x_i - x_j|), b_i = phi^(order)(|center - x_i|), taken
    in closed form.  Only uniform 3-node stencils whose center is one
    of the nodes have one; any other stencil raises ValueError.
    """
    nodes = np.asarray(nodes, dtype=float)
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if not np.all(np.isfinite(nodes)):
        raise ValueError(f"nodes must be finite, got {nodes}")
    if nodes.size != 3 or np.unique(nodes).size != 3:
        raise ValueError(f"closed-form weights need 3 distinct nodes, got {nodes}")
    if not np.isfinite(center):
        raise ValueError(f"center must be finite, got {center!r}")
    if not 0.0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")

    srt = np.argsort(nodes)
    xs = nodes[srt]
    h0, h1 = xs[1] - xs[0], xs[2] - xs[1]
    if not np.isclose(h0, h1, rtol=1e-12, atol=0.0):
        raise ValueError(f"closed-form weights need uniform nodes, got spacings {h0!r}, {h1!r}")
    for pos, xc in (("left", xs[0]), ("mid", xs[1]), ("right", xs[2])):
        if np.isclose(center, xc, rtol=0.0, atol=1e-13 * max(1.0, abs(xc))):
            w = np.empty(3)
            w[srt] = _uniform3_weights(h0, epsilon, pos, order)
            return StencilWeights(center, nodes, w, order, epsilon)
    raise ValueError(f"closed-form weights need the center on a node, got {center!r}")


def _stencil_tables(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First stencil column of every row, and the D1 and D2 weights of
    the row's three stencil columns, in ascending column order."""
    coords = np.asarray(coords, dtype=float)
    n = coords.size
    if n < 4:
        raise ValueError("axis needs at least 4 nodes")
    length = coords[-1] - coords[0]
    h, eps = 1.0 / (n - 1), 2.0 / (n - 1)
    weights = []
    for order in (1, 2):
        w = np.empty((n, 3))
        w[0], w[1:-1], w[-1] = (_uniform3_weights(h, eps, pos, order)
                                for pos in ("left", "mid", "right"))
        weights.append(w / length**order)
    return np.clip(np.arange(n) - 1, 0, n - 3), weights[0], weights[1]


def operator_terms(grid: Grid4D, p: ModelParams) -> list[tuple[np.ndarray, tuple[int, ...]]]:
    """The terms of L that do not vanish on the grid, as (nodal
    coefficient, axes) pairs, in the order ``operator_slots`` sums them.
    They are the one record of which parameters feed which axis:
    ``operator_slots`` lays out its slots from them and
    ``pde.inert_axes`` finds the inert axes from them.

    L has 14 terms: 4 pure second derivatives, 4 convections and 6
    mixed derivatives.  ``axes`` names the derivative: (k,) is d/dx_k,
    (k, k) is d^2/dx_k^2, and (a, b) with a != b is the mixed
    derivative D1_a D1_b.  Each coefficient is a 4-dimensional array
    broadcastable to ``grid.shape``, of length 1 along every axis it
    does not read; its broadcast holds the nodal values.  rhat is
    clipped at zero inside square roots (the CIR diffusion is only
    defined for rhat >= 0, and jump-extended grids never go negative
    anyway).
    """
    R, rr, y, z = (a.reshape([-1 if j == k else 1 for j in range(4)])
                   for k, a in enumerate(grid.axes))
    RR = np.clip(R * (1.0 - R), 0.0, None)
    rp = np.clip(rr, 0.0, None)
    rho = p.rho
    one = np.ones((1, 1, 1, 1))
    terms = [
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
    return [(coef, axes) for coef, axes in terms if np.any(coef != 0.0)]


class StencilSlots:
    """Fixed per-row entry layout of the operators on a tensor grid.

    Every row stores its entries in the same slots.  Slot 0 is the node
    itself.  Each axis in ``axes`` owns two slots, the other two nodes
    of the row's 3-point stencil along it in ascending order.  Each
    mixed pair (a, b) in ``pairs`` owns four, the nodes reached by
    moving to a non-self stencil position along both axes.
    ``cols[s]`` holds slot s's column for every row, as a grid-shaped
    array; a slot-value array has the same shape.  ``cols``, if given,
    is the integer array of that shape the columns are written into.

    The per-axis weights are kept in slot order: entry 0 is the node
    itself, entries 1 and 2 its two neighbours.  A D2 row listed in
    ``zeroed`` as (axis, row index) carries zero weights.
    """

    def __init__(self, grid: Grid4D, axes, pairs, zeroed=(), cols=None):
        self.shape = shape = grid.shape
        self._first = {}
        self._d1, self._d2 = {}, {}
        table = (self.count(axes, pairs),) + shape
        node = np.arange(grid.size, dtype=np.int32).reshape(shape)
        if cols is None:
            cols = np.empty(table, dtype=np.int32)
        elif cols.shape != table:
            raise ValueError(f"slot columns need shape {table}, got {cols.shape}")
        self.cols = cols
        self.cols[0] = node
        offsets = {}
        for i, k in enumerate(axes):
            lo, w1, w2 = _stencil_tables(grid.axes[k])
            n = lo.size
            # stencil positions in slot order: self first, then the others
            order = np.tile([1, 0, 2], (n, 1))
            order[0], order[-1] = (0, 1, 2), (2, 0, 1)
            rows = np.arange(n)[:, None]
            w2 = w2.copy()
            w2[[row for axis, row in zeroed if axis == k]] = 0.0
            bshape = (3,) + tuple(n if j == k else 1 for j in range(len(shape)))
            self._d1[k] = w1[rows, order].T.reshape(bshape)
            self._d2[k] = w2[rows, order].T.reshape(bshape)
            offsets[k] = ((lo[:, None] + order - rows).T.reshape(bshape)
                          * math.prod(shape[k + 1:]))
            self._first[k] = s = 1 + 2 * i
            np.add(node, offsets[k][1:], out=self.cols[s:s + 2])
        for i, (a, b) in enumerate(pairs):
            self._first[a, b] = s = 1 + 2 * len(axes) + 4 * i
            for ja in (1, 2):
                np.add(node, offsets[a][ja] + offsets[b][1:], out=self.cols[s:s + 2])
                s += 2

    @staticmethod
    def count(axes, pairs) -> int:
        """Slots per row: the node, two per axis and four per mixed pair."""
        return 1 + 2 * len(axes) + 4 * len(pairs)

    def _axis_slot(self, k: int, j: int) -> int:
        """Slot of slot-order stencil position j along axis k."""
        return self._first[k] + j - 1 if j else 0

    def add(self, vals: np.ndarray, coef: np.ndarray, axes: tuple[int, ...]) -> None:
        """Add the term coef * derivative ``axes`` (as in
        ``operator_terms``; ``coef`` broadcastable to the grid shape)
        into the slot values ``vals``, in place."""
        if len(axes) == 1 or axes[0] == axes[1]:
            w = (self._d1 if len(axes) == 1 else self._d2)[axes[0]]
            for j in range(3):
                vals[self._axis_slot(axes[0], j)] += coef * w[j]
            return
        a, b = axes
        for ja in range(3):
            for jb in range(3):
                if ja and jb:
                    s = self._first[axes] + 2 * (ja - 1) + jb - 1
                else:
                    s = self._axis_slot(a, ja) if ja else self._axis_slot(b, jb)
                vals[s] += coef * (self._d1[a][ja] * self._d1[b][jb])


def operator_slots(grid: Grid4D, p: ModelParams,
                   table: Callable[[tuple[int, ...]], tuple[np.ndarray, np.ndarray]],
                   ) -> tuple[StencilSlots, np.ndarray]:
    """Slot layout of L on ``grid`` and the slot values of L.

    L's terms are the ``operator_terms`` of ``grid``.  Slots are laid
    out for every axis some term differentiates along, so an axis no
    term differentiates along may hold any number of nodes, one
    included.  Boundary regimes come from ``boundary_regimes``: rows on
    a vanishing-second-derivative boundary lose the D2 weights normal to
    that boundary; degenerate-pde boundaries keep the PDE row, whose
    normal diffusion coefficient vanishes there by itself.

    ``table`` is called with the table's shape (slots, then
    ``grid.shape``) and returns the integer and the float array of that
    shape that take the slot columns and values, so the caller places
    the table inside its own allocation.
    """
    terms = operator_terms(grid, p)
    live = sorted({k for _, term_axes in terms for k in term_axes})
    pairs = [k for _, k in terms if len(k) == 2 and k[0] != k[1]]
    regimes = boundary_regimes(p)
    zeroed = [(k, row) for k in live
              for row, b in zip((0, -1), _AXIS_BOUNDARIES[k])
              if regimes[b] is BoundaryKind.VANISHING_SECOND_DERIVATIVE]
    shape = (StencilSlots.count(live, pairs),) + grid.shape
    cols, vals = table(shape)
    vals.fill(0.0)
    slots = StencilSlots(grid, live, pairs, zeroed, cols)
    for coef, k in terms:
        slots.add(vals, coef, k)
    return slots, vals
