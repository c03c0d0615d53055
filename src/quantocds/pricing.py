"""Par spreads of the quanto CDS from backward PDE solves.

Leg construction follows the defaultable-bond decomposition: the coupon
annuity sums the pre-default FX-converted discount factor w at the
coupon dates; the protection and accrual legs integrate the
default-density proxies obtained from the two-step solves.  Their
terminal data per unit horizon (``payoff_rows``, after its z row) are

    recovery kind    R * z * (1 + gamma_z)
    protection kind  (1 - R) * z * (1 + gamma_z)
    accrual kind     z * (1 + gamma_z)

and the proxy at horizon T is that solve divided by T (approximating
lambda / (e^{lambda T} - 1) in the small lambda*T regime).  Step 1
marches the post-default equation from that terminal; step 2 marches the
pre-default equation with coupling source lambda * u_hat and zero
terminal.  The protection and accrual cell integrals are right-endpoint
Riemann sums with N_q quadrature nodes per coupon interval
(``LegTerms``), and the par spread is

    s = sum(B_i) / sum(A_i + C_i - D_i).

Because the operators are time independent and T enters only as that
1/T, a single fixed-step sweep prices every quadrature maturity at
once.  Only the readout at x0 is ever used, so the pricer marches the
readout row backward under the transposed stacked operator (the adjoint
of the three forward sweeps) and takes every leg as a dot product with
its payoff row; one sweep gives w and the density proxy of every kind
asked.  The sweep's inputs are data: ``solve_grid``, S^T
(``pde.stacked_transpose``), ``readout_row`` and ``payoff_rows`` feed
``leg_curves``, and ``QuantoCdsPricer`` composes them.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .grid import Csr, Grid4D, GridConfig, build_grid, cell_slices, interpolation_matrix
from .model import ModelParams, require_integers, require_real
from .pde import inert_axes, rk4_sweep, stacked_transpose

__all__ = [
    "CdsSchedule",
    "LegTerms",
    "SpreadReport",
    "DegenerateAnnuityError",
    "TERMINAL_KINDS",
    "payoff_rows",
    "solve_grid",
    "readout_row",
    "leg_curves",
    "par_spread",
    "QuantoCdsPricer",
    "domestic_params",
    "domestic_spread",
    "quanto_basis",
]

TERMINAL_KINDS = ("recovery", "protection", "accrual")

# domestic spreads kept per process; a sweep needs one, a batch of
# distinct contracts a few
_DOMESTIC_MEMO_SIZE = 64


class DegenerateAnnuityError(ValueError):
    """Par-spread denominator is not positive."""


@dataclass(frozen=True)
class CdsSchedule:
    """Contract timetable: maturity T, m coupons, N_q quadrature nodes
    per coupon interval (right-endpoint Riemann sum)."""

    T: float = 5.0
    m: int = 120
    n_quad: int = 1

    def __post_init__(self):
        require_real("T", self.T)
        if not 0.0 < self.T < np.inf:
            raise ValueError("maturity must be positive and finite")
        require_integers(self, ("m", "n_quad"))
        if self.m < 1 or self.n_quad < 1:
            raise ValueError("m and n_quad must be >= 1")

    @property
    def coupon_interval(self) -> float:
        return self.T / self.m

    @property
    def quad_step(self) -> float:
        return self.coupon_interval / self.n_quad

    @property
    def quad_dates(self) -> np.ndarray:
        """All quadrature nodes t_{i-1} + k*h, k = 1..N_q, per cell."""
        return self.quad_step * np.arange(1, self.m * self.n_quad + 1)


@dataclass(frozen=True)
class LegTerms:
    """Per-coupon-cell leg terms (domestic currency per unit notional).

    With coupon interval dt, coupon dates t_i = i*dt and quadrature
    step h = dt / N_q:

    - A_i = dt * w(t_i), the discrete coupon paid at t_i if no default
      has occurred by then (the premium leg ``mc_spread`` prices),
      whatever N_q is;
    - B_i ~ the integral of the protection density gbar over
      (t_{i-1}, t_i], the protection leg;
    - C_i - D_i ~ the integral of (nu - t_{i-1}) * gtilde over the same
      cell, the premium accrued from the last coupon date to default.

    B, C and D are right-endpoint Riemann sums over the N_q nodes of
    each cell, so raising N_q refines them; A reads w at the coupon
    dates only.
    """

    A: np.ndarray   # dt * w at the coupon date  (coupon annuity)
    B: np.ndarray   # integral of gbar           (protection)
    C: np.ndarray   # integral of nu * gtilde
    D: np.ndarray   # t_{i-1} * integral of gtilde

    @classmethod
    def from_curves(cls, curves: dict[str, np.ndarray],
                    schedule: CdsSchedule) -> LegTerms:
        """Leg terms from the w, protection and accrual curves sampled
        at every quadrature date: A from w at the coupon dates (the
        last node of each cell), B, C and D as right-endpoint cell
        sums."""
        h = schedule.quad_step
        nq, m = schedule.n_quad, schedule.m
        t_left = schedule.coupon_interval * np.arange(0, m)
        w, gb, gt = (curves[k].reshape(m, nq) for k in ("w", "protection", "accrual"))
        nu_cells = schedule.quad_dates.reshape(m, nq)
        A = schedule.coupon_interval * w[:, -1]
        B = h * gb.sum(axis=1)
        C = h * (nu_cells * gt).sum(axis=1)
        D = h * t_left * gt.sum(axis=1)
        return cls(A, B, C, D)

    def accrual(self) -> np.ndarray:
        return self.C - self.D


@dataclass
class SpreadReport:
    """Foreign and domestic par spreads with the quanto basis."""

    s: float
    s_d: float
    s_d_1d: float | None
    legs: LegTerms
    meta: dict = field(default_factory=dict)

    @property
    def basis(self) -> float:
        return self.s - self.s_d

    @property
    def s_bps(self) -> float:
        return 1e4 * self.s

    @property
    def s_d_bps(self) -> float:
        return 1e4 * self.s_d

    @property
    def basis_bps(self) -> float:
        return 1e4 * self.basis

    def to_dict(self) -> dict:
        return {
            "s": self.s, "s_bps": self.s_bps,
            "s_d": self.s_d, "s_d_bps": self.s_d_bps,
            "basis": self.basis, "basis_bps": self.basis_bps,
            "s_d_1d_bps": None if self.s_d_1d is None else 1e4 * self.s_d_1d,
            "coupon_annuity": float(np.sum(self.legs.A)),
            "protection_leg": float(np.sum(self.legs.B)),
            "accrual_annuity": float(np.sum(self.legs.accrual())),
            "meta": self.meta,
        }


def payoff_rows(grid: Grid4D, p: ModelParams, kinds) -> np.ndarray:
    """The (1 + len(kinds), N) payoffs of a leg sweep on ``grid``: row 0
    the nodal z, the pre-default payoff of w, then the post-default
    terminal of each kind of ``kinds`` in turn.  Each row is written by
    broadcasting the R and z axes, the only coordinates they read."""
    R, z = grid.axes[0][:, None, None, None], grid.axes[3]
    factors = {"recovery": R, "protection": 1.0 - R, "accrual": 1.0}
    rows = np.empty((1 + len(kinds),) + grid.shape)
    rows[0] = z
    for row, kind in zip(rows[1:], kinds):
        if kind not in factors:
            raise ValueError(f"unknown terminal kind {kind!r}; expected one of {TERMINAL_KINDS}")
        np.multiply(factors[kind], z * (1.0 + p.gamma_z), out=row)
    return rows.reshape(len(rows), -1)


def par_spread(terms: LegTerms) -> float:
    """s = sum(B) / sum(A + C - D); scale invariant in the leg terms."""
    denom = float(np.sum(terms.A) + np.sum(terms.C) - np.sum(terms.D))
    if denom <= 0.0:
        raise DegenerateAnnuityError(f"annuity denominator {denom:.3e} not positive")
    return float(np.sum(terms.B)) / denom


def solve_grid(grid: Grid4D, p: ModelParams) -> Grid4D:
    """``grid`` cut to the nodes a sweep from the readout at x0 reaches
    (see ``QuantoCdsPricer``): on each inert axis (``pde.inert_axes``)
    the two slices whose cell holds x0, or the single node R0 on a
    frozen R axis, and every node of the other axes."""
    inert = inert_axes(grid, p)
    axes = [a[k] for a, k in zip(grid.axes, cell_slices(grid, p.x0, inert))]
    if 0 in inert:
        axes[0] = np.array([p.R0])
    return Grid4D(tuple(axes))


def readout_row(grid: Grid4D, x0) -> Csr:
    """The 1 x N row that reads a field on ``grid`` out at the point x0:
    multilinear interpolation, extrapolated from the boundary cell
    outside the hull (``interpolation_matrix``)."""
    return interpolation_matrix(grid, x0)


def leg_curves(St: Csr, readout: Csr, payoffs: np.ndarray,
               schedule: CdsSchedule) -> np.ndarray:
    """Curves of the payoff rows at every quadrature date, from one
    adjoint sweep u_k = P(h St)^k [0; r], k = 0..nsteps, of the readout
    row r under St; row i of the result is the curve of payoff row i.

    St is the transposed stacked operator on 2N rows: u[:N] is its
    post-default half and u[N:] its pre-default half.  Row 0 of
    ``payoffs`` (``payoff_rows``) pairs with the pre-default half and
    gives w.  The other rows are post-default terminals per unit
    horizon, so their step-k dots are divided by the horizon k*h, which
    gives density proxies.  The two sets of dots are the record tiles
    of ``pde.rk4_sweep``, so on an operator split in its two halves each
    half's thread takes its own.  The sweep starts from r as a sparse
    row and holds, beside St, its three state buffers and these
    payoffs.

    The dots are taken by ``np.einsum``, which calls no BLAS: a dot
    sums in one order on one thread, so the legs' bits and speed do not
    depend on the BLAS thread count.  einsum sums every row of a block
    of two or more rows in one order, but a lone row of more than 8192
    entries in another, so a lone terminal is read as a block of two
    equal rows: a curve's bits do not depend on the kinds swept with it.
    """
    pre, post = payoffs[0], payoffs[1:]
    n = len(pre)
    if len(post) == 1:
        post = np.broadcast_to(post, (2, n))
    u0 = Csr(readout.data, readout.indices + n, readout.indptr, (1, 2 * n))
    dots, w = rk4_sweep(St, u0, schedule.quad_step, schedule.m * schedule.n_quad,
                        (lambda u, k: np.einsum("...j,j->...", post, u),
                         lambda u, k: np.einsum("...j,j->...", pre, u)))
    densities = dots[1:, :len(payoffs) - 1] / schedule.quad_dates[:, None]
    return np.vstack([w[1:], densities.T])


class QuantoCdsPricer:
    """Backward PDE pricer on a fixed grid for one parameter set.

    The post-default (A1) and pre-default (A2) operators are coupled by
    the jump term into the block lower-triangular system

        S = [[A1, 0], [Lambda C, A2]]

    acting on (post-default, pre-default) fields.  The legs only need
    the market-state readout r (multilinear interpolation at x0 =
    (R0, rhat0, y0, z0)) of P(hS)^k v0, where P is the RK4 step
    polynomial, so the pricer keeps only S^T and r and sweeps u_k =
    P(hS^T)^k [0; r] once per quote; each leg is the dot product of u_k
    with its payoff (``leg_curves``).  With a truncated z axis (deep FX
    devaluation) the readout row extrapolates the nearly-z-linear fields
    from the boundary cell.

    S couples no two slices of an inert axis (``pde.inert_axes``:
    frozen recovery, a frozen foreign rate without a rate jump, a
    frozen hazard), so the sweep started from r stays on the two slices
    of each inert axis that bracket x0 and is exactly zero elsewhere.
    The pricer therefore builds S^T, r and the payoffs on
    ``solve_grid``, the configured ``grid`` cut to those two slices on
    every inert axis (``solve_grid(grid, p)``); its rows are the
    full-grid rows, entry for entry.

    A frozen R axis goes further, to the single node R0.  R is inert
    only when kappa_R = sigma_R = 0, and then no coefficient of S reads
    the R coordinate, so the two kept slices march identically and the
    readout's R weights only scale them; the payoffs are affine in R,
    so their two-slice interpolation is their value at R0.  Other inert
    axes keep two slices: S reads their coordinate (rhat in the z
    drift, y in the hazard).

    The inert axes are found on ``grid``.  S^T is built by
    ``pde.stacked_transpose(solve_grid, p)``, which evaluates every
    coefficient at the solve grid's own nodes (R0 on a frozen R axis);
    ``inert_axes`` finds the same axes on ``solve_grid`` as on ``grid``.
    A built pricer holds S^T, the quote's largest array, and the
    readout row ``readout`` as a sparse 1 x N ``grid.Csr``.  A sweep
    reads only the payoff rows its legs need: ``spread`` the w,
    protection and accrual rows, ``g_curve`` the w row and its kind's.
    S^T's build peaks at 1.2 times S^T (see ``stacked_transpose``),
    just below a spread's sweep, which holds S^T, its three state
    vectors of 2N doubles and three payoff rows, 9.1 N doubles in all
    above the built pricer (traced on [16]^4 with stochastic recovery:
    build 23.4 MiB, sweep 24.0 MiB, S^T 19.5 MiB).  ``spmv`` counts the
    SpMVs of every sweep the pricer ran.
    """

    def __init__(self, p: ModelParams, grid_cfg: GridConfig | None = None):
        self.p = p
        self.grid_cfg = grid_cfg or GridConfig()
        self.grid = build_grid(self.grid_cfg, self.p)
        self.inert_axes = inert_axes(self.grid, self.p)
        self.solve_grid = solve_grid(self.grid, self.p)
        self._stacked = stacked_transpose(self.solve_grid, self.p)
        self.readout = readout_row(self.solve_grid, self.p.x0)
        self.spmv = 0

    def _curves(self, schedule: CdsSchedule, kinds) -> dict[str, np.ndarray]:
        """w and the density proxy of each kind of ``kinds`` at every
        quadrature date, from one sweep of the module's ``leg_curves``."""
        payoffs = payoff_rows(self.solve_grid, self.p, kinds)
        curves = leg_curves(self._stacked, self.readout, payoffs, schedule)
        self.spmv += 4 * schedule.m * schedule.n_quad
        return dict(zip(("w",) + tuple(kinds), curves))

    def leg_curves(self, schedule: CdsSchedule) -> dict[str, np.ndarray]:
        """w and the density proxy of every terminal kind at every
        quadrature date, from one adjoint sweep."""
        return self._curves(schedule, TERMINAL_KINDS)

    def g_curve(self, kind: str, schedule: CdsSchedule) -> np.ndarray:
        """Density proxy of one kind at every quadrature date."""
        return self._curves(schedule, (kind,))[kind]

    def spread(self, schedule: CdsSchedule) -> tuple[float, LegTerms]:
        """Par spread and the quadrature cell integrals A_i, B_i, C_i,
        D_i (i = 1..m) it is priced from, swept with the protection and
        accrual terminals only: no leg reads the recovery curve."""
        terms = LegTerms.from_curves(self._curves(schedule, ("protection", "accrual")), schedule)
        return par_spread(terms), terms


def domestic_params(p: ModelParams) -> ModelParams:
    """Four-factor reduction pricing the domestic-economy contract.

    The FX and foreign-rate equations are excluded: z0 = 1, rhat pinned
    at the domestic rate with frozen dynamics, no jumps, and every
    correlation involving z or rhat removed.  From admissible ``p`` it
    is admissible when r_dom >= 0: zeroing rows and columns of rho with
    a unit diagonal keeps it symmetric and positive semi-definite (its
    R-y block is a principal submatrix of a PSD matrix).  A negative
    r_dom raises ParameterError as the reduction is built.
    """
    rho = p.rho.copy()
    for k in (1, 2):          # rhat and z rows/columns
        rho[k, :] = 0.0
        rho[:, k] = 0.0
        rho[k, k] = 1.0
    return replace(p, z0=1.0, rhat0=p.r_dom, gamma_z=0.0, gamma_rhat=0.0,
                   kappa_rhat=0.0, sigma_rhat=0.0, rho=rho)


def domestic_spread(p: ModelParams, schedule: CdsSchedule, method: str,
                    grid_cfg: GridConfig | None = None) -> float:
    """Domestic par spread s_d.

    method 'cn1d' runs the one-dimensional Crank-Nicolson benchmark
    (valid only where ``oracles.cn_applies``); 'pde4d' runs the full
    engine on the reduced parameter set.

    The result depends on ``p`` only through ``domestic_params(p)``, so
    it is memoized per process on (method, reduced parameters,
    schedule, grid config), the grid config counting only for 'pde4d'.
    A memo hit returns the float a fresh solve returns; errors are not
    memoized.
    """
    if method not in ("cn1d", "pde4d"):
        raise ValueError(f"unknown domestic method {method!r}")
    grid_cfg = (grid_cfg or GridConfig()) if method == "pde4d" else None
    return _solve_domestic(method, domestic_params(p), schedule, grid_cfg)


@lru_cache(maxsize=_DOMESTIC_MEMO_SIZE)
def _solve_domestic(method: str, p_dom: ModelParams, schedule: CdsSchedule,
                    grid_cfg: GridConfig | None) -> float:
    if method == "cn1d":
        from .oracles import cn_domestic_spread
        return cn_domestic_spread(p_dom, schedule)
    s_d, _ = QuantoCdsPricer(p_dom, grid_cfg).spread(schedule)
    return s_d


def quanto_basis(p: ModelParams, schedule: CdsSchedule,
                 grid_cfg: GridConfig | None = None) -> SpreadReport:
    """Foreign spread, domestic spread and their difference.

    The basis is quoted against the domestic spread computed by the same
    four-factor engine (reduced parameters), so shared discretization
    bias cancels; the 1D Crank-Nicolson value is attached where
    ``oracles.cn_applies`` holds.  Both are read through the memo of
    ``domestic_spread``, from one ``domestic_params(p)``.
    ``reference_line`` is the proportional-devaluation level
    (1 + gamma_z) * s_d of this quote (the sweep task computes its own
    per row).  ``grid_shape`` is the configured grid
    and ``solve_shape`` the grid the foreign sweep marched (one node on
    a frozen R axis, two on each other inert axis).
    ``x0_interpolated`` records whether x0 lies inside the grid hull on
    every axis (False means the readout extrapolated).  ``cached`` lists
    which of ``s_d`` and ``s_d_1d`` this call read from the per-process
    memo of ``domestic_spread`` instead of solving.  ``stage_s`` holds
    the wall seconds of the foreign pricer's ``build`` (grid, operator,
    readout row), of its ``sweep`` (the march and the legs) and of the
    ``domestic`` spreads (both memo lookups, with any solve they ran);
    ``spmv`` counts the SpMVs the foreign sweep ran, four per RK4 step.
    """
    # imported here: oracles builds its legs from this module
    from .oracles import cn_applies

    t0 = time.perf_counter()
    pricer = QuantoCdsPricer(p, grid_cfg)
    t_build = time.perf_counter()
    s, legs = pricer.spread(schedule)
    t_sweep = time.perf_counter()
    p_dom = domestic_params(p)
    cached = []

    def domestic(name: str, method: str, cfg: GridConfig | None) -> float:
        hits = _solve_domestic.cache_info().hits
        value = _solve_domestic(method, p_dom, schedule, cfg)
        if _solve_domestic.cache_info().hits > hits:
            cached.append(name)
        return value

    s_d = domestic("s_d", "pde4d", pricer.grid_cfg)
    s_d_1d = domestic("s_d_1d", "cn1d", None) if cn_applies(p_dom) else None
    t_domestic = time.perf_counter()
    meta = {
        "grid_shape": list(pricer.grid.shape),
        "solve_shape": list(pricer.solve_grid.shape),
        "quad_step": schedule.quad_step,
        "gamma_z": p.gamma_z,
        "gamma_rhat": p.gamma_rhat,
        "reference_line": (1.0 + p.gamma_z) * s_d,
        "x0_interpolated": all(bool(a[0] <= x <= a[-1])
                               for a, x in zip(pricer.grid.axes, p.x0)),
        "cached": cached,
        "stage_s": {"build": t_build - t0, "sweep": t_sweep - t_build,
                    "domestic": t_domestic - t_sweep},
        "spmv": pricer.spmv,
        "runtime_s": round(time.perf_counter() - t0, 3),
    }
    return SpreadReport(s=s, s_d=s_d, s_d_1d=s_d_1d, legs=legs, meta=meta)
