"""Par spreads of the quanto CDS from backward PDE solves.

Leg construction follows the defaultable-bond decomposition: the coupon
annuity integrates the pre-default FX-converted discount factor w; the
protection and accrual legs integrate the default-density proxies
obtained from the two-step solves.  Their terminal data per unit
horizon (``terminal_condition``) are

    recovery kind    R * z * (1 + gamma_z)
    protection kind  (1 - R) * z * (1 + gamma_z)
    accrual kind     z * (1 + gamma_z)

and the proxy at horizon T is that solve divided by T (approximating
lambda / (e^{lambda T} - 1) in the small lambda*T regime).  Step 1
marches the post-default equation from that terminal; step 2 marches the
pre-default equation with coupling source lambda * u_hat and zero
terminal.  Cell integrals are right-endpoint Riemann sums with N_q
quadrature nodes per coupon interval, and the par spread is

    s = sum(B_i) / sum(A_i + C_i - D_i).

Because the operators are time independent and T enters only as that
1/T, a single fixed-step sweep prices every quadrature maturity at
once.  Only the readout at x0 is ever used, so the pricer marches the
readout row backward under the transposed stacked operator (the adjoint
of the three forward sweeps) and takes every leg as a dot product with
its payoff; one sweep gives w and all three density proxies.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .grid import (Grid4D, GridConfig, ScalarField, build_grid, cell_slices,
                   interpolation_matrix)
from .model import ModelParams, require_integers, require_real
from .pde import inert_axes, rk4_sweep, stacked_transpose
from .rbffd import operator_terms

__all__ = [
    "CdsSchedule",
    "LegTerms",
    "SpreadReport",
    "DegenerateAnnuityError",
    "TERMINAL_KINDS",
    "terminal_condition",
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
    """Per-coupon-cell integrals (domestic currency per unit notional)."""

    A: np.ndarray   # integral of w      (coupon annuity)
    B: np.ndarray   # integral of gbar   (protection)
    C: np.ndarray   # integral of nu * gtilde
    D: np.ndarray   # t_{i-1} * integral of gtilde

    @classmethod
    def from_curves(cls, curves: dict[str, np.ndarray],
                    schedule: CdsSchedule) -> LegTerms:
        """Right-endpoint cell integrals of the w, protection and accrual
        curves sampled at every quadrature date."""
        h = schedule.quad_step
        nq, m = schedule.n_quad, schedule.m
        t_left = schedule.coupon_interval * np.arange(0, m)
        w, gb, gt = (curves[k].reshape(m, nq) for k in ("w", "protection", "accrual"))
        nu_cells = schedule.quad_dates.reshape(m, nq)
        A = h * w.sum(axis=1)
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


def terminal_condition(kind: str, grid: Grid4D, p: ModelParams) -> ScalarField:
    """Nodal terminal field of the step-1 solve for the given kind, per
    unit horizon: the density proxy at horizon T is the solve from this
    field divided by T (``QuantoCdsPricer.leg_curves``)."""
    if kind not in TERMINAL_KINDS:
        raise ValueError(f"unknown terminal kind {kind!r}; expected one of {TERMINAL_KINDS}")
    R, _, _, z = grid.coordinate_fields()
    share = {"recovery": R, "protection": 1.0 - R, "accrual": 1.0}[kind]
    return ScalarField(grid, share * (z * (1.0 + p.gamma_z)))


def par_spread(terms: LegTerms) -> float:
    """s = sum(B) / sum(A + C - D); scale invariant in the leg terms."""
    denom = float(np.sum(terms.A) + np.sum(terms.C) - np.sum(terms.D))
    if denom <= 0.0:
        raise DegenerateAnnuityError(f"annuity denominator {denom:.3e} not positive")
    return float(np.sum(terms.B)) / denom


class QuantoCdsPricer:
    """Backward PDE pricer on a fixed grid for one parameter set.

    The post-default (A1) and pre-default (A2) operators are coupled by
    the jump term into the block lower-triangular system

        S = [[A1, 0], [Lambda C, A2]]

    acting on (post-default, pre-default) fields.  The legs only need
    the market-state readout r (multilinear interpolation at x0 =
    (R0, rhat0, y0, z0)) of P(hS)^k v0, where P is the RK4 step
    polynomial, so the pricer keeps only S^T and sweeps u_k = P(hS^T)^k
    [0; r] once; each leg is the dot product of u_k with its payoff.
    With a truncated z axis (deep FX devaluation) the readout row
    extrapolates the nearly-z-linear fields from the boundary cell.

    S couples no two slices of an inert axis (``pde.inert_axes``:
    frozen recovery, a frozen foreign rate without a rate jump, a
    frozen hazard), so the sweep started from r stays on the two slices
    of each inert axis that bracket x0 and is exactly zero elsewhere.
    The pricer therefore builds S^T, r and the payoffs on ``solve_grid``,
    the configured ``grid`` cut to those two slices on every inert
    axis; its rows are the full-grid rows, entry for entry.

    A frozen R axis goes further, to the single node R0.  R is inert
    only when kappa_R = sigma_R = 0, and then no coefficient of S reads
    the R coordinate, so the two kept slices march identically and the
    readout's R weights only scale them; the payoffs are affine in R,
    so their two-slice interpolation is their value at R0.  Other inert
    axes keep two slices: S reads their coordinate (rhat in the z
    drift, y in the hazard).

    The operator terms are evaluated once, on ``grid``: they decide the
    inert axes, and their cut to ``solve_grid`` is what S^T is built
    from (``pde.stacked_transpose`` writes the CSR arrays of S from the
    slot table of L and transposes them once).  ``spmv`` counts the
    SpMVs of every sweep the pricer ran.
    """

    def __init__(self, p: ModelParams, grid_cfg: GridConfig | None = None):
        self.p = p
        self.grid_cfg = grid_cfg or GridConfig()
        self.grid = build_grid(self.grid_cfg, self.p)
        terms = operator_terms(self.grid, self.p)
        self.inert_axes = inert_axes(self.p, terms)
        keep = list(cell_slices(self.grid, self.p.x0, self.inert_axes))
        axes = [a[k] for a, k in zip(self.grid.axes, keep)]
        if 0 in self.inert_axes:
            # no remaining term reads R: node 0's coefficients are R0's
            keep[0], axes[0] = slice(0, 1), np.array([self.p.R0])
        self.solve_grid = g = Grid4D(tuple(axes))
        keep = tuple(keep)
        terms = [(np.broadcast_to(coef, self.grid.shape)[keep], k) for coef, k in terms]
        self._stacked = stacked_transpose(g, self.p, terms)
        self._readout = interpolation_matrix(g, self.p.x0[None, :]).toarray()[0]
        self.spmv = 0

    def leg_curves(self, schedule: CdsSchedule) -> dict[str, np.ndarray]:
        """w and the density proxy of every terminal kind at every
        quadrature date, from one adjoint sweep.

        The pre-default half u[N:] of the sweep pairs with the terminal
        z (w, whose post-default value vanishes); the post-default half
        u[:N] pairs with the post-default terminal of each kind.  The
        sweep uses the terminals per unit horizon and divides the step-k
        value by the horizon k*h.  Each step's record
        is ``z @ u[N:]`` and one (3, N) block of density terminals
        against ``u[:N]``, written into one reused buffer; no product
        touches the half of u a leg does not read.
        """
        g = self.solve_grid
        n = g.size
        _, _, _, z = g.coordinate_fields()
        densities = np.stack([terminal_condition(kind, g, self.p).values
                              for kind in TERMINAL_KINDS])
        rec = np.empty(1 + len(TERMINAL_KINDS))
        rec_densities = rec[1:]

        def record(u: np.ndarray, k: int) -> np.ndarray:
            rec[0] = z.dot(u[n:])
            np.dot(densities, u[:n], out=rec_densities)
            return rec

        u0 = np.concatenate([np.zeros(n), self._readout])
        vals = rk4_sweep(self._stacked, u0, schedule.quad_step,
                         schedule.m * schedule.n_quad, record)[1:]
        self.spmv += 4 * len(vals)          # one row per step swept
        curves = {"w": vals[:, 0]}
        for i, kind in enumerate(TERMINAL_KINDS):
            curves[kind] = vals[:, i + 1] / schedule.quad_dates
        return curves

    def g_curve(self, kind: str, schedule: CdsSchedule) -> np.ndarray:
        """Density proxy of one kind at every quadrature date."""
        if kind not in TERMINAL_KINDS:
            raise ValueError(f"unknown terminal kind {kind!r}; expected one of {TERMINAL_KINDS}")
        return self.leg_curves(schedule)[kind]

    def spread(self, schedule: CdsSchedule) -> tuple[float, LegTerms]:
        """Par spread and the quadrature cell integrals A_i, B_i, C_i,
        D_i (i = 1..m) it is priced from."""
        terms = LegTerms.from_curves(self.leg_curves(schedule), schedule)
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
