"""Independent references: credit triangle, 1D Crank-Nicolson benchmark,
and a correlated-SDE Monte Carlo pricer of the same contract.

The Monte Carlo path prices the contract legs directly from simulated
dynamics (Euler scheme, intensity-threshold default sampling, explicit
jumps at the default time), so it shares nothing with the PDE engine
beyond the model definition.  The 1D benchmark reduces the domestic
contract to the log-hazard coordinate alone (valid for frozen recovery)
and integrates with Crank-Nicolson on standard finite differences.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from .model import ModelParams, validate_params

if TYPE_CHECKING:
    from .pricing import CdsSchedule

__all__ = ["McConfig", "McEstimate", "credit_triangle", "mc_spread",
           "cn_domestic_spread", "CN_Y_MIN"]

# lower end of the 1D benchmark's log-hazard axis [CN_Y_MIN, 0]
CN_Y_MIN = -6.0


def credit_triangle(lam: float, R: float) -> float:
    """Constant-hazard, continuous-premium closed form s = lambda*(1-R)."""
    if lam < 0.0:
        raise ValueError("hazard must be nonnegative")
    if not 0.0 <= R <= 1.0:
        raise ValueError("recovery must lie in [0, 1]")
    return lam * (1.0 - R)


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo controls.  Paths are simulated in fixed-size blocks,
    each on its own counter-based substream keyed by (seed, block), so
    results do not depend on how blocks are scheduled."""

    n_paths: int = 100_000
    step: float = 1.0 / 48.0
    seed: int = 0
    antithetic: bool = False
    block_size: int = 25_000

    def __post_init__(self):
        if self.n_paths < 1000:
            raise ValueError("n_paths must be >= 1000 for reported estimates")
        if not 0.0 < self.step <= 1.0 / 48.0 + 1e-12:
            raise ValueError("step must be positive and <= 1/48 yr")
        if not 0 <= self.seed < 2**128:
            raise ValueError("seed must lie in [0, 2**128)")


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    n_paths: int
    seed: int

    @property
    def mean_bps(self) -> float:
        return 1e4 * self.mean

    @property
    def std_error_bps(self) -> float:
        return 1e4 * self.std_error


def _simulate_block(p: ModelParams, schedule, cfg: McConfig, rng,
                    n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One block of paths; returns per-path samples of the protection
    leg, the annuity (coupon plus accrual, discounted and FX converted)
    and the survival-weighted discounted terminal FX Z_T e^{-rT} 1."""
    dtc = schedule.coupon_interval
    nsub = int(round(dtc / cfg.step))
    nsub = max(1, nsub)
    dt = dtc / nsub
    nsteps = schedule.m * nsub
    sqdt = np.sqrt(dt)
    chol = np.linalg.cholesky(np.asarray(p.rho, dtype=float)
                              + 1e-14 * np.eye(4))
    r = p.r_dom
    gz, gr = p.gamma_z, p.gamma_rhat

    if cfg.antithetic:
        half = (n + 1) // 2
        base = rng.standard_normal((nsteps, half, 4))
        normals = np.concatenate([base, -base], axis=1)[:, :n, :]
        expo = rng.exponential(size=half)
        expo = np.concatenate([expo, expo])[:n]
    else:
        normals = rng.standard_normal((nsteps, n, 4))
        expo = rng.exponential(size=n)

    R = np.full(n, p.R0)
    rr = np.full(n, p.rhat0)
    Y = np.full(n, p.y0)
    Z = np.full(n, p.z0)
    gam = np.zeros(n)
    alive = np.ones(n, bool)
    prot = np.zeros(n)
    annuity = np.zeros(n)
    accr = np.zeros(n)

    t = 0.0
    for k in range(nsteps):
        dW = (normals[k] @ chol.T) * sqdt
        lam = np.exp(Y)
        # left-rectangle intensity integration; default when the
        # accumulated hazard crosses the exponential threshold
        gam_next = gam + lam * dt
        newly = alive & (gam_next >= expo)
        if newly.any():
            frac = np.clip((expo[newly] - gam[newly])
                           / np.maximum(lam[newly] * dt, 1e-300), 0.0, 1.0)
            td = t + frac * dt
            # drift the FX to the default time, then apply the jump
            zd = Z[newly] * (1.0 + (r - rr[newly] - lam[newly] * gz) * frac * dt)
            zd = zd * (1.0 + gz)
            disc = np.exp(-r * td)
            prot[newly] = (1.0 - R[newly]) * zd * disc
            n_cpn = np.floor(td / dtc)
            accr[newly] = zd * disc * (td - n_cpn * dtc)
        # pre-default dynamics with the FX martingale compensator
        a = alive & ~newly
        sqR = np.sqrt(np.clip(R * (1.0 - R), 0.0, None))
        sqr = np.sqrt(np.clip(rr, 0.0, None))
        Rn = R + p.kappa_R * (p.theta_R - R) * dt + p.sigma_R * sqR * dW[:, 0]
        rrn = rr + p.kappa_rhat * (p.theta_rhat - np.clip(rr, 0.0, None)) * dt \
            + p.sigma_rhat * sqr * dW[:, 1]
        Zn = Z * (1.0 + (r - rr - lam * gz) * dt + p.sigma_z * dW[:, 2])
        Yn = Y + p.kappa_y * (p.theta_y - Y) * dt + p.sigma_y * dW[:, 3]
        R[a] = np.clip(Rn[a], 1e-9, 1.0 - 1e-9)
        rr[a] = rrn[a]
        Z[a] = np.maximum(Zn[a], 0.0)
        Y[a] = Yn[a]
        gam[a] = gam_next[a]
        alive = a
        t = (k + 1) * dt
        if (k + 1) % nsub == 0:
            annuity[alive] += Z[alive] * np.exp(-r * t) * dtc
    w_final = np.where(alive, Z * np.exp(-r * t), 0.0)
    return prot, annuity + accr, w_final


def mc_spread(p: ModelParams, schedule: "CdsSchedule",
              cfg: McConfig | None = None) -> McEstimate:
    """Par spread by direct simulation of the four-factor dynamics.

    The spread solves E[protection] = s * E[annuity + accrual]; the
    standard error comes from the delta method on the ratio.  With a
    fixed seed the estimate is bit-reproducible because each block of
    paths draws from a Philox substream jumped by its block index.
    """
    cfg = cfg or McConfig()
    validate_params(p)
    prot, ann, _ = _run_blocks(p, schedule, cfg)
    s = prot.mean() / ann.mean()
    resid = prot - s * ann
    se = resid.std(ddof=1) / np.sqrt(len(resid)) / ann.mean()
    return McEstimate(float(s), float(se), cfg.n_paths, cfg.seed)


def _run_blocks(p: ModelParams, schedule, cfg: McConfig):
    parts = ([], [], [])
    done = 0
    block = 0
    while done < cfg.n_paths:
        n = min(cfg.block_size, cfg.n_paths - done)
        rng = np.random.Generator(np.random.Philox(key=cfg.seed).jumped(block))
        for store, sample in zip(parts, _simulate_block(p, schedule, cfg, rng, n)):
            store.append(sample)
        done += n
        block += 1
    return tuple(np.concatenate(s) for s in parts)


def _estimate(sample: np.ndarray, cfg: McConfig) -> McEstimate:
    return McEstimate(float(sample.mean()),
                      float(sample.std(ddof=1) / np.sqrt(len(sample))),
                      cfg.n_paths, cfg.seed)


def mc_leg_estimates(p: ModelParams, schedule: "CdsSchedule",
                     cfg: McConfig | None = None) -> dict[str, McEstimate]:
    """Leg-level estimates: protection, annuity (coupon plus accrual)
    and the survival-weighted discounted terminal FX w_0(T)."""
    cfg = cfg or McConfig()
    validate_params(p)
    prot, ann, w_final = _run_blocks(p, schedule, cfg)
    return {"protection": _estimate(prot, cfg),
            "annuity": _estimate(ann, cfg),
            "w_maturity": _estimate(w_final, cfg)}


def mc_discounted_fx(p: ModelParams, horizon: float,
                     cfg: McConfig | None = None) -> McEstimate:
    """Sample mean of Z_T discounted by the realized rate differential.

    With the no-arbitrage drift r - rhat, Z_t * exp(-int (r - rhat_s) ds)
    is a martingale before default, so the estimate should bracket z0.
    Default machinery is left out (the check targets the pre-default
    dynamics; with gamma_z = 0 the default has no effect on Z).
    """
    cfg = cfg or McConfig()
    validate_params(p)
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    n = cfg.n_paths
    nsteps = max(1, int(round(horizon / cfg.step)))
    dt = horizon / nsteps
    sqdt = np.sqrt(dt)
    chol = np.linalg.cholesky(np.asarray(p.rho, dtype=float) + 1e-14 * np.eye(4))
    rr = np.full(n, p.rhat0)
    Z = np.full(n, p.z0)
    q = np.zeros(n)
    for _ in range(nsteps):
        dW = (rng.standard_normal((n, 4)) @ chol.T) * sqdt
        q += (p.r_dom - rr) * dt
        Zn = Z * (1.0 + (p.r_dom - rr) * dt + p.sigma_z * dW[:, 2])
        rr = rr + p.kappa_rhat * (p.theta_rhat - np.clip(rr, 0.0, None)) * dt \
            + p.sigma_rhat * np.sqrt(np.clip(rr, 0.0, None)) * dW[:, 1]
        Z = np.maximum(Zn, 0.0)
    sample = Z * np.exp(-q)
    return McEstimate(float(sample.mean()),
                      float(sample.std(ddof=1) / np.sqrt(n)), n, cfg.seed)


def _fd_axis_ops(y: np.ndarray) -> tuple[sps.csr_matrix, sps.csr_matrix]:
    """Second-order FD matrices with one-sided first-derivative edge rows
    and vanishing second derivative at both ends."""
    n = y.size
    h = y[1] - y[0]
    D1 = sps.lil_matrix((n, n))
    D2 = sps.lil_matrix((n, n))
    for i in range(1, n - 1):
        D1[i, i - 1], D1[i, i + 1] = -0.5 / h, 0.5 / h
        D2[i, i - 1], D2[i, i], D2[i, i + 1] = 1.0 / h**2, -2.0 / h**2, 1.0 / h**2
    D1[0, 0], D1[0, 1], D1[0, 2] = -1.5 / h, 2.0 / h, -0.5 / h
    D1[-1, -1], D1[-1, -2], D1[-1, -3] = 1.5 / h, -2.0 / h, 0.5 / h
    return D1.tocsr(), D2.tocsr()


def cn_domestic_spread(p: ModelParams, schedule: "CdsSchedule",
                       n_y: int = 201, y_min: float = CN_Y_MIN) -> float:
    """Domestic par spread from the 1D log-hazard reduction.

    Requires frozen recovery and y0 on the axis [y_min, 0] (the linear
    readout would clamp outside it).  Crank-Nicolson in time on the coupled
    (post-default, pre-default) pair, with the same 1/T-style terminal
    data and right-endpoint quadrature as the 4D engine; the market
    state is read out by linear interpolation at y0.
    """
    if p.kappa_R != 0.0 or p.sigma_R != 0.0:
        raise ValueError("1D reduction requires frozen recovery "
                         "(kappa_R = sigma_R = 0)")
    if not y_min <= p.y0 <= 0.0:
        raise ValueError(f"y0 = {p.y0} lies off the 1D log-hazard axis "
                         f"[{y_min}, 0.0]")
    y = np.linspace(y_min, 0.0, n_y)
    lam = np.exp(y)
    D1, D2 = _fd_axis_ops(y)
    L = (sps.diags(0.5 * p.sigma_y**2 * np.ones(n_y)) @ D2
         + sps.diags(p.kappa_y * (p.theta_y - y)) @ D1).tocsc()
    r = p.r_dom
    A1 = L - r * sps.identity(n_y, format="csc")
    A2 = L - sps.diags(r + lam)
    h = schedule.quad_step
    nsteps = schedule.m * schedule.n_quad
    I2 = sps.identity(2 * n_y, format="csc")
    M = sps.bmat([[A1, None], [sps.diags(lam), A2]], format="csc")
    lhs = spla.splu((I2 - 0.5 * h * M).tocsc())
    rhs = (I2 + 0.5 * h * M).tocsc()

    # One march of the columns [1; 0] and [0; 1].  The first gives the
    # accrual density proxy times the horizon (terminal data are linear
    # in 1/T); under frozen recovery protection is (1 - R0) times it.
    # The second keeps a zero post-default block (M is block lower
    # triangular), so its pre-default block is the coupon curve w.
    uv = np.kron(np.eye(2), np.ones((n_y, 1)))
    vals = np.empty((nsteps, 2))
    for k in range(nsteps):
        uv = lhs.solve(rhs @ uv)
        vals[k] = [np.interp(p.y0, y, f) for f in uv[n_y:].T]
    taus = schedule.quad_dates
    gtil, w = vals[:, 0] / taus, vals[:, 1]

    # right-endpoint quadrature; the common weight h cancels in the ratio
    t_left = np.repeat(schedule.coupon_interval * np.arange(schedule.m),
                       schedule.n_quad)
    protection = (1.0 - p.R0) * gtil.sum()
    return protection / (w.sum() + ((taus - t_left) * gtil).sum())
