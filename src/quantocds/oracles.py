"""Independent references: credit triangle, 1D Crank-Nicolson benchmark,
and a correlated-SDE Monte Carlo pricer of the same contract.

The Monte Carlo path prices the contract legs directly from simulated
dynamics (Euler scheme, intensity-threshold default sampling, explicit
jumps at the default time), so it shares nothing with the PDE engine
beyond the model definition.  The 1D benchmark reduces the domestic
contract to the log-hazard coordinate alone (valid for frozen recovery)
and owns only its operator, standard finite differences, and its
Crank-Nicolson stepper; it reads out at x0 with the engine's
``interpolation_matrix`` and builds the legs and the spread with the
engine's ``LegTerms`` and ``par_spread``.  Its finite-difference
matrices are dense numpy arrays, its readout row is the engine's made
dense, and its stepper applies the dense one-step propagator of the CN
system, built once per call by three ``numpy.linalg.solve`` calls, so
the oracle loads neither ``scipy.sparse.linalg`` nor ``scipy.linalg``
(``grid`` gives the import footprint).
"""
from __future__ import annotations

import itertools
import math
import queue
import threading
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .grid import Grid4D, interpolation_matrix
from .model import ModelParams, require_integers, require_real
from .pricing import CdsSchedule, LegTerms, par_spread

__all__ = ["McConfig", "McEstimate", "credit_triangle", "mc_spread",
           "mc_leg_estimates", "cn_applies", "cn_domestic_spread", "CN_Y_MIN"]

# lower end of the 1D benchmark's log-hazard axis [CN_Y_MIN, 0]
CN_Y_MIN = -6.0
# the Monte Carlo Euler step is at most 1 / _MIN_STEPS_PER_YEAR years
_MIN_STEPS_PER_YEAR = 48


def credit_triangle(lam: float, R: float) -> float:
    """Constant-hazard, continuous-premium closed form s = lambda*(1-R)."""
    if not 0.0 <= lam < np.inf:
        raise ValueError("hazard must be nonnegative and finite")
    if not 0.0 <= R <= 1.0:
        raise ValueError("recovery must lie in [0, 1]")
    return lam * (1.0 - R)


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo controls.  Paths are simulated in blocks of
    ``block_size``, block b on the Philox stream of ``seed`` jumped b
    times, so a result reproduces at a fixed seed and block size.  A
    buffer keeps the first half of a block's normals; the second half
    is drawn again, from the Philox state saved at its start, as the
    march reaches it.  A helper thread draws the next block while the
    current block marches.  Each coupon interval runs in equal Euler
    steps, ``round(interval / step)`` of them, or more if that many
    would exceed 1/48 yr."""

    n_paths: int = 100_000
    step: float = 1.0 / 48.0
    seed: int = 0
    block_size: int = 25_000

    def __post_init__(self):
        require_integers(self, ("n_paths", "seed", "block_size"))
        require_real("step", self.step)
        if self.block_size < 1:
            raise ValueError("block_size must be positive")
        if self.n_paths < 1000:
            raise ValueError("n_paths must be >= 1000 for reported estimates")
        if not 0.0 < self.step <= 1.0 / _MIN_STEPS_PER_YEAR + 1e-12:
            raise ValueError(f"step must be positive and <= 1/{_MIN_STEPS_PER_YEAR} yr")
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


def _mean_reverting(out, x, level, kappa, theta, dt, vol, dw, tmp) -> None:
    """out = x + kappa * (theta - level) * dt + vol * dw, evaluated in
    place left to right, so it rounds exactly as the written expression."""
    np.subtract(theta, level, out=out)
    out *= kappa
    out *= dt
    out += x
    out += np.multiply(vol, dw, out=tmp)


def _simulate_block(p: ModelParams, dtc: float, nsub: int, normals: Iterable[np.ndarray],
                    expo: np.ndarray, row_read: Callable[[], None]
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One block of paths; returns per-path samples of the protection
    leg, the annuity (coupon plus accrual, discounted and FX converted)
    and the survival-weighted discounted terminal FX Z_T e^{-rT} 1.

    ``normals`` yields one (paths, 4) row per step, the step-k normals
    of every path (a (steps, paths, 4) array does), and ``expo`` holds
    every path's default threshold.  ``row_read()`` is called once per
    step, after the last read of its row, so the row may then be
    overwritten.  The Euler step updates preallocated arrays in place.
    """
    n = len(expo)
    dt = dtc / nsub
    sqdt = np.sqrt(dt)
    cholT = np.ascontiguousarray(np.linalg.cholesky(p.rho + 1e-14 * np.eye(4)).T)
    r, gz = p.r_dom, p.gamma_z

    # float arrays even for integral fields ("y0": -40 in a config):
    # the Euler step writes floats into them in place
    R = np.full(n, p.R0, dtype=float)
    rr = np.full(n, p.rhat0, dtype=float)
    Y = np.full(n, p.y0, dtype=float)
    Z = np.full(n, p.z0, dtype=float)
    gam = np.zeros(n)
    alive = np.ones(n, bool)
    prot = np.zeros(n)
    annuity = np.zeros(n)
    accr = np.zeros(n)
    dW = np.empty((4, n)).T          # column-major: each factor's draws contiguous
    lam, gam_next, x, vol, rp, tmp = (np.empty(n) for _ in range(6))
    newly = np.empty(n, bool)

    t = 0.0
    for k, row in enumerate(normals):
        np.matmul(row, cholT, out=dW)
        row_read()
        dW *= sqdt
        np.exp(Y, out=lam)
        # left-rectangle intensity integration; default when the
        # accumulated hazard crosses the exponential threshold
        np.multiply(lam, dt, out=gam_next)
        gam_next += gam
        np.greater_equal(gam_next, expo, out=newly)
        newly &= alive
        if newly.any():
            d = np.flatnonzero(newly)
            frac = np.clip((expo[d] - gam[d])
                           / np.maximum(lam[d] * dt, 1e-300), 0.0, 1.0)
            td = t + frac * dt
            # drift the FX to the default time, then apply the jump
            zd = Z[d] * (1.0 + (r - rr[d] - lam[d] * gz) * frac * dt)
            zd = zd * (1.0 + gz)
            disc = np.exp(-r * td)
            prot[d] = (1.0 - R[d]) * zd * disc
            n_cpn = np.floor(td / dtc)
            accr[d] = zd * disc * (td - n_cpn * dtc)
            alive[d] = False
        gam, gam_next = gam_next, gam
        # pre-default dynamics with the FX martingale compensator.  Each
        # factor's new value is written to the spare array x, which then
        # trades places with it; Z reads the old rhat, so rhat goes last.
        # Defaulted paths keep moving, but no output reads them again.
        np.subtract(1.0, R, out=vol)
        vol *= R
        np.sqrt(np.clip(vol, 0.0, None, out=vol), out=vol)
        vol *= p.sigma_R
        _mean_reverting(x, R, R, p.kappa_R, p.theta_R, dt, vol, dW[:, 0], tmp)
        R, x = np.clip(x, 1e-9, 1.0 - 1e-9, out=x), R
        _mean_reverting(x, Y, Y, p.kappa_y, p.theta_y, dt, p.sigma_y, dW[:, 3], tmp)
        Y, x = x, Y
        np.subtract(r, rr, out=x)
        x -= np.multiply(lam, gz, out=tmp)
        x *= dt
        x += 1.0
        x += np.multiply(p.sigma_z, dW[:, 2], out=tmp)
        x *= Z
        Z, x = np.maximum(x, 0.0, out=x), Z
        np.clip(rr, 0.0, None, out=rp)
        np.sqrt(rp, out=vol)
        vol *= p.sigma_rhat
        _mean_reverting(x, rr, rp, p.kappa_rhat, p.theta_rhat, dt, vol, dW[:, 1], tmp)
        rr, x = x, rr
        t = (k + 1) * dt
        if (k + 1) % nsub == 0:
            np.multiply(Z, np.exp(-r * t), out=tmp)
            tmp *= dtc
            np.add(annuity, tmp, out=annuity, where=alive)
    w_final = np.where(alive, Z * np.exp(-r * t), 0.0)
    return prot, annuity + accr, w_final


def mc_spread(p: ModelParams, schedule: CdsSchedule,
              cfg: McConfig | None = None) -> McEstimate:
    """Par spread by direct simulation of the four-factor dynamics.

    The spread solves E[protection] = s * E[annuity + accrual]; the
    standard error comes from the delta method on the ratio, taken over
    the per-path residuals, so it holds only while every path is
    independent of every other: an estimator that couples paths (shared
    draws, pairs) needs its error from the coupled groups.  With a
    fixed seed the estimate is bit-reproducible because each block of
    paths draws from a Philox substream jumped by its block index.

    Protection and accrual are paid at the simulated default time, so
    the rate jump ``gamma_rhat``, which acts only after default, does
    not enter the estimate.
    """
    cfg = cfg or McConfig()
    prot, ann, _ = _run_blocks(p, schedule, cfg)
    s = prot.mean() / ann.mean()
    resid = prot - s * ann
    se = resid.std(ddof=1) / np.sqrt(len(resid)) / ann.mean()
    return McEstimate(float(s), float(se), cfg.n_paths, cfg.seed)


def _resume(state: dict) -> np.random.Generator:
    """A generator that draws on from a saved Philox ``state``: a
    counter-based stream restarts there with the same bits."""
    bitgen = np.random.Philox()
    bitgen.state = state
    return np.random.Generator(bitgen)


def _run_blocks(p: ModelParams, schedule, cfg: McConfig):
    """Per-path samples of ``cfg.n_paths`` paths, simulated in blocks.

    Each coupon interval ``dtc`` is cut into ``nsub`` equal Euler steps,
    the larger of ``round(dtc / cfg.step)`` and the fewest that keep the
    step within 1/48 yr, so the step that runs is ``dtc / nsub``.

    Block b draws from Philox(seed) jumped b times: first the normals of
    all its steps, one (paths, 4) row per step, then the default
    thresholds.  One buffer holds the first ``K = ceil(steps / 2)`` rows
    of every block; the other rows, the block's tail, are drawn twice
    from the Philox state saved at row K instead of being kept.  A
    helper thread draws block b + 1 while this thread marches block b:
    its K stored rows, writing row k only once the march has read row k
    (row k of a block lies within rows 0..k of any block at least as
    large, and blocks shrink only at the end), then its tail into one
    discarded row, then its thresholds.  This thread draws each tail row
    of a block again just before its step, except in the last block,
    whose tail the helper, idle by then, draws itself: tail row i into
    stored row i once the march has read that row (the tail has at most
    K rows).
    """
    dtc = schedule.coupon_interval
    nsub = max(1, round(dtc / cfg.step), math.ceil(_MIN_STEPS_PER_YEAR * dtc - 1e-9))
    nsteps = schedule.m * nsub
    kept = math.ceil(nsteps / 2)          # K, the stored rows of a block
    sizes = [min(cfg.block_size, cfg.n_paths - start)
             for start in range(0, cfg.n_paths, cfg.block_size)]
    buf = np.empty(kept * sizes[0] * 4)
    blocks = [buf[:kept * n * 4].reshape(kept, n, 4) for n in sizes]

    rows_read = threading.Semaphore(0)    # released once per stored row marched
    marched = itertools.count()           # steps marched, over all blocks
    stop = threading.Event()
    # per block its tail's Philox state and its thresholds, then one
    # token per tail row of the last block, or the helper's error
    handoff = queue.SimpleQueue()

    def row_free() -> bool:
        """Wait until the march has read one more stored row; False once
        the march has stopped."""
        rows_read.acquire()
        return not stop.is_set()

    def draw() -> None:
        try:
            discard = np.empty((sizes[0], 4))
            for block, stored in enumerate(blocks):
                bitgen = np.random.Philox(key=cfg.seed).jumped(block)
                rng = np.random.Generator(bitgen)
                for row in stored:
                    if block and not row_free():
                        return
                    rng.standard_normal(out=row)
                tail = bitgen.state
                n = stored.shape[1]
                for _ in range(nsteps - kept):
                    rng.standard_normal(out=discard[:n])
                handoff.put((tail, rng.exponential(size=n)))
            # the last block's tail, drawn again into its stored rows
            rng = _resume(tail)
            for row in stored[:nsteps - kept]:
                if not row_free():
                    return
                rng.standard_normal(out=row)
                handoff.put(None)
        except BaseException as exc:      # raised again by the marching thread
            handoff.put(exc)

    def take():
        item = handoff.get()
        if isinstance(item, BaseException):
            raise item
        return item

    def row_read() -> None:
        if next(marched) % nsteps < kept:
            rows_read.release()

    redrawn = np.empty((sizes[0], 4))

    def rows(stored: np.ndarray, tail: dict, last: bool):
        """One block's rows in step order: the stored rows, then the tail."""
        yield from stored
        if last:
            for row in stored[:nsteps - kept]:
                take()                    # the helper has drawn this tail row
                yield row
        else:
            rng = _resume(tail)
            row = redrawn[:stored.shape[1]]
            for _ in range(nsteps - kept):
                rng.standard_normal(out=row)
                yield row

    # a daemon, so that a helper stuck by a fault cannot keep the
    # interpreter from exiting
    helper = threading.Thread(target=draw, name="mc-normals", daemon=True)
    helper.start()
    parts = ([], [], [])
    try:
        for block, stored in enumerate(blocks):
            tail, expo = take()
            normals = rows(stored, tail, block == len(blocks) - 1)
            samples = _simulate_block(p, dtc, nsub, normals, expo, row_read)
            for store, sample in zip(parts, samples):
                store.append(sample)
    finally:
        # a helper waiting for a row the march will no longer read
        # wakes, sees the stop and returns
        stop.set()
        rows_read.release()
        helper.join()
    return tuple(np.concatenate(s) for s in parts)


def _estimate(sample: np.ndarray, cfg: McConfig) -> McEstimate:
    return McEstimate(float(sample.mean()),
                      float(sample.std(ddof=1) / np.sqrt(len(sample))),
                      cfg.n_paths, cfg.seed)


def mc_leg_estimates(p: ModelParams, schedule: CdsSchedule,
                     cfg: McConfig | None = None) -> dict[str, McEstimate]:
    """Leg-level estimates: protection, annuity (coupon plus accrual)
    and the survival-weighted discounted terminal FX w_0(T)."""
    cfg = cfg or McConfig()
    prot, ann, w_final = _run_blocks(p, schedule, cfg)
    return {"protection": _estimate(prot, cfg),
            "annuity": _estimate(ann, cfg),
            "w_maturity": _estimate(w_final, cfg)}


def _fd_axis_ops(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense second-order FD matrices with one-sided first-derivative
    edge rows and vanishing second derivative at both ends."""
    n = y.size
    h = y[1] - y[0]
    mid = np.arange(1, n - 1)
    D1 = np.zeros((n, n))
    D2 = np.zeros((n, n))
    D1[0, :3] = np.array([-1.5, 2.0, -0.5]) / h
    D1[mid, mid - 1] = -0.5 / h
    D1[mid, mid + 1] = 0.5 / h
    D1[-1, -3:] = np.array([0.5, -2.0, 1.5]) / h
    for offset, w in ((-1, 1.0), (0, -2.0), (1, 1.0)):
        D2[mid, mid + offset] = w / h**2
    return D1, D2


def _cn_halves(L: np.ndarray, shift, hh: float, out: np.ndarray) -> np.ndarray:
    """Crank-Nicolson halves of A = L - diag(shift): writes I + hh A into
    ``out`` and returns I - hh A."""
    diag = np.arange(len(L))
    np.copyto(out, L)
    out[diag, diag] -= shift
    out *= hh
    B = -out
    B[diag, diag] += 1.0
    out[diag, diag] += 1.0
    return B


def cn_applies(p: ModelParams) -> bool:
    """Whether the 1D oracle prices ``p``: frozen recovery (kappa_R =
    sigma_R = 0), which its reduction to the log-hazard needs, and y0 on
    its fixed axis [CN_Y_MIN, 0], off which the shared readout
    (``interpolation_matrix``) would extrapolate from the end cell."""
    return p.kappa_R == 0.0 and p.sigma_R == 0.0 and CN_Y_MIN <= p.y0 <= 0.0


def cn_domestic_spread(p: ModelParams, schedule: CdsSchedule,
                       n_y: int = 201) -> float:
    """Domestic par spread from the 1D log-hazard reduction.

    Requires ``cn_applies(p)``: frozen recovery and y0 on the axis
    [CN_Y_MIN, 0] of ``n_y`` nodes.  Crank-Nicolson in time on the coupled
    (post-default, pre-default) pair, with the same 1/T-style terminal
    data as the 4D engine.  The market state is read out at x0 by the
    engine's ``interpolation_matrix`` on the y axis with one node on each
    other axis, and the spread is ``par_spread`` of
    ``LegTerms.from_curves``, the engine's right-endpoint quadrature.

    The CN system is block lower triangular, so its one-step propagator
    has three dense ``n_y`` x ``n_y`` blocks, G11, G22 and G21, built
    once by three ``numpy.linalg.solve`` calls, each ``n_y`` columns
    wide.  At most five such blocks are alive at once: the traced peak
    is about 5.0 n_y^2 doubles, LAPACK's internal copies aside.  That
    build is cubic in ``n_y``: about 14 ms at 201 nodes and 70 ms at
    401 (one BLAS thread, 2-core Xeon).  Each step is then four dense
    matrix-vector products, so a default call (120 steps) takes about
    21 ms at 201 nodes and 108 ms at 401.
    """
    if isinstance(n_y, bool) or not isinstance(n_y, (int, np.integer)) or n_y < 3:
        raise ValueError(f"n_y must be an integer >= 3, got {n_y!r}")
    if not cn_applies(p):
        raise ValueError("1D reduction requires frozen recovery (kappa_R = "
                         f"{p.kappa_R}, sigma_R = {p.sigma_R}; both must be 0) "
                         f"and y0 = {p.y0} on its log-hazard axis [{CN_Y_MIN}, 0.0]")
    y = np.linspace(CN_Y_MIN, 0.0, n_y)
    lam = np.exp(y)
    # L = sigma_y^2/2 D2 + diag(kappa_y (theta_y - y)) D1, in D2's array
    D1, L = _fd_axis_ops(y)
    L *= 0.5 * p.sigma_y**2
    D1 *= (p.kappa_y * (p.theta_y - y))[:, None]
    L += D1
    del D1
    # M = [[A1, 0], [diag(lam), A2]] on (post-default, pre-default) is
    # block lower triangular, so the CN step (I - h/2 M) x' = (I + h/2 M) x
    # gives the post-default block first: u' = G11 u, then v' = G22 v +
    # G21 u.  With B_i = I - h/2 A_i and C_i = I + h/2 A_i, G11 = B1^-1 C1,
    # G22 = B2^-1 C2 and G21 = B2^-1 h/2 diag(lam) (I + G11).  The three
    # right-hand sides take turns in ``rhs`` and each solve is n_y wide,
    # since numpy's solve copies both operands; narrower chunks would
    # take other OpenBLAS triangular-solve paths and move the bits.
    hh = 0.5 * schedule.quad_step
    rhs = np.empty((n_y, n_y))
    G11 = np.linalg.solve(_cn_halves(L, p.r_dom, hh, rhs), rhs)
    B2 = _cn_halves(L, p.r_dom + lam, hh, rhs)
    del L
    G22 = np.linalg.solve(B2, rhs)
    np.add(G11, np.eye(n_y), out=rhs)
    rhs *= hh * lam[:, None]
    G21 = np.linalg.solve(B2, rhs)
    del B2, rhs

    # One march of the columns [1; 0] and [0; 1].  The first gives the
    # accrual density proxy times the horizon (terminal data are linear
    # in 1/T); under frozen recovery protection is (1 - R0) times it.
    # The second keeps a zero post-default block, so its pre-default
    # block w is the coupon curve: columns (v, w) of vw.  The readout
    # row has two nonzero weights, so its products summed in any order
    # give the bits of scipy's CSR product; a BLAS dot may fuse a
    # multiply and an add and round differently.
    readout = interpolation_matrix(Grid4D((p.x0[:1], p.x0[1:2], y, p.x0[3:])),
                                   p.x0[None, :]).toarray()[0]
    u = np.ones(n_y)
    vw = np.tile([0.0, 1.0], (n_y, 1))
    nsteps = schedule.m * schedule.n_quad
    vals = np.empty((nsteps, 2))
    for k in range(nsteps):
        vw = G22 @ vw
        vw[:, 0] += G21 @ u
        u = G11 @ u
        vals[k] = (readout[:, None] * vw).sum(axis=0)
    g = vals[:, 0] / schedule.quad_dates
    return par_spread(LegTerms.from_curves(
        {"w": vals[:, 1], "protection": (1.0 - p.R0) * g, "accrual": g}, schedule))
