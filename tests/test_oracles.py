import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from quantocds import oracles
from quantocds.grid import Grid4D, interpolation_matrix
from quantocds.model import ModelParams, ParameterError
from quantocds.oracles import (CN_Y_MIN, McConfig, _fd_axis_ops, _run_blocks,
                               _simulate_block, cn_applies, cn_domestic_spread,
                               credit_triangle, mc_leg_estimates, mc_spread)
from quantocds.pricing import CdsSchedule, LegTerms, domestic_params, par_spread
from reference_operator import as_scipy

P = ModelParams()
SCHED = CdsSchedule()


class TestCreditTriangle:
    def test_table_value(self):
        assert 1e4 * credit_triangle(np.exp(-4.089), 0.45) == pytest.approx(92.2, abs=0.1)

    def test_edges(self):
        assert credit_triangle(0.1, 1.0) == 0.0
        assert credit_triangle(0.0, 0.3) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            credit_triangle(-0.1, 0.5)
        with pytest.raises(ValueError):
            credit_triangle(0.1, 1.5)

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_non_finite_hazard_rejected(self, lam):
        with pytest.raises(ValueError, match="hazard"):
            credit_triangle(lam, 0.45)


class TestMcConfig:
    def test_step_cap(self):
        with pytest.raises(ValueError):
            McConfig(step=1.0 / 24.0)
        McConfig(step=1.0 / 48.0)

    def test_path_floor(self):
        with pytest.raises(ValueError):
            McConfig(n_paths=999)

    @pytest.mark.parametrize("block_size", [0, -1, 2.5, 1000.0, True])
    def test_rejects_bad_block_size(self, block_size):
        # a zero block never advances the block loop
        with pytest.raises(ValueError, match="block_size"):
            McConfig(block_size=block_size)

    @pytest.mark.parametrize("field, value", [("seed", 1.5), ("seed", True)])
    def test_rejects_mistyped_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            McConfig(**{field: value})

    @pytest.mark.parametrize("n_paths", [2500.5, 2000.0, "2000"])
    def test_rejects_non_integer_n_paths(self, n_paths):
        with pytest.raises(ValueError, match="n_paths"):
            McConfig(n_paths=n_paths)


class TestMcSpread:
    def test_seed_reproducible(self):
        cfg = McConfig(n_paths=4000, seed=42)
        a = mc_spread(P, SCHED, cfg)
        b = mc_spread(P, SCHED, cfg)
        assert a.mean == b.mean and a.std_error == b.std_error

    def test_block_partition_invariant(self):
        # same substreams regardless of block size scheduling
        a = mc_spread(P, SCHED, McConfig(n_paths=4000, seed=7, block_size=4000))
        b = mc_spread(P, SCHED, McConfig(n_paths=4000, seed=7, block_size=2000))
        # different partitions consume different stream segments, so only
        # statistical agreement is expected here; identity holds per config
        assert abs(a.mean - b.mean) < 4 * (a.std_error + b.std_error)

    def test_domestic_degenerate_matches_credit_triangle(self):
        p = domestic_params(P).with_(kappa_y=0.0, sigma_y=0.0)
        est = mc_spread(p, SCHED, McConfig(n_paths=100_000, seed=3))
        target = credit_triangle(p.lambda0, p.R0)
        assert abs(est.mean - target) < 3 * est.std_error

    def test_full_devaluation_zero_on_every_path(self):
        est = mc_spread(P.with_(gamma_z=-1.0), SCHED,
                        McConfig(n_paths=2000, seed=5))
        assert est.mean == 0.0

    def test_standard_error_scaling(self):
        ses = []
        sizes = [1000, 10_000, 100_000]
        for n in sizes:
            ses.append(mc_spread(P, SCHED, McConfig(n_paths=n, seed=11)).std_error)
        slope = np.polyfit(np.log(sizes), np.log(ses), 1)[0]
        assert -0.6 <= slope <= -0.4

    def test_non_psd_rejected(self):
        rho = np.eye(4)
        rho[0, 2] = rho[2, 0] = 0.99
        rho[0, 3] = rho[3, 0] = 0.99
        rho[2, 3] = rho[3, 2] = -0.99
        # the set is refused when it is built, before any path is drawn
        with pytest.raises(ParameterError):
            mc_spread(ModelParams(rho=rho), SCHED, McConfig(n_paths=1000))

    def test_rate_jump_does_not_enter(self):
        # protection and accrual are paid at default, before the rate jumps
        cfg = McConfig(n_paths=2000)
        assert mc_spread(P.with_(gamma_rhat=4.0), SCHED, cfg) == mc_spread(P, SCHED, cfg)


_RHO_RZ = np.eye(4)
_RHO_RZ[0, 2] = _RHO_RZ[2, 0] = 0.8
# name -> (params, config, {leg: (mean, std_error)}).  The values pin the
# seeded stream: block b draws from Philox(seed) jumped b times, first
# the normals of all its steps, then its default thresholds.
STREAM_CASES = {
    "defaults": (P, McConfig(n_paths=3000), {
        "protection": (0.054405900843476296, 0.003123870968870753),
        "annuity": (5.003367287453012, 0.019167185309603166),
        "w_maturity": (0.8481074468253379, 0.006314079061189281)}),
    "correlated-gamma_z": (
        P.with_(sigma_R=0.3, kappa_R=0.5, rho=_RHO_RZ, gamma_z=-0.5),
        McConfig(n_paths=3000, seed=1), {
            "protection": (0.04160115325524075, 0.0023131328446744717),
            "annuity": (5.125589558539782, 0.020330980381391018),
            "w_maturity": (0.8878546846115272, 0.006803469099857635)}),
    "one-path-last-block": (P, McConfig(n_paths=3001, seed=2, block_size=1000), {
        "protection": (0.05443077559733814, 0.003142491868226485),
        "annuity": (5.019635564547054, 0.02015996479013165),
        "w_maturity": (0.8533036868565164, 0.006429567235470699)}),
    "step=1/100": (P, McConfig(n_paths=3000, seed=3, step=1.0 / 100.0), {
        "protection": (0.05577689437110354, 0.003169675162126594),
        "annuity": (4.966743089073731, 0.02040298153209853),
        "w_maturity": (0.8425125717729783, 0.006364828438636189)}),
}


class TestMcStream:
    @pytest.mark.parametrize("name", list(STREAM_CASES))
    def test_leg_estimates_pinned(self, name):
        p, cfg, expected = STREAM_CASES[name]
        legs = mc_leg_estimates(p, SCHED, cfg)
        for leg, (mean, se) in expected.items():
            assert legs[leg].mean == pytest.approx(mean, rel=1e-12, abs=0.0)
            assert legs[leg].std_error == pytest.approx(se, rel=1e-12, abs=0.0)


def serial_reference_blocks(p: ModelParams, schedule, cfg: McConfig):
    """Reference block loop on one thread: draw a block's normals and
    thresholds, then march it; ``_run_blocks`` must match it bit for bit.
    Every case below keeps round(dtc / step) Euler steps per coupon."""
    dtc = schedule.coupon_interval
    nsub = max(1, int(round(dtc / cfg.step)))
    nsteps = schedule.m * nsub
    buf = np.empty(nsteps * min(cfg.block_size, cfg.n_paths) * 4)
    parts = ([], [], [])
    for block, start in enumerate(range(0, cfg.n_paths, cfg.block_size)):
        n = min(cfg.block_size, cfg.n_paths - start)
        rng = np.random.Generator(np.random.Philox(key=cfg.seed).jumped(block))
        normals = buf[:nsteps * n * 4].reshape(nsteps, n, 4)
        rng.standard_normal(out=normals)
        expo = rng.exponential(size=n)
        for store, sample in zip(parts, _simulate_block(p, dtc, nsub, normals, expo,
                                                         lambda: None)):
            store.append(sample)
    return tuple(np.concatenate(s) for s in parts)


def call_bounded(fn, timeout: float = 120.0) -> dict:
    """Run ``fn`` on a daemon thread, so a deadlock fails the test
    instead of hanging the suite; returns its result or error."""
    box = {}

    def target():
        try:
            box["result"] = fn()
        except Exception as exc:
            box["error"] = exc

    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    runner.join(timeout)
    assert not runner.is_alive(), f"no return within {timeout} s"
    return box


# stored rows of a block's normals under SCHED at step 1/48: half of 240
KEPT = 120


def fail_draw(monkeypatch, block: int, resumed: bool, draw: int, message: str) -> None:
    """Make draw number ``draw`` (from 0) of ``standard_normal`` raise in
    the generator on ``block``'s substream that starts at the block's
    start, or with ``resumed`` in the one that resumes it from the state
    saved at its tail.  Both are read from the Philox counter: jumped(b)
    sets its third word to b and leaves the first two at 0, so the fault
    does not depend on the order in which the threads make generators.
    The failing draw first sleeps a little, so the other thread is
    waiting by the time it raises."""
    real = np.random.Generator

    class FailingGenerator:
        def __init__(self, bitgen):
            counter = bitgen.state["state"]["counter"]
            self.fails = counter[2] == block and bool(counter[:2].any()) == resumed
            self.draws = 0
            self.rng = real(bitgen)

        def standard_normal(self, out):
            if self.fails and self.draws == draw:
                time.sleep(0.1)
                raise RuntimeError(message)
            self.draws += 1
            return self.rng.standard_normal(out=out)

        def exponential(self, size):
            return self.rng.exponential(size=size)

    monkeypatch.setattr(np.random, "Generator", FailingGenerator)


class TestBlockOverlap:
    """A helper thread draws block b + 1 while block b marches."""

    @pytest.mark.parametrize("cfg, sched", [
        (McConfig(), SCHED),
        (McConfig(n_paths=30_000, block_size=7_000), SCHED),
        (McConfig(n_paths=3001, seed=2, block_size=1000), SCHED),
        (McConfig(n_paths=3000, seed=5, block_size=3000), SCHED),
        (McConfig(n_paths=3000, seed=3, step=1.0 / 100.0), SCHED),
        # 505 steps: 253 stored rows and a tail of 252
        (McConfig(n_paths=3000, seed=4, block_size=1000, step=1.0 / 100.0),
         CdsSchedule(T=5.0, m=101)),
        # one step: its tail has no rows
        (McConfig(n_paths=3000, seed=6, block_size=1000), CdsSchedule(T=1.0 / 48.0, m=1))],
        ids=["defaults", "short-last-block", "one-path-last-block", "one-block",
             "step=1/100", "odd-steps", "one-step"])
    def test_matches_serial_reference(self, cfg, sched):
        got = _run_blocks(P, sched, cfg)
        want = serial_reference_blocks(P, sched, cfg)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_concurrent_calls_under_fast_switching(self):
        # more threads than cores, switching every 10 us: a row drawn
        # before the march has read it would change the samples
        cfgs = [McConfig(n_paths=2050, seed=s, block_size=150 if s == 1 else 200)
                for s in range(3)]
        want = [serial_reference_blocks(P, SCHED, cfg) for cfg in cfgs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            boxes = [{} for _ in cfgs]
            runners = [threading.Thread(
                target=lambda box=box, cfg=cfg: box.update(got=_run_blocks(P, SCHED, cfg)),
                daemon=True) for box, cfg in zip(boxes, cfgs)]
            for runner in runners:
                runner.start()
            for runner in runners:
                runner.join(120.0)
                assert not runner.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for box, ref in zip(boxes, want):
            assert all(np.array_equal(g, w) for g, w in zip(box["got"], ref))

    def test_no_thread_outlives_a_call(self):
        before = threading.active_count()
        cfg = McConfig(n_paths=2000, block_size=500)
        mc_spread(P, SCHED, cfg)
        assert threading.active_count() == before
        mc_leg_estimates(P, SCHED, cfg)
        assert threading.active_count() == before

    def test_march_error_stops_the_helper(self, monkeypatch):
        # the helper then waits for rows of block 1 that are never read
        real = oracles._simulate_block
        calls = []

        def march(*args):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("march failed on block 1")
            return real(*args)

        monkeypatch.setattr(oracles, "_simulate_block", march)
        before = threading.active_count()
        box = call_bounded(lambda: mc_spread(P, SCHED, McConfig(n_paths=4000, block_size=1000)))
        assert "march failed on block 1" in str(box["error"])
        assert threading.active_count() == before

    def test_draw_error_reaches_the_caller(self, monkeypatch):
        fail_draw(monkeypatch, block=1, resumed=False, draw=0, message="draw failed on block 1")
        before = threading.active_count()
        box = call_bounded(lambda: mc_spread(P, SCHED, McConfig(n_paths=4000, block_size=1000)))
        assert "draw failed on block 1" in str(box["error"])
        assert threading.active_count() == before

    @pytest.mark.parametrize("block, resumed, draw, message", [
        # the helper's first pass, past the stored rows: the march waits
        # for block 1's thresholds
        (1, False, KEPT, "draw failed in block 1's discarded tail"),
        # the helper draws the last block's tail while the march waits
        # for each row
        (3, True, 5, "draw failed in the last block's tail"),
        # the marching thread draws block 0's tail again
        (0, True, 5, "redraw failed in block 0's tail")],
        ids=["discarded-tail", "last-tail", "redrawn-tail"])
    def test_tail_error_reaches_the_caller(self, monkeypatch, block, resumed, draw, message):
        fail_draw(monkeypatch, block, resumed, draw, message)
        before = threading.active_count()
        box = call_bounded(lambda: mc_spread(P, SCHED, McConfig(n_paths=4000, block_size=1000)))
        assert message in str(box["error"])
        assert threading.active_count() == before

    def test_traced_peak_below_full_buffer(self):
        # the buffer holds KEPT of a block's 240 rows of normals; numpy
        # reports its arrays to tracemalloc, from every thread
        cfg = McConfig(n_paths=4000, block_size=2000)
        # a first call imports what seeding a Philox generator needs
        _run_blocks(P, SCHED, McConfig(n_paths=1000))
        tracemalloc.start()
        try:
            _run_blocks(P, SCHED, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.6 * 8 * 240 * cfg.block_size * 4

    def test_euler_step_within_cap(self, monkeypatch):
        # T = 5, m = 100: round(0.05 * 48) = 2 steps of 0.025 yr per
        # coupon would exceed the 1/48 yr cap; 3 steps of 1/60 yr run
        real = oracles._simulate_block
        nsubs = []

        def march(p, dtc, nsub, *rest):
            nsubs.append(nsub)
            return real(p, dtc, nsub, *rest)

        monkeypatch.setattr(oracles, "_simulate_block", march)
        mc_spread(P, CdsSchedule(T=5.0, m=100), McConfig(n_paths=1000))
        assert nsubs == [3]


class TestLegEstimates:
    def test_pde_w_within_three_se(self):
        # the coarse default grid carries a ~2% convexity artifact in the
        # readout of the rate-discount factor (it cancels in spread
        # ratios); at a refined grid the discounted-FX value must agree
        # with simulation at Monte Carlo resolution
        from quantocds.grid import GridConfig
        from quantocds.pricing import QuantoCdsPricer
        legs = mc_leg_estimates(P, SCHED, McConfig(n_paths=100_000, seed=17))
        w_mc = legs["w_maturity"]
        w_pde = QuantoCdsPricer(P, GridConfig(n_y=28, n_rhat=28)).leg_curves(SCHED)["w"][-1]
        assert abs(w_pde - w_mc.mean) < 3 * w_mc.std_error
        assert w_mc.mean <= P.z0          # supermartingale bound
        assert legs["protection"].std_error > 0
        assert legs["annuity"].mean > 0


def cir_bond(p: ModelParams, T: float) -> float:
    """Closed-form CIR zero-coupon bond price P(0, T) = A(T) e^{-B(T) rhat0}."""
    k, th, sig = p.kappa_rhat, p.theta_rhat, p.sigma_rhat
    h = np.sqrt(k**2 + 2.0 * sig**2)
    den = 2.0 * h + (k + h) * np.expm1(h * T)
    A = (2.0 * h * np.exp(0.5 * (k + h) * T) / den) ** (2.0 * k * th / sig**2)
    return A * np.exp(-2.0 * np.expm1(h * T) / den * p.rhat0)


class TestDiscountedFxMartingale:
    def test_mean_within_three_se(self):
        # hazard off: Z_t e^{-r t} times the foreign discount factor is a
        # martingale, so the simulator's w_maturity averages to
        # z0 * P_CIR(0, T) when rhat and z are uncorrelated
        p = P.with_(y0=-40.0)
        est = mc_leg_estimates(p, CdsSchedule(T=1.0, m=12),
                               McConfig(n_paths=100_000, seed=13))["w_maturity"]
        assert abs(est.mean - p.z0 * cir_bond(p, 1.0)) < 3 * est.std_error


def splu_reference_spread(p: ModelParams, schedule: CdsSchedule, n_y: int) -> float:
    """``cn_domestic_spread`` by its earlier march: one sparse LU of the
    whole 2 n_y CN system, solved at every step for both columns.  It
    shares the operator and readout with the oracle, not its propagator."""
    y = np.linspace(CN_Y_MIN, 0.0, n_y)
    lam = np.exp(y)
    D1, D2 = (sps.csr_matrix(D) for D in _fd_axis_ops(y))
    L = (sps.diags(0.5 * p.sigma_y**2 * np.ones(n_y)) @ D2
         + sps.diags(p.kappa_y * (p.theta_y - y)) @ D1).tocsc()
    A1 = L - p.r_dom * sps.identity(n_y, format="csc")
    A2 = L - sps.diags(p.r_dom + lam)
    h = schedule.quad_step
    I2 = sps.identity(2 * n_y, format="csc")
    M = sps.bmat([[A1, None], [sps.diags(lam), A2]], format="csc")
    lhs = spla.splu((I2 - 0.5 * h * M).tocsc())
    rhs = (I2 + 0.5 * h * M).tocsc()
    readout = as_scipy(interpolation_matrix(Grid4D((p.x0[:1], p.x0[1:2], y, p.x0[3:])),
                                            p.x0[None, :]))
    uv = np.kron(np.eye(2), np.ones((n_y, 1)))
    vals = np.empty((schedule.m * schedule.n_quad, 2))
    for k in range(len(vals)):
        uv = lhs.solve(rhs @ uv)
        vals[k] = readout @ uv[n_y:]
    g = vals[:, 0] / schedule.quad_dates
    return par_spread(LegTerms.from_curves(
        {"w": vals[:, 1], "protection": (1.0 - p.R0) * g, "accrual": g}, schedule))


class TestCnBenchmark:
    def test_requires_frozen_recovery(self):
        p = P.with_(sigma_R=0.2, kappa_R=0.3)
        assert not cn_applies(p)
        with pytest.raises(ValueError):
            cn_domestic_spread(p, SCHED)

    @pytest.mark.parametrize("y0", [0.5, 2.0, -7.0])
    def test_refuses_y0_off_its_axis(self, y0):
        # the readout used to clamp to the end node of [-6, 0]
        assert not cn_applies(P.with_(y0=y0))
        with pytest.raises(ValueError, match=r"y0 = .*\[-6.0, 0.0\]"):
            cn_domestic_spread(P.with_(y0=y0), SCHED)

    @pytest.mark.parametrize("kw", [{"R0": 1.7}, {"sigma_y": -0.4}, {"r_dom": -0.5}],
                             ids=["R0", "sigma_y", "rhat0"])
    def test_rejects_inadmissible_params(self, kw):
        # these priced silently (R0 = 1.7 gave a negative spread); now
        # no such set can be built: ModelParams refuses R0 and sigma_y,
        # domestic_params the reduction's rhat0 = r_dom < 0
        with pytest.raises(ParameterError):
            cn_domestic_spread(domestic_params(ModelParams(**kw)), SCHED)

    @pytest.mark.parametrize("kwargs, name", [
        ({"n_y": 2}, "n_y"), ({"n_y": 1}, "n_y"), ({"n_y": 101.0}, "n_y"),
        ({"n_y": True}, "n_y")])
    def test_bad_axis_arguments_rejected(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            cn_domestic_spread(P, SCHED, **kwargs)

    def test_three_nodes_price(self):
        # the smallest axis with an interior node still prices
        s = cn_domestic_spread(P, SCHED, n_y=3)
        assert type(s) is float and np.isfinite(s)

    def test_axis_ends_are_on_the_axis(self):
        for y0 in (-6.0, 0.0):
            assert cn_applies(P.with_(y0=y0))
            s = cn_domestic_spread(P.with_(y0=y0), SCHED)
            assert type(s) is float and np.isfinite(s)

    def test_grid_refinement_stable(self):
        a = cn_domestic_spread(P, SCHED, n_y=101)
        b = cn_domestic_spread(P, SCHED, n_y=201)
        c = cn_domestic_spread(P, SCHED, n_y=401)
        assert abs(a - b) * 1e4 < 0.1
        # measured 0.0066 bps from 201 to 401 nodes (0.0133 from 101 to
        # 201); the bound leaves a threefold margin
        assert abs(b - c) * 1e4 < 0.02

    def test_full_recovery_zero(self):
        p = P.with_(R0=1.0, kappa_y=0.0, sigma_y=0.0)
        assert cn_domestic_spread(p, SCHED) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("n", [4, 101, 201])
    def test_fd_axis_ops_match_entrywise_reference(self, n):
        y = np.linspace(CN_Y_MIN, 0.0, n)
        h = y[1] - y[0]
        D1 = sps.lil_matrix((n, n))
        D2 = sps.lil_matrix((n, n))
        for i in range(1, n - 1):
            D1[i, i - 1], D1[i, i + 1] = -0.5 / h, 0.5 / h
            D2[i, i - 1], D2[i, i], D2[i, i + 1] = 1.0 / h**2, -2.0 / h**2, 1.0 / h**2
        D1[0, 0], D1[0, 1], D1[0, 2] = -1.5 / h, 2.0 / h, -0.5 / h
        D1[-1, -1], D1[-1, -2], D1[-1, -3] = 1.5 / h, -2.0 / h, 0.5 / h
        for got, ref in zip(_fd_axis_ops(y), (D1.tocsr(), D2.tocsr())):
            # equal entries, nonzero exactly where the reference stores one
            assert np.array_equal(got, ref.toarray())
            assert np.array_equal(np.nonzero(got), ref.nonzero())

    # (parameter changes, schedule, spread recorded while the oracle
    # still had its own readout and quadrature; sharing the engine's
    # moves them by under 4e-16 relative.  The n_quad = 3 pin was
    # re-recorded when the coupon annuity moved to the coupon dates)
    PINS = {
        "defaults": ({}, SCHED, "0x1.4b13366761081p-7"),
        "R0=0.2": ({"R0": 0.2}, SCHED, "0x1.e1904f2201802p-7"),
        "y0=-2-n_quad=3": ({"y0": -2.0}, CdsSchedule(n_quad=3), "0x1.748600892f400p-4"),
        "frozen-hazard-T=1": ({"kappa_y": 0.0, "sigma_y": 0.0},
                              CdsSchedule(T=1.0, m=12), "0x1.2ef47394b80acp-7"),
        "y0=-6": ({"y0": -6.0}, SCHED, "0x1.59bb1ec7efd82p-10"),
        "y0=0": ({"y0": 0.0}, SCHED, "0x1.14a1f329e3290p+0"),
    }

    @pytest.mark.parametrize("case", list(PINS))
    def test_pinned(self, case):
        kw, schedule, want = self.PINS[case]
        got = cn_domestic_spread(domestic_params(P.with_(**kw)), schedule)
        assert got == pytest.approx(float.fromhex(want), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("n_y", [3, 101, 201])
    @pytest.mark.parametrize("case", list(PINS))
    def test_matches_splu_reference(self, case, n_y):
        kw, schedule, _ = self.PINS[case]
        p = domestic_params(P.with_(**kw))
        assert cn_domestic_spread(p, schedule, n_y=n_y) == pytest.approx(
            splu_reference_spread(p, schedule, n_y), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("n_y", [201, 401])
    def test_build_traced_peak(self, n_y):
        # three n_y-wide solves hold at most G11, B2, the right-hand side,
        # G22 and G21 at once: about 5 blocks of n_y^2 doubles (6 while
        # G22 and G21 came from one 2 n_y-wide solve).  tracemalloc sees
        # numpy's arrays, not the copies LAPACK's solve makes internally
        tracemalloc.start()
        try:
            cn_domestic_spread(P, SCHED, n_y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5.25 * 8 * n_y**2

    def test_protection_proportional_to_loss(self):
        # under frozen recovery only the protection leg carries R0, as 1 - R0
        ratio = cn_domestic_spread(P.with_(R0=0.45), SCHED) / cn_domestic_spread(
            P.with_(R0=0.0), SCHED)
        assert ratio == pytest.approx(0.55, rel=1e-12)
