import numpy as np
import pytest

from quantocds.model import ModelParams, ParameterError
from quantocds.oracles import (McConfig, cn_domestic_spread, credit_triangle,
                               mc_spread)
from quantocds.pricing import CdsSchedule, domestic_params

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


class TestMcConfig:
    def test_step_cap(self):
        with pytest.raises(ValueError):
            McConfig(step=1.0 / 24.0)
        McConfig(step=1.0 / 48.0)

    def test_path_floor(self):
        with pytest.raises(ValueError):
            McConfig(n_paths=999)


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
        p_bad = ModelParams(rho=rho)        # constructor does not validate
        with pytest.raises(ParameterError):
            mc_spread(p_bad, SCHED, McConfig(n_paths=1000))

    def test_antithetic_runs(self):
        est = mc_spread(P, SCHED, McConfig(n_paths=4000, seed=9, antithetic=True))
        assert est.std_error > 0.0


class TestLegEstimates:
    def test_pde_w_within_three_se(self):
        # the coarse default grid carries a ~2% convexity artifact in the
        # readout of the rate-discount factor (it cancels in spread
        # ratios); at a refined grid the discounted-FX value must agree
        # with simulation at Monte Carlo resolution
        from quantocds.grid import GridConfig
        from quantocds.oracles import mc_leg_estimates
        from quantocds.pricing import QuantoCdsPricer
        legs = mc_leg_estimates(P, SCHED, McConfig(n_paths=100_000, seed=17))
        w_mc = legs["w_maturity"]
        w_pde = QuantoCdsPricer(P, GridConfig(n_y=28, n_rhat=28)).leg_curves(SCHED)["w"][-1]
        assert abs(w_pde - w_mc.mean) < 3 * w_mc.std_error
        assert w_mc.mean <= P.z0          # supermartingale bound
        assert legs["protection"].std_error > 0
        assert legs["annuity"].mean > 0


class TestDiscountedFxMartingale:
    def test_mean_within_three_se(self):
        from quantocds.oracles import mc_discounted_fx
        est = mc_discounted_fx(P, 1.0, McConfig(n_paths=100_000, seed=13))
        assert abs(est.mean - P.z0) < 3 * est.std_error


class TestCnBenchmark:
    def test_requires_frozen_recovery(self):
        with pytest.raises(ValueError):
            cn_domestic_spread(P.with_(sigma_R=0.2, kappa_R=0.3), SCHED)

    @pytest.mark.parametrize("y0", [0.5, 2.0, -7.0])
    def test_refuses_y0_off_its_axis(self, y0):
        # the readout used to clamp to the end node of [-6, 0]
        with pytest.raises(ValueError, match=r"y0 = .*\[-6.0, 0.0\]"):
            cn_domestic_spread(P.with_(y0=y0), SCHED)

    def test_axis_ends_are_on_the_axis(self):
        for y0 in (-6.0, 0.0):
            assert np.isfinite(cn_domestic_spread(P.with_(y0=y0), SCHED))

    def test_grid_refinement_stable(self):
        a = cn_domestic_spread(P, SCHED, n_y=101)
        b = cn_domestic_spread(P, SCHED, n_y=201)
        assert abs(a - b) * 1e4 < 0.1

    def test_full_recovery_zero(self):
        p = P.with_(R0=1.0, kappa_y=0.0, sigma_y=0.0)
        assert cn_domestic_spread(p, SCHED) == pytest.approx(0.0, abs=1e-15)

    def test_protection_proportional_to_loss(self):
        # under frozen recovery only the protection leg carries R0, as 1 - R0
        ratio = cn_domestic_spread(P.with_(R0=0.45), SCHED) / cn_domestic_spread(
            P.with_(R0=0.0), SCHED)
        assert ratio == pytest.approx(0.55, rel=1e-12)
