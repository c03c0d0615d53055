import hashlib
import itertools
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import given, settings
from hypothesis import strategies as st

import quantocds
import quantocds.pde as pde
import quantocds.pricing as pricing
from quantocds.cli import ConfigError, load_config
from quantocds.grid import Grid4D, GridConfig, build_grid, interpolation_matrix
from quantocds.model import ModelParams, ParameterError, validate_params
from quantocds.pde import coupling_shift_matrix, inert_axes, rk4_sweep, stacked_transpose
from quantocds.oracles import cn_domestic_spread
from quantocds.pricing import (TERMINAL_KINDS, CdsSchedule,
                               DegenerateAnnuityError, LegTerms,
                               QuantoCdsPricer, _solve_domestic,
                               domestic_params, domestic_spread, par_spread,
                               quanto_basis)
from quantocds.rbffd import operator_terms
from reference_operator import as_scipy, engine_blocks, reference_stacked, same_csr

P = ModelParams()
SCHED = CdsSchedule()

_RHO_RZ = np.eye(4)
_RHO_RZ[0, 2] = _RHO_RZ[2, 0] = 0.8
_CORRELATED = P.with_(sigma_R=0.3, kappa_R=0.5, rho=_RHO_RZ)
_GRID16 = GridConfig(n_R=16, n_rhat=16, n_y=16, n_z=16)
# name -> (params, grid config, axes the pricer should find inert)
REDUCTION_CASES = {
    "defaults": (P, None, (0,)),
    "gamma_z": (P.with_(gamma_z=-0.3), None, (0,)),
    "gamma_z=-0.5": (P.with_(gamma_z=-0.5), None, (0,)),
    # z_max shrinks to 0.4 < z0: the readout extrapolates along z
    "gamma_z=-0.9": (P.with_(gamma_z=-0.9), None, (0,)),
    # the coupling shift interpolates along rhat, so rhat stays active
    # even when its dynamics are frozen
    "gamma_rhat": (P.with_(gamma_rhat=4.0), None, (0,)),
    "frozen-rhat-gamma_rhat": (P.with_(kappa_rhat=0.0, sigma_rhat=0.0, gamma_rhat=4.0),
                               None, (0,)),
    "domestic": (domestic_params(P), None, (0, 1)),
    "domestic-flat-hazard": (domestic_params(P.with_(kappa_y=0.0, sigma_y=0.0)),
                             None, (0, 1, 2)),
    "R0-on-node": (P.with_(R0=float(np.linspace(0.0, 1.0, 10)[4])), None, (0,)),
    # the spot on the edge of the R axis
    "R0=0": (P.with_(R0=0.0), None, (0,)),
    "rhat0-outside-hull": (domestic_params(P).with_(rhat0=1.3), None, (0, 1)),
    "correlated-n16": (_CORRELATED, _GRID16, ()),
    "correlated-n16-domestic": (domestic_params(_CORRELATED), _GRID16, (1,)),
}


@pytest.fixture(scope="module")
def pricer():
    return QuantoCdsPricer(P)


class TestSchedule:
    def test_defaults_semi_monthly(self):
        assert SCHED.m == 120
        assert SCHED.coupon_interval == pytest.approx(1.0 / 24.0)
        assert SCHED.quad_dates[-1] == pytest.approx(5.0)
        assert SCHED.quad_dates.size == 120

    def test_validation(self):
        with pytest.raises(ValueError):
            CdsSchedule(T=-1.0)
        with pytest.raises(ValueError):
            CdsSchedule(m=0)
        with pytest.raises(ValueError):
            CdsSchedule(T=np.inf)
        # a bool or a fractional count is not an integer
        with pytest.raises(ValueError, match="m must be an integer"):
            CdsSchedule(m=True)
        with pytest.raises(ValueError, match="n_quad must be an integer"):
            CdsSchedule(n_quad=2.5)

    def test_quadrature_steps_land_on_maturity(self):
        # the march step is the quadrature step: m * n_quad steps of it
        # end exactly on the maturity
        for T, m, nq in ((5.0, 120, 1), (5.0, 120, 4), (1.0, 12, 3), (0.12, 1, 3)):
            sched = CdsSchedule(T=T, m=m, n_quad=nq)
            assert m * nq * sched.quad_step == pytest.approx(T, rel=1e-14)
            assert sched.quad_dates.size == m * nq
            assert sched.quad_dates[-1] == pytest.approx(T, rel=1e-14)

    def test_rejects_zero_quadrature_nodes(self):
        with pytest.raises(ValueError, match="n_quad"):
            CdsSchedule(n_quad=0)


class TestTerminalCondition:
    def test_protection_node_value(self):
        g = build_grid(GridConfig(), P)
        tc = pricing.payoff_rows(g, P, ("protection",))[1]
        R, _, _, z = g.coordinate_fields()
        node = np.argmin(np.abs(R - 4.0 / 9.0) + np.abs(z - 4.0 / 3.0))
        # generic node check: (1-R) z per unit horizon
        assert tc[node] == pytest.approx((1 - R[node]) * z[node], rel=1e-12)
        # over T = 5 the quoted example values R = 0.45, z = 1.15 give 0.1265
        assert (1 - 0.45) * 1.15 / 5.0 == pytest.approx(0.1265)

    def test_superposition_identity_nodewise(self):
        g = build_grid(GridConfig(), P)
        tg, tb, tt = pricing.payoff_rows(g, P, ("recovery", "protection", "accrual"))[1:]
        assert np.abs(tg + tb - tt).max() < 1e-14

    def test_full_devaluation_kills_terminals(self):
        p = P.with_(gamma_z=-1.0)
        g = build_grid(GridConfig(), p)
        tb, tt = pricing.payoff_rows(g, p, ("protection", "accrual"))[1:]
        assert np.all(tb == 0.0)
        assert np.all(tt == 0.0)

    def test_unknown_kind_rejected(self):
        g = build_grid(GridConfig(), P)
        with pytest.raises(ValueError, match="kind"):
            pricing.payoff_rows(g, P, ("w",))


def forward_system(p: ModelParams, grid_cfg: GridConfig | None = None):
    """Full-grid reference: grid, pre-default operator A2, the stacked
    system S = [[A1, 0], [Lambda C, A2]] and the readout row r at x0."""
    g = build_grid(grid_cfg or GridConfig(), p)
    A1, A2 = engine_blocks(g, p)
    _, _, y, _ = g.coordinate_fields()
    S = sps.bmat([[A1, None],
                  [sps.diags(np.exp(y)) @ as_scipy(coupling_shift_matrix(g, p)), A2]],
                 format="csr")
    return g, A2, S, interpolation_matrix(g, p.x0[None, :])


def forward_curves(p: ModelParams, schedule: CdsSchedule,
                   grid_cfg: GridConfig | None = None) -> dict[str, np.ndarray]:
    """Reference legs from one forward sweep per leg of the full-grid
    stacked system, read out at x0."""
    g, A2, S, r = forward_system(p, grid_cfg)
    n = g.size
    _, _, _, z = g.coordinate_fields()
    nsteps, h = schedule.m * schedule.n_quad, schedule.quad_step
    curves = {"w": rk4_sweep(A2, z, h, nsteps, lambda v, k: (r @ v)[0])[1:]}
    for kind in TERMINAL_KINDS:
        v0 = np.concatenate([pricing.payoff_rows(g, p, (kind,))[1], np.zeros(n)])
        vals = rk4_sweep(S, v0, h, nsteps, lambda v, k: (r @ v[n:])[0])
        curves[kind] = vals[1:] / schedule.quad_dates
    return curves


class TestSolveW:
    def test_scalar_limit(self):
        # hazard pushed to zero and rhat frozen at rhat0: w = z0 e^{-rhat0 T}
        from quantocds.grid import Grid4D, ScalarField, interpolate
        p = P.with_(sigma_R=0.0, kappa_R=0.0, sigma_rhat=0.0, kappa_rhat=0.0,
                    sigma_y=0.0, kappa_y=0.0, sigma_z=0.0, y0=-40.0)
        g = Grid4D((np.linspace(0, 1, 4), np.linspace(0.03, 0.03 + 1e-9, 4),
                    np.linspace(-40.0, -40.0 + 1e-9, 4), np.linspace(0, 4, 10)))
        _, A2 = engine_blocks(g, p)
        _, _, _, z = g.coordinate_fields()
        out = rk4_sweep(A2, z, 0.05, 100, lambda v, k: v)[-1]
        got = interpolate(ScalarField(g, out), [0.45, 0.03, -40.0, 1.15])
        assert got == pytest.approx(1.15 * np.exp(-0.03 * 5.0), rel=1e-3)

    def test_martingale_bound_at_defaults(self, pricer):
        w = pricer.leg_curves(SCHED)["w"]
        assert np.all(w >= 0.0)
        assert np.all(w <= P.z0 * 1.02)

    def test_deeper_devaluation_raises_w(self):
        # the compensator adds positive pre-default drift to Z
        w0 = QuantoCdsPricer(P).leg_curves(SCHED)["w"][-1]
        w1 = QuantoCdsPricer(P.with_(gamma_z=-0.5)).leg_curves(SCHED)["w"][-1]
        assert w1 >= w0

    def test_per_maturity_matches_sweep(self, pricer):
        # independent backward solve from the terminal z at each maturity
        g, A2, _, r = forward_system(P)
        _, _, _, z = g.coordinate_fields()
        w_sweep = pricer.leg_curves(SCHED)["w"]
        for j in (0, 59, 119):
            w_pm = rk4_sweep(A2, z, SCHED.quad_step, j + 1, lambda v, k: (r @ v)[0])[-1]
            assert w_pm == pytest.approx(w_sweep[j], rel=1e-6)

    def test_both_published_march_steps_agree(self):
        # halving the march step (n_quad = 2) leaves w at maturity unchanged
        a = QuantoCdsPricer(P).leg_curves(CdsSchedule(n_quad=1))["w"][-1]
        b = QuantoCdsPricer(P).leg_curves(CdsSchedule(n_quad=2))["w"][-1]
        assert a == pytest.approx(b, rel=1e-6)


class TestGFamily:
    def test_superposition_of_solves(self, pricer):
        gr = pricer.g_curve("recovery", SCHED)
        gb = pricer.g_curve("protection", SCHED)
        gt = pricer.g_curve("accrual", SCHED)
        scale = np.abs(gt).max()
        assert np.abs(gr + gb - gt).max() / scale < 1e-8


    def test_per_maturity_matches_sweep(self, pricer):
        # independent backward solve from the protection terminal at
        # maturity nu, marched to the market state
        g, _, S, r = forward_system(P)
        n = g.size
        gb = pricer.g_curve("protection", SCHED)
        for j in (23, 119):
            nu = SCHED.quad_dates[j]
            v0 = np.concatenate([pricing.payoff_rows(g, P, ("protection",))[1],
                                 np.zeros(n)])
            g_pm = rk4_sweep(S, v0, SCHED.quad_step, j + 1,
                             lambda v, k: (r @ v[n:])[0])[-1] / nu
            assert g_pm == pytest.approx(gb[j], rel=1e-5)


class TestCurveSelection:
    """A sweep reads only the payoff rows of the curves it is asked for."""

    @pytest.mark.parametrize("p", [P, _CORRELATED], ids=["defaults", "correlated"])
    def test_each_kind_alone_equals_all_kinds(self, p):
        # the correlated solve grid has 10 000 nodes, past the 8192 at
        # which einsum sums a lone row in another order than a block
        pricer = QuantoCdsPricer(p)
        curves = pricer.leg_curves(SCHED)
        assert set(curves) == {"w", *TERMINAL_KINDS}
        for kind in TERMINAL_KINDS:
            assert np.array_equal(pricer.g_curve(kind, SCHED), curves[kind]), kind
            payoffs = pricing.payoff_rows(pricer.solve_grid, p, (kind,))
            w, alone = pricing.leg_curves(pricer._stacked, pricer.readout, payoffs, SCHED)
            assert np.array_equal(w, curves["w"]) and np.array_equal(alone, curves[kind])

    def test_spread_sweeps_protection_and_accrual_only(self, monkeypatch):
        # the post-default tile of a spread's sweep carries exactly the
        # protection and accrual dots, which equal the all-kinds sweep's
        pricer = QuantoCdsPricer(_CORRELATED)
        curves = pricer.leg_curves(SCHED)
        tiles = []

        def kept(*args):
            tiles.append(rk4_sweep(*args))
            return tiles[-1]

        monkeypatch.setattr(pricing, "rk4_sweep", kept)
        _, legs = pricer.spread(SCHED)
        (post, pre), = tiles
        assert post.shape == (SCHED.m + 1, 2) and pre.shape == (SCHED.m + 1,)
        assert np.array_equal(post[1:, 0] / SCHED.quad_dates, curves["protection"])
        assert np.array_equal(post[1:, 1] / SCHED.quad_dates, curves["accrual"])
        assert np.array_equal(pre[1:], curves["w"])
        want = LegTerms.from_curves(curves, SCHED)
        for leg in "ABCD":
            assert np.array_equal(getattr(legs, leg), getattr(want, leg)), leg

    @pytest.mark.parametrize("gamma_z", [0.0, -0.3, -1.0, 0.4])
    def test_payoff_rows_bit_identical_to_coordinate_fields(self, gamma_z):
        # the rows broadcast from the R and z axes equal the terminals
        # written from the meshgridded coordinate fields, bit for bit, in
        # the order of the kinds asked
        p = _CORRELATED.with_(gamma_z=gamma_z)
        g = build_grid(GridConfig(n_R=7, n_rhat=5, n_y=6, n_z=9), p)
        R, _, _, z = g.coordinate_fields()
        fx = z * (1.0 + p.gamma_z)
        want = {"recovery": R * fx, "protection": (1.0 - R) * fx, "accrual": fx}
        for kind in TERMINAL_KINDS:
            assert np.array_equal(pricing.payoff_rows(g, p, (kind,))[1], want[kind]), kind
        kinds = ("accrual", "recovery")
        rows = pricing.payoff_rows(g, p, kinds)
        assert rows.shape == (3, g.size)
        assert np.array_equal(rows, np.stack([z] + [want[k] for k in kinds]))
        with pytest.raises(ValueError, match="kind"):
            pricing.payoff_rows(g, p, ("protection", "w"))


class TestLegTerms:
    def test_accrual_nonnegative(self, pricer):
        terms = pricer.spread(SCHED)[1]
        assert np.all(terms.accrual() >= -1e-12)
        assert np.all(terms.B >= -1e-12)

    def test_zero_hazard_limit(self):
        # evaluation point pushed to a deeply negative log-hazard: no
        # default risk, so protection and accrual vanish
        p = P.with_(y0=-40.0)
        pricer = QuantoCdsPricer(p, GridConfig(y_min=-45.0))
        terms = pricer.spread(SCHED)[1]
        assert np.abs(terms.B).max() < 1e-12
        assert np.abs(terms.accrual()).max() < 1e-12
        assert par_spread(terms) == pytest.approx(0.0, abs=1e-12)

    def test_quadrature_refinement_stable(self, pricer):
        s1 = par_spread(pricer.spread(CdsSchedule(n_quad=1))[1])
        s4 = par_spread(pricer.spread(CdsSchedule(n_quad=4))[1])
        assert abs(s1 - s4) * 1e4 < 1.0       # under 1 bps

    @pytest.mark.parametrize("case", list(REDUCTION_CASES), ids=list(REDUCTION_CASES))
    def test_adjoint_sweep_matches_forward_sweeps(self, case):
        # one sweep of the readout under S^T, marched on the solve grid,
        # reproduces the forward sweep of every leg on the full grid:
        # the RK4 polynomial transposes exactly, no step leaves the
        # two slices of an inert axis that bracket x0, and the slices of
        # a frozen R axis march alike
        p, grid_cfg, inert = REDUCTION_CASES[case]
        pricer = QuantoCdsPricer(p, grid_cfg)
        assert pricer.inert_axes == inert
        adjoint = pricer.leg_curves(SCHED)
        forward = forward_curves(p, SCHED, grid_cfg)
        assert set(adjoint) == set(forward)
        for name, want in forward.items():
            # a leg that vanishes (recovery at R0 = 0) must vanish exactly
            assert np.abs(adjoint[name] - want).max() <= 1e-12 * np.abs(want).max(), name
        s, legs = pricer.spread(SCHED)
        want_legs = LegTerms.from_curves(forward, SCHED)
        assert s == pytest.approx(par_spread(want_legs), rel=1e-12, abs=0.0)
        for leg in "ABCD":
            got, want = getattr(legs, leg), getattr(want_legs, leg)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), leg

    @pytest.mark.parametrize("case", list(REDUCTION_CASES), ids=list(REDUCTION_CASES))
    def test_inert_axes_are_uncoupled_on_full_grid(self, case):
        # no entry of the full-grid S joins two slices of an axis the
        # pricer drops, so the reduction is exact whatever L contains;
        # a frozen R axis collapses to the spot, other inert axes keep
        # the two slices that bracket it
        p, grid_cfg, _ = REDUCTION_CASES[case]
        pricer = QuantoCdsPricer(p, grid_cfg)
        g, _, S, _ = forward_system(p, grid_cfg)
        S = S.tocoo()
        nz = S.data != 0.0
        rows = np.unravel_index(S.row[nz] % g.size, g.shape)
        cols = np.unravel_index(S.col[nz] % g.size, g.shape)
        for k in pricer.inert_axes:
            assert np.array_equal(rows[k], cols[k]), k
        assert pricer.solve_grid.shape == tuple(
            (1 if k == 0 else 2) if k in pricer.inert_axes else n
            for k, n in enumerate(g.shape))

    def test_discrete_coupon_diagnostic_close_to_integral(self, pricer):
        # dt * sum_i w(t_i) over coupon dates, read off a sweep four times
        # finer, matches the n_quad = 1 coupon annuity
        terms = pricer.spread(SCHED)[1]
        w_fine = pricer.leg_curves(CdsSchedule(n_quad=4))["w"]
        disc = SCHED.coupon_interval * float(np.sum(w_fine[3::4]))
        assert disc == pytest.approx(float(np.sum(terms.A)), rel=1e-6)

    def test_annuity_reads_coupon_dates(self, pricer):
        # at any n_quad the coupon annuity is the discrete coupons: dt
        # times w at each coupon date, the last quadrature node of its cell
        sched = CdsSchedule(n_quad=4)
        w = pricer.leg_curves(sched)["w"]
        assert np.array_equal(pricer.spread(sched)[1].A, sched.coupon_interval * w[3::4])


class TestParSpread:
    def test_zero_protection(self):
        terms = LegTerms(A=np.ones(3), B=np.zeros(3), C=np.zeros(3), D=np.zeros(3))
        assert par_spread(terms) == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        A, B = rng.uniform(0.5, 1, 5), rng.uniform(0, 0.1, 5)
        C, D = rng.uniform(0.1, 0.2, 5), rng.uniform(0.0, 0.1, 5)
        t0 = par_spread(LegTerms(A, B, C, D))
        t1 = par_spread(LegTerms(7.3 * A, 7.3 * B, 7.3 * C, 7.3 * D))
        assert t0 == pytest.approx(t1, rel=1e-15)

    def test_degenerate_annuity(self):
        terms = LegTerms(A=-np.ones(2), B=np.ones(2), C=np.zeros(2), D=np.zeros(2))
        with pytest.raises(DegenerateAnnuityError):
            par_spread(terms)

    def test_full_devaluation_zero_spread(self):
        pricer = QuantoCdsPricer(P.with_(gamma_z=-1.0))
        s, terms = pricer.spread(SCHED)
        assert s == 0.0
        assert np.abs(terms.B).max() == 0.0


class TestDomesticAndBasis:
    def test_domestic_full_recovery_zero_spread(self):
        p = P.with_(R0=1.0, kappa_y=0.0, sigma_y=0.0)
        assert domestic_spread(p, SCHED, method="cn1d") == pytest.approx(0.0, abs=1e-15)

    def test_cn1d_requires_frozen_recovery(self):
        with pytest.raises(ValueError, match="recovery"):
            domestic_spread(P.with_(sigma_R=0.3, kappa_R=0.5), SCHED, method="cn1d")

    def test_degenerated_foreign_contract_has_zero_basis(self):
        # pricing the domestic reduction through the foreign pipeline
        # reproduces the domestic spread exactly
        rep = quanto_basis(domestic_params(P), SCHED)
        assert abs(rep.basis_bps) < 1e-9

    def test_basis_monotone_in_fx_jump(self):
        pr_list = [QuantoCdsPricer(P.with_(gamma_z=g)).spread(SCHED)[0]
                   for g in (-0.9, -0.675, -0.45, -0.225, 0.0)]
        diffs = np.diff(pr_list)
        assert np.all(diffs > -0.5e-4)         # nondecreasing up to 0.5 bps

    def test_spread_homogeneous_in_fx_level(self):
        s_base = QuantoCdsPricer(P).spread(SCHED)[0]
        s_scaled = QuantoCdsPricer(P.with_(z0=2.30),
                                   GridConfig(z_max=8.0)).spread(SCHED)[0]
        assert s_scaled == pytest.approx(s_base, rel=1e-12)

    def test_report_fields(self):
        _solve_domestic.cache_clear()
        rep = quanto_basis(P, SCHED)
        d = rep.to_dict()
        assert d["s_bps"] == pytest.approx(1e4 * rep.s)
        assert d["basis_bps"] == pytest.approx(rep.s_bps - rep.s_d_bps)
        assert rep.s_d_1d is not None          # frozen recovery at defaults
        assert all(type(v) is float for v in (rep.s, rep.s_d, rep.s_d_1d))
        assert rep.meta["grid_shape"] == [10, 10, 10, 10]
        assert rep.meta["solve_shape"] == [1, 10, 10, 10]   # frozen recovery
        assert rep.meta["quad_step"] == SCHED.quad_step
        assert "dt" not in rep.meta
        assert rep.meta["x0_interpolated"] is True
        assert rep.meta["cached"] == []            # both domestic spreads solved
        # the foreign pricer's stages, timed from what ran
        stages = rep.meta["stage_s"]
        assert set(stages) == {"build", "sweep", "domestic"}
        assert all(t > 0.0 for t in stages.values())
        assert sum(stages.values()) <= rep.meta["runtime_s"] + 1e-3
        assert rep.meta["spmv"] == 4 * SCHED.m * SCHED.n_quad
        assert json.loads(json.dumps(d))["meta"]["stage_s"] == stages
        # gamma_z does not reach the domestic contract: both are read back
        hit = quanto_basis(P.with_(gamma_z=-0.3), SCHED)
        assert hit.meta["cached"] == ["s_d", "s_d_1d"]
        assert (hit.s_d, hit.s_d_1d) == (rep.s_d, rep.s_d_1d)
        # stochastic recovery: a new 4D contract, and no 1D value
        assert quanto_basis(_CORRELATED, SCHED).meta["cached"] == []

    def test_one_reduction_per_quote(self, monkeypatch):
        # both domestic spreads of a frozen-recovery quote are read from
        # one reduction of the parameters
        calls = []

        def counting(p):
            calls.append(p)
            return domestic_params(p)

        monkeypatch.setattr("quantocds.pricing.domestic_params", counting)
        rep = quanto_basis(P, SCHED)
        assert rep.s_d_1d is not None
        assert calls == [P]

    def test_cn_value_attached_only_on_its_axis(self):
        # the 1D oracle's log-hazard axis is [-6, 0]; the 4D grid here
        # reaches y0 = -7, the oracle does not
        rep = quanto_basis(P.with_(y0=-7.0), SCHED, GridConfig(y_min=-8.0))
        assert rep.s_d_1d is None
        assert rep.to_dict()["s_d_1d_bps"] is None
        assert quanto_basis(P.with_(y0=0.0), SCHED).s_d_1d is not None
        # stochastic recovery: the oracle does not apply
        assert quanto_basis(P.with_(sigma_R=0.3, kappa_R=0.5), SCHED).s_d_1d is None

    def test_report_flags_extrapolated_readout(self):
        # gamma_z = -0.9 truncates z_max to 0.4, below z0 = 1.15
        rep = quanto_basis(P.with_(gamma_z=-0.9), SCHED)
        assert rep.meta["x0_interpolated"] is False


_SHORT = CdsSchedule(T=1.0, m=12)


def _rho_with(pair, value):
    i, j = pair
    rho = np.eye(4)
    rho[i, j] = rho[j, i] = value
    return rho


class TestDomesticMemo:
    """``domestic_spread`` is memoized on the reduced contract."""

    @pytest.mark.parametrize("method, p, grid_cfg", [
        ("pde4d", P, None),
        ("cn1d", P, None),
        ("pde4d", _CORRELATED, None),
        ("pde4d", P, GridConfig(n_y=12, z_max=5.0)),
    ], ids=["pde4d", "cn1d", "pde4d-correlated", "pde4d-grid"])
    def test_hit_returns_the_fresh_solve(self, method, p, grid_cfg):
        _solve_domestic.cache_clear()
        first = domestic_spread(p, SCHED, method, grid_cfg)
        second = domestic_spread(p, SCHED, method, grid_cfg)
        assert second == first
        if method == "cn1d":
            fresh = cn_domestic_spread(p, SCHED)
        else:
            fresh = QuantoCdsPricer(domestic_params(p), grid_cfg).spread(SCHED)[0]
        assert first == fresh

    @pytest.mark.parametrize("change", [
        {"gamma_z": -0.3}, {"gamma_rhat": 0.5}, {"z0": 1.3}, {"rhat0": 0.05},
        {"kappa_rhat": 0.0}, {"sigma_rhat": 0.2},
        {"rho": _rho_with((0, 2), 0.5)}, {"rho": _rho_with((2, 3), -0.2)},
        {"rho": _rho_with((0, 1), 0.3)}, {"rho": _rho_with((1, 3), 0.2)},
        {"rho": _rho_with((1, 2), 0.1)},
    ], ids=["gamma_z", "gamma_rhat", "z0", "rhat0", "kappa_rhat", "sigma_rhat",
            "rho.R_z", "rho.z_y", "rho.R_rhat", "rho.rhat_y", "rho.rhat_z"])
    @pytest.mark.parametrize("method", ["pde4d", "cn1d"])
    def test_fields_the_reduction_drops_share_one_entry(self, method, change):
        _solve_domestic.cache_clear()
        a = domestic_spread(P, _SHORT, method)
        b = domestic_spread(P.with_(**change), _SHORT, method)
        assert a == b
        info = _solve_domestic.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    @pytest.mark.parametrize("change", [
        {"R0": 0.5}, {"sigma_R": 0.3}, {"kappa_R": 0.5}, {"theta_R": 0.2},
        {"y0": -4.0}, {"kappa_y": 0.1}, {"theta_y": -200.0}, {"sigma_y": 0.3},
        {"sigma_z": 0.2}, {"r_dom": 0.03}, {"rho": _rho_with((0, 3), 0.3)},
    ], ids=["R0", "sigma_R", "kappa_R", "theta_R", "y0", "kappa_y", "theta_y",
            "sigma_y", "sigma_z", "r_dom", "rho.R_y"])
    def test_fields_the_reduction_keeps_miss(self, change):
        _solve_domestic.cache_clear()
        domestic_spread(P, _SHORT, "pde4d")
        domestic_spread(P.with_(**change), _SHORT, "pde4d")
        assert _solve_domestic.cache_info().misses == 2

    def test_schedule_and_grid_key_the_entry(self):
        _solve_domestic.cache_clear()
        domestic_spread(P, _SHORT, "pde4d")
        domestic_spread(P, CdsSchedule(T=2.0, m=12), "pde4d")
        domestic_spread(P, _SHORT, "pde4d", GridConfig(n_y=12))
        assert _solve_domestic.cache_info().misses == 3
        # None and the default grid config are one entry
        domestic_spread(P, _SHORT, "pde4d", GridConfig())
        # the 1D oracle has no grid config
        domestic_spread(P, _SHORT, "cn1d")
        domestic_spread(P, _SHORT, "cn1d", GridConfig(n_y=12))
        info = _solve_domestic.cache_info()
        assert (info.misses, info.hits) == (4, 2)
        assert info.maxsize is not None           # the memo is bounded

    def test_errors_are_not_memoized(self):
        _solve_domestic.cache_clear()
        with pytest.raises(ValueError, match="unknown domestic method"):
            domestic_spread(P, _SHORT, "cn2d")
        stochastic = P.with_(sigma_R=0.3, kappa_R=0.5)
        for _ in range(2):
            with pytest.raises(ValueError, match="recovery"):
                domestic_spread(stochastic, _SHORT, "cn1d")
        assert _solve_domestic.cache_info().currsize == 0


class TestStrictXfailInputs:
    def test_values_read_by_the_strict_xfails_are_finite(self):
        # a strict-xfail counts any exception as its expected failure, so
        # a crash in the values it reads would otherwise go unseen
        rep = quanto_basis(P, SCHED)
        assert rep.s_d_1d is not None
        values = [rep.s, rep.basis, rep.s_d_1d,
                  domestic_spread(P.with_(kappa_y=0.0, sigma_y=0.0), SCHED,
                                  method="pde4d"),
                  QuantoCdsPricer(P.with_(gamma_z=-0.5)).spread(SCHED)[0]]
        for v in values:
            assert isinstance(v, float) and np.isfinite(v)


_RHO_SIX = np.eye(4)
for (_i, _j), _v in zip(itertools.combinations(range(4), 2),
                        (0.2, -0.15, 0.1, 0.25, -0.1, 0.05)):
    _RHO_SIX[_i, _j] = _RHO_SIX[_j, _i] = _v
# name -> (params, grid config, (s, sum A, sum B, sum (C - D))), recorded
# from the 16-corner interpolation loop and the diagonal boundary-row
# mask that the per-axis builders replaced, bit for bit
SPREAD_PINS = {
    "defaults": (P, None, (0.010313036701408833, 5.036009333094522,
                           0.05197715834915105, 0.003937663511299322)),
    "gamma_z=-0.5": (P.with_(gamma_z=-0.5), None, (
        0.005120064075664396, 5.150692636740276, 0.02638210952289092,
        0.0019986446608250704)),
    "gamma_rhat=4": (P.with_(gamma_rhat=4.0), None, (
        0.01048236709755911, 5.181751460947181, 0.05436018946601276,
        0.0041181961716676325)),
    # R=0 and R=1 both take vanishing-second-derivative rows
    "vanishing-R": (P.with_(sigma_R=0.5, kappa_R=0.1), None, (
        0.011700916182856213, 5.036017499245853, 0.05897209300150366,
        0.003937670068801169)),
    "six-rho-12x11x13x9": (P.with_(sigma_R=0.3, kappa_R=0.5, rho=_RHO_SIX),
                           GridConfig(n_R=12, n_rhat=11, n_y=13, n_z=9), (
        0.014414880668448704, 5.027915915426546, 0.07253334922049796,
        0.003922425022500155)),
    "domestic": (domestic_params(P), None, (
        0.010329980901470167, 4.572131882774979, 0.04726702498756768,
        0.0035808352263308834)),
}


class TestSpreadPins:
    @pytest.mark.parametrize("case", list(SPREAD_PINS))
    def test_pinned(self, case):
        p, grid_cfg, want = SPREAD_PINS[case]
        s, legs = QuantoCdsPricer(p, grid_cfg).spread(SCHED)
        got = (s, np.sum(legs.A), np.sum(legs.B), np.sum(legs.accrual()))
        for name, g, w in zip(("s", "A", "B", "C-D"), got, want):
            assert g == pytest.approx(w, rel=1e-12, abs=0.0), name


def _legs_digest(legs: LegTerms) -> str:
    """sha256 of the A, B, C and D arrays as little-endian float64."""
    h = hashlib.sha256()
    for leg in (legs.A, legs.B, legs.C, legs.D):
        h.update(np.ascontiguousarray(leg, dtype="<f8").tobytes())
    return h.hexdigest()


# quanto_basis bit for bit, recorded with ``leg_curves`` taking its dots
# by ``np.einsum``: s and s_d as float hex, the per-coupon leg arrays as a
# digest of their bytes
QUANTO_BASIS_PINS = {
    "defaults": (P, "0x1.51f005ad7098bp-7", "0x1.527e2911ef6b2p-7",
                 "36165cd7ff9b32f180a2fe59f96b3ac6753f64b61e87ab600799f5b65a1b4cf9"),
    "correlated": (_CORRELATED, "0x1.d1ec1226eb4c5p-7", "0x1.dbc2626a88543p-7",
                   "5394689de0399eafca9926081065c140a247655f0b31e567882fda1357f5c2ac"),
}


class TestLegSweepPins:
    @pytest.mark.parametrize("case", list(QUANTO_BASIS_PINS))
    def test_quanto_basis_bit_identical(self, case):
        p, s, s_d, legs = QUANTO_BASIS_PINS[case]
        report = quanto_basis(p, SCHED)
        assert (report.s.hex(), report.s_d.hex()) == (s, s_d)
        assert _legs_digest(report.legs) == legs

    def test_two_worker_sweep_bit_identical_on_refined_grid(self, monkeypatch):
        # two cores, whatever the host has: the 1 658 880-nnz operator is
        # marched as its post-default and pre-default halves, each on its
        # own thread, which takes its half's leg dots
        monkeypatch.setattr(pde, "_cores", lambda: 2)
        seen = _leg_dot_threads(monkeypatch)
        s, _ = QuantoCdsPricer(_CORRELATED, _GRID16).spread(SCHED)
        assert s.hex() == "0x1.cd4850437912cp-7"
        assert seen == [{threading.current_thread().name}, {"rk4-rows-1"}]

    def test_default_grid_quote_starts_no_helper(self, monkeypatch):
        # the 243 600-nnz operator, under the split threshold, is marched
        # and recorded on the calling thread, even on two cores
        monkeypatch.setattr(pde, "_cores", lambda: 2)
        seen = _leg_dot_threads(monkeypatch)
        QuantoCdsPricer(_CORRELATED).spread(SCHED)
        assert seen == [{threading.current_thread().name}] * 2

    def test_quote_independent_of_blas_threads(self):
        # a refined-grid quote priced in two processes, one BLAS thread
        # and two: the leg dots call no BLAS, so s reads the same bits
        script = (
            "import numpy as np\n"
            "from quantocds.grid import GridConfig\n"
            "from quantocds.model import ModelParams\n"
            "from quantocds.pricing import CdsSchedule, QuantoCdsPricer\n"
            "rho = np.eye(4)\n"
            "rho[0, 2] = rho[2, 0] = 0.8145002950489294\n"
            "p = ModelParams().with_(sigma_R=0.2812245943888376,\n"
            "                        kappa_R=0.5074090206353802, rho=rho)\n"
            "grid = GridConfig(n_R=16, n_rhat=16, n_y=16, n_z=16)\n"
            "s, _ = QuantoCdsPricer(p, grid).spread(CdsSchedule())\n"
            "print(s.hex())\n")
        src = os.path.dirname(os.path.dirname(quantocds.__file__))
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            runs.append(subprocess.Popen([sys.executable, "-c", script], env=env,
                                         stdout=subprocess.PIPE, text=True))
        one, two = (run.communicate(timeout=300)[0].strip() for run in runs)
        assert all(run.returncode == 0 for run in runs)
        assert one == two


def _leg_dot_threads(monkeypatch) -> list[set[str]]:
    """Names of the threads that take the post-default and the
    pre-default leg dots of every sweep after step 0, filled in as the
    pricer sweeps."""
    seen = [set(), set()]

    def watched(St, u0, h, nsteps, records):
        def watch(i, rec):
            def dot(u, k):
                if k:
                    seen[i].add(threading.current_thread().name)
                return rec(u, k)
            return dot
        return rk4_sweep(St, u0, h, nsteps, [watch(i, rec) for i, rec in enumerate(records)])

    monkeypatch.setattr(pricing, "rk4_sweep", watched)
    return seen


_AXIS = {"R": 0, "rhat": 1, "y": 2}


def _rate(lo: float, hi: float):
    return st.one_of(st.just(0.0), st.floats(lo, hi))


@st.composite
def admissible_params(draw, frozen: tuple[str, ...]) -> ModelParams:
    """Admissible parameters inside the explicit march's stability region
    on a 6^4 grid; kappa and sigma are zero on every axis in ``frozen``."""
    rho = np.eye(4)
    for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
        # |rho_ij| <= 0.3 keeps the matrix diagonally dominant, so PSD
        rho[i, j] = rho[j, i] = draw(st.floats(-0.3, 0.3))
    kw = dict(
        R0=draw(st.floats(0.0, 0.9)), theta_R=draw(st.floats(0.05, 0.95)),
        kappa_R=draw(_rate(0.05, 1.0)), sigma_R=draw(_rate(0.05, 0.4)),
        rhat0=draw(st.floats(0.0, 0.2)), theta_rhat=draw(st.floats(0.0, 0.2)),
        kappa_rhat=draw(_rate(0.01, 0.5)), sigma_rhat=draw(_rate(0.01, 0.2)),
        y0=draw(st.floats(-5.5, -2.0)), theta_y=draw(st.floats(-8.0, -1.0)),
        kappa_y=draw(_rate(1e-4, 0.5)), sigma_y=draw(_rate(0.05, 0.6)),
        z0=draw(st.floats(0.5, 2.0)), sigma_z=draw(st.floats(0.0, 0.3)),
        r_dom=draw(st.floats(0.0, 0.1)),
        gamma_z=draw(st.one_of(st.just(0.0), st.floats(-0.9, 0.5))),
        gamma_rhat=draw(st.one_of(st.just(0.0), st.floats(-0.5, 4.0))),
        rho=rho)
    for name in frozen:
        kw[f"kappa_{name}"] = kw[f"sigma_{name}"] = 0.0
    return ModelParams(**kw)


class TestAdmissibleParams:
    GRID = GridConfig(n_R=6, n_rhat=6, n_y=6, n_z=6)
    SCHED = CdsSchedule(T=3.0, m=36)

    @pytest.mark.parametrize("frozen", [(), ("R",), ("R", "rhat"), ("R", "rhat", "y")],
                             ids=["none", "R", "R-rhat", "R-rhat-y"])
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_spread_finite_positive_and_exact(self, frozen, data):
        p = data.draw(admissible_params(frozen))
        pricer = QuantoCdsPricer(p, self.GRID)
        want_inert = {_AXIS[a] for a in frozen}
        if p.gamma_rhat != 0.0:
            want_inert.discard(_AXIS["rhat"])
        assert want_inert <= set(pricer.inert_axes)
        s, _ = pricer.spread(self.SCHED)
        assert np.isfinite(s) and s > 0.0
        ref = par_spread(LegTerms.from_curves(forward_curves(p, self.SCHED, self.GRID),
                                              self.SCHED))
        assert s == pytest.approx(ref, rel=1e-12, abs=0.0)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_domestic_reduction_stays_admissible(self, data):
        # domestic_params builds its reduction through the constructor,
        # which would refuse it: every admissible parameter set must
        # reduce to an admissible one, also when rho is singular (a
        # rank-2 correlation matrix)
        frozen = data.draw(st.sampled_from([(), ("R",), ("R", "rhat"), ("R", "rhat", "y")]))
        p = data.draw(admissible_params(frozen))
        if data.draw(st.booleans()):
            f = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8)))
            f = f.reshape(4, 2) + np.array([1.5, 0.0])    # no zero row
            f /= np.linalg.norm(f, axis=1, keepdims=True)
            p = validate_params(replace(p, rho=f @ f.T))
        p_dom = domestic_params(p)
        assert validate_params(p_dom) is p_dom

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_fx_drift_term_on_every_grid(self, data):
        # why pde.inert_axes never finds z inert: the FX drift term
        # (r_dom - rhat) z d/dz survives on every grid build_grid makes,
        # so an FX jump's compensator always finds the z slots laid out
        frozen = data.draw(st.sampled_from([(), ("R",), ("R", "rhat"), ("R", "rhat", "y")]))
        p = data.draw(admissible_params(frozen)).with_(
            gamma_z=data.draw(st.floats(-1.0, 0.5).filter(bool)))
        n = data.draw(st.lists(st.integers(4, 12), min_size=4, max_size=4))
        cfg = GridConfig(rhat_max=data.draw(st.floats(1e-3, 10.0)),
                         y_min=data.draw(st.floats(-50.0, -1e-3)),
                         z_max=data.draw(st.floats(1e-3, 20.0)),
                         n_R=n[0], n_rhat=n[1], n_y=n[2], n_z=n[3])
        terms = operator_terms(build_grid(cfg, p), p)
        assert (3,) in [axes for _, axes in terms]

    @pytest.mark.parametrize("method", ["cn1d", "pde4d"])
    def test_negative_domestic_rate_rejected(self, method):
        # the reduction pins rhat0 at r_dom: a negative domestic rate is
        # refused when domestic_params builds the reduction
        with pytest.raises(ParameterError, match="rhat0 negative"):
            domestic_spread(P.with_(r_dom=-0.01), SCHED, method)


_RHO_ALL = np.eye(4)
for (_i, _j), _v in zip(itertools.combinations(range(4), 2),
                        (0.2, -0.3, 0.25, 0.15, -0.1, 0.3)):
    _RHO_ALL[_i, _j] = _RHO_ALL[_j, _i] = _v     # diagonally dominant, so PSD
_STOCHASTIC_R = P.with_(sigma_R=0.3, kappa_R=0.5)
_OPERATOR_CASES = {
    "defaults": (P, None),
    "gamma_z=-0.5": (P.with_(gamma_z=-0.5), None),
    "gamma_z=-1": (P.with_(gamma_z=-1.0), None),
    "gamma_rhat=4": (P.with_(gamma_rhat=4.0), None),
    # total rate collapse: the coupling shift evaluates at rhat = 0
    "gamma_rhat=-1": (P.with_(gamma_rhat=-1.0), None),
    "all-rho": (_STOCHASTIC_R.with_(rho=_RHO_ALL), GridConfig(n_R=12, n_rhat=11, n_y=13, n_z=9)),
    # R=0 and R=1 both take vanishing-second-derivative rows
    "vanishing-R": (P.with_(sigma_R=0.5, kappa_R=0.1), None),
    "theta_R=0": (_STOCHASTIC_R.with_(theta_R=0.0), None),
    "theta_R=1": (_STOCHASTIC_R.with_(theta_R=1.0), None),
    "sigma_z=0": (P.with_(sigma_z=0.0), None),
    "frozen-y-rhat": (P.with_(kappa_y=0.0, sigma_y=0.0, kappa_rhat=0.0, sigma_rhat=0.0),
                      None),
    # the largest slot table, the one refined-grid marches
    "correlated-n16": (_CORRELATED, _GRID16),
    # every mixed pair with both jumps: A2's z slots patched in rows
    # that also carry 16-wide coupling columns
    "all-rho-jumps": (_STOCHASTIC_R.with_(rho=_RHO_ALL, gamma_z=-0.5, gamma_rhat=0.5),
                      GridConfig(n_R=7, n_rhat=6, n_y=8, n_z=5)),
}
# every case also through the domestic reduction
OPERATOR_PINS = {**_OPERATOR_CASES,
                 **{f"{name}/domestic": (domestic_params(p), grid_cfg)
                    for name, (p, grid_cfg) in _OPERATOR_CASES.items()}}


class TestOperatorPins:
    """The slot-table build equals the term-by-term reference bit for bit."""

    @pytest.mark.parametrize("case", list(OPERATOR_PINS))
    def test_stacked_operator_and_readout(self, case):
        p, grid_cfg = OPERATOR_PINS[case]
        pricer = QuantoCdsPricer(p, grid_cfg)
        St, readout = reference_stacked(pricer.solve_grid, p)
        assert same_csr(pricer._stacked, St)
        assert np.array_equal(pricer.readout.toarray()[0], readout)
        # the solve grid is a fixed point: the pricer's S^T is the one
        # build, made on the grid it holds, and that grid keeps the
        # inert axes of the configured grid
        assert same_csr(pricer._stacked, stacked_transpose(pricer.solve_grid, p))
        assert inert_axes(pricer.solve_grid, p) == pricer.inert_axes

    @pytest.mark.parametrize("frozen", [("rhat", "y"), ("rhat",)], ids=["rhat-y", "rhat"])
    def test_one_node_inert_axes(self, frozen):
        # a grid whose every inert axis is the single spot node x0[k]:
        # the operator builds on it, equals the reference and keeps the
        # inert axes of the configured grid
        p = P.with_(**{f"{kind}_{axis}": 0.0 for axis in frozen
                       for kind in ("kappa", "sigma")})
        g = build_grid(GridConfig(), p)
        inert = inert_axes(g, p)
        assert inert == (0,) + tuple(_AXIS[axis] for axis in frozen)
        sg = Grid4D(tuple(p.x0[k:k + 1] if k in inert else a
                          for k, a in enumerate(g.axes)))
        assert same_csr(stacked_transpose(sg, p), reference_stacked(sg, p)[0])
        assert inert_axes(sg, p) == inert

    @pytest.mark.parametrize("case", list(OPERATOR_PINS))
    def test_public_operators(self, case):
        # the configured grid, no axis cut: every block of S, its
        # coupling included, equals the reference
        p, grid_cfg = OPERATOR_PINS[case]
        g = build_grid(grid_cfg or GridConfig(), p)
        assert same_csr(stacked_transpose(g, p), reference_stacked(g, p)[0])

    def test_build_peak_within_1_5x_operator(self):
        # the build holds one allocation of twice the left block column of
        # S, never S or a second copy of it beside both halves of S^T: its
        # traced peak stays under 1.5 times the operator it returns (2.7
        # times while S and S^T were held at once, 1.69 while the
        # row-major buffer sat beside both halves).  tracemalloc counts
        # allocations, not touched pages; after a process's first quote
        # the allocator reuses freed pages, so allocations are what sets
        # the resident peak, and writing pages late would not lower it
        g = build_grid(GridConfig(n_R=12, n_rhat=12, n_y=12, n_z=12), _CORRELATED)
        tracemalloc.start()
        try:
            St = stacked_transpose(g, _CORRELATED)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * (St.data.nbytes + St.indices.nbytes + St.indptr.nbytes)
        # the arrays held are exactly the operator: no dropped zeros'
        # tail stays allocated behind a prefix view
        assert St.data.size == St.indices.size == St.nnz
        assert St.data.base is None and St.indices.base is None

    def test_pricer_holds_operator_and_spread_sweep_within_bound(self):
        # a built pricer holds S^T, its grids' axes and the sparse readout
        # row: at most 1 KiB of array data beside S^T (a dense readout row
        # took N doubles).  A spread's sweep holds S^T, its three state
        # buffers of 2N doubles and the three payoff rows its legs read:
        # its traced peak above the built pricer stays under 9.5 N
        # doubles (12.36 N while a dense initial state sat beside the
        # sweep's copy of it, with the unread recovery row and a
        # finiteness mask of 2N bytes)
        cfg = GridConfig(n_R=12, n_rhat=12, n_y=12, n_z=12)
        arrays = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot().filter_traces(arrays)
            pricer = QuantoCdsPricer(_CORRELATED, cfg)
            after = tracemalloc.take_snapshot().filter_traces(arrays)
            held, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            pricer.spread(SCHED)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        St, n = pricer._stacked, pricer.solve_grid.size
        grown = sum(d.size_diff for d in after.compare_to(before, "filename"))
        assert grown <= St.data.nbytes + St.indices.nbytes + St.indptr.nbytes + 1024
        assert peak - held <= 9.5 * 8 * n

    @pytest.mark.parametrize("frozen", [(), ("R",)], ids=["live-R", "frozen-R"])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_admissible_params_with_jumps(self, frozen, data):
        p = data.draw(admissible_params(frozen)).with_(
            gamma_z=data.draw(st.floats(-0.9, 0.5).filter(bool)),
            gamma_rhat=data.draw(st.floats(-1.0, 4.0).filter(bool)))
        n = data.draw(st.lists(st.integers(4, 6), min_size=4, max_size=4))
        pricer = QuantoCdsPricer(p, GridConfig(n_R=n[0], n_rhat=n[1], n_y=n[2], n_z=n[3]))
        St, readout = reference_stacked(pricer.solve_grid, p)
        assert same_csr(pricer._stacked, St)
        assert np.array_equal(pricer.readout.toarray()[0], readout)


_BELOW_ZERO = st.floats(-1e3, -1e-9)


@st.composite
def bad_rho(draw) -> np.ndarray:
    """A correlation matrix that breaks a rule of ``validate_params``:
    symmetry, unit diagonal, |rho| <= 1 or positive semi-definiteness."""
    rho = np.eye(4)
    i, j, k = draw(st.sampled_from(list(itertools.combinations(range(4), 3))))
    flaw = draw(st.sampled_from(["asymmetric", "diagonal", "entry", "not-psd"]))
    if flaw == "asymmetric":
        a = draw(st.floats(-0.9, 0.8))
        rho[i, j], rho[j, i] = a, a + draw(st.floats(1e-3, 0.1))
    elif flaw == "diagonal":
        rho[i, i] = 1.0 + draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1e-3, 0.5))
    elif flaw == "entry":
        rho[i, j] = rho[j, i] = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1.001, 10.0))
    else:
        # I + a K with K's off-diagonal signs (+, +, -) has eigenvalues
        # 1 + a, 1 + a and 1 - 2a: entries within [-1, 1], not PSD for a > 1/2
        a = draw(st.floats(0.51, 1.0))
        rho[i, j] = rho[j, i] = rho[i, k] = rho[k, i] = a
        rho[j, k] = rho[k, j] = -a
    return rho


_INADMISSIBLE = st.one_of(
    st.tuples(st.sampled_from(["sigma_R", "sigma_rhat", "sigma_y", "sigma_z",
                               "kappa_R", "kappa_rhat", "rhat0"]), _BELOW_ZERO),
    st.tuples(st.sampled_from(["R0", "theta_R"]),
              st.one_of(_BELOW_ZERO, st.floats(1.0, 1e3, exclude_min=True))),
    st.tuples(st.just("z0"), st.floats(-1e3, 0.0)),
    st.tuples(st.sampled_from(["gamma_z", "gamma_rhat"]),
              st.floats(-1e3, -1.0, exclude_max=True)),
    st.tuples(st.just("rho"), bad_rho()),
)


class TestInadmissibleParams:
    GRID = GridConfig(n_R=4, n_rhat=4, n_y=4, n_z=4)

    @settings(max_examples=60, deadline=None)
    @given(bad=_INADMISSIBLE)
    def test_rejected_before_any_march(self, tmp_path_factory, bad):
        # one field outside the domain: the set cannot be built, so no
        # march can run on it (so no StabilityError), and a config
        # carrying it is a config error
        name, value = bad

        def no_march(*args, **kwargs):
            raise AssertionError("rk4_sweep called on inadmissible parameters")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("quantocds.pricing.rk4_sweep", no_march)
            with pytest.raises(ParameterError):
                p = replace(P, **{name: value})
                QuantoCdsPricer(p, self.GRID).spread(CdsSchedule(T=1.0, m=2))
            with pytest.raises(ParameterError):
                ModelParams(**{name: value})
            with pytest.raises(ParameterError):
                P.with_(**{name: value})
        path = tmp_path_factory.mktemp("cfg") / "cfg.json"
        raw = value.tolist() if name == "rho" else value
        path.write_text(json.dumps({"model": {name: raw}}))
        with pytest.raises(ConfigError):
            load_config(str(path))
