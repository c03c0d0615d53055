import numpy as np
import pytest
import scipy.sparse as sps

from quantocds.grid import Grid4D, GridConfig, ScalarField, build_grid, interpolate
from quantocds.model import ModelParams
from quantocds.pde import StabilityError, jump_shift, rk4_sweep
from quantocds.pricing import QuantoCdsPricer
from reference_operator import engine_blocks, slot_axis_operators


def degenerate_grid(rhat_at: float, y_at: float) -> Grid4D:
    """Grid whose rhat and y axes are collapsed to tiny spans, making
    the FX convection (r - rhat) and the hazard exp(y) effectively
    constant; the operator then acts as a scalar reaction."""
    return Grid4D((
        np.linspace(0.0, 1.0, 10),
        np.linspace(rhat_at, rhat_at + 1e-9, 4),
        np.linspace(y_at, y_at + 1e-9, 4),
        np.linspace(0.0, 4.0, 10),
    ))


def march(A, v0: np.ndarray, horizon: float, dt: float) -> np.ndarray:
    """Terminal field marched back over the horizon in steps of dt."""
    n = int(round(horizon / dt))
    return rk4_sweep(A, v0, horizon / n, n, lambda v, k: v)[-1]


def classical_rk4_sweep(A, v0: np.ndarray, h: float, nsteps: int, record) -> np.ndarray:
    """Reference sweep in the classical four-stage form k1..k4."""
    v = v0.copy()
    out = [np.asarray(record(v, 0), dtype=float)]
    for k in range(nsteps):
        k1 = A @ v
        k2 = A @ (v + 0.5 * h * k1)
        k3 = A @ (v + 0.5 * h * k2)
        k4 = A @ (v + h * k3)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(np.asarray(record(v, k + 1), dtype=float))
    return np.stack(out)


def horner_reference_sweep(A, v0: np.ndarray, h: float, nsteps: int,
                           record) -> np.ndarray:
    """Reference sweep: the Horner-form loop on ``A @ v``, allocating a
    fresh array per SpMV; ``rk4_sweep`` must match it bit for bit."""
    v = v0.copy()
    first = np.asarray(record(v, 0), dtype=float)
    out = np.empty((nsteps + 1,) + first.shape)
    out[0] = first
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(nsteps):
            w = A @ v
            for c in (h / 4.0, h / 3.0, h / 2.0):
                w *= c
                w += v
                w = A @ w
            w *= h
            v += w
            if not np.all(np.isfinite(v)):
                raise StabilityError(
                    f"non-finite values at sweep step {k + 1}/{nsteps} (dt={h:.4g})")
            out[k + 1] = record(v, k + 1)
    return out


def frozen_params(**kw) -> ModelParams:
    base = dict(sigma_R=0.0, kappa_R=0.0, sigma_rhat=0.0, kappa_rhat=0.0,
                sigma_y=0.0, kappa_y=0.0, sigma_z=0.0)
    base.update(kw)
    return ModelParams().with_(**base)


class TestRk4:
    def grid1(self):
        g = Grid4D((np.linspace(0, 1, 4),) * 4)
        return g

    def march_scalar(self, rate, horizon, dt):
        # decoupled nodes: A = -rate * I exercises the marching kernel
        g = self.grid1()
        A = sps.identity(g.size, format="csr") * (-rate)
        return march(A, np.ones(g.size), horizon, dt)[0]

    def test_linear_decay(self):
        # true global RK4 error at dt = 0.05 over one unit of decay is
        # 2.0e-8 (20 steps of h^5/120 local error)
        got = self.march_scalar(1.0, 1.0, 0.05)
        assert abs(got - np.exp(-1.0)) < 5e-8

    def test_fourth_order_error_ratio(self):
        e1 = abs(self.march_scalar(1.0, 1.0, 0.1) - np.exp(-1.0))
        e2 = abs(self.march_scalar(1.0, 1.0, 0.05) - np.exp(-1.0))
        assert e1 / e2 == pytest.approx(16.0, rel=0.2)

    def test_stability_error_names_step(self):
        # a log-hazard volatility far beyond the explicit stability limit
        # must be detected, not silently integrated
        p = ModelParams().with_(sigma_y=25.0)
        g = build_grid(GridConfig(), p)
        _, A2 = engine_blocks(g, p)
        _, _, _, z = g.coordinate_fields()
        with pytest.raises(StabilityError, match="step"):
            march(A2, z.copy(), 5.0, 0.05)

    def test_vector_records_match_scalar_records(self):
        A = sps.diags([-1.0, -2.0], format="csr")
        vec = rk4_sweep(A, np.ones(2), 0.1, 10, lambda v, k: v.copy())
        first = rk4_sweep(A, np.ones(2), 0.1, 10, lambda v, k: v[0])
        assert vec.shape == (11, 2) and first.shape == (11,)
        assert np.array_equal(vec[:, 0], first)

    @pytest.mark.parametrize("which", ["stacked-defaults", "random-sparse"])
    def test_horner_step_matches_classical_stages(self, which):
        # the Horner sweep evaluates the classical RK4 polynomial: vector
        # and scalar records agree with the k1..k4 form to rounding
        rng = np.random.default_rng(21)
        if which == "stacked-defaults":
            # the transposed stacked operator the pricer sweeps
            A, h, nsteps = QuantoCdsPricer(ModelParams())._stacked, 5.0 / 120, 120
        else:
            # diagonally dominant with a negative diagonal: a decaying
            # march, with h|lambda| <= 0.45 inside the RK4 region
            n = 400
            A = sps.random(n, n, density=0.02, random_state=rng, format="csr")
            A = (A - sps.diags(np.asarray(abs(A).sum(axis=1)).ravel())).tocsr()
            h, nsteps = 0.05, 50
        v0 = rng.standard_normal(A.shape[0])
        probe = rng.standard_normal(A.shape[0])
        for record in (lambda v, k: v.copy(), lambda v, k: probe @ v):
            got = rk4_sweep(A, v0, h, nsteps, record)
            want = classical_rk4_sweep(A, v0, h, nsteps, record)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("which", ["defaults", "fx-sweep-quote", "correlated-stochastic-R"])
    def test_sweep_bit_identical_to_reference(self, which):
        # the kernel calls on swapped buffers do the reference loop's
        # arithmetic in its order: every state and every record is equal
        p = {"defaults": ModelParams(),
             "fx-sweep-quote": ModelParams().with_(gamma_z=-0.3719),
             "correlated-stochastic-R": ModelParams().with_(
                 sigma_R=0.3, kappa_R=0.5,
                 rho=np.array([[1.0, 0.0, 0.8, 0.0], [0.0, 1.0, 0.0, 0.0],
                               [0.8, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]))}[which]
        pricer = QuantoCdsPricer(p)
        A, n = pricer._stacked, pricer.solve_grid.size
        v0 = np.concatenate([np.zeros(n), pricer._readout])
        probe = np.random.default_rng(5).standard_normal(2 * n)
        for record in (lambda v, k: v.copy(), lambda v, k: probe @ v):
            got = rk4_sweep(A, v0, 5.0 / 120, 120, record)
            want = horner_reference_sweep(A, v0, 5.0 / 120, 120, record)
            assert np.array_equal(got, want)

    def test_stability_error_at_reference_step(self):
        # a step far past the RK4 limit blows up at the same step, with
        # the same message, as the reference loop
        pricer = QuantoCdsPricer(ModelParams().with_(sigma_y=25.0))
        A = pricer._stacked
        v0 = np.concatenate([np.zeros(pricer.solve_grid.size), pricer._readout])
        messages = []
        for sweep in (rk4_sweep, horner_reference_sweep):
            with pytest.raises(StabilityError, match="step") as err:
                sweep(A, v0, 5.0 / 120, 120, lambda v, k: v[0])
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    def test_reused_record_buffer_gives_distinct_rows(self):
        # a record that returns one array every step still gives one row
        # per step, as a record returning fresh arrays does
        A = sps.diags([-1.0, -2.0, -3.0], format="csr")
        buf = np.empty(2)

        def reused(v, k):
            buf[:] = v[:2]
            return buf

        got = rk4_sweep(A, np.ones(3), 0.1, 10, reused)
        want = horner_reference_sweep(A, np.ones(3), 0.1, 10, lambda v, k: v[:2].copy())
        assert np.array_equal(got, want)
        assert len(np.unique(got[:, 1])) == 11

    def test_march_linear_in_terminal_data(self):
        p = ModelParams()
        g = build_grid(GridConfig(), p)
        A1, _ = engine_blocks(g, p)
        rng = np.random.default_rng(9)
        f = rng.standard_normal(g.size)
        h = rng.standard_normal(g.size)
        lhs = march(A1, 2.0 * f + 3.0 * h, 1.0, 0.05)
        rhs = 2.0 * march(A1, f, 1.0, 0.05) + 3.0 * march(A1, h, 1.0, 0.05)
        scale = np.abs(rhs).max()
        assert np.abs(lhs - rhs).max() / scale < 1e-9


class TestPde1:
    def test_pure_discounting(self):
        # sigma = kappa = 0 and rhat pinned at r_dom: L annihilates
        # constants in the interior, so the march is e^{-r T}
        p = frozen_params(rhat0=0.02, y0=-4.0)
        g = degenerate_grid(rhat_at=0.02, y_at=-4.0)
        A1, _ = engine_blocks(g, p)
        c = 3.7
        out = ScalarField(g, march(A1, np.full(g.size, c), 1.0, 0.05))
        got = interpolate(out, [0.45, 0.02, -4.0, 1.15])
        assert abs(got - c * np.exp(-0.02)) < 1e-6

    def test_zero_rate_zero_operator_is_identity(self):
        p = frozen_params(r_dom=0.0, rhat0=0.0, y0=-4.0)
        g = degenerate_grid(rhat_at=0.0, y_at=-4.0)
        A1, _ = engine_blocks(g, p)
        rng = np.random.default_rng(2)
        f = rng.standard_normal(g.size)
        out = march(A1, f, 1.0, 0.05)
        # interior rows of L vanish identically; edge rows only carry the
        # residual of one-sided stencils on random data
        assert np.abs(out - f).max() < 1e-6


class TestPde1Bound:
    def test_discounted_fx_supermartingale(self):
        # E[B(0,1) Z_1] <= z0: the post-default equation marched from
        # terminal z stays below the initial FX level at the market state
        p = ModelParams()
        g = build_grid(GridConfig(), p)
        A1, _ = engine_blocks(g, p)
        _, _, _, z = g.coordinate_fields()
        out = ScalarField(g, march(A1, z.copy(), 1.0, 0.05))
        got = interpolate(out, [0.45, 0.03, -4.089, 1.15])
        assert got <= p.z0 * 1.001


class TestPde2:
    def test_scalar_decay_with_constant_hazard(self):
        p = frozen_params(rhat0=0.02, y0=-1.0)
        g = degenerate_grid(rhat_at=0.02, y_at=-1.0)
        _, A2 = engine_blocks(g, p)
        c = 1.0
        out = ScalarField(g, march(A2, np.full(g.size, c), 1.0, 0.05))
        lam = np.exp(-1.0)
        got = interpolate(out, [0.45, 0.02, -1.0, 1.15])
        assert abs(got - c * np.exp(-(0.02 + lam))) < 1e-5

    def test_coupling_vanishes_when_uhat_equals_v(self):
        # lambda*(u_hat - v) = 0 when u_hat = v: the pre-default action on
        # v plus lambda*v equals the post-default action
        p = ModelParams()
        g = build_grid(GridConfig(), p)
        A1, A2 = engine_blocks(g, p)
        _, _, y, _ = g.coordinate_fields()
        lam = np.exp(y)
        rng = np.random.default_rng(4)
        v = rng.standard_normal(g.size)
        lhs = A2 @ v + lam * v
        rhs = A1 @ v
        assert np.abs(lhs - rhs).max() < 1e-10


class TestJumpShift:
    def test_identity_without_jumps(self):
        p = ModelParams()
        g = build_grid(GridConfig(), p)
        rng = np.random.default_rng(12)
        f = ScalarField(g, rng.standard_normal(g.size))
        out = jump_shift(f, p)
        assert np.array_equal(out.values, f.values)

    def test_fx_coordinate_field_scales(self):
        p = ModelParams().with_(gamma_z=-0.5)
        g = build_grid(GridConfig(), p)
        _, _, _, z = g.coordinate_fields()
        out = jump_shift(ScalarField(g, z.copy()), p)
        assert np.abs(out.values - 0.5 * z).max() < 1e-12

    def test_rate_coordinate_field_scales_with_extrapolation(self):
        p = ModelParams().with_(gamma_rhat=4.0)
        g = build_grid(GridConfig(), p)          # rhat axis extended to [0, 5]
        _, rr, _, _ = g.coordinate_fields()
        out = jump_shift(ScalarField(g, rr.copy()), p)
        assert np.abs(out.values - 5.0 * rr).max() < 1e-10


class TestBoundaryRows:
    def test_vanishing_rows_annihilate_affine_fields(self):
        # the y axis has far boundaries at both ends: its lifted,
        # boundary-masked D2 must kill fields affine in y on those rows
        p = ModelParams()
        g = build_grid(GridConfig(), p)
        L, _ = engine_blocks(g, p)
        idx = np.unravel_index(np.arange(g.size), g.shape)
        # isolate the y-diffusion block by differencing two operators
        # A1 = L - r, in which r cancels
        Lref, _ = engine_blocks(g, p.with_(sigma_y=0.0))
        D2y_block = L - Lref
        _, _, y, _ = g.coordinate_fields()
        out = D2y_block @ (1.0 + 3.0 * y)
        on_edge = (idx[2] == 0) | (idx[2] == g.shape[2] - 1)
        assert np.abs(out[on_edge]).max() == 0.0

    def test_degenerate_rows_use_one_sided_first_derivatives(self):
        x = np.linspace(0.0, 1.0, 10)
        D1, _ = slot_axis_operators(x)
        # first row reaches only forward, last row only backward
        assert D1[0, 0] != 0 and set(D1[0].indices) == {0, 1, 2}
        assert set(D1[9].indices) == {7, 8, 9}
