import numpy as np
import pytest
import scipy.sparse as sps

from quantocds.grid import Grid4D, GridConfig, build_grid
from quantocds.model import ModelParams
from quantocds.rbffd import StencilSlots, operator_slots, rbf_fd_weights
from reference_operator import (axis_operators, engine_blocks, lift_axis_operator,
                                same_csr, slot_axis_operators, slots_csr)


def gaussian(eps, center):
    def phi(x):
        return np.exp(-(eps * (x - center)) ** 2)
    def dphi(x):
        return -2 * eps**2 * (x - center) * phi(x)
    def d2phi(x):
        return (4 * eps**4 * (x - center) ** 2 - 2 * eps**2) * phi(x)
    return phi, dphi, d2phi


@pytest.mark.parametrize("h", [1 / 9, 1 / 36, 1 / 144])
@pytest.mark.parametrize("pos", ["left", "mid", "right"])
@pytest.mark.parametrize("order", [1, 2])
def test_weights_collocate_gaussian_basis(h, pos, order):
    # defining property: the weights differentiate every basis function
    # of the stencil exactly
    nodes = np.array([0.0, h, 2 * h])
    center = {"left": 0.0, "mid": h, "right": 2 * h}[pos]
    eps = 2 * h
    w = rbf_fd_weights(nodes, center, eps, order).weights
    for xj in nodes:
        phi, dphi, d2phi = gaussian(eps, xj)
        want = dphi(center) if order == 1 else d2phi(center)
        assert abs(w @ phi(nodes) - want) < 1e-10


def test_first_derivative_center_weight_zero_antisymmetric():
    h = 0.2
    w = rbf_fd_weights([-h, 0.0, h], 0.0, 2 * h, 1).weights
    assert w[1] == 0.0
    assert w[0] == pytest.approx(-w[2], abs=1e-14)


def collocation_weights(nodes, center, eps, order):
    """Reference weights from a dense solve of the Gaussian collocation
    system A w = b, A_ij = phi(|x_i - x_j|), b_i = phi^(order)(|center - x_i|).

    Only for well-conditioned stencils: the Gram matrix approaches the
    rank-one flat limit as eps*h shrinks, and the solve then loses up to
    11 digits that the closed forms keep.
    """
    nodes = np.asarray(nodes, dtype=float)
    basis = [gaussian(eps, xj) for xj in nodes]
    A = np.array([f[0](nodes) for f in basis])
    assert np.linalg.cond(A) < 1e12
    b = np.array([f[order](center) for f in basis])
    return np.linalg.solve(A, b)


def test_generic_path_matches_closed_form():
    # the closed forms against the dense solve, on all six stencils of a
    # well-conditioned configuration
    h, eps = 0.25, 1.5
    nodes = np.array([0.0, h, 2 * h])
    for center in nodes:
        for order in (1, 2):
            dense = collocation_weights(nodes, center, eps, order)
            closed = rbf_fd_weights(nodes, center, eps, order).weights
            assert np.allclose(dense, closed, rtol=1e-8)


def test_nonuniform_stencil_refused():
    with pytest.raises(ValueError, match="uniform"):
        rbf_fd_weights([0.0, 0.3, 1.0], 0.3, 1.0, 2)


@pytest.mark.parametrize("nodes, center, match", [
    ([0.0, 1.0, 2.0, 3.0], 1.0, "3 distinct nodes"),
    ([0.0, 0.5, 1.0], 0.25, "center")], ids=["four-nodes", "center-off-node"])
def test_stencil_without_closed_form_refused(nodes, center, match):
    with pytest.raises(ValueError, match=match):
        rbf_fd_weights(nodes, center, 1e-5, 2)


def test_weight_input_validation():
    with pytest.raises(ValueError):
        rbf_fd_weights([0.0, 1.0], 0.0, 1.0, 1)
    with pytest.raises(ValueError):
        rbf_fd_weights([0.0, 1.0, 2.0], 0.0, -1.0, 1)
    with pytest.raises(ValueError):
        rbf_fd_weights([0.0, 1.0, 2.0], 0.0, 1.0, 3)


@pytest.mark.parametrize("nodes, center, epsilon, name", [
    ([0.0, 0.5, 1.0], np.nan, 1.0, "center"),
    ([0.0, 0.5, 1.0], 0.5, np.nan, "epsilon"),
    ([0.0, 0.5, 1.0], 0.5, np.inf, "epsilon"),
    ([0.0, np.nan, 1.0], 0.5, 1.0, "nodes")], ids=["center", "epsilon-nan",
                                                   "epsilon-inf", "node"])
def test_non_finite_input_rejected(nodes, center, epsilon, name):
    # these returned nan weights, warned, or failed inside the SVD
    with pytest.raises(ValueError, match=name):
        rbf_fd_weights(nodes, center, epsilon, 1)


def test_derivative_convergence_second_order():
    # eps = 2h under h -> h/2 -> h/4, interior stencil, sin at 0.5
    errs = []
    hs = [1 / 9, 1 / 18, 1 / 36]
    for h in hs:
        w = rbf_fd_weights([0.5 - h, 0.5, 0.5 + h], 0.5, 2 * h, 1).weights
        errs.append(abs(w @ np.sin([0.5 - h, 0.5, 0.5 + h]) - np.cos(0.5)))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 1.7 <= slope <= 2.3


def operator_L(g, p):
    """L = A1 + r, from the engine's stacked operator."""
    A1, _ = engine_blocks(g, p)
    return (A1 + p.r_dom * sps.identity(g.size, format="csr")).tocsr()


class TestAxisOperators:
    def test_structure(self):
        x = np.linspace(0.0, 1.0, 10)
        D1, D2 = slot_axis_operators(x)
        assert D1.shape == (10, 10) and D2.shape == (10, 10)
        for M in (D1, D2):
            counts = np.diff(M.indptr)
            assert np.all(counts == 3)
        # edge rows are one-sided: first row touches columns 0..2 only
        assert set(D2[0].indices) == {0, 1, 2}
        assert set(D2[-1].indices) == {7, 8, 9}

    @pytest.mark.parametrize("n", [4, 10, 16])
    def test_rows_collocate_scaled_basis(self, n):
        # operators built on the unit-mapped axis differentiate the
        # correspondingly scaled Gaussians in physical coordinates
        x = np.linspace(-6.0, 0.0, n)
        L = x[-1] - x[0]
        eps_phys = (2.0 / (n - 1)) / L
        D1, D2 = slot_axis_operators(x)
        for row in range(n):
            lo = 0 if row == 0 else (n - 3 if row == n - 1 else row - 1)
            stencil = x[lo:lo + 3]
            for xj in stencil:
                phi, dphi, d2phi = gaussian(eps_phys, xj)
                assert abs(D1[row].toarray().ravel() @ phi(x) - dphi(x[row])) < 1e-10
                assert abs(D2[row].toarray().ravel() @ phi(x) - d2phi(x[row])) < 1e-10

    @pytest.mark.parametrize("shape", [(10, 10, 10, 10), (2, 10, 10, 10), (12, 11, 13, 9),
                                       (2, 2, 10, 10), (4,)])
    def test_lift_equals_kronecker_product(self, shape):
        # the reference build's lift: I (x) M (x) I as chained sps.kron,
        # stored entries included
        for axis, n in enumerate(shape):
            if n < 4:
                continue
            for M in axis_operators(np.linspace(0.0, 3.0, n)):
                ref = None
                for k, m in enumerate(shape):
                    f = M if k == axis else sps.identity(m, format="csr")
                    ref = f if ref is None else sps.kron(ref, f, format="csr")
                got = lift_axis_operator(shape, axis, M)
                assert got.shape == ref.shape
                for attr in ("data", "indices", "indptr"):
                    assert np.array_equal(getattr(got, attr), getattr(ref, attr))

    @pytest.mark.parametrize("span", [(0.0, 1.0), (0.0, 3.0), (-6.0, 0.0), (0.0, 0.4),
                                      (0.0, 5.0), (-40.0, -40.0 + 1e-9)])
    def test_reference_matches_engine_tables(self, span):
        # the reference's matrices, from the public rbf_fd_weights, equal
        # the engine's one-axis slots bit for bit, explicit zeros included
        for n in range(4, 40):
            x = np.linspace(*span, n)
            for M, S in zip(axis_operators(x), slot_axis_operators(x)):
                assert same_csr(M, S)

    def test_lift_refuses_ragged_rows(self):
        M = sps.csr_matrix(np.triu(np.ones((4, 4))))
        with pytest.raises(ValueError, match="same number of stored entries"):
            lift_axis_operator((3, 4), 1, M)

    @pytest.mark.parametrize("shape", [(10, 10, 10, 10), (2, 10, 10, 10), (12, 11, 13, 9),
                                       (2, 2, 10, 10)])
    def test_slots_hold_the_kronecker_product(self, shape):
        # one axis term with unit coefficient, written into its slots, is
        # I (x) M (x) I of that axis's D1 or D2 without its zeros
        g = Grid4D(tuple(np.linspace(0.0, 3.0, n) for n in shape))
        for axis, n in enumerate(shape):
            if n < 4:
                continue
            slots = StencilSlots(g, (axis,), [])
            for M, term in zip(axis_operators(g.axes[axis]), ((axis,), (axis, axis))):
                vals = np.zeros(slots.cols.shape)
                slots.add(vals, np.ones((1, 1, 1, 1)), term)
                ref = None
                for k, m in enumerate(shape):
                    f = M if k == axis else sps.identity(m, format="csr")
                    ref = f if ref is None else sps.kron(ref, f, format="csr")
                ref.eliminate_zeros()
                got = slots_csr(slots, vals)
                got.eliminate_zeros()
                assert same_csr(got, ref.sorted_indices())

    def test_mixed_derivative_product_oracle(self):
        # lifted D1_R @ D1_z applied to f = R*z equals 1 at interior
        # nodes, and so does the mixed term written into its slots,
        # which holds the same matrix
        g = build_grid(GridConfig(), ModelParams())
        d1R = axis_operators(g.axes[0])[0]
        d1z = axis_operators(g.axes[3])[0]
        D1R = lift_axis_operator(g.shape, 0, d1R)
        D1z = lift_axis_operator(g.shape, 3, d1z)
        slots = StencilSlots(g, (0, 3), [(0, 3)])
        vals = np.zeros(slots.cols.shape)
        slots.add(vals, np.ones((1, 1, 1, 1)), (0, 3))
        mixed = slots_csr(slots, vals)
        mixed.eliminate_zeros()
        product = D1R @ D1z
        product.eliminate_zeros()
        assert same_csr(mixed, product.sorted_indices())
        R, _, _, z = g.coordinate_fields()
        idx = np.unravel_index(np.arange(g.size), g.shape)
        interior = np.all([(idx[k] > 0) & (idx[k] < g.shape[k] - 1)
                           for k in range(4)], axis=0)
        for got in (D1R @ (D1z @ (R * z)), mixed @ (R * z)):
            err = np.abs(got - 1.0)[interior].max()
            assert err < (g.axes[0][1] - g.axes[0][0]) ** 2   # O(h^2); actually O(eps^2 h^2)


class TestAssembleL:
    def test_all_coefficients_zero_gives_zero_operator(self):
        # freeze every diffusion/drift and collapse the rhat axis onto
        # r_dom = 0 so the FX convection coefficient vanishes too
        p = ModelParams().with_(sigma_rhat=0.0, kappa_rhat=0.0, sigma_y=0.0,
                                kappa_y=0.0, sigma_z=0.0, r_dom=0.0, rhat0=0.0)
        g = build_grid(GridConfig(rhat_max=1e-12), p)
        L = operator_L(g, p)
        assert abs(L).max() < 1e-10

    def test_recovery_diffusion_vanishes_at_R_boundaries(self):
        p = ModelParams().with_(sigma_R=0.3, kappa_R=0.5)
        g = build_grid(GridConfig(), p)
        # r cancels in the difference of the two A1 = L - r
        with_diff, _ = engine_blocks(g, p)
        without, _ = engine_blocks(g, p.with_(sigma_R=0.0))
        diff = (with_diff - without).tocsr()     # the pure R-diffusion block
        idxR = np.unravel_index(np.arange(g.size), g.shape)[0]
        rows_at_edge = np.where((idxR == 0) | (idxR == g.shape[0] - 1))[0]
        sub = diff[rows_at_edge]
        edge_max = abs(sub).max() if sub.nnz else 0.0
        assert edge_max < 1e-14
        assert abs(diff).max() > 1e-3            # interior really carries it

    def test_convection_only_field_oracle(self):
        # with default parameter set L applied to the z coordinate leaves only
        # the FX convection term (r - rhat) z; plain Gaussian collocation
        # reproduces linears to O(eps^2 h^2), not exactly, so the check
        # runs at the scheme's consistency level
        p = ModelParams()
        g = build_grid(GridConfig(), p)
        R, rr, y, z = g.coordinate_fields()
        got = operator_L(g, p) @ z
        want = (p.r_dom - rr) * z
        idx = np.unravel_index(np.arange(g.size), g.shape)
        interior = np.all([(idx[k] > 0) & (idx[k] < g.shape[k] - 1)
                           for k in range(4)], axis=0)
        assert np.abs(got - want)[interior].max() < 5e-3
        assert np.abs(got - want)[interior].max() / np.abs(want).max() < 2e-3

    def test_block_linearity_in_sigma_squared(self):
        p = ModelParams()
        g = build_grid(GridConfig(), p)
        # A1 = L - r: r cancels in every difference
        L0, _ = engine_blocks(g, p.with_(sigma_y=0.0))
        L1, _ = engine_blocks(g, p.with_(sigma_y=0.4))
        L2, _ = engine_blocks(g, p.with_(sigma_y=0.4 * np.sqrt(2)))
        lhs = L2 - L0
        rhs = 2.0 * (L1 - L0)
        # np.allclose(lhs, rhs, atol=1e-12) entrywise (rtol 1e-5), taken
        # on the sparse difference instead of two dense 1e4 x 1e4 arrays
        assert (abs(lhs - rhs) - 1e-5 * abs(rhs)).max() <= 1e-12

    def test_mixed_terms_only_with_correlation(self):
        p = ModelParams().with_(sigma_R=0.3, kappa_R=0.5)
        g = build_grid(GridConfig(), p)
        rho = np.eye(4)
        rho[0, 2] = rho[2, 0] = 0.8               # R-z correlation
        L_corr, _ = engine_blocks(g, p.with_(rho=rho))
        L_none, _ = engine_blocks(g, p)
        assert abs(L_corr - L_none).max() > 1e-6

    def test_table_written_whole_into_the_callers_arrays(self):
        # operator_slots writes every entry of the arrays it is handed,
        # whatever they held and whichever index type they have: tables
        # placed over garbage and over zeros are equal
        rho = np.eye(4)
        rho[0, 2] = rho[2, 0] = 0.8
        p = ModelParams().with_(sigma_R=0.3, kappa_R=0.5, rho=rho, gamma_z=-0.4)
        g = build_grid(GridConfig(n_R=5, n_rhat=6, n_y=4, n_z=7), p)
        held = []

        def table(fill, dtype):
            def make(shape):
                held.append((np.full(shape, fill, dtype=dtype), np.full(shape, float(fill))))
                return held[-1]
            return make

        clean, clean_vals = operator_slots(g, p, table(0, np.int32))
        dirty, dirty_vals = operator_slots(g, p, table(-7, np.int64))
        assert dirty.cols is held[1][0] and dirty_vals is held[1][1]
        assert np.array_equal(dirty.cols, clean.cols)
        assert np.array_equal(dirty_vals, clean_vals)
        assert (clean.cols >= 0).all() and (clean.cols < g.size).all()

    def test_slot_columns_of_the_wrong_shape_refused(self):
        g = build_grid(GridConfig(), ModelParams())
        with pytest.raises(ValueError, match="slot columns need shape"):
            StencilSlots(g, (0, 3), [(0, 3)], cols=np.empty((8,) + g.shape, dtype=np.int32))
