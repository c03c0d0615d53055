import sys
import threading
import time

import numpy as np
import pytest
import scipy.sparse as sps

import quantocds.pde as pde
from quantocds.grid import Csr, Grid4D, GridConfig, ScalarField, build_grid, interpolate
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


@pytest.fixture
def split_in_halves(monkeypatch):
    """Every sweep run on two cores with the split threshold at one
    nonzero: a record given as two tiles is marched on two threads, one
    per tile."""
    monkeypatch.setattr(pde, "_MIN_PART_NNZ", 1)
    monkeypatch.setattr(pde, "_cores", lambda: 2)


def within_bound(call, timeout: float = 60.0):
    """``call()`` run on a thread of its own, joined within ``timeout``
    seconds: a sweep that loses a helper's error or meeting fails the
    test instead of hanging the suite.  Returns what ``call`` returns
    and raises again what it raises."""
    box = {}

    def run():
        try:
            box["result"] = call()
        except BaseException as exc:
            box["error"] = exc

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=timeout)
    assert not runner.is_alive()
    if "error" in box:
        raise box["error"]
    return box["result"]


def on_helper() -> bool:
    """Whether the current thread is a helper of a split sweep."""
    return threading.current_thread().name.startswith("rk4-rows-")


def pricer_case(which: str) -> QuantoCdsPricer:
    return QuantoCdsPricer({
        "defaults": ModelParams(),
        "fx-sweep-quote": ModelParams().with_(gamma_z=-0.3719),
        "correlated-stochastic-R": ModelParams().with_(
            sigma_R=0.3, kappa_R=0.5,
            rho=np.array([[1.0, 0.0, 0.8, 0.0], [0.0, 1.0, 0.0, 0.0],
                          [0.8, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]))}[which])


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
        # arithmetic in its order: every state and every record is equal,
        # whether v is recorded whole or as its two halves
        pricer = pricer_case(which)
        A, n = pricer._stacked, pricer.solve_grid.size
        v0 = np.concatenate([np.zeros(n), pricer.readout.toarray()[0]])
        probe = np.random.default_rng(5).standard_normal(2 * n)
        for record in (lambda v, k: v.copy(), lambda v, k: probe @ v):
            got = rk4_sweep(A, v0, 5.0 / 120, 120, record)
            want = horner_reference_sweep(A, v0, 5.0 / 120, 120, record)
            assert np.array_equal(got, want)
        halves = rk4_sweep(A, v0, 5.0 / 120, 120, (lambda u, k: u.copy(),) * 2)
        states = horner_reference_sweep(A, v0, 5.0 / 120, 120, lambda v, k: v.copy())
        assert np.array_equal(np.hstack(halves), states)

    def test_stability_error_at_reference_step(self):
        # a step far past the RK4 limit blows up at the same step, with
        # the same message, as the reference loop, whether v is recorded
        # whole or as its two halves
        pricer = QuantoCdsPricer(ModelParams().with_(sigma_y=25.0))
        A, n = pricer._stacked, pricer.solve_grid.size
        v0 = np.concatenate([np.zeros(n), pricer.readout.toarray()[0]])
        payoff = pricer.solve_grid.coordinate_fields()[3]
        with pytest.raises(StabilityError, match="step") as want:
            horner_reference_sweep(A, v0, 5.0 / 120, 120, lambda v, k: v[0])
        for record in (lambda v, k: v[0], (lambda u, k: u[0], lambda u, k: payoff @ u)):
            with pytest.raises(StabilityError, match="step") as got:
                rk4_sweep(A, v0, 5.0 / 120, 120, record)
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("which", ["defaults", "fx-sweep-quote", "correlated-stochastic-R"])
    def test_split_sweep_bit_identical_to_reference(self, which, split_in_halves):
        # the two halves marched on two threads sum every row as one
        # kernel call does: the 14 600- and 243 600-nnz operators, which
        # sweeps keep on the calling thread, still match the reference
        # bit for bit
        self.test_sweep_bit_identical_to_reference(which)

    def test_split_stability_error_at_reference_step(self, split_in_halves):
        self.test_stability_error_at_reference_step()

    def test_half_split_stability_error_at_reference_step(self, split_in_halves):
        # blow-up under the per-half split: the same step and message as
        # the reference loop, and no overflow warning escalated on the
        # helper (numpy's error state is per thread, and a warning turned
        # into an error there would reach the caller instead)
        pricer = QuantoCdsPricer(ModelParams().with_(sigma_y=25.0))
        A, n = pricer._stacked, pricer.solve_grid.size
        v0 = np.concatenate([np.zeros(n), pricer.readout.toarray()[0]])
        payoff = pricer.solve_grid.coordinate_fields()[3]
        with pytest.raises(StabilityError, match="step") as got:
            rk4_sweep(A, v0, 5.0 / 120, 120, (lambda u, k: u[0], lambda u, k: payoff @ u))
        with pytest.raises(StabilityError, match="step") as want:
            horner_reference_sweep(A, v0, 5.0 / 120, 120, lambda v, k: v[0])
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("cores", [2, 3])
    @pytest.mark.parametrize("which", ["defaults", "fx-sweep-quote", "correlated-stochastic-R"])
    def test_half_records_bit_identical_to_reference(self, which, cores, split_in_halves,
                                                     monkeypatch):
        # a record in two tiles, post-default rows and pre-default rows:
        # on two cores or more each half's thread records its own tile;
        # every state row and every dot equals the reference loop's, the
        # dot taken by the same call
        monkeypatch.setattr(pde, "_cores", lambda: cores)
        pricer = pricer_case(which)
        A, n = pricer._stacked, pricer.solve_grid.size
        v0 = np.concatenate([np.zeros(n), pricer.readout.toarray()[0]])
        payoffs = np.random.default_rng(5).standard_normal((3, n))
        post, pre = rk4_sweep(A, v0, 5.0 / 120, 120,
                              (lambda u, k: u.copy(), lambda u, k: np.dot(payoffs, u)))
        states = horner_reference_sweep(A, v0, 5.0 / 120, 120, lambda v, k: v.copy())
        dots = horner_reference_sweep(A, v0, 5.0 / 120, 120,
                                      lambda v, k: np.dot(payoffs, v[n:]))
        assert np.array_equal(post, states[:, :n])
        assert np.array_equal(pre, dots)

    def test_tiles_must_divide_rows(self):
        # two tiles of three rows, and a record of no tiles at all
        for tiles in (2, 0):
            with pytest.raises(ValueError, match="tiles"):
                rk4_sweep(sps.identity(3, format="csr"), np.ones(3), 0.1, 2,
                          (lambda u, k: u[0],) * tiles)

    @pytest.mark.parametrize("fmt", ["csc", "dense"])
    def test_refuses_non_csr_input(self, fmt):
        # the arrays of a CSC matrix read as CSR are its transpose: the
        # sweep refuses it rather than marching the wrong operator
        M = np.array([[-1.0, 0.5], [0.0, -2.0]])
        A = sps.csc_matrix(M) if fmt == "csc" else M
        with pytest.raises(ValueError, match="CSR"):
            rk4_sweep(A, np.ones(2), 0.1, 2, lambda v, k: v[0])

    @pytest.mark.parametrize("rows, cols, size", [(5, 5, 8), (5, 5, 2), (3, 10, 3)],
                             ids=["long-state", "short-state", "wide-matrix"])
    def test_refuses_mismatched_shapes(self, rows, cols, size, monkeypatch):
        # the kernel reads the state without bounds checks: a longer
        # state would march with its tail dropped, a shorter one or a
        # wide matrix would read past it, so the sweep refuses them
        # before any kernel call
        def no_kernel(*args):
            raise AssertionError("kernel called on mismatched shapes")

        monkeypatch.setattr(pde, "csr_matvec", no_kernel)
        A = Csr(-np.ones(rows), (np.arange(rows) * 5 + 4) % cols,
                np.arange(rows + 1), (rows, cols))
        with pytest.raises(ValueError, match="square CSR matrix"):
            rk4_sweep(A, np.ones(size), 0.1, 2, lambda v, k: v[0])

    @pytest.mark.parametrize("which", ["defaults", "fx-sweep-quote", "correlated-stochastic-R"])
    @pytest.mark.parametrize("threads", ["one", "split"])
    def test_sparse_initial_row_bit_identical_to_dense(self, which, threads, monkeypatch):
        # the readout row as a 1 x 2N CSR matrix is written straight into
        # the marched state: every state and every record equals the
        # sweep from its dense vector, whole or in two tiles, on one
        # thread and split in halves
        if threads == "split":
            monkeypatch.setattr(pde, "_MIN_PART_NNZ", 1)
            monkeypatch.setattr(pde, "_cores", lambda: 2)
        pricer = pricer_case(which)
        A, n, r = pricer._stacked, pricer.solve_grid.size, pricer.readout
        row = Csr(r.data, r.indices + n, r.indptr, (1, 2 * n))
        v0 = np.concatenate([np.zeros(n), r.toarray()[0]])
        assert np.array_equal(row.toarray()[0], v0)
        probe = np.random.default_rng(5).standard_normal(n)
        for record in ((lambda v, k: v.copy(),),
                       (lambda u, k: u.copy(), lambda u, k: np.einsum("j,j->", probe, u))):
            got = rk4_sweep(A, row, 5.0 / 120, 120, record)
            want = rk4_sweep(A, v0, 5.0 / 120, 120, record)
            assert all(map(np.array_equal, got, want))

    def test_dense_initial_state_is_copied(self):
        # a vector v0 is marched on a copy: the caller's array is unchanged
        A = sps.diags([-1.0, -2.0], format="csr")
        v0 = np.ones(2)
        rk4_sweep(A, v0, 0.1, 3, lambda v, k: v[0])
        assert np.array_equal(v0, np.ones(2))

    @pytest.mark.parametrize("shape", [(2, 5), (1, 4), (1, 6)],
                             ids=["two-rows", "narrow", "wide"])
    def test_refuses_mismatched_sparse_row(self, shape, monkeypatch):
        # a CSR initial state must be one row as wide as the operator:
        # the densifying kernel writes without bounds checks, so any
        # other shape is refused before any kernel call
        def no_kernel(*args):
            raise AssertionError("kernel called on a mismatched initial row")

        monkeypatch.setattr(pde, "csr_matvec", no_kernel)
        monkeypatch.setattr(pde, "csr_todense", no_kernel)
        A = Csr(-np.ones(5), np.arange(5), np.arange(6), (5, 5))
        rows, cols = shape
        v0 = Csr(np.ones(rows), np.zeros(rows, dtype=np.int64), np.arange(rows + 1), shape)
        with pytest.raises(ValueError, match="square CSR matrix"):
            rk4_sweep(A, v0, 0.1, 2, lambda v, k: v[0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("tiles", [1, 2])
    def test_finiteness_verdict_matches_reference(self, bad, tiles):
        # under an operator of no entries the state keeps its values, so
        # NaN, +inf and -inf each stay for the min/max test to find (+inf
        # only through the maximum, -inf only through the minimum): it
        # raises at the step, and with the message, of the reference
        # loop's elementwise test, and lets the largest finite values of
        # both signs pass
        A = Csr(np.empty(0), np.empty(0, dtype=np.int32), np.zeros(5, dtype=np.int32), (4, 4))
        record = (lambda u, k: u.copy(),) * tiles
        for at in range(4):
            v0 = np.ones(4)
            v0[at] = bad
            with pytest.raises(StabilityError, match="step 1/3") as got:
                rk4_sweep(A, v0, 0.1, 3, record)
            with pytest.raises(StabilityError) as want:
                horner_reference_sweep(A, v0, 0.1, 3, lambda v, k: v.copy())
            assert str(got.value) == str(want.value)
        big = np.finfo(float).max
        v0 = np.array([big, -big, big, -big])
        got = rk4_sweep(A, v0, 0.1, 3, record)
        assert np.array_equal(np.hstack(got), np.tile(v0, (4, 1)))

    def test_empty_state_marches(self):
        # an empty state is finite, as the elementwise test found it
        A = Csr(np.empty(0), np.empty(0, dtype=np.int32), np.zeros(1, dtype=np.int32), (0, 0))
        got = rk4_sweep(A, np.empty(0), 0.1, 3, lambda v, k: v.sum())
        assert np.array_equal(got, np.zeros(4))

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


class TestSplitSweepThreads:
    """The helper threads of a split sweep live for one call."""

    def operator(self):
        # diagonally dominant with a negative diagonal: a decaying march
        rng = np.random.default_rng(3)
        A = sps.random(300, 300, density=0.05, random_state=rng, format="csr")
        return (A - sps.diags(np.asarray(abs(A).sum(axis=1)).ravel())).tocsr()

    def threads_per_step(self, A, v0, nsteps=5):
        """Threads alive at each step of a sweep recorded in two tiles,
        read by the first tile's record after a pause long enough for a
        helper that has left the sweep to end."""
        def alive(u, k):
            time.sleep(0.01)
            return threading.active_count()

        return rk4_sweep(A, v0, 0.05, nsteps, (alive, lambda u, k: u[0]))[0]

    def test_helpers_run_during_sweep_and_end_with_it(self, split_in_halves):
        A = self.operator()
        before = threading.active_count()
        alive = self.threads_per_step(A, np.ones(A.shape[0]))
        assert (alive[1:] == before + 1).all()
        assert threading.active_count() == before

    def test_helpers_end_when_sweep_raises_stability_error(self, split_in_halves):
        A = self.operator()
        before = threading.active_count()
        with pytest.raises(StabilityError, match="step"):
            rk4_sweep(A, np.ones(A.shape[0]), 10.0, 200, (lambda u, k: u[0],) * 2)
        assert threading.active_count() == before

    @pytest.mark.parametrize("failing", ["helper", "caller"])
    def test_kernel_error_reaches_caller(self, failing, split_in_halves, monkeypatch):
        # the kernel fails on the helper's rows only, or on the calling
        # thread's only, while the helper marches; the sweep raises that
        # error and leaves no helper behind
        kernel = pde.csr_matvec

        class KernelFault(RuntimeError):
            pass

        def faulty(*args):
            if on_helper() == (failing == "helper"):
                raise KernelFault(f"{failing} rows")
            kernel(*args)

        monkeypatch.setattr(pde, "csr_matvec", faulty)
        A = self.operator()
        before = threading.active_count()
        with pytest.raises(KernelFault, match=failing):
            within_bound(lambda: rk4_sweep(A, np.ones(A.shape[0]), 0.05, 5,
                                           (lambda u, k: u[0],) * 2))
        assert threading.active_count() == before

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_tile_recorded_by_the_thread_owning_its_rows(self, cores, split_in_halves,
                                                         monkeypatch):
        # one core: both tiles on the calling thread; two: the second
        # half on the helper owning it; three: two tiles still take two
        # threads
        monkeypatch.setattr(pde, "_cores", lambda: cores)
        A = self.operator()
        seen = [set(), set()]

        def tile(i):
            def rec(u, k):
                if k:
                    seen[i].add(threading.current_thread().name)
                return u.sum()
            return rec

        rk4_sweep(A, np.ones(300), 0.05, 5, (tile(0), tile(1)))
        caller = threading.current_thread().name
        assert seen == {1: [{caller}, {caller}], 2: [{caller}, {"rk4-rows-1"}],
                        3: [{caller}, {"rk4-rows-1"}]}[cores]

    @pytest.mark.parametrize("cores, nnz, tiles, recorders", [
        (4, "enough", None, ["caller"]),
        (4, "enough", 1, ["caller"]),
        (2, "enough", 2, ["caller", "rk4-rows-1"]),
        (4, "enough", 2, ["caller", "rk4-rows-1"]),
        (1, "enough", 2, ["caller", "caller"]),
        (2, "short", 2, ["caller", "caller"]),
        (2, "enough", 3, ["caller", "caller", "caller"]),
        (3, "enough", 3, ["caller", "rk4-rows-1", "rk4-rows-2"]),
        (3, "short", 3, ["caller", "caller", "caller"]),
    ], ids=["callable", "1 tile", "2 tiles", "2 tiles, 4 cores", "2 tiles, 1 core",
            "2 tiles, short", "3 tiles, 2 cores", "3 tiles", "3 tiles, short"])
    def test_one_thread_per_tile(self, cores, nnz, tiles, recorders, monkeypatch):
        # ``tiles`` None is a single callable.  A sweep takes one thread
        # per tile when it has a core per tile and a nonzero count of at
        # least tiles * _MIN_PART_NNZ ("enough"; "short" is one below the
        # threshold); otherwise the calling thread records every tile
        A = self.operator()
        count = tiles or 1
        monkeypatch.setattr(pde, "_cores", lambda: cores)
        monkeypatch.setattr(pde, "_MIN_PART_NNZ", A.nnz // count + (nnz == "short"))
        caller = threading.current_thread().name
        before = threading.active_count()
        seen, alive = [set() for _ in range(count)], set()

        def tile(i):
            def rec(u, k):
                if k:
                    seen[i].add(threading.current_thread().name)
                    alive.add(threading.active_count())
                return u.sum()
            return rec

        record = tile(0) if tiles is None else [tile(i) for i in range(tiles)]
        rk4_sweep(A, np.ones(300), 0.05, 5, record)
        assert seen == [{caller if name == "caller" else name} for name in recorders]
        assert alive == {before + len(set(recorders) - {"caller"})}

    @pytest.mark.parametrize("failing, cores", [
        pytest.param(failing, cores, id=failing if cores == 2 else f"{failing}, 3 cores")
        for cores in (2, 3) for failing in ("helper kernel", "helper record", "caller record")])
    def test_half_error_reaches_caller(self, failing, cores, split_in_halves, monkeypatch):
        # a helper fails in its kernel call or in the pre-default tile,
        # or the calling thread fails in the post-default tile while the
        # helper marches on, on two cores and on three (where the two
        # tiles still take two threads): the sweep raises that error and
        # leaves no helper behind
        monkeypatch.setattr(pde, "_cores", lambda: cores)
        kernel = pde.csr_matvec

        class HalfFault(RuntimeError):
            pass

        def fail(where: str) -> None:
            if failing == where and on_helper() == failing.startswith("helper"):
                raise HalfFault(failing)

        def faulty(*args):
            fail("helper kernel")
            kernel(*args)

        def tile(u, k):
            if k == 3:
                fail("helper record")
                fail("caller record")
            return u[0]

        monkeypatch.setattr(pde, "csr_matvec", faulty)
        A = self.operator()
        before = threading.active_count()
        with pytest.raises(HalfFault) as err:
            within_bound(lambda: rk4_sweep(A, np.ones(A.shape[0]), 0.05, 5, (tile, tile)))
        assert str(err.value) == failing
        assert threading.active_count() == before

    def test_many_ranges_under_fast_switching(self, split_in_halves, monkeypatch):
        # four tiles on four threads, more than the cores of a small
        # host, with the interpreter switching threads every microsecond:
        # a lost or early meeting would leave a stale slice, so the
        # states must still equal the reference
        monkeypatch.setattr(pde, "_cores", lambda: 4)
        A = self.operator()
        v0 = np.random.default_rng(4).standard_normal(A.shape[0])
        want = horner_reference_sweep(A, v0, 0.05, 40, lambda v, k: v.copy())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = within_bound(lambda: rk4_sweep(A, v0, 0.05, 40, (lambda u, k: u.copy(),) * 4))
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(np.hstack(got), want)

    def test_one_core_starts_no_thread(self, split_in_halves, monkeypatch):
        monkeypatch.setattr(pde, "_cores", lambda: 1)
        A = self.operator()
        before = threading.active_count()
        alive = self.threads_per_step(A, np.ones(A.shape[0]))
        assert (alive == before).all()


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
