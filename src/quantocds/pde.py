"""The stacked operator of the two pricing PDEs, jump shift, and RK4 marching.

Both equations are integrated backward from the terminal date; with
tau = T - t they become forward ODE systems dU/dtau = A U in the
method-of-lines sense.  The post-default equation governs the bond
value u (operator A1 = L - r); the pre-default equation governs v
(operator A2 = L - (r + lambda) - lambda*gamma_z*z*d/dz), coupled to u
through the jump term lambda*u_hat.  One stacked operator carries both,
the coupling as its off-diagonal block.  Time stepping is classical
explicit RK4, each step evaluated as its polynomial in Horner form: four
calls of scipy's compiled CSR kernel into preallocated buffers, with no
array allocated per step.  A large operator's SpMV is cut into
contiguous row ranges of about equal nnz, one per available core, each
computed by the kernel on its own thread; every row is still summed by
the same code in the same order, so the march is bit-identical to one
kernel call over all rows.
"""
from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np
import scipy.sparse as sps
# private scipy API: the compiled SpMV behind ``csr @ vector``;
# tests/test_pde.py pins the sweep against the ``A @ v`` loop
from scipy.sparse._sparsetools import csr_matvec

from .grid import Grid4D, ScalarField, interpolation_matrix
from .model import ModelParams
from .rbffd import operator_slots

__all__ = [
    "StabilityError",
    "jump_shift",
    "coupling_shift_matrix",
    "stacked_transpose",
    "inert_axes",
    "rk4_sweep",
]


class StabilityError(RuntimeError):
    """Explicit march produced non-finite values."""


# Nonzeros per row range below which an SpMV is not split further: on
# smaller operators the handoff between threads (tens of microseconds
# per SpMV) costs about what the split saves.  Every [10]^4 operator
# (at most 243 600 nnz) stays on one range.
_MIN_PART_NNZ = 250_000


def stacked_transpose(grid: Grid4D, p: ModelParams, terms) -> sps.csr_matrix:
    """S^T for the stacked operator S = [[A1, 0], [Lambda C, A2]].

    ``terms`` are the ``operator_terms`` of ``grid`` (the pricer cuts
    them from the configured grid).  The CSR arrays of S are written
    directly: row i of the top half holds the slots of A1 = L - r, row i
    of the bottom half the coupling row lambda_i * C_i
    (``coupling_shift_matrix``) followed by the slots of A2 = L - (r +
    lambda) - lambda*gamma_z*z*D1_z, lambda = e^y nodewise.  The
    compensator convection keeps discounted Z a martingale before
    default; it is written into the z slots that the FX drift term of L
    already lays out (``inert_axes``).  One CSR-to-CSC pass transposes S
    and sorts every row; exact zeros are dropped.
    """
    slots, vals = operator_slots(grid, p, terms)
    C = coupling_shift_matrix(grid, p)
    n, nslots = grid.size, len(vals)
    width = C.nnz // n              # every coupling row holds the same count
    top = n * nslots
    data = np.empty(top + n * (width + nslots))
    indices = np.empty(data.size, dtype=slots.cols.dtype)
    a1, lower = data[:top].reshape(n, nslots), data[top:].reshape(n, width + nslots)
    a1[:] = vals.reshape(nslots, n).T
    a1[:, 0] -= p.r_dom
    lam = np.exp(grid.axes[2]).reshape(1, 1, -1, 1)
    vals[0] -= p.r_dom + lam
    if p.gamma_z != 0.0:
        slots.add(vals, -(lam * p.gamma_z * grid.axes[3]), (3,))
    lower[:, :width] = (C.data.reshape(grid.shape + (width,))
                        * lam[..., None]).reshape(n, width)
    lower[:, width:] = vals.reshape(nslots, n).T
    cols, lower_cols = indices[:top].reshape(n, nslots), indices[top:].reshape(n, -1)
    cols[:] = slots.cols.reshape(nslots, n).T
    lower_cols[:, :width] = C.indices.reshape(n, width)
    np.add(cols, n, out=lower_cols[:, width:])
    indptr = np.concatenate([nslots * np.arange(n),
                             top + (width + nslots) * np.arange(n + 1)])
    S = sps.csr_matrix((data, indices, indptr), shape=(2 * n, 2 * n))
    S.eliminate_zeros()
    return S.T.tocsr()


def coupling_shift_matrix(grid: Grid4D, p: ModelParams) -> sps.csr_matrix:
    """Post-default solution translated onto pre-default states for the
    coupling term of the pre-default equation.

    The terminal data of the recovery solves already carries the FX
    conversion factor 1+gamma_z (and the post-default value is linear in
    z), so the coupling must not scale z again; the rhat coordinate is
    translated backward, rhat -> rhat/(1+gamma_rhat), mapping each
    pre-default state to the point whose jump image it is.  Double
    applying the FX jump here would square the devaluation factor and
    break the proportionality of the foreign spread to (1+gamma_z).
    """
    if p.gamma_rhat == 0.0:
        return sps.identity(grid.size, format="csr")
    R, rr, y, z = grid.coordinate_fields()
    if 1.0 + p.gamma_rhat < 1e-12:
        # total rate collapse: the jump maps every state to rhat = 0 and
        # the translation degenerates to evaluation there
        shifted = np.zeros_like(rr)
    else:
        shifted = rr / (1.0 + p.gamma_rhat)
    pts = np.stack([R, shifted, y, z], axis=1)
    return interpolation_matrix(grid, pts)


def inert_axes(p: ModelParams, terms) -> tuple[int, ...]:
    """Axes along which the stacked system never couples two slices.

    ``terms`` are ``operator_terms`` on the grid in question, which
    leaves out the terms that vanish there.  An axis is inert when no
    term differentiates along it and when it is not rhat under a rate
    jump (the coupling shift interpolates along rhat).  On an inert axis
    both operators act slice by slice.  z is never inert, so an FX
    jump's compensator needs no rule here: the FX drift (r_dom - rhat) z
    d/dz is nonzero on every ``build_grid`` grid, as its rhat axis has
    four or more distinct nodes and its z axis reaches z_max > 0.
    """
    live = {k for _, axes in terms for k in axes}
    if p.gamma_rhat != 0.0:
        live.add(1)
    return tuple(k for k in range(4) if k not in live)


def jump_shift(u: ScalarField, p: ModelParams) -> ScalarField:
    """Field of post-jump evaluations u(R, rhat*(1+g_rhat), y, z*(1+g_z)).

    Points leaving the hull use multilinear extrapolation from the
    boundary cell.  Without jumps every point is its own node, whose
    interpolation weight is exactly 1, so the values come back
    unchanged.
    """
    R, rr, y, z = u.grid.coordinate_fields()
    pts = np.stack([R, rr * (1.0 + p.gamma_rhat), y, z * (1.0 + p.gamma_z)], axis=1)
    return ScalarField(u.grid, interpolation_matrix(u.grid, pts) @ u.values)


def _cores() -> int:
    """Number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:              # no sched_getaffinity on this platform
        return os.cpu_count() or 1


@contextmanager
def _row_split_spmv(m: int, n: int, indptr: np.ndarray, indices: np.ndarray,
                    data: np.ndarray, parts: int) -> Iterator[Callable]:
    """Yield ``spmv(x, y)``, writing y = A x for the m x n CSR arrays of
    A, computed as ``parts`` contiguous row ranges of about equal nnz.

    The calling thread computes range 0 and one helper thread each
    further range; each zeroes its own slice of y and calls the kernel
    on it, with ``indptr`` cut to its rows.  Helpers start on entry and
    are stopped and joined on exit, whether the block returned or
    raised; an error in a helper is raised again by ``spmv``.

    Each helper idles on its ``go`` lock, held between SpMVs: the
    calling thread releases it to start the helper's range and acquires
    ``done`` to wait for the range to finish.  Only the helper acquires
    ``go`` and only the calling thread releases it, so on exit a held
    ``go`` is a wake-up still owed, and releasing only held ones never
    releases a lock twice.
    """
    cuts = np.searchsorted(indptr, np.arange(1, parts) * (indptr[-1] / parts)).tolist()
    # each range as its row count, its cut of indptr and its slice of y
    ranges = [(hi - lo, indptr[lo:hi + 1], slice(lo, hi))
              for lo, hi in zip([0, *cuts], [*cuts, m])]
    operands = [None, None]             # x and y of the SpMV in progress

    def run(part: int, x: np.ndarray, y: np.ndarray) -> None:
        rows, ptr, cut = ranges[part]
        out = y[cut]
        out.fill(0.0)
        csr_matvec(rows, n, ptr, indices, data, x, out)

    stop = threading.Event()
    go = [threading.Lock() for _ in ranges[1:]]
    done = [threading.Lock() for _ in ranges[1:]]
    errors = [None] * len(go)

    def serve(k: int) -> None:          # helper k computes range k + 1
        while True:
            go[k].acquire()
            if stop.is_set():
                return
            try:
                run(k + 1, *operands)
            except BaseException as exc:    # raised again by the calling thread
                errors[k] = exc
            done[k].release()

    def spmv(x: np.ndarray, y: np.ndarray) -> None:
        if not go:                      # one range: nothing to hand off
            run(0, x, y)
            return
        operands[:] = x, y
        for lock in go:
            lock.release()
        run(0, x, y)
        for lock in done:
            lock.acquire()
        for exc in errors:
            if exc is not None:
                raise exc

    helpers = []
    try:
        for k in range(len(go)):
            go[k].acquire()
            done[k].acquire()
            # a daemon, so that a helper stuck by a fault cannot keep the
            # interpreter from exiting
            helper = threading.Thread(target=serve, args=(k,), name=f"rk4-spmv-{k + 1}",
                                      daemon=True)
            helper.start()
            helpers.append(helper)
        yield spmv
    finally:
        stop.set()
        for lock, helper in zip(go, helpers):
            if lock.locked():
                lock.release()
            helper.join()


def rk4_sweep(A: sps.spmatrix, v0: np.ndarray, h: float, nsteps: int,
              record: Callable[[np.ndarray, int], float | np.ndarray]) -> np.ndarray:
    """Fixed-step RK4 recording ``record(v, k)`` after every step.

    Because the operators are time independent and terminal data scales
    linearly, one sweep of m steps prices all m nested horizons at once.
    ``record`` returns a scalar or a vector; row k of the returned array
    holds the step-k record, for k = 0..nsteps.  Raises StabilityError
    naming the step at which the explicit scheme blows up (the
    operator's spectral radius is the caller's responsibility; the
    engine detects rather than repairs).

    For a constant A the classical four-stage step is the polynomial
    v + hAv + (hA)^2 v/2 + (hA)^3 v/6 + (hA)^4 v/24, which the sweep
    evaluates in Horner form, v + hA(v + h/2 A(v + h/3 A(v + h/4 Av))):
    the same four SpMVs, with the scalings and adds done in place.

    A is converted to float64 CSR once, and every SpMV calls scipy's
    compiled kernel ``csr_matvec`` (the one ``A @ v`` ends in) on two
    preallocated buffers that swap roles, so a step allocates nothing.
    The kernel accumulates y += A x, hence each output buffer is zeroed
    first, as ``A @ v`` zeroes its fresh result.

    Each SpMV runs as ``parts = max(1, min(cores, nnz // _MIN_PART_NNZ))``
    contiguous row ranges of A, cut by ``indptr`` to about equal nnz,
    where ``cores`` is the number this process may run on, read per
    sweep.  The calling thread computes the first range and one helper
    thread each further range; the kernel releases the interpreter lock,
    so the ranges run at once, each on its own core and its own share of
    A, x and y.  The helpers live for one sweep and are
    joined before it returns or raises.  The Horner scalings, the
    finiteness test and ``record`` run on the calling thread.  A row's
    sum does not depend on which range holds it, so the sweep is
    bit-identical to the ``A @ v`` loop for any number of parts;
    ``record`` may return the same array every step, since its rows are
    copied out.
    """
    A = A.tocsr()
    m, n = A.shape
    data = A.data.astype(np.float64, copy=False)
    parts = max(1, min(_cores(), A.nnz // _MIN_PART_NNZ))
    v = np.array(v0, dtype=np.float64)
    w, spare = np.empty(m), np.empty(m)
    finite = np.empty(m, dtype=bool)
    first = np.asarray(record(v, 0), dtype=float)
    out = np.empty((nsteps + 1,) + first.shape)
    out[0] = first
    # overflow past the stability limit is handled: every step is
    # tested with isfinite and raises StabilityError
    with np.errstate(over="ignore", invalid="ignore"), \
            _row_split_spmv(m, n, A.indptr, A.indices, data, parts) as spmv:
        for k in range(nsteps):
            spmv(v, w)
            for c in (h / 4.0, h / 3.0, h / 2.0):
                w *= c
                w += v
                spmv(w, spare)
                w, spare = spare, w
            w *= h
            v += w
            if not np.isfinite(v, out=finite).all():
                raise StabilityError(
                    f"non-finite values at sweep step {k + 1}/{nsteps} (dt={h:.4g})")
            out[k + 1] = record(v, k + 1)
    return out
