"""The stacked operator of the two pricing PDEs, jump shift, and RK4 marching.

Both equations are integrated backward from the terminal date; with
tau = T - t they become forward ODE systems dU/dtau = A U in the
method-of-lines sense.  The post-default equation governs the bond
value u (operator A1 = L - r); the pre-default equation governs v
(operator A2 = L - (r + lambda) - lambda*gamma_z*z*d/dz), coupled to u
through the jump term lambda*u_hat.  One stacked operator carries both,
the coupling as its off-diagonal block.  Time stepping is classical
explicit RK4, each step evaluated as its polynomial in Horner form:
four calls of scipy's compiled CSR kernel into preallocated buffers,
with no state vector allocated per step.  The operator is a
``grid.Csr``, run by the kernels ``grid`` loads (see there).  A large
operator recorded in P tiles is marched on P threads, one per tile,
when the process may run on P cores: a tile's thread runs the kernel
on its rows, the Horner update, the finiteness test and the tile's
record, so on two cores the pricer's two halves (post-default rows,
pre-default rows) each march on their own core.  Anything else
marches on the calling thread.  The
threads meet at one barrier after every stage; a helper that fails
aborts it, and the calling thread raises that error.  Every row is
still summed and updated by the same code in the same order, so the
march is bit-identical to one kernel call over all rows.
"""
from __future__ import annotations

import os
import threading
from math import isfinite
from typing import Callable, Sequence

import numpy as np

from .grid import Csr, Grid4D, ScalarField, index_dtype, interpolation_matrix, sparsetools
from .model import ModelParams
from .rbffd import operator_slots, operator_terms

# scipy's compiled CSR kernels (``grid.sparsetools``): ``csr_matvec`` is
# the SpMV behind ``A @ v``, pinned against the ``A @ v`` loop in
# tests/test_pde.py; ``csr_tocsc`` is the transpose behind scipy's
# ``tocsc()``, pinned against ``reference_stacked``'s ``bmat`` of
# transposed blocks in tests/test_pricing.py
csr_eliminate_zeros = sparsetools.csr_eliminate_zeros
csr_matvec = sparsetools.csr_matvec
csr_tocsc = sparsetools.csr_tocsc
csr_todense = sparsetools.csr_todense

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


# Nonzeros per record tile below which a sweep is not split into one
# thread per tile: on smaller operators the meeting of the threads (tens
# of microseconds per SpMV) costs about what the split saves.  Every
# [10]^4 operator (at most 243 600 nnz) stays on the calling thread.
_MIN_PART_NNZ = 250_000

# Entries of S^T whose slot tags ``stacked_transpose`` reads at a time:
# the block's masks and hit lists stay far below the operator's size.
_TAG_BLOCK = 1 << 16


def stacked_transpose(grid: Grid4D, p: ModelParams) -> Csr:
    """S^T for the stacked operator S = [[A1, 0], [Lambda C, A2]] on ``grid``.

    L comes from ``operator_slots(grid, p)``, its coefficients evaluated
    on ``grid``'s own nodes.  S itself is never built.  With nslots
    slots per row of L and ``width`` entries per coupling row lambda_i
    * C_i (``coupling_shift_matrix``, lambda = e^y nodewise), the left
    block column [A1; Lambda C] of S holds head = N * (nslots + width)
    entries.  The output arrays are allocated once, with room for
    2 * head entries, and their two regions (first and last head
    entries) are used in turn:

    - the first region holds L's slot table, which ``operator_slots``
      writes there;
    - the second holds [A1; Lambda C] as 2N CSR rows: row i of the top
      half the slots of A1 = L - r, row i of the bottom half the
      coupling row.  The slot table is then spent, save A2's values
      where A2 = L - (r + lambda) - lambda*gamma_z*z*D1_z differs from
      L: slot 0 and, under an FX jump, the z slots that the FX drift
      term of L already lays out (``inert_axes``).  The compensator
      convection keeps discounted Z a martingale before default;
    - one CSR-to-CSC pass transposes the second region into the first,
      the N post-default rows [A1^T, (Lambda C)^T] of S^T;
    - the N pre-default rows [0, A2^T] are written over the spent
      second region.  A2^T has A1^T's pattern, so pre-default row j is
      a copy of post-default row j with its columns moved past N, A2's
      values written over the entries from the slots where A2 differs
      from L, and its coupling entries set to zero.  Those entries are
      found by one more CSR-to-CSC pass, over int8 tags of the
      source's slots (at most 33), read ``_TAG_BLOCK`` entries at a
      time.

    Every row comes out sorted, ``csr_eliminate_zeros`` drops exact
    zeros in place (the zeroed coupling copies with them), and both
    arrays are then cut to the entries kept, so the returned ``Csr``
    holds exactly its operator.  The build peaks at the two regions
    plus one tag byte per entry, 1.2 times the operator it returns
    (traced with stochastic recovery: 7.4, 23.4 and 57.1 MiB for
    operators of 6.0, 19.5 and 48.2 MiB on [12]^4, [16]^4 and [20]^4).
    Each entry is the float that the term-by-term reference build
    gives, in the same place.
    """
    C = coupling_shift_matrix(grid, p)
    n = grid.size
    width = C.nnz // n              # every coupling row holds the same count
    st_data = st_indices = None

    def table(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """Allocate the output arrays, indexed for the 2 * head entries
        they hold until the zeros are dropped; the slot table is their
        first region."""
        nonlocal st_data, st_indices
        head = n * (shape[0] + width)
        st_data = np.empty(2 * head)
        st_indices = np.empty(2 * head, dtype=index_dtype(2 * head))
        return (st_indices[:n * shape[0]].reshape(shape),
                st_data[:n * shape[0]].reshape(shape))

    slots, vals = operator_slots(grid, p, table)
    nslots = len(vals)
    top = n * nslots
    head = top + n * width
    itype = st_indices.dtype
    lam = np.exp(grid.axes[2]).reshape(1, 1, -1, 1)
    # [A1; Lambda C], the left block column of S, as 2n CSR rows
    data, indices = st_data[head:], st_indices[head:]
    a1 = data[:top].reshape(n, nslots)
    a1[:] = vals.reshape(nslots, n).T
    a1[:, 0] -= p.r_dom
    data[top:] = (C.data.reshape(grid.shape + (width,)) * lam[..., None]).ravel()
    indices[:top].reshape(n, nslots)[:] = slots.cols.reshape(nslots, n).T
    indices[top:] = C.indices
    del C
    indptr = np.concatenate([np.arange(0, top, nslots, dtype=itype),
                             np.arange(top, head + 1, width, dtype=itype)])
    # A2's values in the slots where it differs from L; the table is then spent
    vals[0] -= p.r_dom + lam
    touched = [0]
    if p.gamma_z != 0.0:
        slots.add(vals, -(lam * p.gamma_z * grid.axes[3]), (3,))
        touched = [slots._axis_slot(3, j) for j in range(3)]
    a2 = vals[touched].reshape(len(touched), n)
    del slots, vals
    # each source entry's tag: its row of a2, -1 (another slot of A1) or
    # -2 (coupling), carried into S^T's order by a pass whose row
    # pointers and columns the value pass writes again
    slot_tags = np.full(nslots, -1, dtype=np.int8)
    slot_tags[touched] = np.arange(len(touched))
    source_tags = st_data[:head].view(np.int8)[:head]
    source_tags[:top].reshape(n, nslots)[:] = slot_tags
    source_tags[top:] = -2
    tags = np.empty(head, dtype=np.int8)
    st_indptr = np.empty(2 * n + 1, dtype=itype)
    csr_tocsc(2 * n, n, indptr, indices, source_tags, st_indptr[:n + 1], st_indices[:head], tags)
    csr_tocsc(2 * n, n, indptr, indices, data, st_indptr[:n + 1], st_indices[:head], st_data[:head])
    del indptr
    # the pre-default rows, over the spent source
    st_data[head:] = st_data[:head]
    np.add(st_indices[:head], n, out=st_indices[head:])
    np.add(st_indptr[1:n + 1], head, out=st_indptr[n + 1:])
    for lo in range(0, head, _TAG_BLOCK):
        t = tags[lo:lo + _TAG_BLOCK]
        hit = np.flatnonzero(t >= 0)
        pre = st_data[head + lo:head + lo + t.size]
        pre[hit] = a2[t[hit], st_indices[lo + hit]]
        pre[t == -2] = 0.0
    csr_eliminate_zeros(2 * n, 2 * n, st_indptr, st_indices, st_data)
    # no view of the two arrays is read after they are cut
    nnz = st_indptr[-1]
    st_data.resize(nnz, refcheck=False)
    st_indices.resize(nnz, refcheck=False)
    return Csr(st_data, st_indices, st_indptr, (2 * n, 2 * n))


def coupling_shift_matrix(grid: Grid4D, p: ModelParams) -> Csr:
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
        n = grid.size
        itype = index_dtype(n)
        return Csr(np.ones(n), np.arange(n, dtype=itype), np.arange(n + 1, dtype=itype),
                   (n, n))
    R, rr, y, z = grid.coordinate_fields()
    if 1.0 + p.gamma_rhat < 1e-12:
        # total rate collapse: the jump maps every state to rhat = 0 and
        # the translation degenerates to evaluation there
        shifted = np.zeros_like(rr)
    else:
        shifted = rr / (1.0 + p.gamma_rhat)
    pts = np.stack([R, shifted, y, z], axis=1)
    return interpolation_matrix(grid, pts)


def inert_axes(grid: Grid4D, p: ModelParams) -> tuple[int, ...]:
    """Axes along which the stacked system on ``grid`` never couples two
    slices.

    An axis is inert when no term of ``operator_terms(grid, p)``, which
    leaves out the terms that vanish on ``grid``, differentiates along
    it and when it is not rhat under a rate jump (the coupling shift
    interpolates along rhat).  On an inert axis both operators act
    slice by slice.  z is never inert, so an FX
    jump's compensator needs no rule here: the FX drift (r_dom - rhat) z
    d/dz is nonzero on every ``build_grid`` grid, as its rhat axis has
    four or more distinct nodes and its z axis reaches z_max > 0.
    """
    live = {k for _, axes in operator_terms(grid, p) for k in axes}
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


_Record = Callable[[np.ndarray, int], "float | np.ndarray"]


def rk4_sweep(A: Csr, v0: np.ndarray | Csr, h: float, nsteps: int,
              record: _Record | Sequence[_Record]) -> np.ndarray | tuple[np.ndarray, ...]:
    """Fixed-step RK4 recording ``record(v, k)`` after every step.

    Because the operators are time independent and terminal data scales
    linearly, one sweep of m steps prices all m nested horizons at once.
    ``record`` returns a scalar or a vector; row k of the returned array
    holds the step-k record, for k = 0..nsteps.  ``record`` may instead
    be a sequence of P callables, one per tile of m // P consecutive rows
    of v: callable i is called on ``v[i*m//P:(i+1)*m//P]`` and the sweep
    returns a tuple of P such arrays.  Records may return the same array
    every step, since their rows are copied out.  Raises StabilityError
    naming the step at which the explicit scheme blows up (the
    operator's spectral radius is the caller's responsibility; the
    engine detects rather than repairs).

    For a constant A the classical four-stage step is the polynomial
    v + hAv + (hA)^2 v/2 + (hA)^3 v/6 + (hA)^4 v/24, which the sweep
    evaluates in Horner form, v + hA(v + h/2 A(v + h/3 A(v + h/4 Av))):
    the same four SpMVs, with the scalings and adds done in place.

    A is a square CSR matrix: a ``grid.Csr`` or scipy's ``csr_matrix``,
    whose ``format`` is ``"csr"``, and ``v0`` a vector of its row count,
    which the sweep copies, or a CSR matrix of one such row, which the
    sweep writes straight into the state it marches (``csr_todense``,
    the kernel of ``toarray``), so that no dense v0 is held beside it.
    Any other input raises ValueError before any kernel call, since the
    arrays of a CSC matrix read as CSR are its transpose and the kernels
    read ``v`` without bounds checks.  Its
    ``indptr``, ``indices`` and ``data`` (as float64) are read once, and
    every SpMV calls scipy's compiled kernel ``csr_matvec`` (the one
    ``A @ v`` ends in) into preallocated buffers, so a step allocates
    nothing beyond what the records return.  The kernel accumulates
    y += A x, hence each output slice is zeroed first, as ``A @ v``
    zeroes its fresh result.

    A single callable is one tile.  Given P tiles, at least P cores
    (``cores``, the number this process may run on, read per sweep) and
    at least P * ``_MIN_PART_NNZ`` nonzeros, the sweep runs one thread
    per tile: the calling thread owns tile 0's rows and helper thread i
    (named ``rk4-rows-i``) tile i's.  Otherwise the calling thread
    marches every row and records every tile.  Per stage a thread zeroes
    its slice, runs the kernel on its rows and applies the Horner update
    to them; at the end of a step it tests its rows of v for finiteness,
    by their minimum and maximum (NaN and infinities reach one of them),
    and runs its tiles' records.  A sweep holds, beside A, its three
    state buffers of m doubles and what its records hold.  The threads
    meet at one ``threading.Barrier`` after every stage, as the next SpMV
    reads every row; the kernel, the elementwise updates and the
    records' numpy calls release the interpreter lock, so the tiles run
    at once.  After
    a step's last meeting every thread reads whether all rows are
    finite: if not, the helpers return and the calling thread raises.
    Each helper sets its own floating-point error state, as numpy keeps
    one per thread, and waits once more after its last step, so it lives
    as long as the sweep.  A helper that raises aborts the barrier, and
    the calling thread raises that error; the calling thread aborts the
    barrier and joins every helper before it returns or raises.  A row's
    sum and an element's update do not depend on which thread computes
    them, so the sweep is bit-identical to the ``A @ v`` loop either way.
    """
    if getattr(A, "format", None) != "csr":
        raise ValueError(f"rk4_sweep needs a CSR matrix, got {type(A).__name__}")
    m, n = A.shape
    row = getattr(v0, "format", None) == "csr"
    v = np.zeros(m) if row else np.array(v0, dtype=np.float64)
    if m != n or (v0.shape != (1, m) if row else v.shape != (m,)):
        raise ValueError(f"need a square CSR matrix and v0 of shape ({m},) or (1, {m}), "
                         f"got {m}x{n}, {np.shape(v0)}")
    if row:
        csr_todense(1, m, v0.indptr, v0.indices, v0.data.astype(np.float64, copy=False),
                    v.reshape(1, m))
    indptr, indices = A.indptr, A.indices
    data = A.data.astype(np.float64, copy=False)
    single = callable(record)
    pieces = (record,) if single else tuple(record)
    if not pieces or m % len(pieces):
        raise ValueError(f"{len(pieces)} record tiles do not divide {m} rows")
    size = m // len(pieces)
    w, spare = np.empty(m), np.empty(m)
    tiles = [v[i * size:(i + 1) * size] for i in range(len(pieces))]
    outs = []
    for piece, tile in zip(pieces, tiles):
        first = np.asarray(piece(tile, 0), dtype=float)
        outs.append(np.empty((nsteps + 1,) + first.shape))
        outs[-1][0] = first
    # one thread per tile, once every tile has a core and its nonzeros
    split = 1 < len(pieces) <= _cores() and A.nnz >= len(pieces) * _MIN_PART_NNZ
    threads = len(pieces) if split else 1
    ok = [True] * threads               # each thread's rows of v are finite
    barrier = threading.Barrier(threads)

    def march(r: int) -> None:
        """Step thread r's rows, meeting the other threads after every stage."""
        lo, hi = r * m // threads, (r + 1) * m // threads
        rows, ptr = hi - lo, indptr[lo:hi + 1]
        own, a, b = v[lo:hi], w[lo:hi], spare[lo:hi]
        stages = ((v, a, h / 4.0), (w, b, h / 3.0), (spare, a, h / 2.0))
        mine = [(outs[r], pieces[r], tiles[r])] if split else list(zip(outs, pieces, tiles))
        for k in range(1, nsteps + 1):
            for x, y, c in stages:
                y.fill(0.0)
                csr_matvec(rows, n, ptr, indices, data, x, y)
                y *= c
                y += own
                if split:
                    barrier.wait()
            b.fill(0.0)
            csr_matvec(rows, n, ptr, indices, data, w, b)
            b *= h
            own += b
            ok[r] = not rows or (isfinite(np.minimum.reduce(own))
                                 and isfinite(np.maximum.reduce(own)))
            if ok[r]:
                for out, piece, tile in mine:
                    out[k] = piece(tile, k)
            if split:
                barrier.wait()
            if not all(ok):
                if r:
                    return
                raise StabilityError(
                    f"non-finite values at sweep step {k}/{nsteps} (dt={h:.4g})")

    errors = []

    def serve(r: int) -> None:
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                march(r)
            barrier.wait()              # until the calling thread aborts it
        except threading.BrokenBarrierError:
            pass
        except BaseException as exc:    # raised again by the calling thread
            errors.append(exc)
            barrier.abort()

    helpers = []
    try:
        for r in range(1, threads):
            # a daemon, so that a helper stuck by a fault cannot keep the
            # interpreter from exiting
            helper = threading.Thread(target=serve, args=(r,), name=f"rk4-rows-{r}",
                                      daemon=True)
            helper.start()
            helpers.append(helper)
        # overflow past the stability limit is handled: every step's
        # rows are tested for finiteness, and a non-finite one raises
        # StabilityError
        with np.errstate(over="ignore", invalid="ignore"):
            march(0)
    except threading.BrokenBarrierError:
        raise errors[0] from None
    finally:
        barrier.abort()
        for helper in helpers:
            helper.join()
    return outs[0] if single else tuple(outs)
