"""Global block linear systems over whole lifted trajectories.

Stacking the per-step quantized updates Y_i = A_i Y_{i-1} + b_i for
i = 1..M together with the initial condition gives one system
M Y = beta whose solution is the entire lifted trajectory.  M is block
lower triangular with identity diagonal blocks (elementwise unit lower
triangular, since every coupling block sits strictly below its row's
diagonal block), and every coupling is a block as the lift made it,
negated: a step's update matrix, or a unified step's matrix on one of
its anchor nodes, each a :class:`StepMatrix`, the dense array of its
leading rows.  :func:`carlift.carleman.lift_run` lifts the blocks and
assembles a run's system here, within MAX_STEP_BYTES; this module
imports nothing from the lift.  :class:`TrajectoryOperator` keeps M as
those blocks: products with M and the forward solve read each block's
rows, and the global CSR matrix is built only on request, for matrix
export and the condition estimate, one block row at a time straight
into the CSR arrays.  The blocks of consecutive rows that are
consecutive entries of one stack are read as one view of it: a product
takes each such run as one batched BLAS call, and the forward solve
adds one matrix-vector product per block into its row in place, the
corrector's blocks folded already by the lift.  Both run on the calling
thread.  That forward solve is the package's one lifted walk:
:func:`carlift.carleman.run_lifted` returns its blocks as a run's
states.  The condition estimate runs the package's own restarted
Lanczos on the CSR and one LU factor of the CSR's own transpose, so it
holds no second copy of M.  A dense-SVD condition number runs its
LAPACK call on one OpenBLAS thread, so its bytes do not depend on the
CPU count.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import CapacityError, StructureError

__all__ = [
    "StepMatrix",
    "TrajectoryOperator",
    "BlockLinearSystem",
    "ConditionReport",
    "assemble_global_dpm",
    "assemble_global_unipc",
    "condition_number",
    "export_matrix",
]

MAX_STEP_BYTES = 2**31  # what a run's lift, its global CSR or its condition estimate holds
DENSE_SVD_MAX_DIM = 2000

# Operator applications each Lanczos run of condition_number may take
# before it reports non-convergence.
LANCZOS_MAX_ITER = 10000
# Vectors the Lanczos basis holds before it restarts from its top Ritz vector.
LANCZOS_BASIS = 20
# Lanczos steps between checks of the Ritz residual: a check's eigh of the
# tridiagonal costs about one application at the sizes the benchmark runs.
LANCZOS_CHECK = 4


class StepMatrix:
    """A square step matrix, entry ``index`` of the (k, r, n) ``stack`` a
    lift wrote it into, or of a stack of its own when given a 2-d array.

    ``rows`` is ``stack[index]``, rows 0..r-1 of the (n, n) matrix, the
    only ones that can be nonzero; the rest are zero.  The nonzeros are
    counted the first time ``nnz`` is read, and that count is kept.
    """

    def __init__(self, stack: np.ndarray, index: int | None = None):
        if index is None:
            stack, index = stack[None], 0
        self.stack, self.index = stack, index
        self.rows = stack[index]
        self.shape = (stack.shape[2], stack.shape[2])

    @functools.cached_property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.rows))


class TrajectoryOperator:
    """Block lower triangular trajectory matrix, held as its blocks.

    Block row i is

        Y_i - sum_k B_k Y_{c_k}

    over ``rows[i]``, a list of (c_k, B_k) couplings with ascending
    columns c_k < i; row 0 has none and pins Y_0.  The D x D blocks B_k
    are the StepMatrix objects the lift made, held as they are: a
    derivative-scheme step's update matrix A, a unified step's predictor
    or corrector matrices, the latter folded by the lift.  So M is unit
    lower triangular: every coupling lies left of its row's identity
    block.

    A product with M, ``mat @ x`` or :meth:`matvec`, takes the couplings
    as runs (:attr:`_runs`), each one batched matmul over a view of
    consecutive blocks, so no block is copied.
    """

    def __init__(self, block_dim: int, rows: list[list[tuple]]):
        D = block_dim
        for i, row in enumerate(rows):
            cols = [c for c, _ in row]
            if any(not 0 <= c < i for c in cols):
                raise StructureError(f"block row {i} couples to block columns {cols}; "
                                     "couplings must lie strictly below the diagonal")
            if cols != sorted(set(cols)):
                raise ValueError(f"block row {i} lists columns {cols}, not strictly ascending")
            if any(not isinstance(blk, StepMatrix) or blk.shape != (D, D) for _, blk in row):
                raise ValueError(f"block row {i} holds a block that is not a {D} x {D} StepMatrix")
        self.block_dim = D
        self.n_blocks = len(rows)
        self.rows = rows
        self.shape = (self.n_blocks * D,) * 2

    def _blocks(self, x) -> np.ndarray:
        return np.asarray(x).reshape(self.n_blocks, self.block_dim)

    @functools.cached_property
    def _runs(self) -> list[tuple]:
        """The couplings as runs (rows, cols, blocks), grouped the first
        time a product needs them: block rows ``rows`` couple to block
        columns ``cols`` through ``blocks``, a (rows, r, D) view of one
        stack.  A run holds the k-th couplings of consecutive rows whose
        blocks are consecutive entries of one stack, at one lag; a block
        that continues no run is a run of one.  The runs come slot by
        slot, k = 0, 1, ..., so each row meets its couplings in order."""
        runs = []  # [first row, first column, first block, length]
        for k in range(max(map(len, self.rows), default=0)):
            last = None  # slot k's last coupling: row, column, stack and index
            for i, row in enumerate(self.rows):
                if k < len(row):
                    c, blk = row[k]
                    if last == (i - 1, c - 1, id(blk.stack), blk.index - 1):
                        runs[-1][3] += 1
                    else:
                        runs.append([i, c, blk, 1])
                    last = (i, c, id(blk.stack), blk.index)
        return [(slice(i, i + n), slice(c, c + n), blk.stack[blk.index : blk.index + n])
                for i, c, blk, n in runs]

    def matvec(self, x) -> np.ndarray:
        """M x, one batched product per run of blocks.  Each entry gets its
        terms in the order of a row-by-row walk, the terms of a row in
        coupling order, and each block's product is the same BLAS
        matrix-vector call, so the result keeps that walk's bits."""
        x = self._blocks(x)
        y = x.astype(np.result_type(x, np.float64))
        for rows, cols, blocks in self._runs:
            y[rows, : blocks.shape[1]] -= (blocks @ x[cols, :, None])[..., 0]
        return y.ravel()

    __matmul__ = matvec

    def solve(self, rhs) -> np.ndarray:
        """Forward block substitution for M Y = rhs.

        Y_i = rhs_i + sum_k B_k Y_{c_k}, block row by block row, each
        block's ``rows @ Y_c`` added in coupling order into the leading
        entries of a copy of rhs, so a derivative-scheme row is the
        quantized update b + A @ y.  This is the lifted walk:
        :func:`carlift.carleman.run_lifted` returns the solution's blocks
        as a run's states.
        """
        Y = np.array(rhs, dtype=float)
        if Y.shape != (self.shape[0],):
            raise ValueError(f"right-hand side has shape {Y.shape}, need ({self.shape[0]},)")
        Y = self._blocks(Y)
        for i, row in enumerate(self.rows):
            for c, blk in row:
                Y[i, : len(blk.rows)] += blk.rows @ Y[c]
        return Y.ravel()

    @functools.cached_property
    def nnz(self) -> int:
        """Nonzeros of M, from the counts the blocks hold, counted the first
        time it is read and kept."""
        return self.shape[0] + sum(blk.nnz for row in self.rows for _, blk in row)

    @property
    def csr_bytes(self) -> int:
        """Bytes of :meth:`tocsr`'s arrays: float64 data, int32 indices, indptr at 8 bytes."""
        return 12 * self.nnz + 8 * (self.shape[0] + 1)

    def tocsr(self) -> sp.csr_matrix:
        """The global CSR matrix, built afresh on every call.

        One block row at a time, its negated blocks are laid side by side
        in column order, with the identity as one last column; that
        array's nonzeros, read row by row, are its rows' CSR entries in
        column order with no stored zeros, and are written straight into
        the preallocated global arrays.  Each coupling's global columns are
        written once, as one D-vector that every row of its block row
        reads, and at the end every row's last entry, its identity, takes
        its diagonal column.  Every block row reuses one value, mask and
        column buffer shaped as the widest, so those arrays, the buffers
        and one block row's gathered entries are all it holds.  Raises
        CapacityError, before allocating them, if they would exceed
        MAX_STEP_BYTES.
        """
        D, n, nnz = self.block_dim, self.shape[0], self.nnz
        if (nbytes := self.csr_bytes) > MAX_STEP_BYTES:
            raise CapacityError(f"global system needs {nbytes} bytes, above {MAX_STEP_BYTES}")
        idx = np.int32 if max(nnz, n) <= np.iinfo(np.int32).max else np.int64
        indptr = np.zeros(n + 1, dtype=idx)
        indices = np.empty(nnz, dtype=idx)
        data = np.empty(nnz)
        size = max(map(len, self.rows), default=0) * D + 1
        vals, cols, keep = np.empty(D * size), np.empty(size, dtype=idx), np.empty(D * size, dtype=bool)
        every_row = np.broadcast_to(cols, (D, size))  # the columns each row of a block row reads
        diag, end = np.arange(D), 0
        for i, row in enumerate(self.rows):
            w = len(row) * D + 1
            wide, mask = vals[: D * w].reshape(D, w), keep[: D * w].reshape(D, w)
            for k, (c, blk) in enumerate(row):
                r, span = len(blk.rows), slice(k * D, (k + 1) * D)
                np.negative(blk.rows, out=wide[:r, span])
                if r < D:
                    wide[r:, span] = 0.0
                np.add(diag, c * D, out=cols[span])
            wide[:, -1] = 1.0
            np.not_equal(wide, 0.0, out=mask)
            start, end = end, end + np.count_nonzero(mask)
            data[start:end] = wide[mask]
            indices[start:end] = every_row[:, :w][mask]
            indptr[i * D + 1 : (i + 1) * D + 1] = mask.sum(axis=1)
        np.cumsum(indptr, out=indptr)
        indices[indptr[1:] - 1] = np.arange(n, dtype=idx)  # each row's identity entry
        return sp.csr_matrix((data, indices, indptr), shape=(n, n))


@dataclass
class BlockLinearSystem:
    """Block system mat @ y = rhs over a whole lifted trajectory."""

    mat: TrajectoryOperator
    rhs: np.ndarray
    scheme: str

    def __post_init__(self) -> None:
        if self.rhs.shape != (self.mat.shape[0],):
            raise ValueError(f"right-hand side has shape {self.rhs.shape}, "
                             f"need ({self.mat.shape[0]},)")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def n_blocks(self) -> int:
        return self.mat.n_blocks

    @property
    def block_dim(self) -> int:
        return self.mat.block_dim


def _system(y0, chain: list, unified: list[tuple], scheme: str) -> BlockLinearSystem:
    """Block row 0, Y_0 = y0, then the rows Y_i = A_i Y_{i-1} + b_i of a
    chain of :class:`carlift.carleman.Qcm` steps and the ``unified`` rows
    (anchor, blocks, b) after them, Y_i = sum_k blocks[k] Y_{anchor+k} + b:
    each a row of couplings."""
    y0 = np.asarray(y0, dtype=float)
    steps = [(i, [q.A], q.b) for i, q in enumerate(chain)] + unified
    rows = [[]] + [[(a + k, blk) for k, blk in enumerate(blocks)] for a, blocks, _ in steps]
    return BlockLinearSystem(mat=TrajectoryOperator(len(y0), rows),
                             rhs=np.concatenate([y0] + [b for _, _, b in steps]), scheme=scheme)


def assemble_global_dpm(qcms: list, y0: np.ndarray) -> BlockLinearSystem:
    """Block bidiagonal system for a derivative-scheme trajectory.

    Row block 0 pins Y_0 = y0; row block i couples node i to node i-1
    through -A_i, ``qcms[i-1]`` a :class:`carlift.carleman.Qcm`.
    """
    return _system(y0, qcms, [], "dpm")


def assemble_global_unipc(
    warmup: list,
    steps: list,
    y0: np.ndarray,
    which: str = "corrector",
) -> BlockLinearSystem:
    """Block banded system for a unified predictor/corrector trajectory:
    the ``warmup`` chain of :class:`carlift.carleman.Qcm` steps, then the
    :class:`carlift.carleman.UnipcQcmSet` ``steps``.

    ``which`` selects the scheme whose trajectory the solution follows:
    "predictor" uses the predictor update rows, "corrector" the
    corrector rows, into which the lift folded the predictor map (the
    corrected chain is the canonical one, so the system closes over
    corrected states only); the latter needs steps lifted with their
    corrector.  Either way the rows couple the lifted blocks as they
    are, so assembling the same steps again copies none.  Bandwidth is
    at most p + 1 block diagonals.  With p = 1 and "predictor" the
    matrix coincides with :func:`assemble_global_dpm` of the order-1
    scheme.
    """
    if which not in ("predictor", "corrector"):
        raise ValueError("which must be 'predictor' or 'corrector'")
    corrector, rows = which == "corrector", []
    for i, q in enumerate(steps, start=len(warmup) + 1):
        if q.i != i:
            raise ValueError(f"step to node {q.i} would fill block row {i}")
        mats, b = (q.corr_mats, q.corr_b) if corrector else (q.pred_mats, q.pred_b)
        if mats is None:
            raise ValueError("steps lifted for the predictor alone have no corrector")
        rows.append((q.i - len(mats), mats, b))
    return _system(y0, warmup, rows, f"unipc_{which}")


@dataclass
class ConditionReport:
    """2-norm condition estimate with how it was obtained, its relative
    ``residual`` (``converged`` is ``residual <= rtol``), and the most
    nonzeros in a row (``s_row``) and in a column (``s_col``) of the matrix."""

    kappa: float
    method: str
    dim: int
    iterations: int
    rtol: float
    residual: float
    converged: bool
    sigma_max: float
    sigma_min: float
    s_row: int
    s_col: int
    nnz: int


def _lanczos_top(apply, n: int, rtol: float, rng):
    """Top eigenvalue of a symmetric positive definite operator B by
    explicitly restarted Lanczos, within LANCZOS_MAX_ITER applications,
    then certified.

    Each new basis vector is orthogonalised against the basis by
    classical Gram-Schmidt, applied twice; a full basis of LANCZOS_BASIS
    vectors restarts from its top Ritz vector.  Every LANCZOS_CHECK
    steps, and on a full basis, the top Ritz pair (theta, s) of the
    tridiagonal projection gives the residual beta |s_k|: the run stops
    once that is at most rtol/2 * theta, which leaves room for rounding,
    or beta = 0 (an invariant subspace).  Out of budget, u is the top
    Ritz vector, whose Rayleigh quotient is a lower bound.  One more
    application certifies u: theta = u^T B u / u^T u uses an explicit
    ||u||^2, so eigenvectors of B (the identity's, for one) come out
    bit-exact, and a relative residual ||B u - theta u|| / (theta ||u||)
    <= rtol bounds |theta - lambda| by rtol theta.  An application whose
    squared norm is not finite raises a FloatingPointError.  Returns
    (theta, applications, relative residual).
    """
    m, calls, done = min(n, LANCZOS_BASIS), 0, False
    V, T = np.empty((m, n)), np.zeros((m, m))

    def applied(v):
        nonlocal calls
        w = apply(v)
        calls += 1
        if not math.isfinite(w @ w):  # an overflowing operator, for one
            raise FloatingPointError(f"the condition estimate failed: the squared norm of "
                                     f"application {calls} is not finite")
        return w

    u = rng.standard_normal(n)
    # every later product is bounded by a checked squared norm, so only
    # that check can overflow, and it raises
    with np.errstate(over="ignore"):
        while not done and calls < LANCZOS_MAX_ITER:
            V[0] = u / np.linalg.norm(u)
            for j in range(m):
                w, basis = applied(V[j]), V[: j + 1]
                h = basis @ w
                w -= h @ basis
                h2 = basis @ w
                w -= h2 @ basis
                T[j, j] = h[j] + h2[j]
                beta = float(np.linalg.norm(w))
                last = j + 1 == m or calls >= LANCZOS_MAX_ITER
                if last or beta == 0.0 or (j + 1) % LANCZOS_CHECK == 0:
                    ritz, vecs = np.linalg.eigh(T[: j + 1, : j + 1])
                    done = beta * abs(vecs[-1, -1]) <= rtol / 2 * ritz[-1]
                    if done or last:
                        u = vecs[:, -1] @ basis
                        break
                T[j, j + 1] = T[j + 1, j] = beta
                V[j + 1] = w / beta
        w = applied(u)
    uu = float(u @ u)
    theta = float(u @ w) / uu
    return theta, calls, float(np.linalg.norm(w - theta * u) / np.sqrt(uu)) / theta


@functools.lru_cache(maxsize=1)
def _openblas_thread_setter():
    """``openblas_set_num_threads_local`` of the OpenBLAS bundled with numpy
    (it sets the count and returns the old one), or None without it."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas*")
    for path in sorted(glob.glob(libs)):
        try:
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
        return setter
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the enclosed BLAS and LAPACK calls on one OpenBLAS thread, as
    under OPENBLAS_NUM_THREADS=1, and restore the old count afterwards.
    numpy's OpenBLAS uses its own threads, so the count holds for every
    thread of the process while the block runs.  A numpy built without
    the bundled OpenBLAS runs the calls unchanged."""
    setter = _openblas_thread_setter()
    if setter is None:
        yield
        return
    old = setter(1)
    try:
        yield
    finally:
        setter(old)


def condition_number(system: BlockLinearSystem, method: str = "auto",
                     rtol: float = 1e-3) -> ConditionReport:
    """2-norm condition number of an assembled system's matrix M.

    "auto", reported as "lanczos", works at any size: sigma_max^2 is the
    top eigenvalue of M^T M and 1/sigma_min^2 that of M^{-1} M^{-T}, each
    found by the package's restarted Lanczos from a generator seeded with
    0, so kappa and ``iterations`` (operator applications) are
    deterministic.  The latter is applied through one LU factor of the
    CSR's own transpose (no fill and no pivoting, as M^T is unit upper
    triangular).  ``residual`` is the larger relative residual
    ||B u - theta u|| / (theta ||u||) of the two runs and ``converged``
    is ``residual <= rtol``, so running out of LANCZOS_MAX_ITER
    applications is reported, not raised; an application whose squared
    norm is not finite raises a FloatingPointError.  "dense_svd", up to
    dim 2000, computes all singular values on one OpenBLAS thread, so
    they do not depend on the CPU count, with rtol and residual 0; a
    sigma_min that underflows to 0 raises an OverflowError.  The method,
    the dense dimension and, as CapacityError, what the method holds are
    checked before the CSR is built.
    """
    n, csr = system.mat.shape[0], system.mat.csr_bytes
    if method not in ("auto", "dense_svd"):
        raise ValueError(f"unknown method {method!r}")
    if method == "dense_svd" and n > DENSE_SVD_MAX_DIM:
        raise ValueError(f"dense SVD limited to dim <= {DENSE_SVD_MAX_DIM}, got {n}")
    # the CSR, the LU factor of its transpose (as large, M^T having no fill)
    # and the Lanczos basis with its one new vector; or the CSR and dense M
    nbytes = 2 * csr + (min(n, LANCZOS_BASIS) + 1) * 8 * n if method == "auto" else csr + 8 * n * n
    if nbytes > MAX_STEP_BYTES:
        raise CapacityError(f"global system needs {csr} bytes and the condition estimate {nbytes}, "
                            f"above {MAX_STEP_BYTES}")
    mat = system.mat.tocsr()
    s_row = int(np.diff(mat.indptr).max(initial=0))
    s_col = int(np.bincount(mat.indices, minlength=n).max(initial=0))
    if method == "dense_svd":
        with _one_blas_thread():  # the same bytes on any CPU count
            svals = np.linalg.svd(mat.toarray(), compute_uv=False)
        if svals[-1] == 0.0:  # M is unit lower triangular, so never singular
            raise OverflowError("the condition number is beyond the float range: sigma_min underflowed to 0")
        smax, smin, its, res, rtol = svals[0], svals[-1], 0, 0.0, 0.0
    else:
        method, mat_t = "lanczos", mat.T  # a CSC view of the CSR's own arrays
        lu = splu(mat_t, permc_spec="NATURAL", diag_pivot_thresh=0.0)
        rng = np.random.default_rng(0)
        top, it1, res1 = _lanczos_top(lambda v: mat_t @ (mat @ v), n, rtol, rng)
        inv, it2, res2 = _lanczos_top(lambda v: lu.solve(lu.solve(v), trans="T"), n, rtol, rng)
        smax, smin, its, res = np.sqrt(top), 1.0 / np.sqrt(inv), it1 + it2, max(res1, res2)
    return ConditionReport(
        kappa=float(smax / smin), method=method, dim=n, iterations=its, rtol=rtol,
        residual=float(res), converged=bool(res <= rtol), sigma_max=float(smax),
        sigma_min=float(smin), s_row=s_row, s_col=s_col, nnz=int(mat.nnz),
    )


def export_matrix(system: BlockLinearSystem, path) -> None:
    """Write an assembled system's matrix M as text: 'rows cols nnz' then
    the triplets of its CSR form, row by row.

    Values are printed with 17 significant digits, which round-trips
    IEEE doubles exactly.
    """
    coo = system.mat.tocsr().tocoo()
    with open(path, "w") as fh:
        fh.write(f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
        for r, c, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{r} {c} {v:.17g}\n")

