"""Global block linear systems over whole lifted trajectories.

Stacking the per-step quantized updates Y_i = A_i Y_{i-1} + b_i for
i = 1..M together with the initial condition gives one system
M Y = beta whose solution is the entire lifted trajectory.  M is block
lower triangular with identity diagonal blocks (elementwise unit lower
triangular, since every coupling block sits strictly below its row's
diagonal block), and every coupling is a block as the lift made it,
negated: a step's update matrix, or a unified step's matrix on one of
its anchor nodes.  :func:`carlift.carleman.lift_run`, the one dispatch
on a scheme's layout of steps, assembles a run's system here.
:class:`TrajectoryOperator` keeps M as those blocks, each a
:class:`carlift.carleman.StepMatrix`, the dense array of its leading
rows: products with M and the forward solve read those blocks, and the
global CSR matrix is built only on request, for matrix export and the
condition estimate, one block row at a time straight into the CSR
arrays.  Each block records the stack the lift wrote it into and its
index there, so the blocks of consecutive rows are read as one view of
that stack: a product takes each such run of blocks as one batched BLAS
call, and the forward solve walks the block rows in order, one
matrix-vector call per block; a unified system is one run per coupling
slot too, the corrector's included, whose blocks the lift made already
folded.  Both run on the calling thread.  That forward solve is the
package's one lifted walk: :func:`carlift.carleman.run_lifted` returns
its blocks as a run's states.  A dense-SVD condition number runs its
LAPACK call on one OpenBLAS thread, so its bytes do not depend on the
CPU count.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigsh, splu

from . import carleman
from .errors import CapacityError, StructureError

__all__ = [
    "TrajectoryOperator",
    "BlockLinearSystem",
    "ConditionReport",
    "assemble_global_dpm",
    "assemble_global_unipc",
    "condition_number",
    "export_matrix",
]

DENSE_SVD_MAX_DIM = 2000

# Operator applications each Lanczos run of condition_number may take
# before it reports non-convergence.
LANCZOS_MAX_ITER = 10000


class TrajectoryOperator(LinearOperator):
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

    A product with M takes the couplings as runs (:attr:`_runs`), each
    one batched matmul over a view of consecutive blocks, so no block is
    copied.
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
            if any(not isinstance(blk, carleman.StepMatrix) or blk.shape != (D, D) for _, blk in row):
                raise ValueError(f"block row {i} holds a block that is not a {D} x {D} StepMatrix")
        self.block_dim = D
        self.n_blocks = len(rows)
        self.rows = rows
        n = self.n_blocks * D
        super().__init__(dtype=np.float64, shape=(n, n))

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

    def _matvec(self, x):
        """M x, one batched product per run of blocks.  Each entry gets its
        terms in the order of a row-by-row walk, the terms of a row in
        coupling order, and each block's product is the same BLAS
        matrix-vector call, so the result keeps that walk's bits."""
        x = self._blocks(x)
        y = x.astype(np.result_type(x, np.float64))
        for rows, cols, blocks in self._runs:
            y[rows, : blocks.shape[1]] -= (blocks @ x[cols, :, None])[..., 0]
        return y.ravel()

    def solve(self, rhs) -> np.ndarray:
        """Forward block substitution for M Y = rhs.

        Y_i = rhs_i + sum_k B_k Y_{c_k}, block row by block row, with the
        terms added in coupling order, so a derivative-scheme row is the
        quantized update A @ y + b.  This is the lifted walk:
        :func:`carlift.carleman.run_lifted` returns the solution's blocks
        as a run's states.
        """
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (self.shape[0],):
            raise ValueError(f"right-hand side has shape {rhs.shape}, need ({self.shape[0]},)")
        b = self._blocks(rhs)
        Y = np.empty_like(b)
        for i, row in enumerate(self.rows):
            acc = b[i]
            for c, blk in row:
                acc = acc + blk @ Y[c]
            Y[i] = acc
        return Y.ravel()

    @functools.cached_property
    def nnz(self) -> int:
        """Nonzeros of M, from the counts the blocks hold, counted the first
        time it is read and kept."""
        return self.shape[0] + sum(blk.nnz for row in self.rows for _, blk in row)

    def tocsr(self) -> sp.csr_matrix:
        """The global CSR matrix, built afresh on every call.

        One block row at a time, its negated blocks are laid side by side
        in column order, with the identity as one last column; that
        array's nonzeros, read row by row, are its rows' CSR entries in
        column order with no stored zeros, and are written straight into
        the preallocated global arrays, each row's last entry taking its
        diagonal column.  So those arrays and one block row's temporaries
        are all it holds.  Raises CapacityError, before allocating them,
        if they would exceed carleman.MAX_STEP_BYTES.
        """
        D, n, nnz = self.block_dim, self.shape[0], self.nnz
        nbytes = 12 * nnz + 8 * (n + 1)  # float64 data, int32 indices, indptr at 8 bytes
        if nbytes > carleman.MAX_STEP_BYTES:
            raise CapacityError(f"global system needs {nbytes} bytes, above {carleman.MAX_STEP_BYTES}")
        idx = np.int32 if max(nnz, n) <= np.iinfo(np.int32).max else np.int64
        indptr = np.zeros(n + 1, dtype=idx)
        indices = np.empty(nnz, dtype=idx)
        data = np.empty(nnz)
        diag, end = np.arange(D), 0
        for i, row in enumerate(self.rows):
            wide = np.zeros((D, len(row) * D + 1))
            for k, (_, blk) in enumerate(row):
                np.negative(blk.rows, out=wide[: len(blk.rows), k * D : (k + 1) * D])
            wide[:, -1] = 1.0
            # the global column of each column of wide; the identity's is per row
            cols = np.append(np.add.outer([c * D for c, _ in row], diag), 0).astype(idx)
            mask = wide != 0.0
            counts = np.count_nonzero(mask, axis=1)
            start, end = end, end + int(counts.sum())
            data[start:end] = wide[mask]
            indices[start:end] = np.broadcast_to(cols, wide.shape)[mask]
            indices[start + np.cumsum(counts) - 1] = i * D + diag  # each row's identity entry
            indptr[i * D + 1 : (i + 1) * D + 1] = counts
        np.cumsum(indptr, out=indptr)
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


def _system(y0, chain: list[carleman.Qcm], unified: list[tuple], scheme: str) -> BlockLinearSystem:
    """Block row 0, Y_0 = y0, then a chain's rows Y_i = A_i Y_{i-1} + b_i
    and the ``unified`` rows (anchor, blocks, b) after them,
    Y_i = sum_k blocks[k] Y_{anchor+k} + b: each a row of couplings."""
    y0 = np.asarray(y0, dtype=float)
    steps = [(i, [q.A], q.b) for i, q in enumerate(chain)] + unified
    rows = [[]] + [[(a + k, blk) for k, blk in enumerate(blocks)] for a, blocks, _ in steps]
    return BlockLinearSystem(mat=TrajectoryOperator(len(y0), rows),
                             rhs=np.concatenate([y0] + [b for _, _, b in steps]), scheme=scheme)


def assemble_global_dpm(qcms: list[carleman.Qcm], y0: np.ndarray) -> BlockLinearSystem:
    """Block bidiagonal system for a derivative-scheme trajectory.

    Row block 0 pins Y_0 = y0; row block i couples node i to node i-1
    through -A_i.
    """
    return _system(y0, qcms, [], "dpm")


def assemble_global_unipc(
    warmup: list[carleman.Qcm],
    steps: list[carleman.UnipcQcmSet],
    y0: np.ndarray,
    which: str = "corrector",
) -> BlockLinearSystem:
    """Block banded system for a unified predictor/corrector trajectory.

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
    """2-norm condition estimate with how it was obtained, and the most
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
    ARPACK's Lanczos, within about LANCZOS_MAX_ITER applications, then
    certified.

    theta = u^T B u / u^T u uses an explicit ||u||^2, so eigenvectors of
    B (the identity's, for one) come out bit-exact; ||B u - theta u|| /
    ||u|| <= rtol * theta bounds |theta - lambda|.  ARPACK stops at half
    that residual, which leaves room for rounding.  Out of budget, u is
    the applied vector of largest Rayleigh quotient (a lower bound).
    Any other ARPACK failure is raised as a FloatingPointError.
    Returns (theta, applications, residual, converged).
    """
    seen = {"calls": 0, "theta": -np.inf, "v": None}

    def matvec(v):
        w = apply(v)
        seen["calls"] += 1
        theta = float(v @ w) / float(v @ v)
        if theta > seen["theta"]:
            seen["theta"], seen["v"] = theta, v.copy()  # v is ARPACK's work buffer
        return w

    ncv = min(n, 20)
    try:
        u = eigsh(LinearOperator((n, n), matvec=matvec, dtype=float), k=1, which="LA",
                  v0=rng.standard_normal(n), ncv=ncv, tol=rtol / 2,
                  maxiter=max(1, LANCZOS_MAX_ITER // ncv))[1][:, 0]
    except ArpackNoConvergence:
        u = seen["v"]
    except ArpackError as exc:  # an overflowing operator, for one
        raise FloatingPointError(f"the condition estimate failed: {exc}") from exc
    w = matvec(u)
    uu = float(u @ u)
    theta = float(u @ w) / uu
    res = float(np.linalg.norm(w - theta * u) / np.sqrt(uu))
    return theta, seen["calls"], res, res <= rtol * theta


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

    "dense_svd" computes all singular values on one OpenBLAS thread, so
    they do not depend on the CPU count, and is restricted to
    dimensions <= 2000.  "lanczos" works at any size: sigma_max^2 is the
    top eigenvalue of M^T M and 1/sigma_min^2 that of M^{-1} M^{-T},
    applied through one sparse LU factor of M (no fill and no pivoting,
    as M is unit lower triangular).  Each run starts from a generator
    seeded with 0, so kappa and ``iterations`` (operator applications)
    are deterministic; LANCZOS_MAX_ITER caps the applications per run,
    and running out is reported through ``converged`` rather than
    raised.  "auto" is "lanczos" except for a 1 x 1 system, which
    ARPACK cannot take.
    """
    mat = system.mat.tocsr()
    n = mat.shape[0]
    s_row = int(np.diff(mat.indptr).max(initial=0))
    s_col = int(np.bincount(mat.indices, minlength=n).max(initial=0))
    if method == "auto":
        method = "lanczos" if n >= 2 else "dense_svd"
    if method == "dense_svd":
        if n > DENSE_SVD_MAX_DIM:
            raise ValueError(f"dense SVD limited to dim <= {DENSE_SVD_MAX_DIM}, got {n}")
        with _one_blas_thread():  # the same bytes on any CPU count
            svals = np.linalg.svd(mat.toarray(), compute_uv=False)
        if svals[-1] == 0.0:
            raise StructureError("matrix is numerically singular")
        smax, smin, its, res, ok, rtol = svals[0], svals[-1], 0, 0.0, True, 0.0
    elif method == "lanczos":
        if n < 2:
            raise ValueError("lanczos needs dim >= 2")
        lu = splu(mat.tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0)
        rng = np.random.default_rng(0)
        mat_t = mat.T  # one CSC transpose for every application
        top, it1, res1, ok1 = _lanczos_top(lambda v: mat_t @ (mat @ v), n, rtol, rng)
        inv, it2, res2, ok2 = _lanczos_top(lambda v: lu.solve(lu.solve(v, trans="T")), n, rtol, rng)
        smax, smin, its = np.sqrt(top), 1.0 / np.sqrt(inv), it1 + it2
        res, ok = max(res1, res2), ok1 and ok2
    else:
        raise ValueError(f"unknown method {method!r}")
    return ConditionReport(
        kappa=float(smax / smin), method=method, dim=n, iterations=its, rtol=rtol,
        residual=float(res), converged=bool(ok), sigma_max=float(smax), sigma_min=float(smin),
        s_row=s_row, s_col=s_col, nnz=int(mat.nnz),
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

