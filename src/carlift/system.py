"""Global block linear systems over whole lifted trajectories.

Stacking the per-step quantized updates Y_i = (I + A_i) Y_{i-1} + b_i
for i = 1..M together with the initial condition gives one system
M Y = beta whose solution is the entire lifted trajectory.  M is block
lower triangular with identity diagonal blocks (elementwise unit lower
triangular, since every coupling block sits strictly below its row's
diagonal block).  :class:`TrajectoryOperator` keeps M as the per-step
blocks the lift made: products with M and the forward solve walk
those blocks, and the global CSR matrix is built only on request,
for matrix export and the condition estimate.  Each block is a
:class:`carlift.carleman.StepMatrix`, the dense array of its leading
rows, so a block of a product or of the forward solve is one BLAS
matrix-vector call.  Both walk the block rows in order on the calling
thread.  A dense-SVD condition number runs its LAPACK call on one
OpenBLAS thread, so its bytes do not depend on the CPU count.
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
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu

from . import carleman
from .carleman import Qcm, UnipcQcmSet
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


def _held_block(blk) -> carleman.StepMatrix:
    """A coupling block as the operator holds it: a lift's StepMatrix as
    it is, anything else converted once to the dense rows of a copy, so
    the caller's matrix is never altered."""
    if isinstance(blk, carleman.StepMatrix):
        return blk
    return carleman.StepMatrix(sp.csr_matrix(blk).toarray())


def _eye_change(blk: carleman.StepMatrix) -> np.ndarray:
    """Change in each row's entry count when I is added to ``blk``: I adds
    an entry where the diagonal is 0 and cancels one where it is -1."""
    diag = np.zeros(blk.shape[0])
    diag[: len(blk.rows)] = np.diagonal(blk.rows)
    return (diag == 0.0).astype(np.int64) - (diag == -1.0)


class TrajectoryOperator(LinearOperator):
    """Block lower triangular trajectory matrix, held as its blocks.

    Block row i is

        Y_i - sum_k C_k Y_{c_k},   C_k = I + B_k if plus_eye else B_k,

    over ``rows[i]``, a list of (c_k, B_k, plus_eye) couplings with
    ascending columns c_k < i; row 0 has none and pins Y_0.  The D x D
    blocks B_k are StepMatrix objects, held as they are: a
    derivative-scheme step holds its A with ``plus_eye``, a unified step
    its predictor (or folded corrector) matrices.  Any other block is
    converted to a StepMatrix once.
    """

    def __init__(self, block_dim: int, rows: list[list[tuple]]):
        D = block_dim
        held = []
        for i, row in enumerate(rows):
            cols = [c for c, _, _ in row]
            if any(not 0 <= c < i for c in cols):
                raise StructureError(f"block row {i} couples to block columns {cols}; "
                                     "couplings must lie strictly below the diagonal")
            if cols != sorted(set(cols)):
                raise ValueError(f"block row {i} lists columns {cols}, not strictly ascending")
            row = [(c, _held_block(blk), plus_eye) for c, blk, plus_eye in row]
            if any(blk.shape != (D, D) for _, blk, _ in row):
                raise ValueError(f"block row {i} holds a block that is not {D} x {D}")
            held.append(row)
        self.block_dim = D
        self.n_blocks = len(rows)
        self.rows = held
        n = self.n_blocks * D
        super().__init__(dtype=np.float64, shape=(n, n))

    def _blocks(self, x) -> np.ndarray:
        return np.asarray(x).reshape(self.n_blocks, self.block_dim)

    def _matvec(self, x):
        """M x, block row by block row, each row's terms in coupling order."""
        x = self._blocks(x)
        y = x.astype(np.result_type(x, np.float64))
        for i, row in enumerate(self.rows):
            for c, blk, plus_eye in row:
                y[i, : len(blk.rows)] -= blk.rows @ x[c]
                if plus_eye:
                    y[i] -= x[c]
        return y.ravel()

    def solve(self, rhs) -> np.ndarray:
        """Forward block substitution for M Y = rhs.

        Y_i = rhs_i + sum_k C_k Y_{c_k}, block row by block row, with the
        terms added in coupling order; a plus_eye term is y + B @ y.  For a
        derivative-scheme row that is the y + A @ y + b that
        :func:`carlift.carleman.step_lifted` evaluates, and a predictor
        row sums like it too, so those solutions equal the sequential
        lifted walk exactly.
        """
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (self.shape[0],):
            raise ValueError(f"right-hand side has shape {rhs.shape}, need ({self.shape[0]},)")
        b = self._blocks(rhs)
        Y = np.empty_like(b)
        for i, row in enumerate(self.rows):
            acc = b[i]
            for c, blk, plus_eye in row:
                y = Y[c]
                acc = acc + (y + blk @ y if plus_eye else blk @ y)
            Y[i] = acc
        return Y.ravel()

    def _row_counts(self):
        """Nonzeros of each row of M, yielded one block row at a time."""
        for row in self.rows:
            counts = np.ones(self.block_dim, dtype=np.int64)  # the identity block
            for _, blk, plus_eye in row:
                counts[: len(blk.rows)] += blk.row_nnz
                if plus_eye:
                    counts += _eye_change(blk)
            yield counts

    @property
    def nnz(self) -> int:
        """Nonzeros of M, from the counts the blocks hold and their diagonals."""
        return self.shape[0] + sum(blk.nnz + (int(_eye_change(blk).sum()) if plus_eye else 0)
                                   for row in self.rows for _, blk, plus_eye in row)

    def tocsr(self) -> sp.csr_matrix:
        """The global CSR matrix, built afresh on every call.

        Each row lists its blocks' entries in column-block order with
        sorted indices and no stored zeros.  The signed values are
        written straight into the preallocated global arrays.  Raises
        CapacityError, before allocating them, if they would exceed
        carleman.MAX_STEP_BYTES.
        """
        D, n, nnz = self.block_dim, self.shape[0], self.nnz
        nbytes = 12 * nnz + 8 * (n + 1)  # float64 data, int32 indices, int64 indptr
        if nbytes > carleman.MAX_STEP_BYTES:
            raise CapacityError(f"global system needs {nbytes} bytes, above {carleman.MAX_STEP_BYTES}")
        indptr = np.zeros(n + 1, dtype=np.int64)
        for i, counts in enumerate(self._row_counts()):
            indptr[i * D + 1 : (i + 1) * D + 1] = counts
        np.cumsum(indptr, out=indptr)
        idx_dtype = np.int32 if max(nnz, n) <= np.iinfo(np.int32).max else np.int64
        indices = np.empty(nnz, dtype=idx_dtype)
        data = np.empty(nnz)
        diag_cols = np.arange(D, dtype=idx_dtype)
        for i, row in enumerate(self.rows):
            lo, hi = indptr[i * D], indptr[(i + 1) * D]
            free = indptr[i * D : (i + 1) * D].copy()  # next unwritten slot of each row
            for c, blk, plus_eye in row:
                vals = blk.rows
                if plus_eye:  # I + B for this block only
                    vals = blk.toarray()
                    vals.reshape(-1)[:: D + 1] += 1.0
                mask = vals != 0.0
                cnt = np.count_nonzero(mask, axis=1)
                starts = np.cumsum(cnt) - cnt
                pos = np.repeat(free[: len(vals)] - starts, cnt) + np.arange(cnt.sum())
                indices[pos] = np.add(np.nonzero(mask)[1], c * D, dtype=idx_dtype)
                data[pos] = vals[mask]
                free[: len(vals)] += cnt
            np.negative(data[lo:hi], out=data[lo:hi])
            indices[free] = diag_cols + i * D  # the identity closes every row
            data[free] = 1.0
        return sp.csr_matrix((data, indices, indptr.astype(idx_dtype)), shape=(n, n))


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


def _delta_rows(qcms: list[Qcm]) -> list:
    """Block row 0, then the rows Y_i - (I + A_i) Y_{i-1} of derivative-scheme steps."""
    return [[]] + [[(i - 1, q.A, True)] for i, q in enumerate(qcms, start=1)]


def assemble_global_dpm(qcms: list[Qcm], y0: np.ndarray) -> BlockLinearSystem:
    """Block bidiagonal system for a derivative-scheme trajectory.

    Row block 0 pins Y_0 = y0; row block i couples node i to node i-1
    through -(I + A_i).
    """
    y0 = np.asarray(y0, dtype=float)
    return BlockLinearSystem(
        mat=TrajectoryOperator(len(y0), _delta_rows(qcms)),
        rhs=np.concatenate([y0] + [q.b for q in qcms]), scheme="dpm",
    )


def _fold(corr, target, pred) -> carleman.StepMatrix:
    """corr + target @ pred, formed on the d rows of the block-row-1 target."""
    rows = corr.rows.copy()
    rows[: len(target.rows)] += target.rows[:, : len(pred.rows)] @ pred.rows
    return carleman.StepMatrix(rows)


def assemble_global_unipc(
    warmup: list[Qcm],
    steps: list[UnipcQcmSet],
    y0: np.ndarray,
    which: str = "corrector",
) -> BlockLinearSystem:
    """Block banded system for a unified predictor/corrector trajectory.

    ``which`` selects the scheme whose trajectory the solution follows:
    "predictor" uses the predictor update rows; "corrector" folds the
    predictor map into each corrector row (the corrected chain is the
    canonical one, so the system closes over corrected states only).
    Bandwidth is at most p + 1 block diagonals.  With p = 1 and
    "predictor" the matrix coincides with :func:`assemble_global_dpm`
    of the order-1 scheme.
    """
    if which not in ("predictor", "corrector"):
        raise ValueError("which must be 'predictor' or 'corrector'")
    y0 = np.asarray(y0, dtype=float)
    rows = _delta_rows(warmup)
    rhs = [y0] + [q.b for q in warmup]
    for qset in steps:
        if qset.i != len(rows):
            raise ValueError(f"step to node {qset.i} would fill block row {len(rows)}")
        if which == "predictor":
            blocks = qset.pred_mats
            rhs.append(qset.pred_b)
        else:
            blocks = [_fold(corr, qset.corr_target, pred)
                      for corr, pred in zip(qset.corr_mats, qset.pred_mats)]
            rhs.append(qset.corr_b + qset.corr_target @ qset.pred_b)
        rows.append([(qset.anchor + mm, blk, False) for mm, blk in enumerate(blocks)])
    return BlockLinearSystem(
        mat=TrajectoryOperator(len(y0), rows), rhs=np.concatenate(rhs),
        scheme=f"unipc_{which}",
    )


def _zero_free(mat) -> sp.csr_matrix:
    """CSR form of a matrix or system without stored zeros, leaving it untouched.

    A trajectory operator builds a fresh CSR matrix, which holds no
    zeros.  sp.csr_matrix shares the arrays of a CSR input, so
    eliminating zeros in place would compact the caller's matrix; copy
    only when there are stored zeros to drop.
    """
    if isinstance(mat, BlockLinearSystem):
        mat = mat.mat
    if isinstance(mat, TrajectoryOperator):
        return mat.tocsr()
    csr = sp.csr_matrix(mat)
    if np.any(csr.data == 0.0):
        csr = csr.copy()
        csr.eliminate_zeros()
    return csr


def _lower_diagonal(mat: sp.csr_matrix) -> np.ndarray:
    """Diagonal of a square CSR matrix checked to be lower triangular.

    Raises StructureError if a row stores an entry above the diagonal or
    stores nothing at all (so it cannot hold a diagonal entry).
    """
    counts = np.diff(mat.indptr)
    if np.any(counts == 0):
        raise StructureError(f"missing diagonal entry in row {int(np.argmin(counts))}")
    if np.any(np.maximum.reduceat(mat.indices, mat.indptr[:-1]) > np.arange(mat.shape[0])):
        raise StructureError("matrix has entries above the diagonal")
    return mat.diagonal()


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


def condition_number(system, method: str = "auto", rtol: float = 1e-3) -> ConditionReport:
    """2-norm condition number of the system matrix.

    "dense_svd" computes all singular values on one OpenBLAS thread, so
    they do not depend on the CPU count, and is restricted to
    dimensions <= 2000.  "lanczos" works at any size but needs the lower
    triangular structure with nonzero diagonal that the global
    assemblies produce: sigma_max^2 is the top eigenvalue of M^T M and
    1/sigma_min^2 that of M^{-1} M^{-T}, applied through one sparse LU
    factor of M (no fill, as M is triangular).  Each run starts from a
    generator seeded with 0, so kappa and ``iterations`` (operator
    applications) are deterministic; LANCZOS_MAX_ITER caps the
    applications per run, and running out is reported through
    ``converged`` rather than raised.  "auto" is "lanczos" except for a 1 x 1 matrix, which
    ARPACK cannot take.
    """
    mat = _zero_free(system)
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
        if np.any(_lower_diagonal(mat) == 0.0):
            raise StructureError("lanczos path needs a nonzero diagonal")
        if n < 2:
            raise ValueError("lanczos needs dim >= 2")
        lu = splu(mat.tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0)
        rng = np.random.default_rng(0)
        top, it1, res1, ok1 = _lanczos_top(lambda v: mat.T @ (mat @ v), n, rtol, rng)
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


def export_matrix(mat, path) -> None:
    """Write a sparse matrix as text: 'rows cols nnz' then triplets.

    Values are printed with 17 significant digits, which round-trips
    IEEE doubles exactly.
    """
    coo = _zero_free(mat).tocoo()
    with open(path, "w") as fh:
        fh.write(f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
        for r, c, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{r} {c} {v:.17g}\n")

