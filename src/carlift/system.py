"""Global block linear systems over whole lifted trajectories.

Stacking the per-step quantized updates Y_i = (I + A_i) Y_{i-1} + b_i
for i = 1..M together with the initial condition gives one sparse
system M Y = beta whose solution is the entire lifted trajectory.  The
matrix is block lower triangular with unit diagonal (elementwise lower
triangular, since every coupling block sits strictly below its row's
diagonal block), which the solvers and the smallest-singular-value
estimator exploit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu

from . import carleman
from .carleman import Qcm, UnipcQcmSet
from .errors import CapacityError, StructureError
from .solve import _lower_diagonal

__all__ = [
    "BlockLinearSystem",
    "SparsityStats",
    "ConditionReport",
    "assemble_global_dpm",
    "assemble_global_unipc",
    "sparsity_stats",
    "condition_number",
    "export_matrix",
    "import_matrix",
]

DENSE_SVD_MAX_DIM = 2000


@dataclass
class BlockLinearSystem:
    """Sparse block system mat @ y = rhs over n_blocks trajectory nodes."""

    mat: sp.csr_matrix
    rhs: np.ndarray
    n_blocks: int
    block_dim: int
    scheme: str

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def _stack_block_rows(block_rows: list[list[tuple[int, sp.csr_matrix]]], D: int) -> sp.csr_matrix:
    """Square CSR matrix of D x D CSR blocks, given per block row as
    (column block, block) pairs in ascending column order.

    indptr/indices/data are written straight into preallocated arrays;
    each row lists its blocks' entries in column-block order, which is
    the entry order sp.bmat produces.  Blocks are brought to canonical
    form in place, a no-op on what sparse arithmetic usually returns.
    Raises CapacityError before allocating entries whose arrays would
    exceed carleman.MAX_STEP_BYTES.
    """
    n = len(block_rows) * D
    for row in block_rows:
        for _, blk in row:
            blk.sum_duplicates()
    # per-row entry counts, one column per block of the block row
    lens = [np.stack([np.diff(blk.indptr) for _, blk in row], axis=1) for row in block_rows]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.concatenate([ln.sum(axis=1) for ln in lens]), out=indptr[1:])
    nnz = int(indptr[-1])
    nbytes = 12 * nnz + 8 * (n + 1)  # float64 data, int32 indices, int64 indptr
    if nbytes > carleman.MAX_STEP_BYTES:
        raise CapacityError(f"global system needs {nbytes} bytes, above {carleman.MAX_STEP_BYTES}")
    idx_dtype = np.int32 if max(nnz, n) <= np.iinfo(np.int32).max else np.int64
    indices = np.empty(nnz, dtype=idx_dtype)
    data = np.empty(nnz)
    for i, (row, ln) in enumerate(zip(block_rows, lens)):
        lo, hi = indptr[i * D], indptr[(i + 1) * D]
        # which block of the row each entry of the segment comes from
        owner = np.repeat(np.tile(np.arange(len(row), dtype=np.int16), D), ln.ravel())
        for k, (c, blk) in enumerate(row):
            sel = owner == k
            indices[lo:hi][sel] = blk.indices + c * D
            data[lo:hi][sel] = blk.data
    mat = sp.csr_matrix((data, indices, indptr.astype(idx_dtype)), shape=(n, n))
    mat.eliminate_zeros()
    return mat


def _derivative_rows(qcms: list[Qcm], eye: sp.csr_matrix) -> list:
    """Block rows Y_i - (I + A_i) Y_{i-1} of derivative-scheme steps i = 1, 2, ..."""
    if any(q.A.shape != eye.shape for q in qcms):
        raise ValueError("step matrix dimension does not match the initial state")
    rows = []
    for i, q in enumerate(qcms, start=1):
        blk = eye + q.A
        np.negative(blk.data, out=blk.data)  # -(I + A_i) without a second copy
        rows.append([(i - 1, blk), (i, eye)])
    return rows


def assemble_global_dpm(qcms: list[Qcm], y0: np.ndarray) -> BlockLinearSystem:
    """Block bidiagonal system for a derivative-scheme trajectory.

    Row block 0 pins Y_0 = y0; row block i couples node i to node i-1
    through -(I + A_i).
    """
    y0 = np.asarray(y0, dtype=float)
    eye = sp.identity(len(y0), format="csr")
    return BlockLinearSystem(
        mat=_stack_block_rows([[(0, eye)]] + _derivative_rows(qcms, eye), len(y0)),
        rhs=np.concatenate([y0] + [q.b for q in qcms]),
        n_blocks=len(qcms) + 1, block_dim=len(y0), scheme="dpm",
    )


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
    D = len(y0)
    eye = sp.identity(D, format="csr")
    block_rows = [[(0, eye)]] + _derivative_rows(warmup, eye)
    rhs = [y0] + [q.b for q in warmup]
    for qset in steps:
        if which == "predictor":
            blocks = [-mat for mat in qset.pred_mats]
            rhs.append(qset.pred_b)
        else:
            blocks = [-(qset.corr_mats[mm] + qset.corr_target @ qset.pred_mats[mm])
                      for mm in range(qset.p)]
            rhs.append(qset.corr_b + qset.corr_target @ qset.pred_b)
        block_rows.append([(qset.anchor + mm, blk) for mm, blk in enumerate(blocks)] + [(qset.i, eye)])
    return BlockLinearSystem(
        mat=_stack_block_rows(block_rows, D), rhs=np.concatenate(rhs), n_blocks=len(block_rows),
        block_dim=D, scheme=f"unipc_{which}",
    )


@dataclass
class SparsityStats:
    s_row: int
    s_col: int
    nnz: int
    fill: float


def _zero_free(mat) -> sp.csr_matrix:
    """CSR form of a matrix or system without stored zeros, leaving it untouched.

    sp.csr_matrix shares the arrays of a CSR input, so eliminating zeros
    in place would compact the caller's matrix; copy only when there are
    stored zeros to drop.
    """
    csr = sp.csr_matrix(mat.mat if isinstance(mat, BlockLinearSystem) else mat)
    if np.any(csr.data == 0.0):
        csr = csr.copy()
        csr.eliminate_zeros()
    return csr


def sparsity_stats(mat) -> SparsityStats:
    """Max nonzeros per row/column and overall fill of a sparse matrix."""
    csr = _zero_free(mat)
    row_counts = np.diff(csr.indptr)
    col_counts = np.bincount(csr.indices, minlength=csr.shape[1]) if csr.nnz else np.zeros(csr.shape[1], int)
    return SparsityStats(
        s_row=int(row_counts.max(initial=0)),
        s_col=int(col_counts.max(initial=0)),
        nnz=int(csr.nnz),
        fill=float(csr.nnz / (csr.shape[0] * csr.shape[1])),
    )


@dataclass
class ConditionReport:
    """2-norm condition estimate with how it was obtained."""

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


def _lanczos_top(apply, n: int, rtol: float, max_iter: int, rng):
    """Top eigenvalue of a symmetric positive definite operator B by
    ARPACK's Lanczos, within about max_iter applications, then certified.

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
                  maxiter=max(1, max_iter // ncv))[1][:, 0]
    except ArpackNoConvergence:
        u = seen["v"]
    w = matvec(u)
    uu = float(u @ u)
    theta = float(u @ w) / uu
    res = float(np.linalg.norm(w - theta * u) / np.sqrt(uu))
    return theta, seen["calls"], res, res <= rtol * theta


def condition_number(
    system,
    method: str = "auto",
    rtol: float = 1e-3,
    max_iter: int = 10000,
) -> ConditionReport:
    """2-norm condition number of the system matrix.

    "dense_svd" computes all singular values and is restricted to
    dimensions <= 2000.  "lanczos" works at any size but needs the lower
    triangular structure with nonzero diagonal that the global
    assemblies produce: sigma_max^2 is the top eigenvalue of M^T M and
    1/sigma_min^2 that of M^{-1} M^{-T}, applied through one sparse LU
    factor of M (no fill, as M is triangular).  Each run starts from a
    generator seeded with 0, so kappa and ``iterations`` (operator
    applications) are deterministic; ``max_iter`` caps the applications
    per run, and running out is reported through ``converged`` rather
    than raised.  "auto" is "lanczos" except for a 1 x 1 matrix, which
    ARPACK cannot take.
    """
    mat = _zero_free(system)
    stats = sparsity_stats(mat)
    n = mat.shape[0]
    if method == "auto":
        method = "lanczos" if n >= 2 else "dense_svd"
    if method == "dense_svd":
        if n > DENSE_SVD_MAX_DIM:
            raise ValueError(f"dense SVD limited to dim <= {DENSE_SVD_MAX_DIM}, got {n}")
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
        top, it1, res1, ok1 = _lanczos_top(lambda v: mat.T @ (mat @ v), n, rtol, max_iter, rng)
        inv, it2, res2, ok2 = _lanczos_top(lambda v: lu.solve(lu.solve(v, trans="T")), n, rtol,
                                           max_iter, rng)
        smax, smin, its = np.sqrt(top), 1.0 / np.sqrt(inv), it1 + it2
        res, ok = max(res1, res2), ok1 and ok2
    else:
        raise ValueError(f"unknown method {method!r}")
    return ConditionReport(
        kappa=float(smax / smin), method=method, dim=n, iterations=its, rtol=rtol,
        residual=float(res), converged=bool(ok), sigma_max=float(smax), sigma_min=float(smin),
        s_row=stats.s_row, s_col=stats.s_col, nnz=stats.nnz,
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


def import_matrix(path) -> sp.csr_matrix:
    """Read a matrix written by :func:`export_matrix`."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise ValueError("matrix header must be 'rows cols nnz'")
        rows, cols, nnz = (int(x) for x in header)
        r = np.empty(nnz, dtype=int)
        c = np.empty(nnz, dtype=int)
        v = np.empty(nnz, dtype=float)
        for k in range(nnz):
            parts = fh.readline().split()
            if len(parts) != 3:
                raise ValueError(f"bad triplet on line {k + 2}")
            r[k], c[k], v[k] = int(parts[0]), int(parts[1]), float(parts[2])
    return sp.coo_matrix((v, (r, c)), shape=(rows, cols)).tocsr()
