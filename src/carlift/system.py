"""Global block linear systems over whole lifted trajectories.

Stacking the per-step quantized updates Y_i = (I + A_i) Y_{i-1} + b_i
for i = 1..M together with the initial condition gives one system
M Y = beta whose solution is the entire lifted trajectory.  M is block
lower triangular with identity diagonal blocks (elementwise unit lower
triangular, since every coupling block sits strictly below its row's
diagonal block).  :func:`carlift.carleman.lift_run`, the one dispatch
on a scheme's layout of steps, assembles a run's system here.
:class:`TrajectoryOperator` keeps M as the per-step blocks the lift
made, each a :class:`carlift.carleman.StepMatrix`, the dense array of
its leading rows: products with M and the forward solve read those
blocks, and the global CSR matrix is built only on request, for matrix
export and the condition estimate, one block row at a time straight
into the CSR arrays.  The lift writes a trajectory's steps into one
array, so the blocks of consecutive rows are consecutive slices of it:
a product takes each such run of blocks as one batched BLAS call, and
the forward solve walks the block rows in order, one matrix-vector
call per block; a unified system is one run per coupling slot too.
Both run on the calling thread.  That forward solve is the package's
one lifted walk: :func:`carlift.carleman.run_lifted` returns its blocks
as a run's states.  A dense-SVD condition number runs its LAPACK call
on one OpenBLAS thread, so its bytes do not depend on the CPU count.
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


def _eye_change(blk: carleman.StepMatrix) -> np.ndarray:
    """Change in each row's entry count when I is added to ``blk``: I adds
    an entry where the diagonal is 0 and cancels one where it is -1."""
    diag = np.zeros(blk.shape[0])
    diag[: len(blk.rows)] = np.diagonal(blk.rows)
    return (diag == 0.0).astype(np.int64) - (diag == -1.0)


def _stack_slice(rows: np.ndarray) -> tuple:
    """(base, k) when ``rows`` is base[k] of the 3-d array that owns its
    memory, else (None, None)."""
    base = rows.base
    if (isinstance(base, np.ndarray) and base.ndim == 3 and base.shape[1:] == rows.shape
            and base.strides[1:] == rows.strides and base.strides[0] > 0):
        k, off = divmod(rows.ctypes.data - base.ctypes.data, base.strides[0])
        if off == 0 and 0 <= k < len(base):
            return base, k
    return None, None


class TrajectoryOperator(LinearOperator):
    """Block lower triangular trajectory matrix, held as its blocks.

    Block row i is

        Y_i - sum_k C_k Y_{c_k},   C_k = I + B_k if plus_eye else B_k,

    over ``rows[i]``, a list of (c_k, B_k, plus_eye) couplings with
    ascending columns c_k < i; row 0 has none and pins Y_0.  The D x D
    blocks B_k are the StepMatrix objects the lift made, held as they
    are: a derivative-scheme step holds its A with ``plus_eye``, a
    unified step its predictor (or folded corrector) matrices.  So M is
    unit lower triangular: every coupling lies left of its row's
    identity block.

    A product with M takes the couplings as runs (:attr:`_runs`), each
    one batched matmul over a view of consecutive blocks, so no block is
    copied.
    """

    def __init__(self, block_dim: int, rows: list[list[tuple]]):
        D = block_dim
        for i, row in enumerate(rows):
            cols = [c for c, _, _ in row]
            if any(not 0 <= c < i for c in cols):
                raise StructureError(f"block row {i} couples to block columns {cols}; "
                                     "couplings must lie strictly below the diagonal")
            if cols != sorted(set(cols)):
                raise ValueError(f"block row {i} lists columns {cols}, not strictly ascending")
            if any(not isinstance(blk, carleman.StepMatrix) or blk.shape != (D, D)
                   for _, blk, _ in row):
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
        """The couplings as runs (rows, cols, blocks, plus_eye), grouped the
        first time a product needs them: block rows ``rows`` couple to
        block columns ``cols`` through ``blocks``, a (rows, r, D) view.  A
        run holds the k-th couplings of consecutive rows whose blocks are
        consecutive slices of one array, at one lag and one plus_eye; a
        block that continues no run is a run of one.  The runs come slot
        by slot, k = 0, 1, ..., so each row meets its couplings in order."""
        runs = []
        for k in range(max(map(len, self.rows), default=0)):
            run = None  # slot k's open run: first row, column, plus_eye, base, index, length, block
            for i, row in enumerate(self.rows):
                if k >= len(row):
                    continue
                c, blk, plus_eye = row[k]
                base, at = _stack_slice(blk.rows)
                if (run is not None and base is not None and run[3] is base and run[2] == plus_eye
                        and (i, c, at) == (run[0] + run[5], run[1] + run[5], run[4] + run[5])):
                    run[5] += 1
                else:
                    run = [i, c, plus_eye, base, at, 1, blk.rows]
                    runs.append(run)
        return [(slice(i, i + n), slice(c, c + n), base[at : at + n] if n > 1 else rows[None], eye)
                for i, c, eye, base, at, n, rows in runs]

    def _matvec(self, x):
        """M x, one batched product per run of blocks.  Each entry gets its
        terms in the order of a row-by-row walk, the terms of a row in
        coupling order, and each block's product is the same BLAS
        matrix-vector call, so the result keeps that walk's bits."""
        x = self._blocks(x)
        y = x.astype(np.result_type(x, np.float64))
        for rows, cols, blocks, plus_eye in self._runs:
            y[rows, : blocks.shape[1]] -= (blocks @ x[cols, :, None])[..., 0]
            if plus_eye:
                y[rows] -= x[cols]
        return y.ravel()

    def solve(self, rhs) -> np.ndarray:
        """Forward block substitution for M Y = rhs.

        Y_i = rhs_i + sum_k C_k Y_{c_k}, block row by block row, with the
        terms added in coupling order; a plus_eye term is y + B @ y, so a
        derivative-scheme row is the quantized update y + A @ y + b.
        This is the lifted walk: :func:`carlift.carleman.run_lifted`
        returns the solution's blocks as a run's states.
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

    @functools.cached_property
    def nnz(self) -> int:
        """Nonzeros of M, from the counts the blocks hold and their diagonals,
        counted the first time it is read and kept."""
        return self.shape[0] + sum(blk.nnz + (int(_eye_change(blk).sum()) if plus_eye else 0)
                                   for row in self.rows for _, blk, plus_eye in row)

    def tocsr(self) -> sp.csr_matrix:
        """The global CSR matrix, built afresh on every call.

        One block row at a time, its negated blocks (-(I + B) for a
        plus_eye coupling) are laid side by side in column order, with
        the identity as one last column; that array's nonzeros, read row
        by row, are its rows' CSR entries in column order with no stored
        zeros, and are written straight into the preallocated global
        arrays, each row's last entry taking its diagonal column.  So
        those arrays and one block row's temporaries are all it holds.
        Raises CapacityError, before allocating them, if they would
        exceed carleman.MAX_STEP_BYTES.
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
            for k, (_, blk, plus_eye) in enumerate(row):
                np.negative(blk.rows, out=wide[: len(blk.rows), k * D : (k + 1) * D])
                if plus_eye:
                    wide[diag, k * D + diag] -= 1.0
            wide[:, -1] = 1.0
            # the global column of each column of wide; the identity's is per row
            cols = np.append(np.add.outer([c * D for c, _, _ in row], diag), 0).astype(idx)
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


def _delta_rows(qcms: list[carleman.Qcm]) -> list:
    """Block row 0, then the rows Y_i - (I + A_i) Y_{i-1} of derivative-scheme steps."""
    return [[]] + [[(i - 1, q.A, True)] for i, q in enumerate(qcms, start=1)]


def assemble_global_dpm(qcms: list[carleman.Qcm], y0: np.ndarray) -> BlockLinearSystem:
    """Block bidiagonal system for a derivative-scheme trajectory.

    Row block 0 pins Y_0 = y0; row block i couples node i to node i-1
    through -(I + A_i).
    """
    y0 = np.asarray(y0, dtype=float)
    return BlockLinearSystem(
        mat=TrajectoryOperator(len(y0), _delta_rows(qcms)),
        rhs=np.concatenate([y0] + [q.b for q in qcms]), scheme="dpm",
    )


def _fold(steps: list[carleman.UnipcQcmSet]) -> list[list[carleman.StepMatrix]]:
    """Each step's corrector blocks corr + target @ pred, one per slot.  A
    slot's blocks over all the steps are one stacked matmul on the d rows
    of the block-row-1 targets, written into one array, so they are one
    run of the operator."""
    if not steps:
        return []
    target = np.stack([q.corr_target.rows for q in steps])
    slots = []
    for mm in range(steps[0].p):
        folded = np.stack([q.corr_mats[mm].rows for q in steps])
        pred = np.stack([q.pred_mats[mm].rows for q in steps])
        folded[:, : target.shape[1]] += target[:, :, : pred.shape[1]] @ pred
        slots.append(folded)
    return [[carleman.StepMatrix(folded[n]) for folded in slots] for n in range(len(steps))]


def assemble_global_unipc(
    warmup: list[carleman.Qcm],
    steps: list[carleman.UnipcQcmSet],
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
    corrector = which == "corrector"
    for qset, blocks in zip(steps, _fold(steps) if corrector else [q.pred_mats for q in steps]):
        if qset.i != len(rows):
            raise ValueError(f"step to node {qset.i} would fill block row {len(rows)}")
        rows.append([(qset.anchor + mm, blk, False) for mm, blk in enumerate(blocks)])
        rhs.append(qset.corr_b + qset.corr_target @ qset.pred_b if corrector else qset.pred_b)
    return BlockLinearSystem(
        mat=TrajectoryOperator(len(y0), rows), rhs=np.concatenate(rhs),
        scheme=f"unipc_{which}",
    )


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

