"""Carleman lifting of polynomial sampler steps.

A polynomial step map x -> P(x) = sum_q B_q x^{(q)} (with x^{(q)} the
q-fold Kronecker power) becomes linear on the truncated lifted state

    Y = (y_1, ..., y_N),   y_j = (sqrt(m_beta) x^beta : |beta| = j),

the monomials of each degree j in sorted multi-index order, each scaled
by the square root of its multiplicity m_beta = j! / prod_k beta_k!,
the number of entries of x^{(j)} equal to it.  So y_j = Q_j^T x^{(j)},
where the columns of Q_j are an orthonormal basis of the symmetric
tensors of order j.  Q = diag(Q_j) is an isometry on them, and every
lifted Kronecker-basis map U keeps them symmetric, so U Q = Q U_s: the
lifted states, their norms and the defect are the Kronecker basis's,
and the singular values of U_s lie within U's, at dimension
C(d+N, N) - 1 instead of d + d^2 + ... + d^N.  Block 1 is x itself.
Each sampler step then takes the quantized update form

    Y_i = (I + A_i) Y_{i-1} + b_i,

and a whole trajectory becomes one block lower-triangular linear
system.  Terms of degree above N are dropped (hard truncation); block 1
of a single step is exact whenever the step polynomial fits within N.

The step maps are not derived here: their coefficients come from
:func:`carlift.reference.dpm_weights` and
:func:`carlift.reference.uni_weights`, which the classical samplers
evaluate too, so the lifted step and the sampler step are one map.

Each step is lifted into one dense buffer, kept as its
:class:`StepMatrix`.  :func:`run_lifted` lifts the steps of a
trajectory in order on the calling thread, then walks the states.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import CapacityError
from .model import PolyNoiseModel, _derivative_tower, coeff_matrices
from .reference import dpm_weights, uni_weights
from .schedule import NoiseSchedule, TimeGrid

__all__ = [
    "CarlemanBasis",
    "LiftedState",
    "StepMatrix",
    "Qcm",
    "UnipcQcmSet",
    "lift",
    "step_polynomial_dpm",
    "assemble_dpm_qcm",
    "assemble_unipc_qcms",
    "step_lifted",
    "run_lifted",
]

MAX_DIM_TOTAL = 400_000
MAX_STEP_BYTES = 2**31


@dataclass(frozen=True)
class CarlemanBasis:
    """Index bookkeeping for the truncated symmetric-monomial basis.

    Block j = 1..N holds the C(d+j-1, j) monomials of degree j, each
    scaled by sqrt(multiplicity), in sorted multi-index order: x^beta is
    written as its variable indices i_1 <= ... <= i_j, and the tuples
    are listed in lexicographic order.  The sizes come from the closed
    form, so no monomial is listed before a lift needs it.  ``mode``
    selects nothing; its one value "kron" is accepted because callers
    pass it (``benchmark/workloads.py:kron_basis``).
    """

    N: int
    d: int
    mode: str = "kron"
    offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError("need truncation order N >= 1")
        if self.mode != "kron":
            raise ValueError(f"unknown basis mode {self.mode!r}; only 'kron' is supported")
        dim = math.comb(self.d + self.N, self.N) - 1
        if dim > MAX_DIM_TOTAL:
            raise CapacityError(f"lifted dimension {dim} exceeds {MAX_DIM_TOTAL}")
        sizes = [math.comb(self.d + j - 1, j) for j in range(1, self.N + 1)]
        off = np.concatenate([[0], np.cumsum(sizes)])
        off.flags.writeable = False
        object.__setattr__(self, "offsets", off)

    @property
    def dim_total(self) -> int:
        return int(self.offsets[-1])

    def block_slice(self, j: int) -> slice:
        if not (1 <= j <= self.N):
            raise ValueError(f"block {j} outside 1..{self.N}")
        return slice(int(self.offsets[j - 1]), int(self.offsets[j]))


@dataclass(frozen=True)
class _Monomials:
    """Index tables of the monomials of degree 0..N in d variables.

    Monomial k of degree t is x_i times monomial ``parent[t][k]`` of
    degree t-1, with i = ``first[t][k]`` its lowest variable.  The
    tables that multiply monomials use "ext" indices, which list every
    degree in order: 0 is the constant 1 and 1 + k is coordinate k of
    the lifted state, so degree t starts at ``start[t]``.
    ``times_x[e, i]`` is x_i times e, -1 at degree N; ``products[q]``
    holds a b for every a of degree <= N - q (the ext indices below
    start[N-q+1]) and every b of degree q, as a flat (a, b) array.
    """

    start: tuple
    parent: tuple
    first: tuple
    sqrt_mult: np.ndarray  # over the lifted coordinates
    times_x: np.ndarray
    products: tuple

    def fold(self, B: np.ndarray, q: int) -> np.ndarray:
        """The (r, d^q) coefficients of x^{(q)} as the (r, n_q) coefficients of
        the degree-q monomials: the Kronecker columns of each monomial summed."""
        n_q = self.start[q + 1] - self.start[q]
        if B.shape[1] == n_q:  # q <= 1 or d = 1: one column per monomial, in order
            return B
        cols = np.zeros(1, dtype=np.intp)  # ext index of each Kronecker column
        for _ in range(q):
            cols = self.times_x[cols].ravel()
        flat = np.arange(len(B))[:, None] * n_q + (cols - self.start[q])
        return np.bincount(flat.ravel(), weights=B.ravel(), minlength=len(B) * n_q).reshape(-1, n_q)


@functools.lru_cache(maxsize=16)
def _monomials(d: int, N: int) -> _Monomials:
    """Index tables of the (d, N) basis, built when its first lift needs them.

    Degree t lists x_i x^e for i = 0..d-1 and, for each i, every
    degree-(t-1) monomial e whose lowest variable is at least i, in
    order; that is the sorted multi-index order.
    """
    sizes = [math.comb(d + t - 1, t) for t in range(N + 1)]
    start = tuple(int(v) for v in np.cumsum([0] + sizes))
    var = np.arange(d)
    parent, first = [np.zeros(0, np.intp)], [np.array([d])]  # the constant has no variable
    lead, mult = [np.zeros(1, np.intp)], [np.ones(1)]  # lead: how often first divides it
    times_x = np.full((start[-1], d), -1, dtype=np.intp)
    for t in range(1, N + 1):
        skip = np.searchsorted(first[t - 1], var)  # degree-(t-1) monomials with first < i
        counts = sizes[t - 1] - skip
        offset = np.cumsum(counts) - counts - skip  # x_i e is monomial offset[i] + e of degree t
        f = np.repeat(var, counts)
        par = np.arange(sizes[t]) - np.repeat(offset, counts)
        lead.append(1 + np.where(first[t - 1][par] == f, lead[t - 1][par], 0))
        mult.append(mult[t - 1][par] * t / lead[t])
        parent.append(par), first.append(f)
        # x_i e is (i, e) when i <= first(e), else (first(e), x_i parent(e))
        fe = first[t - 1][:, None]
        prod = offset[var] + np.arange(sizes[t - 1])[:, None]
        if t > 1:
            via = offset[fe] + times_x[start[t - 2] + parent[t - 1]] - start[t - 1]
            prod = np.where(var <= fe, prod, via)
        times_x[start[t - 1] : start[t]] = start[t] + prod
    products = []
    mul = np.arange(start[-1])[None, :]  # mul[b, a] = a b, b of degree s, a of degree <= N - s
    for s in range(N + 1):
        if s:
            mul = times_x[mul[parent[s], : start[N - s + 1]], first[s][:, None]]
        products.append(np.ascontiguousarray(mul.T).ravel())
    mono = _Monomials(start=start, parent=tuple(parent), first=tuple(first),
                      sqrt_mult=np.sqrt(np.concatenate(mult[1:])), times_x=times_x,
                      products=tuple(products))
    for arr in (*mono.parent, *mono.first, mono.sqrt_mult, times_x, *mono.products):
        arr.flags.writeable = False  # shared by every lift of this basis
    return mono


@dataclass
class LiftedState:
    """Truncated symmetric-monomial vector with its basis."""

    basis: CarlemanBasis
    y: np.ndarray

    def block(self, j: int) -> np.ndarray:
        return self.y[self.basis.block_slice(j)]

    def consistency_defect(self) -> float:
        """|| y_2 - lift(y_1)_2 ||, zero on exactly lifted states."""
        if self.basis.N < 2:
            return 0.0
        return float(np.linalg.norm(self.block(2) - lift(self.block(1), self.basis).block(2)))


def lift(x, basis: CarlemanBasis) -> LiftedState:
    """Exact lifting of a state into the weighted monomials of degree 1..N."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (basis.d,):
        raise ValueError(f"state must have shape ({basis.d},)")
    mono = _monomials(basis.d, basis.N)
    blocks = [np.ones(1)]
    for t in range(1, basis.N + 1):
        blocks.append(blocks[-1][mono.parent[t]] * x[mono.first[t]])
    return LiftedState(basis=basis, y=np.concatenate(blocks[1:]) * mono.sqrt_mult)


class StepMatrix:
    """A square step matrix held as the dense array of its leading rows.

    ``rows`` holds rows 0..r-1 of the (n, n) matrix, the only ones that
    can be nonzero; the rest are zero.  The nonzeros of each row are
    counted once, when the matrix is made (``row_nnz``), so nothing
    rescans the array for them.
    """

    def __init__(self, rows: np.ndarray):
        self.rows = rows
        self.shape = (rows.shape[1], rows.shape[1])
        self.row_nnz = np.count_nonzero(rows, axis=1)

    @property
    def nnz(self) -> int:
        return int(self.row_nnz.sum())

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """The product with a vector."""
        out = np.zeros(self.shape[0], dtype=np.result_type(self.rows, x))
        out[: len(self.rows)] = self.rows @ x
        return out

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[: len(self.rows)] = self.rows
        return out

    def tocsr(self) -> sp.csr_matrix:
        return sp.csr_matrix(self.toarray())


def _poly_to_update(P: dict[int, np.ndarray], basis: CarlemanBasis, delta: bool = False):
    """Lift a step polynomial into the update matrix U and offset b.

    Row beta of block row j holds the degree-truncated coefficients of
    sqrt(m_beta) prod_k P_{beta_k}(x) on the weighted monomials.  The
    (d, d^q) blocks of P are first summed onto monomial columns.  Each
    block row is then made from block row j-1 in one pass: row beta is
    its parent row, beta - e_{beta_1}, times P_{beta_1}; the products of
    each degree q of P are taken for all rows at once, and one bincount
    adds them onto their monomial columns.  Rows and columns are scaled
    by sqrt(m_beta) and 1/sqrt(m_gamma) last.  Degree-0 parts land in b.
    With ``delta`` the identity is subtracted, giving the delta-form
    matrix U - I.  The (dim_total, dim_total) buffer is the step matrix.
    Returns (StepMatrix, b).
    """
    N, dim = basis.N, basis.dim_total
    mono = _monomials(basis.d, N)
    C = {q: mono.fold(B, q) for q, B in P.items() if q <= N and np.any(B)}
    width = dim + 1  # the constant, then the lifted coordinates
    targets = np.concatenate([mono.products[q] for q in C] + [np.zeros(0, np.intp)])
    buf = np.empty((dim, dim))
    b = np.empty(dim)
    col_scale = 1.0 / mono.sqrt_mult
    R = np.zeros((1, width))  # block row j-1, unscaled, with its constant column
    R[0, 0] = 1.0
    for j in range(1, N + 1):
        f = mono.first[j]
        n_j = len(f)
        Rp = R[mono.parent[j]]
        vals = [(Rp[:, : mono.start[N - q + 1], None] * Cq[f][:, None, :]).reshape(n_j, -1)
                for q, Cq in C.items()]
        vals = np.concatenate(vals, axis=1) if vals else np.zeros((n_j, 0))
        flat = np.arange(n_j)[:, None] * width + targets
        R = np.bincount(flat.ravel(), weights=vals.ravel(), minlength=n_j * width).reshape(n_j, width)
        rows = basis.block_slice(j)
        scale = mono.sqrt_mult[rows]
        b[rows] = R[:, 0] * scale
        np.multiply(R[:, 1:], col_scale, out=buf[rows])
        buf[rows] *= scale[:, None]
    if delta:
        buf.reshape(-1)[:: dim + 1] -= 1.0
    return StepMatrix(buf), b


@dataclass
class Qcm:
    """One lifted step in delta form: Y_i = (I + A) Y_{i-1} + b."""

    A: StepMatrix
    b: np.ndarray


def step_polynomial_dpm(
    s: NoiseSchedule,
    m: PolyNoiseModel,
    i: int,
    grid: TimeGrid,
    k: int,
) -> dict[int, np.ndarray]:
    """Coefficient matrices of the order-k step map from node i-1 to i,
    the :func:`carlift.reference.dpm_weights` step written out in powers of x."""
    lam_s, lam_t = float(grid.lam[i - 1]), float(grid.lam[i])
    ratio, c = dpm_weights(s, lam_s, lam_t, k)
    d = m.d
    P: dict[int, np.ndarray] = {1: ratio * np.eye(d)}
    for cn, dn in zip(c, _derivative_tower(s, m, k, lam_s)):
        for q, mat in coeff_matrices(dn, lam_s).items():
            P[q] = P.get(q, np.zeros((d, d**q))) + cn * mat
    return P


def assemble_dpm_qcm(
    s: NoiseSchedule,
    m: PolyNoiseModel,
    i: int,
    grid: TimeGrid,
    k: int,
    basis: CarlemanBasis,
) -> Qcm:
    """Lift the order-k step into quantized update form.

    Step-polynomial degrees above the basis truncation N are dropped;
    block 1 (and every block j with j * deg(P) <= N) is otherwise an
    exact image of the sequential step.
    """
    _check_model_basis(m, basis)
    A, b = _poly_to_update(step_polynomial_dpm(s, m, i, grid, k), basis, delta=True)
    return Qcm(A=A, b=b)


def _check_model_basis(m: PolyNoiseModel, basis: CarlemanBasis) -> None:
    """Refuse a mismatched model, or a step lift whose dense buffer would
    exceed MAX_STEP_BYTES."""
    step_bytes = 8 * basis.dim_total**2  # the dense (dim_total x dim_total) buffer
    if step_bytes > MAX_STEP_BYTES:
        raise CapacityError(f"step lift needs {step_bytes} bytes, above {MAX_STEP_BYTES}")
    if m.d != basis.d:
        raise ValueError(f"model dimension {m.d} != basis dimension {basis.d}")
    if m.mode == "separable" and m.d > 1:
        raise ValueError("separable models with d > 1 cannot be lifted; use kron mode")


@dataclass
class UnipcQcmSet:
    """Lifted update matrices for one predictor(/corrector) step.

    Update form (anchor node a = i - p):

        Y_i^pred = sum_{m=0}^{p-1} pred_mats[m] Y_{a+m} + pred_b
        Y_i^corr = sum_{m=0}^{p-1} corr_mats[m] Y_{a+m}
                   + corr_target Y_i^pred + corr_b

    Block row 1 of every matrix is exact; higher block rows are carried
    by the anchor matrices (index 0) as truncated powers of the anchor
    step polynomial, with the interior-node state dependence
    of those rows dropped.  Block row 1 of Y_i^pred is therefore exact
    from exactly lifted history, but its higher blocks are not, and
    corr_target reads them on a nonlinear model: the corrector's block
    row 1 is exact only when it is applied to the exact lift of the
    predictor output, not to Y_i^pred itself.
    """

    i: int
    p: int
    anchor: int
    pred_mats: list
    pred_b: np.ndarray
    corr_mats: list
    corr_target: StepMatrix
    corr_b: np.ndarray


def _node_block1(E: dict[int, np.ndarray], c: float, basis: CarlemanBasis) -> StepMatrix:
    """Block-row-1 matrix c * E_q against column blocks q >= 1, its
    Kronecker columns summed onto the monomials and scaled by
    1/sqrt(multiplicity), held as its d rows."""
    mono = _monomials(basis.d, basis.N)
    buf = np.zeros((basis.d, basis.dim_total))
    for q, mat in E.items():
        if 1 <= q <= basis.N:
            cols = basis.block_slice(q)
            buf[:, cols] = c * mono.fold(mat, q) / mono.sqrt_mult[cols]
    return StepMatrix(buf)


def assemble_unipc_qcms(
    s: NoiseSchedule,
    m: PolyNoiseModel,
    i: int,
    grid: TimeGrid,
    p: int,
    basis: CarlemanBasis,
    variant: str = "bh2",
) -> UnipcQcmSet:
    """Lift the order-p predictor and corrector step targeting node i.

    The step anchors at grid node i-p and its interior nodes are the
    grid nodes in between, so every matrix acts on an already-computed
    lifted state.  At p = 1 the predictor degenerates to the order-1
    lifted step of :func:`assemble_dpm_qcm` exactly.
    """
    _check_model_basis(m, basis)
    anchor = i - p
    if anchor < 0:
        raise ValueError(f"step to node {i} at order {p} lacks node history")
    lam_nodes = grid.lam[anchor : i + 1]
    E_nodes = [coeff_matrices(m, float(lam)) for lam in lam_nodes]

    def lift_step(corrector: bool):
        """Lift the uni_weights step: the anchor row carries c[0] E_0 and
        every node's constant term, each other node a block-row-1 matrix."""
        ratio, c = uni_weights(s, lam_nodes, variant=variant, corrector=corrector)
        P: dict[int, np.ndarray] = {1: ratio * np.eye(m.d)}
        for q, mat in E_nodes[0].items():
            P[q] = P.get(q, np.zeros((m.d, m.d**q))) + c[0] * mat
        for mm in range(1, len(c)):
            if 0 in E_nodes[mm]:
                P[0] = P.get(0, np.zeros((m.d, 1))) + c[mm] * E_nodes[mm][0]
        U0, b = _poly_to_update(P, basis)
        return [U0] + [_node_block1(E_nodes[mm], c[mm], basis) for mm in range(1, len(c))], b

    pred_mats, pred_b = lift_step(corrector=False)
    corr_mats, corr_b = lift_step(corrector=True)
    corr_target = corr_mats.pop()

    return UnipcQcmSet(
        i=i, p=p, anchor=anchor,
        pred_mats=pred_mats, pred_b=pred_b,
        corr_mats=corr_mats, corr_target=corr_target, corr_b=corr_b,
    )


def step_lifted(q, states, corrector: bool = False) -> np.ndarray:
    """Advance lifted state vector(s) through one quantized step.

    For a :class:`Qcm`, ``states`` is the single lifted vector at the
    previous node.  For a :class:`UnipcQcmSet`, ``states`` is the list
    of p lifted vectors at nodes anchor..anchor+p-1; with
    ``corrector=True`` the predictor output is formed internally and
    the corrected state returned.  That corrected state is not block-1
    exact on a nonlinear model even from exactly lifted history: the
    corrector then reads the predictor output's truncated higher blocks
    (see :class:`UnipcQcmSet`).
    """
    if isinstance(q, Qcm):
        return states + q.A @ states + q.b
    if isinstance(q, UnipcQcmSet):
        if len(states) != q.p:
            raise ValueError(f"need {q.p} history states, got {len(states)}")
        y_pred = q.pred_b.copy()
        for mat, y in zip(q.pred_mats, states):
            y_pred += mat @ y
        if not corrector:
            return y_pred
        y_corr = q.corr_b + q.corr_target @ y_pred
        for mat, y in zip(q.corr_mats, states):
            y_corr += mat @ y
        return y_corr
    raise TypeError(f"unsupported step object {type(q)!r}")


def run_lifted(
    s: NoiseSchedule,
    m: PolyNoiseModel,
    x_T,
    grid: TimeGrid,
    basis: CarlemanBasis,
    scheme: str = "dpm",
    order: int = 1,
    variant: str = "bh2",
    corrector: bool = False,
):
    """Drive a whole lifted trajectory; returns (states, step objects).

    ``scheme`` is "dpm" or "unipc"; ``order`` is k or p.  The unipc
    path warms up with order-p lifted steps of the derivative scheme,
    matching the sequential sampler, and feeds corrected states back
    into the history when ``corrector`` is set.

    Every step depends only on the grid and the model: the steps are
    lifted first, in order, and the states are walked after them.
    """
    _check_model_basis(m, basis)
    Y0 = lift(x_T, basis)
    if scheme == "dpm":
        qcms = [assemble_dpm_qcm(s, m, i, grid, order, basis) for i in range(1, grid.M + 1)]
    elif scheme == "unipc":
        p = order
        qcms = [assemble_dpm_qcm(s, m, i, grid, p, basis) for i in range(1, min(p - 1, grid.M) + 1)]
        qcms += [assemble_unipc_qcms(s, m, i, grid, p, basis, variant=variant)
                 for i in range(p, grid.M + 1)]
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    states = [Y0.y]
    for i, q in enumerate(qcms, start=1):
        history = states[i - q.p : i] if isinstance(q, UnipcQcmSet) else states[-1]
        states.append(step_lifted(q, history, corrector=corrector))
    return [LiftedState(basis=basis, y=y) for y in states], qcms
