"""Carleman lifting of polynomial sampler steps.

A polynomial step map x -> P(x) = sum_q B_q x^{(q)} (with x^{(q)} the
q-fold Kronecker power) becomes linear on the truncated lifted state

    Y = (x, x^{(2)}, ..., x^{(N)}),

because block j of the lifted image is the degree-truncated j-th
Kronecker power of P.  Each sampler step then takes the quantized
update form

    Y_i = (I + A_i) Y_{i-1} + b_i,

and a whole trajectory becomes one block lower-triangular linear
system.  Terms of degree above N are dropped (hard truncation); block 1
of a single step is exact whenever the step polynomial fits within N.

The step maps are not derived here: their coefficients come from
:func:`carlift.reference.dpm_weights` and
:func:`carlift.reference.uni_weights`, which the classical samplers
evaluate too, so the lifted step and the sampler step are one map.

Each step is lifted into one dense buffer, converted to CSR once.  The
steps of a trajectory are independent, so :func:`run_lifted` lifts them
concurrently, one thread per CPU in the process's affinity mask, and
serially when a step's top block row is below PARALLEL_LIFT_MIN_ENTRIES.
A step is lifted whole by one thread, so the outputs do not depend on
the worker count.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import _threads
from .errors import CapacityError
from .model import PolyNoiseModel, _derivative_tower, coeff_matrices
from .reference import dpm_weights, uni_weights
from .schedule import NoiseSchedule, TimeGrid

__all__ = [
    "CarlemanBasis",
    "LiftedState",
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

# Attribute set on the CSR matrices the lift builds, which have sorted,
# unique indices and no stored zeros: system.TrajectoryOperator holds
# such a block without rescanning it.  A copy or a product does not carry it.
ZERO_FREE = "_carlift_zero_free"

# run_lifted lifts its steps on several threads only when a step's top
# block row holds at least this many entries (d^N * dim_total).  Measured
# crossover on a 2-CPU host, M=32: two threads took 1.03x the serial time
# at 32 512 entries (d=2, N=7), 0.71x at 87 040 (d=4, N=4) and 0.66x at
# 88 209 (d=3, N=5).  d=1 lifts are Python-bound and stay 1.1-1.2x slower
# on two threads at any N, which this measure keeps serial.
PARALLEL_LIFT_MIN_ENTRIES = 2**16


@dataclass(frozen=True)
class CarlemanBasis:
    """Index bookkeeping for the truncated Kronecker-power basis.

    Blocks j = 1..N hold the plain (unsymmetrised) Kronecker powers
    x^{(j)}; within block j the flat offset of the monomial
    (i_1, ..., i_j) is its base-d value, which orders monomials by
    degree first and lexicographically inside a degree.  ``mode`` names
    the basis; "kron" is the only one.
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
        sizes = [self.d**j for j in range(1, self.N + 1)]
        if sum(sizes) > MAX_DIM_TOTAL:
            raise CapacityError(f"lifted dimension {sum(sizes)} exceeds {MAX_DIM_TOTAL}")
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


@dataclass
class LiftedState:
    """Truncated Kronecker-power vector with its basis."""

    basis: CarlemanBasis
    y: np.ndarray

    def block(self, j: int) -> np.ndarray:
        return self.y[self.basis.block_slice(j)]

    def consistency_defect(self) -> float:
        """|| y_2 - y_1 (x) y_1 ||, zero on exactly lifted states."""
        if self.basis.N < 2:
            return 0.0
        y1 = self.block(1)
        return float(np.linalg.norm(self.block(2) - np.kron(y1, y1)))


def lift(x, basis: CarlemanBasis) -> LiftedState:
    """Exact lifting of a state into Kronecker powers 1..N."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (basis.d,):
        raise ValueError(f"state must have shape ({basis.d},)")
    parts = []
    power = x
    for j in range(1, basis.N + 1):
        parts.append(power)
        if j < basis.N:
            power = np.kron(power, x)
    return LiftedState(basis=basis, y=np.concatenate(parts))


def _dense_csr(buf: np.ndarray, n_rows: int) -> sp.csr_matrix:
    """(n_rows, cols) CSR matrix holding the dense ``buf`` in its leading rows.

    The entries are read row by row through a boolean mask, which gives
    what sp.csr_matrix(buf) gives without its coordinate detour: sorted,
    unique indices and no stored zeros.  The matrix records that as
    SciPy's canonical format and as the ZERO_FREE mark.
    """
    mask = buf != 0
    counts = np.zeros(n_rows, dtype=np.int32)
    counts[: len(buf)] = np.count_nonzero(mask, axis=1)
    indptr = np.zeros(n_rows + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    cols = np.broadcast_to(np.arange(buf.shape[1], dtype=np.int32), buf.shape)
    out = sp.csr_matrix((buf[mask], cols[mask], indptr), shape=(n_rows, buf.shape[1]))
    out.has_canonical_format = True
    setattr(out, ZERO_FREE, True)
    return out


def _poly_to_update(P: dict[int, np.ndarray], basis: CarlemanBasis, delta: bool = False):
    """Lift a step polynomial into the update matrix U and offset b.

    Block row j of U holds the degree-truncated coefficients of
    P(x)^{(j)}.  It is written into one dense (dim_total, dim_total)
    buffer from block row j-1, already there: each Kronecker product
    R_{q1} (x) B_{q2} goes in by broadcasting, and the products of one
    column degree are added in the order their (q1, q2) pairs come up.
    Degree-0 parts land in b.  With ``delta`` the identity is subtracted,
    giving the delta-form matrix U - I.  The buffer becomes CSR once.
    Returns (csr, b).
    """
    d, N, dim = basis.d, basis.N, basis.dim_total
    buf = np.zeros((dim, dim))
    b = np.zeros(dim)
    Ptrunc = {q: B for q, B in P.items() if q <= N and np.any(B)}
    R: dict[int, np.ndarray] = {0: np.ones((1, 1))}  # block row j-1 by column degree
    for j in range(1, N + 1):
        rows = basis.block_slice(j)
        row: dict[int, np.ndarray] = {}
        for q1, Rq in R.items():
            for q2, B in Ptrunc.items():
                qt = q1 + q2
                if qt > N:
                    continue
                first = qt not in row
                if first:
                    row[qt] = b[rows, None] if qt == 0 else buf[rows, basis.block_slice(qt)]
                # row[qt] as (a, i, c, k) = R_{q1}[a, c] * B_{q2}[i, k]; splitting
                # the two axes of a strided view is again a view
                out = row[qt].reshape(len(Rq), d, Rq.shape[1], B.shape[1])
                left, right = Rq[:, None, :, None], B[None, :, None, :]
                if first:
                    np.multiply(left, right, out=out)
                else:
                    out += left * right
        R = row
    if delta:
        buf.reshape(-1)[:: dim + 1] -= 1.0
    return _dense_csr(buf, dim), b


@dataclass
class Qcm:
    """One lifted step in delta form: Y_i = (I + A) Y_{i-1} + b."""

    A: sp.csr_matrix
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


def _step_bytes(basis: CarlemanBasis) -> int:
    """Bytes of the dense (dim_total x dim_total) buffer one step lift fills."""
    return 8 * basis.dim_total**2


def _check_model_basis(m: PolyNoiseModel, basis: CarlemanBasis) -> None:
    """Refuse a mismatched model, or a step lift whose dense buffer would
    exceed MAX_STEP_BYTES."""
    step_bytes = _step_bytes(basis)
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
    by the anchor matrices (index 0) as truncated Kronecker powers of
    the anchor step polynomial, with the interior-node state dependence
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
    corr_target: sp.csr_matrix
    corr_b: np.ndarray


def _node_block1(E: dict[int, np.ndarray], c: float, basis: CarlemanBasis) -> sp.csr_matrix:
    """Block-row-1 matrix c * E_q placed against column blocks q >= 1."""
    buf = np.zeros((basis.d, basis.dim_total))
    for q, mat in E.items():
        if 1 <= q <= basis.N:
            buf[:, basis.block_slice(q)] = c * mat
    return _dense_csr(buf, basis.dim_total)


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

    Every step depends only on the grid and the model, so the steps are
    lifted first, on one thread per CPU when a step's top block row
    reaches PARALLEL_LIFT_MIN_ENTRIES; the state walk then runs in order.
    Each step is lifted whole by one thread, so the step matrices and
    states do not depend on the worker count.
    """
    Y0 = lift(x_T, basis)
    if scheme == "dpm":
        steps = [functools.partial(assemble_dpm_qcm, s, m, i, grid, order, basis)
                 for i in range(1, grid.M + 1)]
    elif scheme == "unipc":
        p = order
        steps = [functools.partial(assemble_dpm_qcm, s, m, i, grid, p, basis)
                 for i in range(1, min(p - 1, grid.M) + 1)]
        steps += [functools.partial(assemble_unipc_qcms, s, m, i, grid, p, basis, variant=variant)
                  for i in range(p, grid.M + 1)]
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    # one dense buffer per thread, and no more of them than MAX_STEP_BYTES
    # holds; an oversized step (none fits) is refused by its serial lift
    workers = min(_threads.worker_count(basis.d**basis.N * basis.dim_total,
                                        PARALLEL_LIFT_MIN_ENTRIES),
                  MAX_STEP_BYTES // _step_bytes(basis))
    qcms = _threads.fan_out(lambda step: step(), steps, workers)
    states = [Y0.y]
    for i, q in enumerate(qcms, start=1):
        history = states[i - q.p : i] if isinstance(q, UnipcQcmSet) else states[-1]
        states.append(step_lifted(q, history, corrector=corrector))
    return [LiftedState(basis=basis, y=y) for y in states], qcms
