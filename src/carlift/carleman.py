"""Carleman lifting of polynomial sampler steps.

A polynomial step map x -> P(x) = sum_q B_q x_q, with x_q the monomials
x^beta of degree q in sorted multi-index order (the one coefficient
basis of :mod:`carlift.model`), becomes linear on the truncated lifted
state

    Y = (y_1, ..., y_N),   y_j = (sqrt(m_beta) x^beta : |beta| = j),

the monomials of each degree j, each scaled by the square root of its
multiplicity m_beta = j! / prod_k beta_k!, the number of entries of the
Kronecker power x^{(j)} equal to it.  So y_j = Q_j^T x^{(j)},
where the columns of Q_j are an orthonormal basis of the symmetric
tensors of order j.  Q = diag(Q_j) is an isometry on them, and every
lifted Kronecker-basis map U keeps them symmetric, so U Q = Q U_s: the
lifted states, their norms and the defect are the Kronecker basis's,
and the singular values of U_s lie within U's, at dimension
C(d+N, N) - 1 instead of d + d^2 + ... + d^N.  Block 1 is x itself.
Each sampler step then takes the quantized update form

    Y_i = A_i Y_{i-1} + b_i,

and a whole trajectory becomes one block lower-triangular linear
system.  Terms of degree above N are dropped (hard truncation); block 1
of a single step is exact whenever the step polynomial fits within N.

The step maps are not derived here: a derivative step's is one of
:func:`carlift.reference.step_polynomials_dpm`, which the sampler
evaluates, and a unified step's weights are the sampler's rows of
:func:`carlift.reference.uni_weights`, so the two steps are one map.

A run's step maps are one dict {q: (M, d, n_q)}: each degree's
coefficient blocks stacked along a leading step axis, built from the
weight tables and eps and its derivatives tabulated over the grid.
They are lifted in chunks sliced along that axis into one dense
(M, dim_total, dim_total) array, each step a :class:`carlift.system.StepMatrix`
that records that array and its index there.  A step is priced by what
one block row's pass over it touches (its coefficients, block row j-1
and the parent rows taken from it, the products, block row j and its
rows of U and b), and a chunk holds as many steps as fit that price in
LIFT_CHUNK_BYTES: 1 MiB, the fastest of the budgets timed on the
benchmark's lift shapes.  Block row j of a step is made from block row
j-1 times the step map, and only on the degrees a product of j-1 step
maps can reach, (j-1) q_min .. (j-1) q_max: the columns left out are
exact zeros, and the terms are summed from +0 in the order a pass over
every column adds them, so U and b keep every bit in any chunk (see
:func:`_poly_to_update`).  A UniPC corrector step is
lifted with its predictor folded in, so every lifted step maps states
already computed.  :func:`lift_run`, the one dispatch on a scheme's
layout, prices, lifts and assembles a run on the calling thread;
:func:`run_lifted` reads the states off the forward solve of its
trajectory system, the package's one lifted walk.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import system
from .errors import CapacityError
from .model import PolyNoiseModel, _derivative_tower, _monomials, _monomials_at
from .reference import _degree_blocks, _step_maps, step_polynomials_dpm, uni_weights
from .schedule import NoiseSchedule, TimeGrid
from .system import StepMatrix

__all__ = [
    "CarlemanBasis",
    "LiftedState",
    "Qcm",
    "UnipcQcmSet",
    "lift",
    "assemble_dpm_qcms",
    "assemble_unipc_qcms",
    "lift_run",
    "run_lifted",
]

MAX_DIM_TOTAL = 400_000
LIFT_CHUNK_BYTES = 1 << 20  # what a chunk of steps lifted together touches; measured in _poly_to_update


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
    return LiftedState(basis=basis, y=np.concatenate(_monomials_at(mono, x)[1:]) * mono.sqrt_mult)


def _poly_to_update(polys: dict[int, np.ndarray],
                    basis: CarlemanBasis) -> list[tuple[StepMatrix, np.ndarray]]:
    """Lift a run's step polynomials into update matrices U and offsets b.

    ``polys`` maps each degree q to the steps' (d, n_q) blocks on the
    degree-q monomials, stacked along a leading step axis.  Row beta of
    block row j holds the degree-truncated coefficients of sqrt(m_beta)
    prod_k P_{beta_k}(x) on the weighted monomials.  Each block row is
    made from block row j-1 in one pass: row beta is its parent row,
    beta - e_{beta_1}, times P_{beta_1}; the products of each degree q of
    P are taken for all rows at once, in the dict's degree order, and one
    product with a 0/1 CSR matrix adds them onto their monomial columns.
    Rows and columns are scaled by sqrt(m_beta) and 1/sqrt(m_gamma) last.
    Degree-0 parts land in b.

    Block row j-1 is a product of j-1 step maps, so only its columns of
    degree (j-1) q_min .. (j-1) q_max can be nonzero, q_min and q_max the
    least and greatest degree the run's maps keep; only those, up to
    degree N - q, are multiplied by degree q (:func:`_windows`).  The CSR
    product adds each monomial's terms in the order they are made,
    starting from +0, as a pass over every column would: a sum from +0
    is never -0, so the +0 columns left out, whose products with finite
    coefficients are +-0, change no bit of U or b.

    The steps are lifted in chunks sliced along the step axis, which is
    the innermost axis of every work array, so one NumPy call runs over a
    block row's monomials of all the chunk's steps.  A step is priced by
    what one block row's pass touches, at the largest block row: block
    row j-1, the parent rows gathered from it, the products, block row
    j, and the rows of U and b it writes, plus the coefficients of
    P_{beta_1} for every lifted beta, gathered once per chunk.  A chunk
    holds as many steps as that price fits in LIFT_CHUNK_BYTES, and the
    chunks are as even as the steps allow.  Timed against 256 KiB priced
    by the products and block rows alone (median of 30 interleaved calls,
    2-core Xeon with 2 MiB of L2 per core, one BLAS thread), budgets of
    512 KiB, 1, 2 and 4 MiB took 0.66, 0.60, 0.84 and 1.13 of its time
    on kron_lift's B shape (d=4, N=5, M=16, 0.23 MiB a step, four chunks
    of four at 1 MiB) and 0.80, 0.64, 0.65 and 1.01 on its A shape (d=4,
    N=4, M=32, k=2); the kron_sweep_kappa shapes, one or a few chunks at
    any of them, took 0.65-0.82.  Each monomial's sum reads one step's
    terms, so a step's U and b are the same bits in any chunk, and a
    degree that is zero at one step adds nothing to it.

    Before U is allocated, the steps' U and b, and what a lone step's
    work takes beyond LIFT_CHUNK_BYTES, are priced against
    system.MAX_STEP_BYTES, and a run above it raises CapacityError.  Work
    within the budget is the lift's own allowance, so a run that
    :func:`lift_run` prices at exactly the cap still lifts.

    All the steps' matrices are written into one (steps, dim_total,
    dim_total) array, so a run of them is one stack of blocks to
    :class:`carlift.system.TrajectoryOperator`.  Returns one
    (StepMatrix, b) per step: the step's index in that array and a view
    of the (steps, dim_total) offsets.
    """
    N, dim = basis.N, basis.dim_total
    n_steps = len(next(iter(polys.values())))
    polys = {q: B for q, B in polys.items() if q <= N and B.any()}
    windows, first, step_bytes = _windows(basis.d, N, tuple(polys))
    n_chunks = -(-n_steps // max(1, LIFT_CHUNK_BYTES // step_bytes))
    over = min(n_steps, 1) * max(0, step_bytes - LIFT_CHUNK_BYTES)  # a lone step's work beyond the budget
    if (nbytes := 8 * n_steps * (dim + 1) * dim + over) > system.MAX_STEP_BYTES:
        raise CapacityError(f"lifting the steps needs {nbytes} bytes, above {system.MAX_STEP_BYTES}")
    col_scale = 1.0 / _monomials(basis.d, N).sqrt_mult
    U_all, b_all = np.empty((n_steps, dim, dim)), np.empty((n_steps, dim))
    for c in range(n_chunks):  # chunks as even as the steps allow
        lo, hi = n_steps * c // n_chunks, n_steps * (c + 1) // n_chunks
        S = hi - lo
        # the coefficients of P_{first(beta)} on each degree, for every lifted beta: (n_q, dim, S)
        C = {q: np.take(B[lo:hi].transpose(2, 1, 0), first, axis=1) for q, B in polys.items()}
        buf, b = U_all[lo:hi], b_all[lo:hi]
        R = np.zeros((dim + 1, 1, S))  # block row j-1, unscaled: (ext column, row, step), constant first
        R[0] = 1.0
        for rows, scale, gather, parent, spans, add in windows:
            Rp = np.take(R[gather], parent, axis=1)  # each row's parent row, on the columns multiplied
            vals = np.empty((add.shape[1], len(parent), S))
            for q, cols, part in spans:  # each degree's products, written in place
                np.multiply(Rp[cols, None], C[q][:, rows],
                            out=vals[part].reshape(-1, len(C[q]), len(parent), S))
            del Rp
            R = (add @ vals.reshape(len(vals), len(parent) * S)).reshape(dim + 1, len(parent), S)
            del vals  # before the next block row makes its own
            np.multiply(R[0].T, scale, out=b[:, rows])
            np.multiply(R[1:].T, col_scale, out=buf[:, rows])
            buf[:, rows] *= scale[:, None]
    return [(StepMatrix(U_all, i), b_i) for i, b_i in enumerate(b_all)]


@functools.lru_cache(maxsize=64)
def _windows(d: int, N: int, degrees: tuple) -> tuple:
    """The lift plan of step maps with these degrees, in this order, on
    the (d, N) basis: per block row j = 1..N the window (rows, scale,
    gather, parent, spans, add); the lowest variable of every lifted
    monomial; and the bytes one step's pass over its largest block row
    touches (see :func:`_poly_to_update`).  rows are block j's lifted
    coordinates and scale their sqrt(m_beta); gather the ext columns of
    block row j-1 that some degree multiplies, and parent each row's
    parent row; in spans (q, cols, part), cols are the columns within
    gather that degree q multiplies, of degree (j-1) min .. min((j-1)
    max, N - q), and part the rows of their products (a, b) in one
    stack; add is the 0/1 CSR matrix that adds the stack onto the
    monomials a b in order."""
    mono, out, work = _monomials(d, N), [], 0
    width = mono.start[-1]
    for j in range(1, N + 1):
        lo, top = mono.start[min((j - 1) * min(degrees, default=0), N + 1)], (j - 1) * max(degrees, default=0)
        cols = {q: slice(lo, max(lo, mono.start[min(top + 1, N - q + 1)])) for q in degrees}
        products = [mono.products[q].reshape(-1, len(mono.first[q]))[c].ravel() for q, c in cols.items()]
        targets, ends = np.concatenate([np.zeros(0, np.intp), *products]), np.cumsum([0, *map(len, products)])
        add = sp.csr_array((np.ones(len(targets)), (targets, np.arange(len(targets)))),
                           shape=(width, len(targets)))
        hi = max([c.stop for c in cols.values()], default=lo)
        spans = tuple((q, slice(c.start - lo, c.stop - lo), slice(*ends[i : i + 2]))
                      for i, (q, c) in enumerate(cols.items()))
        rows = slice(mono.start[j] - 1, mono.start[j + 1] - 1)
        out.append((rows, mono.sqrt_mult[rows], slice(lo, hi), mono.parent[j], spans, add))
        # block row j-1, the parent rows, the products, block row j and the rows of U and b
        n = len(mono.parent[j])
        work = max(work, width * len(mono.first[j - 1]) + n * ((hi - lo) + len(targets) + 2 * width))
    first = np.concatenate(mono.first[1:])
    first.flags.writeable = False
    coef = sum(len(mono.first[q]) for q in degrees) * len(first)  # the gathered coefficients
    return tuple(out), first, 8 * (coef + work)


@dataclass
class Qcm:
    """One lifted step, A its update matrix: Y_i = A Y_{i-1} + b."""

    A: StepMatrix
    b: np.ndarray


def assemble_dpm_qcms(s: NoiseSchedule, m: PolyNoiseModel, lams: np.ndarray, k: int,
                      basis: CarlemanBasis) -> list[Qcm]:
    """Lift the order-k steps over the log-SNRs ``lams`` into quantized update form.

    Step-polynomial degrees above the basis truncation N are dropped;
    block 1 (and every block j with j * deg(P) <= N) is otherwise an
    exact image of the sequential step.
    """
    _check_model_basis(m, basis)
    polys = step_polynomials_dpm(s, m, lams, k)
    return [Qcm(*step) for step in _poly_to_update(polys, basis)]


def _check_model_basis(m: PolyNoiseModel, basis: CarlemanBasis) -> None:
    """Refuse a model the basis cannot lift."""
    if m.d != basis.d:
        raise ValueError(f"model dimension {m.d} != basis dimension {basis.d}")
    if m.mode == "separable" and m.d > 1:
        raise ValueError("separable models with d > 1 cannot be lifted; use kron mode")


@dataclass
class UnipcQcmSet:
    """Lifted update matrices for one unified step, to node i.

    Update form (anchor node a = i - p, p = len(pred_mats)):

        Y_i^pred = sum_{m=0}^{p-1} pred_mats[m] Y_{a+m} + pred_b
        Y_i^corr = sum_{m=0}^{p-1} corr_mats[m] Y_{a+m} + corr_b

    The corrector step reads the predictor output through the
    block-row-1 matrix corr_target; :func:`assemble_unipc_qcms` folds
    the predictor into it as it lifts it, so corr_mats[m] is the
    corrector's own matrix plus corr_target pred_mats[m], and corr_b its
    offset plus corr_target pred_b: the corrector's map on the history
    alone.  Its system closes over corrected states, and its forward
    solve is the lifted walk.

    Block row 1 of every matrix is exact; higher block rows are carried
    by the anchor matrices (index 0) as truncated powers of the anchor
    step polynomial, with the interior-node state dependence
    of those rows dropped.  Block row 1 of Y_i^pred is therefore exact
    from exactly lifted history, but its higher blocks are not, and the
    folded corrector reads them on a nonlinear model: the corrected
    block row 1 is exact only once corr_target is applied to the exact
    lift of the predictor output in place of Y_i^pred.  A step lifted
    for the predictor alone leaves the three corrector fields None.
    """

    i: int
    pred_mats: list
    pred_b: np.ndarray
    corr_mats: list | None = None
    corr_target: StepMatrix | None = None
    corr_b: np.ndarray | None = None


def _block1(E: dict[int, np.ndarray], nodes: np.ndarray, cs: np.ndarray,
            basis: CarlemanBasis) -> list[StepMatrix]:
    """Block-row-1 matrices cs[i] * E_q at grid node nodes[i] against column
    blocks q >= 1, each held as its d rows, from E_q, the (G, d, n_q) eps
    blocks over the grid; a degree that is zero at a node stays +0 there.
    The matrices are the entries of one (len(cs), d, dim_total) stack."""
    mono = _monomials(basis.d, basis.N)
    buf = np.zeros((len(cs), basis.d, basis.dim_total))
    for q, B in E.items():
        if 1 <= q <= basis.N:
            cols = basis.block_slice(q)
            at = B.reshape(len(B), -1).any(axis=1)[nodes]
            buf[at, :, cols] = cs[at, None, None] * B[nodes[at]] / mono.sqrt_mult[cols]
    return [StepMatrix(buf, n) for n in range(len(cs))]


def assemble_unipc_qcms(
    s: NoiseSchedule,
    m: PolyNoiseModel,
    grid: TimeGrid,
    p: int,
    basis: CarlemanBasis,
    variant: str = "bh2",
    corrector: bool = True,
) -> list[UnipcQcmSet]:
    """Lift the order-p predictor (and ``corrector``) steps to nodes p..M of ``grid``.

    The step to node i anchors at grid node i-p and its interior nodes
    are the grid nodes in between, so every matrix acts on an
    already-computed lifted state.  At p = 1 the predictor degenerates
    to the order-1 lifted step of :func:`assemble_dpm_qcms` exactly.
    The weights of all K = M - p + 1 predictor and K corrector steps come
    as two tables from one :func:`carlift.reference.uni_weights` call, eps
    as one table over the grid.  The anchor row of a step carries c[0] E
    at the anchor and every node's constant term; its K or 2K maps are lifted
    together by :func:`_poly_to_update`.  Each other node's term is a
    block-row-1 matrix, all of them from the one eps table and written
    slot by slot, so that a slot's matrices over the steps are
    consecutive entries of one stack, as the anchor matrices are.
    The predictor is then folded into each corrector step, in place in
    those stacks: a corrector matrix's d block-row-1 rows gain the
    target times the predictor's matrix at its slot, and its offset's d
    leading entries the target times the predictor's offset, one 2-d
    product per block.
    Without ``corrector`` no corrector map or target is lifted.
    """
    _check_model_basis(m, basis)
    (eps,) = _derivative_tower(s, m, 1, grid.lam)
    E = _degree_blocks(eps)
    ratio, c, corr_c = uni_weights(s, grid.lam, p, variant, corrector)
    K = len(ratio)
    if corrector:  # steps K..2K-1 correct; the predictor puts no weight on the target
        ratio, c = np.tile(ratio, 2), np.concatenate([np.pad(c, ((0, 0), (0, 1))), corr_c])
    nodes = np.tile(np.arange(K), 1 + corrector)[:, None] + np.arange(c.shape[1])  # each weight's node
    terms = [(c[:, 0], {q: B[nodes[:, 0]] for q, B in E.items()})]
    terms += [(c[:, mm], {0: E[0][nodes[:, mm]]}) for mm in range(1, c.shape[1]) if 0 in E]
    steps = _poly_to_update(_step_maps(ratio, terms, m), basis)
    # slot by slot, every step's interior nodes 1..p-1
    slots = [_block1(E, nodes[:, mm], c[:, mm], basis) for mm in range(1, p)]
    mats = [[U] + [blocks[n] for blocks in slots] for n, (U, _) in enumerate(steps)]
    corr = [()] * K  # each step's corrector maps, target and offset, if lifted
    if corrector:
        targets = _block1(E, nodes[K:, p], c[K:, p], basis)
        for n, target in enumerate(targets):
            for pred, folded in zip(mats[n], mats[K + n]):
                folded.rows[: len(target.rows)] += target.rows[:, : len(pred.rows)] @ pred.rows
            steps[K + n][1][: len(target.rows)] += target.rows @ steps[n][1]
        corr = zip(mats[K:], targets, [b for _, b in steps[K:]])
    return [UnipcQcmSet(n + p, mats[n], steps[n][1], *more) for n, more in enumerate(corr)]


def lift_run(s: NoiseSchedule, m: PolyNoiseModel, x_T, grid: TimeGrid, basis: CarlemanBasis,
             scheme: str, order: int, variant: str = "bh2", corrector: bool = False):
    """A run's trajectory system from the exact lift of x_T, and its lifted
    steps: "dpm" is the order-k chain of :func:`assemble_dpm_qcms`; "unipc"
    warms up with order-p steps of it to node min(p - 1, M), as the
    sampler does, then takes the K = M - p + 1 unified steps of
    :func:`assemble_unipc_qcms`, over corrected states if ``corrector``.
    Before anything is built, the lift of x_T included, the dense arrays
    the run holds are priced against system.MAX_STEP_BYTES: a (dim, dim)
    matrix and offset per lifted step or map, and the d-row matrices of
    the unified steps.  A dpm chain holds M maps.  A UniPC run holds
    min(p - 1, M) warm-up maps, K predictor maps and (p - 1) K
    interior-node matrices; a corrector run also holds the K corrector
    maps and their (p - 1) K interior-node matrices, the predictor folded
    into them in place, and the K targets."""
    D, K, warm = basis.dim_total, max(grid.M - order + 1, 0), min(order - 1, grid.M)
    if scheme not in ("dpm", "unipc"):
        raise ValueError(f"unknown scheme {scheme!r}")
    dpm = scheme == "dpm"
    per_step = 1 + corrector  # the predictor's maps and the corrector's
    mats, rows = (grid.M, 0) if dpm else (warm + K * per_step, K * ((order - 1) * per_step + corrector))
    if (nbytes := 8 * D * (mats * (D + 1) + rows * basis.d)) > system.MAX_STEP_BYTES:
        raise CapacityError(f"lifting the run needs {nbytes} bytes, above {system.MAX_STEP_BYTES}")
    chain = assemble_dpm_qcms(s, m, grid.lam if dpm else grid.lam[:order], order, basis)
    if dpm:
        return system.assemble_global_dpm(chain, lift(x_T, basis).y), chain
    unified = assemble_unipc_qcms(s, m, grid, order, basis, variant=variant, corrector=corrector)
    which = "corrector" if corrector else "predictor"
    return system.assemble_global_unipc(chain, unified, lift(x_T, basis).y, which), chain + unified


def run_lifted(s: NoiseSchedule, m: PolyNoiseModel, x_T, grid: TimeGrid, basis: CarlemanBasis,
               scheme: str = "dpm", order: int = 1, corrector: bool = False):
    """Drive a whole lifted trajectory; returns (states, step objects).

    ``scheme`` is "dpm" or "unipc"; ``order`` is k or p.  The states are
    the blocks of the forward solve of the :func:`lift_run` system.
    """
    traj, steps = lift_run(s, m, x_T, grid, basis, scheme, order, corrector=corrector)
    Y = traj.mat.solve(traj.rhs).reshape(traj.n_blocks, traj.block_dim)
    return [LiftedState(basis=basis, y=y) for y in Y], steps
