"""Solvers for the global systems and the Hamiltonian-route emulator.

The global trajectory systems are block unit lower triangular and kept
as their per-step blocks (:class:`carlift.system.TrajectoryOperator`),
dense row arrays, so a forward walk of one BLAS matrix-vector product
per block solves them directly; that walk is the lifted trajectory
itself.  GMRES applies the same operator, one batched product per run
of blocks, in a restarted cycle of its own: classical Gram-Schmidt on
the whole Krylov basis in two BLAS calls per step, Givens rotations on
Python floats and one triangular solve per cycle.  It restarts at
n_blocks + 1 vectors, which one Krylov cycle needs to reach the exact
solution.  No caller in the package solves with it; the benchmark
times it on its Kronecker lifts.  ``lchs_solve`` emulates the
linear-combination-of-Hamiltonian-simulation route classically: the non-unitary flow of
du/dt = -A(t) u + b(t) is reproduced as a Cauchy-kernel-weighted
quadrature over unitary evolutions generated by the Hermitian
k L(t) + H(t), with a spectral shift keeping L positive semidefinite.  Each evolution comes from a batched Hermitian
eigendecomposition per chunk of kernel nodes and distinct generator,
and a forward walk applies it to one vector per node, in the
generator's eigen-coordinates when A is constant, so no matrix product
of propagators is formed.  ``qlss_cost_model`` turns system
parameters into the query-count estimate of the quantum linear-system
route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, StructureError

__all__ = [
    "SolveResult",
    "LchsConfig",
    "LchsResult",
    "forward_substitute",
    "gmres_solve",
    "lchs_solve",
    "qlss_cost_model",
]

# Byte cap on one chunk of kernel nodes in lchs_solve: its stacked
# (nodes, n, n) complex generators or eigenvectors, and for a constant
# generator its (nodes, substeps + 1, n) source table.  The nodes are
# processed in chunks that fit, so the working set (a few such arrays and
# one n-vector per node) does not grow with the node count.
LCHS_CHUNK_BYTES = 1 << 20

# Margin added to the stability shift of lchs_solve, so the shifted L is
# positive semidefinite with room for rounding in its eigenvalues.
SHIFT_EPS = 1e-12

# Relative residual gmres_solve must reach.
GMRES_TOL = 1e-10


@dataclass
class SolveResult:
    solution: np.ndarray
    residual: float
    iterations: int


def forward_substitute(system) -> SolveResult:
    """Direct forward substitution on a trajectory system.

    ``system.mat`` is a :class:`carlift.system.TrajectoryOperator`: its
    diagonal blocks are the identity and its couplings lie strictly
    below them by construction, so the sweep is a walk over the per-step
    blocks, :meth:`carlift.system.TrajectoryOperator.solve`, the walk whose
    blocks :func:`carlift.carleman.run_lifted` returns as the lifted states.
    The reported residual ||M x - b|| / max(||b||, 1) is recomputed by a
    block walk after the sweep.
    """
    mat, rhs = system.mat, system.rhs
    x = mat.solve(rhs)
    res = float(np.linalg.norm(mat @ x - rhs) / max(np.linalg.norm(rhs), 1.0))
    return SolveResult(solution=x, residual=res, iterations=0)


def _gmres_cycle(matvec, r: np.ndarray, steps: int, stop: float) -> tuple[np.ndarray, int]:
    """One restart cycle of GMRES from the residual r = b - M x.

    Arnoldi takes at most ``steps`` steps.  Each orthogonalises w = M v_j
    against the whole basis by classical Gram-Schmidt, two BLAS
    matrix-vector calls, and repeats that pass only when it left ||w||
    below h0 / sqrt(2), h0 the norm before orthogonalisation ("twice is
    enough").  The cycle ends early once the estimated residual |g_{j+1}|
    of the rotated least-squares problem is at most ``stop``, or at a
    breakdown, ||w|| <= eps h0, where the basis spans an invariant
    subspace.  The Hessenberg columns are rotated on Python floats, and
    one back substitution by columns, which gives a zero pivot no weight,
    yields the correction dx.  Returns (dx, steps taken).
    """
    eps = np.finfo(float).eps
    beta = math.sqrt(r @ r)
    V = np.empty((steps + 1, len(r)))
    np.multiply(r, 1.0 / beta, out=V[0])
    R = np.zeros((steps, steps))  # the rotated Hessenberg matrix, upper triangular
    g = [beta]  # beta e_1, rotated
    rotations = []
    for j in range(steps):
        w = matvec(V[j])
        basis = V[: j + 1]
        h0 = math.sqrt(w @ w)
        h = basis @ w
        w -= h @ basis
        h1 = math.sqrt(w @ w)
        if h1 < h0 / math.sqrt(2.0):
            h2 = basis @ w
            w -= h2 @ basis
            h += h2
            h1 = math.sqrt(w @ w)
        breakdown = h1 <= eps * h0
        if not breakdown:
            np.multiply(w, 1.0 / h1, out=V[j + 1])
        top, *rest = h.tolist()
        col = []
        for (c, s), below in zip(rotations, rest):
            col.append(c * top + s * below)
            top = c * below - s * top
        below = 0.0 if breakdown else h1
        rho = math.hypot(top, below)
        c, s = (top / rho, below / rho) if rho > 0.0 else (1.0, 0.0)
        rotations.append((c, s))
        R[:j, j] = col
        R[j, j] = rho
        g[j], g_next = c * g[j], -s * g[j]
        g.append(g_next)
        if abs(g_next) <= stop or breakdown:
            break
    y = np.array(g[: j + 1])
    for k in range(j, -1, -1):
        if R[k, k] == 0.0:
            y[k] = 0.0
        if y[k] != 0.0:
            y[k] /= R[k, k]
            y[:k] -= y[k] * R[:k, k]
    return y @ V[: j + 1], j + 1


def gmres_solve(system, max_iter: int = 20000) -> SolveResult:
    """Restarted GMRES with explicit residual verification.

    A trajectory system is I minus a block strictly lower triangular
    part, nilpotent of index at most n_blocks, so restarting at
    min(n_blocks + 1, dim) lets one Krylov cycle reach the exact
    solution.  Each cycle (:func:`_gmres_cycle`) stops once its estimated
    residual is at most GMRES_TOL ||b||; the residual b - M x is then
    recomputed, and the solve succeeds when its norm is at most
    GMRES_TOL ||b|| and at most GMRES_TOL max(||b||, 1).  A cycle that
    does not lower that relative residual ends the solve, since further
    cycles only stir rounding, and so does running out of ``max_iter``
    Arnoldi steps, the last cycle cut to what is left.  Raises
    ConvergenceError carrying the best residual and the steps used, at
    most max_iter, and ValueError for a max_iter below 1.
    """
    if max_iter < 1:
        raise ValueError(f"need max_iter >= 1, got {max_iter}")
    mat, rhs = system.mat, system.rhs
    restart = min(system.n_blocks + 1, mat.shape[0])
    bnorm = float(np.linalg.norm(rhs))
    scale = max(bnorm, 1.0)
    x = np.zeros(mat.shape[0])
    if bnorm == 0.0:
        return SolveResult(solution=x, residual=0.0, iterations=0)
    r, best, used = rhs, np.inf, 0
    while True:
        dx, steps = _gmres_cycle(mat.matvec, r, min(restart, max_iter - used), GMRES_TOL * bnorm)
        used += steps
        x += dx
        r = rhs - mat.matvec(x)
        rnorm = float(np.linalg.norm(r))
        res = rnorm / scale
        if rnorm <= GMRES_TOL * bnorm and res <= GMRES_TOL:
            return SolveResult(solution=x, residual=res, iterations=used)
        stalled = not res < best
        best = min(best, res)
        if stalled or used >= max_iter:
            raise ConvergenceError(
                f"gmres stalled at relative residual {best:.3e} (target {GMRES_TOL:.1e})",
                residual=best, iterations=used,
            )


@dataclass(frozen=True)
class LchsConfig:
    """Quadrature and propagator discretisation for the Hamiltonian route.

    K: truncation of the kernel integral to [-K, K].
    nodes: number of uniform quadrature nodes on [-K, K].
    substeps: time substeps for the midpoint-frozen propagators.
    """

    K: float = 32.0
    nodes: int = 257
    substeps: int = 64

    def __post_init__(self) -> None:
        if not (np.isfinite(self.K) and self.K > 0.0):
            raise ValueError("need a finite K > 0")
        for name in ("nodes", "substeps"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.nodes < 3:
            raise ValueError("need at least 3 quadrature nodes")
        if self.substeps < 1:
            raise ValueError("need at least one substep")


@dataclass
class LchsResult:
    u: np.ndarray
    shift: float
    n_exponentials: int
    kernel_mass: float


def lchs_solve(A_fun, b_fun, u0, T: float, cfg: LchsConfig | None = None) -> LchsResult:
    """Emulate the Hamiltonian-simulation route for du/dt = -A(t)u + b(t).

    Splits A = L + iH with L = (A + A^H)/2, H = (A - A^H)/(2i), shifts
    by mu = max(0, -min_t lambda_min(L)) + SHIFT_EPS so the shifted L is
    positive semidefinite, and reproduces the flow as

        u(T) = e^{mu T} int_{-K}^{K} g(k) [ U_k(T,0) u0
                 + int_0^T U_k(T,s) e^{-mu s} b(s) ds ] dk,

    with g(k) = 1/(pi (1+k^2)), U_k the time-ordered evolution under
    k L(t) + H(t) (frozen at each substep's midpoint), the k integral by
    trapezoid on a uniform grid and the Duhamel integral by trapezoid on
    the substep boundaries.

    Each generator k L_j + H_j is Hermitian, so one batched
    eigendecomposition V diag(w) V^H over a chunk of kernel nodes gives
    the substep propagator W_j = V diag(phi) V^H, phi = e^{-i dt w},
    unitary to rounding and applied to vectors without being formed.  A
    forward walk carries one vector per node, z_0 = u0 + w_0 b_0 and
    z_{j+1} = W_j z_j + w_{j+1} b_{j+1} (w the Duhamel weights, b the
    shifted source), and ends at the bracket above.  A time-dependent A
    has one generator per substep, decomposed per substep and chunk, and
    the walk applies V^H, phi and V at each substep.  A constant A, found
    by one comparison of the sampled A(t), has one distinct generator,
    split and shifted once and decomposed once per chunk, and the walk
    stays in its eigen-coordinates: y_0 = V^H z_0, y_{j+1} = phi y_j +
    V^H w_{j+1} b_{j+1} elementwise, the sources' table formed once per
    chunk, and z = V y at the end.  ``n_exponentials`` counts the
    propagators built: one per node per distinct generator.  A
    homogeneous flow takes a zero source.  A(t) and b(t) are sampled
    first, and a non-finite sample raises ValueError, naming the first
    one, before any eigendecomposition.
    """
    if cfg is None:
        cfg = LchsConfig()
    if not (np.isfinite(T) and T > 0.0):
        raise ValueError("need a finite T > 0")
    u0 = np.asarray(u0)
    n = len(u0)
    dt = T / cfg.substeps
    mids = (np.arange(cfg.substeps) + 0.5) * dt
    A_mid = np.stack([np.asarray(A_fun(t), dtype=complex) for t in mids])
    bounds = np.arange(cfg.substeps + 1) * dt
    b_at = np.stack([np.asarray(b_fun(t), dtype=complex) for t in bounds])
    for name, samples, times in (("A", A_mid, mids), ("b", b_at, bounds)):
        finite = np.isfinite(samples).reshape(len(times), -1).all(axis=1)
        if not finite.all():
            i = int(finite.argmin())
            raise ValueError(f"{name}(t) is not finite at t={float(times[i])!r}, its sample {i}")
    time_dep = bool((A_mid[1:] != A_mid[:1]).any())

    # one split and shift per distinct generator: Ls[j], Hs[j] for substep j,
    # or Ls[0], Hs[0] for all of them when A is constant
    A_gen = A_mid if time_dep else A_mid[:1]
    A_adj = A_gen.conj().swapaxes(-1, -2)
    Ls = (A_gen + A_adj) / 2.0
    Hs = (A_gen - A_adj) / 2.0j
    mu = max(0.0, -float(np.linalg.eigvalsh(Ls)[:, 0].min())) + SHIFT_EPS
    Ls = Ls + mu * np.eye(n)
    if float(np.linalg.eigvalsh(Ls)[:, 0].min()) < -1e-10:
        raise StructureError("stability shift failed to make L positive semidefinite")

    ks = np.linspace(-cfg.K, cfg.K, cfg.nodes)
    wk = np.full(cfg.nodes, ks[1] - ks[0])
    wk[0] *= 0.5
    wk[-1] *= 0.5
    gk = 1.0 / (np.pi * (1.0 + ks**2))

    b_shift = np.exp(-mu * bounds)[:, None] * b_at
    ws = np.full(cfg.substeps + 1, dt)
    ws[0] *= 0.5
    ws[-1] *= 0.5
    wb = ws[:, None] * b_shift  # the weighted sources w_j b_j
    z0 = u0.astype(complex) + wb[0]

    # a node holds its eigenvectors and, for a constant A, its source table
    chunk = max(1, LCHS_CHUNK_BYTES // (16 * n * (n if time_dep else n + cfg.substeps + 1)))
    acc = np.zeros(n, dtype=complex)
    n_exp = 0
    for lo in range(0, cfg.nodes, chunk):
        kc = ks[lo : lo + chunk, None, None]
        if time_dep:
            z = np.repeat(z0[None, :, None], len(kc), axis=0)  # (nodes, n, 1)
            for j in range(cfg.substeps):
                w, V = np.linalg.eigh(kc * Ls[j] + Hs[j])
                phase = np.exp(-1j * dt * w)[..., None]
                Vh = V.conj().swapaxes(-1, -2)
                z = V @ (phase * (Vh @ z))
                z += wb[j + 1][:, None]
            z = z[..., 0]
        else:
            w, V = np.linalg.eigh(kc * Ls[0] + Hs[0])
            phase = np.exp(-1j * dt * w)
            src = wb @ V.conj()  # (nodes, substeps + 1, n): V^H w_j b_j
            y = z0 @ V.conj()  # (nodes, n): V^H z0
            for j in range(1, cfg.substeps + 1):
                y *= phase
                y += src[:, j]
            z = (V @ y[..., None])[..., 0]
        n_exp += len(kc) * len(Ls)
        acc += (wk[lo : lo + chunk] * gk[lo : lo + chunk]) @ z

    u = np.exp(mu * T) * acc
    if not np.iscomplexobj(u0) and np.all(A_mid.imag == 0.0) and np.all(b_shift.imag == 0.0):
        u = u.real
    return LchsResult(u=u, shift=mu, n_exponentials=n_exp, kernel_mass=float(np.sum(wk * gk)))


def qlss_cost_model(
    kappa: float,
    eps: float,
    J: int,
    p: int,
    N: int,
    c_poly: float = 2.0,
) -> float:
    """Query-count estimate p * J * kappa * log2(N/eps)^c_poly.

    The polylogarithmic exponent c_poly is a modelling knob (the
    asymptotic statement only fixes it up to polylog factors); the
    default 2 is labelled in all reports.
    """
    if kappa < 1.0:
        raise ValueError("need kappa >= 1")
    if eps <= 0.0:
        raise ValueError("need eps > 0")
    if N < 2 or J < 1 or p < 1:
        raise ValueError("need N >= 2, J >= 1, p >= 1")
    if N / eps <= 1.0:
        raise ValueError("need N/eps > 1 for a positive logarithm")
    return float(p * J * kappa * np.log2(N / eps) ** c_poly)
