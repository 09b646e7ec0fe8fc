"""Solvers for the global systems and the Hamiltonian-route emulator.

The global trajectory systems are unit lower triangular, so a forward
sweep solves them directly; GMRES is provided as the iterative
reference point for conditioning experiments.  ``lchs_solve`` emulates
the linear-combination-of-Hamiltonian-simulation route classically:
the non-unitary flow of du/dt = -A(t) u + b(t) is reproduced as a
Cauchy-kernel-weighted quadrature over unitary evolutions generated by
k L(t) + H(t), with a spectral shift keeping L positive semidefinite.
``qlss_cost_model`` turns system parameters into the query-count
estimate of the quantum linear-system route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.linalg import gmres as scipy_gmres
from scipy.sparse.linalg import spsolve_triangular

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

# Byte cap on one stacked (nodes, n, n) complex array in lchs_solve; the
# kernel nodes are processed in chunks that fit, so the working set (a
# few such arrays) does not grow with the node count.
LCHS_CHUNK_BYTES = 1 << 20


@dataclass
class SolveResult:
    solution: np.ndarray
    residual: float
    iterations: int
    method: str


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


def forward_substitute(system) -> SolveResult:
    """Direct forward substitution on a unit lower triangular system.

    The structure is checked first: any entry above the diagonal or a
    diagonal entry away from 1 raises StructureError.  The sweep is
    SciPy's compiled triangular solve.  The reported residual is
    ||M x - b|| / max(||b||, 1) recomputed from the sparse matrix after
    the sweep.
    """
    mat, rhs = sp.csr_matrix(system.mat), system.rhs
    n = mat.shape[0]
    if mat.shape[0] != mat.shape[1] or len(rhs) != n:
        raise ValueError("system must be square with a matching right-hand side")
    diag = _lower_diagonal(mat)
    bad = np.abs(diag - 1.0) > 1e-12
    if np.any(bad):
        raise StructureError(
            f"diagonal must be 1 (first offender at row {int(np.argmax(bad))})"
        )
    x = spsolve_triangular(mat, rhs, lower=True, unit_diagonal=bool(np.all(diag == 1.0)))
    res = float(np.linalg.norm(mat @ x - rhs) / max(np.linalg.norm(rhs), 1.0))
    return SolveResult(solution=x, residual=res, iterations=0, method="forward_substitution")


def gmres_solve(system, tol: float = 1e-10, restart: int | None = None, max_iter: int = 20000) -> SolveResult:
    """GMRES with explicit residual verification.

    A trajectory system is I minus a block strictly lower triangular
    part, nilpotent of index at most n_blocks, so the default restart
    min(n_blocks + 1, dim) lets one Krylov cycle reach the exact
    solution; systems without n_blocks default to 50.  Raises
    ConvergenceError carrying the best residual and iteration count if
    the recomputed relative residual stays above tol.
    """
    mat, rhs = system.mat, system.rhs
    if restart is None:
        n_blocks = getattr(system, "n_blocks", None)
        restart = 50 if n_blocks is None else min(n_blocks + 1, mat.shape[0])
    counter = {"n": 0}

    def cb(_):
        counter["n"] += 1

    x, info = scipy_gmres(
        mat, rhs, rtol=tol, atol=0.0, restart=restart,
        maxiter=max(1, max_iter // max(restart, 1)),
        callback=cb, callback_type="pr_norm",
    )
    res = float(np.linalg.norm(mat @ x - rhs) / max(np.linalg.norm(rhs), 1.0))
    if info != 0 or res > tol:
        raise ConvergenceError(
            f"gmres stalled at relative residual {res:.3e} (target {tol:.1e})",
            residual=res, iterations=counter["n"],
        )
    return SolveResult(solution=x, residual=res, iterations=counter["n"], method="gmres")


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
    shift_eps: float = 1e-12

    def __post_init__(self) -> None:
        if self.K <= 0.0:
            raise ValueError("need K > 0")
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
    config: LchsConfig


def lchs_solve(A_fun, b_fun, u0, T: float, cfg: LchsConfig | None = None) -> LchsResult:
    """Emulate the Hamiltonian-simulation route for du/dt = -A(t)u + b(t).

    Splits A = L + iH with L = (A + A^H)/2, H = (A - A^H)/(2i), shifts
    by mu = max(0, -min_t lambda_min(L)) + eps so the shifted L is
    positive semidefinite, and reproduces the flow as

        u(T) = e^{mu T} int_{-K}^{K} g(k) [ U_k(T,0) u0
                 + int_0^T U_k(T,s) e^{-mu s} b(s) ds ] dk,

    with g(k) = 1/(pi (1+k^2)), U_k the time-ordered evolution under
    k L(t) + H(t) (midpoint-frozen exponentials per substep), the k
    integral by trapezoid on a uniform grid and the Duhamel integral by
    trapezoid on the substep boundaries.
    """
    if cfg is None:
        cfg = LchsConfig()
    if T <= 0.0:
        raise ValueError("need T > 0")
    u0 = np.asarray(u0)
    n = len(u0)
    dt = T / cfg.substeps
    mids = (np.arange(cfg.substeps) + 0.5) * dt
    A_mid = [np.asarray(A_fun(t), dtype=complex) for t in mids]
    time_dep = any(not np.array_equal(A_mid[0], Aj) for Aj in A_mid[1:])

    Ls = [(Aj + Aj.conj().T) / 2.0 for Aj in A_mid]
    Hs = [(Aj - Aj.conj().T) / 2.0j for Aj in A_mid]
    lam_min = min(float(np.linalg.eigvalsh(Lj)[0]) for Lj in Ls)
    mu = max(0.0, -lam_min) + cfg.shift_eps
    Ls = [Lj + mu * np.eye(n) for Lj in Ls]
    if min(float(np.linalg.eigvalsh(Lj)[0]) for Lj in Ls) < -1e-10:
        raise StructureError("stability shift failed to make L positive semidefinite")

    ks = np.linspace(-cfg.K, cfg.K, cfg.nodes)
    wk = np.full(cfg.nodes, ks[1] - ks[0])
    wk[0] *= 0.5
    wk[-1] *= 0.5
    gk = 1.0 / (np.pi * (1.0 + ks**2))

    bounds = np.arange(cfg.substeps + 1) * dt
    if b_fun is not None:
        b_shift = [np.exp(-mu * t) * np.asarray(b_fun(t), dtype=complex) for t in bounds]
        ws = np.full(cfg.substeps + 1, dt)
        ws[0] *= 0.5
        ws[-1] *= 0.5

    # Per chunk of nodes, one backward walk over the substeps carries the
    # stacked suffix products P = W_{S-1} ... W_j (the propagators from
    # boundary j to T, S = substeps) and the Duhamel sum; W comes from one
    # batched expm per substep, or once per chunk when A is constant.
    chunk = max(1, LCHS_CHUNK_BYTES // (16 * n * n))
    acc = np.zeros(n, dtype=complex)
    n_exp = 0
    for lo in range(0, cfg.nodes, chunk):
        kc = ks[lo : lo + chunk, None, None]
        if not time_dep:
            W = expm(-1j * dt * (kc * Ls[0] + Hs[0]))
            n_exp += len(kc)
        P = None  # the empty product at boundary S
        contrib = np.zeros((len(kc), n), dtype=complex)
        if b_fun is not None:
            contrib += ws[-1] * b_shift[-1]
        for j in range(cfg.substeps - 1, -1, -1):
            if time_dep:
                W = expm(-1j * dt * (kc * Ls[j] + Hs[j]))
                n_exp += len(kc)
            P = W if P is None else P @ W
            if b_fun is not None:
                contrib += ws[j] * (P @ b_shift[j])
        contrib += P @ u0
        acc += (wk[lo : lo + chunk] * gk[lo : lo + chunk]) @ contrib

    u = np.exp(mu * T) * acc
    real_inputs = not np.iscomplexobj(u0) and all(np.all(Aj.imag == 0.0) for Aj in A_mid)
    if b_fun is not None:
        real_inputs = real_inputs and all(np.all(bj.imag == 0.0) for bj in b_shift)
    if real_inputs:
        u = u.real
    return LchsResult(
        u=u, shift=mu, n_exponentials=n_exp,
        kernel_mass=float(np.sum(wk * gk)), config=cfg,
    )


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
