"""Reference implementations that only the tests use.

Each one restates a quantity the package computes some other way, or
reads back what it writes, so a test can check the package against an
independent form.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import resource

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.polynomial import polynomial as npoly
from scipy.optimize import brentq
from scipy.special import expit

from carlift import carleman, solve
from carlift.carleman import LiftedState, Qcm, UnipcQcmSet
from carlift.model import (
    SIGMA_TAYLOR_DEGREE,
    PolyNoiseModel,
    _derivative_tower,
    _eps_tables,
    _horner,
    _monomials,
    _monomials_at,
    _padded_sum,
    _sigma_lambda_polys,
    kron_model,
    separable_model,
)
from carlift.reference import SolverRun, dpm_weights, step_polynomials_dpm, uni_weights
from carlift.schedule import NoiseSchedule, exp_taylor_tail
from carlift.solve import SHIFT_EPS, LchsConfig, LchsResult
from carlift.system import LANCZOS_MAX_ITER, StepMatrix


def zero_model(d: int = 1, mode: str = "separable") -> PolyNoiseModel:
    """The model eps = 0 in the given mode."""
    if mode == "separable":
        return separable_model(np.zeros((d, 1, 1)))
    if mode == "kron":
        return kron_model(d, {0: np.zeros((1, d, 1))})
    raise ValueError(f"unknown mode {mode!r}")


def eval_eps(m: PolyNoiseModel, x, lam: float) -> np.ndarray:
    """eps(x, lam) at one point, from a table over that one log-SNR: the
    per-state evaluation the samplers replaced by rows of a table over
    the grid."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (m.d,):
        raise ValueError(f"state must have shape ({m.d},)")
    return eval_tabulated(m, _eps_tables(m, np.asarray(lam, dtype=float).reshape(1)), 0, x)


def eval_tabulated(m: PolyNoiseModel, tables, i: int, x: np.ndarray) -> np.ndarray:
    """eps(x, lams[i]) on an array x from ``tables = _eps_tables(m, lams)``,
    or a derivative-tower level: for kron models the blocks' rows i side
    by side times the monomials at x, summed from +0 as
    :func:`carlift.model._kron_sum` sums on floats; by :func:`_horner` over
    them for separable ones."""
    if m.mode == "kron":
        x_all = np.concatenate(_monomials_at(_monomials(m.d, len(tables) - 1), x))
        return 0.0 + np.concatenate([t[i] for t in tables], axis=1).dot(x_all)
    return _horner([t[i, :, 0] for t in tables][::-1], x)


def apply_weights(ratio, c, x0: np.ndarray, eps: list) -> np.ndarray:
    """ratio x0 + sum_m c[m] eps[m] on arrays, summed in node order."""
    out = ratio * x0
    for cm, e in zip(c, eps):
        out = out + cm * e
    return out


def taylor_walk_arrays(s: NoiseSchedule, m: PolyNoiseModel, x: np.ndarray, lams, k: int):
    """The order-k single steps of :func:`carlift.reference.run_dpm` on
    arrays, each step's map of :func:`carlift.reference.step_polynomials_dpm`
    evaluated by :func:`eval_tabulated`, a degree the maps lack a zero
    block; yields each new state."""
    P = step_polynomials_dpm(s, m, lams, k)
    tables = [P.get(q, np.zeros((len(P[1]), m.d, math.comb(m.n_vars + q - 1, q)))) for q in range(max(P) + 1)]
    for i in range(len(P[1])):
        x = eval_tabulated(m, tables, i, x)
        yield x


def run_dpm_arrays(s: NoiseSchedule, m: PolyNoiseModel, x_T, grid, k: int) -> SolverRun:
    """:func:`carlift.reference.run_dpm` with every state an array."""
    x = np.atleast_1d(np.asarray(x_T, dtype=float))
    states = np.array([x, *taylor_walk_arrays(s, m, x, grid.lam, k)])
    return SolverRun(grid=grid, states=states, nfe=k * grid.M, scheme=f"dpm{k}")


def run_unipc_arrays(s: NoiseSchedule, m: PolyNoiseModel, x_T, grid, p: int, variant: str = "bh2",
                     corrector: bool = False) -> SolverRun:
    """:func:`carlift.reference.run_unipc` with every state an array, each
    state's eps read once from one table over the grid."""
    x = np.atleast_1d(np.asarray(x_T, dtype=float))
    states = np.empty((grid.M + 1, len(x)))
    states[0] = x
    warm = 0
    for warm, x in enumerate(taylor_walk_arrays(s, m, x, grid.lam[:p], p), start=1):
        states[warm] = x
    nfe = p * warm
    pred = uni_weights(s, grid.lam, p, variant)
    corr = uni_weights(s, grid.lam, p, variant, corrector=True) if corrector else None
    (table,) = _derivative_tower(s, m, 1, grid.lam)
    eps = [eval_tabulated(m, table, i, states[i]) for i in range(p - 1)]
    for i in range(p, grid.M + 1):
        j = i - p
        eps.append(eval_tabulated(m, table, i - 1, states[i - 1]))
        xi = apply_weights(pred[0][j], pred[1][j], states[j], eps[j:i])
        nfe += 1
        if corrector:
            hist = eps[j:i] + [eval_tabulated(m, table, i, xi)]
            xi = apply_weights(corr[0][j], corr[1][j], states[j], hist)
            nfe += 1
        states[i] = xi
    return SolverRun(grid=grid, states=states, nfe=nfe, scheme=("unic" if corrector else "unip") + str(p))


def kron_sum_floats(mono, F: np.ndarray, x: list) -> list:
    """eps at a state x of d Python floats from one of
    :func:`carlift.reference._eps_rows`, as the kron stage evaluated it
    before it was fused: every degree's monomials built from the degree
    below by float products, one ``ndarray.dot``, then each entry summed
    from +0 in a pass of its own."""
    x_all, xj = ([1.0, *x] if len(mono.pairs) > 1 else [1.0]), x
    for pairs in mono.pairs[2:]:
        xj = [xj[p] * x[f] for p, f in pairs]
        x_all += xj
    return [0.0 + e for e in F.dot(x_all).tolist()]


def rk4_lists_per_stage(y: list, f: list, c: list, rows: list, cnt: int, ht: float) -> list:
    """``cnt`` substeps of :func:`carlift.reference._rk4_lists` as it stood
    before the stage was fused: each stage reads its row and schedule
    floats afresh, eps is :func:`kron_sum_floats` at the stage's state, and
    k4 is a list of its own."""
    half, sixth = 0.5 * ht, ht / 6.0

    def k(i: int, z: list) -> list:
        fi, ci = f[i], c[i]
        return [fi * a + ci * e for a, e in zip(z, kron_sum_floats(*rows[i], z))]

    for i in range(0, 2 * cnt, 2):
        k1 = k(i, y)
        k2 = k(i + 1, [a + half * b for a, b in zip(y, k1)])
        k3 = k(i + 1, [a + half * b for a, b in zip(y, k2)])
        k4 = k(i + 2, [a + ht * b for a, b in zip(y, k3)])
        y = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
    return y


def rk4_horner_per_coefficient(y, f: list, c: list, rows: list, cnt: int, ht: float):
    """``cnt`` substeps of :func:`carlift.reference._rk4_horner` as it stood
    before its lowest four Horner terms were written out: ``rows`` are
    :func:`carlift.reference._eps_rows`, and each stage folds every
    coefficient of its row in one loop from 0.0."""
    half, sixth = 0.5 * ht, ht / 6.0
    for i in range(0, 2 * cnt, 2):
        e = 0.0
        for cj in rows[i]:
            e = e * y + cj
        k1 = f[i] * y + c[i] * e
        z, e = y + half * k1, 0.0
        for cj in rows[i + 1]:
            e = e * z + cj
        k2 = f[i + 1] * z + c[i + 1] * e
        z, e = y + half * k2, 0.0
        for cj in rows[i + 1]:
            e = e * z + cj
        k3 = f[i + 1] * z + c[i + 1] * e
        z, e = y + ht * k3, 0.0
        for cj in rows[i + 2]:
            e = e * z + cj
        k4 = f[i + 2] * z + c[i + 2] * e
        y = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def lchs_per_substep(A_fun, b_fun, u0, T: float, cfg: LchsConfig) -> LchsResult:
    """:func:`carlift.solve.lchs_solve` as it stood before a constant
    generator's walk stayed in its eigen-coordinates: A(t) and b(t) held
    as lists of arrays, time dependence found by comparing each substep's
    A with the first, and every substep, constant A or not, applying V^H,
    the phases and V to each node's vector, over chunks of
    ``solve.LCHS_CHUNK_BYTES // (16 n^2)`` nodes."""
    u0 = np.asarray(u0)
    n = len(u0)
    dt = T / cfg.substeps
    mids = (np.arange(cfg.substeps) + 0.5) * dt
    A_mid = [np.asarray(A_fun(t), dtype=complex) for t in mids]
    time_dep = any(not np.array_equal(A_mid[0], Aj) for Aj in A_mid[1:])
    A_gen = np.stack(A_mid if time_dep else A_mid[:1])
    A_adj = A_gen.conj().swapaxes(-1, -2)
    Ls = (A_gen + A_adj) / 2.0
    Hs = (A_gen - A_adj) / 2.0j
    mu = max(0.0, -float(np.linalg.eigvalsh(Ls)[:, 0].min())) + SHIFT_EPS
    Ls = Ls + mu * np.eye(n)
    ks = np.linspace(-cfg.K, cfg.K, cfg.nodes)
    wk = np.full(cfg.nodes, ks[1] - ks[0])
    wk[0] *= 0.5
    wk[-1] *= 0.5
    gk = 1.0 / (np.pi * (1.0 + ks**2))
    bounds = np.arange(cfg.substeps + 1) * dt
    b_shift = [np.exp(-mu * t) * np.asarray(b_fun(t), dtype=complex) for t in bounds]
    ws = np.full(cfg.substeps + 1, dt)
    ws[0] *= 0.5
    ws[-1] *= 0.5
    z0 = u0.astype(complex) + ws[0] * b_shift[0]
    chunk = max(1, solve.LCHS_CHUNK_BYTES // (16 * n * n))
    acc = np.zeros(n, dtype=complex)
    n_exp = 0
    for lo in range(0, cfg.nodes, chunk):
        kc = ks[lo : lo + chunk, None, None]
        z = np.repeat(z0[None, :, None], len(kc), axis=0)  # (nodes, n, 1)
        for j in range(cfg.substeps):
            if time_dep or j == 0:
                w, V = np.linalg.eigh(kc * Ls[j] + Hs[j])
                phase = np.exp(-1j * dt * w)[..., None]
                Vh = V.conj().swapaxes(-1, -2)
                n_exp += len(kc)
            z = V @ (phase * (Vh @ z))
            z += ws[j + 1] * b_shift[j + 1][:, None]
        acc += (wk[lo : lo + chunk] * gk[lo : lo + chunk]) @ z[..., 0]
    u = np.exp(mu * T) * acc
    if not np.iscomplexobj(u0) and all(np.all(a.imag == 0.0) for a in [*A_mid, *b_shift]):
        u = u.real
    return LchsResult(u=u, shift=mu, n_exponentials=n_exp, kernel_mass=float(np.sum(wk * gk)))


def jacobian_eps(m: PolyNoiseModel, x, lam: float) -> np.ndarray:
    """Jacobian d eps / d x at (x, lam), shape (d, d)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (m.d,):
        raise ValueError(f"state must have shape ({m.d},)")
    if m.mode == "kron":
        mono, out = _monomials(m.d, m.x_degree), np.zeros((m.d, m.d))
        below = _monomials_at(_monomials(m.d, max(m.x_degree - 1, 0)), x)  # the degrees J - 1 reads
        for j, table in enumerate(_eps_tables(m, np.array([float(lam)]))[1:], start=1):
            # the derivative table takes F_j onto the degree-(j-1) monomials at x
            index, factor = mono.deriv[j]
            out += (table[0][:, index] * factor) @ below[j - 1]
        return out
    return np.diag(_separable_deps(m, x, lam))


def _separable_deps(m: PolyNoiseModel, x: np.ndarray, lam: float) -> np.ndarray:
    """Diagonal d eps_i / d x_i of a separable model, by Horner in x."""
    tables = _eps_tables(m, np.array([float(lam)]))
    return np.full(m.d, _horner([j * t[0, :, 0] for j, t in enumerate(tables)][:0:-1], x))


def drift_jacobian(s: NoiseSchedule, m: PolyNoiseModel, x, t: float) -> np.ndarray:
    """Jacobian of the t-domain drift, f(t) I + g^2/(2 sigma) d eps/dx."""
    if t < s.t_floor:
        raise ValueError(f"t={t} below t_floor={s.t_floor}; sigma_t is numerically singular")
    lam = float(s.lam(t))
    sig = float(s.sigma(t))
    return float(s.f(t)) * np.eye(m.d) + float(s.g2(t)) / (2.0 * sig) * jacobian_eps(m, x, lam)


def drift_eigenvalues(s: NoiseSchedule, m: PolyNoiseModel, x, t: float) -> np.ndarray:
    """Ascending eigenvalues of the symmetrised drift Jacobian J + J^T.

    For separable models the Jacobian is diagonal and the eigenvalues
    are read off directly, which keeps large-d separable sweeps cheap and
    exact.
    """
    if t < s.t_floor:
        raise ValueError(f"t={t} below t_floor={s.t_floor}; sigma_t is numerically singular")
    if m.mode == "separable":
        deps = _separable_deps(m, np.atleast_1d(np.asarray(x, dtype=float)), float(s.lam(t)))
        diag = float(s.f(t)) + float(s.g2(t)) / (2.0 * float(s.sigma(t))) * deps
        return np.sort(2.0 * diag)
    J = drift_jacobian(s, m, x, t)
    return np.linalg.eigvalsh(J + J.T)


def alpha_from_lam(lam):
    """alpha_t at log-SNR lam, sqrt(expit(2 lam)); alpha^2 = 1/(1+e^{-2 lam})
    for every VP schedule."""
    return np.sqrt(expit(2.0 * np.asarray(lam, dtype=float)))


def to_dense(step: StepMatrix) -> np.ndarray:
    """A step matrix as a dense (n, n) array, zero below its stored rows."""
    out = np.zeros(step.shape)
    out[: len(step.rows)] = step.rows
    return out


@contextlib.contextmanager
def address_space_cap(extra_bytes):
    """Cap this process's address space at its current size plus
    extra_bytes, so that an unguarded huge allocation raises MemoryError
    instead of exhausting the machine."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as fh:
        current = int(fh.read().split()[0]) * resource.getpagesize()
    resource.setrlimit(resource.RLIMIT_AS, (current + extra_bytes, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def dlam_dt(s: NoiseSchedule, t):
    """d lam / dt = f(t) / sigma_t^2, strictly negative on (0, T]."""
    return s.f(t) / s.sigma(t) ** 2


def taylor_integral(n: int, lam_s: float, lam_t: float) -> float:
    """Moment I_n = int_{lam_s}^{lam_t} e^{-lam} (lam - lam_s)^n / n! dlam,
    which the step weights scale by alpha_t.

    Closed form: e^{-lam_s} (1 - e^{-h} sum_{k<=n} h^k/k!) with h the step
    width.  That difference cancels catastrophically for small h, so it is
    evaluated as e^{-lam_s} e^{-h} * sum_{k>n} h^k/k!, which is exact and
    all-positive.  The package forms alpha_t I_n as sigma_t times that sum.
    """
    h = lam_t - lam_s
    if h <= 0.0:
        raise ValueError("need lam_t > lam_s")
    return math.exp(-lam_s) * math.exp(-h) * exp_taylor_tail(n, h)


def phi_moment(n: int, h: float) -> float:
    """Scaled exponential-integrator moment n! * h * phi_{n+1}(h).

    phi_1(h) = (e^h - 1)/h and phi_{k+1}(h) = (phi_k(h) - 1/k!)/h; the
    combination returned here equals n! * tail_n(h) / h^n with
    tail_n(h) = sum_{k>n} h^k/k!, which is how it is computed (no
    cancellation for small h).
    """
    if h == 0.0:
        raise ValueError("need h != 0")
    return math.factorial(n) * exp_taylor_tail(n, h) / h**n


def uni_coeffs(p: int, r: np.ndarray, h: float, variant: str = "bh2",
               corrector: bool = False) -> tuple[np.ndarray, float]:
    """Interpolation weights a and normaliser B(h) of one unified step,
    one Vandermonde system on its own.

    The weights solve sum_m a_m r_m^{n-1} = phi_moment(n, h) / B(h) over
    n = 1..p-1 in the p-1 free weights for the predictor, or n = 1..p in
    p weights for the corrector.  B(h) is h for variant "bh1" and e^h - 1
    for "bh2".  The predictor at p = 1 has no free weights and returns an
    empty array.
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (p,):
        raise ValueError(f"need {p} node fractions, got shape {r.shape}")
    if np.any(r <= 0.0) or np.any(r > 1.0):
        raise ValueError("node fractions must lie in (0, 1]")
    if np.any(np.diff(r) <= 0.0):
        raise ValueError("node fractions must be strictly increasing (duplicates are singular)")
    if abs(r[-1] - 1.0) > 1e-12:
        raise ValueError("final node fraction must be 1")
    if h <= 0.0:
        raise ValueError("need h > 0")
    if variant == "bh1":
        Bh = h
    elif variant == "bh2":
        Bh = float(np.expm1(h))
    else:
        raise ValueError(f"unknown variant {variant!r}")
    n_w = p if corrector else p - 1
    if n_w == 0:
        return np.zeros(0), Bh
    g = np.array([phi_moment(n, h) / Bh for n in range(1, n_w + 1)])
    V = np.vander(r[:n_w], N=n_w, increasing=True).T  # V[n-1, m] = r_m^{n-1}
    return np.linalg.solve(V, g), Bh


def dpm_weights_per_width(s: NoiseSchedule, lams, k: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`carlift.reference.dpm_weights` with one tail table per
    distinct step width, each weight formed on Python floats."""
    if k not in (1, 2, 3):
        raise ValueError("supported orders are k in {1, 2, 3}")
    lams = np.asarray(lams, dtype=float)
    hs = np.diff(lams).tolist()
    tails = {h: [exp_taylor_tail(n, h) for n in range(k)] for h in set(hs)}
    c = np.array([[-sig * tail for tail in tails[h]]
                  for sig, h in zip(s.sigma_from_lam(lams[1:]).tolist(), hs)])
    return np.exp(np.diff(s.log_alpha_from_lam(lams))), c.reshape(-1, k)


def uni_weights_per_system(s: NoiseSchedule, lams, p: int, variant: str = "bh2",
                           corrector: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """:func:`carlift.reference.uni_weights` with each step's weights from
    its own :func:`uni_coeffs` system, solved once per distinct step."""
    lams = np.asarray(lams, dtype=float)
    nodes = lams[np.arange(max(len(lams) - p, 0))[:, None] + np.arange(p + 1)]
    r = (nodes[:, 1:] - nodes[:, :1]) / (nodes[:, -1:] - nodes[:, :1])
    sigma = s.sigma_from_lam(nodes[:, -1])
    solved: dict = {}
    c = np.empty((len(nodes), p + 1 if corrector else p))
    for j, (lam_0, lam_p) in enumerate(nodes[:, [0, -1]].tolist()):
        key = (tuple(r[j]), lam_p - lam_0)
        if key not in solved:
            solved[key] = (*uni_coeffs(p, r[j], key[1], variant=variant, corrector=corrector),
                           exp_taylor_tail(0, key[1]))
        a, Bh, tail = solved[key]
        w = float(sigma[j]) * Bh * (a / r[j, : len(a)])
        c[j, 0] = -float(sigma[j]) * tail + float(w.sum())
        c[j, 1:] = -w
    return np.exp(np.diff(s.log_alpha_from_lam(nodes[:, [0, -1]]))[:, 0]), c


def t_from_lam_brentq(s: NoiseSchedule, lam_target: float, t_lo: float, t_hi: float) -> float:
    """Invert lam(t) = lam_target on [t_lo, t_hi] by bracketed root finding,
    the search the schedule's closed-form inverse replaced."""
    g = lambda t: float(s.lam(t) - lam_target)
    t_hat = brentq(g, t_lo, t_hi, xtol=1e-15, rtol=8.9e-16, maxiter=200)
    assert abs(g(t_hat)) <= 1e-10
    return float(t_hat)


def dx_dlambda(s: NoiseSchedule, m: PolyNoiseModel, x, lam: float) -> np.ndarray:
    """Right-hand side of the flow in lam: sigma^2 x - sigma eps(x, lam)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    sig = float(s.sigma_from_lam(lam))
    return sig**2 * x - sig * eval_eps(m, x, lam)


def compose_poly_power(P: dict[int, np.ndarray], m: int, basis: KronBasis) -> dict[int, np.ndarray]:
    """Coefficients of the m-th Kronecker power of a polynomial map.

    P maps degree q to the (d, d^q) coefficient matrix B_q; the result
    maps degree q to the (d^m, d^q) coefficient of x^{(q)} in
    P(x)^{(m)}, with degrees above the basis truncation dropped.
    """
    if m < 0:
        raise ValueError("need m >= 0")
    for q, B in P.items():
        if np.shape(B) != (basis.d, basis.d**q):
            raise ValueError(f"degree-{q} coefficient must have shape ({basis.d}, {basis.d**q})")
    out: dict[int, np.ndarray] = {0: np.ones((1, 1))}
    for _ in range(m):
        new: dict[int, np.ndarray] = {}
        for q1, R in out.items():
            for q2, B in P.items():
                if q1 + q2 <= basis.N:
                    new[q1 + q2] = new.get(q1 + q2, 0.0) + np.kron(R, B)
        out = new
    return out


class KronBasis:
    """The truncated Kronecker-power basis: block j holds x^{(j)}, entry
    (i_1, ..., i_j) at its base-d value, so blocks take d, d^2, ..., d^N."""

    def __init__(self, N: int, d: int):
        self.N, self.d = N, d
        self.offsets = np.concatenate([[0], np.cumsum([d**j for j in range(1, N + 1)])])

    @property
    def dim_total(self) -> int:
        return int(self.offsets[-1])

    def block_slice(self, j: int) -> slice:
        return slice(int(self.offsets[j - 1]), int(self.offsets[j]))


def kron_lift(x, basis: KronBasis) -> LiftedState:
    """Exact lifting of a state into Kronecker powers 1..N."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (basis.d,):
        raise ValueError(f"state must have shape ({basis.d},)")
    parts = [x]
    for _ in range(1, basis.N):
        parts.append(np.kron(parts[-1], x))
    return LiftedState(basis=basis, y=np.concatenate(parts))


def kron_poly_to_update(P: dict[int, np.ndarray], basis: KronBasis):
    """The step lift in the Kronecker basis: block row j of U holds the
    degree-truncated coefficients of P(x)^{(j)}, written into one dense
    buffer from block row j-1, each product R_{q1} (x) B_{q2} by
    broadcasting.  Returns (StepMatrix, b)."""
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
                out = row[qt].reshape(len(Rq), d, Rq.shape[1], B.shape[1])
                left, right = Rq[:, None, :, None], B[None, :, None, :]
                if first:
                    np.multiply(left, right, out=out)
                else:
                    out += left * right
        R = row
    return StepMatrix(buf), b


def stacked(P: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
    """One step polynomial {q: (d, n)} as a one-step run {q: (1, d, n)}."""
    return {q: np.asarray(B)[None] for q, B in P.items()}


def step_dicts(polys: dict[int, np.ndarray]) -> list[dict[int, np.ndarray]]:
    """The steps {q: (d, n_q)} of a run's stacked step polynomials
    {q: (S, d, n_q)}, each with every degree of the run."""
    return [{q: B[i] for q, B in polys.items()} for i in range(len(next(iter(polys.values()))))]


def one_step_polynomial_dpm(s: NoiseSchedule, m: PolyNoiseModel, lams, k: int,
                            i: int) -> dict[int, np.ndarray]:
    """Step i's map {q: (d, n_q)} alone, as :func:`carlift.carleman.step_polynomials_dpm`
    made it before it stacked the steps: degree 1, then the degrees of
    D^0 eps, D^1 eps, ... that are nonzero at step i, in the order they
    first show."""
    ratio, c = dpm_weights(s, lams, k)
    tower = _derivative_tower(s, m, k, lams[:-1])
    P = {1: ratio[i] * np.eye(m.d)}
    for cn, level in zip(c[i], tower):
        for q, B in enumerate(level):
            if B[i].any():
                P[q] = P.get(q, np.zeros(B[i].shape)) + cn * B[i]
    return P


def one_step_poly_to_update(P: dict[int, np.ndarray], basis):
    """The symmetric-basis lift of one step polynomial {q: (d, n_q)}, alone, as
    :func:`carlift.carleman._poly_to_update` made it before it lifted
    steps together: P's nonzero degrees in its own key order, block row j from
    every column of block row j-1 by one product pass and one bincount.
    Returns (StepMatrix, b)."""
    N, dim = basis.N, basis.dim_total
    mono = _monomials(basis.d, N)
    C = {q: B for q, B in P.items() if q <= N and np.any(B)}
    width = dim + 1
    targets = np.concatenate([mono.products[q] for q in C] + [np.zeros(0, np.intp)])
    buf = np.empty((dim, dim))
    b = np.empty(dim)
    R = np.zeros((1, width))
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
        np.multiply(R[:, 1:], 1.0 / mono.sqrt_mult, out=buf[rows])
        buf[rows] *= scale[:, None]
    return StepMatrix(buf), b


def kron_node_block1(E: dict[int, np.ndarray], c: float, basis: KronBasis) -> StepMatrix:
    """Block-row-1 matrix c * E_q against Kronecker column blocks q >= 1."""
    buf = np.zeros((basis.d, basis.dim_total))
    for q, mat in E.items():
        if 1 <= q <= basis.N:
            buf[:, basis.block_slice(q)] = c * mat
    return StepMatrix(buf)


@contextlib.contextmanager
def kron_lifting():
    """A context in which carlift.carleman lifts in the Kronecker basis:
    hand it a :class:`KronBasis` wherever a CarlemanBasis goes, and
    run_lifted, the assemblies and LiftedState run as they did before
    the symmetric basis replaced it.  The stacked step and node lifts
    are replaced by these one-step lifts, called once per step, of the
    monomial blocks put back on Kronecker columns by :func:`unfold`."""
    def kron_poly(P, d):
        return {q: unfold(B, d, q) for q, B in P.items()}

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(carleman, "lift", kron_lift)
        mp.setattr(carleman, "_poly_to_update", lambda polys, basis: [
            kron_poly_to_update(kron_poly(P, basis.d), basis) for P in step_dicts(polys)])
        mp.setattr(carleman, "_block1", lambda E, nodes, cs, basis: [
            kron_node_block1(kron_poly({q: B[n] for q, B in E.items()}, basis.d), c, basis)
            for n, c in zip(nodes, cs)])
        yield


def symmetric_embedding(d: int, N: int) -> np.ndarray:
    """Q, the (sum_j d^j, C(d+N, N) - 1) matrix whose column for monomial
    beta is 1/sqrt(m_beta) on each Kronecker entry equal to x^beta, blocks
    in the orders of KronBasis and CarlemanBasis; Q^T Q = I."""
    blocks = []
    for j in range(1, N + 1):
        monos = list(itertools.combinations_with_replacement(range(d), j))
        col = {beta: k for k, beta in enumerate(monos)}
        Qj = np.zeros((d**j, len(monos)))
        for r, digits in enumerate(itertools.product(range(d), repeat=j)):
            Qj[r, col[tuple(sorted(digits))]] = 1.0
        blocks.append(Qj / np.sqrt(Qj.sum(axis=0)))
    return sla.block_diag(*blocks)


# --- the Kronecker format the models are given in ---------------------------


@functools.lru_cache(maxsize=None)
def sorted_monomials(d: int, q: int) -> tuple:
    """The degree-q monomials as sorted index tuples, in the package's
    order, and for each Kronecker column (i_1, ..., i_q) its monomial."""
    monos = list(itertools.combinations_with_replacement(range(d), q))
    index = {beta: k for k, beta in enumerate(monos)}
    return monos, np.array([index[tuple(sorted(c))] for c in itertools.product(range(d), repeat=q)],
                           dtype=np.intp)


def fold(B: np.ndarray, d: int, q: int) -> np.ndarray:
    """Coefficients (..., d^q) of x^{(q)} as coefficients (..., n_q) of the
    degree-q monomials: the Kronecker columns equal to each one summed."""
    monos, column_of = sorted_monomials(d, q)
    out = np.zeros(B.shape[:-1] + (len(monos),))
    for c, k in enumerate(column_of):
        out[..., k] += B[..., c]
    return out


def unfold(B: np.ndarray, d: int, q: int) -> np.ndarray:
    """Monomial coefficients (..., n_q) on the Kronecker columns
    (..., d^q), each on the column of its sorted index tuple."""
    monos, _ = sorted_monomials(d, q)
    out = np.zeros(B.shape[:-1] + (d**q,))
    for k, beta in enumerate(monos):
        out[..., sum(i * d ** (q - 1 - a) for a, i in enumerate(beta))] = B[..., k]
    return out


def fold_blocks(blocks, d: int) -> list:
    """Each degree-j block of a list of Kronecker blocks, folded."""
    return [fold(np.asarray(B), d, j) for j, B in enumerate(blocks)]


def monomials(x, q: int) -> np.ndarray:
    """The degree-q monomials at x, in the package's order."""
    monos, _ = sorted_monomials(len(x), q)
    return np.array([math.prod(x[i] for i in beta) for beta in monos], dtype=float)


def velocity_kron(blocks0: list[np.ndarray], s1, s2, d: int) -> dict[int, np.ndarray]:
    """dx/dlam = sigma^2 x - sigma eps as lam-polynomial Kronecker blocks
    keyed by x-degree; leading axes, one per expansion point, are carried."""
    v: dict[int, np.ndarray] = {1: s2[..., None, None] * np.eye(d)}
    for q, cq in enumerate(blocks0):
        if not np.any(cq):
            continue
        contrib = np.zeros(cq.shape[:-3] + (cq.shape[-3] + s1.shape[-1] - 1,) + cq.shape[-2:])
        for l2 in range(s1.shape[-1]):
            contrib[..., l2 : l2 + cq.shape[-3], :, :] += s1[..., l2, None, None, None] * cq
        v[q] = _padded_sum(v[q], -contrib) if q in v else -contrib
    return v


def deriv_once_kron(blocks: list[np.ndarray], v: dict[int, np.ndarray], d: int) -> list[np.ndarray]:
    """One application of D eps = d_lam eps + (d_x eps) . v on Kronecker
    blocks (..., L, d, d^j): v inserted into each slot of x^{(j)} by one
    einsum per slot, batched over both lam axes."""
    J = len(blocks) - 1
    lead = blocks[0].shape[:-3]
    out_deg = max(J, J - 1 + max(v)) if J >= 1 else J
    out: dict[int, np.ndarray] = {}

    def acc(j: int, block: np.ndarray) -> None:
        out[j] = _padded_sum(out[j], block) if j in out else block

    for j, cj in enumerate(blocks):
        if cj.shape[-3] > 1:
            acc(j, cj[..., 1:, :, :] * np.arange(1, cj.shape[-3])[:, None, None])
    # cj @ (I_{d^a} (x) V (x) I_{d^b}) contracts V's row index against slot a of x^{(j)}
    for j in range(1, J + 1):
        cj = blocks[j]
        if not np.any(cj):
            continue
        for q, vq in v.items():
            if not np.any(vq):
                continue
            deg_new = j - 1 + q
            Lc, Lv = cj.shape[-3], vq.shape[-3]
            prod = np.zeros(lead + (Lc + Lv - 1, d, d**deg_new))
            for a in range(j):
                slots = cj.reshape(lead + (Lc, d, d**a, d, d ** (j - 1 - a)))
                terms = np.einsum("...xiasb,...yst->...xyiatb", slots, vq)
                terms = terms.reshape(lead + (Lc, Lv, d, d**deg_new))
                for l1 in range(Lc):
                    prod[..., l1 : l1 + Lv, :, :] += terms[..., l1, :, :, :]
            acc(deg_new, prod)
    filled = [out[j] if j in out else np.zeros(lead + (1, d, d**j)) for j in range(out_deg + 1)]
    while len(filled) > 1 and not np.any(filled[-1]):
        filled.pop()
    return filled


def kron_tower(s: NoiseSchedule, m: PolyNoiseModel, k: int, lams) -> list:
    """D^0 eps, ..., D^{k-1} eps of a kron model around each point of
    ``lams``, built on Kronecker blocks from ``m.coeffs`` and then folded:
    level n lists the (C, L, d, n_j) monomial blocks of D^n eps, one per
    point of ``lams`` along the leading axis, by degree j."""
    lams = np.asarray(lams, dtype=float)
    s1, s2 = _sigma_lambda_polys(s, lams)
    blocks = [np.repeat(np.asarray(cj)[None], len(lams), axis=0) for cj in m.coeffs]
    v = velocity_kron(blocks, s1, s2, m.d)
    levels = [blocks]
    for _ in range(k - 1):
        levels.append(deriv_once_kron(levels[-1], v, m.d))
    return [fold_blocks(level, m.d) for level in levels]


def collapse(B: np.ndarray, lams) -> np.ndarray:
    """Per-point lam-polynomial blocks (C, L, ...) evaluated each at its own
    point of ``lams`` by polyval: (C, ...)."""
    return np.stack([npoly.polyval(lam, B[c]) for c, lam in enumerate(lams)])


def sigma_lambda_polys_per_call(lam_center):
    """Taylor polynomials of sigma_lam and sigma_lam^2 around lam_center,
    running the R_n / S_n recurrence afresh on every call."""
    q0 = float(expit(-2.0 * lam_center))
    sig0 = math.sqrt(q0)
    shrink = np.array([0.0, -2.0, 2.0])
    degree = SIGMA_TAYLOR_DEGREE
    R = np.array([0.0, 1.0])
    S_ = np.array([1.0])
    one_minus = np.array([1.0, -1.0])
    tay_q = np.empty(degree + 1)
    tay_s = np.empty(degree + 1)
    for n in range(degree + 1):
        tay_q[n] = npoly.polyval(q0, R) / math.factorial(n)
        tay_s[n] = sig0 * npoly.polyval(q0, S_) / math.factorial(n)
        R = npoly.polymul(npoly.polyder(R), shrink)
        S_ = npoly.polyadd(npoly.polymul(-one_minus, S_), npoly.polymul(shrink, npoly.polyder(S_)))

    def shift(taylor):
        out = np.zeros(degree + 1)
        pw = np.array([1.0])
        base = np.array([-lam_center, 1.0])
        for a in taylor:
            out[: len(pw)] += a * pw
            pw = npoly.polymul(pw, base)
        return out

    return shift(tay_s), shift(tay_q)


# --- batch polynomials: the separable tower before one-variable blocks -------
# A batch polynomial is an array (B, J+1, L+1) of coefficients of
# x^j lam^l, one independent polynomial per batch entry; a separable
# model's coefficients are one.


def trim_batch(arr: np.ndarray) -> np.ndarray:
    """Drop the trailing x- and lam-degrees that are zero in every row."""
    nz = np.any(arr != 0.0, axis=0)
    jmax, lmax = (int(np.flatnonzero(nz.any(axis=a))[-1]) if nz.any() else 0 for a in (1, 0))
    return np.ascontiguousarray(arr[:, : jmax + 1, : lmax + 1])


def batch_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of batch polynomials, 2-d convolution of coefficients."""
    B, Ja, La = a.shape
    _, Jb, Lb = b.shape
    out = np.zeros((B, Ja + Jb - 1, La + Lb - 1))
    for j in range(Ja):
        for l in range(La):
            col = a[:, j, l]
            if np.any(col != 0.0):
                out[:, j : j + Jb, l : l + Lb] += col[:, None, None] * b
    return out


def velocity_batch(arr0: np.ndarray, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """dx/dlam = sigma^2 x - sigma eps as a batch polynomial, from the
    undifferentiated model; ``s1``, ``s2`` may differ per batch row."""
    B, J1, L1 = arr0.shape
    Lv = max(s2.shape[-1], s1.shape[-1] + L1 - 1)
    v = np.zeros((B, max(2, J1), Lv))
    v[:, 1, : s2.shape[-1]] += s2
    for l1 in range(s1.shape[-1]):
        c = s1[..., l1, None, None]
        if c.any():
            v[:, :J1, l1 : l1 + L1] -= c * arr0
    return trim_batch(v)


def deriv_once_batch(arr, v):
    """One application of D eps = d_lam eps + (d_x eps) v on batch polynomials."""
    B, J1, L1 = arr.shape
    dlam = arr[:, :, 1:] * np.arange(1, L1)[None, None, :] if L1 > 1 else np.zeros((B, J1, 1))
    if J1 == 1:
        return trim_batch(dlam)
    prod = batch_mul(arr[:, 1:, :] * np.arange(1, J1)[None, :, None], v)
    out = np.zeros((B, max(dlam.shape[1], prod.shape[1]), max(dlam.shape[2], prod.shape[2])))
    out[:, : dlam.shape[1], : dlam.shape[2]] += dlam
    out[:, : prod.shape[1], : prod.shape[2]] += prod
    return trim_batch(out)


def separable_tower(s: NoiseSchedule, m: PolyNoiseModel, k: int, lams) -> list:
    """D^0 eps, ..., D^{k-1} eps of a separable model around each point of
    ``lams`` in batch-polynomial algebra, every point's d coordinates as
    batch rows: level n is (C, L, d, J+1), point c's coefficient of
    x_i^j lam^l at [c, l, i, j]."""
    lams = np.asarray(lams, dtype=float)
    s1, s2 = _sigma_lambda_polys(s, lams)
    arr = np.tile(m.coeffs, (len(lams), 1, 1))
    v = velocity_batch(arr, np.repeat(s1, m.d, axis=0), np.repeat(s2, m.d, axis=0))
    levels = [arr]
    for _ in range(k - 1):
        levels.append(deriv_once_batch(levels[-1], v))
    return [a.reshape((len(lams), m.d) + a.shape[1:]).transpose(0, 3, 1, 2) for a in levels]


def total_derivative_per_n(m, n, lam_center):
    """D^n eps built from scratch: expand sigma, build the velocity, and
    differentiate n times, as each call did before the tower existed; a
    kron model's on its Kronecker blocks ``m.coeffs``."""
    if n == 0:
        return m.coeffs
    s1, s2 = sigma_lambda_polys_per_call(lam_center)
    if m.mode == "kron":
        blocks = [np.array(cj) for cj in m.coeffs]
        v = velocity_kron(blocks, s1, s2, m.d)
        for _ in range(n):
            blocks = deriv_once_kron(blocks, v, m.d)
        return blocks
    arr = m.coeffs
    v = velocity_batch(arr, s1, s2)
    for _ in range(n):
        arr = deriv_once_batch(arr, v)
    return trim_batch(arr)


def import_matrix(path) -> sp.csr_matrix:
    """Read a matrix written by :func:`carlift.system.export_matrix`."""
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


def walk_matvec(mat, x) -> np.ndarray:
    """M x for a :class:`carlift.system.TrajectoryOperator`, block row by
    block row, each row's terms in coupling order, one matrix-vector
    product per block."""
    x = np.asarray(x).reshape(mat.n_blocks, mat.block_dim)
    y = x.astype(np.result_type(x, np.float64))
    for i, row in enumerate(mat.rows):
        for c, blk in row:
            y[i, : len(blk.rows)] -= blk.rows @ x[c]
    return y.ravel()


def block_row_csr(mat) -> sp.csr_matrix:
    """The global CSR matrix of a :class:`carlift.system.TrajectoryOperator`,
    each block row in arrays of its own: its negated blocks side by side
    in column order and the identity as one last column, whose nonzeros,
    read row by row, are the row's CSR entries, each row's last one moved
    to its diagonal column."""
    D, n, nnz = mat.block_dim, mat.shape[0], mat.nnz
    idx = np.int32 if max(nnz, n) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(n + 1, dtype=idx)
    indices = np.empty(nnz, dtype=idx)
    data = np.empty(nnz)
    diag, end = np.arange(D), 0
    for i, row in enumerate(mat.rows):
        wide = np.zeros((D, len(row) * D + 1))
        for k, (_, blk) in enumerate(row):
            np.negative(blk.rows, out=wide[: len(blk.rows), k * D : (k + 1) * D])
        wide[:, -1] = 1.0
        cols = np.append(np.add.outer([c * D for c, _ in row], diag), 0).astype(idx)
        mask = wide != 0.0
        counts = np.count_nonzero(mask, axis=1)
        start, end = end, end + int(counts.sum())
        data[start:end] = wide[mask]
        indices[start:end] = np.broadcast_to(cols, wide.shape)[mask]
        indices[start + np.cumsum(counts) - 1] = i * D + diag
        indptr[i * D + 1 : (i + 1) * D + 1] = counts
    np.cumsum(indptr, out=indptr)
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def eigsh_top(apply, n: int, rtol: float, rng):
    """:func:`carlift.system._lanczos_top` by SciPy's ``eigsh`` (ARPACK,
    a basis of min(n, 20) vectors, stopped at rtol/2), then certified by
    one more application.  Out of budget, u is the applied vector of
    largest Rayleigh quotient.  Returns (theta, applications, relative
    residual)."""
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
        u = spla.eigsh(spla.LinearOperator((n, n), matvec=matvec, dtype=float), k=1, which="LA",
                       v0=rng.standard_normal(n), ncv=ncv, tol=rtol / 2,
                       maxiter=max(1, LANCZOS_MAX_ITER // ncv))[1][:, 0]
    except spla.ArpackNoConvergence:
        u = seen["v"]
    w = matvec(u)
    uu = float(u @ u)
    theta = float(u @ w) / uu
    return theta, seen["calls"], float(np.linalg.norm(w - theta * u) / np.sqrt(uu)) / theta


def step_lifted(q, states, corrector: bool = False) -> np.ndarray:
    """Advance lifted state vector(s) through one quantized step.

    For a :class:`carlift.carleman.Qcm`, ``states`` is the single lifted
    vector at the previous node.  For a
    :class:`carlift.carleman.UnipcQcmSet`, ``states`` is the list of p
    lifted vectors at nodes anchor..anchor+p-1, and the step is the
    predictor's maps on them or, with ``corrector=True``, the corrector's,
    into which the lift folded the predictor.  That corrected state is
    not block-1 exact on a nonlinear model even from exactly lifted
    history: the fold reads the predictor output's truncated higher
    blocks.  Each map's rows times its state are added in place into the
    leading entries of a copy of the offset, as the forward solve adds
    them.
    """
    if isinstance(q, Qcm):
        mats, b, states = [q.A], q.b, [states]
    elif isinstance(q, UnipcQcmSet):
        if len(states) != len(q.pred_mats):
            raise ValueError(f"need {len(q.pred_mats)} history states, got {len(states)}")
        mats, b = (q.corr_mats, q.corr_b) if corrector else (q.pred_mats, q.pred_b)
    else:
        raise TypeError(f"unsupported step object {type(q)!r}")
    y_next = b.copy()
    for mat, y in zip(mats, states):
        y_next[: len(mat.rows)] += mat.rows @ y
    return y_next


def lifted_walk(qcms, y0, corrector: bool = False) -> np.ndarray:
    """A run's lifted states stepped one by one from y0 by
    :func:`step_lifted`, each unified step reading its p predecessors,
    stacked into one (n_blocks * dim,) vector: the sequential walk that
    the trajectory system's forward solve is checked against."""
    states = [np.asarray(y0, dtype=float)]
    for i, q in enumerate(qcms, start=1):
        history = states[i - len(q.pred_mats) : i] if isinstance(q, UnipcQcmSet) else states[-1]
        states.append(step_lifted(q, history, corrector=corrector))
    return np.concatenate(states)
