"""Classical reference samplers: RK4 oracle and exponential integrators.

The exponential integrators advance the exact variation-of-constants
solution

    x_t / alpha_t = x_s / alpha_s - int_{lam_s}^{lam_t} e^{-lam} eps dlam

by replacing eps along the step either with its Taylor expansion in lam
(single-step, derivative-based) or with a polynomial interpolant through
stored eps evaluations (predictor / corrector).  Either way a step is
x_t = ratio x_s + sum_n c[n] eps_n, and its coefficients are computed
only by :func:`dpm_weights` and :func:`uni_weights`, which the Carleman
lift in :mod:`carlift.carleman` reads as well.  All weights reduce to
the moments I_n computed by :func:`carlift.schedule.taylor_integral`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import PolyNoiseModel, _eps_tables, _eval_tabulated, eval_eps, total_derivative_poly
from .schedule import NoiseSchedule, TimeGrid, phi_moment, taylor_integral

__all__ = [
    "TrajectoryPoint",
    "SolverRun",
    "rk4_oracle",
    "dpm_weights",
    "dpm_step",
    "uni_coeffs",
    "uni_weights",
    "run_dpm",
    "run_unipc",
]


@dataclass(frozen=True)
class TrajectoryPoint:
    t: float
    lam: float
    x: np.ndarray


@dataclass
class SolverRun:
    """A sampled trajectory plus bookkeeping.

    nfe counts evaluations of the noise model and its lambda-derivatives;
    each derivative evaluation costs one unit, matching how a wrapped
    network would be charged.
    """

    grid: TimeGrid
    states: list[TrajectoryPoint]
    nfe: int
    scheme: str
    order: int

    def state_matrix(self) -> np.ndarray:
        return np.stack([p.x for p in self.states])

    @property
    def endpoint(self) -> np.ndarray:
        return self.states[-1].x


# Bytes (as float64 arrays) of the schedule and coefficient tables that
# rk4_oracle holds at once; the substeps of an interval are tabulated in
# chunks that fit, so memory does not grow with the substep count.
ORACLE_TABLE_BYTES = 1 << 14


def _oracle_chunk(m: PolyNoiseModel) -> int:
    """Substeps per table chunk: two tabulated times per substep, each
    holding f, g^2/(2 sigma) and the lam-dependent eps coefficients."""
    if m.mode == "kron":
        per_time = sum(cj[0].size for cj in m.coeffs if cj.shape[0] > 1)
    else:
        per_time = m.d * (m.x_degree + 1)
    return max(1, ORACLE_TABLE_BYTES // (2 * 8 * (2 + per_time)))


def rk4_oracle(
    s: NoiseSchedule,
    m: PolyNoiseModel,
    x_T,
    substeps: int = 2000,
    t_start: float | None = None,
    t_end: float | None = None,
    times: np.ndarray | None = None,
) -> SolverRun:
    """Classic fixed-step RK4 integration of the sampling ODE in t.

    With ``times`` given (strictly decreasing, the record nodes),
    ``substeps`` applies per interval; otherwise the span
    [t_start, t_end] (defaults [T, t_floor]) is integrated with
    ``substeps`` total steps and only the endpoints are recorded.

    The right-hand side is f(t) x + g^2(t) / (2 sigma_t) eps(x, lam(t)).
    Everything in it that depends on t alone is tabulated once per chunk
    of substeps, at the substep starts t (accumulated by t += ht) and
    midpoints t + ht/2; a substep's end is the next one's start.  The
    loop then evaluates only the x-dependent part of eps.
    """
    if substeps < 1:
        raise ValueError("need substeps >= 1")
    if times is None:
        a = s.T if t_start is None else t_start
        b = s.t_floor if t_end is None else t_end
        times = np.array([a, b])
        per = [substeps]
    else:
        times = np.asarray(times, dtype=float)
        per = [substeps] * (len(times) - 1)

    x = np.atleast_1d(np.asarray(x_T, dtype=float)).copy()
    pts = [TrajectoryPoint(float(times[0]), float(s.lam(times[0])), x.copy())]
    nfe = 0
    chunk = _oracle_chunk(m)
    # A one-coordinate polynomial model steps on Python floats: the same
    # IEEE double operations as on 1-element arrays, without numpy's
    # per-operation overhead.
    on_floats = m.mode != "kron" and m.d == 1
    for (ta, tb), n in zip(zip(times[:-1], times[1:]), per):
        ht = float((tb - ta) / n)
        half, sixth = 0.5 * ht, ht / 6.0
        t = ta
        y = float(x[0]) if on_floats else x
        for done in range(0, n, chunk):
            cnt = min(chunk, n - done)
            tt = np.empty(2 * cnt + 1)
            tt[0::2] = np.add.accumulate(np.concatenate(([t], np.full(cnt, ht))))
            tt[1::2] = tt[0:-1:2] + half
            f = s.f(tt).tolist()
            c = (s.g2(tt) / (2.0 * s.sigma(tt))).tolist()
            tables = _eps_tables(m, s.lam(tt))
            if on_floats:
                tables = tables[:, :, 0].tolist()
            for i in range(0, 2 * cnt, 2):
                k1 = f[i] * y + c[i] * _eval_tabulated(m, tables, i, y)
                z = y + half * k1
                k2 = f[i + 1] * z + c[i + 1] * _eval_tabulated(m, tables, i + 1, z)
                z = y + half * k2
                k3 = f[i + 1] * z + c[i + 1] * _eval_tabulated(m, tables, i + 1, z)
                z = y + ht * k3
                k4 = f[i + 2] * z + c[i + 2] * _eval_tabulated(m, tables, i + 2, z)
                y = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t = tt[-1]
            nfe += 4 * cnt
        x = np.atleast_1d(np.asarray(y, dtype=float))
        pts.append(TrajectoryPoint(float(tb), float(s.lam(tb)), x.copy()))
    grid = TimeGrid(t=times, lam=np.asarray(s.lam(times), dtype=float))
    return SolverRun(grid=grid, states=pts, nfe=nfe, scheme="rk4", order=4)


def dpm_weights(s: NoiseSchedule, lam_s: float, lam_t: float, k: int) -> tuple[float, np.ndarray]:
    """Coefficients of the order-k Taylor step from lam_s to lam_t.

    The step is x_t = ratio x_s + sum_{n<k} c[n] eps^{(n)}(x_s, lam_s)
    with ratio = alpha_t / alpha_s and c[n] = -alpha_t I_n, eps^{(n)} the
    total lambda-derivatives expanded around lam_s and I_n the
    exponential moments over the step.
    """
    if k not in (1, 2, 3):
        raise ValueError("supported orders are k in {1, 2, 3}")
    ratio = float(s.alpha_from_lam(lam_t) / s.alpha_from_lam(lam_s))
    alpha_t = float(s.alpha_from_lam(lam_t))
    return ratio, np.array([-alpha_t * taylor_integral(n, lam_s, lam_t) for n in range(k)])


def dpm_step(
    s: NoiseSchedule,
    m: PolyNoiseModel,
    x,
    i: int,
    grid: TimeGrid,
    k: int,
) -> np.ndarray:
    """Order-k single step from grid node i-1 to node i (see :func:`dpm_weights`)."""
    if not (1 <= i <= grid.M):
        raise ValueError(f"step index {i} outside 1..{grid.M}")
    lam_s, lam_t = float(grid.lam[i - 1]), float(grid.lam[i])
    ratio, c = dpm_weights(s, lam_s, lam_t, k)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = ratio * x
    for n, cn in enumerate(c):
        out = out + cn * eval_eps(total_derivative_poly(s, m, n, lam_center=lam_s), x, lam_s)
    return out


def uni_coeffs(
    p: int,
    r: np.ndarray,
    h: float,
    variant: str = "bh2",
    corrector: bool = False,
) -> tuple[np.ndarray, float]:
    """Interpolation weights a and normaliser B(h) for a unified step.

    The weights solve the Vandermonde order conditions

        sum_m a_m r_m^{n-1} = n! * h * phi_{n+1}(h) / B(h),

    over n = 1..p-1 in the p-1 free weights for the predictor, or
    n = 1..p in p weights for the corrector.  B(h) is h for variant
    "bh1" and e^h - 1 for "bh2".  The predictor at p = 1 has no free
    weights and returns an empty array.
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
    a = np.linalg.solve(V, g)
    return a, Bh


def uni_weights(
    s: NoiseSchedule,
    lam_nodes: np.ndarray,
    variant: str = "bh2",
    corrector: bool = False,
) -> tuple[float, np.ndarray]:
    """Coefficients of the unified step through the nodes lam_nodes[0..p].

    The step from anchor lam_0 to target lam_p is
    x_p = ratio x_0 + sum_m c[m] eps(x_m, lam_m), with ratio =
    alpha_p / alpha_0, over the nodes m < p for the predictor and
    m <= p for the corrector (x_p then being the predictor output).
    With w_m = sigma_p B(h) a_m / r_m from :func:`uni_coeffs`,
    c[0] = -alpha_p I_0 + sum_m w_m and c[m] = -w_m for m >= 1.
    """
    lam_nodes = np.asarray(lam_nodes, dtype=float)
    p = len(lam_nodes) - 1
    lam_0, lam_p = float(lam_nodes[0]), float(lam_nodes[-1])
    h = lam_p - lam_0
    r = (lam_nodes[1:] - lam_nodes[0]) / h
    a, Bh = uni_coeffs(p, r, h, variant=variant, corrector=corrector)
    ratio = float(s.alpha_from_lam(lam_p) / s.alpha_from_lam(lam_0))
    w = float(s.sigma_from_lam(lam_p)) * Bh * (a / r[: len(a)])
    c0 = -float(s.alpha_from_lam(lam_p)) * taylor_integral(0, lam_0, lam_p) + float(w.sum())
    return ratio, np.concatenate([[c0], -w])


def _uni_step(
    s: NoiseSchedule,
    x0: np.ndarray,
    eps: list[np.ndarray],
    lam_nodes: np.ndarray,
    variant: str,
    corrector: bool,
) -> np.ndarray:
    """Apply the :func:`uni_weights` step from anchor x0, given eps at the nodes."""
    ratio, c = uni_weights(s, lam_nodes, variant=variant, corrector=corrector)
    out = ratio * x0
    for cm, e in zip(c, eps):
        out = out + cm * e
    return out


def run_dpm(
    s: NoiseSchedule,
    m: PolyNoiseModel,
    x_T,
    grid: TimeGrid,
    k: int,
) -> SolverRun:
    """Run the order-k derivative-based sampler over the grid."""
    x = np.atleast_1d(np.asarray(x_T, dtype=float)).copy()
    pts = [TrajectoryPoint(float(grid.t[0]), float(grid.lam[0]), x.copy())]
    for i in range(1, grid.M + 1):
        x = dpm_step(s, m, x, i, grid, k)
        pts.append(TrajectoryPoint(float(grid.t[i]), float(grid.lam[i]), x.copy()))
    return SolverRun(grid=grid, states=pts, nfe=k * grid.M, scheme=f"dpm{k}", order=k)


def run_unipc(
    s: NoiseSchedule,
    m: PolyNoiseModel,
    x_T,
    grid: TimeGrid,
    p: int,
    variant: str = "bh2",
    corrector: bool = False,
    singlestep: bool = False,
) -> SolverRun:
    """Run the unified predictor(/corrector) sampler over the grid.

    Multistep (default): the step to node i anchors at node i-p and
    reuses the p-1 grid nodes in between, after a warm-up of p-1 steps
    at matching single-step order.  Single-step: each step spawns fresh
    interior nodes inside [lam_{i-1}, lam_i] (debugging layout; p
    evaluations per step).
    """
    if p < 1 or (not singlestep and p > 3):
        raise ValueError("supported orders are p in {1, 2, 3}")
    x = np.atleast_1d(np.asarray(x_T, dtype=float)).copy()
    pts = [TrajectoryPoint(float(grid.t[0]), float(grid.lam[0]), x.copy())]
    nfe = 0
    scheme = ("unic" if corrector else "unip") + str(p)

    if singlestep:
        for i in range(1, grid.M + 1):
            lam0, lam1 = float(grid.lam[i - 1]), float(grid.lam[i])
            x0 = xi = pts[-1].x
            lams = lam0 + (lam1 - lam0) * np.arange(p + 1) / p
            eps = []
            for mm in range(1, p + 1):
                eps.append(eval_eps(m, xi, float(lams[mm - 1])))
                xi = _uni_step(s, x0, eps, lams[: mm + 1], variant, corrector=False)
            nfe += p
            if corrector and p > 1:
                eps.append(eval_eps(m, xi, float(lams[-1])))
                xi = _uni_step(s, x0, eps, lams, variant, corrector=True)
                nfe += 1
            pts.append(TrajectoryPoint(float(grid.t[i]), lam1, xi))
        return SolverRun(grid=grid, states=pts, nfe=nfe, scheme=scheme + "s", order=p)

    for i in range(1, min(p - 1, grid.M) + 1):
        x = dpm_step(s, m, pts[-1].x, i, grid, k=p)
        nfe += p
        pts.append(TrajectoryPoint(float(grid.t[i]), float(grid.lam[i]), x))
    eps: list[np.ndarray] = []  # eps at pts[0], pts[1], ...: each state is evaluated once
    for i in range(p, grid.M + 1):
        eps += [eval_eps(m, pt.x, pt.lam) for pt in pts[len(eps) : i]]
        x0, hist, lams = pts[i - p].x, eps[i - p : i], grid.lam[i - p : i + 1]
        xi = _uni_step(s, x0, hist, lams, variant, corrector=False)
        nfe += 1  # eps at the newest state; the older history is cached in eps
        if corrector:
            x_pred_eps = eval_eps(m, xi, float(lams[-1]))
            xi = _uni_step(s, x0, hist + [x_pred_eps], lams, variant, corrector=True)
            nfe += 1
        pts.append(TrajectoryPoint(float(grid.t[i]), float(grid.lam[i]), xi))
    return SolverRun(grid=grid, states=pts, nfe=nfe, scheme=scheme, order=p)
