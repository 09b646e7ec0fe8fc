"""Classical reference samplers: RK4 oracle and exponential integrators.

The exponential integrators advance the exact variation-of-constants
solution

    x_t / alpha_t = x_s / alpha_s - int_{lam_s}^{lam_t} e^{-lam} eps dlam

by replacing eps along the step either with its Taylor expansion in lam
(single-step, derivative-based) or with a polynomial interpolant through
stored eps evaluations (predictor / corrector).  Either way a step is
x_t = ratio x_s + sum_n c[n] eps_n, its coefficients tabulated over the
grid, one row per step, only by :func:`dpm_weights` and
:func:`uni_weights`, from one checked step table.  A derivative step is
a polynomial map of x_s, written out for a run by
:func:`step_polynomials_dpm`: the sampler evaluates it and the lift in
:mod:`carlift.carleman` lifts it, as it lifts unified steps from the
sampler's rows and eps table over the grid.  A run's states are one
(nodes, d) array, row i at grid node i, written there only for storage:
every stepper steps as :func:`_start` gives the state, with the bits of
the same steps on arrays; a kron RK4 stage is one monomial pass and
one ``ndarray.dot``, with eps summed from +0 inside the stage, and a
separable one writes the lowest four Horner terms out.  All
weights reduce to the moments
I_n = int e^{-lam} (lam - lam_s)^n / n! dlam over a step of width h,
which equal e^{-lam_t} tail_n(h) with tail_n from
:func:`carlift.schedule.exp_taylor_tail`.  They enter scaled by alpha_t,
and alpha_t e^{-lam_t} = sigma_t, so a weight is formed as sigma_t
tail_n(h) and the ratio from log alpha: neither passes through an
alpha_t that underflows at very negative lam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import PolyNoiseModel, _derivative_tower, _eps_tables, _horner, _kron_dot, _kron_sum, _monomials
from .schedule import NoiseSchedule, TimeGrid, exp_taylor_tail

__all__ = [
    "SolverRun",
    "rk4_oracle",
    "dpm_weights",
    "step_polynomials_dpm",
    "uni_weights",
    "run_dpm",
    "run_unipc",
    "run_scheme",
]


@dataclass
class SolverRun:
    """A sampled trajectory plus bookkeeping.

    ``states`` is one (nodes, d) array, row i the state at grid node i;
    the node times and log-SNRs are the grid's.  :meth:`state_matrix`
    returns that array itself, not a copy, and no caller writes to it.
    nfe counts evaluations of the noise model and its lambda-derivatives;
    each derivative evaluation costs one unit, matching how a wrapped
    network would be charged.
    """

    grid: TimeGrid
    states: np.ndarray
    nfe: int
    scheme: str

    def state_matrix(self) -> np.ndarray:
        return self.states

    @property
    def endpoint(self) -> np.ndarray:
        return self.states[-1]


ORACLE_SUBSTEPS = 4000  # of the RK4 reference a window's endpoint is measured against

# Bytes (as float64 arrays) of the schedule and coefficient tables that
# rk4_oracle holds at once; the substeps of an interval are tabulated in
# chunks that fit, so memory does not grow with the substep count.  A
# lam-independent model tabulates f and g^2/(2 sigma) alone, 32 bytes a
# substep; the budget is the least that holds an ORACLE_SUBSTEPS interval
# in one chunk.
ORACLE_TABLE_BYTES = 32 * ORACLE_SUBSTEPS


def _oracle_chunk(m: PolyNoiseModel) -> int:
    """Substeps per table chunk: two tabulated times per substep, each
    holding f, g^2/(2 sigma) and, if they depend on lam, the eps
    coefficients."""
    per_time = sum(cj[0].size for cj in m.blocks) * any(cj.shape[0] > 1 for cj in m.blocks)
    return max(1, ORACLE_TABLE_BYTES // (2 * 8 * (2 + per_time)))


def _eps_rows(m: PolyNoiseModel, tables) -> list:
    """eps's coefficients at each point of ``tables`` (an eps table over
    points, or a run's step maps by degree) as :func:`_eps_at` reads them:
    the arguments of :func:`carlift.model._kron_sum` for a kron model, on
    the monomials of the tables' own top degree; the arguments of
    :func:`carlift.model._horner`, J+1 floats for one coordinate or (J+1, d)
    rows for d > 1, for a separable one."""
    rows = np.concatenate(tables, axis=2)
    if m.mode == "kron":
        mono = _monomials(m.d, len(tables) - 1)
        return [(mono, F) for F in rows]
    rows = rows[..., ::-1]
    return rows[:, 0].tolist() if m.d == 1 else list(rows.transpose(0, 2, 1))


def _eps_at(m: PolyNoiseModel, row, x):
    """eps, or a step map, at the state x, as :func:`_start` gives it,
    from one of :func:`_eps_rows`."""
    return _kron_sum(*row, x) if m.mode == "kron" else _horner(row, x)


def _start(m: PolyNoiseModel, x_T, nodes: int):
    """The (nodes, d) states of a run from x_T, row 0 set, and x_T as the
    reference steppers step it: a Python float for one coordinate, a list
    of d floats for a kron model, else an array.  The RK4 and sampler
    arithmetic on floats, and :func:`carlift.model._kron_sum` on lists,
    give the bits of the same steps on arrays."""
    x = np.atleast_1d(np.asarray(x_T, dtype=float))
    if x.shape != (m.d,):
        raise ValueError(f"state must have shape ({m.d},)")
    states = np.empty((nodes, m.d))
    states[0] = x
    return states, x.tolist() if m.mode == "kron" else float(x[0]) if m.d == 1 else x


def rk4_oracle(
    s: NoiseSchedule,
    m: PolyNoiseModel,
    x_T,
    times,
    substeps: int = 2000,
) -> SolverRun:
    """Classic fixed-step RK4 integration of the sampling ODE in t.

    ``times`` are the record nodes, strictly decreasing, and ``substeps``
    applies per interval between them; a span (t0, t1) is one interval
    with only its endpoints recorded.

    The right-hand side is f(t) x + g^2(t) / (2 sigma_t) eps(x, lam(t)).
    Everything in it that depends on t alone is tabulated once per chunk
    of substeps, at the substep starts t (accumulated by t += ht) and
    midpoints t + ht/2; a substep's end is the next one's start.  The
    loop then evaluates only the x-dependent part of eps, from
    :func:`_eps_rows` for a kron model and :func:`_stage_rows` for a
    separable one.  When eps does not depend on lam, every substep reads
    one shared set of its rows, made once.  The state steps as
    :func:`_start` gives it.
    """
    if substeps < 1:
        raise ValueError("need substeps >= 1")
    times = np.asarray(times, dtype=float)
    states, y = _start(m, x_T, len(times))
    nfe = 0
    chunk = _oracle_chunk(m)
    # a lam-independent model's blocks are its tables at any one point
    kron = m.mode == "kron"
    rk4, rows_of = (_rk4_lists, _eps_rows) if kron else (_rk4_horner, _stage_rows)
    shared = rows_of(m, m.blocks) if all(cj.shape[0] == 1 for cj in m.blocks) else None
    for n, (ta, tb) in enumerate(zip(times[:-1], times[1:]), start=1):
        ht = float((tb - ta) / substeps)
        t = ta
        for done in range(0, substeps, chunk):
            cnt = min(chunk, substeps - done)
            tt = np.empty(2 * cnt + 1)
            tt[0::2] = np.add.accumulate(np.concatenate(([t], np.full(cnt, ht))))
            tt[1::2] = tt[0:-1:2] + 0.5 * ht
            f = s.f(tt).tolist()
            c = (s.g2(tt) / (2.0 * s.sigma(tt))).tolist()
            if shared is None:
                rows = rows_of(m, _eps_tables(m, s.lam(tt)))
            else:
                rows = shared * (2 * cnt + 1) if kron else shared
            y = rk4(y, f, c, rows, cnt, ht)
            t = tt[-1]
            nfe += 4 * cnt
        states[n] = y
    grid = TimeGrid(t=times, lam=np.asarray(s.lam(times), dtype=float))
    return SolverRun(grid=grid, states=states, nfe=nfe, scheme="rk4")


def _stage_rows(m: PolyNoiseModel, tables) -> list:
    """A separable model's :func:`_eps_rows` as :func:`_rk4_horner` reads
    them, each row made once: (its coefficients above the lowest four, c3,
    c2, c1, c0), highest degree first, a row of fewer than four led by +0.0
    terms.  Such a term adds nothing: 0.0 z + 0.0 is +0.0 at a finite z,
    so the next step (+0.0) z + c_J has the bits of Horner's first, 0.0 z +
    c_J, and a non-finite z gives NaN either way."""
    out = []
    for row in _eps_rows(m, tables):
        row = [0.0] * (4 - len(row)) + list(row)
        out.append((tuple(row[:-4]), *row[-4:]))
    return out


def _rk4_horner(y, f: list, c: list, rows: list, cnt: int, ht: float):
    """``cnt`` substeps of :func:`rk4_oracle`'s loop from a separable
    model's state y, a Python float or an array, over one chunk's tables;
    ``rows`` are :func:`_stage_rows`, one per tabulated time, or a single
    row that every stage reads, its coefficients bound once per chunk.
    eps at a stage is :func:`_eps_at`'s Horner: any coefficients above the
    lowest four folded by :func:`carlift.model._horner`, the lowest four
    written out."""
    half, sixth, varying = 0.5 * ht, ht / 6.0, len(rows) > 1
    hi, a3, a2, a1, a0 = rows[0]
    for i, f0, f1, f2, c0, c1, c2 in zip(range(0, 2 * cnt, 2), f[::2], f[1::2], f[2::2],
                                         c[::2], c[1::2], c[2::2]):
        if varying:
            hi, a3, a2, a1, a0 = rows[i]
        e = _horner(hi, y) if hi else 0.0
        k1 = f0 * y + c0 * ((((e * y + a3) * y + a2) * y + a1) * y + a0)
        if varying:
            hi, a3, a2, a1, a0 = rows[i + 1]
        z = y + half * k1
        e = _horner(hi, z) if hi else 0.0
        k2 = f1 * z + c1 * ((((e * z + a3) * z + a2) * z + a1) * z + a0)
        z = y + half * k2
        e = _horner(hi, z) if hi else 0.0
        k3 = f1 * z + c1 * ((((e * z + a3) * z + a2) * z + a1) * z + a0)
        if varying:
            hi, a3, a2, a1, a0 = rows[i + 2]
        z = y + ht * k3
        e = _horner(hi, z) if hi else 0.0
        k4 = f2 * z + c2 * ((((e * z + a3) * z + a2) * z + a1) * z + a0)
        y = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def _rk4_lists(y: list, f: list, c: list, rows: list, cnt: int, ht: float) -> list:
    """``cnt`` substeps of :func:`rk4_oracle`'s loop from a kron state y, a
    list of d floats, over one chunk's tables, each arithmetic operation
    applied elementwise as on arrays; ``rows`` are :func:`_eps_rows`.  A
    substep reads its three tabulated times' coefficient matrices and
    schedule floats once; a stage at z is one
    :func:`carlift.model._kron_dot` pass, e, and k = f z + c (0.0 + e),
    eps summed from +0 inside the stage as :func:`_eps_at` sums it; k4 is
    formed inside the substep's sum."""
    half, sixth, mono = 0.5 * ht, ht / 6.0, rows[0][0]
    for i in range(0, 2 * cnt, 2):
        F0, F1, F2 = rows[i][1], rows[i + 1][1], rows[i + 2][1]
        f0, f1, f2, c0, c1, c2 = f[i], f[i + 1], f[i + 2], c[i], c[i + 1], c[i + 2]
        k1 = [f0 * a + c0 * (0.0 + e) for a, e in zip(y, _kron_dot(mono, F0, y))]
        z = [a + half * b for a, b in zip(y, k1)]
        k2 = [f1 * a + c1 * (0.0 + e) for a, e in zip(z, _kron_dot(mono, F1, z))]
        z = [a + half * b for a, b in zip(y, k2)]
        k3 = [f1 * a + c1 * (0.0 + e) for a, e in zip(z, _kron_dot(mono, F1, z))]
        z = [a + ht * b for a, b in zip(y, k3)]
        y = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + (f2 * z4 + c2 * (0.0 + e)))
             for a, b1, b2, b3, z4, e in zip(y, k1, k2, k3, z, _kron_dot(mono, F2, z))]
    return y


def _step_table(s: NoiseSchedule, lams: np.ndarray, order: int, span: int, ntails: int,
                variant: str = "bh2"):
    """Per step over the log-SNRs ``lams``, from node j to node j + span:
    the ratio alpha_{j+span} / alpha_j formed from log alpha, sigma at the
    target, the node fractions r[j, m] = (lams[j+m+1] - lams[j]) / h[j],
    the width h[j] and tail_0..tail_{ntails-1} of it, each distinct
    width's tails summed once.  Both weight tables check ``order``,
    ``variant`` and ``lams`` here."""
    if order not in (1, 2, 3):
        raise ValueError("supported orders are 1, 2 and 3")
    if variant not in ("bh1", "bh2"):
        raise ValueError(f"unknown variant {variant!r}")
    lams = np.asarray(lams, dtype=float)
    if lams.ndim != 1 or not np.all(np.diff(lams) > 0.0):
        raise ValueError("log-SNRs must be a strictly increasing 1-d array")
    nodes = lams[np.arange(max(len(lams) - span, 0))[:, None] + np.arange(span + 1)]
    h = nodes[:, -1] - nodes[:, 0]
    hs = h.tolist()
    tails = {w: [exp_taylor_tail(n, w) for n in range(ntails)] for w in set(hs)}
    log_alpha = s.log_alpha_from_lam(lams)
    return (np.exp(log_alpha[span:] - log_alpha[:-span]), s.sigma_from_lam(lams[span:]),
            (nodes[:, 1:] - nodes[:, :1]) / h[:, None], h,
            np.array([tails[w] for w in hs]).reshape(-1, ntails))


def dpm_weights(s: NoiseSchedule, lams: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of the order-k Taylor steps over the log-SNRs ``lams``.

    Step i, from lams[i] to lams[i+1], is x_{i+1} = ratio[i] x_i +
    sum_{n<k} c[i, n] eps^{(n)}(x_i, lams[i]) with ratio[i] =
    alpha_{i+1} / alpha_i, formed from log alpha, and c[i, n] =
    -alpha_{i+1} I_n = -sigma_{i+1} tail_n(h_i), eps^{(n)} the total
    lambda-derivatives expanded around lams[i] and I_n the exponential
    moments over the step of width h_i; each distinct width's tails are
    summed once per call.  Returns the (M,) ratios and the (M, k)
    weights of the M = len(lams) - 1 steps.
    """
    ratio, sigma, _, _, tails = _step_table(s, lams, k, 1, k)
    return ratio, -sigma[:, None] * tails


def _degree_blocks(table: list) -> dict[int, np.ndarray]:
    """The (S, d, n_q) coefficient blocks of an eps table over S points, by
    degree q, leaving out the degrees that are zero at every point."""
    return {q: B for q, B in enumerate(table) if B.any()}


def _step_maps(ratio: np.ndarray, terms, m: PolyNoiseModel) -> dict[int, np.ndarray]:
    """The step maps x -> ratio x + sum_n c_n E_n(x), stacked over the steps
    in the layout of ``m``'s blocks: ``terms`` lists (c_n, E_n), each c_n
    one weight per step and E_n the {q: (S, d, n_q)} blocks it scales.
    Degree 1 comes first, then each degree as the terms first show it."""
    P = {1: ratio[:, None, None] * (np.eye(m.d) if m.mode == "kron" else np.ones((m.d, 1)))}
    for cn, E in terms:
        for q, B in E.items():
            P[q] = P.get(q, 0.0) + cn[:, None, None] * B
    return P


def step_polynomials_dpm(s: NoiseSchedule, m: PolyNoiseModel, lams: np.ndarray,
                         k: int) -> dict[int, np.ndarray]:
    """Coefficient blocks {q: (M, d, n_q)} of the order-k step maps from
    lams[i] to lams[i+1], stacked over the M steps, each the
    :func:`dpm_weights` step written out on the monomials of x, from one
    derivative tower for all step starts, in the layout of ``m``'s blocks."""
    ratio, c = dpm_weights(s, lams, k)
    tower = _derivative_tower(s, m, k, lams[:-1])
    return _step_maps(ratio, [(cn, _degree_blocks(table)) for cn, table in zip(c.T, tower)], m)


def _apply_weights(ratio: float, c: list, x0, eps: list):
    """ratio x0 + sum_m c[m] eps[m], summed in node order, on a Python
    float or an array x0, or coordinate by coordinate on a list."""
    if isinstance(x0, list):
        return [_apply_weights(ratio, c, a, e) for a, *e in zip(x0, *eps)]
    out = ratio * x0
    for cm, e in zip(c, eps):
        out = out + cm * e
    return out


def _taylor_walk(s: NoiseSchedule, m: PolyNoiseModel, x, lams: np.ndarray, k: int):
    """Order-k single steps from the state x, as :func:`_start` gives it,
    over the log-SNRs ``lams``, yielding each new state: the step's map of
    :func:`step_polynomials_dpm`, the map the lift lifts, at the state."""
    P = step_polynomials_dpm(s, m, lams, k)
    blocks = [P.get(q, np.zeros((len(P[1]), m.d, math.comb(m.n_vars + q - 1, q)))) for q in range(max(P) + 1)]
    for row in _eps_rows(m, blocks):
        x = _eps_at(m, row, x)
        yield x


def uni_weights(s: NoiseSchedule, lams: np.ndarray, p: int, variant: str = "bh2",
                corrector: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Coefficients of the order-p unified steps over the log-SNRs ``lams``.

    Step j runs from anchor lam_0 = lams[j] to target lam_p = lams[j+p]
    through the nodes between: x_p = ratio[j] x_0 + sum_m c[j, m]
    eps(x_m, lam_m), with ratio = alpha_p / alpha_0 formed from log
    alpha, over the nodes m < p for the predictor and m <= p for the
    corrector (x_p then being the predictor output).  With h = lam_p -
    lam_0, node fractions r_m = (lam_{m+1} - lam_0) / h and B(h) = h
    ("bh1") or e^h - 1 ("bh2"), the weights a_m solve the order conditions

        sum_m a_m r_m^{n-1} = n! tail_n(h) / (h^n B(h))

    over n = 1..p-1 for the predictor (no a_m at p = 1) or n = 1..p for
    the corrector.  With w_m = sigma_p B(h) a_m / r_m, c[j, 0] =
    -sigma_p tail_0(h) + sum_m w_m, the first term being -alpha_p I_0,
    and c[j, m] = -w_m for m >= 1.  Both tables share the ratios and read
    one step table; the distinct (r, h) systems are found once per call
    and solved in one stacked solve per table.  Returns the ratios, the
    (len(lams) - p, p) predictor weights and the (len(lams) - p, p + 1)
    corrector weights, None without ``corrector``.
    """
    ratio, sigma, r, h, tails = _step_table(s, lams, p, p, p + corrector, variant)
    rows = list(map(tuple, np.column_stack([r, h]).tolist()))
    system = {row: n for n, row in enumerate(dict.fromkeys(rows))}  # one per distinct (r, h) row
    inv = np.array([system[row] for row in rows], dtype=np.intp)
    first = np.empty(len(system), np.intp)
    first[inv] = np.arange(len(rows))  # a step of each system
    hk = h[first].tolist()
    Bh = np.array(hk if variant == "bh1" else [float(np.expm1(w)) for w in hk])
    tables = []
    for n_w in range(p - 1, p + corrector):
        rk = r[first, :n_w]
        # the moments on Python floats, the Vandermonde rows as running products
        g = [[math.factorial(n) * t[n] / w**n / b for n in range(1, n_w + 1)]
             for w, b, t in zip(hk, Bh.tolist(), tails[first].tolist())]
        V = np.ones((len(rk), n_w, n_w))
        for n in range(1, n_w):
            V[:, n] = V[:, n - 1] * rk
        a = np.linalg.solve(V, np.reshape(g, (len(rk), n_w, 1)))[..., 0]
        w = (sigma * Bh[inv])[:, None] * (a / rk)[inv]
        tables.append(np.column_stack([-sigma * tails[:, 0] + w.sum(axis=1), -w]))
    pred, corr = tables if corrector else (tables[0], None)
    return ratio, pred, corr


def run_dpm(
    s: NoiseSchedule,
    m: PolyNoiseModel,
    x_T,
    grid: TimeGrid,
    k: int,
) -> SolverRun:
    """Run the order-k derivative-based sampler over the grid."""
    states, x = _start(m, x_T, grid.M + 1)
    states[1:] = np.reshape(list(_taylor_walk(s, m, x, grid.lam, k)), (-1, m.d))
    return SolverRun(grid=grid, states=states, nfe=k * grid.M, scheme=f"dpm{k}")


def run_unipc(
    s: NoiseSchedule,
    m: PolyNoiseModel,
    x_T,
    grid: TimeGrid,
    p: int,
    variant: str = "bh2",
    corrector: bool = False,
) -> SolverRun:
    """Run the unified predictor(/corrector) sampler over the grid.

    The step to node i anchors at node i-p and reuses the p-1 grid nodes
    in between, after a warm-up of min(p-1, M) order-p :func:`_taylor_walk`
    steps; each state's eps, the warm-up's too, is read once from one table
    over the grid, as :func:`_eps_rows`.  States step as :func:`_start` gives them.
    """
    states, x = _start(m, x_T, grid.M + 1)
    ratio, pred, corr = uni_weights(s, grid.lam, p, variant, corrector)
    ratio, pred, corr = ratio.tolist(), pred.tolist(), corr.tolist() if corrector else None
    xs = [x, *_taylor_walk(s, m, x, grid.lam[:p], p)]  # the states; eps at each is evaluated once
    states[1:p] = np.reshape(xs[1:], (-1, m.d))
    nfe = p * (len(xs) - 1)  # a warm-up step evaluates eps and its first p - 1 derivatives
    (table,) = _derivative_tower(s, m, 1, grid.lam)
    rows = _eps_rows(m, table)
    eps = [_eps_at(m, rows[i], xs[i]) for i in range(p - 1)]  # the warm-up's history
    for i in range(p, grid.M + 1):
        j = i - p
        eps.append(_eps_at(m, rows[i - 1], xs[i - 1]))
        x = _apply_weights(ratio[j], pred[j], xs[j], eps[j:i])
        nfe += 1  # eps at the newest state; the older history is cached in eps
        if corrector:
            x = _apply_weights(ratio[j], corr[j], xs[j], eps[j:i] + [_eps_at(m, rows[i], x)])
            nfe += 1
        xs.append(x)
        states[i] = x
    return SolverRun(grid=grid, states=states, nfe=nfe, scheme=("unic" if corrector else "unip") + str(p))


def run_scheme(
    s: NoiseSchedule,
    m: PolyNoiseModel,
    x_T,
    grid: TimeGrid,
    scheme: str,
    order: int,
    variant: str = "bh2",
) -> SolverRun:
    """Run the sampler named by ``scheme`` at ``order``: "dpm" is
    :func:`run_dpm`, "unip" and "unic" are :func:`run_unipc` without and
    with the corrector."""
    if scheme == "dpm":
        return run_dpm(s, m, x_T, grid, k=order)
    if scheme in ("unip", "unic"):
        return run_unipc(s, m, x_T, grid, p=order, variant=variant, corrector=scheme == "unic")
    raise ValueError(f"unknown scheme {scheme!r}")
