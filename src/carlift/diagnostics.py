"""Spectral dissipativity diagnostics and convergence sweeps.

Along a sampled trajectory the drift Jacobian

    J(t) = f(t) I + (g^2(t) / (2 sigma_t)) d eps/dx

is symmetrised and its eigenvalues lambda_i(t) tracked.  Normalising by
the largest magnitude over the whole run, a_i(t) = lambda_i(t) / max
|lambda|, the survival product

    P(t_j) = (1/d) sum_i prod_{j' <= j} (1 - a_i(t_{j'}))

decays monotonically exactly when the spectrum stays positive
(a dissipative run) and grows when eigenvalues go negative.  The trace
reads a run's states at its grid's times, all nodes in one pass
(:func:`carlift.model._drift_spectra`); the truncation sweep lifts each
N's system by :func:`carlift.carleman.lift_run`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .carleman import CarlemanBasis, LiftedState, lift_run
from .model import PolyNoiseModel, _drift_spectra
from .reference import ORACLE_SUBSTEPS, SolverRun, rk4_oracle, run_scheme
from .schedule import NoiseSchedule, TimeGrid, make_lambda_grid
from .system import condition_number

__all__ = [
    "SpectrumTrace",
    "PTrace",
    "TruncationRow",
    "OrderSweep",
    "fit_slope",
    "spectrum_trace",
    "dissipativity_P",
    "truncation_sweep",
    "order_sweep",
]


@dataclass
class SpectrumTrace:
    """Sorted eigenvalues of the symmetrised drift Jacobian per node."""

    times: np.ndarray
    eigs: np.ndarray  # (n_nodes, d), ascending within each row
    normalization: float


@dataclass
class PTrace:
    times: np.ndarray
    P: np.ndarray
    a: np.ndarray
    flagged: bool  # all-zero spectrum, P identically 1 by convention


def spectrum_trace(s: NoiseSchedule, m: PolyNoiseModel, run: SolverRun) -> SpectrumTrace:
    """Eigenvalue trace of J + J^T along the states of a run, at its grid's
    times, taken for the whole run at once."""
    times = np.array(run.grid.t)
    eigs = _drift_spectra(s, m, run.states, times)
    return SpectrumTrace(times=times, eigs=eigs, normalization=float(np.abs(eigs).max()))


def dissipativity_P(trace: SpectrumTrace) -> PTrace:
    """Survival product P along the trace.

    With the normalization max |lambda| = 0 (identically zero spectrum)
    every a_i is taken as 0, P stays at 1, and the trace is flagged.
    """
    flagged = trace.normalization == 0.0
    a = np.zeros_like(trace.eigs) if flagged else trace.eigs / trace.normalization
    P = np.cumprod(1.0 - a, axis=0).mean(axis=1)
    return PTrace(times=np.array(trace.times), P=P, a=a, flagged=flagged)


@dataclass
class TruncationRow:
    N: int
    error: float
    defect: float
    kappa: float


def truncation_sweep(
    s: NoiseSchedule,
    m: PolyNoiseModel,
    x_T,
    grid: TimeGrid,
    k: int,
    N_list,
    oracle_substeps: int = ORACLE_SUBSTEPS,
    with_kappa: bool = True,
) -> list[TruncationRow]:
    """Endpoint error, lifting defect, and conditioning versus truncation N.

    The error compares block 1 of the lifted endpoint against an RK4
    oracle endpoint; the defect is || y_2 - lift(y_1)_2 || at the endpoint
    (``LiftedState.consistency_defect``, symmetric-monomial basis; zero on
    exactly lifted states, NaN at N = 1 where there is no second block).
    Each N's trajectory system is assembled once and solved forward once;
    the endpoint is its last block, and kappa is that system's.
    """
    oracle = rk4_oracle(
        s, m, x_T, substeps=oracle_substeps, times=(float(grid.t[0]), float(grid.t[-1])),
    ).endpoint
    rows = []
    for N in N_list:
        basis = CarlemanBasis(N=N, d=m.d)
        system, _ = lift_run(s, m, x_T, grid, basis, "dpm", k)
        end = LiftedState(basis, system.mat.solve(system.rhs)[-basis.dim_total :])
        err = float(np.linalg.norm(end.block(1) - oracle))
        defect = end.consistency_defect() if N >= 2 else float("nan")
        kappa = condition_number(system).kappa if with_kappa else float("nan")
        rows.append(TruncationRow(N=N, error=err, defect=defect, kappa=kappa))
    return rows


@dataclass
class OrderSweep:
    h: np.ndarray
    errors: np.ndarray
    slope: float
    used: np.ndarray  # mask of points above the accuracy floor


def order_sweep(
    s: NoiseSchedule,
    m: PolyNoiseModel,
    x_T,
    t_start: float,
    t_end: float,
    scheme: str,
    order: int,
    M_list=(8, 16, 32, 64, 128),
    oracle_substeps: int = ORACLE_SUBSTEPS,
) -> OrderSweep:
    """Empirical convergence order of a sampler on a fixed window.

    Runs the scheme over uniform log-SNR grids of M steps, measures the
    endpoint error against a shared RK4 oracle, and fits log error
    against log mean step width by :func:`fit_slope`, at the oracle
    endpoint's scale; ``used`` marks the points fitted.
    """
    oracle = rk4_oracle(s, m, x_T, substeps=oracle_substeps, times=(t_start, t_end)).endpoint
    errors = np.empty(len(M_list))
    hs = np.empty(len(M_list))
    for idx, M in enumerate(M_list):
        grid = make_lambda_grid(s, t_start, t_end, int(M))
        hs[idx] = grid.h.mean()
        run = run_scheme(s, m, x_T, grid, scheme, order)
        errors[idx] = float(np.linalg.norm(run.endpoint - oracle))
    slope, used = fit_slope(hs, errors, float(np.linalg.norm(oracle)))
    return OrderSweep(h=hs, errors=errors, slope=slope, used=used)


def fit_slope(x, errors, scale) -> tuple[float, np.ndarray]:
    """Least-squares slope of log error against log x (libm logs) over the
    points whose error is finite and above the rounding floor 100 eps
    max(1, scale), ``scale`` the solution's norm, one or one per point.
    Returns the slope and the mask of points fitted; ValueError if fewer
    than two are."""
    errors = np.asarray(errors, dtype=float)
    used = np.isfinite(errors) & (errors > 100.0 * np.finfo(float).eps * np.maximum(1.0, scale))
    if used.sum() < 2:
        raise ValueError("too few points above the error floor to fit a slope")
    log_x = [math.log(v) for v in np.asarray(x, dtype=float)[used].tolist()]
    log_err = [math.log(v) for v in errors[used].tolist()]
    return float(np.polyfit(log_x, log_err, 1)[0]), used
