"""Variance-preserving noise schedules and log-SNR time grids.

The schedule fixes the scalar coefficients of the probability-flow ODE

    dx/dt = f(t) x + (g(t)^2 / (2 sigma_t)) eps(x, t),

with alpha_t^2 + sigma_t^2 = 1, f = d log(alpha)/dt and g^2 = -2 f for the
variance-preserving family.  Everything downstream is parametrised by the
log signal-to-noise ratio lam = log(alpha/sigma), which decreases
monotonically in t, so solver grids are built uniform in lam and mapped
back to t by the closed-form inverse of the linear-beta log-SNR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .errors import ConvergenceError

__all__ = [
    "NoiseSchedule",
    "TimeGrid",
    "make_vp_schedule",
    "make_lambda_grid",
    "exp_taylor_tail",
]

# Relative floor below which t is considered too close to the data end of
# the schedule for the ODE coefficients to be trustworthy.
T_FLOOR_FRACTION = 1e-3

# Stopping rule of exp_taylor_tail: a term below this share of the running
# sum ends the series, which must happen within this many terms.
TAIL_REL_TOL = 1e-17
TAIL_MAX_TERMS = 500


@dataclass(frozen=True)
class NoiseSchedule:
    """Variance-preserving schedule with a linear beta(t) profile.

    log alpha_t = -t^2 (beta_max - beta_min) / (4 T) - t beta_min / 2

    All methods accept scalars or numpy arrays.
    """

    beta_min: float
    beta_max: float
    T: float

    def __post_init__(self) -> None:
        if not (0.0 < self.beta_min < self.beta_max):
            raise ValueError("need 0 < beta_min < beta_max")
        if self.T <= 0.0:
            raise ValueError("need T > 0")

    @property
    def t_floor(self) -> float:
        """Earliest time a grid may reach, T_FLOOR_FRACTION of T."""
        return T_FLOOR_FRACTION * self.T

    def beta(self, t):
        return self.beta_min + (self.beta_max - self.beta_min) * np.asarray(t) / self.T

    def log_alpha(self, t):
        t = np.asarray(t, dtype=float)
        return -0.25 * t**2 * (self.beta_max - self.beta_min) / self.T - 0.5 * t * self.beta_min

    def alpha(self, t):
        return np.exp(self.log_alpha(t))

    def sigma(self, t):
        return np.sqrt(-np.expm1(2.0 * self.log_alpha(t)))

    def lam(self, t):
        """Log-SNR log(alpha_t / sigma_t); +inf at t = 0."""
        la = self.log_alpha(t)
        with np.errstate(divide="ignore"):
            return la - 0.5 * np.log(-np.expm1(2.0 * la))

    def f(self, t):
        """Drift coefficient d log(alpha)/dt = -beta(t)/2."""
        return -0.5 * self.beta(t)

    def g2(self, t):
        """Squared diffusion coefficient, g^2(t) = beta(t)."""
        return self.beta(t)

    # Lambda-domain views.  sigma^2 = 1/(1+e^{2 lam}); expit keeps it
    # stable for large |lam|.

    def sigma_from_lam(self, lam):
        return np.sqrt(expit(-2.0 * np.asarray(lam, dtype=float)))

    def log_alpha_from_lam(self, lam):
        """log alpha = -log(1 + e^{-2 lam}) / 2, finite where alpha underflows."""
        return -0.5 * np.logaddexp(0.0, -2.0 * np.asarray(lam, dtype=float))

    def t_from_lam(self, lam):
        """Time at which the log-SNR equals lam, in closed form.

        log alpha = -log(1 + e^{-2 lam}) / 2, and t is the positive root of
        a t^2 + b t + log alpha = 0 with a = (beta_max - beta_min) / (4 T)
        and b = beta_min / 2, written as -2 log alpha / (b + sqrt(b^2 -
        4 a log alpha)) so that no digits cancel.
        """
        log_alpha = self.log_alpha_from_lam(lam)
        a = 0.25 * (self.beta_max - self.beta_min) / self.T
        b = 0.5 * self.beta_min
        return -2.0 * log_alpha / (b + np.sqrt(b * b - 4.0 * a * log_alpha))


def make_vp_schedule(beta_min: float, beta_max: float, T: float) -> NoiseSchedule:
    """Build the linear-beta variance-preserving schedule."""
    return NoiseSchedule(beta_min=beta_min, beta_max=beta_max, T=T)


@dataclass(frozen=True)
class TimeGrid:
    """Solver grid of M+1 nodes, decreasing in t and increasing in lam.

    h[i] = lam[i+1] - lam[i] > 0 are the log-SNR step widths.
    """

    t: np.ndarray
    lam: np.ndarray
    h: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        t = np.asarray(self.t, dtype=float)
        lam = np.asarray(self.lam, dtype=float)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "h", np.diff(lam))
        if t.ndim != 1 or t.shape != lam.shape or len(t) < 1:
            raise ValueError("t and lam must be matching 1-d arrays")
        if len(t) > 1:
            if not np.all(np.diff(t) < 0.0):
                raise ValueError("grid times must be strictly decreasing")
            if not np.all(self.h > 0.0):
                raise ValueError("log-SNR steps must be strictly positive")

    @property
    def M(self) -> int:
        return len(self.t) - 1


def make_lambda_grid(s: NoiseSchedule, t_start: float, t_end: float, M: int) -> TimeGrid:
    """Uniform-in-lambda grid of M steps from t_start down to t_end.

    Node i sits at lam_i = lam(t_start) + i * (lam(t_end) - lam(t_start)) / M,
    and the t nodes are recovered by the schedule's closed-form inverse.
    Endpoints are pinned to the requested times exactly.
    """
    if M < 1:
        raise ValueError("need at least one step")
    if not (t_start > t_end >= s.t_floor):
        raise ValueError(
            f"need t_start > t_end >= t_floor ({s.t_floor:g}), got ({t_start}, {t_end})"
        )
    lam0 = float(s.lam(t_start))
    lam1 = float(s.lam(t_end))
    lam = np.linspace(lam0, lam1, M + 1)
    t = s.t_from_lam(lam)
    t[0], t[-1] = t_start, t_end
    return TimeGrid(t=t, lam=lam)


def exp_taylor_tail(n: int, h: float) -> float:
    """Tail of the exponential series: sum_{k >= n+1} h^k / k!.

    All terms share the sign pattern of h^k, and for the h > 0 steps used
    here the sum is of positive terms, so accumulation is stable without
    cancellation.  Terms are added until they fall below TAIL_REL_TOL of
    the running sum, at most TAIL_MAX_TERMS of them; ConvergenceError
    otherwise.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    term = h ** (n + 1) / math.factorial(n + 1)
    total = term
    for k in range(n + 2, n + 2 + TAIL_MAX_TERMS):
        term *= h / k
        total += term
        if abs(term) <= TAIL_REL_TOL * abs(total):
            return total
    raise ConvergenceError(f"exponential tail did not converge for n={n}, h={h}",
                           iterations=TAIL_MAX_TERMS)
