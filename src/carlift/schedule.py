"""Variance-preserving noise schedules and log-SNR time grids.

The schedule fixes the scalar coefficients of the probability-flow ODE

    dx/dt = f(t) x + (g(t)^2 / (2 sigma_t)) eps(x, t),

with alpha_t^2 + sigma_t^2 = 1, f = d log(alpha)/dt and g^2 = -2 f for the
variance-preserving family.  Everything downstream is parametrised by the
log signal-to-noise ratio lam = log(alpha/sigma), which decreases
monotonically in t, so solver grids are built uniform in lam and mapped
back to t by root finding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq
from scipy.special import expit

__all__ = [
    "NoiseSchedule",
    "TimeGrid",
    "make_vp_schedule",
    "make_lambda_grid",
    "taylor_integral",
    "exp_taylor_tail",
    "phi_moment",
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

    # Lambda-domain views.  alpha^2 = 1/(1+e^{-2 lam}) and
    # sigma^2 = 1/(1+e^{2 lam}); expit keeps both stable for large |lam|.

    def alpha_from_lam(self, lam):
        return np.sqrt(expit(2.0 * np.asarray(lam, dtype=float)))

    def sigma_from_lam(self, lam):
        return np.sqrt(expit(-2.0 * np.asarray(lam, dtype=float)))

    def t_from_lam(self, lam_target: float, t_lo: float, t_hi: float) -> float:
        """Invert lam(t) = lam_target on [t_lo, t_hi] by bracketed root finding.

        Raises ConvergenceError if the root does not reproduce the target
        log-SNR to 1e-10.
        """
        from .errors import ConvergenceError

        g = lambda t: float(self.lam(t) - lam_target)
        g_lo, g_hi = g(t_lo), g(t_hi)
        if g_lo < 0.0 or g_hi > 0.0:
            # lam decreases in t, so lam(t_lo) >= target >= lam(t_hi) is required
            raise ValueError(
                f"lam={lam_target} not bracketed by t in [{t_lo}, {t_hi}] "
                f"(lam range [{self.lam(t_hi)}, {self.lam(t_lo)}])"
            )
        t_hat = brentq(g, t_lo, t_hi, xtol=1e-15, rtol=8.9e-16, maxiter=200)
        if abs(g(t_hat)) > 1e-10:
            raise ConvergenceError(
                f"lambda inversion residual {abs(g(t_hat)):.3e} above 1e-10",
                residual=abs(g(t_hat)),
            )
        return float(t_hat)


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
    and the t nodes are recovered by inverting the schedule.  Endpoints are
    pinned to the requested times exactly.
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
    t = np.empty(M + 1)
    t[0], t[-1] = t_start, t_end
    for i in range(1, M):
        t[i] = s.t_from_lam(lam[i], t_end, t_start)
    return TimeGrid(t=t, lam=lam)


def exp_taylor_tail(n: int, h: float) -> float:
    """Tail of the exponential series: sum_{k >= n+1} h^k / k!.

    All terms share the sign pattern of h^k, and for the h > 0 steps used
    here the sum is of positive terms, so accumulation is stable without
    cancellation.  Terms are added until they fall below TAIL_REL_TOL of
    the running sum, at most TAIL_MAX_TERMS of them.
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
    raise RuntimeError(f"exponential tail did not converge for n={n}, h={h}")


def taylor_integral(n: int, lam_s: float, lam_t: float) -> float:
    """Weight I_n = int_{lam_s}^{lam_t} e^{-lam} (lam - lam_s)^n / n! dlam.

    Closed form: e^{-lam_s} (1 - e^{-h} sum_{k<=n} h^k/k!) with h the step
    width.  That difference cancels catastrophically for small h, so it is
    evaluated as e^{-lam_s} e^{-h} * sum_{k>n} h^k/k!, which is exact and
    all-positive.
    """
    h = lam_t - lam_s
    if h <= 0.0:
        raise ValueError("need lam_t > lam_s")
    return math.exp(-lam_s) * math.exp(-h) * exp_taylor_tail(n, h)


def phi_moment(n: int, h: float) -> float:
    """Scaled exponential-integrator moment n! * h * phi_{n+1}(h).

    phi_1(h) = (e^h - 1)/h and phi_{k+1}(h) = (phi_k(h) - 1/k!)/h; the
    combination returned here equals n! * tail_{n}(h) / h^n with
    tail_n(h) = sum_{k>n} h^k/k!, which is how it is computed (no
    cancellation for small h).
    """
    if h == 0.0:
        raise ValueError("need h != 0")
    return math.factorial(n) * exp_taylor_tail(n, h) / h**n
