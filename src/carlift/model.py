"""Polynomial noise-prediction models and their lambda-derivatives.

A model is a polynomial map eps(x, lam) in the state x and the log-SNR
lam.  Three coupling modes are supported:

* ``scalar``: d = 1, coefficients c[j, l] of x^j lam^l.
* ``separable``: each coordinate i evolves under its own scalar
  polynomial, coefficients c[i, j, l].
* ``kron``: full tensor coupling; the degree-j term is a matrix
  C_j(lam) of shape (d, d^j) acting on the Kronecker power x^{(j)},
  with a polynomial lam dependence on the leading axis.

The total lambda-derivative used by higher-order exponential
integrators applies

    D eps = d eps/d lam + (d eps/d x) . (sigma_lam^2 x - sigma_lam eps)

symbolically, with sigma_lam and sigma_lam^2 replaced by fixed-degree
Taylor polynomials around the expansion point supplied by the caller,
so the result is again a polynomial model of the same mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import CapacityError
from .schedule import NoiseSchedule

__all__ = [
    "PolyNoiseModel",
    "scalar_model",
    "separable_model",
    "kron_model",
    "zero_model",
    "eval_eps",
    "jacobian_eps",
    "dx_dlambda",
    "drift_jacobian",
    "total_derivative_poly",
    "coeff_matrices",
]

KRON_D_MAX = 4
MAX_X_DEGREE = 24
MAX_LAM_DEGREE = 64
MAX_KRON_COLUMNS = 65536
SIGMA_TAYLOR_DEGREE = 4


@dataclass(frozen=True)
class PolyNoiseModel:
    """Polynomial eps(x, lam); immutable after construction."""

    mode: str
    d: int
    coeffs: object  # mode-dependent, see module docstring

    def __post_init__(self) -> None:
        if self.mode not in ("scalar", "separable", "kron"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.d < 1:
            raise ValueError("need d >= 1")
        if self.mode == "scalar":
            if self.d != 1:
                raise ValueError("scalar mode requires d = 1")
            c = np.array(self.coeffs, dtype=float)
            if c.ndim != 2:
                raise ValueError("scalar coefficients must be 2-d (x-degree, lam-degree)")
        elif self.mode == "separable":
            c = np.array(self.coeffs, dtype=float)
            if c.ndim != 3 or c.shape[0] != self.d:
                raise ValueError("separable coefficients must have shape (d, J+1, L+1)")
        else:
            if self.d > KRON_D_MAX:
                raise CapacityError(f"kron mode supports d <= {KRON_D_MAX}")
            blocks = []
            for j, cj in enumerate(self.coeffs):
                cj = np.array(cj, dtype=float)
                if cj.ndim != 3 or cj.shape[1] != self.d or cj.shape[2] != self.d**j:
                    raise ValueError(
                        f"kron degree-{j} block must have shape (L+1, {self.d}, {self.d**j})"
                    )
                cj.flags.writeable = False
                blocks.append(cj)
            object.__setattr__(self, "coeffs", tuple(blocks))
            self._check_capacity()
            return
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)
        self._check_capacity()

    def _check_capacity(self) -> None:
        if self.x_degree > MAX_X_DEGREE:
            raise CapacityError(f"x-degree {self.x_degree} exceeds {MAX_X_DEGREE}")
        if self.lam_degree > MAX_LAM_DEGREE:
            raise CapacityError(f"lam-degree {self.lam_degree} exceeds {MAX_LAM_DEGREE}")
        if self.mode == "kron" and self.d**self.x_degree > MAX_KRON_COLUMNS:
            raise CapacityError("kron coefficient block too large")

    @property
    def x_degree(self) -> int:
        if self.mode == "kron":
            return len(self.coeffs) - 1
        return self.coeffs.shape[-2] - 1

    @property
    def lam_degree(self) -> int:
        if self.mode == "kron":
            return max(cj.shape[0] for cj in self.coeffs) - 1
        return self.coeffs.shape[-1] - 1


def scalar_model(terms) -> PolyNoiseModel:
    """Build a scalar model from {(j, l): coeff} or a 2-d coefficient array."""
    if isinstance(terms, dict):
        jmax = max((j for j, _ in terms), default=0)
        lmax = max((l for _, l in terms), default=0)
        c = np.zeros((jmax + 1, lmax + 1))
        for (j, l), v in terms.items():
            c[j, l] = v
    else:
        c = np.atleast_2d(np.asarray(terms, dtype=float))
    return PolyNoiseModel(mode="scalar", d=1, coeffs=c)


def separable_model(coeffs) -> PolyNoiseModel:
    """Build a separable model from a (d, J+1, L+1) coefficient array."""
    c = np.asarray(coeffs, dtype=float)
    return PolyNoiseModel(mode="separable", d=c.shape[0], coeffs=c)


def kron_model(d: int, terms) -> PolyNoiseModel:
    """Build a kron model from {degree: matrix} with optional lam axis.

    Each value is either a (d, d^j) matrix (lam-independent) or a
    (L+1, d, d^j) array of lam-polynomial coefficients.
    """
    jmax = max(terms, default=0)
    blocks = []
    for j in range(jmax + 1):
        if j in terms:
            arr = np.asarray(terms[j], dtype=float)
            if arr.ndim == 2:
                arr = arr[None, :, :]
            blocks.append(arr)
        else:
            blocks.append(np.zeros((1, d, d**j)))
    return PolyNoiseModel(mode="kron", d=d, coeffs=blocks)


def zero_model(d: int = 1, mode: str = "scalar") -> PolyNoiseModel:
    if mode == "scalar":
        return scalar_model(np.zeros((1, 1)))
    if mode == "separable":
        return separable_model(np.zeros((d, 1, 1)))
    return kron_model(d, {0: np.zeros((1, d, 1))})


# --- batch (scalar / separable) polynomial helpers -----------------------
# A batch polynomial is an array (B, J+1, L+1) of coefficients of
# x^j lam^l, one independent polynomial per batch entry.


def _as_batch(m: PolyNoiseModel) -> np.ndarray:
    if m.mode == "scalar":
        return m.coeffs[None, :, :]
    return m.coeffs


def _from_batch(m: PolyNoiseModel, arr: np.ndarray) -> PolyNoiseModel:
    arr = _trim_batch(arr)
    if m.mode == "scalar":
        return PolyNoiseModel(mode="scalar", d=1, coeffs=arr[0])
    return PolyNoiseModel(mode="separable", d=m.d, coeffs=arr)


def _trim_batch(arr: np.ndarray) -> np.ndarray:
    jmax = 0
    lmax = 0
    nz = np.argwhere(arr != 0.0)
    if len(nz):
        jmax = int(nz[:, 1].max())
        lmax = int(nz[:, 2].max())
    return np.ascontiguousarray(arr[:, : jmax + 1, : lmax + 1])


def _batch_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
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


def _batch_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    B = a.shape[0]
    J = max(a.shape[1], b.shape[1])
    L = max(a.shape[2], b.shape[2])
    out = np.zeros((B, J, L))
    out[:, : a.shape[1], : a.shape[2]] += a
    out[:, : b.shape[1], : b.shape[2]] += b
    return out


# --- sigma Taylor expansions ---------------------------------------------


def _sigma_lambda_polys(s: NoiseSchedule, lam_center: float, degree: int = SIGMA_TAYLOR_DEGREE):
    """Degree-``degree`` polynomials of sigma_lam and sigma_lam^2 in lam.

    Derivatives follow from closed recurrences in q = sigma_lam^2, which
    obeys dq/dlam = -2 q (1 - q):

        q^(n)     = R_n(q),  R_0 = q,      R_{n+1} = -2 q (1-q) R_n'
        sigma^(n) = sigma S_n(q), S_0 = 1, S_{n+1} = -(1-q) S_n - 2 q (1-q) S_n'

    Taylor coefficients at lam_center are then re-expressed in the
    absolute lam basis.  Returns (s1, s2): coefficient arrays for
    sigma_lam and sigma_lam^2.
    """
    from scipy.special import expit

    q0 = float(expit(-2.0 * lam_center))
    sig0 = math.sqrt(q0)

    # -2 q (1-q) as a polynomial in q (ascending coefficients)
    from numpy.polynomial import polynomial as npoly

    shrink = np.array([0.0, -2.0, 2.0])

    R = np.array([0.0, 1.0])  # R_0(q) = q
    S = np.array([1.0])  # S_0(q) = 1
    one_minus = np.array([1.0, -1.0])

    tay_q = np.empty(degree + 1)
    tay_s = np.empty(degree + 1)
    for n in range(degree + 1):
        tay_q[n] = npoly.polyval(q0, R) / math.factorial(n)
        tay_s[n] = sig0 * npoly.polyval(q0, S) / math.factorial(n)
        R = npoly.polymul(npoly.polyder(R), shrink)
        S = npoly.polyadd(npoly.polymul(-one_minus, S), npoly.polymul(shrink, npoly.polyder(S)))

    def shift(taylor: np.ndarray) -> np.ndarray:
        out = np.zeros(degree + 1)
        pw = np.array([1.0])
        base = np.array([-lam_center, 1.0])
        for a in taylor:
            out[: len(pw)] += a * pw
            pw = npoly.polymul(pw, base)
        return out

    return shift(tay_s), shift(tay_q)


# --- evaluation ------------------------------------------------------------


def _kron_power(x: np.ndarray, j: int) -> np.ndarray:
    if j == 0:
        return np.ones(1)
    return reduce(np.kron, [x] * j)


def _lam_collapse(block: np.ndarray, lam: float) -> np.ndarray:
    """Evaluate the leading lam-polynomial axis of a kron block."""
    powers = lam ** np.arange(block.shape[0])
    return np.tensordot(powers, block, axes=(0, 0))


def eval_eps(m: PolyNoiseModel, x, lam: float) -> np.ndarray:
    """Evaluate eps(x, lam); returns an array of shape (d,)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (m.d,):
        raise ValueError(f"state must have shape ({m.d},)")
    if m.mode == "kron":
        out = np.zeros(m.d)
        for j, cj in enumerate(m.coeffs):
            out += _lam_collapse(cj, lam) @ _kron_power(x, j)
        return out
    arr = _as_batch(m)
    clam = np.polynomial.polynomial.polyval(lam, arr.transpose(2, 0, 1))  # (B, J+1)
    out = np.zeros(arr.shape[0])
    for j in range(arr.shape[1] - 1, -1, -1):
        out = out * x + clam[:, j]
    return out


def jacobian_eps(m: PolyNoiseModel, x, lam: float) -> np.ndarray:
    """Jacobian d eps / d x at (x, lam), shape (d, d)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (m.d,):
        raise ValueError(f"state must have shape ({m.d},)")
    if m.mode == "kron":
        out = np.zeros((m.d, m.d))
        for j, cj in enumerate(m.coeffs):
            if j == 0:
                continue
            mat = _lam_collapse(cj, lam)
            for a in range(j):
                left = _kron_power(x, a)[:, None]
                right = _kron_power(x, j - 1 - a)[:, None]
                slab = np.kron(left, np.kron(np.eye(m.d), right))
                out += mat @ slab
        return out
    arr = _as_batch(m)
    clam = np.polynomial.polynomial.polyval(lam, arr.transpose(2, 0, 1))
    dout = np.zeros(arr.shape[0])
    for j in range(arr.shape[1] - 1, 0, -1):
        dout = dout * x + j * clam[:, j]
    return np.diag(dout)


def dx_dlambda(s: NoiseSchedule, m: PolyNoiseModel, x, lam: float) -> np.ndarray:
    """Right-hand side of the flow in lam: sigma^2 x - sigma eps(x, lam)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    sig = float(s.sigma_from_lam(lam))
    return sig**2 * x - sig * eval_eps(m, x, lam)


def drift_jacobian(s: NoiseSchedule, m: PolyNoiseModel, x, t: float) -> np.ndarray:
    """Jacobian of the t-domain drift, f(t) I + g^2/(2 sigma) d eps/dx."""
    if t < s.t_floor:
        raise ValueError(f"t={t} below t_floor={s.t_floor}; sigma_t is numerically singular")
    lam = float(s.lam(t))
    sig = float(s.sigma(t))
    return float(s.f(t)) * np.eye(m.d) + float(s.g2(t)) / (2.0 * sig) * jacobian_eps(m, x, lam)


def drift_eigenvalues(s: NoiseSchedule, m: PolyNoiseModel, x, t: float) -> np.ndarray:
    """Ascending eigenvalues of the symmetrised drift Jacobian J + J^T.

    For scalar and separable models the Jacobian is diagonal and the
    eigenvalues are read off directly, which keeps large-d separable
    sweeps cheap and exact.
    """
    if t < s.t_floor:
        raise ValueError(f"t={t} below t_floor={s.t_floor}; sigma_t is numerically singular")
    if m.mode in ("scalar", "separable"):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        lam = float(s.lam(t))
        arr = _as_batch(m)
        clam = np.polynomial.polynomial.polyval(lam, arr.transpose(2, 0, 1))
        deps = np.zeros(arr.shape[0])
        for j in range(arr.shape[1] - 1, 0, -1):
            deps = deps * x + j * clam[:, j]
        diag = float(s.f(t)) + float(s.g2(t)) / (2.0 * float(s.sigma(t))) * deps
        return np.sort(2.0 * diag)
    J = drift_jacobian(s, m, x, t)
    return np.linalg.eigvalsh(J + J.T)


# --- total lambda-derivative ------------------------------------------------


def _velocity_batch(arr0: np.ndarray, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """dx/dlam = sigma^2 x - sigma eps as a batch polynomial.

    Built from the undifferentiated model; the same velocity enters every
    application of the derivative operator.
    """
    B, J1, L1 = arr0.shape
    Lv = max(len(s2), len(s1) + L1 - 1)
    Jv = max(2, J1)
    v = np.zeros((B, Jv, Lv))
    v[:, 1, : len(s2)] += s2[None, :]
    for l1, c in enumerate(s1):
        if c != 0.0:
            v[:, :J1, l1 : l1 + L1] -= c * arr0
    return _trim_batch(v)


def _deriv_once_batch(arr: np.ndarray, v: np.ndarray) -> np.ndarray:
    B, J1, L1 = arr.shape
    # d/dlam at fixed x
    dlam = arr[:, :, 1:] * np.arange(1, L1)[None, None, :] if L1 > 1 else np.zeros((B, J1, 1))
    if J1 == 1:
        return _trim_batch(dlam)
    # d/dx, contracted against the fixed flow velocity
    dx = arr[:, 1:, :] * np.arange(1, J1)[None, :, None]
    return _trim_batch(_batch_add(dlam, _batch_mul(dx, v)))


def _kron_blocks(m: PolyNoiseModel) -> list[np.ndarray]:
    return [np.array(cj) for cj in m.coeffs]


def _lamconv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Convolve two kron blocks along their leading lam axis (matrix product
    applied elsewhere); here a is (La, p, q) and b a 1-d lam-coefficient
    array, returning (La + len(b) - 1, p, q)."""
    out = np.zeros((a.shape[0] + len(b) - 1,) + a.shape[1:])
    for l2, c in enumerate(b):
        if c != 0.0:
            out[l2 : l2 + a.shape[0]] += c * a
    return out


def _velocity_kron(blocks0: list[np.ndarray], s1, s2, d: int) -> dict[int, np.ndarray]:
    """dx/dlam = sigma^2 x - sigma eps as lam-polynomial kron blocks keyed
    by x-degree, built once from the undifferentiated model."""
    v: dict[int, np.ndarray] = {}
    v[1] = np.zeros((len(s2), d, d))
    v[1][:, :, :] = s2[:, None, None] * np.eye(d)[None, :, :]
    for q, cq in enumerate(blocks0):
        if not np.any(cq):
            continue
        contrib = -_lamconv(cq, s1)
        if q in v:
            L = max(v[q].shape[0], contrib.shape[0])
            grown = np.zeros((L, d, d**q))
            grown[: v[q].shape[0]] += v[q]
            grown[: contrib.shape[0]] += contrib
            v[q] = grown
        else:
            v[q] = contrib
    return v


def _deriv_once_kron(blocks: list[np.ndarray], v: dict[int, np.ndarray], d: int) -> list[np.ndarray]:
    J = len(blocks) - 1
    max_q = max(v.keys())
    out_deg = max(J, J - 1 + max_q) if J >= 1 else J
    out: list[np.ndarray | None] = [None] * (out_deg + 1)

    def acc(j: int, block: np.ndarray) -> None:
        if j > out_deg:
            return
        if out[j] is None:
            out[j] = np.array(block)
        else:
            a, b = out[j], block
            L = max(a.shape[0], b.shape[0])
            grown = np.zeros((L,) + a.shape[1:])
            grown[: a.shape[0]] += a
            grown[: b.shape[0]] += b
            out[j] = grown

    # d/dlam term
    for j, cj in enumerate(blocks):
        if cj.shape[0] > 1:
            acc(j, cj[1:] * np.arange(1, cj.shape[0])[:, None, None])

    # (d eps/dx) . v: cj @ (I_{d^a} (x) V (x) I_{d^b}) contracts V's row
    # index against slot a of x^{(j)}, batched over both lam axes
    for j in range(1, J + 1):
        cj = blocks[j]
        if not np.any(cj):
            continue
        for q, vq in v.items():
            if not np.any(vq):
                continue
            deg_new = j - 1 + q
            if d**deg_new > MAX_KRON_COLUMNS:
                raise CapacityError("kron derivative exceeds supported block size")
            Lc, Lv = cj.shape[0], vq.shape[0]
            prod = np.zeros((Lc + Lv - 1, d, d**deg_new))
            for a in range(j):
                slots = cj.reshape(Lc, d, d**a, d, d ** (j - 1 - a))
                terms = np.einsum("xiasb,yst->xyiatb", slots, vq).reshape(Lc, Lv, d, d**deg_new)
                for l1 in range(Lc):
                    prod[l1 : l1 + Lv] += terms[l1]
            acc(deg_new, prod)

    filled = [
        b if b is not None else np.zeros((1, d, d**j)) for j, b in enumerate(out)
    ]
    # drop trailing all-zero degrees
    while len(filled) > 1 and not np.any(filled[-1]):
        filled.pop()
    return filled


def total_derivative_poly(
    s: NoiseSchedule,
    m: PolyNoiseModel,
    n: int,
    lam_center: float,
    sigma_degree: int = SIGMA_TAYLOR_DEGREE,
) -> PolyNoiseModel:
    """n-th total derivative of eps along the flow, as a polynomial model.

    The chain rule D eps = d_lam eps + (d_x eps) . (sigma^2 x - sigma eps)
    is applied n times symbolically; sigma_lam and sigma_lam^2 enter as
    degree-``sigma_degree`` Taylor polynomials around lam_center, so the
    result is exact up to the O((lam - lam_center)^{sigma_degree+1})
    truncation of those two factors.  n = 0 returns the model unchanged.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    if n == 0:
        return m
    s1, s2 = _sigma_lambda_polys(s, lam_center, degree=sigma_degree)
    if m.mode == "kron":
        blocks = _kron_blocks(m)
        v_blocks = _velocity_kron(blocks, s1, s2, m.d)
        for _ in range(n):
            blocks = _deriv_once_kron(blocks, v_blocks, m.d)
        return PolyNoiseModel(mode="kron", d=m.d, coeffs=blocks)
    arr = _as_batch(m)
    v = _velocity_batch(arr, s1, s2)
    for _ in range(n):
        arr = _deriv_once_batch(arr, v)
        if arr.shape[1] - 1 > MAX_X_DEGREE:
            raise CapacityError(f"x-degree {arr.shape[1] - 1} exceeds {MAX_X_DEGREE}")
    return _from_batch(m, arr)


def coeff_matrices(m: PolyNoiseModel, lam: float) -> dict[int, np.ndarray]:
    """Coefficient matrices {j: (d, d^j)} of eps at a fixed lam.

    Only scalar and kron models admit this form; separable models with
    d > 1 do not have a flat Kronecker coefficient representation.
    """
    if m.mode == "separable" and m.d > 1:
        raise ValueError("separable models have no kron coefficient form")
    out: dict[int, np.ndarray] = {}
    if m.mode == "kron":
        for j, cj in enumerate(m.coeffs):
            mat = _lam_collapse(cj, lam)
            if np.any(mat):
                out[j] = mat
        return out
    arr = m.coeffs if m.mode == "scalar" else m.coeffs[0]
    clam = np.polynomial.polynomial.polyval(lam, arr.T)
    for j, c in enumerate(np.atleast_1d(clam)):
        if c != 0.0:
            out[j] = np.array([[c]])
    return out
