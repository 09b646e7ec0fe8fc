"""Polynomial noise-prediction models and their lambda-derivatives.

A model is a polynomial map eps(x, lam) in the state x and the log-SNR
lam.  Two coupling modes are supported:

* ``separable``: each coordinate i evolves under its own scalar
  polynomial, coefficients c[i, j, l] of x_i^j lam^l; a one-coordinate
  (scalar) model is the d = 1 case.
* ``kron``: full tensor coupling; the degree-j term is a matrix
  C_j(lam) of shape (d, d^j) acting on the Kronecker power x^{(j)},
  with a polynomial lam dependence on the leading axis.

The total lambda-derivative used by higher-order exponential
integrators applies

    D eps = d eps/d lam + (d eps/d x) . (sigma_lam^2 x - sigma_lam eps)

symbolically, with sigma_lam and sigma_lam^2 replaced by fixed-degree
Taylor polynomials around an expansion point, so the result is again a
polynomial in x and lam.  A sampler run builds these derivatives once,
for all of its step starts at a time, in chunks of expansion points, and
keeps each as one table over the run's steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import itemgetter

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.special import expit

from .errors import CapacityError
from .schedule import NoiseSchedule

__all__ = [
    "PolyNoiseModel",
    "scalar_model",
    "separable_model",
    "kron_model",
    "eval_eps",
    "jacobian_eps",
    "drift_jacobian",
    "total_derivative_poly",
]

KRON_D_MAX = 4
MAX_X_DEGREE = 24
MAX_LAM_DEGREE = 64
MAX_KRON_COLUMNS = 65536
SIGMA_TAYLOR_DEGREE = 4
TOWER_CHUNK_BYTES = 1 << 22  # derivative-tower work arrays per chunk of expansion points


@dataclass(frozen=True)
class PolyNoiseModel:
    """Polynomial eps(x, lam); immutable after construction."""

    mode: str
    d: int
    coeffs: object  # mode-dependent, see module docstring

    def __post_init__(self) -> None:
        if self.mode not in ("separable", "kron"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.d < 1:
            raise ValueError("need d >= 1")
        if self.mode == "separable":
            c = np.array(self.coeffs, dtype=float)
            if c.ndim != 3 or c.shape[0] != self.d:
                raise ValueError("separable coefficients must have shape (d, J+1, L+1)")
            c.flags.writeable = False
            object.__setattr__(self, "coeffs", c)
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
    """Build a one-coordinate model from {(j, l): coeff} or a 2-d coefficient
    array; it is the d = 1 separable model."""
    if isinstance(terms, dict):
        jmax = max((j for j, _ in terms), default=0)
        lmax = max((l for _, l in terms), default=0)
        c = np.zeros((jmax + 1, lmax + 1))
        for (j, l), v in terms.items():
            c[j, l] = v
    else:
        c = np.atleast_2d(np.asarray(terms, dtype=float))
    return PolyNoiseModel(mode="separable", d=1, coeffs=c[None])


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


# --- batch (separable) polynomial helpers --------------------------------
# A batch polynomial is an array (B, J+1, L+1) of coefficients of
# x^j lam^l, one independent polynomial per batch entry; a separable
# model's coefficients are one.


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


def _padded_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a + b, each zero-padded at the end of every axis to the larger shape."""
    out = np.zeros(np.maximum(a.shape, b.shape))
    out[tuple(map(slice, a.shape))] += a
    out[tuple(map(slice, b.shape))] += b
    return out


# --- sigma Taylor expansions ---------------------------------------------


def _sigma_recurrences() -> tuple[np.ndarray, np.ndarray]:
    """S_n(q) and R_n(q), n = 0..SIGMA_TAYLOR_DEGREE, as ascending coefficients in q
    zero-padded into one array (S first), and the factorials n!.

    q = sigma_lam^2 obeys dq/dlam = -2 q (1 - q), so

        q^(n)     = R_n(q),  R_0 = q,      R_{n+1} = -2 q (1-q) R_n'
        sigma^(n) = sigma S_n(q), S_0 = 1, S_{n+1} = -(1-q) S_n - 2 q (1-q) S_n'

    Neither depends on the expansion point, so they are built once.
    """
    shrink = np.array([0.0, -2.0, 2.0])  # -2 q (1-q)
    one_minus = np.array([1.0, -1.0])
    R = [np.array([0.0, 1.0])]
    S = [np.array([1.0])]
    for _ in range(SIGMA_TAYLOR_DEGREE):
        R.append(npoly.polymul(npoly.polyder(R[-1]), shrink))
        S.append(npoly.polyadd(npoly.polymul(-one_minus, S[-1]), npoly.polymul(shrink, npoly.polyder(S[-1]))))
    polys = np.zeros((2, SIGMA_TAYLOR_DEGREE + 1, SIGMA_TAYLOR_DEGREE + 2))
    for n, (Sn, Rn) in enumerate(zip(S, R)):
        polys[0, n, : len(Sn)], polys[1, n, : len(Rn)] = Sn, Rn
    return polys, np.array([math.factorial(n) for n in range(SIGMA_TAYLOR_DEGREE + 1)], dtype=float)


_SIGMA_POLYS, _FACTORIALS = _sigma_recurrences()


def _sigma_lambda_polys(s: NoiseSchedule, lams: np.ndarray):
    """Degree-SIGMA_TAYLOR_DEGREE polynomials of sigma_lam and sigma_lam^2 in lam.

    The Taylor coefficients at each lam_c in ``lams`` (1-d) are
    sigma0 S_n(q0) / n! and R_n(q0) / n! (see :func:`_sigma_recurrences`),
    re-expressed in the absolute lam basis.  Returns (s1, s2), the
    coefficients of sigma_lam and sigma_lam^2, one row per lam_c.
    """
    q0 = expit(-2.0 * lams)
    taylor = _SIGMA_POLYS[..., -1, None] + q0 * 0  # Horner in q0, as npoly.polyval
    for i in range(2, _SIGMA_POLYS.shape[-1] + 1):
        taylor = _SIGMA_POLYS[..., -i, None] + taylor * q0
    taylor[0] *= np.sqrt(q0)
    taylor = (taylor / _FACTORIALS[:, None]).transpose(0, 2, 1)
    out = np.zeros_like(taylor)
    pw = np.zeros_like(taylor)  # (lam - lam_c)^n
    pw[..., 0] = 1.0
    for n in range(SIGMA_TAYLOR_DEGREE + 1):
        out += taylor[..., n, None] * pw
        shifted = pw * -lams[:, None]
        shifted[..., 1:] += pw[..., :-1]
        pw = shifted
    return out[0], out[1]


# --- evaluation ------------------------------------------------------------


def _kron_power(x: np.ndarray, j: int) -> np.ndarray:
    if j == 0:
        return np.ones(1)
    return reduce(np.kron, [x] * j)


def _lam_collapse(block: np.ndarray, lam) -> np.ndarray:
    """Evaluate the leading lam-polynomial axis of a kron block.

    ``lam`` may be a scalar or an array; its shape leads the result's.
    """
    powers = np.asarray(lam, dtype=float)[..., None] ** np.arange(block.shape[0])
    return np.tensordot(powers, block, axes=(-1, 0))


def _eps_tables(m: PolyNoiseModel, lams: np.ndarray):
    """The x-polynomial coefficients of eps at each log-SNR in ``lams`` (1-d).

    Kron models give a list over the x-degree j of arrays (len(lams), d,
    d^j); a block without lam dependence is broadcast, not copied.
    Separable models give one array (len(lams), J+1, d) whose
    row j holds the x^j coefficients.  :func:`_eval_tabulated` evaluates
    them at a state.
    """
    if m.mode == "kron":
        return [
            np.broadcast_to(cj[0], (len(lams),) + cj.shape[1:]) if cj.shape[0] == 1
            else _lam_collapse(cj, lams)
            for cj in m.coeffs
        ]
    return _center_tables(m, m.coeffs, lams)


def _eval_tabulated(m: PolyNoiseModel, tables, i: int, x):
    """eps(x, lams[i]) from ``tables = _eps_tables(m, lams)``.

    Horner in x for separable models; :func:`_kron_sum` of the constant
    term and the blocks' rows i for kron models.  The Horner form also
    runs on a Python float x with the rows of a one-coordinate table as
    lists of floats.
    """
    if m.mode == "kron":
        # -0.0 to +0.0, as a sum from zero gives; map, as a comprehension
        # would make i a closure cell and slow every separable call
        return _kron_sum(0.0 + tables[0][i, :, 0], list(map(itemgetter(i), tables[1:])), x)
    out = 0.0
    for cj in reversed(tables[i]):
        out = out * x + cj
    return out


def _kron_sum(out, blocks, x):
    """out + sum_j C_j x^{(j)} over the (d, d^j) matrices C_1, C_2, ... of
    ``blocks``, added in degree order, with x^{(j)} built one outer
    product at a time (equal to the left-folded np.kron bit for bit).

    ``out`` and ``x`` are both arrays of shape (d,), or both lists of d
    floats; on lists the monomials and the sums are float operations and
    only each ``ndarray.dot`` contraction, the same as on arrays, runs in
    NumPy, so both give the same bits.
    """
    on_lists = isinstance(x, list)
    xj = x
    for j, cj in enumerate(blocks):
        if j:
            xj = [p * q for p in xj for q in x] if on_lists else (xj[:, None] * x).ravel()
        term = cj.dot(xj)
        out = [a + b for a, b in zip(out, term.tolist())] if on_lists else out + term
    return out


def _kron_rows(m: PolyNoiseModel, tables) -> list:
    """The arguments of :func:`_kron_sum` on lists at each point of kron
    ``tables = _eps_tables(m, lams)``: the constant term as a list of
    floats, from zero as :func:`_eval_tabulated` sums it, and the blocks'
    rows, a block without lam dependence as its one matrix at every point."""
    n = len(tables[0])
    if all(cj.shape[0] == 1 for cj in m.coeffs):
        return [((0.0 + tables[0][0, :, 0]).tolist(), [cj[0] for cj in m.coeffs[1:]])] * n
    const = (0.0 + tables[0][:, :, 0]).tolist()
    return [(const[i], [cj[0] if cj.shape[0] == 1 else table[i]
                        for cj, table in zip(m.coeffs[1:], tables[1:])]) for i in range(n)]


def eval_eps(m: PolyNoiseModel, x, lam: float) -> np.ndarray:
    """Evaluate eps(x, lam); returns an array of shape (d,)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (m.d,):
        raise ValueError(f"state must have shape ({m.d},)")
    return _eval_tabulated(m, _eps_tables(m, np.asarray(lam, dtype=float).reshape(1)), 0, x)


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
    return np.diag(_separable_deps(m, x, lam))


def _separable_deps(m: PolyNoiseModel, x: np.ndarray, lam: float) -> np.ndarray:
    """Diagonal d eps_i / d x_i of a separable model, by Horner in x."""
    clam = np.polynomial.polynomial.polyval(lam, m.coeffs.transpose(2, 0, 1))
    deps = np.zeros(m.d)
    for j in range(m.coeffs.shape[1] - 1, 0, -1):
        deps = deps * x + j * clam[:, j]
    return deps


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


# --- total lambda-derivative ------------------------------------------------


def _velocity_batch(arr0: np.ndarray, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """dx/dlam = sigma^2 x - sigma eps as a batch polynomial.

    Built from the undifferentiated model; the same velocity enters every
    application of the derivative operator; ``s1``, ``s2`` may differ per batch row.
    """
    B, J1, L1 = arr0.shape
    Lv = max(s2.shape[-1], s1.shape[-1] + L1 - 1)
    v = np.zeros((B, max(2, J1), Lv))
    v[:, 1, : s2.shape[-1]] += s2
    for l1 in range(s1.shape[-1]):
        c = s1[..., l1, None, None]
        if c.any():
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
    return _trim_batch(_padded_sum(dlam, _batch_mul(dx, v)))


def _lamconv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Convolve kron blocks a (..., La, p, q) along their lam axis with the
    lam coefficients b (..., Lb), returning (..., La + Lb - 1, p, q).  Here
    and below, leading axes (one per expansion point) are carried through."""
    lead = np.broadcast_shapes(a.shape[:-3], b.shape[:-1])
    out = np.zeros(lead + (a.shape[-3] + b.shape[-1] - 1,) + a.shape[-2:])
    for l2 in range(b.shape[-1]):
        c = b[..., l2, None, None, None]
        if c.any():
            out[..., l2 : l2 + a.shape[-3], :, :] += c * a
    return out


def _velocity_kron(blocks0: list[np.ndarray], s1, s2, d: int) -> dict[int, np.ndarray]:
    """dx/dlam = sigma^2 x - sigma eps as lam-polynomial kron blocks keyed
    by x-degree, built once from the undifferentiated model."""
    v: dict[int, np.ndarray] = {1: s2[..., None, None] * np.eye(d)}
    for q, cq in enumerate(blocks0):
        if not np.any(cq):
            continue
        contrib = -_lamconv(cq, s1)
        v[q] = _padded_sum(v[q], contrib) if q in v else contrib
    return v


def _deriv_once_kron(blocks: list[np.ndarray], v: dict[int, np.ndarray], d: int) -> list[np.ndarray]:
    J = len(blocks) - 1
    lead = blocks[0].shape[:-3]
    max_q = max(v.keys())
    out_deg = max(J, J - 1 + max_q) if J >= 1 else J
    out: dict[int, np.ndarray] = {}

    def acc(j: int, block: np.ndarray) -> None:
        if j <= out_deg:
            out[j] = _padded_sum(out[j], block) if j in out else block

    # d/dlam term
    for j, cj in enumerate(blocks):
        if cj.shape[-3] > 1:
            acc(j, cj[..., 1:, :, :] * np.arange(1, cj.shape[-3])[:, None, None])

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
    # drop trailing all-zero degrees
    while len(filled) > 1 and not np.any(filled[-1]):
        filled.pop()
    return filled


def _tower_levels(s: NoiseSchedule, m: PolyNoiseModel, k: int, lams: np.ndarray):
    """Yield D^1 eps, ..., D^{k-1} eps around each point of ``lams``: the
    coefficients, batched over the points (kron blocks (C, L+1, d, d^j);
    separable rows (C*d, J+1, L+1), point c in rows c*d ..), and point 0's
    model.  sigma_lam, sigma_lam^2 and the velocity are built once for all
    points, and each derivative is taken from the one before it."""
    if k < 2:
        return
    s1, s2 = _sigma_lambda_polys(s, lams)
    kron = m.mode == "kron"
    if kron:
        coeffs = [np.repeat(cj[None], len(lams), axis=0) for cj in m.coeffs]
        v = _velocity_kron(coeffs, s1, s2, m.d)
    else:
        coeffs = np.tile(m.coeffs, (len(lams), 1, 1))
        v = _velocity_batch(coeffs, np.repeat(s1, m.d, axis=0), np.repeat(s2, m.d, axis=0))
    for _ in range(k - 1):
        coeffs = _deriv_once_kron(coeffs, v, m.d) if kron else _deriv_once_batch(coeffs, v)
        # the constructor's capacity check stops a runaway degree before the next pass
        yield coeffs, PolyNoiseModel(mode=m.mode, d=m.d,
                                     coeffs=[cj[0] for cj in coeffs] if kron else coeffs[: m.d])


def _center_tables(m: PolyNoiseModel, level, lams: np.ndarray):
    """Collapse per-point coefficients (batched as :func:`_tower_levels`
    yields them, or ``m.coeffs`` for all points), each at its own point of
    ``lams``, into the layout of :func:`_eps_tables`.  Kron blocks with lam
    dependence are collapsed by one stacked matmul of each point's lam
    powers with its block, which gives every point a single collapse's bits."""
    if m.mode == "kron":
        return [np.broadcast_to(cj[..., 0, :, :], (len(lams),) + cj.shape[-2:]) if cj.shape[-3] == 1
                else np.matmul(lams[:, None, None] ** np.arange(cj.shape[-3]),
                               cj.reshape(cj.shape[:-2] + (-1,))
                               ).reshape((len(lams),) + cj.shape[-2:])
                for cj in level]
    c = level.reshape((-1, m.d) + level.shape[1:]).transpose(3, 1, 2, 0)  # (L+1, d, J+1, C)
    return npoly.polyval(lams, c, tensor=False).transpose(2, 1, 0)


def _tower_chunk(m: PolyNoiseModel, k: int) -> int:
    """Expansion points per chunk: D^{k-1} eps per point, times the velocity's
    lam length for the products that build it, within TOWER_CHUNK_BYTES."""
    L, Lv = m.lam_degree + 1, m.lam_degree + 1 + SIGMA_TAYLOR_DEGREE
    top_J = m.x_degree + (k - 1) * max(m.x_degree - 1, 0)
    cols = m.d**top_J if m.mode == "kron" else top_J + 1
    return max(1, TOWER_CHUNK_BYTES // (8 * m.d * cols * (L + (k - 1) * (Lv - 1)) * Lv))


def _derivative_tower(s: NoiseSchedule, m: PolyNoiseModel, k: int, lams) -> list:
    """The total derivatives D^0 eps, ..., D^{k-1} eps around each point of ``lams``.

    ``lams`` is a 1-d array of expansion points, a run's step starts.
    Level n is D^n eps collapsed at every point into one table over the
    points, row c at lams[c] (the layout of :func:`_eps_tables`).  It is
    built for all points at once, in chunks of :func:`_tower_chunk`
    points; a degree that one chunk lacks is zero in that chunk's rows.
    No points give no levels.  A scalar ``lams`` gives the models D^n eps
    themselves, element 0 m.
    """
    lams = np.asarray(lams, dtype=float)
    if lams.ndim == 0:
        return [m] + [dn for _, dn in _tower_levels(s, m, k, lams.reshape(1))]
    step = _tower_chunk(m, k)
    parts = [[_center_tables(m, level, part)
              for level in [m.coeffs] + [coeffs for coeffs, _ in _tower_levels(s, m, k, part)]]
             for part in (lams[lo : lo + step] for lo in range(0, len(lams), step))]
    return parts[0] if len(parts) == 1 else [_concat_tables(m, tables) for tables in zip(*parts)]


def _concat_tables(m: PolyNoiseModel, tables: tuple):
    """Stack the tables of consecutive chunks of points, each zero-padded to
    the largest x-degree among them."""
    if m.mode == "kron":
        return [np.concatenate([t[j] if j < len(t) else np.zeros((len(t[0]), m.d, m.d**j))
                                for t in tables]) for j in range(max(map(len, tables)))]
    J = max(t.shape[1] for t in tables)
    return np.concatenate([np.pad(t, ((0, 0), (0, J - t.shape[1]), (0, 0))) for t in tables])


def total_derivative_poly(s: NoiseSchedule, m: PolyNoiseModel, n: int,
                          lam_center: float) -> PolyNoiseModel:
    """n-th total derivative of eps along the flow, as a polynomial model.

    The chain rule D eps = d_lam eps + (d_x eps) . (sigma^2 x - sigma eps)
    is applied n times symbolically; sigma_lam and sigma_lam^2 enter as
    degree-SIGMA_TAYLOR_DEGREE Taylor polynomials around lam_center, so
    the result is exact up to the O((lam - lam_center)^{SIGMA_TAYLOR_DEGREE+1})
    truncation of those two factors.  n = 0 returns the model unchanged.
    This is the one-point :func:`_derivative_tower`.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    return _derivative_tower(s, m, n + 1, lam_center)[n]
