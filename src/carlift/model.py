"""Polynomial noise-prediction models and their lambda-derivatives.

A model is a polynomial map eps(x, lam) in the state x and the log-SNR
lam.  Two coupling modes are supported:

* ``separable``: each coordinate i evolves under its own scalar
  polynomial, coefficients c[i, j, l] of x_i^j lam^l; a one-coordinate
  (scalar) model is the d = 1 case.
* ``kron``: full tensor coupling, given as (L+1, d, d^j) blocks: the
  degree-j term is a matrix C_j(lam) acting on the Kronecker power
  x^{(j)}, with a polynomial lam dependence on the leading axis.  The
  constructor folds each block once onto the C(d+j-1, j) monomials x^beta
  of degree j, in sorted multi-index order (see :func:`_monomials`), and
  everything downstream reads only that folded form.

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

import functools
import math
from dataclasses import dataclass, field

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

MAX_X_DEGREE = 24
MAX_LAM_DEGREE = 64
MAX_MONOMIALS = 4096  # columns of a folded kron block, C(d+q-1, q) at its top degree q
SIGMA_TAYLOR_DEGREE = 4
TOWER_CHUNK_BYTES = 1 << 22  # derivative-tower work arrays per chunk of expansion points


@dataclass(frozen=True)
class PolyNoiseModel:
    """Polynomial eps(x, lam); immutable after construction.

    ``coeffs`` stays as given.  ``blocks`` is what every computation
    reads: a separable model's coefficients, or a kron model's folded
    onto monomials, one (L+1, d, C(d+j-1, j)) block per degree j.
    """

    mode: str
    d: int
    coeffs: object  # mode-dependent, see module docstring
    blocks: object = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.mode not in ("separable", "kron"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.d < 1:
            raise ValueError("need d >= 1")
        if self.mode == "separable":
            c = np.array(self.coeffs, dtype=float)
            if c.ndim != 3 or c.shape[0] != self.d:
                raise ValueError("separable coefficients must have shape (d, J+1, L+1)")
            _check_capacity(self.d, c.shape[1] - 1, c.shape[2] - 1, kron=False)
            c.flags.writeable = False
            object.__setattr__(self, "coeffs", c)
            object.__setattr__(self, "blocks", c)
            return
        shapes = [np.shape(cj) for cj in self.coeffs]
        for j, shape in enumerate(shapes):
            if len(shape) != 3 or shape[1] != self.d or shape[2] != self.d**j:
                raise ValueError(f"kron degree-{j} block must have shape (L+1, {self.d}, {self.d**j})")
        # before any copy: a block past the caps is refused unallocated
        _check_capacity(self.d, len(shapes) - 1, max(shape[0] for shape in shapes) - 1, kron=True)
        coeffs = tuple(np.array(cj, dtype=float) for cj in self.coeffs)
        blocks = _fold(coeffs, self.d)
        for arr in coeffs + blocks:
            arr.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "blocks", blocks)

    @property
    def x_degree(self) -> int:
        return len(self.blocks) - 1 if self.mode == "kron" else self.blocks.shape[-2] - 1

    @property
    def lam_degree(self) -> int:
        return max(cj.shape[0] for cj in self.blocks) - 1 if self.mode == "kron" else self.blocks.shape[-1] - 1


def _check_capacity(d: int, J: int, L: int, kron: bool) -> None:
    """Refuse coefficients of x-degree J and lam-degree L past the caps, and
    a kron model's with more than MAX_MONOMIALS monomials of degree J."""
    for what, size, cap in (("x-degree", J, MAX_X_DEGREE), ("lam-degree", L, MAX_LAM_DEGREE),
                            (f"d={d} kron degree-{J} monomial count",
                             math.comb(d + J - 1, J) if kron else 0, MAX_MONOMIALS)):
        if size > cap:
            raise CapacityError(f"{what} {size} exceeds {cap}")


def _fold(coeffs: tuple, d: int) -> tuple:
    """The kron blocks (L+1, d, d^q) as (L+1, d, n_q) blocks on the degree-q
    monomials: the Kronecker columns equal to each monomial summed."""
    mono, cols, blocks = _monomials(d, len(coeffs) - 1), np.zeros(1, np.intp), []
    for q, cq in enumerate(coeffs):
        cols = mono.times_x[cols].ravel() if q else cols  # ext index of each Kronecker column
        n_q = mono.start[q + 1] - mono.start[q]
        flat = np.arange(cq.shape[0] * d)[:, None] * n_q + (cols - mono.start[q])
        blocks.append(np.bincount(flat.ravel(), weights=cq.ravel(),
                                  minlength=flat.shape[0] * n_q).reshape(cq.shape[:2] + (n_q,)))
    return tuple(blocks)


def _unfold(blocks: list, d: int) -> list:
    """Monomial blocks (..., d, n_q) as kron blocks (..., d, d^q) that hold
    each monomial's coefficient on its sorted-index Kronecker column, so
    that :func:`_fold` gives them back exactly."""
    mono, col, out = _monomials(d, len(blocks) - 1), np.zeros(1, np.intp), []
    for q, B in enumerate(blocks):
        # the Kronecker column of each monomial: its indices i_1 <= ... <= i_q in base d
        col = mono.first[q] * d ** (q - 1) + col[mono.parent[q]] if q else col
        out.append(np.zeros(B.shape[:-1] + (d**q,)))
        out[-1][..., col] = B
    return out


@dataclass(frozen=True)
class _Monomials:
    """Index tables of the monomials of degree 0..N in d variables.

    Monomial k of degree t is x_i times monomial ``parent[t][k]`` of
    degree t-1, with i = ``first[t][k]`` its lowest variable.  The
    tables that multiply monomials use "ext" indices, which list every
    degree in order: 0 is the constant 1 and 1 + k is coordinate k of
    the lifted state, so degree t starts at ``start[t]``.
    ``times_x[e, i]`` is x_i times e, -1 at degree N; ``products[q]``
    holds a b for every a of degree <= N - q (the ext indices below
    start[N-q+1]) and every b of degree q, as a flat (a, b) array.
    ``deriv[t]``, t >= 1, is the pair (index, factor) of (d, n_{t-1})
    arrays that takes the partial derivatives of degree-t coefficients:
    d_i x^beta of monomial ``index[i, k]`` is ``factor[i, k]`` times
    monomial k of degree t-1.
    """

    start: tuple
    parent: tuple
    first: tuple
    pairs: tuple  # (parent, first) of each monomial as Python ints
    sqrt_mult: np.ndarray  # over the lifted coordinates
    times_x: np.ndarray
    products: tuple
    deriv: tuple


@functools.lru_cache(maxsize=32)
def _monomials(d: int, N: int) -> _Monomials:
    """Index tables of the (d, N) basis, built when first needed.

    Degree t lists x_i x^e for i = 0..d-1 and, for each i, every
    degree-(t-1) monomial e whose lowest variable is at least i, in
    order; that is the sorted multi-index order.
    """
    sizes = [math.comb(d + t - 1, t) for t in range(N + 1)]
    start = tuple(int(v) for v in np.cumsum([0] + sizes))
    var = np.arange(d)
    parent, first = [np.zeros(0, np.intp)], [np.array([d])]  # the constant has no variable
    lead, mult = [np.zeros(1, np.intp)], [np.ones(1)]  # lead: how often first divides it
    powers = [np.zeros((1, d), np.intp)]  # the exponent of each variable
    times_x = np.full((start[-1], d), -1, dtype=np.intp)
    for t in range(1, N + 1):
        skip = np.searchsorted(first[t - 1], var)  # degree-(t-1) monomials with first < i
        counts = sizes[t - 1] - skip
        offset = np.cumsum(counts) - counts - skip  # x_i e is monomial offset[i] + e of degree t
        f = np.repeat(var, counts)
        par = np.arange(sizes[t]) - np.repeat(offset, counts)
        lead.append(1 + np.where(first[t - 1][par] == f, lead[t - 1][par], 0))
        mult.append(mult[t - 1][par] * t / lead[t])
        powers.append(powers[t - 1][par] + (var == f[:, None]))
        parent.append(par), first.append(f)
        # x_i e is (i, e) when i <= first(e), else (first(e), x_i parent(e))
        fe = first[t - 1][:, None]
        prod = offset[var] + np.arange(sizes[t - 1])[:, None]
        if t > 1:
            via = offset[fe] + times_x[start[t - 2] + parent[t - 1]] - start[t - 1]
            prod = np.where(var <= fe, prod, via)
        times_x[start[t - 1] : start[t]] = start[t] + prod
    products = []
    mul = np.arange(start[-1])[None, :]  # mul[b, a] = a b, b of degree s, a of degree <= N - s
    for s in range(N + 1):
        if s:
            mul = times_x[mul[parent[s], : start[N - s + 1]], first[s][:, None]]
        products.append(np.ascontiguousarray(mul.T).ravel())
    deriv = [()] + [(times_x[start[t - 1] : start[t]].T - start[t], powers[t - 1].T + 1.0)
                    for t in range(1, N + 1)]
    mono = _Monomials(start=start, parent=tuple(parent), first=tuple(first),
                      pairs=tuple(list(zip(p.tolist(), f.tolist())) for p, f in zip(parent, first)),
                      sqrt_mult=np.sqrt(np.concatenate(mult)[1:]), times_x=times_x,
                      products=tuple(products), deriv=tuple(deriv))
    for arr in (*mono.parent, *mono.first, mono.sqrt_mult, times_x, *mono.products,
                *(a for pair in deriv for a in pair)):
        arr.flags.writeable = False  # shared by every model, tower and lift of this basis
    return mono


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
    (L+1, d, d^j) array of lam-polynomial coefficients.  A missing
    degree is zero.
    """
    jmax = max(terms, default=0)
    blocks = []
    for j in range(jmax + 1):
        arr = np.asarray(terms[j], dtype=float) if j in terms else np.broadcast_to(0.0, (1, d, d**j))
        blocks.append(arr[None] if arr.ndim == 2 else arr)
    return PolyNoiseModel(mode="kron", d=d, coeffs=blocks)


# --- batch (separable) polynomial helpers --------------------------------
# A batch polynomial is an array (B, J+1, L+1) of coefficients of
# x^j lam^l, one independent polynomial per batch entry; a separable
# model's coefficients are one.


def _trim_batch(arr: np.ndarray) -> np.ndarray:
    """Drop the trailing x- and lam-degrees that are zero in every row."""
    nz = np.any(arr != 0.0, axis=0)
    jmax, lmax = (int(np.flatnonzero(nz.any(axis=a))[-1]) if nz.any() else 0 for a in (1, 0))
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


def _eps_tables(m: PolyNoiseModel, lams: np.ndarray):
    """The x-polynomial coefficients of eps at each log-SNR in ``lams`` (1-d).

    Kron models give a list over the x-degree j of arrays (len(lams), d,
    n_j) on the degree-j monomials; a block without lam dependence is
    broadcast, not copied.  Separable models give one array (len(lams),
    J+1, d) whose row j holds the x^j coefficients.
    :func:`_eval_tabulated` evaluates them at a state.
    """
    return _center_tables(m, m.blocks, lams)


def _eval_tabulated(m: PolyNoiseModel, tables, i: int, x):
    """eps(x, lams[i]) from ``tables = _eps_tables(m, lams)``.

    Horner in x for separable models; :func:`_kron_sum` of the blocks'
    rows i, side by side, for kron models.  The Horner form also runs on
    a Python float x with the rows of a one-coordinate table as lists of
    floats.
    """
    if m.mode == "kron":
        return _kron_sum(_monomials(m.d, len(tables) - 1), np.concatenate([t[i] for t in tables], axis=1), x)
    out = 0.0
    for cj in reversed(tables[i]):
        out = out * x + cj
    return out


def _kron_sum(mono: _Monomials, F: np.ndarray, x):
    """F x_all, summed from +0 (so a -0.0 result is +0.0): F holds the
    (d, n_j) coefficient matrices of degree j = 0, 1, ... side by side, and
    x_all the monomials of those degrees at x, each x_first times its
    parent of degree j-1 (see :func:`_monomials`).

    ``x`` is an array of shape (d,) or a list of d floats; on a list the
    monomials and the sum from zero are float operations and only the
    ``ndarray.dot`` contraction, the same as on an array, runs in NumPy,
    so both give the same bits.
    """
    if isinstance(x, list):
        x_all, xj = ([1.0, *x] if len(mono.pairs) > 1 else [1.0]), x  # degrees 0 and 1
        for pairs in mono.pairs[2:]:
            xj = [xj[p] * x[f] for p, f in pairs]
            x_all += xj
        return [0.0 + e for e in F.dot(x_all).tolist()]
    x_all = [np.ones(1), x] if len(mono.pairs) > 1 else [np.ones(1)]
    for parent, first in zip(mono.parent[2:], mono.first[2:]):
        x_all.append(x_all[-1][parent] * x[first])
    return 0.0 + F.dot(np.concatenate(x_all))


def _kron_rows(m: PolyNoiseModel, tables) -> list:
    """The arguments of :func:`_kron_sum` on lists at each point of kron
    ``tables = _eps_tables(m, lams)``: the monomial tables and the blocks'
    rows side by side, one matrix at every point when no block depends
    on lam."""
    mono = _monomials(m.d, m.x_degree)
    if all(cj.shape[0] == 1 for cj in m.blocks):
        return [(mono, np.concatenate([cj[0] for cj in m.blocks], axis=1))] * len(tables[0])
    return [(mono, F) for F in np.concatenate(tables, axis=2)]


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
        mono, out, below = _monomials(m.d, m.x_degree), np.zeros((m.d, m.d)), np.ones(1)
        for j, table in enumerate(_eps_tables(m, np.array([float(lam)]))[1:], start=1):
            # below: the degree-(j-1) monomials at x; the derivative table takes F_j onto them
            below = below[mono.parent[j - 1]] * x[mono.first[j - 1]] if j > 1 else below
            index, factor = mono.deriv[j]
            out += (table[0][:, index] * factor) @ below
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


def _velocity_kron(blocks0: list[np.ndarray], s1, s2, d: int) -> dict[int, np.ndarray]:
    """dx/dlam = sigma^2 x - sigma eps as lam-polynomial monomial blocks
    keyed by x-degree, built once from the undifferentiated model.  Here
    and below, leading axes (one per expansion point) are carried through."""
    v: dict[int, np.ndarray] = {1: s2[..., None, None] * np.eye(d)}
    for q, cq in enumerate(blocks0):
        if np.any(cq):  # sigma eps: each block's lam axis convolved with s1's
            contrib = np.zeros(cq.shape[:-3] + (cq.shape[-3] + s1.shape[-1] - 1,) + cq.shape[-2:])
            for l2 in range(s1.shape[-1]):
                contrib[..., l2 : l2 + cq.shape[-3], :, :] -= s1[..., l2, None, None, None] * cq
            v[q] = _padded_sum(v[q], contrib) if q in v else contrib
    return v


def _deriv_once_kron(blocks: list[np.ndarray], v: dict[int, np.ndarray], mono: _Monomials) -> list[np.ndarray]:
    """D eps = d_lam eps + sum_i (d_i eps) v_i on monomial blocks (..., L, d, n_j).

    ``mono`` lists the degrees of the result.  d_i of a degree-j block is a
    gather through ``mono.deriv[j]``, contracted with coordinate i of each
    velocity block; one bincount then lands each product of monomials on
    its monomial through the product table and convolves the lam axes."""
    J = len(blocks) - 1
    lead, d = blocks[0].shape[:-3], blocks[0].shape[-2]
    out_deg = max(J, J - 1 + max(v)) if J >= 1 else J
    out: dict[int, np.ndarray] = {}

    def acc(j: int, block: np.ndarray) -> None:
        out[j] = _padded_sum(out[j], block) if j in out else block

    # d/dlam term
    for j, cj in enumerate(blocks):
        if cj.shape[-3] > 1:
            acc(j, cj[..., 1:, :, :] * np.arange(1, cj.shape[-3])[:, None, None])

    P = math.prod(lead)
    for j in range(1, J + 1):
        if not np.any(blocks[j]):
            continue
        index, factor = mono.deriv[j]
        dj = blocks[j][..., index] * factor  # (..., Lc, d, i, n_{j-1})
        below = slice(mono.start[j - 1], mono.start[j])
        for q, vq in v.items():
            if not np.any(vq):
                continue
            deg_new, Lc, Lv = j - 1 + q, dj.shape[-4], vq.shape[-3]
            n_new, Lout = mono.start[deg_new + 1] - mono.start[deg_new], Lc + Lv - 1
            target = mono.products[q].reshape(-1, vq.shape[-1])[below] - mono.start[deg_new]
            # the products before their index, so that the ravel's copy never meets it
            terms = np.einsum("...xria,...yib->...xyrab", dj, vq).ravel()
            rows = (np.arange(P)[:, None, None] * Lout + np.arange(Lc)[:, None] + np.arange(Lv))
            flat = ((rows[..., None] * d + np.arange(d))[..., None, None] * n_new + target).ravel()
            acc(deg_new, np.bincount(flat, terms, P * Lout * d * n_new).reshape(lead + (Lout, d, n_new)))
            del terms, flat  # before the next pass builds its own

    filled = [out.get(j, np.zeros(lead + (1, d, mono.start[j + 1] - mono.start[j]))) for j in range(out_deg + 1)]
    # drop trailing all-zero degrees
    while len(filled) > 1 and not np.any(filled[-1]):
        filled.pop()
    return filled


def _tower_levels(s: NoiseSchedule, m: PolyNoiseModel, k: int, lams: np.ndarray):
    """Yield D^0 eps (``m.blocks``), ..., D^{k-1} eps around each point of
    ``lams``, from D^1 on batched over the points (kron blocks (C, L+1,
    d, n_j); separable rows (C*d, J+1, L+1), point c in rows c*d ..).
    sigma_lam, sigma_lam^2 and the velocity are built once for all
    points, and each derivative is taken from the one before it, once
    the capacity check has passed the degrees it can reach."""
    yield m.blocks
    if k < 2:
        return
    s1, s2 = _sigma_lambda_polys(s, lams)
    kron = m.mode == "kron"
    if kron:
        coeffs = [np.repeat(cj[None], len(lams), axis=0) for cj in m.blocks]
        v = _velocity_kron(coeffs, s1, s2, m.d)
        Jv, Lv = max(v), max(vq.shape[-3] for vq in v.values())
    else:
        coeffs = np.tile(m.blocks, (len(lams), 1, 1))
        v = _velocity_batch(coeffs, np.repeat(s1, m.d, axis=0), np.repeat(s2, m.d, axis=0))
        Jv, Lv = v.shape[1] - 1, v.shape[2]
    for _ in range(k - 1):
        J1, L = (len(coeffs), max(cj.shape[-3] for cj in coeffs)) if kron else coeffs.shape[1:]
        J = J1 + Jv - 2 if J1 > 1 else 0
        _check_capacity(m.d, J, L + Lv - 2, kron)
        coeffs = _deriv_once_kron(coeffs, v, _monomials(m.d, J)) if kron else _deriv_once_batch(coeffs, v)
        yield coeffs


def _center_tables(m: PolyNoiseModel, level, lams: np.ndarray):
    """Collapse per-point coefficients (batched as :func:`_tower_levels`
    yields them, or ``m.blocks`` for all points), each at its own point of
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
    """Expansion points per chunk: what the last, largest derivative pass
    holds per point, within TOWER_CHUNK_BYTES.  It reads D^{k-2} eps (top
    x-degree a+1, lam length Lc) and builds D^{k-1} eps (top x-degree J+a)
    with the velocity (lam length Lv).  It holds two work arrays (kron: the
    products of the top input and velocity blocks and their int64 bincount
    index; separable: the batch product and its padded sum), the level it
    builds twice and the level it reads three times.  A chunk never splits
    one point's pass, so a point over the budget is a chunk of its own."""
    L, Lv, J = m.lam_degree + 1, m.lam_degree + 1 + SIGMA_TAYLOR_DEGREE, m.x_degree
    a, Lc = (k - 1) * max(J - 1, 0), L + max(k - 2, 0) * (Lv - 1)
    kron = m.mode == "kron"
    upto = (lambda t: math.comb(m.d + t, t)) if kron else (lambda t: t + 1)  # coefficients of degree <= t
    built, read = upto(J + a) * (Lc + Lv - 1), upto(a + 1) * Lc
    work = math.comb(m.d + a - 1, a) * math.comb(m.d + J - 1, J) * Lc * Lv if kron else built
    return max(1, TOWER_CHUNK_BYTES // (8 * m.d * (2 * work + 2 * built + 3 * read)))


def _derivative_tower(s: NoiseSchedule, m: PolyNoiseModel, k: int, lams) -> list:
    """The total derivatives D^0 eps, ..., D^{k-1} eps around each point of ``lams``.

    ``lams`` is a 1-d array of expansion points, a run's step starts.
    Level n is D^n eps collapsed at every point into one table over the
    points, row c at lams[c] (the layout of :func:`_eps_tables`).  It is
    built for all points at once, in chunks of :func:`_tower_chunk`
    points; a degree that one chunk lacks is zero in that chunk's rows.
    No points give no levels.
    """
    lams = np.asarray(lams, dtype=float)
    step = _tower_chunk(m, k)
    parts = [[_center_tables(m, level, part) for level in _tower_levels(s, m, k, part)]
             for part in (lams[lo : lo + step] for lo in range(0, len(lams), step))]
    return parts[0] if len(parts) == 1 else [_concat_tables(m, tables) for tables in zip(*parts)]


def _concat_tables(m: PolyNoiseModel, tables: tuple):
    """Stack the tables of consecutive chunks of points, each zero-padded to
    the largest x-degree among them."""
    if m.mode == "kron":
        return [np.concatenate([t[j] if j < len(t) else np.zeros((len(t[0]), m.d, math.comb(m.d + j - 1, j)))
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
    This is the last of :func:`_tower_levels` at the one point; a kron
    result is given its blocks through :func:`_unfold`.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    if n == 0:
        return m
    *_, level = _tower_levels(s, m, n + 1, np.array([float(lam_center)]))
    return PolyNoiseModel(mode=m.mode, d=m.d,
                          coeffs=_unfold([cj[0] for cj in level], m.d) if m.mode == "kron" else level)
