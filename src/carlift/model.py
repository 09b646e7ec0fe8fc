"""Polynomial noise-prediction models and their lambda-derivatives.

A model is a polynomial map eps(x, lam) in the state x and the log-SNR
lam.  Two coupling modes are supported:

* ``separable``: each coordinate i evolves under its own scalar
  polynomial, given as coefficients c[i, j, l] of x_i^j lam^l; a
  one-coordinate (scalar) model is the d = 1 case.
* ``kron``: full tensor coupling, given as (L+1, d, d^j) blocks: the
  degree-j term is a matrix C_j(lam) acting on the Kronecker power
  x^{(j)}, with a polynomial lam dependence on the leading axis.

The constructor puts both into one layout: one (L+1, d, n_j) block per
x-degree j, row i holding coordinate i's coefficients of the n_j
monomials of degree j, in sorted multi-index order (see
:func:`_monomials`), in the variables that coordinate reads: all d for
kron (the given blocks folded onto the C(d+j-1, j) monomials x^beta),
its own for separable (n_j = 1, row i of block j holding c[i, j, :]).
The derivative tower runs on these blocks, and every coefficient table
that the samplers and the lift read is in the same layout.  The modes
differ in that variable count and in how eps is evaluated: kron by a
contraction with the monomials at x, separable by Horner in x after
Horner in lam over ``coeffs`` (as its Jacobian is).

A run's drift spectra are taken for all its nodes at once, from one
eps table over them.

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
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import CapacityError
from .schedule import NoiseSchedule

__all__ = [
    "PolyNoiseModel",
    "scalar_model",
    "separable_model",
    "kron_model",
    "total_derivative_poly",
]

MAX_X_DEGREE = 24
MAX_LAM_DEGREE = 64
MAX_MONOMIALS = 4096  # columns of a folded kron block, C(d+q-1, q) at its top degree q
SIGMA_TAYLOR_DEGREE = 4
TOWER_CHUNK_BYTES = 1 << 22  # derivative-tower work arrays per chunk of expansion points
MAX_TOWER_BYTES = 2**31  # what one expansion point's largest derivative pass may hold


@dataclass(frozen=True)
class PolyNoiseModel:
    """Polynomial eps(x, lam); immutable after construction.

    ``coeffs`` stays as given.  ``blocks`` is what every computation
    reads: one (L+1, d, n_j) block per degree j, on the degree-j monomials
    in the :attr:`n_vars` variables each coordinate reads (see the module
    docstring).
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
            coeffs = np.array(self.coeffs, dtype=float)
            if coeffs.ndim != 3 or coeffs.shape[0] != self.d:
                raise ValueError("separable coefficients must have shape (d, J+1, L+1)")
            _check_capacity(1, coeffs.shape[1] - 1, coeffs.shape[2] - 1)
            # row i of block j: coordinate i's coefficients of x_i^j, on its one variable
            blocks = tuple(np.ascontiguousarray(cj.T[..., None]) for cj in coeffs.transpose(1, 0, 2))
            given = (coeffs,)
        else:
            shapes = [np.shape(cj) for cj in self.coeffs]
            for j, shape in enumerate(shapes):
                if len(shape) != 3 or shape[1] != self.d or shape[2] != self.d**j:
                    raise ValueError(f"kron degree-{j} block must have shape (L+1, {self.d}, {self.d**j})")
            # before any copy: a block past the caps is refused unallocated
            _check_capacity(self.d, len(shapes) - 1, max(shape[0] for shape in shapes) - 1)
            coeffs = given = tuple(np.array(cj, dtype=float) for cj in self.coeffs)
            blocks = _fold(coeffs, self.d)
        for arr in given + blocks:
            arr.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "blocks", blocks)

    @property
    def n_vars(self) -> int:
        """The variables one coordinate's polynomial reads: d for kron, 1 for separable."""
        return self.d if self.mode == "kron" else 1

    @property
    def x_degree(self) -> int:
        return len(self.blocks) - 1

    @property
    def lam_degree(self) -> int:
        return max(cj.shape[0] for cj in self.blocks) - 1


def _check_capacity(n_vars: int, J: int, L: int) -> None:
    """Refuse coefficients of x-degree J and lam-degree L past the caps, and
    blocks with more than MAX_MONOMIALS monomials of degree J in n_vars
    variables."""
    for what, size, cap in (("x-degree", J, MAX_X_DEGREE), ("lam-degree", L, MAX_LAM_DEGREE),
                            (f"d={n_vars} kron degree-{J} monomial count",
                             math.comb(n_vars + J - 1, J), MAX_MONOMIALS)):
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
_SIGMA_HORNER = [_SIGMA_POLYS[..., -i, None] for i in range(2, _SIGMA_POLYS.shape[-1] + 1)]


def _sigma_lambda_polys(s: NoiseSchedule, lams: np.ndarray):
    """Degree-SIGMA_TAYLOR_DEGREE polynomials of sigma_lam and sigma_lam^2 in lam.

    The Taylor coefficients at each lam_c in ``lams`` (1-d) are
    sigma0 S_n(q0) / n! and R_n(q0) / n! (see :func:`_sigma_recurrences`),
    re-expressed in the absolute lam basis: the powers (lam - lam_c)^n
    by the recurrence that multiplies by lam - lam_c, each coefficient
    the sum of its terms n ascending, from +0.0.  Returns (s1, s2), the
    coefficients of sigma_lam and sigma_lam^2, one row per lam_c.
    """
    q0 = s.sigma2_from_lam(lams)
    taylor = _SIGMA_POLYS[..., -1, None] + q0 * 0  # Horner in q0, as npoly.polyval
    for coef in _SIGMA_HORNER:
        taylor *= q0
        taylor += coef
    taylor[0] *= np.sqrt(q0)
    taylor /= _FACTORIALS[:, None]
    pw = np.zeros((SIGMA_TAYLOR_DEGREE + 1, len(lams), SIGMA_TAYLOR_DEGREE + 1))  # (lam - lam_c)^n
    pw[0, :, 0] = 1.0
    for n in range(1, SIGMA_TAYLOR_DEGREE + 1):
        np.multiply(pw[n - 1], -lams[:, None], out=pw[n])
        pw[n, :, 1:] += pw[n - 1, :, :-1]
    # the sum over n in order; + 0.0 gives a zero sum the sign of one from +0.0
    out = np.add.reduce(taylor[..., None] * pw, axis=1) + 0.0
    return out[0], out[1]


# --- evaluation ------------------------------------------------------------


def _eps_tables(m: PolyNoiseModel, lams: np.ndarray) -> list:
    """The x-polynomial coefficients of eps at each log-SNR in ``lams`` (1-d):
    a list over the x-degree j of arrays (len(lams), d, n_j), the model
    collapsed at each point.  A separable model is collapsed from
    ``m.coeffs`` by Horner in lam, as it is evaluated; a kron model's
    blocks by :func:`_center_tables`, a block without lam dependence
    broadcast, not copied.  :func:`carlift.reference._eps_rows` reads them
    as the reference steppers evaluate them.
    """
    if m.mode == "separable":
        c = npoly.polyval(lams, m.coeffs.transpose(2, 1, 0)[..., None], tensor=False)  # (J+1, d, C)
        return list(c.transpose(0, 2, 1)[..., None])
    return _center_tables(m.blocks, lams)


def _horner(rows, x):
    """sum_j rows[J - j] x^j by Horner in x, from 0.0: the coefficients
    highest degree first, floats on a Python float x or arrays on an
    array."""
    out = 0.0
    for cj in rows:
        out = out * x + cj
    return out


def _monomials_at(mono: _Monomials, x: np.ndarray) -> list:
    """The monomials of each degree 0..N of ``mono`` at the state x, or at
    each state along the leading axes of x, each x_first times its parent
    of the degree below (see :func:`_monomials`)."""
    out = [np.ones(1)]
    for parent, first in zip(mono.parent[1:], mono.first[1:]):
        out.append(out[-1][..., parent] * x[..., first])
    return out


def _kron_dot(mono: _Monomials, F: np.ndarray, x: list) -> list:
    """F x_all at a state x of d Python floats, as a list, in one pass: F
    holds the (d, n_j) coefficient matrices of degree j = 0, 1, ... side
    by side, and x_all the monomials of those degrees at x, float products
    as in :func:`_monomials_at`; only the contraction is an
    ``ndarray.dot``, so the bits are those of the same array product.  It
    is the one kron monomial builder; its callers sum it from +0."""
    x_all, xj = ([1.0, *x] if len(mono.pairs) > 1 else [1.0]), x  # degrees 0 and 1
    for pairs in mono.pairs[2:]:
        xj = [xj[p] * x[f] for p, f in pairs]
        x_all += xj
    return F.dot(x_all).tolist()


def _kron_sum(mono: _Monomials, F: np.ndarray, x: list) -> list:
    """:func:`_kron_dot` summed from +0 (so a -0.0 entry is +0.0): eps at
    x with the bits of the same array steps."""
    return [0.0 + e for e in _kron_dot(mono, F, x)]


def _drift_spectra(s: NoiseSchedule, m: PolyNoiseModel, states: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of J + J^T, J = f(t) I + g^2/(2 sigma_t) d eps/dx
    the drift Jacobian, at each row of ``states`` and its time: one
    (nodes, d) array from one eps table over the nodes, each row the bits
    of a one-node call.  A separable model's J is diagonal, one Horner
    pass in x over all nodes, and is sorted; a kron model's is a batched
    product of the ``mono.deriv`` gathers with the nodes' monomials of
    degree below J, the ones it reads, taken over chunks of nodes that
    keep the gathers within TOWER_CHUNK_BYTES, and one ``eigvalsh`` takes
    the spectra of the stack."""
    if np.any(low := times < s.t_floor):
        raise ValueError(f"t={float(times[low.argmax()])} below t_floor={s.t_floor}; "
                         "sigma_t is numerically singular")
    tables = _eps_tables(m, s.lam(times))
    f, scale = s.f(times)[:, None], (s.g2(times) / (2.0 * s.sigma(times)))[:, None]
    if m.mode == "separable":  # a model without x-dependence has the scalar diagonal 0.0
        deps = _horner([j * t[..., 0] for j, t in enumerate(tables)][:0:-1], states)
        return np.sort(2.0 * (f + scale * np.broadcast_to(deps, states.shape)), axis=1)
    mono, lower = _monomials(m.d, m.x_degree), _monomials(m.d, max(m.x_degree - 1, 0))
    jac = np.zeros(states.shape + (m.d,))
    per_chunk = max(1, TOWER_CHUNK_BYTES // (8 * m.d * (m.d + 1) * lower.start[-1]))  # nodes
    for lo in range(0, len(states), per_chunk):
        at = slice(lo, lo + per_chunk)
        below = _monomials_at(lower, states[at])
        for j, table in enumerate(tables[1:], start=1):
            # the derivative table takes F_j onto the degree-(j-1) monomials at each state
            index, factor = mono.deriv[j]
            gathered = table[at][:, :, index]
            gathered *= factor
            jac[at] += np.matmul(gathered, below[j - 1][..., None, :, None])[..., 0]
    J = f[..., None] * np.eye(m.d) + scale[..., None] * jac
    return np.linalg.eigvalsh(J + J.swapaxes(1, 2))


# --- total lambda-derivative ------------------------------------------------


class _Velocity(NamedTuple):
    """dx/dlam as the derivative passes read it, built once per tower.

    ``blocks`` (..., Y, n, B) holds the velocity's monomial blocks side by
    side, degrees ascending: degree q's (..., Lv, n, n_q) block in columns
    lo:hi of each (q, Lv, lo, hi) in ``spans``, zero past its lam length
    Lv.  A degree that is zero everywhere has no span; ``top`` is the
    highest degree built.  ``const`` is degree 0's block on its own and
    contiguous when there are n > 1 variables: einsum sums a degree-1
    block's products with it over i in another order when it is read as a
    column of ``blocks``, so that one product is taken against it alone.
    """

    blocks: np.ndarray
    spans: tuple
    top: int
    const: object


def _velocity_kron(blocks0: list[np.ndarray], s1, s2, n: int) -> _Velocity:
    """dx/dlam = sigma^2 x - sigma eps from the undifferentiated model's
    blocks (..., L, n, n_q) in n variables: sigma eps over its nonzero
    degrees side by side, one pass per power of lam in the model, then
    sigma^2 x added into degree 1.  Leading axes (one per expansion point
    and one per group) broadcast.  Each entry subtracts its terms in the
    order of each degree's own convolution, s1's powers ascending; a
    shorter lam axis's zero padding only subtracts +0.0 and -0.0 from a
    sum that started at +0.0."""
    given = [q for q, cq in enumerate(blocks0) if cq.any()]
    degrees = sorted({1, *given})
    Ls = s1.shape[-1]
    lens = [blocks0[q].shape[-3] + Ls - 1 if q in given else Ls for q in degrees]
    L = max(lens) - Ls + 1
    stack = np.concatenate([_pad_lam(blocks0[q], L) if q in given else np.zeros(blocks0[0].shape[:-3] + (L, n, n))
                            for q in degrees], axis=-1)
    bounds = [0, *itertools.accumulate(n if q == 1 else blocks0[q].shape[-1] for q in degrees)]
    lead = tuple(map(max, stack.shape[:-3], s1.shape[:-1]))  # both of the points and groups, or neither
    v = np.zeros(lead + (max(lens), n, bounds[-1]))
    if given:
        s1 = s1[..., None, None]
        for l1 in reversed(range(L)):  # entry l meets s1's powers l - l1 ascending
            v[..., l1 : l1 + Ls, :, :] -= s1 * stack[..., l1 : l1 + 1, :, :]
    one = bounds[degrees.index(1)]
    s2x = s2[..., None, None] * np.eye(n)
    if 1 in given:
        v[..., :Ls, :, one : one + n] += s2x
    else:
        v[..., :Ls, :, one : one + n] = s2x
    nonzero = v.any(axis=tuple(range(v.ndim - 1))).tolist()
    spans = tuple((q, Lv, lo, hi) for q, Lv, lo, hi in zip(degrees, lens, bounds, bounds[1:])
                  if any(nonzero[lo:hi]))
    const = None
    if n > 1 and spans[0][0] == 0:
        _, Lv, lo, hi = spans[0]
        const = np.ascontiguousarray(v[..., :Lv, :, lo:hi])
    return _Velocity(blocks=v, spans=spans, top=degrees[-1], const=const)


def _pad_lam(block: np.ndarray, L: int) -> np.ndarray:
    """``block`` (..., L0, n, m) zero-padded to lam length L."""
    if block.shape[-3] == L:
        return block
    out = np.zeros(block.shape[:-3] + (L,) + block.shape[-2:])
    out[..., : block.shape[-3], :, :] = block
    return out


def _pass_bins(n: int, N: int, j: int, Lc: int, group: tuple, lens: list):
    """One point's bins for the products of a degree-j block (lam length
    Lc) with the velocity spans ``group``, laid out (x, y, r, a, b) as
    :func:`_deriv_once_kron` takes them, on the run of degrees the group
    reaches, each (lam length in ``lens``, n, n_t) as in the pass's output:
    product (x, y, r, a, b) of span q lands at lam power x + y, row r and
    the degree-(j-1+q) monomial of a b, on the monomials of degree 0..N in
    n variables.  A product one past its span's lam length, or in a column
    between spans (a degree the velocity lacks), lands in the last bin.
    Returns the flat index, the bins and the (start, stop) bins of each
    stretch of degrees that a product reaches."""
    mono, first, base = _monomials(n, N), j - 1 + group[0][0], group[0][2]
    start, Y = mono.start, max(Lv for _, Lv, _, _ in group)
    at = [0]  # where each degree's bins start
    for t, L in enumerate(lens, start=first):
        at.append(at[-1] + L * n * (start[t + 1] - start[t]))
    # each column's stride over (x + y) n + r, and the shift from the index of
    # the monomial a b to its bin at x = y = r = 0
    stride, shift, cols, runs, end = [], [], [], [], base
    for q, _, lo, hi in group:
        t = j - 1 + q
        if lo > end:  # the columns of a degree between spans, all in the last bin
            stride += [0] * (lo - end)
            shift += [at[-1]] * (lo - end)
            cols.append(np.zeros((start[j] - start[j - 1], lo - end), np.intp))
        stride += [start[t + 1] - start[t]] * (hi - lo)
        shift += [at[t - first] - start[t]] * (hi - lo)
        cols.append(mono.products[q].reshape(-1, hi - lo)[start[j - 1] : start[j]])
        end = hi
        if runs and runs[-1][1] == at[t - first]:  # this degree follows the last one reached
            runs[-1] = (runs[-1][0], at[t - first + 1])
        else:
            runs.append((at[t - first], at[t - first + 1]))
    xy = np.add.outer(np.arange(0, Lc * n, n), np.arange(Y * n))  # (x + y) n + r
    idx = np.multiply.outer(xy, stride).reshape(Lc, Y, n, 1, -1) + (np.concatenate(cols, axis=1) + shift)
    for q, Lv, lo, hi in group:
        if Lv < Y:
            idx[:, Lv:, ..., lo - base : hi - base] = at[-1]
    return idx.ravel(), at[-1] + 1, tuple(runs)


def _pass_groups(v: _Velocity, j: int, per_col: int) -> list:
    """The velocity operands of a degree-j pass, each with its spans: the
    spans side by side in one operand, or, where that would hold more than
    a quarter of TOWER_CHUNK_BYTES of products and bin index per point
    (``per_col`` bytes a column), in runs of whole spans that keep within
    it; degree 0 on its own for j = 1 when ``v.const`` is set."""
    spans, groups, run = list(v.spans), [], []
    if j == 1 and v.const is not None:
        groups.append((v.const, (spans.pop(0),)))
    for span in [*spans, None]:
        if run and (span is None or (span[3] - run[0][2]) * per_col > TOWER_CHUNK_BYTES // 4):
            Y = max(Lv for _, Lv, _, _ in run)
            groups.append((v.blocks[..., :Y, :, run[0][2] : run[-1][3]], tuple(run)))
            run = []
        run.append(span)
    return groups


def _deriv_once_kron(blocks: list[np.ndarray], v: _Velocity, mono: _Monomials) -> list[np.ndarray]:
    """D eps = d_lam eps + sum_i (d_i eps) v_i on monomial blocks (..., L, n, n_j).

    ``mono`` lists the degrees of the result, each a (..., L, n, n_t) view
    of one zeroed array, L the longest lam length landing there.  d_i of a
    degree-j block is a gather through ``mono.deriv[j]``; one einsum
    contracts it with coordinate i of the velocity blocks side by side, and
    one bincount lands each product of monomials on its monomial through
    the product table and convolves the lam axes, every (j, q) pair in
    bins of its own laid out as the result's degrees are (see
    :func:`_pass_groups` for the passes that take the velocity in
    groups).  The d/dlam term is written first, and each j's bins are
    added in one stretch, j ascending: every entry gets its terms in the
    order of one einsum and bincount per pair added pair by pair into a
    sum from +0.0, or is the d/dlam term itself where nothing else lands."""
    J = len(blocks) - 1
    lead, n = v.blocks.shape[:-3], blocks[0].shape[-2]
    P, rows = math.prod(lead), math.prod(lead[1:]) * n
    top = max(J, J - 1 + v.top) if J >= 1 else J
    live = [j for j in range(1, J + 1) if blocks[j].any()]
    # each degree's lam length, and how many terms land there
    lens = [cj.shape[-3] - 1 for cj in blocks] + [0] * (top - J)
    landings = [int(L > 0) for L in lens]
    for j in live:
        for q, Lv, _, _ in v.spans:
            lens[j - 1 + q] = max(lens[j - 1 + q], blocks[j].shape[-3] + Lv - 1)
            landings[j - 1 + q] += 1
    lens = [max(L, 1) for L in lens]
    size = [mono.start[t + 1] - mono.start[t] for t in range(top + 1)]
    at = [0, *itertools.accumulate(L * n * nt for L, nt in zip(lens, size))]
    flat_out = np.zeros(lead + (at[-1],))
    out = [flat_out[..., at[t] : at[t + 1]].reshape(lead + (lens[t], n, size[t])) for t in range(top + 1)]
    for t, cj in enumerate(blocks):
        if cj.shape[-3] > 1:  # written as it is where nothing else lands, else added to +0.0
            dt = cj[..., 1:, :, :] * np.arange(1, cj.shape[-3])[:, None, None]
            out[t][..., : cj.shape[-3] - 1, :, :] = dt if landings[t] == 1 else 0.0 + dt
    for j in live:
        index, factor = mono.deriv[j]
        dj = blocks[j][..., index] * factor  # (..., Lc, n, i, n_{j-1})
        Lc = dj.shape[-4]
        for V, group in _pass_groups(v, j, 16 * rows * Lc * v.blocks.shape[-3] * dj.shape[-1]):
            first = j - 1 + group[0][0]
            idx, S, runs = _pass_bins(n, len(mono.start) - 2, j, Lc, group, lens[first : j + group[-1][0]])
            # the products before their index, so that the ravel's copy never meets it
            terms = np.einsum("...xria,...yib->...xyrab", dj, V).ravel()
            flat = np.add.outer(np.arange(0, P * S, S), idx).ravel() if P > 1 else idx
            binned = np.bincount(flat, terms, P * S).reshape(lead + (S,))
            del terms, flat  # before the next pass builds its own
            for lo, hi in runs:
                flat_out[..., at[first] + lo : at[first] + hi] += binned[..., lo:hi]
            del binned
    # drop trailing all-zero degrees
    while len(out) > 1 and not out[-1].any():
        out.pop()
    return out


def _tower_levels(s: NoiseSchedule, m: PolyNoiseModel, k: int, lams: np.ndarray):
    """Yield D^1 eps, ..., D^{k-1} eps around each point of ``lams``, as
    blocks (C, L, d, n_j) batched over the points.

    The passes run on groups of coordinates whose polynomials read the
    same m.n_vars variables: a kron model is one group of d coordinates,
    a separable model d groups of one, carried as a second batch axis
    after the points.  sigma_lam, sigma_lam^2 and the velocity are built
    once for all points, the first pass reads the model's blocks broadcast
    over them, and each derivative is taken from the one before it, once
    the capacity check has passed the degrees it can reach.  Its callers
    price the passes with :func:`_tower_chunk` first, which refuses a pass
    over MAX_TOWER_BYTES before anything is built."""
    if k < 2:
        return
    C, n, groups = len(lams), m.n_vars, m.d // m.n_vars
    s1, s2 = (p[:, None] for p in _sigma_lambda_polys(s, lams))  # (C, 1, ...), every group's
    # (1, groups, L+1, n, n_j): the first pass broadcasts them over the points
    coeffs = [cj.reshape(len(cj), groups, n, -1).swapaxes(0, 1)[None] for cj in m.blocks]
    v = _velocity_kron(coeffs, s1, s2, n)
    Jv, Lv = v.top, v.blocks.shape[-3]
    for _ in range(k - 1):
        J1, L = len(coeffs), max(cj.shape[-3] for cj in coeffs)
        J = J1 + Jv - 2 if J1 > 1 else 0
        _check_capacity(n, J, L + Lv - 2)
        coeffs = _deriv_once_kron(coeffs, v, _monomials(n, J))
        # contiguous: the collapse's matmul keeps a block's bits only in one memory order
        yield [np.ascontiguousarray(cj.swapaxes(1, 2)).reshape(C, cj.shape[2], m.d, -1) for cj in coeffs]


def _center_tables(level, lams: np.ndarray) -> list:
    """Collapse per-point blocks (C, L, d, n_j), as :func:`_tower_levels`
    yields them, or blocks (L, d, n_j) for all points, each at its own
    point of ``lams``, into the layout of :func:`_eps_tables`.  Blocks
    with lam dependence are collapsed by one stacked matmul of each
    point's lam powers, formed once for the level, with its block, which
    gives every point a single collapse's bits."""
    powers = lams[:, None, None] ** np.arange(max(cj.shape[-3] for cj in level))
    return [(cj[:, 0] if cj.ndim == 4 else np.broadcast_to(cj[0], (len(lams),) + cj.shape[-2:]))
            if cj.shape[-3] == 1
            else np.matmul(np.ascontiguousarray(powers[..., : cj.shape[-3]]),
                           cj.reshape(cj.shape[:-2] + (-1,))
                           ).reshape((len(lams),) + cj.shape[-2:])
            for cj in level]


def _tower_chunk(m: PolyNoiseModel, k: int) -> int:
    """Expansion points per chunk: what the last, largest derivative pass
    holds per point, within TOWER_CHUNK_BYTES.  It reads D^{k-2} eps (top
    x-degree a+1, lam length Lc) and builds D^{k-1} eps (top x-degree J+a)
    with the velocity (degrees 0..J, lam length Lv), per coordinate on the
    monomials in m.n_vars variables.  It holds two work arrays, the
    products of the top input block with the velocity blocks side by side
    and their int64 bin index, as wide as :func:`_pass_groups` takes them;
    the level it builds twice (the result and one degree's bins); the
    level it reads twice (the input and its yielded copy); the gathered
    top block; and the velocity.  The chunk also holds one point's bin
    index, from which the work index is built.  A chunk never splits one
    point's pass, so a point over the budget is a chunk of its own; a pass
    (k >= 2) over MAX_TOWER_BYTES raises CapacityError."""
    L, Lv, J, n = m.lam_degree + 1, m.lam_degree + 1 + SIGMA_TAYLOR_DEGREE, m.x_degree, m.n_vars
    a, Lc = (k - 1) * max(J - 1, 0), L + max(k - 2, 0) * (Lv - 1)
    built, read = math.comb(n + J + a, J + a) * (Lc + Lv - 1), math.comb(n + a + 1, a + 1) * Lc
    per_col, cols = math.comb(n + a - 1, a) * Lc * Lv, math.comb(n + J, J)  # a column's products, per row
    if 16 * m.d * per_col * cols > TOWER_CHUNK_BYTES // 4:
        cols = max(TOWER_CHUNK_BYTES // 4 // (16 * m.d * per_col), math.comb(n + J - 1, J))
    gathered, velocity = n * math.comb(n + a - 1, a) * Lc, math.comb(n + J, J) * Lv
    nbytes = 8 * m.d * (2 * per_col * cols + 2 * built + 2 * read + gathered + velocity)
    index = 8 * n * per_col * cols  # one point's bin index, for one group of coordinates
    if nbytes + index > MAX_TOWER_BYTES and k >= 2:
        raise CapacityError(f"one point's derivative pass needs {nbytes + index} bytes, above {MAX_TOWER_BYTES}")
    return max(1, (TOWER_CHUNK_BYTES - index) // nbytes)


def _derivative_tower(s: NoiseSchedule, m: PolyNoiseModel, k: int, lams) -> list:
    """The total derivatives D^0 eps, ..., D^{k-1} eps around each point of ``lams``.

    ``lams`` is a 1-d array of expansion points, a run's step starts.
    Level n is D^n eps collapsed at every point into one table over the
    points, row c at lams[c]; level 0 is :func:`_eps_tables`.  It is
    built for all points at once, in chunks of :func:`_tower_chunk`
    points; a degree that one chunk lacks is zero in that chunk's rows.
    No points give no levels.
    """
    lams = np.asarray(lams, dtype=float)
    step = _tower_chunk(m, k)
    parts = [[_eps_tables(m, part), *(_center_tables(level, part) for level in _tower_levels(s, m, k, part))]
             for part in (lams[lo : lo + step] for lo in range(0, len(lams), step))]
    return parts[0] if len(parts) == 1 else [_concat_tables(m, tables) for tables in zip(*parts)]


def _concat_tables(m: PolyNoiseModel, tables: tuple) -> list:
    """Stack the tables of consecutive chunks of points, each zero-padded to
    the largest x-degree among them."""
    return [np.concatenate([t[j] if j < len(t) else np.zeros((len(t[0]), m.d, math.comb(m.n_vars + j - 1, j)))
                            for t in tables]) for j in range(max(map(len, tables)))]


def total_derivative_poly(s: NoiseSchedule, m: PolyNoiseModel, n: int,
                          lam_center: float) -> PolyNoiseModel:
    """n-th total derivative of eps along the flow, as a polynomial model.

    The chain rule D eps = d_lam eps + (d_x eps) . (sigma^2 x - sigma eps)
    is applied n times symbolically; sigma_lam and sigma_lam^2 enter as
    degree-SIGMA_TAYLOR_DEGREE Taylor polynomials around lam_center, so
    the result is exact up to the O((lam - lam_center)^{SIGMA_TAYLOR_DEGREE+1})
    truncation of those two factors.  n = 0 returns the model unchanged.
    This is the last of :func:`_tower_levels` at the one point, given in
    the model's mode: kron blocks through :func:`_unfold`, separable
    coefficients zero-padded to the largest lam-degree.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    if n == 0:
        return m
    _tower_chunk(m, n + 1)  # refuses a pass over MAX_TOWER_BYTES before any is built
    *_, level = _tower_levels(s, m, n + 1, np.array([float(lam_center)]))
    if m.mode == "kron":
        return PolyNoiseModel(mode=m.mode, d=m.d, coeffs=_unfold([cj[0] for cj in level], m.d))
    L = max(cj.shape[1] for cj in level)
    coeffs = np.stack([np.pad(cj[0, ..., 0], ((0, L - cj.shape[1]), (0, 0))) for cj in level])  # (J+1, L+1, d)
    return PolyNoiseModel(mode=m.mode, d=m.d, coeffs=coeffs.transpose(2, 0, 1))
