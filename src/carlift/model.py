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


def _padded_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a + b, each zero-padded at the end of every axis to the larger shape."""
    out = np.zeros(np.maximum(a.shape, b.shape))
    out[tuple(map(slice, a.shape))] += a
    out[tuple(map(slice, b.shape))] += b
    return out


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
            # each product's bin: its point and lam power x + y, then its row and monomial
            lam_bins = np.arange(P)[:, None] * Lout + (np.arange(Lc)[:, None] + np.arange(Lv)).ravel()
            lam_bins *= d * n_new
            flat = np.add.outer(lam_bins.ravel(), (np.arange(d)[:, None, None] * n_new + target).ravel()).ravel()
            acc(deg_new, np.bincount(flat, terms, P * Lout * d * n_new).reshape(lead + (Lout, d, n_new)))
            del terms, flat  # before the next pass builds its own

    filled = [out.get(j, np.zeros(lead + (1, d, mono.start[j + 1] - mono.start[j]))) for j in range(out_deg + 1)]
    # drop trailing all-zero degrees
    while len(filled) > 1 and not np.any(filled[-1]):
        filled.pop()
    return filled


def _tower_levels(s: NoiseSchedule, m: PolyNoiseModel, k: int, lams: np.ndarray):
    """Yield D^1 eps, ..., D^{k-1} eps around each point of ``lams``, as
    blocks (C, L, d, n_j) batched over the points.

    The passes run on groups of coordinates whose polynomials read the
    same m.n_vars variables: a kron model is one group of d coordinates,
    a separable model d groups of one, carried as a second batch axis
    after the points.  sigma_lam, sigma_lam^2 and the velocity are built
    once for all points, and each derivative is taken from the one before
    it, once the capacity check has passed the degrees it can reach."""
    if k < 2:
        return
    _tower_chunk(m, k)  # refuses a point's pass over MAX_TOWER_BYTES before any is built
    C, n, groups = len(lams), m.n_vars, m.d // m.n_vars
    s1, s2 = (np.repeat(p[:, None], groups, axis=1) for p in _sigma_lambda_polys(s, lams))
    coeffs = [np.repeat(cj.reshape(len(cj), groups, n, -1).swapaxes(0, 1)[None], C, axis=0)
              for cj in m.blocks]  # (C, groups, L+1, n, n_j)
    v = _velocity_kron(coeffs, s1, s2, n)
    Jv, Lv = max(v), max(vq.shape[-3] for vq in v.values())
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
    return [np.broadcast_to(cj[..., 0, :, :], (len(lams),) + cj.shape[-2:]) if cj.shape[-3] == 1
            else np.matmul(np.ascontiguousarray(powers[..., : cj.shape[-3]]),
                           cj.reshape(cj.shape[:-2] + (-1,))
                           ).reshape((len(lams),) + cj.shape[-2:])
            for cj in level]


def _tower_chunk(m: PolyNoiseModel, k: int) -> int:
    """Expansion points per chunk: what the last, largest derivative pass
    holds per point, within TOWER_CHUNK_BYTES.  It reads D^{k-2} eps (top
    x-degree a+1, lam length Lc) and builds D^{k-1} eps (top x-degree J+a)
    with the velocity (lam length Lv), per coordinate on the monomials in
    m.n_vars variables.  It holds two work arrays (the products of the top
    input and velocity blocks and their int64 bincount index), the level
    it builds twice and the level it reads three times.  A chunk never
    splits one point's pass, so a point over the budget is a chunk of its
    own; a pass (k >= 2) over MAX_TOWER_BYTES raises CapacityError."""
    L, Lv, J, n = m.lam_degree + 1, m.lam_degree + 1 + SIGMA_TAYLOR_DEGREE, m.x_degree, m.n_vars
    a, Lc = (k - 1) * max(J - 1, 0), L + max(k - 2, 0) * (Lv - 1)
    built, read = math.comb(n + J + a, J + a) * (Lc + Lv - 1), math.comb(n + a + 1, a + 1) * Lc
    work = math.comb(n + a - 1, a) * math.comb(n + J - 1, J) * Lc * Lv
    if (nbytes := 8 * m.d * (2 * work + 2 * built + 3 * read)) > MAX_TOWER_BYTES and k >= 2:
        raise CapacityError(f"one point's derivative pass needs {nbytes} bytes, above {MAX_TOWER_BYTES}")
    return max(1, TOWER_CHUNK_BYTES // nbytes)


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
    *_, level = _tower_levels(s, m, n + 1, np.array([float(lam_center)]))
    if m.mode == "kron":
        return PolyNoiseModel(mode=m.mode, d=m.d, coeffs=_unfold([cj[0] for cj in level], m.d))
    L = max(cj.shape[1] for cj in level)
    coeffs = np.stack([np.pad(cj[0, ..., 0], ((0, L - cj.shape[1]), (0, 0))) for cj in level])  # (J+1, L+1, d)
    return PolyNoiseModel(mode=m.mode, d=m.d, coeffs=coeffs.transpose(2, 0, 1))
