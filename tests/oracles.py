"""Reference implementations that only the tests use.

Each one restates a quantity the package computes some other way, or
reads back what it writes, so a test can check the package against an
independent form.
"""

import numpy as np
import scipy.sparse as sp

from carlift.carleman import CarlemanBasis, lift, step_polynomial_dpm
from carlift.model import PolyNoiseModel, eval_eps, kron_model, separable_model
from carlift.schedule import NoiseSchedule


def zero_model(d: int = 1, mode: str = "separable") -> PolyNoiseModel:
    """The model eps = 0 in the given mode."""
    if mode == "separable":
        return separable_model(np.zeros((d, 1, 1)))
    if mode == "kron":
        return kron_model(d, {0: np.zeros((1, d, 1))})
    raise ValueError(f"unknown mode {mode!r}")


def dlam_dt(s: NoiseSchedule, t):
    """d lam / dt = f(t) / sigma_t^2, strictly negative on (0, T]."""
    return s.f(t) / s.sigma(t) ** 2


def dx_dlambda(s: NoiseSchedule, m: PolyNoiseModel, x, lam: float) -> np.ndarray:
    """Right-hand side of the flow in lam: sigma^2 x - sigma eps(x, lam)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    sig = float(s.sigma_from_lam(lam))
    return sig**2 * x - sig * eval_eps(m, x, lam)


def compose_poly_power(P: dict[int, np.ndarray], m: int, basis: CarlemanBasis) -> dict[int, np.ndarray]:
    """Coefficients of the m-th Kronecker power of a polynomial map.

    P maps degree q to the (d, d^q) coefficient matrix B_q; the result
    maps degree q to the (d^m, d^q) coefficient of x^{(q)} in
    P(x)^{(m)}, with degrees above the basis truncation dropped.
    """
    if m < 0:
        raise ValueError("need m >= 0")
    for q, B in P.items():
        if np.shape(B) != (basis.d, basis.d**q):
            raise ValueError(f"degree-{q} coefficient must have shape ({basis.d}, {basis.d**q})")
    out: dict[int, np.ndarray] = {0: np.ones((1, 1))}
    for _ in range(m):
        new: dict[int, np.ndarray] = {}
        for q1, R in out.items():
            for q2, B in P.items():
                if q1 + q2 <= basis.N:
                    new[q1 + q2] = new.get(q1 + q2, 0.0) + np.kron(R, B)
        out = new
    return out


def _times_poly(R: dict[int, np.ndarray], P: dict[int, np.ndarray], N: int) -> dict[int, np.ndarray]:
    """Coefficients of R(x) (x) P(x), dropping degrees above N."""
    new: dict[int, np.ndarray] = {}
    for q1, Rq in R.items():
        for q2, B in P.items():
            qt = q1 + q2
            if qt <= N:
                term = np.kron(Rq, B)
                new[qt] = new[qt] + term if qt in new else term
    return new


def _slab(R: dict[int, np.ndarray], basis: CarlemanBasis, rows: int) -> sp.csr_matrix:
    """(rows, dim_total) CSR matrix holding R[q] in column block q >= 1."""
    buf = np.zeros((rows, basis.dim_total))
    for q, mat in R.items():
        if q >= 1:
            buf[:, basis.block_slice(q)] = mat
    mask = buf != 0
    indptr = np.zeros(rows + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(mask, axis=1), out=indptr[1:])
    cols = np.broadcast_to(np.arange(basis.dim_total, dtype=np.int32), buf.shape)
    return sp.csr_matrix((buf[mask], cols[mask], indptr), shape=buf.shape)


def slab_poly_to_update(P: dict[int, np.ndarray], basis: CarlemanBasis, delta: bool = False):
    """The step lift one block row at a time: each row's Kronecker products
    as a fresh dict, each row a CSR slab, the slabs stacked.  This is the
    formulation that carleman._poly_to_update's single dense buffer
    replaced, kept to check it entry for entry and to bound its memory."""
    b = np.zeros(basis.dim_total)
    Ptrunc = {q: B for q, B in P.items() if q <= basis.N and np.any(B)}
    R: dict[int, np.ndarray] = {0: np.ones((1, 1))}
    rows = []
    for j in range(1, basis.N + 1):
        R = _times_poly(R, Ptrunc, basis.N)
        n_j = basis.d**j
        if 0 in R:
            b[basis.block_slice(j)] = R[0][:, 0]
        row = {**R, j: R.get(j, 0.0) - np.eye(n_j)} if delta else R
        rows.append(_slab(row, basis, n_j))
    return sp.vstack(rows, format="csr"), b


def slab_run_lifted_dpm(s: NoiseSchedule, m: PolyNoiseModel, x_T, grid, basis: CarlemanBasis,
                        k: int):
    """A derivative-scheme lifted trajectory lifted and walked step by
    step with :func:`slab_poly_to_update`; returns (states, [(A, b)]).
    The walk multiplies by the dense A, as the lifted walk does."""
    states = [lift(x_T, basis).y]
    steps = []
    for i in range(1, grid.M + 1):
        A, b = slab_poly_to_update(step_polynomial_dpm(s, m, i, grid, k), basis, delta=True)
        states.append(states[-1] + A.toarray() @ states[-1] + b)
        steps.append((A, b))
    return states, steps


def import_matrix(path) -> sp.csr_matrix:
    """Read a matrix written by :func:`carlift.system.export_matrix`."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise ValueError("matrix header must be 'rows cols nnz'")
        rows, cols, nnz = (int(x) for x in header)
        r = np.empty(nnz, dtype=int)
        c = np.empty(nnz, dtype=int)
        v = np.empty(nnz, dtype=float)
        for k in range(nnz):
            parts = fh.readline().split()
            if len(parts) != 3:
                raise ValueError(f"bad triplet on line {k + 2}")
            r[k], c[k], v[k] = int(parts[0]), int(parts[1]), float(parts[2])
    return sp.coo_matrix((v, (r, c)), shape=(rows, cols)).tocsr()
