"""Reference implementations that only the tests use.

Each one restates a quantity the package computes some other way, or
reads back what it writes, so a test can check the package against an
independent form.
"""

import numpy as np
import scipy.sparse as sp

from carlift.carleman import CarlemanBasis
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
