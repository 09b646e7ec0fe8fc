"""Property tests of the vectorised lift -> assemble -> solve path against
the straightforward formulations kept here as oracles: the explicit
sparse-Kronecker total derivative, the per-n rebuild of the total
derivative, sp.bmat global assembly, and the sequential lifted walk."""

import math

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly
from scipy.special import expit

from carlift.carleman import CarlemanBasis, UnipcQcmSet, run_lifted
from carlift.errors import StructureError
from carlift import model
from carlift.model import (
    SIGMA_TAYLOR_DEGREE,
    _batch_mul,
    _deriv_once_kron,
    _derivative_tower,
    _lamconv,
    _trim_batch,
    _velocity_batch,
    _velocity_kron,
    kron_model,
    separable_model,
)
from carlift.reference import run_dpm
from carlift.schedule import make_lambda_grid, make_vp_schedule
from carlift.solve import forward_substitute
from carlift.system import assemble_global_dpm, assemble_global_unipc, condition_number

S = make_vp_schedule(0.1, 20.0, 1.0)
PROPERTY = settings(max_examples=25, deadline=None)


# --- oracles ------------------------------------------------------------------


def deriv_once_kron_oracle(blocks, v, d):
    """One application of D eps = d_lam eps + (d_x eps) . v, inserting v_q
    into each slot of x^{(j)} through explicit I (x) V (x) I matrices."""
    J = len(blocks) - 1
    out_deg = max(J, J - 1 + max(v)) if J >= 1 else J
    out = [np.zeros((1, d, d**j)) for j in range(out_deg + 1)]

    def acc(j, block):
        L = max(out[j].shape[0], block.shape[0])
        grown = np.zeros((L, d, d**j))
        grown[: out[j].shape[0]] += out[j]
        grown[: block.shape[0]] += block
        out[j] = grown

    for j, cj in enumerate(blocks):
        if cj.shape[0] > 1:
            acc(j, cj[1:] * np.arange(1, cj.shape[0])[:, None, None])
    for j in range(1, J + 1):
        cj = blocks[j]
        for q, vq in v.items():
            deg_new = j - 1 + q
            for a in range(j):
                left = sp.identity(d**a, format="csr")
                right = sp.identity(d ** (j - 1 - a), format="csr")
                prod = np.zeros((cj.shape[0] + vq.shape[0] - 1, d, d**deg_new))
                for l2 in range(vq.shape[0]):
                    slab = sp.kron(left, sp.kron(sp.csr_matrix(vq[l2]), right), format="csr")
                    for l1 in range(cj.shape[0]):
                        prod[l1 + l2] += cj[l1] @ slab
                acc(deg_new, prod)
    while len(out) > 1 and not np.any(out[-1]):
        out.pop()
    return out


def sigma_lambda_polys_per_call(lam_center):
    """Taylor polynomials of sigma_lam and sigma_lam^2 around lam_center,
    running the R_n / S_n recurrence afresh on every call."""
    q0 = float(expit(-2.0 * lam_center))
    sig0 = math.sqrt(q0)
    shrink = np.array([0.0, -2.0, 2.0])
    degree = SIGMA_TAYLOR_DEGREE
    R = np.array([0.0, 1.0])
    S_ = np.array([1.0])
    one_minus = np.array([1.0, -1.0])
    tay_q = np.empty(degree + 1)
    tay_s = np.empty(degree + 1)
    for n in range(degree + 1):
        tay_q[n] = npoly.polyval(q0, R) / math.factorial(n)
        tay_s[n] = sig0 * npoly.polyval(q0, S_) / math.factorial(n)
        R = npoly.polymul(npoly.polyder(R), shrink)
        S_ = npoly.polyadd(npoly.polymul(-one_minus, S_), npoly.polymul(shrink, npoly.polyder(S_)))

    def shift(taylor):
        out = np.zeros(degree + 1)
        pw = np.array([1.0])
        base = np.array([-lam_center, 1.0])
        for a in taylor:
            out[: len(pw)] += a * pw
            pw = npoly.polymul(pw, base)
        return out

    return shift(tay_s), shift(tay_q)


def deriv_once_batch_by_hand(arr, v):
    B, J1, L1 = arr.shape
    dlam = arr[:, :, 1:] * np.arange(1, L1)[None, None, :] if L1 > 1 else np.zeros((B, J1, 1))
    if J1 == 1:
        return _trim_batch(dlam)
    prod = _batch_mul(arr[:, 1:, :] * np.arange(1, J1)[None, :, None], v)
    out = np.zeros((B, max(dlam.shape[1], prod.shape[1]), max(dlam.shape[2], prod.shape[2])))
    out[:, : dlam.shape[1], : dlam.shape[2]] += dlam
    out[:, : prod.shape[1], : prod.shape[2]] += prod
    return _trim_batch(out)


def grow_add(a, b):
    """Pad two kron blocks along the lam axis to the longer one and add."""
    grown = np.zeros((max(a.shape[0], b.shape[0]),) + a.shape[1:])
    grown[: a.shape[0]] += a
    grown[: b.shape[0]] += b
    return grown


def velocity_kron_by_hand(blocks0, s1, s2, d):
    v = {1: np.zeros((len(s2), d, d))}
    v[1][:, :, :] = s2[:, None, None] * np.eye(d)[None, :, :]
    for q, cq in enumerate(blocks0):
        if np.any(cq):
            contrib = -_lamconv(cq, s1)
            v[q] = grow_add(v[q], contrib) if q in v else contrib
    return v


def deriv_once_kron_by_hand(blocks, v, d):
    """The einsum slot insertion with its accumulator written out."""
    J = len(blocks) - 1
    out_deg = max(J, J - 1 + max(v)) if J >= 1 else J
    out = [None] * (out_deg + 1)

    def acc(j, block):
        if j <= out_deg:
            out[j] = np.array(block) if out[j] is None else grow_add(out[j], block)

    for j, cj in enumerate(blocks):
        if cj.shape[0] > 1:
            acc(j, cj[1:] * np.arange(1, cj.shape[0])[:, None, None])
    for j in range(1, J + 1):
        cj = blocks[j]
        if not np.any(cj):
            continue
        for q, vq in v.items():
            if not np.any(vq):
                continue
            deg_new = j - 1 + q
            Lc, Lv = cj.shape[0], vq.shape[0]
            prod = np.zeros((Lc + Lv - 1, d, d**deg_new))
            for a in range(j):
                slots = cj.reshape(Lc, d, d**a, d, d ** (j - 1 - a))
                terms = np.einsum("xiasb,yst->xyiatb", slots, vq).reshape(Lc, Lv, d, d**deg_new)
                for l1 in range(Lc):
                    prod[l1 : l1 + Lv] += terms[l1]
            acc(deg_new, prod)
    filled = [b if b is not None else np.zeros((1, d, d**j)) for j, b in enumerate(out)]
    while len(filled) > 1 and not np.any(filled[-1]):
        filled.pop()
    return filled


def total_derivative_per_n(m, n, lam_center):
    """D^n eps built from scratch: expand sigma, build the velocity, and
    differentiate n times, as each call did before the tower existed."""
    if n == 0:
        return m.coeffs
    s1, s2 = sigma_lambda_polys_per_call(lam_center)
    if m.mode == "kron":
        blocks = [np.array(cj) for cj in m.coeffs]
        v = velocity_kron_by_hand(blocks, s1, s2, m.d)
        for _ in range(n):
            blocks = deriv_once_kron_by_hand(blocks, v, m.d)
        return blocks
    arr = m.coeffs
    v = _velocity_batch(arr, s1, s2)
    for _ in range(n):
        arr = deriv_once_batch_by_hand(arr, v)
    return _trim_batch(arr)


def bmat_system(block_rows, n_blocks):
    grid = [[None] * n_blocks for _ in range(n_blocks)]
    for i, row in enumerate(block_rows):
        for c, blk in row:
            grid[i][c] = blk
    mat = sp.bmat(grid, format="csr", dtype=float)
    mat.eliminate_zeros()
    return mat


def bmat_dpm(qcms, D):
    eye = sp.identity(D, format="csr")
    rows = [[(0, eye)]] + [[(i - 1, -(eye + q.A)), (i, eye)] for i, q in enumerate(qcms, start=1)]
    return bmat_system(rows, len(qcms) + 1)


def bmat_unipc(warmup, steps, D, which):
    eye = sp.identity(D, format="csr")
    rows = [[(0, eye)]] + [[(i - 1, -(eye + q.A)), (i, eye)] for i, q in enumerate(warmup, start=1)]
    for qs in steps:
        if which == "predictor":
            blocks = [-mat for mat in qs.pred_mats]
        else:
            blocks = [-(qs.corr_mats[mm] + qs.corr_target @ qs.pred_mats[mm]) for mm in range(qs.p)]
        rows.append([(qs.anchor + mm, blk) for mm, blk in enumerate(blocks)] + [(qs.i, eye)])
    return bmat_system(rows, len(rows))


# --- inputs -------------------------------------------------------------------


def random_kron(seed, d, lam_degree=1):
    """Contractive linear part plus small constant and quadratic terms."""
    rng = np.random.default_rng(seed)
    lin = np.diag(np.linspace(0.3, 0.7, d)) + 0.02 * rng.standard_normal((d, d))
    return kron_model(d, {
        0: 0.05 * rng.standard_normal((lam_degree + 1, d, 1)),
        1: lin,
        2: 0.1 / d * rng.standard_normal((lam_degree + 1, d, d * d)),
    }), rng.uniform(-1.0, 1.0, d)


def lifted(seed, d, N, M, scheme, order, corrector):
    m, x_T = random_kron(seed, d)
    basis = CarlemanBasis(N=N, d=d, mode="kron")
    grid = make_lambda_grid(S, 0.5, 0.1, M)
    return run_lifted(S, m, x_T, grid, basis, scheme=scheme, order=order, corrector=corrector)


def assembled(seed, d, N, M, scheme, order, which="corrector"):
    """Lifted states and global system of a random kron trajectory."""
    states, qcms = lifted(seed, d, N, M, scheme, order, scheme == "unipc" and which == "corrector")
    if scheme == "dpm":
        return states, assemble_global_dpm(qcms, states[0].y)
    warm = [q for q in qcms if not isinstance(q, UnipcQcmSet)]
    steps = [q for q in qcms if isinstance(q, UnipcQcmSet)]
    return states, assemble_global_unipc(warm, steps, states[0].y, which=which)


def assert_same_csr(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)


def random_poly_model(rng, kron, d, J):
    """A lam-dependent separable or kron model; each kron block draws its
    own lam degree."""
    if kron:
        return kron_model(d, {j: rng.standard_normal((int(rng.integers(1, 4)), d, d**j)) / d**j
                              for j in range(J + 1)})
    return separable_model(rng.standard_normal((d, J + 1, int(rng.integers(1, 4)))))


# --- properties ---------------------------------------------------------------


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    kron=st.booleans(),
    d=st.integers(1, 3),
    J=st.integers(0, 2),
    lam_center=st.floats(-4.0, 5.0),
)
def test_derivative_tower_matches_per_n_rebuild(seed, kron, d, J, lam_center):
    m = random_poly_model(np.random.default_rng(seed), kron, d, J)
    tower = _derivative_tower(S, m, 4, lam_center)
    assert len(tower) == 4 and tower[0] is m
    for n, dn in enumerate(tower):
        want = total_derivative_per_n(m, n, lam_center)
        got = dn.coeffs
        if kron:
            assert len(got) == len(want)
            assert all(g.shape == w.shape and np.array_equal(g, w) for g, w in zip(got, want))
        else:
            assert got.shape == want.shape and np.array_equal(got, want)


def test_run_dpm_expands_sigma_once_per_step(monkeypatch):
    calls = []
    expand = model._sigma_lambda_polys

    def counted(s, lam_center):
        calls.append(lam_center)
        return expand(s, lam_center)

    monkeypatch.setattr(model, "_sigma_lambda_polys", counted)
    m = separable_model([[[0.2, 0.1], [-0.6, 0.0], [0.25, 0.05]]])
    grid = make_lambda_grid(S, 0.5, 0.1, 12)
    run_dpm(S, m, [1.5], grid, k=3)
    assert calls == [float(lam) for lam in grid.lam[:-1]]
    calls.clear()
    run_dpm(S, m, [1.5], grid, k=1)
    assert calls == []


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 3),
    J=st.integers(0, 3),
    L=st.integers(1, 3),
    Lv=st.integers(1, 4),
)
def test_slot_insertion_derivative_matches_sparse_kron(seed, d, J, L, Lv):
    rng = np.random.default_rng(seed)
    blocks = [rng.standard_normal((L, d, d**j)) for j in range(J + 1)]
    v = _velocity_kron(blocks, rng.standard_normal(Lv), rng.standard_normal(Lv), d)
    got = _deriv_once_kron(blocks, v, d)
    want = deriv_once_kron_oracle(blocks, v, d)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12 * max(1.0, np.abs(w).max()))


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 2),
    N=st.integers(1, 3),
    M=st.integers(3, 6),
    k=st.integers(1, 2),
)
def test_direct_dpm_assembly_matches_bmat(seed, d, N, M, k):
    states, qcms = lifted(seed, d, N, M, "dpm", k, False)
    system = assemble_global_dpm(qcms, states[0].y)
    assert_same_csr(system.mat, bmat_dpm(qcms, len(states[0].y)))


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 2),
    N=st.integers(1, 3),
    M=st.integers(3, 6),
    p=st.integers(1, 3),
    which=st.sampled_from(["predictor", "corrector"]),
)
def test_direct_unipc_assembly_matches_bmat(seed, d, N, M, p, which):
    states, qcms = lifted(seed, d, N, M, "unipc", p, which == "corrector")
    warm = [q for q in qcms if not isinstance(q, UnipcQcmSet)]
    steps = [q for q in qcms if isinstance(q, UnipcQcmSet)]
    system = assemble_global_unipc(warm, steps, states[0].y, which=which)
    assert_same_csr(system.mat, bmat_unipc(warm, steps, len(states[0].y), which))


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 3),
    N=st.integers(1, 3),
    M=st.integers(2, 8),
    scheme=st.sampled_from(["dpm1", "dpm2", "unipc_predictor", "unipc_corrector"]),
)
def test_forward_substitute_matches_sequential_walk(seed, d, N, M, scheme):
    if scheme.startswith("dpm"):
        states, system = assembled(seed, d, N, M, "dpm", int(scheme[-1]))
    else:
        states, system = assembled(seed, d, N, M, "unipc", 2, scheme.split("_")[1])
    seq = np.concatenate([s.y for s in states])
    result = forward_substitute(system)
    scale = max(1.0, float(np.abs(seq).max()))
    assert np.max(np.abs(result.solution - seq)) <= 1e-12 * scale
    assert result.residual <= 1e-12


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 3),
    N=st.integers(1, 3),
    M=st.integers(3, 8),
    scheme=st.sampled_from([("dpm", 1), ("dpm", 2), ("unipc", 2), ("unipc", 3)]),
)
def test_lanczos_condition_matches_dense_svd(seed, d, N, M, scheme):
    _, system = assembled(seed, d, N, M, *scheme)
    dense = condition_number(system, method="dense_svd")
    lanczos = condition_number(system, method="lanczos", rtol=1e-8)
    assert lanczos.converged
    assert abs(lanczos.kappa - dense.kappa) <= 1e-6 * dense.kappa


def lower_without_diagonal(n, row, empty_row, seed):
    """Unit lower triangular n x n CSR matrix whose row ``row`` has no
    diagonal entry; with ``empty_row`` that row stores nothing at all."""
    rng = np.random.default_rng(seed)
    dense = np.tril(rng.standard_normal((n, n)), k=-1) + np.eye(n)
    dense[row, row] = 0.0
    if empty_row:
        dense[row, :] = 0.0
    elif row > 0:
        dense[row, 0] = 0.5
    mat = sp.csr_matrix(dense)
    assert mat[row, row] == 0.0
    return mat


@PROPERTY
@given(data=st.data(), n=st.integers(1, 12), empty_row=st.booleans(), seed=st.integers(0, 1000))
def test_missing_diagonal_raises_structure_error(data, n, empty_row, seed):
    row = data.draw(st.integers(0, n - 1))
    mat = lower_without_diagonal(n, row, empty_row or row == 0, seed)
    with pytest.raises(StructureError):
        forward_substitute(SimpleNamespace(mat=mat, rhs=np.ones(n)))
    with pytest.raises(StructureError):
        condition_number(mat, method="lanczos")


def test_stored_zero_diagonal_raises_structure_error():
    mat = sp.csr_matrix((np.array([1.0, 0.5, 0.0]), np.array([0, 0, 1]), np.array([0, 1, 3])),
                        shape=(2, 2))
    assert mat.nnz == 3
    with pytest.raises(StructureError):
        forward_substitute(SimpleNamespace(mat=mat, rhs=np.ones(2)))
    with pytest.raises(StructureError):
        condition_number(mat, method="lanczos")
