import contextlib
import math
import os
import resource
import tracemalloc

import numpy as np
import pytest

from carlift.carleman import (
    CarlemanBasis,
    Qcm,
    UnipcQcmSet,
    _poly_to_update,
    assemble_dpm_qcm,
    assemble_unipc_qcms,
    lift,
    run_lifted,
    step_lifted,
    step_polynomial_dpm,
)
from carlift.errors import CapacityError
from carlift.model import kron_model, scalar_model, separable_model
from carlift.presets import benchmark
from carlift.reference import dpm_step, rk4_oracle, run_dpm, run_unipc
from carlift.schedule import make_lambda_grid, make_vp_schedule
from oracles import KronBasis, compose_poly_power, kron_poly_to_update, symmetric_embedding

S = make_vp_schedule(0.1, 20.0, 1.0)
LINEAR = scalar_model({(1, 0): -0.5})
QUAD = scalar_model({(0, 0): 0.2, (1, 0): -0.6, (2, 0): 0.25})


def kron_power(x, j):
    out = np.ones(1)
    for _ in range(j):
        out = np.kron(out, x)
    return out


def test_basis_indexing_round_trip():
    basis = CarlemanBasis(N=3, d=2, mode="kron")
    # C(d+N, N) - 1 monomials: 2 of degree 1, 3 of degree 2, 4 of degree 3
    assert basis.dim_total == 2 + 3 + 4 == math.comb(5, 3) - 1
    # slices partition the vector in degree order
    stops = [basis.block_slice(j).stop for j in range(1, 4)]
    assert stops == [2, 5, 9]
    assert CarlemanBasis(N=5, d=4).dim_total == 125


def test_basis_validation():
    with pytest.raises(ValueError):
        CarlemanBasis(N=0, d=1)
    assert CarlemanBasis(N=2, d=1).mode == "kron"
    with pytest.raises(ValueError):
        CarlemanBasis(N=2, d=1, mode="scalar")
    with pytest.raises(ValueError):
        CarlemanBasis(N=2, d=2, mode="scalar")
    with pytest.raises(ValueError):
        CarlemanBasis(N=2, d=1, mode="matrix")
    # 635 375 monomials, refused from the closed form
    with pytest.raises(CapacityError, match="635375"):
        CarlemanBasis(N=60, d=4, mode="kron")


@contextlib.contextmanager
def address_space_cap(extra_bytes):
    """Cap this process's address space at its current size plus
    extra_bytes, so that an unguarded huge allocation raises MemoryError
    instead of exhausting the machine."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as fh:
        current = int(fh.read().split()[0]) * resource.getpagesize()
    resource.setrlimit(resource.RLIMIT_AS, (current + extra_bytes, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc to cap memory")
def test_step_lift_refuses_oversized_dense_rows_before_allocating():
    # d=4, N=24 passes the dimension check (20 474) but one step's dense
    # buffer would take 8 * 20 474^2 bytes, about 3.35 GB
    basis = CarlemanBasis(N=24, d=4, mode="kron")
    m = kron_model(4, {1: 0.5 * np.eye(4), 2: np.full((4, 16), 0.01)})
    grid = make_lambda_grid(S, 0.5, 0.1, 4)
    tracemalloc.start()
    try:
        with address_space_cap(2**30), pytest.raises(CapacityError):
            run_lifted(S, m, np.ones(4), grid, basis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_lift_matches_kron_powers():
    rng = np.random.default_rng(21)
    basis = CarlemanBasis(N=3, d=2, mode="kron")
    x = rng.normal(size=2)
    state = lift(x, basis)
    Q = symmetric_embedding(2, 3)
    kron = np.concatenate([kron_power(x, j) for j in (1, 2, 3)])
    assert np.allclose(Q @ state.y, kron, rtol=1e-15)
    assert np.allclose(state.y, Q.T @ kron, rtol=1e-15)
    # sorted multi-indices, each monomial scaled by sqrt(multiplicity)
    x0, x1 = x
    assert np.allclose(state.block(2), [x0 * x0, np.sqrt(2) * x0 * x1, x1 * x1], rtol=1e-15)
    assert np.allclose(state.block(3), [x0**3, np.sqrt(3) * x0**2 * x1, np.sqrt(3) * x0 * x1**2,
                                        x1**3], rtol=1e-15)
    assert state.consistency_defect() == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        lift(np.ones(3), basis)


def test_consistency_defect_detects_drift():
    basis = CarlemanBasis(N=2, d=1)
    state = lift([2.0], basis)
    state.y[1] += 0.3
    assert state.consistency_defect() == pytest.approx(0.3)
    assert lift([2.0], CarlemanBasis(N=1, d=1)).consistency_defect() == 0.0


def assert_update_rows_are_powers(P, basis):
    """Block row j of the non-delta Kronecker lift of P holds the truncated
    coefficients of P(x)^{(j)}: degree 0 in b, degree q in column block q;
    the symmetric lift is that map on the weighted monomials, U Q = Q U_s."""
    U, b = kron_poly_to_update(P, basis)
    U = U.toarray()
    for j in range(1, basis.N + 1):
        want = compose_poly_power(P, j, basis)
        rows = basis.block_slice(j)
        np.testing.assert_array_equal(b[rows], want[0][:, 0] if 0 in want else 0.0)
        for q in range(1, basis.N + 1):
            np.testing.assert_array_equal(U[rows, basis.block_slice(q)], want.get(q, 0.0))
    U_s, b_s = _poly_to_update(P, CarlemanBasis(N=basis.N, d=basis.d))
    Q = symmetric_embedding(basis.d, basis.N)
    scale = max(1.0, np.abs(U).max(), np.abs(b).max())
    assert np.abs(U @ Q - Q @ U_s.toarray()).max() <= 1e-14 * scale
    assert np.abs(b - Q @ b_s).max() <= 1e-14 * scale


def test_compose_poly_power_against_direct_expansion():
    rng = np.random.default_rng(22)
    d = 2
    basis = KronBasis(N=6, d=d)
    P = {q: rng.normal(size=(d, d**q)) for q in (0, 1, 2)}
    x = rng.normal(size=d)
    px = sum(mat @ kron_power(x, q) for q, mat in P.items())
    for m in (0, 1, 2, 3):
        # m * max degree = 6 fits inside N, so the expansion is exact
        rows = compose_poly_power(P, m, basis)
        rebuilt = sum(mat @ kron_power(x, q) for q, mat in rows.items())
        assert np.allclose(rebuilt, kron_power(px, m), rtol=1e-12, atol=1e-12)
    # block rows 4..6 of the lift drop the degrees above N = 6
    assert_update_rows_are_powers(P, basis)


def test_compose_poly_power_truncates_high_degrees():
    basis = KronBasis(N=2, d=1)
    P = {1: np.array([[2.0]]), 2: np.array([[1.0]])}
    rows = compose_poly_power(P, 2, basis)
    assert set(rows) == {2}
    assert rows[2][0, 0] == pytest.approx(4.0)
    assert_update_rows_are_powers(P, basis)
    # a step degree above N never reaches the lift
    rng = np.random.default_rng(24)
    P3 = {q: rng.normal(size=(2, 2**q)) for q in (0, 1, 3)}
    assert_update_rows_are_powers(P3, KronBasis(N=2, d=2))
    with pytest.raises(ValueError):
        compose_poly_power({1: np.ones((2, 2))}, 1, basis)


def test_step_polynomial_reproduces_sequential_step():
    grid = make_lambda_grid(S, 1.0, 0.1, 6)
    rng = np.random.default_rng(23)
    mk = kron_model(
        2, {0: rng.normal(size=(2, 1)) * 0.2, 1: rng.normal(size=(2, 2)) * 0.4,
            2: rng.normal(size=(2, 4)) * 0.2},
    )
    for m, d in ((QUAD, 1), (mk, 2)):
        x = rng.normal(size=d) + 1.0
        for k in (1, 2):
            for i in (1, 3):
                P = step_polynomial_dpm(S, m, i, grid, k)
                via_poly = sum(mat @ kron_power(x, q) for q, mat in P.items())
                direct = dpm_step(S, m, x, i, grid, k)
                assert np.allclose(via_poly, direct, rtol=1e-12, atol=1e-12)


def test_lifted_step_block1_is_exact_on_lifted_states():
    # applied to an exactly lifted state, block 1 of the quantized step
    # equals the sequential update whenever deg(P) <= N
    basis = CarlemanBasis(N=2, d=1)
    grid = make_lambda_grid(S, 1.0, 0.1, 4)
    x = np.array([1.3])
    qcm = assemble_dpm_qcm(S, QUAD, 1, grid, 1, basis)
    y1 = step_lifted(qcm, lift(x, basis).y)
    assert np.allclose(
        y1[basis.block_slice(1)], dpm_step(S, QUAD, x, 1, grid, 1), atol=1e-14
    )


def test_lifted_linear_trajectory_matches_sequential():
    grid = make_lambda_grid(S, 1.0, 0.05, 8)
    ref = run_dpm(S, LINEAR, [1.0], grid, k=1)
    for N in (1, 2, 3):
        basis = CarlemanBasis(N=N, d=1)
        states, qcms = run_lifted(S, LINEAR, [1.0], grid, basis, scheme="dpm", order=1)
        assert len(states) == 9 and len(qcms) == 8
        for st, pt in zip(states, ref.states):
            assert np.allclose(st.block(1), pt.x, atol=1e-13)


def test_lifted_truncation_error_decreases():
    bench = benchmark("weak_quadratic")
    s, m, grid = bench.schedule(), bench.model(), bench.grid(16)
    oracle = rk4_oracle(
        s, m, [bench.x_T], substeps=2000, t_start=bench.t_start, t_end=bench.t_end
    ).endpoint
    errs = []
    for N in (1, 2, 3):
        basis = CarlemanBasis(N=N, d=1)
        states, _ = run_lifted(s, m, [bench.x_T], grid, basis, scheme="dpm", order=1)
        errs.append(float(np.linalg.norm(states[-1].block(1) - oracle)))
    assert errs[0] > errs[1] > errs[2]


def test_lifted_unipc_matches_sequential_on_linear_model():
    # lifting a linear model is exact at any N, so the unified lifted
    # walk must land on the sequential sampler states
    grid = make_lambda_grid(S, 1.0, 0.05, 10)
    for corrector in (False, True):
        ref = run_unipc(S, LINEAR, [1.0], grid, p=2, corrector=corrector)
        basis = CarlemanBasis(N=2, d=1)
        states, qcms = run_lifted(
            S, LINEAR, [1.0], grid, basis, scheme="unipc", order=2, corrector=corrector
        )
        assert isinstance(qcms[0], Qcm)
        assert all(isinstance(q, UnipcQcmSet) for q in qcms[1:])
        for st, pt in zip(states, ref.states):
            assert np.allclose(st.block(1), pt.x, atol=1e-12)


def test_lifted_unipc_step_matches_sampler_on_quadratic_model():
    # from exactly lifted sampler states, one lifted step of a quadratic
    # model at N = 2 reproduces the sampler's next state in block 1; the
    # corrector is applied to the exact lift of the predictor output,
    # since the predictor's block 2 is a truncated square
    grid = make_lambda_grid(S, 0.5, 0.1, 8)
    basis = CarlemanBasis(N=2, d=1)
    one = basis.block_slice(1)
    for p in (2, 3):
        for corrector in (False, True):
            ref = run_unipc(S, QUAD, [1.3], grid, p=p, corrector=corrector)
            for i in range(p, grid.M + 1):
                qset = assemble_unipc_qcms(S, QUAD, i, grid, p, basis)
                ys = [lift(pt.x, basis).y for pt in ref.states[i - p : i]]
                y = step_lifted(qset, ys)
                if corrector:
                    y = qset.corr_b + qset.corr_target @ lift(y[one], basis).y
                    for mat, yh in zip(qset.corr_mats, ys):
                        y += mat @ yh
                np.testing.assert_allclose(y[one], ref.states[i].x, rtol=0.0, atol=1e-14)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_lifted_unipc_converges_to_its_sampler():
    # blocks j >= 2 of a lifted unipc state are powers of the anchor
    # polynomial alone, so block 1 plateaus near 1e-2 from N = 4 on
    bench = benchmark("weak_quadratic")
    s, m, grid = bench.schedule(), bench.model(), bench.grid(16)
    basis = CarlemanBasis(N=8, d=1)
    for corrector in (False, True):
        ref = run_unipc(s, m, [bench.x_T], grid, p=2, corrector=corrector)
        states, _ = run_lifted(s, m, [bench.x_T], grid, basis, scheme="unipc", order=2,
                               corrector=corrector)
        gap = max(float(np.max(np.abs(st.block(1) - pt.x))) for st, pt in zip(states, ref.states))
        assert gap <= 1e-9, f"corrector={corrector}: gap {gap:.3e}"


def test_unipc_qcm_set_shape_and_history_check():
    basis = CarlemanBasis(N=2, d=1)
    grid = make_lambda_grid(S, 1.0, 0.1, 5)
    qset = assemble_unipc_qcms(S, QUAD, 2, grid, 2, basis)
    assert qset.p == 2 and qset.anchor == 0
    y = lift([1.0], basis).y
    with pytest.raises(ValueError):
        step_lifted(qset, [y])
    with pytest.raises(TypeError):
        step_lifted(object(), [y])


def test_run_lifted_rejects_unknown_scheme_and_mismatched_model():
    basis = CarlemanBasis(N=2, d=1)
    grid = make_lambda_grid(S, 1.0, 0.1, 4)
    with pytest.raises(ValueError):
        run_lifted(S, QUAD, [1.0], grid, basis, scheme="euler")
    with pytest.raises(ValueError):
        assemble_dpm_qcm(S, kron_model(2, {1: np.eye(2)}), 1, grid, 1, basis)
    with pytest.raises(ValueError):
        assemble_dpm_qcm(S, separable_model(np.zeros((2, 2, 1))), 1, grid, 1,
                         CarlemanBasis(N=2, d=2, mode="kron"))
