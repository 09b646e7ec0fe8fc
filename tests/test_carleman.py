import ast
import json
import math
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from carlift import carleman, cli, diagnostics
from carlift import system as system_module
from carlift.carleman import (
    CarlemanBasis,
    Qcm,
    UnipcQcmSet,
    _poly_to_update,
    assemble_dpm_qcms,
    assemble_unipc_qcms,
    lift,
    lift_run,
    run_lifted,
)
from carlift.diagnostics import truncation_sweep
from carlift.errors import CapacityError
from carlift.model import kron_model, scalar_model, separable_model
from carlift.presets import benchmark
from carlift.reference import rk4_oracle, run_dpm, run_unipc, step_polynomials_dpm
from carlift.schedule import TimeGrid, make_lambda_grid, make_vp_schedule
from carlift.solve import forward_substitute
from carlift.system import assemble_global_dpm, assemble_global_unipc
from oracles import (
    KronBasis,
    address_space_cap,
    compose_poly_power,
    fold,
    kron_poly_to_update,
    monomials,
    stacked,
    step_lifted,
    symmetric_embedding,
    to_dense,
)

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


def test_lift_run_prices_the_whole_run_before_building_it(monkeypatch):
    # weak_quadratic at N=3 is dim 3: a lifted map is a 3 x 3 matrix and an
    # offset, 96 bytes.  A chain of M=8 steps is 768 bytes; the unipc p=2
    # predictor run is 1 warm-up step, 7 predictor maps and 7 block-row-1
    # rows of 3 entries, 936 bytes, and its corrector run adds 7 corrector
    # maps, folded in place, and 14 rows, 1 944 bytes, more than the cap
    # although one step is far below it
    def refuse(*args, **kwargs):
        raise AssertionError("the run was built before it was priced")

    bench = benchmark("weak_quadratic")
    s, m, grid, basis = bench.schedule(), bench.model(), bench.grid(8), CarlemanBasis(N=3, d=1)
    monkeypatch.setattr(system_module, "MAX_STEP_BYTES", 768)
    run_lifted(s, m, [bench.x_T], grid, basis, scheme="dpm")
    monkeypatch.setattr(system_module, "MAX_STEP_BYTES", 1024)
    run_lifted(s, m, [bench.x_T], grid, basis, scheme="unipc", order=2)
    monkeypatch.setattr(carleman, "_derivative_tower", refuse)
    monkeypatch.setattr(carleman, "lift", refuse)
    with pytest.raises(CapacityError, match="needs 1944 bytes"):
        run_lifted(s, m, [bench.x_T], grid, basis, scheme="unipc", order=2, corrector=True)
    monkeypatch.setattr(system_module, "MAX_STEP_BYTES", 767)
    with pytest.raises(CapacityError, match="needs 768 bytes"):
        run_lifted(s, m, [bench.x_T], grid, basis, scheme="dpm")


@pytest.mark.parametrize("M, p, corrector, price", [
    pytest.param(8, 2, False, 936, id="False-936"), pytest.param(8, 2, True, 1944, id="True-1944"),
    pytest.param(1, 3, False, 96, id="M1-p3-False-96"), pytest.param(1, 3, True, 96, id="M1-p3-True-96")])
def test_lift_run_price_is_exact_at_its_boundary(monkeypatch, M, p, corrector, price):
    # the weak_quadratic unipc p=2 runs priced in the test above, and p=3
    # on one step, which is one 96-byte warm-up map: a cap of their price
    # lifts them, one byte less refuses them
    bench = benchmark("weak_quadratic")
    s, m, grid, basis = bench.schedule(), bench.model(), bench.grid(M), CarlemanBasis(N=3, d=1)
    monkeypatch.setattr(system_module, "MAX_STEP_BYTES", price)
    _, steps = lift_run(s, m, [bench.x_T], grid, basis, "unipc", p, corrector=corrector)
    assert len(steps) == M
    monkeypatch.setattr(system_module, "MAX_STEP_BYTES", price - 1)
    with pytest.raises(CapacityError, match=f"needs {price} bytes"):
        lift_run(s, m, [bench.x_T], grid, basis, "unipc", p, corrector=corrector)


def traced_unipc_lift(corrector: bool):
    """(steps, bytes held, peak bytes) of a d=3, N=8, M=16, p=3 UniPC
    lift_run under tracemalloc, after one untraced run builds the index
    tables."""
    rng = np.random.default_rng(3)
    m = kron_model(3, {0: 0.1 * rng.normal(size=(3, 1)),
                       1: np.diag([0.3, 0.5, 0.7]) + 0.01 * rng.normal(size=(3, 3)),
                       2: 0.02 / 3 * rng.normal(size=(3, 9))})
    args = (S, m, np.full(3, 0.8), make_lambda_grid(S, 0.5, 0.1, 16), CarlemanBasis(N=8, d=3),
            "unipc", 3)
    lift_run(*args, corrector=corrector)
    tracemalloc.start()
    try:
        _, steps = lift_run(*args, corrector=corrector)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return steps, held, peak


def test_predictor_run_lifts_only_the_predictor():
    # lifting the corrector maps and targets too, the run held 6.8 MB
    steps, held, _ = traced_unipc_lift(corrector=False)
    assert held <= 0.6 * 6.8e6
    unified = [q for q in steps if isinstance(q, UnipcQcmSet)]
    assert all(q.corr_mats is q.corr_target is q.corr_b is None for q in unified)
    with pytest.raises(ValueError, match="no corrector"):
        assemble_global_unipc(steps[:2], unified, np.zeros(164), which="corrector")


def test_corrector_run_holds_no_folded_copies():
    # the lift folds the predictor into the corrector maps in place; a
    # fold into copies of them at assembly held 9.96 MB and peaked at
    # 9.99 MB, and the lift's own work arrays now set the peak
    _, held, peak = traced_unipc_lift(corrector=True)
    assert held <= 7.0e6 and peak <= 8.0e6


def test_a_second_corrector_assembly_couples_the_lifted_blocks():
    # the benchmark assembles run_lifted's steps again: that system holds
    # the very blocks of the first, unchanged, and makes no (D, D) array
    steps, _, _ = traced_unipc_lift(corrector=True)
    warm = [q for q in steps if not isinstance(q, UnipcQcmSet)]
    unified = [q for q in steps if isinstance(q, UnipcQcmSet)]
    y0 = lift(np.full(3, 0.8), CarlemanBasis(N=8, d=3)).y
    first = assemble_global_unipc(warm, unified, y0, which="corrector")
    before = [[blk.rows.copy() for _, blk in row] for row in first.mat.rows]
    D = first.block_dim
    tracemalloc.start()
    try:
        again = assemble_global_unipc(warm, unified, y0, which="corrector")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * D * D
    assert np.array_equal(again.rhs, first.rhs)
    for row, row_again, rows_before in zip(first.mat.rows, again.mat.rows, before, strict=True):
        assert [(c, id(blk)) for c, blk in row_again] == [(c, id(blk)) for c, blk in row]
        assert all(np.array_equal(blk.rows, r) for (_, blk), r in zip(row, rows_before, strict=True))


def test_lift_run_refuses_an_unknown_scheme_before_building(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the run was built")

    monkeypatch.setattr(carleman, "_derivative_tower", refuse)
    with pytest.raises(ValueError, match="unknown scheme 'unip'"):
        lift_run(S, QUAD, [1.0], make_lambda_grid(S, 1.0, 0.1, 4), CarlemanBasis(N=2, d=1), "unip", 2)


def test_each_lifted_system_is_one_lift_run_call(tmp_path, monkeypatch):
    # run_lifted, the carleman command and the truncation sweep dispatch
    # through lift_run once per system they solve
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[4].N)
        return lift_run(*args, **kwargs)

    for mod in (carleman, cli, diagnostics):
        monkeypatch.setattr(mod, "lift_run", counted, raising=True)
    bench = benchmark("weak_quadratic")
    s, m, grid = bench.schedule(), bench.model(), bench.grid(8)
    run_lifted(s, m, [bench.x_T], grid, CarlemanBasis(N=2, d=1), scheme="unipc", order=2)
    assert calls == [2]
    calls.clear()
    truncation_sweep(s, m, [bench.x_T], grid, k=1, N_list=(1, 2, 3), oracle_substeps=10,
                     with_kappa=False)
    assert calls == [1, 2, 3]
    calls.clear()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"window": {"benchmark": "weak_quadratic", "M": 8},
                               "carleman": {"N": 3, "scheme": "unipc", "order": 2}}))
    assert cli.main(["carleman", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert calls == [3]


def test_no_package_code_dispatches_on_the_unified_step_type():
    # lift_run alone knows a scheme's layout of lifted steps
    for path in sorted(Path(carleman.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                assert "UnipcQcmSet" not in ast.unparse(node), f"{path.name}:{node.lineno}"


@pytest.mark.parametrize("chunk_bytes", [carleman.LIFT_CHUNK_BYTES, 1 << 14])
def test_lift_work_stays_within_its_chunk_budget(chunk_bytes, monkeypatch):
    # a kron_sweep_kappa shape, d=2, N=5, M=32; lifting the whole trajectory
    # in one chunk takes about 0.4 MB beyond the steps it keeps
    rng = np.random.default_rng(3)
    m = kron_model(2, {1: np.diag([0.3, 0.7]), 2: 0.05 * rng.standard_normal((2, 2, 4))})
    polys = step_polynomials_dpm(S, m, make_lambda_grid(S, 0.5, 0.1, 32).lam, 1)
    basis = CarlemanBasis(N=5, d=2)
    monkeypatch.setattr(carleman, "LIFT_CHUNK_BYTES", chunk_bytes)
    _poly_to_update(polys, basis)  # index tables built outside the trace
    tracemalloc.start()
    try:
        steps = _poly_to_update(polys, basis)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(steps) == 32 and kept >= 32 * 8 * basis.dim_total**2
    assert peak - kept <= 2 * chunk_bytes


def test_lift_work_is_a_small_share_of_the_steps_it_returns():
    # d=8, N=4, M=16, dpm k=1: a step alone is over LIFT_CHUNK_BYTES, so
    # each chunk is one step; multiplying only the degrees block row j-1
    # reaches keeps the work near 4 MB beyond the 30 MB of U and b, where
    # multiplying every column of it took 19 MB
    rng = np.random.default_rng(8)
    m = kron_model(8, {1: np.diag(np.linspace(0.3, 0.7, 8)) + 0.01 * rng.standard_normal((8, 8)),
                       2: 0.0025 * rng.standard_normal((2, 8, 64))})
    polys = step_polynomials_dpm(S, m, make_lambda_grid(S, 0.5, 0.1, 16).lam, 1)
    basis = CarlemanBasis(N=4, d=8)
    _poly_to_update(polys, basis)  # index tables built outside the trace
    tracemalloc.start()
    try:
        steps = _poly_to_update(polys, basis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = steps[0][0].stack.nbytes + 16 * steps[0][1].nbytes
    assert held == 16 * 8 * basis.dim_total * (basis.dim_total + 1)
    assert peak - held <= held // 4, (peak - held, held)


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
    """Block row j of the Kronecker lift of P holds the truncated
    coefficients of P(x)^{(j)}: degree 0 in b, degree q in column block q;
    the symmetric lift is that map on the weighted monomials, U Q = Q U_s."""
    U, b = kron_poly_to_update(P, basis)
    U = to_dense(U)
    for j in range(1, basis.N + 1):
        want = compose_poly_power(P, j, basis)
        rows = basis.block_slice(j)
        np.testing.assert_array_equal(b[rows], want[0][:, 0] if 0 in want else 0.0)
        for q in range(1, basis.N + 1):
            np.testing.assert_array_equal(U[rows, basis.block_slice(q)], want.get(q, 0.0))
    folded = {q: fold(B, basis.d, q) for q, B in P.items()}
    [(U_s, b_s)] = _poly_to_update(stacked(folded), CarlemanBasis(N=basis.N, d=basis.d))
    Q = symmetric_embedding(basis.d, basis.N)
    scale = max(1.0, np.abs(U).max(), np.abs(b).max())
    assert np.abs(U @ Q - Q @ to_dense(U_s)).max() <= 1e-14 * scale
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


def sampler_step(m, x, i, grid, k):
    """The sampler's order-k step from x at node i-1 to node i."""
    one_step = TimeGrid(t=grid.t[i - 1 : i + 1], lam=grid.lam[i - 1 : i + 1])
    return run_dpm(S, m, x, one_step, k).endpoint


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
            polys = step_polynomials_dpm(S, m, grid.lam, k)
            assert all(B.shape == (grid.M, d, math.comb(d + q - 1, q)) for q, B in polys.items())
            for i in (1, 3):
                via_poly = sum(B[i - 1] @ monomials(x, q) for q, B in polys.items())
                direct = sampler_step(m, x, i, grid, k)
                assert np.allclose(via_poly, direct, rtol=1e-12, atol=1e-12)


def test_lifted_step_block1_is_exact_on_lifted_states():
    # applied to an exactly lifted state, block 1 of the quantized step
    # equals the sequential update whenever deg(P) <= N, at d=1 and for a
    # d=6 kron model
    rng = np.random.default_rng(25)
    k6 = kron_model(6, {0: 0.1 * rng.normal(size=(6, 1)), 1: -0.5 * np.eye(6),
                        2: 0.05 * rng.normal(size=(2, 6, 36))})
    grid = make_lambda_grid(S, 1.0, 0.1, 4)
    for m, x in ((QUAD, np.array([1.3])), (k6, rng.normal(size=6))):
        basis = CarlemanBasis(N=2, d=m.d)
        qcms = assemble_dpm_qcms(S, m, grid.lam, 1, basis)
        assert len(qcms) == grid.M
        for i in (1, 4):
            y1 = step_lifted(qcms[i - 1], lift(x, basis).y)
            assert np.allclose(
                y1[basis.block_slice(1)], sampler_step(m, x, i, grid, 1), atol=1e-14
            )


def test_lifted_linear_trajectory_matches_sequential():
    grid = make_lambda_grid(S, 1.0, 0.05, 8)
    ref = run_dpm(S, LINEAR, [1.0], grid, k=1)
    for N in (1, 2, 3):
        basis = CarlemanBasis(N=N, d=1)
        states, qcms = run_lifted(S, LINEAR, [1.0], grid, basis, scheme="dpm", order=1)
        assert len(states) == 9 and len(qcms) == 8
        for st, x in zip(states, ref.states):
            assert np.allclose(st.block(1), x, atol=1e-13)


def test_lifted_truncation_error_decreases():
    bench = benchmark("weak_quadratic")
    s, m, grid = bench.schedule(), bench.model(), bench.grid(16)
    oracle = rk4_oracle(
        s, m, [bench.x_T], substeps=2000, times=(bench.t_start, bench.t_end)
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
        for st, x in zip(states, ref.states):
            assert np.allclose(st.block(1), x, atol=1e-12)


@pytest.mark.parametrize("scheme, order, corrector", [("dpm", k, False) for k in (1, 2, 3)] + [
    ("unipc", p, corrector) for p in (1, 2, 3) for corrector in (False, True)])
def test_run_lifted_states_are_the_forward_solve_of_the_assembled_system(scheme, order, corrector):
    # one lifted walk: the states are the blocks of the trajectory system's
    # forward solve bit for bit, the corrector's included, whose folded rows
    # a separate step-by-step walk would round differently
    rng = np.random.default_rng(order)
    m = kron_model(2, {0: 0.05 * rng.normal(size=(2, 2, 1)), 1: np.diag([0.3, 0.6]),
                       2: 0.1 * rng.normal(size=(2, 2, 4))})
    basis = CarlemanBasis(N=3, d=2)
    x_T = [0.8, -0.5]
    states, qcms = run_lifted(S, m, x_T, make_lambda_grid(S, 0.5, 0.1, 12), basis, scheme=scheme,
                              order=order, corrector=corrector)
    y0 = lift(x_T, basis).y
    if scheme == "dpm":
        system = assemble_global_dpm(qcms, y0)
    else:
        which = "corrector" if corrector else "predictor"
        system = assemble_global_unipc(qcms[: order - 1], qcms[order - 1 :], y0, which=which)
    assert np.array_equal(np.concatenate([st.y for st in states]), forward_substitute(system).solution)


def test_lifted_unipc_step_matches_sampler_on_quadratic_model():
    # from exactly lifted sampler states, one lifted step of a quadratic
    # model at N = 2 reproduces the sampler's next state in block 1; the
    # folded corrector reads the predictor output through its target,
    # which is moved onto the exact lift of that output, since the
    # predictor's block 2 is a truncated square
    grid = make_lambda_grid(S, 0.5, 0.1, 8)
    basis = CarlemanBasis(N=2, d=1)
    one = basis.block_slice(1)
    for p in (2, 3):
        for corrector in (False, True):
            ref = run_unipc(S, QUAD, [1.3], grid, p=p, corrector=corrector)
            for qset in assemble_unipc_qcms(S, QUAD, grid, p, basis):
                i = qset.i
                ys = [lift(x, basis).y for x in ref.states[i - p : i]]
                y = step_lifted(qset, ys)
                if corrector:
                    y = (step_lifted(qset, ys, corrector=True)
                         + to_dense(qset.corr_target) @ (lift(y[one], basis).y - y))
                np.testing.assert_allclose(y[one], ref.states[i], rtol=0.0, atol=1e-14)


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
        gap = max(float(np.max(np.abs(st.block(1) - x))) for st, x in zip(states, ref.states))
        assert gap <= 1e-9, f"corrector={corrector}: gap {gap:.3e}"


def test_lifted_unipc_solves_each_distinct_step_once(monkeypatch):
    systems = []
    solve = np.linalg.solve

    def counted(V, g):
        systems.append(len(V))
        return solve(V, g)

    monkeypatch.setattr(np.linalg, "solve", counted)
    basis = CarlemanBasis(N=2, d=1)
    grid = make_lambda_grid(S, 1.0, 0.1, 32)
    nodes = [grid.lam[i - 2 : i + 1] for i in range(2, grid.M + 1)]
    steps = {(tuple((lam[1:] - lam[0]) / (lam[-1] - lam[0])), lam[-1] - lam[0]) for lam in nodes}
    assert len(steps) < len(nodes)
    _, qcms = run_lifted(S, QUAD, [1.3], grid, basis, scheme="unipc", order=2, corrector=True)
    assert systems == [len(steps), len(steps)]  # one stacked solve per table
    # a run in which every step solves its own weights lifts the same matrices
    uni_weights = carleman.uni_weights

    def per_step(s, lams, p, variant="bh2", corrector=False):
        steps = [uni_weights(s, lams[j : j + p + 1], p, variant, corrector)
                 for j in range(len(lams) - p)]
        return tuple(np.concatenate(table) for table in zip(*steps))

    monkeypatch.setattr(carleman, "uni_weights", per_step)
    systems.clear()
    _, unshared = run_lifted(S, QUAD, [1.3], grid, basis, scheme="unipc", order=2,
                             corrector=True)
    assert systems == [1] * (2 * len(nodes))
    for q, alone in zip(qcms[1:], unshared[1:], strict=True):
        for got, expected in zip(q.pred_mats + q.corr_mats + [q.corr_target],
                                 alone.pred_mats + alone.corr_mats + [alone.corr_target]):
            assert np.array_equal(got.rows, expected.rows)
        assert np.array_equal(q.pred_b, alone.pred_b) and np.array_equal(q.corr_b, alone.corr_b)


def test_unipc_qcm_set_shape_and_history_check():
    basis = CarlemanBasis(N=2, d=1)
    grid = make_lambda_grid(S, 1.0, 0.1, 5)
    qset = assemble_unipc_qcms(S, QUAD, grid, 2, basis)[0]
    assert len(qset.pred_mats) == 2 and qset.i - len(qset.pred_mats) == 0
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
        assemble_dpm_qcms(S, kron_model(2, {1: np.eye(2)}), grid.lam, 1, basis)
    with pytest.raises(ValueError):
        assemble_dpm_qcms(S, separable_model(np.zeros((2, 2, 1))), grid.lam, 1,
                          CarlemanBasis(N=2, d=2, mode="kron"))
