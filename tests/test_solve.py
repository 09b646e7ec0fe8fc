import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.sparse.linalg import gmres as scipy_gmres

from carlift.carleman import CarlemanBasis, lift, run_lifted
from carlift.errors import ConvergenceError, StructureError
from carlift import solve
from carlift.model import kron_model, scalar_model
from carlift.schedule import make_lambda_grid, make_vp_schedule
from carlift.solve import (
    SHIFT_EPS,
    LchsConfig,
    forward_substitute,
    gmres_solve,
    lchs_solve,
    qlss_cost_model,
)
from carlift.system import BlockLinearSystem, StepMatrix, TrajectoryOperator, assemble_global_dpm
from oracles import lchs_per_substep

S = make_vp_schedule(0.1, 20.0, 1.0)


def quadratic_system(N=3, M=6):
    m = scalar_model({(0, 0): 0.1, (1, 0): -0.5, (2, 0): 0.1})
    basis = CarlemanBasis(N=N, d=1)
    grid = make_lambda_grid(S, 0.6, 0.05, M)
    states, qcms = run_lifted(S, m, [0.8], grid, basis, scheme="dpm", order=1)
    return assemble_global_dpm(qcms, lift([0.8], basis).y), states


def test_forward_substitution_solves_exactly():
    system, states = quadratic_system()
    result = forward_substitute(system)
    assert result.residual < 1e-11
    assert np.allclose(result.solution, np.concatenate([st.y for st in states]), atol=1e-12)
    dense = np.linalg.solve(system.mat.tocsr().toarray(), system.rhs)
    assert np.allclose(result.solution, dense, atol=1e-11)


def test_forward_substitution_structure_checks():
    # the operator refuses what a forward sweep cannot take: block row i
    # of M is Y_i - sum_k C_k Y_{c_k}, so an entry above the diagonal is a
    # coupling above its row and a diagonal away from 1 couples a row to itself
    blk = StepMatrix(np.array([[0.5]]))
    TrajectoryOperator(1, [[], [(0, blk)]])
    with pytest.raises(StructureError):
        TrajectoryOperator(1, [[(1, blk)], []])
    with pytest.raises(StructureError):
        TrajectoryOperator(1, [[], [(1, blk)]])
    with pytest.raises(ValueError):
        TrajectoryOperator(2, [[], [(0, blk)]])
    # blocks are the StepMatrix objects a lift makes, not other matrices
    with pytest.raises(ValueError):
        TrajectoryOperator(1, [[], [(0, sp.csr_matrix([[0.5]]))]])
    system = assemble_global_dpm([], np.ones(3))
    with pytest.raises(ValueError):
        system.mat.solve(np.ones(2))
    with pytest.raises(ValueError):
        BlockLinearSystem(mat=system.mat, rhs=np.ones(2), scheme="dpm")


def test_trajectory_solves_allocate_far_less_than_the_step_matrices():
    # d=4, N=5, M=32: the 32 step matrices hold about 4 MB of dense
    # rows; assembly, products with the operator and forward
    # substitution keep no copy of them, and GMRES adds little beyond
    # its own Krylov basis
    rng = np.random.default_rng(3)
    m = kron_model(4, {1: np.diag([0.3, 0.5, 0.7, 0.4]) + 0.01 * rng.standard_normal((4, 4)),
                       2: 0.02 / 4 * rng.standard_normal((4, 16))})
    grid = make_lambda_grid(S, 0.5, 0.1, 32)
    states, qcms = run_lifted(S, m, [0.85, 0.8, 0.9, 0.75], grid, CarlemanBasis(N=5, d=4, mode="kron"))
    step_bytes = sum(q.A.rows.nbytes for q in qcms)
    x = np.concatenate([st.y for st in states])
    peaks = {}
    tracemalloc.start()
    try:
        system = assemble_global_dpm(qcms, states[0].y)
        peaks["assemble"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        system.mat @ x  # the first product also groups the blocks into runs
        peaks["product"] = tracemalloc.get_traced_memory()[1]
        for name, solver in (("forward", forward_substitute), ("gmres", gmres_solve)):
            tracemalloc.reset_peak()
            solver(system)
            peaks[name] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    krylov_bytes = 8 * (system.n_blocks + 2) * system.dim  # restart + 1 basis vectors
    assert peaks["assemble"] < step_bytes // 10
    assert peaks["product"] < step_bytes // 10
    assert peaks["forward"] < step_bytes // 10
    assert peaks["gmres"] - krylov_bytes < step_bytes // 10


def test_gmres_agrees_with_forward_substitution(monkeypatch):
    monkeypatch.setattr(solve, "GMRES_TOL", 1e-12)
    system, _ = quadratic_system()
    direct = forward_substitute(system)
    iterative = gmres_solve(system)
    assert iterative.residual <= 1e-12
    assert iterative.iterations > 0
    assert np.allclose(iterative.solution, direct.solution, atol=1e-8)


@pytest.mark.parametrize("max_iter", [1, 50])
def test_gmres_returns_zero_for_a_zero_right_hand_side(max_iter):
    system, _ = quadratic_system()
    zero = BlockLinearSystem(mat=system.mat, rhs=np.zeros(system.dim), scheme="dpm")
    result = gmres_solve(zero, max_iter=max_iter)
    assert (result.residual, result.iterations) == (0.0, 0)
    assert np.array_equal(result.solution, np.zeros(system.dim))


def test_gmres_default_restart_spans_the_trajectory():
    # M - I is nilpotent of index <= n_blocks, so one Krylov cycle of
    # n_blocks + 1 vectors solves the M=64 system
    m = kron_model(2, {1: np.diag([0.3, 0.7]), 2: np.full((2, 4), 0.01)})
    grid = make_lambda_grid(S, 1.0, 0.05, 64)
    states, qcms = run_lifted(S, m, [0.5, -0.4], grid, CarlemanBasis(N=1, d=2, mode="kron"))
    system = assemble_global_dpm(qcms, states[0].y)
    result = gmres_solve(system)
    assert result.residual <= 1e-10
    assert result.iterations <= system.n_blocks
    assert np.allclose(result.solution, np.concatenate([st.y for st in states]), atol=1e-9)


def test_gmres_unreachable_tolerance_raises(monkeypatch):
    monkeypatch.setattr(solve, "GMRES_TOL", 1e-30)
    system, _ = quadratic_system()
    with pytest.raises(ConvergenceError) as exc:
        gmres_solve(system)
    assert exc.value.residual is not None
    assert exc.value.iterations is not None


def test_gmres_stops_after_a_cycle_that_does_not_lower_the_residual(monkeypatch):
    # the first cycle leaves a residual near 1e-14, the second 7.1e-16 and
    # the third, which breaks down after 10 steps, does not go lower; the
    # solve ends there, far short of the 20 000-iteration budget.  The
    # cycles are replayed with the solver's own cycle, at most three of
    # them, to tie the count and the residual to the rule
    m = scalar_model({(0, 0): 0.2, (1, 0): -0.6, (2, 1): 0.05})
    grid = make_lambda_grid(S, 0.8, 0.1, 10)
    states, qcms = run_lifted(S, m, [0.1], grid, CarlemanBasis(N=2, d=1))
    system = assemble_global_dpm(qcms, states[0].y)
    restart = system.n_blocks + 1
    bnorm = np.linalg.norm(system.rhs)
    x, r, history, steps = np.zeros(system.dim), system.rhs, [], []  # per restart cycle
    for _ in range(3):
        dx, taken = solve._gmres_cycle(system.mat.matvec, r, restart, 1e-30 * bnorm)
        x += dx
        r = system.rhs - system.mat @ x
        history.append(float(np.linalg.norm(r) / max(bnorm, 1.0)))
        steps.append(taken)
        if len(history) > 1 and history[-1] >= min(history[:-1]):
            break
    monkeypatch.setattr(solve, "GMRES_TOL", 1e-30)
    with pytest.raises(ConvergenceError) as exc:
        gmres_solve(system)
    assert exc.value.iterations <= 3 * restart
    assert exc.value.iterations == sum(steps)
    assert exc.value.residual == min(history) < 10 * np.finfo(float).eps


def test_gmres_stops_after_a_cycle_that_leaves_the_residual_unchanged(monkeypatch):
    # a cycle that corrects nothing leaves the residual where the first
    # left it, so the stall rule ends the solve after two full cycles,
    # whatever rounding the real cycle would have produced
    def no_correction(matvec, r, steps, stop):
        return np.zeros_like(r), steps

    monkeypatch.setattr(solve, "_gmres_cycle", no_correction)
    system, _ = quadratic_system()
    restart = system.n_blocks + 1
    with pytest.raises(ConvergenceError) as exc:
        gmres_solve(system)
    assert exc.value.iterations == 2 * restart
    assert exc.value.residual == np.linalg.norm(system.rhs) / max(np.linalg.norm(system.rhs), 1.0)


def scipy_gmres_cycles(system, tol: float):
    """The restarted solve on SciPy's GMRES, one cycle per call, with the
    rules of gmres_solve: (solution, relative residual, iterations)."""
    mat, rhs = system.mat, system.rhs
    restart = min(system.n_blocks + 1, mat.shape[0])
    calls = []
    x, best = None, np.inf
    while True:
        x, info = scipy_gmres(mat, rhs, x0=x, rtol=tol, atol=0.0, restart=restart, maxiter=1,
                              callback=calls.append, callback_type="pr_norm")
        res = float(np.linalg.norm(mat @ x - rhs) / max(np.linalg.norm(rhs), 1.0))
        if (info == 0 and res <= tol) or not res < best:
            return x, min(res, best), len(calls)
        best = res


def kron_chain(M: int, d: int = 2, N: int = 1, k: int = 1, window=(1.0, 0.05), seed: int = 0):
    """A derivative-scheme system of a seeded kron model with a near-diagonal
    linear and a small quadratic part, as the benchmark draws them."""
    rng = np.random.default_rng(seed)
    m = kron_model(d, {1: np.diag(np.linspace(0.3, 0.7, d)) + 0.01 * rng.normal(size=(d, d)),
                       2: 0.02 / d * rng.normal(size=(d, d * d))})
    grid = make_lambda_grid(S, *window, M)
    states, qcms = run_lifted(S, m, 0.8 + 0.1 * rng.uniform(size=d), grid,
                              CarlemanBasis(N=N, d=d), scheme="dpm", order=k)
    return assemble_global_dpm(qcms, states[0].y)


def test_gmres_max_iter_caps_the_arnoldi_steps():
    # one cycle of the M=64 system needs 65 steps; a budget of 10 cuts it
    system = kron_chain(64)
    for budget in (1, 10, 64):
        with pytest.raises(ConvergenceError) as exc:
            gmres_solve(system, max_iter=budget)
        assert exc.value.iterations == budget
    assert gmres_solve(system, max_iter=65).iterations == 65
    with pytest.raises(ValueError):
        gmres_solve(system, max_iter=0)


@pytest.mark.parametrize("case", ["sweep_M64", "lift_A", "lift_B", "quadratic"])
@pytest.mark.parametrize("seed", [0, 1])
def test_gmres_takes_scipys_iterations_at_the_same_restart(monkeypatch, case, seed):
    # the benchmark's GMRES shapes (d, N, M, k) and the scalar quadratic
    system = {
        "sweep_M64": lambda: kron_chain(64, seed=seed),
        "lift_A": lambda: kron_chain(32, d=4, N=4, k=2, window=(0.5, 0.1), seed=seed),
        "lift_B": lambda: kron_chain(16, d=4, N=5, window=(0.5, 0.1), seed=seed),
        "quadratic": lambda: quadratic_system(M=6 + seed)[0],
    }[case]()
    direct = forward_substitute(system).solution
    scale = max(1.0, float(np.abs(direct).max()))
    for tol in (1e-10, 1e-12):
        monkeypatch.setattr(solve, "GMRES_TOL", tol)
        ours = gmres_solve(system)
        x, res, iterations = scipy_gmres_cycles(system, tol)
        assert ours.iterations == iterations
        assert ours.residual <= tol and res <= tol
        assert np.abs(ours.solution - direct).max() <= 1e-10 * scale
        assert np.abs(x - direct).max() <= 1e-10 * scale


CONST_A = np.array([[2.0, 1.0], [1.0, 3.0]])
CONST_B = np.array([1.0, 0.5])
U0 = np.array([1.0, -0.5])


def zero_source(t):
    """The source of a homogeneous flow."""
    return np.zeros(2)


def expm_endpoint(A, b, u0, T):
    E = expm(-A * T)
    u = E @ u0
    if b is not None:
        u = u + np.linalg.solve(A, (np.eye(len(u0)) - E) @ b)
    return u


def test_lchs_constant_inhomogeneous_matches_expm():
    ref = expm_endpoint(CONST_A, CONST_B, U0, 1.0)
    res = lchs_solve(lambda t: CONST_A, lambda t: CONST_B, U0, 1.0)
    assert np.linalg.norm(res.u - ref) < 2e-4
    assert not np.iscomplexobj(res.u)
    # constant coefficients are detected: one exponential per node
    assert res.n_exponentials == 257


def test_lchs_homogeneous_and_nonsymmetric():
    A = np.array([[2.0, 1.5], [0.5, 3.0]])
    ref = expm_endpoint(A, None, U0, 1.0)
    res = lchs_solve(lambda t: A, zero_source, U0, 1.0)
    assert np.linalg.norm(res.u - ref) < 2e-4
    assert res.shift == pytest.approx(0.0, abs=1e-9)


def test_lchs_error_non_increasing_as_kernel_window_doubles():
    ref = expm_endpoint(CONST_A, CONST_B, U0, 1.0)
    errs = []
    for K, nodes in ((32.0, 257), (64.0, 513), (128.0, 1025)):
        cfg = LchsConfig(K=K, nodes=nodes, substeps=64)
        res = lchs_solve(lambda t: CONST_A, lambda t: CONST_B, U0, 1.0, cfg)
        errs.append(float(np.linalg.norm(res.u - ref)))
        # trapezoid mass of the truncated kernel: (2/pi) atan(K)
        assert res.kernel_mass == pytest.approx(2.0 / np.pi * np.arctan(K), abs=2e-4)
    assert errs[0] >= errs[1] >= errs[2]


def test_lchs_time_dependent_matches_adaptive_integrator():
    def A_fun(t):
        return np.array([[2.0 + t, 1.0], [1.0, 3.0 - 0.5 * t]])

    def b_fun(t):
        return np.array([np.sin(t), 1.0])

    sol = solve_ivp(lambda t, u: -A_fun(t) @ u + b_fun(t), (0.0, 1.0), U0,
                    rtol=1e-11, atol=1e-13)
    res = lchs_solve(A_fun, b_fun, U0, 1.0)
    assert np.linalg.norm(res.u - sol.y[:, -1]) < 1e-3
    # frozen-midpoint propagators are rebuilt per node and substep
    assert res.n_exponentials == 257 * 64


def test_lchs_stability_shift_for_indefinite_part():
    A = np.diag([-1.0, 2.0])
    ref = expm_endpoint(A, None, U0, 1.0)
    res = lchs_solve(lambda t: A, zero_source, U0, 1.0)
    assert res.shift == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.norm(res.u - ref) / np.linalg.norm(ref) < 0.05


def lchs_per_node(A_fun, b_fun, u0, T, cfg):
    """The LCHS quadrature one kernel node at a time, each node keeping the
    list of its suffix products W_{S-1} ... W_j."""
    u0 = np.asarray(u0)
    n = len(u0)
    dt = T / cfg.substeps
    A_mid = [np.asarray(A_fun((j + 0.5) * dt), dtype=complex) for j in range(cfg.substeps)]
    time_dep = any(not np.array_equal(A_mid[0], Aj) for Aj in A_mid[1:])
    Ls = [(Aj + Aj.conj().T) / 2.0 for Aj in A_mid]
    Hs = [(Aj - Aj.conj().T) / 2.0j for Aj in A_mid]
    mu = max(0.0, -min(float(np.linalg.eigvalsh(Lj)[0]) for Lj in Ls)) + SHIFT_EPS
    Ls = [Lj + mu * np.eye(n) for Lj in Ls]
    ks = np.linspace(-cfg.K, cfg.K, cfg.nodes)
    wk = np.full(cfg.nodes, ks[1] - ks[0])
    wk[0] *= 0.5
    wk[-1] *= 0.5
    gk = 1.0 / (np.pi * (1.0 + ks**2))
    bounds = np.arange(cfg.substeps + 1) * dt
    b_shift = [np.exp(-mu * t) * np.asarray(b_fun(t), dtype=complex) for t in bounds]
    ws = np.full(cfg.substeps + 1, dt)
    ws[0] *= 0.5
    ws[-1] *= 0.5
    acc = np.zeros(n, dtype=complex)
    n_exp = 0
    for k, w, g in zip(ks, wk, gk):
        if time_dep:
            Wj = [expm(-1j * dt * (k * Lj + Hj)) for Lj, Hj in zip(Ls, Hs)]
            n_exp += cfg.substeps
        else:
            Wj = [expm(-1j * dt * (k * Ls[0] + Hs[0]))] * cfg.substeps
            n_exp += 1
        suffix = [np.eye(n, dtype=complex)]
        for Wstep in reversed(Wj):
            suffix.append(suffix[-1] @ Wstep)
        suffix.reverse()
        contrib = suffix[0] @ u0
        for j in range(cfg.substeps + 1):
            contrib = contrib + ws[j] * (suffix[j] @ b_shift[j])
        acc += (w * g) * contrib
    return np.exp(mu * T) * acc, n_exp


def time_dependent_A(t):
    return np.array([[2.0 + t, 1.0 - 0.5 * t], [0.5, 3.0 - 0.5 * t]])


@pytest.mark.parametrize(
    "A_fun, b_fun, cfg, chunk_bytes",
    [
        (lambda t: CONST_A, lambda t: CONST_B, LchsConfig(), None),
        (time_dependent_A, lambda t: np.array([np.sin(t), 1.0]), LchsConfig(nodes=33, substeps=16), None),
        (lambda t: np.array([[2.0, 1.5], [0.5, 3.0]]), zero_source, LchsConfig(nodes=65, substeps=8), None),
        # 33 nodes in chunks of 4 (16 bytes per complex entry of a 2 x 2 matrix)
        (lambda t: CONST_A, lambda t: CONST_B, LchsConfig(nodes=33, substeps=8), 4 * 16 * 4),
        (time_dependent_A, zero_source, LchsConfig(nodes=33, substeps=8), 4 * 16 * 4),
    ],
    ids=["constant", "time_dependent", "homogeneous", "constant_chunked", "time_dependent_chunked"],
)
def test_lchs_matches_per_node_suffix_products(A_fun, b_fun, cfg, chunk_bytes):
    cap = solve.LCHS_CHUNK_BYTES if chunk_bytes is None else chunk_bytes
    with mock.patch.object(solve, "LCHS_CHUNK_BYTES", cap):
        res = lchs_solve(A_fun, b_fun, U0, 1.0, cfg)
    expected, n_exp = lchs_per_node(A_fun, b_fun, U0, 1.0, cfg)
    assert np.linalg.norm(res.u - expected) <= 1e-13 * np.linalg.norm(expected)
    assert res.n_exponentials == n_exp
    assert not np.iscomplexobj(res.u)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    complex_inputs=st.booleans(),
    time_dep=st.booleans(),
    with_b=st.booleans(),
    nodes=st.integers(3, 33),
    substeps=st.integers(1, 8),
    K=st.floats(0.5, 32.0),
    T=st.floats(0.1, 2.0),
    chunk_nodes=st.one_of(st.none(), st.integers(1, 32)),
)
def test_lchs_matches_per_node_suffix_products_on_random_systems(
    seed, n, complex_inputs, time_dep, with_b, nodes, substeps, K, T, chunk_nodes
):
    """Non-normal A, real or complex, constant or linear in t, with or
    without a source; chunk_nodes None keeps all nodes of a time-dependent
    A in one chunk, an integer caps such a chunk at that many nodes
    (several chunks below nodes).  A constant A's nodes also hold a source
    table, so its chunks are smaller still."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if complex_inputs else x

    A0, A1 = draw(n, n), draw(n, n)
    b0, b1, u0 = draw(n), draw(n), draw(n)

    def A_fun(t):
        return A0 + t * A1 if time_dep else A0

    def b_fun(t):
        return b0 + np.sin(t) * b1 if with_b else np.zeros(n)
    cfg = LchsConfig(K=K, nodes=nodes, substeps=substeps)
    node_bytes = 16 * n * n
    cap = node_bytes * (nodes if chunk_nodes is None else chunk_nodes)
    with mock.patch.object(solve, "LCHS_CHUNK_BYTES", cap):
        res = lchs_solve(A_fun, b_fun, u0, T, cfg)
    expected, n_exp = lchs_per_node(A_fun, b_fun, u0, T, cfg)
    # relative to the size of the summed terms, e^{mu T} sum_k w_k g_k |z_k|
    # with |z_k| <= |u0| + T max_t |b(t)| (unitary propagators): the
    # quadrature cancels down to expected, so rounding scales with the terms
    source = T * (np.linalg.norm(b0) + np.linalg.norm(b1)) if with_b else 0.0
    scale = np.exp(res.shift * T) * res.kernel_mass * (np.linalg.norm(u0) + source)
    assert np.linalg.norm(res.u - expected) <= 1e-13 * scale
    assert res.n_exponentials == n_exp == nodes * (substeps if time_dep and substeps > 1 else 1)
    assert np.iscomplexobj(res.u) == complex_inputs


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    complex_inputs=st.booleans(),
    time_dep=st.booleans(),
    with_b=st.booleans(),
    nodes=st.integers(3, 40),
    substeps=st.integers(1, 12),
    K=st.floats(0.5, 64.0),
    T=st.floats(0.1, 2.0),
    chunk_bytes=st.one_of(st.none(), st.integers(1, 8192)),
)
def test_lchs_walk_equals_the_per_substep_propagator_walk(
    seed, n, complex_inputs, time_dep, with_b, nodes, substeps, K, T, chunk_bytes
):
    """A non-normal A whose L needs the stability shift at t = 0, constant
    or linear in t, with a zero or a nonzero source, over one chunk or
    several: a constant generator's walk in its eigen-coordinates agrees
    with the per-substep propagator walk to 1e-13, and a time-dependent
    one is that walk, bit for bit."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if complex_inputs else x

    A0, A1 = draw(n, n), draw(n, n)
    # lambda_min of L(0) = (A0 + A0^H)/2 moved to -delta < 0
    A0 -= (np.linalg.eigvalsh((A0 + A0.conj().T) / 2.0)[0] + rng.uniform(0.1, 1.0)) * np.eye(n)
    b0, b1, u0 = draw(n), draw(n), draw(n)

    def A_fun(t):
        return A0 + t * A1 if time_dep else A0

    def b_fun(t):
        return b0 + np.sin(t) * b1 if with_b else np.zeros(n)

    cfg = LchsConfig(K=K, nodes=nodes, substeps=substeps)
    cap = solve.LCHS_CHUNK_BYTES if chunk_bytes is None else chunk_bytes
    with mock.patch.object(solve, "LCHS_CHUNK_BYTES", cap):
        res = lchs_solve(A_fun, b_fun, u0, T, cfg)
        ref = lchs_per_substep(A_fun, b_fun, u0, T, cfg)
    assert (res.n_exponentials, res.shift, res.kernel_mass) == (
        ref.n_exponentials, ref.shift, ref.kernel_mass)
    assert res.shift > SHIFT_EPS or time_dep
    assert np.iscomplexobj(res.u) == np.iscomplexobj(ref.u) == complex_inputs
    if time_dep and substeps > 1:
        assert np.array_equal(res.u, ref.u)
    else:
        assert np.linalg.norm(res.u - ref.u) <= 1e-13 * np.linalg.norm(ref.u)


@pytest.mark.parametrize("A_at, time_dep", [
    # +0.0 and -0.0 compare equal, as np.array_equal has them
    (lambda t: np.array([[2.0, 0.0 if t < 0.5 else -0.0], [0.0, 3.0]]), False),
    # one substep's generator differs: the last, or the first
    (lambda t: np.array([[2.0, 1.0], [1.0, 3.0 + (t > 0.9)]]), True),
    (lambda t: np.array([[2.0, 1.0 + (t < 0.1)], [1.0, 3.0]]), True),
], ids=["signed_zeros", "last_substep", "first_substep"])
def test_lchs_finds_time_dependence_as_array_equal_does(A_at, time_dep):
    cfg = LchsConfig(nodes=5, substeps=8)
    res = lchs_solve(A_at, zero_source, U0, 1.0, cfg)
    ref = lchs_per_substep(A_at, zero_source, U0, 1.0, cfg)
    assert res.n_exponentials == ref.n_exponentials == 5 * (8 if time_dep else 1)


def test_lchs_validation():
    with pytest.raises(ValueError):
        lchs_solve(lambda t: CONST_A, zero_source, U0, 0.0)
    with pytest.raises(ValueError):
        LchsConfig(K=-1.0)
    with pytest.raises(ValueError):
        LchsConfig(nodes=2)
    with pytest.raises(ValueError):
        LchsConfig(substeps=0)
    for T in (np.nan, np.inf):
        with pytest.raises(ValueError):
            lchs_solve(lambda t: CONST_A, zero_source, U0, T)
    for K in (np.nan, np.inf):
        with pytest.raises(ValueError):
            LchsConfig(K=K)
    with pytest.raises(ValueError):
        LchsConfig(nodes=9.5)
    with pytest.raises(ValueError):
        LchsConfig(substeps=4.5)


def test_lchs_refuses_a_non_finite_sample_before_any_eigendecomposition(monkeypatch):
    # a NaN or inf in A(t) or b(t) used to come back as a NaN u with the
    # 1e-12 shift: max(0.0, -nan) is 0.0 and nan < -1e-10 is False
    def refuse(*args, **kwargs):
        raise AssertionError("an eigendecomposition ran on a non-finite sample")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    cfg = LchsConfig(nodes=5, substeps=4)  # A at t = 0.125, 0.375, ...; b at t = 0, 0.25, ...
    with_nan = np.array([[2.0, np.nan], [1.0, 3.0]])
    cases = [
        (lambda t: with_nan, zero_source, r"A\(t\) is not finite at t=0.125, its sample 0"),
        (lambda t: with_nan if t > 0.5 else CONST_A, zero_source,
         r"A\(t\) is not finite at t=0.625, its sample 2"),
        (lambda t: CONST_A, lambda t: np.array([0.0, np.inf if t > 0.3 else 1.0]),
         r"b\(t\) is not finite at t=0.5, its sample 2"),
        (lambda t: CONST_A, lambda t: np.array([np.nan, 0.0]), r"b\(t\) is not finite at t=0.0, its sample 0"),
    ]
    for A_fun, b_fun, message in cases:
        with pytest.raises(ValueError, match=message):
            lchs_solve(A_fun, b_fun, U0, 1.0, cfg)


def test_qlss_cost_model_value_and_ratios():
    base = qlss_cost_model(kappa=10.0, eps=1e-3, J=2, p=2, N=64)
    assert base == pytest.approx(2 * 2 * 10.0 * np.log2(64 / 1e-3) ** 2)
    assert qlss_cost_model(20.0, 1e-3, 2, 2, 64) == pytest.approx(2 * base)
    assert qlss_cost_model(10.0, 1e-3, 4, 2, 64) == pytest.approx(2 * base)
    # the polylog knob is labelled, not hidden
    linear = qlss_cost_model(10.0, 1e-3, 2, 2, 64, c_poly=1.0)
    assert base / linear == pytest.approx(np.log2(64 / 1e-3))


def test_qlss_cost_model_validation():
    with pytest.raises(ValueError):
        qlss_cost_model(0.5, 1e-3, 1, 1, 4)
    with pytest.raises(ValueError):
        qlss_cost_model(2.0, 0.0, 1, 1, 4)
    with pytest.raises(ValueError):
        qlss_cost_model(2.0, 1e-3, 0, 1, 4)
    with pytest.raises(ValueError):
        qlss_cost_model(2.0, 8.0, 1, 1, 4)
