"""Global block-system assembly, sparsity, and conditioning estimates."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from carlift import carleman
from carlift import system as system_module
from carlift.carleman import CarlemanBasis, Qcm, UnipcQcmSet, lift, lift_run, run_lifted
from carlift.errors import CapacityError
from carlift.model import kron_model, scalar_model
from carlift.presets import BENCHMARKS
from carlift.schedule import make_lambda_grid, make_vp_schedule
from carlift.system import (
    BlockLinearSystem,
    StepMatrix,
    TrajectoryOperator,
    assemble_global_dpm,
    assemble_global_unipc,
    condition_number,
    export_matrix,
)
from carlift.solve import forward_substitute
from oracles import import_matrix, walk_matvec

S = make_vp_schedule(0.1, 20.0, 1.0)
PRODUCT = settings(max_examples=25, deadline=None)
QUAD = scalar_model({(0, 0): 0.1, (1, 0): -0.5, (2, 0): 0.1})


def lifted_setup(N=3, M=6, scheme="dpm", order=1, corrector=False, x0=0.8):
    basis = CarlemanBasis(N=N, d=1)
    grid = make_lambda_grid(S, 0.6, 0.05, M)
    states, qcms = run_lifted(
        S, QUAD, [x0], grid, basis, scheme=scheme, order=order, corrector=corrector
    )
    return basis, grid, states, qcms


def pair_system(ts) -> BlockLinearSystem:
    """Block diagonal D = 1 system of the pairs [[1, 0], [-c, 1]] with
    c = t - 1/t, whose singular values are t and 1/t."""
    rows = []
    for t in ts:
        rows += [[], [(len(rows), StepMatrix(np.array([[t - 1.0 / t]])))]]
    return BlockLinearSystem(mat=TrajectoryOperator(1, rows), rhs=np.zeros(len(rows)), scheme="dpm")


def test_global_dpm_reproduces_sequential_walk():
    basis, grid, states, qcms = lifted_setup()
    system = assemble_global_dpm(qcms, lift([0.8], basis).y)
    assert system.n_blocks == grid.M + 1
    assert system.block_dim == basis.dim_total
    y = sp.linalg.spsolve_triangular(system.mat.tocsr(), system.rhs, lower=True)
    chained = np.concatenate([st.y for st in states])
    assert np.allclose(y, chained, atol=1e-12)


def test_global_unipc_both_variants_reproduce_sequential_walk():
    for which, corrector in (("predictor", False), ("corrector", True)):
        basis, grid, states, qcms = lifted_setup(scheme="unipc", order=2, corrector=corrector)
        system = assemble_global_unipc(qcms[:1], qcms[1:], lift([0.8], basis).y, which=which)
        y = sp.linalg.spsolve_triangular(system.mat.tocsr(), system.rhs, lower=True)
        chained = np.concatenate([st.y for st in states])
        assert np.allclose(y, chained, atol=1e-12)
    with pytest.raises(ValueError):
        assemble_global_unipc(qcms[:1], qcms[1:], lift([0.8], basis).y, which="both")


def test_unipc_order_one_predictor_coincides_with_dpm_assembly():
    basis, grid, _, qcms_d = lifted_setup(M=4, order=1)
    _, _, _, qcms_u = lifted_setup(M=4, scheme="unipc", order=1)
    y0 = lift([0.8], basis).y
    a = assemble_global_dpm(qcms_d, y0)
    b = assemble_global_unipc([], qcms_u, y0, which="predictor")
    assert (a.mat.tocsr() != b.mat.tocsr()).nnz == 0
    assert np.allclose(a.rhs, b.rhs, atol=1e-15)


def test_global_matrix_is_block_lower_triangular():
    _, _, _, qcms = lifted_setup(scheme="unipc", order=2, corrector=True)
    basis = CarlemanBasis(N=3, d=1)
    system = assemble_global_unipc(qcms[:1], qcms[1:], lift([0.8], basis).y)
    assert sp.triu(system.mat.tocsr(), k=1).nnz == 0
    report = condition_number(system)
    assert report.nnz == system.mat.nnz
    assert report.s_row >= 1 and report.s_col >= 1


def test_operator_csr_follows_step_diagonals_that_cancel_or_are_missing():
    # the coupling is -A as given: A's zeros store nothing in the CSR and
    # count nothing in nnz, a diagonal zero (a step that drops its
    # coordinate) and a signed zero included, and its ones stay
    A = np.array([[0.0, 0.5, 0.0], [0.0, 1.0, 2.0], [0.3, 0.0, -0.0]])
    system = assemble_global_dpm([Qcm(A=StepMatrix(A.copy()), b=np.zeros(3))] * 2,
                                 np.ones(3))
    eye = sp.identity(3, format="csr")
    step = -sp.csr_matrix(A)
    want = sp.bmat([[eye, None, None], [step, eye, None], [None, step, eye]], format="csr")
    want.eliminate_zeros()
    got = system.mat.tocsr()
    assert system.mat.nnz == got.nnz == want.nnz == 17
    for attr in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(got, attr), getattr(want, attr))
    x = np.random.default_rng(0).standard_normal(9)
    np.testing.assert_allclose(system.mat @ x, want @ x, rtol=1e-15, atol=1e-15)
    np.testing.assert_array_equal(system.mat.rows[1][0][1].rows, A)


def test_lift_made_blocks_are_held_without_a_rescan():
    basis, _, _, qcms = lifted_setup(M=3)
    system = assemble_global_dpm(qcms, lift([0.8], basis).y)
    assert all(row[0][1].rows is q.A.rows for row, q in zip(system.mat.rows[1:], qcms))
    _, _, _, qcms = lifted_setup(M=4, scheme="unipc", order=2)
    system = assemble_global_unipc(qcms[:1], qcms[1:], lift([0.8], basis).y, which="predictor")
    assert all(held.rows is mat.rows for row, q in zip(system.mat.rows[2:], qcms[1:])
               for (_, held), mat in zip(row, q.pred_mats))


def test_sparsity_stats_small_matrix():
    # M = [[1, 0], [-2, 1]]
    system = assemble_global_dpm([Qcm(A=StepMatrix(np.array([[2.0]])), b=np.zeros(1))],
                                 np.ones(1))
    report = condition_number(system)
    assert report.nnz == 3
    assert report.s_row == 2
    assert report.s_col == 2


def test_export_import_round_trip(tmp_path):
    _, _, _, qcms = lifted_setup(M=3)
    basis = CarlemanBasis(N=3, d=1)
    system = assemble_global_dpm(qcms, lift([0.8], basis).y)
    path = tmp_path / "mat.txt"
    export_matrix(system, path)
    back = import_matrix(path)
    assert back.shape == system.mat.shape
    assert (back != system.mat.tocsr()).nnz == 0
    header = path.read_text().splitlines()[0].split()
    assert int(header[2]) == system.mat.nnz


def test_condition_number_identity_is_exactly_one():
    eye = assemble_global_dpm([], np.ones(40))
    for method in ("dense_svd", "auto"):
        report = condition_number(eye, method=method)
        assert report.kappa == 1.0
        assert report.converged


def test_condition_number_lanczos_matches_dense():
    # the Lanczos path must track dense SVD on real assembled systems
    for N, M in ((2, 4), (3, 6), (4, 5)):
        _, _, _, qcms = lifted_setup(N=N, M=M)
        basis = CarlemanBasis(N=N, d=1)
        system = assemble_global_dpm(qcms, lift([0.8], basis).y)
        dense = condition_number(system, method="dense_svd")
        lanczos = condition_number(system, method="auto", rtol=1e-6)
        assert lanczos.converged
        assert lanczos.kappa == pytest.approx(dense.kappa, rel=1e-2)
        assert lanczos.iterations > 0
        assert dense.dim == system.dim


def test_condition_number_lanczos_rerun_is_identical():
    _, _, _, qcms = lifted_setup(N=4, M=6)
    system = assemble_global_dpm(qcms, lift([0.8], CarlemanBasis(N=4, d=1)).y)
    first = condition_number(system, method="auto", rtol=1e-6)
    assert first.iterations > 0
    assert condition_number(system, method="auto", rtol=1e-6) == first


def test_condition_number_lanczos_out_of_budget_reports_not_converged(monkeypatch):
    # a spread-out spectrum that one restart cycle cannot resolve to 1e-8:
    # singular values t and 1/t for 250 values of t in [1, 10], so kappa = 100
    system = pair_system(np.linspace(1.0, 10.0, 250))
    full = condition_number(system, method="auto", rtol=1e-8)
    monkeypatch.setattr("carlift.system.LANCZOS_MAX_ITER", 25)
    short = condition_number(system, method="auto", rtol=1e-8)
    assert full.converged and full.kappa == pytest.approx(100.0, rel=1e-8)
    assert not short.converged
    assert short.iterations < full.iterations
    # the fallback Rayleigh quotients bound sigma_max from below and
    # sigma_min from above, so kappa can only come out low
    assert 1.0 <= short.kappa <= 100.0 * (1 + 1e-12)


# the kron_sweep_kappa benchmark's (scheme, order, d, N), each at M = 32
KAPPA_SWEEP_SHAPES = [("dpm", 1, 2, 3), ("dpm", 1, 2, 4), ("dpm", 1, 2, 5), ("dpm", 2, 2, 4),
                      ("dpm", 2, 3, 3), ("unipc", 2, 2, 3), ("unipc", 2, 2, 4),
                      ("unipc", 3, 2, 4), ("dpm", 1, 3, 4)]


def test_lanczos_converges_exactly_when_its_relative_residual_is_within_rtol(monkeypatch):
    # every scheme on every preset at N = 3, M = 16, then the kron sweep's
    # shapes, at the CLI's default rtol and at one no run can reach; the
    # report's residual is the larger of its two runs'
    runs, lanczos_top = [], system_module._lanczos_top

    def recorded(*args):
        runs.append(lanczos_top(*args))
        return runs[-1]

    monkeypatch.setattr(system_module, "_lanczos_top", recorded)
    systems = []
    for bench in BENCHMARKS.values():
        for scheme, order, corrector in [("dpm", k, False) for k in (1, 2, 3)] + [
                ("unipc", p, c) for p in (1, 2, 3) for c in (False, True)]:
            systems.append(lift_run(bench.schedule(), bench.model(), [bench.x_T], bench.grid(16),
                                    CarlemanBasis(N=3, d=1), scheme, order, corrector=corrector)[0])
    rng = np.random.default_rng(5)
    for scheme, order, d, N in KAPPA_SWEEP_SHAPES:
        x_T = 0.8 + 0.1 * rng.uniform(size=d)
        systems.append(lift_run(S, random_kron_model(rng, d), x_T, make_lambda_grid(S, 0.5, 0.1, 32),
                                CarlemanBasis(N=N, d=d, mode="kron"), scheme, order,
                                corrector=scheme == "unipc")[0])
    for system in systems:
        runs.clear()
        report = condition_number(system, rtol=1e-4)
        assert report.method == "lanczos" and report.converged
        assert report.converged == (report.residual <= report.rtol)
        assert len(runs) == 2 and report.residual == max(res for _, _, res in runs)
    short = condition_number(systems[-1], rtol=1e-300)
    assert not short.converged and short.residual > short.rtol


def sweep_shaped_kappa() -> float:
    """Dense-SVD kappa of a system shaped like a `carlift sweep` point:
    d=2 kron model, unipc p=2 corrector, M=16, N=5 (dim 340)."""
    rng = np.random.default_rng(0)
    m = kron_model(2, {0: 0.05 * rng.standard_normal((2, 2, 1)),
                       1: np.diag([0.3, 0.6]) + 0.02 * rng.standard_normal((2, 2)),
                       2: 0.05 * rng.standard_normal((2, 2, 4))})
    states, qcms = run_lifted(S, m, [0.8, -0.5], make_lambda_grid(S, 0.5, 0.1, 16),
                              CarlemanBasis(N=5, d=2), scheme="unipc", order=2, corrector=True)
    system = assemble_global_unipc([q for q in qcms if not isinstance(q, UnipcQcmSet)],
                                   [q for q in qcms if isinstance(q, UnipcQcmSet)], states[0].y)
    return condition_number(system, method="dense_svd").kappa


def test_dense_svd_kappa_is_the_same_bytes_as_on_one_blas_thread():
    # unpinned, OpenBLAS rounds this SVD differently on one CPU and on two
    here = Path(__file__).resolve().parent
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])}
    out = subprocess.run([sys.executable, "-c", "import test_system; "
                          "print(test_system.sweep_shaped_kappa().hex())"],
                         env=env, cwd=here, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert sweep_shaped_kappa().hex() == out.stdout.strip()


def test_condition_number_known_diagonal():
    # singular values sqrt(8) and 1/sqrt(8)
    system = pair_system([math.sqrt(8.0)])
    assert condition_number(system, method="dense_svd").kappa == pytest.approx(8.0)
    assert condition_number(system, method="auto", rtol=1e-8).kappa == pytest.approx(
        8.0, rel=1e-4
    )


def test_condition_number_error_paths(monkeypatch):
    with pytest.raises(ValueError):
        condition_number(assemble_global_dpm([], np.ones(2001)), method="dense_svd")
    for method in ("power", "lanczos"):  # "auto" is the one Lanczos estimate
        with pytest.raises(ValueError, match=f"unknown method '{method}'"):
            condition_number(assemble_global_dpm([], np.ones(4)), method=method)
    # a unit triangular M is never singular in exact arithmetic, but its
    # smallest singular value can underflow to 0, which puts kappa out of range
    monkeypatch.setattr(np.linalg, "svd", lambda a, compute_uv: np.array([1.0, 0.0]))
    with pytest.raises(OverflowError, match="beyond the float range: sigma_min underflowed to 0"):
        condition_number(assemble_global_dpm([], np.ones(2)), method="dense_svd")


def test_condition_auto_is_lanczos_at_every_size():
    # a 1 x 1 system, M = [1], included: its one-vector basis is exact
    for n in (1, 2, 3, 10, 2500):
        report = condition_number(assemble_global_dpm([], np.ones(n)))
        assert report.method == "lanczos" and report.kappa == 1.0 and report.converged


def test_condition_checks_its_method_and_dimension_before_building_the_csr(monkeypatch):
    def refuse(self):
        raise AssertionError("tocsr called")

    monkeypatch.setattr(TrajectoryOperator, "tocsr", refuse)
    with pytest.raises(ValueError, match="unknown method 'power'"):
        condition_number(assemble_global_dpm([], np.ones(4)), method="power")
    with pytest.raises(ValueError, match="dense SVD limited to dim <= 2000, got 2001"):
        condition_number(assemble_global_dpm([], np.ones(2001)), method="dense_svd")


def test_lanczos_factors_the_transpose_of_the_csr_it_built(monkeypatch):
    # SuperLU factors M^T as a CSC view of the CSR's own arrays, no copy
    built, factored = [], []
    tocsr = TrajectoryOperator.tocsr

    def record_tocsr(self):
        built.append(tocsr(self))
        return built[-1]

    def record_splu(mat, **kwargs):
        factored.append(mat)
        return sp.linalg.splu(mat, **kwargs)

    monkeypatch.setattr(TrajectoryOperator, "tocsr", record_tocsr)
    monkeypatch.setattr(system_module, "splu", record_splu)
    report = condition_number(pair_system([2.0, 3.0]))
    assert report.converged and len(built) == len(factored) == 1
    (csr,), (mat,) = built, factored
    assert mat.format == "csc" and mat.shape == csr.shape
    assert np.shares_memory(mat.data, csr.data) and np.shares_memory(mat.indices, csr.indices)


def test_global_assembly_refuses_oversized_system_before_allocating(monkeypatch):
    # 40 derivative-scheme steps sharing one dense 400 x 400 step matrix:
    # 6.4M entries, about 77 MB of CSR data and indices, against a cap
    # lowered to 1 MiB; the one step's rows hold 1.28 MB
    monkeypatch.setattr(system_module, "MAX_STEP_BYTES", 2**20)
    D = 400
    step = Qcm(A=StepMatrix(np.ones((D, D))), b=np.zeros(D))
    system = assemble_global_dpm([step] * 40, np.ones(D))
    assert system.mat.nnz == 40 * D * D + 41 * D
    step_bytes = step.A.rows.nbytes
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            system.mat.tocsr()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < step_bytes // 10


@pytest.mark.parametrize(("method", "reported"), [("auto", "lanczos"), ("dense_svd", "dense_svd")],
                         ids=["lanczos", "dense_svd"])
def test_condition_estimate_prices_its_working_set_before_building_it(monkeypatch, method,
                                                                      reported):
    # two steps sharing one dense 200 x 200 step matrix, about 1 MB of CSR;
    # the cap lies between the CSR and what the method holds: the CSR, the
    # LU factor of its transpose and the Lanczos basis of 20 vectors and
    # the new one, or the CSR and the dense (600, 600) M
    D = 200
    step = Qcm(A=StepMatrix(np.full((D, D), 1e-3)), b=np.zeros(D))
    system = assemble_global_dpm([step] * 2, np.ones(D))
    csr, n = system.mat.csr_bytes, system.dim
    mat = system.mat.tocsr()
    assert mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes <= csr
    del mat
    held = 2 * csr + 21 * 8 * n if method == "auto" else csr + 8 * n * n
    monkeypatch.setattr(system_module, "MAX_STEP_BYTES", (csr + held) // 2)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="the condition estimate"):
            condition_number(system, method=method)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < csr // 10
    monkeypatch.setattr(system_module, "MAX_STEP_BYTES", held)
    assert condition_number(system, method=method).method == reported


def test_lanczos_prices_its_basis_at_the_exact_boundary(monkeypatch):
    # 250 pairs, n = 500 with at most 750 nonzeros: the Lanczos basis of
    # 20 vectors and the new one, 84 000 bytes, outweighs the CSR and the
    # LU factor of its transpose, twice about 13 KB
    system = pair_system(np.linspace(1.0, 10.0, 250))
    n, csr = system.dim, system.mat.csr_bytes
    held = 2 * csr + 21 * 8 * n
    assert 21 * 8 * n > 2 * csr
    monkeypatch.setattr(system_module, "MAX_STEP_BYTES", held - 1)
    with pytest.raises(CapacityError, match=f"the condition estimate {held}, above {held - 1}"):
        condition_number(system, method="auto")
    monkeypatch.setattr(system_module, "MAX_STEP_BYTES", held)
    assert condition_number(system, method="auto").converged


def test_assembly_dimension_mismatch():
    basis, _, _, qcms = lifted_setup(M=3)
    with pytest.raises(ValueError):
        assemble_global_dpm(qcms, np.ones(basis.dim_total + 1))


def random_kron_model(rng, d: int):
    """A kron model with a constant, a near-diagonal linear and a small
    quadratic part, as the benchmark draws them."""
    return kron_model(d, {0: 0.1 * rng.normal(size=(d, 1)),
                          1: np.diag(np.linspace(0.3, 0.7, d)) + 0.01 * rng.normal(size=(d, d)),
                          2: 0.02 / d * rng.normal(size=(d, d * d))})


def assert_product_keeps_the_walk_bits(system, rng):
    """mat @ x, and the residual forward_substitute reports, are the bits
    of the row-by-row walk."""
    mat = system.mat
    for x in (rng.normal(size=system.dim), np.exp(rng.uniform(-30.0, 30.0, system.dim))):
        assert np.array_equal(mat @ x, walk_matvec(mat, x))
    fwd = forward_substitute(system)
    walk = walk_matvec(mat, fwd.solution) - system.rhs
    assert fwd.residual == float(np.linalg.norm(walk) / max(np.linalg.norm(system.rhs), 1.0))


@PRODUCT
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 2), N=st.integers(1, 3),
       M=st.integers(1, 8), k=st.integers(1, 3), chunk_bytes=st.sampled_from([1, 4096, None]))
def test_batched_product_keeps_the_walk_bits_on_dpm_chains(seed, d, N, M, k, chunk_bytes):
    # a small LIFT_CHUNK_BYTES lifts every step in a chunk of its own; the
    # steps still share one array, so the chain is one run
    rng = np.random.default_rng(seed)
    grid = make_lambda_grid(S, 0.6, 0.1, M)
    cap = carleman.LIFT_CHUNK_BYTES if chunk_bytes is None else chunk_bytes
    with mock.patch.object(carleman, "LIFT_CHUNK_BYTES", cap):
        states, qcms = run_lifted(S, random_kron_model(rng, d), 0.8 + 0.1 * rng.uniform(size=d),
                                  grid, CarlemanBasis(N=N, d=d), scheme="dpm", order=k)
    system = assemble_global_dpm(qcms, states[0].y)
    assert len(system.mat._runs) == 1
    assert_product_keeps_the_walk_bits(system, rng)


@PRODUCT
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3), p=st.integers(1, 3),
       extra=st.integers(0, 5), which=st.sampled_from(["predictor", "corrector"]))
def test_batched_product_keeps_the_walk_bits_on_unipc_systems(seed, d, p, extra, which):
    rng = np.random.default_rng(seed)
    N = 2 if d == 3 else 3
    grid = make_lambda_grid(S, 0.6, 0.1, p + extra)
    states, qcms = run_lifted(S, random_kron_model(rng, d), 0.8 + 0.1 * rng.uniform(size=d),
                              grid, CarlemanBasis(N=N, d=d), scheme="unipc", order=p,
                              corrector=which == "corrector")
    warm = [q for q in qcms if not isinstance(q, UnipcQcmSet)]
    steps = [q for q in qcms if isinstance(q, UnipcQcmSet)]
    system = assemble_global_unipc(warm, steps, states[0].y, which=which)
    # the warm-up chain, then one run per coupling slot of the unified rows
    assert len(system.mat._runs) == (p > 1) + p
    assert_product_keeps_the_walk_bits(system, rng)


@PRODUCT
@given(data=st.data(), D=st.integers(1, 4), n_blocks=st.integers(2, 9))
def test_batched_product_keeps_the_walk_bits_on_hand_built_operators(data, D, n_blocks):
    """Couplings at lags 1-3 whose blocks are entries of one stack, of
    that stack reversed, of the leading columns of a wider stack or of a
    transposed stack (in index order, so rows at one slot and lag form
    runs), or arrays of their own.  Rows follow one layout of couplings,
    but for up to two that draw their own."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    r = data.draw(st.integers(1, D))  # leading rows held by a block
    stack = rng.normal(size=(3 * n_blocks, r, D))
    stacks = {
        "stack": stack,
        "reversed": stack[::-1],
        "wide": rng.normal(size=(3 * n_blocks, r, D + 2))[:, :, :D],
        "transposed": rng.normal(size=(3 * n_blocks, D, D)).transpose(0, 2, 1),
    }

    def block(kind, i, k):
        if kind == "own":
            return StepMatrix(rng.normal(size=(r, D)))
        return StepMatrix(stacks[kind], k * n_blocks + i)

    def couplings(max_lag, min_size=0):  # (lag, kind), lags distinct
        return st.lists(st.tuples(st.integers(1, max_lag), st.sampled_from([*stacks, "own"])),
                        min_size=min_size, max_size=3, unique_by=lambda t: t[0])

    layout = data.draw(couplings(3, min_size=1))
    own = data.draw(st.sets(st.integers(1, n_blocks - 1), max_size=2))  # rows off the layout
    rows = [[]]
    for i in range(1, n_blocks):
        row = data.draw(couplings(min(3, i))) if i in own else [t for t in layout if t[0] <= i]
        rows.append([(i - lag, block(kind, i, k))
                     for k, (lag, kind) in enumerate(sorted(row, reverse=True))])
    mat = TrajectoryOperator(D, rows)
    # a run starts at each coupling that does not continue the one at its
    # slot in the row above: the next row, column and index of one stack
    starts = 0
    for k in range(3):
        above = None
        for i, row in enumerate(rows):
            if k < len(row):
                c, blk = row[k]
                starts += above != (i - 1, c - 1, id(blk.stack), blk.index - 1)
                above = (i, c, id(blk.stack), blk.index)
    assert len(mat._runs) == starts
    rhs = rng.normal(size=mat.shape[0])
    assert_product_keeps_the_walk_bits(BlockLinearSystem(mat=mat, rhs=rhs, scheme="dpm"), rng)
