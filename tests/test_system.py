"""Global block-system assembly, sparsity, and conditioning estimates."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from carlift import carleman
from carlift.carleman import CarlemanBasis, Qcm, lift, run_lifted
from carlift.errors import CapacityError, StructureError
from carlift.model import scalar_model
from carlift.schedule import make_lambda_grid, make_vp_schedule
from carlift.system import (
    assemble_global_dpm,
    assemble_global_unipc,
    condition_number,
    export_matrix,
)
from oracles import import_matrix

S = make_vp_schedule(0.1, 20.0, 1.0)
QUAD = scalar_model({(0, 0): 0.1, (1, 0): -0.5, (2, 0): 0.1})


def lifted_setup(N=3, M=6, scheme="dpm", order=1, corrector=False, x0=0.8):
    basis = CarlemanBasis(N=N, d=1)
    grid = make_lambda_grid(S, 0.6, 0.05, M)
    states, qcms = run_lifted(
        S, QUAD, [x0], grid, basis, scheme=scheme, order=order, corrector=corrector
    )
    return basis, grid, states, qcms


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
    report = condition_number(system.mat)
    assert report.nnz == system.mat.nnz
    assert report.s_row >= 1 and report.s_col >= 1


def test_operator_csr_follows_step_diagonals_that_cancel_or_are_missing():
    # I + A drops the entry where A holds -1 and gains one where A stores
    # none; a stored zero in A is not an entry, and A itself is left as given
    A = sp.csr_matrix((np.array([-1.0, 0.5, 0.0, 2.0, 0.3, 0.25]), np.array([0, 1, 0, 2, 0, 2]),
                       np.array([0, 2, 4, 6])), shape=(3, 3))
    system = assemble_global_dpm([Qcm(A=A, b=np.zeros(3))] * 2, np.ones(3))
    eye = sp.identity(3, format="csr")
    step = -(eye + A)
    want = sp.bmat([[eye, None, None], [step, eye, None], [None, step, eye]], format="csr")
    want.eliminate_zeros()
    got = system.mat.tocsr()
    assert system.mat.nnz == got.nnz == want.nnz == 19
    for attr in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(got, attr), getattr(want, attr))
    x = np.random.default_rng(0).standard_normal(9)
    np.testing.assert_allclose(system.mat @ x, want @ x, rtol=1e-15, atol=1e-15)
    assert A.nnz == 6


def test_lift_made_blocks_are_held_without_a_rescan():
    basis, _, _, qcms = lifted_setup(M=3)
    system = assemble_global_dpm(qcms, lift([0.8], basis).y)
    assert all(row[0][1] is q.A for row, q in zip(system.mat.rows[1:], qcms))
    # a copy carries no mark of the lift, so it is checked before it is held
    copies = assemble_global_dpm([Qcm(A=q.A.copy(), b=q.b) for q in qcms], lift([0.8], basis).y)
    assert all(row[0][1] is not q.A for row, q in zip(copies.mat.rows[1:], qcms))
    assert (copies.mat.tocsr() != system.mat.tocsr()).nnz == 0


def test_sparsity_stats_small_matrix():
    mat = sp.csr_matrix(np.array([[1.0, 0.0], [2.0, 3.0]]))
    report = condition_number(mat)
    assert report.nnz == 3
    assert report.s_row == 2
    assert report.s_col == 2


def test_stored_zeros_leave_the_callers_matrix_untouched():
    # a stored zero above the diagonal: counted out of the report, kept in
    # the caller's matrix, and not mistaken for upper-triangular structure
    stored = sp.csr_matrix((np.array([2.0, 0.0, 0.5, 1.0]), np.array([0, 1, 0, 1]),
                            np.array([0, 2, 4])), shape=(2, 2))
    clean = sp.csr_matrix(np.array([[2.0, 0.0], [0.5, 1.0]]))
    assert stored.nnz == 4 and clean.nnz == 3
    report = condition_number(stored)
    assert (report.s_row, report.s_col, report.nnz) == (2, 2, 3)
    for method in ("dense_svd", "lanczos"):
        assert condition_number(stored, method=method) == condition_number(clean, method=method)
    assert stored.nnz == 4
    np.testing.assert_array_equal(stored.data, [2.0, 0.0, 0.5, 1.0])


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
    eye = sp.identity(40, format="csr")
    for method in ("dense_svd", "lanczos"):
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
        lanczos = condition_number(system, method="lanczos", rtol=1e-6)
        assert lanczos.converged
        assert lanczos.kappa == pytest.approx(dense.kappa, rel=1e-2)
        assert lanczos.iterations > 0
        assert dense.dim == system.dim


def test_condition_number_lanczos_rerun_is_identical():
    _, _, _, qcms = lifted_setup(N=4, M=6)
    system = assemble_global_dpm(qcms, lift([0.8], CarlemanBasis(N=4, d=1)).y)
    first = condition_number(system, method="lanczos", rtol=1e-6)
    assert first.iterations > 0
    assert condition_number(system, method="lanczos", rtol=1e-6) == first


def test_condition_number_lanczos_out_of_budget_reports_not_converged(monkeypatch):
    # a spread-out spectrum that one restart cycle cannot resolve to 1e-8
    mat = sp.diags(np.linspace(1.0, 100.0, 500)).tocsr()
    full = condition_number(mat, method="lanczos", rtol=1e-8)
    monkeypatch.setattr("carlift.system.LANCZOS_MAX_ITER", 25)
    short = condition_number(mat, method="lanczos", rtol=1e-8)
    assert full.converged and full.kappa == pytest.approx(100.0, rel=1e-8)
    assert not short.converged
    assert short.iterations < full.iterations
    # the fallback Rayleigh quotients bound sigma_max from below and
    # sigma_min from above, so kappa can only come out low
    assert 1.0 <= short.kappa <= 100.0 * (1 + 1e-12)


def test_condition_number_known_diagonal():
    mat = sp.diags([4.0, 2.0, 0.5]).tocsr()
    assert condition_number(mat, method="dense_svd").kappa == pytest.approx(8.0)
    assert condition_number(mat, method="lanczos", rtol=1e-8).kappa == pytest.approx(
        8.0, rel=1e-4
    )


def test_condition_number_error_paths():
    upper = sp.csr_matrix(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(StructureError):
        condition_number(upper, method="lanczos")
    with pytest.raises(StructureError):
        condition_number(sp.csr_matrix((3, 3)), method="dense_svd")
    with pytest.raises(ValueError):
        condition_number(sp.identity(2001, format="csr"), method="dense_svd")
    with pytest.raises(ValueError):
        condition_number(sp.identity(4, format="csr"), method="power")
    with pytest.raises(ValueError):
        condition_number(sp.identity(1, format="csr"), method="lanczos")


def test_condition_auto_switches_on_size():
    # ARPACK needs k = 1 < n, so only a 1 x 1 matrix falls back to dense
    for n in (10, 2500):
        report = condition_number(sp.identity(n, format="csr"))
        assert report.method == "lanczos" and report.kappa == 1.0
    assert condition_number(sp.identity(1, format="csr")).method == "dense_svd"


def test_global_assembly_refuses_oversized_system_before_allocating(monkeypatch):
    # 40 derivative-scheme steps sharing one dense 400 x 400 step matrix:
    # 6.4M entries, about 77 MB of data and indices, against a cap
    # lowered to 1 MiB; one step alone holds 1.92 MB
    monkeypatch.setattr(carleman, "MAX_STEP_BYTES", 2**20)
    D = 400
    step = Qcm(A=sp.csr_matrix(np.ones((D, D))), b=np.zeros(D))
    system = assemble_global_dpm([step] * 40, np.ones(D))
    assert system.mat.nnz == 40 * D * D + 41 * D
    step_bytes = step.A.data.nbytes + step.A.indices.nbytes
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            system.mat.tocsr()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < step_bytes // 10


def test_assembly_dimension_mismatch():
    basis, _, _, qcms = lifted_setup(M=3)
    with pytest.raises(ValueError):
        assemble_global_dpm(qcms, np.ones(basis.dim_total + 1))
