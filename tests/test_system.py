"""Global block-system assembly, sparsity, and conditioning estimates."""

import numpy as np
import pytest
import scipy.sparse as sp

from carlift.carleman import CarlemanBasis, assemble_dpm_qcm, lift, run_lifted
from carlift.errors import StructureError
from carlift.model import scalar_model
from carlift.schedule import make_lambda_grid, make_vp_schedule
from carlift.system import (
    assemble_global_dpm,
    assemble_global_unipc,
    condition_number,
    export_matrix,
    import_matrix,
    sparsity_stats,
)

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
    assert (a.mat != b.mat).nnz == 0
    assert np.allclose(a.rhs, b.rhs, atol=1e-15)


def test_global_matrix_is_block_lower_triangular():
    _, _, _, qcms = lifted_setup(scheme="unipc", order=2, corrector=True)
    basis = CarlemanBasis(N=3, d=1)
    system = assemble_global_unipc(qcms[:1], qcms[1:], lift([0.8], basis).y)
    assert sp.triu(system.mat, k=1).nnz == 0
    stats = sparsity_stats(system.mat)
    assert stats.nnz == system.mat.nnz
    assert stats.s_row >= 1 and stats.s_col >= 1


def test_sparsity_stats_small_matrix():
    mat = sp.csr_matrix(np.array([[1.0, 0.0], [2.0, 3.0]]))
    stats = sparsity_stats(mat)
    assert stats.nnz == 3
    assert stats.s_row == 2
    assert stats.s_col == 2


def test_stored_zeros_leave_the_callers_matrix_untouched():
    # a stored zero above the diagonal: counted out of the report, kept in
    # the caller's matrix, and not mistaken for upper-triangular structure
    stored = sp.csr_matrix((np.array([2.0, 0.0, 0.5, 1.0]), np.array([0, 1, 0, 1]),
                            np.array([0, 2, 4])), shape=(2, 2))
    clean = sp.csr_matrix(np.array([[2.0, 0.0], [0.5, 1.0]]))
    assert stored.nnz == 4 and clean.nnz == 3
    assert sparsity_stats(stored) == sparsity_stats(clean)
    for method in ("dense_svd", "power"):
        assert condition_number(stored, method=method) == condition_number(clean, method=method)
    assert stored.nnz == 4
    np.testing.assert_array_equal(stored.data, [2.0, 0.0, 0.5, 1.0])


def test_export_import_round_trip(tmp_path):
    _, _, _, qcms = lifted_setup(M=3)
    basis = CarlemanBasis(N=3, d=1)
    system = assemble_global_dpm(qcms, lift([0.8], basis).y)
    path = tmp_path / "mat.txt"
    export_matrix(system.mat, path)
    back = import_matrix(path)
    assert back.shape == system.mat.shape
    assert (back != system.mat).nnz == 0
    header = path.read_text().splitlines()[0].split()
    assert int(header[2]) == system.mat.nnz


def test_condition_number_identity_is_exactly_one():
    eye = sp.identity(40, format="csr")
    for method in ("dense_svd", "power"):
        report = condition_number(eye, method=method)
        assert report.kappa == 1.0
        assert report.converged


def test_condition_number_power_matches_dense():
    # the power path must track dense SVD on real assembled systems
    for N, M in ((2, 4), (3, 6), (4, 5)):
        _, _, _, qcms = lifted_setup(N=N, M=M)
        basis = CarlemanBasis(N=N, d=1)
        system = assemble_global_dpm(qcms, lift([0.8], basis).y)
        dense = condition_number(system, method="dense_svd")
        power = condition_number(system, method="power", rtol=1e-6)
        assert power.converged
        assert power.kappa == pytest.approx(dense.kappa, rel=1e-2)
        assert power.iterations > 0
        assert dense.dim == system.dim


def test_condition_number_known_diagonal():
    mat = sp.diags([4.0, 2.0, 0.5]).tocsr()
    assert condition_number(mat, method="dense_svd").kappa == pytest.approx(8.0)
    assert condition_number(mat, method="power", rtol=1e-8).kappa == pytest.approx(
        8.0, rel=1e-4
    )


def test_condition_number_error_paths():
    upper = sp.csr_matrix(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(StructureError):
        condition_number(upper, method="power")
    with pytest.raises(StructureError):
        condition_number(sp.csr_matrix((3, 3)), method="dense_svd")
    with pytest.raises(ValueError):
        condition_number(sp.identity(2001, format="csr"), method="dense_svd")
    with pytest.raises(ValueError):
        condition_number(sp.identity(4, format="csr"), method="lanczos")


def test_condition_auto_switches_on_size():
    small = condition_number(sp.identity(10, format="csr"))
    assert small.method == "dense_svd"
    big = condition_number(sp.identity(2500, format="csr"))
    assert big.method == "power"


def test_assembly_dimension_mismatch():
    basis, _, _, qcms = lifted_setup(M=3)
    with pytest.raises(ValueError):
        assemble_global_dpm(qcms, np.ones(basis.dim_total + 1))
