"""Property tests of the vectorised lift -> assemble -> solve path against
the straightforward formulations kept as oracles: the explicit
sparse-Kronecker total derivative, the per-n rebuild of the total
derivative and the Kronecker tower (each folded onto monomials), the
one-step lift, sp.bmat global assembly, the global CSR matrix the
trajectory operator builds, and the sequential lifted walk."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carlift import carleman, model
from carlift.carleman import (
    CarlemanBasis,
    UnipcQcmSet,
    _poly_to_update,
    assemble_unipc_qcms,
    lift_run,
    run_lifted,
)
from carlift.errors import CapacityError, StructureError
from carlift.model import (
    _center_tables,
    _deriv_once_kron,
    _derivative_tower,
    _eps_tables,
    _monomials,
    _velocity_kron,
    kron_model,
    scalar_model,
    separable_model,
    total_derivative_poly,
)
from carlift.presets import model_preset
from carlift.reference import run_dpm, run_unipc, step_polynomials_dpm
from carlift.schedule import make_lambda_grid, make_vp_schedule
from carlift.solve import forward_substitute
from carlift.system import (
    StepMatrix,
    TrajectoryOperator,
    assemble_global_dpm,
    assemble_global_unipc,
    condition_number,
)

from oracles import (
    block_row_csr,
    collapse,
    eigsh_top,
    fold_blocks,
    kron_tower,
    lifted_walk,
    one_step_poly_to_update,
    one_step_polynomial_dpm,
    separable_tower,
    step_dicts,
    to_dense,
    total_derivative_per_n,
    tower_levels_per_pair,
    velocity_kron,
)

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


def bmat_system(block_rows, n_blocks):
    grid = [[None] * n_blocks for _ in range(n_blocks)]
    for i, row in enumerate(block_rows):
        for c, blk in row:
            grid[i][c] = blk
    mat = sp.bmat(grid, format="csr", dtype=float)
    mat.eliminate_zeros()
    return mat


def as_csr(blk):
    """A StepMatrix as a CSR matrix."""
    return sp.csr_matrix(to_dense(blk))


def bmat_dpm(qcms, D):
    eye = sp.identity(D, format="csr")
    rows = [[(0, eye)]] + [[(i - 1, -as_csr(q.A)), (i, eye)] for i, q in enumerate(qcms, start=1)]
    return bmat_system(rows, len(qcms) + 1)


def bmat_unipc(warmup, steps, D, which):
    eye = sp.identity(D, format="csr")
    rows = [[(0, eye)]] + [[(i - 1, -as_csr(q.A)), (i, eye)] for i, q in enumerate(warmup, start=1)]
    for qs in steps:
        mats = qs.pred_mats if which == "predictor" else qs.corr_mats
        anchor = qs.i - len(qs.pred_mats)
        rows.append([(anchor + mm, -as_csr(mat)) for mm, mat in enumerate(mats)] + [(qs.i, eye)])
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
    """The sequential lifted walk (:func:`oracles.lifted_walk`) and the
    global system of a random kron trajectory."""
    corrector = scheme == "unipc" and which == "corrector"
    states, qcms = lifted(seed, d, N, M, scheme, order, corrector)
    walk = lifted_walk(qcms, states[0].y, corrector)
    if scheme == "dpm":
        return walk, assemble_global_dpm(qcms, states[0].y)
    warm = [q for q in qcms if not isinstance(q, UnipcQcmSet)]
    steps = [q for q in qcms if isinstance(q, UnipcQcmSet)]
    return walk, assemble_global_unipc(warm, steps, states[0].y, which=which)


def corrector_before_the_fold(seed, d, N, M, p):
    """Each unified step's corrector matrices and offset of :func:`lifted`,
    as lifted before the predictor is folded in: the anchor map and
    offset by oracles.one_step_poly_to_update on the corrector's step
    polynomial, the interior-node blocks as carleman._block1 made them,
    copied before the fold writes into them."""
    made = {"slots": []}
    lift_steps, block1 = carleman._poly_to_update, carleman._block1

    def record_polys(polys, basis):
        made["polys"] = polys  # the unified steps' maps are lifted last
        return lift_steps(polys, basis)

    def record_block1(E, nodes, cs, basis):
        blocks = block1(E, nodes, cs, basis)
        made["slots"].append([blk.rows.copy() for blk in blocks])
        return blocks

    with mock.patch.object(carleman, "_poly_to_update", record_polys), \
            mock.patch.object(carleman, "_block1", record_block1):
        lifted(seed, d, N, M, "unipc", p, True)
    basis = CarlemanBasis(N=N, d=d)
    polys = step_dicts(made["polys"])
    K = len(polys) // 2  # K predictor maps, then K corrector maps
    out = []
    for n in range(K):
        U, b = one_step_poly_to_update(polys[K + n], basis)
        out.append(([U] + [StepMatrix(slot[K + n]) for slot in made["slots"][: p - 1]], b))
    return out


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
    # a kron rebuild runs on Kronecker blocks and is folded after, a
    # separable one on batch polynomials; each sums a coefficient's terms
    # in another order than the monomial-block passes
    m = random_poly_model(np.random.default_rng(seed), kron, d, J)
    tower = [total_derivative_poly(S, m, n, lam_center) for n in range(4)]
    assert tower[0] is m
    for n, dn in enumerate(tower):
        want = total_derivative_per_n(m, n, lam_center)
        got, want = (dn.blocks, fold_blocks(want, d)) if kron else ([dn.coeffs], [want])
        assert len(got) == len(want) and all(g.shape == w.shape for g, w in zip(got, want))
        scale = max(np.abs(w).max() for w in want)
        assert all(np.abs(g - w).max() <= 1e-14 * scale for g, w in zip(got, want))


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 4),
    J=st.integers(0, 3),
    k=st.integers(1, 3),
    C=st.integers(1, 6),
    chunk_bytes=st.sampled_from([1, 2**12, model.TOWER_CHUNK_BYTES]),
)
def test_folded_tower_matches_the_folded_kron_tower(seed, d, J, k, C, chunk_bytes):
    # lam-dependent blocks at every degree; each table entry is a sum whose
    # terms the two towers add in other orders, so it is measured against
    # the size of those terms: the same sum over |coefficients| at |lam|
    rng = np.random.default_rng(seed)
    J = min(J, 2) if d == 4 else J
    m = kron_model(d, {j: rng.standard_normal((int(rng.integers(2, 4)), d, d**j)) / d**j
                       for j in range(J + 1)})
    lams = rng.uniform(-4.0, 5.0, C)
    with mock.patch.object(model, "TOWER_CHUNK_BYTES", chunk_bytes):
        tower = _derivative_tower(S, m, k, lams)
    for level, want in zip(tower, kron_tower(S, m, k, lams), strict=True):
        assert len(level) >= len(want) and not any(t.any() for t in level[len(want) :])
        scale = max(collapse(np.abs(B), np.abs(lams)).max() for B in want)
        for table, B in zip(level, want):
            assert np.abs(table - collapse(B, lams)).max() <= 1e-14 * scale


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 8),
    J=st.integers(0, 3),
    L=st.integers(0, 2),
    k=st.integers(1, 3),
    C=st.integers(1, 6),
    chunk_bytes=st.sampled_from([1, 2**12, model.TOWER_CHUNK_BYTES]),
)
def test_separable_tower_matches_the_batch_polynomial_tower(seed, d, J, L, k, C, chunk_bytes):
    # each coordinate runs as a one-variable model through the monomial-block
    # passes, which add a table entry's terms in other orders than the batch
    # algebra; measured as the kron tower is, against the same sum over
    # |coefficients| at |lam|
    rng = np.random.default_rng(seed)
    m = separable_model(rng.standard_normal((d, J + 1, L + 1)))
    lams = rng.uniform(-4.0, 5.0, C)
    with mock.patch.object(model, "TOWER_CHUNK_BYTES", chunk_bytes):
        tower = _derivative_tower(S, m, k, lams)
    for level, B in zip(tower, separable_tower(S, m, k, lams), strict=True):
        assert all(t.shape == (C, d, 1) for t in level)
        got, want = np.concatenate(level, axis=2), collapse(B, lams)
        assert got.shape[2] >= want.shape[2] and not got[..., want.shape[2] :].any()
        scale = collapse(np.abs(B), np.abs(lams)).max()
        assert np.abs(got[..., : want.shape[2]] - want).max() <= 1e-14 * scale


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    kron=st.booleans(),
    d=st.integers(1, 3),
    J=st.integers(0, 2),
    k=st.integers(1, 4),
    C=st.integers(1, 6),
    one_point_chunks=st.booleans(),
)
def test_derivative_tower_matches_one_point_derivatives(seed, kron, d, J, k, C, one_point_chunks):
    rng = np.random.default_rng(seed)
    m = random_poly_model(rng, kron, d, J)
    lams = rng.uniform(-4.0, 5.0, C)
    with mock.patch.object(model, "TOWER_CHUNK_BYTES", 1 if one_point_chunks else model.TOWER_CHUNK_BYTES):
        tower = _derivative_tower(S, m, k, lams)
    assert len(tower) == k
    for n, level in enumerate(tower):
        for c, lam in enumerate(lams):
            # row c of the level; a degree that only other chunks have is zero here.
            # Level 0 is the model's own tables; a derivative's blocks are
            # collapsed as the tower collapses them
            dn = total_derivative_poly(S, m, n, lam)
            want = _eps_tables(dn, np.array([lam])) if n == 0 else _center_tables(dn.blocks, np.array([lam]))
            got = [cj[c : c + 1] for cj in level]
            assert len(got) >= len(want) and not any(g.any() for g in got[len(want) :])
            assert all(g.shape == w.shape and np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_an_all_zero_degree_changes_no_derivative_and_no_lift(k):
    # the tower skips the all-zero block and drops the degree it would
    # fill, so only level 0 carries its table, and the lift adds nothing
    rng = np.random.default_rng(34)
    terms = {0: 0.05 * rng.standard_normal((2, 2, 1)),
             1: np.diag([0.4, 0.6]) + 0.02 * rng.standard_normal((2, 2, 2))}
    plain, padded = kron_model(2, terms), kron_model(2, {**terms, 2: np.zeros((2, 4))})
    grid = make_lambda_grid(S, 0.5, 0.1, 16)
    tower, tower_padded = (_derivative_tower(S, m, k, grid.lam[:-1]) for m in (plain, padded))
    *level0, zero = tower_padded[0]
    assert len(level0) == len(tower[0]) and not zero.any()
    for got, want in zip([level0, *tower_padded[1:]], tower, strict=True):
        assert len(got) == len(want)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    basis = CarlemanBasis(N=3, d=2)
    systems = [lift_run(S, m, [0.6, -0.3], grid, basis, "dpm", k)[0] for m in (plain, padded)]
    assert np.array_equal(*(system.mat.solve(system.rhs) for system in systems))


@st.composite
def signed_zero_models(draw):
    """A kron (d <= 4) or separable (d <= 8) model of x-degree <= 3 and
    lam-degree <= 2, a kron block's lam degree drawn per x-degree, with
    +0.0 and -0.0 coefficients and whole degrees of either zero."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kron, J = draw(st.booleans()), draw(st.integers(0, 3))
    d = draw(st.integers(1, 4)) if kron else draw(st.integers(1, 8))
    zero_degrees = draw(st.sets(st.integers(0, J), max_size=J))
    zero_frac = draw(st.sampled_from([0.0, 0.3, 1.0]))

    def coefficients(shape):
        c = rng.standard_normal(shape)
        zero = rng.uniform(size=shape) < zero_frac
        c[zero] = np.where(rng.uniform(size=shape) < 0.5, 0.0, -0.0)[zero]
        return c

    if kron:
        J = min(J, 2) if d == 4 else J
        blocks = {j: coefficients((int(rng.integers(1, 4)), d, d**j)) / d**j for j in range(J + 1)}
        for j in zero_degrees & set(blocks):
            blocks[j] = np.copysign(np.zeros_like(blocks[j]), rng.uniform(-1.0, 1.0, blocks[j].shape))
        return kron_model(d, blocks)
    c = coefficients((d, J + 1, int(rng.integers(1, 4))))
    for j in zero_degrees:
        c[:, j] = np.copysign(0.0, rng.uniform(-1.0, 1.0, c[:, j].shape))
    return separable_model(c)


@settings(max_examples=80, deadline=None)
@example(m=model_preset("cubic"), k=3, C=3, chunk_bytes=model.TOWER_CHUNK_BYTES, seed=0)
@given(
    m=signed_zero_models(),
    k=st.integers(1, 3),
    C=st.integers(1, 6),
    chunk_bytes=st.sampled_from([1, 4096, model.TOWER_CHUNK_BYTES]),
    seed=st.integers(0, 2**32 - 1),
)
def test_derivative_passes_keep_the_bits_of_the_per_pair_pass(m, k, C, chunk_bytes, seed):
    # one einsum and one bincount per input degree, folded degree by degree,
    # against one einsum and one bincount per (degree, velocity degree)
    # pair added with a padded sum: every level's blocks (their lam lengths
    # too) and every collapsed table, sign bits included, also where the
    # budget splits the points into chunks and the velocity into groups
    lams = np.random.default_rng(seed).uniform(-4.0, 5.0, C)
    with mock.patch.object(model, "TOWER_CHUNK_BYTES", chunk_bytes):
        levels = list(model._tower_levels(S, m, k, lams))
        tower = _derivative_tower(S, m, k, lams)
        with mock.patch.object(model, "_tower_levels", tower_levels_per_pair):
            want_tower = _derivative_tower(S, m, k, lams)
    for got, want in [*zip(levels, tower_levels_per_pair(S, m, k, lams), strict=True),
                      *zip(tower, want_tower, strict=True)]:
        assert len(got) == len(want)
        assert all(same_bits(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("m", [separable_model([[[0.0], [-0.5], [5e-324], [0.1]], [[0.0], [-0.3], [0.0], [0.2]]]),
                               kron_model(1, {1: [[-0.5]], 2: [[5e-324]], 3: [[0.1]]})])
def test_a_velocity_degree_that_underflows_between_two_others_keeps_the_bits(m):
    # sigma eps's degree 2 rounds to zero where sigma is small, so the
    # velocity has no span there, and its columns lie between degrees 1
    # and 3 in one pass: their products land in no degree
    lams = np.array([6.0, 7.0])
    s1, s2 = model._sigma_lambda_polys(S, lams)
    v = _velocity_kron([cj.reshape(len(cj), -1, 1, cj.shape[-1]).swapaxes(0, 1)[None] for cj in m.blocks],
                       s1[:, None], s2[:, None], 1)
    assert [q for q, *_ in v.spans] == [1, 3]
    for got, want in zip(model._tower_levels(S, m, 3, lams), tower_levels_per_pair(S, m, 3, lams), strict=True):
        assert len(got) == len(want)
        assert all(same_bits(g, w) for g, w in zip(got, want))


def test_a_derivative_pass_calls_einsum_and_bincount_once_per_input_degree(monkeypatch):
    # the pass's shape, not its time: on cubic's blocks, velocities of one,
    # two and three degrees cost the same einsum and bincount calls, one of
    # each per nonzero input degree; a kron model's pass likewise
    calls = {"einsum": 0, "bincount": 0}

    def counted(name):
        wrapped = getattr(np, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return wrapped(*args, **kwargs)

        return call

    cubic = model_preset("cubic")
    A1, A2 = [[-0.5, 0.1], [0.05, -0.4]], [[0.02, -0.01, 0.0, 0.03], [0.0, 0.01, 0.02, -0.02]]
    cases = [(cubic, [scalar_model({(1, 0): 0.2}), model_preset("weak_quadratic"), cubic]),
             (kron_model(2, {1: A1, 2: A2}), [kron_model(2, {1: A1}), kron_model(2, {1: A1, 2: A2})])]
    s1, s2 = model._sigma_lambda_polys(S, np.array([0.4]))
    for m, velocities in cases:
        blocks = [cj[None, None] for cj in m.blocks]
        live = sum(cj.any() for cj in m.blocks[1:])
        for source in velocities:
            v = _velocity_kron([cj[None, None] for cj in source.blocks], s1[:, None], s2[:, None], m.d)
            assert len(v.spans) == source.x_degree
            with monkeypatch.context() as mp:
                for name in calls:
                    mp.setattr(np, name, counted(name))
                    calls[name] = 0
                _deriv_once_kron(blocks, v, _monomials(m.d, m.x_degree + v.top - 1))
            assert calls == {"einsum": live, "bincount": live}, (m.mode, source.x_degree)


def test_derivative_tower_keeps_to_its_memory_budget():
    # over 128 step starts, a chunk of two or more points holds, besides
    # the tables it returns, no more than TOWER_CHUNK_BYTES; a smaller
    # budget only splits the points into more chunks, so the tables keep
    # their bits
    rng = np.random.default_rng(5)
    lams = np.linspace(-5.0, 2.0, 128)
    models = [  # (model, k): tens of points per chunk at d=3, a few at d=4
        (kron_model(3, {j: rng.normal(scale=0.4, size=(2, 3, 3**j)) for j in range(3)}), 3),
        (kron_model(4, {j: rng.normal(scale=0.4, size=(1, 4, 4**j)) for j in range(4)}), 3),
        (separable_model(rng.normal(size=(8, 4, 3))), 3),
        (model_preset("cubic"), 3),
    ]
    for m, k in models:
        _derivative_tower(S, m, k, lams[:2])  # the monomial tables are cached once
        tracemalloc.start()
        try:
            tower = _derivative_tower(S, m, k, lams)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model._tower_chunk(m, k) >= 2
        tables = sum(t.nbytes for level in tower for t in level)
        assert peak - tables <= model.TOWER_CHUNK_BYTES, (m.mode, m.d, peak, tables)
        for budget in (1, 1 << 12, 1 << 16):
            with mock.patch.object(model, "TOWER_CHUNK_BYTES", budget):
                chunked = _derivative_tower(S, m, k, lams)
            for level, want in zip(chunked, tower, strict=True):
                for got, table in zip(level, want, strict=True):
                    assert got.shape == table.shape and np.array_equal(got, table)


def test_derivative_pass_past_the_cap_is_refused_before_it_is_built(monkeypatch):
    # a d=2 degree-2 kron model's order-3 pass is priced at 28 480 bytes a
    # point by _tower_chunk: a cap one byte lower refuses it in the
    # sampler's tower and in total_derivative_poly before sigma is expanded
    # or a pass runs, and eps alone (k = 1) takes no pass; a cap of the
    # price builds the same tables as the default cap
    m = kron_model(2, {1: [[-0.5, 0.1], [0.05, -0.4]],
                       2: [[0.02, -0.01, 0.0, 0.03], [0.0, 0.01, 0.02, -0.02]]})
    grid = make_lambda_grid(S, 0.5, 0.1, 4)
    tower = _derivative_tower(S, m, 3, grid.lam)

    def refuse(*args):
        raise AssertionError("the derivative pass was built before it was priced")

    with monkeypatch.context() as mp:
        mp.setattr(model, "MAX_TOWER_BYTES", 28480 - 1)
        mp.setattr(model, "_sigma_lambda_polys", refuse)
        mp.setattr(model, "_deriv_once_kron", refuse)
        for build in (lambda: _derivative_tower(S, m, 3, grid.lam),
                      lambda: total_derivative_poly(S, m, 2, 0.3),
                      lambda: run_dpm(S, m, [0.6, -0.3], grid, k=3)):
            with pytest.raises(CapacityError, match="pass needs 28480 bytes, above 28479"):
                build()
        _derivative_tower(S, m, 1, grid.lam)
    monkeypatch.setattr(model, "MAX_TOWER_BYTES", 28480)
    for level, want in zip(_derivative_tower(S, m, 3, grid.lam), tower, strict=True):
        assert all(np.array_equal(got, table) for got, table in zip(level, want, strict=True))
    total_derivative_poly(S, m, 2, 0.3)


def test_drift_spectra_keep_to_the_tower_memory_budget():
    # a lam-dependent d=8, degree-4 kron model over 129 nodes: besides the
    # eps table over the nodes, the derivative gathers take no more than
    # TOWER_CHUNK_BYTES; a smaller budget only splits the nodes into more
    # chunks, so every node keeps its bits
    rng = np.random.default_rng(8)
    m = kron_model(8, {j: rng.normal(scale=0.1, size=(2, 8, 8**j)) for j in range(5)})
    times = make_lambda_grid(S, 0.8, 0.1, 128).t
    states = rng.uniform(-1.0, 1.0, (129, 8))
    table = sum(t.nbytes for t in _eps_tables(m, S.lam(times)))
    model._drift_spectra(S, m, states[:2], times[:2])  # the monomial tables are cached once
    tracemalloc.start()
    try:
        eigs = model._drift_spectra(S, m, states, times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - table <= model.TOWER_CHUNK_BYTES, (peak, table)
    for budget in (1, 1 << 16, 1 << 20):
        with mock.patch.object(model, "TOWER_CHUNK_BYTES", budget):
            assert np.array_equal(model._drift_spectra(S, m, states, times), eigs)


def test_samplers_and_lift_expand_sigma_once_per_chunk(monkeypatch):
    calls = []
    expand = model._sigma_lambda_polys

    def counted(s, lams):
        calls.append(np.array(lams))
        return expand(s, lams)

    monkeypatch.setattr(model, "_sigma_lambda_polys", counted)
    m = separable_model([[[0.2, 0.1], [-0.6, 0.0], [0.25, 0.05]]])
    grid = make_lambda_grid(S, 0.5, 0.1, 12)
    basis = CarlemanBasis(N=2, d=1)
    runs = {  # each with the step starts its derivative tower is built for
        "run_dpm": (lambda: run_dpm(S, m, [1.5], grid, k=3).state_matrix(), grid.lam[:-1]),
        "run_unipc": (lambda: run_unipc(S, m, [1.5], grid, p=3, corrector=True).state_matrix(),
                      grid.lam[:2]),
        "run_lifted dpm": (lambda: np.stack([st.y for st in run_lifted(
            S, m, [1.5], grid, basis, scheme="dpm", order=3)[0]]), grid.lam[:-1]),
        "run_lifted unipc": (lambda: np.stack([st.y for st in run_lifted(
            S, m, [1.5], grid, basis, scheme="unipc", order=3, corrector=True)[0]]), grid.lam[:2]),
    }
    for name, (run, starts) in runs.items():
        calls.clear()
        whole = run()
        assert len(calls) == 1 and np.array_equal(calls[0], starts), name
        calls.clear()
        with mock.patch.object(model, "_tower_chunk", lambda m, k: 5):
            chunked = run()
        assert len(calls) == -(-len(starts) // 5), name
        assert all(np.array_equal(got, starts[lo : lo + 5]) for got, lo in zip(calls, range(0, 12, 5)))
        assert np.array_equal(chunked, whole), name
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
    # the monomial derivative of folded blocks against the fold of the
    # sparse-Kronecker derivative
    rng = np.random.default_rng(seed)
    blocks = [rng.standard_normal((L, d, d**j)) for j in range(J + 1)]
    s1, s2 = rng.standard_normal(Lv), rng.standard_normal(Lv)
    v = velocity_kron(blocks, s1, s2, d)
    top = J - 1 + max(v) if J else 0
    folded = fold_blocks(blocks, d)
    got = _deriv_once_kron(folded, _velocity_kron(folded, s1, s2, d), _monomials(d, top))
    want = fold_blocks(deriv_once_kron_oracle(blocks, v, d), d)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12 * max(1.0, np.abs(w).max()))


def same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 4),
    N=st.integers(1, 5),
    M=st.integers(1, 6),
    k=st.integers(1, 3),
    chunk_bytes=st.integers(1, 2**16),
    zeros=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 4)), max_size=4),
)
def test_batched_lift_equals_per_step_lifts(seed, d, N, M, k, chunk_bytes, zeros):
    # the oracle lifts each step alone, as the lift did before it stacked the
    # steps; the steps of a lam-dependent kron model with a constant term list
    # their degrees 1, 0, 2, ...; each (step, key) in ``zeros`` zeroes one of
    # the run's degrees at one step, which then lifts as if it lacked it
    m, _ = random_kron(seed, d)
    polys = step_polynomials_dpm(S, m, make_lambda_grid(S, 0.5, 0.1, M).lam, k)
    assert list(polys)[:3] == [1, 0, 2]
    for at, key in zeros:
        polys[list(polys)[key % len(polys)]][at % M] = 0.0
    basis = CarlemanBasis(N=N, d=d)
    with mock.patch.object(carleman, "LIFT_CHUNK_BYTES", chunk_bytes):
        batched = _poly_to_update(polys, basis)
    assert len(batched) == M
    for P, (U, b) in zip(step_dicts(polys), batched):
        U_1, b_1 = one_step_poly_to_update(P, basis)
        assert same_bits(U.rows, U_1.rows) and same_bits(b, b_1)
        assert U.nnz == U_1.nnz


def step_maps(m, grid, scheme, order, basis):
    """The stacked step maps a run hands to the lift: the dpm chain, or the
    UniPC anchor maps (K predictor, then K corrector), recorded as
    assemble_unipc_qcms passes them on."""
    if scheme == "dpm":
        return step_polynomials_dpm(S, m, grid.lam, order)
    made, lift_steps = [], carleman._poly_to_update

    def record(polys, b):
        made.append(polys)
        return lift_steps(polys, b)

    with mock.patch.object(carleman, "_poly_to_update", record):
        assemble_unipc_qcms(S, m, grid, order, basis, corrector=True)
    return made[0]


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 3),
    N=st.integers(1, 6),
    M=st.integers(1, 5),
    source=st.sampled_from(["dpm", "unipc", "maps"]),
    order=st.integers(1, 3),
    degrees=st.sets(st.integers(0, 3), min_size=1),
    lam_degree=st.integers(0, 2),
    zeros=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 5)), max_size=3),
    chunk_bytes=st.sampled_from([1, 1 << 12, carleman.LIFT_CHUNK_BYTES]),
)
def test_lift_over_the_reachable_degrees_keeps_the_bits_of_every_column(
        seed, d, N, M, source, order, degrees, lam_degree, zeros, chunk_bytes):
    # block row j-1 is multiplied only on its degrees (j-1) q_min ..
    # (j-1) q_max; the oracle multiplies every column.  The steps come from
    # lam-dependent kron models on ``degrees`` (a model without a constant
    # term has q_min = 1, so the window's low end rises with j) through
    # dpm or the UniPC anchor maps, or are random maps on ``degrees``
    # alone (q_min up to 3, as for maps of degrees {2, 3}); N falls below
    # and above their top degree, and ``zeros`` zeroes a degree at a step
    rng = np.random.default_rng(seed)
    basis = CarlemanBasis(N=N, d=d)
    if source == "maps":
        order_of = rng.permutation(sorted(degrees)).tolist()  # any degree order
        polys = {q: rng.standard_normal((M, d, math.comb(d + q - 1, q))) for q in order_of}
    else:
        m = kron_model(d, {q: (0.3 if q == 1 else 0.05) * rng.standard_normal((lam_degree + 1, d, d**q))
                           for q in degrees})
        polys = step_maps(m, make_lambda_grid(S, 0.5, 0.1, M + order), source, order, basis)
    n_steps = len(next(iter(polys.values())))
    for at, key in zeros:
        polys[list(polys)[key % len(polys)]][at % n_steps] = 0.0
    with mock.patch.object(carleman, "LIFT_CHUNK_BYTES", chunk_bytes):
        lifted = _poly_to_update(polys, basis)
    assert len(lifted) == n_steps
    for P, (U, b) in zip(step_dicts(polys), lifted):
        U_1, b_1 = one_step_poly_to_update(P, basis)
        assert same_bits(U.rows, U_1.rows) and same_bits(b, b_1)


def vanishing_kron(grid):
    """A d=2 model whose degree-2 block (lam - lam_3) A2 is zero at grid
    node 3: A2's entries are signed powers of two, so lam_3 A2 is exact and
    the block collapses there to exactly zero.  The degree-3 block makes
    the derivative of order 1 bring degree 2 back after degree 3."""
    rng = np.random.default_rng(5)
    A2 = rng.choice([-1.0, 1.0], (2, 4)) * 2.0 ** rng.integers(-6, -3, (2, 4))
    return kron_model(2, {1: -0.5 * np.eye(2) + 0.05 * rng.standard_normal((2, 2)),
                          2: np.stack([-grid.lam[3] * A2, A2]),
                          3: 0.01 * rng.standard_normal((2, 8))})


@pytest.mark.parametrize("k", [1, 2])
def test_a_step_without_a_degree_lifts_like_its_own_polynomial(k):
    # the stacked lift adds a run's degrees in one order; step 3 lacks degree
    # 2 at order 1, and at order 2 it lists degree 3 before 2
    grid = make_lambda_grid(S, 0.5, 0.1, 7)
    m = vanishing_kron(grid)
    basis = CarlemanBasis(N=4, d=2)
    polys = step_polynomials_dpm(S, m, grid.lam, k)
    reordered = []
    for i, (U, b) in enumerate(_poly_to_update(polys, basis)):
        P = one_step_polynomial_dpm(S, m, grid.lam, k, i)
        U_1, b_1 = one_step_poly_to_update(P, basis)
        if list(P) == [q for q in polys if q in P]:
            assert same_bits(U.rows, U_1.rows) and same_bits(b, b_1), i
            continue
        reordered.append(i)
        assert np.abs(U.rows - U_1.rows).max() <= 1e-15 * np.abs(U_1.rows).max()
        assert np.abs(b - b_1).max() <= 1e-15 * np.abs(b_1).max()
    assert reordered == ([3] if k == 2 else [])
    assert list(one_step_polynomial_dpm(S, m, grid.lam, k, 3))[:3] == [1, 3] + [2] * (k == 2)


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
    assert_same_csr(system.mat.tocsr(), bmat_dpm(qcms, len(states[0].y)))


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
    assert_same_csr(system.mat.tocsr(), bmat_unipc(warm, steps, len(states[0].y), which))


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
        seq, system = assembled(seed, d, N, M, "dpm", int(scheme[-1]))
    else:
        seq, system = assembled(seed, d, N, M, "unipc", 2, scheme.split("_")[1])
    result = forward_substitute(system)
    scale = max(1.0, float(np.abs(seq).max()))
    assert np.max(np.abs(result.solution - seq)) <= 1e-12 * scale
    assert result.residual <= 1e-12


LIFT_SCHEMES = [("dpm", k, None) for k in (1, 2, 3)] + [
    ("unipc", p, which) for p in (1, 2, 3) for which in ("predictor", "corrector")
]


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 3),
    N=st.integers(1, 3),
    M=st.integers(3, 8),
    scheme=st.sampled_from(LIFT_SCHEMES),
)
def test_lanczos_condition_matches_dense_svd(seed, d, N, M, scheme):
    # sigma_max^2 and 1/sigma_min^2 are the top eigenvalues of M^T M and
    # M^{-1} M^{-T}; with SciPy's eigsh in place of the package's Lanczos,
    # condition_number applies the same operators to the same start vectors
    name, order, which = scheme
    _, system = assembled(seed, d, N, M, name, order, which or "corrector")
    rtol = 1e-8
    dense = condition_number(system, method="dense_svd")
    lanczos = condition_number(system, method="auto", rtol=rtol)
    with mock.patch("carlift.system._lanczos_top", eigsh_top):
        ref = condition_number(system, method="auto", rtol=rtol)
    assert lanczos.converged and ref.converged
    assert lanczos.sigma_max**2 == pytest.approx(ref.sigma_max**2, rel=rtol)
    assert lanczos.sigma_min**-2 == pytest.approx(ref.sigma_min**-2, rel=rtol)
    assert abs(lanczos.kappa - dense.kappa) <= rtol * dense.kappa
    assert condition_number(system, method="auto", rtol=rtol) == lanczos


OPERATOR_SCHEMES = [("dpm", 1, None), ("dpm", 2, None)] + [
    ("unipc", p, which) for p in (1, 2, 3) for which in ("predictor", "corrector")
]


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 3),
    N=st.integers(1, 3),
    M=st.integers(3, 8),
    scheme=st.sampled_from(OPERATOR_SCHEMES),
)
def test_operator_block_walks_match_its_csr(seed, d, N, M, scheme):
    name, order, which = scheme
    _, system = assembled(seed, d, N, M, name, order, which or "corrector")
    mat = system.mat
    csr = mat.tocsr()
    assert mat.nnz == csr.nnz
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(system.dim)
    # rounding in a product is bounded by |M| |x|, entry by entry
    assert np.max(np.abs(mat @ x - csr @ x)) <= 1e-13 * np.max(abs(csr) @ abs(x))


@pytest.mark.parametrize("scheme", [("dpm", 1, None), ("unipc", 3, "corrector")])
def test_csr_build_holds_the_priced_arrays_and_one_block_row(scheme):
    # tocsr prices 12 bytes per nonzero and 8 per row pointer before it
    # allocates them; beyond those it holds the (D, width) buffers of the
    # widest block row's values (8 bytes an entry), columns (4) and nonzero
    # mask (1), one block row's gathered values (8) or columns (4) at a
    # time, and a few KiB of Python and SciPy objects
    name, order, which = scheme
    _, system = assembled(5, 3, 3, 32, name, order, which or "corrector")
    mat = system.mat
    priced = 12 * mat.nnz + 8 * (mat.shape[0] + 1)
    width = max(len(row) for row in mat.rows) * mat.block_dim + 1
    mat.tocsr()  # any first-call caches of NumPy and SciPy are made here
    tracemalloc.start()
    try:
        mat.tocsr()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= priced + 21 * mat.block_dim * width + 8192


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 3),
    N=st.integers(1, 3),
    M=st.integers(1, 8),
    scheme=st.sampled_from(LIFT_SCHEMES),
)
def test_csr_build_writes_the_arrays_of_per_block_row_arrays(seed, d, N, M, scheme):
    # the reused buffers write the bits a fresh array per block row does,
    # the sign of every stored value included
    name, order, which = scheme
    _, system = assembled(seed, d, N, M, name, order, which or "corrector")
    got, want = system.mat.tocsr(), block_row_csr(system.mat)
    for attr in ("data", "indices", "indptr"):
        assert getattr(got, attr).dtype == getattr(want, attr).dtype
        assert np.array_equal(getattr(got, attr), getattr(want, attr))
    assert np.array_equal(np.signbit(got.data), np.signbit(want.data))


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 3),
    N=st.integers(1, 3),
    M=st.integers(2, 8),
    scheme=st.sampled_from([("dpm", 1), ("dpm", 2), ("dpm", 3), ("unipc", 2), ("unipc", 3)]),
)
def test_forward_substitute_is_the_lifted_walk(seed, d, N, M, scheme):
    # derivative-scheme and predictor rows are solved with the very sums
    # oracles.step_lifted evaluates, so the solution is the walk bit for bit
    walk, system = assembled(seed, d, N, M, *scheme, which="predictor")
    result = forward_substitute(system)
    assert np.array_equal(result.solution, walk)


def blockwise_csr(mat):
    """The global matrix as sp.bmat builds it from the CSR form of each
    block the operator holds, plus the identity blocks."""
    eye = sp.identity(mat.block_dim, format="csr")
    rows = []
    for i, row in enumerate(mat.rows):
        blocks = [(c, -as_csr(blk)) for c, blk in row]
        rows.append(blocks + [(i, eye)])
    return bmat_system(rows, mat.n_blocks)


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 4),
    N=st.integers(1, 4),
    M=st.integers(1, 4),
    scheme=st.sampled_from(LIFT_SCHEMES),
)
def test_dense_blocks_match_the_sparse_construction(seed, d, N, M, scheme):
    name, order, which = scheme
    states, qcms = lifted(seed, d, N, M, name, order, which == "corrector")
    warm = [q for q in qcms if not isinstance(q, UnipcQcmSet)]
    steps = [q for q in qcms if isinstance(q, UnipcQcmSet)]
    if name == "dpm":
        system = assemble_global_dpm(qcms, states[0].y)
    else:
        system = assemble_global_unipc(warm, steps, states[0].y, which=which)
    mat = system.mat
    csr = mat.tocsr()
    assert_same_csr(csr, blockwise_csr(mat))
    x = np.random.default_rng(seed).standard_normal(system.dim)
    assert np.max(np.abs(mat @ x - csr @ x)) <= 1e-13 * np.max(abs(csr) @ abs(x))
    if which != "corrector":
        return
    for qs, (corr_mats, corr_b) in zip(steps, corrector_before_the_fold(seed, d, N, M, order),
                                       strict=True):
        target = as_csr(qs.corr_target)
        for (_, folded), corr, pred in zip(mat.rows[qs.i], corr_mats, qs.pred_mats, strict=True):
            want = (as_csr(corr) + target @ as_csr(pred)).toarray()
            scale = (abs(as_csr(corr)) + abs(target) @ abs(as_csr(pred))).toarray()
            assert np.all(np.abs(to_dense(folded) - want) <= 1e-13 * scale)
        want = corr_b + target @ qs.pred_b
        assert np.all(np.abs(qs.corr_b - want) <= 1e-13 * (np.abs(corr_b) + abs(target) @ np.abs(qs.pred_b)))


def as_trajectory_rows(mat):
    """A square matrix read as block rows (block_dim 1) of a trajectory
    operator M = I - couplings: entry (r, c) couples row r to column c
    through -M[r, c], and a diagonal away from 1 couples a row to itself."""
    dense = mat.toarray()
    rows = []
    for r, row in enumerate(dense):
        coupling = -row
        coupling[r] += 1.0
        rows.append([(c, StepMatrix(np.array([[v]]))) for c, v in enumerate(coupling) if v != 0.0])
    return rows


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
        TrajectoryOperator(1, as_trajectory_rows(mat))
    unit = mat.toarray()
    unit[row, row] = 1.0
    op = TrajectoryOperator(1, as_trajectory_rows(sp.csr_matrix(unit)))
    assert np.array_equal(op.tocsr().toarray(), unit)


def test_stored_zero_diagonal_raises_structure_error():
    mat = sp.csr_matrix((np.array([1.0, 0.5, 0.0]), np.array([0, 0, 1]), np.array([0, 1, 3])),
                        shape=(2, 2))
    assert mat.nnz == 3
    with pytest.raises(StructureError):
        TrajectoryOperator(1, as_trajectory_rows(mat))
