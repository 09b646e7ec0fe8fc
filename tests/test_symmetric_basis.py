"""The symmetric-monomial lift against the Kronecker lift it replaced.

Q (``oracles.symmetric_embedding``) maps the weighted monomials into the
Kronecker powers isometrically.  Every Kronecker-basis step matrix U
keeps the symmetric tensors symmetric, so U Q = Q U_s for the step
matrix U_s the package builds; lifted states, block 1 of a trajectory,
the defect and the system's singular values follow from that.  The
symmetric lift also takes no more memory than the Kronecker lift.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from carlift.carleman import CarlemanBasis, UnipcQcmSet, _node_block1, _poly_to_update, run_lifted
from carlift.model import kron_model
from carlift.schedule import make_lambda_grid, make_vp_schedule
from carlift.solve import forward_substitute
from carlift.system import assemble_global_dpm, assemble_global_unipc, condition_number

from oracles import KronBasis, kron_lifting, kron_node_block1, kron_poly_to_update, symmetric_embedding

S = make_vp_schedule(0.1, 20.0, 1.0)
PROPERTY = settings(max_examples=20, deadline=None)
SCHEMES = [("dpm", k, None) for k in (1, 2, 3)] + [
    ("unipc", p, which) for p in (1, 2, 3) for which in ("predictor", "corrector")]


def random_kron(seed, d):
    """Contractive linear part plus small lam-dependent constant and quadratic terms."""
    rng = np.random.default_rng(seed)
    lin = np.diag(np.linspace(0.3, 0.7, d)) + 0.02 * rng.standard_normal((d, d))
    return kron_model(d, {
        0: 0.05 * rng.standard_normal((2, d, 1)),
        1: lin,
        2: 0.1 / d * rng.standard_normal((2, d, d * d)),
    }), rng.uniform(-1.0, 1.0, d)


def trajectory(seed, d, N, M, scheme, basis):
    """Lifted states and the global system of a random kron trajectory."""
    name, order, which = scheme
    m, x_T = random_kron(seed, d)
    grid = make_lambda_grid(S, 0.5, 0.1, M)
    states, qcms = run_lifted(S, m, x_T, grid, basis, scheme=name, order=order,
                              corrector=which == "corrector")
    if name == "dpm":
        return states, assemble_global_dpm(qcms, states[0].y)
    warm = [q for q in qcms if not isinstance(q, UnipcQcmSet)]
    steps = [q for q in qcms if isinstance(q, UnipcQcmSet)]
    return states, assemble_global_unipc(warm, steps, states[0].y, which=which)


def both_bases(seed, d, N, M, scheme):
    """The trajectory in the symmetric basis and in the Kronecker basis."""
    sym = trajectory(seed, d, N, M, scheme, CarlemanBasis(N=N, d=d))
    with kron_lifting():
        kron = trajectory(seed, d, N, M, scheme, KronBasis(N=N, d=d))
    return sym, kron


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 4),
    N=st.integers(1, 4),
    degrees=st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True),
    zero=st.integers(0, 3),
    delta=st.booleans(),
)
def test_step_lift_intertwines_with_the_kron_lift(seed, d, N, degrees, zero, delta):
    # degrees in a random order, one block possibly all zero
    rng = np.random.default_rng(seed)
    P = {q: (0.0 if q == zero else 1.0) * rng.standard_normal((d, d**q)) for q in degrees}
    Q = symmetric_embedding(d, N)
    U_s, b_s = _poly_to_update(P, CarlemanBasis(N=N, d=d), delta=delta)
    U, b = kron_poly_to_update(P, KronBasis(N=N, d=d), delta=delta)
    U = U.toarray()
    assert U_s.rows.shape == (Q.shape[1], Q.shape[1])
    assert np.linalg.norm(U @ Q - Q @ U_s.toarray()) <= 1e-14 * np.linalg.norm(U)
    assert np.linalg.norm(b - Q @ b_s) <= 1e-14 * max(np.linalg.norm(b), 1e-300)

    E = {q: rng.standard_normal((d, d**q)) for q in degrees}
    node = _node_block1(E, 0.3, CarlemanBasis(N=N, d=d))
    want = kron_node_block1(E, 0.3, KronBasis(N=N, d=d)).toarray()
    assert node.rows.shape == (d, Q.shape[1])
    assert np.linalg.norm(want @ Q - Q @ node.toarray()) <= 1e-14 * max(np.linalg.norm(want), 1e-300)


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 4),
    N=st.integers(1, 4),
    M=st.integers(1, 6),
    scheme=st.sampled_from(SCHEMES),
)
def test_block1_and_defect_match_the_kron_lift(seed, d, N, M, scheme):
    (states, system), (kstates, ksystem) = both_bases(seed, d, N, M, scheme)
    Q = symmetric_embedding(d, N)
    walk = np.array([st.y for st in states])
    kwalk = np.array([st.y for st in kstates])
    solution = forward_substitute(system).solution.reshape(walk.shape)
    ksolution = forward_substitute(ksystem).solution.reshape(kwalk.shape)
    for got, want in ((walk, kwalk), (solution, ksolution)):
        scale = np.abs(want[:, :d]).max()
        assert np.abs(got[:, :d] - want[:, :d]).max() <= 1e-12 * scale
        assert np.abs(got @ Q.T - want).max() <= 1e-12 * np.abs(want).max()
    with kron_lifting():  # the Kronecker defect lifts block 1 in its own basis
        kdefects = [st.consistency_defect() for st in kstates]
    for st_s, st_k, defect in zip(states, kstates, kdefects):
        assert abs(st_s.consistency_defect() - defect) <= 1e-12 * np.linalg.norm(st_k.y)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 3),
    N=st.integers(1, 3),
    M=st.integers(1, 6),
    scheme=st.sampled_from(SCHEMES),
)
def test_symmetric_kappa_is_at_most_the_kron_kappa(seed, d, N, M, scheme):
    # M Q = Q M_s, so the singular values of M_s lie within M's
    (_, system), (_, ksystem) = both_bases(seed, d, N, M, scheme)
    kappa = condition_number(system, method="dense_svd").kappa
    assert kappa <= condition_number(ksystem, method="dense_svd").kappa * (1 + 1e-9)


def test_lift_peaks_no_higher_than_the_kron_lift():
    m, x_T = random_kron(3, 4)
    grid = make_lambda_grid(S, 0.5, 0.1, 4)
    basis = CarlemanBasis(N=4, d=4)

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run_lifted(S, m, x_T, grid, basis, order=1)  # index tables built outside the traces
    with kron_lifting():
        kron_peak = peak(lambda: run_lifted(S, m, x_T, grid, KronBasis(N=4, d=4), order=1))
    assert peak(lambda: run_lifted(S, m, x_T, grid, basis, order=1)) <= kron_peak
