"""Spectral traces, the survival product P, and convergence sweeps."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from carlift.diagnostics import (
    SpectrumTrace,
    dissipativity_P,
    order_sweep,
    spectrum_trace,
    truncation_sweep,
)
from carlift.model import kron_model, scalar_model, separable_model
from carlift.presets import benchmark, model_preset
from carlift.reference import SolverRun, run_dpm, run_unipc
from carlift.schedule import TimeGrid, make_lambda_grid, make_vp_schedule
from oracles import drift_eigenvalues, drift_jacobian, zero_model

S = make_vp_schedule(0.1, 20.0, 1.0)


def test_spectrum_trace_matches_dense_eigensolver():
    rng = np.random.default_rng(31)
    m = separable_model(rng.normal(scale=0.3, size=(5, 3, 2)))
    grid = make_lambda_grid(S, 0.8, 0.1, 6)
    run = run_dpm(S, m, rng.normal(size=5), grid, k=1)
    trace = spectrum_trace(S, m, run)
    assert trace.eigs.shape == (7, 5)
    for i, (x, t) in enumerate(zip(run.states, run.grid.t)):
        J = drift_jacobian(S, m, x, t)
        assert np.allclose(trace.eigs[i], np.linalg.eigvalsh(J + J.T), atol=1e-9)
        assert np.all(np.diff(trace.eigs[i]) >= 0)
    assert trace.normalization == pytest.approx(np.abs(trace.eigs).max())


def test_spectrum_zero_model_is_twice_f():
    grid = make_lambda_grid(S, 0.9, 0.1, 5)
    run = run_dpm(S, zero_model(d=2, mode="separable"), np.ones(2), grid, k=1)
    trace = spectrum_trace(S, zero_model(d=2, mode="separable"), run)
    for i, t in enumerate(grid.t):
        assert np.all(trace.eigs[i] == 2.0 * float(S.f(t)))


def random_model(rng, mode, d, x_degree):
    """A model of x-degree at most 2 with a contractive linear part and a
    linear lam dependence, small enough that a run over (0.8, 0.1) stays
    finite; x-degree 0 leaves eps independent of x."""
    if mode == "separable":
        c = 0.05 * rng.standard_normal((d, x_degree + 1, 2))
        if x_degree >= 1:
            c[:, 1, 0] += rng.uniform(0.3, 0.7, d)
        return separable_model(c)
    blocks = {q: (0.1 / d if q == 2 else 0.05) * rng.standard_normal((2, d, d**q))
              for q in range(x_degree + 1)}
    if x_degree >= 1:
        blocks[1][0] += np.diag(rng.uniform(0.3, 0.7, d))
    return kron_model(d, blocks)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(["separable", "kron"]), d=st.integers(1, 4),
       x_degree=st.integers(0, 2), scheme=st.sampled_from(["dpm", "unip", "unic"]), order=st.integers(1, 3),
       M=st.integers(3, 24))
# runs whose finite states reach 3e189 and 2e199, where the unread x^2 monomial
# overflowed, and one whose sampler overflows, which the assumption discards
@example(seed=13833, mode="kron", d=1, x_degree=2, scheme="dpm", order=1, M=20)
@example(seed=4294967292, mode="kron", d=1, x_degree=2, scheme="dpm", order=2, M=12)
@example(seed=4294967292, mode="kron", d=1, x_degree=2, scheme="dpm", order=2, M=13)
def test_spectrum_trace_has_the_bits_of_per_node_eigenvalues(seed, mode, d, x_degree, scheme, order, M):
    rng = np.random.default_rng(seed)
    m = random_model(rng, mode, d, x_degree)
    grid = make_lambda_grid(S, 0.8, 0.1, M)
    x_T = rng.uniform(-1.0, 1.0, d)
    with np.errstate(over="ignore", invalid="ignore"):  # a run that overflows is not finite
        if scheme == "dpm":
            run = run_dpm(S, m, x_T, grid, k=order)
        else:
            run = run_unipc(S, m, x_T, grid, p=order, corrector=scheme == "unic")
    assume(np.all(np.isfinite(run.states)))
    want = np.stack([drift_eigenvalues(S, m, x, t) for x, t in zip(run.states, run.grid.t.tolist())])
    trace = spectrum_trace(S, m, run)
    assert trace.eigs.shape == (M + 1, d)
    assert np.array_equal(trace.eigs, want)


@pytest.mark.parametrize("mode", ["separable", "kron"])
def test_spectrum_trace_refuses_times_below_the_floor(mode):
    lam = S.lam(np.array([0.5, 0.5 * S.t_floor]))
    run = SolverRun(grid=TimeGrid(t=[0.5, 0.5 * S.t_floor], lam=lam), states=np.ones((2, 2)), nfe=0,
                    scheme="dpm1")
    with pytest.raises(ValueError, match="below t_floor"):
        spectrum_trace(S, zero_model(d=2, mode=mode), run)


def test_spectrum_zero_kron_model_is_twice_f():
    grid = make_lambda_grid(S, 0.9, 0.1, 5)
    m = zero_model(d=3, mode="kron")
    trace = spectrum_trace(S, m, run_dpm(S, m, np.ones(3), grid, k=1))
    assert np.array_equal(trace.eigs, np.repeat(2.0 * S.f(grid.t)[:, None], 3, axis=1))


def test_survival_product_halving_fixture():
    # constant a = 1/2 at every node: P must be exact binary powers
    n = 10
    trace = SpectrumTrace(
        times=np.linspace(1.0, 0.1, n), eigs=np.full((n, 3), 0.5), normalization=1.0
    )
    p = dissipativity_P(trace)
    assert np.array_equal(p.P, 0.5 ** np.arange(1, n + 1))
    assert not p.flagged


def test_survival_product_doubling_fixture():
    n = 8
    trace = SpectrumTrace(
        times=np.linspace(1.0, 0.1, n), eigs=np.full((n, 2), -1.0), normalization=1.0
    )
    p = dissipativity_P(trace)
    assert np.array_equal(p.P, 2.0 ** np.arange(1, n + 1))


def test_survival_product_flags_zero_spectrum():
    trace = SpectrumTrace(times=np.zeros(4), eigs=np.zeros((4, 2)), normalization=0.0)
    p = dissipativity_P(trace)
    assert p.flagged
    assert np.array_equal(p.P, np.ones(4))
    assert np.array_equal(p.a, np.zeros((4, 2)))


def test_dissipative_preset_monotone_decay():
    bench = benchmark("dissipative_linear")
    s, m = bench.schedule(), bench.model()
    run = run_dpm(s, m, [bench.x_T], bench.grid(16), k=1)
    p = dissipativity_P(spectrum_trace(s, m, run))
    assert p.a.min() > 0.0
    assert p.a.max() == 1.0
    assert np.all(np.diff(p.P) <= 0.0)
    assert p.P[0] < 1.0


def test_mixed_spectrum_can_grow():
    # a negative eigenvalue band makes the survival product increase
    trace = SpectrumTrace(
        times=np.linspace(1.0, 0.5, 5),
        eigs=np.column_stack([np.full(5, -0.5), np.full(5, 1.0)]),
        normalization=1.0,
    )
    p = dissipativity_P(trace)
    assert np.all(np.diff(p.P) > 0.0)


def test_truncation_sweep_error_decreases():
    bench = benchmark("weak_quadratic")
    rows = truncation_sweep(
        bench.schedule(), bench.model(), [bench.x_T], bench.grid(16),
        k=1, N_list=(1, 2, 3), with_kappa=False,
    )
    errs = [r.error for r in rows]
    assert errs[0] > errs[1] > errs[2]
    assert np.isnan(rows[0].defect)
    assert rows[1].defect >= 0.0
    assert all(np.isnan(r.kappa) for r in rows)


def test_truncation_sweep_reports_conditioning():
    bench = benchmark("weak_quadratic")
    rows = truncation_sweep(
        bench.schedule(), bench.model(), [bench.x_T], bench.grid(6),
        k=1, N_list=(1, 2), with_kappa=True,
    )
    assert all(r.kappa >= 1.0 for r in rows)


def test_truncation_sweep_raises_a_failed_condition_estimate():
    # two steps of log-SNR width about 200 lift to entries so large that
    # M^T M overflows in the condition estimate, while the trajectory from
    # x_T = 1e-100 stays finite
    s = make_vp_schedule(0.1, 1600.0, 1.0)
    with pytest.raises(FloatingPointError, match="the condition estimate failed"):
        truncation_sweep(s, model_preset("linear"), [1e-100], make_lambda_grid(s, 1.0, 0.05, 2),
                         k=1, N_list=(2,), oracle_substeps=100)


def test_order_sweep_slope_and_mask():
    bench = benchmark("cubic")
    sw = order_sweep(
        bench.schedule(), bench.model(), [bench.x_T],
        bench.t_start, bench.t_end, "dpm", 2, M_list=(8, 16, 32),
    )
    assert sw.used.all()
    assert sw.slope > 1.6
    assert np.all(np.diff(sw.errors) < 0)
    assert np.all(np.diff(sw.h) < 0)


def test_order_sweep_corrector_scheme_names():
    bench = benchmark("weak_quadratic")
    for scheme in ("unip", "unic"):
        sw = order_sweep(
            bench.schedule(), bench.model(), [bench.x_T],
            bench.t_start, bench.t_end, scheme, 2, M_list=(8, 16, 32),
        )
        assert sw.slope > 1.5


def test_order_sweep_rejects_unknown_scheme_and_single_point():
    bench = benchmark("cubic")
    with pytest.raises(ValueError):
        order_sweep(
            bench.schedule(), bench.model(), [bench.x_T],
            bench.t_start, bench.t_end, "unipc", 2, M_list=(8, 16),
        )
    # one grid size leaves nothing to fit a slope through
    with pytest.raises(ValueError):
        order_sweep(
            bench.schedule(), scalar_model({(1, 0): -0.5}), [1.0],
            1.0, 0.5, "dpm", 1, M_list=(8,),
        )
