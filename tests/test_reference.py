"""Sampler tests: RK4 oracle, derivative scheme, unified predictor/corrector."""

import math
import tracemalloc
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from carlift import reference
from carlift.model import dx_dlambda, eval_eps, kron_model, scalar_model, separable_model
from carlift.presets import benchmark
from carlift.reference import dpm_weights, rk4_oracle, run_dpm, run_unipc, uni_coeffs, uni_weights
from carlift.schedule import make_lambda_grid, make_vp_schedule, phi_moment, taylor_integral

S = make_vp_schedule(0.1, 20.0, 1.0)
WEAK = scalar_model({(0, 0): 0.2, (1, 0): -0.6, (2, 0): 0.25})
PROPERTY = settings(max_examples=25, deadline=None)


def test_rk4_fourth_order_self_convergence():
    ref = rk4_oracle(S, WEAK, [1.5], substeps=2048, t_start=1.0, t_end=0.1).endpoint
    errs = [
        float(np.linalg.norm(rk4_oracle(S, WEAK, [1.5], substeps=n, t_start=1.0, t_end=0.1).endpoint - ref))
        for n in (16, 32, 64)
    ]
    ratios = [e0 / e1 for e0, e1 in zip(errs, errs[1:])]
    assert all(11.0 < r < 21.0 for r in ratios), ratios


def test_rk4_matches_adaptive_integrator():
    def rhs_t(t, x):
        lam = float(S.lam(t))
        return float(S.dlam_dt(t)) * dx_dlambda(S, WEAK, x, lam)

    sol = solve_ivp(rhs_t, (1.0, 0.1), [1.5], rtol=1e-12, atol=1e-14)
    got = rk4_oracle(S, WEAK, [1.5], substeps=4000, t_start=1.0, t_end=0.1).endpoint
    assert np.allclose(got, sol.y[:, -1], atol=1e-9)


def test_rk4_records_requested_nodes():
    grid = make_lambda_grid(S, 1.0, 0.1, 5)
    run = rk4_oracle(S, WEAK, [1.0], substeps=8, times=grid.t)
    assert len(run.states) == 6
    assert run.nfe == 4 * 8 * 5
    assert np.allclose([pt.t for pt in run.states], grid.t)
    with pytest.raises(ValueError):
        rk4_oracle(S, WEAK, [1.0], substeps=0)


def test_dpm1_exact_for_constant_eps():
    c = 0.7
    m = scalar_model({(0, 0): c})
    grid = make_lambda_grid(S, 1.0, 0.05, 5)
    run = run_dpm(S, m, [1.2], grid, k=1)
    ratio0 = 1.2 / float(S.alpha(1.0))
    for pt in run.states:
        expected = ratio0 - c * (math.exp(-grid.lam[0]) - math.exp(-pt.lam))
        assert pt.x[0] / float(S.alpha(pt.t)) == pytest.approx(expected, rel=1e-13)


def test_dpm_order_increases_accuracy():
    bench = benchmark("cubic")
    oracle = rk4_oracle(
        bench.schedule(), bench.model(), [bench.x_T], substeps=2000,
        t_start=bench.t_start, t_end=bench.t_end,
    ).endpoint
    slopes = {}
    for k in (1, 2):
        errs, hs = [], []
        for M in (16, 32, 64):
            grid = bench.grid(M)
            run = run_dpm(bench.schedule(), bench.model(), [bench.x_T], grid, k=k)
            errs.append(float(np.linalg.norm(run.endpoint - oracle)))
            hs.append(grid.h.mean())
        slopes[k] = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slopes[1] > 0.7
    assert slopes[2] > 1.6


def test_uni_coeffs_satisfy_order_conditions():
    rng = np.random.default_rng(11)
    for p in (2, 3):
        for corrector in (False, True):
            for variant in ("bh1", "bh2"):
                interior = np.sort(rng.uniform(0.1, 0.9, size=p - 1))
                r = np.concatenate([interior, [1.0]])
                h = float(rng.uniform(0.05, 1.5))
                a, Bh = uni_coeffs(p, r, h, variant=variant, corrector=corrector)
                n_w = p if corrector else p - 1
                assert a.shape == (n_w,)
                assert Bh == pytest.approx(h if variant == "bh1" else math.expm1(h))
                for n in range(1, n_w + 1):
                    lhs = float(np.sum(a * r[:n_w] ** (n - 1)))
                    assert lhs == pytest.approx(phi_moment(n, h) / Bh, rel=1e-10)


def test_uni_coeffs_predictor_order_one_is_weightless():
    a, Bh = uni_coeffs(1, np.array([1.0]), 0.3)
    assert a.size == 0
    assert Bh == pytest.approx(math.expm1(0.3))


def test_uni_coeffs_validation():
    r2 = np.array([0.5, 1.0])
    with pytest.raises(ValueError):
        uni_coeffs(3, r2, 0.3)
    with pytest.raises(ValueError):
        uni_coeffs(2, np.array([1.0, 0.5]), 0.3)
    with pytest.raises(ValueError):
        uni_coeffs(2, np.array([0.5, 0.9]), 0.3)
    with pytest.raises(ValueError):
        uni_coeffs(2, r2, -0.1)
    with pytest.raises(ValueError):
        uni_coeffs(2, r2, 0.3, variant="bh3")
    with pytest.raises(ValueError):
        uni_coeffs(2, np.array([0.5, 0.5]), 0.3)


def test_step_weights_match_finite_difference_forms():
    # the weights written out independently: the derivative step through
    # the exponential moments, the unified step in the finite-difference
    # form ratio x0 - sigma_t expm1(h) eps0 - sigma_t B(h) sum (a/r)(eps_m - eps0)
    rng = np.random.default_rng(31)
    lam_s, lam_t = float(S.lam(0.6)), float(S.lam(0.2))
    alpha_s, alpha_t = float(S.alpha_from_lam(lam_s)), float(S.alpha_from_lam(lam_t))
    for k in (1, 2, 3):
        ratio, c = dpm_weights(S, lam_s, lam_t, k)
        assert ratio == pytest.approx(alpha_t / alpha_s, rel=1e-13)
        expected = [-alpha_t * taylor_integral(n, lam_s, lam_t) for n in range(k)]
        np.testing.assert_allclose(c, expected, rtol=1e-13, atol=0.0)
    for p in (1, 2, 3):
        for corrector in (False, True):
            for variant in ("bh1", "bh2"):
                r = np.concatenate([np.sort(rng.uniform(0.1, 0.9, size=p - 1)), [1.0]])
                h = float(rng.uniform(0.05, 1.5))
                lam_nodes = lam_s + h * np.concatenate([[0.0], r])
                lam_p = float(lam_nodes[-1])
                x0 = rng.normal(size=3)
                eps = rng.normal(size=(p + 1 if corrector else p, 3))
                a, Bh = uni_coeffs(p, r, h, variant=variant, corrector=corrector)
                ratio_ref = float(S.alpha_from_lam(lam_p) / S.alpha_from_lam(lam_s))
                sig_p = float(S.sigma_from_lam(lam_p))
                D = eps[1 : len(a) + 1] - eps[0]
                old = (ratio_ref * x0 - sig_p * math.expm1(h) * eps[0]
                       - sig_p * Bh * ((a / r[: len(a)])[:, None] * D).sum(axis=0))
                ratio, c = uni_weights(S, lam_nodes, variant=variant, corrector=corrector)
                assert c.shape == (len(eps),)
                np.testing.assert_allclose(ratio * x0 + c @ eps, old, rtol=1e-13, atol=0.0)


def test_unified_order_one_equals_derivative_scheme():
    grid = make_lambda_grid(S, 1.0, 0.05, 12)
    a = run_dpm(S, WEAK, [1.5], grid, k=1)
    b = run_unipc(S, WEAK, [1.5], grid, p=1)
    for pa, pb in zip(a.states, b.states):
        assert np.allclose(pa.x, pb.x, atol=1e-14)
    # both read the same order-1 coefficients, so they agree bit for bit
    np.testing.assert_array_equal(a.state_matrix(), b.state_matrix())


def test_corrector_improves_endpoint():
    bench = benchmark("weak_quadratic")
    s, m = bench.schedule(), bench.model()
    grid = bench.grid(16)
    oracle = rk4_oracle(
        s, m, [bench.x_T], substeps=2000, t_start=bench.t_start, t_end=bench.t_end
    ).endpoint
    pred = run_unipc(s, m, [bench.x_T], grid, p=2)
    corr = run_unipc(s, m, [bench.x_T], grid, p=2, corrector=True)
    e_pred = float(np.linalg.norm(pred.endpoint - oracle))
    e_corr = float(np.linalg.norm(corr.endpoint - oracle))
    assert e_corr <= e_pred


def test_nfe_accounting():
    grid = make_lambda_grid(S, 1.0, 0.05, 8)
    assert run_dpm(S, WEAK, [1.0], grid, k=2).nfe == 16
    assert run_unipc(S, WEAK, [1.0], grid, p=1).nfe == 8
    # p=2 multistep: one warm-up step at 2 evaluations, then one per step
    assert run_unipc(S, WEAK, [1.0], grid, p=2).nfe == 2 + 7
    assert run_unipc(S, WEAK, [1.0], grid, p=2, corrector=True).nfe == 2 + 2 * 7


def test_scheme_labels_and_helpers():
    grid = make_lambda_grid(S, 1.0, 0.05, 4)
    run = run_dpm(S, WEAK, [1.0], grid, k=2)
    assert run.scheme == "dpm2"
    assert run.state_matrix().shape == (5, 1)
    assert np.array_equal(run.endpoint, run.states[-1].x)
    assert run_unipc(S, WEAK, [1.0], grid, p=2).scheme == "unip2"
    assert run_unipc(S, WEAK, [1.0], grid, p=2, corrector=True).scheme == "unic2"
    assert run_unipc(S, WEAK, [1.0], grid, p=2, singlestep=True).scheme == "unip2s"
    with pytest.raises(ValueError):
        run_unipc(S, WEAK, [1.0], grid, p=4)


def test_singlestep_layout_converges_at_order():
    oracle = rk4_oracle(S, WEAK, [1.5], substeps=2000, t_start=1.0, t_end=0.1).endpoint
    errs = []
    for M in (16, 32):
        grid = make_lambda_grid(S, 1.0, 0.1, M)
        run = run_unipc(S, WEAK, [1.5], grid, p=2, singlestep=True)
        errs.append(float(np.linalg.norm(run.endpoint - oracle)))
        assert run.nfe == 2 * M
    assert errs[1] < 0.5 * errs[0]


def test_multistep_unipc_evaluates_each_state_once(monkeypatch):
    calls = []

    def counted(m, x, lam):
        calls.append((id(m), np.asarray(x).tobytes(), float(lam)))
        return eval_eps(m, x, lam)

    bench = benchmark("weak_quadratic")
    grid = bench.grid(16)
    expected = {}
    for p, corrector in ((2, True), (3, False), (3, True)):
        expected[p, corrector] = run_unipc(S, bench.model(), [bench.x_T], grid, p=p,
                                           corrector=corrector)
    monkeypatch.setattr(reference, "eval_eps", counted)
    for (p, corrector), before in expected.items():
        calls.clear()
        run = run_unipc(S, bench.model(), [bench.x_T], grid, p=p, corrector=corrector)
        # warm-up: p-1 Taylor steps of p evaluations each; then eps once at
        # every state that enters as history, plus at each predictor
        # output when the corrector reads it
        warm = (p - 1) * p
        assert len(calls) == warm + 16 + (16 - p + 1) * corrector
        assert len(set(calls[warm:])) == len(calls) - warm
        assert run.nfe == before.nfe
        assert np.array_equal(run.state_matrix(), before.state_matrix())
    calls.clear()
    run_unipc(S, bench.model(), [bench.x_T], grid, p=3, corrector=True, singlestep=True)
    assert len(calls) == 16 * 4


# --- the RK4 oracle against its per-substep form ------------------------------


def eval_eps_direct(m, x, lam):
    """eps(x, lam) for one lam: lam powers contracted per kron block against
    np.kron powers of x, or Horner over polyval'd coefficients."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if m.mode == "kron":
        out = np.zeros(m.d)
        for j, cj in enumerate(m.coeffs):
            mat = np.tensordot(lam ** np.arange(cj.shape[0]), cj, axes=(0, 0))
            out += mat @ reduce(np.kron, [x] * j, np.ones(1))
        return out
    arr = m.coeffs
    clam = np.polynomial.polynomial.polyval(lam, arr.transpose(2, 0, 1))
    out = np.zeros(arr.shape[0])
    for j in range(arr.shape[1] - 1, -1, -1):
        out = out * x + clam[:, j]
    return out


def rk4_per_substep(s, m, x_T, substeps, times):
    """Fixed-step RK4 with the schedule and eps evaluated afresh at every stage."""

    def rhs(t, x):
        sig = float(s.sigma(t))
        return float(s.f(t)) * x + float(s.g2(t)) / (2.0 * sig) * eval_eps(m, x, float(s.lam(t)))

    x = np.atleast_1d(np.asarray(x_T, dtype=float)).copy()
    states, nfe = [x.copy()], 0
    for ta, tb in zip(times[:-1], times[1:]):
        ht = (tb - ta) / substeps
        t = ta
        for _ in range(substeps):
            k1 = rhs(t, x)
            k2 = rhs(t + 0.5 * ht, x + 0.5 * ht * k1)
            k3 = rhs(t + 0.5 * ht, x + 0.5 * ht * k2)
            k4 = rhs(t + ht, x + ht * k3)
            x = x + (ht / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += ht
            nfe += 4
        states.append(x.copy())
    return np.stack(states), nfe


@st.composite
def oracle_models(draw):
    """(model, lam-dependent kron blocks?) over scalar, separable and kron d <= 3."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["scalar", "separable", "kron", "kron_lam"]))
    J = draw(st.integers(0, 3))
    if kind == "scalar":
        return scalar_model(0.2 * rng.normal(size=(J + 1, draw(st.integers(1, 3))))), False
    d = draw(st.integers(1, 3))
    if kind == "separable":
        return separable_model(0.2 * rng.normal(size=(d, J + 1, draw(st.integers(1, 3))))), False
    L = draw(st.integers(2, 5)) if kind == "kron_lam" else 1
    J = min(J, 2) if d == 3 else J
    blocks = {j: 0.2 / d**j / L * rng.normal(size=(L, d, d**j)) for j in range(J + 1)}
    return kron_model(d, blocks), L > 1


@PROPERTY
@given(
    case=oracle_models(),
    table_bytes=st.integers(1, 1024),
    data=st.data(),
    t_start=st.floats(0.2, 0.6),
    span=st.floats(0.05, 0.15),
    intervals=st.integers(0, 3),
)
def test_rk4_oracle_equals_per_substep_loop(case, table_bytes, data, t_start, span, intervals):
    m, lam_dependent_kron = case
    x_T = np.linspace(0.3, 0.6, m.d)
    with mock.patch.object(reference, "ORACLE_TABLE_BYTES", table_bytes):
        chunk = reference._oracle_chunk(m)
        # substep counts above the chunk and, where possible, not a multiple of it
        substeps = chunk * data.draw(st.integers(1, 3)) + (
            data.draw(st.integers(1, chunk - 1)) if chunk > 1 else 0
        )
        if intervals == 0:
            times = np.array([t_start, t_start - span])
            run = rk4_oracle(S, m, x_T, substeps=substeps, t_start=t_start, t_end=t_start - span)
        else:
            times = make_lambda_grid(S, t_start, t_start - span, intervals).t
            run = rk4_oracle(S, m, x_T, substeps=substeps, times=times)
    expected, nfe = rk4_per_substep(S, m, x_T, substeps, times)
    assert run.nfe == nfe
    assert np.array_equal(run.grid.t, times)
    got = run.state_matrix()
    if lam_dependent_kron:
        # the tables contract lam powers for many lams in one product,
        # which may sum in another order than a single-lam contraction
        assert np.all(np.abs(got - expected) <= 1e-13 * np.abs(expected).max())
    else:
        assert np.array_equal(got, expected)


@PROPERTY
@given(case=oracle_models(), lam=st.floats(-3.0, 3.0), scale=st.floats(0.1, 3.0))
def test_eval_eps_equals_direct_evaluation(case, lam, scale):
    m, _ = case
    x = scale * np.linspace(-1.0, 1.0, m.d)
    assert np.array_equal(eval_eps(m, x, lam), eval_eps_direct(m, x, lam))


def test_rk4_oracle_chunks_at_the_real_table_size():
    bench = benchmark("cubic")
    m = bench.model()
    chunk = reference._oracle_chunk(m)
    assert chunk > 1
    substeps = 2 * chunk + 77
    run = rk4_oracle(S, m, [bench.x_T], substeps=substeps, t_start=bench.t_start, t_end=bench.t_end)
    expected, nfe = rk4_per_substep(S, m, [bench.x_T], substeps,
                                    np.array([bench.t_start, bench.t_end]))
    assert run.nfe == nfe
    assert np.array_equal(run.state_matrix(), expected)


def test_rk4_oracle_memory_does_not_grow_with_substeps():
    bench = benchmark("cubic")
    m = bench.model()
    chunk = reference._oracle_chunk(m)
    peaks = []
    for substeps in (2 * chunk, 8 * chunk):
        tracemalloc.start()
        try:
            rk4_oracle(S, m, [bench.x_T], substeps=substeps, t_start=bench.t_start, t_end=bench.t_end)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 64 * 1024
