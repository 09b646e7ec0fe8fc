"""Sampler tests: RK4 oracle, derivative scheme, unified predictor/corrector."""

import math
import tracemalloc
from decimal import Decimal, localcontext
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from carlift import model, reference
from carlift.model import _eps_tables, _kron_sum, kron_model, scalar_model, separable_model
from carlift.presets import benchmark, model_preset
from carlift.errors import ConvergenceError
from carlift.reference import dpm_weights, rk4_oracle, run_dpm, run_unipc, uni_weights
from carlift.schedule import TimeGrid, exp_taylor_tail, make_lambda_grid, make_vp_schedule
from oracles import (alpha_from_lam, apply_weights, dlam_dt, dpm_weights_per_width, dx_dlambda, eval_eps,
                     eval_tabulated, phi_moment, rk4_horner_per_coefficient, rk4_lists_per_stage,
                     run_dpm_arrays, run_unipc_arrays,
                     taylor_integral, taylor_walk_arrays, uni_coeffs, uni_weights_per_system)

S = make_vp_schedule(0.1, 20.0, 1.0)
WEAK = scalar_model({(0, 0): 0.2, (1, 0): -0.6, (2, 0): 0.25})
PROPERTY = settings(max_examples=25, deadline=None)


def test_rk4_fourth_order_self_convergence():
    ref = rk4_oracle(S, WEAK, [1.5], substeps=2048, times=(1.0, 0.1)).endpoint
    errs = [
        float(np.linalg.norm(rk4_oracle(S, WEAK, [1.5], substeps=n, times=(1.0, 0.1)).endpoint - ref))
        for n in (16, 32, 64)
    ]
    ratios = [e0 / e1 for e0, e1 in zip(errs, errs[1:])]
    assert all(11.0 < r < 21.0 for r in ratios), ratios


def test_rk4_matches_adaptive_integrator():
    def rhs_t(t, x):
        lam = float(S.lam(t))
        return float(dlam_dt(S, t)) * dx_dlambda(S, WEAK, x, lam)

    sol = solve_ivp(rhs_t, (1.0, 0.1), [1.5], rtol=1e-12, atol=1e-14)
    got = rk4_oracle(S, WEAK, [1.5], substeps=4000, times=(1.0, 0.1)).endpoint
    assert np.allclose(got, sol.y[:, -1], atol=1e-9)


def test_rk4_records_requested_nodes():
    grid = make_lambda_grid(S, 1.0, 0.1, 5)
    run = rk4_oracle(S, WEAK, [1.0], substeps=8, times=grid.t)
    assert len(run.states) == 6
    assert run.nfe == 4 * 8 * 5
    assert np.allclose(run.grid.t, grid.t)
    with pytest.raises(ValueError):
        rk4_oracle(S, WEAK, [1.0], substeps=0, times=grid.t)


def test_dpm1_exact_for_constant_eps():
    c = 0.7
    m = scalar_model({(0, 0): c})
    grid = make_lambda_grid(S, 1.0, 0.05, 5)
    run = run_dpm(S, m, [1.2], grid, k=1)
    ratio0 = 1.2 / float(S.alpha(1.0))
    for x, t, lam in zip(run.states, grid.t, grid.lam):
        expected = ratio0 - c * (math.exp(-grid.lam[0]) - math.exp(-lam))
        assert x[0] / float(S.alpha(t)) == pytest.approx(expected, rel=1e-13)


def test_dpm_order_increases_accuracy():
    bench = benchmark("cubic")
    oracle = rk4_oracle(
        bench.schedule(), bench.model(), [bench.x_T], substeps=2000,
        times=(bench.t_start, bench.t_end),
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


def test_uni_weights_satisfy_order_conditions():
    # a row's weights give back a_m = c[m] r_m / (-sigma_p B(h)) for m >= 1,
    # which must solve the Vandermonde order conditions
    rng = np.random.default_rng(11)
    for p in (2, 3):
        for corrector in (False, True):
            for variant in ("bh1", "bh2"):
                interior = np.sort(rng.uniform(0.1, 0.9, size=p - 1))
                lam_nodes = -1.0 + rng.uniform(0.05, 1.5) * np.concatenate([[0.0], interior, [1.0]])
                (_,), (c,) = uni_weights(S, lam_nodes, p, variant=variant, corrector=corrector)
                n_w = p if corrector else p - 1
                assert c.shape == (n_w + 1,)
                h = float(lam_nodes[-1] - lam_nodes[0])
                r = (lam_nodes[1:] - lam_nodes[0]) / h
                Bh = h if variant == "bh1" else math.expm1(h)
                sig_p = float(S.sigma_from_lam(lam_nodes[-1]))
                a = -c[1:] * r[:n_w] / (sig_p * Bh)
                for n in range(1, n_w + 1):
                    lhs = float(np.sum(a * r[:n_w] ** (n - 1)))
                    assert lhs == pytest.approx(phi_moment(n, h) / Bh, rel=1e-10)
                assert c[0] == pytest.approx(-sig_p * exp_taylor_tail(0, h) - c[1:].sum(), rel=1e-12)


def test_uni_weights_predictor_order_one_is_weightless():
    grid = make_lambda_grid(S, 1.0, 0.1, 8)
    ratio, c = uni_weights(S, grid.lam, 1)
    assert c.shape == (8, 1)
    sigma = S.sigma_from_lam(grid.lam[1:])
    assert np.array_equal(c[:, 0], [-sig * exp_taylor_tail(0, h) for sig, h in zip(sigma, grid.h)])
    ratio1, c1 = dpm_weights(S, grid.lam, 1)
    assert np.array_equal(ratio, ratio1) and np.array_equal(c, c1)


def test_step_weights_validation():
    # both weight tables refuse, with the same check, a grid that is not
    # strictly increasing, an order outside 1..3 and an unknown variant
    lams = make_lambda_grid(S, 1.0, 0.1, 4).lam
    tables = [lambda lams, order: dpm_weights(S, lams, order),
              lambda lams, order: uni_weights(S, lams, order),
              lambda lams, order: uni_weights(S, lams, order, corrector=True)]
    for table in tables:
        for bad in ([1.0, 0.5, 0.0], [1.0, 1.0], lams[::-1], lams.reshape(1, -1), [0.0, np.nan]):
            with pytest.raises(ValueError):
                table(np.asarray(bad, dtype=float), 1)
        for order in (0, 4):
            with pytest.raises(ValueError):
                table(lams, order)
    for few in (lams, lams[:2]):  # one with no full step at p = 2
        with pytest.raises(ValueError):
            uni_weights(S, few, 2, variant="bh3")


def test_step_weights_keep_the_bits_of_per_system_solves():
    # the tables equal, bit for bit, the per-width dpm tails and the
    # per-step Vandermonde solves, on uniform grids of 1..128 steps and
    # random non-uniform ones, also where alpha underflows (beta_max 1600);
    # where the reference raises, the table raises the same exception
    rng = np.random.default_rng(27)
    checked = raised = 0
    for beta_max in (20.0, 1600.0):
        s = make_vp_schedule(0.1, beta_max, 1.0)
        grids = [make_lambda_grid(s, t0, t1, M).lam
                 for M in (1, 2, 3, 5, 8, 16, 33, 64, 128) for t0, t1 in ((1.0, 0.05), (0.8, 0.001))]
        lo, hi = float(s.lam(1.0)), float(s.lam(0.001))
        grids += [np.sort(rng.uniform(lo, hi, int(rng.integers(2, 130)))) for _ in range(8)]
        for lams in grids:
            cases = [(dpm_weights, dpm_weights_per_width, (k,)) for k in (1, 2, 3)]
            cases += [(uni_weights, uni_weights_per_system, (p, variant, corrector))
                      for p in (1, 2, 3) for variant in ("bh1", "bh2") for corrector in (False, True)]
            for table, per_system, args in cases:
                try:
                    expected = per_system(s, lams, *args)
                except ConvergenceError:
                    with pytest.raises(ConvergenceError):
                        table(s, lams, *args)
                    raised += 1
                    continue
                for got, want in zip(table(s, lams, *args), expected, strict=True):
                    assert got.shape == want.shape and np.array_equal(got, want), (beta_max, args)
                checked += 1
    assert checked == 765 and raised == 15


def test_step_weights_match_finite_difference_forms():
    # the weights written out independently: the derivative step through
    # the exponential moments, the unified step in the finite-difference
    # form ratio x0 - sigma_t expm1(h) eps0 - sigma_t B(h) sum (a/r)(eps_m - eps0)
    rng = np.random.default_rng(31)
    lam_s, lam_t = float(S.lam(0.6)), float(S.lam(0.2))
    alpha_s, alpha_t = float(alpha_from_lam(lam_s)), float(alpha_from_lam(lam_t))
    for k in (1, 2, 3):
        (ratio,), (c,) = dpm_weights(S, [lam_s, lam_t], k)
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
                ratio_ref = float(alpha_from_lam(lam_p) / alpha_from_lam(lam_s))
                sig_p = float(S.sigma_from_lam(lam_p))
                D = eps[1 : len(a) + 1] - eps[0]
                old = (ratio_ref * x0 - sig_p * math.expm1(h) * eps[0]
                       - sig_p * Bh * ((a / r[: len(a)])[:, None] * D).sum(axis=0))
                (ratio,), (c,) = uni_weights(S, lam_nodes, p, variant=variant, corrector=corrector)
                assert c.shape == (len(eps),)
                np.testing.assert_allclose(ratio * x0 + c @ eps, old, rtol=1e-13, atol=0.0)


def test_step_weights_where_alpha_underflows_match_a_decimal_reference():
    # at beta_max 1600 a 16-step window starts at lam = -400 and its first
    # step ends near lam = -375, where alpha_from_lam underflows to 0 while
    # the step's true weights are near -7e10: every weight, and the first
    # step of the sampler, against 50-digit closed forms
    s = make_vp_schedule(0.1, 1600.0, 1.0)
    grid = make_lambda_grid(s, 1.0, 0.05, 16)
    assert alpha_from_lam(grid.lam[1]) == 0.0
    with localcontext() as ctx:
        ctx.prec = 50
        lam = [Decimal(v) for v in grid.lam.tolist()]
        alpha = [1 / (1 + (-2 * v).exp()).sqrt() for v in lam]

        def weight(n, i, j):  # -alpha_j I_n over lam[i]..lam[j], closed form
            h = lam[j] - lam[i]
            tail = 1 - (-h).exp() * sum(h**q / math.factorial(q) for q in range(n + 1))
            return -alpha[j] * (-lam[i]).exp() * tail

        ratio, c = dpm_weights(s, grid.lam, 3)
        for i in range(grid.M):
            assert ratio[i] == pytest.approx(float(alpha[i + 1] / alpha[i]), rel=1e-13)
            np.testing.assert_allclose(c[i], [float(weight(n, i, i + 1)) for n in range(3)],
                                       rtol=1e-13, atol=0.0)
        for p in (1, 2, 3):
            for corrector in (False, True):
                ratio, c = uni_weights(s, grid.lam, p, corrector=corrector)
                for j in range(grid.M + 1 - p):
                    assert ratio[j] == pytest.approx(float(alpha[j + p] / alpha[j]), rel=1e-13)
                    w = sum(Decimal(float(-v)) for v in c[j, 1:])  # the c[j, m >= 1] are -w_m
                    expected = weight(0, j, j + p) + w
                    assert abs(Decimal(float(c[j, 0])) - expected) <= Decimal(1e-13) * (
                        abs(weight(0, j, j + p)) + abs(w))

        x_T = Decimal(1)
        first = float(alpha[1] / alpha[0] * x_T + weight(0, 0, 1) * Decimal(0.25))  # eps(1) = 0.25
    m = model_preset("weak_quadratic")
    assert eval_eps(m, np.array([1.0]), float(grid.lam[0]))[0] == 0.25
    one_step = TimeGrid(t=grid.t[:2], lam=grid.lam[:2])
    assert run_dpm(s, m, [1.0], one_step, k=1).endpoint[0] == pytest.approx(first, rel=1e-13)


def test_unified_order_one_equals_derivative_scheme():
    grid = make_lambda_grid(S, 1.0, 0.05, 12)
    a = run_dpm(S, WEAK, [1.5], grid, k=1)
    b = run_unipc(S, WEAK, [1.5], grid, p=1)
    # dpm1 evaluates its combined step map, unip1 sums its weights times eps:
    # the same coefficients, rounded apart (the bits of each are checked by
    # test_samplers_equal_their_walk_on_arrays)
    for xa, xb in zip(a.states, b.states):
        assert np.allclose(xa, xb, atol=1e-14)


def test_corrector_improves_endpoint():
    bench = benchmark("weak_quadratic")
    s, m = bench.schedule(), bench.model()
    grid = bench.grid(16)
    oracle = rk4_oracle(
        s, m, [bench.x_T], substeps=2000, times=(bench.t_start, bench.t_end)
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
    # p=3 warms up with min(2, M) order-3 steps at 3 evaluations each, the
    # order-3 chain's own steps, so a grid of M <= 2 steps is all warm-up
    for M, nfe in ((1, (3, 3)), (2, (6, 6)), (3, (6 + 1, 6 + 2))):
        short = make_lambda_grid(S, 1.0, 0.05, M)
        chain = run_dpm(S, WEAK, [1.0], short, k=3).states[:3]
        for corrector in (False, True):
            run = run_unipc(S, WEAK, [1.0], short, p=3, corrector=corrector)
            assert run.nfe == nfe[corrector]
            assert np.array_equal(run.states[:3], chain)


def test_scheme_labels_and_helpers():
    grid = make_lambda_grid(S, 1.0, 0.05, 4)
    run = run_dpm(S, WEAK, [1.0], grid, k=2)
    assert run.scheme == "dpm2"
    assert run.state_matrix().shape == (5, 1)
    assert np.array_equal(run.endpoint, run.states[-1])
    assert run_unipc(S, WEAK, [1.0], grid, p=2).scheme == "unip2"
    assert run_unipc(S, WEAK, [1.0], grid, p=2, corrector=True).scheme == "unic2"
    with pytest.raises(ValueError):
        run_unipc(S, WEAK, [1.0], grid, p=4)
    with pytest.raises(ValueError):
        run_dpm(S, WEAK, [1.0, 2.0], grid, k=2)


def test_multistep_unipc_evaluates_each_state_once(monkeypatch):
    calls, rows = [], []
    eps_at = reference._eps_at

    def counted_eps_at(m, row, x):
        rows.append(row)  # held, so that no two rows share an id
        calls.append((id(row), np.asarray(x).tobytes()))
        return eps_at(m, row, x)

    bench = benchmark("weak_quadratic")
    grid = bench.grid(16)
    expected = {}
    for p, corrector in ((2, True), (3, False), (3, True)):
        expected[p, corrector] = run_unipc(S, bench.model(), [bench.x_T], grid, p=p,
                                           corrector=corrector)
    monkeypatch.setattr(reference, "_eps_at", counted_eps_at)
    for (p, corrector), before in expected.items():
        calls.clear()
        run = run_unipc(S, bench.model(), [bench.x_T], grid, p=p, corrector=corrector)
        # warm-up: p-1 Taylor steps, each one evaluation of its step map, then
        # eps from the grid table at the first p-1 states as history; then eps
        # once at every later state that enters as history, plus at each
        # predictor output when the corrector reads it
        warm = 2 * (p - 1)
        assert len(calls) == warm + 16 - (p - 1) + (16 - p + 1) * corrector
        assert len(set(calls)) == len(calls)
        assert run.nfe == before.nfe
        assert np.array_equal(run.state_matrix(), before.state_matrix())


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("corrector", [False, True])
def test_unipc_collapses_eps_over_lam_once_past_its_warm_up(monkeypatch, p, corrector):
    # the warm-up's tower over its p - 1 step starts, then one table over
    # the grid, the one the lift reads, whatever M is
    calls = []

    def counted(m, lams):
        calls.append(len(lams))
        return eps_tables(m, lams)

    eps_tables = model._eps_tables
    monkeypatch.setattr(model, "_eps_tables", counted)
    bench = benchmark("weak_quadratic")
    for M in (4, 16, 64):
        calls.clear()
        run_unipc(S, bench.model(), [bench.x_T], bench.grid(M), p=p, corrector=corrector)
        assert calls == [p - 1] * (p > 1) + [M + 1]


def test_unipc_run_solves_each_distinct_step_once(monkeypatch):
    systems = []
    solve = np.linalg.solve

    def counted(V, g):
        systems.append(V.shape)
        return solve(V, g)

    monkeypatch.setattr(np.linalg, "solve", counted)
    bench = benchmark("weak_quadratic")
    grid = bench.grid(128)
    for p in (2, 3):
        nodes = [grid.lam[i - p : i + 1] for i in range(p, grid.M + 1)]
        steps = {(tuple((lam[1:] - lam[0]) / (lam[-1] - lam[0])), lam[-1] - lam[0]) for lam in nodes}
        assert len(steps) < len(nodes)
        systems.clear()
        run_unipc(S, bench.model(), [bench.x_T], grid, p=p, corrector=True)
        # one stacked solve per table, predictor then corrector, one system per distinct step
        assert systems == [(len(steps), p - 1, p - 1), (len(steps), p, p)]


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
def oracle_models(draw, kinds=("scalar", "separable", "kron", "kron_lam")):
    """(model, lam-dependent kron blocks?) over scalar and separable d <= 3
    of degree <= 6, and kron d <= 4 of degree <= 3 (<= 2 at d >= 3), or
    over ``kinds`` of them; a kron_lam model draws lam dependence per
    block."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(kinds))
    J = draw(st.integers(0, 6 if kind in ("scalar", "separable") else 3))
    if kind == "scalar":
        return scalar_model(0.2 * rng.normal(size=(J + 1, draw(st.integers(1, 3))))), False
    if kind == "separable":
        d = draw(st.integers(1, 3))
        return separable_model(0.2 * rng.normal(size=(d, J + 1, draw(st.integers(1, 3))))), False
    d = draw(st.integers(1, 4))
    J = min(J, 2) if d >= 3 else J
    L = [draw(st.integers(1, 5)) if kind == "kron_lam" else 1 for _ in range(J + 1)]
    blocks = {j: 0.2 / d**j / L[j] * rng.normal(size=(L[j], d, d**j)) for j in range(J + 1)}
    return kron_model(d, blocks), max(L) > 1


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


@st.composite
def kron_chunks(draw):
    """The arguments of one ``reference._rk4_lists`` call: a kron or kron_lam
    model's rows at drawn log-SNRs, some coefficients made zeros of either
    sign, and a state and schedule floats of any sign, zeros among them.
    The oracle's own tables (f < 0 < c) cannot carry a -0.0 eps into a
    state, so the signs are drawn too."""
    m, _ = draw(oracle_models(kinds=("kron", "kron_lam")))
    cnt = draw(st.integers(1, 4))
    times = 2 * cnt + 1
    lams = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=times, max_size=times)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zero = draw(st.sampled_from([0.0, 0.5, 1.0]))  # the share of coefficients made zero
    rows = [(mono, np.where(rng.random(F.shape) < zero, rng.choice([0.0, -0.0], F.shape), F))
            for mono, F in reference._eps_rows(m, _eps_tables(m, lams))]
    value = st.floats(-2.0, 2.0) | st.sampled_from([0.0, -0.0])
    y, f, c = (draw(st.lists(value, min_size=n, max_size=n)) for n in (m.d, times, times))
    ht = draw(st.floats(0.1, 1.0)) * draw(st.sampled_from([-1.0, 1.0]))  # wide, so a stage's last bit shows
    return y, f, c, rows, cnt, ht


# a -0.0 eps that the 0.0 + of each of the four stages, and only it, keeps
# out of the state; and a d = 2 cubic, whose every degree's monomials enter
NEG_ZERO_CHUNK = ([-0.0], [1.5, -1.5, -1.5], [-1.5, -1.5, -1.5],
                  [(model._monomials(1, 0), np.array([[-0.0]]))] * 3, 1, -0.1)
CUBIC = kron_model(2, {j: np.random.default_rng(5).normal(size=(2, 2**j)) for j in range(4)})
CUBIC_CHUNK = ([0.4, -0.3], [-0.5] * 3, [0.7] * 3, reference._eps_rows(CUBIC, CUBIC.blocks) * 3, 1, -0.5)


@PROPERTY
@given(chunk=kron_chunks())
@example(chunk=NEG_ZERO_CHUNK)
@example(chunk=CUBIC_CHUNK)
def test_kron_rk4_stages_keep_the_per_stage_loops_bits(chunk):
    y, f, c, rows, cnt, ht = chunk
    with np.errstate(all="ignore"):
        got = np.array(reference._rk4_lists(list(y), f, c, rows, cnt, ht))
        expected = np.array(rk4_lists_per_stage(list(y), f, c, rows, cnt, ht))
    assert np.array_equal(got, expected, equal_nan=True)
    # a NaN's sign and payload follow the operand order CPython's float
    # arithmetic picks, which its specialising interpreter changes once
    # the code is warm, so only the numbers' signs are compared
    num = ~np.isnan(expected)
    assert np.array_equal(np.signbit(got[num]), np.signbit(expected[num]))


@st.composite
def separable_chunks(draw):
    """The arguments of one ``reference._rk4_horner`` call, drawn as
    :func:`kron_chunks` draws the kron stage's, with the model and tables
    in place of the rows: a separable model with d = 1 (a float state) or
    d = 2..3 (an array state), of x-degree 0..6, so that rows fall on both
    sides of the four written-out terms, and lam-dependent or not; its
    tables at drawn log-SNRs with some coefficients made zeros of either
    sign, each time its own row or all reading the first time's one row,
    as a lam-independent model's do; and a state and schedule floats of
    any sign, zeros among them, the state possibly infinite."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d, J, L = draw(st.integers(1, 3)), draw(st.integers(0, 6)), draw(st.integers(1, 3))
    m = separable_model(rng.normal(size=(d, J + 1, L)))
    cnt = draw(st.integers(1, 4))
    times = 2 * cnt + 1
    lams = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=times, max_size=times)))
    zero = draw(st.sampled_from([0.0, 0.5, 1.0]))  # the share of coefficients made zero
    tables = [np.where(rng.random(t.shape) < zero, rng.choice([0.0, -0.0], t.shape), t)
              for t in _eps_tables(m, lams)]
    value = st.floats(-2.0, 2.0) | st.sampled_from([0.0, -0.0])
    y = draw(st.lists(value | st.sampled_from([np.inf, -np.inf]), min_size=d, max_size=d))
    f, c = (draw(st.lists(value, min_size=times, max_size=times)) for _ in range(2))
    ht = draw(st.floats(0.1, 1.0)) * draw(st.sampled_from([-1.0, 1.0]))
    return y[0] if d == 1 else np.array(y), f, c, m, tables, draw(st.booleans()), cnt, ht


def one_coordinate_chunk(coeffs, y, shared):
    """A separable_chunks draw for the model with one coordinate and these
    coefficients (lowest degree first) at state y, over one substep."""
    m = scalar_model(np.array(coeffs, dtype=float)[:, None])
    return y, [1.0] * 3, [1.0] * 3, m, _eps_tables(m, np.zeros(3)), shared, 1, 0.5


@PROPERTY
@given(chunk=separable_chunks())
# an infinite state, whose stages are NaN only through the leading 0.0 z
@example(chunk=one_coordinate_chunk([1.0, 1.0, 1.0, 1.0], np.inf, False))
@example(chunk=one_coordinate_chunk([1.0, 1.0, 1.0, 1.0], np.inf, True))
# degree 4: one coefficient above the written-out four
@example(chunk=one_coordinate_chunk([0.3, -0.2, 0.1, 0.05, -0.01], 1.5, False))
@example(chunk=one_coordinate_chunk([0.3, -0.2, 0.1, 0.05, -0.01], 1.5, True))
# degree 1: two leading +0.0 terms, and -0.0 coefficients on an array state
@example(chunk=(np.array([-0.0, 0.0]), [-1.5] * 3, [1.5] * 3, separable_model(np.zeros((2, 2, 1))),
                [np.full((3, 2, 1), -0.0)] * 2, False, 1, 0.1))
def test_separable_rk4_stages_keep_the_per_coefficient_loops_bits(chunk):
    y, f, c, m, tables, shared, cnt, ht = chunk
    rows, expected_rows = reference._stage_rows(m, tables), reference._eps_rows(m, tables)
    if shared:
        rows, expected_rows = rows[:1], expected_rows[:1] * len(expected_rows)
    with np.errstate(all="ignore"):
        got = np.atleast_1d(reference._rk4_horner(y, f, c, rows, cnt, ht))
        expected = np.atleast_1d(rk4_horner_per_coefficient(y, f, c, expected_rows, cnt, ht))
    assert np.array_equal(got, expected, equal_nan=True)
    num = ~np.isnan(expected)  # as in the kron stage test, only the numbers' signs
    assert np.array_equal(np.signbit(got[num]), np.signbit(expected[num]))


def test_separable_oracle_equals_its_coordinates_oracles():
    c = 0.2 * np.random.default_rng(3).normal(size=(3, 4, 3))
    x_T = np.array([0.4, -0.5, 0.6])
    times = make_lambda_grid(S, 0.6, 0.1, 3).t
    got = rk4_oracle(S, separable_model(c), x_T, substeps=300, times=times).state_matrix()
    # each coordinate alone is a one-coordinate model, which steps on floats
    cols = [rk4_oracle(S, scalar_model(ci), [xi], substeps=300, times=times).state_matrix()[:, 0]
            for ci, xi in zip(c, x_T)]
    assert np.array_equal(got, np.stack(cols, axis=1))


@PROPERTY
@given(case=oracle_models(), lam=st.floats(-3.0, 3.0), scale=st.floats(0.1, 3.0))
def test_eval_eps_equals_direct_evaluation(case, lam, scale):
    # a kron model sums each monomial's Kronecker columns before it meets
    # x, the direct form after, so the two agree to the rounding of a sum
    # the size of the same sum over |coefficients| at |x| and |lam|
    m, _ = case
    x = scale * np.linspace(-1.0, 1.0, m.d)
    got, want = eval_eps(m, x, lam), eval_eps_direct(m, x, lam)
    if m.mode == "kron":
        size = eval_eps_direct(kron_model(m.d, {j: np.abs(cj) for j, cj in enumerate(m.coeffs)}),
                               np.abs(x), abs(lam))
        assert np.all(np.abs(got - want) <= 1e-14 * size)
    else:
        assert np.array_equal(got, want)


def test_kron_sum_on_floats_equals_the_array_evaluation():
    # every kron shape the oracle tests draw, with and without lam dependence
    rng = np.random.default_rng(17)
    lams = np.array([-2.5, -0.3, 0.0, 1.7])
    for d in range(1, 7):
        for J in range(3 if d >= 3 else 4):
            for L in (1, 3):
                m = kron_model(d, {j: rng.normal(size=(L, d, d**j)) for j in range(J + 1)})
                tables = _eps_tables(m, lams)
                for x in rng.normal(size=(12, d)) * np.exp(rng.uniform(-2.0, 1.0, size=(12, 1))):
                    for i, row in enumerate(reference._eps_rows(m, tables)):
                        got = np.array(_kron_sum(*row, x.tolist()))
                        expected = eval_tabulated(m, tables, i, x)
                        assert np.array_equal(got, expected)
                        assert np.array_equal(np.signbit(got), np.signbit(expected))


@pytest.mark.parametrize("higher", [{}, {1: np.zeros((2, 2)), 2: np.zeros((2, 4))}],
                         ids=["constant", "zero_higher_blocks"])
def test_kron_eval_sums_a_negative_zero_constant_from_zero(higher):
    # kron_model folds its blocks from +0, so a -0.0 coefficient reaches the
    # evaluators only in rows built by hand, as NEG_ZERO_CHUNK's: on one
    # coordinate the contraction hands back the -0.0 itself, and the
    # evaluators must sum it from +0, as the array evaluation does
    one, tables = kron_model(1, {0: [[-0.0]]}), (np.array([[[-0.0]]]),)
    row = reference._eps_rows(one, tables)[0]
    assert np.signbit(model._kron_dot(*row, [-0.7])[0])
    expected = eval_tabulated(one, tables, 0, np.array([-0.7]))
    assert not np.signbit(expected[0])
    for got in (_kron_sum(*row, [-0.7]), reference._eps_at(one, row, [-0.7])):
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))
    # the model's own blocks, whose constant the fold has made +0.0
    m = kron_model(2, {0: np.array([[-0.0], [0.5]]), **higher})
    x = np.array([-0.7, -0.4])
    got, expected = eval_eps(m, x, 0.3), eval_eps_direct(m, x, 0.3)
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))
    on_floats = np.array(_kron_sum(*reference._eps_rows(m, _eps_tables(m, np.array([0.3])))[0],
                                  x.tolist()))
    assert np.array_equal(np.signbit(on_floats), np.signbit(expected))
    # the samplers and the oracle on that model, whose stages sum eps from
    # +0 inside their own arithmetic, against the same steps on arrays
    grid = make_lambda_grid(S, 0.5, 0.1, 8)
    runs = [(rk4_oracle(S, m, x, substeps=50, times=grid.t),
             rk4_per_substep(S, m, x, 50, grid.t)[0])]
    for k in (1, 2, 3):
        runs.append((run_dpm(S, m, x, grid, k), run_dpm_arrays(S, m, x, grid, k).states))
        for corrector in (False, True):
            runs.append((run_unipc(S, m, x, grid, k, corrector=corrector),
                         run_unipc_arrays(S, m, x, grid, k, corrector=corrector).states))
    for run, states in runs:
        assert np.array_equal(run.states, states)
        assert np.array_equal(np.signbit(run.states), np.signbit(states))


def test_rk4_oracle_chunks_at_the_real_table_size():
    bench = benchmark("cubic")
    m = bench.model()
    chunk = reference._oracle_chunk(m)
    assert chunk > 1
    substeps = 2 * chunk + 77
    run = rk4_oracle(S, m, [bench.x_T], substeps=substeps, times=(bench.t_start, bench.t_end))
    expected, nfe = rk4_per_substep(S, m, [bench.x_T], substeps,
                                    np.array([bench.t_start, bench.t_end]))
    assert run.nfe == nfe
    assert np.array_equal(run.state_matrix(), expected)


def oracle_peaks(m, x_T, substep_counts):
    """Traced peak bytes of rk4_oracle over t 0.5 -> 0.1 at each substep count."""
    peaks = []
    for substeps in substep_counts:
        tracemalloc.start()
        try:
            rk4_oracle(S, m, x_T, substeps=substeps, times=(0.5, 0.1))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


def test_rk4_oracle_memory_does_not_grow_with_substeps():
    bench = benchmark("cubic")
    m = bench.model()
    chunk = reference._oracle_chunk(m)
    peaks = oracle_peaks(m, [bench.x_T], (2 * chunk, 8 * chunk))
    assert peaks[1] <= peaks[0] + 64 * 1024


def test_kron_rk4_oracle_memory_does_not_grow_with_substeps():
    m = kron_model(2, {1: [[[-0.5, 0.1], [0.0, -0.4]], [[0.02, 0.0], [0.01, 0.03]]],
                       2: [[0.05, 0.0, 0.0, 0.02], [0.0, 0.01, 0.03, 0.0]]})
    chunk = reference._oracle_chunk(m)
    peaks = oracle_peaks(m, [0.7, -0.6], (2 * chunk, 8 * chunk))
    assert peaks[1] <= peaks[0] + 64 * 1024


def unipc_per_state(s, m, x_T, grid, p, corrector):
    """The unified sampler past its warm-up with eps evaluated afresh at
    every state, at its own log-SNR, by the one-point reference."""
    x = np.atleast_1d(np.asarray(x_T, dtype=float))
    states = [x, *taylor_walk_arrays(s, m, x, grid.lam[:p], p)]
    eps = [eval_eps(m, states[i], float(grid.lam[i])) for i in range(p - 1)]
    pred = uni_weights(s, grid.lam, p)
    corr = uni_weights(s, grid.lam, p, corrector=True)
    for i in range(p, grid.M + 1):
        j = i - p
        eps.append(eval_eps(m, states[i - 1], float(grid.lam[i - 1])))
        xi = apply_weights(pred[0][j], pred[1][j], states[j], eps[j:i])
        if corrector:
            hist = eps[j:i] + [eval_eps(m, xi, float(grid.lam[i]))]
            xi = apply_weights(corr[0][j], corr[1][j], states[j], hist)
        states.append(xi)
    return np.stack(states)


@PROPERTY
@given(case=oracle_models(), p=st.integers(1, 3), corrector=st.booleans(), M=st.integers(3, 12),
       t_start=st.floats(0.2, 0.6), span=st.floats(0.05, 0.15))
def test_unipc_states_equal_a_per_state_eps_loop(case, p, corrector, M, t_start, span):
    m, _ = case
    grid = make_lambda_grid(S, t_start, t_start - span, M)
    x_T = np.linspace(0.3, 0.6, m.d)
    run = run_unipc(S, m, x_T, grid, p=p, corrector=corrector)
    assert np.array_equal(run.state_matrix(), unipc_per_state(S, m, x_T, grid, p, corrector))


@st.composite
def sampler_models(draw):
    """A model preset, a lam-dependent separable model with d = 1 or 3, or a
    kron model with d = 1..3 and a constant block, lam-dependent or not."""
    kind = draw(st.sampled_from(["preset", "separable", "kron"]))
    if kind == "preset":
        return model_preset(draw(st.sampled_from(["linear", "weak_quadratic", "cubic", "dissipative_linear"])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.sampled_from([1, 3]) if kind == "separable" else st.integers(1, 3))
    J = draw(st.integers(0, 2 if d == 3 else 3))
    if kind == "separable":
        return separable_model(0.2 * rng.normal(size=(d, J + 1, draw(st.integers(2, 3)))))
    L = [draw(st.integers(1, 3)) for _ in range(J + 1)]
    return kron_model(d, {j: 0.2 / d**j / L[j] * rng.normal(size=(L[j], d, d**j)) for j in range(J + 1)})


@PROPERTY
@given(m=sampler_models(), scheme=st.sampled_from(["dpm", "unip", "unic"]), order=st.integers(1, 3),
       variant=st.sampled_from(["bh1", "bh2"]), M=st.integers(1, 12), t_start=st.floats(0.2, 0.6),
       t_end=st.floats(0.05, 0.15))
def test_samplers_equal_their_walk_on_arrays(m, scheme, order, variant, M, t_start, t_end):
    # a one-coordinate model steps on a float and a kron model on a list:
    # the same operations as on arrays, so the same bits
    grid = make_lambda_grid(S, t_start, t_end, M)
    x_T = np.linspace(0.3, 0.6, m.d)
    if scheme == "dpm":
        run, expected = run_dpm(S, m, x_T, grid, order), run_dpm_arrays(S, m, x_T, grid, order)
    else:
        corrector = scheme == "unic"
        run = run_unipc(S, m, x_T, grid, order, variant, corrector)
        expected = run_unipc_arrays(S, m, x_T, grid, order, variant, corrector)
    assert run.nfe == expected.nfe
    assert run.scheme == expected.scheme
    assert np.array_equal(run.state_matrix(), expected.state_matrix())
