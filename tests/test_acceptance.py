"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

Each test prints a single PASS line with the measured numbers so a log
scan shows the whole gate at a glance.  Runtime budgets are asserted
too; every case runs far inside them on a laptop-class machine.
"""

import math
import time

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm

from carlift.carleman import CarlemanBasis, lift, run_lifted
from carlift.diagnostics import (
    SpectrumTrace,
    dissipativity_P,
    order_sweep,
    spectrum_trace,
    truncation_sweep,
)
from carlift.model import drift_jacobian, eval_eps, kron_model, scalar_model, separable_model, zero_model
from carlift.presets import benchmark
from carlift.readout import recover_sparse, tomography_cost_model
from carlift.reference import rk4_oracle, run_dpm, run_unipc
from carlift.schedule import make_vp_schedule
from carlift.solve import LchsConfig, forward_substitute, lchs_solve
from carlift.system import (
    assemble_global_dpm,
    assemble_global_unipc,
    condition_number,
)


def test_criterion_01_linear_exactness():
    t0 = time.perf_counter()
    bench = benchmark("linear")
    s, m, grid = bench.schedule(), bench.model(), bench.grid(16)
    ref = run_dpm(s, m, [bench.x_T], grid, k=1)
    worst = 0.0
    for N in (1, 2, 4):
        basis = CarlemanBasis(N=N, d=1)
        states, _ = run_lifted(s, m, [bench.x_T], grid, basis, scheme="dpm", order=1)
        for st, pt in zip(states, ref.states):
            worst = max(worst, float(np.max(np.abs(st.block(1) - pt.x))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 1.0
    print(f"PASS criterion 1: linear lifted trajectory within {worst:.2e} of the sequential sampler ({elapsed:.2f}s)")


def test_criterion_02_truncation_convergence():
    t0 = time.perf_counter()
    bench = benchmark("weak_quadratic")
    rows = truncation_sweep(
        bench.schedule(), bench.model(), [bench.x_T], bench.grid(16),
        k=1, N_list=(1, 2, 3, 4), with_kappa=False,
    )
    errs = [r.error for r in rows]
    elapsed = time.perf_counter() - t0
    assert all(a > b for a, b in zip(errs, errs[1:])), errs
    assert errs[-1] <= 1e-4
    assert elapsed < 5.0
    print(
        "PASS criterion 2: truncation errors "
        + " > ".join(f"{e:.3e}" for e in errs)
        + f", final <= 1e-4 ({elapsed:.2f}s)"
    )


def test_criterion_03_solver_order():
    t0 = time.perf_counter()
    bench = benchmark("cubic")
    slopes = {}
    for k in (1, 2, 3):
        sw = order_sweep(
            bench.schedule(), bench.model(), [bench.x_T],
            bench.t_start, bench.t_end, "dpm", k, M_list=(8, 16, 32, 64, 128),
        )
        slopes[k] = sw.slope
        assert sw.slope >= k - 0.3, (k, sw.slope)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    detail = ", ".join(f"k={k}: {v:.2f}" for k, v in slopes.items())
    print(f"PASS criterion 3: derivative-scheme slopes {detail} ({elapsed:.2f}s)")


def test_criterion_04_unified_scheme_consistency():
    t0 = time.perf_counter()
    bench = benchmark("weak_quadratic")
    s, m = bench.schedule(), bench.model()

    grid = bench.grid(16)
    a = run_dpm(s, m, [bench.x_T], grid, k=1)
    b = run_unipc(s, m, [bench.x_T], grid, p=1)
    gap = max(
        float(np.max(np.abs(pa.x - pb.x))) for pa, pb in zip(a.states, b.states)
    )
    assert gap <= 1e-14

    oracle = rk4_oracle(
        s, m, [bench.x_T], substeps=4000, t_start=bench.t_start, t_end=bench.t_end
    ).endpoint
    ratios = []
    for M in (8, 16, 32, 64, 128):
        g = bench.grid(M)
        e_pred = float(np.linalg.norm(run_unipc(s, m, [bench.x_T], g, p=2).endpoint - oracle))
        e_corr = float(np.linalg.norm(
            run_unipc(s, m, [bench.x_T], g, p=2, corrector=True).endpoint - oracle
        ))
        assert e_corr <= e_pred, (M, e_pred, e_corr)
        ratios.append(e_pred / e_corr)

    sw = order_sweep(
        s, m, [bench.x_T], bench.t_start, bench.t_end, "unip", 2,
        M_list=(8, 16, 32, 64, 128),
    )
    assert sw.slope >= 1.7, sw.slope
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(
        f"PASS criterion 4: order-1 gap {gap:.1e}, corrector/predictor gain "
        f"{min(ratios):.1f}x..{max(ratios):.1f}x, predictor slope {sw.slope:.2f} ({elapsed:.2f}s)"
    )


def test_criterion_05_global_system_equivalence():
    t0 = time.perf_counter()
    bench = benchmark("weak_quadratic")
    s, m, grid = bench.schedule(), bench.model(), bench.grid(8)
    basis = CarlemanBasis(N=4, d=1)
    y0 = lift([bench.x_T], basis).y

    states, qcms = run_lifted(s, m, [bench.x_T], grid, basis, scheme="dpm", order=1)
    chained = np.concatenate([st.y for st in states])
    gap_dpm = float(np.max(np.abs(
        forward_substitute(assemble_global_dpm(qcms, y0)).solution - chained
    )))

    states, qcms = run_lifted(
        s, m, [bench.x_T], grid, basis, scheme="unipc", order=2, corrector=True
    )
    chained = np.concatenate([st.y for st in states])
    system = assemble_global_unipc(qcms[:1], qcms[1:], y0, which="corrector")
    gap_uni = float(np.max(np.abs(forward_substitute(system).solution - chained)))

    elapsed = time.perf_counter() - t0
    assert gap_dpm <= 1e-12 and gap_uni <= 1e-12
    assert elapsed < 5.0
    print(
        f"PASS criterion 5: global solves match sequential walks to "
        f"{gap_dpm:.1e} (derivative) / {gap_uni:.1e} (unified) ({elapsed:.2f}s)"
    )


def condition_sweep_systems():
    bench = benchmark("weak_quadratic")
    s, m = bench.schedule(), bench.model()
    for N, M in ((2, 8), (3, 8), (4, 16)):
        basis = CarlemanBasis(N=N, d=1)
        _, qcms = run_lifted(s, m, [bench.x_T], bench.grid(M), basis, scheme="dpm", order=1)
        yield assemble_global_dpm(qcms, lift([bench.x_T], basis).y)
    basis = CarlemanBasis(N=3, d=1)
    _, qcms = run_lifted(
        s, m, [bench.x_T], bench.grid(8), basis, scheme="unipc", order=2, corrector=True
    )
    yield assemble_global_unipc(qcms[:1], qcms[1:], lift([bench.x_T], basis).y)
    mk = kron_model(2, {1: np.array([[0.4, 0.1], [0.0, 0.5]]), 2: 0.05 * np.ones((2, 4))})
    basis = CarlemanBasis(N=2, d=2, mode="kron")
    _, qcms = run_lifted(s, mk, [1.0, 0.8], bench.grid(8), basis, scheme="dpm", order=1)
    yield assemble_global_dpm(qcms, lift([1.0, 0.8], basis).y)


def test_criterion_06_conditioning_cross_check():
    t0 = time.perf_counter()
    checked = []
    for system in condition_sweep_systems():
        assert system.dim <= 2000
        dense = condition_number(system, method="dense_svd")
        lanczos = condition_number(system, method="lanczos", rtol=1e-6)
        assert lanczos.converged
        rel = abs(lanczos.kappa - dense.kappa) / dense.kappa
        assert rel <= 0.01, (system.dim, dense.kappa, lanczos.kappa)
        checked.append((system.dim, rel))
    for method in ("dense_svd", "lanczos"):
        assert condition_number(sp.identity(64, format="csr"), method=method).kappa == 1.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    worst = max(rel for _, rel in checked)
    print(
        f"PASS criterion 6: lanczos vs dense within {worst:.2e} over "
        f"{len(checked)} systems, identity exactly 1 ({elapsed:.2f}s)"
    )


def test_criterion_07_lchs_convergence():
    t0 = time.perf_counter()
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    b = np.array([1.0, 0.5])
    u0 = np.array([1.0, -0.5])
    E = expm(-A)
    ref = E @ u0 + np.linalg.solve(A, (np.eye(2) - E) @ b)
    errs = []
    for K, nodes in ((32.0, 257), (64.0, 513), (128.0, 1025)):
        res = lchs_solve(
            lambda t: A, lambda t: b, u0, 1.0,
            LchsConfig(K=K, nodes=nodes, substeps=64),
        )
        errs.append(float(np.linalg.norm(res.u - ref)))
    elapsed = time.perf_counter() - t0
    assert errs[0] <= 1e-3
    assert errs[0] >= errs[1] >= errs[2], errs
    assert elapsed < 10.0
    print(
        "PASS criterion 7: kernel-window errors "
        + " >= ".join(f"{e:.3e}" for e in errs)
        + f", first <= 1e-3 ({elapsed:.2f}s)"
    )


def test_criterion_08_dissipativity_diagnostics():
    t0 = time.perf_counter()
    s = make_vp_schedule(0.1, 20.0, 1.0)
    m0 = zero_model(d=2, mode="separable")
    bench0 = benchmark("linear")
    run0 = run_dpm(s, m0, np.ones(2), bench0.grid(8), k=1)
    trace0 = spectrum_trace(s, m0, run0)
    for i, t in enumerate(trace0.times):
        assert np.all(trace0.eigs[i] == 2.0 * float(s.f(t)))

    n = 12
    halving = dissipativity_P(SpectrumTrace(
        times=np.linspace(1.0, 0.1, n), eigs=np.full((n, 2), 0.5), normalization=1.0
    ))
    doubling = dissipativity_P(SpectrumTrace(
        times=np.linspace(1.0, 0.1, n), eigs=np.full((n, 2), -1.0), normalization=1.0
    ))
    assert np.array_equal(halving.P, 0.5 ** np.arange(1, n + 1))
    assert np.array_equal(doubling.P, 2.0 ** np.arange(1, n + 1))

    bench = benchmark("dissipative_linear")
    run = run_dpm(bench.schedule(), bench.model(), [bench.x_T], bench.grid(16), k=1)
    p = dissipativity_P(spectrum_trace(bench.schedule(), bench.model(), run))
    assert p.a.min() > 0.0
    # the normalising node itself sits at exactly 1; all others are interior
    assert p.a.max() == 1.0 and np.sum(p.a == 1.0) == 1
    assert np.all(np.diff(p.P) <= 0.0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(
        f"PASS criterion 8: closed-form fixtures exact, dissipative preset "
        f"P {p.P[0]:.3f} -> {p.P[-1]:.3f} non-increasing ({elapsed:.2f}s)"
    )


def test_criterion_09_sparse_readout():
    t0 = time.perf_counter()
    dim = 2**10
    rates = {}
    for r in (2, 4, 8):
        shots = math.ceil(20 * r * math.log(r))
        successes = 0
        for trial in range(100):
            rng = np.random.default_rng((r, trial))
            v = np.zeros(dim)
            support = rng.choice(dim, size=r, replace=False)
            v[support] = rng.choice([-1.0, 1.0], size=r) * (0.5 + rng.random(r))
            rep = recover_sparse(v, r, shots=shots, amp_shots=1024, seed=1000 * r + trial)
            successes += rep.success
        rates[r] = successes
        assert successes >= 99, (r, successes)
    base = tomography_cost_model(10, 4, 1e-2)
    assert tomography_cost_model(10, 4, 0.5e-2) / base == 4.0
    assert tomography_cost_model(10, 8, 1e-2) / base == 8.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    detail = ", ".join(f"r={r}: {n}/100" for r, n in rates.items())
    print(f"PASS criterion 9: support recovery {detail}, cost ratios 4.0/8.0 exact ({elapsed:.2f}s)")


def test_criterion_10_jacobian_correctness():
    t0 = time.perf_counter()
    s = make_vp_schedule(0.1, 20.0, 1.0)
    rng = np.random.default_rng(99)
    worst = 0.0
    for case in range(100):
        kind = case % 3
        if kind == 0:
            m = scalar_model(rng.normal(scale=0.5, size=(4, 2)))
        elif kind == 1:
            m = separable_model(rng.normal(scale=0.5, size=(3, 3, 2)))
        else:
            m = kron_model(2, {
                0: rng.normal(scale=0.3, size=(2, 2, 1)),
                1: rng.normal(scale=0.4, size=(2, 2, 2)),
                2: rng.normal(scale=0.3, size=(1, 2, 4)),
            })
        x = rng.normal(size=m.d)
        t = float(rng.uniform(0.05, 1.0))
        lam = float(s.lam(t))
        f_t, g2_t, sig = float(s.f(t)), float(s.g2(t)), float(s.sigma(t))

        def drift(z):
            return f_t * z + g2_t / (2 * sig) * eval_eps(m, z, lam)

        J = drift_jacobian(s, m, x, t)
        fd = np.empty((m.d, m.d))
        h = 1e-6 * max(1.0, float(np.abs(x).max()))
        for c in range(m.d):
            e = np.zeros(m.d)
            e[c] = h
            fd[:, c] = (drift(x + e) - drift(x - e)) / (2 * h)
        rel = float(np.linalg.norm(J - fd) / max(1.0, np.linalg.norm(J)))
        worst = max(worst, rel)
        assert rel <= 1e-6, (case, rel)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"PASS criterion 10: 100 random drift Jacobians within {worst:.2e} of finite differences ({elapsed:.2f}s)")
