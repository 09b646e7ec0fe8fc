"""Schedule and log-SNR grid tests.

The integral weights are checked against adaptive quadrature, the
schedule identities against closed forms and finite differences.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import expit

from carlift.schedule import (
    TimeGrid,
    exp_taylor_tail,
    make_lambda_grid,
    make_vp_schedule,
)
from oracles import alpha_from_lam, dlam_dt, phi_moment, t_from_lam_brentq, taylor_integral

VP = make_vp_schedule(0.1, 20.0, 1.0)


@pytest.mark.parametrize("build, message", [
    (lambda: make_vp_schedule(20.0, 0.1, 1.0), "need 0 < beta_min < beta_max"),
    (lambda: make_vp_schedule(0.0, 20.0, 1.0), "need 0 < beta_min < beta_max"),
    (lambda: make_vp_schedule(0.1, 20.0, 0.0), "need T > 0"),
    (lambda: TimeGrid(t=np.array([1.0, 0.5]), lam=np.array([0.0])), "t and lam must be matching 1-d arrays"),
    (lambda: TimeGrid(t=np.ones((2, 2)), lam=np.ones((2, 2))), "t and lam must be matching 1-d arrays"),
    (lambda: exp_taylor_tail(-1, 0.5), "need n >= 0"),
], ids=["beta_order", "beta_min_zero", "T_zero", "grid_lengths", "grid_2d", "tail_negative_n"])
def test_schedule_refuses_invalid_input(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_sigma2_from_lam_is_expit_bit_for_bit():
    # 2 lam crosses exp's overflow (about 709.78) inside the dense band,
    # where expit(-2 lam) runs through subnormals to 0
    rng = np.random.default_rng(47)
    lam = np.concatenate([np.linspace(-800.0, 800.0, 60001), np.linspace(354.0, 356.0, 40001),
                          rng.uniform(-40.0, 40.0, 20000), [0.0, -0.0, np.inf, -np.inf]])
    got = VP.sigma2_from_lam(lam)
    assert got.dtype == np.float64 and got.shape == lam.shape
    assert np.array_equal(got.view(np.int64), expit(-2.0 * lam).view(np.int64))
    assert (got[lam > 354.9] == 0.0).all() and (got[lam < 354.89] > 0.0).all()
    # the shapes and types of sigma_from_lam: a NumPy scalar from a scalar
    for arg in (0.7, np.float64(0.7), np.array(0.7), [0.7, -3.0], lam[:6].reshape(2, 3)):
        want = expit(-2.0 * np.asarray(arg, dtype=float))
        for got, ref in ((VP.sigma2_from_lam(arg), want), (VP.sigma_from_lam(arg), np.sqrt(want))):
            assert type(got) is type(ref) and np.shape(got) == np.shape(ref)
            assert np.array_equal(got, ref)
    assert np.isnan(VP.sigma2_from_lam(np.nan))


def test_variance_preserving_identity():
    t = np.linspace(VP.t_floor, VP.T, 400)
    assert np.allclose(VP.alpha(t) ** 2 + VP.sigma(t) ** 2, 1.0, atol=1e-14)


def test_log_alpha_closed_form():
    t = np.linspace(0.0, 1.0, 50)
    expected = -0.25 * t**2 * (20.0 - 0.1) - 0.5 * t * 0.1
    assert np.allclose(VP.log_alpha(t), expected, rtol=1e-15)


def test_f_is_half_beta_decay():
    # f = d log(alpha)/dt = -beta/2 for the variance-preserving family
    t = np.linspace(0.05, 1.0, 30)
    assert np.allclose(VP.f(t), -0.5 * VP.beta(t), rtol=1e-14)
    dt = 1e-6
    fd = (VP.log_alpha(t + dt) - VP.log_alpha(t - dt)) / (2 * dt)
    assert np.allclose(VP.f(t), fd, atol=1e-8)


def test_g2_matches_sigma2_evolution():
    # g^2 = d sigma^2/dt - 2 f sigma^2, which collapses to beta(t)
    t = np.linspace(0.05, 1.0, 30)
    dt = 1e-6
    dsig2 = (VP.sigma(t + dt) ** 2 - VP.sigma(t - dt) ** 2) / (2 * dt)
    assert np.allclose(VP.g2(t), dsig2 - 2.0 * VP.f(t) * VP.sigma(t) ** 2, atol=1e-7)
    assert np.allclose(VP.g2(t), VP.beta(t), rtol=1e-14)


def test_log_snr_reference_values():
    assert VP.lam(0.1) == pytest.approx(1.08, abs=5e-3)
    assert VP.lam(0.2) == pytest.approx(0.33, abs=5e-3)


def test_log_snr_monotone_decreasing():
    t = np.linspace(VP.t_floor, 1.0, 200)
    lam = VP.lam(t)
    assert np.all(np.diff(lam) < 0.0)
    dt = 1e-7
    fd = (VP.lam(t[1:-1] + dt) - VP.lam(t[1:-1] - dt)) / (2 * dt)
    assert np.allclose(dlam_dt(VP, t[1:-1]), fd, rtol=1e-5)
    assert np.all(dlam_dt(VP, t) < 0.0)


def test_time_round_trip():
    t = np.random.default_rng(7).uniform(VP.t_floor, VP.T, 40)
    np.testing.assert_allclose(VP.t_from_lam(VP.lam(t)), t, rtol=0.0, atol=1e-10)
    for ti in t[:5]:
        assert VP.t_from_lam(float(VP.lam(ti))) == pytest.approx(ti, abs=1e-10)


def test_lam_parameterized_schedule_consistency():
    t = np.linspace(0.02, 0.9, 25)
    lam = VP.lam(t)
    assert np.allclose(VP.sigma_from_lam(lam), VP.sigma(t), rtol=1e-12)
    assert np.allclose(alpha_from_lam(lam), VP.alpha(t), rtol=1e-12)
    assert np.allclose(
        alpha_from_lam(lam) ** 2 + VP.sigma_from_lam(lam) ** 2, 1.0, atol=1e-14
    )


def test_lambda_grid_structure():
    grid = make_lambda_grid(VP, 1.0, 0.05, 16)
    assert grid.M == 16
    assert len(grid.t) == 17
    assert grid.t[0] == 1.0 and grid.t[-1] == 0.05
    assert grid.lam[0] == pytest.approx(float(VP.lam(1.0)))
    assert grid.lam[-1] == pytest.approx(float(VP.lam(0.05)))
    assert np.all(grid.h > 0.0)
    assert np.all(np.diff(grid.t) < 0.0)
    np.testing.assert_allclose(grid.h, grid.h.mean(), rtol=1e-9, atol=0.0)
    # the t nodes must actually invert the schedule
    assert np.allclose(VP.lam(grid.t), grid.lam, atol=1e-14)


@settings(max_examples=100, deadline=None)
@given(
    beta_min=st.floats(min_value=0.01, max_value=1.0),
    spread=st.floats(min_value=1e-6, max_value=50.0),
    T=st.floats(min_value=0.5, max_value=2.0),
    end=st.floats(min_value=0.0, max_value=0.9),
    width=st.floats(min_value=0.05, max_value=1.0),
    M=st.integers(min_value=1, max_value=64),
)
def test_lambda_grid_matches_root_finding(beta_min, spread, T, end, width, M):
    # windows reach from t_floor up to T, and beta_max near beta_min makes
    # the textbook quadratic root cancel; the nodes agree with the bracketed
    # search and reproduce their log-SNR to 1e-14 relative
    s = make_vp_schedule(beta_min, beta_min + spread, T)
    t_end = s.t_floor + end * (T - s.t_floor)
    t_start = t_end + width * (T - t_end)
    grid = make_lambda_grid(s, t_start, t_end, M)
    oracle = [t_from_lam_brentq(s, lam, t_end, t_start) for lam in grid.lam[1:-1]]
    np.testing.assert_allclose(grid.t, [t_start, *oracle, t_end], rtol=0.0, atol=1e-14)
    assert np.all(np.abs(s.lam(grid.t) - grid.lam) <= 1e-14 * np.maximum(1.0, np.abs(grid.lam)))
    assert np.all(np.diff(grid.t) < 0.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        make_lambda_grid(VP, 0.05, 1.0, 8)
    with pytest.raises(ValueError):
        make_lambda_grid(VP, 1.0, 1e-7, 8)
    with pytest.raises(ValueError):
        make_lambda_grid(VP, 1.0, 0.05, 0)
    with pytest.raises(ValueError):
        TimeGrid(t=np.array([1.0, 0.5]), lam=np.array([0.0, -1.0]))
    with pytest.raises(ValueError):
        TimeGrid(t=np.array([0.5, 1.0]), lam=np.array([0.0, 1.0]))


def test_exp_taylor_tail_against_series():
    for n in range(5):
        for h in (1e-8, 1e-3, 0.3, 2.0):
            direct = math.exp(h) - sum(h**k / math.factorial(k) for k in range(n + 1))
            assert exp_taylor_tail(n, h) == pytest.approx(direct, rel=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=5),
    lam_s=st.floats(min_value=-2.0, max_value=3.0),
    h=st.floats(min_value=1e-6, max_value=4.0),
)
def test_taylor_integral_matches_quadrature(n, lam_s, h):
    val = taylor_integral(n, lam_s, lam_s + h)
    ref, err = quad(
        lambda lam: math.exp(-lam) * (lam - lam_s) ** n / math.factorial(n),
        lam_s,
        lam_s + h,
    )
    assert val == pytest.approx(ref, rel=1e-9, abs=max(10 * err, 1e-15))


def test_taylor_integral_order_zero_closed_form():
    for lam_s, lam_t in ((0.0, 1.0), (-1.5, 0.25), (2.0, 2.0 + 1e-9)):
        expected = math.exp(-lam_s) - math.exp(-lam_t)
        assert taylor_integral(0, lam_s, lam_t) == pytest.approx(expected, rel=1e-12)


def test_taylor_integral_rejects_reversed_interval():
    with pytest.raises(ValueError):
        taylor_integral(1, 1.0, 0.5)


def test_phi_moment_definition_and_limit():
    # phi_moment(n, h) = n! * tail(n, h) / h^n, so it ties back to the
    # integral weight via I_n = e^{-lam_s - h} h^n phi_moment / n!
    for n in range(4):
        for h in (0.05, 0.7, 2.5):
            via_integral = (
                math.factorial(n) * math.exp(h) * taylor_integral(n, 0.0, h) / h**n
            )
            assert phi_moment(n, h) == pytest.approx(via_integral, rel=1e-12)
        # small-h limit h/(n+1)
        assert phi_moment(n, 1e-9) == pytest.approx(1e-9 / (n + 1), rel=1e-6)
