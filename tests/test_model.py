import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from carlift.errors import CapacityError
from carlift.model import (
    MAX_MONOMIALS,
    PolyNoiseModel,
    _derivative_tower,
    kron_model,
    scalar_model,
    separable_model,
    total_derivative_poly,
)
from carlift.reference import _degree_blocks
from carlift.schedule import make_vp_schedule
from oracles import (
    drift_eigenvalues,
    drift_jacobian,
    dx_dlambda,
    eval_eps,
    jacobian_eps,
    monomials,
    zero_model,
)

S = make_vp_schedule(0.1, 20.0, 1.0)


@pytest.mark.parametrize("build, message", [
    (lambda: PolyNoiseModel(mode="separable", d=0, coeffs=np.zeros((0, 2, 1))), "need d >= 1"),
    (lambda: PolyNoiseModel(mode="kron", d=0, coeffs=[np.zeros((1, 0, 1))]), "need d >= 1"),
    (lambda: total_derivative_poly(S, scalar_model({(1, 0): -0.5}), -1, 0.0), "need n >= 0"),
], ids=["separable_d0", "kron_d0", "negative_derivative"])
def test_model_refuses_invalid_input(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def random_scalar(rng, jmax=3, lmax=2):
    return scalar_model(rng.normal(scale=0.5, size=(jmax + 1, lmax + 1)))


def random_separable(rng, d=3, jmax=2, lmax=1):
    return separable_model(rng.normal(scale=0.5, size=(d, jmax + 1, lmax + 1)))


def random_kron(rng, d=2, jmax=2, lmax=1):
    terms = {
        j: rng.normal(scale=0.4, size=(lmax + 1, d, d**j)) for j in range(jmax + 1)
    }
    return kron_model(d, terms)


def kron_power(x, j):
    out = np.ones(1)
    for _ in range(j):
        out = np.kron(out, x)
    return out


def test_eval_eps_scalar_direct():
    c = np.array([[0.5, -0.2], [1.5, 0.0], [0.25, 0.1]])
    m = scalar_model(c)
    assert (m.mode, m.d) == ("separable", 1)
    assert np.array_equal(m.coeffs, c[None])
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = random_scalar(rng)
        x = float(rng.normal())
        lam = float(rng.uniform(-1.0, 2.0))
        direct = sum(
            m.coeffs[0, j, l] * x**j * lam**l
            for j in range(m.coeffs.shape[1])
            for l in range(m.coeffs.shape[2])
        )
        assert eval_eps(m, [x], lam)[0] == pytest.approx(direct, rel=1e-13, abs=1e-13)


def test_eval_eps_separable_componentwise():
    rng = np.random.default_rng(1)
    m = random_separable(rng, d=4)
    x = rng.normal(size=4)
    lam = 0.37
    out = eval_eps(m, x, lam)
    for i in range(4):
        mi = scalar_model(m.coeffs[i])
        assert out[i] == pytest.approx(eval_eps(mi, [x[i]], lam)[0], rel=1e-13)


def test_eval_eps_kron_direct():
    rng = np.random.default_rng(2)
    for _ in range(10):
        m = random_kron(rng, d=2, jmax=3)
        x = rng.normal(size=2)
        lam = float(rng.uniform(-0.5, 1.5))
        direct = np.zeros(2)
        for j, cj in enumerate(m.coeffs):
            mat = sum(cj[l] * lam**l for l in range(cj.shape[0]))
            direct += mat @ kron_power(x, j)
        assert np.allclose(eval_eps(m, x, lam), direct, rtol=1e-12, atol=1e-12)


def test_jacobian_eps_finite_difference():
    rng = np.random.default_rng(3)
    cases = [random_scalar(rng), random_separable(rng, d=3), random_kron(rng, d=2), random_kron(rng, d=5)]
    for m in cases:
        x = rng.normal(size=m.d)
        lam = 0.6
        J = jacobian_eps(m, x, lam)
        fd = np.empty((m.d, m.d))
        h = 1e-6
        for c in range(m.d):
            e = np.zeros(m.d)
            e[c] = h
            fd[:, c] = (eval_eps(m, x + e, lam) - eval_eps(m, x - e, lam)) / (2 * h)
        assert np.allclose(J, fd, atol=1e-8)


def test_jacobian_separable_is_diagonal():
    rng = np.random.default_rng(4)
    m = random_separable(rng, d=5)
    J = jacobian_eps(m, rng.normal(size=5), 0.2)
    assert np.allclose(J, np.diag(np.diag(J)))


def test_dx_dlambda_definition():
    rng = np.random.default_rng(5)
    m = random_kron(rng, d=2)
    x = rng.normal(size=2)
    lam = 0.9
    sig = float(S.sigma_from_lam(lam))
    expected = sig**2 * x - sig * eval_eps(m, x, lam)
    assert np.allclose(dx_dlambda(S, m, x, lam), expected, rtol=1e-14)


def test_drift_jacobian_finite_difference():
    rng = np.random.default_rng(6)
    m = random_kron(rng, d=2)
    x = rng.normal(size=2)
    t = 0.45
    lam = float(S.lam(t))

    def drift(z):
        return float(S.f(t)) * z + float(S.g2(t)) / (2 * float(S.sigma(t))) * eval_eps(
            m, z, lam
        )

    J = drift_jacobian(S, m, x, t)
    h = 1e-6
    fd = np.empty((2, 2))
    for c in range(2):
        e = np.zeros(2)
        e[c] = h
        fd[:, c] = (drift(x + e) - drift(x - e)) / (2 * h)
    assert np.allclose(J, fd, atol=1e-6)


def test_drift_jacobian_rejects_singular_times():
    m = zero_model()
    with pytest.raises(ValueError):
        drift_jacobian(S, m, [1.0], 1e-9)
    with pytest.raises(ValueError):
        drift_eigenvalues(S, m, [1.0], 0.0)


def test_drift_eigenvalues_match_dense_path():
    rng = np.random.default_rng(7)
    for m in (random_separable(rng, d=6), random_kron(rng, d=2)):
        x = rng.normal(size=m.d)
        t = 0.3
        J = drift_jacobian(S, m, x, t)
        dense = np.linalg.eigvalsh(J + J.T)
        assert np.allclose(drift_eigenvalues(S, m, x, t), dense, atol=1e-10)


def test_drift_eigenvalues_zero_model():
    # with eps identically zero the symmetrised Jacobian is 2 f(t) I
    for t in (0.05, 0.4, 1.0):
        eig = drift_eigenvalues(S, zero_model(d=3, mode="separable"), np.ones(3), t)
        assert np.all(eig == 2.0 * float(S.f(t)))


def flow_eps_samples(m, x0, lam_c, deltas):
    """eps evaluated along the exact flow at lam_c + delta for each delta."""

    def rhs(lam, x):
        return dx_dlambda(S, m, x, lam)

    out = []
    for d in deltas:
        if d == 0.0:
            x = np.asarray(x0, dtype=float)
        else:
            sol = solve_ivp(
                rhs, (lam_c, lam_c + d), np.asarray(x0, dtype=float),
                rtol=1e-12, atol=1e-14, dense_output=False,
            )
            x = sol.y[:, -1]
        out.append(eval_eps(m, x, lam_c + d))
    return out


def check_total_derivatives(m, x0, lam_c):
    e_m2, e_m1, e_0, e_p1, e_p2 = flow_eps_samples(
        m, x0, lam_c, (-2e-3, -1e-3, 0.0, 1e-3, 2e-3)
    )
    d = 1e-3
    fd = {
        1: (e_p1 - e_m1) / (2 * d),
        2: (e_p1 - 2 * e_0 + e_m1) / d**2,
        3: (e_p2 - 2 * e_p1 + 2 * e_m1 - e_m2) / (2 * d**3),
    }
    tol = {1: 1e-5, 2: 1e-4, 3: 1e-2}
    for n in (1, 2, 3):
        dn = total_derivative_poly(S, m, n, lam_c)
        got = eval_eps(dn, x0, lam_c)
        scale = max(1.0, float(np.linalg.norm(fd[n])))
        assert np.allclose(got, fd[n], atol=tol[n] * scale), (
            f"order {n}: {got} vs finite difference {fd[n]}"
        )


def test_total_derivative_scalar_flow_oracle():
    m = scalar_model({(0, 0): 0.1, (1, 0): -0.8, (2, 0): 0.3, (1, 1): 0.2})
    for lam_c, x0 in ((0.2, [0.9]), (1.1, [-0.4]), (2.0, [1.3])):
        check_total_derivatives(m, x0, lam_c)


def test_total_derivative_kron_flow_oracle():
    rng = np.random.default_rng(8)
    m = kron_model(
        2,
        {
            0: rng.normal(scale=0.2, size=(2, 2, 1)),
            1: rng.normal(scale=0.3, size=(2, 2, 2)),
            2: rng.normal(scale=0.2, size=(1, 2, 4)),
        },
    )
    check_total_derivatives(m, rng.normal(size=2), 0.8)


def test_total_derivative_constant_model_vanishes():
    m = scalar_model({(0, 0): 1.7})
    for n in (1, 2, 3):
        dn = total_derivative_poly(S, m, n, 0.5)
        assert eval_eps(dn, [2.3], 0.5)[0] == pytest.approx(0.0, abs=1e-15)


def test_total_derivative_identity_model_closed_form():
    # for eps = x the first total derivative is the flow velocity itself
    m = scalar_model({(1, 0): 1.0})
    lam_c, x0 = 0.7, 1.9
    sig = float(S.sigma_from_lam(lam_c))
    d1 = total_derivative_poly(S, m, 1, lam_c)
    assert eval_eps(d1, [x0], lam_c)[0] == pytest.approx(
        sig**2 * x0 - sig * x0, rel=1e-12
    )


def test_total_derivative_order_zero_is_identity():
    m = scalar_model({(2, 1): 0.4})
    assert total_derivative_poly(S, m, 0, 0.3) is m


def test_capacity_limits():
    with pytest.raises(CapacityError):
        scalar_model(np.ones((26, 1)))
    # 4 845 monomials of degree 16 at d=5: refused before the 5^16 Kronecker
    # columns, here a zero-stride view, or any missing degree is copied
    assert math.comb(5 + 16 - 1, 16) == 4845 > MAX_MONOMIALS >= math.comb(5 + 15 - 1, 15)
    with pytest.raises(CapacityError, match="monomial count 4845"):
        kron_model(5, {16: np.broadcast_to(0.0, (1, 5, 5**16))})
    m = scalar_model(np.ones((13, 1)))
    with pytest.raises(CapacityError):
        total_derivative_poly(S, m, 2, 0.5)
    # at d=8 a degree-5 model (792 monomials) differentiates to degree 9
    # (11 440), which the tower refuses before the pass
    with pytest.raises(CapacityError, match="monomial count 11440"):
        total_derivative_poly(S, kron_model(8, {5: np.full((8, 8**5), 1e-3)}), 1, 0.5)


def test_constructor_validation():
    with pytest.raises(ValueError):
        PolyNoiseModel(mode="mystery", d=1, coeffs=np.ones((1, 1)))
    with pytest.raises(ValueError):
        PolyNoiseModel(mode="scalar", d=2, coeffs=np.ones((1, 1)))
    with pytest.raises(ValueError):
        separable_model(np.ones((3, 2)))
    with pytest.raises(ValueError):
        kron_model(2, {1: np.ones((2, 3))})
    with pytest.raises(ValueError):
        eval_eps(zero_model(d=2, mode="separable"), [1.0], 0.0)


def test_tabulated_coefficient_matrices_round_trip():
    # the lift reads each degree's (S, d, d^q) blocks, stacked over the
    # points, from the derivative tower's tables
    m = scalar_model({(0, 0): 0.5, (2, 1): -0.3})
    mats = _degree_blocks(_derivative_tower(S, m, 1, [1.0, 2.0])[0])
    assert set(mats) == {0, 2}
    assert all(B.shape == (2, 1, 1) for B in mats.values())
    assert mats[0][1, 0, 0] == 0.5
    assert mats[2][1, 0, 0] == pytest.approx(-0.6)
    assert mats[2][0, 0, 0] == pytest.approx(-0.3)

    rng = np.random.default_rng(9)
    # a kron model's blocks are on the monomials of each degree
    mk = random_kron(rng, d=2, jmax=2)
    x = rng.normal(size=2)
    lams = [0.25, -1.0]
    (table,) = _derivative_tower(S, mk, 1, lams)
    mats = _degree_blocks(table)
    assert all(B.shape == (2, 2, j + 1) for j, B in mats.items())
    for c, lam in enumerate(lams):
        rebuilt = sum(B[c] @ monomials(x, j) for j, B in mats.items())
        assert np.allclose(rebuilt, eval_eps(mk, x, lam), rtol=1e-12)


def test_kron_coefficients_stay_as_given():
    # the folded blocks live beside the given ones, which callers read back
    rng = np.random.default_rng(10)
    for d in (1, 2, 3, 6):
        given = {0: rng.normal(size=(d, 1)), 2: rng.normal(size=(3, d, d * d))}
        m = kron_model(d, given)
        assert np.array_equal(m.coeffs[0][0], given[0])
        assert np.array_equal(m.coeffs[1], np.zeros((1, d, d)))
        assert np.array_equal(m.coeffs[2], given[2])
        assert [B.shape for B in m.blocks] == [(1, d, 1), (1, d, d), (3, d, d * (d + 1) // 2)]


def test_zero_model_modes():
    for mode, d in (("separable", 1), ("separable", 3), ("kron", 2)):
        m = zero_model(d=d, mode=mode)
        assert m.d == d
        assert np.allclose(eval_eps(m, np.ones(d), 0.4), 0.0)
    for mode in ("scalar", "mystery"):
        with pytest.raises(ValueError):
            zero_model(d=2, mode=mode)
