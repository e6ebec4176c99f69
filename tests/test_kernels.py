import math

import numpy as np
import pytest
from scipy import special

from orthopoly import families as F
from orthopoly import kernels as K
from orthopoly import measures as M
from orthopoly import recurrence as R
from orthopoly.discrete import charlier, charlier_system
from orthopoly.discrete import family_measure as discrete_family_measure
from orthopoly.families import (family_measure, hermite_system,
                                laguerre_system, legendre, legendre_system)

rng = np.random.default_rng(42)


def legendre_setup(n_max=40):
    sys = legendre_system()
    norms = R.norms_from_recurrence(sys, 2.0, 1.0, n_max)
    return sys, norms


def test_rule_validation():
    with pytest.raises(K.KernelError):
        K.QuadratureRule(nodes=[0.0, 1.0], weights=[1.0], exactness_degree=1)
    with pytest.raises(K.KernelError):
        K.QuadratureRule(nodes=[1.0, 0.0], weights=[1.0, 1.0],
                         exactness_degree=1)
    with pytest.raises(K.KernelError):
        K.QuadratureRule(nodes=[0.0, 1.0], weights=[1.0, -1.0],
                         exactness_degree=1)


def test_rule_apply():
    rule = K.QuadratureRule(nodes=[-1.0, 1.0], weights=[1.0, 1.0],
                            exactness_degree=1)
    assert rule.apply(lambda x: x * x) == 2.0


def test_kernel_degree_zero_is_inverse_mass():
    sys, norms = legendre_setup()
    assert K.cd_kernel(sys, norms, 0, 0.3, -0.8) == pytest.approx(0.5)


def test_kernel_legendre_at_one():
    # with h_j = 2/(2j+1): K_1(1,1) = 1/2 + 3/2 = 2
    sys, norms = legendre_setup()
    assert K.cd_kernel(sys, norms, 1, 1.0, 1.0) == pytest.approx(2.0)
    # K_n(1,1) = sum (2j+1)/2 = (n+1)^2/2
    for n in range(6):
        assert K.cd_kernel(sys, norms, n, 1.0, 1.0) == pytest.approx(
            (n + 1) ** 2 / 2.0, rel=1e-12)


def test_kernel_sum_vs_closed_random():
    sys, norms = legendre_setup()
    for _ in range(50):
        n = int(rng.integers(1, 15))
        x, y = rng.uniform(-1, 1, size=2)
        if abs(x - y) < 1e-3:
            continue
        s = K.cd_kernel(sys, norms, n, x, y, method="sum")
        c = K.cd_kernel(sys, norms, n, x, y, method="closed")
        assert c == pytest.approx(s, rel=1e-10, abs=1e-10)


def test_kernel_confluent_path():
    sys, norms = legendre_setup()
    s = K.cd_kernel(sys, norms, 8, 0.4, 0.4, method="sum")
    auto = K.cd_kernel(sys, norms, 8, 0.4, 0.4 + 1e-9)
    assert auto == pytest.approx(s, rel=1e-7)
    exact = K.cd_kernel(sys, norms, 8, 0.4, 0.4)
    assert exact == pytest.approx(s, rel=1e-12)


def _mp_orthonormal_kernel(family, n, x, y):
    """sum_{j<=n} p~_j(x) p~_j(y) at 50 digits, from the closed-form
    orthonormal recurrence: Hermite (weight e^{-x^2}) or Laguerre(1/2)."""
    import mpmath

    with mpmath.workdps(50):
        x, y = mpmath.mpf(x), mpmath.mpf(y)
        if family == "hermite":
            p0 = mpmath.pi ** mpmath.mpf(-0.25)
            e = [mpmath.sqrt(mpmath.mpf(j + 1) / 2) for j in range(n + 1)]
            b = [0] * (n + 1)
        else:
            a = mpmath.mpf(1) / 2
            p0 = 1 / mpmath.sqrt(mpmath.gamma(a + 1))
            e = [mpmath.sqrt((j + 1) * (j + 1 + a)) for j in range(n + 1)]
            b = [2 * j + a + 1 for j in range(n + 1)]
        total, px, py, qx, qy = 0, p0, p0, 0, 0
        for j in range(n + 1):
            total += px * py
            e_prev = e[j - 1] if j else 0
            px, qx = ((x - b[j]) * px - e_prev * qx) / e[j], px
            py, qy = ((y - b[j]) * py - e_prev * qy) / e[j], py
        return float(total)


@pytest.mark.parametrize("n", (200, 1000))
@pytest.mark.parametrize("family, sys, mu0, pairs", [
    ("hermite", hermite_system(), math.sqrt(math.pi),
     ((0.3, -1.7), (2.5, 2.5), (-4.0, 6.5), (1.1, 1.1))),
    ("laguerre", laguerre_system(0.5), math.gamma(1.5),
     ((0.7, 5.0), (3.0, 3.0), (12.0, 0.2), (40.0, 40.0)))],
    ids=("hermite", "laguerre"))
def test_kernel_forms_agree_past_the_classical_norm_range(family, sys, mu0,
                                                          pairs, n):
    # Hermite's h_n overflows and Laguerre's k_n underflows before n = 200;
    # the kernel on the orthonormal chain needs neither
    norms = R.norms_from_recurrence(sys, mu0, 1.0, n + 1)
    tol = n * np.finfo(float).eps
    for x, y in pairs:
        s = K.cd_kernel(sys, norms, n, x, y, method="sum")
        c = K.cd_kernel(sys, norms, n, x, y)   # confluent when x == y
        scale = math.sqrt(K.cd_kernel(sys, norms, n, x, x)
                          * K.cd_kernel(sys, norms, n, y, y))
        assert math.isfinite(s) and math.isfinite(scale)
        assert abs(s - c) <= tol * scale
        if n == 200:
            ref = _mp_orthonormal_kernel(family, n, x, y)
            assert abs(s - ref) <= tol * scale
            assert abs(c - ref) <= tol * scale


def test_kernel_rejects_bad_method():
    sys, norms = legendre_setup()
    with pytest.raises(K.KernelError):
        K.cd_kernel(sys, norms, 2, 0.1, 0.2, method="nope")


def test_projection_reproduces_low_degree():
    sys, norms = legendre_setup()
    m = family_measure(legendre())
    f = lambda x: R.eval_poly(sys, 2, x)
    for x in (-0.6, 0.0, 0.8):
        assert K.project(sys, norms, 3, f, m, x) == pytest.approx(
            f(x), abs=1e-10)
    assert K.project(sys, norms, 2, lambda x: 1.0, m, 0.4) == pytest.approx(
        1.0, abs=1e-10)


def test_projection_truncates_cubic():
    # x^3 = (2/5) P_3 + (3/5) P_1, so Pi_2 x^3 = 3x/5
    sys, norms = legendre_setup()
    m = family_measure(legendre())
    for x in (-0.5, 0.3, 0.9):
        assert K.project(sys, norms, 2, lambda y: y ** 3, m,
                         x) == pytest.approx(0.6 * x, abs=1e-10)


def test_kernel_polys_legendre():
    sys, norms = legendre_setup()
    qs = K.kernel_polys(sys, norms, 1.0, 3, support_upper=1.0)
    assert qs[0](0.3) == pytest.approx(0.5)
    # q_1(x) = 1/2 + 3x/2
    assert qs[1](0.4) == pytest.approx(0.5 + 1.5 * 0.4)


def test_kernel_polys_rejects_interior_y():
    sys, norms = legendre_setup()
    with pytest.raises(K.KernelError):
        K.kernel_polys(sys, norms, 0.5, 3, support_upper=1.0)


def test_kernel_poly_bilinear_identity():
    sys, norms = legendre_setup()
    for n in (1, 4, 9):
        for x, y in ((-0.3, 0.7), (0.2, 0.9)):
            assert abs(K.kernel_poly_bilinear_residual(
                sys, norms, n, x, y)) < 1e-12


def test_zeros_legendre_two():
    got = K.zeros(legendre_system(), None, 2)
    assert got == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)])


def test_zeros_hermite_small():
    assert K.zeros(hermite_system(), None, 1) == pytest.approx([0.0])
    assert K.zeros(hermite_system(), None, 2) == pytest.approx(
        [-1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_zeros_requires_favard():
    bad = R.RecurrenceSystem(lambda n: (1.0, 0.0, -1.0), form="monic")
    with pytest.raises(R.RecurrenceError):
        K.zeros(bad, None, 3)
    with pytest.raises(K.KernelError):
        K.zeros(legendre_system(), None, 0)


def _no_quadrature(*args, **kwargs):
    raise AssertionError("gauss_rule must not integrate the measure")


def test_gauss_rule_legendre_two_point(monkeypatch):
    # mu_0 comes from norms.h[0] in closed form, not from quadrature
    monkeypatch.setattr(K, "integrate", _no_quadrature)
    sys, norms = legendre_setup()
    m = family_measure(legendre())
    rule = K.gauss_rule(sys, norms, m, 2)
    assert rule.nodes == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)])
    assert rule.weights == pytest.approx([1.0, 1.0])
    assert rule.exactness_degree == 3
    # exact on cubics
    assert rule.apply(lambda x: x ** 3 + x ** 2) == pytest.approx(2.0 / 3.0)
    # degree 4 misses: rule gives 2/9, truth is 2/5
    assert rule.apply(lambda x: x ** 4) == pytest.approx(2.0 / 9.0)


def test_gauss_rule_one_point_is_mean():
    sys, norms = legendre_setup()
    m = family_measure(legendre())
    rule = K.gauss_rule(sys, norms, m, 1)
    assert rule.nodes == pytest.approx([0.0], abs=1e-15)
    assert rule.weights == pytest.approx([2.0])
    # orthonormal form: p_0 = 1/sqrt(2) and h_0 = 1, so the weights still sum
    # to h_0 / p_0^2 = mu_0 = 2
    on = R.convert_form(sys, norms, "orthonormal")
    assert on.p0 == pytest.approx(1 / math.sqrt(2))
    on_norms = R.norms_from_recurrence(on, 1.0, on.p0, 6)
    for n in (1, 2, 5):
        rule = K.gauss_rule(on, on_norms, m, n)
        assert rule.weights.sum() == pytest.approx(
            on_norms.h[0] / on.p0 ** 2, rel=1e-14)


def test_lagrange_weights_cross_check():
    sys, norms = legendre_setup()
    m = family_measure(legendre())
    for n in (2, 4, 7):
        rule = K.gauss_rule(sys, norms, m, n)
        lw = K.lagrange_weights(rule.nodes, m)
        assert lw == pytest.approx(rule.weights, rel=1e-10)


def test_finite_discrete_system_legendre():
    sys, norms = legendre_setup()
    m = family_measure(legendre())
    rule = K.gauss_rule(sys, norms, m, 2)
    rep = K.finite_discrete_system(rule, sys, norms, 2)
    assert rep.max_offdiag < 1e-13
    assert np.all(rep.diag_errors < 1e-12)
    assert rep.recovered_weights == pytest.approx([1.0, 1.0])
    assert rep.weight_error < 1e-12


def test_finite_discrete_system_charlier(monkeypatch):
    monkeypatch.setattr(K, "integrate", _no_quadrature)
    a = 1.0
    sys = charlier_system(a)
    norms = R.norms_from_recurrence(sys, 1.0, 1.0, 6)
    m = discrete_family_measure(charlier(a), normalized=True)
    rule = K.gauss_rule(sys, norms, m, 3)
    # the normalized Charlier measure has mass h_0 = 1
    assert rule.weights.sum() == pytest.approx(1.0, rel=1e-14)
    rep = K.finite_discrete_system(rule, sys, norms, 3)
    # h_n = a^{-n} n! at a=1: 1, 1, 2
    assert np.diag(rep.gram) == pytest.approx([1.0, 1.0, 2.0], rel=1e-9)
    assert rep.max_offdiag < 1e-9
    assert rep.weight_error < 1e-9


def test_finite_discrete_system_size_mismatch():
    sys, norms = legendre_setup()
    m = family_measure(legendre())
    rule = K.gauss_rule(sys, norms, m, 2)
    with pytest.raises(K.KernelError):
        K.finite_discrete_system(rule, sys, norms, 3)


# ---------------------------------------------------------------------------
# the half-size route for zero-diagonal Jacobi matrices

EPS = np.finfo(float).eps
ROUTE_N = (1, 2, 3, 4, 5, 25, 51, 200, 1000)
SYMMETRIC = {
    "legendre": (F.legendre(), special.roots_legendre),
    "hermite": (F.hermite(), special.roots_hermite),
    "gegenbauer": (F.gegenbauer(1.5),
                   lambda n: special.roots_gegenbauer(n, 1.5)),
    "chebyshev_t": (F.chebyshev_t(), special.roots_chebyt),
    "chebyshev_u": (F.chebyshev_u(), special.roots_chebyu),
}


def monic_rule(sys, mu0, n):
    return K.gauss_rule(sys, R.norms_from_recurrence(sys, mu0, 1.0, 0),
                        None, n)


def normwise(x, ref, floor=0.0):
    return np.max(np.abs(x - ref)) / max(np.max(np.abs(ref)), floor)


@pytest.mark.parametrize("family", sorted(SYMMETRIC))
def test_half_size_route_against_scipy(family):
    spec, roots = SYMMETRIC[family]
    sys, mu0 = F.family_monic_system(spec), F.family_mu0(spec)
    for n in ROUTE_N:
        x_ref, w_ref = roots(n)
        tol = 100 * n * EPS
        zs = K.zeros(sys, None, n)
        # the single zero of p_1 is 0: measure node errors against scale 1
        assert normwise(zs, x_ref, 1.0) <= tol, n
        assert np.array_equal(zs, -zs[::-1])
        if (family, n) == ("hermite", 1000):
            # 276 of the 1000 weights lie below the double range
            with pytest.raises(K.KernelError):
                monic_rule(sys, mu0, n)
            continue
        rule = monic_rule(sys, mu0, n)
        assert np.array_equal(rule.nodes, zs)
        assert np.array_equal(rule.weights, rule.weights[::-1])
        assert abs(rule.weights.sum() - mu0) <= tol * mu0, n
        if (family, n) != ("legendre", 1000):
            # scipy's own Legendre weights are 4e-11 off at n = 1000; see
            # test_legendre_1000_weights_against_mpmath
            assert normwise(rule.weights, w_ref) <= tol, n


def test_legendre_1000_weights_against_mpmath():
    """Both ends, where node rounding weighs most on a weight, the quarter
    points and the centre, against 30-digit weights
    2 / ((1 - x^2) P_n'(x)^2) at Newton-refined zeros."""
    import mpmath

    n = 1000
    rule = monic_rule(F.family_monic_system(F.legendre()), 2.0, n)
    with mpmath.workdps(30):
        def p_and_dp(x):
            p_prev, p = mpmath.mpf(0), mpmath.mpf(1)
            for j in range(n):
                p, p_prev = ((2 * j + 1) * x * p - j * p_prev) / (j + 1), p
            return p, n * (x * p - p_prev) / (x * x - 1)

        for k in (0, n // 4, n // 2 - 1, 3 * n // 4, n - 1):
            x = mpmath.mpf(rule.nodes[k])
            for _ in range(2):
                p, dp = p_and_dp(x)
                x -= p / dp
            w = 2 / ((1 - x * x) * p_and_dp(x)[1] ** 2)
            assert abs(rule.weights[k] - float(w)) <= (
                100 * n * EPS * rule.weights.max()), k


def test_hermite_200_keeps_every_weight():
    # the weights fall to 2.2e-163; the full eigensolve returned 6 of them
    # as 0 and most of the tail wrong by orders of magnitude
    x_ref, w_ref = special.roots_hermite(200)
    rule = monic_rule(F.family_monic_system(F.hermite()), math.sqrt(math.pi),
                      200)
    assert rule.weights.min() < 1e-162
    assert np.max(np.abs(rule.weights - w_ref) / w_ref) < 1e-8


def with_diagonal(sys, j, b):
    """`sys` with b_j replaced by `b`."""
    def coeff(i):
        a, b_i, c = sys.coeffs(i)
        return a, (b if i == j else b_i), c

    return R.RecurrenceSystem(coeff, form=sys.form, p0=sys.p0)


def full_golub_welsch(sys, mu0, n):
    """Nodes and weights of the full n x n eigensolve."""
    from scipy.linalg import eigh_tridiagonal

    diag, off = K.jacobi_matrix(sys, n)
    vals, vecs = eigh_tridiagonal(diag, off)
    order = np.argsort(vals)
    return vals[order], mu0 * vecs[0, order] ** 2


def test_one_nonzero_diagonal_entry_takes_the_full_eigensolve(monkeypatch):
    sys = F.family_monic_system(F.legendre())
    n = 25
    half_rule = monic_rule(sys, 2.0, n)
    bumped = with_diagonal(sys, 7, 1e-300)

    def refuse(off):
        raise AssertionError("half-size route taken with b_7 != 0")

    monkeypatch.setattr(K, "_half_jacobi", refuse)
    zs = K.zeros(bumped, None, n)
    rule = monic_rule(bumped, 2.0, n)
    assert normwise(zs, half_rule.nodes) <= 100 * n * EPS
    assert normwise(rule.nodes, half_rule.nodes) <= 100 * n * EPS
    assert normwise(rule.weights, half_rule.weights) <= 100 * n * EPS
    with pytest.raises(AssertionError, match="half-size"):
        K.zeros(sys, None, n)


NON_SYMMETRIC = {
    "jacobi": (F.jacobi(0.5, 1.5),
               lambda n: special.roots_jacobi(n, 0.5, 1.5),
               (1, 2, 5, 50, 200, 1000)),
    "laguerre": (F.laguerre(0.5),
                 lambda n: special.roots_genlaguerre(n, 0.5), (1, 2, 5, 50)),
}


@pytest.mark.parametrize("family", ["jacobi", "laguerre", "charlier"])
def test_non_symmetric_rules_against_scipy(family):
    """Rules of continuous measures take eigenvalues and recurrence
    weights, within 100 n eps of scipy.special normwise; the Charlier rule
    on its lattice measure stays the full Golub-Welsch eigensolve."""
    if family == "charlier":
        sys = charlier_system(1.5)
        m = discrete_family_measure(charlier(1.5), normalized=True)
        for n in (1, 2, 5, 50):
            rule = K.gauss_rule(sys, R.norms_from_recurrence(sys, 1.0, 1.0, 0),
                                m, n)
            nodes, weights = full_golub_welsch(sys, 1.0, n)
            np.testing.assert_array_equal(rule.nodes, nodes)
            np.testing.assert_array_equal(rule.weights, weights)
        return
    spec, roots, degrees = NON_SYMMETRIC[family]
    sys, mu0 = F.family_monic_system(spec), F.family_mu0(spec)
    for n in degrees:
        x_ref, w_ref = roots(n)
        tol = 100 * n * EPS
        rule = monic_rule(sys, mu0, n)
        assert np.array_equal(rule.nodes, K.zeros(sys, None, n))
        assert normwise(rule.nodes, x_ref, 1.0) <= tol, n
        assert normwise(rule.weights, w_ref) <= tol, n
        assert abs(rule.weights.sum() - mu0) <= tol * mu0, n


@pytest.mark.parametrize("n, value", [(30, 3.49156e-44), (60, 6.16852e-94)])
def test_laguerre_tail_weight_against_mpmath(n, value):
    """The weight of the largest node, where the full eigensolve gave
    1.19e-44 and 6.0e-57, against its 50-digit value
    Gamma(n+a+1) x / (n! (n+1)^2 L_{n+1}^a(x)^2) at the Newton-refined zero."""
    import mpmath

    rule = monic_rule(F.family_monic_system(F.laguerre(0.5)),
                      math.gamma(1.5), n)
    with mpmath.workdps(50):
        a, x = mpmath.mpf(0.5), mpmath.mpf(rule.nodes[-1])
        for _ in range(3):
            x += mpmath.laguerre(n, a, x) / mpmath.laguerre(n - 1, a + 1, x)
        w = float(mpmath.gamma(n + a + 1) * x / (
            mpmath.factorial(n) * (n + 1) ** 2
            * mpmath.laguerre(n + 1, a, x) ** 2))
    assert w == pytest.approx(value, rel=1e-5)
    assert abs(rule.weights[-1] - w) <= 1e-12 * w


def test_recurrence_weights_that_miss_mu0_fall_back_loudly():
    # with no measure given, Charlier's lattice nodes make the forward
    # recurrence unstable: its weights sum to 2.6e-4 at n = 50
    sys = charlier_system(1.5)
    with pytest.warns(RuntimeWarning, match="Golub-Welsch"):
        rule = monic_rule(sys, 1.0, 50)
    nodes, weights = full_golub_welsch(sys, 1.0, 50)
    np.testing.assert_array_equal(rule.nodes, nodes)
    np.testing.assert_array_equal(rule.weights, weights)
