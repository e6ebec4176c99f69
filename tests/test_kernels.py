import math

import numpy as np
import pytest
from scipy import special

from orthopoly import discrete as D
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


@pytest.mark.parametrize("nodes,weights,text", [
    ([0.0, math.nan, 1.0], [1.0, 1.0, 1.0], "must be finite"),
    ([math.nan], [1.0], "must be finite"),
    ([-math.inf, 0.0, 1.0], [1.0, 1.0, 1.0], "must be finite"),
    ([0.0, 0.5, 1.0], [1.0, math.nan, 1.0], "must be finite"),
    ([0.0, 0.5, 1.0], [1.0, math.inf, 1.0], "must be finite"),
    ([0.0, math.inf, math.inf], [1.0, 1.0, 1.0], "strictly increasing"),
    ([[0.0, 1.0], [2.0, 3.0]], [[1.0, 1.0], [1.0, 1.0]], "must be 1-D"),
    ([0.0, 1.0], [[1.0, 1.0]], "must be 1-D"),
    (0.0, 1.0, "must be 1-D"),
    # a rule that fails two checks names the first
    ([1.0, 0.0], [1.0], "count mismatch"),
    ([1.0, 0.0, math.nan], [1.0, 1.0, 1.0], "strictly increasing"),
    ([0.0, 1.0, 2.0], [-1.0, 1.0, math.nan], "strictly positive"),
], ids=["nan-node", "one-nan-node", "infinite-node", "nan-weight",
        "infinite-weight", "infinite-nodes", "2-D", "2-D-weights", "0-D",
        "mismatch-and-decreasing", "decreasing-and-nan", "negative-and-nan"])
def test_a_rule_that_is_not_finite_and_1d_is_refused(nodes, weights, text):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(K.KernelError, match=text):
            K.QuadratureRule(nodes=nodes, weights=weights,
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
        c = K.cd_kernel(sys, norms, n, x, y)
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


def kernel_poly_bilinear_residual(sys, norms, n, x, y):
    """Residual of p_n(y)p_{n+1}(x) - p_{n+1}(y)p_n(x)
    = (h_n k_{n+1}/k_n)(x - y) K_n(x, y), with k_{n+1}/k_n = 1/a_n."""
    pn_x, pn1_x = R.eval_all(sys, n + 1, x)[-2:]
    pn_y, pn1_y = R.eval_all(sys, n + 1, y)[-2:]
    lhs = pn_y * pn1_x - pn1_y * pn_x
    rhs = (norms.h[n] / sys.coeffs(n)[0] * (x - y)
           * K.cd_kernel(sys, norms, n, x, y, method="sum"))
    return (lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)


def test_kernel_poly_bilinear_identity():
    sys, norms = legendre_setup()
    for n in (1, 4, 9):
        for x, y in ((-0.3, 0.7), (0.2, 0.9)):
            assert abs(kernel_poly_bilinear_residual(
                sys, norms, n, x, y)) < 1e-12


def test_zeros_legendre_two():
    got = K.zeros(legendre_system(), None, 2)
    assert got == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)])


def test_zeros_hermite_small():
    assert K.zeros(hermite_system(), None, 1) == pytest.approx([0.0])
    assert K.zeros(hermite_system(), None, 2) == pytest.approx(
        [-1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_zeros_requires_favard():
    bad = R.RecurrenceSystem(lambda j: (1.0, 0.0, -1.0), form="monic")
    with pytest.raises(R.RecurrenceError):
        K.zeros(bad, None, 3)
    with pytest.raises(K.KernelError):
        K.zeros(legendre_system(), None, 0)


def _no_quadrature(*args, **kwargs):
    raise AssertionError("gauss_rule must not integrate the measure")


def test_gauss_rule_legendre_two_point(monkeypatch):
    # mu_0 comes from norms.h[0] in closed form, not from quadrature
    monkeypatch.setattr(M, "integrate", _no_quadrature)
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


def finite_discrete_system(rule, sys, norms, n):
    """The Gram matrix of p_0..p_{n-1} on the rule's nodes, and the weights
    recovered from the homogeneous system sum_k w_k p_j(x_k) = 0, j >= 1,
    scaled to the mass h_0."""
    if len(rule.nodes) != n:
        raise K.KernelError(f"rule has {len(rule.nodes)} nodes, expected {n}")
    P = R.eval_all(sys, n - 1, rule.nodes)   # (n, n)
    gram = P @ np.diag(rule.weights) @ P.T
    # weights up to scale: nullspace of the rows j = 1..n-1
    _, _, vt = np.linalg.svd(P[1:])
    w = vt[-1]
    if np.all(w <= 0):
        w = -w
    if np.any(w <= 0):
        raise K.KernelError("rank deficiency or sign-indefinite recovery; "
                            "check for duplicate nodes")
    w *= norms.h[0] / w.sum()
    return gram, w


def max_offdiag(gram):
    return np.max(np.abs(gram - np.diag(np.diag(gram))))


def test_finite_discrete_system_legendre():
    sys, norms = legendre_setup()
    m = family_measure(legendre())
    rule = K.gauss_rule(sys, norms, m, 2)
    gram, weights = finite_discrete_system(rule, sys, norms, 2)
    assert max_offdiag(gram) < 1e-13
    assert np.all(np.abs(np.diag(gram) - norms.h[:2]) < 1e-12)
    assert weights == pytest.approx([1.0, 1.0])
    assert np.max(np.abs(weights - rule.weights)) < 1e-12


def test_finite_discrete_system_charlier(monkeypatch):
    monkeypatch.setattr(M, "integrate", _no_quadrature)
    a = 1.0
    sys = charlier_system(a)
    norms = R.norms_from_recurrence(sys, 1.0, 1.0, 6)
    m = discrete_family_measure(charlier(a), normalized=True)
    rule = K.gauss_rule(sys, norms, m, 3)
    # the normalized Charlier measure has mass h_0 = 1
    assert rule.weights.sum() == pytest.approx(1.0, rel=1e-14)
    gram, weights = finite_discrete_system(rule, sys, norms, 3)
    # h_n = a^{-n} n! at a=1: 1, 1, 2
    assert np.diag(gram) == pytest.approx([1.0, 1.0, 2.0], rel=1e-9)
    assert max_offdiag(gram) < 1e-9
    assert np.max(np.abs(weights - rule.weights)) < 1e-9


def test_finite_discrete_system_size_mismatch():
    sys, norms = legendre_setup()
    m = family_measure(legendre())
    rule = K.gauss_rule(sys, norms, m, 2)
    with pytest.raises(K.KernelError):
        finite_discrete_system(rule, sys, norms, 3)


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
    def rows(i):
        a, b_i, c = sys.arrays(i[-1])[:, i]
        return a, np.where(i == j, b, b_i), c

    return R.RecurrenceSystem(rows, form=sys.form, p0=sys.p0)


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
    # sys keeps its zeros of order n; a fresh system solves again
    with pytest.raises(AssertionError, match="half-size"):
        K.zeros(F.legendre_system(), None, n)


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


# Up to order K._DENSE_MAX_ORDER the eigensolves run through numpy's LAPACK;
# the scipy drivers they replace there give the same bits.  The two are
# separately built LAPACKs (checked with the numpy 2.4 wheel on OpenBLAS
# 0.3.31 and the scipy 1.17 wheel on OpenBLAS 0.3.30), so bit equality is a
# property of those builds: another build (MKL, Accelerate, other FMA
# contraction) may differ in the last bits.

def scipy_eigenvalues(diag, off):
    """Eigenvalues by scipy's dsterf, or by its dpteqr on the half-size
    problem when diag is 0 (mirrored, as `zeros` mirrors them)."""
    from scipy.linalg import lapack

    if not diag.any():
        d, e = K._half_jacobi(off)
        t = d.copy() if len(d) < 2 else lapack.dpteqr(
            d, e, np.zeros((1, 1)), compute_z=0)[0][::-1]
        half = np.sqrt(t)
        return np.concatenate((-half[::-1], [0.0][:len(diag) % 2], half))
    return diag.copy() if len(diag) < 2 else lapack.dsterf(diag, off)[0]


def test_dense_eigenvalues_equal_dsterf():
    gen = np.random.default_rng(1969)
    systems = [F.family_monic_system(F.jacobi(0.5, 1.5)),
               F.family_monic_system(F.laguerre(0.5)), charlier_system(2.0)]
    for n in range(1, 111):
        for sys in systems:
            diag, off = K.jacobi_matrix(sys, n)
            assert np.array_equal(K.zeros(sys, None, n),
                                  scipy_eigenvalues(diag, off)), n
        diag, off = gen.uniform(-1, 1, n), gen.uniform(0.5, 2, n - 1)
        assert np.array_equal(K._eigenvalues(diag, off),
                              scipy_eigenvalues(diag, off)), n


@pytest.mark.parametrize("spec", [F.legendre(), F.hermite(),
                                  F.gegenbauer(1.5), F.gegenbauer(-0.4),
                                  F.chebyshev_t(), F.chebyshev_u()],
                         ids=["legendre", "hermite", "gegenbauer(1.5)",
                              "gegenbauer(-0.4)", "chebyshev_t",
                              "chebyshev_u"])
def test_dense_half_size_route_equals_dpteqr(spec):
    # n // 2 crosses the limit of 96 at n = 194
    sys = F.family_monic_system(spec)
    for n in range(1, 201):
        diag, off = K.jacobi_matrix(sys, n)
        assert np.array_equal(K.zeros(sys, None, n),
                              scipy_eigenvalues(diag, off)), n


def test_half_size_route_refuses_an_indefinite_matrix():
    # C^T C is positive definite; a matrix that is not fails loudly
    with pytest.raises(K.KernelError, match="positive definite"):
        K._half_eigvals(np.array([1.0, 1.0, 1.0]), np.array([2.0, 0.5]))


@pytest.mark.parametrize("method", ["auto", "sum"])
def test_kernel_on_arrays_matches_scalar_calls(method):
    # distinct pairs take the closed form, near-equal ones the confluent one
    sys, norms = legendre_setup()
    x = np.array([-0.9, 0.3, 0.5, 0.7, 0.25])
    y = np.array([0.4, 0.3, 0.5 + 1e-9, -0.7, 0.8])
    for n in (0, 1, 7, 30):
        got = K.cd_kernel(sys, norms, n, x, y, method=method)
        ref = [K.cd_kernel(sys, norms, n, float(u), float(v), method=method)
               for u, v in zip(x, y)]
        assert got.shape == x.shape
        assert got.tobytes() == np.array(ref).tobytes(), n


def _parent_cd_kernel(sys, norms, n, x, y, method="auto"):
    """cd_kernel as it was assembled before its one-pass forms, the
    reference of its bits: an `eval_all` pass each over x and y (for "sum",
    whose products are added in degree order from that of degree 0, and for
    the closed form of "auto" at the distinct pairs), and an
    `eval_all_derivatives` pass over the x of the near pairs."""
    on = R.convert_form(sys, norms, "orthonormal")
    scalar = np.ndim(x) == 0 and np.ndim(y) == 0
    if not scalar:
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float),
                                   np.asarray(y, dtype=float))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if method == "sum":
            p, q = R.eval_all(on, n, x), R.eval_all(on, n, y)
            if not scalar:
                return np.cumsum(p * q, axis=0)[-1]
            total = p[0] * q[0]
            for u, v in zip(p[1:], q[1:]):
                total += u * v
            return total
        pref = on.coeffs(n)[0]

        def closed(x, y):
            pn_x, pn1_x = R.eval_all(on, n + 1, x)[-2:]
            pn_y, pn1_y = R.eval_all(on, n + 1, y)[-2:]
            return pref * (pn1_x * pn_y - pn_x * pn1_y) / (x - y)

        def confluent(x):
            ps, ds = R.eval_all_derivatives(on, n + 1, x, order=1)
            return pref * (ds[n + 1] * ps[n] - ds[n] * ps[n + 1])

        if scalar:
            if abs(x - y) >= K._CONFLUENT_SWITCH * (1 + abs(x)):
                return float(closed(x, y))
            return float(confluent(x))
        far = np.abs(x - y) >= K._CONFLUENT_SWITCH * (1 + np.abs(x))
        out = np.empty(x.shape)
        out[far] = closed(x[far], y[far])
        out[~far] = confluent(x[~far])
        return out


def _same_bits(got, ref):
    return (type(got) is type(ref) and np.shape(got) == np.shape(ref)
            and np.asarray(got).tobytes() == np.asarray(ref).tobytes())


@pytest.mark.parametrize("n", (0, 1, 2, 30, 1000))
@pytest.mark.parametrize("family, sys, mu0, lo, hi", [
    ("legendre", legendre_system(), 2.0, -1.5, 1.5),
    ("hermite", hermite_system(), math.sqrt(math.pi), -60.0, 60.0),
    ("laguerre", laguerre_system(0.5), math.gamma(1.5), 0.0, 5000.0)],
    ids=("legendre", "hermite", "laguerre"))
def test_kernel_forms_keep_the_bits_of_their_parent_assembly(family, sys,
                                                            mu0, lo, hi, n):
    # far, near (1e-9 apart) and equal pairs, alone and mixed, in 1-D, 2-D
    # and broadcast shapes; at n = 1000 the values at the far ends of the
    # intervals, past the supports, leave the double range (inf or nan)
    norms = R.norms_from_recurrence(sys, mu0, 1.0, n + 1)
    draw = np.random.default_rng(n)
    x = draw.uniform(lo, hi, 12)
    far = draw.uniform(lo, hi, 12)
    near, equal = x + 1e-9 * (1 + abs(x)), x.copy()
    mixed = np.where(np.arange(12) % 3 == 0, far,
                     np.where(np.arange(12) % 3 == 1, near, equal))
    cases = [(x, y) for y in (far, near, equal, mixed)]
    cases += [(x.reshape(3, 4), mixed.reshape(3, 4)),
              (x[:4, None], mixed[None, :3]), (x[:5], float(mixed[0])),
              (x[:1], near[:1]), (x[:0], far[:0])]
    for method in ("auto", "sum"):
        for u, v in cases:
            got = K.cd_kernel(sys, norms, n, u, v, method=method)
            ref = _parent_cd_kernel(sys, norms, n, u, v, method=method)
            assert _same_bits(got, ref), (method, np.shape(u), np.shape(v))
        for i in range(12):
            for y in (far, near, equal):
                for u, v in ((float(x[i]), float(y[i])), (x[i], y[i])):
                    got = K.cd_kernel(sys, norms, n, u, v, method=method)
                    ref = _parent_cd_kernel(sys, norms, n, u, v,
                                            method=method)
                    assert _same_bits(got, ref), (method, type(u), u, v)


@pytest.mark.parametrize("n", (0, 1, 2, 30, 1000))
@pytest.mark.parametrize("sys, mu0, lo, hi", [
    (legendre_system(), 2.0, -1.5, 1.5),
    (hermite_system(), math.sqrt(math.pi), -60.0, 60.0),
    (laguerre_system(0.5), math.gamma(1.5), 0.0, 5000.0)],
    ids=("legendre", "hermite", "laguerre"))
def test_kernel_forms_give_the_same_bits_at_every_shape(sys, mu0, lo, hi, n,
                                                        recwarn):
    # separated, near (1e-9 apart) and equal pairs, pairs of signed zeros,
    # and points whose values leave the double range (at n = 1000, past the
    # supports) or are not finite: each pair alone as floats, as 0-d arrays
    # and as 1-point arrays, and with the others in 1-D, 2-D and broadcast
    # calls, gives the same bits in both forms
    norms = R.norms_from_recurrence(sys, mu0, 1.0, n + 1)
    draw = np.random.default_rng(7 + n)
    x = draw.uniform(lo, hi, 6)
    x = np.concatenate((x, x, x, [0.0, -0.0, -0.0, lo, hi, math.inf]))
    near = x[:6] + 1e-9 * (1 + abs(x[:6]))
    y = np.concatenate((draw.uniform(lo, hi, 6), near, x[:6],
                        [-0.0, 0.0, -0.0, hi, lo, 0.5]))
    for method in ("auto", "sum"):
        many = K.cd_kernel(sys, norms, n, x, y, method=method)
        assert many.shape == x.shape
        for i, (u, v) in enumerate(zip(x.tolist(), y.tolist())):
            alone = [K.cd_kernel(sys, norms, n, u, v, method=method),
                     K.cd_kernel(sys, norms, n, np.array(u), np.array(v),
                                 method=method)]
            assert all(type(got) is float for got in alone)
            alone.append(K.cd_kernel(sys, norms, n, x[i:i + 1], y[i:i + 1],
                                     method=method))
            assert all(np.asarray(got).tobytes() == many[i:i + 1].tobytes()
                       for got in alone), (method, u, v)
        grid = K.cd_kernel(sys, norms, n, x.reshape(4, 6), y.reshape(4, 6),
                           method=method)
        assert grid.tobytes() == many.tobytes()
        cross = K.cd_kernel(sys, norms, n, x[:, None], y[None, :6],
                            method=method)
        assert cross.shape == (len(x), 6)
        for j in range(6):
            column = K.cd_kernel(sys, norms, n, x, np.full(len(x), y[j]),
                                 method=method)
            assert cross[:, j].tobytes() == column.tobytes(), (method, j)
        if n == 1000:
            assert not np.isfinite(many[:-1]).all()
        with pytest.raises(R.RecurrenceError):
            K.cd_kernel(sys, norms, -1, 0.3, 0.4, method=method)
        with pytest.raises(R.RecurrenceError):
            K.cd_kernel(sys, norms, -1, x, y, method=method)
    assert not recwarn.list


def test_kernel_sum_keeps_three_slots_not_a_table():
    # 20000 pairs at n = 1000: a table of the 1001 degrees at the 40000
    # points would take 320 MB; three slots of them take 0.96 MB, and the
    # whole call 1.9 MB with numpy 2.4
    import tracemalloc

    sys = legendre_system()
    norms = R.norms_from_recurrence(sys, 2.0, 1.0, 1001)
    x, y = np.random.default_rng(20000).uniform(-1, 1, (2, 20000))
    K.cd_kernel(sys, norms, 1000, 0.3, 0.4, method="sum")   # grow the rows
    tracemalloc.start()
    try:
        got = K.cd_kernel(sys, norms, 1000, x, y, method="sum")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == x.shape
    assert peak < 32 * 8 * x.size, peak


@pytest.mark.parametrize("spec", [legendre(), F.laguerre(0.5)],
                         ids=("legendre", "laguerre"))
def test_the_cd_check_keeps_its_points_and_bits(spec, monkeypatch):
    # the check's 50 pairs are drawn once per family, by the generator and
    # seed that drew them on every call, and drawn again after a clear
    from orthopoly import identities as I

    draws, draw = [], I._cd_pairs
    monkeypatch.setattr(I, "_cd_pairs",
                        lambda lo, hi: draws.append(lo) or draw(lo, hi))
    b = F.family_bundle(spec)
    lo, hi = (0.2, 8.0) if spec.family == "laguerre" else (-0.95, 0.95)
    for n in (0, 10, 60):
        x, y = np.random.default_rng(20260823).uniform(lo, hi, (50, 2)).T
        u, v = np.concatenate((x, x)), np.concatenate((y, x))
        norms = R.norms_from_recurrence(b.system, b.h0, 1.0, n + 1)
        s = _parent_cd_kernel(b.system, norms, n, u, v, method="sum")
        c = _parent_cd_kernel(b.system, norms, n, u, v)
        ref = ((s - c) / np.maximum(np.abs(s), 1.0))[None]
        got, details = I.IDENTITIES["cd"](spec, n, None)
        assert got.tobytes() == ref.tobytes() and details == {}
    assert len(draws) == 1
    F.clear_systems()
    I.IDENTITIES["cd"](spec, 0, None)
    assert len(draws) == 2


@pytest.mark.parametrize("x, y", [
    (0.1 + 0.2j, 0.3), (0.3, 0.1 + 0.2j), (np.complex128(0.1 + 0.2j), 0.3),
    (np.array([0.1 + 0.2j, 0.5]), np.array([0.3, 0.5])),
    (np.array([0.1, 0.5]), [0.3 + 0j, 0.5])],
    ids=("complex", "complex-y", "complex128", "array", "list"))
@pytest.mark.parametrize("method", ["auto", "sum"])
def test_kernel_refuses_complex_points(x, y, method, recwarn):
    # complex points were cast to their real parts with a ComplexWarning,
    # or raised TypeError, depending on the path
    sys, norms = legendre_setup()
    with pytest.raises(K.KernelError, match="real points"):
        K.cd_kernel(sys, norms, 10, x, y, method=method)
    assert not recwarn.list


# ---------------------------------------------------------------------------
# extreme-zero chains

CHAINS = {
    "legendre": F.legendre(), "jacobi": F.jacobi(0.5, 1.5),
    "laguerre": F.laguerre(0.5), "hermite": F.hermite(),
    "charlier": F.family_spec("charlier", {"a": 2.0}),
    "gegenbauer": F.gegenbauer(-0.4),
}


def sturm_extremes(b, c, k, dps=60):
    """Smallest and largest eigenvalue of the k x k Jacobi matrix of monic
    rows (b_j, c_j), by Sturm-count bisection in `dps`-digit arithmetic
    from the Gershgorin interval to a width of 2^-80 of it."""
    import mpmath

    with mpmath.workdps(dps):
        bs = [mpmath.mpf(v) for v in b[:k]]
        cs = [mpmath.mpf(v) for v in c[:k]]
        tiny = mpmath.mpf(2) ** (-4 * dps)

        def below(x):   # eigenvalues < x: negative pivots of J - x
            count, q = 0, mpmath.mpf(1)
            for j in range(k):
                q = bs[j] - x - (cs[j] / q if j else 0)
                q = q or tiny
                count += q < 0
            return count

        r = max(map(abs, bs)) + 2 * max(map(mpmath.sqrt, cs[1:]))

        def bisect(i):   # the i-th smallest eigenvalue
            lo, hi = -r - 1, r + 1
            for _ in range(80):
                mid = (lo + hi) / 2
                lo, hi = (lo, mid) if below(mid) >= i else (mid, hi)
            return (lo + hi) / 2

        return float(bisect(1)), float(bisect(k))


@pytest.mark.parametrize("family", sorted(CHAINS))
def test_bisection_chains_against_mp_sturm_counts(family):
    # n_max = 120 takes the bisection route for every family, b = 0 or not
    sys = F.family_monic_system(CHAINS[family])
    lo, hi = K.extreme_zeros(sys, 120)
    _, b, c = sys.arrays(120)
    assert lo[0] == hi[0] == b[0]
    for k in (2, 7, 49, 60, 97, 98, 120):
        # the normwise bound of the bisection: ||J_k|| = max|b| + 2 max e
        norm = np.max(np.abs(b[:k])) + 2 * np.sqrt(np.max(c[1:k]))
        ref = sturm_extremes(b, c, k)
        err = max(abs(lo[k - 1] - ref[0]), abs(hi[k - 1] - ref[1]))
        assert err <= 2 * EPS * norm, (k, err / (EPS * norm))
        if family == "laguerre":
            # abstol 2 tiny also keeps Laguerre's smallest zero (0.020 at
            # k = 120) relatively accurate: 2.3e-14, and 1.3e-12 at the
            # default abstol
            assert abs(lo[k - 1] - ref[0]) <= 1e-13 * ref[0], k
    if not b.any():
        assert np.array_equal(lo, -hi)


@pytest.mark.parametrize("family, n_max", [
    ("legendre", 97), ("hermite", 97), ("gegenbauer", 97), ("jacobi", 48),
    ("laguerre", 48), ("charlier", 48)])
def test_dense_chains_are_the_ends_of_zeros(family, n_max):
    # the largest orders of the dense chains: n // 2 <= 48 when b = 0,
    # n <= 48 otherwise
    sys = F.family_monic_system(CHAINS[family])
    lo, hi = K.extreme_zeros(sys, n_max)
    ends = np.array([K.zeros(sys, None, k)[[0, -1]]
                     for k in range(1, n_max + 1)])
    assert lo.tobytes() == ends[:, 0].tobytes()
    assert hi.tobytes() == ends[:, 1].tobytes()


def test_bisection_failure_raises_kernel_error(monkeypatch):
    from scipy.linalg import lapack

    real = lapack.dstebz

    def failing(d, e, *args):
        return 0, np.zeros(len(d)), None, None, 1

    monkeypatch.setattr(lapack, "dstebz", failing)
    # the chains bisect from n_max = 49 on, also where zeros stays dense
    for n_max in (49, 96):
        with pytest.raises(K.KernelError, match="dstebz info 1"):
            K.extreme_zeros(F.family_monic_system(F.jacobi(0.5, 1.5)), n_max)
    with pytest.raises(K.KernelError, match="need n >= 1"):
        K.extreme_zeros(F.family_monic_system(F.jacobi(0.5, 1.5)), 0)

    # a failed bracketed call (range 1 = 'V') raises too; it does not fall
    # back to the interval call (range 2 = 'I')
    calls = []

    def failing_in_bracket(d, e, rng, *args):
        calls.append(rng)
        return (0, np.zeros(len(d)), None, None, 2) if rng == 1 \
            else real(d, e, rng, *args)

    monkeypatch.setattr(lapack, "dstebz", failing_in_bracket)
    with pytest.raises(K.KernelError, match="dstebz info 2"):
        K.extreme_zeros(F.family_monic_system(F.jacobi(0.5, 1.5)), 49)
    # order 2 has no bracket; order 3 tries one, which fails
    assert calls == [2, 1]


def interval_chains(sys, n_max):
    """Both extreme-zero chains, each bisected from the Gershgorin interval
    (dstebz RANGE = 'I') at every order."""
    from scipy.linalg import lapack

    diag, off = K.jacobi_matrix(sys, n_max)

    def bisect(k, i):
        return lapack.dstebz(diag[:k], off[:k - 1], 2, 0.0, 0.0, i, i,
                             2 * np.finfo(float).tiny, "E")[1][0]

    orders = range(2, n_max + 1)
    return (np.array([diag[0]] + [bisect(k, 1) for k in orders]),
            np.array([diag[0]] + [bisect(k, k) for k in orders]))


def chain_norms(sys, n_max):
    """||J_k|| <= max|b_j| + 2 max e_j for the blocks k = 1..n_max."""
    diag, off = K.jacobi_matrix(sys, n_max)
    return (np.maximum.accumulate(np.abs(diag))
            + 2 * np.maximum.accumulate(np.append(0.0, off)))


@pytest.mark.parametrize("sys", [
    # the smallest zero of Charlier sits at rounding level above 0
    F.family_monic_system(F.family_spec("charlier", {"a": 2.0})),
    # c_n = 4^-n: both chains settle within a few orders
    R.from_tables([1.0] * 101, [0.0] * 50 + [0.5] * 51,
                  [0.0] + [4.0 ** -j for j in range(1, 101)], form="monic"),
], ids=["charlier", "geometric"])
def test_chains_with_vanishing_steps_print_nothing(sys, capfd):
    # a step of 0 leaves an empty bracket, which must not reach LAPACK:
    # dstebz prints an illegal-value message on stdout for vl >= vu
    lo, hi = K.extreme_zeros(sys, 100)
    assert capfd.readouterr() == ("", "")
    ref_lo, ref_hi = interval_chains(sys, 100)
    err = np.maximum(np.abs(lo - ref_lo), np.abs(hi - ref_hi))
    assert np.all(err <= 2 * EPS * chain_norms(sys, 100))


@pytest.mark.parametrize("jump", [5.0, -5.0])
def test_weakly_coupled_row_keeps_the_extreme_zero(jump):
    # row 50 jumps to b = +-5 and couples to the rows before it by e =
    # 1e-8: from order 51 the extreme is near b, while the next eigenvalue
    # stays within rounding of the extreme of order 50.  The margin above
    # that extreme keeps the next eigenvalue out of the bracket; without
    # it the bracket returns it (0.998 in place of 5 at order 51).
    b, c = np.zeros(101), np.full(101, 0.25)
    b[50], c[0], c[50] = jump, 0.0, 1e-16
    sys = R.from_tables(np.ones(101), b, c, form="monic")
    lo, hi = K.extreme_zeros(sys, 100)
    diag, off = K.jacobi_matrix(sys, 100)
    norms = chain_norms(sys, 100)
    for k in range(45, 101):
        dense = np.linalg.eigvalsh(np.diag(diag[:k]) + np.diag(off[:k - 1], 1)
                                   + np.diag(off[:k - 1], -1))
        err = max(abs(lo[k - 1] - dense[0]), abs(hi[k - 1] - dense[-1]))
        assert err <= 8 * EPS * norms[k - 1], (k, lo[k - 1], hi[k - 1])


# ---------------------------------------------------------------------------
# the spectral data a system keeps (kernels._spectrum)

# a shared system, and the constructor that builds the same one afresh
SHARED = {
    "legendre": (lambda: F.family_system(legendre()), legendre_system),
    "jacobi": (lambda: F.family_monic_system(F.jacobi(0.5, 1.5)),
               lambda: F.jacobi_monic_system(0.5, 1.5)),
    "laguerre": (lambda: F.family_monic_system(F.laguerre(0.5)),
                 lambda: F.laguerre_monic_system(0.5)),
    "charlier": (lambda: charlier_system(1.5),
                 lambda: R.from_tables(*charlier_system(1.5).arrays(300))),
}
# any measure that is not continuous takes the Golub-Welsch route
LATTICE = M.discrete_measure([0.0, 1.0], [1.0, 1.0])


def bits(x):
    """The dtype, shape and bytes of the arrays of a result."""
    if isinstance(x, K.QuadratureRule):
        return bits(x.nodes) + bits(x.weights) + (x.exactness_degree,)
    if isinstance(x, tuple):
        return sum(map(bits, x), ())
    return (x.dtype.str, x.shape, x.tobytes())


def outcome(fn):
    """The bits of fn(), or its error, and the warnings it gave."""
    import warnings

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = bits(fn())
        except (K.KernelError, R.RecurrenceError) as exc:
            got = (type(exc).__name__, str(exc))
    return got, [(w.category, str(w.message)) for w in caught]


def spectral_calls(sys, n):
    norms = R.norms_from_recurrence(sys, 1.0, 1.0, 0)
    return [lambda: K.zeros(sys, None, n),
            lambda: K.gauss_rule(sys, norms, None, n),
            lambda: K.gauss_rule(sys, norms, LATTICE, n),
            lambda: K.extreme_zeros(sys, 48),
            lambda: K.extreme_zeros(sys, 49)]


def spectral_outcomes(sys, n):
    return [outcome(call) for call in spectral_calls(sys, n)]


@pytest.mark.parametrize("family", sorted(SHARED))
def test_shared_spectra_equal_those_of_a_fresh_system(family):
    # charlier at n >= 50 falls back to Golub-Welsch with a warning, and
    # laguerre at n = 200 refuses (a weight below the double range): both
    # on every call
    shared, build = SHARED[family]
    for n in (1, 10, 49, 200):
        want = spectral_outcomes(build(), n)
        assert spectral_outcomes(shared(), n) == want, n
        assert spectral_outcomes(shared(), n) == want, n


def test_the_mu0_fallback_recurs_on_every_call(monkeypatch):
    real = K._christoffel_denominators
    monkeypatch.setattr(K, "_christoffel_denominators",
                        lambda *args: 2.0 * real(*args))
    shared, build = SHARED["jacobi"]
    want = outcome(lambda: monic_rule(build(), 1.0, 30))
    assert want[1] and "Golub-Welsch" in want[1][0][1]
    for _ in range(2):
        assert outcome(lambda: monic_rule(shared(), 1.0, 30)) == want


@pytest.mark.parametrize("spec", [legendre(), F.jacobi(0.5, 1.5)],
                         ids=["half-size", "dsterf"])
def test_one_eigensolve_per_system_and_order(monkeypatch, spec):
    solved = []
    real = K._eigenvalues

    def counting(diag, off):
        solved.append(len(diag))
        return real(diag, off)

    monkeypatch.setattr(K, "_eigenvalues", counting)
    sys = F.family_monic_system(spec)
    for _ in range(2):
        for n in (10, 200):
            K.zeros(sys, None, n)
            monic_rule(sys, 2.0, n)
    assert solved == [10, 200]


def test_returned_arrays_are_copies():
    sys = F.family_monic_system(F.jacobi(0.5, 1.5))
    want = spectral_outcomes(F.jacobi_monic_system(0.5, 1.5), 10)
    zs = K.zeros(sys, None, 10)
    rules = [monic_rule(sys, 1.0, 10),
             K.gauss_rule(sys, R.norms_from_recurrence(sys, 1.0, 1.0, 0),
                          LATTICE, 10)]
    chains = K.extreme_zeros(sys, 48) + K.extreme_zeros(sys, 49)
    for array in (zs, *chains, *(a for r in rules
                                 for a in (r.nodes, r.weights))):
        array[:] = 7.0
    assert spectral_outcomes(sys, 10) == want


def test_a_system_keeps_the_spectra_of_its_last_orders():
    kept = K._SPECTRA_KEPT
    sys = F.family_monic_system(F.jacobi(0.5, 1.5))
    for n in range(1, 2 * kept + 1):
        K.zeros(sys, None, n)
    store = sys._cache["spectra"]
    assert list(store) == [(n, "nodes") for n in range(kept + 1, 2 * kept + 1)]
    # a kept entry moves to the end, and a new kind of a kept order is a new
    # entry, which drops the oldest
    K.zeros(sys, None, kept + 1)
    K.extreme_zeros(sys, kept + 1)
    assert list(store) == [*((n, "nodes") for n in range(kept + 3,
                                                         2 * kept + 1)),
                           (kept + 1, "nodes"), (kept + 1, "extreme")]
    assert all(not a.flags.writeable for a in store.values())
    F.clear_systems()
    assert "spectra" not in F.family_monic_system(
        F.jacobi(0.5, 1.5))._cache


def test_a_failing_solve_keeps_nothing_and_raises_again():
    sys = R.from_tables([1.0] * 5, [0.0] * 5, [0.0, 0.5, -0.5, 0.5, 0.5],
                        form="monic")
    for _ in range(2):
        with pytest.raises(R.RecurrenceError, match="Favard violation at n=1"):
            K.zeros(sys, None, 4)
    assert not sys._cache.get("spectra")


def test_christoffel_denominators_keep_the_nodes_they_solve(monkeypatch):
    solved = []
    real = K._eigenvalues

    def counting(diag, off):
        solved.append(len(diag))
        return real(diag, off)

    monkeypatch.setattr(K, "_eigenvalues", counting)
    sys = F.family_monic_system(F.jacobi(0.5, 1.5))
    den = K._spectrum(sys, 30, "christoffel")
    assert solved == [30]
    store = sys._cache["spectra"]
    assert list(store) == [(30, "nodes"), (30, "christoffel")]
    assert store[(30, "christoffel")] is den
    assert K.zeros(sys, None, 30).tobytes() == store[(30, "nodes")].tobytes()
    monic_rule(sys, 1.0, 30)
    assert solved == [30]


def test_threads_sharing_a_system_get_the_spectra_of_a_fresh_one():
    import sys as _sys
    import threading

    # no call warns at these orders, so the threads record no warnings
    # (catch_warnings is not thread-safe)
    orders = (10, 49, 200, 97)
    fresh = F.jacobi_monic_system(0.5, 1.5)
    want = {n: [bits(call()) for call in spectral_calls(fresh, n)]
            for n in orders}
    interval = _sys.getswitchinterval()
    _sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            F.clear_systems()
            shared = F.family_monic_system(F.jacobi(0.5, 1.5))
            start, got = threading.Barrier(4), []

            def solve(shared=shared, start=start, got=got):
                start.wait(timeout=30)
                for n in orders:
                    got.append((n, [bits(call())
                                    for call in spectral_calls(shared, n)]))

            threads = [threading.Thread(target=solve) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert len(got) == 4 * len(orders)
            for n, results in got:
                assert results == want[n], n
    finally:
        _sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# warm Gauss rules against the assembly they replaced

# every registry family; the lattice ones have no bundle and take h_0 = 1
RULE_FAMILIES = {
    "legendre": legendre(), "hermite": F.hermite(),
    "jacobi": F.jacobi(0.5, 1.5), "laguerre": F.laguerre(0.5),
    "gegenbauer": F.gegenbauer(1.5), "chebyshev_t": F.chebyshev_t(),
    "chebyshev_u": F.chebyshev_u(), "krawtchouk": D.krawtchouk(0.3, 2000),
    "hahn": D.hahn(0.5, 1.5, 2000), "meixner": D.meixner(0.5, 0.3),
    "charlier": charlier(2.0)}
RULE_ORDERS = (1, 2, 10, 48, 49, 96, 97, 200, 1000)


def parent_rule(nodes, weights):
    """The arrays of QuadratureRule(nodes, weights) as its check was first
    written, with np.diff and np.any; the same errors."""
    nodes = np.asarray(nodes, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if len(nodes) != len(weights):
        raise K.KernelError("node/weight count mismatch")
    if np.any(np.diff(nodes) <= 0):
        raise K.KernelError("nodes must be strictly increasing")
    if np.any(weights <= 0):
        raise K.KernelError("weights must be strictly positive")
    return nodes, weights


def parent_gauss(spec, lattice, n):
    """log h_n and the rule of the ladder's Gauss step as first assembled: a
    new bundle per call, the norms summed from a list, eps from np.finfo
    and `parent_rule`.  On the Golub-Welsch route for lattice=True."""
    import warnings

    sys = F.family_system(spec)
    if spec.discrete:
        m, h0 = None, 1.0
    else:
        b = F.FamilyBundle(spec=spec, system=sys,
                           measure=F.family_measure(spec),
                           h0=F.family_mu0.__wrapped__(spec))
        m, h0 = b.measure, b.h0
    norms = R.NormData(log_h=np.cumsum(np.concatenate(
        ([math.log(h0)], R._log_steps(sys, n + 1)))))
    m = LATTICE if lattice else m
    mu0 = np.exp(norms.log_h[:1])[0] / sys.p0 ** 2
    if m is None or m.kind == "continuous":
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            w = mu0 / K._spectrum(sys, n, "christoffel")
        nodes = K._spectrum(sys, n, "nodes")
        weights = np.where(np.isfinite(w) & (w > 0), w, 0.0)
        total = weights.sum()
        if abs(total - mu0) <= 100 * n * np.finfo(float).eps * mu0:
            return (norms.log_h, *parent_rule(nodes.copy(), weights))
        warnings.warn(
            f"gauss_rule: recurrence weights sum to {float(total)!r}, not "
            f"mu_0 = {float(mu0)!r}; using Golub-Welsch eigenvectors",
            RuntimeWarning, stacklevel=2)
    nodes, u0_squared = K._spectrum(sys, n, "lattice")
    return (norms.log_h, *parent_rule(nodes.copy(), mu0 * u0_squared))


def ladder_gauss(spec, lattice, n):
    """The same through `family_bundle`, `norms_from_recurrence` and
    `gauss_rule`."""
    if spec.discrete:
        sys, m, h0 = F.family_system(spec), None, 1.0
    else:
        b = F.family_bundle(spec)
        sys, m, h0 = b.system, b.measure, b.h0
    norms = R.norms_from_recurrence(sys, h0, 1.0, n + 1)
    rule = K.gauss_rule(sys, norms, LATTICE if lattice else m, n)
    assert rule.exactness_degree == 2 * n - 1
    return norms.log_h, rule.nodes, rule.weights


@pytest.mark.parametrize("family", RULE_FAMILIES)
def test_warm_gauss_rules_keep_the_bits_of_their_first_assembly(family):
    spec = RULE_FAMILIES[family]
    cases = [(lattice, n) for n in RULE_ORDERS for lattice in (False, True)]
    want = {case: outcome(lambda: parent_gauss(spec, *case))
            for case in cases}
    F.clear_systems()
    for case in cases:   # a first call, then a warm one
        for _ in range(2):
            assert outcome(lambda: ladder_gauss(spec, *case)) == want[case], \
                case
