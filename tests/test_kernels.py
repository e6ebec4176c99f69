import math

import numpy as np
import pytest

from orthopoly import kernels as K
from orthopoly import measures as M
from orthopoly import recurrence as R
from orthopoly.discrete import charlier, charlier_system
from orthopoly.discrete import family_measure as discrete_family_measure
from orthopoly.families import (family_measure, hermite_system,
                                legendre, legendre_system)

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
