import math

import numpy as np
import pytest
from conftest import monic_row_error

from orthopoly import discrete as D
from orthopoly import measures as M
from orthopoly import recurrence as R
from orthopoly.discrete import charlier, family_measure as charlier_measure
from orthopoly.families import (chebyshev_t, chebyshev_u, family_measure,
                                gegenbauer, hermite, jacobi, jacobi_monic_b,
                                jacobi_monic_c, laguerre, legendre)


def legendre_half():
    return family_measure(legendre(), normalized=True)


def test_inner_product_legendre_unit_mass():
    assert M.inner_product(lambda x: 1.0, lambda x: 1.0,
                           legendre_half()) == pytest.approx(1.0)


def test_inner_product_odd_integrand_vanishes():
    val = M.inner_product(lambda x: 1.0, lambda x: x, legendre_half())
    assert abs(val) < 1e-13


def test_inner_product_hermite_second_moment():
    m = family_measure(hermite(), normalized=True)
    assert M.inner_product(lambda x: x, lambda x: x, m) == pytest.approx(0.5)


def test_self_adjointness():
    m = family_measure(jacobi(0.5, 1.5))
    f = lambda x: 1 + x - x ** 2
    g = lambda x: 0.5 - 2 * x ** 3
    lhs = M.inner_product(lambda x: x * f(x), g, m)
    rhs = M.inner_product(f, lambda x: x * g(x), m)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_moments_hermite_gamma():
    m = family_measure(hermite())
    ms = M.moments(m, 8)
    for n in range(5):
        assert ms.mu[2 * n] == pytest.approx(math.gamma(n + 0.5), rel=1e-11)
    assert np.all(np.abs(ms.mu[1::2]) < 1e-12)


def test_moments_legendre():
    ms = M.moments(family_measure(legendre()), 4)
    assert ms.mu[2] == pytest.approx(2.0 / 3.0)
    assert ms.mu[4] == pytest.approx(2.0 / 5.0)


def test_moment_sequence_rejects_nonpositive_mu0():
    with pytest.raises(ValueError):
        M.MomentSequence(mu=np.array([0.0, 1.0]))


def test_hankel_minors_legendre():
    ms = M.MomentSequence(mu=np.array([1.0, 0.0, 1.0 / 3.0]))
    rep = M.hankel_minors(ms, 1)
    assert rep.minors[0] == 1.0
    assert rep.minors[1] == pytest.approx(1.0 / 3.0)
    assert rep.all_positive


def test_hankel_needs_enough_moments():
    ms = M.MomentSequence(mu=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        M.hankel_minors(ms, 1)


def test_hankel_lognormal_family_positive():
    # mu_n = e^{n(n+2)/4}
    mu = np.array([math.exp(n * (n + 2) / 4.0) for n in range(5)])
    rep = M.hankel_minors(M.MomentSequence(mu=mu), 2)
    assert rep.all_positive


def test_stieltjes_procedure_legendre():
    sys, norms = M.recurrence_from_measure(family_measure(legendre()), 6)
    for n in range(7):
        assert abs(sys.coeffs(n)[1]) < 1e-13
    assert sys.coeffs(1)[2] == pytest.approx(1.0 / 3.0, rel=1e-10)
    assert sys.coeffs(2)[2] == pytest.approx(4.0 / 15.0, rel=1e-10)
    # cross-check against the closed monic Jacobi chain
    for n in range(1, 7):
        assert sys.coeffs(n)[2] == pytest.approx(
            jacobi_monic_c(n, 0.0, 0.0), rel=1e-9)
    assert R.validate_favard(sys, 5).passed


def test_stieltjes_procedure_hermite_even():
    sys, _ = M.recurrence_from_measure(family_measure(hermite()), 5)
    for n in range(6):
        assert abs(sys.coeffs(n)[1]) < 1e-12


def test_stieltjes_procedure_charlier_norms():
    m = charlier_measure(charlier(1.0), normalized=True)
    sys, norms = M.recurrence_from_measure(m, 5)
    for n in range(6):
        assert norms.h[n] == pytest.approx(math.factorial(n), rel=1e-9)


def test_gram_schmidt_projector_property():
    m = family_measure(jacobi(0.5, 1.5))
    sys, norms = M.recurrence_from_measure(m, 5)
    for n in range(1, 6):
        for j in range(n):
            val = M.inner_product(lambda x, n=n: R.eval_poly(sys, n, x),
                                  lambda x, j=j: x ** j, m)
            assert abs(val) <= 1e-9 * math.sqrt(norms.h[n])


def test_discrete_measure_validation():
    with pytest.raises(ValueError):
        M.discrete_measure([0.0, 1.0], [1.0])
    with pytest.raises(ValueError):
        M.discrete_measure([0.0, 1.0], [1.0, -1.0])


def test_discrete_finite_integrate():
    m = M.discrete_measure([0.0, 1.0, 2.0], [0.5, 1.0, 0.25])
    assert M.integrate(m, lambda x: x) == pytest.approx(1.5)


def test_infinite_sum_truncates_by_tail_bound():
    # geometric weights 2^{-k}
    m = M.discrete_infinite_measure(float, lambda k: 2.0 ** -k,
                                    lambda k: 2.0 ** -k)
    assert M.integrate(m, lambda x: 1.0) == pytest.approx(2.0)


def test_continuous_support_validation():
    with pytest.raises(ValueError):
        M.continuous_measure(lambda x: 1.0, (1.0, 1.0))


# the benchmark's parameters for the continuous families and Charlier;
# Meixner, Krawtchouk and Hahn as in the CLI sweep
NAMED_MEASURES = {
    "legendre": legendre(), "jacobi": jacobi(0.5, 1.5),
    "laguerre": laguerre(0.5), "hermite": hermite(),
    "gegenbauer": gegenbauer(1.5), "chebyshev_t": chebyshev_t(),
    "chebyshev_u": chebyshev_u(), "charlier": D.charlier(2.0),
    "meixner": D.meixner(0.5, 0.5), "krawtchouk": D.krawtchouk(0.3, 20),
    "hahn": D.hahn(0.5, 1.5, 20)}


@pytest.mark.parametrize("n", (10, 40, 100))
@pytest.mark.parametrize("name", NAMED_MEASURES)
def test_named_measure_gives_its_closed_form_recurrence(name, n):
    spec = NAMED_MEASURES[name]
    n = min(n, spec.parameters.get("N", n + 1) - 1)
    sys, norms = M.recurrence_from_measure(family_measure(spec), n)
    a, b, c = np.array(sys.table(n)).T
    assert np.all(a == 1.0)
    assert monic_row_error(b, c, spec) <= 1e-12
    # log h_n = log h_0 + sum log c_j
    assert np.array_equal(norms.log_h, np.cumsum(
        np.concatenate(([norms.log_h[0]], np.log(c[1:])))))


def test_undeclared_endpoint_singularity_raises():
    m = M.continuous_measure(lambda x: x ** -0.9, (0.0, 1.0))
    with pytest.raises(R.RecurrenceError, match="did not settle"):
        M.recurrence_from_measure(m, 16)


def test_declared_endpoint_singularity_is_shifted_jacobi():
    # x^-0.9 on [0, 1] is the Jacobi weight alpha = 0, beta = -0.9 moved
    # from [-1, 1]: b_n -> (1 + b_n)/2, c_n -> c_n/4
    m = M.continuous_measure(lambda x: x ** -0.9, (0.0, 1.0),
                             alg_exponents=(-0.9, 0.0))
    sys, norms = M.recurrence_from_measure(m, 16)
    assert norms.h[0] == pytest.approx(10.0, rel=1e-14)
    for n in range(17):
        _, b, c = sys.coeffs(n)
        assert b == pytest.approx((1 + jacobi_monic_b(n, 0.0, -0.9)) / 2,
                                  rel=1e-12)
        if n:
            assert c == pytest.approx(jacobi_monic_c(n, 0.0, -0.9) / 4,
                                      rel=1e-12)


def test_weight_that_does_not_evaluate_raises():
    m = M.continuous_measure(lambda x: math.nan, (0.0, 1.0))
    with pytest.raises(R.RecurrenceError, match="did not settle"):
        M.recurrence_from_measure(m, 4)


def test_tolerance_below_rounding_raises():
    with pytest.raises(R.RecurrenceError, match="did not settle"):
        M.recurrence_from_measure(family_measure(legendre()), 10, 1e-18)


@pytest.mark.parametrize("n_max", (60, 61, 70))
def test_finite_measure_stops_below_its_support_size(n_max):
    nodes = np.linspace(-1.0, 1.0, 60)
    m = M.discrete_measure(nodes, 1 + 0.5 * np.sin(np.arange(60)))
    assert m.n_points == 60
    sys, _ = M.recurrence_from_measure(m, 59)
    assert len(sys.table(59)) == 60
    with pytest.raises(R.RecurrenceError, match="60 points"):
        M.recurrence_from_measure(m, n_max)


def test_finite_measure_counts_distinct_points():
    m = M.discrete_measure([0.0, 0.0, 1.0], [1.0, 1.0, 2.0])
    assert m.n_points == 2
    sys, norms = M.recurrence_from_measure(m, 1)
    # mass 2 at 0 and 2 at 1: b_0 = 1/2, c_1 = 1/4
    assert sys.coeffs(0)[1] == pytest.approx(0.5)
    assert sys.coeffs(1)[2] == pytest.approx(0.25)
    assert norms.h[0] == 4.0
    with pytest.raises(R.RecurrenceError):
        M.recurrence_from_measure(m, 2)
