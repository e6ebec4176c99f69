import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthopoly import recurrence as R
from orthopoly.families import (hermite_monic_system, hermite_system,
                                laguerre_system, legendre_system)


def test_eval_legendre_at_one():
    sys = legendre_system()
    for n in range(8):
        assert R.eval_poly(sys, n, 1.0) == pytest.approx(1.0, rel=1e-14)


def test_eval_degree_zero_returns_p0():
    sys = R.RecurrenceSystem(lambda n: (1.0, 0.0, 0.25), form="monic", p0=1.0)
    assert R.eval_poly(sys, 0, 12.3) == 1.0
    sys2 = R.RecurrenceSystem(lambda n: (2.0, 1.0, 0.5), p0=3.5)
    assert R.eval_poly(sys2, 0, -4.0) == 3.5


def test_eval_hermite_h2():
    # H_2(x) = 4x^2 - 2
    assert R.eval_poly(hermite_system(), 2, 1.0) == pytest.approx(2.0)
    assert R.eval_poly(hermite_system(), 2, 0.3) == pytest.approx(4 * 0.09 - 2)


def test_eval_complex_argument():
    z = 1.5 + 0.5j
    val = R.eval_poly(legendre_system(), 3, z)
    # P_3(z) = (5z^3 - 3z)/2
    assert val == pytest.approx((5 * z ** 3 - 3 * z) / 2)


def test_eval_mpmath_precision_path_matches_double():
    sys = legendre_system()
    a = R.eval_poly(sys, 12, 0.37)
    b = R.eval_poly(sys, 12, 0.37, precision=40)
    assert b == pytest.approx(a, rel=1e-13)


def test_eval_negative_degree_rejected():
    with pytest.raises(R.RecurrenceError):
        R.eval_poly(legendre_system(), -1, 0.0)


def test_zero_a_coefficient_rejected():
    sys = R.RecurrenceSystem(lambda n: (0.0, 0.0, 1.0))
    with pytest.raises(R.RecurrenceError):
        R.eval_poly(sys, 2, 0.5)


def test_from_tables_raises_past_stored_range():
    sys = R.from_tables([1.0, 1.0], [0.0, 0.0], [0.0, 0.5])
    R.eval_poly(sys, 2, 0.3)
    with pytest.raises(R.RecurrenceError):
        R.eval_poly(sys, 3, 0.3)


def test_eval_with_derivative():
    sys = legendre_system()
    p, d, s = (v[3] for v in R.eval_all_derivatives(sys, 3, 0.4))
    # P_3 = (5x^3-3x)/2, P_3' = (15x^2-3)/2, P_3'' = 15x
    assert p == pytest.approx((5 * 0.064 - 1.2) / 2)
    assert d == pytest.approx((15 * 0.16 - 3) / 2)
    assert s == pytest.approx(15 * 0.4)


def test_eval_all_consistent_with_eval_poly():
    sys = hermite_system()
    vals = R.eval_all(sys, 6, 0.8)
    for n, v in enumerate(vals):
        assert v == pytest.approx(R.eval_poly(sys, n, 0.8), rel=1e-14)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=0, max_value=20),
       x=st.floats(min_value=-1, max_value=1))
def test_recurrence_identity_residual(n, x):
    # a_n p_{n+1} + b_n p_n + c_n p_{n-1} = x p_n
    sys = legendre_system()
    vals = R.eval_all(sys, n + 1, x)
    a, b, c = sys.coeffs(n)
    lhs = a * vals[n + 1] + b * vals[n] + (c * vals[n - 1] if n else 0.0)
    scale = max(abs(v) for v in vals) or 1.0
    assert abs(lhs - x * vals[n]) <= 1e-12 * scale


def test_favard_legendre_passes():
    rep = R.validate_favard(legendre_system(), 10)
    assert rep.passed
    for n in range(10):
        want = (n + 1) ** 2 / ((2 * n + 1) * (2 * n + 3))
        assert rep.products[n] == pytest.approx(want)


def test_favard_zero_product_fails():
    sys = R.RecurrenceSystem(lambda n: (1.0, 0.0, 0.0), form="monic")
    rep = R.validate_favard(sys, 3)
    assert not rep.passed
    assert rep.failures[0][0] == 0


def test_favard_negative_product_fails():
    sys = R.RecurrenceSystem(lambda n: (1.0, 0.0, -1.0), form="monic")
    rep = R.validate_favard(sys, 1)
    assert not rep.passed and rep.failures[0] == (0, -1.0)


def test_norms_hermite_monic_chain():
    # monic chain: h_n = 2^{-n} n! sqrt(pi)
    norms = R.norms_from_recurrence(hermite_monic_system(),
                                    math.sqrt(math.pi), 1.0, 10)
    for n in range(11):
        want = 2.0 ** -n * math.factorial(n) * math.sqrt(math.pi)
        assert norms.h[n] == pytest.approx(want, rel=1e-14)


def test_norms_hermite_classical_chain():
    # the classical H_n, leading coefficient k_n = 1/(a_0 ... a_{n-1}) = 2^n,
    # have h_n = 2^n n! sqrt(pi)
    sys = hermite_system()
    norms = R.norms_from_recurrence(sys, math.sqrt(math.pi), 1.0, 10)
    a = np.array([sys.coeffs(j)[0] for j in range(10)])
    assert np.cumprod(1.0 / a) == pytest.approx(2.0 ** np.arange(1, 11))
    for n in range(11):
        want = 2.0 ** n * math.factorial(n) * math.sqrt(math.pi)
        assert norms.h[n] == pytest.approx(want, rel=1e-14)


def test_norms_constant_quarter_chain():
    sys = R.RecurrenceSystem(lambda n: (1.0, 0.0, 0.25 if n else 0.0),
                             form="monic")
    norms = R.norms_from_recurrence(sys, 1.0, 1.0, 8)
    assert np.allclose(norms.h, 4.0 ** -np.arange(9))


@pytest.mark.parametrize("sys, h0, log_h", [
    (laguerre_system(0.5), math.gamma(1.5),
     lambda n: math.lgamma(n + 1.5) - math.lgamma(n + 1)),
    (hermite_system(), math.sqrt(math.pi),
     lambda n: 0.5 * math.log(math.pi) + n * math.log(2) + math.lgamma(n + 1))],
    ids=("laguerre", "hermite"))
def test_log_norms_to_degree_1000_match_lgamma(sys, h0, log_h):
    # Laguerre's k_n = (-1)^n/n! underflows from n = 178 and Hermite's
    # h_n = 2^n n! sqrt(pi) overflows from n = 151; log h_n stays in range
    eps = np.finfo(float).eps
    norms = R.norms_from_recurrence(sys, h0, 1.0, 1000)
    for n in range(1001):
        assert abs(norms.log_h[n] - log_h(n)) <= 100 * max(n, 1) * eps
    assert not norms.h.flags.writeable


def test_norms_base_case():
    norms = R.norms_from_recurrence(legendre_system(), 2.0, 1.0, 0)
    assert norms.h[0] == 2.0 and norms.log_h[0] == math.log(2.0)
    with pytest.raises(R.RecurrenceError):
        R.norms_from_recurrence(legendre_system(), 2.0, 0.0, 0)


def test_norms_favard_violation_raises():
    sys = R.RecurrenceSystem(lambda n: (1.0, 0.0, -1.0), form="monic")
    with pytest.raises(R.RecurrenceError):
        R.norms_from_recurrence(sys, 1.0, 1.0, 3)


def test_convert_hermite_to_monic():
    norms = R.norms_from_recurrence(hermite_system(), math.sqrt(math.pi),
                                    1.0, 10)
    monic = R.convert_form(hermite_system(), norms, "monic")
    for n in range(1, 10):
        a, b, c = monic.coeffs(n)
        assert (a, b) == (1.0, 0.0)
        assert c == pytest.approx(n / 2.0)


def test_convert_orthonormal_from_monic_squares():
    # Remark: orthonormal a_{n-1} = 2 corresponds to monic c_n = 4
    sys = R.RecurrenceSystem(lambda n: (2.0, 0.0, 2.0 if n else 0.0),
                             form="orthonormal")
    norms = R.norms_from_recurrence(sys, 1.0, 1.0, 6)
    monic = R.convert_form(sys, norms, "monic")
    assert monic.coeffs(3)[2] == pytest.approx(4.0)


def test_convert_monic_identity():
    sys = hermite_monic_system()
    norms = R.norms_from_recurrence(sys, 1.0, 1.0, 5)
    assert R.convert_form(sys, norms, "monic") is sys


def test_convert_orthonormal_has_unit_norms():
    sys = legendre_system()
    norms = R.norms_from_recurrence(sys, 2.0, 1.0, 10)
    ortho = R.convert_form(sys, norms, "orthonormal")
    onorms = R.norms_from_recurrence(ortho, 1.0, 1.0 / math.sqrt(2.0), 8)
    assert np.allclose(onorms.h, 1.0)
    # c_{n+1} = a_n in orthonormal form
    for n in range(5):
        assert ortho.coeffs(n + 1)[2] == pytest.approx(ortho.coeffs(n)[0])


def test_convert_round_trip_general():
    sys = legendre_system()
    norms = R.norms_from_recurrence(sys, 2.0, 1.0, 12)
    monic = R.convert_form(sys, norms, "monic")
    # every system is a general one
    back = R.convert_form(sys, norms, "general")
    assert back is sys
    k = np.cumprod([1.0] + [1.0 / sys.coeffs(j)[0] for j in range(9)])
    for x in (-0.7, 0.1, 0.9):
        for n in range(10):
            assert R.eval_poly(monic, n, x) == pytest.approx(
                R.eval_poly(sys, n, x) / k[n], rel=1e-12)
    for x in (-0.7, 0.1, 0.9):
        for n in range(10):
            assert R.eval_poly(back, n, x) == pytest.approx(
                R.eval_poly(sys, n, x), rel=1e-12)


def test_convert_monic_values_are_scaled():
    sys = hermite_system()
    norms = R.norms_from_recurrence(sys, math.sqrt(math.pi), 1.0, 10)
    monic = R.convert_form(sys, norms, "monic")
    for n in range(8):
        assert R.eval_poly(monic, n, 0.6) == pytest.approx(
            R.eval_poly(sys, n, 0.6) / 2.0 ** n, rel=1e-12)


def test_norm_data_validation():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(R.RecurrenceError):
            R.NormData(log_h=np.array([1.0, bad]))


def test_even_symmetry_hermite():
    rep = R.check_even_symmetry(hermite_system(), 3, [0.7])
    assert rep.all_b_zero
    assert rep.max_deviation == 0.0


def test_even_symmetry_degree_zero():
    rep = R.check_even_symmetry(legendre_system(), 0, [0.2, 1.3])
    assert rep.all_b_zero and rep.max_deviation == 0.0


def test_even_symmetry_legendre_sampled():
    rep = R.check_even_symmetry(legendre_system(), 4, [0.3])
    assert rep.max_deviation <= 1e-14


def test_even_symmetry_skips_asymmetric():
    sys = R.RecurrenceSystem(lambda n: (1.0, 1.0, 0.25 if n else 0.0),
                             form="monic")
    rep = R.check_even_symmetry(sys, 4, [0.5])
    assert not rep.all_b_zero


def _counting_legendre():
    calls = {}
    base = legendre_system().coeff_fn

    def coeff(n):
        calls[n] = calls.get(n, 0) + 1
        return base(n)

    return R.RecurrenceSystem(coeff, form="general", p0=1.0), calls


def test_table_rows_are_python_floats_and_match_coeffs():
    sys = R.RecurrenceSystem(lambda n: (np.float64(n + 1), n, 0.5 * n))
    rows = sys.table(4)
    assert len(rows) == 5
    assert all(type(v) is float for row in rows for v in row)
    assert [sys.coeffs(j) for j in range(5)] == rows
    assert sys.table(-1) == []


def test_every_consumer_computes_each_coefficient_once():
    from orthopoly import io as opio
    from orthopoly import kernels as K
    from orthopoly.families import family_measure, legendre

    sys, calls = _counting_legendre()
    n = 30
    x = np.linspace(-0.9, 0.9, 5)
    norms = R.norms_from_recurrence(sys, 2.0, 1.0, n + 1)
    R.eval_all(sys, n, x)
    R.eval_all_derivatives(sys, n, 0.3)
    R.eval_poly(sys, n, 0.3)
    K.jacobi_matrix(sys, n)
    K.gauss_rule(sys, norms, family_measure(legendre()), n)
    K.cd_kernel(sys, norms, n, 0.2, 0.7)
    K.cd_kernel(sys, norms, n, 0.2, 0.2)
    K.cd_kernel(sys, norms, n, 0.2, 0.7, method="sum")
    R.validate_favard(sys, n)
    opio.dump_recurrence(sys, n + 1)
    assert sorted(calls) == list(range(n + 2))
    assert set(calls.values()) == {1}


def test_derived_systems_read_the_cached_rows():
    sys, calls = _counting_legendre()
    norms = R.norms_from_recurrence(sys, 2.0, 1.0, 1)
    for target in ("monic", "orthonormal"):
        R.eval_all(R.convert_form(sys, norms, target), 20, 0.4)
    assert set(calls.values()) == {1}


def test_undefined_index_is_reported_once_and_stays_reported():
    sys = R.from_tables([1.0, 1.0], [0.0, 0.0], [0.0, 0.5])
    for _ in range(2):
        with pytest.raises(R.RecurrenceError, match="undefined at index 2"):
            sys.table(3)
    assert sys.coeffs(1) == (1.0, 0.0, 0.5)


def test_jacobi_type_rows_match_closed_forms_past_index_133():
    """The general-form rows of the Jacobi-type families, once built from
    Pochhammer products that overflowed into a_133 = 0, against 50-digit
    values of their closed forms: a_n = 2(n+1)(n+s+1) / ((2n+s+1)(2n+s+2))
    divided by the prefactor ratio, monic b_n, and c_n = c_n^monic / a_{n-1},
    whose product a_{n-1} c_n is the monic c_n."""
    import mpmath

    from orthopoly import families as F

    assert len(R.eval_all(F.jacobi_system(0.5, 1.5), 200, 0.3)) == 201
    eps = np.finfo(float).eps
    half = mpmath.mpf(1) / 2
    ratios = {"jacobi": lambda n: 1, "gegenbauer": lambda n: (3 + n) / (2 + n),
              "chebyshev_t": lambda n: (n + 1) / (n + half),
              "chebyshev_u": lambda n: (n + 2) / (n + 3 * half)}
    specs = {"jacobi": F.jacobi(0.5, 1.5), "gegenbauer": F.gegenbauer(1.5),
             "chebyshev_t": F.chebyshev_t(), "chebyshev_u": F.chebyshev_u()}
    with mpmath.workdps(50):
        for family, spec in specs.items():
            alpha, beta, _ = F._as_jacobi(spec)
            al, be = mpmath.mpf(alpha), mpmath.mpf(beta)
            s = al + be

            def a(n):
                return (2 * (n + 1) * (n + s + 1)
                        / ((2 * n + s + 1) * (2 * n + s + 2))
                        / ratios[family](mpmath.mpf(n)))

            rows = F.family_system(spec).table(1000)
            for n in (132, 133, 134, 500, 1000):
                t = 2 * n + s
                b = (be ** 2 - al ** 2) / (t * (t + 2))
                c_monic = (4 * n * (n + al) * (n + be) * (n + s)
                           / ((t - 1) * t ** 2 * (t + 1)))
                got_a, got_b, got_c = rows[n]
                for got, want in ((got_a, a(n)), (got_c, c_monic / a(n - 1)),
                                  (rows[n - 1][0] * got_c, c_monic)):
                    assert abs(got - want) <= 4 * eps * abs(want), (family, n)
                assert abs(got_b - b) <= 4 * eps * abs(b), (family, n)


def test_favard_products_match_the_report():
    sys = legendre_system()
    prods = R.favard_products(sys, 6)
    assert list(prods) == list(R.validate_favard(sys, 6).products)
    assert len(R.favard_products(sys, 0)) == 0
