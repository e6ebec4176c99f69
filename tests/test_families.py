import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from orthopoly import families as F
from orthopoly import measures as M
from orthopoly import recurrence as R


# ---------------------------------------------------------------------------
# hypergeometric sums

def test_hyp_single_term():
    assert F.hyp([-1.0, 3.0], [3.0], 0.7) == pytest.approx(1 - 0.7)


def test_hyp_empty_sum():
    assert F.hyp([0.0, 4.0], [2.0], 0.3) == 1.0


def test_hyp_hand_expansion():
    # 2F1(-2, 4; 2; 1/2) = 1 - 2 + 5/6
    assert F.hyp([-2.0, 4.0], [2.0], 0.5) == pytest.approx(-1.0 / 6.0)


def test_hyp_requires_termination():
    with pytest.raises(F.FamilyError):
        F.hyp([0.5, 1.5], [2.0], 0.3)


def test_hyp_lower_pole_rejected():
    with pytest.raises(F.FamilyError):
        F.hyp([-4.0], [-2.0], 1.0)


def test_pochhammer():
    assert F.pochhammer(3.0, 0) == 1.0
    assert F.pochhammer(3.0, 3) == pytest.approx(3 * 4 * 5)


# ---------------------------------------------------------------------------
# series evaluation

def test_jacobi_at_one():
    for n in range(7):
        want = F.pochhammer(1.5, n) / math.factorial(n)
        assert F.jacobi_eval(n, 0.5, 1.5, 1.0) == pytest.approx(want)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=0, max_value=12),
       x=st.floats(min_value=-1, max_value=1))
def test_jacobi_reflection_symmetry(n, x):
    lhs = F.jacobi_eval(n, 0.5, 1.5, -x)
    rhs = (-1) ** n * F.jacobi_eval(n, 1.5, 0.5, x)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_laguerre_at_zero():
    for n in range(7):
        want = F.pochhammer(1.3, n) / math.factorial(n)
        assert F.laguerre_eval(n, 0.3, 0.0) == pytest.approx(want)


def test_laguerre_linear():
    assert F.laguerre_eval(1, 0.0, 2.0) == pytest.approx(-1.0)


def test_hermite_values():
    assert F.hermite_eval(2, 1.0) == pytest.approx(2.0)
    assert F.hermite_eval(0, 5.0) == 1.0
    assert F.hermite_eval(3, 0.0) == 0.0


def test_chebyshev_t_is_cosine():
    th = 0.4
    assert F.special_case_eval(F.chebyshev_t(), 3, math.cos(th)) \
        == pytest.approx(math.cos(3 * th), rel=1e-12)


def test_chebyshev_u_is_sine_ratio():
    th = 0.9
    want = math.sin(6 * th) / math.sin(th)
    assert F.special_case_eval(F.chebyshev_u(), 5, math.cos(th)) \
        == pytest.approx(want, rel=1e-12)
    assert F.special_case_eval(F.chebyshev_u(), 1, 0.3) == pytest.approx(0.6)


def test_legendre_normalization():
    for n in range(6):
        assert F.special_case_eval(F.legendre(), n, 1.0) \
            == pytest.approx(1.0, rel=1e-13)


def test_gegenbauer_lambda_zero_rejected():
    with pytest.raises(F.FamilyError):
        F.gegenbauer(0.0)


def test_family_parameter_validation():
    with pytest.raises(F.FamilyError):
        F.jacobi(-1.5, 0.0)
    with pytest.raises(F.FamilyError):
        F.laguerre(-1.0)


def test_series_matches_recurrence():
    cases = [(F.jacobi(0.5, 1.5), np.linspace(-0.95, 0.95, 9)),
             (F.laguerre(0.3), np.linspace(0.1, 12.0, 9)),
             (F.hermite(), np.linspace(-2.5, 2.5, 9)),
             (F.gegenbauer(0.75), np.linspace(-0.9, 0.9, 5)),
             (F.chebyshev_u(), np.linspace(-0.9, 0.9, 5))]
    for spec, xs in cases:
        sys = F.family_system(spec)
        for n in (0, 1, 5, 12, 20):
            for x in xs:
                a = F.special_case_eval(spec, n, float(x))
                b = R.eval_poly(sys, n, float(x))
                assert abs(a - b) <= 1e-11 * max(abs(a), abs(b), 1.0), \
                    (spec.family, n, x)


def test_coeff_vectors_match_series():
    for spec, coeffs in ((F.jacobi(0.5, 1.5),
                          lambda n: F.jacobi_coeffs(n, 0.5, 1.5)),
                         (F.laguerre(0.3),
                          lambda n: F.laguerre_coeffs(n, 0.3)),
                         (F.hermite(), F.hermite_coeffs)):
        for n in (0, 1, 4, 9):
            c = coeffs(n)
            x = 0.37
            assert npoly.polyval(x, c) == pytest.approx(
                F.special_case_eval(spec, n, x), rel=1e-11)


def _direct_mp_sum(term, n_terms):
    """A direct sum of mpmath terms at 150 digits, which keeps 50 past the
    largest cancellation here (about 10^53 at n = 100), rounded to double."""
    import mpmath

    with mpmath.workdps(150):
        return float(mpmath.fsum(term(mpmath.mpf, k) for k in range(n_terms)))


@pytest.mark.parametrize("n", (30, 60, 100))
def test_escalated_series_equal_a_direct_mp_sum(n, monkeypatch):
    # the escalated pass forms each term from the one before it by the term
    # ratio; it must agree with the sum of directly formed terms
    import mpmath

    ratio_calls = []
    real = F._guarded_sum

    def spy(term_fn, n_terms, ratio):
        def counted(k, num):
            ratio_calls.append(k)
            return ratio(k, num)

        return real(term_fn, n_terms, counted)

    monkeypatch.setattr(F, "_guarded_sum", spy)

    def jacobi_term(a, b, x):
        return lambda mp, k: (mpmath.rf(mp(a) + mp(b) + n + 1, k)
                              * mpmath.rf(mp(a) + k + 1, n - k)
                              / (mpmath.factorial(k) * mpmath.factorial(n - k))
                              * ((mp(x) - 1) / 2) ** k)

    # Jacobi(0.5, 1.5), Gegenbauer(1.5) through its Jacobi(1, 1) reduction,
    # Laguerre(0.5), at the points of the series benchmark
    cases = [(lambda x: F.jacobi_eval(n, 0.5, 1.5, x),
              jacobi_term(0.5, 1.5, x), x) for x in (-0.7, -0.2, 0.3, 0.8)]
    cases += [(lambda x: F.jacobi_eval(n, 1.0, 1.0, x),
               jacobi_term(1.0, 1.0, x), x) for x in (-0.7, -0.2, 0.3, 0.8)]
    cases += [(lambda x: F.laguerre_eval(n, 0.5, x),
               lambda mp, k, x=x: (mpmath.rf(mp(0.5) + k + 1, n - k)
                                   / (mpmath.factorial(k)
                                      * mpmath.factorial(n - k))
                                   * (-mp(x)) ** k), x)
              for x in (0.5, 3.0, 7.0, 15.0)]
    escalated = 0
    for fn, term, x in cases:
        ratio_calls.clear()
        got = fn(x)
        if ratio_calls:
            assert got == _direct_mp_sum(term, n + 1), (n, x)
            escalated += 1
    assert escalated >= 9


def test_degree_171_raises_family_error():
    # 171! is the first factorial beyond the double range
    calls = (lambda n: F.jacobi_eval(n, 0.5, 1.5, 0.3),
             lambda n: F.laguerre_eval(n, 0.5, 1.0),
             lambda n: F.hermite_eval(n, 0.5),
             lambda n: F.jacobi_coeffs(n, 0.5, 1.5),
             lambda n: F.laguerre_coeffs(n, 0.5),
             lambda n: F.special_case_eval(F.chebyshev_t(), n, 0.3))
    for call in calls:
        with pytest.raises(F.FamilyError, match="double range"):
            call(171)
    assert F.laguerre_coeffs(170, 0.5)[-1] == 1 / math.factorial(170)


# ---------------------------------------------------------------------------
# differential equations, shifts, Rodrigues

def test_ode_residuals():
    assert F.ode_residual(F.jacobi(0.5, 1.5), 4, 0.3)[4] == pytest.approx(
        0.0, abs=1e-12)
    assert F.ode_residual(F.hermite(), 3, -0.8)[3] == pytest.approx(
        0.0, abs=1e-12)
    assert F.ode_residual(F.laguerre(0.5), 6, 2.5)[6] == pytest.approx(
        0.0, abs=1e-12)
    assert F.ode_residual(F.gegenbauer(1.25), 5, 0.4)[5] == pytest.approx(
        0.0, abs=1e-12)
    assert F.ode_residual(F.legendre(), 0, 0.9)[0] == 0.0


def test_shift_hermite_raise():
    # H_4'(0.2) = 8 H_3(0.2)
    assert F.shift_check(F.hermite(), 4, "raise", 0.2)[4] == pytest.approx(
        0.0, abs=1e-12)


def test_shift_jacobi_both_directions():
    for d in ("raise", "lower"):
        for n in (1, 3, 7):
            assert abs(F.shift_check(F.jacobi(0.5, 1.5), n, d, 0.3)[n]) \
                < 1e-12


def test_shift_laguerre_lower():
    assert abs(F.shift_check(F.laguerre(0.5), 4, "lower", 1.7)[4]) < 1e-12


def test_shift_degree_zero():
    assert F.shift_check(F.hermite(), 0, "raise", 0.4)[0] == 0.0


def test_shift_unknown_direction():
    with pytest.raises(F.FamilyError):
        F.shift_check(F.hermite(), 1, "sideways", 0.0)


def test_rodrigues_matches_series():
    for spec in (F.jacobi(0.5, 1.5), F.laguerre(0.3), F.hermite()):
        for n in (0, 1, 2, 5, 9):
            for x in (-0.7, 0.2, 0.9):
                if spec.family == "laguerre":
                    x = abs(x) * 4
                a = F.rodrigues_eval(spec, n, x)
                b = F.special_case_eval(spec, n, x)
                assert a == pytest.approx(b, rel=1e-11, abs=1e-11)


def test_rodrigues_hermite_h2():
    assert F.rodrigues_eval(F.hermite(), 2, 1.0) == pytest.approx(2.0)


def test_rodrigues_jacobi_linear():
    assert F.rodrigues_eval(F.jacobi(0.0, 0.0), 1, 0.5) == pytest.approx(0.5)


def test_rodrigues_unsupported_family():
    with pytest.raises(F.FamilyError):
        F.rodrigues_eval(F.chebyshev_t(), 2, 0.0)


# ---------------------------------------------------------------------------
# section 4.5 chain for monic Jacobi

def test_monic_derivative_lowers_degree_and_shifts_parameters():
    # d/dx of monic P_n^{(a,b)} equals n times monic P_{n-1}^{(a+1,b+1)}
    a, b = 0.5, 1.5
    for n in (1, 2, 5, 8):
        pc = F.jacobi_coeffs(n, a, b) / F.jacobi_leading_coeff(n, a, b)
        qc = (F.jacobi_coeffs(n - 1, a + 1, b + 1)
              / F.jacobi_leading_coeff(n - 1, a + 1, b + 1))
        assert np.allclose(npoly.polyder(pc), n * qc, rtol=1e-12, atol=1e-12)


def test_monic_lowering_relation():
    # ((1-x^2) d/dx + (b-a-(a+b+2)x)) q_{n-1} = -(n+a+b+1) p_n, monic chain
    a, b = 0.5, 1.5
    n = 4
    qc = (F.jacobi_coeffs(n - 1, a + 1, b + 1)
          / F.jacobi_leading_coeff(n - 1, a + 1, b + 1))
    pc = F.jacobi_coeffs(n, a, b) / F.jacobi_leading_coeff(n, a, b)
    for x in (-0.6, 0.1, 0.8):
        q = npoly.polyval(x, qc)
        dq = npoly.polyval(x, npoly.polyder(qc))
        lhs = (1 - x * x) * dq + (b - a - (a + b + 2) * x) * q
        rhs = -(n + a + b + 1) * npoly.polyval(x, pc)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_monic_norm_ratio_identity():
    # n int q_{n-1}^2 w1 = (n+a+b+1) int p_n^2 w
    a, b = 0.5, 1.5
    n = 3
    pc = F.jacobi_coeffs(n, a, b) / F.jacobi_leading_coeff(n, a, b)
    qc = (F.jacobi_coeffs(n - 1, a + 1, b + 1)
          / F.jacobi_leading_coeff(n - 1, a + 1, b + 1))
    w = F.family_measure(F.jacobi(a, b))
    w1 = F.family_measure(F.jacobi(a + 1, b + 1))
    lhs = n * M.inner_product(lambda x: npoly.polyval(x, qc),
                              lambda x: npoly.polyval(x, qc), w1)
    rhs = (n + a + b + 1) * M.inner_product(lambda x: npoly.polyval(x, pc),
                                            lambda x: npoly.polyval(x, pc), w)
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_monic_value_at_one():
    # monic P_n^{(a,b)}(1) = 2^n (a+1)_n / (n+a+b+1)_n
    a, b = 0.5, 1.5
    for n in range(1, 9):
        got = F.jacobi_eval(n, a, b, 1.0) / F.jacobi_leading_coeff(n, a, b)
        want = (2.0 ** n * F.pochhammer(a + 1, n)
                / F.pochhammer(n + a + b + 1, n))
        assert got == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# quadratic transformation and even-weight splitting

def test_quadratic_transform_example():
    even, odd = F.quadratic_transform_check(1, 0.0, 0.6)
    assert abs(even) < 1e-12 and abs(odd) < 1e-12


def test_quadratic_transform_at_one():
    even, odd = F.quadratic_transform_check(3, 0.7, 1.0)
    assert abs(even) < 1e-12 and abs(odd) < 1e-12


def test_quadratic_transform_sweep():
    for n in range(5):
        for x in (-1.0, -0.3, 0.2, 0.9):
            even, odd = F.quadratic_transform_check(n, 0.5, x)
            assert abs(even) < 1e-11 and abs(odd) < 1e-11


_CLI_POINTS = np.linspace(-0.9, 0.9, 7)


# alpha of Legendre, Jacobi(0.5, 1.5), Gegenbauer(1.5), Chebyshev T and U
@pytest.mark.parametrize("alpha", (0.0, 0.5, 1.0, -0.5))
def test_quadratic_transform_residuals_match_the_series(alpha):
    even, odd = F.quadratic_transform_residuals(10, alpha, _CLI_POINTS)
    assert even.shape == odd.shape == (11, 7)
    for k in range(11):
        for i, x in enumerate(_CLI_POINTS):
            e, o = F.quadratic_transform_check(k, alpha, float(x))
            assert abs(even[k, i] - e) <= 1e-12
            assert abs(odd[k, i] - o) <= 1e-12


def test_quadratic_transform_residuals_reach_degree_1000():
    # the monic p_m(1) leaves the normal range from m ~ 1030, which degree
    # 2n + 1 reaches at n ~ 515; the chain carries p_m(x)/p_m(1) instead
    for alpha in (0.0, -0.5, 1.0):
        even, odd = F.quadratic_transform_residuals(1000, alpha, _CLI_POINTS)
        assert np.all(np.isfinite(even)) and np.all(np.isfinite(odd))
        assert max(np.abs(even).max(), np.abs(odd).max()) <= 1e-12


def test_quadratic_transform_residuals_below_minus_one_half():
    # the normalised values grow like k^(-1/2 - alpha) here; rho_m by its
    # own recurrence instead of the closed form left residuals of 3e-12
    even, odd = F.quadratic_transform_residuals(21, -0.9, _CLI_POINTS)
    assert max(np.abs(even).max(), np.abs(odd).max()) <= 1e-13


def test_split_hermite_gives_laguerre_half():
    # q_n from Hermite are the monic Laguerre(-1/2) polynomials
    q_sys, r_sys = F.split_even_system(F.hermite_monic_system(), 5)
    lag = F.laguerre_monic_system(-0.5)
    for n in range(1, 6):
        assert q_sys.coeffs(n) == pytest.approx(lag.coeffs(n))
    # r_0 = 1: p_1(x) = x = x * r_0(x^2)
    assert R.eval_poly(r_sys, 0, 0.3) == 1.0


def test_split_legendre_q1():
    q_sys, _ = F.split_even_system(
        F.jacobi_monic_system(0.0, 0.0), 4)
    # monic p_2 = x^2 - 1/3, so q_1(y) = y - 1/3
    assert R.eval_poly(q_sys, 1, 0.0) == pytest.approx(-1.0 / 3.0)


def test_split_values_match():
    sys = F.hermite_monic_system()
    q_sys, r_sys = F.split_even_system(sys, 4)
    for x in (0.3, 1.1):
        for n in range(4):
            assert R.eval_poly(sys, 2 * n, x) == pytest.approx(
                R.eval_poly(q_sys, n, x * x), rel=1e-12)
            assert R.eval_poly(sys, 2 * n + 1, x) == pytest.approx(
                x * R.eval_poly(r_sys, n, x * x), rel=1e-12)


def test_split_rejects_uneven_system():
    with pytest.raises(R.RecurrenceError):
        F.split_even_system(F.laguerre_monic_system(0.0), 3)


# ---------------------------------------------------------------------------
# norms against the measure

def test_diagonal_norms_match_tables():
    # Legendre 1/(2n+1) and Hermite 2^n n! with the classical normalizers
    b = F.family_bundle(F.legendre(), normalized=True)
    norms = R.norms_from_recurrence(b.system, b.h0, 1.0, 6)
    for n in range(7):
        assert norms.h[n] == pytest.approx(1.0 / (2 * n + 1))
        got = M.inner_product(lambda x, n=n: R.eval_poly(b.system, n, x),
                              lambda x, n=n: R.eval_poly(b.system, n, x),
                              b.measure)
        assert got == pytest.approx(norms.h[n], rel=1e-10)


def test_jacobi_norm_chain_vs_integral():
    b = F.family_bundle(F.jacobi(-0.5, 0.5))
    norms = R.norms_from_recurrence(b.system, b.h0, 1.0, 5)
    for n in (1, 3, 5):
        got = M.inner_product(lambda x, n=n: R.eval_poly(b.system, n, x),
                              lambda x, n=n: R.eval_poly(b.system, n, x),
                              b.measure)
        assert got == pytest.approx(norms.h[n], rel=1e-9)


def test_orthogonality_off_diagonal():
    b = F.family_bundle(F.laguerre(0.5))
    norms = R.norms_from_recurrence(b.system, b.h0, 1.0, 6)
    for i in range(6):
        for j in range(i + 1, 6):
            val = M.inner_product(
                lambda x, i=i: R.eval_poly(b.system, i, x),
                lambda x, j=j: R.eval_poly(b.system, j, x), b.measure)
            assert abs(val) <= 1e-10 * math.sqrt(norms.h[i] * norms.h[j])


def test_family_mu0_closed_forms():
    assert F.family_mu0(F.legendre()) == 2.0
    assert F.family_mu0(F.hermite()) == pytest.approx(math.sqrt(math.pi))
    assert F.family_mu0(F.chebyshev_t()) == pytest.approx(math.pi)
    got = M.integrate(F.family_measure(F.jacobi(0.5, 1.5)), lambda x: 1.0)
    assert got == pytest.approx(F.family_mu0(F.jacobi(0.5, 1.5)), rel=1e-12)


# ---------------------------------------------------------------------------
# limits, electrostatics, generating function

def test_limit_26_example():
    # alpha = 1e4, n = 2: error below 1e-3
    assert F.limit_check(26, 2, 1e4, 0.5) < 1e-3


def test_limit_27_example():
    assert F.limit_check(27, 1, 1e6, 1.0, alpha=0.0) < 1e-5


def test_limit_degree_zero_exact():
    for which in (26, 27, 28):
        assert F.limit_check(which, 0, 100.0, 0.7) == 0.0


def test_limit_unknown_relation():
    with pytest.raises(F.FamilyError):
        F.limit_check(25, 1, 10.0, 0.0)


def test_electrostatic_gradient_legendre():
    assert F.electrostatic_gradient(1, 0.5, 0.5, [0.0]) == pytest.approx(0.0)
    g = F.electrostatic_gradient(2, 0.5, 0.5,
                                 [-1 / math.sqrt(3), 1 / math.sqrt(3)])
    assert np.max(np.abs(g)) < 1e-12


def test_electrostatic_gradient_perturbed():
    zs = np.array([-1 / math.sqrt(3) + 0.01, 1 / math.sqrt(3)])
    g = F.electrostatic_gradient(2, 0.5, 0.5, zs)
    assert np.max(np.abs(g)) > 0.01


def test_electrostatic_coincident_points_rejected():
    with pytest.raises(F.FamilyError):
        F.electrostatic_gradient(2, 1.0, 1.0, [0.1, 0.1])


def test_gegenbauer_generating_function():
    resid, tail = F.gegenbauer_genfn_check(1.0, 0.3, 0.2, 20)
    assert resid <= tail
    assert resid < 1e-10
