import copy
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from orthopoly import discrete as D
from orthopoly import families as F
from orthopoly import identities as I
from orthopoly import measures as M
from orthopoly import recurrence as R
from orthopoly.errors import NumericalFailure


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
    with pytest.raises(F.FamilyError, match="pole"):
        F.hyp([-4.0], [-2.0], 1.0)
    # P_3^(-2, 0.5): its lower parameter alpha + 1 = -1 vanishes at k = 1
    with pytest.raises(F.FamilyError, match="pole"):
        F.jacobi_eval(3, -2.0, 0.5, 0.3)


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
    # exact at 0: H_n(0) = (-1)^m n!/m! for n = 2m, and 0 for odd n
    assert [F.hermite_eval(n, 0.0) for n in range(4)] == [1.0, 0.0, -2.0, 0.0]
    assert F.hermite_eval(10, 0.0) == -30240.0


@pytest.mark.parametrize("call", [
    lambda v: F.jacobi_eval(5, 0.5, 1.5, v),
    lambda v: F.jacobi_eval(5, v, 1.5, 0.3),
    lambda v: F.laguerre_eval(5, 0.5, v),
    lambda v: F.laguerre_eval(5, v, 1.0),
    lambda v: F.hermite_eval(5, v),
    lambda v: F.special_case_eval(F.chebyshev_t(), 5, v),
    lambda v: F.hyp([-3.0, 1.5], [2.0], v),
    lambda v: F.hyp([-3.0, v], [2.0], 0.5),
    lambda v: F.hyp([-3.0, 1.5], [v], 0.5),
    lambda v: D.discrete_eval(D.charlier(2.0), 5, v),
], ids=["jacobi-x", "jacobi-alpha", "laguerre-x", "laguerre-alpha",
        "hermite-x", "chebyshev-x", "hyp-z", "hyp-upper", "hyp-lower",
        "charlier-x"])
@pytest.mark.parametrize("value", (math.inf, -math.inf, math.nan))
def test_series_at_a_non_finite_argument_raise_family_error(call, value):
    # never the OverflowError or ValueError of float.as_integer_ratio
    with pytest.raises(F.FamilyError, match="not finite"):
        call(value)


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


# monomial coefficient vectors (exact-in-coefficients derivatives), formed
# from float factorials: FamilyError from degree 171 on

@F._in_double_range
def jacobi_coeffs(n: int, alpha: float, beta: float) -> np.ndarray:
    """Monomial coefficients of P_n^{(alpha,beta)}, ascending order."""
    out = np.zeros(n + 1)
    zpow = np.array([1.0])
    base = np.array([-0.5, 0.5])  # (x - 1)/2
    for k in range(n + 1):
        t = (F.pochhammer(n + alpha + beta + 1, k)
             * F.pochhammer(alpha + k + 1, n - k)
             / (math.factorial(k) * math.factorial(n - k)))
        out[:len(zpow)] += t * zpow
        zpow = np.convolve(zpow, base)
    return out


@F._in_double_range
def laguerre_coeffs(n: int, alpha: float) -> np.ndarray:
    out = np.zeros(n + 1)
    for k in range(n + 1):
        out[k] = ((-1) ** k * F.pochhammer(alpha + k + 1, n - k)
                  / (math.factorial(k) * math.factorial(n - k)))
    return out


@F._in_double_range
def hermite_coeffs(n: int) -> np.ndarray:
    out = np.zeros(n + 1)
    for j in range(n // 2 + 1):
        out[n - 2 * j] = ((-1) ** j * 2 ** (n - 2 * j) * math.factorial(n)
                          / (math.factorial(j) * math.factorial(n - 2 * j)))
    return out


def jacobi_leading_coeff(n: int, alpha: float, beta: float) -> float:
    """k_n = (n+alpha+beta+1)_n / (2^n n!), from n factors: an oracle for
    the closed-form rows of jacobi_system."""
    return F.pochhammer(n + alpha + beta + 1, n) / (2 ** n * math.factorial(n))


def test_coeff_vectors_match_series():
    for spec, coeffs in ((F.jacobi(0.5, 1.5),
                          lambda n: jacobi_coeffs(n, 0.5, 1.5)),
                         (F.laguerre(0.3),
                          lambda n: laguerre_coeffs(n, 0.3)),
                         (F.hermite(), hermite_coeffs)):
        for n in (0, 1, 4, 9):
            c = coeffs(n)
            x = 0.37
            assert npoly.polyval(x, c) == pytest.approx(
                F.special_case_eval(spec, n, x), rel=1e-11)


def _direct_mp_sum(term, n_terms, dps):
    """A direct sum of mpmath terms at dps digits, rounded to double."""
    import mpmath

    with mpmath.workdps(dps):
        return float(mpmath.fsum(term(mpmath.mpf, k) for k in range(n_terms)))


def _jacobi_term(n, a, b, x):
    import mpmath

    return lambda mp, k: (mpmath.rf(mp(a) + mp(b) + n + 1, k)
                          * mpmath.rf(mp(a) + k + 1, n - k)
                          / (mpmath.factorial(k) * mpmath.factorial(n - k))
                          * ((mp(x) - 1) / 2) ** k)


def _laguerre_term(n, a, x):
    import mpmath

    return lambda mp, k: (mpmath.rf(mp(a) + k + 1, n - k)
                          / (mpmath.factorial(k) * mpmath.factorial(n - k))
                          * (-mp(x)) ** k)


@pytest.mark.parametrize("n", (30, 60, 100, 171, 200))
def test_escalated_series_equal_a_direct_mp_sum(n):
    # the cases whose float sums cancelled and once escalated to mpmath: the
    # exact sums must equal a direct sum of mpmath terms rounded to double.
    # The cancellation grows like 10^(n/2) here (about 10^53 at n = 100),
    # so the direct sum runs at 60 + n digits.
    cases = [(F.jacobi_eval(n, 0.5, 1.5, x), _jacobi_term(n, 0.5, 1.5, x))
             for x in (-0.7, -0.2, 0.3, 0.8)]
    # Gegenbauer(1.5) through its Jacobi(1, 1) reduction
    cases += [(F.jacobi_eval(n, 1.0, 1.0, x), _jacobi_term(n, 1.0, 1.0, x))
              for x in (-0.7, -0.2, 0.3, 0.8)]
    cases += [(F.laguerre_eval(n, 0.5, x), _laguerre_term(n, 0.5, x))
              for x in (0.5, 3.0, 7.0, 15.0)]
    for got, term in cases:
        assert got == _direct_mp_sum(term, n + 1, 60 + n), n


def test_degree_171_raises_family_error():
    # 171! is the first factorial beyond the double range: the coefficient
    # vectors, formed from float factorials, raise there, while the exact
    # series give the correctly rounded value
    import mpmath

    n = 171
    for call in (lambda n: jacobi_coeffs(n, 0.5, 1.5),
                 lambda n: laguerre_coeffs(n, 0.5)):
        with pytest.raises(F.FamilyError, match="double range"):
            call(n)
    assert laguerre_coeffs(170, 0.5)[-1] == 1 / math.factorial(170)
    assert F.jacobi_eval(n, 0.5, 1.5, 0.3) == _direct_mp_sum(
        _jacobi_term(n, 0.5, 1.5, 0.3), n + 1, 60 + n)
    assert F.laguerre_eval(n, 0.5, 1.0) == _direct_mp_sum(
        _laguerre_term(n, 0.5, 1.0), n + 1, 60 + n)
    with mpmath.workdps(60 + n):
        assert F.hermite_eval(n, 0.5) == float(mpmath.hermite(n, 0.5))
        assert F.special_case_eval(F.chebyshev_t(), n, 0.3) == float(
            mpmath.chebyt(n, 0.3))


# ---------------------------------------------------------------------------
# differential equations, shifts, Rodrigues

def test_ode_residuals():
    assert I.ode_residual(F.jacobi(0.5, 1.5), 4, 0.3)[4] == pytest.approx(
        0.0, abs=1e-12)
    assert I.ode_residual(F.hermite(), 3, -0.8)[3] == pytest.approx(
        0.0, abs=1e-12)
    assert I.ode_residual(F.laguerre(0.5), 6, 2.5)[6] == pytest.approx(
        0.0, abs=1e-12)
    assert I.ode_residual(F.gegenbauer(1.25), 5, 0.4)[5] == pytest.approx(
        0.0, abs=1e-12)
    assert I.ode_residual(F.legendre(), 0, 0.9)[0] == 0.0


def test_shift_hermite_raise():
    # H_4'(0.2) = 8 H_3(0.2)
    assert I.shift_check(F.hermite(), 4, "raise", 0.2)[4] == pytest.approx(
        0.0, abs=1e-12)


def test_shift_jacobi_both_directions():
    for d in ("raise", "lower"):
        for n in (1, 3, 7):
            assert abs(I.shift_check(F.jacobi(0.5, 1.5), n, d, 0.3)[n]) \
                < 1e-12


def test_shift_laguerre_lower():
    assert abs(I.shift_check(F.laguerre(0.5), 4, "lower", 1.7)[4]) < 1e-12


def test_shift_degree_zero():
    assert I.shift_check(F.hermite(), 0, "raise", 0.4)[0] == 0.0


def test_shift_unknown_direction():
    with pytest.raises(F.FamilyError):
        I.shift_check(F.hermite(), 1, "sideways", 0.0)


def test_shift_battery_builds_one_pair_of_chains(monkeypatch):
    # both directions read the same chains: p_k and q_k, one
    # eval_all_derivatives pass each
    real, calls = R.eval_all_derivatives, []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(R, "eval_all_derivatives", counting)
    spec, xs = F.jacobi(0.5, 1.5), np.linspace(-0.9, 0.9, 7)
    residuals, details = I.IDENTITIES["shift"](spec, 30, xs)
    assert calls == [30, 29] and details == {}
    blocks = np.hstack([I.shift_check(spec, 30, d, xs)
                        for d in ("raise", "lower")])
    # one row per degree 0..30
    assert residuals.shape == (31, 14)
    assert residuals.tobytes() == blocks.tobytes()


def test_battery_names_the_first_degree_that_is_not_finite(monkeypatch):
    rows = np.zeros((4, 3))
    rows[2, 1], rows[3, 0] = np.nan, np.inf
    for residuals, degree in ((rows, 9), (rows[3:], 10)):
        monkeypatch.setitem(I.IDENTITIES, "cd",
                            lambda spec, n, xs, r=residuals: (r, {}))
        with pytest.raises(NumericalFailure,
                           match=f"cd residual at degree {degree} is not "
                                 "finite"):
            I.check_battery(F.legendre(), "cd", 10)
    rows[2:] = [[0.5, -3.0, 1.0], [0.0, 2.0, -0.25]]
    monkeypatch.setitem(I.IDENTITIES, "cd", lambda spec, n, xs: (rows, {}))
    assert I.check_battery(F.legendre(), "cd", 10) == (3.0, {})


def rodrigues_eval(spec, n: int, x: float) -> float:
    """Evaluate via the Rodrigues formula.  With the Pearson pair,
    (d/dx)^k (sigma^n w) = sigma^(n-k) w r_k for the polynomials r_0 = 1,
    r_{k+1} = sigma r_k' + (tau + (n - k - 1) sigma') r_k, recursed
    explicitly.  The recursion and the value at x run in exact rational
    arithmetic (every double is a binary fraction), so the monomial basis
    cancels nothing and the result is rounded once; in doubles it lost up
    to 4.6e-9 by n = 24.  The price is time (about 1.3 s at n = 100), so
    it suits small n.  As in double arithmetic, a value past the double
    range is +-inf, and a non-finite x gives the limit of the polynomial
    (nan for nan).  A test oracle, independent of the series sums."""
    # K_n of p_n = K_n w^-1 (d/dx)^n (sigma^n w), by family
    constant = {
        "jacobi": lambda n: Fraction((-1) ** n, 2 ** n * math.factorial(n)),
        "laguerre": lambda n: Fraction(1, math.factorial(n)),
        "hermite": lambda n: (-1) ** n,
    }.get(spec.family)
    if constant is None:
        raise F.FamilyError("Rodrigues formula implemented for jacobi, "
                          f"laguerre, hermite; got {spec.family!r}")
    sigma, tau = (np.array([Fraction(v) for v in poly], dtype=object)
                  for poly in I.pearson_pair(spec)[:2])
    dsigma = npoly.polyder(sigma)
    r = np.array([Fraction(1)], dtype=object)
    for k in range(n):
        r = npoly.polyadd(
            npoly.polymul(sigma, npoly.polyder(r)),
            npoly.polymul(npoly.polyadd(tau, (n - k - 1) * dsigma), r))
    if not math.isfinite(x):
        return float(constant(n) * r[-1]) * x ** (len(r) - 1)
    value = constant(n) * npoly.polyval(Fraction(x), r)
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def test_rodrigues_matches_series():
    for spec in (F.jacobi(0.5, 1.5), F.laguerre(0.3), F.hermite()):
        for n in (0, 1, 2, 5, 9):
            for x in (-0.7, 0.2, 0.9):
                if spec.family == "laguerre":
                    x = abs(x) * 4
                a = rodrigues_eval(spec, n, x)
                b = F.special_case_eval(spec, n, x)
                assert a == pytest.approx(b, rel=1e-11, abs=1e-11)


@pytest.mark.parametrize("alpha, beta", [(2.35, 1.23), (0.3, 0.7)])
def test_rodrigues_jacobi_against_mpmath(alpha, beta):
    # in doubles the monomial recursion lost up to 4.6e-9 here by n = 24
    import mpmath

    spec = F.jacobi(alpha, beta)
    for n in range(25):
        for x in (-0.7, 0.2, 0.33, 0.9):
            with mpmath.workdps(50):
                ref = mpmath.jacobi(n, mpmath.mpf(alpha), mpmath.mpf(beta),
                                    mpmath.mpf(x))
            err = abs(rodrigues_eval(spec, n, x) - ref) / max(1, abs(ref))
            assert err <= 1e-14, (n, x)


def test_rodrigues_outside_the_double_range():
    # the exact route rounds like double arithmetic: +-inf past the range,
    # the polynomial's limit at +-inf, nan at nan
    assert rodrigues_eval(F.hermite(), 120, 1e4) == math.inf
    assert rodrigues_eval(F.hermite(), 121, -1e4) == -math.inf
    assert rodrigues_eval(F.laguerre(0.5), 3, math.inf) == -math.inf
    assert rodrigues_eval(F.jacobi(0.5, 1.5), 3, -math.inf) == -math.inf
    assert rodrigues_eval(F.hermite(), 0, math.inf) == 1.0
    assert math.isnan(rodrigues_eval(F.hermite(), 2, math.nan))


def test_rodrigues_hermite_h2():
    assert rodrigues_eval(F.hermite(), 2, 1.0) == pytest.approx(2.0)


def test_rodrigues_jacobi_linear():
    assert rodrigues_eval(F.jacobi(0.0, 0.0), 1, 0.5) == pytest.approx(0.5)


def test_rodrigues_unsupported_family():
    with pytest.raises(F.FamilyError):
        rodrigues_eval(F.chebyshev_t(), 2, 0.0)


# ---------------------------------------------------------------------------
# section 4.5 chain for monic Jacobi

def test_monic_derivative_lowers_degree_and_shifts_parameters():
    # d/dx of monic P_n^{(a,b)} equals n times monic P_{n-1}^{(a+1,b+1)}
    a, b = 0.5, 1.5
    for n in (1, 2, 5, 8):
        pc = jacobi_coeffs(n, a, b) / jacobi_leading_coeff(n, a, b)
        qc = (jacobi_coeffs(n - 1, a + 1, b + 1)
              / jacobi_leading_coeff(n - 1, a + 1, b + 1))
        assert np.allclose(npoly.polyder(pc), n * qc, rtol=1e-12, atol=1e-12)


def test_monic_lowering_relation():
    # ((1-x^2) d/dx + (b-a-(a+b+2)x)) q_{n-1} = -(n+a+b+1) p_n, monic chain
    a, b = 0.5, 1.5
    n = 4
    qc = (jacobi_coeffs(n - 1, a + 1, b + 1)
          / jacobi_leading_coeff(n - 1, a + 1, b + 1))
    pc = jacobi_coeffs(n, a, b) / jacobi_leading_coeff(n, a, b)
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
    pc = jacobi_coeffs(n, a, b) / jacobi_leading_coeff(n, a, b)
    qc = (jacobi_coeffs(n - 1, a + 1, b + 1)
          / jacobi_leading_coeff(n - 1, a + 1, b + 1))
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
        got = F.jacobi_eval(n, a, b, 1.0) / jacobi_leading_coeff(n, a, b)
        want = (2.0 ** n * F.pochhammer(a + 1, n)
                / F.pochhammer(n + a + b + 1, n))
        assert got == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# quadratic transformation and even-weight splitting

def quadratic_transform_check(n: int, alpha: float,
                              x: float) -> tuple[float, float]:
    """Residuals of the even/odd quadratic transformation identities at one
    degree and point, from the hypergeometric series: the test oracle of
    identities.quadratic_transform_residuals."""
    y = 2 * x * x - 1

    def norm1(m):   # P_m^{(alpha, beta)}(1), for every beta
        return F.pochhammer(alpha + 1, m) / math.factorial(m)

    even = (F.jacobi_eval(2 * n, alpha, alpha, x) / norm1(2 * n)
            - F.jacobi_eval(n, alpha, -0.5, y) / norm1(n))
    odd = (F.jacobi_eval(2 * n + 1, alpha, alpha, x) / norm1(2 * n + 1)
           - x * F.jacobi_eval(n, alpha, 0.5, y) / norm1(n))
    return even, odd


def test_quadratic_transform_example():
    even, odd = quadratic_transform_check(1, 0.0, 0.6)
    assert abs(even) < 1e-12 and abs(odd) < 1e-12


def test_quadratic_transform_at_one():
    even, odd = quadratic_transform_check(3, 0.7, 1.0)
    assert abs(even) < 1e-12 and abs(odd) < 1e-12


def test_quadratic_transform_sweep():
    for n in range(5):
        for x in (-1.0, -0.3, 0.2, 0.9):
            even, odd = quadratic_transform_check(n, 0.5, x)
            assert abs(even) < 1e-11 and abs(odd) < 1e-11


def limit_value_error(which: int, n: int, parameter: float, x: float,
                      alpha: float = 0.0) -> float:
    """Error of one of the three limit relations at x, from values: the
    scaled monic source value against the monic target value.  The small-n
    oracle of identities.limit_row_errors (the value form needs a >> n^2,
    and a^(n/2) leaves the double range from n = 213 at a = 800).

    which=26: Jacobi(a,a) -> Hermite; which=27: Jacobi(alpha,b) -> Laguerre
    (parameter is b); which=28: Laguerre(a) -> Hermite.
    """
    herm = F.hermite_monic_system()
    if which == 26:
        a = parameter
        lhs = a ** (n / 2.0) * R.eval_poly(F.jacobi_monic_system(a, a), n,
                                           x / math.sqrt(a))
        return abs(lhs - R.eval_poly(herm, n, x))
    if which == 27:
        b = parameter
        lhs = (-b / 2.0) ** n * R.eval_poly(F.jacobi_monic_system(alpha, b),
                                            n, 1 - 2 * x / b)
        return abs(lhs - R.eval_poly(F.laguerre_monic_system(alpha), n, x))
    a = parameter
    lhs = ((2 * a) ** (-n / 2.0)
           * R.eval_poly(F.laguerre_monic_system(a), n,
                         math.sqrt(2 * a) * x + a))
    return abs(lhs - R.eval_poly(herm, n, x))


_LIMIT_RATES = {26: 2.0, 27: 2.0, 28: math.sqrt(2)}


@pytest.mark.parametrize("which", (26, 27, 28))
def test_limit_rows_agree_with_the_values_at_small_n(which):
    # on the row form's schedule, the value errors close in at the rate of
    # the slowest row, as the row errors do, or are 0 with them
    for n in range(5):
        params = [64 * max(n, 1) ** 2 * 2.0 ** i for i in range(4)]
        values = np.array([limit_value_error(which, n, a, 0.5, alpha=0.5)
                           for a in params])
        rows = np.array([I.limit_row_errors(which, n, a, 0.5)[0].max(
            initial=0.0) for a in params])
        assert (values == 0).all() == (rows == 0).all(), (n, values, rows)
        if values.all():
            for errs in (values, rows):
                ratios = errs[:-1] / errs[1:] / _LIMIT_RATES[which]
                assert np.abs(ratios - 1).max() <= 0.1, (n, errs)


_CLI_POINTS = np.linspace(-0.9, 0.9, 7)
_EPS = np.finfo(float).eps


# alpha of Legendre, Jacobi(0.5, 1.5), Gegenbauer(1.5), Chebyshev T and U
@pytest.mark.parametrize("alpha", (0.0, 0.5, 1.0, -0.5))
def test_quadratic_transform_residuals_match_the_series(alpha):
    """The row form and the series agree at small n: the blocks' rows pass,
    the series residuals are at rounding level, and the monic chains that
    the block rows define at t = x^2 give the monic Jacobi(alpha, alpha)
    values, p_2k(x) = q_k(x^2) and p_2k+1(x) = x r_k(x^2)."""
    even, odd = I.quadratic_transform_residuals(10, alpha)
    assert even.shape == odd.shape == (11, 2)
    assert max(even.max(), odd.max()) <= 8 * _EPS
    for k in range(11):
        for x in _CLI_POINTS:
            e, o = quadratic_transform_check(k, alpha, float(x))
            assert abs(e) <= 1e-12 and abs(o) <= 1e-12
    c = F._jacobi_monic_rows(np.arange(23), alpha, alpha)[1]
    p = R.eval_all(F.jacobi_monic_system(alpha, alpha), 21, _CLI_POINTS)
    for odd_block in (0, 1):
        m = 2 * np.arange(11) + odd_block
        q = R.from_tables(np.ones(11), c[m] + c[m + 1],
                          c[m] * np.concatenate(([0.0], c[m[1:] - 1])),
                          form="monic")
        got = R.eval_all(q, 10, _CLI_POINTS ** 2)
        got = got * _CLI_POINTS ** odd_block
        assert np.allclose(got, p[odd_block::2], rtol=1e-13, atol=1e-15)


def test_quadratic_transform_residuals_reach_degree_1000():
    # no value is formed, so nothing leaves the double range
    for alpha in (0.0, -0.5, 1.0, -0.9, 3.0):
        even, odd = I.quadratic_transform_residuals(1000, alpha)
        assert even.shape == odd.shape == (1001, 2)
        assert max(even.max(), odd.max()) <= 8 * _EPS


def test_quadratic_transform_residuals_below_minus_one_half():
    # the value form lost digits here (3e-12 to 9e-12 to degree 21 by a
    # ratio recurrence); the rows of alpha = beta near -1 cancel j + alpha
    # + beta exactly
    for alpha in (-0.9, -0.999, -1 + 1e-9):
        even, odd = I.quadratic_transform_residuals(21, alpha)
        assert max(even.max(), odd.max()) <= 8 * _EPS, alpha


def split_even_system(sys, n_max):
    """Split an even system into monic q, r with p_2n(x) = q_n(x^2),
    p_{2n+1}(x) = x r_n(x^2) (after monic rescaling of p)."""
    b = sys.arrays(2 * n_max + 2)[1]
    if b.any():
        raise R.RecurrenceError(
            f"b_{np.flatnonzero(b)[0]} != 0: measure is not even")

    def half(shift: int) -> R.RecurrenceSystem:
        def rows(j: np.ndarray) -> tuple:
            # the monic c_i of sys are the Favard products a_{i-1} c_i
            c = np.concatenate(([0.0], R.favard_products(sys, 2 * j[-1]
                                                         + shift + 1)))
            i = 2 * j + shift
            return 1.0, c[i] + c[i + 1], np.where(j > 0, c[i - 1] * c[i], 0.0)

        return R.RecurrenceSystem(rows_fn=rows, form="monic", p0=1.0,
                                  max_index_hint=n_max)

    return half(0), half(1)


def test_split_hermite_gives_laguerre_half():
    # q_n from Hermite are the monic Laguerre(-1/2) polynomials
    q_sys, r_sys = split_even_system(F.hermite_monic_system(), 5)
    lag = F.laguerre_monic_system(-0.5)
    for n in range(1, 6):
        assert q_sys.coeffs(n) == pytest.approx(lag.coeffs(n))
    # r_0 = 1: p_1(x) = x = x * r_0(x^2)
    assert R.eval_poly(r_sys, 0, 0.3) == 1.0


def test_split_legendre_q1():
    q_sys, _ = split_even_system(
        F.jacobi_monic_system(0.0, 0.0), 4)
    # monic p_2 = x^2 - 1/3, so q_1(y) = y - 1/3
    assert R.eval_poly(q_sys, 1, 0.0) == pytest.approx(-1.0 / 3.0)


def test_split_values_match():
    sys = F.hermite_monic_system()
    q_sys, r_sys = split_even_system(sys, 4)
    for x in (0.3, 1.1):
        for n in range(4):
            assert R.eval_poly(sys, 2 * n, x) == pytest.approx(
                R.eval_poly(q_sys, n, x * x), rel=1e-12)
            assert R.eval_poly(sys, 2 * n + 1, x) == pytest.approx(
                x * R.eval_poly(r_sys, n, x * x), rel=1e-12)


def test_split_rejects_uneven_system():
    with pytest.raises(R.RecurrenceError):
        split_even_system(F.laguerre_monic_system(0.0), 3)


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

def _largest_row_error(which, n, a, alpha=0.0):
    return I.limit_row_errors(which, n, a, alpha)[0].max(initial=0.0)


def test_limit_26_example():
    # a = 1e4, n = 2: the rows are within 1e-3 of Hermite's
    assert _largest_row_error(26, 2, 1e4) < 1e-3


def test_limit_27_example():
    assert _largest_row_error(27, 1, 1e6, alpha=0.0) < 1e-5


def test_limit_degree_zero_exact():
    # p_0 = 1 has no rows
    for which in (26, 27, 28):
        errors, floors = I.limit_row_errors(which, 0, 100.0)
        assert errors.size == floors.size == 0


def test_limit_unknown_relation():
    with pytest.raises(F.FamilyError):
        I.limit_row_errors(25, 1, 10.0)


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


# ---------------------------------------------------------------------------
# closed-form rows, evaluated one index at a time

def _lattice_terms(spec):
    """n -> (A_n, C_n) of the lattice recurrence with p_n(0) = 1 (Koekoek,
    Lesky & Swarttouw 2010, (9.5.3), (9.10.3), (9.11.3), (9.14.3))."""
    p = spec.parameters
    if spec.family == "charlier":
        return lambda n: (p["a"], float(n))
    if spec.family == "krawtchouk":
        return lambda n: (p["p"] * (p["N"] - n), n * (1 - p["p"]))
    if spec.family == "meixner":
        c, beta = p["c"], p["beta"]
        return lambda n: (c * (n + beta) / (1 - c), n / (1 - c))
    al, be, N = p["alpha"], p["beta"], p["N"]

    def hahn(n):
        if n == 0:
            return (al + 1) * N / (al + be + 2), 0.0
        s = 2 * n + al + be
        return ((n + al + be + 1) * (n + al + 1) * (N - n)
                / ((s + 1) * (s + 2)),
                n * (n + al + be + N + 1) * (n + be) / (s * (s + 1)))

    return hahn


def _row_oracle(spec, monic):
    """The row at index n, as a tuple of Python floats."""
    if spec.family == "legendre":
        return ((lambda n: (1.0, 0.0, n * n / (4 * n * n - 1) if n else 0.0))
                if monic
                else lambda n: ((n + 1) / (2 * n + 1), 0.0, n / (2 * n + 1)))
    if spec.family == "hermite":
        return ((lambda n: (1.0, 0.0, n / 2.0)) if monic
                else lambda n: (0.5, 0.0, float(n)))
    if spec.family == "laguerre":
        a = spec.alpha
        return ((lambda n: (1.0, 2 * n + a + 1, n * (n + a))) if monic
                else lambda n: (-(n + 1.0), 2 * n + a + 1, -(n + a)))
    terms = _lattice_terms(spec)

    def row(n):
        A, C = terms(n)
        if monic:
            return 1.0, A + C, terms(n - 1)[0] * C if n else 0.0
        return -A, A + C, -C

    return row


@pytest.mark.parametrize("monic", [False, True])
@pytest.mark.parametrize("spec", [
    F.legendre(), F.hermite(), F.laguerre(0.5), D.charlier(2.0),
    D.meixner(1.5, 0.4), D.krawtchouk(0.3, 40), D.hahn(0.5, 1.5, 40)],
    ids=lambda s: s.family)
def test_family_rows_equal_their_per_index_closed_forms(spec, monic):
    build = F.family_monic_system if monic else F.family_system
    N = spec.parameters.get("N")
    # the general form of a finite lattice ends with a_N = 0
    top = 1000 if N is None else N if monic else N - 1
    row = _row_oracle(spec, monic)
    want = np.array([row(n) for n in range(top + 1)]).T
    assert build(spec).arrays(top).tobytes() == want.tobytes()
    if N is not None:
        with pytest.raises(R.RecurrenceError, match=f"stops at degree N={N}"):
            build(spec).arrays(N + 1)


@pytest.mark.parametrize("spec", [F.jacobi(0.5, 1.5), D.krawtchouk(0.3, 40)])
def test_family_spec_copies_and_pickles(spec):
    # copy and pickle build a bare instance first, whose attribute lookups
    # must not recurse through the parameter fallback
    for twin in (copy.copy(spec), copy.deepcopy(spec),
                 pickle.loads(pickle.dumps(spec))):
        assert twin == spec
        assert twin.discrete == spec.discrete
        for name, value in spec.parameters.items():
            assert getattr(twin, name) == value
    with pytest.raises(AttributeError):
        spec.missing


@pytest.mark.parametrize("alpha", (0.0, 0.5, 1.0, -0.5, -0.9, -0.1))
def test_kept_ratio_systems_keep_the_bits_of_new_ones(alpha):
    """The quadratic check keeps nothing, so no call depends on the calls
    before it: first and repeat calls at rising and falling degrees give
    the bits of a call on an emptied store, and leave it empty."""
    for n in (0, 1, 10, 1000, 133, 2, 30):
        F.clear_systems()
        ref = I.quadratic_transform_residuals(n, alpha)
        for _ in range(2):
            got = I.quadratic_transform_residuals(n, alpha)
            for g, r in zip(got, ref):
                assert g.shape == r.shape and g.tobytes() == r.tobytes()
        assert not F._shared


def test_a_repeat_quadratic_check_reuses_its_ratio_systems(monkeypatch):
    """A quadratic check, first or repeat, is three calls of the row
    function and no recurrence pass: no system is built or kept."""
    calls = []
    rows, run = F._jacobi_monic_rows, R.eval_all

    def spy_rows(j, alpha, beta):
        calls.append((len(j), alpha, beta))
        return rows(j, alpha, beta)

    def no_pass(*args, **kwargs):
        raise AssertionError("the quadratic check ran a recurrence pass")

    monkeypatch.setattr(F, "_jacobi_monic_rows", spy_rows)
    monkeypatch.setattr(R, "eval_all", no_pass)
    first = I.quadratic_transform_residuals(10, 0.0)
    second = I.quadratic_transform_residuals(10, 0.0)
    assert calls == [(23, 0.0, 0.0), (12, 0.0, -0.5), (12, 0.0, 0.5)] * 2
    assert all(f.tobytes() == s.tobytes() for f, s in zip(first, second))
    assert not F._shared


def test_integer_parameters_give_the_rows_of_float_ones():
    # int parameters once made int64 products (s - 1) s^2 (s + 1) that
    # overflow: c_2 of Jacobi(100000, 100000) came out -3.38e-3
    for alpha, beta in ((100000, 100000), (3, 5), (0, 0), (1, 2), (-0, 7)):
        for make in (F.jacobi_monic_system, F.jacobi_system):
            got = make(alpha, beta).arrays(40)
            want = make(float(alpha), float(beta)).arrays(40)
            assert got.tobytes() == want.tobytes(), (alpha, beta)
    c2 = F.jacobi_monic_system(100000, 100000).arrays(5)[2][2]
    assert c2 == pytest.approx(9.9997e-6, rel=1e-4)
