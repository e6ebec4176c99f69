import math

import mpmath
import numpy as np
import pytest

from orthopoly import momentprob as MP
from orthopoly import recurrence as R
from orthopoly.families import (family_measure, hermite_monic_system,
                                jacobi_monic_system, laguerre_monic_system,
                                legendre)


def chebyshev_t_monic():
    # b = 0, c_1 = 1/2, c_n = 1/4
    return R.RecurrenceSystem(
        lambda j: (1.0, 0.0, np.select([j == 0, j == 1], [0.0, 0.5], 0.25)),
        form="monic", p0=1.0)


def legendre_monic():
    return jacobi_monic_system(0.0, 0.0)


def test_numerator_polys_base():
    assoc = MP.numerator_polys(legendre_monic())
    assert R.eval_poly(assoc, 0, 3.7) == 1.0


def test_numerator_polys_chebyshev_linear():
    # p_1^{(1)}(x) = x - b_1 = x
    assoc = MP.numerator_polys(chebyshev_t_monic())
    for x in (-0.5, 0.2, 2.0):
        assert R.eval_poly(assoc, 1, x) == pytest.approx(x)


def test_numerator_polys_keep_favard():
    assoc = MP.numerator_polys(legendre_monic())
    assert R.validate_favard(assoc, 8).passed


def test_numerator_polys_orthonormal_shift():
    sys = legendre_monic()
    norms = R.norms_from_recurrence(sys, 2.0, 1.0, 10)
    ortho = R.convert_form(sys, norms, "orthonormal")
    assoc = MP.numerator_polys(ortho)
    # a_n^{(1)} = a_{n+1}, b_n^{(1)} = b_{n+1}
    for n in range(5):
        assert assoc.coeffs(n)[0] == ortho.coeffs(n + 1)[0]
        assert assoc.coeffs(n)[1] == ortho.coeffs(n + 1)[1]


def test_numerator_polys_reject_general():
    sys = R.RecurrenceSystem(
        lambda j: (2.0, 0.0, np.where(j > 0, 1.0, 0.0)), form="general")
    with pytest.raises(MP.MomentProblemError):
        MP.numerator_polys(sys)


def test_stieltjes_identity_legendre():
    m = family_measure(legendre())
    for n in (1, 2, 4):
        assert abs(MP.stieltjes_identity_residual(
            legendre_monic(), m, n, 2.0)) < 1e-10


def test_continued_fraction_first_convergent():
    sys = chebyshev_t_monic()
    assert MP.continued_fraction(sys, 1, 2.0) == pytest.approx(0.5)


def test_continued_fraction_chebyshev_second():
    # F_2(2) = 1/(2 - (1/2)/2) = 4/7
    sys = chebyshev_t_monic()
    assert MP.continued_fraction(sys, 2, 2.0) == pytest.approx(4.0 / 7.0)


def test_continued_fraction_methods_agree():
    # the bottom-up sum against the ratio p^(1)_(n-1)(z) / p_n(z) at 40 digits
    sys = legendre_monic()
    z = 1.5 + 0.5j
    a = MP.continued_fraction(sys, 6, z)
    with mpmath.workdps(40):
        w = mpmath.mpc(z)
        b = complex(R.eval_all(MP.numerator_polys(sys), 5, w)[-1]
                    / R.eval_all(sys, 6, w)[-1])
    assert abs(a - b) < 1e-10 * abs(a)


def test_continued_fraction_errors():
    sys = chebyshev_t_monic()
    with pytest.raises(MP.MomentProblemError):
        MP.continued_fraction(sys, 1, 0.0)  # z = b_0 pole
    with pytest.raises(MP.MomentProblemError):
        MP.continued_fraction(sys, 0, 2.0)


def test_markov_chebyshev_closed_form():
    # int dmu/(z-x) over the arcsine measure: F(z) = 1/sqrt(z^2-1) at z=2
    sys = chebyshev_t_monic()
    from orthopoly.families import chebyshev_t
    m = family_measure(chebyshev_t(), normalized=True)
    rep = MP.markov_transform(sys, m, 2.0, [5, 10, 20, 40])
    assert rep.converged
    assert rep.values[-1] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-10)
    assert rep.errors[-1] < 1e-10


def test_markov_large_z_behaves_like_inverse():
    sys = legendre_monic()
    m = family_measure(legendre())
    z = 50.0
    rep = MP.markov_transform(sys, m, z, [4, 8])
    assert rep.values[-1] * z == pytest.approx(1.0, rel=1e-3)


def test_markov_complex_oracle():
    sys = legendre_monic()
    m = family_measure(legendre())
    rep = MP.markov_transform(sys, m, complex(3.0, 1.0), [6, 12, 24])
    assert rep.errors[-1] < 1e-10
    assert rep.converged


def test_carleman_hermite_diverges():
    # monic c_n = n/2, terms 1/sqrt(n/2) give a divergent series
    rep = MP.carleman([1.0 / math.sqrt(n / 2.0) for n in range(1, 2001)])
    assert rep.verdict == "diverges"
    assert rep.exponent == pytest.approx(0.5, abs=0.1)


def test_carleman_laguerre_diverges():
    for alpha in (-0.5, 0.0, 2.0):
        rep = MP.carleman([1.0 / math.sqrt(n * (n + alpha))
                           for n in range(1, 2001)])
        assert rep.verdict == "diverges"


def test_carleman_geometric_converges():
    rep = MP.carleman([0.5 ** n for n in range(1, 2001)])
    assert rep.verdict == "converges"


def test_carleman_guards():
    with pytest.raises(MP.MomentProblemError):
        MP.carleman([1.0] * 5)
    with pytest.raises(MP.MomentProblemError):
        MP.carleman([-1.0] * 100)


def test_carleman_moment_terms():
    from orthopoly.measures import MomentSequence
    mu = np.array([1.0, 0.0, 4.0, 0.0, 16.0])
    ms = MomentSequence(mu=mu)
    assert MP.carleman_moment_terms(ms, 2) == pytest.approx([0.5, 0.5])
    with pytest.raises(MP.MomentProblemError):
        MP.carleman_moment_terms(ms, 3)


def carleman_loop(term_fn, n_max):
    """The partial sums of `carleman` by a sequential Python loop over
    term_fn(1..n_max), with its exponent and verdict: the reference the
    array form must equal bit for bit."""
    marks = np.unique(np.round(np.logspace(0, math.log10(n_max), 80))
                      ).astype(int)
    sums = np.empty(len(marks))
    total, mi = 0.0, 0
    for n in range(1, n_max + 1):
        total += term_fn(n)
        while mi < len(marks) and marks[mi] == n:
            sums[mi] = total
            mi += 1
    window = marks >= max(marks[-1] / 100.0, 1.0)
    exponent = float(np.polyfit(np.log(marks[window].astype(float)),
                                np.log(np.maximum(sums[window], 1e-300)),
                                1)[0])
    half = sums[np.searchsorted(marks, marks[-1] // 2)]
    verdict = ("diverges" if exponent > 0.05 else "converges"
               if total - half <= 1e-6 * max(total, 1e-300)
               else "inconclusive")
    return marks, sums, exponent, verdict


def test_carleman_sums_equal_a_sequential_loop():
    from orthopoly.families import family_measure
    from orthopoly.measures import moments

    products = R.validate_favard(jacobi_monic_system(0.5, 1.5),
                                 2001).products
    ms = moments(family_measure(legendre()), 32, 1e-12)
    mu = ms.mu
    cases = [
        (1.0 / np.sqrt(products[1:]),
         lambda n: 1.0 / math.sqrt(products.tolist()[n]), 2000),
        ([1.0 / math.sqrt(n / 2.0) for n in range(1, 2001)],
         lambda n: 1.0 / math.sqrt(n / 2.0), 2000),
        ([0.5 ** n for n in range(1, 2001)], lambda n: 0.5 ** n, 2000),
        (MP.carleman_moment_terms(ms, 16),
         lambda n: mu[2 * n] ** (-1.0 / (2 * n)), 16),
    ]
    for terms, term_fn, n_max in cases:
        rep = MP.carleman(terms)
        marks, sums, exponent, verdict = carleman_loop(term_fn, n_max)
        assert np.array_equal(rep.n_marks, marks)
        assert rep.partial_sums.tobytes() == sums.tobytes()
        assert (rep.exponent, rep.verdict) == (exponent, verdict)


def test_carleman_error_messages():
    from orthopoly.measures import MomentSequence
    with pytest.raises(MP.MomentProblemError, match="negative term at n=3$"):
        MP.carleman([1.0, 1.0, -1.0] + [1.0] * 10)
    ms = MomentSequence(mu=np.array([1.0, 0.0, 4.0, 0.0, -16.0]))
    with pytest.raises(MP.MomentProblemError,
                       match="^even moment must be positive$"):
        MP.carleman_moment_terms(ms, 2)
    with pytest.raises(MP.MomentProblemError,
                       match="^moment index 4 unavailable$"):
        MP.carleman_moment_terms(MomentSequence(mu=np.ones(4)), 2)


def test_rho_hermite_zero_inside_support():
    sys = hermite_monic_system()
    norms = R.norms_from_recurrence(sys, math.sqrt(math.pi), 1.0, 150)
    ortho = R.convert_form(sys, norms, "orthonormal")
    rep = MP.rho(ortho, 0.3, 140)
    assert rep.verdict == "diverges"
    assert rep.rho == 0.0


def test_rho_stieltjes_wigert_positive():
    ortho = MP.stieltjes_wigert_orthonormal()
    rep = MP.rho(ortho, 1.0, 200)
    assert rep.verdict == "converges"
    assert rep.rho > 0.0


def test_rho_requires_orthonormal():
    with pytest.raises(MP.MomentProblemError):
        MP.rho(legendre_monic(), 0.0, 50)


def test_rho_needs_one_degree_past_p0():
    # n_max = 0 leaves one partial sum, whose log-log slope is undefined
    sys = hermite_monic_system()
    ortho = R.convert_form(sys, R.norms_from_recurrence(
        sys, math.sqrt(math.pi), 1.0, 0), "orthonormal")
    for n_max in (0, -1):
        with pytest.raises(MP.MomentProblemError, match="n_max >= 1"):
            MP.rho(ortho, 0.3, n_max)


def orthonormal_legendre():
    sys = legendre_monic()
    norms = R.norms_from_recurrence(sys, 2.0, 1.0, 60)
    return R.convert_form(sys, norms, "orthonormal")


def test_nevanlinna_at_origin():
    rep = MP.nevanlinna_ABCD(orthonormal_legendre(), 0.0, 10)
    assert rep.A == 0.0
    assert rep.B == -1.0
    assert rep.C == 1.0
    assert rep.D == 0.0


def test_nevanlinna_order_zero_D():
    # D truncated at N=0 is z p_0(0) p_0(z) = z / h_0
    ortho = orthonormal_legendre()
    rep = MP.nevanlinna_ABCD(ortho, 2.0, 0)
    assert rep.D == pytest.approx(2.0 * (1.0 / math.sqrt(2.0)) ** 2)


def test_nevanlinna_sw_terms_decay():
    ortho = MP.stieltjes_wigert_orthonormal()
    r1 = MP.nevanlinna_ABCD(ortho, 1.0 + 1.0j, 40)
    r2 = MP.nevanlinna_ABCD(ortho, 1.0 + 1.0j, 80)
    for key in "ABCD":
        assert r2.last_terms[key] < r1.last_terms[key]
    # determinate-case wronskian is reported for inspection only
    assert isinstance(r1.wronskian, complex)


def test_nevanlinna_requires_orthonormal():
    with pytest.raises(MP.MomentProblemError):
        MP.nevanlinna_ABCD(legendre_monic(), 1.0, 5)


def test_true_interval_legendre():
    est = MP.true_interval(legendre_monic(), 40)
    assert est.chains_monotone
    assert est.limits[0] == pytest.approx(-1.0, abs=5e-3)
    assert est.limits[1] == pytest.approx(1.0, abs=5e-3)


def test_true_interval_hermite_unbounded():
    est = MP.true_interval(hermite_monic_system(), 40)
    assert est.chains_monotone
    assert est.limits == (-math.inf, math.inf)


def test_true_interval_degree_one():
    est = MP.true_interval(legendre_monic(), 1)
    assert est.limits[0] == est.limits[1] == pytest.approx(0.0, abs=1e-14)


def test_support_bounds_jacobi():
    cls = MP.support_bound_criteria(jacobi_monic_system(1.5, 0.5), 200)
    assert cls.kind == "bounded"
    assert cls.interval[0] == pytest.approx(-1.0, abs=1e-2)
    assert cls.interval[1] == pytest.approx(1.0, abs=1e-2)


def test_support_bounds_hermite():
    cls = MP.support_bound_criteria(hermite_monic_system(), 200)
    assert cls.kind == "unbounded"


def test_support_bounds_constant_chain():
    sys = R.RecurrenceSystem(
        lambda j: (1.0, 5.0, np.where(j > 0, 1.0, 0.0)), form="monic")
    cls = MP.support_bound_criteria(sys, 100)
    assert cls.kind == "bounded"
    assert cls.interval == pytest.approx((3.0, 7.0))


def test_support_bounds_need_monic():
    with pytest.raises(MP.MomentProblemError):
        MP.support_bound_criteria(orthonormal_legendre(), 50)


def test_lognormal_moment_examples():
    assert MP.lognormal_moment(0, 0.0) == pytest.approx(1.0, rel=1e-10)
    assert MP.lognormal_moment(2, 0.5) == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(MP.MomentProblemError):
        MP.lognormal_moment(1, 1.0)


def test_lognormal_discrete_moment():
    for n in range(5):
        assert MP.lognormal_discrete_moment(n) == pytest.approx(1.0,
                                                                rel=1e-10)


def test_stieltjes_wigert_demo():
    rep = MP.stieltjes_wigert_demo([-0.5, 0.0, 0.5], 4)
    assert rep.max_dev < 1e-7
    assert rep.pairwise_dev < 2e-7


def test_sw_chains_consistent():
    monic = MP.stieltjes_wigert_monic()
    ortho = MP.stieltjes_wigert_orthonormal()
    for n in range(1, 8):
        a_prev = ortho.coeffs(n - 1)[0]
        assert a_prev ** 2 == pytest.approx(monic.coeffs(n)[2], rel=1e-13)
        assert ortho.coeffs(n)[1] == monic.coeffs(n)[1]


@pytest.mark.parametrize("chain,last", [(MP.stieltjes_wigert_monic, 354),
                                        (MP.stieltjes_wigert_orthonormal,
                                         708)], ids=["monic", "orthonormal"])
def test_sw_chains_raise_past_the_double_range(chain, last):
    # e^{2n} of the monic c_n overflows at n = 355, e^{n+1} of the
    # orthonormal a_n at n = 709: no row is inf
    assert np.isfinite(chain().arrays(last)).all()
    with pytest.raises(ArithmeticError):
        chain().coeffs(last + 1)
