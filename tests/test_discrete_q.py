import cmath
import math
from fractions import Fraction

import pytest

from orthopoly import discrete as D
from orthopoly import families as F
from orthopoly import measures as M
from orthopoly import qseries as Q
from orthopoly import recurrence as R
from orthopoly.families import FamilyError, hyp, jacobi_eval, pochhammer


# ---------------------------------------------------------------------------
# discrete families

def test_krawtchouk_at_zero():
    fam = D.krawtchouk(0.3, 8)
    for n in range(5):
        assert D.discrete_eval(fam, n, 0.0) == 1.0


def test_krawtchouk_linear():
    fam = D.krawtchouk(0.25, 10)
    for x in (0.0, 2.0, 7.0):
        assert D.discrete_eval(fam, 1, x) == pytest.approx(
            1 - x / (0.25 * 10))


def test_charlier_at_zero():
    fam = D.charlier(2.0)
    for n in range(6):
        assert D.discrete_eval(fam, n, 0.0) == 1.0


def test_degree_bound_enforced():
    fam = D.krawtchouk(0.5, 4)
    with pytest.raises(FamilyError):
        D.discrete_eval(fam, 5, 1.0)


def test_parameter_validation():
    with pytest.raises(FamilyError):
        D.krawtchouk(1.5, 4)
    with pytest.raises(FamilyError):
        D.meixner(0.5, 1.2)
    with pytest.raises(FamilyError):
        D.charlier(-1.0)


def test_weights():
    assert D.discrete_weight(D.krawtchouk(0.3, 5), 0) == pytest.approx(
        0.7 ** 5)
    assert D.discrete_weight(D.charlier(1.0), 0) == 1.0
    # hahn alpha=beta=0 has unit weights
    fam = D.hahn(0.0, 0.0, 6)
    for x in range(7):
        assert D.discrete_weight(fam, x) == pytest.approx(1.0)


@pytest.mark.parametrize("fam", (D.charlier(2.0), D.meixner(0.5, 0.5),
                                 D.meixner(1.5, 0.5)))
def test_lattice_weights_past_the_factorial_range(fam):
    # k! leaves the double range at k = 171: the weights and the tail
    # bounds go on in log form and underflow to 0, where they used to
    # raise OverflowError
    if fam.family == "charlier":
        direct = lambda k: fam.a ** k / math.factorial(k)
        log_w = lambda k: k * math.log(fam.a) - math.lgamma(k + 1)
    else:
        direct = lambda k: (pochhammer(fam.beta, k) * fam.c ** k
                            / math.factorial(k))
        log_w = lambda k: (math.lgamma(fam.beta + k) - math.lgamma(fam.beta)
                           + k * math.log(fam.c) - math.lgamma(k + 1))
    for k in range(171):
        assert D.discrete_weight(fam, k) == direct(k)
    for k in (171, 200, 500, 1000):
        assert D.discrete_weight(fam, k) == pytest.approx(
            math.exp(log_w(k)), rel=1e-12)
    assert D.discrete_weight(fam, 5000) == 0.0
    m = D.family_measure(fam)
    assert m.weight_fn(300) == D.discrete_weight(fam, 300)
    assert 0.0 <= m.tail_bound(300) < 1e-50
    assert m.tail_bound(5000) == 0.0


@pytest.mark.parametrize("fam", (D.krawtchouk(0.3, 2000),
                                 D.krawtchouk(0.5, 1050),
                                 D.hahn(0.5, 1.5, 400)))
def test_finite_lattice_weights_past_the_double_range(fam):
    # C(N, x) and (N - x)! leave the double range: those weights go to log
    # form where they raised OverflowError, and every weight the direct
    # formula gives as a positive double keeps its bits
    N = fam.N
    if fam.family == "krawtchouk":
        p = fam.p

        def direct(k):
            return math.comb(N, k) * p ** k * (1 - p) ** (N - k)

        def log_w(k):
            return (math.lgamma(N + 1) - math.lgamma(k + 1)
                    - math.lgamma(N - k + 1) + k * math.log(p)
                    + (N - k) * math.log1p(-p))
    else:
        a, b = fam.alpha, fam.beta

        def direct(k):
            return (pochhammer(a + 1, k) / math.factorial(k)
                    * pochhammer(b + 1, N - k) / math.factorial(N - k))

        def log_w(k):
            return (math.lgamma(a + 1 + k) - math.lgamma(a + 1)
                    - math.lgamma(k + 1) + math.lgamma(b + 1 + N - k)
                    - math.lgamma(b + 1) - math.lgamma(N - k + 1))
    logs = 0
    for k in range(N + 1):
        try:
            want = direct(k)
        except OverflowError:
            want = math.nan
        got = D.discrete_weight(fam, k)
        if 0 < want < math.inf:
            assert got == want
        else:
            logs += 1
            assert got == pytest.approx(math.exp(log_w(k)), rel=1e-10,
                                        abs=1e-320)
    assert logs >= 100
    if fam.family == "krawtchouk" and fam.p == 0.5:
        # every weight of Krawtchouk(0.5, 1050) is a double, though the
        # binomials near N/2 are not: the weights are binomial probabilities
        assert D.family_measure(fam).node_weights.sum() == pytest.approx(
            1.0, rel=1e-11)


def test_weight_outside_support():
    with pytest.raises(FamilyError):
        D.discrete_weight(D.krawtchouk(0.3, 5), 6)
    with pytest.raises(FamilyError):
        D.discrete_weight(D.charlier(1.0), -1)


def test_difference_equation_residuals():
    cases = [(D.charlier(1.0), 2, 3.0),
             (D.charlier(0.5), 4, 5.0),
             (D.krawtchouk(0.3, 9), 3, 4.0),
             (D.meixner(1.5, 0.4), 3, 2.0),
             (D.hahn(0.5, 1.5, 9), 4, 3.0)]
    for fam, n, x in cases:
        assert abs(D.difference_residual(fam, n, x)) < 1e-12, fam.family


def test_difference_equation_degree_zero():
    assert D.difference_residual(D.charlier(1.0), 0, 2.0) == 0.0


def test_difference_equation_krawtchouk_linear():
    fam = D.krawtchouk(0.4, 7)
    for x in (1.0, 3.0, 6.0):
        assert abs(D.difference_residual(fam, 1, x)) < 1e-14


def test_discrete_orthogonality_finite():
    for fam in (D.krawtchouk(0.3, 8), D.hahn(0.5, 1.5, 8)):
        m = D.family_measure(fam)
        for i in range(5):
            for j in range(i + 1, 5):
                val = M.inner_product(
                    lambda x, i=i: D.discrete_eval(fam, i, x),
                    lambda x, j=j: D.discrete_eval(fam, j, x), m)
                assert abs(val) < 1e-12


def test_discrete_orthogonality_infinite():
    for fam in (D.charlier(1.5), D.meixner(2.0, 0.3)):
        m = D.family_measure(fam)
        for i in range(4):
            for j in range(i + 1, 4):
                val = M.inner_product(
                    lambda x, i=i: D.discrete_eval(fam, i, x),
                    lambda x, j=j: D.discrete_eval(fam, j, x), m)
                assert abs(val) < 1e-10


def charlier_norms(a: float, n: int) -> float:
    """h_n = a^{-n} n! under the e^{-a}-normalized weight."""
    return a ** -n * math.factorial(n)


def test_charlier_diagonal_norms():
    for a in (0.5, 1.0, 3.0):
        fam = D.charlier(a)
        m = D.family_measure(fam, normalized=True)
        for n in range(6):
            got = M.inner_product(lambda x, n=n: D.discrete_eval(fam, n, x),
                                  lambda x, n=n: D.discrete_eval(fam, n, x),
                                  m)
            assert got == pytest.approx(charlier_norms(a, n), rel=1e-10)


def test_discrete_recurrence_matches_series():
    assert D.charlier_system(1.0).coeffs(3) == (-1.0, 4.0, -3.0)
    for fam in (D.charlier(1.0), D.krawtchouk(0.3, 8), D.hahn(0.5, 1.5, 8),
                D.hahn(-0.5, -0.5, 8), D.meixner(1.5, 0.4)):
        sys = F.family_system(fam)
        for n in range(7):
            for x in (0.0, 1.0, 4.0, 6.5):
                assert R.eval_poly(sys, n, x) == pytest.approx(
                    D.discrete_eval(fam, n, x), rel=1e-11, abs=1e-11)
        # the monic form is the general one rescaled by k_n
        norms = R.norms_from_recurrence(sys, 1.0, 1.0, 7)
        rescaled = R.convert_form(sys, norms, "monic")
        monic = F.family_monic_system(fam)
        assert monic.form == "monic"
        for n in range(8):
            assert monic.coeffs(n) == pytest.approx(rescaled.coeffs(n),
                                                    rel=1e-14)


def test_finite_recurrences_stop_at_lattice():
    for fam in (D.krawtchouk(0.3, 8), D.hahn(0.5, 1.5, 8)):
        general = F.family_system(fam)
        monic = F.family_monic_system(fam)
        general.coeffs(7)
        monic.coeffs(8)  # b_N, c_N define p_{N+1}, which vanishes on 0..N
        with pytest.raises(R.RecurrenceError):
            general.coeffs(8)  # a_N = 0
        for sys in (general, monic):
            with pytest.raises(R.RecurrenceError):
                sys.coeffs(9)


def test_hahn_to_jacobi_limit_examples():
    assert D.hahn_to_jacobi_limit(0, 0.0, 0.0, 10, 0.5) == 0.0
    assert D.hahn_to_jacobi_limit(1, 0.0, 0.0, 10 ** 4, 0.5) < 1e-3
    assert D.hahn_to_jacobi_limit(2, 1.0, 2.0, 10 ** 5, 0.25) < 1e-3


def test_hahn_limit_hits_jacobi_normalization():
    # the 2F1 limit is P_n^{(a,b)}(1-2x) / (binomial normalization)
    n, a, b, x = 2, 0.5, 1.5, 0.3
    lim = hyp([-n, n + a + b + 1], [a + 1], x, terms=n)
    want = jacobi_eval(n, a, b, 1 - 2 * x) / (pochhammer(a + 1, n)
                                              / math.factorial(n))
    assert lim == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# q-toolkit

def test_q_number():
    ctx = Q.QContext(0.5)
    assert Q.q_number(ctx, 1.0) == 1.0
    assert Q.q_number(ctx, 2.0) == pytest.approx(1.5)
    # q -> 1 recovers a
    assert Q.q_number(Q.QContext(0.999999), 3.0) == pytest.approx(3.0,
                                                                  rel=1e-5)


def test_q_pochhammer_finite():
    ctx = Q.QContext(0.5)
    assert Q.q_pochhammer(ctx, 0.3, 0) == 1.0
    assert Q.q_pochhammer(ctx, 0.3, 2) == pytest.approx(0.7 * 0.85)


def test_q_pochhammer_infinite_matches_long_product():
    ctx = Q.QContext(0.6)
    inf = Q.q_pochhammer(ctx, 0.4)
    assert inf == pytest.approx(Q.q_pochhammer(ctx, 0.4, 200), rel=1e-13)


def test_q_context_validation():
    with pytest.raises(Q.QSeriesError):
        Q.QContext(1.5)


def test_q_integral_of_x():
    for q in (0.5, 0.9, 0.99):
        ctx = Q.QContext(q)
        assert Q.q_integral(ctx, lambda x: x) == pytest.approx(1 / (1 + q),
                                                               rel=1e-12)


def test_q_derivative_of_square():
    ctx = Q.QContext(0.7)
    # D_q x^2 = (1+q) x
    assert Q.q_derivative(ctx, lambda x: x * x, 0.8) == pytest.approx(
        1.7 * 0.8)
    with pytest.raises(Q.QSeriesError):
        Q.q_derivative(ctx, lambda x: x, 0.0)


def test_basic_hyp_trivial_upper_one():
    ctx = Q.QContext(0.5)
    assert Q.basic_hyp(ctx, [1.0, 0.3], [0.2], 0.4) == 1.0


def test_basic_hyp_two_term():
    q = 0.5
    ctx = Q.QContext(q)
    # 1phi0(q^{-1}; -; q, z) = 1 - z/q
    z = 0.3
    assert Q.basic_hyp(ctx, [1.0 / q], [], z) == pytest.approx(1 - z / q)


def test_basic_hyp_q_to_one_limit():
    # terminating 2phi1(q^-2, q^4; q^2; q, z-ish) vs 2F1(-2, 4; 2; z)
    z = 0.5
    want = hyp([-2.0, 4.0], [2.0], z)
    ctx = Q.QContext(1 - 1e-6)
    q = ctx.q
    got = Q.basic_hyp(ctx, [q ** -2, q ** 4], [q ** 2], z)
    assert got == pytest.approx(want, rel=1e-4)


def test_basic_hyp_lower_pole():
    ctx = Q.QContext(0.5)
    with pytest.raises(Q.QSeriesError):
        Q.basic_hyp(ctx, [ctx.q ** -5], [ctx.q ** -2], 0.3)


def test_askey_wilson_degree_zero():
    ctx = Q.QContext(0.6)
    assert Q.askey_wilson_eval(ctx, 0, 0.3, 0.2, -0.1, 0.4, 1.0) == 1.0


def test_askey_wilson_permutation_symmetry():
    import itertools
    ctx = Q.QContext(0.7)
    params = (0.3, -0.45, 0.25, 0.6)
    base = Q.askey_wilson_eval(ctx, 4, *params, 1.1)
    for perm in itertools.permutations(params):
        val = Q.askey_wilson_eval(ctx, 4, *perm, 1.1)
        assert val == pytest.approx(base, rel=1e-13)


def test_askey_wilson_rejects_a_negative_degree():
    with pytest.raises(Q.QSeriesError, match="non-negative"):
        Q.askey_wilson_eval(Q.QContext(0.5), -1, 0.1, 0.2, 0.3, 0.4, 0.3)


@pytest.mark.parametrize("slot", range(5))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_askey_wilson_rejects_a_non_finite_parameter_or_angle(slot, bad):
    args = [0.1, 0.2, 0.3, 0.4, 0.3]
    args[slot] = bad
    with pytest.raises(Q.QSeriesError, match="finite"):
        Q.askey_wilson_eval(Q.QContext(0.5), 3, *args)


@pytest.mark.parametrize("n,params", [(1, (1.0, 1.0, 1.0, 1.0)),
                                      (2, (1.0, 1.0, 1.0, 2.0))],
                         ids=["s=1", "s=1/q"])
def test_askey_wilson_rejects_a_row_that_is_not_finite(n, params):
    # a_0 = 1/(2(1 - s)) at s = 1, and a_1 has 1 - sq = 0 at s = 1/q
    with pytest.raises(Q.QSeriesError, match="not finite"):
        Q.askey_wilson_eval(Q.QContext(0.5), n, *params, 0.3)


def test_askey_wilson_rejects_a_vanishing_leading_row():
    # s q = 1 makes a_2 = (1 - s q)/... = 0
    with pytest.raises(Q.QSeriesError, match="a_2 = 0"):
        Q.askey_wilson_eval(Q.QContext(0.5), 3, 1.0, 1.0, 1.0, 2.0, 0.3)


def test_askey_wilson_refuses_only_all_zero_parameters():
    # the rows divide by their a, which is the parameter of largest modulus
    ctx = Q.QContext(0.5)
    with pytest.raises(Q.QSeriesError, match="all 0"):
        Q.askey_wilson_eval(ctx, 3, 0.0, 0.0, -0.0, 0.0, 0.3)
    got = Q.askey_wilson_eval(ctx, 3, 0.0, 0.2, 0.3, 0.4, 0.3)
    assert got == Q.askey_wilson_eval(ctx, 3, 0.4, 0.0, 0.2, 0.3, 0.3)
    ref = askey_wilson_4phi3(Fraction(1, 2), 3, Fraction(0.4), Fraction(0),
                             Fraction(0.2), Fraction(0.3),
                             Fraction(math.cos(0.3)))
    assert got == pytest.approx(float(ref), rel=1e-14)


def test_askey_wilson_with_a_small_first_parameter():
    # b_n = (a + 1/a - A_n - C_n)/2 cancels like 1/|a|: the evaluation puts
    # the parameter of largest modulus in a's place
    n, eps = 10, 2.0 ** -52
    params = (1e-3, 0.2, 0.3, 0.4)
    thetas = (0.3, 1.1, 2.0)
    ref = [float(askey_wilson_4phi3(Fraction(1, 2), n,
                                    *map(Fraction, params),
                                    Fraction(math.cos(t)))) for t in thetas]
    got = [Q.askey_wilson_eval(Q.QContext(0.5), n, *params, t)
           for t in thetas]
    scale = max(map(abs, ref))
    for g, r in zip(got, ref):
        assert abs(g - r) <= 100 * n * eps * scale, (g, r)


def askey_wilson_4phi3(q, n, a, b, c, d, x):
    """p_n(x) = a^-n (ab, ac, ad; q)_n 4phi3(q^-n, abcd q^(n-1), a e^(i theta),
    a e^(-i theta); ab, ac, ad; q, q), x = cos theta, with
    (a e^(i theta), a e^(-i theta); q)_k = prod_j<k (1 - 2a q^j x + a^2 q^2j),
    so that exact arithmetic stays exact; in any number type of q."""
    s = a * b * c * d
    term = total = norm = q ** 0
    for k in range(n):
        qk = q ** k
        term *= ((1 - qk / q ** n) * (1 - s * q ** (n - 1) * qk)
                 * (1 - 2 * a * qk * x + a * a * qk * qk) * q
                 / ((1 - a * b * qk) * (1 - a * c * qk) * (1 - a * d * qk)
                    * (1 - q * qk)))
        total += term
        norm *= (1 - a * b * qk) * (1 - a * c * qk) * (1 - a * d * qk) / a
    return norm * total


def test_askey_wilson_against_exact_fractions():
    # q = 1/2, (a, b, c, d) = (1/10, 1/5, 3/10, 2/5): every term is rational
    eps = 2.0 ** -52
    q = Fraction(1, 2)
    params = [Fraction(k, 10) for k in (1, 2, 3, 4)]
    xs = [Fraction(3, 10), Fraction(-7, 10), Fraction(19, 20)]
    ctx = Q.QContext(float(q))
    for n in range(13):
        ref = [float(askey_wilson_4phi3(q, n, *params, x)) for x in xs]
        got = [Q.askey_wilson_eval(ctx, n, *map(float, params),
                                   math.acos(float(x))) for x in xs]
        scale = max(map(abs, ref))
        for g, r in zip(got, ref):
            assert abs(g - r) <= 100 * max(n, 1) * eps * scale, (n, g, r)


def test_askey_wilson_at_s_equal_to_q():
    # the 1 - s/q that cancels from a_0 and A_0 is 0 here
    q = Fraction(1, 2)
    params = [Fraction(1, 5), Fraction(1, 2), Fraction(5, 2), Fraction(2)]
    x = Fraction(3, 10)
    for n in range(7):
        ref = float(askey_wilson_4phi3(q, n, *params, x))
        got = Q.askey_wilson_eval(Q.QContext(0.5), n, *map(float, params),
                                  math.acos(0.3))
        assert got == pytest.approx(ref, rel=1e-13, abs=1e-13)


_AW_PARAMS = [(0.1, 0.2, 0.3, 0.4), (0.3, -0.45, 0.25, 0.6),
              (-0.2, 0.5, -0.4, 0.35)]


@pytest.mark.parametrize("q", [0.3, 0.5, 0.7, 0.9])
@pytest.mark.parametrize("n", [10, 15, 30])
def test_askey_wilson_against_high_precision_4phi3(q, n):
    # the 4phi3 terms reach q^(-n^2/2) and cancel: 60 + n^2 |log10 q|
    # digits leave 60 after the cancellation
    import mpmath

    ctx = Q.QContext(q)
    beta = 0.4   # the q-ultraspherical specialisation as the fourth set
    sb, sqb = math.sqrt(beta), math.sqrt(q * beta)
    thetas = (0.3, 0.7, 1.1, 2.0, 2.9)
    eps = 2.0 ** -52
    with mpmath.workdps(60 + math.ceil(n * n * abs(math.log10(q)))):
        for params in _AW_PARAMS + [(sb, sqb, -sb, -sqb)]:
            ref = [float(askey_wilson_4phi3(
                mpmath.mpf(q), n, *map(mpmath.mpf, params),
                mpmath.cos(mpmath.mpf(t)))) for t in thetas]
            got = [Q.askey_wilson_eval(ctx, n, *params, t) for t in thetas]
            scale = max(map(abs, ref))
            for g, r in zip(got, ref):
                assert abs(g - r) <= 100 * n * eps * scale, (params, g, r)


def test_cq_ultraspherical_degree_zero():
    ctx = Q.QContext(0.8)
    assert Q.cq_ultraspherical(ctx, 0, 0.5, 1.2) == 1.0


def cq_from_askey_wilson(ctx, n, beta, theta):
    """C_n via the Askey-Wilson specialization a=-c=beta^{1/2},
    b=-d=(q beta)^{1/2}, with the degree constant computed, not assumed."""
    if beta <= 0:
        raise Q.QSeriesError("specialization needs beta > 0")
    sb, sqb = math.sqrt(beta), math.sqrt(ctx.q * beta)

    def aw(th):
        return Q.askey_wilson_eval(ctx, n, sb, sqb, -sb, -sqb, th)

    kappa = None
    for th_ref in (1.0, 0.7, 1.9):
        ref = Q.cq_ultraspherical(ctx, n, beta, th_ref)
        if abs(ref) > 1e-8:
            kappa = aw(th_ref) / ref
            break
    if kappa is None:
        raise Q.QSeriesError("could not fix the specialization constant")
    return aw(theta) / kappa


def test_cq_specialization_matches_convolution():
    ctx = Q.QContext(0.7)
    for n in range(5):
        for th in (0.6, 1.3, 2.2):
            assert cq_from_askey_wilson(ctx, n, 0.4, th) == pytest.approx(
                Q.cq_ultraspherical(ctx, n, 0.4, th), rel=1e-10, abs=1e-10)


def test_cq_generating_function():
    ctx = Q.QContext(0.6)
    resid, tail = Q.gen_fn_check(ctx, 0.4, 1.1, 0.2, 30)
    # truncation tail is below roundoff here, so the floor dominates
    assert resid <= tail + 5e-15
    assert tail < 1e-15


def test_gen_fn_requires_small_t():
    with pytest.raises(Q.QSeriesError):
        Q.gen_fn_check(Q.QContext(0.5), 0.3, 1.0, 1.0, 10)


def test_cq_gegenbauer_limit_decay():
    errs = [Q.cq_gegenbauer_limit(Q.QContext(q), 3, 1.5, 0.5)
            for q in (0.9, 0.99, 0.999)]
    assert errs[0] > errs[1] > errs[2]


def test_cq_gegenbauer_limit_example():
    # lambda=1 makes the identity exact for every q; use it as a sanity pin
    assert Q.cq_gegenbauer_limit(Q.QContext(0.999), 3, 1.0, 0.5) < 1e-2


def test_q_series_monotone_in_terms():
    # the truncated 1phi0 sums to the q-binomial theorem's closed form
    # (a z; q)_inf / (z; q)_inf, so its dropped tail is below rounding
    ctx = Q.QContext(0.5)
    closed = Q.q_pochhammer(ctx, 0.3 * 0.4) / Q.q_pochhammer(ctx, 0.4)
    assert Q.basic_hyp(ctx, [0.3], [], 0.4) == pytest.approx(closed,
                                                              rel=1e-14)
