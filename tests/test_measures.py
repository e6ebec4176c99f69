import math
import warnings

import mpmath
import numpy as np
import pytest
from conftest import monic_row_error

from orthopoly import discrete as D
from orthopoly import families as F
from orthopoly import kernels as K
from orthopoly import measures as M
from orthopoly import recurrence as R
from orthopoly.discrete import charlier, family_measure as charlier_measure
from orthopoly.families import (chebyshev_t, chebyshev_u, family_measure,
                                gegenbauer, hermite, jacobi,
                                jacobi_monic_system, laguerre, legendre)


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
    closed_c = jacobi_monic_system(0.0, 0.0).arrays(6)[2]
    for n in range(1, 7):
        assert sys.coeffs(n)[2] == pytest.approx(closed_c[n], rel=1e-9)
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
    m = M.discrete_infinite_measure(lambda k: 2.0 ** -k,
                                    lambda k: 2.0 ** -k)
    assert M.integrate(m, lambda x: 1.0) == pytest.approx(2.0)


def _jacobi_moment(k, a=0.5, b=1.5):
    """int (1 - x)^a (1 + x)^b x^k dx on [-1, 1], through x = 2t - 1, in
    50 digits."""
    with mpmath.workdps(50):
        return float(2 ** (a + b + 1) * mpmath.fsum(
            mpmath.binomial(k, j) * 2 ** j * (-1) ** (k - j)
            * mpmath.beta(b + j + 1, a + 1) for j in range(k + 1)))


def _touchard(k, a):
    """sum_x x^k a^x / x! / e^a, from T_{j+1} = a sum_i C(j, i) T_i."""
    t = [1]
    for j in range(k):
        t.append(a * sum(math.comb(j, i) * t[i] for i in range(j + 1)))
    return t[k]


MOMENTS = {
    "legendre": (legendre(), lambda k: 2 / (k + 1) * (k % 2 == 0)),
    "jacobi": (jacobi(0.5, 1.5), _jacobi_moment),
    "chebyshev_t": (chebyshev_t(), lambda k: math.pi * math.comb(k, k // 2)
                    / 2 ** k * (k % 2 == 0)),
    "laguerre": (laguerre(0.5), lambda k: math.gamma(k + 1.5)),
    "hermite": (hermite(), lambda k: math.gamma(k / 2 + 0.5) * (k % 2 == 0)),
    "charlier": (D.charlier(2.0), lambda k: math.exp(2) * _touchard(k, 2)),
}


@pytest.mark.parametrize("name", MOMENTS)
def test_moments_match_their_closed_forms(name):
    spec, moment = MOMENTS[name]
    mu = M.moments(family_measure(spec), 32).mu
    ref = np.array([moment(k) for k in range(33)], dtype=float)
    # odd moments can vanish: measure them on their even neighbours' scale
    scale = ref.copy()
    scale[1::2] = np.sqrt(ref[0:-1:2] * ref[2::2])
    assert np.max(np.abs(mu - ref) / scale) <= 1e-14


def test_integrand_singular_inside_the_support_does_not_settle():
    with pytest.raises(M.IntegrationError, match="did not settle"):
        M.integrate(family_measure(legendre()),
                    lambda x: abs(x - 0.3) ** -0.5)


def test_second_moments_call_builds_no_new_discretization(monkeypatch):
    built = []
    real = K._christoffel_denominators

    def counting(diag, off, nodes):
        built.append(len(diag))
        return real(diag, off, nodes)

    monkeypatch.setattr(K, "_christoffel_denominators", counting)
    m = family_measure(laguerre(0.5))
    first = M.moments(m, 32).mu
    assert built
    count = len(built)
    np.testing.assert_array_equal(M.moments(m, 32).mu, first)
    assert len(built) == count


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
    _, closed_b, closed_c = jacobi_monic_system(0.0, -0.9).arrays(16)
    for n in range(17):
        _, b, c = sys.coeffs(n)
        assert b == pytest.approx((1 + closed_b[n]) / 2, rel=1e-12)
        if n:
            assert c == pytest.approx(closed_c[n] / 4, rel=1e-12)


@pytest.mark.parametrize("support,exponents,bound", [
    ((0.0, 1.0), (-1.0, 0.0), "alpha > -1 and beta > -1"),
    ((0.0, 1.0), (0.5, -1.5), "alpha > -1 and beta > -1"),
    ((0.0, math.inf), (-1.0, 0.0), "alpha > -1"),
    ((-math.inf, 2.0), (0.0, -1.25), "alpha > -1")],
    ids=["interval-at-1", "interval-past-1", "half-line-at-1",
         "left-half-line-past-1"])
def test_a_non_integrable_exponent_names_its_bound(support, exponents, bound):
    m = M.continuous_measure(lambda x: 1.0, support, alg_exponents=exponents)
    for _ in range(2):
        with pytest.raises(F.FamilyError, match=bound):
            M.recurrence_from_measure(m, 4)
        with pytest.raises(F.FamilyError, match=bound):
            M.integrate(m, lambda x: 1.0)
    assert not m._cache.get("points") and not m._cache.get("recurrence")


def _fresh_discretization(m, size):
    """`_discretize` of a continuous measure as it was built before its
    reference rules came from the shared family systems: fresh constructor
    systems and the closed-form masses typed in."""
    a, b = m.support
    if m.alg_exponents is None:
        (left, right), rest = (0.0, 0.0), m.weight
    else:
        (left, right), rest = m.alg_exponents, m.alg_smooth or (lambda x: 1.0)
    if math.isinf(a) and math.isinf(b):
        x, w = K._christoffel_rule(F.hermite_monic_system(), size,
                                   math.sqrt(math.pi))
        ratio = M._times_exp(M._values(m.weight, x), x * x)
    elif math.isinf(a) or math.isinf(b):
        sign, end, expo = ((1.0, a, left) if math.isinf(b)
                           else (-1.0, b, right))
        t, w = K._christoffel_rule(F.laguerre_monic_system(expo), size,
                                   math.gamma(expo + 1))
        x = end + sign * t
        ratio = M._times_exp(M._values(rest, x), t)
    else:
        half = (b - a) / 2
        t, w = K._christoffel_rule(
            F.jacobi_monic_system(right, left), size,
            2 ** (left + right + 1) * math.gamma(left + 1)
            * math.gamma(right + 1) / math.gamma(left + right + 2))
        x = a + half * (1.0 + t)
        ratio = half ** (left + right + 1) * M._values(rest, x)
    w = np.where(w == 0, 0.0, w * ratio) * m.normalizer
    return x, w


# each measure and the family of its reference rule
REFERENCE_RULES = {
    "jacobi": (jacobi(0.5, 1.5), jacobi(0.5, 1.5)),
    "legendre": (legendre(), jacobi(0.0, 0.0)),
    "laguerre": (laguerre(0.5), laguerre(0.5)),
    "laguerre-0": (laguerre(0.0), laguerre(0.0)),
    "hermite": (hermite(), hermite())}


@pytest.mark.parametrize("size", (16, 64, 2048))
@pytest.mark.parametrize("name", REFERENCE_RULES)
def test_reference_rules_come_from_the_shared_systems(name, size):
    spec, reference = REFERENCE_RULES[name]
    m = family_measure(spec)
    want = _fresh_discretization(m, size)
    got = M._discretize(m, size)
    assert [(a.dtype, a.shape, a.tobytes()) for a in got] == [
        (a.dtype, a.shape, a.tobytes()) for a in want]
    spectra = F.family_monic_system(reference)._cache["spectra"]
    assert (size, "christoffel") in spectra


def _parent_christoffel_rule(sys, n, mu0):
    """`kernels._christoffel_rule` as first assembled."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        w = mu0 / K._spectrum(sys, n, "christoffel")
    return K._spectrum(sys, n, "nodes"), np.where(np.isfinite(w) & (w > 0),
                                                  w, 0.0)


# the measures of the benchmark's Stieltjes workload that are discretized
# (its sixth, a finite measure, is summed as it is)
STIELTJES_MEASURES = {
    "legendre": lambda: family_measure(legendre()),
    "jacobi": lambda: family_measure(jacobi(0.5, 1.5)),
    "laguerre": lambda: family_measure(laguerre(0.5)),
    "hermite": lambda: family_measure(hermite()),
    "charlier": lambda: charlier_measure(charlier(2.0), True)}


@pytest.mark.parametrize("name", STIELTJES_MEASURES)
def test_discretizations_keep_the_bits_of_their_first_assembly(
        name, monkeypatch):
    sizes = (16, 32, 64, 128, 2048)
    with monkeypatch.context() as patch:
        patch.setattr(K, "_christoffel_rule", _parent_christoffel_rule)
        patch.setattr(F, "family_mu0", F.family_mu0.__wrapped__)
        want = {size: M._discretization(STIELTJES_MEASURES[name](), size)
                for size in sizes}
    F.clear_systems()
    m = STIELTJES_MEASURES[name]()
    for size in sizes:   # a first call, then a kept one
        for _ in range(2):
            got = M._discretize(m, size)
            assert [(a.dtype, a.shape, a.tobytes()) for a in got] == [
                (a.dtype, a.shape, a.tobytes()) for a in want[size]], size


@pytest.mark.parametrize("n", (40, 200))
def test_jacobi_exponent_near_minus_one_gives_its_closed_form_recurrence(n):
    spec = jacobi(0.0, -0.9)
    sys, _ = M.recurrence_from_measure(family_measure(spec), n)
    _, b, c = np.array(sys.table(n)).T
    assert monic_row_error(b, c, spec) <= 1e-13


def test_jacobi_at_degree_300_gives_its_closed_form_recurrence():
    # 300 Lanczos steps, each reorthogonalised against all the earlier ones
    spec = jacobi(0.5, 1.5)
    sys, _ = M.recurrence_from_measure(family_measure(spec), 300)
    _, b, c = np.array(sys.table(300)).T
    assert monic_row_error(b, c, spec) <= 1e-13


def _stieltjes_mp(x, w, n, dps=50):
    """Monic b_0..b_n and c_0..c_n of the discrete measure sum_k w_k
    delta(x_k) by the Stieltjes procedure in `dps`-digit arithmetic."""
    with mpmath.workdps(dps):
        x, w = [list(map(mpmath.mpf, v.tolist())) for v in (x, w)]
        p_prev, p = [mpmath.mpf(0)] * len(x), [mpmath.mpf(1)] * len(x)
        b, c, h_prev = [], [mpmath.mpf(0)], None
        for k in range(n + 1):
            h = mpmath.fsum(wi * pi * pi for wi, pi in zip(w, p))
            b.append(mpmath.fsum(wi * xi * pi * pi
                                 for wi, xi, pi in zip(w, x, p)) / h)
            if k:
                c.append(h / h_prev)
            p_prev, p = p, [(xi - b[k]) * pi - c[k] * qi
                            for xi, pi, qi in zip(x, p, p_prev)]
            h_prev = h
        return np.array(b, dtype=float), np.array(c, dtype=float)


@pytest.mark.parametrize("n", (40, 59))
def test_finite_measure_rows_against_mp_stieltjes(n):
    # the benchmark's 60-point measure, up to its last degree; the rows
    # came out within 4.4e-16 of the reference on the row scale
    nodes, weights = np.linspace(-1.0, 1.0, 60), 1 + 0.5 * np.sin(
        np.arange(60))
    sys, _ = M.recurrence_from_measure(M.discrete_measure(nodes, weights), n)
    _, b, c = np.array(sys.table(n)).T
    ref_b, ref_c = _stieltjes_mp(nodes, weights, n)
    root = np.sqrt(ref_c)
    # c_{n+1} is left out of the scale of the last row
    scale = np.abs(ref_b) + root + np.append(root[1:], 0.0)
    assert np.max(np.abs(b - ref_b) / scale) <= 1e-14
    assert np.max(np.abs(np.sqrt(c) - root) / scale) <= 1e-14


def test_laguerre_at_degree_300_does_not_settle_and_does_not_warn():
    # the Gauss-Laguerre weights of the large nodes lie below the double
    # range and are dropped, which leaves too few points for degree 300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(R.RecurrenceError, match="did not settle"):
            M.recurrence_from_measure(family_measure(laguerre(0.5)), 300)


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


def _kept_measures():
    """The measures of the kept-results tests: continuous, finite and
    lattice."""
    return {"legendre": family_measure(legendre()),
            "laguerre": family_measure(laguerre(0.5)),
            "finite": M.discrete_measure(
                np.linspace(-1.0, 1.0, 60), 1 + 0.5 * np.sin(np.arange(60))),
            "charlier": charlier_measure(charlier(2.0), normalized=True)}


def _result_bits(result):
    sys, norms = result
    rows = sys.arrays(sys.max_index_hint)
    return (rows.dtype, rows.shape, rows.tobytes(), norms.log_h.dtype,
            norms.log_h.shape, norms.log_h.tobytes())


@pytest.mark.parametrize("n", (1, 10, 40))
@pytest.mark.parametrize("name", ("legendre", "laguerre", "finite",
                                  "charlier"))
def test_kept_recurrence_is_that_of_a_fresh_measure(name, n):
    import dataclasses

    m = _kept_measures()[name]
    # a copy of the measure keeps nothing of the original's
    want = _result_bits(M.recurrence_from_measure(dataclasses.replace(m), n))
    first = M.recurrence_from_measure(m, n)
    again = M.recurrence_from_measure(m, n)
    assert again[0] is first[0] and again[1] is first[1]
    assert _result_bits(first) == _result_bits(again) == want
    assert not first[1].log_h.flags.writeable


def test_a_longer_result_never_serves_a_shorter_call():
    import dataclasses

    m = family_measure(legendre())
    longer = M.recurrence_from_measure(m, 40)
    shorter = M.recurrence_from_measure(m, 10)
    assert shorter[0] is not longer[0]
    assert shorter[0].max_index_hint == 10
    assert _result_bits(shorter) == _result_bits(
        M.recurrence_from_measure(dataclasses.replace(m), 10))
    looser = M.recurrence_from_measure(m, 10, 1e-10)
    assert looser[0] is not shorter[0]
    assert list(m._cache["recurrence"]) == [(40, 1e-12), (10, 1e-12),
                                            (10, 1e-10)]


def test_a_failing_call_keeps_nothing_and_raises_again():
    singular = M.continuous_measure(lambda x: x ** -0.9, (0.0, 1.0))
    m = family_measure(legendre())
    for _ in range(2):
        with pytest.raises(R.RecurrenceError, match="did not settle"):
            M.recurrence_from_measure(singular, 16)
        with pytest.raises(R.RecurrenceError, match="did not settle"):
            M.recurrence_from_measure(m, 10, 1e-18)
    assert not singular._cache.get("recurrence")
    assert not m._cache.get("recurrence")
    sys, _ = M.recurrence_from_measure(m, 10)
    assert list(m._cache["recurrence"]) == [(10, 1e-12)]


def test_a_measure_keeps_its_last_results_and_discretizations():
    m = family_measure(legendre())
    kept = M._RESULTS_KEPT
    results = {n: M.recurrence_from_measure(m, n)
               for n in range(1, 2 * kept + 1)}
    store = m._cache["recurrence"]
    assert [n for n, _ in store] == list(range(kept + 1, 2 * kept + 1))
    # a kept result moves to the end, and the next new one drops the oldest
    assert M.recurrence_from_measure(m, kept + 1)[0] is results[kept + 1][0]
    M.recurrence_from_measure(m, 1)
    assert [n for n, _ in store] == [*range(kept + 3, 2 * kept + 1),
                                     kept + 1, 1]
    assert M.recurrence_from_measure(m, 2)[0] is not results[2][0]

    points = m._cache["points"]
    bound = M._POINTS_KEPT
    assert len(points) == bound
    sizes = range(100, 100 + 2 * bound)
    rules = {k: M._discretize(m, k) for k in sizes}
    assert list(points) == list(sizes[bound:])
    assert M._discretize(m, sizes[bound]) is rules[sizes[bound]]
    M._discretize(m, 7)
    assert list(points) == [*sizes[bound + 2:], sizes[bound], 7]


def test_threads_sharing_a_measure_get_the_results_of_a_fresh_one():
    import dataclasses
    import sys as _sys
    import threading

    degrees = (10, 40, 1, 20)
    fresh = dataclasses.replace(family_measure(legendre()))
    want = {n: _result_bits(M.recurrence_from_measure(fresh, n))
            for n in degrees}
    want_mu = M.moments(fresh, 8).mu.tobytes()
    interval = _sys.getswitchinterval()
    _sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            F.clear_systems()
            shared = family_measure(legendre())
            start, got = threading.Barrier(4), []

            def settle(shared=shared, start=start, got=got):
                start.wait(timeout=30)
                for n in degrees:
                    got.append((n, M.recurrence_from_measure(shared, n)))
                got.append(("mu", M.moments(shared, 8).mu.tobytes()))

            threads = [threading.Thread(target=settle) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert len(got) == 4 * (len(degrees) + 1)
            for n, result in got:
                if n == "mu":
                    assert result == want_mu
                else:
                    assert _result_bits(result) == want[n], n
                    # the first result published is every caller's
                    assert result[0] is M.recurrence_from_measure(shared,
                                                                  n)[0]
    finally:
        _sys.setswitchinterval(interval)
