import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthopoly import families as F
from orthopoly import recurrence as R
from orthopoly.families import (hermite_monic_system, hermite_system,
                                laguerre_system, legendre_system)


def test_eval_legendre_at_one():
    sys = legendre_system()
    for n in range(8):
        assert R.eval_poly(sys, n, 1.0) == pytest.approx(1.0, rel=1e-14)


def test_eval_degree_zero_returns_p0():
    sys = R.RecurrenceSystem(lambda j: (1.0, 0.0, 0.25), form="monic", p0=1.0)
    assert R.eval_poly(sys, 0, 12.3) == 1.0
    sys2 = R.RecurrenceSystem(lambda j: (2.0, 1.0, 0.5), p0=3.5)
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


def test_numpy_scalar_takes_the_python_float_loop():
    # past the double range numpy-scalar arithmetic would warn (an error
    # under this suite's filters); the Python-float loop leaves inf or nan
    sys = F.family_system(F.hermite())
    got = R.eval_all(sys, 1000, np.float64(6.0))
    want = R.eval_all(sys, 1000, 6.0)
    assert all(type(v) is float for v in got)
    assert np.array(got).view(np.int64).tolist() == \
        np.array(want).view(np.int64).tolist()


def test_eval_mpmath_precision_path_matches_double():
    sys = legendre_system()
    a = R.eval_poly(sys, 12, 0.37)
    with mpmath.workdps(40):
        b = float(R.eval_all(sys, 12, mpmath.mpf(0.37))[-1])
    assert b == pytest.approx(a, rel=1e-13)


def test_eval_negative_degree_rejected():
    for evaluate in (R.eval_poly, R.eval_all, R.eval_all_derivatives):
        for x in (0.0, np.array([0.0, 0.5])):
            with pytest.raises(R.RecurrenceError, match="non-negative"):
                evaluate(legendre_system(), -1, x)


def test_zero_a_coefficient_rejected():
    sys = R.RecurrenceSystem(lambda j: (0.0, 0.0, 1.0))
    with pytest.raises(R.RecurrenceError):
        R.eval_poly(sys, 2, 0.5)


def test_from_tables_raises_past_stored_range():
    sys = R.from_tables([1.0, 1.0], [0.0, 0.0], [0.0, 0.5])
    R.eval_poly(sys, 2, 0.3)
    with pytest.raises(R.RecurrenceError):
        R.eval_poly(sys, 3, 0.3)


def test_from_tables_hints_the_last_row_of_its_shortest_table():
    sys = R.from_tables([1.0] * 5, [0.0] * 3, [0.0, .5, .5, .5, .5],
                        form="monic")
    assert sys.max_index_hint == 2
    assert sys.arrays(sys.max_index_hint).shape == (3, 3)
    with pytest.raises(R.RecurrenceError, match="undefined at index 3"):
        sys.arrays(sys.max_index_hint + 1)


def test_eval_with_derivative():
    sys = legendre_system()
    p, d, s = (v[3] for v in R.eval_all_derivatives(sys, 3, 0.4))
    # P_3 = (5x^3-3x)/2, P_3' = (15x^2-3)/2, P_3'' = 15x
    assert p == pytest.approx((5 * 0.064 - 1.2) / 2)
    assert d == pytest.approx((15 * 0.16 - 3) / 2)
    assert s == pytest.approx(15 * 0.4)


CONTINUOUS = {"legendre": F.legendre(), "hermite": F.hermite(),
              "jacobi": F.jacobi(0.5, 1.5), "laguerre": F.laguerre(0.5),
              "gegenbauer": F.gegenbauer(1.5), "chebyshev_t": F.chebyshev_t(),
              "chebyshev_u": F.chebyshev_u()}


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("family", CONTINUOUS)
def test_evaluation_paths_agree_bit_for_bit(family):
    """The scalar loop, the array pass and the values row of its derivative
    states form the same p_j, and the states at an array of points, 1-D or
    2-D, are those at each point alone (past the double range too)."""
    sys = F.family_system(CONTINUOUS[family])
    lo, hi = {"laguerre": (0.0, 30.0), "hermite": (-6.0, 6.0)}.get(
        family, (-1.0, 1.0))
    x = np.linspace(lo, hi, 9)
    grid = x.reshape(3, 3)
    for n in (10, 200, 1000):
        array = R.eval_all(sys, n, x)
        scalar = np.array([R.eval_all(sys, n, t) for t in x.tolist()]).T
        assert np.isfinite(array[:, 1:-1]).any()
        assert _bits(scalar) == _bits(array), n
        assert _bits(R.eval_all(sys, n, grid)) == _bits(array), n
        for order in (1, 2):
            deriv = R.eval_all_derivatives(sys, n, x, order)
            single = np.stack([R.eval_all_derivatives(sys, n, t, order)
                               for t in x.tolist()], axis=-1)
            on_grid = R.eval_all_derivatives(sys, n, grid, order)
            assert deriv.shape == single.shape == (order + 1, n + 1, len(x))
            assert on_grid.shape == (order + 1, n + 1, 3, 3)
            assert _bits(deriv[0]) == _bits(array), (n, order)
            assert _bits(single) == _bits(deriv), (n, order)
            assert _bits(on_grid) == _bits(deriv), (n, order)
        assert _bits(deriv[:2]) == _bits(
            R.eval_all_derivatives(sys, n, x, 1)), n


def test_complex_values_row_of_the_derivative_pass_is_eval_all():
    # (x - b) p^(k) is formed in one operand order for values and
    # derivatives; complex products round by operand order, so the rows
    # differed before (1055 of 1407 entries here)
    sys = F.family_monic_system(F.jacobi(0.5, 1.5))
    z = np.linspace(-0.9, 0.9, 7) + 0.5j
    values = R.eval_all(sys, 200, z)
    assert values.dtype == complex
    for order in (1, 2):
        assert R.eval_all_derivatives(sys, 200, z, order)[0].tobytes() == \
            values.tobytes()


def test_eval_all_on_an_array_is_one_array():
    sys = legendre_system()
    x = np.linspace(-1.0, 1.0, 6).reshape(2, 3)
    for at in (x, x[0], np.array(0.3)):
        vals = R.eval_all(sys, 4, at)
        assert isinstance(vals, np.ndarray)
        assert vals.shape == (5,) + at.shape
    assert isinstance(R.eval_all(sys, 4, 0.3), list)


def test_eval_poly_on_an_array_owns_its_data():
    x = np.linspace(-1.0, 1.0, 5)
    p = R.eval_poly(legendre_system(), 30, x)
    assert p.shape == x.shape
    assert p.base is None and p.flags.owndata


@pytest.mark.parametrize("family", ("hermite", "laguerre"))
@pytest.mark.parametrize("order", (0, 1, 2))
def test_streamed_states_equal_kept_states(family, order):
    """Three slots that take turns hold, at each yield, the state that the
    full buffer of eval_all and eval_all_derivatives keeps for that degree
    (b = 0 and b != 0 rows; values past the double range included)."""
    sys = F.family_monic_system(CONTINUOUS[family])
    x = np.linspace(-40.0, 3000.0, 11)
    n = 1000
    stream = np.empty((3,) + (order + 1,) * (order > 0) + x.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        streamed = [stream[j % 3].copy()
                    for j in R._pass(sys.table(n - 1), sys.p0, x, stream)]
    kept = (R.eval_all(sys, n, x) if order == 0
            else R.eval_all_derivatives(sys, n, x, order).swapaxes(0, 1))
    assert len(streamed) == n + 1
    assert not np.isfinite(kept).all()
    assert _bits(streamed) == _bits(kept)


def test_a_kept_pass_holds_no_view_per_row():
    """Filling a full (n + 1)-row table, the pass holds a few Python objects
    at a time, not a view of every row (1001 objects here)."""
    import sys as interpreter
    system = F.family_monic_system(CONTINUOUS["legendre"])
    rows, x = system.table(999), np.linspace(-1.0, 1.0, 11)
    out = np.empty((1001, 11))
    before = interpreter.getallocatedblocks()
    for j in R._pass(rows, system.p0, x, out):
        if j == 500:
            held = interpreter.getallocatedblocks() - before
    assert held < 100


def test_evaluation_past_the_double_range_raises_no_warnings():
    # pytest turns a RuntimeWarning into an error; H_1000(6) is not a
    # double, and the scalar and array paths both give it as inf or nan
    sys = hermite_system()
    for x in (6.0, np.array([6.0, 0.5])):
        assert not np.isfinite(R.eval_all(sys, 1000, x)[-1]).all()
        assert not np.isfinite(
            R.eval_all_derivatives(sys, 1000, x)[:, -1]).all()


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
    sys = R.RecurrenceSystem(lambda j: (1.0, 0.0, 0.0), form="monic")
    rep = R.validate_favard(sys, 3)
    assert not rep.passed
    assert rep.failures[0][0] == 0


def test_favard_negative_product_fails():
    sys = R.RecurrenceSystem(lambda j: (1.0, 0.0, -1.0), form="monic")
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
    sys = R.RecurrenceSystem(
        lambda j: (1.0, 0.0, np.where(j > 0, 0.25, 0.0)), form="monic")
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
    sys = R.RecurrenceSystem(lambda j: (1.0, 0.0, -1.0), form="monic")
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
    sys = R.RecurrenceSystem(
        lambda j: (2.0, 0.0, np.where(j > 0, 2.0, 0.0)), form="orthonormal")
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


def even_symmetry(sys, n_max, samples):
    """(all b_n zero, largest deviation from p_n(-x) = (-1)^n p_n(x) at the
    samples, checked only when all b_n vanish)."""
    all_b_zero = not sys.arrays(n_max)[1].any()
    worst = 0.0
    if all_b_zero:
        x = np.asarray(samples, dtype=float)
        plus, minus = R.eval_all(sys, n_max, x), R.eval_all(sys, n_max, -x)
        sign = (-1.0) ** np.arange(n_max + 1)[:, None]
        worst = float(np.max(np.abs(minus - sign * plus)
                             / np.maximum(1.0, np.abs(plus)), initial=0.0))
    return all_b_zero, worst


def test_even_symmetry_hermite():
    assert even_symmetry(hermite_system(), 3, [0.7]) == (True, 0.0)


def test_even_symmetry_degree_zero():
    assert even_symmetry(legendre_system(), 0, [0.2, 1.3]) == (True, 0.0)


def test_even_symmetry_legendre_sampled():
    assert even_symmetry(legendre_system(), 4, [0.3])[1] <= 1e-14


def test_even_symmetry_skips_asymmetric():
    sys = R.RecurrenceSystem(
        lambda j: (1.0, 1.0, np.where(j > 0, 0.25, 0.0)), form="monic")
    assert not even_symmetry(sys, 4, [0.5])[0]


def _counting_legendre():
    calls = {}
    base = legendre_system().rows_fn

    def rows(j):
        for n in j.tolist():
            calls[n] = calls.get(n, 0) + 1
        return base(j)

    return R.RecurrenceSystem(rows_fn=rows, form="general", p0=1.0), calls


def test_table_rows_are_python_floats_and_match_coeffs():
    sys = R.RecurrenceSystem(lambda j: (j + 1.0, j, 0.5 * j))
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
            _, alpha, beta, _ = F.classical(spec)
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


def test_family_systems_are_shared_per_parameter_bits():
    from orthopoly import discrete as D

    spec = F.jacobi(0.5, 1.5)
    shared = F.family_system(spec)
    assert F.family_system(F.jacobi(0.5, 1.5)) is shared
    assert F.family_bundle(spec).system is shared
    assert F.family_monic_system(spec) is F.family_monic_system(spec)
    assert F.family_monic_system(spec) is not shared
    assert F.family_system(F.laguerre(-0.0)) is not F.family_system(
        F.laguerre(0.0))
    lattice = D.krawtchouk(0.3, 20)
    assert F.family_system(lattice) is D.discrete_system(lattice)
    assert F.family_monic_system(lattice) is D.discrete_system(lattice, True)
    assert D.charlier_system(2.0) is D.discrete_system(D.charlier(2.0))
    F.clear_systems()
    assert F.family_system(spec) is not shared


def test_family_measures_are_shared_per_parameter_bits():
    from orthopoly import discrete as D

    spec = F.jacobi(0.5, 1.5)
    shared = F.family_measure(spec)
    assert F.family_measure(F.jacobi(0.5, 1.5)) is shared
    assert F.family_bundle(spec).measure is shared
    assert F.family_measure(spec, normalized=True) is not shared
    assert (F.family_bundle(spec, normalized=True).measure
            is F.family_measure(spec, normalized=True))
    assert F.family_measure(F.laguerre(-0.0)) is not F.family_measure(
        F.laguerre(0.0))
    assert F.family_measure(F.legendre(), True) is not F.family_measure(
        F.legendre(), False)
    for lattice in (D.charlier(2.0), D.krawtchouk(0.3, 20)):
        assert F.family_measure(lattice) is D.family_measure(lattice)
        assert D.family_measure(lattice, True) is not D.family_measure(
            lattice)
    F.clear_systems()
    assert F.family_measure(spec) is not shared


def test_a_shared_builder_may_ask_for_another_shared_object(monkeypatch):
    import threading

    # a lock of this test's own, so that a builder that hangs holding it
    # leaves the other tests the package's lock
    monkeypatch.setattr(R, "_PUBLISH", threading.Lock())
    got = []

    def build():
        return (F.family_system(F.legendre()),
                F.family_measure(F.legendre()))

    worker = threading.Thread(
        target=lambda: got.append(F.shared_system(F.legendre(), "pair",
                                                  build)),
        daemon=True)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive(), "the builder hangs on the store's lock"
    assert got[0] == (F.family_system(F.legendre()),
                      F.family_measure(F.legendre()))
    assert F.shared_system(F.legendre(), "pair", build) is got[0]


def test_shared_systems_stay_within_their_bound():
    kept = F._SYSTEMS_KEPT
    first = F.family_system(F.laguerre(0.0))
    specs = [F.laguerre(k / 8) for k in range(1, 2 * kept)]
    systems = [F.family_system(s) for s in specs]
    assert len(F._shared["systems"]) == kept
    assert F.family_system(specs[-1]) is systems[-1]
    assert F.family_system(F.laguerre(0.0)) is not first


def test_threaded_growth_gives_the_rows_of_a_fresh_system():
    import sys as _sys
    import threading

    sizes = (10, 200, 1000, 50)
    fresh = F.jacobi_system(0.5, 1.5)
    want = {n: (fresh.table(n), fresh.arrays(n).copy(), fresh.coeffs(n))
            for n in sizes}
    interval = _sys.getswitchinterval()
    _sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            F.clear_systems()
            shared = F.family_system(F.jacobi(0.5, 1.5))
            start, got = threading.Barrier(4), []

            def grow(shared=shared, start=start, got=got):
                start.wait(timeout=30)
                for n in sizes:
                    got.append((n, shared.table(n), shared.arrays(n),
                                shared.coeffs(n)))

            threads = [threading.Thread(target=grow) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            assert len(got) == 4 * len(sizes)
            for n, table, arrays, coeffs in got:
                assert table == want[n][0], n
                assert np.array_equal(arrays, want[n][1]), n
                assert coeffs == want[n][2], n
    finally:
        _sys.setswitchinterval(interval)


def test_a_row_that_is_not_finite_is_refused():
    for bad in (np.inf, np.nan):
        sys = R.RecurrenceSystem(
            lambda j, bad=bad: (1.0, np.where(j == 3, bad, 0.0), 0.5))
        assert len(sys.table(2)) == 3
        with pytest.raises(R.RecurrenceError, match="row 3 is not finite"):
            sys.table(5)
        assert len(sys.table(2)) == 3


@pytest.mark.parametrize("scale", (1e200, 1e-200))
def test_favard_roots_past_the_double_range(scale):
    import warnings

    from orthopoly import kernels as K

    # a_n = c_n = scale: the Favard products scale^2 over- or underflow,
    # their roots e_n = scale do not
    sys = R.from_tables([scale] * 6, [0.0] * 6, [0.0] + [scale] * 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert list(R.favard_roots(sys, 5)) == [scale] * 5
        ortho = R.orthonormal_from(sys, 1.0)
        assert ortho.arrays(4)[0].tolist() == [scale] * 5
        diag, off = K.jacobi_matrix(sys, 5)
        assert off.tolist() == [scale] * 4
        zs = K.zeros(sys, None, 5)
    want = [2 * scale * math.cos(k * math.pi / 6) for k in range(5, 0, -1)]
    assert zs == pytest.approx(want, rel=1e-15, abs=1e-15 * scale)
    assert R.eval_all(ortho, 5, 0.5 * scale)[-1] == pytest.approx(
        R.eval_all(R.orthonormal_from(
            R.from_tables([1.0] * 6, [0.0] * 6, [0.0] + [1.0] * 5), 1.0),
            5, 0.5)[-1], rel=1e-14)


def test_favard_roots_refuse_a_product_that_is_not_positive():
    for c in (0.0, -1e200):
        sys = R.from_tables([1e200] * 4, [0.0] * 4, [0.0, 1e200, c, 1e200])
        with pytest.raises(R.RecurrenceError, match="Favard violation at n=1"):
            R.favard_roots(sys, 3)


@pytest.mark.parametrize("spec", (F.legendre(), F.hermite(), F.laguerre(0.5),
                                  F.jacobi(0.5, 1.5), F.chebyshev_t()),
                         ids=lambda s: s.family)
def test_favard_roots_in_range_are_the_roots_of_the_products(spec):
    sys = F.family_system(spec)
    roots = R.favard_roots(sys, 1000)
    assert np.array_equal(roots, np.sqrt(R.favard_products(sys, 1000)))


def test_norm_chain_is_kept_with_the_rows():
    spec = F.jacobi(0.5, 1.5)
    shared = F.family_system(spec)
    fresh = F.jacobi_system(*F.classical(spec)[1:])
    for upto in (0, 10, 1000, 5, 1000):
        got = R.norms_from_recurrence(shared, 0.7, 1.0, upto).log_h
        want = R.norms_from_recurrence(fresh, 0.7, 1.0, upto).log_h
        assert got.tobytes() == want.tobytes(), upto
    steps = shared._cache["log_steps"]
    assert len(steps) == 1000 and not steps.flags.writeable


def test_a_favard_violation_past_the_kept_chain_recurs():
    c = [0.0] + [0.25] * 6 + [-0.25] + [0.25] * 12
    sys = R.from_tables([1.0] * 20, [0.0] * 20, c, form="monic")
    short = R.norms_from_recurrence(sys, 1.0, 1.0, 5).log_h
    for _ in range(2):
        with pytest.raises(R.RecurrenceError,
                           match=r"at n=6: a_6 c_7 = -0.25 <= 0"):
            R.norms_from_recurrence(sys, 1.0, 1.0, 10)
    assert np.array_equal(R.norms_from_recurrence(sys, 1.0, 1.0, 5).log_h,
                          short)
    assert len(sys._cache["log_steps"]) == 5
