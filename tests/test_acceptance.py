"""End-to-end acceptance battery: one test per criterion, each printing a
pass/fail line with its runtime via the conftest reporter."""

import contextlib
import itertools
import math
import time

import numpy as np
import pytest
from scipy import integrate as sp_integrate

from conftest import record_criterion
from orthopoly import discrete as D
from orthopoly import families as F
from orthopoly import identities as I
from orthopoly import kernels as K
from orthopoly import measures as M
from orthopoly import momentprob as MP
from orthopoly import qseries as Q
from orthopoly import recurrence as R


@contextlib.contextmanager
def criterion(num, label, budget):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - t0
        record_criterion(num, label, ok and elapsed < budget, elapsed)
    assert elapsed < budget, (f"criterion {num} took {elapsed:.2f}s, "
                              f"budget {budget}s")


def chebyshev_t_monic():
    return R.RecurrenceSystem(
        lambda j: (1.0, 0.0, np.select([j == 0, j == 1], [0.0, 0.5], 0.25)),
        form="monic", p0=1.0)


# ---------------------------------------------------------------------------

def test_criterion_01_norm_tables():
    with criterion(1, "norm tables", 10.0):
        m = F.family_measure(F.legendre(), normalized=True)
        sys = F.legendre_system()
        for n in range(13):
            got = M.inner_product(lambda x, n=n: R.eval_poly(sys, n, x),
                                  lambda x, n=n: R.eval_poly(sys, n, x), m)
            assert abs(got - 1.0 / (2 * n + 1)) <= 1e-9 / (2 * n + 1)

        m = F.family_measure(F.hermite(), normalized=True)
        sys = F.hermite_system()
        for n in range(13):
            want = 2.0 ** n * math.factorial(n)
            got = M.inner_product(lambda x, n=n: R.eval_poly(sys, n, x),
                                  lambda x, n=n: R.eval_poly(sys, n, x), m)
            assert abs(got - want) <= 1e-9 * want

        for a in (0.5, 1.0, 3.0):
            fam = D.charlier(a)
            m = D.family_measure(fam, normalized=True)
            for n in range(13):
                want = a ** -n * math.factorial(n)
                got = M.inner_product(
                    lambda x, n=n: D.discrete_eval(fam, n, x),
                    lambda x, n=n: D.discrete_eval(fam, n, x), m)
                assert abs(got - want) <= 1e-9 * want


def test_criterion_02_series_vs_recurrence():
    with criterion(2, "series vs recurrence", 5.0):
        rng = np.random.default_rng(20260823)
        setups = [
            (F.jacobi(0.5, 1.5),
             lambda n, x: F.jacobi_eval(n, 0.5, 1.5, x), (-1.0, 1.0)),
            (F.laguerre(0.5),
             lambda n, x: F.laguerre_eval(n, 0.5, x), (0.0, 10.0)),
            (F.hermite(), F.hermite_eval, (-3.0, 3.0)),
        ]
        systems = [F.family_system(spec) for spec, _, _ in setups]
        for _ in range(1000):
            i = int(rng.integers(0, 3))
            _, series, (lo, hi) = setups[i]
            n = int(rng.integers(0, 31))
            x = float(rng.uniform(lo, hi))
            s = series(n, x)
            r = R.eval_poly(systems[i], n, x)
            assert abs(s - r) <= 1e-11 * max(abs(s), abs(r), 1.0)


def _quad_moments_jacobi(alpha, beta, j_max):
    out = np.empty(j_max + 1)
    for j in range(j_max + 1):
        val, _ = sp_integrate.quad(lambda x: x ** j, -1.0, 1.0,
                                   weight="alg", wvar=(beta, alpha),
                                   epsabs=1e-13, epsrel=1e-13, limit=300)
        out[j] = val
    return out


def test_criterion_03_gauss_exactness():
    with criterion(3, "gauss exactness", 30.0):
        jmax = 40
        hermite_mu = np.array([math.gamma((j + 1) / 2.0) if j % 2 == 0
                               else 0.0 for j in range(jmax + 1)])
        cases = [
            (F.legendre(), np.array([2.0 / (j + 1) if j % 2 == 0 else 0.0
                                     for j in range(jmax + 1)])),
            (F.hermite(), hermite_mu),
            (F.laguerre(0.5), np.array([math.gamma(1.5 + j)
                                        for j in range(jmax + 1)])),
            (F.jacobi(0.5, 1.5), _quad_moments_jacobi(0.5, 1.5, jmax)),
        ]
        for spec, mu in cases:
            b = F.family_bundle(spec)
            norms = R.norms_from_recurrence(b.system, b.h0, 1.0, 21)
            monic = F.family_monic_system(spec)
            for n in (2, 5, 10, 20):
                rule = K.gauss_rule(b.system, norms, b.measure, n)
                assert np.all(rule.weights > 0)
                assert abs(rule.weights.sum() - mu[0]) <= 1e-12 * mu[0]
                for j in range(2 * n):
                    got = rule.apply(lambda x: x ** j)
                    scale = rule.apply(lambda x: abs(x) ** j)
                    assert abs(got - mu[j]) <= 1e-11 * scale + 1e-13, \
                        (spec.family, n, j)
                # the degree-2n failure equals the monic squared norm
                h_monic = mu[0]
                for k in range(1, n + 1):
                    h_monic *= monic.coeffs(k)[2]
                err = rule.apply(lambda x: x ** (2 * n)) - mu[2 * n]
                assert err < 0
                assert abs(err + h_monic) <= 0.5 * h_monic, (spec.family, n)


def test_criterion_04_christoffel_darboux():
    with criterion(4, "christoffel-darboux kernel", 5.0):
        rng = np.random.default_rng(7)
        cases = [
            (F.legendre(), (-0.95, 0.95)),
            (F.hermite(), (-2.5, 2.5)),
            (F.laguerre(0.5), (0.2, 10.0)),
            (F.jacobi(0.5, 1.5), (-0.95, 0.95)),
        ]
        for spec, (lo, hi) in cases:
            b = F.family_bundle(spec)
            norms = R.norms_from_recurrence(b.system, b.h0, 1.0, 16)
            for _ in range(100):
                n = int(rng.integers(1, 16))
                x, y = rng.uniform(lo, hi, 2)
                s = K.cd_kernel(b.system, norms, n, float(x), float(y),
                                method="sum")
                c = K.cd_kernel(b.system, norms, n, float(x), float(y))
                scale = math.sqrt(
                    K.cd_kernel(b.system, norms, n, float(x), float(x),
                                method="sum")
                    * K.cd_kernel(b.system, norms, n, float(y), float(y),
                                  method="sum"))
                assert abs(s - c) <= 1e-10 * scale, spec.family
                # confluent path at x = y
                s2 = K.cd_kernel(b.system, norms, n, float(x), float(x),
                                 method="sum")
                c2 = K.cd_kernel(b.system, norms, n, float(x), float(x))
                assert abs(s2 - c2) <= 1e-10 * abs(s2), spec.family


def test_criterion_05_zero_structure():
    with criterion(5, "zero structure", 30.0):
        params = [-0.5, 0.5, 1.5]
        for alpha, beta in itertools.product(params, params):
            sys = F.jacobi_monic_system(alpha, beta)
            prev = None
            lo_chain, hi_chain = [], []
            for n in range(1, 51):
                zs = K.zeros(sys, None, n)
                assert np.all(np.diff(zs) > 1e-12), (alpha, beta, n)
                assert zs[0] > -1.0 and zs[-1] < 1.0, (alpha, beta, n)
                if prev is not None:
                    # zeros of p_{n-1} separate those of p_n
                    assert np.all(zs[:-1] < prev) and np.all(prev < zs[1:])
                prev = zs
                lo_chain.append(zs[0])
                hi_chain.append(zs[-1])
            assert np.all(np.diff(lo_chain) < 0)
            assert np.all(np.diff(hi_chain) > 0)
        est = MP.true_interval(F.jacobi_monic_system(0.0, 0.0), 30)
        assert est.chains_monotone


def test_criterion_06_monic_jacobi_asymptotics():
    with criterion(6, "monic jacobi asymptotics", 5.0):
        sys = F.jacobi_monic_system(1.5, 0.5)
        ns = np.arange(10, 201)
        b = np.array([sys.coeffs(int(n))[1] for n in ns])
        slope = np.polyfit(np.log(ns), np.log(np.abs(b)), 1)[0]
        assert slope == pytest.approx(-2.0, abs=0.1)
        assert abs(sys.coeffs(200)[2] - 0.25) < 1e-2
        cls = MP.support_bound_criteria(sys, 200)
        assert cls.kind == "bounded"
        assert cls.interval[0] == pytest.approx(-1.0, abs=1e-2)
        assert cls.interval[1] == pytest.approx(1.0, abs=1e-2)


def test_criterion_07_markov_theorem():
    with criterion(7, "markov theorem", 5.0):
        oracle, err = sp_integrate.quad(lambda x: 1.0 / (2.0 - x), -1.0, 1.0,
                                        weight="alg", wvar=(-0.5, -0.5),
                                        epsabs=1e-13, epsrel=1e-13)
        oracle /= math.pi
        assert err < 1e-10
        f40 = MP.continued_fraction(chebyshev_t_monic(), 40, 2.0)
        assert abs(f40 - oracle) < 1e-8


def test_criterion_08_carleman_verdicts():
    with criterion(8, "carleman verdicts", 10.0):
        ns = range(1, 2001)
        rep = MP.carleman([1.0 / math.sqrt(n / 2.0) for n in ns])
        assert rep.verdict == "diverges"
        for alpha in (-0.5, 0.0, 2.0):
            rep = MP.carleman([1.0 / math.sqrt(n * (n + alpha)) for n in ns])
            assert rep.verdict == "diverges", alpha
        sw = MP.stieltjes_wigert_monic()

        def sw_term(n):
            # 1/sqrt(c_{n+1}) with c_k = e^{2k}(1 - e^{-k/2}); the reciprocal
            # form stays finite where c_k itself overflows
            k = n + 1
            return math.exp(-k) / math.sqrt(1.0 - math.exp(-k / 2.0))

        for k in (1, 5, 50):
            assert sw_term(k - 1) == pytest.approx(
                1.0 / math.sqrt(sw.coeffs(k)[2]), rel=1e-13)
        rep = MP.carleman([sw_term(n) for n in ns])
        assert rep.verdict == "converges"


def test_criterion_09_stieltjes_non_uniqueness():
    with criterion(9, "stieltjes non-uniqueness", 60.0):
        rep = MP.stieltjes_wigert_demo([-0.5, 0.0, 0.5], 6)
        # moments are normalized by e^{n(n+2)/4}, so deviations are relative
        assert np.max(np.abs(rep.continuous_dev)) <= 1e-7
        assert rep.pairwise_dev <= 2e-7
        # the lattice sum is truncated at |k - peak| = 60 where the summand
        # is below e^{-900}; anything above roundoff would be a real error
        assert np.max(np.abs(rep.discrete_dev)) <= 1e-10


def _monotone(errs):
    return all(e2 < e1 or (e1 < 1e-14 and e2 < 1e-14)
               for e1, e2 in zip(errs, errs[1:]))


def test_criterion_10_limit_relations():
    with criterion(10, "limit relations", 30.0):
        schedule = (1e2, 2e2, 4e2, 8e2)
        for which in (26, 27, 28):
            for n in range(5):
                errs = [I.limit_row_errors(which, n, s, alpha=0.5)[0].max(
                    initial=0.0) for s in schedule]
                assert _monotone(errs), (which, n, errs)
        for n in range(5):
            errs = [D.hahn_to_jacobi_limit(n, 0.5, 1.5, int(N), 0.3)
                    for N in schedule]
            assert _monotone(errs), ("hahn", n, errs)
        for n in range(5):
            errs = [Q.cq_gegenbauer_limit(Q.QContext(q), n, 1.5, 0.5)
                    for q in (0.9, 0.99, 0.999)]
            assert _monotone(errs), ("cq", n, errs)


def test_criterion_11_generating_functions():
    with criterion(11, "generating functions", 5.0):
        resid, tail = F.gegenbauer_genfn_check(0.75, 0.3, 0.2, 25)
        assert resid <= tail + 5e-15
        ctx = Q.QContext(0.6)
        theta = math.acos(0.3)
        resid, tail = Q.gen_fn_check(ctx, 0.4, theta, 0.2, 40)
        assert resid <= tail + 5e-15


def test_criterion_12_electrostatics():
    with criterion(12, "electrostatics", 5.0):
        for p, q in ((0.5, 0.5), (1.0, 2.0)):
            sys = F.jacobi_monic_system(2 * p - 1, 2 * q - 1)
            for n in range(1, 21):
                zs = K.zeros(sys, None, n)
                grad = F.electrostatic_gradient(n, p, q, zs)
                assert np.max(np.abs(grad)) <= 1e-8, (p, q, n)
            zs = np.array(K.zeros(sys, None, 20))
            zs[10] += 1e-2
            grad = F.electrostatic_gradient(20, p, q, zs)
            assert np.max(np.abs(grad)) > 1e-3


def test_criterion_13_askey_wilson_symmetry():
    with criterion(13, "askey-wilson symmetry", 5.0):
        ctx = Q.QContext(0.7)
        sets = [(0.3, -0.45, 0.25, 0.6),
                (0.1, 0.2, 0.3, 0.4),
                (-0.2, 0.5, -0.4, 0.35)]
        for params in sets:
            for n in (*range(7), 10, 30):
                base = Q.askey_wilson_eval(ctx, n, *params, 1.1)
                for perm in itertools.permutations(params):
                    val = Q.askey_wilson_eval(ctx, n, *perm, 1.1)
                    assert abs(val - base) <= 1e-12 * max(abs(base), 1e-300)
