"""The identities that `check` verifies, in a module only it loads: the
differential equation and shift relations of each Pearson pair, the
quadratic transformations, the limit relations, and the battery of `check`."""

from __future__ import annotations

import math

import numpy as np

from . import families as F
from . import recurrence as R
from .errors import ConfigError, NumericalFailure


def pearson_pair(spec: F.FamilySpec):
    """(sigma, tau, shifted) with (sigma w)' = tau w for the weight w.

    sigma = s0 + s1 x + s2 x^2 and tau = t0 + t1 x are ascending coefficient
    tuples; `shifted` is the family with weight sigma w, whose monic members
    are the derivatives of the monic p_n divided by n.
    """
    kind, a, b, _ = F.classical(spec)
    if kind == F.LAGUERRE:
        return (0.0, 1.0, 0.0), (a + 1, -1.0), F.laguerre(a + 1)
    if kind == F.HERMITE:
        return (1.0, 0.0, 0.0), (0.0, -2.0), spec
    return (1.0, 0.0, -1.0), (b - a, -(a + b + 2)), F.jacobi(a + 1, b + 1)


def _scaled(*terms) -> np.ndarray:
    """Sum of the terms over the largest of them, 0 where all vanish."""
    terms = np.array(terms)
    scale = np.max(np.abs(terms), axis=0)
    return np.where(scale == 0, 0.0, np.sum(terms, axis=0) / scale)


def _pearson_chains(spec: F.FamilySpec, n: int, x, shifted: bool):
    """Monic p_k, k <= n, with p' and p'' (the differential equation), or
    with p' only and the shifted family's q_k, k < n, with q' (`shifted`,
    the shift relations); plus sigma(x), tau(x) and mu_k = tau' + (k - 1)
    sigma''/2.  q is None when not `shifted`."""
    (s0, s1, s2), (t0, t1), shift_spec = pearson_pair(spec)
    x = np.asarray(x, dtype=float)
    order = 1 if shifted else 2
    p = R.eval_all_derivatives(F.family_monic_system(spec), n, x, order)
    q = (R.eval_all_derivatives(F.family_monic_system(shift_spec),
                                max(n - 1, 0), x, order)[:, :n]
         if shifted else None)
    k = np.arange(n + 1).reshape((-1,) + (1,) * x.ndim)
    return p, q, s0 + (s1 + s2 * x) * x, t0 + t1 * x, t1 + (k - 1) * s2, k


def ode_residual(spec: F.FamilySpec, n: int, x) -> np.ndarray:
    """Scaled residuals of sigma p'' + tau p' - k mu_k p = 0 for the monic
    p_k, k = 0..n, at the points x (rows are degrees)."""
    with np.errstate(all="ignore"):
        (p, dp, ddp), _, sigma, tau, mu, k = _pearson_chains(spec, n, x,
                                                             False)
        return _scaled(sigma * ddp, tau * dp, -k * mu * p)


def shift_check(spec: F.FamilySpec, n: int, direction: str,
                x) -> np.ndarray:
    """Scaled residuals of a shift relation for the monic p_k, k = 0..n, at
    the points x (rows are degrees; row 0 is 0).

    direction "raise": p_k' = k q_{k-1}, the derivative lowers the degree and
    moves to the shifted family; "lower": sigma q_{k-1}' + tau q_{k-1}
    = mu_k p_k, the weighted derivative back to the family.
    """
    if direction not in ("raise", "lower"):
        raise F.FamilyError(f"unknown direction {direction!r}")
    with np.errstate(all="ignore"):
        return _shift_residuals(_pearson_chains(spec, n, x, True), direction)


def _shift_residuals(chains, direction: str) -> np.ndarray:
    """`shift_check`'s residuals in one direction from the chains of
    `_pearson_chains`, which serve both directions."""
    (p, dp), (q, dq), sigma, tau, mu, k = chains
    if direction == "raise":
        out = _scaled(dp[1:], -k[1:] * q)
    else:
        out = _scaled(sigma * dq, tau * q, -mu[1:] * p[1:])
    return np.concatenate([np.zeros_like(p[:1]), out])


def _shift(spec, n: int, xs):
    with np.errstate(all="ignore"):
        chains = _pearson_chains(spec, n, xs, True)
        return np.hstack([_shift_residuals(chains, d)
                          for d in ("raise", "lower")]), {}


def _jacobi_ratio_system(alpha: float, beta: float) -> R.RecurrenceSystem:
    """The recurrence of r_m = p_m(x)/p_m(1) = P_m^{(alpha,beta)}(x) /
    P_m^{(alpha,beta)}(1) for the monic Jacobi p_m.

    With rho_m = p_{m+1}(1)/p_m(1), its rows are (rho_m, b_m, c_m/rho_{m-1}),
    so p_m(1) itself, about 2^-m and below the normal range from m ~ 1030,
    is never formed.  rho_m is taken in closed form: its own recurrence
    rho_m = 1 - b_m - c_m/rho_{m-1} follows the subdominant solution at
    x = 1 when alpha < 0 and loses digits (for alpha = -0.9 the residuals
    to degree 21 came out 3e-12 to 9e-12 that way, 1.8e-14 this way).
    """
    def rows(j: np.ndarray) -> tuple:
        m = np.arange(j[0] - 1, j[-1] + 1)  # rho_{j-1} divides c_j
        s = 2 * m + alpha + beta
        # p_m(1) = 2^m (alpha + 1)_m / (m + alpha + beta + 1)_m; at m = 0
        # the factor s + 1 cancels, and it is 0 when alpha + beta = -1
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = (2 * (m + alpha + 1) * (m + alpha + beta + 1)
                   / ((s + 1) * (s + 2)))
        rho[m == 0] = 1 - (beta - alpha) / (alpha + beta + 2)
        rho[m == -1] = 1.0  # divides c_0 = 0: any finite nonzero value
        b, c = F._jacobi_monic_rows(j, alpha, beta)
        return rho[1:], b, c / rho[:-1]

    return R.RecurrenceSystem(rows_fn=rows, form="general", p0=1.0)


def quadratic_transform_residuals(n: int, alpha: float,
                                  xs) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of the even and odd quadratic transformations
    P_2k^{(a,a)}(x) ~ P_k^{(a,-1/2)}(2x^2 - 1) and
    P_2k+1^{(a,a)}(x) ~ x P_k^{(a,1/2)}(2x^2 - 1), each side normalised by
    its value at 1, for k = 0..n (rows) at the points xs (columns).

    Each of the three chains is one eval_all pass of a ratio system kept in
    the families' shared store (see `families.shared_system`); the tests
    hold the series form of the same residuals.  For alpha < -1/2 the
    normalised values grow like k^(-1/2 - alpha), and a residual is taken
    relative to the largest value of its degree where that exceeds 1.
    """
    def residual(lhs, rhs):
        scale = np.maximum(abs(lhs), abs(rhs)).max(axis=1, keepdims=True)
        return (lhs - rhs) / np.maximum(1.0, scale)

    def chain(m_max, beta, at):
        return R.eval_all(F.shared_system(
            F.jacobi(alpha, beta), "ratio",
            lambda: _jacobi_ratio_system(alpha, beta)), m_max, at)

    x = np.asarray(xs, dtype=float)
    y = 2 * x * x - 1
    sym = chain(2 * n + 1, alpha, x)
    return (residual(sym[0::2], chain(n, -0.5, y)),
            residual(sym[1::2], x * chain(n, 0.5, y)))


@F._in_double_range
def limit_check(which: int, n: int, parameter: float, x: float,
                alpha: float = 0.0) -> float:
    """Error of one of the three classical limit relations at x.

    which=26: Jacobi(a,a) -> Hermite; which=27: Jacobi(alpha,b) -> Laguerre
    (parameter is b); which=28: Laguerre(a) -> Hermite.  Monic variants.
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
    if which == 28:
        a = parameter
        lhs = ((2 * a) ** (-n / 2.0)
               * R.eval_poly(F.laguerre_monic_system(a), n,
                             math.sqrt(2 * a) * x + a))
        return abs(lhs - R.eval_poly(herm, n, x))
    raise F.FamilyError(f"unknown limit relation {which}")


def _cd_pairs(lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """50 distinct pairs (x, y) drawn in [lo, hi), always from one seed, and
    their 50 confluent pairs (x, x), as read-only arrays u and v of the
    pairs (u_i, v_i)."""
    x, y = np.random.default_rng(20260823).uniform(lo, hi, (50, 2)).T
    u, v = np.concatenate((x, x)), np.concatenate((y, x))
    u.flags.writeable = v.flags.writeable = False
    return u, v


def _cd(spec, n: int, xs):
    from . import kernels as K
    b = F.family_bundle(spec)
    norms = R.norms_from_recurrence(b.system, b.h0, 1.0, n + 1)
    lo, hi = ((0.2, 8.0) if F.classical(spec)[0] == F.LAGUERRE
              else (-0.95, 0.95))
    # kept per family: drawn at the first check, not at import, so that the
    # other identities do not load numpy.random
    u, v = F.shared_system(spec, "cd pairs", lambda: _cd_pairs(lo, hi))
    s = K.cd_kernel(b.system, norms, n, u, v, method="sum")
    c = K.cd_kernel(b.system, norms, n, u, v)
    return ((s - c) / np.maximum(np.abs(s), 1.0))[None], {}


def _quadratic(spec, n: int, xs):
    kind, alpha, _, _ = F.classical(spec)
    if kind != F.JACOBI:
        raise ConfigError("quadratic transformation applies to the "
                          "Jacobi-type families")
    return np.hstack(quadratic_transform_residuals(n, alpha, xs)), {}


def _orthogonality(spec, n: int, xs):
    # the Gram matrix of the orthonormal chain on a Gauss rule of n + 2
    # points, which integrates every product of degrees <= n exactly; its
    # residuals are the rule's own rounding, 1e-15 to 1e-14 at n = 10.  The
    # rule is scipy.special's, which does not use the recurrence under check
    from scipy import special

    kind, a, b, _ = F.classical(spec)
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == F.LAGUERRE:
            nodes, weights = special.roots_genlaguerre(n + 2, a)
        elif kind == F.HERMITE:
            nodes, weights = special.roots_hermite(n + 2)
        else:
            nodes, weights = special.roots_jacobi(n + 2, a, b)
    # a weight that underflowed drops its node's products from the Gram
    # matrix, which then reads as a violated identity
    if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))
            and np.all(weights > 0)):
        raise NumericalFailure(
            f"orthogonality to degree {n}: the {n + 2}-point Gauss rule "
            "has weights that underflow or are not finite")
    ortho = R.orthonormal_from(F.family_system(spec), F.family_mu0(spec))
    # p~_j(x_k)^2 w_k <= 1 at the nodes of the rule: no product overflows
    p = R.eval_all(ortho, n, nodes)
    gram = (p * weights) @ p.T
    # row j holds <p~_j, p~_k> for k < j, and 0 on and above the diagonal
    return np.tril(gram, -1), {}


def _limit(spec, n: int, xs):
    # every Jacobi-type family is a source of relation 26
    which = {F.LAGUERRE: 28, F.HERMITE: None}.get(F.classical(spec)[0], 26)
    if which is None:
        raise ConfigError(f"{spec.family} is a limit target, not a source; "
                          "use jacobi or laguerre")
    errors = [limit_check(which, n, param, 0.5)
              for param in (1e2, 2e2, 4e2, 8e2)]
    # exact agreement (error 0, as at n <= 1) counts as converging
    monotone = all(e1 < e0 or e1 == 0 for e0, e1 in zip(errors, errors[1:]))
    return np.array([[0.0 if monotone else 1.0]]), {"errors": errors,
                                                    "monotone": monotone}


# the battery of `check`: each identity gives its residuals at the check
# points xs as one array whose rows are the last degrees up to n (every
# degree, or n alone), and details for the document
IDENTITIES = {
    "ode": lambda spec, n, xs: (ode_residual(spec, n, xs), {}),
    "shift": _shift, "cd": _cd, "quadratic": _quadratic,
    "orthogonality": _orthogonality, "limit": _limit}


def check_battery(spec, identity: str, n: int):
    """Run one identity over degrees <= n; return (max residual, details)."""
    if spec.discrete:
        raise ConfigError("check supports the continuous families")
    xs = np.linspace(*{F.LAGUERRE: (0.2, 8.0), F.HERMITE: (-2.0, 2.0)}.get(
        F.classical(spec)[0], (-0.9, 0.9)), 7)
    residuals, details = IDENTITIES[identity](spec, n, xs)
    res = np.abs(residuals)
    bad = ~np.isfinite(res).all(axis=1)
    if bad.any():
        raise NumericalFailure(
            f"{identity} residual at degree {n + 1 - len(res) + bad.argmax()} "
            "is not finite: the values leave the double range")
    return float(res.max(initial=0.0)), details
