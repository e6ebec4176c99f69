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
    chains = _pearson_chains(spec, n, xs, True)
    return np.hstack([_shift_residuals(chains, d)
                      for d in ("raise", "lower")]), {}


def _row_errors(b, c, b_ref, c_ref, b_size):
    """Errors of monic rows b_k, c_k against b_ref, c_ref (one row longer):
    b_k relative to b_size_k + sqrt(c_ref_k) + sqrt(c_ref_{k+1}) (returned
    too), c_k relative to c_ref_k."""
    root = np.sqrt(c_ref)
    b_scale = b_size + root[:-1] + root[1:]
    c_err = np.abs(c - c_ref[:-1])
    return (np.abs(b - b_ref[:-1]) / b_scale,
            np.divide(c_err, c_ref[:-1], out=c_err, where=c_ref[:-1] != 0),
            b_scale)


def quadratic_transform_residuals(n: int,
                                  alpha: float) -> tuple[np.ndarray, ...]:
    """The quadratic transformations P_2k^{(a,a)}(x) ~ P_k^{(a,-1/2)}(2x^2 -
    1) and P_2k+1^{(a,a)}(x) ~ x P_k^{(a,1/2)}(2x^2 - 1) on monic rows
    (Chihara 1978): with the rows c_m of Jacobi(a, a), x^2 p_m = p_{m+2} +
    (c_m + c_{m+1}) p_m + c_{m-1} c_m p_{m-2}, so m = 2k and 2k + 1 give the
    rows in t = x^2 of Jacobi(a, -+1/2) under y = 2t - 1, b' = (b + 1)/2,
    c' = c/4.  Per block, rows k = 0..n of relative (b, c) errors."""
    c = F._jacobi_monic_rows(np.arange(2 * n + 3), alpha, alpha)[1]
    k = np.arange(n + 1)
    out = []
    for beta, m in ((-0.5, 2 * k), (0.5, 2 * k + 1)):
        b_ref, c_ref = F._jacobi_monic_rows(np.arange(n + 2), alpha, beta)
        # c_0 = 0 zeroes the product of row 0, where c[m - 1] wraps round
        out.append(np.column_stack(_row_errors(
            c[m] + c[m + 1], c[m - 1] * c[m], (b_ref + 1) / 2, c_ref / 4,
            (np.abs(b_ref[:-1]) + 1) / 2)[:2]))
    return tuple(out)


def limit_row_errors(which: int, n: int, a: float, alpha: float = 0.0):
    """Limit relation 26, 27 or 28 (Koekoek, Lesky & Swarttouw 2010, ch. 9)
    on monic rows: at the parameter a the source (26: Jacobi(a, a), 27:
    Jacobi(alpha, a), 28: Laguerre(a)) maps onto the target (Hermite,
    Laguerre(alpha), Hermite) under x -> sigma x + t, b' = (b - t)/sigma and
    c' = c/sigma^2.  The relative errors of the rows that fix p_n (b_k,
    k < n, then c_k, 0 < k < n) and their rounding levels (64 eps, and 64
    eps of (|b| + |t|)/|sigma| for b')."""
    if which == 26:
        source, sigma, t, target = (F.jacobi_monic_system(a, a), a ** -0.5,
                                    0.0, F.hermite())
    elif which == 27:
        source, sigma, t, target = (F.jacobi_monic_system(alpha, a), -2 / a,
                                    1.0, F.laguerre(alpha))
    elif which == 28:
        source, sigma, t, target = (F.laguerre_monic_system(a),
                                    math.sqrt(2 * a), a, F.hermite())
    else:
        raise F.FamilyError(f"unknown limit relation {which}")
    _, b, c = source.rows_fn(np.arange(n))
    b_ref, c_ref = F.family_monic_system(target).arrays(n)[1:]
    b_err, c_err, b_scale = _row_errors((b - t) / sigma, c / sigma ** 2,
                                        b_ref, c_ref, np.abs(b_ref[:-1]))
    eps = 64 * np.finfo(float).eps
    return (np.concatenate((b_err, c_err[1:])),
            np.concatenate((eps * (np.abs(b) + abs(t)) / abs(sigma) / b_scale,
                            np.full(max(n - 1, 0), eps))))


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
    sys = F.family_system(spec)
    norms = R.norms_from_recurrence(sys, F.family_mu0(spec), 1.0, n + 1)
    lo, hi = ((0.2, 8.0) if F.classical(spec)[0] == F.LAGUERRE
              else (-0.95, 0.95))
    # kept per family: drawn at the first check, not at import, so that the
    # other identities do not load numpy.random
    u, v = F.shared_system(spec, "cd pairs", lambda: _cd_pairs(lo, hi))
    s = K.cd_kernel(sys, norms, n, u, v, method="sum")
    c = K.cd_kernel(sys, norms, n, u, v)
    return ((s - c) / np.maximum(np.abs(s), 1.0))[None], {}


def _quadratic(spec, n: int, xs):
    kind, alpha, _, _ = F.classical(spec)
    if kind != F.JACOBI:
        raise ConfigError("quadratic transformation applies to the "
                          "Jacobi-type families")
    return (np.hstack(quadratic_transform_residuals(n, alpha)),
            {"symmetric_jacobi": [alpha, alpha]})


def _orthogonality(spec, n: int, xs):
    # the Gram matrix of the orthonormal chain on a Gauss rule of n + 2
    # points, which integrates every product of degrees <= n exactly; its
    # residuals are the rule's own rounding, 1e-15 to 1e-14 at n = 10.  The
    # rule is scipy.special's, which does not use the recurrence under check
    from scipy import special

    kind, a, b, _ = F.classical(spec)
    try:
        if kind == F.LAGUERRE:
            nodes, weights = special.roots_genlaguerre(n + 2, a)
        elif kind == F.HERMITE:
            nodes, weights = special.roots_hermite(n + 2)
        else:
            nodes, weights = special.roots_jacobi(n + 2, a, b)
    except ValueError as exc:   # scipy refuses a non-finite Jacobi matrix
        raise NumericalFailure(
            f"orthogonality to degree {n}: the {n + 2}-point Gauss rule "
            f"could not be built: {exc}") from exc
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
    kind, alpha, _, _ = F.classical(spec)
    if kind == F.HERMITE:
        raise ConfigError(f"{spec.family} is a limit target, not a source; "
                          "use jacobi or laguerre")
    relations = []
    for which in (28,) if kind == F.LAGUERRE else (26, 27):
        # the rows reach their rate for a >> n^2, and a >> alpha^2 in 27
        a0 = 64 * np.float64(max(n, 1, alpha if which == 27 else 0)) ** 2
        params = [a0 * 2 ** i for i in range(4)]
        runs = [limit_row_errors(which, n, a, alpha) for a in params]
        errors = np.array([r[0] for r in runs])
        # a row at rounding level at the largest parameter shows no rate;
        # each closes in at 2 as a doubles, the b rows of 28 at sqrt 2
        judged = ~(errors[-1] <= runs[-1][1])
        rate = np.where(np.arange(len(judged)) < n * (which == 28),
                        math.sqrt(2), 2.0)
        dev = np.abs(errors[:-1, judged] / errors[1:, judged]
                     / rate[judged] - 1).max(initial=0.0)
        relations.append({
            "relation": which, "limit": (
                "jacobi(a, a) -> hermite", f"jacobi({alpha}, a) -> "
                f"laguerre({alpha})", "laguerre(a) -> hermite")[which - 26],
            "parameters": params,
            "errors": errors.max(axis=1, initial=0.0).tolist(),
            "rows": int(judged.sum()), "deviation": float(dev)})
    # a NaN deviation stays NaN, and check_battery reports it
    return np.array([[np.max([r["deviation"] for r in relations])]]), {
        "relations": relations}


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
    with np.errstate(all="ignore"):   # a non-finite residual is refused
        residuals, details = IDENTITIES[identity](spec, n, xs)
    res = np.abs(residuals)
    bad = ~np.isfinite(res).all(axis=1)
    if bad.any():
        raise NumericalFailure(
            f"{identity} residual at degree {n + 1 - len(res) + bad.argmax()} "
            "is not finite: the values leave the double range")
    return float(res.max(initial=0.0)), details
