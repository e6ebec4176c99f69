"""Orthogonality measures: inner products, moments, Hankel minors, and the
recurrence of a measure by discretized Lanczos."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .recurrence import (NormData, RecurrenceError, RecurrenceSystem,
                         from_tables, norms_from_recurrence)

DEFAULT_TOL = 1e-12
_MAX_DISCRETE_TERMS = 200_000
# Largest discretization recurrence_from_measure tries before it gives up.
_MAX_POINTS = 2048


class IntegrationError(RuntimeError):
    """Integral or infinite sum did not converge within budget."""


@dataclass(frozen=True)
class Measure:
    """Positive measure driving inner products and moments.

    kind is one of "continuous", "discrete_finite", "discrete_infinite".
    For continuous measures with an endpoint-singular algebraic factor,
    `alg_exponents` holds (left, right) exponents so integration can use
    quadrature with the singular part absorbed into the rule; `weight` is
    always the full weight, `alg_smooth` its regular part.
    """

    kind: str
    weight: Callable[[float], float] | None = None
    support: tuple[float, float] | None = None
    nodes: np.ndarray | None = None
    node_weights: np.ndarray | None = None
    node_fn: Callable[[int], float] | None = None
    weight_fn: Callable[[int], float] | None = None
    tail_bound: Callable[[int], float] | None = None
    normalizer: float = 1.0
    alg_exponents: tuple[float, float] | None = None
    alg_smooth: Callable[[float], float] | None = None
    meta: dict = field(default_factory=dict)

    @property
    def n_points(self) -> int | None:
        """Distinct support points of a finite measure, None otherwise."""
        if self.kind != "discrete_finite":
            return None
        return int(np.unique(self.nodes).size)


def continuous_measure(weight, support, normalizer=1.0, alg_exponents=None,
                       alg_smooth=None, meta=None) -> Measure:
    a, b = float(support[0]), float(support[1])
    if not a < b:
        raise ValueError("support interval must be nondegenerate")
    return Measure(kind="continuous", weight=weight, support=(a, b),
                   normalizer=float(normalizer), alg_exponents=alg_exponents,
                   alg_smooth=alg_smooth, meta=meta or {})


def discrete_measure(nodes, weights, normalizer=1.0, meta=None) -> Measure:
    nodes = np.asarray(nodes, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if nodes.shape != weights.shape:
        raise ValueError("nodes and weights must have equal length")
    if np.any(weights <= 0):
        raise ValueError("discrete weights must be positive")
    return Measure(kind="discrete_finite", nodes=nodes, node_weights=weights,
                   normalizer=float(normalizer), meta=meta or {})


def discrete_infinite_measure(node_fn, weight_fn, tail_bound, normalizer=1.0,
                              meta=None) -> Measure:
    return Measure(kind="discrete_infinite", node_fn=node_fn,
                   weight_fn=weight_fn, tail_bound=tail_bound,
                   normalizer=float(normalizer), meta=meta or {})


def integrate(m: Measure, f: Callable[[float], float],
              tol: float = DEFAULT_TOL) -> float:
    """Integrate f against the measure to absolute accuracy ~tol."""
    if m.kind == "continuous":
        return m.normalizer * _integrate_continuous(m, f, tol)
    if m.kind == "discrete_finite":
        return m.normalizer * float(np.dot(m.node_weights,
                                           [f(x) for x in m.nodes]))
    if m.kind == "discrete_infinite":
        return m.normalizer * _sum_infinite(m, f, tol)
    raise ValueError(f"unknown measure kind {m.kind!r}")


def _integrate_continuous(m: Measure, f, tol: float) -> float:
    from scipy import integrate as _sp_integrate

    a, b = m.support
    if m.alg_exponents is not None:
        smooth = m.alg_smooth or (lambda x: 1.0)
        if math.isinf(b):
            mid = a + 1.0
            v1, e1 = _sp_integrate.quad(lambda x: f(x) * smooth(x), a, mid,
                                        weight="alg", wvar=m.alg_exponents,
                                        epsabs=tol, epsrel=tol, limit=500)
            # beyond the split point the weight itself is regular
            v2, e2 = _sp_integrate.quad(lambda x: f(x) * m.weight(x), mid, b,
                                        epsabs=tol, epsrel=tol, limit=500)
            _check_quad_error(v1 + v2, e1 + e2, tol)
            return v1 + v2
        val, err = _sp_integrate.quad(lambda x: f(x) * smooth(x), a, b,
                                      weight="alg", wvar=m.alg_exponents,
                                      epsabs=tol, epsrel=tol, limit=500)
        _check_quad_error(val, err, tol)
        return val
    val, err = _sp_integrate.quad(lambda x: f(x) * m.weight(x), a, b,
                                  epsabs=tol, epsrel=tol, limit=500)
    _check_quad_error(val, err, tol)
    return val


def _check_quad_error(val: float, err: float, tol: float) -> None:
    if err > max(tol, 1e-8 * abs(val)) * 1e3:
        raise IntegrationError(
            f"quadrature error estimate {err:.3e} too large for value {val:.6e}")


def _sum_infinite(m: Measure, f, tol: float) -> float:
    total = 0.0
    recent = []
    for k in range(_MAX_DISCRETE_TERMS):
        x = m.node_fn(k)
        fx = f(x)
        total += m.weight_fn(k) * fx
        recent.append(abs(fx))
        if len(recent) > 4:
            recent.pop(0)
        if k >= 8:
            tail = m.tail_bound(k)
            if tail * (1.0 + 10.0 * max(recent)) < 0.1 * tol:
                return total
    raise IntegrationError("infinite discrete sum did not converge in budget")


def inner_product(f, g, m: Measure, tol: float = DEFAULT_TOL) -> float:
    """<f, g> with respect to the measure."""
    return integrate(m, lambda x: f(x) * g(x), tol)


@dataclass(frozen=True)
class MomentSequence:
    mu: np.ndarray
    source: str = ""

    def __post_init__(self):
        object.__setattr__(self, "mu", np.asarray(self.mu, dtype=float))
        if len(self.mu) and self.mu[0] <= 0:
            raise ValueError("mu_0 must be positive")


def moments(m: Measure, n_max: int, tol: float = DEFAULT_TOL) -> MomentSequence:
    """Moments mu_k = <x^k, 1> for k = 0..n_max."""
    mu = np.array([integrate(m, lambda x, k=k: x ** k, tol)
                   for k in range(n_max + 1)])
    return MomentSequence(mu=mu, source=m.meta.get("name", "measure"))


@dataclass(frozen=True)
class HankelReport:
    minors: np.ndarray
    all_positive: bool


def hankel_minors(ms: MomentSequence, n_max: int) -> HankelReport:
    """Hankel determinants Delta_n = det(mu_{i+j}), n = 0..n_max."""
    if len(ms.mu) < 2 * n_max + 1:
        raise ValueError(
            f"need moments through index {2 * n_max}, have {len(ms.mu) - 1}")
    minors = np.empty(n_max + 1)
    for n in range(n_max + 1):
        H = np.array([[ms.mu[i + j] for j in range(n + 1)]
                      for i in range(n + 1)])
        minors[n] = np.linalg.det(H)
    return HankelReport(minors=minors, all_positive=bool(np.all(minors > 0)))


def recurrence_from_measure(m: Measure, n_max: int,
                            tol: float = DEFAULT_TOL
                            ) -> tuple[RecurrenceSystem, NormData]:
    """Monic recurrence coefficients by discretized Lanczos.

    The measure is replaced by a K-point discrete one: on a finite interval
    a Gauss-Jacobi rule with the declared `alg_exponents` (Gauss-Legendre
    when none are declared), on a half line a generalized Gauss-Laguerre
    rule with the exponent at the finite end, on the whole line a
    Gauss-Hermite rule, each times the rest of the weight; on an infinite
    lattice its first K points.  Lanczos with full reorthogonalisation on
    diag(nodes) gives b_n and c_n = beta_n^2 (Gautschi, Orthogonal
    Polynomials: Computation and Approximation, 2004, section 2.2; Gragg &
    Harrod 1984).  K starts at n_max + 1 and doubles until every b_n and
    sqrt(c_n) changes by at most `tol` relative to |b_n| + sqrt(c_n) +
    sqrt(c_{n+1}).  A finite measure is used as it is.

    Raises RecurrenceError when K would exceed _MAX_POINTS.  So a weight
    with an endpoint singularity that `alg_exponents` does not declare, or
    whose decay does not fit the Laguerre or Hermite rule, fails instead of
    giving drifted coefficients, and so does a `tol` at the rounding level.
    A measure on N points has no polynomial of degree N: n_max >= N raises.
    """
    if m.kind == "discrete_finite":
        if n_max >= m.n_points:
            raise RecurrenceError(
                f"a measure on {m.n_points} points has orthogonal polynomials "
                f"of degree < {m.n_points} only; asked for degree {n_max}")
        rows = _lanczos(m.nodes, m.normalizer * m.node_weights, n_max)
        if rows is None:
            raise RecurrenceError("Lanczos breakdown: a node or weight is "
                                  "not finite, or the process lost "
                                  "positivity")
    else:
        coarse, size = None, n_max + 1
        while True:
            if size > _MAX_POINTS:
                raise RecurrenceError(
                    f"recurrence coefficients to n = {n_max} did not settle "
                    f"to tolerance {tol} within {_MAX_POINTS} points")
            rows = _lanczos(*_discretize(m, size), n_max)
            # a doubling confirms the coarse rows only if it put weight on
            # more points than the coarse measure had
            if (coarse is not None and rows is not None
                    and rows[0] > coarse[0] and _settled(coarse, rows, tol)):
                break
            coarse, size = rows, 2 * size
    _, h0, b, beta = rows
    sys = from_tables([1.0] * (n_max + 1), b, beta[:n_max + 1] ** 2,
                      form="monic")
    return sys, norms_from_recurrence(sys, h0, 1.0, n_max)


def _discretize(m: Measure, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a size-point discrete stand-in for the measure."""
    from scipy import special

    if m.kind == "discrete_infinite":
        x = np.array([m.node_fn(k) for k in range(size)], dtype=float)
        w = np.array([m.weight_fn(k) for k in range(size)], dtype=float)
        return x, m.normalizer * w
    a, b = m.support
    if m.alg_exponents is None:
        exponents, rest = (0.0, 0.0), m.weight
    else:
        exponents, rest = m.alg_exponents, m.alg_smooth or (lambda x: 1.0)
    if math.isinf(a) and math.isinf(b):
        x, rule = special.roots_hermite(size)
        ratio = _times_exp(_values(m.weight, x), x * x)
    elif math.isinf(a) or math.isinf(b):
        # x = end + sign t, t >= 0, with the exponent at the finite end
        sign, end, expo = ((1.0, a, exponents[0]) if math.isinf(b)
                           else (-1.0, b, exponents[1]))
        t, rule = special.roots_genlaguerre(size, expo)
        x = end + sign * t
        ratio = _times_exp(_values(rest, x), t)
    else:
        # (x - a)^l (b - x)^r is ((b - a)/2)^(l + r) (1 + t)^l (1 - t)^r
        left, right = exponents
        half = (b - a) / 2
        t, rule = special.roots_jacobi(size, right, left)
        x = a + half * (1.0 + t)
        ratio = half ** (left + right + 1) * _values(rest, x)
    w = rule * ratio
    w[rule == 0] = 0.0
    return x, m.normalizer * w


def _values(f: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    return np.array([f(float(t)) for t in x], dtype=float)


def _times_exp(v: np.ndarray, t: np.ndarray) -> np.ndarray:
    """v e^t, in log form where e^t leaves the double range."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(t < 700.0, v * np.exp(np.minimum(t, 700.0)),
                        np.exp(np.log(v) + t))


def _lanczos(x: np.ndarray, w: np.ndarray, n_max: int):
    """(points, mass, b_0..b_n, beta_0..beta_{n+1}) of the discrete measure
    sum_k w_k delta(x_k), by Lanczos on diag(x) with two full
    reorthogonalisations per step; beta_0 = 0 and beta_n = sqrt(c_n).

    Points of weight 0 are dropped.  Returns None when a node or weight is
    not finite, or when fewer than n_max + 1 points carry weight.
    """
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(w))):
        return None
    if np.any(w < 0):
        raise RecurrenceError("measure has a negative weight")
    keep = w > 0
    x, w = x[keep], w[keep]
    if len(x) <= n_max:
        return None
    h0 = float(w.sum())
    Q = np.empty((n_max + 1, len(x)))
    Q[0] = np.sqrt(w / h0)
    b = np.empty(n_max + 1)
    beta = np.zeros(n_max + 2)
    for j in range(n_max + 1):
        v = x * Q[j]
        b[j] = Q[j] @ v
        v -= b[j] * Q[j]
        if j:
            v -= beta[j] * Q[j - 1]
        for _ in range(2):
            v -= Q[:j + 1].T @ (Q[:j + 1] @ v)
        beta[j + 1] = math.sqrt(v @ v)
        if j < n_max:
            if not beta[j + 1] > 0:
                return None
            Q[j + 1] = v / beta[j + 1]
    return len(x), h0, b, beta


def _settled(coarse, fine, tol: float) -> bool:
    """Every b_n, sqrt(c_n) and the mass agree to tol, on the row scale
    |b_n| + sqrt(c_n) + sqrt(c_{n+1}) of the finer discretization."""
    _, h0, b0, beta0 = coarse
    _, h1, b1, beta1 = fine
    scale = tol * (np.abs(b1) + beta1[:-1] + beta1[1:])
    return bool(abs(h1 - h0) <= tol * h1
                and np.all(np.abs(b1 - b0) <= scale)
                and np.all(np.abs(beta1[:-1] - beta0[:-1]) <= scale))
