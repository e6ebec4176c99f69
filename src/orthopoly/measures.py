"""Orthogonality measures: inner products, moments, Hankel minors, Stieltjes procedure."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .recurrence import (NormData, RecurrenceError, RecurrenceSystem,
                         from_tables)

DEFAULT_TOL = 1e-12
_MAX_DISCRETE_TERMS = 200_000


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
    """Monic recurrence coefficients by the Stieltjes procedure.

    b_n = <x p_n, p_n>/h_n and c_n = h_n/h_{n-1}, with p_n evaluated from
    the coefficients found so far.
    """
    bs: list[float] = []
    cs: list[float] = [0.0]
    hs: list[float] = []

    def p_eval(j: int, x: float) -> float:
        p_prev, p = 0.0, 1.0
        for i in range(j):
            p, p_prev = (x - bs[i]) * p - cs[i] * p_prev, p
        return p

    h0 = integrate(m, lambda x: 1.0, tol)
    if h0 <= 0:
        raise RecurrenceError("measure has non-positive total mass")
    hs.append(h0)
    bs.append(integrate(m, lambda x: x, tol) / h0)
    for n in range(1, n_max + 1):
        hn = integrate(m, lambda x: p_eval(n, x) ** 2, tol)
        if hn <= 0:
            raise RecurrenceError(
                f"loss of positivity in h_{n}: insufficient precision or "
                "invalid measure")
        cs.append(hn / hs[-1])
        hs.append(hn)
        bs.append(integrate(m, lambda x: x * p_eval(n, x) ** 2, tol) / hn)

    sys = from_tables([1.0] * len(bs), bs, cs, form="monic")
    return sys, NormData(h=np.array(hs), k=np.ones(n_max + 1))
