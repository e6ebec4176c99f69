"""Christoffel-Darboux kernels, projections, kernel polynomials, zeros via
the Jacobi matrix, and Gauss quadrature with exactness checks."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .measures import Measure, integrate
from .recurrence import (NormData, RecurrenceError, RecurrenceSystem,
                         eval_all, eval_all_derivatives, validate_favard)

# below this separation the closed form of the kernel cancels; use the
# confluent (derivative) form instead
_CONFLUENT_SWITCH = 1e-6


class KernelError(ValueError):
    """Invalid kernel or quadrature construction."""


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss rule: nodes at the zeros of p_n, positive weights, exact through
    degree 2n-1."""

    nodes: np.ndarray
    weights: np.ndarray
    exactness_degree: int
    source: RecurrenceSystem | None = None

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "weights",
                           np.asarray(self.weights, dtype=float))
        if len(self.nodes) != len(self.weights):
            raise KernelError("node/weight count mismatch")
        if np.any(np.diff(self.nodes) <= 0):
            raise KernelError("nodes must be strictly increasing")
        if np.any(self.weights <= 0):
            raise KernelError("weights must be strictly positive")

    def apply(self, f) -> float:
        return float(np.dot(self.weights, [f(x) for x in self.nodes]))


def cd_kernel(sys: RecurrenceSystem, norms: NormData, n: int, x: float,
              y: float, method: str = "auto") -> float:
    """K_n(x,y) = sum_{j<=n} p_j(x)p_j(y)/h_j, or its closed form."""
    if method not in ("auto", "sum", "closed"):
        raise KernelError(f"unknown method {method!r}")
    if method == "sum":
        px = eval_all(sys, n, x)
        py = eval_all(sys, n, y)
        return float(sum(px[j] * py[j] / norms.h[j] for j in range(n + 1)))
    if method == "auto":
        method = ("closed" if abs(x - y) >= _CONFLUENT_SWITCH * (1 + abs(x))
                  else "confluent")
    elif abs(x - y) < _CONFLUENT_SWITCH * (1 + abs(x)):
        method = "confluent"
    pref = norms.k[n] / (norms.h[n] * norms.k[n + 1])
    if method == "closed":
        pn_x, pn1_x = eval_all(sys, n + 1, x)[-2:]
        pn_y, pn1_y = eval_all(sys, n + 1, y)[-2:]
        return float(pref * (pn1_x * pn_y - pn_x * pn1_y) / (x - y))
    ps, ds, _ = eval_all_derivatives(sys, n + 1, x)
    return float(pref * (ds[n + 1] * ps[n] - ds[n] * ps[n + 1]))


def project(sys: RecurrenceSystem, norms: NormData, n: int, f,
            m: Measure, x: float, tol: float = 1e-12) -> float:
    """(Pi_n f)(x), the kernel projection onto degree <= n."""
    return integrate(m, lambda y: cd_kernel(sys, norms, n, x, y) * f(y), tol)


def kernel_polys(sys: RecurrenceSystem, norms: NormData, y: float,
                 n_max: int, support_upper: float | None = None):
    """Kernel polynomials q_n(x) = K_n(x, y) for fixed y at or above the
    support, returned as a list of callables indexed by degree."""
    if support_upper is not None and y < support_upper:
        raise KernelError(
            f"y = {y} lies inside the support (upper end {support_upper}); "
            "(y - x) d-mu is not a positive measure there")

    def make(n):
        return lambda x: cd_kernel(sys, norms, n, x, y, method="sum")

    return [make(n) for n in range(n_max + 1)]


def kernel_poly_bilinear_residual(sys: RecurrenceSystem, norms: NormData,
                                  n: int, x: float, y: float) -> float:
    """Residual of p_n(y)p_{n+1}(x) - p_{n+1}(y)p_n(x)
    = (h_n k_{n+1}/k_n)(x - y) K_n(x, y)."""
    pn_x, pn1_x = eval_all(sys, n + 1, x)[-2:]
    pn_y, pn1_y = eval_all(sys, n + 1, y)[-2:]
    lhs = pn_y * pn1_x - pn1_y * pn_x
    rhs = (norms.h[n] * norms.k[n + 1] / norms.k[n] * (x - y)
           * cd_kernel(sys, norms, n, x, y, method="sum"))
    return (lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)


def jacobi_matrix(sys: RecurrenceSystem, n: int) -> tuple[np.ndarray,
                                                          np.ndarray]:
    """Diagonal and off-diagonal of the n x n orthonormal-form Jacobi matrix."""
    diag = np.array([b for _, b, _ in sys.table(n - 1)])
    favard = validate_favard(sys, n - 1)
    if favard.failures:
        raise RecurrenceError(f"Favard violation at n={favard.failures[0][0]}")
    return diag, np.sqrt(favard.products)


def zeros(sys: RecurrenceSystem, norms: NormData | None, n: int) -> np.ndarray:
    """Zeros of p_n as eigenvalues of the Jacobi matrix."""
    from scipy import linalg as _sp_linalg

    if n < 1:
        raise KernelError("need n >= 1")
    diag, off = jacobi_matrix(sys, n)
    vals = _sp_linalg.eigh_tridiagonal(diag, off, eigvals_only=True)
    return np.sort(vals)


def gauss_rule(sys: RecurrenceSystem, norms: NormData, m: Measure,
               n: int, tol: float = 1e-12) -> QuadratureRule:
    """n-point Gauss rule: nodes from the Jacobi matrix, weights from the
    first eigenvector components scaled by mu_0 = h_0 / p_0^2.

    mu_0 is taken from `norms` (the squared norm h_0 of the constant p_0),
    not integrated, so `m` and `tol` no longer affect the weights; they are
    kept so that callers need not change.
    """
    from scipy import linalg as _sp_linalg

    if n < 1:
        raise KernelError("need n >= 1")
    diag, off = jacobi_matrix(sys, n)
    vals, vecs = _sp_linalg.eigh_tridiagonal(diag, off)
    order = np.argsort(vals)
    mu0 = norms.h[0] / sys.p0 ** 2
    weights = mu0 * vecs[0, order] ** 2
    return QuadratureRule(nodes=vals[order], weights=weights,
                          exactness_degree=2 * n - 1, source=sys)


def lagrange_weights(nodes: np.ndarray, m: Measure,
                     tol: float = 1e-12) -> np.ndarray:
    """Weights as integrals of the Lagrange basis, an independent cross-check
    of the eigenvector route."""
    nodes = np.asarray(nodes, dtype=float)
    out = np.empty(len(nodes))
    for k in range(len(nodes)):
        others = np.delete(nodes, k)
        denom = np.prod(nodes[k] - others)

        def lk(x, others=others, denom=denom):
            return float(np.prod(x - others) / denom)

        out[k] = integrate(m, lk, tol)
    return out


@dataclass(frozen=True)
class DiscreteSystemReport:
    gram: np.ndarray
    max_offdiag: float
    diag_errors: np.ndarray
    recovered_weights: np.ndarray
    weight_error: float


def finite_discrete_system(rule: QuadratureRule, sys: RecurrenceSystem,
                           norms: NormData, n: int) -> DiscreteSystemReport:
    """Verify that p_0..p_{n-1} are orthogonal on the rule's node set and
    recover the weights from the homogeneous system sum_k w_k p_j(x_k) = 0."""
    if len(rule.nodes) != n:
        raise KernelError(f"rule has {len(rule.nodes)} nodes, expected {n}")
    P = np.array([eval_all(sys, n - 1, x) for x in rule.nodes]).T  # (n, n)
    G = P @ np.diag(rule.weights) @ P.T
    diag_err = np.abs(np.diag(G) - norms.h[:n])
    off = G - np.diag(np.diag(G))
    # weights up to scale: nullspace of the rows j = 1..n-1
    A = P[1:, :]
    _, _, vt = np.linalg.svd(A)
    w = vt[-1]
    if np.all(w <= 0):
        w = -w
    if np.any(w <= 0):
        raise KernelError("rank deficiency or sign-indefinite recovery; "
                          "check for duplicate nodes")
    w *= norms.h[0] / w.sum()
    return DiscreteSystemReport(
        gram=G,
        max_offdiag=float(np.max(np.abs(off))),
        diag_errors=diag_err,
        recovered_weights=w,
        weight_error=float(np.max(np.abs(w - rule.weights))))
