"""Christoffel-Darboux kernels, projections, kernel polynomials, zeros via
the Jacobi matrix, and Gauss quadrature with exactness checks."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .measures import Measure, integrate
from .recurrence import (NormData, RecurrenceError, RecurrenceSystem,
                         convert_form, eval_all, eval_all_derivatives,
                         validate_favard)

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
    """K_n(x,y) = sum_{j<=n} p~_j(x)p~_j(y), or its closed form, on the
    orthonormal chain p~_j = p_j/sqrt(h_j) of `sys`, so that no classical
    normalisation has to fit in a double; past the double range inf or nan,
    without warnings."""
    if method not in ("auto", "sum", "closed"):
        raise KernelError(f"unknown method {method!r}")
    on = convert_form(sys, norms, "orthonormal")
    on.table(n)   # the rows both forms read, grown in one block
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if method == "sum":
            return float(np.dot(eval_all(on, n, x), eval_all(on, n, y)))
        pref = on.coeffs(n)[0]   # sqrt(beta_{n+1}) = k_n / (h_n k_{n+1})
        if abs(x - y) >= _CONFLUENT_SWITCH * (1 + abs(x)):
            pn_x, pn1_x = eval_all(on, n + 1, x)[-2:]
            pn_y, pn1_y = eval_all(on, n + 1, y)[-2:]
            return float(pref * (pn1_x * pn_y - pn_x * pn1_y) / (x - y))
        ps, ds, _ = eval_all_derivatives(on, n + 1, x)
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
    = (h_n k_{n+1}/k_n)(x - y) K_n(x, y), with k_{n+1}/k_n = 1/a_n."""
    pn_x, pn1_x = eval_all(sys, n + 1, x)[-2:]
    pn_y, pn1_y = eval_all(sys, n + 1, y)[-2:]
    lhs = pn_y * pn1_x - pn1_y * pn_x
    rhs = (norms.h[n] / sys.coeffs(n)[0] * (x - y)
           * cd_kernel(sys, norms, n, x, y, method="sum"))
    return (lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)


def jacobi_matrix(sys: RecurrenceSystem, n: int) -> tuple[np.ndarray,
                                                          np.ndarray]:
    """Diagonal and off-diagonal of the n x n orthonormal-form Jacobi matrix."""
    diag = sys.arrays(n - 1)[1]
    favard = validate_favard(sys, n - 1)
    if favard.failures:
        raise RecurrenceError(f"Favard violation at n={favard.failures[0][0]}")
    return diag, np.sqrt(favard.products)


def zeros(sys: RecurrenceSystem, norms: NormData | None, n: int) -> np.ndarray:
    """Zeros of p_n as eigenvalues of the Jacobi matrix, ascending.

    When every diagonal entry b_j is exactly 0 (a symmetric weight) the
    half-size problem is solved instead: the zeros are 0 (n odd) and
    +-sqrt(t_k), with t_k the eigenvalues of the positive definite
    (n // 2)-square matrix C^T C described below, found to high relative
    accuracy by LAPACK dpteqr and mirrored exactly (Legendre n = 1000:
    normwise error 6e-16).  Other matrices take LAPACK dsterf.
    """
    if n < 1:
        raise KernelError("need n >= 1")
    return _eigenvalues(*jacobi_matrix(sys, n))


def gauss_rule(sys: RecurrenceSystem, norms: NormData, m: Measure | None,
               n: int, tol: float = 1e-12) -> QuadratureRule:
    """n-point Gauss rule of the Jacobi matrix, mu_0 = h_0 / p_0^2 taken
    from `norms` (nothing is integrated; `tol` is kept for callers).

    For a continuous or unspecified measure the nodes are those of `zeros`,
    and one vectorised pass of the orthonormal recurrence with derivatives
    at them (the nonnegative ones, mirrored, when b = 0) gives the weights
        w = 1 / (sum_{j<n} p~_j^2 + 2 delta sum_{j<n} p~_j p~_j'),
    Christoffel numbers moved to the exact zeros by the Newton step delta =
    -p~_n / p~_n' (Hale and Townsend, SISC 35, 2013), which removes the n^2
    eps that node rounding costs them.  They keep their relative accuracy
    into the tails; one below the double range is 0, and the rule raises.
    On a lattice measure, where the forward recurrence is unstable, and
    with a RuntimeWarning when those weights miss mu_0 by 100 n eps, the
    weights are mu_0 u_0^2 from the full eigensolve (Golub and Welsch,
    Math. Comp. 23, 1969).
    """
    if n < 1:
        raise KernelError("need n >= 1")
    diag, off = jacobi_matrix(sys, n)
    mu0 = norms.h[0] / sys.p0 ** 2
    if m is not None and m.kind != "continuous":
        nodes, weights = _golub_welsch(diag, off, mu0)
    else:
        nodes = _eigenvalues(diag, off)
        w = _recurrence_weights(diag, off, mu0,
                                nodes if diag.any() else nodes[n // 2:])
        weights = w if diag.any() else np.concatenate((w[::-1][:n // 2], w))
        total = weights.sum()
        if not abs(total - mu0) <= 100 * n * np.finfo(float).eps * mu0:
            warnings.warn(
                f"gauss_rule: recurrence weights sum to {float(total)!r}, not "
                f"mu_0 = {float(mu0)!r}; using Golub-Welsch eigenvectors",
                RuntimeWarning, stacklevel=2)
            nodes, weights = _golub_welsch(diag, off, mu0)
    return QuadratureRule(nodes=nodes, weights=weights,
                          exactness_degree=2 * n - 1, source=sys)


def _golub_welsch(diag: np.ndarray, off: np.ndarray,
                  mu0: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights mu_0 u_0^2 from the full eigensolve."""
    from scipy import linalg as _sp_linalg

    vals, vecs = _sp_linalg.eigh_tridiagonal(diag, off)
    order = np.argsort(vals)
    return vals[order], mu0 * vecs[0, order] ** 2


def _eigenvalues(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Jacobi matrix (diag, off); from the
    half-size problem, mirrored exactly, when diag is 0."""
    from scipy.linalg import lapack

    if not diag.any():
        half = np.sqrt(_half_eigvals(*_half_jacobi(off)))
        return np.concatenate((-half[::-1], [0.0][:len(diag) % 2], half))
    if len(diag) < 2:   # the dsterf wrapper rejects a 1 x 1 matrix
        return diag.copy()
    vals, info = lapack.dsterf(diag, off)
    if info != 0:
        raise KernelError(f"eigensolve failed (dsterf info {info})")
    return vals


def _recurrence_weights(diag: np.ndarray, off: np.ndarray, mu0: float,
                        x: np.ndarray) -> np.ndarray:
    """Newton-corrected Christoffel numbers (see `gauss_rule`) at computed
    zeros x of p_n, from e_j p~_{j+1} = (x - b_j) p~_j - e_{j-1} p~_{j-1}
    scaled by sqrt(mu0) (p~_0 = 1), with p~_n unnormalised (only p~_n / p~_n'
    enters).  A weight whose sums leave the double range is 0."""
    n = len(diag)
    y = np.zeros((2, len(x)))     # (p~_j, p~_j') sqrt(mu0) at x
    y[0] = 1.0
    y_prev, y_next, tmp = np.zeros_like(y), np.empty_like(y), np.empty_like(y)
    sums = y * y[0]               # (sum p~_j^2, sum p~_j p~_j')
    e = off.tolist() + [1.0]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for j, b in enumerate(diag.tolist()):
            np.multiply(y, x - b if b else x, out=y_next)
            y_next[1] += y[0]
            if j:
                y_next -= np.multiply(y_prev, e[j - 1], out=tmp)
            if j < n - 1:
                y_next /= e[j]
                sums += np.multiply(y_next, y_next[0], out=tmp)
            y_prev, y, y_next = y, y_next, y_prev
        w = mu0 / (sums[0] - 2 * y[0] / y[1] * sums[1])
    return np.where(np.isfinite(w) & (w > 0), w, 0.0)


# A Jacobi matrix J with zero diagonal couples even indices only to odd
# ones: J = [[0, C], [C^T, 0]], with C the bidiagonal block whose diagonal
# holds the off-diagonals e_0, e_2, ... of J and whose subdiagonal holds
# e_1, e_3, ....  The eigenvalues of J are 0 (n odd) and +-sqrt(t_k), with
# t_k the eigenvalues of the positive definite m x m matrix C^T C, m = n // 2.
# For n odd it is the Jacobi matrix of r_m, p_n(x) = x r_m(x^2); for n even
# it has the spectrum of that of q_m, p_n(x) = q_m(x^2).

def _half_jacobi(off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of C^T C for the off-diagonals `off` of a
    zero-diagonal Jacobi matrix.  Its entries are sums and products of the
    Favard products e_j^2, so they share their range."""
    e = off if len(off) % 2 == 0 else np.append(off, 0.0)
    even, odd = e[0::2], e[1::2]
    return even * even + odd * odd, odd[:-1] * even[1:]


def _half_eigvals(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Eigenvalues of the positive definite tridiagonal (d, e) in ascending
    order, to high relative accuracy (LAPACK dpteqr)."""
    from scipy.linalg import lapack

    if len(d) < 2:   # the dpteqr wrapper rejects a 1 x 1 matrix
        return d.copy()
    t, _, _, info = lapack.dpteqr(d, e, np.zeros((1, 1)), compute_z=0)
    if info != 0:
        raise KernelError(f"half-size eigensolve failed (dpteqr info {info})")
    return t[::-1]


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
