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

# an outer Gauss weight takes its eigenvector value only where it agrees
# with the Christoffel number to this relative distance: well above the
# Christoffel number's node-rounding error (about n^2 eps, 4e-11 at
# n = 1000) and far below the error of an eigenvector component lost
# beneath inverse iteration's resolution (order 1 and more, as in the tails
# of Hermite weights from n = 120)
_WEIGHT_AGREEMENT = 2.0 ** -26


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
    # k_n / (h_n k_{n+1}) = a_n / h_n, without the product that overflows
    pref = sys.coeffs(n)[0] / norms.h[n]
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
    diag = np.array([b for _, b, _ in sys.table(n - 1)])
    favard = validate_favard(sys, n - 1)
    if favard.failures:
        raise RecurrenceError(f"Favard violation at n={favard.failures[0][0]}")
    return diag, np.sqrt(favard.products)


def zeros(sys: RecurrenceSystem, norms: NormData | None, n: int) -> np.ndarray:
    """Zeros of p_n as eigenvalues of the Jacobi matrix.

    When every diagonal entry b_j is exactly 0 (a symmetric weight) the
    half-size problem is solved instead: the zeros are 0 (n odd) and
    +-sqrt(t_k), with t_k the eigenvalues of the positive definite
    (n // 2)-square matrix C^T C described below, found to high relative
    accuracy by LAPACK dpteqr and mirrored exactly.  At n = 1000 this is
    over three times faster than the full eigensolve, with a normwise error
    of 6e-16 against 1.8e-15 (Legendre).  Any other matrix is eigensolved
    in full.
    """
    from scipy import linalg as _sp_linalg

    if n < 1:
        raise KernelError("need n >= 1")
    diag, off = jacobi_matrix(sys, n)
    if not diag.any():
        return _mirror(np.sqrt(_half_eigvals(*_half_jacobi(off))), 0.0, n,
                       -1.0)
    vals = _sp_linalg.eigh_tridiagonal(diag, off, eigvals_only=True)
    return np.sort(vals)


def gauss_rule(sys: RecurrenceSystem, norms: NormData, m: Measure,
               n: int, tol: float = 1e-12) -> QuadratureRule:
    """n-point Gauss rule: nodes from the Jacobi matrix, weights from the
    first eigenvector components scaled by mu_0 = h_0 / p_0^2 (Golub and
    Welsch, Math. Comp. 23, 1969).

    When every diagonal entry b_j is exactly 0 the rule is built from the
    half-size problem, on the nodes of `zeros`, and mirrored exactly:
    - every weight starts as the Christoffel number 1/sum_{j<n} p~_j(x_k)^2
      of the orthonormal chain, from one vectorised pass over the
      nonnegative nodes;
    - the outer half of the nodes by index then take mu_0 u_0^2 / 2, with u_0
      from the eigenvector of the half-size matrix at t_k (inverse iteration,
      LAPACK dstein), wherever that value agrees with the Christoffel number
      to `_WEIGHT_AGREEMENT`.
    Eigenvectors lose digits at the central nodes, where the t_k crowd
    together, and where a component falls far below the largest (the tails
    of Hermite weights); the Christoffel number loses them at outer nodes
    whose rounding it is sensitive to (n^2 eps relative at the ends of
    Chebyshev T).  At n = 1000 the rule is three times faster than the full
    eigensolve, and its weights are within 1e-14 of Legendre's where the
    full route was 9.5e-14 off.

    mu_0 is taken from `norms` (the squared norm h_0 of the constant p_0),
    not integrated, so `m` and `tol` no longer affect the weights; they are
    kept so that callers need not change.
    """
    from scipy import linalg as _sp_linalg

    if n < 1:
        raise KernelError("need n >= 1")
    diag, off = jacobi_matrix(sys, n)
    mu0 = norms.h[0] / sys.p0 ** 2
    if not diag.any():
        nodes, weights = _symmetric_rule(off, mu0)
    else:
        vals, vecs = _sp_linalg.eigh_tridiagonal(diag, off)
        order = np.argsort(vals)
        nodes, weights = vals[order], mu0 * vecs[0, order] ** 2
    return QuadratureRule(nodes=nodes, weights=weights,
                          exactness_degree=2 * n - 1, source=sys)


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


def _first_components(d: np.ndarray, e: np.ndarray,
                      t: np.ndarray) -> np.ndarray:
    """First components of the unit eigenvectors of the tridiagonal (d, e)
    at its eigenvalues t (ascending), by inverse iteration (LAPACK dstein)."""
    from scipy.linalg import lapack

    m = len(d)
    if m == 1:
        return np.ones(1)
    # one block: every eigenvalue belongs to block 1, which ends at row m
    z, info = lapack.dstein(d, e, t, np.ones(m, dtype=np.intc),
                            np.full(m, m, dtype=np.intc))
    if info != 0:
        raise KernelError(f"half-size eigenvectors failed (dstein info {info})")
    return z[0, :len(t)]


def _mirror(half: np.ndarray, centre: float, n: int,
            sign: float = 1.0) -> np.ndarray:
    """The n values sign * half[::-1], centre (n odd only), half."""
    return np.concatenate((sign * half[::-1], [centre][:n % 2], half))


def _symmetric_rule(off: np.ndarray,
                    mu0: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss rule of a zero-diagonal Jacobi matrix
    from its half-size problem (see `gauss_rule`)."""
    n = len(off) + 1
    d, e = _half_jacobi(off)
    t = _half_eigvals(d, e)
    pos = np.sqrt(t)
    outer = len(t) // 2   # pos[outer:] are the outer nodes
    lam = _christoffel(off, mu0, np.concatenate(([0.0][:n % 2], pos)))
    w = lam[n % 2:]
    if len(t):
        # the unit eigenvector of J at +-sqrt(t_k) is (u, +-v)/sqrt(2), with
        # v that of C^T C and u = C v / sqrt(t_k), so u_0 = e_0 v_0 / sqrt(t_k)
        v0 = _first_components(d, e, t[outer:])
        w_vec = mu0 / 2 * (off[0] * v0 / pos[outer:]) ** 2
        agree = np.abs(w_vec - w[outer:]) <= _WEIGHT_AGREEMENT * w[outer:]
        w[outer:] = np.where(agree, w_vec, w[outer:])
    return (_mirror(pos, 0.0, n, -1.0),
            _mirror(w, lam[0] if n % 2 else 0.0, n))


def _christoffel(off: np.ndarray, mu0: float, x: np.ndarray) -> np.ndarray:
    """Christoffel numbers 1/sum_{j<n} p~_j(x)^2 at the points x, for the
    orthonormal chain x p~_j = e_j p~_{j+1} + e_{j-1} p~_{j-1}, p~_0 =
    mu0^-1/2, of the zero-diagonal Jacobi matrix with off-diagonals e.
    A sum that overflows gives 0, the weight having underflowed."""
    p = np.empty((len(off) + 1, len(x)))
    p[0] = 1.0 / np.sqrt(mu0)
    prev, e_prev = np.zeros_like(x), 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for j, e in enumerate(off.tolist()):
            row = p[j + 1]
            np.multiply(x, p[j], out=row)
            row -= e_prev * prev
            row /= e
            prev, e_prev = p[j], e
        total = np.einsum("ij,ij->j", p, p)
    return np.where(np.isfinite(total), 1.0 / total, 0.0)


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
