"""Christoffel-Darboux kernels, projections, kernel polynomials, zeros via
the Jacobi matrix, and Gauss quadrature with exactness checks."""

from __future__ import annotations

import math
import warnings
from typing import TYPE_CHECKING

import numpy as np

from .errors import NumericalFailure
from .recurrence import (NormData, RecurrenceSystem, _keep, _pass, _Record,
                         _rows_to, convert_form, favard_roots)

if TYPE_CHECKING:  # an annotation only: the measures load with their users
    from .measures import Measure

# below this separation the closed form of the kernel cancels; use the
# confluent (derivative) form instead
_CONFLUENT_SWITCH = 1e-6

# Eigenproblems of order k up to this one go to numpy's LAPACK on the dense
# matrix, which spares a cold process the 200-250 ms import of scipy.linalg
# but is slower at every order, and its O(k^3) reduction grows fast beyond;
# ms per warm call for dsterf (dpteqr), median of 21, one Xeon VM core:
#   k       48           64           96           128          200
#   dense   0.16 (0.16)  0.25 (0.24)  0.55 (0.49)  1.0 (0.81)   2.6 (4.1)
#   scipy   0.08 (0.09)  0.14 (0.15)  0.28 (0.32)  0.48 (0.54)  1.1 (1.3)
_DENSE_MAX_ORDER = 96
# extreme_zeros solves n_max problems, not one, so its dense chains stop
# earlier.  Warm, dstebz bisection is the faster from n_max = 32 on, with
# or without the interlacing bracket (Jacobi(0.5, 1.5), ms per call, median
# of 4 processes' medians of 11, one Xeon VM core); the dense chains below
# 49 spare a cold process the import of scipy.linalg:
#   n_max               32     48     64     80     100
#   dense               0.64   1.93   4.07   7.56   13.0
#   bisection           0.42   0.86   1.49   2.25   3.31
#   (without bracket)   0.43   0.96   1.70   2.70   4.12
_CHAIN_DENSE_MAX_ORDER = 48
# the absolute tolerance of its bisection
_BISECT_ABSTOL = 2 * np.finfo(float).tiny
_EPS = np.finfo(float).eps
# off-diagonals of binary exponent up to this one keep the entries of
# _half_jacobi, sums of two squares, in the normal double range
_SQUARE_MAX_EXP = 500


class KernelError(NumericalFailure, ValueError):
    """Invalid kernel or quadrature construction."""


class QuadratureRule(_Record):
    """Gauss rule: nodes at the zeros of p_n, positive weights, exact through
    degree 2n-1."""

    def __init__(self, nodes: np.ndarray, weights: np.ndarray,
                 exactness_degree: int):
        # one pass per property, each counted by np.count_nonzero, a third
        # of the cost of .any() on the short arrays of a rule; a nan compares
        # false, so only the last check sees it, and a rule that fails an
        # earlier one too keeps the text of that one
        nodes = np.asarray(nodes, dtype=float)
        weights = np.asarray(weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "exactness_degree", exactness_degree)
        if nodes.ndim != 1 or weights.ndim != 1:
            raise KernelError("nodes and weights must be 1-D")
        if len(nodes) != len(weights):
            raise KernelError("node/weight count mismatch")
        if np.count_nonzero(nodes[1:] <= nodes[:-1]):
            raise KernelError("nodes must be strictly increasing")
        if np.count_nonzero(weights <= 0):
            raise KernelError("weights must be strictly positive")
        if (np.count_nonzero(np.isfinite(nodes))
                + np.count_nonzero(np.isfinite(weights)) < 2 * len(nodes)):
            raise KernelError("nodes and weights must be finite")

    def apply(self, f) -> float:
        return float(np.dot(self.weights, [f(x) for x in self.nodes]))


def cd_kernel(sys: RecurrenceSystem, norms: NormData, n: int, x, y,
              method: str = "auto") -> float | np.ndarray:
    """K_n(x,y) = sum_{j<=n} p~_j(x)p~_j(y), or its closed form, on the
    orthonormal chain p~_j = p_j/sqrt(h_j) of `sys`, so that no classical
    normalisation has to fit in a double; past the double range inf or nan,
    without warnings.  A float for real scalar x and y; for arrays x and y
    of one shape, an array of the kernel at the pairs (x_i, y_i).  One
    three-slot recurrence pass per form: "sum" over all the x and y, adding
    products in degree order, "auto" with first derivatives over the x and
    y of the closed-form pairs and the x of the confluent ones.  Scalar x
    and y take a Python-float loop by the same steps, so they equal the
    pair in an array call bit for bit.  Complex points raise KernelError."""
    if method not in ("auto", "sum"):
        raise KernelError(f"unknown method {method!r}")
    if np.iscomplexobj(x) or np.iscomplexobj(y):
        raise KernelError("cd_kernel takes real points x and y only")
    on = convert_form(sys, norms, "orthonormal")
    rows = on.table(n)   # the rows both forms read, grown in one block
    scalar = np.ndim(x) == 0 and np.ndim(y) == 0
    if scalar:
        x, y = float(x), float(y)
    else:
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float),
                                   np.asarray(y, dtype=float))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if method == "sum":
            if scalar:   # both chains by the steps of `eval_all`
                xp, xn, yp, yn = 0.0, on.p0 + 0.0 * x, 0.0, on.p0 + 0.0 * y
                total = xn * yn
                for a, b, c in _rows_to(on, n):
                    xp, xn = xn, ((x - b) * xn - c * xp) / a
                    yp, yn = yn, ((y - b) * yn - c * yp) / a
                    total += xn * yn
                return total
            # p~_0(x)p~_0(y) is never -0.0, so 0.0 + it is that product
            m, states = x.size, np.empty((3, 2 * x.size))
            total, tmp = np.zeros((2, m))
            for j in _pass(_rows_to(on, n), on.p0, np.append(x, y), states):
                total += np.multiply(states[j % 3, :m], states[j % 3, m:], tmp)
            return total.reshape(x.shape)
        pref = on.coeffs(n)[0]   # sqrt(beta_{n+1}) = k_n / (h_n k_{n+1})
        if scalar:
            return _cd_float(rows, on.p0, pref, x, y)
        far = np.abs(x - y) >= _CONFLUENT_SWITCH * (1 + np.abs(x))
        k = np.count_nonzero(far)
        at = np.concatenate((x[far], y[far], x[~far]))
        # (p~_j, p~_j') at every point in three slots; j = n + 1 is the last
        states = np.empty((3, 2, at.size))
        for _ in _pass(rows, on.p0, at, states):
            pass
        ps, ds = states[[n % 3, (n + 1) % 3]].swapaxes(0, 1)
        (px, py, pc), dc = np.split(ps, [k, 2 * k], axis=1), ds[:, 2 * k:]
        out = np.empty(x.shape)
        out[far] = pref * (px[1] * py[0] - px[0] * py[1]) / (x[far] - y[far])
        out[~far] = pref * (dc[1] * pc[0] - dc[0] * pc[1])
        return out


def _cd_float(rows: list, p0: float, pref: float, x: float,
              y: float) -> float:
    """`cd_kernel` at floats x and y from the rows 0..n of the orthonormal
    chain: the closed form, by the steps of `eval_all`, or where x and y are
    within _CONFLUENT_SWITCH its confluent limit, by those of
    `recurrence._pass` with order 1, as the array forms take them."""
    if abs(x - y) >= _CONFLUENT_SWITCH * (1 + abs(x)):
        xp, xn, yp, yn = 0.0, p0 + 0.0 * x, 0.0, p0 + 0.0 * y
        for a, b, c in rows:
            xp, xn = xn, ((x - b) * xn - c * xp) / a
            yp, yn = yn, ((y - b) * yn - c * yp) / a
        return pref * (xn * yp - xp * yn) / (x - y)
    p, d, p_prev, d_prev = x * 0.0 + p0, x * 0.0, 0.0, 0.0
    for j, (a, b, c) in enumerate(rows):
        t = x - b if b else x
        v, w = t * p, t * d + p
        if j:
            v, w = v - p_prev * c, w - d_prev * c
        p_prev, d_prev, p, d = p, d, v / a, w / a
    return pref * (d * p_prev - d_prev * p)


def project(sys: RecurrenceSystem, norms: NormData, n: int, f,
            m: Measure, x: float, tol: float = 1e-12) -> float:
    """(Pi_n f)(x), the kernel projection onto degree <= n."""
    from .measures import integrate
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


def jacobi_matrix(sys: RecurrenceSystem, n: int) -> tuple[np.ndarray,
                                                          np.ndarray]:
    """Diagonal and off-diagonal of the n x n orthonormal-form Jacobi matrix."""
    return sys.arrays(n - 1)[1], favard_roots(sys, n - 1)


def zeros(sys: RecurrenceSystem, norms: NormData | None, n: int) -> np.ndarray:
    """Zeros of p_n as eigenvalues of the Jacobi matrix, ascending; a copy of
    those `sys` keeps for order n (see `_spectrum`).

    When every diagonal entry b_j is exactly 0 (a symmetric weight) the
    half-size problem is solved instead: the zeros are 0 (n odd) and
    +-sqrt(t_k), with t_k the eigenvalues of the positive definite
    (n // 2)-square matrix C^T C described below, found to high relative
    accuracy by LAPACK's dqds as in dpteqr and mirrored exactly (Legendre
    n = 1000: normwise error 6e-16).  Other matrices take LAPACK dsterf.
    Problems of order up to `_DENSE_MAX_ORDER` = 96 (n, or n // 2 for the
    half-size one) run these steps through numpy's LAPACK, without
    importing scipy, and give the same bits as scipy's dpteqr and dsterf.
    """
    if n < 1:
        raise KernelError("need n >= 1")
    return _spectrum(sys, n, "nodes").copy()


def extreme_zeros(sys: RecurrenceSystem, n_max: int) -> tuple:
    """Smallest and largest zeros of p_1..p_{n_max} from the leading blocks of
    one Jacobi matrix: the ends of `zeros` while n_max (n_max // 2 when b =
    0) is at most `_CHAIN_DENSE_MAX_ORDER` = 48, Sturm bisection (LAPACK
    dstebz, abstol 2 tiny) beyond.  Copies of the chains `sys` keeps for
    n_max (see `_spectrum`).

    By Cauchy interlacing the largest eigenvalue of the block of order k
    lies at or above that of order k - 1, prev, and every other one at or
    below prev.  So it is first bisected in the bracket (prev + d, prev + d
    + g] only, g twice the last step of the chain and d the bound 8 eps
    (max|b_j| + 2 max e_j) on the error of prev, which keeps the second
    eigenvalue out; the smallest in the mirrored bracket.  Where that
    bracket does not hold exactly one eigenvalue, or is empty in floating
    point, the extreme is bisected from the Gershgorin interval."""
    if n_max < 1:
        raise KernelError("need n >= 1")
    lo, hi = _spectrum(sys, n_max, "extreme")
    return lo.copy(), hi.copy()


def _bisected_chains(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """The (2, n) extreme-zero chains of the Jacobi matrix (diag, off) by
    the bracketed bisection of `extreme_zeros`."""
    from scipy.linalg import lapack

    n_max, mirrored = len(diag), not diag.any()
    # margin[k - 1] bounds the error of an extreme of the block of order k
    margin = (8 * _EPS
              * (np.maximum.accumulate(np.abs(diag))
                 + 2 * np.maximum.accumulate(np.append(0.0, off)))).tolist()

    def bisect(k: int, rng: int, vl: float, vu: float, i: int):
        # range 1 = 'V': eigenvalues in (vl, vu]; 2 = 'I': eigenvalue i
        m, w, _, _, info = lapack.dstebz(diag[:k], off[:k - 1], rng, vl, vu,
                                         i, i, _BISECT_ABSTOL, "E")
        if info != 0:
            raise KernelError(f"eigensolve failed (dstebz info {info})")
        return m, w[0]

    def chain(sign: int) -> np.ndarray:   # +1: largest zeros, -1: smallest
        # order 1 is b_0: the f2py wrapper rejects an empty off-diagonal
        out = [float(diag[0])]
        for k in range(2, n_max + 1):
            if k > 2:
                near = out[-1] + sign * margin[k - 1]
                far = near + sign * 2 * abs(out[-1] - out[-2])
                vl, vu = min(near, far), max(near, far)
                # LAPACK reports vl >= vu as an illegal value on stdout
                if -math.inf < vl < vu < math.inf:
                    m, w = bisect(k, 1, vl, vu, 1)
                    if m == 1:
                        out.append(w)
                        continue
            out.append(bisect(k, 2, 0.0, 0.0, k if sign > 0 else 1)[1])
        return np.array(out)

    hi = chain(+1)
    return np.array((np.append(diag[0], -hi[1:]) if mirrored else chain(-1),
                     hi))


def gauss_rule(sys: RecurrenceSystem, norms: NormData, m: Measure | None,
               n: int, tol: float = 1e-12) -> QuadratureRule:
    """n-point Gauss rule of the Jacobi matrix, mu_0 = h_0 / p_0^2 taken
    from `norms` (nothing is integrated; `tol` is kept for callers).

    For a continuous or unspecified measure the nodes are those of `zeros`,
    and the recurrence pass of `recurrence` on the orthonormal rows, streamed
    at them (the nonnegative ones, mirrored, when b = 0), gives the weights
        w = 1 / (sum_{j<n} p~_j^2 + 2 delta sum_{j<n} p~_j p~_j'),
    Christoffel numbers moved to the exact zeros by the Newton step delta =
    -p~_n / p~_n' (Hale and Townsend, SISC 35, 2013), which removes the n^2
    eps that node rounding costs them.  They keep their relative accuracy
    into the tails; one below the double range is 0, and the rule raises.
    On a lattice measure, where the forward recurrence is unstable, and
    with a RuntimeWarning when those weights miss mu_0 by 100 n eps, the
    weights are mu_0 u_0^2 from the full eigensolve (Golub and Welsch,
    Math. Comp. 23, 1969), by scipy's `eigh_tridiagonal` at every order.
    The nodes, the denominators of those weights for the mass 1 and u_0^2
    are what `sys` keeps for order n (see `_spectrum`); mu_0, the sum check
    and its warning, and the checks of `QuadratureRule` come with each call.
    """
    if n < 1:
        raise KernelError("need n >= 1")
    mu0 = np.exp(norms.log_h[:1])[0] / sys.p0 ** 2   # h_0 alone
    if m is None or m.kind == "continuous":
        nodes, weights = _christoffel_rule(sys, n, mu0)
        total = weights.sum()
        if abs(total - mu0) <= 100 * n * _EPS * mu0:
            return QuadratureRule(nodes=nodes.copy(), weights=weights,
                                  exactness_degree=2 * n - 1)
        warnings.warn(
            f"gauss_rule: recurrence weights sum to {float(total)!r}, not "
            f"mu_0 = {float(mu0)!r}; using Golub-Welsch eigenvectors",
            RuntimeWarning, stacklevel=2)
    nodes, u0_squared = _spectrum(sys, n, "lattice")
    return QuadratureRule(nodes=nodes.copy(), weights=mu0 * u0_squared,
                          exactness_degree=2 * n - 1)


def _christoffel_rule(sys: RecurrenceSystem, n: int,
                      mu0: float) -> tuple[np.ndarray, np.ndarray]:
    """The read-only ascending eigenvalues of the order-n Jacobi matrix of
    `sys` and their Newton-corrected Christoffel weights for the mass mu0
    (see `gauss_rule`); a weight whose sums leave the double range is 0."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        w = mu0 / _spectrum(sys, n, "christoffel")
    return _spectrum(sys, n, "nodes"), np.where(np.isfinite(w) & (w > 0),
                                                w, 0.0)


# Spectral data of a system's Jacobi matrices, kept in its cache per order
# and kind, the least recently used entry dropped past _SPECTRA_KEPT
_SPECTRA_KEPT = 16


def _spectrum(sys: RecurrenceSystem, n: int, kind: str) -> np.ndarray:
    """Read-only spectral data of the order-n Jacobi matrix of `sys`,
    computed on the first call for (n, kind) and then kept in `sys._cache`,
    so that a shared system carries it from call to call:
      "nodes"        ascending eigenvalues (`_eigenvalues`),
      "christoffel"  their unit-mass Christoffel denominators, w = mu_0 / D
                     (`_christoffel_denominators`), at the kept "nodes",
      "lattice"      (2, n): Golub-Welsch nodes and u_0^2 (`_golub_welsch`),
      "extreme"      (2, n): the smallest and largest zeros of the orders
                     1..n (`extreme_zeros`).
    The only caller of those solvers.  Each (n, kind) is one entry of the
    store "spectra" (see `recurrence._keep`), at most 2 n doubles; past
    _SPECTRA_KEPT = 16 entries the least recently used one is dropped."""
    def solve() -> np.ndarray:
        diag, off = jacobi_matrix(sys, n)
        if kind == "nodes":
            value = _eigenvalues(diag, off)
        elif kind == "christoffel":
            value = _christoffel_denominators(diag, off,
                                              _spectrum(sys, n, "nodes"))
        elif kind == "lattice":
            value = np.array(_golub_welsch(diag, off))
        elif (n // 2 if not diag.any() else n) > _CHAIN_DENSE_MAX_ORDER:
            value = _bisected_chains(diag, off)
        else:
            value = np.array([_eigenvalues(diag[:k], off[:k - 1])[[0, -1]]
                              for k in range(1, n + 1)]).T
        value.flags.writeable = False
        return value

    return _keep(sys._cache, "spectra", _SPECTRA_KEPT, (n, kind), solve)


def _christoffel_denominators(diag: np.ndarray, off: np.ndarray,
                              nodes: np.ndarray) -> np.ndarray:
    """Denominators D of the Newton-corrected Christoffel weights mu0 / D
    (see `gauss_rule`) at the ascending eigenvalues `nodes` of the Jacobi
    matrix (diag, off), summed over the states (p~_j, p~_j') of e_j p~_{j+1}
    = (x - b_j) p~_j - e_{j-1} p~_{j-1} with p~_0 = 1 as they come through
    three slots, with p~_n unnormalised (only p~_n / p~_n' enters).  A
    denominator whose sums leave the double range is inf, nan or <= 0."""
    n, e = len(diag), off.tolist()
    half = 0 if diag.any() else n // 2
    sums = np.zeros((2, n - half))   # (sum p~_j^2, sum p~_j p~_j'), j < n
    tmp, states = np.empty_like(sums), np.empty((3,) + sums.shape)
    rows = zip(e + [1.0], diag.tolist(), [0.0] + e)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for j in _pass(rows, 1.0, nodes[half:], states):
            y = states[j % 3]
            if j < n:
                sums += np.multiply(y, y[0], out=tmp)
        den = sums[0] - 2 * y[0] / y[1] * sums[1]
    return np.concatenate((den[::-1][:half], den))


def _golub_welsch(diag: np.ndarray,
                  off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and u_0^2 from the full eigensolve, by scipy's
    `eigh_tridiagonal` (whose default driver for all eigenpairs is LAPACK
    dstevd) at every order: only lattice measures and the mu_0 fallback of
    `gauss_rule` need it."""
    from scipy import linalg as _sp_linalg

    vals, vecs = _sp_linalg.eigh_tridiagonal(diag, off)
    order = np.argsort(vals)
    return vals[order], vecs[0, order] ** 2


def _dense_solve(solver, diag: np.ndarray, lower, upper, **kwargs):
    """`solver`, a numpy.linalg LAPACK driver, on the dense matrix with the
    diagonal `diag` and the sub- and superdiagonals `lower` and `upper`.
    The reduction that the driver starts with (dsytrd, dgebrd) leaves a
    tridiagonal or upper bidiagonal matrix as it is, so the tridiagonal or
    bidiagonal solver behind it gets the entries as given."""
    k = len(diag)
    a = np.zeros((k, k))
    flat = a.reshape(-1)
    flat[::k + 1], flat[k::k + 1], flat[1::k + 1] = diag, lower, upper
    try:
        return solver(a, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise KernelError(f"eigensolve failed ({exc})") from exc


def _eigenvalues(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Jacobi matrix (diag, off); from the
    half-size problem, mirrored exactly, when diag is 0.  Otherwise LAPACK
    dsterf: through numpy's dsyevd up to order `_DENSE_MAX_ORDER` = 96,
    directly (scipy) beyond, with the same result."""
    if not diag.any():
        top = math.frexp(off.max(initial=0.0))[1]
        if abs(top) > _SQUARE_MAX_EXP:
            # the squares of _half_jacobi would leave the normal range: solve
            # the problem scaled by a power of two, which is exact
            scale = math.ldexp(1.0, -top)
            half = np.sqrt(_half_eigvals(*_half_jacobi(off * scale))) / scale
        else:
            half = np.sqrt(_half_eigvals(*_half_jacobi(off)))
        return np.concatenate((-half[::-1], [0.0][:len(diag) % 2], half))
    if len(diag) <= _DENSE_MAX_ORDER:
        return _dense_solve(np.linalg.eigvalsh, diag, off, off)
    from scipy.linalg import lapack

    vals, info = lapack.dsterf(diag, off)
    if info != 0:
        raise KernelError(f"eigensolve failed (dsterf info {info})")
    return vals


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
    order, to high relative accuracy: the squared singular values, by dqds
    (LAPACK dlasq1), of its bidiagonal Cholesky factor.  Up to order
    `_DENSE_MAX_ORDER` = 96 the factor is formed here as LAPACK dpttrf and
    dpteqr form it, and numpy's dgesdd takes it to the same dlasq1 call;
    beyond, scipy's dpteqr does all of it."""
    if len(d) < 2:   # the dpteqr wrapper rejects a 1 x 1 matrix
        return d.copy()
    if len(d) <= _DENSE_MAX_ORDER:
        # L D L^T (dpttrf), then the upper bidiagonal sqrt(D) (I + L^T)
        piv, mult = d.tolist(), e.tolist()
        for i, ei in enumerate(mult):
            if not piv[i] > 0:
                break
            mult[i] = ei / piv[i]
            piv[i + 1] -= mult[i] * ei
        if not all(p > 0 for p in piv):
            raise KernelError("half-size eigensolve failed (the matrix is "
                              "not positive definite)")
        root = np.sqrt(piv)
        s = _dense_solve(np.linalg.svd, root, 0.0,
                         np.array(mult) * root[:-1], compute_uv=False)
        return (s * s)[::-1]
    from scipy.linalg import lapack

    t, _, _, info = lapack.dpteqr(d, e, np.zeros((1, 1)), compute_z=0)
    if info != 0:
        raise KernelError(f"half-size eigensolve failed (dpteqr info {info})")
    return t[::-1]


def lagrange_weights(nodes: np.ndarray, m: Measure,
                     tol: float = 1e-12) -> np.ndarray:
    """Weights as integrals of the Lagrange basis, an independent cross-check
    of the eigenvector route."""
    from .measures import integrate
    nodes = np.asarray(nodes, dtype=float)
    out = np.empty(len(nodes))
    for k in range(len(nodes)):
        others = np.delete(nodes, k)
        denom = np.prod(nodes[k] - others)

        def lk(x, others=others, denom=denom):
            return float(np.prod(x - others) / denom)

        out[k] = integrate(m, lk, tol)
    return out
