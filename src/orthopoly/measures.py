"""Orthogonality measures: inner products, moments, Hankel minors, and the
recurrence of a measure by discretized Lanczos, all on one discretization
of the measure."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import NumericalFailure
from .recurrence import (NormData, RecurrenceError, RecurrenceSystem, _keep,
                         from_tables, norms_from_recurrence)

DEFAULT_TOL = 1e-12
# Sizes of the discretizations that integrate sums over, and the largest
# one of a continuous measure that recurrence_from_measure tries.
_FIRST_POINTS, _MAX_POINTS, _MAX_DISCRETE_TERMS = 16, 2048, 2 ** 18
# What a measure keeps in `_cache` (see `recurrence._keep`): its
# discretizations by size, and the settled results of
# recurrence_from_measure by (n_max, tol), the least recently used of each
# dropped past these bounds
_POINTS_KEPT, _RESULTS_KEPT = 16, 8


class IntegrationError(NumericalFailure):
    """Integral or lattice sum did not settle within its largest
    discretization, as for an integrand singular inside the support."""


@dataclass(frozen=True)
class Measure:
    """Positive measure driving inner products and moments.

    kind is one of "continuous", "discrete_finite", "discrete_infinite".
    For continuous measures with an endpoint-singular algebraic factor,
    `alg_exponents` holds (left, right) exponents, which the Gauss rule of
    the discretization absorbs; `weight` is always the full weight,
    `alg_smooth` its regular part; an exponent must exceed -1.  Every
    integral is a sum over a discretization (`_discretize`).

    A measure keeps in `_cache`, each store bounded and the least recently
    used entry dropped first (see `recurrence._keep`):
      - its last 16 discretizations, two arrays of K doubles each: K <= 2048
        on a continuous measure (at most 0.52 MB), and on a lattice up to
        2^18 points for `integrate` (at most 8.4 MB);
      - its last 8 settled results of `recurrence_from_measure`, about 160
        bytes per row once the system's rows are read, so at most 1.3 MB at
        n_max <= 1023, the most a continuous or lattice measure can settle
        (a finite measure on N points: 8 x 160 N bytes).
    What a caller grows on a kept system (its orthonormal rows, spectra) is
    bounded by the system's own stores, and so are the eigenvalues and
    Christoffel denominators of a continuous measure's reference rules,
    which the shared reference systems keep (`families.shared_system`).
    """

    kind: str
    weight: Callable[[float], float] | None = None
    support: tuple[float, float] | None = None
    nodes: np.ndarray | None = None
    node_weights: np.ndarray | None = None
    weight_fn: Callable[[int], float] | None = None
    tail_bound: Callable[[int], float] | None = None
    normalizer: float = 1.0
    alg_exponents: tuple[float, float] | None = None
    alg_smooth: Callable[[float], float] | None = None
    _cache: dict = field(default_factory=dict, init=False, compare=False,
                         repr=False)

    @property
    def n_points(self) -> int | None:
        """Distinct support points of a finite measure, None otherwise."""
        if self.kind != "discrete_finite":
            return None
        # sort and compare, as np.unique does (every nan one point), without
        # the import of numpy.ma that np.unique costs a cold process
        nan = np.isnan(self.nodes)
        x = np.sort(self.nodes[~nan])
        return (int(x.size and 1 + np.count_nonzero(x[1:] != x[:-1]))
                + bool(nan.any()))


def continuous_measure(weight, support, normalizer=1.0, alg_exponents=None,
                       alg_smooth=None) -> Measure:
    a, b = float(support[0]), float(support[1])
    if not a < b:
        raise ValueError("support interval must be nondegenerate")
    return Measure(kind="continuous", weight=weight, support=(a, b),
                   normalizer=float(normalizer), alg_exponents=alg_exponents,
                   alg_smooth=alg_smooth)


def discrete_measure(nodes, weights, normalizer=1.0) -> Measure:
    nodes = np.asarray(nodes, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if nodes.shape != weights.shape:
        raise ValueError("nodes and weights must have equal length")
    if np.any(weights <= 0):
        raise ValueError("discrete weights must be positive")
    return Measure(kind="discrete_finite", nodes=nodes, node_weights=weights,
                   normalizer=float(normalizer))


def discrete_infinite_measure(weight_fn, tail_bound,
                              normalizer=1.0) -> Measure:
    """Weights weight_fn(k) on the lattice 0, 1, 2, ...; tail_bound(k)
    bounds the sum of the weights past k."""
    return Measure(kind="discrete_infinite", weight_fn=weight_fn,
                   tail_bound=tail_bound, normalizer=float(normalizer))


def integrate(m: Measure, f: Callable[[float], float],
              tol: float = DEFAULT_TOL) -> float:
    """Integrate f against the measure as a sum of f over `_discretize(m,
    K)`; a finite measure is summed as it is.

    K starts at _FIRST_POINTS and doubles.  On a continuous measure the sum
    stops when two successive sums agree to `tol` relative to the sum of
    w_k |f(x_k)|; the rule is Gauss, so exact for a polynomial of degree
    < 2K.  On an infinite lattice it stops once `tail_bound` times the
    largest |f| at the last four points is below tol / 10.  IntegrationError
    when K would pass _MAX_POINTS (lattice: _MAX_DISCRETE_TERMS).
    """
    if m.kind == "discrete_finite":
        return m.normalizer * float(np.dot(m.node_weights,
                                           [f(x) for x in m.nodes]))
    lattice = m.kind == "discrete_infinite"
    size, last = _FIRST_POINTS, None
    while size <= (_MAX_DISCRETE_TERMS if lattice else _MAX_POINTS):
        x, w = _discretize(m, size)
        fx = _values(f, x)
        total = float(w @ fx)
        if lattice:
            if (m.tail_bound(size - 1) * (1.0 + 10.0 * np.abs(fx[-4:]).max())
                    < 0.1 * tol):
                return total
        elif last is not None and abs(total - last) <= tol * (w @ np.abs(fx)):
            return total
        last, size = total, 2 * size
    raise IntegrationError(f"integral did not settle to tolerance {tol} "
                           f"within {size // 2} points")


def inner_product(f, g, m: Measure, tol: float = DEFAULT_TOL) -> float:
    """<f, g> with respect to the measure."""
    return integrate(m, lambda x: f(x) * g(x), tol)


@dataclass(frozen=True)
class MomentSequence:
    mu: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mu", np.asarray(self.mu, dtype=float))
        if len(self.mu) and self.mu[0] <= 0:
            raise ValueError("mu_0 must be positive")


def moments(m: Measure, n_max: int, tol: float = DEFAULT_TOL) -> MomentSequence:
    """Moments mu_k = <x^k, 1> for k = 0..n_max."""
    mu = np.array([integrate(m, lambda x, k=k: x ** k, tol)
                   for k in range(n_max + 1)])
    return MomentSequence(mu=mu)


class HankelReport(NamedTuple):
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
    """Monic recurrence coefficients by discretized Lanczos, settled once
    per (n_max, tol): the result is kept in `m._cache` under exactly that
    key, among the measure's last 8 (see `Measure` for their bytes), and a
    repeat call returns the same system and norms.  A longer result never
    serves a shorter call, so what a call returns does not depend on the
    calls before it; a call that raises keeps nothing, and its repeat
    raises again.

    The measure is replaced by the K-point discretization that `integrate`
    sums over.  Lanczos on diag(nodes), each step fully reorthogonalised by
    two classical Gram-Schmidt passes, gives b_n and c_n = beta_n^2
    (Gautschi, Orthogonal Polynomials: Computation and Approximation, 2004,
    section 2.2; Gragg & Harrod 1984).  K starts at n_max + 1 and doubles
    until every b_n and sqrt(c_n) changes by at most `tol` relative to
    |b_n| + sqrt(c_n) + sqrt(c_{n+1}).  A finite measure is used as it is.

    Raises RecurrenceError when K would exceed _MAX_POINTS.  So a weight
    with an endpoint singularity that `alg_exponents` does not declare, or
    whose decay does not fit the Laguerre or Hermite rule, fails instead of
    giving drifted coefficients, and so does a `tol` at the rounding level.
    A measure on N points has no polynomial of degree N: n_max >= N raises.
    """
    return _keep(m._cache, "recurrence", _RESULTS_KEPT, (n_max, tol),
                 lambda: _settled_recurrence(m, n_max, tol))


def _settled_recurrence(m: Measure, n_max: int, tol: float
                        ) -> tuple[RecurrenceSystem, NormData]:
    """What `recurrence_from_measure` computes on a miss."""
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
    """Read-only nodes and weights of a size-point discrete stand-in for the
    measure, kept in `m._cache` for the last 16 sizes: the first `size`
    points of a lattice, or the Gauss rule of a reference weight times the
    rest of the weight.  The reference weight is Jacobi with the declared
    `alg_exponents` on an interval, generalized Laguerre with the exponent
    at the finite end on a half line, Hermite on the line.  Its rule is
    `kernels.gauss_rule`'s eigenvalues and Christoffel weights (0 below the
    double range) of the family's shared monic system
    (`families.family_monic_system`, which keeps them with its spectra) for
    the mass `families.family_mu0`; an exponent <= -1, not integrable,
    raises the family's FamilyError."""
    return _keep(m._cache, "points", _POINTS_KEPT, size,
                 lambda: _discretization(m, size))


def _discretization(m: Measure, size: int) -> tuple[np.ndarray, np.ndarray]:
    """What `_discretize` builds on a miss."""
    if m.kind == "discrete_infinite":
        x = np.arange(size, dtype=float)
        w = np.array([m.weight_fn(k) for k in range(size)], dtype=float)
    else:
        from .families import (family_monic_system, family_mu0, hermite,
                               jacobi, laguerre)
        from .kernels import _christoffel_rule

        def rule(spec, mass_spec=None):
            return _christoffel_rule(family_monic_system(spec), size,
                                     family_mu0(mass_spec or spec))

        a, b = m.support
        if m.alg_exponents is None:
            (left, right), rest = (0.0, 0.0), m.weight
        else:
            (left, right), rest = (m.alg_exponents,
                                   m.alg_smooth or (lambda x: 1.0))
        if math.isinf(a) and math.isinf(b):
            x, w = rule(hermite())
            ratio = _times_exp(_values(m.weight, x), x * x)
        elif math.isinf(a) or math.isinf(b):
            # x = end + sign t, t >= 0, with the exponent at the finite end
            sign, end, expo = ((1.0, a, left) if math.isinf(b)
                               else (-1.0, b, right))
            t, w = rule(laguerre(expo))
            x = end + sign * t
            ratio = _times_exp(_values(rest, x), t)
        else:
            # (x - a)^l (b - x)^r is ((b - a)/2)^(l + r) (1 + t)^l (1 - t)^r;
            # the mass is symmetric in (l, r) but rounds differently in the
            # other order: it is that of jacobi(l, r)
            half = (b - a) / 2
            t, w = rule(jacobi(right, left), jacobi(left, right))
            x = a + half * (1.0 + t)
            ratio = half ** (left + right + 1) * _values(rest, x)
        w = np.where(w == 0, 0.0, w * ratio)
    w *= m.normalizer
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _values(f: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    return np.array([f(float(t)) for t in x], dtype=float)


def _times_exp(v: np.ndarray, t: np.ndarray) -> np.ndarray:
    """v e^t, in log form where e^t leaves the double range."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(t < 700.0, v * np.exp(np.minimum(t, 700.0)),
                        np.exp(np.log(v) + t))


def _lanczos(x: np.ndarray, w: np.ndarray, n_max: int):
    """(points, mass, b_0..b_n, beta_0..beta_{n+1}) of the discrete measure
    sum_k w_k delta(x_k), by Lanczos on diag(x); beta_0 = 0 and beta_n =
    sqrt(c_n).  Step j orthogonalises x q_j against q_0..q_j by classical
    Gram-Schmidt twice (twice is enough: Parlett, The Symmetric Eigenvalue
    Problem, 1980, section 6-9); the first pass also gives b_j and takes
    the place of the three-term subtraction.

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
        # the first pass holds the Lanczos projections: b_j, and beta_j on
        # q_{j-1}
        h = Q[:j + 1] @ v
        b[j] = h[j]
        v -= h @ Q[:j + 1]
        v -= (Q[:j + 1] @ v) @ Q[:j + 1]
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
