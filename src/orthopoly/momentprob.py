"""Hamburger moment problem diagnostics: numerator polynomials, continued
fractions, the Markov approximation of the Stieltjes transform, Carleman
partial sums, rho(z), truncated Nevanlinna functions, the true interval of
orthogonality, support bounds, and the Stieltjes-Wigert non-uniqueness
demonstration."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import NumericalFailure
from .kernels import extreme_zeros as _extreme_zeros
from .recurrence import RecurrenceSystem, eval_all, eval_poly

if TYPE_CHECKING:  # annotations only: the measures load with their users
    from .measures import Measure, MomentSequence


# rho's cap on sum |p_n(z)|^2; lognormal_discrete_moment's terms per side
_RHO_CAP, _K_HALFWIDTH = 1e60, 60


class MomentProblemError(NumericalFailure):
    """Diagnostic could not be computed."""


# ---------------------------------------------------------------------------
# numerator polynomials and continued fractions

def numerator_polys(sys: RecurrenceSystem) -> RecurrenceSystem:
    """First associated system p_n^{(1)}: coefficients shifted by one index."""
    if sys.form not in ("monic", "orthonormal"):
        raise MomentProblemError(
            "numerator polynomials need a monic or orthonormal system")

    def rows(j: np.ndarray) -> tuple:
        a, b, c = sys.arrays(j[-1] + 1)
        if sys.form == "monic":
            return 1.0, b[j + 1], np.where(j > 0, c[j + 1], 0.0)
        return a[j + 1], b[j + 1], np.where(j > 0, a[j], 0.0)

    hint = sys.max_index_hint
    return RecurrenceSystem(rows_fn=rows, form=sys.form, p0=1.0,
                            max_index_hint=None if hint is None else hint - 1)


def stieltjes_identity_residual(sys: RecurrenceSystem, m: Measure, n: int,
                                y: float, tol: float = 1e-12) -> float:
    """Residual of p_{n-1}^{(1)}(y) = (1/mu_0) int (p_n(y)-p_n(x))/(y-x) dmu."""
    from .measures import integrate
    if sys.form != "monic":
        raise MomentProblemError("identity stated for monic systems")
    mu0 = integrate(m, lambda x: 1.0, tol)
    pny = eval_poly(sys, n, y)
    rhs = integrate(m, lambda x: (pny - eval_poly(sys, n, x)) / (y - x),
                    tol) / mu0
    lhs = eval_poly(numerator_polys(sys), n - 1, y)
    return (lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)


def continued_fraction(sys: RecurrenceSystem, n: int, z):
    """F_n(z) = p^{(1)}_{n-1}(z) / p_n(z), the n-th convergent of the
    continued fraction attached to a monic system, summed bottom-up."""
    if sys.form != "monic":
        raise MomentProblemError("continued fraction needs a monic system")
    if n < 1:
        raise MomentProblemError("need n >= 1")
    rows = sys.table(n - 1)
    t = z - rows[n - 1][1]
    for j in range(n - 2, -1, -1):
        if t == 0:
            raise MomentProblemError(f"pole in continued fraction at {z}")
        t = z - rows[j][1] - rows[j + 1][2] / t
    if t == 0:
        raise MomentProblemError(f"pole in continued fraction at {z}")
    return 1.0 / t


class MarkovReport(NamedTuple):
    schedule: tuple[int, ...]
    values: tuple
    oracle: complex
    errors: tuple[float, ...]
    cauchy_gaps: tuple[float, ...]
    converged: bool


def markov_transform(sys: RecurrenceSystem, m: Measure, z,
                     n_schedule, tol: float = 1e-12) -> MarkovReport:
    """F_n(z) along a schedule versus (1/mu_0) int dmu/(z-x) by quadrature."""
    from .measures import integrate
    schedule = tuple(int(n) for n in n_schedule)
    mu0 = integrate(m, lambda x: 1.0, tol)
    if isinstance(z, complex):
        oracle = (integrate(m, lambda x: ((z - x).real) / abs(z - x) ** 2, tol)
                  + 1j * integrate(m, lambda x: (-(z - x).imag)
                                   / abs(z - x) ** 2, tol)) / mu0
    else:
        oracle = integrate(m, lambda x: 1.0 / (z - x), tol) / mu0
    values = tuple(continued_fraction(sys, n, z) for n in schedule)
    errors = tuple(abs(v - oracle) for v in values)
    gaps = tuple(abs(values[i + 1] - values[i]) for i in range(len(values) - 1))
    converged = (len(gaps) == 0 or gaps[-1] < 1e-9) and errors[-1] < 1e-7
    return MarkovReport(schedule=schedule, values=values, oracle=oracle,
                        errors=errors, cauchy_gaps=gaps, converged=converged)


# ---------------------------------------------------------------------------
# Carleman partial sums

class CarlemanReport(NamedTuple):
    n_marks: np.ndarray
    partial_sums: np.ndarray
    exponent: float
    verdict: str  # diverges | converges | inconclusive


def carleman(terms) -> CarlemanReport:
    """Partial sums S_N of the array t_1..t_N, summed in order by np.cumsum,
    with a fitted log-log growth exponent; exponent > 0.05 reads as
    divergence, a flat Cauchy tail as convergence, else inconclusive."""
    terms = np.asarray(terms, dtype=float)
    if len(terms) < 10:
        raise MomentProblemError("need at least 10 terms")
    negative = np.flatnonzero(terms < 0)
    if negative.size:
        raise MomentProblemError(f"negative term at n={negative[0] + 1}")
    # the distinct marks of the ascending rounded logspace; np.unique would
    # import numpy.ma
    marks = np.round(np.logspace(0, math.log10(len(terms)), 80))
    marks = marks[np.append(True, marks[1:] != marks[:-1])].astype(int)
    partial = np.cumsum(terms)
    sums, total = partial[marks - 1], partial[-1]
    window = marks >= max(marks[-1] / 100.0, 1.0)
    logn = np.log(marks[window].astype(float))
    logs = np.log(np.maximum(sums[window], 1e-300))
    exponent = float(np.polyfit(logn, logs, 1)[0])
    if exponent > 0.05:
        verdict = "diverges"
    else:
        half = sums[np.searchsorted(marks, marks[-1] // 2)]
        verdict = ("converges"
                   if (total - half) <= 1e-6 * max(total, 1e-300)
                   else "inconclusive")
    return CarlemanReport(n_marks=marks, partial_sums=sums,
                          exponent=exponent, verdict=verdict)


def carleman_moment_terms(ms: MomentSequence, n_max: int) -> np.ndarray:
    """Terms mu_{2n}^{-1/(2n)}, n = 1..n_max, of a stored moment sequence."""
    mu = ms.mu
    for n in range(1, n_max + 1):
        if 2 * n >= len(mu):
            raise MomentProblemError(f"moment index {2 * n} unavailable")
        if mu[2 * n] <= 0:
            raise MomentProblemError("even moment must be positive")
    return np.array([mu[2 * n] ** (-1.0 / (2 * n))
                     for n in range(1, n_max + 1)])


# ---------------------------------------------------------------------------
# rho(z) and Nevanlinna truncations

class RhoReport(NamedTuple):
    partials: np.ndarray
    rho: float
    verdict: str


def rho(sys: RecurrenceSystem, z, n_max: int) -> RhoReport:
    """Truncations of (sum |p_n(z)|^2)^{-1} for an orthonormal system."""
    if sys.form != "orthonormal":
        raise MomentProblemError("rho needs an orthonormal system")
    if n_max < 1:
        raise MomentProblemError(f"rho needs n_max >= 1, got {n_max}")
    with np.errstate(over="ignore"):
        sq = np.abs(np.array(eval_all(sys, n_max, z))) ** 2
        partials = np.cumsum(sq)
    total = partials[-1]
    if total > _RHO_CAP:
        return RhoReport(partials=partials, rho=0.0, verdict="diverges")
    # geometric-tail estimate from block sums of the last increments; blocks
    # smooth over the sign-pattern oscillation of p_n(z) at real z
    block = max(min(10, (n_max + 1) // 4), 1)
    tail_inc = float(sq[-block:].sum())
    prev_inc = float(sq[-2 * block:-block].sum())   # 2 block <= n_max + 1
    if prev_inc > 0 and tail_inc / prev_inc < 0.95:
        r = tail_inc / prev_inc
        est = total + tail_inc * r / (1 - r)
        return RhoReport(partials=partials, rho=float(1.0 / est),
                         verdict="converges")
    # slope of log S vs log N over the top two decades
    ns = np.arange(1, n_max + 2)
    window = ns >= max((n_max + 1) / 100.0, 1.0)
    slope = float(np.polyfit(np.log(ns[window]),
                             np.log(np.maximum(partials[window], 1e-300)),
                             1)[0])
    if slope > 0.05:
        return RhoReport(partials=partials, rho=0.0, verdict="diverges")
    return RhoReport(partials=partials, rho=float(1.0 / total),
                     verdict="inconclusive")


class NevanlinnaReport(NamedTuple):
    A: complex
    B: complex
    C: complex
    D: complex
    last_terms: dict
    wronskian: complex  # A D - B C, reported, not asserted


def nevanlinna_ABCD(sys: RecurrenceSystem, z, N: int) -> NevanlinnaReport:
    """Truncations of the Nevanlinna entire functions at order N."""
    if sys.form != "orthonormal":
        raise MomentProblemError("Nevanlinna functions need an orthonormal "
                                 "system")
    assoc = numerator_polys(sys)
    p0_vals, pz_vals, q0_vals, qz_vals = (
        eval_all(s, N, t) for s in (sys, assoc) for t in (0.0, z))
    A = z * sum(q0_vals[n] * qz_vals[n] for n in range(N + 1))
    B = -1.0 + z * sum(q0_vals[n - 1] * pz_vals[n] for n in range(1, N + 1))
    C = 1.0 + z * sum(p0_vals[n] * qz_vals[n - 1] for n in range(1, N + 1))
    D = z * sum(p0_vals[n] * pz_vals[n] for n in range(N + 1))
    last = {
        "A": abs(z * q0_vals[N] * qz_vals[N]),
        "B": abs(z * q0_vals[N - 1] * pz_vals[N]) if N >= 1 else 0.0,
        "C": abs(z * p0_vals[N] * qz_vals[N - 1]) if N >= 1 else 0.0,
        "D": abs(z * p0_vals[N] * pz_vals[N]),
    }
    return NevanlinnaReport(A=A, B=B, C=C, D=D, last_terms=last,
                            wronskian=A * D - B * C)


# ---------------------------------------------------------------------------
# true interval of orthogonality and support bounds

class TrueIntervalEstimate(NamedTuple):
    degrees: np.ndarray
    xi1_sequence: np.ndarray   # smallest zero per degree, nonincreasing
    eta1_sequence: np.ndarray  # largest zero per degree, nondecreasing
    limits: tuple[float, float]
    chains_monotone: bool


def _extrapolate_edge(seq: np.ndarray, direction: float) -> float:
    """Aitken-style limit of a monotone sequence, with a divergence guard."""
    if len(seq) < 4:
        return float(seq[-1])
    d1 = seq[-2] - seq[-3]
    d2 = seq[-1] - seq[-2]
    if abs(d2) < 1e-13:
        return float(seq[-1])
    if abs(d2) >= 0.9 * abs(d1):
        # increments are not contracting: treat the edge as escaping when it
        # has kept growing across the computed range
        mid = seq[len(seq) // 2]
        if abs(seq[-1]) > 1.2 * abs(mid) + 0.5:
            return direction * math.inf
        return float(seq[-1])
    r = d2 / d1
    return float(seq[-1] + d2 * r / (1 - r))


def true_interval(sys: RecurrenceSystem, n_max: int) -> TrueIntervalEstimate:
    """Extreme-zero chains of degrees 1..n_max, read from one Jacobi matrix by
    `kernels.extreme_zeros`, and their extrapolated limits."""
    lo, hi = _extreme_zeros(sys, n_max)
    mono = bool(np.all(np.diff(lo) <= 1e-13) and np.all(np.diff(hi) >= -1e-13))
    limits = (_extrapolate_edge(lo, -1.0), _extrapolate_edge(hi, +1.0))
    return TrueIntervalEstimate(degrees=np.arange(1, n_max + 1),
                                xi1_sequence=lo, eta1_sequence=hi,
                                limits=limits, chains_monotone=mono)


class SupportClassification(NamedTuple):
    kind: str  # bounded | unbounded
    interval: tuple[float, float]
    b_limit: float | None = None
    c_limit: float | None = None


def support_bound_criteria(sys: RecurrenceSystem,
                           n_max: int) -> SupportClassification:
    """Classify the support from the monic coefficient tails: convergent
    b_n -> b, c_n -> c gives [b - 2 sqrt(c), b + 2 sqrt(c)]."""
    if sys.form != "monic":
        raise MomentProblemError("support criteria stated for monic systems")
    ns = np.arange(1, n_max + 1)
    _, b, c = sys.arrays(n_max)[:, 1:]
    tail = ns >= max(3 * n_max // 4, 2)

    def settled(seq):
        t = seq[tail]
        return np.max(t) - np.min(t) < 1e-2 * (1.0 + np.abs(t).mean())

    if settled(b) and settled(c):
        b_lim = _extrapolate_edge(b, 0.0)
        c_lim = _extrapolate_edge(c, 0.0)
        if not math.isfinite(b_lim):
            b_lim = float(b[-1])
        if not math.isfinite(c_lim):
            c_lim = float(c[-1])
        root = 2.0 * math.sqrt(max(c_lim, 0.0))
        return SupportClassification(kind="bounded",
                                     interval=(b_lim - root, b_lim + root),
                                     b_limit=b_lim, c_limit=c_lim)
    lo = -math.inf if (not settled(b) and b[-1] < b[len(b) // 2]) \
        or not settled(c) else float(b[-1] - 2 * math.sqrt(max(c[-1], 0)))
    hi = math.inf if (not settled(b) and b[-1] > b[len(b) // 2]) \
        or not settled(c) else float(b[-1] + 2 * math.sqrt(max(c[-1], 0)))
    return SupportClassification(kind="unbounded", interval=(lo, hi))


# ---------------------------------------------------------------------------
# Stieltjes-Wigert chains and the non-uniqueness demonstration

def _stieltjes_wigert_b(j: np.ndarray) -> np.ndarray:
    """b_n of both Stieltjes-Wigert chains."""
    return np.exp(j + 0.75) * (1 + math.exp(-0.5) - np.exp(-(j + 1) / 2.0))


def stieltjes_wigert_monic() -> RecurrenceSystem:
    """Monic chain of the log-normal (q = e^{-1/2}) orthogonal polynomials:
    c_n = e^{2n}(1 - e^{-n/2}).  Past n = 354 its rows raise."""
    def rows(j: np.ndarray) -> tuple:
        with np.errstate(over="raise"):
            return 1.0, _stieltjes_wigert_b(j), np.exp(2 * j) * (
                1 - np.exp(-j / 2.0))

    return RecurrenceSystem(rows, form="monic", p0=1.0)


def stieltjes_wigert_orthonormal() -> RecurrenceSystem:
    """Its orthonormal chain, a_n = c_{n+1} = e^{n+1} sqrt(1 - e^{-(n+1)/2}),
    not the root of the monic c_{n+1}: its rows raise past n = 708, not 354."""
    def e(m: np.ndarray) -> np.ndarray:
        return np.exp(m) * np.sqrt(1 - np.exp(-m / 2.0))

    def rows(j: np.ndarray) -> tuple:
        with np.errstate(over="raise"):
            return e(j + 1), _stieltjes_wigert_b(j), e(j)

    return RecurrenceSystem(rows, form="orthonormal", p0=1.0)


def lognormal_moment(n: int, C: float, tol: float = 1e-12) -> float:
    """Numeric n-th moment of the oscillating log-normal density, as a ratio
    to e^{n(n+2)/4} (so the exact answer is 1 for every C in (-1,1)).

    The substitution u = log x - (n+1)/2 turns the integral into one of
    1 + C sin(2 pi u + phase) against the Hermite weight e^{-u^2}, which
    `integrate` sums on Gauss-Hermite rules; IntegrationError when the sums
    do not settle.
    """
    if not -1.0 < C < 1.0:
        raise MomentProblemError("need C in (-1, 1)")
    from .measures import continuous_measure, integrate
    phase = math.pi * (n + 1)
    gauss = continuous_measure(lambda u: math.exp(-u * u),
                               (-math.inf, math.inf))
    return integrate(gauss, lambda u: math.sin(2 * math.pi * u + phase) * C
                     + 1.0, tol) / math.sqrt(math.pi)


def lognormal_discrete_moment(n: int) -> float:
    """The lattice-measure moment of the same problem, again normalized so
    the exact value is 1: sums e^{-kn/2} e^{-(k+1)^2/4} over k, peak-centered."""
    center = -(n + 1)
    num = 0.0
    for k in range(center - _K_HALFWIDTH, center + _K_HALFWIDTH + 1):
        num += math.exp(-0.5 * k * n - 0.25 * (k + 1) ** 2
                        - 0.25 * n * (n + 2))
    den = sum(math.exp(-0.25 * k * k)
              for k in range(-_K_HALFWIDTH, _K_HALFWIDTH + 1))
    return num / den


class StieltjesWigertReport(NamedTuple):
    C_values: tuple[float, ...]
    continuous_dev: np.ndarray   # (len(C), n_max+1) deviations from 1
    pairwise_dev: float
    discrete_dev: np.ndarray     # (n_max+1,) deviations from 1
    max_dev: float


def stieltjes_wigert_demo(C_list, n_max: int,
                          tol: float = 1e-12) -> StieltjesWigertReport:
    """Different measures, identical moments: the continuous family over C
    and the lattice measure all reproduce e^{n(n+2)/4}."""
    Cs = tuple(float(C) for C in C_list)
    cont = np.empty((len(Cs), n_max + 1))
    for i, C in enumerate(Cs):
        for n in range(n_max + 1):
            cont[i, n] = lognormal_moment(n, C, tol) - 1.0
    disc = np.array([lognormal_discrete_moment(n) - 1.0
                     for n in range(n_max + 1)])
    pairwise = float(np.max(np.abs(cont - cont[0]))) if len(Cs) > 1 else 0.0
    return StieltjesWigertReport(
        C_values=Cs, continuous_dev=cont, pairwise_dev=pairwise,
        discrete_dev=disc,
        max_dev=float(max(np.max(np.abs(cont)), np.max(np.abs(disc)))))
