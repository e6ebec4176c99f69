"""The family registry, and the Jacobi, Laguerre and Hermite families with
their special cases.

Series evaluation, differential equations, shift operators, Rodrigues
formulas, quadratic transformations, even-weight splitting, limit relations
and the electrostatic zero characterization.  Series sums carry a
cancellation guard that retries in higher precision when double arithmetic
loses too many digits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .measures import Measure, continuous_measure
from .recurrence import (RecurrenceError, RecurrenceSystem, eval_all,
                         eval_all_derivatives, eval_poly, favard_products)

_TINY = 1e-300


class FamilyError(ValueError):
    """Invalid family parameters."""


# ---------------------------------------------------------------------------
# shifted factorials and terminating hypergeometric series

def pochhammer(a: float, k: int, num=float):
    """Shifted factorial (a)_k = a (a+1) ... (a+k-1)."""
    out = num(1)
    av = num(a)
    for i in range(k):
        out *= av + i
    return out


def _termination_index(upper) -> int:
    candidates = [int(round(-a)) for a in upper
                  if a <= 0 and abs(a - round(a)) < 1e-12]
    if not candidates:
        raise FamilyError("series does not terminate: no non-positive "
                          "integer among the upper parameters")
    return min(candidates)


def _in_double_range(fn):
    """Report an OverflowError as FamilyError: an int factorial too large
    for a float (degree 171 on) or a float power past the double range."""
    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except OverflowError as exc:
            raise FamilyError(f"{fn.__name__}: terms leave the double range "
                              f"({exc})") from exc

    return checked


@_in_double_range
def _guarded_sum(term_fn, n_terms: int, ratio) -> float:
    """Sum term_fn(k, num) for k < n_terms, escalating precision on
    cancellation.

    The escalated pass forms each term from the one before it,
    t_{k+1} = t_k * ratio(k, num), so a term costs O(1) there where
    term_fn(k, num) costs O(n).
    """
    total, max_abs = 0.0, 0.0
    for k in range(n_terms):
        t = term_fn(k, float)
        total += t
        max_abs = max(max_abs, abs(t))
    if not (math.isfinite(total) and math.isfinite(max_abs)):
        raise FamilyError(f"terms of a {n_terms}-term series leave the "
                          "double range")
    if max_abs <= 1e3 * max(abs(total), _TINY):
        return total
    import mpmath

    dps = 30 + int(math.log10(max_abs / max(abs(total), max_abs * 1e-200)))
    for _ in range(4):
        with mpmath.workdps(dps):
            terms = [term_fn(0, mpmath.mpf)]
            for k in range(n_terms - 1):
                terms.append(terms[-1] * ratio(k, mpmath.mpf))
            mp_total = mpmath.fsum(terms)
            ok = abs(mp_total) > max_abs * mpmath.mpf(10) ** (18 - dps)
            val = float(mp_total)
        if ok or val == 0.0:
            return val
        dps += 20
    return val


def hyp(upper, lower, z, terms=None) -> float:
    """Evaluate a terminating (generalized) hypergeometric series exactly,
    through the index `terms`, by default the one where the series ends.

    Double-precision terms are formed directly from shifted factorials; an
    escalated sum multiplies by the term ratio, in which a vanishing upper
    factor a + k zeroes every later term, as it does in (a)_k.
    """
    upper, lower, z = tuple(upper), tuple(lower), float(z)
    n = terms if terms is not None else _termination_index(upper)
    for b in lower:
        if b <= 0 and abs(b - round(b)) < 1e-12 and int(round(-b)) < n:
            raise FamilyError(
                f"lower parameter {b} hits a pole before termination at {n}")

    def term(k, num):
        t = num(z) ** k
        for a in upper:
            t *= pochhammer(a, k, num)
        for b in lower:
            t /= pochhammer(b, k, num)
        return t / math.factorial(k)

    def ratio(k, num):
        r = num(z) / (k + 1)
        for a in upper:
            r *= num(a) + k
        for b in lower:
            # b + k != 0 for k < n: such a pole is refused above
            r /= num(b) + k
        return r

    return _guarded_sum(term, n + 1, ratio)


# ---------------------------------------------------------------------------
# the family registry

# Parameters of every family, in the order the command line lists the
# families.  N is the size of a finite integer lattice and an int; the other
# parameters are floats.
PARAMETERS = {
    "legendre": (), "hermite": (), "jacobi": ("alpha", "beta"),
    "laguerre": ("alpha",), "gegenbauer": ("lam",), "chebyshev_t": (),
    "chebyshev_u": (), "krawtchouk": ("p", "N"),
    "hahn": ("alpha", "beta", "N"), "meixner": ("beta", "c"),
    "charlier": ("a",),
}
# the families orthogonal on an integer lattice (see discrete.py)
LATTICE = frozenset(("krawtchouk", "hahn", "meixner", "charlier"))


def _validate(f: str, p: dict) -> None:
    """Raise FamilyError unless p is a valid parameter record of family f."""
    if f not in PARAMETERS:
        raise FamilyError(f"unknown family {f!r}")
    if f in ("jacobi", "hahn") and (p["alpha"] <= -1 or p["beta"] <= -1):
        raise FamilyError(f"{f} requires alpha > -1 and beta > -1")
    if f == "laguerre" and p["alpha"] <= -1:
        raise FamilyError("laguerre requires alpha > -1")
    if f == "gegenbauer" and (p["lam"] <= -0.5 or p["lam"] == 0.0):
        raise FamilyError("gegenbauer requires lam > -1/2 and lam != 0")
    if f == "krawtchouk" and not 0 < p["p"] < 1:
        raise FamilyError("krawtchouk requires 0 < p < 1")
    if "N" in PARAMETERS[f] and (p["N"] < 1 or p["N"] != int(p["N"])):
        raise FamilyError(f"{f} requires integer N >= 1")
    if f == "meixner" and (p["beta"] <= 0 or not 0 < p["c"] < 1):
        raise FamilyError("meixner requires beta > 0 and 0 < c < 1")
    if f == "charlier" and p["a"] <= 0:
        raise FamilyError("charlier requires a > 0")


@dataclass(frozen=True)
class FamilySpec:
    """Tagged family with parameter record (see PARAMETERS)."""

    family: str
    parameters: dict = field(default_factory=dict)

    def __post_init__(self):
        _validate(self.family, self.parameters)

    def __getattr__(self, name):
        try:
            return self.parameters[name]
        except KeyError:
            raise AttributeError(name) from None

    @property
    def discrete(self) -> bool:
        """True for the families orthogonal on an integer lattice."""
        return self.family in LATTICE


def family_spec(name: str, params: dict) -> FamilySpec:
    """Build a spec from a flat parameter dict; extra keys are ignored and a
    missing parameter raises KeyError with its name."""
    return FamilySpec(name, {k: int(params[k]) if k == "N"
                             else float(params[k])
                             for k in PARAMETERS.get(name, ())})


def jacobi(alpha: float, beta: float) -> FamilySpec:
    return FamilySpec("jacobi", {"alpha": float(alpha), "beta": float(beta)})


def laguerre(alpha: float) -> FamilySpec:
    return FamilySpec("laguerre", {"alpha": float(alpha)})


def hermite() -> FamilySpec:
    return FamilySpec("hermite")


def gegenbauer(lam: float) -> FamilySpec:
    return FamilySpec("gegenbauer", {"lam": float(lam)})


def legendre() -> FamilySpec:
    return FamilySpec("legendre")


def chebyshev_t() -> FamilySpec:
    return FamilySpec("chebyshev_t")


def chebyshev_u() -> FamilySpec:
    return FamilySpec("chebyshev_u")


# ---------------------------------------------------------------------------
# series evaluation

def jacobi_eval(n: int, alpha: float, beta: float, x: float) -> float:
    """P_n^{(alpha,beta)}(x) as a terminating Gauss hypergeometric sum."""
    if n < 0:
        raise FamilyError("degree must be non-negative")
    if x < 0:
        # reflection keeps the expansion point x=1 nearby, which conditions
        # the sum much better deep inside the interval
        return (-1) ** n * jacobi_eval(n, beta, alpha, -x)

    def term(k, num):
        # parameter sums are formed in `num` arithmetic: double rounding of
        # e.g. alpha+k+1 is amplified by the cancellation the guard fights
        return (pochhammer(num(alpha) + num(beta) + (n + 1), k, num)
                * pochhammer(num(alpha) + (k + 1), n - k, num)
                / (math.factorial(k) * math.factorial(n - k))
                * ((num(x) - 1) / 2) ** k)

    def ratio(k, num):
        return ((num(alpha) + num(beta) + (n + 1 + k)) * (n - k)
                / ((num(alpha) + (k + 1)) * (k + 1)) * ((num(x) - 1) / 2))

    return _guarded_sum(term, n + 1, ratio)


def laguerre_eval(n: int, alpha: float, x: float) -> float:
    """L_n^{alpha}(x) as a terminating confluent hypergeometric sum."""
    if n < 0:
        raise FamilyError("degree must be non-negative")

    def term(k, num):
        return (pochhammer(num(alpha) + (k + 1), n - k, num)
                / (math.factorial(k) * math.factorial(n - k))
                * (-num(x)) ** k)

    def ratio(k, num):
        return (n - k) * -num(x) / ((num(alpha) + (k + 1)) * (k + 1))

    return _guarded_sum(term, n + 1, ratio)


def hermite_eval(n: int, x: float) -> float:
    """H_n(x) with leading coefficient 2^n."""
    if n < 0:
        raise FamilyError("degree must be non-negative")

    def term(j, num):
        return ((-1) ** j * (2 * num(x)) ** (n - 2 * j)
                * math.factorial(n) / (math.factorial(j)
                                       * math.factorial(n - 2 * j)))

    def ratio(j, num):
        # never called at x = 0: every term but j = n/2 vanishes there, so
        # the sum has no cancellation and does not escalate
        return (-(n - 2 * j) * (n - 2 * j - 1)
                / ((j + 1) * (2 * num(x)) ** 2))

    return _guarded_sum(term, n // 2 + 1, ratio)


def special_case_eval(spec: FamilySpec, n: int, x: float) -> float:
    """Evaluate a family member, routing special cases through Jacobi."""
    f = spec.family
    if f == "laguerre":
        return laguerre_eval(n, spec.alpha, x)
    if f == "hermite":
        return hermite_eval(n, x)
    a, b, ratio = _as_jacobi(spec)
    scale = math.prod(ratio(k) for k in range(n)) if ratio else 1.0
    return scale * jacobi_eval(n, a, b, x)


# ---------------------------------------------------------------------------
# monomial coefficient vectors (exact-in-coefficients derivatives)

@_in_double_range
def jacobi_coeffs(n: int, alpha: float, beta: float) -> np.ndarray:
    """Monomial coefficients of P_n^{(alpha,beta)}, ascending order."""
    out = np.zeros(n + 1)
    zpow = np.array([1.0])
    base = np.array([-0.5, 0.5])  # (x - 1)/2
    for k in range(n + 1):
        t = (pochhammer(n + alpha + beta + 1, k)
             * pochhammer(alpha + k + 1, n - k)
             / (math.factorial(k) * math.factorial(n - k)))
        out[:len(zpow)] += t * zpow
        zpow = np.convolve(zpow, base)
    return out


@_in_double_range
def laguerre_coeffs(n: int, alpha: float) -> np.ndarray:
    out = np.zeros(n + 1)
    for k in range(n + 1):
        out[k] = ((-1) ** k * pochhammer(alpha + k + 1, n - k)
                  / (math.factorial(k) * math.factorial(n - k)))
    return out


@_in_double_range
def hermite_coeffs(n: int) -> np.ndarray:
    out = np.zeros(n + 1)
    for j in range(n // 2 + 1):
        out[n - 2 * j] = ((-1) ** j * 2 ** (n - 2 * j) * math.factorial(n)
                          / (math.factorial(j) * math.factorial(n - 2 * j)))
    return out


def _as_jacobi(spec: FamilySpec):
    """(alpha, beta, ratio) with p_n = prefactor_n P_n^{(alpha,beta)} for the
    Jacobi family and its special cases, where prefactor_0 = 1 and ratio(n)
    = prefactor_{n+1} / prefactor_n, also on index arrays (None where the
    prefactor is 1); FamilyError for the other families."""
    f = spec.family
    if f == "jacobi":
        return spec.alpha, spec.beta, None
    if f == "gegenbauer":
        lam = spec.lam
        return lam - 0.5, lam - 0.5, lambda n: (2 * lam + n) / (lam + 0.5 + n)
    if f == "legendre":
        return 0.0, 0.0, None
    if f == "chebyshev_t":
        return -0.5, -0.5, lambda n: (n + 1) / (n + 0.5)
    if f == "chebyshev_u":
        return 0.5, 0.5, lambda n: (n + 2) / (n + 1.5)
    raise FamilyError(f"{f} has no Jacobi reduction")


# ---------------------------------------------------------------------------
# differential equations and shift operators on the monic chain

def pearson_pair(spec: FamilySpec):
    """(sigma, tau, shifted) with (sigma w)' = tau w for the weight w.

    sigma = s0 + s1 x + s2 x^2 and tau = t0 + t1 x are ascending coefficient
    tuples; `shifted` is the family with weight sigma w, whose monic members
    are the derivatives of the monic p_n divided by n.
    """
    f = spec.family
    if f == "laguerre":
        a = spec.alpha
        return (0.0, 1.0, 0.0), (a + 1, -1.0), laguerre(a + 1)
    if f == "hermite":
        return (1.0, 0.0, 0.0), (0.0, -2.0), spec
    a, b, _ = _as_jacobi(spec)
    return (1.0, 0.0, -1.0), (b - a, -(a + b + 2)), jacobi(a + 1, b + 1)


def _scaled(*terms) -> np.ndarray:
    """Sum of the terms over the largest of them, 0 where all vanish."""
    terms = np.array(terms)
    scale = np.max(np.abs(terms), axis=0)
    return np.where(scale == 0, 0.0, np.sum(terms, axis=0) / scale)


def _pearson_chains(spec: FamilySpec, n: int, x):
    """Monic p_k, k <= n, and q_k, k < n, of the shifted family, with their
    derivatives, plus sigma(x), tau(x) and mu_k = tau' + (k - 1) sigma''/2."""
    (s0, s1, s2), (t0, t1), shifted = pearson_pair(spec)
    x = np.asarray(x, dtype=float)
    p = np.array(eval_all_derivatives(family_monic_system(spec), n, x))
    q = np.array(eval_all_derivatives(family_monic_system(shifted),
                                      max(n - 1, 0), x))[:, :n]
    k = np.arange(n + 1).reshape((-1,) + (1,) * x.ndim)
    return p, q, s0 + (s1 + s2 * x) * x, t0 + t1 * x, t1 + (k - 1) * s2, k


def ode_residual(spec: FamilySpec, n: int, x) -> np.ndarray:
    """Scaled residuals of sigma p'' + tau p' - k mu_k p = 0 for the monic
    p_k, k = 0..n, at the points x (rows are degrees)."""
    with np.errstate(all="ignore"):
        (p, dp, ddp), _, sigma, tau, mu, k = _pearson_chains(spec, n, x)
        return _scaled(sigma * ddp, tau * dp, -k * mu * p)


def shift_check(spec: FamilySpec, n: int, direction: str, x) -> np.ndarray:
    """Scaled residuals of a shift relation for the monic p_k, k = 0..n, at
    the points x (rows are degrees; row 0 is 0).

    direction "raise": p_k' = k q_{k-1}, the derivative lowers the degree and
    moves to the shifted family; "lower": sigma q_{k-1}' + tau q_{k-1}
    = mu_k p_k, the weighted derivative back to the family.
    """
    if direction not in ("raise", "lower"):
        raise FamilyError(f"unknown direction {direction!r}")
    with np.errstate(all="ignore"):
        (p, dp, _), (q, dq, _), sigma, tau, mu, k = _pearson_chains(spec, n, x)
        if direction == "raise":
            out = _scaled(dp[1:], -k[1:] * q)
        else:
            out = _scaled(sigma * dq, tau * q, -mu[1:] * p[1:])
    return np.concatenate([np.zeros_like(p[:1]), out])


# ---------------------------------------------------------------------------
# Rodrigues formulas by exact polynomial recursion over the Pearson pair

# K_n of p_n = K_n w^-1 (d/dx)^n (sigma^n w), by family
_RODRIGUES_CONSTANT = {
    "jacobi": lambda n: (-1) ** n / (2 ** n * math.factorial(n)),
    "laguerre": lambda n: 1 / math.factorial(n),
    "hermite": lambda n: (-1) ** n,
}


def rodrigues_eval(spec: FamilySpec, n: int, x: float) -> float:
    """Evaluate via the Rodrigues formula.  With the Pearson pair,
    (d/dx)^k (sigma^n w) = sigma^(n-k) w r_k for the polynomials r_0 = 1,
    r_{k+1} = sigma r_k' + (tau + (n - k - 1) sigma') r_k, recursed
    explicitly."""
    constant = _RODRIGUES_CONSTANT.get(spec.family)
    if constant is None:
        raise FamilyError("Rodrigues formula implemented for jacobi, "
                          f"laguerre, hermite; got {spec.family!r}")
    sigma, tau, _ = pearson_pair(spec)
    dsigma = npoly.polyder(sigma)
    r = np.array([1.0])
    for k in range(n):
        r = npoly.polyadd(
            npoly.polymul(sigma, npoly.polyder(r)),
            npoly.polymul(npoly.polyadd(tau, (n - k - 1) * dsigma), r))
    return constant(n) * npoly.polyval(x, r)


# ---------------------------------------------------------------------------
# quadratic transformations and even-weight splitting

def _jacobi_ratio_system(alpha: float, beta: float) -> RecurrenceSystem:
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
        b, c = _jacobi_monic_rows(j, alpha, beta)
        return rho[1:], b, c / rho[:-1]

    return RecurrenceSystem(rows_fn=rows, form="general", p0=1.0)


def quadratic_transform_residuals(n: int, alpha: float,
                                  xs) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of the even and odd quadratic transformations
    P_2k^{(a,a)}(x) ~ P_k^{(a,-1/2)}(2x^2 - 1) and
    P_2k+1^{(a,a)}(x) ~ x P_k^{(a,1/2)}(2x^2 - 1), each side normalised by
    its value at 1, for k = 0..n (rows) at the points xs (columns).

    Each of the three chains is one eval_all pass of a ratio system; quadratic_transform_check is the series form of the same
    residuals at one degree and point.  For alpha < -1/2 the normalised
    values grow like k^(-1/2 - alpha), and a residual is taken relative to
    the largest value of its degree where that exceeds 1.
    """
    def residual(lhs, rhs):
        scale = np.maximum(abs(lhs), abs(rhs)).max(axis=1, keepdims=True)
        return (lhs - rhs) / np.maximum(1.0, scale)

    def chain(m_max, beta, at):
        return np.array(eval_all(_jacobi_ratio_system(alpha, beta), m_max, at))

    x = np.asarray(xs, dtype=float)
    y = 2 * x * x - 1
    sym = chain(2 * n + 1, alpha, x)
    return (residual(sym[0::2], chain(n, -0.5, y)),
            residual(sym[1::2], x * chain(n, 0.5, y)))


def quadratic_transform_check(n: int, alpha: float,
                              x: float) -> tuple[float, float]:
    """Residuals of the even/odd quadratic transformation identities at one
    degree and point, from the hypergeometric series: the test oracle of
    quadratic_transform_residuals."""
    y = 2 * x * x - 1

    def norm1(m, a, b):
        return pochhammer(a + 1, m) / math.factorial(m)

    even = (jacobi_eval(2 * n, alpha, alpha, x) / norm1(2 * n, alpha, alpha)
            - jacobi_eval(n, alpha, -0.5, y) / norm1(n, alpha, -0.5))
    odd = (jacobi_eval(2 * n + 1, alpha, alpha, x)
           / norm1(2 * n + 1, alpha, alpha)
           - x * jacobi_eval(n, alpha, 0.5, y) / norm1(n, alpha, 0.5))
    return even, odd


def split_even_system(sys: RecurrenceSystem,
                      n_max: int) -> tuple[RecurrenceSystem, RecurrenceSystem]:
    """Split an even system into monic q, r with p_2n(x) = q_n(x^2),
    p_{2n+1}(x) = x r_n(x^2) (after monic rescaling of p)."""
    b = sys.arrays(2 * n_max + 2)[1]
    if b.any():
        raise RecurrenceError(
            f"b_{np.flatnonzero(b)[0]} != 0: measure is not even")

    def half(shift: int) -> RecurrenceSystem:
        def rows(j: np.ndarray) -> tuple:
            # the monic c_i of sys are the Favard products a_{i-1} c_i
            c = np.concatenate(([0.0], favard_products(sys, 2 * j[-1]
                                                       + shift + 1)))
            i = 2 * j + shift
            return 1.0, c[i] + c[i + 1], np.where(j > 0, c[i - 1] * c[i], 0.0)

        return RecurrenceSystem(rows_fn=rows, form="monic", p0=1.0,
                                max_index_hint=n_max)

    return half(0), half(1)


# ---------------------------------------------------------------------------
# recurrence systems (classical and monic normalizations)

def legendre_system() -> RecurrenceSystem:
    return RecurrenceSystem(
        lambda n: ((n + 1) / (2 * n + 1), 0.0, n / (2 * n + 1)),
        form="general", p0=1.0)


def hermite_system() -> RecurrenceSystem:
    return RecurrenceSystem(lambda n: (0.5, 0.0, float(n)),
                            form="general", p0=1.0)


def laguerre_system(alpha: float) -> RecurrenceSystem:
    return RecurrenceSystem(
        lambda n: (-(n + 1.0), 2 * n + alpha + 1, -(n + alpha)),
        form="general", p0=1.0)


def _jacobi_monic_rows(j: np.ndarray, alpha: float,
                       beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Monic b_j, c_j of P^(alpha,beta) at the index array j."""
    s = 2 * j + alpha + beta
    with np.errstate(divide="ignore", invalid="ignore"):
        b = (beta ** 2 - alpha ** 2) / (s * (s + 2))
        c = (4 * j * (j + alpha) * (j + beta) * (j + alpha + beta)
             / ((s - 1) * s ** 2 * (s + 1)))
    # j = 0, 1: the factor s of b_0 and s - 1 of c_1 cancel; finite at 0
    b[j == 0] = (beta - alpha) / (alpha + beta + 2)
    c[j == 0] = 0.0
    c[j == 1] = (4 * (1 + alpha) * (1 + beta)
                 / ((2 + alpha + beta) ** 2 * (3 + alpha + beta)))
    return b, c


def jacobi_monic_b(n: int, alpha: float, beta: float) -> float:
    return float(_jacobi_monic_rows(np.array([n]), alpha, beta)[0][0])


def jacobi_monic_c(n: int, alpha: float, beta: float) -> float:
    return float(_jacobi_monic_rows(np.array([n]), alpha, beta)[1][0])


def jacobi_monic_system(alpha: float, beta: float) -> RecurrenceSystem:
    return RecurrenceSystem(
        rows_fn=lambda j: (1.0, *_jacobi_monic_rows(j, alpha, beta)),
        form="monic", p0=1.0)


def laguerre_monic_system(alpha: float) -> RecurrenceSystem:
    return RecurrenceSystem(
        lambda n: (1.0, 2 * n + alpha + 1, n * (n + alpha)),
        form="monic", p0=1.0)


def hermite_monic_system() -> RecurrenceSystem:
    return RecurrenceSystem(lambda n: (1.0, 0.0, n / 2.0),
                            form="monic", p0=1.0)


def jacobi_leading_coeff(n: int, alpha: float, beta: float) -> float:
    """k_n = (n+alpha+beta+1)_n / (2^n n!), from n factors: an oracle for
    the closed-form rows of jacobi_system."""
    return pochhammer(n + alpha + beta + 1, n) / (2 ** n * math.factorial(n))


def jacobi_system(alpha: float, beta: float,
                  ratio=None) -> RecurrenceSystem:
    """General-form recurrence of prefactor_n P_n^(alpha,beta), with
    ratio(n) = prefactor_{n+1} / prefactor_n (None for P itself), from
    rational closed forms over an index block: b_n is the monic one,
    a_n = k_n / k_{n+1} = 2(n+1)(n+s+1) / ((2n+s+1)(2n+s+2)) / ratio(n) with
    s = alpha + beta, and c_n = c_n^monic / a_{n-1}."""
    s = alpha + beta

    def rows(j: np.ndarray) -> tuple:
        n = np.arange(j[0] - 1, j[-1] + 1, dtype=float)  # a_{j-1} for c_j
        b, c = _jacobi_monic_rows(j, alpha, beta)
        with np.errstate(divide="ignore", invalid="ignore"):
            a = 2 * (n + 1) * (n + s + 1) / ((2 * n + s + 1) * (2 * n + s + 2))
            a[n == 0] = 2 / (s + 2)   # the factor s + 1 cancels
            if ratio is not None:
                a /= ratio(n)
            c /= a[:-1]
        c[j == 0] = 0.0
        return a[1:], b, c

    return RecurrenceSystem(rows_fn=rows, form="general", p0=1.0)


def family_system(spec: FamilySpec) -> RecurrenceSystem:
    """Three-term recurrence in the family's classical normalization (for
    the discrete families p_n(0) = 1, as in discrete.discrete_eval).  The
    Jacobi-type rows stay within a few ulp to any degree (see
    jacobi_system)."""
    f = spec.family
    if spec.discrete:
        from .discrete import discrete_system
        return discrete_system(spec)
    if f == "laguerre":
        return laguerre_system(spec.alpha)
    if f == "hermite":
        return hermite_system()
    if f == "legendre":
        return legendre_system()
    return jacobi_system(*_as_jacobi(spec))


def family_monic_system(spec: FamilySpec) -> RecurrenceSystem:
    f = spec.family
    if spec.discrete:
        from .discrete import discrete_system
        return discrete_system(spec, monic=True)
    if f == "laguerre":
        return laguerre_monic_system(spec.alpha)
    if f == "hermite":
        return hermite_monic_system()
    return jacobi_monic_system(*_as_jacobi(spec)[:2])


# ---------------------------------------------------------------------------
# measures and norm seeds

def family_measure(spec: FamilySpec, normalized: bool = False) -> Measure:
    """Orthogonality measure; `normalized` applies the classical prefactor
    (1/2 for Legendre, pi^{-1/2} for Hermite, 1/pi for Chebyshev-T, e^{-a}
    for Charlier)."""
    f = spec.family
    if spec.discrete:
        from .discrete import family_measure as lattice_measure
        return lattice_measure(spec, normalized)
    if f == "hermite":
        norm = math.pi ** -0.5 if normalized else 1.0
        return continuous_measure(lambda x: math.exp(-x * x),
                                  (-math.inf, math.inf), normalizer=norm,
                                  meta={"name": "hermite"})
    if f == "legendre":
        norm = 0.5 if normalized else 1.0
        return continuous_measure(lambda x: 1.0, (-1.0, 1.0), normalizer=norm,
                                  meta={"name": "legendre"})
    if f == "laguerre":
        a = spec.alpha
        alg = (a, 0.0) if a != 0.0 else None
        return continuous_measure(lambda x: x ** a * math.exp(-x),
                                  (0.0, math.inf), alg_exponents=alg,
                                  alg_smooth=(lambda x: math.exp(-x)) if alg else None,
                                  meta={"name": "laguerre", "alpha": a})
    if f == "chebyshev_t":
        norm = 1.0 / math.pi if normalized else 1.0
        return continuous_measure(lambda x: (1 - x * x) ** -0.5, (-1.0, 1.0),
                                  normalizer=norm, alg_exponents=(-0.5, -0.5),
                                  alg_smooth=lambda x: 1.0,
                                  meta={"name": "chebyshev_t"})
    # jacobi-type weights (1-x)^alpha (1+x)^beta
    a, b, _ = _as_jacobi(spec)
    return continuous_measure(lambda x: (1 - x) ** a * (1 + x) ** b,
                              (-1.0, 1.0), alg_exponents=(b, a),
                              alg_smooth=lambda x: 1.0,
                              meta={"name": "jacobi", "alpha": a, "beta": b})


def family_mu0(spec: FamilySpec, normalized: bool = False) -> float:
    """Total mass of family_measure, in closed form."""
    f = spec.family
    if f == "hermite":
        return 1.0 if normalized else math.sqrt(math.pi)
    if f == "legendre":
        return 1.0 if normalized else 2.0
    if f == "laguerre":
        return math.gamma(spec.alpha + 1)
    if f == "chebyshev_t":
        return 1.0 if normalized else math.pi
    a, b, _ = _as_jacobi(spec)
    return (2 ** (a + b + 1) * math.gamma(a + 1) * math.gamma(b + 1)
            / math.gamma(a + b + 2))


@dataclass(frozen=True)
class FamilyBundle:
    """A family's system, measure and norm seeds, ready for the kernel and
    quadrature layers."""

    spec: FamilySpec
    system: RecurrenceSystem
    measure: Measure
    h0: float


def family_bundle(spec: FamilySpec, normalized: bool = False) -> FamilyBundle:
    return FamilyBundle(spec=spec,
                        system=family_system(spec),
                        measure=family_measure(spec, normalized),
                        h0=family_mu0(spec, normalized))


# ---------------------------------------------------------------------------
# limit relations

@_in_double_range
def limit_check(which: int, n: int, parameter: float, x: float,
                alpha: float = 0.0) -> float:
    """Error of one of the three classical limit relations at x.

    which=26: Jacobi(a,a) -> Hermite; which=27: Jacobi(alpha,b) -> Laguerre
    (parameter is b); which=28: Laguerre(a) -> Hermite.  Monic variants.
    """
    herm = hermite_monic_system()
    if which == 26:
        a = parameter
        lhs = a ** (n / 2.0) * eval_poly(jacobi_monic_system(a, a), n,
                                         x / math.sqrt(a))
        return abs(lhs - eval_poly(herm, n, x))
    if which == 27:
        b = parameter
        lhs = (-b / 2.0) ** n * eval_poly(jacobi_monic_system(alpha, b), n,
                                          1 - 2 * x / b)
        return abs(lhs - eval_poly(laguerre_monic_system(alpha), n, x))
    if which == 28:
        a = parameter
        lhs = ((2 * a) ** (-n / 2.0)
               * eval_poly(laguerre_monic_system(a), n,
                           math.sqrt(2 * a) * x + a))
        return abs(lhs - eval_poly(herm, n, x))
    raise FamilyError(f"unknown limit relation {which}")


# ---------------------------------------------------------------------------
# electrostatics of Jacobi zeros

def electrostatic_gradient(n: int, p: float, q: float, zeros) -> np.ndarray:
    """Gradient of the logarithmic potential with charges p at 1 and q at -1."""
    if p <= 0 or q <= 0:
        raise FamilyError("charges p, q must be positive")
    xs = np.asarray(zeros, dtype=float)
    if len(xs) != n:
        raise FamilyError(f"expected {n} points, got {len(xs)}")
    if len(np.unique(xs)) != n:
        raise FamilyError("coincident points")
    grad = np.empty(n)
    for k in range(n):
        others = np.delete(xs, k)
        grad[k] = (np.sum(1.0 / (xs[k] - others))
                   + p / (xs[k] - 1.0) + q / (xs[k] + 1.0))
    return grad


# ---------------------------------------------------------------------------
# Gegenbauer generating function

def gegenbauer_genfn_check(lam: float, x: float, t: float,
                           n_terms: int) -> tuple[float, float]:
    """(residual, tail bound) of (1-2xt+t^2)^{-lam} vs its Gegenbauer sum."""
    if abs(t) >= 1:
        raise FamilyError("need |t| < 1")
    spec = gegenbauer(lam)
    partial = sum(special_case_eval(spec, n, x) * t ** n
                  for n in range(n_terms + 1))
    closed = (1 - 2 * x * t + t * t) ** -lam
    # |C_n^lam(x)| <= C_n^lam(1) = (2 lam)_n / n! for |x| <= 1, lam > 0
    m = n_terms + 1
    head = pochhammer(2 * lam, m) / math.factorial(m) * abs(t) ** m
    ratio = abs(t) * max((2 * lam + m) / (m + 1), 1.0)
    if ratio >= 1:
        raise FamilyError("tail bound not geometric; increase n_terms")
    tail = head / (1 - ratio)
    return abs(partial - closed), tail
