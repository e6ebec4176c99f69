"""q-toolkit, all in double precision: q-numbers, q-shifted factorials,
basic hypergeometric series, q-derivative and q-integral, the Askey-Wilson
polynomials by their recurrence (Koekoek, Lesky & Swarttouw 2010, (14.1.4))
and the continuous q-ultraspherical family with its generating function."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure
from .families import FamilyError, special_case_eval, gegenbauer
from .recurrence import RecurrenceError, RecurrenceSystem, eval_all


class QSeriesError(NumericalFailure):
    """q-series evaluation failed (pole or non-convergence)."""


# infinite products and series stop below _SERIES_TOL, or raise after
# _MAX_TERMS steps
_SERIES_TOL = 1e-15
_MAX_TERMS = 10_000


@dataclass(frozen=True)
class QContext:
    """Base q of the products and series."""

    q: float

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise QSeriesError("q must lie in (0, 1)")


def q_number(ctx: QContext, a: float) -> float:
    """[a]_q = (1 - q^a)/(1 - q)."""
    return (1.0 - ctx.q ** a) / (1.0 - ctx.q)


def q_pochhammer(ctx: QContext, a, n: int | None = None):
    """(a; q)_n, with n=None meaning the infinite product (truncated when the
    remaining factors differ from 1 by less than _SERIES_TOL)."""
    q = ctx.q
    out = 1.0 + 0.0j if isinstance(a, complex) else 1.0
    if n is not None:
        if n < 0:
            raise QSeriesError("q-shifted factorial order must be >= 0")
        for k in range(n):
            out *= 1 - a * q ** k
        return out
    for k in range(_MAX_TERMS):
        factor = a * q ** k
        if abs(factor) < _SERIES_TOL:
            return out
        out *= 1 - factor
    raise QSeriesError("infinite q-shifted factorial did not converge "
                       f"within {_MAX_TERMS} terms")


def q_derivative(ctx: QContext, f, x: float) -> float:
    """(D_q f)(x) = (f(x) - f(qx)) / ((1-q) x)."""
    if x == 0:
        raise QSeriesError("q-derivative undefined at x = 0")
    return (f(x) - f(ctx.q * x)) / ((1.0 - ctx.q) * x)


def q_integral(ctx: QContext, f) -> float:
    """Jackson integral of f over [0, 1]: (1-q) sum f(q^k) q^k."""
    q = ctx.q
    total = 0.0
    for k in range(_MAX_TERMS):
        node = q ** k
        total += f(node) * node
        if node < _SERIES_TOL:
            return (1.0 - q) * total
    raise QSeriesError(
        f"q-integral did not converge within {_MAX_TERMS} terms")


def _is_q_power(ctx: QContext, a, tol: float = 1e-9) -> int | None:
    """Return m when a = q^{-m} for a non-negative integer m, else None."""
    if isinstance(a, complex):
        if abs(a.imag) > tol * max(1.0, abs(a)):
            return None
        a = a.real
    if a <= 0:
        return None
    m = -math.log(a) / math.log(ctx.q)
    m_int = round(m)
    if m_int >= 0 and abs(m - m_int) < tol:
        return m_int
    return None


def basic_hyp(ctx: QContext, upper, lower, z):
    """Basic hypergeometric series r+1 phi r (general r, s via the standard
    extra factor), summed by running term ratios.

    Terminates when some upper parameter is q^{-n}; otherwise sums until the
    running tail is below _SERIES_TOL within _MAX_TERMS terms.
    """
    upper = list(upper)
    lower = list(lower)
    q = ctx.q
    n_stop = None
    for a in upper:
        m = _is_q_power(ctx, a)
        if m is not None:
            n_stop = m if n_stop is None else min(n_stop, m)
    for b in lower:
        m = _is_q_power(ctx, b)
        if m is not None and (n_stop is None or m < n_stop):
            raise QSeriesError(
                f"lower parameter {b} hits q^(-{m}) before termination")
    extra_power = 1 + len(lower) - len(upper)
    is_complex = isinstance(z, complex) or any(
        isinstance(v, complex) for v in upper + lower)
    term = 1.0 + 0.0j if is_complex else 1.0
    total = term
    limit = n_stop if n_stop is not None else _MAX_TERMS
    for k in range(limit):
        ratio = z
        for a in upper:
            ratio *= 1 - a * q ** k
        for b in lower:
            denom = 1 - b * q ** k
            if denom == 0:
                raise QSeriesError(f"zero denominator from lower parameter {b}")
            ratio /= denom
        ratio /= 1 - q ** (k + 1)
        if extra_power:
            ratio *= (-(q ** k)) ** extra_power
        term = term * ratio
        total += term
        if n_stop is None and abs(term) < _SERIES_TOL * max(1.0, abs(total)):
            # geometric tail: the ratio shrinks like z q^k from here on
            return total
    if n_stop is None:
        raise QSeriesError("basic hypergeometric series did not converge "
                           f"within {_MAX_TERMS} terms")
    return total


# ---------------------------------------------------------------------------
# Askey-Wilson and continuous q-ultraspherical

def _askey_wilson_system(q: float, a: float, b: float, c: float,
                         d: float) -> RecurrenceSystem:
    """General-form rows of p_n = a^-n (ab, ac, ad; q)_n 4phi3, from the A_n
    and C_n of Koekoek, Lesky & Swarttouw (2010, (14.1.4)) divided through
    by that normalisation, s = abcd."""
    def lead(z):
        return (1 - a * b * z) * (1 - a * c * z) * (1 - a * d * z)

    def rows(j: np.ndarray) -> tuple:
        qn = q ** j.astype(float)
        qp, first = qn / q, j == 0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            s = np.float64(a) * b * c * d   # 1 - s = 0 divides to inf
            # 1 - s q^(n-1) cancels from a_0 and A_0, which matters at s = q
            an = np.where(first, 1 / (2 * (1 - s)), (1 - s * qp) / (
                2 * (1 - s * qn * qp) * (1 - s * qn * qn)))
            A = np.where(first, lead(1.0) / (a * (1 - s)),
                         lead(qn) * (1 - s * qp) / (
                             a * (1 - s * qn * qp) * (1 - s * qn * qn)))
            C = np.where(first, 0.0, a * (1 - qn) * (1 - b * c * qp) * (
                1 - b * d * qp) * (1 - c * d * qp) / (
                (1 - s * qp * qp) * (1 - s * qn * qp)))
            return an, (a + 1 / a - A - C) / 2, C * lead(qp) / (2 * a)

    return RecurrenceSystem(rows, form="general", p0=1.0)


def askey_wilson_eval(ctx: QContext, n: int, a: float, b: float, c: float,
                      d: float, theta: float) -> float:
    """p_n(cos theta; a,b,c,d | q), symmetric in (a, b, c, d), by the
    recurrence of Koekoek, Lesky & Swarttouw (2010, (14.1.4)) in doubles:
    the terms of its 4phi3 reach q^(-n^2/2) and cancel.  The rows divide by
    their a, and their b_n cancels like 1/|a|, so the parameter of largest
    modulus (the first of a tie) takes that place."""
    if n < 0:
        raise QSeriesError("degree must be non-negative")
    params = [a, b, c, d]
    if not all(map(math.isfinite, (*params, theta))):
        raise QSeriesError("parameters and theta must be finite")
    first = params.pop(max(range(4), key=lambda i: abs(params[i])))
    if first == 0:
        raise QSeriesError("parameters a, b, c, d are all 0")
    try:
        # a_k = 0 where s q^(k-1) = 1, a row not finite where some s q^m = 1
        p = eval_all(_askey_wilson_system(ctx.q, first, *params), n,
                     math.cos(theta))[-1]
    except RecurrenceError as exc:
        raise QSeriesError(f"Askey-Wilson recurrence: {exc}") from None
    if not math.isfinite(p):
        raise QSeriesError("Askey-Wilson recurrence is not finite to degree "
                           f"{n} (s = abcd = {a * b * c * d})")
    return p


def cq_ultraspherical(ctx: QContext, n: int, beta: float,
                      theta: float) -> float:
    """C_n(cos theta; beta | q) by its explicit convolution sum."""
    if n < 0:
        raise FamilyError("degree must be non-negative")
    total = 0.0 + 0.0j
    for k in range(n + 1):
        r_k = q_pochhammer(ctx, beta, k) / q_pochhammer(ctx, ctx.q, k)
        r_nk = (q_pochhammer(ctx, beta, n - k)
                / q_pochhammer(ctx, ctx.q, n - k))
        total += r_k * r_nk * cmath.exp(1j * (n - 2 * k) * theta)
    return total.real


def gen_fn_check(ctx: QContext, beta: float, theta: float, t: float,
                 n_terms: int) -> tuple[float, float]:
    """(residual, tail bound) of the q-ultraspherical generating function

    sum_n C_n(cos theta; beta | q) t^n
        = (beta t e^{i theta}; q)_inf (beta t e^{-i theta}; q)_inf
          / ((t e^{i theta}; q)_inf (t e^{-i theta}; q)_inf).
    """
    if abs(t) >= 1:
        raise QSeriesError("need |t| < 1")
    eip = cmath.exp(1j * theta)
    closed = (q_pochhammer(ctx, beta * t * eip)
              * q_pochhammer(ctx, beta * t / eip)
              / (q_pochhammer(ctx, t * eip) * q_pochhammer(ctx, t / eip)))
    partial = sum(cq_ultraspherical(ctx, n, beta, theta) * t ** n
                  for n in range(n_terms + 1))
    # |C_n| <= (n+1) K with K = ((-|beta|; q)_inf / (q; q)_inf)^2
    K = (abs(q_pochhammer(ctx, -abs(beta)))
         / q_pochhammer(ctx, ctx.q)) ** 2
    N, at = n_terms, abs(t)
    tail = K * at ** (N + 1) * ((N + 2) - (N + 1) * at) / (1 - at) ** 2
    return abs(partial - closed.real) + abs(closed.imag), tail


def cq_gegenbauer_limit(ctx: QContext, n: int, lam: float, x: float) -> float:
    """|C_n(x; q^lam | q) - C_n^lam(x)|, shrinking as q rises to 1."""
    theta = math.acos(x)
    return abs(cq_ultraspherical(ctx, n, ctx.q ** lam, theta)
               - special_case_eval(gegenbauer(lam), n, x))
