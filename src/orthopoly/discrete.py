"""Discrete orthogonal families: Krawtchouk, Hahn, Meixner, Charlier.

Each family carries its weight on an integer lattice, a terminating
hypergeometric evaluation, a three-term recurrence, and a three-point
difference equation whose coefficients are documented here per family and
verified in the tests.
"""

from __future__ import annotations

import contextlib
import math
from typing import TYPE_CHECKING

import numpy as np

from .families import (FamilyError, FamilySpec, hyp, pochhammer,
                       shared_system)
from .recurrence import RecurrenceError, RecurrenceSystem

if TYPE_CHECKING:  # an annotation only: the measures load with their users
    from .measures import Measure


def krawtchouk(p: float, N: int) -> FamilySpec:
    return FamilySpec("krawtchouk", {"p": float(p), "N": int(N)})


def hahn(alpha: float, beta: float, N: int) -> FamilySpec:
    return FamilySpec("hahn", {"alpha": float(alpha), "beta": float(beta),
                               "N": int(N)})


def meixner(beta: float, c: float) -> FamilySpec:
    return FamilySpec("meixner", {"beta": float(beta), "c": float(c)})


def charlier(a: float) -> FamilySpec:
    return FamilySpec("charlier", {"a": float(a)})


# ---------------------------------------------------------------------------
# evaluation and weights

def discrete_eval(fam: FamilySpec, n: int, x: float) -> float:
    """Value of the degree-n family member at x (x need not be a lattice point)."""
    if n < 0:
        raise FamilyError("degree must be non-negative")
    bound = fam.parameters.get("N")
    if bound is not None and n > bound:
        raise FamilyError(f"degree {n} exceeds family bound N={bound}")
    f = fam.family
    if f == "krawtchouk":
        return hyp([-n, -x], [-fam.N], 1.0 / fam.p, terms=n)
    if f == "hahn":
        return hyp([-n, n + fam.alpha + fam.beta + 1, -x],
                   [fam.alpha + 1, -fam.N], 1.0, terms=n)
    if f == "meixner":
        return hyp([-n, -x], [fam.beta], 1.0 - 1.0 / fam.c, terms=n)
    # charlier: 2F0(-n, -x; ; -1/a)
    return hyp([-n, -x], [], -1.0 / fam.a, terms=n)


def discrete_weight(fam: FamilySpec, x: int) -> float:
    """Lattice weight w_x."""
    if x != int(x) or x < 0:
        raise FamilyError(f"{x} is not in the lattice support")
    x = int(x)
    f = fam.family
    if f in ("krawtchouk", "hahn") and x > fam.N:
        raise FamilyError(f"{x} outside support 0..{fam.N}")
    if f == "krawtchouk":
        N, p = fam.N, fam.p
        log_comb = (math.lgamma(N + 1) - math.lgamma(x + 1)
                    - math.lgamma(N - x + 1))
        # C(N, x) is formed only where it can be a double
        return _lattice_weight(
            (lambda: math.comb(N, x) * p ** x * (1 - p) ** (N - x))
            if log_comb < 710 else None,
            lambda: log_comb + x * math.log(p) + (N - x) * math.log1p(-p))
    if f == "hahn":
        N, a, b = fam.N, fam.alpha, fam.beta
        return _lattice_weight(
            (lambda: pochhammer(a + 1, x) / math.factorial(x)
             * pochhammer(b + 1, N - x) / math.factorial(N - x))
            if max(x, N - x) <= 170 else None,
            lambda: (math.lgamma(a + 1 + x) - math.lgamma(a + 1)
                     - math.lgamma(x + 1) + math.lgamma(b + 1 + N - x)
                     - math.lgamma(b + 1) - math.lgamma(N - x + 1)))
    if f == "meixner":
        beta, c = fam.beta, fam.c
        return _lattice_weight(
            (lambda: pochhammer(beta, x) * c ** x / math.factorial(x))
            if x <= 170 else None,
            lambda: (math.lgamma(beta + x) - math.lgamma(beta)
                     + x * math.log(c) - math.lgamma(x + 1)))
    a = fam.a
    return _lattice_weight(
        (lambda: a ** x / math.factorial(x)) if x <= 170 else None,
        lambda: x * math.log(a) - math.lgamma(x + 1))


def _lattice_weight(direct, log_weight) -> float:
    """direct() where it is given (its factorials and binomials are doubles)
    and gives a positive finite double, so that such weights keep their
    digits; otherwise exp(log_weight()), which underflows to 0 instead of
    raising once the weight leaves the double range, and which is right
    where a factor of direct() under- or overflowed but the weight did not."""
    w = 0.0
    if direct is not None:
        with contextlib.suppress(OverflowError):
            w = direct()
    if not 0 < w < math.inf:
        lw = log_weight()
        w = math.exp(lw) if lw < 709.78 else math.inf
    return w


def family_measure(fam: FamilySpec, normalized: bool = False) -> Measure:
    """Orthogonality measure on the lattice; `normalized` applies e^{-a} for
    Charlier (the other families are left as displayed).  Shared per family,
    parameter bits and `normalized`, as `families.family_measure` is."""
    return shared_system(fam, ("measure", bool(normalized)),
                         lambda: _lattice_measure(fam, normalized))


def _lattice_measure(fam: FamilySpec, normalized: bool) -> Measure:
    from .measures import discrete_infinite_measure, discrete_measure
    f = fam.family
    if f in ("krawtchouk", "hahn"):
        nodes = np.arange(fam.N + 1, dtype=float)
        weights = np.array([discrete_weight(fam, k) for k in range(fam.N + 1)])
        if not np.all(weights > 0):
            # dropping the point would change the recurrence at high degree
            # silently: Krawtchouk(0.3, 2000) keeps 1437 of its 2001 points
            # and is then wrong by 1e-3 from degree 350 on
            k = int(np.flatnonzero(~(weights > 0))[0])
            raise FamilyError(f"{f} weight w_{k} underflows to 0: the "
                              f"measure on 0..{fam.N} leaves the double range")
        return discrete_measure(nodes, weights)

    def w(k: int) -> float:
        return discrete_weight(fam, k)

    if f == "charlier":
        a = fam.a

        def tail(k: int) -> float:
            # sum_{x > k} a^x/x! <= a^{k+1}/(k+1)! * 1/(1 - a/(k+2))
            if k + 2 <= a:
                return math.exp(a)
            return w(k + 1) / (1 - a / (k + 2))

        norm = math.exp(-a) if normalized else 1.0
        return discrete_infinite_measure(w, tail, normalizer=norm)
    beta, c = fam.beta, fam.c

    def tail(k: int) -> float:
        # ratio w_{x+1}/w_x = c (beta+x)/(x+1) is eventually < r < 1
        r = c * (beta + k + 1) / (k + 2)
        if r >= 1:
            return math.inf
        return w(k + 1) / (1 - r)

    return discrete_infinite_measure(w, tail)


# ---------------------------------------------------------------------------
# difference equations

def difference_residual(fam: FamilySpec, n: int, x: float) -> float:
    """Scaled residual of A(x) p_n(x-1) + B(x) p_n(x) + C(x) p_n(x+1)
    = lambda_n p_n(x).

    Coefficient choices, verified against the series in the tests:
    charlier    A=x, C=a, B=-x-a, lambda_n=-n
    krawtchouk  A=x(1-p), C=p(N-x), B=-(A+C), lambda_n=-n
    meixner     A=x, C=c(x+beta), B=-(A+C), lambda_n=n(c-1)
    hahn        A=x(x-beta-N-1), C=(x+alpha+1)(x-N), B=-(A+C),
                lambda_n=n(n+alpha+beta+1)
    """
    f = fam.family
    if f == "charlier":
        A, C, lam = x, fam.a, -float(n)
    elif f == "krawtchouk":
        A, C, lam = x * (1 - fam.p), fam.p * (fam.N - x), -float(n)
    elif f == "meixner":
        A, C, lam = x, fam.c * (x + fam.beta), n * (fam.c - 1)
    else:  # hahn
        A = x * (x - fam.beta - fam.N - 1)
        C = (x + fam.alpha + 1) * (x - fam.N)
        lam = n * (n + fam.alpha + fam.beta + 1)
    B = -(A + C)
    terms = [A * discrete_eval(fam, n, x - 1),
             B * discrete_eval(fam, n, x),
             C * discrete_eval(fam, n, x + 1),
             -lam * discrete_eval(fam, n, x)]
    scale = max(max(abs(t) for t in terms), 1.0)
    return sum(terms) / scale


def hahn_to_jacobi_limit(n: int, alpha: float, beta: float, N: int,
                         x: float) -> float:
    """Error of Q_n(Nx) against its hypergeometric limit as N grows."""
    if not 0.0 <= x <= 1.0:
        raise FamilyError("need x in [0, 1]")
    lhs = discrete_eval(hahn(alpha, beta, N), n, N * x)
    rhs = hyp([-n, n + alpha + beta + 1], [alpha + 1], x, terms=n)
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# three-term recurrences

def _recurrence_terms(fam: FamilySpec,
                      n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A_n, C_n) at the index array n, of x p_n = -A_n p_{n+1}
    + (A_n + C_n) p_n - C_n p_{n-1} with p_n(0) = 1 (Koekoek, Lesky &
    Swarttouw 2010, (9.5.3), (9.10.3), (9.11.3), (9.14.3))."""
    f = fam.family
    n = np.asarray(n, dtype=float)
    if f == "charlier":
        return np.full_like(n, fam.a), n
    if f == "krawtchouk":
        p, N = fam.p, fam.N
        return p * (N - n), n * (1 - p)
    if f == "meixner":
        beta, c = fam.beta, fam.c
        return c * (n + beta) / (1 - c), n / (1 - c)
    if f != "hahn":
        raise FamilyError(f"{f} is not a discrete family")
    al, be, N = fam.alpha, fam.beta, fam.N
    s = 2 * n + al + be
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        A = ((n + al + be + 1) * (n + al + 1) * (N - n)
             / ((s + 1) * (s + 2)))
        C = n * (n + al + be + N + 1) * (n + be) / (s * (s + 1))
    # at n = 0 the (alpha + beta + 1) factor of A cancels, which keeps it
    # finite for alpha + beta = -1
    A[n == 0] = (al + 1) * N / (al + be + 2)
    C[n == 0] = 0.0
    return A, C


def discrete_system(fam: FamilySpec, monic: bool = False) -> RecurrenceSystem:
    """Three-term recurrence of a discrete family, normalized by p_n(0) = 1
    as in discrete_eval, or monic: (1, A_n + C_n, A_{n-1} C_n), shared by
    every call with the same parameters (see families.shared_system).

    A family on a finite lattice stops at N: coefficients past index N raise
    RecurrenceError, and so does a_N = 0 in the general form.
    """
    return shared_system(fam, "monic" if monic else "general",
                         lambda: _lattice_system(fam, monic))


def _lattice_system(fam: FamilySpec, monic: bool) -> RecurrenceSystem:
    bound = fam.parameters.get("N")

    def rows(j: np.ndarray) -> tuple:
        if bound is not None and j[-1] > bound:
            raise RecurrenceError(f"{fam.family} stops at degree N={bound}; "
                                  f"no coefficients at index {bound + 1}")
        # A_{j-1} for the monic c_j; c_0 = 0 needs no A_{-1}
        A, C = _recurrence_terms(fam, np.arange(j[0] - 1, j[-1] + 1).clip(0))
        if monic:
            c = A[:-1] * C[1:]
            c[j == 0] = 0.0
            return 1.0, A[1:] + C[1:], c
        return -A[1:], A[1:] + C[1:], -C[1:]

    return RecurrenceSystem(rows_fn=rows, form="monic" if monic else "general",
                            p0=1.0, max_index_hint=bound)


def charlier_system(a: float) -> RecurrenceSystem:
    """Three-term recurrence of the Charlier polynomials c_n(x; a)."""
    return discrete_system(charlier(a))
