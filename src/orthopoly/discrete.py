"""Discrete orthogonal families: Krawtchouk, Hahn, Meixner, Charlier.

A lattice family is described in two table rows: its parameters and their
domain in families.FAMILIES, and its terminating hypergeometric series,
lattice weight, three-term recurrence and tail bound in _LATTICE below
(Koekoek, Lesky & Swarttouw 2010, ch. 9).  The functions of this module
look a family up in _LATTICE, so a new lattice family is one row in each
table.
"""

from __future__ import annotations

import contextlib
import math
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .families import (PARAMETERS, FamilyError, FamilySpec, hyp,
                       pochhammer, shared_system)
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
# the lattice table

class _Lattice(NamedTuple):
    """A row of _LATTICE, for p_n with p_n(0) = 1.  Each function takes
    the family's parameters last, in the order of families.PARAMETERS:
    series(n, x) gives (upper, lower, z) of p_n(x) = pFq(upper; lower; z);
    weight(x) w_x, 0.0 where its factors are not all doubles, and
    log_weight(x) log w_x; rows(n) (A_n, C_n) at the float index array n,
    of x p_n = -A_n p_{n+1} + (A_n + C_n) p_n - C_n p_{n-1}; tail(w, k)
    bounds the sum of the weights w(x) past k on an infinite lattice; and
    normalizer() makes the `normalized` measure a probability measure."""

    series: Callable
    weight: Callable
    log_weight: Callable
    rows: Callable
    tail: Callable | None = None
    normalizer: Callable | None = None


def _log_binomial(N: int, x: int) -> float:
    return math.lgamma(N + 1) - math.lgamma(x + 1) - math.lgamma(N - x + 1)


def _hahn_rows(n: np.ndarray, al: float, be: float, N: int) -> tuple:
    s = 2 * n + al + be
    A = (n + al + be + 1) * (n + al + 1) * (N - n) / ((s + 1) * (s + 2))
    C = n * (n + al + be + N + 1) * (n + be) / (s * (s + 1))
    # at n = 0 the (alpha + beta + 1) factor of A cancels, which keeps it
    # finite for alpha + beta = -1
    A[n == 0] = (al + 1) * N / (al + be + 2)
    C[n == 0] = 0.0
    return A, C


def _geometric_tail(w, k: int, r: float) -> float:
    """w(k + 1)/(1 - r), the sum of the weights past k where each ratio
    w_{x+1}/w_x past k is at most r < 1; inf for r >= 1."""
    return w(k + 1) / (1 - r) if r < 1 else math.inf


# The rows of KLS sections 9.11, 9.5, 9.10 and 9.14, in the order of the
# table.  A direct weight is formed only where its binomial or factorials
# are doubles.
_LATTICE = {
    "krawtchouk": _Lattice(
        series=lambda n, x, p, N: ([-n, -x], [-N], 1 / p),
        weight=lambda x, p, N: (math.comb(N, x) * p ** x * (1 - p) ** (N - x)
                                if _log_binomial(N, x) < 710 else 0.0),
        log_weight=lambda x, p, N: (_log_binomial(N, x) + x * math.log(p)
                                    + (N - x) * math.log1p(-p)),
        rows=lambda n, p, N: (p * (N - n), n * (1 - p))),
    "hahn": _Lattice(
        series=lambda n, x, a, b, N: ([-n, n + a + b + 1, -x],
                                      [a + 1, -N], 1),
        weight=lambda x, a, b, N: (pochhammer(a + 1, x) / math.factorial(x)
                                   * pochhammer(b + 1, N - x)
                                   / math.factorial(N - x)
                                   if max(x, N - x) <= 170 else 0.0),
        log_weight=lambda x, a, b, N: (
            math.lgamma(a + 1 + x) - math.lgamma(a + 1) - math.lgamma(x + 1)
            + math.lgamma(b + 1 + N - x) - math.lgamma(b + 1)
            - math.lgamma(N - x + 1)),
        rows=_hahn_rows),
    "meixner": _Lattice(
        series=lambda n, x, beta, c: ([-n, -x], [beta], 1 - 1 / c),
        weight=lambda x, beta, c: (pochhammer(beta, x) * c ** x
                                   / math.factorial(x) if x <= 170 else 0.0),
        log_weight=lambda x, beta, c: (math.lgamma(beta + x)
                                       - math.lgamma(beta) + x * math.log(c)
                                       - math.lgamma(x + 1)),
        rows=lambda n, beta, c: (c * (n + beta) / (1 - c), n / (1 - c)),
        # the ratio w_{x+1}/w_x = c (beta + x)/(x + 1) is eventually < 1
        tail=lambda w, k, beta, c: _geometric_tail(
            w, k, c * (beta + k + 1) / (k + 2))),
    "charlier": _Lattice(
        series=lambda n, x, a: ([-n, -x], [], -1 / a),
        weight=lambda x, a: a ** x / math.factorial(x) if x <= 170 else 0.0,
        log_weight=lambda x, a: x * math.log(a) - math.lgamma(x + 1),
        rows=lambda n, a: (np.full_like(n, a), n),
        # the weights sum to e^a, and past k + 2 > a their ratio is
        # a/(x + 1) < a/(k + 2)
        tail=lambda w, k, a: (math.exp(a) if k + 2 <= a else
                              _geometric_tail(w, k, a / (k + 2))),
        normalizer=lambda a: math.exp(-a)),
}


def _row(fam: FamilySpec) -> tuple[_Lattice, list]:
    """The _LATTICE row of fam and its parameters in order."""
    row = _LATTICE.get(fam.family)
    if row is None:
        raise FamilyError(f"{fam.family} is not a discrete family")
    return row, [fam.parameters[k] for k in PARAMETERS[fam.family]]


# ---------------------------------------------------------------------------
# evaluation and weights

def discrete_eval(fam: FamilySpec, n: int, x: float) -> float:
    """Value of the degree-n family member at x (x need not be a lattice point)."""
    row, ps = _row(fam)
    if n < 0:
        raise FamilyError("degree must be non-negative")
    bound = fam.parameters.get("N")
    if bound is not None and n > bound:
        raise FamilyError(f"degree {n} exceeds family bound N={bound}")
    return hyp(*row.series(n, x, *ps), terms=n)


def discrete_weight(fam: FamilySpec, x: int) -> float:
    """Lattice weight w_x: the direct form of its row where that gives a
    positive finite double, so that such weights keep their digits;
    otherwise exp of its log weight, which underflows to 0 instead of
    raising once the weight leaves the double range, and which is right
    where a factor of the direct form under- or overflowed but the weight
    did not."""
    row, ps = _row(fam)
    if x != int(x) or x < 0:
        raise FamilyError(f"{x} is not in the lattice support")
    x = int(x)
    bound = fam.parameters.get("N")
    if bound is not None and x > bound:
        raise FamilyError(f"{x} outside support 0..{bound}")
    w = 0.0
    with contextlib.suppress(OverflowError):
        w = row.weight(x, *ps)
    if not 0 < w < math.inf:
        lw = row.log_weight(x, *ps)
        w = math.exp(lw) if lw < 709.78 else math.inf
    return w


def family_measure(fam: FamilySpec, normalized: bool = False) -> Measure:
    """Orthogonality measure on the lattice; `normalized` applies e^{-a} for
    Charlier (the other families are left as displayed).  Shared per family,
    parameter bits and `normalized`, as `families.family_measure` is."""
    row, ps = _row(fam)
    return shared_system(fam, ("measure", bool(normalized)),
                         lambda: _lattice_measure(fam, row, ps, normalized))


def _lattice_measure(fam: FamilySpec, row: _Lattice, ps: list,
                     normalized: bool) -> Measure:
    from .measures import discrete_infinite_measure, discrete_measure
    bound = fam.parameters.get("N")
    if bound is not None:
        nodes = np.arange(bound + 1, dtype=float)
        weights = np.array([discrete_weight(fam, k) for k in range(bound + 1)])
        if not np.all(weights > 0):
            # dropping the point would change the recurrence at high degree
            # silently: Krawtchouk(0.3, 2000) keeps 1437 of its 2001 points
            # and is then wrong by 1e-3 from degree 350 on
            k = int(np.flatnonzero(~(weights > 0))[0])
            raise FamilyError(f"{fam.family} weight w_{k} underflows to 0: "
                              f"the measure on 0..{bound} leaves the double "
                              f"range")
        return discrete_measure(nodes, weights)

    def w(k: int) -> float:
        return discrete_weight(fam, k)

    norm = (row.normalizer(*ps) if normalized and row.normalizer is not None
            else 1.0)
    return discrete_infinite_measure(w, lambda k: row.tail(w, k, *ps),
                                     normalizer=norm)


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

def discrete_system(fam: FamilySpec, monic: bool = False) -> RecurrenceSystem:
    """Three-term recurrence of a discrete family, normalized by p_n(0) = 1
    as in discrete_eval, or monic: (1, A_n + C_n, A_{n-1} C_n), shared by
    every call with the same parameters (see families.shared_system).

    A family on a finite lattice stops at N: coefficients past index N raise
    RecurrenceError, and so does a_N = 0 in the general form.
    """
    row, ps = _row(fam)
    return shared_system(fam, "monic" if monic else "general",
                         lambda: _lattice_system(fam, row, ps, monic))


def _lattice_system(fam: FamilySpec, row: _Lattice, ps: list,
                    monic: bool) -> RecurrenceSystem:
    bound = fam.parameters.get("N")

    def rows(j: np.ndarray) -> tuple:
        if bound is not None and j[-1] > bound:
            raise RecurrenceError(f"{fam.family} stops at degree N={bound}; "
                                  f"no coefficients at index {bound + 1}")
        # A_{j-1} for the monic c_j; c_0 = 0 needs no A_{-1}
        n = np.arange(j[0] - 1, j[-1] + 1).clip(0).astype(float)
        # a row past the double range is inf or nan, which the system
        # reports by its index
        with np.errstate(all="ignore"):
            A, C = row.rows(n, *ps)
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
