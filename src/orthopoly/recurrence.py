"""Three-term recurrence systems: evaluation, normalization, Favard checks.

A system is defined by coefficient triples (a_n, b_n, c_n) in

    x p_n(x) = a_n p_{n+1}(x) + b_n p_n(x) + c_n p_{n-1}(x),

with p_0 constant.  Forms: "general" (arbitrary a_n), "monic" (a_n = 1),
"orthonormal" (c_{n+1} = a_n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

FORMS = ("general", "monic", "orthonormal")


class RecurrenceError(ValueError):
    """Invalid or inconsistent recurrence data."""


def _checked_row(coeff_fn, i: int) -> tuple[float, float, float]:
    try:
        return coeff_fn(i)
    except (IndexError, KeyError) as exc:
        raise RecurrenceError(f"coefficients undefined at index {i}") from exc


@dataclass(frozen=True)
class RecurrenceSystem:
    """Orthogonal polynomial system given by its coefficient rows.

    rows_fn(j) returns (a_j, b_j, c_j), arrays or scalars, at an index range
    j; a per-index coeff_fn(n) is wrapped into one.  c_0 is ignored.  Rows
    are computed and validated once, into a table that grows on demand."""

    coeff_fn: Callable[[int], tuple[float, float, float]] | None = None
    form: str = "general"
    p0: float = 1.0
    max_index_hint: int | None = None
    rows_fn: Callable[[np.ndarray], tuple] | None = field(default=None,
                                                          kw_only=True)
    _cache: dict = field(default_factory=lambda: {"abc": np.empty((3, 0)),
                                                  "rows": []},
                         init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.form not in FORMS:
            raise RecurrenceError(f"unknown form {self.form!r}")
        if self.rows_fn is None:
            fn = self.coeff_fn
            object.__setattr__(self, "rows_fn", lambda j: np.array(
                [_checked_row(fn, i) for i in j.tolist()], dtype=float).T)

    def _grow(self, n: int) -> None:
        cache = self._cache
        lo = len(cache["rows"])
        if n < lo:
            return
        block = np.empty((3, n + 1 - lo))
        block[0], block[1], block[2] = self.rows_fn(np.arange(lo, n + 1))
        if not block[0].all():
            raise RecurrenceError(f"a_{lo + np.argmin(block[0] != 0)} = 0")
        cache["abc"] = np.concatenate((cache["abc"], block), axis=1)
        cache["abc"].flags.writeable = False
        cache["rows"] += zip(*block.tolist())

    def table(self, n: int) -> list[tuple[float, float, float]]:
        """Rows (a_j, b_j, c_j) for j = 0..n, as Python floats."""
        self._grow(n)
        return self._cache["rows"][:max(n + 1, 0)]

    def arrays(self, n: int) -> np.ndarray:
        """Read-only (3, n + 1) array of the rows a_j, b_j, c_j, j = 0..n."""
        self._grow(n)
        return self._cache["abc"][:, :max(n + 1, 0)]

    def coeffs(self, n: int) -> tuple[float, float, float]:
        if n < 0:
            raise RecurrenceError(f"coefficient index {n} is negative")
        rows = self._cache["rows"]
        if n >= len(rows):
            self._grow(n)
        return rows[n]


@dataclass(frozen=True)
class NormData:
    """Quadratic norms h_n = <p_n, p_n>, kept as log h_n so that no degree
    leaves the double range."""

    log_h: np.ndarray

    def __post_init__(self):
        log_h = np.array(self.log_h, dtype=float)
        if not np.isfinite(log_h).all():
            raise RecurrenceError("log norms log h_n must be finite")
        log_h.flags.writeable = False
        object.__setattr__(self, "log_h", log_h)

    @property
    def h(self) -> np.ndarray:
        """Read-only exp(log_h): 0 or inf past the double range."""
        with np.errstate(over="ignore", under="ignore"):
            h = np.exp(self.log_h)
        h.flags.writeable = False
        return h


def from_tables(a: Sequence[float], b: Sequence[float], c: Sequence[float],
                form: str = "general", p0: float = 1.0) -> RecurrenceSystem:
    """Build a system from stored coefficient arrays."""
    a = list(map(float, a))
    b = list(map(float, b))
    c = list(map(float, c))

    def coeff(n: int) -> tuple[float, float, float]:
        return a[n], b[n], c[n] if n < len(c) else 0.0

    sys = RecurrenceSystem(coeff, form=form, p0=p0, max_index_hint=len(a) - 1)
    try:  # every row is known: store them at once
        sys.table(len(a) - 1)
    except RecurrenceError:  # reported when a caller reaches the bad row
        pass
    return sys


def eval_poly(sys: RecurrenceSystem, n: int, x, precision: int | None = None):
    """Evaluate p_n(x) by the forward recurrence, as the last of eval_all.

    `precision` switches to mpmath arithmetic with that many decimal digits
    (useful outside the support interval where the recurrence loses accuracy);
    the result is still returned as float/complex.
    """
    if n < 0:
        raise RecurrenceError("degree must be non-negative")
    if precision is None:
        return eval_all(sys, n, x)[-1]
    import mpmath

    with mpmath.workdps(precision):
        p = eval_all(sys, n, mpmath.mpmathify(x))[-1]
        return complex(p) if isinstance(p, mpmath.mpc) else float(p)


def eval_all_derivatives(sys: RecurrenceSystem, n: int, x):
    """Return ([p_0..p_n], [p_0'..p_n'], [p_0''..p_n'']) at x, from one pass
    of the recurrence differentiated once and twice."""
    p_prev, d_prev, s_prev = 0.0, 0.0, 0.0
    p = sys.p0 + 0.0 * x
    d = 0.0 * x
    s = 0.0 * x
    ps, ds, ss = [p], [d], [s]
    for a, b, c in sys.table(n - 1):
        p_next = ((x - b) * p - c * p_prev) / a
        d_next = ((x - b) * d + p - c * d_prev) / a
        s_next = ((x - b) * s + 2 * d - c * s_prev) / a
        p, p_prev = p_next, p
        d, d_prev = d_next, d
        s, s_prev = s_next, s
        ps.append(p)
        ds.append(d)
        ss.append(s)
    return ps, ds, ss


def eval_all(sys: RecurrenceSystem, n: int, x) -> list:
    """Return [p_0(x), ..., p_n(x)], each p_j formed in place for array x."""
    out = [sys.p0 + 0.0 * x]
    if not isinstance(x, np.ndarray):
        p_prev, p = 0.0, out[0]
        for a, b, c in sys.table(n - 1):
            p, p_prev = ((x - b) * p - c * p_prev) / a, p
            out.append(p)
        return out
    tmp = np.empty_like(out[0])
    for j, (a, b, c) in enumerate(sys.table(n - 1)):
        p = x - b
        p *= out[j]
        if j:
            p -= np.multiply(out[j - 1], c, out=tmp)
        p /= a
        out.append(p)
    return out


@dataclass(frozen=True)
class FavardReport:
    products: np.ndarray           # a_n * c_{n+1} for n = 0..upto-1
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def favard_products(sys: RecurrenceSystem, upto: int) -> np.ndarray:
    """a_n c_{n+1} for n < upto; Favard's theorem needs each one positive."""
    a, _, c = sys.arrays(upto)
    return a[:-1] * c[1:]


def validate_favard(sys: RecurrenceSystem, upto: int) -> FavardReport:
    """Check a_n c_{n+1} > 0 for n < upto; report offending products."""
    products = favard_products(sys, upto)
    failures = [(int(n), products[n]) for n in np.flatnonzero(products <= 0)]
    return FavardReport(products=products, failures=failures)


def norms_from_recurrence(sys: RecurrenceSystem, h0: float, k0: float,
                          upto: int) -> NormData:
    """log h_{n+1} = log h_n + log(c_{n+1}/a_n), from log h_0 = log h0.
    k0 only has to be nonzero: no consumer needs the leading coefficients."""
    if h0 <= 0:
        raise RecurrenceError("h0 must be positive")
    if k0 == 0:
        raise RecurrenceError("k0 must be nonzero")
    a, _, c = sys.arrays(upto)
    bad = np.flatnonzero(np.sign(a[:-1]) * np.sign(c[1:]) <= 0)
    if bad.size:
        n = int(bad[0])
        raise RecurrenceError(f"Favard violation at n={n}: "
                              f"a_{n} c_{n + 1} = {a[n] * c[n + 1]} <= 0")
    return NormData(log_h=np.cumsum(np.concatenate(
        ([math.log(h0)], np.log(c[1:] / a[:-1])))))


def convert_form(sys: RecurrenceSystem, norms: NormData,
                 target: str) -> RecurrenceSystem:
    """Convert a system between general/monic/orthonormal normalizations.

    Only h_0 of `norms` is read.  Conversions rescale p_n -> p_n/k_n
    (monic) or p_n -> p_n/sqrt(h_n) (orthonormal), a block of rows at a
    time; any system is a general one, so that target is `sys` itself.
    The orthonormal rows are computed once per `sys`.
    """
    if target not in FORMS:
        raise RecurrenceError(f"unknown target form {target!r}")
    if target == "general" or target == sys.form == "monic":
        return sys

    def b_of(j: np.ndarray) -> np.ndarray:
        return sys.arrays(j[-1])[1, j]

    def monic_c(j: np.ndarray) -> np.ndarray:
        # the monic c_n is the Favard product a_{n-1} c_n, and c_0 = 0
        return np.concatenate(([0.0], favard_products(sys, j[-1])))[j]

    if target == "monic":
        return RecurrenceSystem(
            rows_fn=lambda j: (1.0, b_of(j), monic_c(j)), form="monic",
            p0=1.0, max_index_hint=sys.max_index_hint)

    def ortho_rows(j: np.ndarray) -> tuple:
        prods = favard_products(sys, j[-1] + 1)
        bad = np.flatnonzero(prods[j] <= 0)
        if bad.size:
            raise RecurrenceError(f"Favard violation at n={j[bad[0]]}")
        e = np.sqrt(prods)
        return e[j], b_of(j), np.concatenate(([0.0], e))[j]

    ortho = RecurrenceSystem(
        rows_fn=ortho_rows, form="orthonormal",
        p0=float(sys.p0 / math.sqrt(math.exp(norms.log_h[0]))),
        max_index_hint=sys.max_index_hint)
    # the rows, which do not depend on h_0, are kept in the cache of `sys`;
    # the system itself is not, since it refers back to `sys`, and that
    # cycle would outlive `sys` until the garbage collector's next full pass
    object.__setattr__(ortho, "_cache",
                       sys._cache.setdefault("orthonormal", ortho._cache))
    return ortho


@dataclass(frozen=True)
class SymmetryReport:
    all_b_zero: bool
    max_deviation: float


def check_even_symmetry(sys: RecurrenceSystem, n_max: int,
                        samples: Sequence[float]) -> SymmetryReport:
    """Verify p_n(-x) = (-1)^n p_n(x) at the samples when all b_n vanish."""
    all_b_zero = not sys.arrays(n_max)[1].any()
    worst = 0.0
    if all_b_zero:
        x = np.asarray(samples, dtype=float)
        plus = np.array(eval_all(sys, n_max, x))
        minus = np.array(eval_all(sys, n_max, -x))
        sign = (-1.0) ** np.arange(n_max + 1)[:, None]
        worst = float(np.max(np.abs(minus - sign * plus)
                             / np.maximum(1.0, np.abs(plus)), initial=0.0))
    return SymmetryReport(all_b_zero=all_b_zero, max_deviation=worst)
