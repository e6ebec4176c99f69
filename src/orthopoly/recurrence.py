"""Three-term recurrence systems: evaluation, normalization, Favard checks.

A system is defined by coefficient triples (a_n, b_n, c_n) in

    x p_n(x) = a_n p_{n+1}(x) + b_n p_n(x) + c_n p_{n-1}(x),

with p_0 constant.  Forms: "general" (arbitrary a_n), "monic" (a_n = 1),
"orthonormal" (c_{n+1} = a_n).
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import NumericalFailure

FORMS = ("general", "monic", "orthonormal")
_TINY = np.finfo(float).tiny   # the smallest normal double
# makes each table publication a compare-and-set, so tables only grow, and
# guards every store of `_keep`: the package's one lock
_PUBLISH = threading.Lock()


class RecurrenceError(NumericalFailure, ValueError):
    """Invalid or inconsistent recurrence data."""


@dataclass(frozen=True)
class RecurrenceSystem:
    """Orthogonal polynomial system given by its coefficient rows.

    rows_fn(j) returns (a_j, b_j, c_j), arrays or scalars, at an index range
    j.  c_0 multiplies nothing.  Rows are computed and validated once (finite,
    a_j != 0) into a table that grows on demand.  The table is one snapshot
    (abc, rows), replaced whole, so that threads sharing a system each read
    a consistent one."""

    rows_fn: Callable[[np.ndarray], tuple]
    form: str = "general"
    p0: float = 1.0
    max_index_hint: int | None = None
    _cache: dict = field(default_factory=lambda: {"table": (np.empty((3, 0)),
                                                            [])},
                         init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.form not in FORMS:
            raise RecurrenceError(f"unknown form {self.form!r}")

    def _grow(self, n: int) -> tuple[np.ndarray, list]:
        """A snapshot (abc, rows) that holds the rows through index n, taken
        from one read of the table; a longer one is published for the next
        reader.  Rows are elementwise in the index, so threads that grow the
        same rows at once build the same bits."""
        snap = self._cache["table"]
        abc, rows = snap
        lo = len(rows)
        if n < lo:
            return snap
        block = np.empty((3, n + 1 - lo))
        block[0], block[1], block[2] = self.rows_fn(np.arange(lo, n + 1))
        if not block[0].all():
            raise RecurrenceError(f"a_{lo + np.argmin(block[0] != 0)} = 0")
        finite = np.isfinite(block).all(axis=0)
        if not finite.all():
            k = int(np.argmin(finite))
            raise RecurrenceError(f"row {lo + k} is not finite: (a, b, c) = "
                                  f"{tuple(block[:, k].tolist())}")
        abc = np.concatenate((abc, block), axis=1)
        abc.flags.writeable = False
        snap = abc, rows + list(zip(*block.tolist()))
        with _PUBLISH:
            if len(self._cache["table"][1]) < len(snap[1]):
                self._cache["table"] = snap
        return snap

    def table(self, n: int) -> list[tuple[float, float, float]]:
        """Rows (a_j, b_j, c_j) for j = 0..n, as Python floats."""
        return self._grow(n)[1][:max(n + 1, 0)]

    def arrays(self, n: int) -> np.ndarray:
        """Read-only (3, n + 1) array of the rows a_j, b_j, c_j, j = 0..n."""
        return self._grow(n)[0][:, :max(n + 1, 0)]

    def coeffs(self, n: int) -> tuple[float, float, float]:
        if n < 0:
            raise RecurrenceError(f"coefficient index {n} is negative")
        return self._grow(n)[1][n]


@dataclass(frozen=True)
class NormData:
    """Quadratic norms h_n = <p_n, p_n>, kept as log h_n so that no degree
    leaves the double range."""

    log_h: np.ndarray

    def __post_init__(self):
        log_h = np.array(self.log_h, dtype=float)
        if np.count_nonzero(np.isfinite(log_h)) < log_h.size:
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
    """Build a system from stored coefficient arrays (c padded with 0);
    an index past them raises."""
    a, b, c = (np.array([float(v) for v in t]) for t in (a, b, c))
    size = min(len(a), len(b))
    c = np.concatenate((c, np.zeros(max(size - len(c), 0))))

    def rows(j: np.ndarray) -> tuple:
        if j[-1] >= size:
            raise RecurrenceError(f"coefficients undefined at index {size}")
        return a[j], b[j], c[j]

    return RecurrenceSystem(rows_fn=rows, form=form, p0=p0,
                            max_index_hint=size - 1)


def eval_poly(sys: RecurrenceSystem, n: int, x):
    """p_n(x) by the forward recurrence: the last of eval_all, copied for
    array x so that it does not hold the other degrees."""
    p = eval_all(sys, n, x)[-1]
    return p.copy() if isinstance(x, np.ndarray) else p


def _rows_to(sys: RecurrenceSystem, n: int) -> list:
    """The rows that carry p_0 up to p_n; a negative degree raises."""
    if n < 0:
        raise RecurrenceError("degree must be non-negative")
    return sys.table(n - 1)


def _pass(rows, p0: float, x: np.ndarray, out: np.ndarray):
    """Form the state of degree j at the points x (1-D) in out[j % len(out)],
    then yield j, for j = 0, 1, ..., a step per row (a_j, b_j, c_j), c_0
    unread: p_j for out of shape (slots, m), (p_j, p_j'[, p_j'']) for
    (slots, order + 1, m), by a_j p_{j+1}^(k) = (x - b_j) p_j^(k) + k
    p_j^(k-1) - c_j p_{j-1}^(k).  Overflow is left to the caller's errstate."""
    order = out.shape[1] - 1 if out.ndim == 3 else 0
    # a view of out per step, not a list of views of every slot: for a full
    # table (`_kept`) that list would hold n + 1 Python objects (about 110
    # bytes each) for the whole pass
    tmp, size = np.empty_like(out[0]), len(out)
    cur = np.multiply(x, 0.0, out[0])   # p_0 = p0 + 0 x, p_0^(k) = 0 x
    cur[0 if order else ...] += p0
    yield 0
    for j, (a, b, c) in enumerate(rows):
        nxt = out[(j + 1) % size]
        # (x - b) p^(k) in one operand order for values and derivatives, so
        # that their complex values round alike
        np.multiply(np.subtract(x, b, nxt) if b else x, cur, nxt)
        if order:
            nxt[1] += cur[0]
            if order == 2:
                nxt[2] += np.multiply(cur[1], 2.0, tmp[2])
        if j:
            nxt -= np.multiply(prev, c, tmp)
        nxt /= a
        prev, cur = cur, nxt
        yield j + 1


def _kept(sys: RecurrenceSystem, n: int, x, order: int) -> np.ndarray:
    """The (n + 1[, order + 1], *x.shape) states of `_pass`: inf or nan
    past the double range, without warnings, as in the Python-float loop."""
    rows, x = _rows_to(sys, n), np.asarray(x)
    out = np.empty((n + 1,) + (order + 1,) * (order > 0) + (x.size,),
                   np.result_type(sys.p0, x))
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in _pass(rows, sys.p0, x.reshape(-1), out):
            pass
    return out.reshape(out.shape[:-1] + x.shape)


def eval_all_derivatives(sys: RecurrenceSystem, n: int, x,
                         order: int = 2) -> np.ndarray:
    """(order + 1, n + 1, *x.shape) array of p_0..p_n at x and their first
    (and, for order 2, second) derivatives, a view of contiguous states."""
    return _kept(sys, n, x, order).swapaxes(0, 1)


def eval_all(sys: RecurrenceSystem, n: int, x):
    """[p_0(x), ..., p_n(x)] by a Python-float loop for scalar x (a numpy
    scalar as its Python number; mpmath numbers too), an (n + 1, *x.shape)
    array by `_pass` for array x."""
    if isinstance(x, np.ndarray):
        return _kept(sys, n, x, 0)
    if isinstance(x, np.generic):
        x = x.item()
    out = [sys.p0 + 0.0 * x]
    p_prev, p = 0.0, out[0]
    for a, b, c in _rows_to(sys, n):
        p, p_prev = ((x - b) * p - c * p_prev) / a, p
        out.append(p)
    return out


class FavardReport(NamedTuple):
    products: np.ndarray           # a_n * c_{n+1} for n = 0..upto-1
    failures: list

    @property
    def passed(self) -> bool:
        return not self.failures


def favard_products(sys: RecurrenceSystem, upto: int) -> np.ndarray:
    """a_n c_{n+1} for n < upto; Favard's theorem needs each one positive.
    A product past the double range is +-inf or 0, without a warning."""
    a, _, c = sys.arrays(upto)
    with np.errstate(over="ignore", under="ignore"):
        return a[:-1] * c[1:]


def favard_roots(sys: RecurrenceSystem, upto: int) -> np.ndarray:
    """e_n = sqrt(a_n c_{n+1}) for n < upto: the orthonormal a_n and the
    off-diagonal of the Jacobi matrix.  RecurrenceError at the first n whose
    product is not positive.  Where the product of the finite factors
    overflows, or underflows below the normal range, e_n is
    sqrt|a_n| sqrt|c_{n+1}| instead, which is in range."""
    prods = favard_products(sys, upto)
    normal = (prods >= _TINY) & (prods < math.inf)
    if normal.all():
        return np.sqrt(prods)
    a, _, c = sys.arrays(upto)
    a, c = a[:-1], c[1:]
    bad = np.flatnonzero(np.sign(a) != np.sign(c))
    if bad.size:
        raise RecurrenceError(f"Favard violation at n={bad[0]}")
    e = np.sqrt(prods)
    far = ~normal
    e[far] = np.sqrt(np.abs(a[far])) * np.sqrt(np.abs(c[far]))
    return e


def validate_favard(sys: RecurrenceSystem, upto: int) -> FavardReport:
    """Check a_n c_{n+1} > 0 for n < upto; report offending products."""
    products = favard_products(sys, upto)
    failures = [(int(n), products[n]) for n in np.flatnonzero(products <= 0)]
    return FavardReport(products=products, failures=failures)


def norms_from_recurrence(sys: RecurrenceSystem, h0: float, k0: float,
                          upto: int) -> NormData:
    """log h_{n+1} = log h_n + log(c_{n+1}/a_n), from log h_0 = log h0.
    k0 only has to be nonzero: no consumer needs the leading coefficients.
    The increments, after an exact sign check of each a_n c_{n+1}, are kept
    in the cache of `sys` and computed again only for a longer chain, so a
    call on a shared system is the cumulative sum from log h0."""
    if h0 <= 0:
        raise RecurrenceError("h0 must be positive")
    if k0 == 0:
        raise RecurrenceError("k0 must be nonzero")
    return NormData(log_h=np.concatenate(
        ((math.log(h0),), _log_steps(sys, upto))).cumsum())


def _log_steps(sys: RecurrenceSystem, upto: int) -> np.ndarray:
    """Read-only log(c_{n+1}/a_n) for n < upto; RecurrenceError at the first
    n whose a_n c_{n+1} is not positive.  The longest chain computed so far
    is kept in `sys._cache` (a chain of length L holds the rows through L)
    and published as the rows are."""
    steps = sys._cache.get("log_steps")
    if steps is None or len(steps) < upto:
        a, _, c = sys.arrays(upto)
        bad = np.flatnonzero(np.sign(a[:-1]) * np.sign(c[1:]) <= 0)
        if bad.size:
            n = int(bad[0])
            raise RecurrenceError(f"Favard violation at n={n}: "
                                  f"a_{n} c_{n + 1} = {a[n] * c[n + 1]} <= 0")
        with np.errstate(divide="ignore"):   # NormData refuses a -inf
            steps = np.log(c[1:] / a[:-1])
        steps.flags.writeable = False
        if upto >= 0:   # a negative upto grows no row
            with _PUBLISH:
                kept = sys._cache.get("log_steps")
                if kept is None or len(kept) < len(steps):
                    sys._cache["log_steps"] = steps
    return steps[:max(upto, 0)]


def _keep(cache: dict, store: str, bound: int, key,
          make: Callable[[], object]):
    """make(), kept in the store `store` of `cache` under exactly `key`, so
    that a repeat call returns the same object: the package's one policy for
    what it keeps (shared family objects, a measure's discretizations and
    settled recurrences, a system's spectra).  A miss runs make() outside
    any lock, so make() may ask for other kept objects, and publishes its
    result under `_PUBLISH`, as systems publish their rows; the first result
    published wins.  Past `bound` entries the least recently used one is
    dropped.  Nothing is kept when make() raises."""
    with _PUBLISH:
        entries = cache.setdefault(store, OrderedDict())
        found = entries.get(key)
        if found is not None:
            entries.move_to_end(key)
            return found
    value = make()
    with _PUBLISH:
        value = entries.setdefault(key, value)
        entries.move_to_end(key)
        if len(entries) > bound:
            entries.popitem(last=False)
    return value


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
        e = favard_roots(sys, j[-1] + 1)
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


def orthonormal_from(sys: RecurrenceSystem, h0: float) -> RecurrenceSystem:
    """The orthonormal form of `sys` for the norm h_0 = <p_0, p_0> = h0."""
    return convert_form(sys, norms_from_recurrence(sys, h0, 1.0, 0),
                        "orthonormal")
