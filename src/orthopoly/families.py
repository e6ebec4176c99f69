"""The family registry, and the Jacobi, Laguerre and Hermite families with
their special cases.

Series evaluation and the electrostatic zero characterization; the
identities that `check` verifies are in identities.py.  A terminating
series at double arguments is an exact rational: it is summed in integers
and rounded once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .measures import Measure, continuous_measure
from .recurrence import _PUBLISH, RecurrenceSystem, _keep

class FamilyError(ValueError):
    """Invalid family parameters."""


# ---------------------------------------------------------------------------
# shifted factorials and terminating hypergeometric series

def pochhammer(a: float, k: int) -> float:
    """Shifted factorial (a)_k = a (a+1) ... (a+k-1)."""
    out = 1.0
    for i in range(k):
        out *= a + i
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


def _dyadic(*values) -> tuple[list[int], int]:
    """The doubles `values` as integers over one power of two `one`, the
    largest of their denominators: every finite double is a dyadic
    rational.  FamilyError for a non-finite value."""
    for v in values:
        if not math.isfinite(v):
            raise FamilyError(f"series argument {v} is not finite")
    pairs = [float(v).as_integer_ratio() for v in values]
    one = max(q for _, q in pairs)
    return [p * (one // q) for p, q in pairs], one


def _shed(num: int, den: int) -> tuple[int, int]:
    """num/den without the power of two that both carry (num != 0)."""
    s = min((num & -num).bit_length(), (den & -den).bit_length()) - 1
    return num >> s, den >> s


def _horner(ratio, n_terms: int, head=()) -> float:
    """prod(head) * sum_{k < n_terms} t_k with t_0 = 1 and t_{k+1}/t_k =
    ratio(k); ratio(k) and the factors of head are (numerator, denominator)
    pairs of ints.

    Horner's rule from the top term down, s = 1 + ratio(k) s, carries s as
    P/Q in integers with no gcd (a ratio only sheds the power of two that
    its terms share), so no digit is lost to cancellation; the one division
    P/Q rounds the exact sum correctly, and gives +-inf past the double
    range.
    """
    p = q = 1
    for k in range(n_terms - 2, -1, -1):
        rn, rd = ratio(k)
        if rd == 0:
            raise FamilyError(f"a lower parameter hits a pole at term {k}")
        if rn == 0:  # t_{k+1} = 0 ends the series here
            p = q = 1
            continue
        rn, rd = _shed(rn, rd)
        qd = q * rd
        p, q = qd + rn * p, qd
    num = den = 1
    for hn, hd in head:
        hn, hd = _shed(hn, hd) if hn else (0, 1)
        num, den = num * hn, den * hd
    p, q = num * p, den * q
    try:
        return p / q
    except OverflowError:
        return math.inf if (p > 0) == (q > 0) else -math.inf


def hyp(upper, lower, z, terms=None) -> float:
    """A terminating (generalized) hypergeometric series, correctly rounded,
    through the index `terms`, by default the one where the series ends."""
    upper, lower = tuple(upper), tuple(lower)
    (*params, zn), one = _dyadic(*upper, *lower, z)
    n = terms if terms is not None else _termination_index(upper)
    for b in lower:
        if b <= 0 and abs(b - round(b)) < 1e-12 and int(round(-b)) < n:
            raise FamilyError(
                f"lower parameter {b} hits a pole before termination at {n}")
    a, b = params[:len(upper)], params[len(upper):]
    # t_{k+1}/t_k = z prod (a_i + k) / ((k + 1) prod (b_j + k)), each
    # parameter and z over `one`
    e = len(upper) + 1 - len(lower)
    lift, drop = zn * one ** max(-e, 0), one ** max(e, 0)

    def ratio(k):
        num, den = lift, (k + 1) * drop
        for ai in a:
            num *= ai + k * one
        for bi in b:
            den *= bi + k * one
        return num, den

    return _horner(ratio, n + 1)


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
    if not all(math.isfinite(p[k]) for k in PARAMETERS[f]):
        raise FamilyError(f"{f} requires finite parameters, got {p}")
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
        # copy and pickle probe dunders on a bare instance, whose
        # `parameters` is not set yet and would recurse into this method
        if name == "parameters" or name.startswith("__"):
            raise AttributeError(name)
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
    # a non-integral N stays a float, which _validate refuses
    return FamilySpec(name, {k: int(params[k])
                             if k == "N" and math.isfinite(params[k])
                             and params[k] == int(params[k])
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

def _jacobi_sum(n: int, alpha: float, beta: float, x: float,
                prefactor=None) -> float:
    """(c)_n/(d)_n P_n^{(alpha,beta)}(x) for prefactor (c, d), P itself for
    None, with P_n^{(alpha,beta)}(x) = (alpha+1)_n/n!
    2F1(-n, n+alpha+beta+1; alpha+1; (1-x)/2)."""
    if n < 0:
        raise FamilyError("degree must be non-negative")
    (a, b, x, c, d), one = _dyadic(alpha, beta, x, *(prefactor or (1, 1)))
    return _horner(lambda k: ((a + b + (n + 1 + k) * one) * (k - n)
                              * (one - x),
                              (a + (k + 1) * one) * (k + 1) * 2 * one),
                   n + 1, (((c + i * one) * (a + (i + 1) * one),
                            (d + i * one) * (i + 1) * one)
                           for i in range(n)))


def jacobi_eval(n: int, alpha: float, beta: float, x: float) -> float:
    """P_n^{(alpha,beta)}(x) as a terminating Gauss hypergeometric sum,
    correctly rounded."""
    return _jacobi_sum(n, alpha, beta, x)


def laguerre_eval(n: int, alpha: float, x: float) -> float:
    """L_n^{alpha}(x) = (alpha+1)_n/n! 1F1(-n; alpha+1; x), correctly
    rounded."""
    if n < 0:
        raise FamilyError("degree must be non-negative")
    (a, x), one = _dyadic(alpha, x)
    return _horner(lambda k: ((k - n) * x, (a + (k + 1) * one) * (k + 1)),
                   n + 1, ((a + i * one, i * one) for i in range(1, n + 1)))


def hermite_eval(n: int, x: float) -> float:
    """H_n(x) with leading coefficient 2^n, correctly rounded."""
    if n < 0:
        raise FamilyError("degree must be non-negative")
    (x,), one = _dyadic(x)
    # H_n = sum_{i <= m} c_i (2x)^(e + 2i), n = 2m + e, with c_i =
    # (-1)^(m-i) n!/((m-i)! (e+2i)!): a series in (2x)^2 from c_0, so x = 0
    # leaves the first term alone
    m, e = divmod(n, 2)
    return _horner(lambda i: (-(m - i) * 4 * x * x,
                              (e + 2 * i + 1) * (e + 2 * i + 2) * one * one),
                   m + 1, [((-1) ** m * math.prod(range(m + 1, n + 1))
                            * (2 * x) ** e, one ** e)])


def special_case_eval(spec: FamilySpec, n: int, x: float) -> float:
    """Evaluate a family member, routing special cases through Jacobi.  The
    value is correctly rounded for the doubles of classical(spec); for
    Gegenbauer these are lam +- 1/2, rounded where lam has bits below their
    last place."""
    kind, a, b, prefactor = classical(spec)
    if kind == LAGUERRE:
        return laguerre_eval(n, a, x)
    if kind == HERMITE:
        return hermite_eval(n, x)
    return _jacobi_sum(n, a, b, x, prefactor)


# the three classical types of a continuous family
JACOBI, LAGUERRE, HERMITE = "jacobi", "laguerre", "hermite"

# Total masses of the families whose `normalized` measure is a probability
# measure, in closed form (Gamma(1/2)^2 is pi - 1 ulp, 1/sqrt(pi) is pi^-1/2)
_PROBABILITY_MASS = {"legendre": 2.0, "hermite": math.sqrt(math.pi),
                     "chebyshev_t": math.pi}


def classical(spec: FamilySpec):
    """(kind, alpha, beta, prefactor): the classical type of a continuous
    family and its parameters.  For kind JACOBI, p_n = (c)_n/(d)_n
    P_n^{(alpha,beta)} for prefactor (c, d), so prefactor_{n+1}/prefactor_n
    = (c + n)/(d + n) (None where the prefactor is 1); LAGUERRE carries
    alpha and HERMITE nothing.  FamilyError for the lattice families."""
    f = spec.family
    if f == "jacobi":
        return JACOBI, spec.alpha, spec.beta, None
    if f == "laguerre":
        return LAGUERRE, spec.alpha, None, None
    if f == "hermite":
        return HERMITE, None, None, None
    if f == "gegenbauer":
        lam = spec.lam
        return JACOBI, lam - 0.5, lam - 0.5, (2 * lam, lam + 0.5)
    if f == "legendre":
        return JACOBI, 0.0, 0.0, None
    if f == "chebyshev_t":
        return JACOBI, -0.5, -0.5, (1.0, 0.5)
    if f == "chebyshev_u":
        return JACOBI, 0.5, 0.5, (2.0, 1.5)
    raise FamilyError(f"{f} has no classical type")


# ---------------------------------------------------------------------------
# recurrence systems (classical and monic normalizations)

def legendre_system() -> RecurrenceSystem:
    return RecurrenceSystem(
        rows_fn=lambda j: ((j + 1) / (2 * j + 1), 0.0, j / (2 * j + 1)),
        form="general", p0=1.0)


def hermite_system() -> RecurrenceSystem:
    return RecurrenceSystem(rows_fn=lambda j: (0.5, 0.0, j),
                            form="general", p0=1.0)


def laguerre_system(alpha: float) -> RecurrenceSystem:
    return RecurrenceSystem(
        rows_fn=lambda j: (-(j + 1.0), 2 * j + alpha + 1, -(j + alpha)),
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


def jacobi_monic_system(alpha: float, beta: float) -> RecurrenceSystem:
    return RecurrenceSystem(
        rows_fn=lambda j: (1.0, *_jacobi_monic_rows(j, alpha, beta)),
        form="monic", p0=1.0)


def laguerre_monic_system(alpha: float) -> RecurrenceSystem:
    return RecurrenceSystem(
        rows_fn=lambda j: (1.0, 2 * j + alpha + 1, j * (j + alpha)),
        form="monic", p0=1.0)


def hermite_monic_system() -> RecurrenceSystem:
    return RecurrenceSystem(rows_fn=lambda j: (1.0, 0.0, j / 2.0),
                            form="monic", p0=1.0)


def jacobi_system(alpha: float, beta: float,
                  prefactor=None) -> RecurrenceSystem:
    """General-form recurrence of (c)_n/(d)_n P_n^(alpha,beta) for prefactor
    (c, d) (None for P itself), from rational closed forms over an index
    block: b_n is the monic one, a_n = k_n / k_{n+1} = 2(n+1)(n+s+1) /
    ((2n+s+1)(2n+s+2)) (d + n)/(c + n) with s = alpha + beta, and c_n =
    c_n^monic / a_{n-1}."""
    s = alpha + beta

    def rows(j: np.ndarray) -> tuple:
        n = np.arange(j[0] - 1, j[-1] + 1, dtype=float)  # a_{j-1} for c_j
        b, c = _jacobi_monic_rows(j, alpha, beta)
        with np.errstate(divide="ignore", invalid="ignore"):
            a = 2 * (n + 1) * (n + s + 1) / ((2 * n + s + 1) * (2 * n + s + 2))
            a[n == 0] = 2 / (s + 2)   # the factor s + 1 cancels
            if prefactor is not None:
                a /= (prefactor[0] + n) / (prefactor[1] + n)
            c /= a[:-1]
        c[j == 0] = 0.0
        return a[1:], b, c

    return RecurrenceSystem(rows_fn=rows, form="general", p0=1.0)


# The systems of family_system, family_monic_system and
# discrete.discrete_system, the measures of family_measure and
# discrete.family_measure and the bundles of family_bundle, one per family,
# form and parameter bits, kept in the store "systems" of _shared (see
# recurrence._keep), the least recently used dropped past _SYSTEMS_KEPT
_SYSTEMS_KEPT = 64
_shared: dict = {}


def shared_system(spec: FamilySpec, form, build: Callable[[], object]):
    """The one object of `spec` in `form` (a system's form, or a measure's
    or bundle's tag), from build() on first use.  The key holds the exact
    bits of each parameter, so -0.0 and 0.0 differ.  build() runs outside
    the lock, so it may ask for other shared objects; when threads build
    the same key at once, the first one to publish wins and every caller
    gets its object."""
    key = (spec.family, form, tuple(
        (type(v), v if isinstance(v, int) else float(v).hex())
        for v in map(spec.parameters.__getitem__, PARAMETERS[spec.family])))
    return _keep(_shared, "systems", _SYSTEMS_KEPT, key, build)


def clear_systems() -> None:
    """Forget the shared systems, measures and bundles, and what they
    hold: a system's rows, the log-norm increments of
    `recurrence.norms_from_recurrence` and the last 16 spectral entries of
    `kernels._spectrum` (zeros, Gauss denominators, Golub-Welsch nodes and
    u_0^2, extreme-zero chains); a measure's last 16 discretizations and
    last 8 settled results of `measures.recurrence_from_measure` (see
    `measures.Measure`); the bundles of `family_bundle`, so that the next
    one is built from new systems and measures.  The store is emptied under
    `recurrence._PUBLISH`, the lock it is published under."""
    with _PUBLISH:
        _shared.clear()


def family_system(spec: FamilySpec) -> RecurrenceSystem:
    """Three-term recurrence in the family's classical normalization (for
    the discrete families p_n(0) = 1, as in discrete.discrete_eval), shared
    by every call with the same parameters.  The Jacobi-type rows stay
    within a few ulp to any degree (see jacobi_system)."""
    if spec.discrete:
        from .discrete import discrete_system
        return discrete_system(spec)
    return shared_system(spec, "general", lambda: _classical_system(spec))


def _classical_system(spec: FamilySpec) -> RecurrenceSystem:
    kind, a, b, prefactor = classical(spec)
    if kind == LAGUERRE:
        return laguerre_system(a)
    if kind == HERMITE:
        return hermite_system()
    if spec.family == "legendre":
        # its c_n = n/(2n+1) is rounded once; jacobi_system's c_n^monic /
        # a_{n-1} is rounded twice, and 1 ulp away at 541 of n <= 1000
        return legendre_system()
    return jacobi_system(a, b, prefactor)


def family_monic_system(spec: FamilySpec) -> RecurrenceSystem:
    """The monic recurrence, shared as in family_system."""
    if spec.discrete:
        from .discrete import discrete_system
        return discrete_system(spec, monic=True)
    return shared_system(spec, "monic", lambda: _classical_monic_system(spec))


def _classical_monic_system(spec: FamilySpec) -> RecurrenceSystem:
    kind, a, b, _ = classical(spec)
    if kind == LAGUERRE:
        return laguerre_monic_system(a)
    if kind == HERMITE:
        return hermite_monic_system()
    return jacobi_monic_system(a, b)


# ---------------------------------------------------------------------------
# measures and norm seeds

def family_measure(spec: FamilySpec, normalized: bool = False) -> Measure:
    """Orthogonality measure; `normalized` divides by the total mass where
    that makes a probability measure (Legendre, Hermite, Chebyshev-T; e^{-a}
    for Charlier).  One measure per family, parameter bits and `normalized`
    is shared by every call (see `shared_system`), so what it keeps, its
    discretizations and settled recurrences, lasts from call to call within
    the bounds that `measures.Measure` states."""
    if spec.discrete:
        from .discrete import family_measure as lattice_measure
        return lattice_measure(spec, normalized)
    return shared_system(spec, ("measure", bool(normalized)),
                         lambda: _classical_measure(spec, normalized))


def _classical_measure(spec: FamilySpec, normalized: bool) -> Measure:
    kind, a, b, _ = classical(spec)
    mass = _PROBABILITY_MASS.get(spec.family) if normalized else None
    norm = 1.0 / mass if mass else 1.0
    if kind == HERMITE:
        return continuous_measure(lambda x: math.exp(-x * x),
                                  (-math.inf, math.inf), normalizer=norm)
    if kind == LAGUERRE:
        alg = (a, 0.0) if a != 0.0 else None
        return continuous_measure(lambda x: x ** a * math.exp(-x),
                                  (0.0, math.inf), alg_exponents=alg,
                                  alg_smooth=(lambda x: math.exp(-x))
                                  if alg else None)
    return continuous_measure(lambda x: (1 - x) ** a * (1 + x) ** b,
                              (-1.0, 1.0), normalizer=norm,
                              alg_exponents=(b, a), alg_smooth=lambda x: 1.0)


@_in_double_range
def family_mu0(spec: FamilySpec, normalized: bool = False) -> float:
    """Total mass of family_measure, in closed form; FamilyError where a
    factor of that form leaves the double range (Gamma(a + 1) past a =
    170.6)."""
    mass = _PROBABILITY_MASS.get(spec.family)
    if mass is not None:
        return 1.0 if normalized else mass
    kind, a, b, _ = classical(spec)
    if kind == LAGUERRE:
        return math.gamma(a + 1)
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
    """The shared system and measure of `spec` (see `family_system` and
    `family_measure`) and its closed-form h_0 (`family_mu0`).  One bundle
    per family, parameter bits and `normalized` is kept in the store of
    `shared_system`, so a repeat call is one lookup; while it is kept, its
    system and measure are too."""
    return shared_system(spec, ("bundle", bool(normalized)),
                         lambda: FamilyBundle(
                             spec=spec, system=family_system(spec),
                             measure=family_measure(spec, normalized),
                             h0=family_mu0(spec, normalized)))


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
