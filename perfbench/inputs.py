"""The fixed input pools of the three workloads.

References are computed once for every member of these pools
(`refgen.py`); a run's seed only chooses among pool members and orders the
operations, so every run can be checked against stored values.
"""

from __future__ import annotations

import math
import random

# Family records: name -> parameters.  The benchmark's inputs use exactly
# these parameter values.
PARAMS = {
    "legendre": {},
    "hermite": {},
    "jacobi": {"alpha": 0.5, "beta": 1.5},
    "laguerre": {"alpha": 0.5},
    "gegenbauer": {"lam": 1.5},
    "chebyshev_t": {},
    "chebyshev_u": {},
    "charlier": {"a": 2.0},
}

# The finite discrete measure used by the Stieltjes workload: 60 nodes on
# [-1, 1] with weights 1 + sin(k)/2.
FINITE_NODES = [-1 + 2 * k / 59 for k in range(60)]
FINITE_WEIGHTS = [1 + 0.5 * math.sin(k) for k in range(60)]

LADDER_FAMILIES = tuple(PARAMS)
LADDER_N = (10, 50, 200, 1000)
# Off the lattice, orthonormal Charlier values exceed the double range from
# n = 200 on, so value and kernel operations stop at n = 50 for it.  A dense
# grid also passes through (or next to) lattice points, where p_n is tiny
# next to its derivative and no double-precision evaluation meets a relative
# tolerance once n is large; grid evaluation therefore stops at n = 10.
CHARLIER_VALUE_N = (10, 50)
CHARLIER_GRID_N = (10,)
GRID_POINTS = 1001

STIELTJES_MEASURES = ("legendre", "jacobi", "laguerre", "hermite",
                      "charlier", "finite")
STIELTJES_N = (10, 20, 40)
HANKEL_N = 6

CHECK_TOLS = {"ode": 1e-10, "shift": 1e-10, "cd": 1e-10,
              "quadratic": 1e-11, "orthogonality": 1e-10}
CHECK_FAMILIES = ("legendre", "jacobi", "laguerre", "hermite")
CHECKS = ([(f, ident, n) for f in CHECK_FAMILIES
           for ident in ("ode", "shift", "cd") for n in (10, 30)]
          + [(f, "quadratic", 10) for f in ("legendre", "jacobi")]
          + [(f, "orthogonality", 10) for f in CHECK_FAMILIES])

# expected diagnose verdicts: Carleman, rho(0.3), true-interval limits
DIAGNOSE = {
    "legendre": ("diverges", "diverges", (-1.0, 1.0)),
    "jacobi": ("diverges", "diverges", (-1.0, 1.0)),
    "hermite": ("diverges", "diverges", (-math.inf, math.inf)),
    "laguerre": ("diverges", "diverges", (0.0, math.inf)),
    "charlier": ("diverges", "diverges", (0.0, math.inf)),
}
DIAGNOSE_INTERVAL = 100


def diagnose_tol(degrees: int) -> float:
    """Accepted error of an extrapolated finite endpoint after `degrees`
    degrees: extreme zeros approach it at a rate O(1/N^2)."""
    return 10.0 / degrees ** 2

SERIES_FAMILIES = ("jacobi", "laguerre", "hermite", "gegenbauer")
SERIES_N = (10, 30, 60)
SERIES_X = {"jacobi": (-0.7, -0.2, 0.3, 0.8),
            "gegenbauer": (-0.7, -0.2, 0.3, 0.8),
            "laguerre": (0.5, 3.0, 7.0, 15.0),
            "hermite": (-2.5, -0.5, 1.5, 3.0)}
DISCRETE_N = (10, 30)
DISCRETE_X = (1.0, 3.0, 4.5, 7.25)
AW_Q, AW_PARAMS = 0.5, (0.1, 0.2, 0.3, 0.4)
AW_N = (5, 10)
AW_THETA = (0.3, 0.7, 1.1, 2.0)

# cold CLI pools
TAB_GRIDS = {"legendre": ("-1:1:21", "-0.9:0.9:19", "-1:0.5:16"),
             "hermite": ("-3:3:13", "-2:4:13", "-4:2:25"),
             "charlier": ("0:10:11", "0:6:13", "1:9:17")}
TAB_NMAX = {"legendre": 10, "hermite": 20, "charlier": 5}
CLI_RULES = (("legendre", 20), ("jacobi", 30), ("laguerre", 40),
             ("gegenbauer", 150), ("hermite", 30), ("legendre", 25),
             ("jacobi", 12))


def grid_range(family: str, n: int) -> tuple[float, float]:
    """Evaluation interval: inside the support and inside the double range
    of the orthonormal polynomials."""
    if family == "hermite":
        half = min(math.sqrt(2 * n + 1), 20.0)
        return -half, half
    if family == "laguerre":
        return 0.0, min(4 * n + 2 * PARAMS["laguerre"]["alpha"] + 2, 400.0)
    if family == "charlier":
        return 0.0, 40.0
    return -1.0, 1.0


def value_degrees(family: str) -> tuple[int, ...]:
    """Degrees of the kernel operation (and of stored value references)."""
    return CHARLIER_VALUE_N if family == "charlier" else LADDER_N


def grid_degrees(family: str) -> tuple[int, ...]:
    """Degrees of the grid evaluation."""
    return CHARLIER_GRID_N if family == "charlier" else LADDER_N


def cd_pairs(family: str, n: int) -> list[tuple[float, float]]:
    """Four well separated (x, y) pairs for the kernel operation."""
    lo, hi = grid_range(family, n)
    width = hi - lo
    rng = random.Random(f"cd/{family}/{n}")
    pairs = []
    while len(pairs) < 4:
        x = lo + width * rng.uniform(0.05, 0.95)
        y = lo + width * rng.uniform(0.05, 0.95)
        if abs(x - y) >= 0.1 * width:
            pairs.append((round(x, 6), round(y, 6)))
    return pairs


def rule_keys() -> list[tuple[str, int]]:
    keys = [(f, n) for f in LADDER_FAMILIES for n in LADDER_N]
    return keys + [k for k in CLI_RULES if k not in keys]
