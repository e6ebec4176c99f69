"""High-precision reference values for the benchmark, computed with mpmath.

Everything here is independent of the orthopoly package: recurrence
coefficients come from textbook closed forms, Gauss rules from Newton
iteration on the orthonormal recurrence, and values from the recurrence
run in 50-digit arithmetic.  `refgen.py` calls these once and stores the
results; the benchmark never recomputes them.
"""

from __future__ import annotations

import mpmath as mp

from inputs import FINITE_NODES, FINITE_WEIGHTS, PARAMS

DPS = 50


def _jacobi_base(family):
    p = PARAMS[family]
    if family == "jacobi":
        return mp.mpf(p["alpha"]), mp.mpf(p["beta"])
    if family == "legendre":
        return mp.mpf(0), mp.mpf(0)
    if family == "gegenbauer":
        lam = mp.mpf(p["lam"])
        return lam - mp.mpf(1) / 2, lam - mp.mpf(1) / 2
    if family == "chebyshev_t":
        return -mp.mpf(1) / 2, -mp.mpf(1) / 2
    if family == "chebyshev_u":
        return mp.mpf(1) / 2, mp.mpf(1) / 2
    return None


def monic_bc(family, n_max):
    """Monic recurrence x p_n = p_{n+1} + b_n p_n + c_n p_{n-1}, c_0 = 0."""
    with mp.workdps(DPS + 10):
        b, c = [], []
        base = _jacobi_base(family)
        for n in range(n_max + 2):
            nn = mp.mpf(n)
            if base is not None:
                al, be = base
                if n == 0:
                    b.append((be - al) / (al + be + 2))
                    c.append(mp.mpf(0))
                    continue
                s = 2 * nn + al + be
                b.append((be ** 2 - al ** 2) / (s * (s + 2)))
                if n == 1:
                    c.append(4 * (1 + al) * (1 + be)
                             / ((2 + al + be) ** 2 * (3 + al + be)))
                else:
                    c.append(4 * nn * (nn + al) * (nn + be) * (nn + al + be)
                             / ((s - 1) * s ** 2 * (s + 1)))
            elif family == "hermite":
                b.append(mp.mpf(0))
                c.append(nn / 2)
            elif family == "laguerre":
                al = mp.mpf(PARAMS["laguerre"]["alpha"])
                b.append(2 * nn + al + 1)
                c.append(nn * (nn + al))
            elif family == "charlier":
                a = mp.mpf(PARAMS["charlier"]["a"])
                b.append(nn + a)
                c.append(nn * a)
            else:
                raise KeyError(family)
        return b, c


def classical_abc(family, n_max):
    """Coefficients in each family's classical normalization, the one
    orthopoly's family systems use (c_0 is not meaningful)."""
    with mp.workdps(DPS + 10):
        if family == "jacobi":
            # a_n = k_n/k_{n+1}; b_n and c_n from the monic form
            al, be = _jacobi_base(family)
            b, c = monic_bc(family, n_max)

            def a_of(n):
                if n == 0:
                    return 2 / (al + be + 2)
                return (2 * (n + 1) * (n + al + be + 1)
                        / ((2 * n + al + be + 1) * (2 * n + al + be + 2)))

            return [(a_of(n), b[n], c[n] / a_of(n - 1) if n else mp.mpf(0))
                    for n in range(n_max + 1)]
        out = []
        for n in range(n_max + 1):
            nn = mp.mpf(n)
            if family == "legendre":
                out.append(((nn + 1) / (2 * nn + 1), mp.mpf(0),
                            nn / (2 * nn + 1)))
            elif family == "hermite":
                out.append((mp.mpf(1) / 2, mp.mpf(0), nn))
            elif family == "laguerre":
                al = mp.mpf(PARAMS["laguerre"]["alpha"])
                out.append((-(nn + 1), 2 * nn + al + 1, -(nn + al)))
            elif family == "gegenbauer":
                lam = mp.mpf(PARAMS["gegenbauer"]["lam"])
                out.append(((nn + 1) / (2 * (nn + lam)), mp.mpf(0),
                            (nn + 2 * lam - 1) / (2 * (nn + lam))))
            elif family == "chebyshev_t":
                out.append((mp.mpf(1), mp.mpf(0), mp.mpf(0)) if n == 0
                           else (mp.mpf(1) / 2, mp.mpf(0), mp.mpf(1) / 2))
            elif family == "chebyshev_u":
                out.append((mp.mpf(1) / 2, mp.mpf(0),
                            mp.mpf(1) / 2 if n else mp.mpf(0)))
            elif family == "charlier":
                a = mp.mpf(PARAMS["charlier"]["a"])
                out.append((-a, nn + a, -nn))
            else:
                raise KeyError(family)
        return out


def mu0(family):
    """Total mass of the measure orthopoly attaches to the family
    (unnormalized weights; Charlier with the e^{-a} factor)."""
    with mp.workdps(DPS + 10):
        if family == "hermite":
            return mp.sqrt(mp.pi)
        if family == "laguerre":
            return mp.gamma(mp.mpf(PARAMS["laguerre"]["alpha"]) + 1)
        if family == "charlier":
            return mp.mpf(1)
        al, be = _jacobi_base(family)
        return (2 ** (al + be + 1) * mp.gamma(al + 1) * mp.gamma(be + 1)
                / mp.gamma(al + be + 2))


def orthonormal_values(b, c, m0, n, x, sq=None):
    """(p^_n(x), K_n(x, x)) with p^ orthonormal: K_n = sum_{j<=n} p^_j^2.
    `sq` may carry precomputed square roots of c."""
    x = mp.mpf(x)
    p_prev, p = mp.mpf(0), 1 / mp.sqrt(m0)
    K = p * p
    if sq is None:
        sq = [mp.sqrt(v) for v in c[:n + 1]]
    for j in range(n):
        p, p_prev = ((x - b[j]) * p - sq[j] * p_prev) / sq[j + 1], p
        K += p * p
    return p, K


def orthonormal_rows(b, c, m0, n, x):
    """[p^_0(x), ..., p^_n(x)]."""
    x = mp.mpf(x)
    p_prev, p = mp.mpf(0), 1 / mp.sqrt(m0)
    out = [p]
    sq = [mp.sqrt(v) for v in c[:n + 1]]
    for j in range(n):
        p, p_prev = ((x - b[j]) * p - sq[j] * p_prev) / sq[j + 1], p
        out.append(p)
    return out


def _newton_node(b, sq, n, x):
    """Refine a zero of p^_n by Newton steps; return (node, weight-less
    Christoffel sum)."""
    for _ in range(8):
        p_prev, p = mp.mpf(0), mp.mpf(1)
        d_prev, d = mp.mpf(0), mp.mpf(0)
        for j in range(n):
            t = x - b[j]
            p_next = (t * p - sq[j] * p_prev) / sq[j + 1]
            d_next = (t * d + p - sq[j] * d_prev) / sq[j + 1]
            p_prev, p, d_prev, d = p, p_next, d, d_next
        step = p / d
        x -= step
        if abs(step) <= mp.mpf(10) ** (-DPS + 5) * (1 + abs(x)):
            break
    return x


def gauss_rule(family, n):
    """n-point Gauss rule (nodes ascending, weights) to DPS digits.

    Starting points are the double-precision eigenvalues of the Jacobi
    matrix; Newton on the orthonormal recurrence then gives full precision,
    and weights come from the Christoffel function 1/sum p^_j(x)^2.
    """
    import numpy as np
    from scipy.linalg import eigh_tridiagonal

    with mp.workdps(DPS + 10):
        b, c = monic_bc(family, n)
        m0 = mu0(family)
        sq = [mp.sqrt(v) for v in c[:n + 1]]
        start = eigh_tridiagonal(np.array([float(v) for v in b[:n]]),
                                 np.array([float(v) for v in sq[1:n]]),
                                 eigvals_only=True)
        symmetric = all(v == 0 for v in b[:n])
        idx = range(n // 2, n) if symmetric else range(n)
        nodes, weights = {}, {}
        for i in idx:
            x = _newton_node(b, sq, n, mp.mpf(float(start[i])))
            _, K = orthonormal_values(b, c, m0, n - 1, x, sq)
            nodes[i], weights[i] = x, 1 / K
            if symmetric:
                nodes[n - 1 - i], weights[n - 1 - i] = -x, 1 / K
        xs = [nodes[i] for i in range(n)]
        ws = [weights[i] for i in range(n)]
        if any(xs[i + 1] <= xs[i] for i in range(n - 1)):
            raise ArithmeticError("Newton refinement lost node ordering")
        return xs, ws


def classical_values(family, n_max, x):
    """[(p_j(x), scale_j(x)) for j <= n_max] in the classical normalization.

    scale_j(x) = sqrt(h_j K_j(x,x)/(j+1)) is the RMS size of the first j+1
    polynomials at x, measured in the norm of p_j; value errors are taken
    relative to it, which stays meaningful at the zeros of p_j.
    """
    with mp.workdps(DPS + 10):
        abc = classical_abc(family, n_max)
        b, c = monic_bc(family, n_max)
        m0 = mu0(family)
        x = mp.mpf(x)
        out = []
        p_prev, p = mp.mpf(0), mp.mpf(1)
        h = m0
        rows = orthonormal_rows(b, c, m0, n_max, x)
        K = mp.mpf(0)
        for j in range(n_max + 1):
            K += rows[j] ** 2
            out.append((p, mp.sqrt(h * K / (j + 1))))
            a_j, b_j, c_j = abc[j]
            p, p_prev = ((x - b_j) * p - c_j * p_prev) / a_j, p
            if j + 1 <= n_max:
                h = h * abc[j + 1][2] / a_j
        return out


def finite_monic_bc(n_max):
    """Monic coefficients of the finite discrete measure by the Stieltjes
    procedure in DPS+30 digits (exact sums, so only rounding matters)."""
    with mp.workdps(DPS + 30):
        xs = [mp.mpf(v) for v in FINITE_NODES]
        ws = [mp.mpf(v) for v in FINITE_WEIGHTS]
        p_prev = [mp.mpf(0)] * len(xs)
        p = [mp.mpf(1)] * len(xs)
        b, c = [], [mp.mpf(0)]
        h_prev = None
        for n in range(n_max + 2):
            h = mp.fsum(w * v * v for w, v in zip(ws, p))
            if n:
                c.append(h / h_prev)
            bn = mp.fsum(w * x * v * v for w, x, v in zip(ws, xs, p)) / h
            b.append(bn)
            cn = c[n]
            p, p_prev = [(x - bn) * v - cn * u
                         for x, v, u in zip(xs, p, p_prev)], p
            h_prev = h
        return b[:n_max + 2], c[:n_max + 2]


def moments(kind, k_max):
    """mu_0..mu_k_max of the named measure in closed form."""
    with mp.workdps(DPS + 10):
        out = []
        for k in range(k_max + 1):
            if kind == "finite":
                out.append(mp.fsum(mp.mpf(w) * mp.mpf(x) ** k for x, w in
                                   zip(FINITE_NODES, FINITE_WEIGHTS)))
            elif kind == "hermite":
                out.append(mp.gamma(mp.mpf(k + 1) / 2) if k % 2 == 0
                           else mp.mpf(0))
            elif kind == "laguerre":
                out.append(mp.gamma(k + mp.mpf(PARAMS["laguerre"]["alpha"])
                                    + 1))
            elif kind == "charlier":
                a = mp.mpf(PARAMS["charlier"]["a"])
                # Touchard polynomial: sum_j S(k, j) a^j
                out.append(mp.fsum(_stirling2(k, j) * a ** j
                                   for j in range(k + 1)))
            else:
                al, be = _jacobi_base(kind)
                # x = 2t - 1 turns the integral into Beta functions
                out.append(2 ** (al + be + 1) * mp.fsum(
                    mp.binomial(k, j) * 2 ** j * (-1) ** (k - j)
                    * mp.beta(be + j + 1, al + 1) for j in range(k + 1)))
        return out


def _stirling2(n, k):
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    row = [1] + [0] * k
    for i in range(1, n + 1):
        for j in range(min(i, k), 0, -1):
            row[j] = j * row[j] + row[j - 1]
        row[0] = 0
    return row[k]


def hankel_minors(m0, c, n_max):
    """Delta_n = prod_{k<=n} h_k with h_k = mu_0 c_1 ... c_k."""
    with mp.workdps(DPS + 10):
        out, h, d = [], mp.mpf(m0), mp.mpf(1)
        for n in range(n_max + 1):
            if n:
                h *= c[n]
            d *= h
            out.append(d)
        return out


def askey_wilson(q, n, a, b, c, d, theta):
    """p_n(cos theta; a,b,c,d | q) from its 4phi3 definition."""
    with mp.workdps(DPS + 10):
        q, a, b, c, d = (mp.mpf(v) for v in (q, a, b, c, d))
        e = mp.expj(mp.mpf(theta))

        def qp(z, k):
            out = mp.mpf(1)
            for i in range(k):
                out *= 1 - z * q ** i
            return out

        up = [q ** -n, a * b * c * d * q ** (n - 1), a * e, a / e]
        lo = [a * b, a * c, a * d]
        total = mp.mpf(0)
        for k in range(n + 1):
            t = q ** k / qp(q, k)
            for u in up:
                t *= qp(u, k)
            for v in lo:
                t /= qp(v, k)
            total += t
        val = qp(a * b, n) * qp(a * c, n) * qp(a * d, n) / a ** n * total
        return mp.re(val)
