"""Generate the stored mpmath references (refs.json.gz) for every input pool.

Run once from the repository root, after changing `inputs.py` or
`oracle.py`:

    python3 perfbench/refgen.py

It uses one worker process per available core and takes about four
minutes on two cores, most of it in the degree-1000 Gauss rules.  The
benchmark only reads the result.
"""

from __future__ import annotations

import gzip
import json
import math
import multiprocessing
import os
import sys
import time

import mpmath as mp
import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs as I  # noqa: E402
import oracle as O  # noqa: E402

OUT = os.path.join(HERE, "refs.json.gz")


def _f(v) -> float:
    out = float(v)
    if not math.isfinite(out):
        raise OverflowError(f"reference value {v} is outside the double range")
    return out


def _grid(spec: str) -> np.ndarray:
    a, b, steps = spec.split(":")
    return np.linspace(float(a), float(b), int(steps))


def task_rule(family, n):
    xs, ws = O.gauss_rule(family, n)
    return f"rule/{family}/{n}", {"nodes": [_f(v) for v in xs],
                                  "weights": [float(v) for v in ws]}


def task_eval(family, n):
    with mp.workdps(O.DPS + 10):
        b, c = O.monic_bc(family, n)
        m0 = O.mu0(family)
        sq = [mp.sqrt(v) for v in c[:n + 1]]
        lo, hi = I.grid_range(family, n)
        p, s = [], []
        for x in np.linspace(lo, hi, I.GRID_POINTS):
            v, K = O.orthonormal_values(b, c, m0, n, float(x), sq)
            p.append(_f(v))
            s.append(_f(mp.sqrt(K / (n + 1))))
        cd = []
        for x, y in I.cd_pairs(family, n):
            rx = O.orthonormal_rows(b, c, m0, n, x)
            ry = O.orthonormal_rows(b, c, m0, n, y)
            K = mp.fsum(u * v for u, v in zip(rx, ry))
            scale = mp.sqrt(mp.fsum(u * u for u in rx)
                            * mp.fsum(v * v for v in ry))
            cd.append([x, y, _f(K), _f(scale)])
    return f"eval/{family}/{n}", {"lo": lo, "hi": hi, "p": p, "s": s,
                                  "cd": cd}


def task_small():
    out = {}
    for family in I.LADDER_FAMILIES:
        abc = O.classical_abc(family, max(I.LADDER_N))
        out[f"abc/{family}"] = {k: [_f(t[i]) for t in abc]
                                for i, k in enumerate("abc")}
    for m in I.STIELTJES_MEASURES:
        if m == "finite":
            b, c = O.finite_monic_bc(max(I.STIELTJES_N))
            m0 = mp.fsum(mp.mpf(w) for w in I.FINITE_WEIGHTS)
        else:
            b, c = O.monic_bc(m, max(I.STIELTJES_N))
            m0 = O.mu0(m)
        out[f"monic/{m}"] = {"b": [_f(v) for v in b], "c": [_f(v) for v in c]}
        mu = O.moments(m, 2 * I.HANKEL_N)
        out[f"moments/{m}"] = {
            "mu": [_f(v) for v in mu],
            "minors": [_f(v) for v in O.hankel_minors(m0, c, I.HANKEL_N)]}
    for family in I.SERIES_FAMILIES:
        for n in I.SERIES_N:
            out[f"series/{family}/{n}"] = [
                [x, *map(_f, O.classical_values(family, n, x)[n])]
                for x in I.SERIES_X[family]]
    for n in I.DISCRETE_N:
        out[f"discrete/charlier/{n}"] = [
            [x, *map(_f, O.classical_values("charlier", n, x)[n])]
            for x in I.DISCRETE_X]
    for n in I.AW_N:
        out[f"aw/{n}"] = [[t, _f(O.askey_wilson(I.AW_Q, n, *I.AW_PARAMS, t))]
                          for t in I.AW_THETA]
    for family, grids in I.TAB_GRIDS.items():
        for g in grids:
            rows = [O.classical_values(family, I.TAB_NMAX[family], float(x))
                    for x in _grid(g)]
            out[f"tab/{family}/{g}"] = {
                "p": [[_f(v) for v, _ in r] for r in rows],
                "s": [[_f(s) for _, s in r] for r in rows]}
    return out


def second_opinion(refs: dict) -> float:
    """Largest relative difference between the stored Gauss rules (n <= 200)
    and scipy.special.roots_*, which serve only as a cross-check."""
    from scipy import special as sp
    p = I.PARAMS
    roots = {
        "legendre": sp.roots_legendre,
        "hermite": sp.roots_hermite,
        "jacobi": lambda n: sp.roots_jacobi(n, p["jacobi"]["alpha"],
                                            p["jacobi"]["beta"]),
        "laguerre": lambda n: sp.roots_genlaguerre(n,
                                                   p["laguerre"]["alpha"]),
        "gegenbauer": lambda n: sp.roots_gegenbauer(n, p["gegenbauer"]["lam"]),
        "chebyshev_t": sp.roots_chebyt,
        "chebyshev_u": sp.roots_chebyu,
    }
    worst = 0.0
    for family, n in I.rule_keys():
        if family not in roots or n > 200:
            continue
        x, w = roots[family](n)
        ref = refs[f"rule/{family}/{n}"]
        for got, want in ((x, ref["nodes"]), (w, ref["weights"])):
            want = np.asarray(want)
            worst = max(worst, float(np.max(np.abs(got - want))
                                     / np.max(np.abs(want))))
    return worst


def _run(task):
    name, args = task
    t0 = time.perf_counter()
    res = globals()[name](*args)
    print(f"  {name}{args}: {time.perf_counter() - t0:.1f}s", flush=True)
    return res


def main() -> int:
    tasks = [("task_small", ())]
    tasks += [("task_rule", k) for k in I.rule_keys()]
    tasks += [("task_eval", (f, n)) for f in I.LADDER_FAMILIES
              for n in I.value_degrees(f)]
    # longest first so the pool stays busy
    tasks.sort(key=lambda t: -(t[1][1] if len(t[1]) == 2 else 0))
    refs = {"dps": O.DPS, "mpmath": mp.__version__}
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(len(os.sched_getaffinity(0))) as pool:
        for res in pool.imap_unordered(_run, tasks):
            if isinstance(res, tuple):
                refs[res[0]] = res[1]
            else:
                refs.update(res)
    with gzip.open(OUT, "wt", encoding="utf-8") as fh:
        json.dump(refs, fh, sort_keys=True, allow_nan=False,
                  separators=(",", ":"))
    print(f"wrote {OUT} ({len(refs)} entries); largest difference from "
          f"scipy.special.roots_*: {second_opinion(refs):.1e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
