"""The three workloads: seeded operation lists and their correctness checks.

An operation ("op") is one library call, or for `cli-cold` one cold CLI
process.  `run()` does the work that is timed; `judge(result, refs)` then
compares the result with the stored mpmath references and returns a
`Verdict`.  Inputs depend on the seed only through the order of the ops and the
Askey-Wilson angles, chosen from a fixed pool, so every op has a stored
reference and the mix of ops, hence which known defects are hit, is the
same for every seed.
"""

from __future__ import annotations

import contextlib
import csv
import io as _stdio
import json
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import inputs as I
from inputs import FINITE_NODES, FINITE_WEIGHTS, PARAMS

EPS = 2.0 ** -52
MOMENT_TOL = 1e-9
CLI_TIMEOUT_S = 30
DIGITS_CAP = -math.log10(2.0 ** -53)
CLI_LAUNCH = "import sys; from orthopoly.cli import main; sys.exit(main())"
_TRACEBACK = "Traceback (most recent call last)"
_TB_FILE = re.compile(r'File ".*?orthopoly[/\\](\w+)\.py"')


def tol_n(n: int) -> float:
    """Stated tolerance of a degree-n result: 100 n unit roundoffs,
    relative to the result's natural scale."""
    return 100 * max(n, 1) * EPS


@dataclass
class Verdict:
    kind: str                 # ok | wrong | exit1 | exit2 | traceback |
    err: float = math.inf     # schema_invalid | raised
    tol: float = 0.0
    module: str = ""
    detail: str = ""

    @property
    def digits(self) -> float:
        if self.kind != "ok":
            return 0.0
        return min(DIGITS_CAP, -math.log10(max(self.err, 2.0 ** -53)))


def worst(*errs) -> float:
    """Largest error; a NaN or infinite one makes the result infinite
    (Python's max() would let a NaN through depending on its position)."""
    errs = [float(e) for e in errs]
    return max(errs) if all(math.isfinite(e) for e in errs) else math.inf


def graded(err: float, tol: float, owner: str) -> Verdict:
    err = float(err)
    if math.isfinite(err) and err <= tol:
        return Verdict("ok", err, tol)
    return Verdict("wrong", err if math.isfinite(err) else math.inf, tol,
                   owner)


@dataclass
class Op:
    name: str
    owner: str
    run: Callable[[], object]
    judge: Callable[[object, dict], Verdict]


# ---------------------------------------------------------------------------
# error measures

def vec_err(x, ref) -> float:
    """Norm-wise relative error max|x - ref| / max|ref|."""
    x = np.asarray(x, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if x.shape != ref.shape:
        return math.inf
    with np.errstate(all="ignore"):
        err = float(np.max(np.abs(x - ref)) / max(np.max(np.abs(ref)),
                                                  1e-300))
    return err if math.isfinite(err) else math.inf


def scaled_err(x, ref, scale) -> float:
    """max |x - ref| / scale, elementwise scales."""
    x = np.asarray(x, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if x.shape != ref.shape:
        return math.inf
    with np.errstate(all="ignore"):
        err = float(np.max(np.abs(x - ref) / np.asarray(scale, dtype=float)))
    return err if math.isfinite(err) else math.inf


def general_table_err(a, b, c, ref: dict, n: int) -> float:
    """Per-index error of (a_j, b_j, c_j), j <= n, relative to
    |a_j| + |b_j| + |c_j|; c_0 carries no information and is skipped."""
    if min(len(a), len(b), len(c)) != n + 1:
        return math.inf
    ra, rb, rc = (np.asarray(ref[k][:n + 1]) for k in "abc")
    ca = np.array(c, dtype=float)
    ca[0], rc = 0.0, rc.copy()
    rc[0] = 0.0
    scale = np.abs(ra) + np.abs(rb) + np.abs(rc)
    with np.errstate(all="ignore"):
        d = np.maximum.reduce([np.abs(np.asarray(a, float) - ra),
                               np.abs(np.asarray(b, float) - rb),
                               np.abs(ca - rc)]) / scale
    err = float(np.max(d))
    return err if math.isfinite(err) else math.inf


def monic_table_err(b, c, ref: dict, n: int) -> float:
    """Per-index error of the Jacobi-matrix entries b_j and sqrt(c_j),
    relative to the row size |b_j| + sqrt(c_j) + sqrt(c_{j+1})."""
    if min(len(b), len(c)) < n + 1:
        return math.inf
    rb = np.asarray(ref["b"][:n + 1])
    rc = np.asarray(ref["c"][:n + 2])
    with np.errstate(all="ignore"):
        db = np.abs(np.asarray(b[:n + 1], float) - rb)
        dc = np.abs(np.asarray(c[1:n + 1], float) - rc[1:n + 1]) \
            / (2 * np.sqrt(rc[1:n + 1]))
        scale = np.abs(rb) + np.sqrt(rc[:n + 1]) + np.sqrt(rc[1:n + 2])
        return worst(np.max(db / scale), np.max(dc / scale[1:]) if n else 0)


# ---------------------------------------------------------------------------
# library handles

def family_spec(family: str):
    from orthopoly import discrete, families
    p = PARAMS[family]
    if family == "charlier":
        return discrete.charlier(p["a"])
    return families.FamilySpec(family, {k: float(v) for k, v in p.items()})


def family_args(family: str) -> list[str]:
    return [x for k, v in PARAMS[family].items() for x in (f"--{k}", str(v))]


# ---------------------------------------------------------------------------
# degree-ladder

def ladder_ops(seed: int) -> list[Op]:
    from orthopoly import discrete as D
    from orthopoly import families as F
    from orthopoly import io as IO
    from orthopoly import kernels as K
    from orthopoly import recurrence as R
    rng = random.Random(seed)
    ops: list[Op] = []

    for family in I.LADDER_FAMILIES:
        spec = family_spec(family)
        charlier = family == "charlier"
        coeff_owner = "discrete" if charlier else "families"

        def system(spec=spec, charlier=charlier):
            return (D.charlier_system(spec.a) if charlier
                    else F.family_system(spec))

        def mu0(spec=spec, charlier=charlier):
            return 1.0 if charlier else F.family_mu0(spec)

        for n in I.LADDER_N:
            key = f"{family}/{n}"

            def gauss(n=n, spec=spec, charlier=charlier):
                if charlier:
                    s = D.charlier_system(spec.a)
                    m, h0 = D.family_measure(spec, True), 1.0
                else:
                    b = F.family_bundle(spec)
                    s, m, h0 = b.system, b.measure, b.h0
                norms = R.norms_from_recurrence(s, h0, 1.0, n + 1)
                return K.gauss_rule(s, norms, m, n, 1e-12)

            def judge_gauss(rule, refs, key=key, n=n):
                ref = refs[f"rule/{key}"]
                return graded(worst(vec_err(rule.nodes, ref["nodes"]),
                                    vec_err(rule.weights, ref["weights"])),
                              tol_n(n), "kernels")

            def zeros(n=n, system=system):
                return K.zeros(system(), None, n)

            def judge_zeros(zs, refs, key=key, n=n):
                return graded(vec_err(zs, refs[f"rule/{key}"]["nodes"]),
                              tol_n(n), "kernels")

            def table(n=n, system=system):
                return IO.dump_recurrence(system(), n)["coefficients"]

            def judge_table(t, refs, family=family, n=n,
                            coeff_owner=coeff_owner):
                return graded(general_table_err(t["a"], t["b"], t["c"],
                                                refs[f"abc/{family}"], n),
                              tol_n(n), coeff_owner)

            ops += [Op(f"gauss_rule/{key}", "kernels", gauss, judge_gauss),
                    Op(f"zeros/{key}", "kernels", zeros, judge_zeros),
                    Op(f"coeff_table/{key}", coeff_owner, table, judge_table)]

            if n not in I.value_degrees(family):
                continue
            lo, hi = I.grid_range(family, n)
            grid = np.linspace(lo, hi, I.GRID_POINTS)
            pairs = I.cd_pairs(family, n)

            def eval_grid(n=n, grid=grid, system=system, mu0=mu0):
                s = system()
                norms = R.norms_from_recurrence(s, mu0(), 1.0, 1)
                ortho = R.convert_form(s, norms, "orthonormal")
                return R.eval_all(ortho, n, grid)[n]

            def judge_eval(vals, refs, key=key, n=n):
                ref = refs[f"eval/{key}"]
                return graded(scaled_err(vals, ref["p"], ref["s"]), tol_n(n),
                              "recurrence")

            def cd(n=n, pairs=pairs, system=system, mu0=mu0):
                s = system()
                norms = R.norms_from_recurrence(s, mu0(), 1.0, n + 1)
                return [(K.cd_kernel(s, norms, n, x, y, method="sum"),
                         K.cd_kernel(s, norms, n, x, y)) for x, y in pairs]

            def judge_cd(vals, refs, key=key, n=n):
                ref = refs[f"eval/{key}"]["cd"]
                if len(vals) != len(ref):
                    return Verdict("wrong", module="kernels")
                return graded(worst(*(abs(float(v) - k_ref) / scale
                                      for got, (_, _, k_ref, scale)
                                      in zip(vals, ref) for v in got)),
                              tol_n(n), "kernels")

            if n in I.grid_degrees(family):
                ops.append(Op(f"eval_all/{key}", "recurrence", eval_grid,
                              judge_eval))
            ops.append(Op(f"cd_kernel/{key}", "kernels", cd, judge_cd))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# stieltjes-identities

def _in_process_cli(cli, argv: list[str]):
    out, err = _stdio.StringIO(), _stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def judge_check(res, ident: str, owner: str) -> Verdict:
    code, out, err = res
    if _TRACEBACK in err:
        return traceback_verdict(err)
    doc = None
    if code in (0, 1):
        try:
            doc = json.loads(out)
        except ValueError:
            doc = None
    if doc is None or "pass" not in doc:
        return Verdict({1: "exit1", 2: "exit2"}.get(code, "wrong"),
                       module="cli", detail=err.strip()[-200:])
    residual = float(doc["residual"])
    if code == 0 and doc["pass"] and residual <= I.CHECK_TOLS[ident]:
        return Verdict("ok", residual, I.CHECK_TOLS[ident])
    # a true identity reported as violated
    return Verdict("wrong", residual, I.CHECK_TOLS[ident], owner)


def judge_diagnose(res, expected, degrees, with_rho=True) -> Verdict:
    code, out, err = res
    if _TRACEBACK in err:
        return traceback_verdict(err)
    if code != 0:
        return Verdict({1: "exit1", 2: "exit2"}.get(code, "wrong"),
                       module="cli", detail=err.strip()[-200:])
    try:
        doc = json.loads(out)
    except ValueError:
        return Verdict("schema_invalid", module="cli")
    carleman, rho, limits = expected
    wrong = doc.get("carleman", {}).get("verdict") != carleman
    if with_rho:
        r = doc.get("rho", {})
        wrong |= r.get("verdict") != rho or r.get("value") != 0.0
    got = doc.get("true_interval", {}).get("limits", [math.nan, math.nan])
    wrong |= len(got) != 2 or any(math.isinf(e) and float(g) != e
                                  for g, e in zip(got, limits))
    err_max = worst(0.0, *(abs(float(g) - e) for g, e in zip(got, limits)
                          if not math.isinf(e)))
    tol = I.diagnose_tol(degrees)
    if wrong or not err_max <= tol:
        return Verdict("wrong", err_max, tol, "momentprob")
    return Verdict("ok", err_max, tol)


def stieltjes_ops(seed: int) -> list[Op]:
    from orthopoly import cli
    from orthopoly import discrete as D
    from orthopoly import families as F
    from orthopoly import measures as M
    from orthopoly import qseries as Q
    rng = random.Random(seed)
    measures = {m: (M.discrete_measure(FINITE_NODES, FINITE_WEIGHTS)
                    if m == "finite" else
                    D.family_measure(family_spec(m), True)
                    if m == "charlier" else
                    F.family_measure(family_spec(m)))
                for m in I.STIELTJES_MEASURES}
    ops: list[Op] = []
    for m, measure in measures.items():
        for n in I.STIELTJES_N:
            def stieltjes(measure=measure, n=n):
                s, _ = M.recurrence_from_measure(measure, n, 1e-12)
                return [s.coeffs(j) for j in range(n + 1)]

            def judge_st(co, refs, m=m, n=n):
                b = [t[1] for t in co]
                c = [t[2] for t in co]
                return graded(monic_table_err(b, c, refs[f"monic/{m}"], n),
                              tol_n(n), "measures")

            ops.append(Op(f"stieltjes/{m}/{n}", "measures", stieltjes,
                          judge_st))

        def moments(measure=measure):
            ms = M.moments(measure, 2 * I.HANKEL_N, 1e-12)
            return ms.mu, M.hankel_minors(ms, I.HANKEL_N).minors

        def judge_mom(res, refs, m=m):
            mu, minors = res
            ref = refs[f"moments/{m}"]
            r = np.asarray(ref["mu"])
            # odd moments can vanish; bound them by their even neighbours
            scale = r.copy()
            scale[1::2] = np.sqrt(r[0:-1:2] * r[2::2])
            err = worst(scaled_err(mu, r, scale),
                        vec_err(np.asarray(minors) / ref["minors"],
                                np.ones(len(ref["minors"]))))
            return graded(err, MOMENT_TOL, "measures")

        ops.append(Op(f"moments/{m}", "measures", moments, judge_mom))

    for family, ident, n in I.CHECKS:
        argv = ["check", "--family", family, *family_args(family),
                "--identity", ident, "--n", str(n)]
        owner = {"cd": "kernels", "orthogonality": "measures"}.get(
            ident, "families")
        ops.append(Op(f"check/{family}/{ident}/{n}", owner,
                      lambda argv=argv: _in_process_cli(cli, argv),
                      lambda res, refs, ident=ident, owner=owner:
                      judge_check(res, ident, owner)))
    for family, expected in I.DIAGNOSE.items():
        argv = ["diagnose", "--family", family, *family_args(family),
                "--carleman", "--rho", "0.3",
                "--true-interval", str(I.DIAGNOSE_INTERVAL)]
        ops.append(Op(f"diagnose/{family}", "momentprob",
                      lambda argv=argv: _in_process_cli(cli, argv),
                      lambda res, refs, e=expected: judge_diagnose(
                          res, e, I.DIAGNOSE_INTERVAL)))

    gegenbauer = family_spec("gegenbauer")
    series = {
        "jacobi": lambda n, x: F.jacobi_eval(n, 0.5, 1.5, x),
        "laguerre": lambda n, x: F.laguerre_eval(n, 0.5, x),
        "hermite": lambda n, x: F.hermite_eval(n, x),
        "gegenbauer": lambda n, x: F.special_case_eval(gegenbauer, n, x),
    }
    # Series sums escalate to mpmath depending on x, so each op sums at
    # every point of its pool: a seed-chosen point would change the op's
    # cost, and with it the timing mix, from seed to seed.
    def judge_points(vals, ref, n, owner):
        return graded(worst(*(abs(float(v) - r[1]) / r[2]
                              for v, r in zip(vals, ref))), tol_n(n), owner)

    for family, fn in series.items():
        for n in I.SERIES_N:
            ops.append(Op(f"series/{family}/{n}", "families",
                          lambda fn=fn, n=n, xs=I.SERIES_X[family]:
                          [fn(n, x) for x in xs],
                          lambda v, refs, key=f"series/{family}/{n}", n=n:
                          judge_points(v, refs[key], n, "families")))
    charlier = family_spec("charlier")
    for n in I.DISCRETE_N:
        ops.append(Op(f"discrete_eval/charlier/{n}", "discrete",
                      lambda n=n: [D.discrete_eval(charlier, n, x)
                                   for x in I.DISCRETE_X],
                      lambda v, refs, key=f"discrete/charlier/{n}", n=n:
                      judge_points(v, refs[key], n, "discrete")))
    ctx = Q.QContext(I.AW_Q)
    for n in I.AW_N:
        k = rng.randrange(len(I.AW_THETA))
        theta = I.AW_THETA[k]
        ops.append(Op(f"askey_wilson/{n}", "qseries",
                      lambda n=n, t=theta: Q.askey_wilson_eval(
                          ctx, n, *I.AW_PARAMS, t),
                      lambda v, refs, key=f"aw/{n}", k=k, n=n:
                      graded(abs(float(v) - refs[key][k][1])
                             / abs(refs[key][k][1]), tol_n(n), "qseries")))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# cli-cold

def traceback_verdict(err: str) -> Verdict:
    mods = _TB_FILE.findall(err)
    last = err.strip().splitlines()[-1] if err.strip() else ""
    return Verdict("traceback", module=mods[-1] if mods else "cli",
                   detail=last[:200])


def _cli_status(res):
    """Verdict for a non-zero or crashing CLI run, else None."""
    code, out, err = res[:3]
    if _TRACEBACK in err:
        return traceback_verdict(err)
    if code == 1:
        return Verdict("exit1", module="cli", detail=err.strip()[-200:])
    if code == 2:
        return Verdict("exit2", module="cli", detail=err.strip()[-200:])
    if code != 0:
        return Verdict("traceback", module="cli", detail=f"exit {code}")
    return None


def _parse_json(out: str, schema=None):
    doc = json.loads(out)
    if schema is not None:
        schema.validate(doc)
    return doc


def cli_ops(seed: int, workdir: str, launcher: Callable) -> list[Op]:
    """The 26 cold invocations of one pass; files go to `workdir`.  Every
    pass tabulates on every grid of the pool, so the seed only orders the
    invocations and the accuracy metrics do not depend on it."""
    rng = random.Random(seed)
    files = {
        "recurrence": {"schema": 1, "form": "monic", "coefficients": {
            "a": [1.0] * 41, "b": [0.0] * 41,
            "c": [0.0] + [n * n / (4.0 * n * n - 1) for n in range(1, 41)]}},
        "jacobi_measure": {"schema": 1, "kind": "continuous", "name": "jacobi",
                           "parameters": dict(PARAMS["jacobi"])},
        "legendre_measure": {"schema": 1, "kind": "continuous",
                             "name": "legendre"},
        "finite_measure": {"schema": 1, "kind": "discrete_finite",
                           "nodes": FINITE_NODES, "weights": FINITE_WEIGHTS},
    }
    paths = {}
    for name, doc in files.items():
        paths[name] = os.path.join(workdir, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    specs = []  # (name, argv, judge(res, refs, schemas))

    def add(name, argv, judge):
        specs.append((name, argv, judge))

    def tab_judge(family, grid, fmt):
        def judge(res, refs, schemas):
            bad = _cli_status(res)
            if bad:
                return bad
            try:
                if fmt == "json":
                    rows = json.loads(res[1])["rows"]
                else:
                    rows = [[float(v) for v in r] for r in
                            list(csv.reader(_stdio.StringIO(res[1])))[1:]]
                vals = np.asarray(rows, dtype=float)[:, 1:]
            except (ValueError, KeyError, IndexError):
                return Verdict("schema_invalid", module="cli")
            ref = refs[f"tab/{family}/{grid}"]
            return graded(scaled_err(vals, ref["p"], ref["s"]),
                          tol_n(I.TAB_NMAX[family]), "recurrence")
        return judge

    for family, fmt in (("legendre", "csv"), ("hermite", "json"),
                        ("charlier", "csv")):
        for grid in I.TAB_GRIDS[family]:
            add(f"tabulate/{family}/{grid}",
                ["tabulate", "--family", family, *family_args(family),
                 "--n-max", str(I.TAB_NMAX[family]), f"--grid={grid}",
                 "--format", fmt], tab_judge(family, grid, fmt))

    def rule_judge(key, fmt="json", nodes_only=False):
        n = int(key.rsplit("/", 1)[1])

        def judge(res, refs, schemas):
            bad = _cli_status(res)
            if bad:
                return bad
            ref = refs[f"rule/{key}"]
            try:
                if nodes_only:
                    return graded(vec_err(json.loads(res[1])["zeros"],
                                          ref["nodes"]), tol_n(n), "kernels")
                if fmt == "csv":
                    rows = list(csv.reader(_stdio.StringIO(res[1])))[1:]
                    x = [float(r[0]) for r in rows]
                    w = [float(r[1]) for r in rows]
                else:
                    doc = _parse_json(res[1], schemas["quadrature"])
                    x, w = doc["nodes"], doc["weights"]
            except Exception:  # malformed output of any kind
                return Verdict("schema_invalid", module="cli")
            return graded(worst(vec_err(x, ref["nodes"]),
                                vec_err(w, ref["weights"])), tol_n(n),
                          "kernels")
        return judge

    for family, n, fmt in (("legendre", 20, "json"), ("jacobi", 30, "csv"),
                           ("laguerre", 40, "json"),
                           ("gegenbauer", 150, "json")):
        add(f"quadrature/{family}/{n}",
            ["quadrature", "--family", family, *family_args(family),
             "--n", str(n), "--format", fmt],
            rule_judge(f"{family}/{n}", fmt))
    add("zeros/hermite/30", ["zeros", "--family", "hermite", "--n", "30"],
        rule_judge("hermite/30", nodes_only=True))
    add("zeros/recurrence-file/25",
        ["zeros", "--recurrence", paths["recurrence"], "--n", "25"],
        rule_judge("legendre/25", nodes_only=True))
    add("zeros/measure-file/12",
        ["zeros", "--measure", paths["jacobi_measure"], "--n", "12"],
        rule_judge("jacobi/12", nodes_only=True))

    def rec_judge(ref_key, n, monic):
        def judge(res, refs, schemas):
            bad = _cli_status(res)
            if bad:
                return bad
            try:
                co = _parse_json(res[1], schemas["recurrence"])["coefficients"]
            except Exception:  # malformed output of any kind
                return Verdict("schema_invalid", module="cli")
            if monic:
                err = monic_table_err(co["b"], co["c"], refs[ref_key], n)
                if any(a != 1.0 for a in co["a"]):
                    err = math.inf
            else:
                err = general_table_err(co["a"], co["b"], co["c"],
                                        refs[ref_key], n)
            return graded(err, tol_n(n), "families")
        return judge

    add("recurrence/laguerre/monic/30",
        ["recurrence", "--family", "laguerre", *family_args("laguerre"),
         "--n-max", "30", "--form", "monic"],
        rec_judge("monic/laguerre", 30, True))
    add("recurrence/charlier/20",
        ["recurrence", "--family", "charlier", *family_args("charlier"),
         "--n-max", "20"], rec_judge("abc/charlier", 20, False))
    add("recurrence/measure-file/15",
        ["recurrence", "--measure", paths["finite_measure"], "--n-max", "15"],
        rec_judge("monic/finite", 15, True))
    add("recurrence/jacobi/200",
        ["recurrence", "--family", "jacobi", *family_args("jacobi"),
         "--n-max", "200"], rec_judge("abc/jacobi", 200, False))

    for family, ident, n in (("legendre", "cd", 20), ("hermite", "ode", 20),
                             ("laguerre", "shift", 10),
                             ("hermite", "shift", 200)):
        owner = "kernels" if ident == "cd" else "families"
        add(f"check/{family}/{ident}/{n}",
            ["check", "--family", family, *family_args(family),
             "--identity", ident, "--n", str(n)],
            lambda res, refs, schemas, i=ident, o=owner:
            judge_check(res[:3], i, o))
    add("diagnose/hermite",
        ["diagnose", "--family", "hermite", "--carleman", "--rho", "0.3",
         "--true-interval", "40"],
        lambda res, refs, schemas: judge_diagnose(
            res[:3], I.DIAGNOSE["hermite"], 40))
    add("diagnose/measure-file",
        ["diagnose", "--measure", paths["legendre_measure"], "--carleman",
         "--true-interval", "40"],
        lambda res, refs, schemas: judge_diagnose(
            res[:3], I.DIAGNOSE["legendre"], 40, with_rho=False))

    rng.shuffle(specs)
    return [Op(name, "cli", lambda argv=argv: launcher(argv),
               lambda res, refs, judge=judge:
               judge(res, refs, refs["_schemas"]))
            for name, argv, judge in specs]


def run_cli(argv: list[str], env: dict, cwd: str, shim: str | None = None):
    """One cold CLI process, launched the way the console script does, or
    through the tracing shim.  Returns (exit code, stdout, stderr)."""
    cmd = ([sys.executable, "-X", "importtime", shim] if shim
           else [sys.executable, "-c", CLI_LAUNCH])
    proc = subprocess.Popen(cmd + argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=cwd,
                            text=True)
    try:
        out, err = proc.communicate(timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    return proc.returncode, out, err

