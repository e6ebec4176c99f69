"""Command line front end: tabulation, quadrature rules, zeros, recurrence
coefficients, identity checks and moment diagnostics.

Exit codes: 0 success (and all checked identities within tolerance),
1 numerical failure or identity violation, 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import csv
import io as _stdio
import json
import math
import os
import sys as _sys

import numpy as np

from . import discrete as D
from . import families as F
from . import io as OPIO
from . import kernels as K
from . import measures as M
from . import momentprob as P
from . import recurrence as R

DEFAULT_TOL = 1e-12

_CHECK_TOLS = {"ode": 1e-10, "shift": 1e-10, "cd": 1e-10,
               "quadratic": 1e-11, "orthogonality": 1e-10, "limit": 0.0}


class ConfigError(ValueError):
    """Invalid command line configuration; exits with status 2."""


class NumericalFailure(RuntimeError):
    """Computation failed or exceeded tolerance; exits with status 1."""


def _default_tol() -> float:
    raw = os.environ.get("ORTHOPOLY_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        tol = float(raw)
    except ValueError as exc:
        raise ConfigError(f"ORTHOPOLY_TOL={raw!r} is not a number") from exc
    if tol <= 0:
        raise ConfigError("ORTHOPOLY_TOL must be positive")
    return tol


def _family_spec(args):
    if args.family is None:
        raise ConfigError("missing --family")
    try:
        return F.family_spec(args.family, {k: v for k, v in vars(args).items()
                                           if v is not None})
    except KeyError as exc:
        raise ConfigError(f"family {args.family!r} needs parameter "
                          f"--{exc.args[0]}") from exc
    except F.FamilyError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_grid(spec: str) -> np.ndarray:
    try:
        a, b, steps = spec.split(":")
        a, b, steps = float(a), float(b), int(steps)
    except ValueError as exc:
        raise ConfigError(f"--grid {spec!r} is not of the form a:b:steps") \
            from exc
    if steps < 1:
        raise ConfigError("--grid needs at least one step")
    return np.linspace(a, b, steps)


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        _sys.stdout.write(text)


def _emit_json(args, doc: dict) -> None:
    _emit(args, json.dumps(doc, indent=2) + "\n")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_tabulate(args) -> int:
    spec = _family_spec(args)
    grid = _parse_grid(args.grid)
    n_max = args.n
    if spec.discrete:
        rows = [[x] + [D.discrete_eval(spec, n, float(x))
                       for n in range(n_max + 1)] for x in grid]
    else:
        # values beyond the double range print as inf/nan, without warnings
        with np.errstate(over="ignore", invalid="ignore"):
            rows = np.column_stack(
                [grid] + R.eval_all(F.family_system(spec), n_max, grid))
    header = ["x"] + [f"p{n}" for n in range(n_max + 1)]
    if args.format == "json":
        _emit_json(args, {"schema": OPIO.SCHEMA_VERSION, "columns": header,
                          "rows": [[float(v) for v in row] for row in rows],
                          "tolerance": args.tol})
        return 0
    buf = _stdio.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(v)) for v in row])
    _emit(args, buf.getvalue())
    return 0


def _bundle(spec, normalized=False):
    if spec.discrete:
        raise ConfigError(f"{spec.family} is not supported by this "
                          "subcommand; use a continuous family")
    return F.family_bundle(spec, normalized)


def _cmd_quadrature(args) -> int:
    spec = _family_spec(args)
    b = _bundle(spec)
    norms = R.norms_from_recurrence(b.system, b.h0, 1.0, args.n + 1)
    try:
        rule = K.gauss_rule(b.system, norms, b.measure, args.n, args.tol)
    except (K.KernelError, R.RecurrenceError, M.IntegrationError) as exc:
        raise NumericalFailure(f"gauss_rule failed at tolerance {args.tol}: "
                               f"{exc}") from exc
    doc = OPIO.dump_rule(rule, args.tol)
    if args.format == "csv":
        buf = _stdio.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["node", "weight"])
        for x, w in zip(rule.nodes, rule.weights):
            writer.writerow([repr(float(x)), repr(float(w))])
        _emit(args, buf.getvalue())
    else:
        _emit_json(args, doc)
    return 0


def _load_measure(args) -> M.Measure:
    try:
        return OPIO.load_measure(OPIO.read_json(args.measure))
    except (OSError, json.JSONDecodeError, OPIO.SchemaError) as exc:
        raise ConfigError(f"--measure {args.measure}: {exc}") from exc


def _recurrence_from_measure(m: M.Measure, n_max: int, tol: float):
    try:
        return M.recurrence_from_measure(m, n_max, tol)
    except (M.IntegrationError, R.RecurrenceError) as exc:
        raise NumericalFailure("recurrence_from_measure failed at tolerance "
                               f"{tol}: {exc}") from exc


def _load_system(args) -> tuple[R.RecurrenceSystem, M.Measure | None]:
    """The system of --family, --recurrence or --measure, and the measure
    of --measure (None for the other two sources)."""
    sources = [s for s in ("family", "recurrence", "measure")
               if getattr(args, s, None) is not None]
    if len(sources) != 1:
        raise ConfigError("exactly one of --family, --recurrence, --measure "
                          f"is required (got {sources or 'none'})")
    if args.family is not None:
        # zeros and moment diagnostics do not depend on the normalisation
        return F.family_monic_system(_family_spec(args)), None
    if getattr(args, "recurrence", None) is not None:
        try:
            doc = OPIO.read_json(args.recurrence)
            return OPIO.load_recurrence(doc), None
        except (OSError, json.JSONDecodeError, OPIO.SchemaError) as exc:
            raise ConfigError(f"--recurrence {args.recurrence}: {exc}") \
                from exc
    m = _load_measure(args)
    degree = max(getattr(args, "n", 0) or 0,
                 getattr(args, "true_interval", 0) or 0)
    n_max = max(degree, 16)
    if m.n_points is not None and degree <= m.n_points:
        # the zeros of p_N on N points are the points: rows to N - 1 do,
        # and the floor must not ask for a degree the measure does not have
        n_max = min(n_max, m.n_points - 1)
    return _recurrence_from_measure(m, n_max, args.tol)[0], m


def _cmd_zeros(args) -> int:
    sys_, _ = _load_system(args)
    try:
        zs = K.zeros(sys_, None, args.n)
    except (K.KernelError, R.RecurrenceError) as exc:
        raise NumericalFailure(f"zeros failed: {exc}") from exc
    _emit_json(args, {"schema": OPIO.SCHEMA_VERSION, "n": args.n,
                      "zeros": [float(z) for z in zs], "tolerance": args.tol})
    return 0


def _cmd_recurrence(args) -> int:
    if getattr(args, "measure", None) is not None:
        sys_, _ = _recurrence_from_measure(_load_measure(args), args.n,
                                           args.tol)
    else:
        spec = _family_spec(args)
        sys_ = (F.family_monic_system(spec) if args.form == "monic"
                else F.family_system(spec))
    doc = OPIO.dump_recurrence(sys_, args.n)
    doc["tolerance"] = args.tol
    _emit_json(args, doc)
    return 0


def _check_battery(spec, identity: str, n: int, tol: float):
    """Run one identity over degrees <= n; return (max residual, details)."""
    if spec.discrete:
        raise ConfigError("check supports the continuous families")
    xs = np.linspace(-0.9, 0.9, 7)
    if spec.family == "laguerre":
        xs = np.linspace(0.2, 8.0, 7)
    elif spec.family == "hermite":
        xs = np.linspace(-2.0, 2.0, 7)
    # residuals by degree
    if identity == "ode":
        by_degree = dict(enumerate(F.ode_residual(spec, n, xs)))
    elif identity == "shift":
        by_degree = dict(enumerate(np.hstack(
            [F.shift_check(spec, n, d, xs) for d in ("raise", "lower")])))
    elif identity == "cd":
        b = _bundle(spec)
        norms = R.norms_from_recurrence(b.system, b.h0, 1.0, n + 1)
        rng = np.random.default_rng(20260823)
        lo, hi = (0.2, 8.0) if spec.family == "laguerre" else (-0.95, 0.95)
        res = []
        for _ in range(50):
            x, y = rng.uniform(lo, hi, 2)
            for u, v in ((x, y), (x, x)):
                s = K.cd_kernel(b.system, norms, n, float(u), float(v),
                                method="sum")
                c = K.cd_kernel(b.system, norms, n, float(u), float(v))
                res.append((s - c) / max(abs(s), 1.0))
        by_degree = {n: res}
    elif identity == "quadratic":
        try:
            alpha = F._as_jacobi(spec)[0]
        except F.FamilyError as exc:
            raise ConfigError("quadratic transformation applies to the "
                              "Jacobi-type families") from exc
        by_degree = dict(enumerate(np.hstack(
            F.quadratic_transform_residuals(n, alpha, xs))))
    elif identity == "orthogonality":
        # the Gram matrix of the orthonormal chain on a Gauss rule of n + 2
        # points, which integrates every product of degrees <= n exactly;
        # its residuals are the rule's own rounding, 1e-15 to 1e-14 at n = 10
        b = _bundle(spec)
        nodes, weights = _independent_rule(spec, n + 2)
        with np.errstate(over="ignore", invalid="ignore"):
            p = np.array(R.eval_all(_orthonormal_from(b.system, b.h0), n,
                                    nodes))
            gram = (p * weights) @ p.T
        by_degree = {j: gram[j, :j] for j in range(n + 1)}
    elif identity == "limit":
        # every Jacobi-type family is a source of relation 26
        which = {"laguerre": 28, "hermite": None}.get(spec.family, 26)
        if which is None:
            raise ConfigError(
                f"{spec.family} is a limit target, not a source; use "
                "jacobi or laguerre")
        errors = [F.limit_check(which, n, param, 0.5)
                  for param in (1e2, 2e2, 4e2, 8e2)]
        # exact agreement (error 0, as at n <= 1) counts as converging
        monotone = all(e1 < e0 or e1 == 0
                       for e0, e1 in zip(errors, errors[1:]))
        return (0.0 if monotone else 1.0), {"errors": errors,
                                            "monotone": monotone}
    else:
        raise ConfigError(f"unknown identity {identity!r}")
    worst = 0.0
    for k, res in by_degree.items():
        res = np.abs(np.asarray(res, dtype=float))
        if not np.all(np.isfinite(res)):
            raise NumericalFailure(
                f"{identity} residual at degree {k} is not finite: the "
                "values leave the double range")
        worst = max(worst, float(res.max(initial=0.0)))
    return worst, {}


def _independent_rule(spec, size: int):
    """Nodes and weights of the size-point Gauss rule of the family's weight,
    from scipy.special, which does not use the recurrence under check."""
    from scipy import special

    with np.errstate(over="ignore", invalid="ignore"):
        if spec.family == "laguerre":
            nodes, weights = special.roots_genlaguerre(size, spec.alpha)
        elif spec.family == "hermite":
            nodes, weights = special.roots_hermite(size)
        else:
            a, b, _ = F._as_jacobi(spec)
            nodes, weights = special.roots_jacobi(size, a, b)
    # a weight that underflowed drops its node's products from the Gram
    # matrix, which then reads as a violated identity
    if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))
            and np.all(weights > 0)):
        raise NumericalFailure(
            f"orthogonality to degree {size - 2}: the {size}-point Gauss "
            "rule has weights that underflow or are not finite")
    return nodes, weights


def _cmd_check(args) -> int:
    spec = _family_spec(args)
    tol = args.tol if args.tol_given else _CHECK_TOLS[args.identity]
    worst, details = _check_battery(spec, args.identity, args.n, tol)
    passed = worst <= tol if args.identity != "limit" \
        else details.get("monotone", False)
    doc = {"schema": OPIO.SCHEMA_VERSION, "family": args.family,
           "identity": args.identity, "n": args.n,
           "residual": float(worst), "tolerance": tol,
           "pass": bool(passed), **details}
    _emit_json(args, doc)
    if not passed:
        print(f"orthopoly: identity {args.identity} not verified (residual "
              f"{worst:.3g}, tolerance {tol:g})", file=_sys.stderr)
    return 0 if passed else 1


def _orthonormal_from(sys_: R.RecurrenceSystem, h0: float):
    norms = R.norms_from_recurrence(sys_, h0, 1.0, 4)
    return R.convert_form(sys_, norms, "orthonormal")


def _cmd_diagnose(args) -> int:
    doc = {"schema": OPIO.SCHEMA_VERSION, "tolerance": args.tol}
    sys_, m = _load_system(args)
    if sys_.form != "monic":
        norms = R.norms_from_recurrence(sys_, 1.0, 1.0, 4)
        monic = R.convert_form(sys_, norms, "monic")
    else:
        monic = sys_
    if args.carleman:
        if m is not None:
            ms = M.moments(m, 32, args.tol)
            report = P.carleman(P.carleman_moment_terms(ms), 16)
            mode = "moments"
        else:
            # the terms are 1/sqrt(a_n c_{n+1}) for n = 1..2000
            favard = R.validate_favard(monic, 2001)
            bad = [n for n, _ in favard.failures if n > 0]
            if bad:
                raise NumericalFailure("Carleman terms need a_n c_(n+1) > 0: "
                                       f"Favard violation at n={bad[0]}")
            products = favard.products.tolist()
            report = P.carleman(lambda k: 1.0 / math.sqrt(products[k]), 2000)
            mode = "recurrence"
        doc["carleman"] = {"verdict": report.verdict,
                           "exponent": report.exponent, "terms": mode}
    if args.rho is not None:
        z = complex(args.rho) if "j" in args.rho else float(args.rho)
        ortho = _orthonormal_from(monic, 1.0)
        hint = monic.max_index_hint
        n_eval = min(200, hint - 1) if hint is not None else 200
        report = P.rho(ortho, z, n_eval)
        doc["rho"] = {"z": args.rho, "value": report.rho,
                      "verdict": report.verdict, "n_terms": n_eval}
    if args.true_interval is not None:
        est = P.true_interval(monic, args.true_interval)
        doc["true_interval"] = {
            "limits": [float(v) for v in est.limits],
            "chains_monotone": est.chains_monotone,
            "smallest_zeros": [float(v) for v in est.xi1_sequence],
            "largest_zeros": [float(v) for v in est.eta1_sequence]}
    _emit_json(args, doc)
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _degree(minimum: int):
    """argparse type of a degree flag: an integer >= minimum."""
    def degree(text: str) -> int:
        if int(text) < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {text}")
        return int(text)

    return degree


def _add_family_args(sp, required=False):
    sp.add_argument("--family", required=required, choices=F.PARAMETERS)
    for name in dict.fromkeys(p for ps in F.PARAMETERS.values() for p in ps):
        sp.add_argument(f"--{name}", type=int if name == "N" else float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthopoly",
        description="orthogonal polynomial workbench")
    parser.add_argument("--tol", type=float, default=None,
                        help="tolerance override (default from ORTHOPOLY_TOL "
                             "or 1e-12)")
    parser.add_argument("--output", help="write the document to a file "
                                         "instead of stdout")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("tabulate", help="evaluate p_0..p_n on a grid")
    _add_family_args(sp, required=True)
    sp.add_argument("--n-max", dest="n", type=_degree(0), required=True)
    sp.add_argument("--grid", required=True, help="a:b:steps")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(func=_cmd_tabulate)

    sp = sub.add_parser("quadrature", help="n-point Gauss rule")
    _add_family_args(sp, required=True)
    sp.add_argument("--n", type=_degree(0), required=True)
    sp.add_argument("--format", choices=("csv", "json"), default="json")
    sp.set_defaults(func=_cmd_quadrature)

    sp = sub.add_parser("zeros", help="zeros of p_n")
    _add_family_args(sp)
    sp.add_argument("--recurrence", help="recurrence JSON file")
    sp.add_argument("--measure", help="measure JSON file")
    sp.add_argument("--n", type=_degree(0), required=True)
    sp.set_defaults(func=_cmd_zeros)

    sp = sub.add_parser("recurrence", help="emit recurrence coefficients")
    _add_family_args(sp)
    sp.add_argument("--measure", help="measure JSON file")
    sp.add_argument("--n-max", dest="n", type=_degree(0), required=True)
    sp.add_argument("--form", choices=("general", "monic"),
                    default="general")
    sp.set_defaults(func=_cmd_recurrence)

    sp = sub.add_parser("check", help="verify an identity")
    _add_family_args(sp, required=True)
    sp.add_argument("--identity", required=True,
                    choices=("ode", "shift", "cd", "quadratic",
                             "orthogonality", "limit"))
    sp.add_argument("--n", type=_degree(0), required=True)
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("diagnose", help="moment problem diagnostics")
    _add_family_args(sp)
    sp.add_argument("--recurrence", help="recurrence JSON file")
    sp.add_argument("--measure", help="measure JSON file")
    sp.add_argument("--carleman", action="store_true")
    sp.add_argument("--rho", help="evaluation point (real or complex)")
    sp.add_argument("--true-interval", dest="true_interval", type=_degree(1))
    sp.set_defaults(func=_cmd_diagnose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.tol is not None and args.tol <= 0:
            raise ConfigError("--tol must be positive")
        args.tol_given = args.tol is not None
        if args.tol is None:
            args.tol = _default_tol()
        return args.func(args)
    except ConfigError as exc:
        print(f"orthopoly: invalid configuration: {exc}", file=_sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"orthopoly: numerical failure: {exc}", file=_sys.stderr)
        return 1
    except (M.IntegrationError, R.RecurrenceError, K.KernelError,
            F.FamilyError, P.MomentProblemError) as exc:
        print(f"orthopoly: numerical failure at tolerance {args.tol}: {exc}",
              file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
