"""Command line front end: tabulation, quadrature rules, zeros, recurrence
coefficients, identity checks and moment diagnostics.

Exit codes: 0 success (and all checked identities within tolerance),
1 numerical failure or identity violation, 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys as _sys
from typing import TYPE_CHECKING

import numpy as np

# the other package modules are imported by the subcommands that use them,
# so a cold run loads only what its subcommand needs
from . import families as F
from . import recurrence as R
from .errors import ConfigError, NumericalFailure

if TYPE_CHECKING:  # an annotation only: the measures load with their users
    from .measures import Measure

DEFAULT_TOL = 1e-12

# the identities of `check` (identities.IDENTITIES) and their tolerances;
# true rows reach 1.3e-15 in quadratic and 0.023 in limit (see README)
_CHECK_TOLS = {"ode": 1e-10, "shift": 1e-10, "cd": 1e-10, "quadratic": 7e-15,
               "orthogonality": 1e-10, "limit": 0.1}


def _tolerance(tol: float | None) -> float:
    """--tol, else ORTHOPOLY_TOL, else DEFAULT_TOL; positive and finite, as
    the documents' schemas require."""
    name, raw = ("--tol", tol) if tol is not None else (
        "ORTHOPOLY_TOL", os.environ.get("ORTHOPOLY_TOL", DEFAULT_TOL))
    try:
        tol = float(raw)
    except ValueError as exc:
        raise ConfigError(f"{name}={raw!r} is not a number") from exc
    if not 0 < tol < math.inf:
        raise ConfigError(f"{name} must be positive and finite")
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
    if not math.isfinite(b - a):
        raise ConfigError(f"--grid {spec!r} needs finite a, b and b - a")
    return np.linspace(a, b, steps)


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"--output {args.output}: {exc}") from exc
    else:
        _sys.stdout.write(text)


def _emit_json(args, doc: dict) -> None:
    _emit(args, json.dumps(doc, indent=2) + "\n")


def _emit_csv(args, header: list, rows) -> None:
    """A header line, then one line of reprs of doubles per row; no field
    holds a comma, a quote or a line break, so none is quoted."""
    lines = [header, *([repr(float(v)) for v in row] for row in rows)]
    _emit(args, "".join(",".join(line) + "\n" for line in lines))


# ---------------------------------------------------------------------------
# subcommands

def _cmd_tabulate(args) -> int:
    spec = _family_spec(args)
    grid = _parse_grid(args.grid)
    n_max = args.n
    if spec.discrete:
        from . import discrete as D
        rows = [[x] + [D.discrete_eval(spec, n, float(x))
                       for n in range(n_max + 1)] for x in grid]
    else:   # values beyond the double range print as inf/nan
        rows = np.column_stack(
            (grid, R.eval_all(F.family_system(spec), n_max, grid).T))
    header = ["x"] + [f"p{n}" for n in range(n_max + 1)]
    if args.format == "json":
        from . import io as OPIO
        _emit_json(args, {"schema": OPIO.SCHEMA_VERSION, "columns": header,
                          "rows": [[float(v) for v in row] for row in rows],
                          "tolerance": args.tol})
    else:
        _emit_csv(args, header, rows)
    return 0


def _cmd_quadrature(args) -> int:
    from . import io as OPIO
    from . import kernels as K

    spec = _family_spec(args)
    if spec.discrete:
        raise ConfigError(f"{spec.family} is not supported by this "
                          "subcommand; use a continuous family")
    b = F.family_bundle(spec)
    norms = R.norms_from_recurrence(b.system, b.h0, 1.0, args.n + 1)
    rule = K.gauss_rule(b.system, norms, b.measure, args.n, args.tol)
    doc = OPIO.dump_rule(rule, args.tol)
    if args.format == "csv":
        _emit_csv(args, ["node", "weight"], zip(rule.nodes, rule.weights))
    else:
        _emit_json(args, doc)
    return 0


def _load_measure(args) -> Measure:
    from . import io as OPIO

    try:
        return OPIO.load_measure(OPIO.read_json(args.measure))
    except (OSError, json.JSONDecodeError, OPIO.SchemaError) as exc:
        raise ConfigError(f"--measure {args.measure}: {exc}") from exc


def _load_system(args) -> tuple[R.RecurrenceSystem, Measure | None]:
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
        from . import io as OPIO
        try:
            doc = OPIO.read_json(args.recurrence)
            return OPIO.load_recurrence(doc), None
        except (OSError, json.JSONDecodeError, OPIO.SchemaError) as exc:
            raise ConfigError(f"--recurrence {args.recurrence}: {exc}") \
                from exc
    from . import measures as M
    m = _load_measure(args)
    degree = max(getattr(args, "n", 0) or 0,
                 getattr(args, "true_interval", 0) or 0)
    n_max = max(degree, 16)
    if m.n_points is not None and degree <= m.n_points:
        # the zeros of p_N on N points are the points: rows to N - 1 do,
        # and the floor must not ask for a degree the measure does not have
        n_max = min(n_max, m.n_points - 1)
    return M.recurrence_from_measure(m, n_max, args.tol)[0], m


def _cmd_zeros(args) -> int:
    from . import io as OPIO
    from . import kernels as K

    sys_, _ = _load_system(args)
    zs = K.zeros(sys_, None, args.n)
    _emit_json(args, {"schema": OPIO.SCHEMA_VERSION, "n": args.n,
                      "zeros": [float(z) for z in zs], "tolerance": args.tol})
    return 0


def _cmd_recurrence(args) -> int:
    from . import io as OPIO

    if getattr(args, "measure", None) is not None:
        from . import measures as M
        sys_, _ = M.recurrence_from_measure(_load_measure(args), args.n,
                                            args.tol)
    else:
        spec = _family_spec(args)
        sys_ = (F.family_monic_system(spec) if args.form == "monic"
                else F.family_system(spec))
    doc = OPIO.dump_recurrence(sys_, args.n)
    doc["tolerance"] = args.tol
    _emit_json(args, doc)
    return 0


def _cmd_check(args) -> int:
    from . import identities
    from . import io as OPIO

    spec = _family_spec(args)
    tol = args.tol if args.tol_given else _CHECK_TOLS[args.identity]
    worst, details = identities.check_battery(spec, args.identity, args.n)
    passed = bool(worst <= tol)
    doc = {"schema": OPIO.SCHEMA_VERSION, "family": args.family,
           "identity": args.identity, "n": args.n,
           "residual": float(worst), "tolerance": tol, "pass": passed,
           **details}
    _emit_json(args, doc)
    if not passed:
        print(f"orthopoly: identity {args.identity} not verified (residual "
              f"{worst:.3g}, tolerance {tol:g})", file=_sys.stderr)
    return 0 if passed else 1


def _cmd_diagnose(args) -> int:
    from . import io as OPIO
    from . import momentprob as P

    doc = {"schema": OPIO.SCHEMA_VERSION, "tolerance": args.tol}
    sys_, m = _load_system(args)
    monic = sys_ if sys_.form == "monic" else R.convert_form(
        sys_, R.norms_from_recurrence(sys_, 1.0, 1.0, 0), "monic")
    hint = monic.max_index_hint   # the last row of a document or lattice
    if args.carleman:
        if m is not None:
            from . import measures as M
            ms = M.moments(m, 32, args.tol)
            report = P.carleman(P.carleman_moment_terms(ms, 16))
            mode = "moments"
        else:
            # the terms are 1/sqrt(a_n c_{n+1}) for n = 1..min(2000, hint - 1)
            favard = R.validate_favard(
                monic, 2001 if hint is None else min(2001, hint))
            bad = [n for n, _ in favard.failures if n > 0]
            if bad:
                raise NumericalFailure("Carleman terms need a_n c_(n+1) > 0: "
                                       f"Favard violation at n={bad[0]}")
            report = P.carleman(1.0 / np.sqrt(favard.products[1:]))
            mode = "recurrence"
        doc["carleman"] = {"verdict": report.verdict,
                           "exponent": report.exponent, "terms": mode}
    if args.rho is not None:
        ortho = R.orthonormal_from(monic, 1.0)
        n_eval = min(200, hint - 1) if hint is not None else 200
        report = P.rho(ortho, args.rho[1], n_eval)
        doc["rho"] = {"z": args.rho[0], "value": report.rho,
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


def _point(text: str) -> tuple[str, float | complex]:
    """argparse type of --rho: the text and its value, a finite real or
    complex ("2+1j") number."""
    try:
        z = complex(text) if "j" in text else float(text)
    except ValueError:
        z = math.nan
    if not np.isfinite(z):
        raise argparse.ArgumentTypeError(f"not a finite number: {text}")
    return text, z


def _family_options(required: bool) -> argparse.ArgumentParser:
    """A parent parser of --family and the family parameters."""
    fp = argparse.ArgumentParser(add_help=False)
    fp.add_argument("--family", required=required, choices=F.PARAMETERS)
    for name in dict.fromkeys(p for ps in F.PARAMETERS.values() for p in ps):
        fp.add_argument(f"--{name}", type=int if name == "N" else float)
    return fp


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="orthopoly",
        description="orthogonal polynomial workbench")
    parser.add_argument("--tol", type=float, default=None,
                        help="tolerance override (default from ORTHOPOLY_TOL "
                             "or 1e-12)")
    parser.add_argument("--output", help="write the document to a file "
                                         "instead of stdout")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    family, family_or_file = _family_options(True), _family_options(False)

    sp = sub.add_parser("tabulate", parents=[family],
                        help="evaluate p_0..p_n on a grid")
    sp.add_argument("--n-max", dest="n", type=_degree(0), required=True)
    sp.add_argument("--grid", required=True, help="a:b:steps")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(func=_cmd_tabulate)

    sp = sub.add_parser("quadrature", parents=[family],
                        help="n-point Gauss rule")
    sp.add_argument("--n", type=_degree(0), required=True)
    sp.add_argument("--format", choices=("csv", "json"), default="json")
    sp.set_defaults(func=_cmd_quadrature)

    sp = sub.add_parser("zeros", parents=[family_or_file], help="zeros of p_n")
    sp.add_argument("--recurrence", help="recurrence JSON file")
    sp.add_argument("--measure", help="measure JSON file")
    sp.add_argument("--n", type=_degree(0), required=True)
    sp.set_defaults(func=_cmd_zeros)

    sp = sub.add_parser("recurrence", parents=[family_or_file],
                        help="emit recurrence coefficients")
    sp.add_argument("--measure", help="measure JSON file")
    sp.add_argument("--n-max", dest="n", type=_degree(0), required=True)
    sp.add_argument("--form", choices=("general", "monic"),
                    default="general")
    sp.set_defaults(func=_cmd_recurrence)

    sp = sub.add_parser("check", parents=[family], help="verify an identity")
    sp.add_argument("--identity", required=True, choices=_CHECK_TOLS)
    sp.add_argument("--n", type=_degree(0), required=True)
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("diagnose", parents=[family_or_file],
                        help="moment problem diagnostics")
    sp.add_argument("--recurrence", help="recurrence JSON file")
    sp.add_argument("--measure", help="measure JSON file")
    sp.add_argument("--carleman", action="store_true")
    sp.add_argument("--rho", type=_point, help="real or complex point")
    sp.add_argument("--true-interval", dest="true_interval", type=_degree(1))
    sp.set_defaults(func=_cmd_diagnose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.tol_given = args.tol is not None
        args.tol = _tolerance(args.tol)
        return args.func(args)
    except ConfigError as exc:
        print(f"orthopoly: invalid configuration: {exc}", file=_sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"orthopoly: numerical failure: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
