"""Span tracing of orthopoly's layers from outside the package.

`Tracer.install()` replaces each traced function, at module-attribute
level, in every orthopoly module that holds a reference to it (the module
that defines it and the ones that imported it), plus
`RecurrenceSystem.coeffs` and scipy's tridiagonal eigensolvers.  Spans
(name, start, end, parent, op id) stay in flat in-memory arrays and are
written out by `dump()`.  Self time is a span's duration minus the time
covered by its children; it is accumulated per span name as spans close.
Names that do not exist in the package being measured are skipped.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# span name -> (module, attributes) of the functions that open it
SPANS = {
    "recurrence.coeff": ("recurrence", ("RecurrenceSystem.coeffs",)),
    "recurrence.eval": ("recurrence", ("eval_poly", "eval_all",
                                       "eval_poly_with_derivative")),
    "recurrence.norms": ("recurrence", ("norms_from_recurrence",
                                        "convert_form")),
    "families.system": ("families", (
        "family_system", "family_monic_system", "family_bundle",
        "family_measure", "family_mu0", "jacobi_system", "legendre_system",
        "hermite_system", "laguerre_system", "jacobi_monic_system",
        "laguerre_monic_system", "hermite_monic_system",
        "jacobi_leading_coeff", "jacobi_monic_b", "jacobi_monic_c")),
    "families.series": ("families", ("jacobi_eval", "laguerre_eval",
                                     "hermite_eval", "special_case_eval",
                                     "hyp", "hyp_terminating")),
    "families.check": ("families", (
        "ode_residual", "shift_check", "quadratic_transform_check",
        "limit_check", "family_coeffs", "jacobi_coeffs", "laguerre_coeffs",
        "hermite_coeffs")),
    "discrete.system": ("discrete", ("charlier_system", "family_measure")),
    "discrete.eval": ("discrete", ("discrete_eval",)),
    "kernels.jacobi_matrix": ("kernels", ("jacobi_matrix",)),
    "kernels.gauss_rule": ("kernels", ("gauss_rule",)),
    "kernels.zeros": ("kernels", ("zeros",)),
    "kernels.cd_kernel": ("kernels", ("cd_kernel",)),
    "measures.integrate": ("measures", ("integrate", "inner_product")),
    "measures.stieltjes": ("measures", ("recurrence_from_measure",)),
    # no metric of its own: keeps the moment loop of `diagnose --measure`
    # out of cli.main's self time
    "measures.moments": ("measures", ("moments", "hankel_minors")),
    "momentprob.true_interval": ("momentprob", ("true_interval",)),
    "momentprob.carleman": ("momentprob", ("carleman",
                                           "carleman_moment_terms")),
    "momentprob.rho": ("momentprob", ("rho",)),
    "qseries.eval": ("qseries", ("askey_wilson_eval", "cq_ultraspherical",
                                 "basic_hyp")),
    "io": ("io", ("family_spec_from_params", "load_recurrence",
                  "dump_recurrence", "load_measure", "dump_measure",
                  "dump_rule", "read_json")),
    "cli.main": ("cli", ("main",)),
}
EIGENSOLVE = "kernels.eigensolve"
MODULES = ("recurrence", "families", "discrete", "kernels", "measures",
           "momentprob", "qseries", "io", "cli")


class Tracer:
    """Records spans of one process; `op_id` tags the current operation."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.eval_points = 0
        self.momentprob_eigensolves = 0
        self.op_id = -1
        self._stack: list[list] = []  # [span index, name, t0, child time]
        self._restore: list = []

    # -- span bookkeeping -------------------------------------------------
    def _name(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name: str) -> None:
        idx = len(self.start)
        self.name_id.append(self._name(name))
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.op.append(self.op_id)
        t0 = time.perf_counter()
        self.start.append(t0)
        self.end.append(0.0)
        self._stack.append([idx, name, t0, 0.0])

    def close(self) -> None:
        t1 = time.perf_counter()
        idx, name, t0, child = self._stack.pop()
        self.end[idx] = t1
        dur = t1 - t0
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._stack:
            self._stack[-1][3] += dur

    def _in(self, prefix: str) -> bool:
        return any(f[1].startswith(prefix) for f in self._stack)

    def _wrap(self, fn, name):
        tracer = self

        if name == "recurrence.eval":
            def wrapper(*args, **kwargs):
                if len(args) > 2:
                    tracer.eval_points += int(np.size(args[2]))
                tracer.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close()
        elif name == EIGENSOLVE:
            def wrapper(*args, **kwargs):
                if tracer._in("momentprob."):
                    tracer.momentprob_eigensolves += 1
                tracer.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close()
        else:
            def wrapper(*args, **kwargs):
                tracer.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close()
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        mods = {m: sys.modules.get(f"orthopoly.{m}") for m in MODULES}
        mods = {m: v for m, v in mods.items() if v is not None}
        replace: dict[int, object] = {}
        for name, (modname, attrs) in SPANS.items():
            mod = mods.get(modname)
            if mod is None:
                continue
            for attr in attrs:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name, None)
                    fn = getattr(cls, meth, None) if cls else None
                    if fn is not None:
                        self._restore.append((cls, meth, fn))
                        setattr(cls, meth, self._wrap(fn, name))
                    continue
                fn = getattr(mod, attr, None)
                if callable(fn) and id(fn) not in replace:
                    replace[id(fn)] = self._wrap(fn, name)
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                w = replace.get(id(val))
                if w is not None:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, w)
        import scipy.linalg as sla
        for attr in ("eigh_tridiagonal", "eigvalsh_tridiagonal"):
            fn = getattr(sla, attr, None)
            if fn is not None:
                self._restore.append((sla, attr, fn))
                setattr(sla, attr, self._wrap(fn, EIGENSOLVE))

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._restore):
            setattr(owner, attr, val)
        self._restore.clear()

    # -- results ----------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write every recorded span to a compressed .npz file."""
        np.savez_compressed(
            path, names=np.array(self.names), name=np.asarray(self.name_id),
            parent=np.asarray(self.parent), op=np.asarray(self.op),
            start=np.asarray(self.start), end=np.asarray(self.end))
