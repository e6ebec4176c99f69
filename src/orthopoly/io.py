"""JSON documents of recurrence systems, measures and quadrature rules.

Documents carry a versioned `schema: 1` field.  Measures are only read,
never written: a document names a family of the registry
(families.PARAMETERS) with its parameters, or lists finite nodes and
weights.
"""

from __future__ import annotations

import json
from dataclasses import replace

from . import families as _families
from .kernels import QuadratureRule
from .measures import Measure, discrete_measure
from .recurrence import RecurrenceSystem, from_tables

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """Malformed or unsupported document."""


def _check_schema(doc: dict) -> None:
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object")
    if doc.get("schema") != SCHEMA_VERSION:
        raise SchemaError(f"expected schema {SCHEMA_VERSION}, "
                          f"got {doc.get('schema')!r}")


def _family_spec(name: str, params: dict) -> _families.FamilySpec:
    try:
        return _families.family_spec(name, params)
    except KeyError as exc:
        raise SchemaError(f"family {name!r} needs parameter "
                          f"{exc.args[0]!r}") from exc
    except _families.FamilyError as exc:
        raise SchemaError(str(exc)) from exc


# ---------------------------------------------------------------------------
# recurrence documents

def load_recurrence(doc: dict) -> RecurrenceSystem:
    """Read a recurrence document: coefficient tables or a named family."""
    _check_schema(doc)
    if "family" in doc:
        spec = _family_spec(doc["family"], doc.get("parameters", {}))
        if doc.get("form", "general") == "monic":
            return _families.family_monic_system(spec)
        return _families.family_system(spec)
    tables = doc.get("coefficients")
    if tables is None:
        raise SchemaError("document needs 'family' or 'coefficients'")
    return from_tables(tables["a"], tables["b"], tables["c"],
                       form=doc.get("form", "general"),
                       p0=float(doc.get("p0", 1.0)))


def dump_recurrence(sys: RecurrenceSystem, n_max: int) -> dict:
    """Tabulate a system's coefficients into a document."""
    a, b, c = sys.arrays(n_max).tolist()
    return {"schema": SCHEMA_VERSION, "form": sys.form, "p0": sys.p0,
            "coefficients": {"a": a, "b": b, "c": c}}


# ---------------------------------------------------------------------------
# measure documents

def load_measure(doc: dict) -> Measure:
    """Read a measure document (named weight or explicit finite support)."""
    _check_schema(doc)
    kind = doc.get("kind")
    if kind in ("continuous", "discrete_infinite"):
        spec = _family_spec(doc["name"], doc.get("parameters", {}))
        if spec.discrete != (kind == "discrete_infinite"):
            raise SchemaError(f"{spec.family} has no {kind} measure")
        m = _families.family_measure(spec)
        if "normalizer" in doc:
            m = replace(m, normalizer=float(doc["normalizer"]))
        return m
    if kind == "discrete_finite":
        return discrete_measure(doc["nodes"], doc["weights"],
                                normalizer=float(doc.get("normalizer", 1.0)))
    raise SchemaError(f"unknown measure kind {kind!r}")


# ---------------------------------------------------------------------------
# quadrature rules

def dump_rule(rule: QuadratureRule, tolerance: float) -> dict:
    return {"schema": SCHEMA_VERSION,
            "nodes": list(map(float, rule.nodes)),
            "weights": list(map(float, rule.weights)),
            "exactness_degree": rule.exactness_degree,
            "tolerance": tolerance}


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
