"""JSON documents of recurrence systems, measures and quadrature rules.

Documents carry a versioned `schema: 1` field.  Measures are only read,
never written: a document names a family of the registry
(families.PARAMETERS) with its parameters, or lists finite nodes and
weights.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from . import families as _families
from .errors import SCHEMA_VERSION
from .recurrence import FORMS, RecurrenceSystem, from_tables

if TYPE_CHECKING:  # annotations only: these load with their users
    from .kernels import QuadratureRule
    from .measures import Measure


class SchemaError(ValueError):
    """Malformed or unsupported document."""


def _check_schema(doc: dict) -> None:
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object")
    if doc.get("schema") != SCHEMA_VERSION:
        raise SchemaError(f"expected schema {SCHEMA_VERSION}, "
                          f"got {doc.get('schema')!r}")


def _required(doc: dict, key: str, what: str):
    if key not in doc:
        raise SchemaError(f"missing {key!r} in {what}")
    return doc[key]


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _number(doc: dict, key: str, default: float) -> float:
    value = doc.get(key, default)
    if not _is_number(value):
        raise SchemaError(f"{key!r} must be a number, got {value!r}")
    return float(value)


def _tables(doc, keys: tuple[str, ...], what: str) -> list[list]:
    """doc[key] for each key: lists of numbers, all of one length."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{what} must be an object")
    tables = [_required(doc, key, what) for key in keys]
    for key, table in zip(keys, tables):
        if not (isinstance(table, list) and all(map(_is_number, table))):
            raise SchemaError(f"{what}: {key!r} must be a list of numbers")
    if len({len(table) for table in tables}) > 1:
        raise SchemaError(f"{what}: {', '.join(map(repr, keys))} must be of "
                          "equal length")
    return tables


def _family_spec(name: str, params: dict) -> _families.FamilySpec:
    if not isinstance(name, str) or not isinstance(params, dict):
        raise SchemaError("a family is a name and an object of parameters")
    try:
        return _families.family_spec(name, params)
    except KeyError as exc:
        raise SchemaError(f"family {name!r} needs parameter "
                          f"{exc.args[0]!r}") from exc
    except _families.FamilyError as exc:
        raise SchemaError(str(exc)) from exc
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"family {name!r}: parameters must be numbers") \
            from exc


# ---------------------------------------------------------------------------
# recurrence documents

def load_recurrence(doc: dict) -> RecurrenceSystem:
    """Read a recurrence document: coefficient tables or a named family."""
    _check_schema(doc)
    form = doc.get("form", "general")
    if form not in FORMS:
        raise SchemaError(f"unknown form {form!r}")
    if "family" in doc:
        spec = _family_spec(doc["family"], doc.get("parameters", {}))
        if form == "monic":
            return _families.family_monic_system(spec)
        return _families.family_system(spec)
    if "coefficients" not in doc:
        raise SchemaError("document needs 'family' or 'coefficients'")
    a, b, c = _tables(doc["coefficients"], ("a", "b", "c"), "coefficients")
    return from_tables(a, b, c, form=form, p0=_number(doc, "p0", 1.0))


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
        spec = _family_spec(_required(doc, "name", f"a {kind} measure"),
                            doc.get("parameters", {}))
        if spec.discrete != (kind == "discrete_infinite"):
            raise SchemaError(f"{spec.family} has no {kind} measure")
        m = _families.family_measure(spec)
        if "normalizer" in doc:
            from dataclasses import replace
            m = replace(m, normalizer=_number(doc, "normalizer", 1.0))
        return m
    if kind == "discrete_finite":
        from .measures import discrete_measure
        nodes, weights = _tables(doc, ("nodes", "weights"),
                                 "a discrete_finite measure")
        normalizer = _number(doc, "normalizer", 1.0)
        try:
            return discrete_measure(nodes, weights, normalizer=normalizer)
        except ValueError as exc:  # a weight that is not positive
            raise SchemaError(str(exc)) from exc
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
