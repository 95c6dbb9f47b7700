"""One way to check a configuration or wire-spec dataclass.

Each class calls :func:`check` from ``__post_init__`` and names the
:class:`~repro.errors.ReproError` subclass its callers catch in an
``_error`` class attribute; a document from outside the program is
read by :func:`from_dict`, after :func:`as_object` when it is JSON
text.  Types come from the field annotations, resolved once per class:
``Optional`` admits None, ``float`` admits int, a bool is never a
number, a generic container is checked by its origin only and ``Any``
not at all.  Bounds are declared on the field --
``field(metadata={"min": 0})``, or ``"max"``, ``"gt"``, ``"choices"``
-- and skip None; on a ``dict`` field they apply to each value, which
is then type-checked too.  See DESIGN.md, "Configuration".
"""

from __future__ import annotations

import json
import operator
import types
from dataclasses import MISSING, fields, is_dataclass
from typing import (
    Any, NamedTuple, Union, get_args, get_origin, get_type_hints,
)

__all__ = ["as_object", "check", "from_dict"]

#: bound name -> (test, the words an error message uses)
_BOUNDS = {
    "min": (operator.ge, ">="),
    "max": (operator.le, "<="),
    "gt": (operator.gt, ">"),
    "choices": (lambda value, choices: value in choices, "one of"),
}


def _rule(hint: Any, bounds: Any) -> tuple:
    """(allowed classes, their names, whether a bool is one, bounds)."""
    union = get_origin(hint) in (Union, types.UnionType)
    declared = tuple(
        t for t in (get_origin(o) or o for o in
                    (get_args(hint) if union else (hint,)))
        if isinstance(t, type) and t is not Any
    )
    names = " or ".join(
        "None" if t is type(None) else t.__name__ for t in declared
    )
    allowed = declared + ((int,) if float in declared else ())
    limits = tuple((*_BOUNDS[key], limit) for key, limit in bounds.items())
    return allowed, names, bool in declared, limits


def _apply(error: type, label: str, value: Any, rule: tuple) -> None:
    allowed, names, bool_ok, limits = rule
    if allowed and not (isinstance(value, allowed)
                        and (bool_ok or value.__class__ is not bool)):
        raise error(f"{label} must be {names}, got {value!r}")
    if value is not None:
        for test, words, limit in limits:
            if not test(value, limit):
                raise error(f"{label} must be {words} {limit}, got {value!r}")


class _Plan(NamedTuple):
    error: type
    #: (field name, rule, rule for each value of a bounded dict field)
    rules: list
    known: frozenset
    required: list
    #: (field name, dataclass a dict given for it is built into)
    nested: list


_PLANS: dict[type, _Plan] = {}


def _plan(cls: type) -> _Plan:
    plan = _PLANS.get(cls)
    if plan is None:
        hints = get_type_hints(cls)
        rules, required, nested = [], [], []
        for f in fields(cls):
            hint = hints[f.name]
            each = None
            if f.metadata and get_origin(hint) is dict:
                each = _rule(get_args(hint)[1], f.metadata)
            rule = _rule(hint, {} if each else f.metadata)
            rules.append((f.name, rule, each))
            if f.default is MISSING and f.default_factory is MISSING:
                required.append(f.name)
            nested += [(f.name, t) for t in rule[0] if is_dataclass(t)]
        known = frozenset(f.name for f in fields(cls))
        plan = _PLANS[cls] = _Plan(cls._error, rules, known, required, nested)
    return plan


def check(obj: Any, prefix: str = "") -> None:
    """Raise ``type(obj)._error`` naming the first field whose value
    has the wrong type or breaks a bound declared on the field."""
    plan = _plan(type(obj))
    for name, rule, each in plan.rules:
        value = getattr(obj, name)
        _apply(plan.error, prefix + name, value, rule)
        if each is not None and value is not None:
            for key, item in value.items():
                _apply(plan.error, f"{prefix}{name}[{key}]", item, each)


def as_object(doc: Any, what: str, error: type) -> dict[str, Any]:
    """A whole document as a dict: JSON text is parsed, and anything
    but an object is refused with ``error``."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise error(f"invalid {what} JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise error(f"{what} must be a JSON object, got {doc!r}")
    return doc


def from_dict(cls: type, doc: Any, what: str) -> Any:
    """Build ``cls`` from a JSON object, refusing anything else and
    unknown or missing keys by name, so a typoed knob never silently
    does nothing.  A dict given for a dataclass-typed field is built
    the same way, named after the field."""
    plan = _plan(cls)
    if not isinstance(doc, dict):
        raise plan.error(f"{what} must be a JSON object, got {doc!r}")
    unknown = set(doc) - plan.known
    if unknown:
        raise plan.error(f"unknown {what} keys: {sorted(unknown)}; "
                         f"known keys: {sorted(plan.known)}")
    if any(name not in doc for name in plan.required):
        raise plan.error(f"{what} needs at least "
                         + " and ".join(map(repr, plan.required)))
    for name, nested in plan.nested:
        if isinstance(doc.get(name), dict):
            doc = {**doc, name: from_dict(nested, doc[name], name)}
    return cls(**doc)
