"""The one module that opens a JSON file.

Operator, window-data and counts files carry a header, `version` and `d`;
reports and sweep configs do not. A malformed file is a named ValueError.
"""

from __future__ import annotations

import json

import numpy as np

FORMAT_VERSION = 1


def write_json(path, payload, indent: int | None = None) -> None:
    # json.dumps runs the C encoder when indent is None; json.dump always
    # runs the Python one. Both write the same text.
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=indent))
        fh.write("\n")


_JSON_TYPES = {dict: ("object", dict), list: ("array", list),
               int: ("integer", int), float: ("number", (int, float)),
               str: ("string", str)}


def require_type(value, kind: type, where) -> None:
    """Reject a value that is not a JSON object (kind dict), array (list),
    integer (int), number (float, which admits an integer) or string
    (str). A bool is not an integer or a number, and 4.0 is not an
    integer."""
    name, accepted = _JSON_TYPES[kind]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ValueError(f"{where} must be a JSON {name}, not "
                         f"{type(value).__name__}")


def float_array(value, where) -> np.ndarray:
    """A JSON array of numbers, nested to any depth, as a float array.
    Rejects a value that is not an array, an entry that is not a number
    (a string, a bool, a null) and rows that differ in length."""
    require_type(value, list, where)
    entries = np.asarray(value, dtype=object)
    kinds = set(map(type, entries.ravel())) - {int, float}
    if list in kinds:
        raise ValueError(f"{where}: rows differ in length")
    if kinds:
        raise ValueError(f"{where}: entries must be JSON numbers, not "
                         f"{min(kind.__name__ for kind in kinds)}")
    return entries.astype(float)


def require(record: dict, fields, where) -> None:
    """Reject a record that is not an object or lacks one of `fields`;
    `where` names it."""
    require_type(record, dict, where)
    missing = [name for name in fields if name not in record]
    if missing:
        raise ValueError(f"{where}: missing field {missing[0]!r}")


def read_json(path, required=(), header: bool = True, allowed=None) -> dict:
    """The JSON object in `path`, checked in this order: the top level is
    an object; with `header`, the version is FORMAT_VERSION and d is 2;
    if `allowed` is given, no field is outside `required` and `allowed`;
    every field of `required` is present."""
    with open(path) as fh:
        payload = json.load(fh)
    require_type(payload, dict, f"{path}: top level")
    if header and payload.get("version") != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported file version "
                         f"{payload.get('version')!r}; expected "
                         f"{FORMAT_VERSION}")
    if header and payload.get("d") != 2:
        raise ValueError(f"{path}: unsupported local dimension d = "
                         f"{payload.get('d')!r}; every site is a qubit "
                         "(d = 2)")
    known = payload if allowed is None else (*required, *allowed)
    unknown = sorted(set(payload) - set(known))
    if unknown:
        raise ValueError(f"{path}: unknown field {unknown[0]!r}")
    require(payload, required, path)
    return payload
