"""The one module that opens a JSON file.

Operator, window-data and counts files carry a header, `version` and `d`;
reports and sweep configs do not. A malformed file is a named ValueError.

A float array is written as a record `{"shape": [...], "float64": text}`,
the text being the base64 of the entries as little-endian IEEE-754 doubles
in C order: exact, and about a tenth of the time that decimal JSON numbers
take to write and to parse. `float_array` reads that record and also a
nested array of JSON numbers, the form of files written before the record
and of operators written by hand.
"""

from __future__ import annotations

import base64
import json
import math

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


def float_record(array) -> dict:
    """The file form of a float array: its shape, and its entries as the
    base64 text of little-endian float64 bytes in C order."""
    data = np.ascontiguousarray(array, dtype="<f8")
    return {"shape": list(data.shape),
            "float64": base64.b64encode(data).decode("ascii")}


def _decode_record(record: dict, where) -> np.ndarray:
    """The array of a float_record, checked field by field."""
    require(record, ("shape", "float64"), where, allowed=())
    shape, text = record["shape"], record["float64"]
    require_type(shape, list, f"{where} shape")
    for i, n in enumerate(shape):
        require_type(n, int, f"{where} shape[{i}]")
        if n < 0:
            raise ValueError(f"{where} shape[{i}] must be nonnegative, "
                             f"not {n}")
    require_type(text, str, f"{where} float64")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or text that is not ASCII
        raise ValueError(f"{where} float64 is not valid base64: "
                         f"{exc}") from None
    size = 8 * math.prod(shape)
    if len(raw) != size:
        raise ValueError(f"{where} float64 holds {len(raw)} bytes; shape "
                         f"{shape} needs {size}")
    try:
        return np.frombuffer(raw, dtype="<f8").astype(float).reshape(shape)
    except ValueError as exc:  # more axes, or longer ones, than numpy takes
        raise ValueError(f"{where} shape: {exc}") from None


def float_array(value, where) -> np.ndarray:
    """A float array from its float_record, or from a JSON array of
    numbers nested to any depth. Rejects a value that is neither, a record
    with a missing or extra field, a shape that is not a list of
    nonnegative integers, text that is not base64 of 8 bytes per entry of
    the shape, and in the nested form an entry that is not a number (a
    string, a bool, a null) and rows that differ in length."""
    if isinstance(value, dict):
        return _decode_record(value, where)
    if not isinstance(value, list):
        raise ValueError(f"{where} must be a float64 record or a JSON "
                         f"array, not {type(value).__name__}")
    entries = np.asarray(value, dtype=object)
    kinds = set(map(type, entries.ravel())) - {int, float}
    if list in kinds:
        raise ValueError(f"{where}: rows differ in length")
    if kinds:
        raise ValueError(f"{where}: entries must be JSON numbers, not "
                         f"{min(kind.__name__ for kind in kinds)}")
    return entries.astype(float)


def require(record: dict, fields, where, allowed=None) -> None:
    """Reject a record that is not an object, has a field outside `fields`
    and `allowed` (if `allowed` is given) or lacks one of `fields`;
    `where` names it."""
    require_type(record, dict, where)
    if allowed is not None:
        unknown = sorted(set(record) - {*fields, *allowed})
        if unknown:
            raise ValueError(f"{where}: unknown field {unknown[0]!r}")
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
    require(payload, required, path, allowed)
    return payload
