"""The one module that opens a JSON file, and the float64 companion of
an operator or window-data file.

Operator, window-data and counts files carry a header, `version` and `d`;
reports and sweep configs do not. A malformed file, text that is not
JSON among them, is a named ValueError whose message starts with the
file's path.

The float arrays of an operator or window-data file `path` live in one
companion file, `path.f64`: raw little-endian IEEE-754 doubles in C
order, one array after another in the order the JSON lists them. The
JSON holds one record `{"shape": [...], "offset": k}` per array, k
counted in entries, so writing and reading the data is one buffer copy
each way, exact to the bit. `read_floats` also reads a nested array of
JSON numbers in place of a record, the form of operators written by
hand.
"""

from __future__ import annotations

import json
import math
import numbers
import os

import numpy as np

FORMAT_VERSION = 1


def write_json(path, payload, indent: int | None = None) -> None:
    # encoded before the file is opened: a refused payload leaves it as is.
    # json.dumps runs the C encoder when indent is None; json.dump always
    # runs the Python one. Both give the same text.
    text = json.dumps(payload, indent=indent) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


_JSON_TYPES = {dict: ("object", dict), list: ("array", list),
               int: ("integer", int), float: ("number", (int, float)),
               str: ("string", str)}


def require_integer(value, where) -> None:
    """Reject an argument that is not an integer (numpy's are; a bool or
    4.0 is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{where} must be an integer, not "
                         f"{type(value).__name__}")


def require_real(value, where, nonnegative: bool = False) -> float:
    """`value` as a float; rejects an argument that is not a real number
    (numpy's are; a bool is not), one that is not finite and, with
    `nonnegative`, one below 0."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{where} must be a real number, not "
                         f"{type(value).__name__}")
    value = float(value)
    if not (math.isfinite(value) and (value >= 0.0 or not nonnegative)):
        raise ValueError(f"{where} must be finite"
                         f"{' and nonnegative' * nonnegative}, not {value!r}")
    return value


def require_type(value, kind: type, where) -> None:
    """Reject a value that is not a JSON object (kind dict), array (list),
    integer (int), number (float, which admits an integer) or string
    (str). A bool is not an integer or a number, and 4.0 is not an
    integer."""
    name, accepted = _JSON_TYPES[kind]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ValueError(f"{where} must be a JSON {name}, not "
                         f"{type(value).__name__}")


def companion(path) -> str:
    """The path of the float64 companion of the file at `path`."""
    return f"{os.fspath(path)}.f64"


def write_floats(path, payload: dict) -> None:
    """Write an operator or window-data file: `payload` as JSON to `path`,
    with each value that is a numpy array, or a list of them, written to
    the companion and replaced in the JSON by its records. Refuses, and
    writes neither file, when an entry is not finite or the JSON cannot
    be encoded; writes the companion first and the JSON last."""
    arrays, out, offset = [], {}, 0
    for key, value in payload.items():
        group = (type(value) is list and bool(value)
                 and isinstance(value[0], np.ndarray))
        if not (group or isinstance(value, np.ndarray)):
            out[key] = value
            continue
        records = []
        for i, array in enumerate(value if group else [value]):
            array = np.ascontiguousarray(array, dtype="<f8")
            if not np.isfinite(array).all():
                name = f"{key}[{i}]" if group else key
                raise ValueError(f"{path}: {name}: entries must be finite")
            records.append({"shape": list(array.shape), "offset": offset})
            arrays.append(array)
            offset += array.size
        out[key] = records if group else records[0]
    text = json.dumps(out) + "\n"
    with open(companion(path), "wb") as fh:
        for array in arrays:
            fh.write(array)
    with open(path, "w") as fh:
        fh.write(text)


def _shape(shape, where) -> list:
    """A record's shape, checked to be a list of nonnegative integers."""
    require_type(shape, list, f"{where} shape")
    for i, n in enumerate(shape):
        require_type(n, int, f"{where} shape[{i}]")
        if n < 0:
            raise ValueError(f"{where} shape[{i}] must be nonnegative, "
                             f"not {n}")
    return shape


def _reshape(flat: np.ndarray, shape: list, where) -> np.ndarray:
    try:
        return flat.reshape(shape)
    except ValueError as exc:  # more axes, or longer ones, than numpy takes
        raise ValueError(f"{where} shape: {exc}") from None


def _float_array(value, where) -> np.ndarray:
    """A float array from a JSON array of numbers nested to any depth.
    Rejects a value that is not an array, an entry that is not a number
    (a string, a bool, a null) and rows that differ in length."""
    if not isinstance(value, list):
        raise ValueError(f"{where} must be a float record or a JSON "
                         f"array, not {type(value).__name__}")
    entries = np.asarray(value, dtype=object)
    kinds = set(map(type, entries.ravel())) - {int, float}
    if list in kinds:
        raise ValueError(f"{where}: rows differ in length")
    if kinds:
        raise ValueError(f"{where}: entries must be JSON numbers, not "
                         f"{min(kind.__name__ for kind in kinds)}")
    return entries.astype(float)


def _read_companion(path, spans: dict) -> dict:
    """The arrays that `spans` (name: (offset, shape), in file order) cut
    from the companion of `path`, all views of one array it is read into
    once, after its size and the spans are checked against each other."""
    name = companion(path)
    total = sum(math.prod(shape) for _, shape in spans.values())
    try:
        fh = open(name, "rb")
    except FileNotFoundError:
        raise ValueError(f"{path}: companion {name} is missing") from None
    with fh:
        size = os.fstat(fh.fileno()).st_size
        if size != 8 * total:
            raise ValueError(f"{path}: companion holds {size} bytes; its "
                             f"records list {total} entries, {8 * total} "
                             "bytes")
        end = 0
        for key, (offset, shape) in spans.items():
            if offset != end:
                raise ValueError(f"{path}: {key} offset {offset}: the "
                                 "records do not tile the companion in "
                                 f"order, which puts it at {end}")
            end += math.prod(shape)
        flat = np.empty(total, dtype="<f8")
        got = fh.readinto(flat)
        if got != size:
            raise ValueError(f"{path}: companion ended after {got} of "
                             f"{size} bytes")
    flat = flat.astype(float, copy=False)
    return {key: _reshape(flat[offset:offset + math.prod(shape)], shape,
                          f"{path}: {key}")
            for key, (offset, shape) in spans.items()}


def read_floats(path, values: dict) -> list[np.ndarray]:
    """The float arrays of an operator or window-data file, `values`
    mapping each array's name to its JSON value in file order.

    A JSON object is a record `{"shape", "offset"}` that takes its
    entries from the companion; a JSON array is the nested form, read by
    `_float_array`. Rejects a record with a missing or extra field (the
    `float64` of the records written before the companion among them), a
    shape that is not a list of nonnegative integers, an offset that is
    not a nonnegative integer, a missing companion, one whose byte count
    is not 8 times the entries its records list, and a record that does
    not start where the record before it ends."""
    arrays, spans = {}, {}
    for key, value in values.items():
        where = f"{path}: {key}"
        if isinstance(value, dict):
            require(value, ("shape", "offset"), where, allowed=())
            shape, offset = _shape(value["shape"], where), value["offset"]
            require_type(offset, int, f"{where} offset")
            if offset < 0:
                raise ValueError(f"{where} offset must be nonnegative, "
                                 f"not {offset}")
            spans[key] = (offset, shape)
        else:
            arrays[key] = _float_array(value, where)
    if spans:
        arrays.update(_read_companion(path, spans))
    return [arrays[key] for key in values]


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
    every field of `required` is present. Text that is not JSON is a
    ValueError that names the path."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None
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
