"""Tiny binary container: magic, version, JSON header, float64 payload.

Layout (all integers little-endian):

    magic      4 bytes
    version    u32
    header_len u64
    header     header_len bytes of UTF-8 JSON
    payload    concatenated float64 arrays, row-major, little-endian

The reader takes a callback mapping the parsed header to the expected
array shapes, so shape errors surface as header mismatches rather than
silent misreads.  The reader owns dimension validation: every declared
dimension must be a non-negative ``int`` (not a bool, float or string).
:func:`typed_fields` reads the other header fields, each at the exact JSON
type of the dataclass field it fills.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .errors import (
    FileFormatError,
    HeaderMismatchError,
    TruncatedFileError,
    VersionMismatchError,
)

_FIXED = struct.Struct("<4sIQ")

# JSON types a header value may have, by the declared type of the field it
# fills; exact types, so a bool is not an int and nothing is coerced
_HEADER_TYPES = {
    "int": (int,),
    "int | None": (int, type(None)),
    "bool": (bool,),
    "str": (str,),
    "str | None": (str, type(None)),
    "dict": (dict,),
    "tuple[str, ...]": (list,),  # and every item a str
}


def write(path, magic: bytes, version: int, header: dict, arrays: list[np.ndarray]) -> None:
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    blob = bytearray(_FIXED.pack(magic, version, len(header_bytes)))
    blob += header_bytes
    for array in arrays:
        blob += np.ascontiguousarray(array, dtype="<f8").tobytes()
    Path(path).write_bytes(bytes(blob))


def read(path, magic: bytes, version: int, shapes_from_header) -> tuple[dict, list[np.ndarray]]:
    """Parse a container; ``shapes_from_header(header)`` lists expected shapes."""
    blob = Path(path).read_bytes()
    if len(blob) < _FIXED.size:
        raise TruncatedFileError(f"{path}: too short for a container header")
    got_magic, got_version, header_len = _FIXED.unpack_from(blob)
    if got_magic != magic:
        raise FileFormatError(f"{path}: bad magic {got_magic!r}, expected {magic!r}")
    if got_version != version:
        raise VersionMismatchError(
            f"{path}: file version {got_version}, this build reads version {version}"
        )
    header_end = _FIXED.size + header_len
    if len(blob) < header_end:
        raise TruncatedFileError(f"{path}: header runs past end of file")
    try:
        header = json.loads(blob[_FIXED.size : header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"{path}: header is not valid JSON: {exc}") from exc
    try:
        shapes = shapes_from_header(header)
    except (KeyError, TypeError, ValueError) as exc:
        raise HeaderMismatchError(f"{path}: header is missing fields: {exc}") from exc
    arrays = []
    offset = header_end
    for shape in shapes:
        if not all(isinstance(d, int) and not isinstance(d, bool) for d in shape):
            raise HeaderMismatchError(f"{path}: declared shape {shape} has a non-integer dimension")
        if any(d < 0 for d in shape):
            raise HeaderMismatchError(f"{path}: declared shape {shape} has a negative dimension")
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        nbytes = count * 8
        if offset + nbytes > len(blob):
            raise TruncatedFileError(
                f"{path}: payload ends early; wanted {nbytes} bytes for shape {shape}"
            )
        flat = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
        arrays.append(flat.reshape(shape).astype(np.float64))
        offset += nbytes
    if offset != len(blob):
        raise HeaderMismatchError(
            f"{path}: {len(blob) - offset} trailing bytes beyond the declared payload"
        )
    return header, arrays


def typed_fields(header: dict, declared: dict[str, str], owner: str) -> dict:
    """The ``declared`` fields of ``header``, each present at its exact JSON type.

    ``declared`` maps a field name to the annotation of the dataclass field
    it fills, as written in the source.

    Raises:
        KeyError: a field is missing.
        TypeError: a field holds another JSON type.
    """
    values = {}
    for name, kind in declared.items():
        value = header[name]
        valid = type(value) in _HEADER_TYPES[kind]
        if valid and kind == "tuple[str, ...]":
            valid = all(type(item) is str for item in value)
        if not valid:
            raise TypeError(f"{owner}.{name} = {value!r} is not of type {kind}")
        values[name] = value
    return values
