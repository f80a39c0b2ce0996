"""Tiny binary container: magic, version, JSON header, float64 payload.

Layout (all integers little-endian):

    magic      4 bytes
    version    u32
    header_len u64
    header     header_len bytes of UTF-8 JSON
    payload    concatenated float64 arrays, row-major, little-endian

The reader takes a callback mapping the parsed header to the expected
array shapes, so shape errors surface as header mismatches rather than
silent misreads.  The writer writes each array's payload from the
array's own buffer and holds no copy of the file in memory; only an
array that is not already C-ordered little-endian float64 is converted
first.  One function encodes a header and one decodes it.  Each file
format has one parser, which makes its object from a header and arrays
as read; the writer runs it on the header decoded from the bytes it is
about to write and on the arrays as written before it opens the file,
and the reader returns what it makes.  What a parser refuses becomes an
error here and nowhere else: a ``ValidationError`` on write, a
``HeaderMismatchError`` naming the file on read.  The reader owns
dimension validation: every declared dimension must be a non-negative
``int`` (not a bool, float or string), and the declared payload must fill
the file exactly; both are checked before any payload byte is read, and
:func:`read_header` stops there.  :func:`typed_fields` reads the other
header fields, each at the exact JSON type of the dataclass field it
fills.  A header nests at most :data:`MAX_HEADER_LEVELS` dicts and lists,
itself included: the writer refuses a deeper field with a
``ValidationError`` naming it, and the reader a deeper header with a
``FileFormatError``.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .errors import (
    FileFormatError,
    HeaderMismatchError,
    MclnnError,
    ShapeError,
    TruncatedFileError,
    ValidationError,
    VersionMismatchError,
)

_FIXED = struct.Struct("<4sIQ")

# most dicts and lists a header may nest, itself included; the package's own
# headers reach 4, and the bound holds at any stack depth of the caller
MAX_HEADER_LEVELS = 32

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


def write(path, magic: bytes, version: int, header: dict, arrays: list[np.ndarray], parse) -> None:
    """Write a container, each array's payload straight from its own buffer.

    Every array is converted to C-ordered ``<f8`` and the header encoded
    before the file is opened, so a bad array or header raises with no
    file written; an array already in that layout is not copied.  A header
    value JSON cannot encode, or one that nests too deeply, raises
    ``ValidationError`` naming its field.

    ``parse(parsed, arrays)`` is the file format's parser, as :func:`read`
    runs it: it gets the header decoded from the bytes about to be
    written and the arrays as written, and runs before the file is
    opened.  A ``KeyError``, ``TypeError``, ``ValueError`` or ``ShapeError``
    it raises becomes a ``ValidationError`` with its message; any other
    error passes as it is.
    """
    arrays = [np.ascontiguousarray(array, dtype="<f8") for array in arrays]
    header_bytes = _encode(header)
    try:
        parse(_decode(header_bytes), arrays)
    except (KeyError, TypeError, ValueError, ShapeError) as exc:
        raise ValidationError(f"{path}: its reader would refuse the file: {exc!r}") from exc
    with open(path, "wb") as handle:
        handle.write(_FIXED.pack(magic, version, len(header_bytes)))
        handle.write(header_bytes)
        for array in arrays:
            handle.write(array.data)


def _encode(header: dict) -> bytes:
    """``header`` as a container holds it: UTF-8 JSON with sorted keys."""
    for name, value in header.items():
        if _levels(value) >= MAX_HEADER_LEVELS:
            raise ValidationError(f"header field {name!r} cannot be written as JSON: "
                                  f"it nests deeper than {MAX_HEADER_LEVELS} levels")
    try:
        return json.dumps(header, sort_keys=True).encode("utf-8")
    except (TypeError, ValueError) as exc:
        for name, value in header.items():
            try:
                json.dumps(value, sort_keys=True)
            except (TypeError, ValueError):
                raise ValidationError(
                    f"header field {name!r} cannot be written as JSON: {exc}"
                ) from exc
        raise


def _levels(value) -> int:
    """How many dicts and lists (tuples too) ``value`` nests, itself included;
    counted level by level, without recursion, up to one past the bound."""
    levels, level = 0, [value]
    while levels <= MAX_HEADER_LEVELS:
        nested = [v for v in level if isinstance(v, (dict, list, tuple))]
        if not nested:
            break
        levels += 1
        level = [item for v in nested for item in (v.values() if isinstance(v, dict) else v)]
    return levels


def _decode(header_bytes: bytes) -> dict:
    """The header a container's header bytes hold."""
    return json.loads(header_bytes.decode("utf-8"))


def read_header(path, magic: bytes, version: int, shapes_from_header, parse):
    """``parse(header)`` of a container's header, its declared payload checked
    against the file's size.

    Raises every error :func:`read` raises, except for a failed payload
    read; the payload itself is not read.
    """
    with open(path, "rb") as handle:
        header = _header(handle, path, magic, version, shapes_from_header)[0]
    return _parsed(path, parse, header)


def read(path, magic: bytes, version: int, shapes_from_header, parse):
    """``parse(header, arrays)`` of a container; ``shapes_from_header(header)``
    lists the arrays' expected shapes.

    Each array is allocated at its declared shape and the payload is read
    straight into it, so the file's bytes are never held a second time.
    """
    with open(path, "rb") as handle:
        header, shapes = _header(handle, path, magic, version, shapes_from_header)
        arrays = [np.empty(shape, dtype="<f8") for shape in shapes]
        for array in arrays:
            if handle.readinto(array) != array.nbytes:
                raise TruncatedFileError(f"{path}: payload ends early; the file shrank while read")
    return _parsed(path, parse, header, arrays)


def _parsed(path, parse, *args):
    """``parse(*args)`` for the file at ``path``; the one place a reader's refusal
    becomes an error, a ``HeaderMismatchError`` naming the file."""
    try:
        return parse(*args)
    except (KeyError, TypeError, ValueError, MclnnError) as exc:
        raise HeaderMismatchError(f"{path}: its reader refuses the file: {exc!r}") from exc


def _header(handle, path, magic, version, shapes_from_header) -> tuple[dict, list[tuple]]:
    """The header and declared shapes; ``handle`` is left at the payload's start.

    The declared payload must fill the rest of the file exactly.
    """
    size = os.fstat(handle.fileno()).st_size
    fixed = handle.read(_FIXED.size)
    if len(fixed) < _FIXED.size:
        raise TruncatedFileError(f"{path}: too short for a container header")
    got_magic, got_version, header_len = _FIXED.unpack(fixed)
    if got_magic != magic:
        raise FileFormatError(f"{path}: bad magic {got_magic!r}, expected {magic!r}")
    if got_version != version:
        raise VersionMismatchError(
            f"{path}: file version {got_version}, this build reads version {version}"
        )
    header_end = _FIXED.size + header_len
    if size < header_end:
        raise TruncatedFileError(f"{path}: header runs past end of file")
    try:
        header = _decode(handle.read(header_len))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise FileFormatError(f"{path}: header is not valid JSON: {exc}") from exc
    if _levels(header) > MAX_HEADER_LEVELS:
        raise FileFormatError(f"{path}: header nests deeper than {MAX_HEADER_LEVELS} levels")
    shapes = _parsed(path, shapes_from_header, header)
    offset = header_end
    for shape in shapes:
        if not all(isinstance(d, int) and not isinstance(d, bool) for d in shape):
            raise HeaderMismatchError(f"{path}: declared shape {shape} has a non-integer dimension")
        if any(d < 0 for d in shape):
            raise HeaderMismatchError(f"{path}: declared shape {shape} has a negative dimension")
        nbytes = math.prod(shape) * 8
        if offset + nbytes > size:
            raise TruncatedFileError(
                f"{path}: payload ends early; wanted {nbytes} bytes for shape {shape}"
            )
        offset += nbytes
    if offset != size:
        raise HeaderMismatchError(
            f"{path}: {size - offset} trailing bytes beyond the declared payload"
        )
    return header, shapes


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
