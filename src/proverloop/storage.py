"""File I/O shared by every artifact the package reads or writes.

Writes are atomic: the bytes go, chunk by chunk, to a sibling temporary
file that then replaces the target with ``os.replace``, so a failed or
interrupted write leaves the previous file intact and no temporary file
behind. Reads map ``OSError`` to ``IoFailure``; text that is not UTF-8 or
JSON, or holds a lone surrogate, and every bad field read through
``json_field`` raise ``CorruptDocument``.
"""

from __future__ import annotations

import json
import os
import re
import sys
from contextlib import suppress
from pathlib import Path
from typing import Any, Iterable

from .errors import CorruptDocument, IoFailure


def write_atomic(path: str | Path,
                 data: str | bytes | Iterable[str | bytes | memoryview]) -> None:
    """Replace the file at path with data, creating parent directories.

    data is one text or bytes value, or an iterable of text and bytes-like
    chunks (a memoryview of an array, say) written in turn, so a large
    document never has to exist whole in memory. Text is written as UTF-8.
    If a chunk raises partway through, the exception propagates (an OSError
    as IoFailure), and the previous file and no temporary file remain.
    """
    target = Path(path)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    chunks = (data,) if isinstance(data, (str, bytes)) else data
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "wb") as out:
            for chunk in chunks:
                out.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
        os.replace(tmp, target)
    except OSError as e:
        raise IoFailure(f"cannot write {target}: {e}") from e
    finally:
        with suppress(OSError):
            tmp.unlink(missing_ok=True)


def dump_json(doc: object) -> str:
    """Canonical document JSON on one line: sorted keys, no spaces, UTF-8
    text (non-ASCII unescaped), final newline. NaN and infinities raise
    ValueError, since they are not JSON. Without an indent, json.dumps runs
    on its C encoder; `python -m json.tool FILE` gives an indented view."""
    return json.dumps(doc, sort_keys=True, ensure_ascii=False, separators=(",", ":"),
                      allow_nan=False) + "\n"


def read_bytes(path: str | Path, what: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as e:
        raise IoFailure(f"cannot read {what} from {path}: {e}") from e


def read_text(path: str | Path, what: str) -> str:
    try:
        return read_bytes(path, what).decode("utf-8")
    except UnicodeDecodeError as e:
        raise CorruptDocument(f"{what} at {path} is not UTF-8 text: {e}") from e


def read_json(path: str | Path, what: str) -> object:
    return parse_json(read_text(path, what), f"{what} at {path}")


def parse_json(text: str | bytes, what: str) -> object:
    """The document in JSON text (bytes are read as UTF-8). CorruptDocument,
    naming what, if the text is not JSON or a string in it holds a lone
    surrogate, which json.loads keeps and no UTF-8 file or hash can encode."""
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        doc = json.loads(text)
    except ValueError as e:  # JSONDecodeError and UnicodeDecodeError
        raise CorruptDocument(f"{what} is not valid JSON: {getattr(e, 'msg', e)}") from e
    # text decoded from UTF-8 gets a surrogate only from a \ud800-\udfff
    # escape; most documents pass the fast one-character search for "\\"
    if ("\\" in text and re.search(r"\\u[dD][89a-fA-F]", text)
            and (field := _lone_surrogate(doc, "")) is not None):
        field = field.encode("utf-8", "backslashreplace").decode("utf-8") or "(the document)"
        raise CorruptDocument(f"{what} field {field} holds a lone surrogate")
    return doc


def _lone_surrogate(doc: object, path: str) -> str | None:
    """The path (``premises[0].code``) of a string in doc, a value, list
    item or object key, that holds a surrogate code point, or None. The
    pattern is compiled on first use: its character class takes 128 KiB."""
    if type(doc) is str:
        return path if re.search("[\ud800-\udfff]", doc) else None
    if type(doc) is dict:
        children = [(f"{path}.{k}" if path else k, s) for k, v in doc.items() for s in (k, v)]
    elif type(doc) is list:
        children = [(f"{path}[{i}]", v) for i, v in enumerate(doc)]
    else:
        return None
    for child, value in children:
        if (found := _lone_surrogate(value, child)) is not None:
            return found
    return None


# Field kinds beyond the JSON types str, int, float, bool, list and dict;
# each names itself in error messages.
STRINGS = "a list of strings"
POSITION = "a [line, col] pair of ints >= 1"
FLOAT_OR_NULL = "a finite number or null"
REQUIRED = object()

_KIND_NAMES = {str: "a string", int: "an int", float: "a finite number", bool: "a boolean",
               list: "a list", dict: "an object"}
_FLOAT_MAX = sys.float_info.max


def is_strings(value: object) -> bool:
    """Whether value is a STRINGS field."""
    return type(value) is list and all(type(v) is str for v in value)


def is_position(value: object) -> bool:
    """Whether value is a POSITION field."""
    return (type(value) is list and len(value) == 2
            and type(value[0]) is int is type(value[1]) and value[0] >= 1 <= value[1])


def json_field(doc: object, key: str, kind: object, what: str,
               default: object = REQUIRED) -> Any:
    """doc[key] if it has its one kind, else CorruptDocument naming what and key.

    Nothing is coerced: a bool is never an int or a float, a float field is
    finite (a JSON int there reads as a float), and null is only a value of
    FLOAT_OR_NULL. A missing key reads as default, so a field without one
    is required. A POSITION reads as a tuple. A reader that tests a field
    itself uses the same check (is_strings, is_position, a type test) and
    calls json_field only when it fails, for the message.
    """
    if type(doc) is not dict:
        raise CorruptDocument(f"{what} must be an object, got {doc!r:.60}")
    value = doc.get(key, REQUIRED)
    if value is REQUIRED:
        if default is REQUIRED:
            raise CorruptDocument(f"{what} is missing field {key!r}")
        return default
    t = type(value)
    if t is kind and t is not float:
        return value
    if kind is float or (kind is FLOAT_OR_NULL and value is not None):
        if (t is float or t is int) and -_FLOAT_MAX <= value <= _FLOAT_MAX:
            return float(value)
    elif kind is FLOAT_OR_NULL:
        return None
    elif kind is STRINGS:
        if is_strings(value):
            return value
    elif kind is POSITION:
        if is_position(value):
            return (value[0], value[1])
    raise CorruptDocument(
        f"{what} field {key!r} must be {_KIND_NAMES.get(kind, kind)}, got {value!r:.60}")
