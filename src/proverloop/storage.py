"""File I/O shared by every artifact the package reads or writes.

Writes are atomic: the bytes go to a sibling temporary file that then
replaces the target with ``os.replace``, so a failed or interrupted write
leaves the previous file intact and no temporary file behind. Reads map
``OSError`` to ``IoFailure`` and undecodable JSON to ``CorruptDocument``.
"""

from __future__ import annotations

import json
import os
from contextlib import suppress
from pathlib import Path

from .errors import CorruptDocument, IoFailure


def write_atomic(path: str | Path, data: str | bytes) -> None:
    """Replace the file at path with data (text as UTF-8), creating parent directories."""
    target = Path(path)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, target)
    except OSError as e:
        raise IoFailure(f"cannot write {target}: {e}") from e
    finally:
        with suppress(OSError):
            tmp.unlink(missing_ok=True)


def dump_json(doc: object) -> str:
    """Canonical document JSON: sorted keys, two-space indent, UTF-8 text
    (non-ASCII unescaped), final newline."""
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


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
    text = read_text(path, what)
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise CorruptDocument(f"{what} at {path} is not valid JSON: {e.msg}") from e
