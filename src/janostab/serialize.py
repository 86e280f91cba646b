"""Deterministic text output: JSON, CSV, and atomic file writes.

Floats are printed with 17 significant digits so every value round-trips
exactly through text; identical documents therefore serialize to identical
bytes.  The JSON emitter is intentionally small: documents here are plain
trees of dict/list/str/int/float/bool/None with keys emitted in insertion
order.  Non-finite floats map to null.
"""

from __future__ import annotations

import json
import os
import tempfile
from math import isfinite
from pathlib import Path

__all__ = ["csv_text", "dumps", "fmt6", "fmt17", "write_text_atomic"]


def fmt17(x: float) -> str:
    """Round-trip exact decimal form of a double (17 significant digits)."""
    return f"{float(x):.17g}"


def fmt6(x: float) -> str:
    """Fixed 6-decimal form of the SVG's scalar attributes; path coordinates
    take the same form from :func:`janostab.figure._path`."""
    return f"{float(x):.6f}"


def _emit(value, indent: int) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(k))}: {_emit(v, indent + 1)}"
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        parts = [f"{inner}{_emit(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return fmt17(value) if isfinite(value) else "null"
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps(value) -> str:
    """Deterministic JSON text with a trailing newline."""
    return _emit(value, 0) + "\n"


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return fmt17(value)
    text = str(value)
    if any(ch in text for ch in ",\"\n"):
        raise ValueError(f"CSV cell would need quoting: {text!r}")
    return text


def csv_text(header, rows) -> str:
    """Comma-separated text with LF line endings and 17-digit floats."""
    lines = [",".join(str(h) for h in header)]
    lines.extend(",".join(_cell(c) for c in row) for row in rows)
    return "\n".join(lines) + "\n"


def write_text_atomic(path, text: str) -> None:
    """Write UTF-8 text via a temp file and rename, so no partial files
    survive an interrupted run."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
