"""Canonical artifact serialization: stable JSON text and CSV tables,
written by emit_report, the one way an artifact reaches disk.

Identical structures must serialize to identical bytes on every run and
platform, so floats are rendered at a fixed 17 significant digits (enough
to round-trip an IEEE double), object keys are sorted, and files are
written as UTF-8 with unix newlines. Nothing time- or host-dependent may
enter a report.

This module alone knows the artifact format: an object with a to_dict
method is encoded through it, any other dataclass instance by its fields,
a complex value as [re, im], and an array as nested lists.
"""

import dataclasses
import json
import math

import numpy as np

from . import __version__
from .errors import InvalidArgumentError


def format_float(x):
    """Fixed-precision decimal for a double; rejects non-finite values."""
    v = float(x)
    if not math.isfinite(v):
        raise InvalidArgumentError(f"non-finite value {v!r} in a report")
    return format(v, ".17g")


def object_fields(obj):
    """The JSON object an artifact object encodes to, one level deep: its
    to_dict() when it has one, else a dataclass instance's fields by name."""
    if isinstance(obj, type):
        raise InvalidArgumentError(
            f"cannot serialize the class {obj.__name__} in a report")
    if hasattr(obj, "to_dict"):
        return obj.to_dict()
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    raise InvalidArgumentError(
        f"cannot serialize {type(obj).__name__} in a report")


def _encode(x, pad, out):
    if x is None:
        out.append("null")
        return
    if isinstance(x, bool):
        out.append("true" if x else "false")
        return
    if isinstance(x, (int, np.integer)):
        out.append(str(int(x)))
        return
    if isinstance(x, (float, np.floating)):
        out.append(format_float(x))
        return
    if isinstance(x, str):
        out.append(json.dumps(x, ensure_ascii=False))
        return
    if isinstance(x, np.ndarray):
        x = x.tolist()
    if isinstance(x, (list, tuple)):
        if not x:
            out.append("[]")
            return
        inner = pad + "  "
        out.append("[\n")
        for i, el in enumerate(x):
            out.append(inner)
            _encode(el, inner, out)
            out.append(",\n" if i + 1 < len(x) else "\n")
        out.append(pad + "]")
        return
    if isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        if not all(isinstance(k, str) for k in x):
            raise InvalidArgumentError("report object keys must be strings")
        inner = pad + "  "
        out.append("{\n")
        keys = sorted(x)
        for i, k in enumerate(keys):
            out.append(inner + json.dumps(k, ensure_ascii=False) + ": ")
            _encode(x[k], inner, out)
            out.append(",\n" if i + 1 < len(keys) else "\n")
        out.append(pad + "}")
        return
    # after the float, list and dict checks, which the bulk of a report hits
    if isinstance(x, (complex, np.complexfloating)):
        _encode([x.real, x.imag], pad, out)
        return
    _encode(object_fields(x), pad, out)


def canonical_json(obj):
    """Pretty-printed JSON with sorted keys and fixed float formatting.

    The returned text carries no trailing newline; file writers add one.
    """
    out = []
    _encode(obj, "", out)
    return "".join(out)


def write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _csv(table):
    """A matrix as rows of floats, or a (header, rows) table whose int
    cells print as integers and other numbers through format_float."""
    if isinstance(table, tuple):
        header, rows = table
        if not rows:
            raise InvalidArgumentError("table has no rows")
        lines = [",".join(header)]
    else:
        M = np.asarray(table, dtype=float)
        if M.ndim != 2:
            raise InvalidArgumentError(
                f"csv format needs a matrix, got ndim {M.ndim}")
        rows, lines = M.tolist(), []
    lines.extend(",".join(str(v) if isinstance(v, (int, np.integer))
                          else format_float(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def emit_report(report, format, path):
    """Write one artifact, the only way one reaches disk: "json" for any
    structure canonical_json encodes (dataclasses and to_dict objects at any
    depth included), "csv" for a matrix or a (header, rows) table. IO
    errors propagate untouched."""
    if format == "json":
        write_text(path, canonical_json(report) + "\n")
    elif format == "csv":
        write_text(path, _csv(report))
    else:
        raise InvalidArgumentError(f"unsupported report format {format!r}")


def provenance(config_digest, seed):
    """Stamp embedded in every artifact tying it to its exact inputs."""
    return {
        "tool": "urnlab",
        "tool_version": __version__,
        "config_digest": config_digest,
        "seed": int(seed),
    }
