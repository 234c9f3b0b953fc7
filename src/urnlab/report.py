"""Canonical artifact serialization: stable JSON text and CSV tables.

Identical structures must serialize to identical bytes on every run and
platform, so floats are rendered at a fixed 17 significant digits (enough
to round-trip an IEEE double), object keys are sorted, and files are
written as UTF-8 with unix newlines. Nothing time- or host-dependent may
enter a report.
"""

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
    raise InvalidArgumentError(
        f"cannot serialize {type(x).__name__} in a report")


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


def emit_report(report, format, path):
    """Write one artifact: "json" for any report structure (objects with a
    to_dict method are unwrapped), "csv" for a matrix as d rows of
    comma-separated floats. IO errors propagate untouched."""
    if format == "json":
        data = report.to_dict() if hasattr(report, "to_dict") else report
        write_text(path, canonical_json(data) + "\n")
    elif format == "csv":
        M = np.asarray(report, dtype=float)
        if M.ndim != 2:
            raise InvalidArgumentError(
                f"csv format needs a matrix, got ndim {M.ndim}")
        write_text(path, matrix_csv(M))
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


def matrix_csv(M):
    M = np.asarray(M, dtype=float)
    lines = [",".join(format_float(v) for v in row) for row in M]
    return "\n".join(lines) + "\n"


def _table(header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(cells) for cells in rows)
    return "\n".join(lines) + "\n"


def trajectory_csv(traj):
    """Rows `n,theta_1..theta_d` straight off the checkpoints."""
    if not traj.checkpoints:
        raise InvalidArgumentError("trajectory has no checkpoints")
    d = len(traj.checkpoints[0][1])
    header = ["n"] + [f"theta_{j + 1}" for j in range(d)]
    rows = [[str(int(n))] + [format_float(v) for v in th]
            for n, th in traj.checkpoints]
    return _table(header, rows)


def urn_csv(traj):
    """Rows `n,Y_1..Y_d,N_1..N_d`; counts stay integers."""
    if not traj.checkpoints:
        raise InvalidArgumentError("trajectory has no checkpoints")
    d = len(traj.checkpoints[0].Y)
    header = (["n"] + [f"Y_{j + 1}" for j in range(d)]
              + [f"N_{j + 1}" for j in range(d)])
    rows = [[str(int(st.n))] + [format_float(v) for v in st.Y]
            + [str(int(c)) for c in st.N] for st in traj.checkpoints]
    return _table(header, rows)


def gauss_csv(path):
    """Rows `t,G_1..G_d` from a list of (t, value) pairs."""
    if not path:
        raise InvalidArgumentError("path has no points")
    d = len(path[0][1])
    header = ["t"] + [f"G_{j + 1}" for j in range(d)]
    rows = [[format_float(t)] + [format_float(v) for v in G]
            for t, G in path]
    return _table(header, rows)


def flow_csv(states):
    """Rows `s,f,theta_1..theta_d`, one per flow state: the start, each
    whole clock step and the end at s_max."""
    if not states:
        raise InvalidArgumentError("flow has no states")
    d = len(states[0].theta)
    header = ["s", "f"] + [f"theta_{j + 1}" for j in range(d)]
    rows = [[format_float(st.s), format_float(st.f)]
            + [format_float(v) for v in st.theta] for st in states]
    return _table(header, rows)
