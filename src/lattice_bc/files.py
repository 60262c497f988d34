"""Problem files: JSON vectors/spectral data, CSV fields/matrices.

JSON documents have the shape {"kind": ..., "values": ..., "meta": {...}}
with kind one of "potential", "control", "kernel", "spectral".  Vector
kinds store a flat list of numbers; spectral files store pairs
[lambda_k, rho_k].  Floats are emitted with 17 significant digits so
every double round-trips exactly and identical runs produce identical
bytes.  On load the payload is validated against the invariants of the
corresponding domain type.
"""

from __future__ import annotations

import json
import os
import stat
import sys
from dataclasses import dataclass, field

import numpy as np

from .core import as_float_array, check_kernel, float_array, is_real
from .spectral import SpectralData, check_spectral

KINDS = ("potential", "control", "kernel", "spectral")

# slack for the unit-mass invariant of spectral files; file data is
# trusted only up to serialization noise, not recomputed
MASS_TOL = 1e-8


@dataclass(frozen=True)
class ProblemFile:
    """Parsed problem document: kind tag, payload array, metadata."""

    kind: str
    values: np.ndarray
    meta: dict = field(default_factory=dict)


def _format_float(x):
    if not np.isfinite(x):
        raise ValueError("cannot serialize non-finite number")
    return format(float(x), ".17g")


def dumps_json(obj, indent=0):
    """Deterministic JSON with 17-significant-digit floats.

    Handles the dict/list/str/number/bool/None subset these documents
    use; dict insertion order is preserved, nothing is sorted or
    localized, so equal inputs give byte-equal output.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f"{inner}{json.dumps(str(k))}: {dumps_json(v, indent + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        flat = all(isinstance(v, (bool, int, float, np.integer, np.floating))
                   for v in seq)
        rendered = [dumps_json(v, indent + 1) for v in seq]
        if flat:
            return "[" + ", ".join(rendered) + "]"
        return ("[\n" + ",\n".join(inner + s for s in rendered)
                + "\n" + pad + "]")
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise ValueError(f"cannot serialize object of type {type(obj).__name__}")


def _validate_payload(kind, values):
    if kind == "spectral":
        if not (isinstance(values, list) and values
                and all(isinstance(pair, list) and len(pair) == 2
                        and all(map(is_real, pair)) for pair in values)):
            raise ValueError(
                "spectral values must be [lambda, rho] pairs of numbers")
        arr = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise ValueError("spectral values contain non-finite entries")
        mass = SpectralData(eigenvalues=arr[:, 0],
                            norming=arr[:, 1]).total_mass
        if abs(mass - 1.0) > MASS_TOL:
            raise ValueError(
                f"spectral weights must have unit mass (got {mass!r})")
        return arr
    if not (isinstance(values, list) and all(map(is_real, values))):
        raise ValueError(f"{kind} values must be a list of numbers")
    arr = as_float_array(values, f"{kind} values")
    if arr.size < 1:
        raise ValueError(f"{kind} values must be nonempty")
    if kind == "kernel":
        check_kernel(arr)
    return arr


def parse_problem(text):
    try:
        doc = json.loads(text)
    # the decoder recurses once per nesting level
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("problem document must be a JSON object")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    if "values" not in doc:
        raise ValueError("problem document missing values")
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError("meta must be an object")
    values = _validate_payload(kind, doc["values"])
    return ProblemFile(kind=kind, values=values, meta=meta)


def load_problem(path):
    """Read a problem document from a path, or stdin when path is '-'."""
    if path == "-":
        return parse_problem(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem(fh.read())


def problem_document(kind, values, meta=None):
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    return {"kind": kind, "values": values, "meta": dict(meta or {})}


def spectral_problem(sd):
    """Problem document for SpectralData: values are [lambda, rho] pairs."""
    sd = check_spectral(sd)
    pairs = [[float(l), float(r)]
             for l, r in zip(sd.eigenvalues, sd.norming)]
    return problem_document("spectral", pairs, {"size": sd.size})


def spectral_from_problem(pf):
    if pf.kind != "spectral":
        raise ValueError("problem document is not spectral data")
    return SpectralData(eigenvalues=pf.values[:, 0], norming=pf.values[:, 1])


def write_text(text, path=None):
    """Write to a path, or stdout when path is None or '-'.

    A regular file is overwritten in place, then cut to length: truncating
    it to zero first frees its blocks, which is slow where freed blocks
    are discarded.  A crash mid-write leaves a partial file either way.
    """
    if not text.endswith("\n"):
        text += "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        with os.fdopen(fd, "wb", closefd=False) as fh:
            fh.write(data)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _table_csv(values, what, corner, first):
    """CSV with a header row and a label column, labels counting from first."""
    arr = float_array(values, what)
    if arr.ndim != 2:
        raise ValueError(f"{what} must be 2-D")
    lines = [",".join([corner]
                      + [str(j + first) for j in range(arr.shape[1])])]
    for i in range(arr.shape[0]):
        lines.append(",".join([str(i + first)]
                              + [_format_float(x) for x in arr[i]]))
    return "\n".join(lines) + "\n"


def field_csv(values):
    """CSV for a 2-D table: header of time indices, one row per site."""
    return _table_csv(values, "field table", "n", 0)


def matrix_csv(values):
    """CSV for a connecting matrix: 1-based row/column labels."""
    return _table_csv(values, "matrix", "i", 1)
