"""The file boundary: reading and writing CSV matrices and JSON documents.

CSV files are headerless by default (``header=True`` skips one line), one
row of comma-separated finite decimal numbers per sample. Parse failures
and non-finite fields (``nan``, ``inf``) name the line and column. Output
uses ``%.17g`` so round-tripping is exact and repeated runs are
byte-identical. Every read turns a missing, unreadable or non-UTF-8 file
into :class:`InputError`.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .errors import InputError


def read_text(path: str | os.PathLike) -> str:
    """Whole contents of a UTF-8 text file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def read_json_object(path: str | os.PathLike, what: str) -> dict:
    """A JSON file whose top level is an object; ``what`` names the document."""
    text = read_text(path)
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise InputError(f"{path}: not a JSON {what} document ({exc})") from None
    if not isinstance(payload, dict):
        raise InputError(f"{path}: a {what} document must be a JSON object")
    return payload


def read_matrix(path: str | os.PathLike, header: bool = False) -> np.ndarray:
    """Read an ``n x d`` matrix of reals from a CSV file."""
    lines = read_text(path).splitlines()
    start = 1 if header else 0
    rows: list[list[float]] = []
    width = None
    for line_no, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        fields = line.split(",")
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise InputError(
                f"{path}: line {line_no} has {len(fields)} fields, expected {width}"
            )
        row = []
        for col_no, field in enumerate(fields, start=1):
            try:
                value = float(field.strip())
            except ValueError:
                raise InputError(
                    f"{path}: line {line_no}, column {col_no}: cannot parse {field.strip()!r}"
                ) from None
            if not math.isfinite(value):
                raise InputError(
                    f"{path}: line {line_no}, column {col_no}: non-finite value {field.strip()!r}"
                )
            row.append(value)
        rows.append(row)
    if not rows:
        raise InputError(f"{path}: no data rows")
    return np.asarray(rows, dtype=np.float64)


def write_json(path: str | os.PathLike, payload: dict) -> None:
    """Write a JSON document with sorted keys, so equal payloads give equal bytes.

    The text is built before the file is opened, so a payload that cannot be
    serialised raises ``TypeError`` and leaves no file behind.
    """
    text = json.dumps(payload, sort_keys=True)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
        handle.write("\n")


def write_matrix(path: str | os.PathLike, matrix: np.ndarray) -> None:
    """Write a matrix as headerless CSV with exact float formatting."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim == 1:
        matrix = matrix[:, None]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for row in matrix:
            handle.write(",".join(f"{v:.17g}" for v in row))
            handle.write("\n")
