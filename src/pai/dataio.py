"""The data boundary: the one matrix check, CSV matrices and JSON documents.

:func:`as_matrix` is the package's one rule for an in-memory data matrix,
and every function that takes data applies it: float64, a 1-D array as one
column, two dimensions (or a stack of matrices where the caller maps
stacks), every entry finite, and a given column count where the caller
needs one. A caller adds only its own rule, such as a minimum row count.

CSV files are headerless by default (``header=True`` skips one line), one
row of comma-separated finite decimal numbers per sample; blank lines are
skipped. The non-blank lines are parsed by numpy's C reader
(``np.loadtxt``), which converts each field with the same correctly rounded
conversion as ``float()``. When it refuses a line or returns a non-finite
entry, a per-field loop of ``float()`` calls parses the file again: it
raises the :class:`InputError` that names the line and column of a field
that cannot be parsed or is not finite (``nan``, ``inf``), and it accepts
the few spellings that only ``float()`` reads (``1_0``, non-ASCII digits).
Output uses ``%.17g`` so round-tripping is exact and repeated runs are
byte-identical; rows are formatted and written in the chunks of
:func:`chunk_starts`, so the text held at once does not grow with the matrix.
Every read turns a missing, unreadable or non-UTF-8 file into
:class:`InputError`.

:func:`two_threads` is the package's one way off the calling thread, and
its docstring the one statement of the thread contract.
:func:`integer_argument` is the one rule for an integer argument: a seed, a
replicate index, a sample size or a masked feature index.

:func:`read_field` is the one reader of a field of a model or report
document: a missing field, or a value its parser refuses, is an
:class:`InputError` naming the document and the path (``marginals[1].ps``).
Every numeric field is parsed by :func:`numbers`: each entry is a JSON
number that is not a boolean, and finite as a float64. :class:`Document` is
the base of the four report kinds; each lists its fields once, and one
schema table dispatches a file to its kind.
"""

from __future__ import annotations

import itertools
import json
import math
import os

import numpy as np

from .errors import InputError

# The package's one chunk budget, in values (1 MiB of float64): the Monte Carlo
# engine, the prediction intervals, the k-NN search and the CSV writer all
# take their chunks from chunk_starts.
_CHUNK_VALUES = 2**17


def chunk_starts(count: int, item_values: int) -> range:
    """The starts of the chunks of ``count`` items of ``item_values`` values each.

    Its ``step`` is the chunk length, ``max(1, _CHUNK_VALUES // item_values)``
    items (an item of no values counts as one); the last chunk holds the rest.
    """
    return range(0, count, max(1, _CHUNK_VALUES // max(1, item_values)))


def two_threads(fn, worker_args: tuple, caller_args: tuple) -> tuple:
    """``(fn(*worker_args), fn(*caller_args))``, the first call on one worker thread.

    The calling thread makes the second call meanwhile. The worker runs its
    call in a copy of the caller's context, so numpy's floating-point error
    state (set by the CLI) holds there too. This is the package's one way off
    the calling thread, and its contract:

    * one worker thread, joined before this function returns or raises, so
      no thread outlives the call;
    * an exception of the calling thread's call wins and propagates once the
      worker has finished; otherwise the worker's exception propagates;
    * ``fn`` must be a function that the benchmark tracer
      (``perfbench/tracer.py``) does not wrap, since its spans nest on one
      stack; nothing of ``pai`` but ``fn`` runs on the worker.

    The result has the same bits as the two calls in a row when neither call
    reads what the other writes.
    """
    import concurrent.futures  # looked up at each call, so the executor can be swapped
    import contextvars

    with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
        future = pool.submit(contextvars.copy_context().run, fn, *worker_args)
        mine = fn(*caller_args)
        return future.result(), mine


def integer_argument(value, name: str) -> int:
    """``value`` as an ``int``: a Python or numpy integer, never a ``bool``.

    Anything else, an integral float included, is an :class:`InputError`
    naming ``name``.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_matrix(data, name: str, dim: int | None = None, stack: bool = False) -> np.ndarray:
    """``data`` as a finite float64 matrix with ``dim`` columns when ``dim`` is given.

    A 1-D array is one column. With ``stack``, a ``(..., n, columns)`` stack
    of such matrices passes too. The error names ``name`` and, for a
    non-finite entry, the index of the first one.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim == 1:
        data = data[:, None]
    if data.ndim != 2 and not (stack and data.ndim > 2):
        raise InputError(f"{name} must be a 2-D matrix" + (" or a stack of them" if stack else ""))
    if not np.isfinite(data).all():
        first = tuple(np.argwhere(~np.isfinite(data))[0].tolist())
        raise InputError(f"{name} entry {first} is not finite: {data[first]}")
    if dim is not None and data.shape[-1] != dim:
        raise InputError(f"{name} has {data.shape[-1]} columns, expected {dim}")
    return data


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


def read_field(doc, what: str, parse, *path):
    """``parse`` of the field at ``path`` (keys and list indices) of a ``what`` document.

    A missing field, or a value that ``parse`` refuses, is an :class:`InputError`.
    """
    name = "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path).lstrip(".")
    value = doc
    try:
        for key in path:
            value = value[key]
    except (KeyError, IndexError, TypeError):
        raise InputError(f"{what} document lacks field {name!r}") from None
    try:
        return parse(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{what} field {name!r}: {exc}") from None


def numbers(raw, shape: tuple) -> np.ndarray:
    """``raw`` as a float64 array of ``shape``, where ``None`` is any length.

    Every entry is a JSON number, not a boolean, and finite as a float64.
    """
    leaves = [raw]
    for _ in shape:
        leaves = itertools.chain.from_iterable(leaves)  # a TypeError where a list is missing
    kinds = set(map(type, leaves))
    if not kinds <= {int, float}:
        raise ValueError(f"expected numbers, found {sorted(kind.__name__ for kind in kinds - {int, float})}")
    value = np.asarray(raw, dtype=np.float64)  # a ValueError if ragged, an OverflowError past float64
    if value.ndim != len(shape) or any(want not in (None, got) for want, got in zip(shape, value.shape)):
        raise ValueError(f"has shape {value.shape}, expected {shape}")
    if not np.isfinite(value).all():
        raise ValueError("has non-finite entries")
    return value


def number(raw) -> float:
    """A scalar field under the rule of :func:`numbers`."""
    return float(numbers(raw, ()))


def integer(raw, least: int = 0) -> int:
    """A JSON integer of at least ``least`` under the rule of :func:`numbers`."""
    if number(raw) < least or type(raw) is not int:
        raise ValueError(f"expected an integer >= {least}, got {raw!r}")
    return raw


def level(raw) -> float:
    """A level in (0, 1) under the rule of :func:`numbers`."""
    value = number(raw)
    if not 0.0 < value < 1.0:
        raise ValueError(f"expected a level in (0, 1), got {raw!r}")
    return value


def exactly(kind: type):
    """A parser that passes a value of type ``kind``, and no subclass of it."""
    def parse(value):
        if type(value) is not kind:
            raise TypeError(f"expected {kind.__name__}, got {type(value).__name__}")
        return value
    return parse


def record(fields: dict, what: str):
    """A parser of a JSON object: each field ``key`` of ``fields`` through ``fields[key]``.

    The object's other fields are kept as they are; ``what`` names it in errors.
    """
    def parse(raw):
        parsed = {key: read_field(raw, what, field, key) for key, field in fields.items()}
        return {**exactly(dict)(raw), **parsed}
    return parse


def records(fields: dict, what: str):
    """A parser of a non-empty JSON list of objects, each read by :func:`record`."""
    def parse(raw):
        if not exactly(list)(raw):
            raise ValueError("expected at least one record")
        return [record(fields, f"{what} {index}")(item) for index, item in enumerate(raw)]
    return parse


class Document:
    """A versioned JSON document (a frozen dataclass) whose fields are listed once.

    A kind names its ``schema`` and lists its fields in ``_FIELDS``: key ->
    ``(attribute, parse, write)``, where ``parse`` reads the field through
    :func:`read_field` and a ``write`` of ``None`` stores the attribute as it
    is. :meth:`to_dict` and :meth:`from_dict` both read the listing, and each
    kind's ``is_consistent`` re-derives what its stored results imply.
    """

    # The one schema table: schema -> document kind, one entry per kind defined.
    _SCHEMAS: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        Document._SCHEMAS[cls.schema] = cls

    def to_dict(self) -> dict:
        doc = {"schema": self.schema}
        for key, (attribute, _, write) in self._FIELDS.items():
            value = getattr(self, attribute)
            doc[key] = value if write is None else write(value)
        return doc

    def save(self, path: str | os.PathLike) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def from_dict(cls, payload: dict) -> "Document":
        """Parse a document of the kind its schema names, which must be ``cls`` or a subclass."""
        schema = payload.get("schema") if isinstance(payload, dict) else None
        kind = Document._SCHEMAS.get(schema) if isinstance(schema, str) else None
        if kind is None or not issubclass(kind, cls):
            known = sorted(name for name, other in Document._SCHEMAS.items() if issubclass(other, cls))
            raise InputError(f"unrecognized report schema {schema!r}, expected one of {known}")
        fields = kind._FIELDS.items()
        return kind(**{attribute: read_field(payload, "report", parse, key) for key, (attribute, parse, _) in fields})

    @classmethod
    def load(cls, path: str | os.PathLike) -> "Document":
        """Read a document file through :meth:`from_dict`."""
        return cls.from_dict(read_json_object(path, "report"))


def read_matrix(path: str | os.PathLike, header: bool = False) -> np.ndarray:
    """Read an ``n x d`` matrix of reals from a CSV file."""
    lines = read_text(path).splitlines()
    start = 1 if header else 0
    rows = [line for line in lines[start:] if line.strip()]
    if rows:
        try:
            # comments=None: the default "#" would cut "1,2#x" short instead of refusing it
            matrix = np.loadtxt(rows, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
        except ValueError:
            pass
        else:
            if np.isfinite(matrix).all():
                return matrix
    return _parse_fields(path, lines, start)


def _parse_fields(path: str | os.PathLike, lines: list[str], start: int) -> np.ndarray:
    """The matrix of ``lines[start:]``, one ``float()`` per field; errors name the line and column."""
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
    """Write a matrix as headerless CSV with exact float formatting.

    One ``%.17g`` row format is applied to the rows of each chunk of
    :func:`chunk_starts`, and each chunk is one ``write``.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim == 1:
        matrix = matrix[:, None]
    row_format = ",".join(["%.17g"] * matrix.shape[1]) + "\n"
    starts = chunk_starts(matrix.shape[0], matrix.shape[1])
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for start in starts:
            handle.write("".join([row_format % tuple(row) for row in matrix[start : start + starts.step].tolist()]))
