"""Canonical JSON matrix file format used by the CLI and the fixtures.

Schema::

    {"rows": m, "cols": n, "data": [[re, im], ...]}

with ``data`` in row-major order, one ``[re, im]`` pair per entry, all values
finite.  Explicit pairs keep parsing unambiguous; no string-parsed complex
literals.  Writing then reading a matrix reproduces it bit for bit.

Writing formats the numbers straight into that text: one numpy ``tolist``
of the float64 view (re and im interleaved, row-major), one ``%r`` template
per row, written row by row.  It builds no pair list and does not call
``json.dumps``, yet its bytes are ``json.dumps(matrix_to_payload(M),
separators=(",", ":"))`` and a newline, because the JSON encoder writes
every finite float as ``float.__repr__``, which is what ``%r`` calls.

Reading takes one of two paths.  A file laid out exactly as
:func:`write_matrix` writes it (no spaces, keys in schema order, only JSON
whitespace after the closing brace) is recognised by a few whole-file byte
passes, decoded by one ``json.loads`` into a flat list of 2*rows*cols
numbers, and converted by one ``np.fromiter`` call; no per-entry list is
built.  Everything else, and every file that path cannot decode into finite
doubles, goes to the general path: the file's text as text mode reads it,
``json.loads`` of it, then :func:`matrix_from_payload`, which checks and
converts the entries one by one and names the first bad one in the
:class:`FormatError`.  So the two paths return the same bits and raise the
same errors on every file.
"""

from __future__ import annotations

import json
import re

import numpy as np

from .dense_core import as_matrix
from .errors import FormatError


def matrix_to_payload(M) -> dict:
    """JSON-ready dict for a matrix; ``json.dumps`` of it is :func:`write_matrix`'s reference."""
    M = as_matrix(M)
    m, n = M.shape
    flat = M.reshape(-1)
    return {
        "rows": m,
        "cols": n,
        "data": np.stack([flat.real, flat.imag], -1).tolist(),
    }


def _entries_one_by_one(data: list) -> np.ndarray:
    """The flat complex entries of ``data``; FormatError naming the first bad one."""
    out = np.empty(len(data), dtype=np.complex128)
    for i, pair in enumerate(data):
        if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)):
            raise FormatError(f"entry {i} is not a [re, im] pair of numbers")
        out[i] = complex(pair[0], pair[1])
    return out


def matrix_from_payload(obj) -> np.ndarray:
    """Parse the schema above into a complex matrix; FormatError on violations."""
    if not isinstance(obj, dict):
        raise FormatError("top-level JSON value must be an object")
    try:
        rows = obj["rows"]
        cols = obj["cols"]
        data = obj["data"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"missing field: {exc}") from exc
    if (not isinstance(rows, int) or not isinstance(cols, int)
            or isinstance(rows, bool) or isinstance(cols, bool) or rows < 1 or cols < 1):
        raise FormatError("rows and cols must be positive integers")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise FormatError(f"data must hold rows*cols = {rows * cols} entries")
    try:
        flat = _entries_one_by_one(data)
    except OverflowError as exc:
        raise FormatError(f"matrix entry out of the double range: {exc}") from exc
    M = flat.reshape(rows, cols)
    if not np.all(np.isfinite(M)):
        raise FormatError("matrix entries must be finite")
    return M


# write_matrix's layout, up to trailing whitespace: the header, then the pairs
# with no spaces.  18 digits bound int() well below its string-length limit.
_CANONICAL_HEAD = re.compile(rb'\{"rows":([1-9][0-9]{0,17}),"cols":([1-9][0-9]{0,17}),"data":')
_NUMBER_CHARS = b"0123456789.eE+-"


def _read_canonical(data: bytes) -> np.ndarray | None:
    """The matrix in ``data`` if it is laid out as :func:`write_matrix` writes it, else None.

    Bulk byte passes check the layout: the header, the ``[[`` and ``]]}``
    ends of ``data``, only JSON whitespace after them, exactly N-1 ``],[``
    separators for N = rows*cols (counted by the one replace that flattens
    them), and what is left once number characters are dropped.  Together
    they leave each number token alone between a pair's brackets and
    comma, so one ``json.loads`` of the flattened bytes decodes exactly the
    2N tokens the general path would, under JSON's number grammar.  Such
    bytes are ASCII, so newline translation and UTF-8 decoding cannot change
    them.  Any file that fails a check, or whose numbers the decoder
    rejects, overflow or are not finite, gives None and is left to the
    general path, which reports it.
    """
    head = _CANONICAL_HEAD.match(data)
    # what follows the last "]]}"; without one, data[2:], which the header makes non-blank
    tail = data[data.rfind(b"]]}") + 3:]
    if head is None or not data.startswith(b"[[", head.end()) or tail.strip(b" \t\n\r"):
        return None
    rows, cols = int(head[1]), int(head[2])
    n = rows * cols
    flat = data.replace(b"],[", b",")
    # the separator count precedes the skeleton, which is then no longer than the file
    if not (len(data) - len(flat) == 2 * (n - 1)
            and data.translate(None, _NUMBER_CHARS)
            == b'{"rows":,"cols":,"data":[' + b"[,]," * (n - 1) + b"[,]]}" + tail):
        return None
    flat = flat.decode("ascii")     # json.loads would decode a copy; this drops the bytes first
    try:
        values = json.loads(flat)["data"][0]
        del flat                    # so that no full-size text but the file's outlives the parse
        out = np.fromiter(values, dtype=np.float64, count=2 * n)
    except (ValueError, OverflowError):
        return None
    if not np.all(np.isfinite(out)):
        return None
    return out.view(np.complex128).reshape(rows, cols)


def read_matrix(path) -> np.ndarray:
    """Read a matrix file; FormatError on bad UTF-8, JSON or schema, OSError on I/O.

    The general path sees the file's text as text mode reads it: decoded
    as UTF-8, with ``\\r\\n`` and ``\\r`` read as ``\\n``.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    M = _read_canonical(data)
    if M is not None:
        return M
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"file is not UTF-8 text: {exc}") from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        obj = json.loads(text)
    except ValueError as exc:   # JSONDecodeError, or an integer literal past int()'s digit limit
        raise FormatError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FormatError("invalid JSON: arrays or objects nested too deeply") from exc
    return matrix_from_payload(obj)


def write_matrix(path, M) -> None:
    """Write a matrix file in the canonical format.

    The bytes are ``json.dumps(matrix_to_payload(M), separators=(",", ":"))``
    and a newline, formatted row by row from one ``tolist`` with no pair
    list and no ``json.dumps``; see the module docstring for why they match.
    """
    M = as_matrix(M)
    m, n = M.shape
    rows = np.ascontiguousarray(M).view(np.float64).tolist()
    pairs = ",".join(["[%r,%r]"] * n)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"rows":%d,"cols":%d,"data":[' % (m, n) + pairs % tuple(rows[0]))
        for row in rows[1:]:
            fh.write("," + pairs % tuple(row))
        fh.write("]}\n")
