"""Canonical JSON matrix file format used by the CLI and the fixtures.

Schema::

    {"rows": m, "cols": n, "data": [[re, im], ...]}

with ``data`` in row-major order, one ``[re, im]`` pair per entry, all values
finite.  Explicit pairs keep parsing unambiguous; no string-parsed complex
literals.  Writing then reading a matrix reproduces it bit for bit.

Writing runs in bulk: it builds the pair list with one numpy ``tolist`` and
encodes it with the C encoder of ``json.dumps``.

Reading takes one of two paths.  A file laid out exactly as
:func:`write_matrix` writes it (no spaces, keys in schema order, only JSON
whitespace after the closing brace) is recognised by a few whole-text string
passes, decoded by one ``json.loads`` into a flat list of 2*rows*cols
numbers, and converted by one ``np.fromiter`` call; no per-entry list is
built.  Everything else, and every file that path cannot decode into finite
doubles, goes to the general path: ``json.loads`` of the whole text, then
:func:`matrix_from_payload`, which checks and converts the entries one by
one and names the first bad one in the :class:`FormatError`.  So the two
paths return the same bits and raise the same errors on every file.
"""

from __future__ import annotations

import json
import re

import numpy as np

from .dense_core import as_matrix
from .errors import FormatError


def matrix_to_payload(M) -> dict:
    """JSON-ready dict for a matrix."""
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
_CANONICAL_HEAD = re.compile(r'\{"rows":([1-9][0-9]{0,17}),"cols":([1-9][0-9]{0,17}),"data":')
_DROP_NUMBER_CHARS = str.maketrans("", "", "0123456789.eE+-")


def _read_canonical(text: str) -> np.ndarray | None:
    """The matrix in ``text`` if it is laid out as :func:`write_matrix` writes it, else None.

    Bulk string passes check the layout: the header, the ``[[`` and ``]]``
    ends of ``data``, exactly N-1 ``],[`` separators for N = rows*cols, and
    what is left once number characters are dropped.  Together they leave
    each number token alone between a pair's brackets and comma, so one
    ``json.loads`` of the text with the separators flattened decodes exactly
    the 2N tokens the general path would, under JSON's number grammar.
    Any text that fails a check, or whose numbers the decoder rejects,
    overflow or are not finite, gives None and is left to the general path,
    which reports it.
    """
    head = _CANONICAL_HEAD.match(text)
    if head is None:
        return None
    rows, cols = int(head[1]), int(head[2])
    n = rows * cols
    start = head.end()
    tail = text[len(text.rstrip(" \t\n\r")):]
    # the separator count precedes the skeleton, which is then no longer than the text
    if not (text.startswith("[[", start) and text.endswith("]]}" + tail)
            and text.count("],[", start) == n - 1
            and text.translate(_DROP_NUMBER_CHARS)
            == '{"rows":,"cols":,"data":[' + "[,]," * (n - 1) + "[,]]}" + tail):
        return None
    try:
        values = json.loads(text.replace("],[", ","))["data"][0]
        flat = np.fromiter(values, dtype=np.float64, count=2 * n)
    except (ValueError, OverflowError):
        return None
    if not np.all(np.isfinite(flat)):
        return None
    return flat.view(np.complex128).reshape(rows, cols)


def read_matrix(path) -> np.ndarray:
    """Read a matrix file; FormatError on bad UTF-8, JSON or schema, OSError on I/O."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"file is not UTF-8 text: {exc}") from exc
    M = _read_canonical(text)
    if M is not None:
        return M
    try:
        obj = json.loads(text)
    except ValueError as exc:   # JSONDecodeError, or an integer literal past int()'s digit limit
        raise FormatError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FormatError("invalid JSON: arrays or objects nested too deeply") from exc
    return matrix_from_payload(obj)


def write_matrix(path, M) -> None:
    """Write a matrix file in the canonical format."""
    text = json.dumps(matrix_to_payload(M), separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
