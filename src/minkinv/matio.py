"""Canonical JSON matrix file format used by the CLI and the fixtures.

Schema::

    {"rows": m, "cols": n, "data": [[re, im], ...]}

with ``data`` in row-major order, one ``[re, im]`` pair per entry, all values
finite.  Explicit pairs keep parsing unambiguous; no string-parsed complex
literals.  Writing then reading a matrix reproduces it bit for bit.

Both directions run in bulk.  Writing builds the pair list with one numpy
``tolist`` and encodes it with the C encoder of ``json.dumps``; reading
decodes with the C decoder, checks the types and lengths of all entries in
C-level passes, and converts them with one ``np.fromiter`` call.  Only a
payload that fails those checks walks its entries one by one, to name the
first bad one in the :class:`FormatError`.
"""

from __future__ import annotations

import json
from itertools import chain

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


def _is_bulk_convertible(data: list) -> bool:
    """True when every entry is a list or tuple of exactly two plain ints or floats.

    ``bool`` entries and subclasses of int and float fail here and are left
    to the per-entry loop of :func:`_entries_one_by_one`.
    """
    return (set(map(type, data)) <= {list, tuple}
            and set(map(len, data)) == {2}
            and set(map(type, chain.from_iterable(data))) <= {int, float})


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
        if _is_bulk_convertible(data):
            flat = np.fromiter(chain.from_iterable(data), dtype=np.float64,
                               count=2 * len(data)).view(np.complex128)
        else:
            flat = _entries_one_by_one(data)
    except OverflowError as exc:
        raise FormatError(f"matrix entry out of the double range: {exc}") from exc
    M = flat.reshape(rows, cols)
    if not np.all(np.isfinite(M)):
        raise FormatError("matrix entries must be finite")
    return M


def read_matrix(path) -> np.ndarray:
    """Read a matrix file; FormatError on bad UTF-8, JSON or schema, OSError on I/O."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise FormatError(f"file is not UTF-8 text: {exc}") from exc
        except RecursionError as exc:
            raise FormatError("invalid JSON: arrays or objects nested too deeply") from exc
    return matrix_from_payload(obj)


def write_matrix(path, M) -> None:
    """Write a matrix file in the canonical format."""
    text = json.dumps(matrix_to_payload(M), separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
