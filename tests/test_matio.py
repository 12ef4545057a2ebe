"""Tests for read_matrix's canonical-layout decoder against the general one."""

import json
import os
import random
import re

import numpy as np
import pytest

from minkinv import FormatError, matio
from conftest import cgauss

FIXDIR = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")
FIXTURES = sorted(n for n in os.listdir(FIXDIR) if n.endswith(".json"))

_NUMBER = re.compile(r"-?[0-9][0-9.eE+-]*")
_TOKENS = ["NaN", "Infinity", "-Infinity", "01", "+1", ".5", "5.", "1e400", "-1e400",
           "1e-400", "-0", "-0.0", "0e0", "1E5", "1.5e+3", "7", "--1", "1e", "1.2.3",
           "1" + "0" * 400, "1" + "0" * 5000, "true", '"1"', "[1,2]"]
_STRAYS = list("0123456789[],.eE+-") + [" ", "\t", "\n", "\r", "\x0b", "\x0c", "\u00a0",
                                          "{", "}", '"', "x"]
_HEADS = ["0", "01", "-1", "true", "2.0", "1e0", "9" * 25, " 1"]


def _bits(M):
    return M.dtype, M.shape, M.view(np.uint64).tobytes()


def _mutate(text: str, rnd: random.Random) -> str:
    """``text`` with one seeded change of the kind a hand-edited or foreign file has."""
    kind = rnd.randrange(6)
    if kind == 0:
        return text
    if kind == 1:                                   # stray characters, often next to a bracket
        for _ in range(rnd.randint(1, 2)):
            if rnd.random() < 0.5:
                i = rnd.choice([k for k, c in enumerate(text) if c in "[],"]) + rnd.randint(0, 1)
            else:
                i = rnd.randrange(len(text) + 1)
            text = text[:i] + rnd.choice(_STRAYS) + text[i:]
        return text
    if kind == 2:                                   # one number replaced
        t = rnd.choice(list(_NUMBER.finditer(text, text.index("["))))
        return text[:t.start()] + rnd.choice(_TOKENS) + text[t.end():]
    if kind == 3:                                   # one character dropped or doubled
        i = rnd.randrange(len(text))
        return text[:i] + text[i + 1:] if rnd.random() < 0.5 else text[:i] + text[i] + text[i:]
    if kind == 4:                                   # a shape field changed
        key = rnd.choice(["rows", "cols"])
        return re.sub(f'"{key}":[0-9]+', f'"{key}":{rnd.choice(_HEADS)}', text)
    obj = json.loads(text)                          # other whitespace, key order or ending
    return rnd.choice([
        lambda: json.dumps(obj, indent=rnd.randint(0, 2)),
        lambda: json.dumps(obj),
        lambda: json.dumps(dict(reversed(obj.items())), separators=(",", ":")),
        lambda: json.dumps({**obj, "note": 1}, separators=(",", ":")),
        lambda: text.rstrip("\n"),
        lambda: text.rstrip("\n") + rnd.choice(["\r\n", " \t\n\n", "\x0c", "\u00a0", "x"]),
        lambda: rnd.choice([" ", "\n", "\ufeff"]) + text,
    ])()


def _general(text: str):
    """The general path's result on ``text``: the matrix, or the exception it raises."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        return exc
    try:
        return matio.matrix_from_payload(obj)
    except FormatError as exc:
        return exc


def fuzz_differences(tmp_path, seed: int, count: int) -> list[str]:
    """Mutated write_matrix files on which read_matrix and the general path disagree.

    Shapes are 1..4 by 1..4 and scales 10^-300..10^300; a fifth of the
    matrices are rounded to integers, which also gives zeros and -0.0.  The
    two agree on a file when they give the same matrix bits, or when
    read_matrix's FormatError is the general path's, or wraps the same JSON
    decoder error.
    """
    rnd, rng = random.Random(seed), np.random.default_rng(seed)
    path = tmp_path / "fuzz.json"
    differences = []
    for case in range(count):
        A = cgauss(rng, rnd.randint(1, 4), rnd.randint(1, 4)) * 10.0 ** rnd.randint(-300, 300)
        if rnd.random() < 0.2:
            A = np.round(A)
        matio.write_matrix(path, A)
        path.write_text(_mutate(path.read_text(encoding="utf-8"), rnd), encoding="utf-8")
        if not _agrees(path):
            differences.append(f"case {case}: {path.read_text(encoding='utf-8')[:200]!r}")
    return differences


def _agrees(path) -> bool:
    # the text as read_matrix sees it, newlines translated
    expected = _general(path.read_text(encoding="utf-8"))
    try:
        got = matio.read_matrix(path)
    except FormatError as exc:
        if not isinstance(expected, FormatError):
            exc = exc.__cause__
        return type(exc) is type(expected) and str(exc) == str(expected)
    return isinstance(expected, np.ndarray) and _bits(got) == _bits(expected)


def test_differential_fuzz_against_general_path(tmp_path):
    assert fuzz_differences(tmp_path, seed=2024, count=2000) == []


# Each passes the skeleton check alone: the stray digit leaves no trace in it.
STRAY_DIGITS = {
    "digit_after_opening": '{"rows":1,"cols":2,"data":[6[1.0,2.0],[3.0,4.0]]}\n',
    "digit_before_closing": '{"rows":1,"cols":2,"data":[[1.0,2.0],[3.0,4.0]1]}\n',
    "digit_in_separator": '{"rows":1,"cols":2,"data":[[1.0,2.0],9[3.0,4.0]]}\n',
}


@pytest.mark.parametrize("name", sorted(STRAY_DIGITS))
def test_stray_digit_is_invalid_json(tmp_path, name):
    path = tmp_path / "stray.json"
    path.write_text(STRAY_DIGITS[name], encoding="utf-8")
    with pytest.raises(FormatError, match="^invalid JSON: ") as info:
        matio.read_matrix(path)
    assert isinstance(info.value.__cause__, json.JSONDecodeError)
    assert _agrees(path)


# The general path reads text-mode text, so an error's line, column and offset count
# "\r\n" and a lone "\r" as one "\n".
NEWLINE_FILES = {
    "crlf_error": b'{"rows":1,\r\n"cols":1,\r\n"data":[[1,0]]\r\nx}',
    "cr_error": b'{"rows":1,\r"cols":1,\r"data":[[1,0]]\r\rx}',
    "crlf_pretty": b'{\r\n "rows": 1,\r\n "cols": 1,\r\n "data": [[1.5, -0.0]]\r\n}\r\n',
    "canonical_crlf": b'{"rows":1,"cols":1,"data":[[1.5,-0.0]]}\r\n',
    "bom_crlf": b'\xef\xbb\xbf{"rows":1,"cols":1,"data":[[1,0]]}\r\n',
}


@pytest.mark.parametrize("name", sorted(NEWLINE_FILES))
def test_line_ends_read_as_text_mode_reads_them(tmp_path, name):
    path = tmp_path / "newlines.json"
    path.write_bytes(NEWLINE_FILES[name])
    assert _agrees(path)


def test_canonical_files_skip_the_general_decoder(tmp_path, monkeypatch, rng):
    expected = {name: matio.read_matrix(os.path.join(FIXDIR, name)) for name in FIXTURES}

    def general(obj):
        raise AssertionError("general decoder called")
    monkeypatch.setattr(matio, "matrix_from_payload", general)

    A = cgauss(rng, 5, 3) * 1e-200
    A[0, 0] = complex(-0.0, 5e-324)
    path = tmp_path / "a.json"
    matio.write_matrix(path, A)
    assert _bits(matio.read_matrix(path)) == _bits(A)
    path.write_text(path.read_text().rstrip("\n"))      # the benchmark writes no final newline
    assert _bits(matio.read_matrix(path)) == _bits(A)
    for name in FIXTURES:
        assert _bits(matio.read_matrix(os.path.join(FIXDIR, name))) == _bits(expected[name])


def test_pretty_printed_file_takes_the_general_decoder(tmp_path, monkeypatch, rng):
    calls = []

    def general(obj):
        calls.append(obj)
        return from_payload(obj)
    from_payload = matio.matrix_from_payload
    monkeypatch.setattr(matio, "matrix_from_payload", general)

    A = cgauss(rng, 3, 4)
    path = tmp_path / "pretty.json"
    path.write_text(json.dumps(matio.matrix_to_payload(A), indent=2))
    assert _bits(matio.read_matrix(path)) == _bits(A)
    assert len(calls) == 1
