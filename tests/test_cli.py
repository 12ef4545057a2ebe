"""Tests for the matrix file format and the command-line interface."""

import json
import os
import re

import numpy as np
import pytest

import minkinv as mi
from minkinv import fixtures, matio
from minkinv.cli import build_parser, main
from conftest import cgauss, existent

FIXDIR = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def fixture_path(name):
    return os.path.join(FIXDIR, name)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def test_roundtrip_bit_identical(tmp_path, rng):
    A = cgauss(rng, 4, 3) * 1e3
    path = tmp_path / "a.json"
    mi.write_matrix(path, A)
    B = mi.read_matrix(path)
    assert np.array_equal(A, B)


def test_payload_schema():
    payload = mi.matrix_to_payload(np.array([[1 + 2j]]))
    assert payload == {"rows": 1, "cols": 1, "data": [[1.0, 2.0]]}
    assert np.array_equal(mi.matrix_from_payload(payload), np.array([[1 + 2j]]))


@pytest.mark.parametrize("payload", [
    [],
    {"rows": 2, "cols": 2},
    {"rows": 0, "cols": 2, "data": []},
    {"rows": 1, "cols": 2, "data": [[1, 0]]},
    {"rows": 1, "cols": 1, "data": [[1, 0, 0]]},
    {"rows": 1, "cols": 1, "data": ["1"]},
    {"rows": 1, "cols": 1, "data": [[True, 0]]},
])
def test_payload_rejections(payload):
    with pytest.raises(mi.FormatError):
        mi.matrix_from_payload(payload)


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(FIXDIR) if n.endswith(".json")))
def test_write_matrix_reproduces_fixture_bytes(tmp_path, name):
    out = tmp_path / name
    mi.write_matrix(out, mi.read_matrix(fixture_path(name)))
    with open(fixture_path(name), "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_roundtrip_bit_identical_extreme_values(tmp_path, rng):
    A = cgauss(rng, 64, 64)
    A[0, 0] = complex(-0.0, -0.0)
    A[1, 2] = complex(5e-324, -5e-324)
    A[3, 4] = complex(1.7976931348623157e308, -1.7976931348623157e308)
    A[5, :] = np.arange(64) - 32.0           # integer-valued entries
    path = tmp_path / "a.json"
    mi.write_matrix(path, A)
    B = mi.read_matrix(path)
    assert np.array_equal(A.view(np.uint64), B.view(np.uint64))
    assert path.read_text().endswith("]]}\n")
    # the bulk conversion matches the per-entry reference loop bit for bit
    looped = matio._entries_one_by_one(mi.matrix_to_payload(A)["data"])
    assert np.array_equal(looped.view(np.uint64), A.reshape(-1).view(np.uint64))


def test_payload_bad_entry_reported_after_bulk_check_fails():
    payload = mi.matrix_to_payload(np.ones((256, 512)))
    payload["data"][70000] = [1.0, "2"]
    with pytest.raises(mi.FormatError, match=r"^entry 70000 is not a \[re, im\] pair of numbers$"):
        mi.matrix_from_payload(payload)


def test_payload_accepts_numpy_floats():
    payload = {"rows": 1, "cols": 2, "data": [[np.float64(1.5), 2], (np.float64(-0.0), 3.0)]}
    M = mi.matrix_from_payload(payload)
    assert np.array_equal(M, np.array([[1.5 + 2j, 3j]]))
    assert np.signbit(M[0, 1].real)


BAD_FILES = {
    "int_beyond_double": b'{"rows":1,"cols":1,"data":[[1' + b"0" * 400 + b',0]]}',
    "int_too_long": b'{"rows":1,"cols":1,"data":[[1' + b"0" * 5000 + b',0]]}',
    "not_utf8": b'{"rows":1,"cols":1,"data":[[1,0]]}\xff\xfe',
    "bool_shape": b'{"rows":true,"cols":true,"data":[[1,0]]}',
    "nested_too_deep": b'{"rows":1,"cols":1,"data":' + b"[" * 100000 + b"]" * 100000 + b"}",
}


@pytest.mark.parametrize("name", sorted(BAD_FILES))
def test_bad_matrix_file_is_format_error(tmp_path, name):
    path = tmp_path / "bad.json"
    path.write_bytes(BAD_FILES[name])
    with pytest.raises(mi.FormatError):
        mi.read_matrix(path)


def test_fixture_files_match_module():
    assert np.array_equal(mi.read_matrix(fixture_path("existent_5x5.json")),
                          fixtures.existent_5x5())
    assert np.array_equal(mi.read_matrix(fixture_path("existent_5x5_minkinv.json")),
                          fixtures.existent_5x5_minkinv())
    assert np.array_equal(mi.read_matrix(fixture_path("nonexistent_5x4.json")),
                          fixtures.nonexistent_5x4())
    assert np.array_equal(mi.read_matrix(fixture_path("pseudo_candidate_5x5.json")),
                          fixtures.pseudo_candidate_5x5())


# ---------------------------------------------------------------------------
# CLI commands
# ---------------------------------------------------------------------------

def test_adjoint_command(tmp_path, capsys):
    src = tmp_path / "in.json"
    dst = tmp_path / "out.json"
    mi.write_matrix(src, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert main(["adjoint", str(src), str(dst)]) == 0
    out = mi.read_matrix(dst)
    assert np.array_equal(out, np.array([[0, -1], [-1, 0]], dtype=complex))


def test_adjoint_regression(tmp_path):
    dst = tmp_path / "adj.json"
    assert main(["adjoint", fixture_path("existent_5x5.json"), str(dst)]) == 0
    assert np.array_equal(mi.read_matrix(dst), mi.mink_adjoint(fixtures.existent_5x5()))


def test_adjoint_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["adjoint", str(bad), str(tmp_path / "o.json")]) == 2
    assert capsys.readouterr().err.strip()


@pytest.mark.parametrize("name", sorted(BAD_FILES))
def test_adjoint_bad_matrix_file_exits_2(tmp_path, capsys, name):
    path = tmp_path / "bad.json"
    path.write_bytes(BAD_FILES[name])
    assert main(["adjoint", str(path), str(tmp_path / "o.json")]) == 2
    assert capsys.readouterr().err.startswith("minkinv: ")


@pytest.mark.parametrize("name", sorted(BAD_FILES))
def test_exists_and_check_bad_matrix_file_exit_2(tmp_path, capsys, name):
    path = tmp_path / "bad.json"
    path.write_bytes(BAD_FILES[name])
    assert main(["exists", str(path)]) == 2
    assert main(["check", str(path), fixture_path("existent_5x5_minkinv.json")]) == 2
    assert main(["check", fixture_path("existent_5x5.json"), str(path)]) == 2


def test_exists_exit_codes(capsys):
    assert main(["exists", fixture_path("existent_5x5.json")]) == 0
    assert main(["exists", fixture_path("nonexistent_5x4.json")]) == 1
    assert main(["exists", fixture_path("identity_4.json")]) == 0


def test_exists_json_schema(capsys):
    assert main(["exists", fixture_path("nonexistent_5x4.json"), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"verdict", "residuals", "ranks"}
    assert payload["verdict"] is False
    assert payload["ranks"]["rank_A"] == 2
    assert payload["ranks"]["rank_AsA"] == 1


def test_exists_missing_file():
    assert main(["exists", "/nonexistent/path.json"]) == 3


def test_inverse_frf_regression(tmp_path, capsys):
    dst = tmp_path / "am.json"
    rc = main(["inverse", fixture_path("existent_5x5.json"), str(dst), "--algo", "frf"])
    assert rc == 0
    X = mi.read_matrix(dst)
    assert np.max(np.abs(X - fixtures.existent_5x5_minkinv())) < 1e-10
    out = capsys.readouterr().out
    assert "residuals" in out


@pytest.mark.parametrize("algo", ["hs", "zlobec", "zlobec2", "group", "resolvent", "compose"])
def test_inverse_all_algorithms_agree(tmp_path, algo):
    dst = tmp_path / f"{algo}.json"
    rc = main(["inverse", fixture_path("existent_5x5.json"), str(dst), "--algo", algo])
    assert rc == 0
    X = mi.read_matrix(dst)
    assert np.max(np.abs(X - fixtures.existent_5x5_minkinv())) < 1e-8


def test_inverse_zlobec_seeded_invariance(tmp_path):
    d1 = tmp_path / "a.json"
    d2 = tmp_path / "b.json"
    assert main(["inverse", fixture_path("existent_5x5.json"), str(d1), "--algo", "frf"]) == 0
    assert main(["inverse", fixture_path("existent_5x5.json"), str(d2),
                 "--algo", "zlobec", "--k", "1", "--l", "2", "--seed", "9"]) == 0
    X1 = mi.read_matrix(d1)
    X2 = mi.read_matrix(d2)
    assert np.max(np.abs(X1 - X2)) < 1e-8


def _seeded(seed, shape):
    """The CLI's free parameter drawn from PCG64(seed)."""
    return cgauss(np.random.default_rng(np.random.PCG64(seed)), *shape)


@pytest.mark.parametrize("shape", [(5, 5), (6, 4)])
@pytest.mark.parametrize("argv, direct", [
    (["--algo", "zlobec", "--k", "1", "--l", "2"],
     lambda A, m, n: mi.mink_inverse_zlobec(A, 1, 2, _seeded(9, (m, n))).result),
    (["--algo", "zlobec2"],
     lambda A, m, n: mi.mink_inverse_zlobec2(A, 0, 0, _seeded(9, (m, m)),
                                             _seeded(10, (n, n))).result),
    (["--algo", "resolvent"],
     lambda A, m, n: mi.mink_inverse_resolvent(A, _seeded(9, (n, m))).result),
    (["--algo", "compose"],
     lambda A, m, n: mi.compose_13m_14m(A, mi.one_three_m(A, _seeded(9, (n, m))),
                                        mi.one_four_m(A, _seeded(10, (n, m))))),
])
def test_inverse_seeds_free_parameters(tmp_path, shape, argv, direct):
    # --seed s draws the i-th free parameter from PCG64(s + i)
    if shape == (5, 5):
        src = fixture_path("existent_5x5.json")
    else:
        src = str(tmp_path / "a.json")
        mi.write_matrix(src, existent(*shape, 2, seed=3))
    A = mi.read_matrix(src)
    dst, ref = tmp_path / "x.json", tmp_path / "ref.json"
    assert main(["inverse", src, str(dst), *argv, "--seed", "9"]) == 0
    mi.write_matrix(ref, direct(A, *shape))
    assert dst.read_bytes() == ref.read_bytes()


def test_readme_algo_list_matches_the_parser():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        readme = fh.read()
    listed = re.search(r"--algo frf # ([\w|]+)\n\s+# ([\w|]+)\n", readme)
    inverse = build_parser()._subparsers._group_actions[0].choices["inverse"]
    choices = next(a.choices for a in inverse._actions if a.dest == "algo")
    assert "".join(listed.groups()).split("|") == list(choices)


_GATE = "Minkowski inverse does not exist: rank(A)=2, rank(AA~)=1, rank(A~A)=1"
_COMPOSE = "rank(A~A)=1 != rank(A)=2 (or rank 0)"


@pytest.mark.parametrize("args, rc, message", [
    ([], 1, _GATE),
    (["--algo", "frf"], 1, _GATE),
    (["--algo", "hs"], 4, "this route needs a square matrix, got (5, 4)"),
    (["--algo", "zlobec"], 1, _GATE),
    (["--algo", "zlobec2"], 1, _GATE),
    (["--algo", "group"], 1, _GATE),
    (["--algo", "resolvent"], 1, _GATE),
    (["--algo", "block", "--r", "2"], 4, "leading 2x2 block is numerically singular (cond~inf)"),
    (["--algo", "compose"], 1, _COMPOSE),
    (["--algo", "compose", "--force"], 1, _COMPOSE),   # compose refuses through its members
], ids=["default", "frf", "hs", "zlobec", "zlobec2", "group", "resolvent", "block", "compose",
        "compose-force"])
def test_inverse_nonexistent_exit(tmp_path, capsys, args, rc, message):
    dst = tmp_path / "x.json"
    assert main(["inverse", fixture_path("nonexistent_5x4.json"), str(dst), *args]) == rc
    assert capsys.readouterr().err == f"minkinv: {message}\n"
    assert not dst.exists()


def test_inverse_force_reports_failure(tmp_path, capsys):
    dst = tmp_path / "forced.json"
    rc = main(["inverse", fixture_path("nonexistent_5x4.json"), str(dst),
               "--algo", "frf", "--force"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "verdict: fail" in out
    assert dst.exists()


def test_inverse_hs_nonsquare_precondition(tmp_path):
    rc = main(["inverse", fixture_path("nonexistent_5x4.json"), str(tmp_path / "x.json"),
               "--algo", "hs", "--force"])
    assert rc == 4


def test_inverse_block(tmp_path):
    gen = tmp_path / "g.json"
    assert main(["gen", str(gen), "--kind", "block", "--rows", "6", "--cols", "5",
                 "--rank", "3", "--seed", "6"]) == 0
    dst = tmp_path / "binv.json"
    assert main(["inverse", str(gen), str(dst), "--algo", "block", "--r", "3"]) == 0
    ref = tmp_path / "frf.json"
    assert main(["inverse", str(gen), str(ref), "--algo", "frf"]) == 0
    assert np.max(np.abs(mi.read_matrix(dst) - mi.read_matrix(ref))) < 1e-9


def test_check_accepts_regression(capsys):
    rc = main(["check", fixture_path("existent_5x5.json"),
               fixture_path("existent_5x5_minkinv.json")])
    assert rc == 0


def test_check_rejects_counterexample(capsys):
    rc = main(["check", fixture_path("existent_5x5.json"),
               fixture_path("pseudo_candidate_5x5.json")])
    assert rc == 1
    out = capsys.readouterr().out
    assert "range R(X)=R(A~): FAIL" in out


def test_check_rejects_candidate_that_overflows_when_normalized(tmp_path):
    a, x = tmp_path / "a.json", tmp_path / "x.json"
    mi.write_matrix(a, 1e10 * fixtures.existent_5x5())
    mi.write_matrix(x, 1e300 * np.ones((5, 5)))
    assert main(["check", str(a), str(x)]) == 1


def test_check_identity(tmp_path):
    p = tmp_path / "i.json"
    mi.write_matrix(p, np.eye(3))
    assert main(["check", str(p), str(p)]) == 0


def test_gen_existent_roundtrip(tmp_path):
    out = tmp_path / "gen.json"
    assert main(["gen", str(out), "--kind", "existent", "--rows", "5", "--cols", "4",
                 "--rank", "2", "--seed", "1"]) == 0
    assert main(["exists", str(out)]) == 0


def test_gen_isotropic_fails_existence(tmp_path):
    out = tmp_path / "iso.json"
    assert main(["gen", str(out), "--kind", "isotropic", "--rows", "4", "--cols", "3",
                 "--seed", "2"]) == 0
    assert main(["exists", str(out)]) == 1


def test_gen_invalid_spec(tmp_path):
    rc = main(["gen", str(tmp_path / "z.json"), "--kind", "existent", "--rows", "4",
               "--cols", "4", "--rank", "0"])
    assert rc == 2


def test_gen_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for p in (a, b):
        assert main(["gen", str(p), "--kind", "existent", "--rows", "6", "--cols", "4",
                     "--rank", "2", "--seed", "33"]) == 0
    assert a.read_text() == b.read_text()


def test_crosscheck_regression(capsys):
    assert main(["crosscheck", fixture_path("existent_5x5.json")]) == 0
    out = capsys.readouterr().out
    assert "max pairwise gap" in out


def test_crosscheck_nonexistent_consistent_refusal():
    assert main(["crosscheck", fixture_path("nonexistent_5x4.json")]) == 0


def test_crosscheck_json_schema(capsys):
    assert main(["crosscheck", fixture_path("existent_5x5.json"), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"verdict", "residuals", "ranks"}
    assert payload["verdict"] is True
    assert payload["residuals"]["frf"]["eq1"] < 1e-10
    assert payload["residuals"]["max_gap"] < 1e-8


def test_crosscheck_corrupted_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rows": 2, "cols": 2, "data": "nope"}')
    assert main(["crosscheck", str(bad)]) == 2
