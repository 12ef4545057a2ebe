"""Mutation checks: hand-made faults in the source that the tests must catch.

Usage: python3 tools/mutants.py [NAME ...]    (every mutant by default)

Each entry of ``MUTANTS`` is one fault: a file of the repository, the exact
text it replaces (which must occur there once), the text put in its place,
and the test nodes of which at least one must fail.  The tool copies
``src/``, ``tests/``, ``fixtures/``, ``pyproject.toml`` and ``README.md``
into a temporary directory, checks that every chosen node passes there,
applies each mutant in turn, and runs pytest on that mutant's nodes only.
A mutant whose nodes all pass survived; one whose old text no longer
occurs exactly once is stale.  Both are reported, and the exit status is 1
if there is either.

Standard library only; pytest runs in a subprocess whose PYTHONPATH is the
copy's ``src/``, without writing bytecode.  A survivor is a gap in the tests,
to be recorded, never a reason to delete its mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "fixtures", "pyproject.toml", "README.md")
MINK = "src/minkinv/minkowski.py"
MATIO = "src/minkinv/matio.py"


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    nodes: tuple[str, ...]


MEMO = "tests/test_factor_memo.py::"
KEPT = MEMO + "test_complements_are_kept_where_the_gate_passes_and_the_svd_holds_them"
CLI = "tests/test_cli.py::"
MATIO_TESTS = "tests/test_matio.py::"
VERIFY = "tests/test_verify.py::"
CONTRACT = "tests/test_scale_contract.py::test_parameterized_right_or_raise_at_every_scale"

MUTANTS = [
    # the complement bases and the memo of the gate's factorization
    Mutant("Wr without G", MINK,
           "Wr=apply_metric_right(Vh[r:]) if", "Wr=Vh[r:] if",
           (VERIFY + "test_check_candidate_accepts_regression",)),
    Mutant("Wn without G", MINK,
           "Wn=apply_metric_left(U[:, r:]) if", "Wn=U[:, r:] if", (KEPT,)),
    Mutant("Wr kept on wide A", MINK,
           "if n <= m and n - r <= 2 * r", "if n - r <= 2 * r",
           (KEPT, VERIFY + "test_space_tests_match_the_projection_reference")),
    Mutant("complement kept at any width", MINK,
           "if n <= m and n - r <= 2 * r else None,\n"
           "                    Wn=apply_metric_left(U[:, r:]) if m <= n and m - r <= 2 * r",
           "if n <= m else None,\n"
           "                    Wn=apply_metric_left(U[:, r:]) if m <= n",
           (KEPT,)),
    Mutant("complement width bound off by one", MINK,
           "if n <= m and n - r <= 2 * r", "if n <= m and n - r < 2 * r", (KEPT,)),
    Mutant("complements kept on a refused factorization", MINK,
           "    if f.exists:\n        m, n = A.shape", "    if True:\n        m, n = A.shape",
           (KEPT,)),
    Mutant("memo compares values, not bits", MINK,
           "np.array_equal(\n            _last.A.view(np.int64), A.view(np.int64))",
           "np.array_equal(\n            _last.A, A)",
           (MEMO + "test_factor_memo_keys_on_bits_tolerance_and_shape",)),
    Mutant("memo keeps the caller's A", MINK,
           "    A = scale_pow2(A, -exp)\n", "    A = A if exp == 0 else scale_pow2(A, -exp)\n",
           (MEMO + "test_factor_memo_misses_on_in_place_mutation",)),
    Mutant("the input's layout kept in the factorization", MINK,
           "A = np.ascontiguousarray(as_matrix(A))", "A = as_matrix(A)",
           (MEMO + "test_outcomes_do_not_depend_on_the_memory_layout",)),
    Mutant("memo key without the exponent", MINK,
           "_last.tol == tol and _last.exp == exp and", "_last.tol == tol and",
           (MEMO + "test_factor_memo_misses_on_another_power_of_two",)),
    Mutant("old factorization held through the new SVD", MINK,
           "        return _last\n    _last = None\n", "        return _last\n",
           (MEMO + "test_factor_miss_drops_the_remembered_factorization_before_its_svd",)),
    Mutant("normalized A left writable", MINK,
           "for a in (A, sv, B, C, f.Wr, f.Wn):", "for a in (sv, B, C, f.Wr, f.Wn):",
           (MEMO + "test_remembered_factors_are_read_only",)),
    # matrix files
    Mutant("%.17g for %r", MATIO,
           'pairs = ",".join(["[%r,%r]"] * n)', 'pairs = ",".join(["[%.17g,%.17g]"] * n)',
           (CLI + "test_write_matrix_reproduces_fixture_bytes",
            MATIO_TESTS + "test_canonical_files_skip_the_general_decoder")),
    Mutant("no final newline", MATIO,
           'fh.write("]}\\n")', 'fh.write("]}")',
           (CLI + "test_write_matrix_reproduces_fixture_bytes",)),
    Mutant("the input's memory layout kept", MATIO,
           "rows = np.ascontiguousarray(M).view(np.float64).tolist()",
           "rows = M.view(np.float64).tolist()",
           (CLI + "test_write_matrix_bytes_are_the_json_encoders",)),
    Mutant("anything accepted after ]]}", MATIO,
           'or not data.startswith(b"[[", head.end()) or tail.strip(b" \\t\\n\\r"):',
           'or not data.startswith(b"[[", head.end()):',
           (CLI + "test_bad_matrix_file_is_format_error",
            MATIO_TESTS + "test_differential_fuzz_against_general_path")),
    Mutant("no \\r translation in the fallback", MATIO,
           'text = text.replace("\\r\\n", "\\n").replace("\\r", "\\n")', "pass",
           (MATIO_TESTS + "test_line_ends_read_as_text_mode_reads_them",)),
    Mutant("no separator count", MATIO,
           "if not (len(data) - len(flat) == 2 * (n - 1)", "if not (True",
           (CLI + "test_bad_matrix_file_is_format_error",)),
    # the audit
    Mutant("AX returned for XA", MINK,
           "fro(AX), fro(XA)), XA", "fro(AX), fro(XA)), AX",
           ("tests/test_minkowski.py::test_moore_style_accepts_inverse",
            VERIFY + "test_auditors_reach_one_verdict_near_the_light_cone")),
    Mutant("AX in place of XA in the identity residual", MINK,
           "d_id = fro(XA @ As - As)", "d_id = fro(A @ X @ As - As)",
           ("tests/test_minkowski.py::test_moore_style_accepts_inverse",
            VERIFY + "test_auditors_reach_one_verdict_near_the_light_cone")),
    Mutant("verdict without null_ok", MINK,
           "verdict=bool(eqs_ok and range_ok and null_ok)", "verdict=bool(eqs_ok and range_ok)",
           (VERIFY + "test_null_space_test_alone_rejects_a_candidate_off_the_null_space",)),
    Mutant("is_inverse without f.exists", MINK,
           "is_inverse=bool(f.exists and ok_id", "is_inverse=bool(ok_id",
           (VERIFY + "test_moore_style_check_is_false_where_the_gate_refuses",)),
    # free parameters and witnesses
    Mutant("X14 checked against (3m)", MINK,
           '_witness(f, "X14", X14, 3)', '_witness(f, "X14", X14, 2)',
           ("tests/test_minkowski.py::test_compose_random_members", CONTRACT)),
    Mutant("{1,3m} member unchecked", MINK,
           'X if Y is None else _witness(f, "X", X, 2)', "X", (CONTRACT,)),
    Mutant("{1,4m} member unchecked", MINK,
           'X if Z is None else _witness(f, "X", X, 3)', "X", (CONTRACT,)),
    Mutant("bc_parameterization unchecked", "src/minkinv/solvers.py",
           "if not miss <= tol.eq_bound(fro(Am)):", "if False:",
           (CONTRACT,)),
    # the values that the routes share through the factorization's store
    Mutant("the AA~ core handed to an A~A request", MINK,
           '_stored(f, ("core", name, p), make)', '_stored(f, ("core", p), make)',
           (MEMO + "test_routes_sharing_stored_values_equal_their_cold_calls",
            "tests/test_minkowski.py::test_zlobec2_metric")),
    Mutant("the core's key drops its anchor", MINK,
           '_stored(f, ("core", name, p), make)', '_stored(f, ("core", name), make)',
           (MEMO + "test_routes_sharing_stored_values_equal_their_cold_calls",)),
    Mutant("stored arrays left writable", MINK,
           "            a.flags.writeable = False\n        f.store[key] = value",
           "            pass\n        f.store[key] = value",
           (MEMO + "test_remembered_factors_are_read_only",)),
    Mutant("(B~B)^-1 handed to a (CC~)^-1 request", MINK,
           "    return _stored(f, name, make)\n\n\ndef _frf(",
           '    return _stored(f, "inv", make)\n\n\ndef _frf(',
           ("tests/test_minkowski.py::test_frf_generated",
            "tests/test_minkowski.py::test_compose_random_members")),
]


def _pytest(work: Path, args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args],
                          cwd=work, env=env, capture_output=True, text=True, timeout=600)


def run(mutant: Mutant, work: Path) -> str:
    """'killed', 'survived', 'stale' or 'error: ...' for one mutant, applied to the copy in ``work``."""
    target = work / mutant.path
    text = target.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return "stale"
    target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    try:
        proc = _pytest(work, ["-x", *mutant.nodes])
    finally:
        target.write_text(text, encoding="utf-8")
    if proc.returncode in (0, 1):
        return "killed" if proc.returncode == 1 else "survived"
    return f"error: pytest exit {proc.returncode}: {proc.stdout.strip().splitlines()[-1:]}"


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    bad = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        work = Path(tmp)
        for part in COPIED:
            src = ROOT / part
            if src.is_dir():
                shutil.copytree(src, work / part, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, work / part)
        # a mutant counts as killed only if its nodes pass on the unmutated copy
        control = _pytest(work, sorted({node for m in chosen for node in m.nodes}))
        if control.returncode != 0:
            print("the unmutated copy fails the mutants' nodes:\n" + control.stdout[-2000:])
            return 1
        for mutant in chosen:
            t0 = time.perf_counter()
            outcome = run(mutant, work)
            bad += outcome != "killed"
            print(f"{outcome:>9}  {time.perf_counter() - t0:5.1f} s  {mutant.name}", flush=True)
    print(f"{bad} of {len(chosen)} mutants not killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
