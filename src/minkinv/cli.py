"""Command-line front end: compute, check, generate, and cross-verify.

Exit codes are the machine contract:

* 0  success (existence confirmed, check passed, files written)
* 1  negative verdict: inverse does not exist, or the candidate is rejected
* 2  parse error: malformed matrix file or invalid generation spec
* 3  I/O error reading or writing a file
* 4  algorithm precondition failure (wrong shape, singular block, ...)
* 5  generator retry budget exhausted

Human-readable text may change between versions; file contents, exit codes
and ``--json`` payloads are stable.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import minkowski as mk
from . import verify
from .dense_core import Tolerance
from .errors import (
    FormatError,
    MinkinvError,
    NotExistent,
    RetryExhausted,
)
from .matio import read_matrix, write_matrix

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_FORMAT = 2
EXIT_IO = 3
EXIT_PRECONDITION = 4
EXIT_RETRY = 5


def _tolerance_parent():
    p = argparse.ArgumentParser(add_help=False)
    g = p.add_argument_group("tolerances")
    g.add_argument("--rank-rtol", type=float, default=Tolerance().rank_rtol,
                   help="relative singular-value cutoff factor for rank tests")
    g.add_argument("--eq-atol", type=float, default=Tolerance().eq_atol,
                   help="absolute residual floor for equality checks")
    g.add_argument("--eq-rtol", type=float, default=Tolerance().eq_rtol,
                   help="relative residual factor for equality checks")
    return p


def build_parser() -> argparse.ArgumentParser:
    tolp = _tolerance_parent()
    ap = argparse.ArgumentParser(
        prog="minkinv",
        description="Minkowski inverses of dense complex matrices "
                    "(metric diag(1, -1, ..., -1)).")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("adjoint", help="write the Minkowski adjoint A~ of a matrix file")
    p.add_argument("input")
    p.add_argument("output")

    p = sub.add_parser("exists", parents=[tolp],
                       help="diagnose existence of the Minkowski inverse")
    p.add_argument("input")
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("inverse", parents=[tolp],
                       help="compute the Minkowski inverse with a chosen algorithm")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--algo", choices=tuple(mk._ALGORITHMS), default="frf")
    p.add_argument("--k", type=int, default=0, help="left exponent (zlobec, zlobec2)")
    p.add_argument("--l", type=int, default=0, help="right exponent (zlobec, zlobec2)")
    p.add_argument("--r", type=int, default=None, help="leading block size (block)")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for the free parameters of the chosen algorithm")
    p.add_argument("--force", action="store_true",
                   help="evaluate the formula even when existence fails, and report "
                        "the failing residual check")

    p = sub.add_parser("check", parents=[tolp],
                       help="decide whether X is the Minkowski inverse of A")
    p.add_argument("input_a")
    p.add_argument("input_x")

    p = sub.add_parser("gen", parents=[tolp],
                       help="generate a seeded test matrix and print its diagnosis")
    p.add_argument("output")
    p.add_argument("--kind", choices=[k.value for k in verify.GenKind], default="existent")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--rank", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=float, default=1.0)

    p = sub.add_parser("crosscheck", parents=[tolp],
                       help="run every applicable algorithm and compare the results")
    p.add_argument("input")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--force", action="store_true",
                   help="on non-existent input, evaluate the formulas anyway and "
                        "require every output to fail its check")

    return ap


def _tol_from(args) -> Tolerance:
    return Tolerance(rank_rtol=args.rank_rtol, eq_atol=args.eq_atol, eq_rtol=args.eq_rtol)


def _print_diagnosis(diag):
    print(f"exists: {'yes' if diag.exists else 'no'}")
    print(f"rank(A)={diag.rank_A}  rank(AA~)={diag.rank_AAs}  rank(A~A)={diag.rank_AsA}  "
          f"rank(A~AA~)={diag.rank_AsAAs}")
    print(f"Ind(AA~)={diag.ind_AAs}  Ind(A~A)={diag.ind_AsA}  "
          f"resolvent nonsingular: {'yes' if diag.resolvent_nonsingular else 'no'}")
    marks = "  ".join(f"{name}={'pass' if ok else 'fail'}" for name, ok in diag.criteria.items())
    print(f"criteria: {marks}  (agree: {'yes' if diag.criteria_agree else 'no'})")


def _cmd_adjoint(args) -> int:
    A = read_matrix(args.input)
    write_matrix(args.output, mk.mink_adjoint(A))
    return EXIT_OK


def _cmd_exists(args) -> int:
    tol = _tol_from(args)
    A = read_matrix(args.input)
    diag = mk.diagnose_existence(A, tol)
    if args.json:
        print(json.dumps({"verdict": diag.exists, "residuals": {}, "ranks": diag.ranks()}))
    else:
        _print_diagnosis(diag)
    return EXIT_OK if diag.exists else EXIT_NEGATIVE


def _cmd_inverse(args) -> int:
    tol = _tol_from(args)
    A = read_matrix(args.input)
    algo = mk._ALGORITHMS[args.algo]
    params = {}
    for option in algo.options:
        if getattr(args, option) is None:
            raise FormatError(f"--algo {args.algo} requires --{option}")
        params[option] = getattr(args, option)
    # with --seed s, free parameter i is drawn from PCG64(s + i)
    for i, (name, shape) in enumerate(algo.free(*A.shape).items()):
        if args.seed is not None:
            rng = np.random.default_rng(np.random.PCG64(args.seed + i))
            params[name] = verify._cgauss(rng, *shape)
    comp = mk._run(args.algo, A, tol, args.force, **params)

    write_matrix(args.output, comp.result)
    e1, e2, e3, e4 = comp.residuals
    print(f"algorithm: {comp.algorithm}")
    print(f"residuals: eq1={e1:.3e} eq2={e2:.3e} eq3m={e3:.3e} eq4m={e4:.3e}")
    if args.force:
        report = verify.check_candidate(A, comp.result, tol)
        print(f"verdict: {'pass' if report.verdict else 'fail'} "
              f"(range_ok={report.range_ok}, null_ok={report.null_ok})")
    return EXIT_OK


def _cmd_check(args) -> int:
    tol = _tol_from(args)
    A = read_matrix(args.input_a)
    X = read_matrix(args.input_x)
    report, moore = verify._audit_both(A, X, tol)
    print(f"residuals: eq1={report.eq1:.3e} eq2={report.eq2:.3e} "
          f"eq3m={report.eq3m:.3e} eq4m={report.eq4m:.3e}")
    print(f"range R(X)=R(A~): {'ok' if report.range_ok else 'FAIL'}   "
          f"null N(X)=N(A~): {'ok' if report.null_ok else 'FAIL'}")
    print(f"identity tests: on-range={'ok' if moore.acts_identity_on_adjoint_range else 'FAIL'} "
          f"null-kill={'ok' if moore.annihilates_adjoint_nullspace else 'FAIL'} "
          f"range-containment={'ok' if moore.range_within_adjoint_range else 'FAIL'}")
    print(f"X is the Minkowski inverse: {'yes' if moore.is_inverse else 'no'}")
    return EXIT_OK if moore.is_inverse else EXIT_NEGATIVE


def _cmd_gen(args) -> int:
    tol = _tol_from(args)
    try:
        spec = verify.GenSpec(rows=args.rows, cols=args.cols, rank=args.rank,
                              kind=verify.GenKind(args.kind), seed=args.seed,
                              scale=args.scale)
    except ValueError as exc:
        raise FormatError(f"invalid generation spec: {exc}") from exc
    A = verify.generate(spec, tol)
    write_matrix(args.output, A)
    _print_diagnosis(mk.diagnose_existence(A, tol))
    return EXIT_OK


def _cmd_crosscheck(args) -> int:
    tol = _tol_from(args)
    A = read_matrix(args.input)
    report = verify.cross_check(A, tol, force=args.force)
    if args.json:
        residuals = {}
        for o in report.outcomes:
            if o.check is not None:
                residuals[o.name] = o.check.residuals()
        if report.max_gap is not None:
            residuals["max_gap"] = report.max_gap
        print(json.dumps({"verdict": report.verdict, "residuals": residuals,
                          "ranks": report.diagnosis.ranks()}))
    else:
        _print_diagnosis(report.diagnosis)
        for o in report.outcomes:
            if o.status == "ok":
                line = f"  {o.name:14s} ok   verdict={'pass' if o.check.verdict else 'fail'}"
            else:
                line = f"  {o.name:14s} {o.status}   {o.detail}"
            print(line)
        if report.max_gap is not None:
            print(f"max pairwise gap: {report.max_gap:.3e}")
        print(f"crosscheck: {'pass' if report.verdict else 'FAIL'}")
    return EXIT_OK if report.verdict else EXIT_NEGATIVE


_HANDLERS = {
    "adjoint": _cmd_adjoint,
    "exists": _cmd_exists,
    "inverse": _cmd_inverse,
    "check": _cmd_check,
    "gen": _cmd_gen,
    "crosscheck": _cmd_crosscheck,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except FormatError as exc:
        print(f"minkinv: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except OSError as exc:
        print(f"minkinv: {exc}", file=sys.stderr)
        return EXIT_IO
    except RetryExhausted as exc:
        print(f"minkinv: {exc}", file=sys.stderr)
        return EXIT_RETRY
    except NotExistent as exc:
        print(f"minkinv: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except (MinkinvError, ValueError) as exc:
        print(f"minkinv: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    raise SystemExit(main())
