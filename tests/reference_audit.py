"""The rank-based auditor that ``verify.check_candidate`` replaced, kept as a test reference.

It decides R(X) = R(A~) and N(X) = N(A~) with four SVD rank tests on the
normalized pair (2^-e A, 2^e X): rank(A~), rank([X | A~]), rank(X) and
rank([X; A~]), all cut off at the equality bound of the stacked block's
norm.  ``check_candidate`` decides the same inclusions as projection
residuals on one factorization of A; the tests require both to reach the
same verdict.

``reference_space_tests`` is the projection form of those space tests on
the leading singular bases of the gate's factorization.  ``_space_tests``
keeps it for refused factorizations and takes the complement bases when
the gate passes; the tests require both forms to agree.
"""

from typing import NamedTuple

import numpy as np

from minkinv import minkowski as mk
from minkinv.dense_core import (DEFAULT_TOL, Tolerance, _shaped, as_matrix, fro, pow2_exponent,
                                rank_of, scale_pow2)


class RankAudit(NamedTuple):
    eq1: float
    eq2: float
    eq3m: float
    eq4m: float
    range_ok: bool
    null_ok: bool
    verdict: bool


def reference_audit(A, X, tol: Tolerance = DEFAULT_TOL) -> RankAudit:
    """The rank-test audit of a candidate X for A^m."""
    A = as_matrix(A)
    X = _shaped("candidate", X, A.shape[::-1])
    exp = pow2_exponent(A)
    A = scale_pow2(A, -exp)
    with np.errstate(over="ignore"):
        X = scale_pow2(X, exp)
        nX = fro(X)
    if not np.isfinite(nX):
        inf = float("inf")
        return RankAudit(inf, inf, inf, inf, False, False, False)
    diffs, norms, _ = mk._residual_norms(A, X)
    eqs = mk._relative_residuals(diffs, norms)
    eqs_ok = all(d <= tol.eq_bound(n) for d, n in zip(diffs, norms))
    As = mk.mink_adjoint(A)
    row = np.hstack([X, As])
    col = np.vstack([X, As])
    floor_row = tol.eq_bound(fro(row))
    floor_col = tol.eq_bound(fro(col))
    rAs = rank_of(As, tol, floor=floor_row)
    rX = rank_of(X, tol, floor=floor_row)
    range_ok = rank_of(row, tol, floor=floor_row) == rAs == rX
    null_ok = rank_of(col, tol, floor=floor_col) == rAs == rX
    return RankAudit(*eqs, bool(range_ok), bool(null_ok),
                     bool(eqs_ok and range_ok and null_ok))


def reference_space_tests(f, X, nX: float, tol: Tolerance = DEFAULT_TOL):
    """(range_ok, null_ok, residual_range, residual_null) of ``mk._space_tests``, by projection.

    With Qr = G V_r and Qn = G U_r from the factorization ``f`` of the
    normalized A, the residuals are ||X - Qr Qr* X|| and ||X - X Qn Qn*||
    (0 where the basis spans the whole space), tested against the equality
    bound at ``nX`` = ||X|| and returned relative to max(1, ||X||).
    """
    m, n = f.B.shape[0], f.C.shape[1]
    d_range = d_null = 0.0
    if f.r < n:
        Qr = mk.apply_metric_left(f.Vr)
        d_range = fro(X - Qr @ (Qr.conj().T @ X))
    if f.r < m:
        Qn = mk.apply_metric_left(f.Ur)
        d_null = fro(X - (X @ Qn) @ Qn.conj().T)
    bound = tol.eq_bound(nX)
    scale = max(1.0, nX)
    return d_range <= bound, d_null <= bound, d_range / scale, d_null / scale
