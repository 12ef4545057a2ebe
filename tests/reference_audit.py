"""The rank-based auditor that ``verify.check_candidate`` replaced, kept as a test reference.

It decides R(X) = R(A~) and N(X) = N(A~) with four SVD rank tests on the
normalized pair (2^-e A, 2^e X): rank(A~), rank([X | A~]), rank(X) and
rank([X; A~]), all cut off at the equality bound of the stacked block's
norm.  ``check_candidate`` decides the same inclusions as projection
residuals on one factorization of A; the tests require both to reach the
same verdict.
"""

from typing import NamedTuple

import numpy as np

from minkinv import minkowski as mk
from minkinv.dense_core import DEFAULT_TOL, Tolerance, fro, pow2_exponent, rank_of, scale_pow2


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
    A, X = mk._candidate_pair(A, X)
    exp = pow2_exponent(A)
    A = scale_pow2(A, -exp)
    with np.errstate(over="ignore"):
        X = scale_pow2(X, exp)
        nX = fro(X)
    if not np.isfinite(nX):
        inf = float("inf")
        return RankAudit(inf, inf, inf, inf, False, False, False)
    diffs, norms = mk._residual_norms(A, X)
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
