"""The formed-product existence diagnosis that ``minkowski._diagnose`` replaced, kept as a test reference.

It ranks each product of A and A~ (A~A, AA~, A~AA~, their squares and
[AA~ | A]) with its own full SVD, cut off at max(m, n) (m + n for the
stacked block) times rank_rtol and the product's anchor power of
sigma_1(A).  ``_diagnose`` forms the same products and ranks each on its
r-by-r core in the bases of the gate's SVD; the tests require both to
reach the same criteria and ranks wherever no product's rank is a tie
with its cutoff.
"""

import numpy as np

from minkinv.dense_core import (DEFAULT_TOL, Tolerance, _rank_from_spectrum, as_matrix,
                                pow2_exponent, scale_pow2)
from minkinv.minkowski import ExistenceDiagnosis, _index, mink_adjoint


def reference_diagnosis(A, tol: Tolerance = DEFAULT_TOL) -> tuple[ExistenceDiagnosis, float]:
    """The five-criterion diagnosis of A from formed products, and its clearance.

    The clearance is the minimum, over the six product ranks, of
    max(sigma / cutoff, cutoff / sigma) over each product's nonzero
    singular values: how far the closest rank decision is from a tie.
    """
    A = as_matrix(A)
    A = scale_pow2(A, -pow2_exponent(A))
    n = A.shape[1]
    _, s, Vh = np.linalg.svd(A, full_matrices=False)
    rank_A = _rank_from_spectrum(s, A.shape, tol).rank
    sA = float(s[0])
    ApA = Vh[:rank_A].conj().T @ Vh[:rank_A]
    As = mink_adjoint(A)
    AAs = A @ As
    AsA = As @ A
    s2 = sA * sA
    clearance = float("inf")

    def rank(M, scale):
        nonlocal clearance
        rep = _rank_from_spectrum(np.linalg.svd(M, compute_uv=False), M.shape, tol, scale)
        sv = rep.singular_values[rep.singular_values > 0]
        if sv.size and rep.cutoff > 0:
            clearance = min(clearance, float(np.min(np.maximum(sv / rep.cutoff,
                                                               rep.cutoff / sv))))
        return rep.rank

    rank_AAs = rank(AAs, s2)
    rank_AsA = rank(AsA, s2)
    rank_AsAAs = rank(As @ A @ As, s2 * sA)
    rank2_AsA = rank(AsA @ AsA, s2 * s2)
    rank2_AAs = rank(AAs @ AAs, s2 * s2)
    range_A_in_AAs = rank(np.hstack([AAs, A]), max(sA, s2)) == rank_AAs
    resolvent = AsA + np.eye(n, dtype=np.complex128) - ApA
    resolvent_nonsingular = _rank_from_spectrum(np.linalg.svd(resolvent, compute_uv=False),
                                                A.shape, tol, scale=max(1.0, s2)).rank == n
    criteria = {
        "rank_triple": rank_AAs == rank_AsA == rank_A,
        "rank_sandwich": rank_AsAAs == rank_A,
        "index_AsA": rank2_AsA == rank_AsA and rank_AsA == rank_A,
        "index_AAs": rank2_AAs == rank_AAs and range_A_in_AAs,
        "resolvent": resolvent_nonsingular,
    }
    return ExistenceDiagnosis(
        exists=criteria["rank_triple"], rank_A=rank_A, rank_AAs=rank_AAs, rank_AsA=rank_AsA,
        rank_AsAAs=rank_AsAAs,
        ind_AAs=_index(AAs, rank_AAs, rank2_AAs, tol, s2),
        ind_AsA=_index(AsA, rank_AsA, rank2_AsA, tol, s2),
        resolvent_nonsingular=resolvent_nonsingular, criteria=criteria,
        criteria_agree=len(set(criteria.values())) == 1), clearance
