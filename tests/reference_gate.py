"""The Gram-product existence gate that ``minkowski._factor`` replaced, kept as a test reference.

It forms the two r-by-r metric Grams B* G B and Sigma (V_r* G V_r) Sigma of
one compact SVD of the normalized matrix 2^-e A = B C and ranks each from
its ``eigvalsh`` spectrum, cut off at rank_rtol * max(m, n) *
max(|lambda|_max, sigma_1^2).  ``_factor`` decides the same ranks by an
inertia count on the rank-one structure G = 2 e1 e1* - I; the tests
require both to give the same (r, rank_BsB, rank_CCs) wherever the
reference's decision is not a tie with the cutoff.
"""

from typing import NamedTuple

import numpy as np

from minkinv.dense_core import DEFAULT_TOL, Tolerance, _rank_from_spectrum, pow2_exponent, scale_pow2
from minkinv.minkowski import apply_metric_left, apply_metric_right


class GateRanks(NamedTuple):
    r: int
    rank_BsB: int
    rank_CCs: int
    clearance: float   # min over both spectra of max(|lambda| / cutoff, cutoff / |lambda|)


def _gram_rank(H, dim: int, s1: float, tol: Tolerance) -> tuple[int, float]:
    lam = np.abs(np.linalg.eigvalsh(H))
    cutoff = tol.rank_rtol * dim * max(float(lam.max()), s1 * s1)
    with np.errstate(divide="ignore"):
        clearance = float(np.min(np.maximum(lam / cutoff, cutoff / lam)))
    return int(np.sum(lam > cutoff)), clearance


def reference_gate(A, tol: Tolerance = DEFAULT_TOL) -> GateRanks:
    """rank(A), rank(A~A) and rank(AA~) from the Gram products of one SVD of 2^-e A."""
    A = np.asarray(A, dtype=np.complex128)
    U, sv, Vh = np.linalg.svd(scale_pow2(A, -pow2_exponent(A)), full_matrices=False)
    r = _rank_from_spectrum(sv, A.shape, tol).rank
    if r == 0:
        return GateRanks(0, 0, 0, float("inf"))
    B = U[:, :r] * sv[:r]
    SC = sv[:r, None] * Vh[:r]
    s1, dim = float(sv[0]), max(A.shape)
    (rank_BsB, c_B), (rank_CCs, c_C) = (
        _gram_rank(B.conj().T @ apply_metric_left(B), dim, s1, tol),
        _gram_rank(apply_metric_right(SC) @ SC.conj().T, dim, s1, tol))
    return GateRanks(r, rank_BsB, rank_CCs, min(c_B, c_C))
