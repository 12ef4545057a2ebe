"""Tests for the rank/factorization layer."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import minkinv as mi
from minkinv import fixtures
from conftest import cgauss, existent


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        mi.as_matrix(np.array([[1.0, np.nan]]))
    with pytest.raises(mi.ShapeMismatch):
        mi.as_matrix(np.ones(3))


def test_tolerance_validation():
    with pytest.raises(ValueError):
        mi.Tolerance(rank_rtol=-1e-16)


def test_pow2_exponent_brackets_the_largest_entry():
    for big in (0.75, 1.0, 3.0 + 4.0j, 1e-300, 1e300):
        e = mi.dense_core.pow2_exponent(np.array([[big / 3, -big]]))
        assert 2.0 ** (e - 1) <= abs(big) < 2.0 ** e
    assert mi.dense_core.pow2_exponent(np.zeros((2, 3))) == 0


def test_scale_pow2_exact_beyond_finite_powers(rng):
    # 2**1060 is not a finite double; the round trip is still exact
    M = cgauss(rng, 3, 4) * 1e-300
    up = mi.dense_core.scale_pow2(M, 1060)
    assert np.all(np.isfinite(up))
    assert np.array_equal(mi.dense_core.scale_pow2(up, -1060), M)
    assert np.array_equal(mi.dense_core.scale_pow2(M, 7), M * 128.0)


def test_numerical_rank_zero():
    rep = mi.numerical_rank(np.zeros((3, 3)))
    assert rep.rank == 0
    assert rep.cutoff == 0.0


def test_numerical_rank_counts_above_cutoff(rng):
    A = cgauss(rng, 6, 4)
    rep = mi.numerical_rank(A)
    assert rep.rank == 4
    assert rep.rank == int(np.sum(rep.singular_values > rep.cutoff))


def test_numerical_rank_scale_anchor(rng):
    # a pure-noise product must rank as zero when anchored at its true scale
    noise = 1e-16 * rng.standard_normal((4, 4))
    assert mi.numerical_rank(noise).rank == 4
    assert mi.numerical_rank(noise, scale=1.0).rank == 0


def test_numerical_rank_paper_examples():
    A = fixtures.nonexistent_5x4()
    As = mi.mink_adjoint(A)
    assert mi.rank_of(A) == 2
    assert mi.rank_of(As @ A) == 1
    B = fixtures.existent_5x5()
    assert mi.rank_of(B) == 3


def test_moore_penrose_identity_and_diagonal():
    assert_allclose(mi.moore_penrose(np.eye(4)), np.eye(4), atol=1e-14)
    assert_allclose(mi.moore_penrose(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-14)


def test_moore_penrose_penrose_equations(rng):
    A = cgauss(rng, 6, 3) @ cgauss(rng, 3, 4)
    X = mi.moore_penrose(A)
    assert np.linalg.norm(A @ X @ A - A) < 1e-12
    assert np.linalg.norm(X @ A @ X - X) < 1e-12
    assert np.linalg.norm((A @ X).conj().T - A @ X) < 1e-12
    assert np.linalg.norm((X @ A).conj().T - X @ A) < 1e-12


def test_one_inverse_sample_base_point(rng):
    A = cgauss(rng, 5, 4)
    assert_allclose(mi.one_inverse_sample(A), mi.moore_penrose(A), atol=1e-14)


def test_one_inverse_sample_identity_collapses(rng):
    W = cgauss(rng, 3, 3)
    assert_allclose(mi.one_inverse_sample(np.eye(3), W), np.eye(3), atol=1e-14)


def test_one_inverse_sample_sweeps_ones(rng):
    A = cgauss(rng, 5, 2) @ cgauss(rng, 2, 4)
    Ap = mi.moore_penrose(A)
    seen_distinct = False
    for _ in range(100):
        W = cgauss(rng, 4, 5)
        G1 = mi.one_inverse_sample(A, W)
        assert np.linalg.norm(A @ G1 @ A - A) < 1e-11
        seen_distinct |= np.linalg.norm(G1 - Ap) > 1e-6
    assert seen_distinct


def test_group_inverse_nonsingular(rng):
    M = cgauss(rng, 4, 4) + 2 * np.eye(4)
    assert_allclose(mi.group_inverse(M), np.linalg.inv(M), atol=1e-11)


def test_group_inverse_diagonal():
    assert_allclose(mi.group_inverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-14)


def test_group_inverse_rejects_index_two():
    with pytest.raises(mi.IndexNotOne):
        mi.group_inverse(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_group_inverse_of_gram_product():
    A = existent(6, 5, 3, seed=11)
    M = A @ mi.mink_adjoint(A)
    X = mi.group_inverse(M, scale=mi.sigma_max(A) ** 2)
    assert np.linalg.norm(M @ X @ M - M) / np.linalg.norm(M) < 1e-10
    assert np.linalg.norm(X @ M @ X - X) / np.linalg.norm(X) < 1e-10
    assert np.linalg.norm(M @ X - X @ M) < 1e-10 * np.linalg.norm(M @ X)


@pytest.mark.parametrize("mat,expected", [
    (np.eye(3), 0),
    (np.array([[0.0, 1.0], [0.0, 0.0]]), 2),
])
def test_index_of_basics(mat, expected):
    assert mi.index_of(mat) == expected


def test_index_of_paper_product():
    A = fixtures.nonexistent_5x4()
    As = mi.mink_adjoint(A)
    assert mi.index_of(As @ A, scale=mi.sigma_max(A) ** 2) == 1
    assert mi.index_of(A @ As, scale=mi.sigma_max(A) ** 2) == 1


def test_full_rank_factorization_diag():
    f = mi.full_rank_factorization(np.diag([2.0, 0.0]))
    assert f.r == 1
    assert_allclose(f.B @ f.C, np.diag([2.0, 0.0]), atol=1e-14)


def test_full_rank_factorization_paper_matrix():
    A = fixtures.existent_5x5()
    f = mi.full_rank_factorization(A)
    assert f.r == 3
    assert np.linalg.norm(f.B @ f.C - A) / np.linalg.norm(A) < 1e-12


def test_full_rank_factorization_ranks(rng):
    A = cgauss(rng, 8, 4) @ cgauss(rng, 4, 6)
    f = mi.full_rank_factorization(A)
    assert f.r == 4
    assert mi.rank_of(f.B) == 4
    assert mi.rank_of(f.C) == 4


def test_full_rank_factorization_zero():
    with pytest.raises(mi.ZeroMatrix):
        mi.full_rank_factorization(np.zeros((3, 3)))


def test_hs_decomposition_unitary(rng):
    Q, _ = np.linalg.qr(cgauss(rng, 4, 4))
    hs = mi.hs_decomposition(Q)
    assert hs.r == 4
    assert_allclose(hs.sigma, np.ones(4), atol=1e-13)
    assert_allclose(hs.U @ hs.core() @ hs.U.conj().T, Q, atol=1e-13)


def test_hs_decomposition_paper_singular_values():
    hs = mi.hs_decomposition(fixtures.existent_5x5())
    assert hs.r == 3
    assert_allclose(hs.sigma, fixtures.EXISTENT_5X5_SINGULAR_VALUES, rtol=5e-4)


def _factor_hs(A):
    """(HS form, matrix) as the HS route builds it: from the gate's SVD of 2^-e A."""
    f = mi.minkowski._factor(A, mi.DEFAULT_TOL)
    return mi.dense_core._hs_from_svd(f.B / f.s, f.s, f.C), mi.dense_core.scale_pow2(A, -f.exp)


def test_hs_decomposition_invariants(rng):
    A = cgauss(rng, 6, 3) @ cgauss(rng, 3, 6)
    for hs, A, r in [(mi.hs_decomposition(A), A, 3), (*_factor_hs(A), 3),
                     (*_factor_hs(1e8 * A), 3), (*_factor_hs(cgauss(rng, 5, 5)), 5)]:
        n = A.shape[0]
        assert hs.r == r
        assert np.linalg.norm(hs.K @ hs.K.conj().T + hs.L @ hs.L.conj().T - np.eye(r)) < 1e-12
        assert np.linalg.norm(hs.U.conj().T @ hs.U - np.eye(n)) < 1e-12
        assert np.linalg.norm(hs.U @ hs.core() @ hs.U.conj().T - A) / np.linalg.norm(A) < 1e-12


def test_hs_decomposition_errors():
    with pytest.raises(mi.NotSquare):
        mi.hs_decomposition(np.ones((3, 2)))
    with pytest.raises(mi.ZeroMatrix):
        mi.hs_decomposition(np.zeros((3, 3)))


def test_projector_orthogonal_case(rng):
    A = cgauss(rng, 5, 2)
    P = mi.projector_onto_along(A, A.conj().T)
    assert np.linalg.norm(P @ P - P) < 1e-12
    assert np.linalg.norm(P - P.conj().T) < 1e-12
    assert np.linalg.norm(P @ A - A) < 1e-12


def test_projector_identity():
    assert_allclose(mi.projector_onto_along(np.eye(4), np.eye(4)), np.eye(4), atol=1e-13)


def test_projector_defining_relations(rng):
    A = cgauss(rng, 6, 3)
    B = cgauss(rng, 3, 6)
    P = mi.projector_onto_along(A, B)
    assert np.linalg.norm(P @ P - P) < 1e-10
    assert np.linalg.norm(P @ A - A) < 1e-10
    assert np.linalg.norm(B @ P - B) < 1e-10


def test_projector_matches_minkowski_product():
    A = existent(6, 4, 2, seed=3)
    Am = mi.mink_inverse(A)
    P = mi.projector_onto_along(A, mi.mink_adjoint(A))
    assert np.linalg.norm(P - A @ Am) < 1e-10


def test_projector_rank_mismatch(rng):
    A = cgauss(rng, 4, 2)
    B = np.zeros((2, 4))
    with pytest.raises(mi.RankMismatch):
        mi.projector_onto_along(A, B)


def test_inv_shift_identity_zero_cases(rng):
    A = np.zeros((3, 2))
    B = cgauss(rng, 2, 3)
    d, s = mi.inv_shift_identity(A, B)
    assert_allclose(d, np.eye(3), atol=1e-14)
    assert_allclose(s, np.eye(3), atol=1e-14)
    d, s = mi.inv_shift_identity(cgauss(rng, 3, 2), np.zeros((2, 3)))
    assert_allclose(d, np.eye(3), atol=1e-14)


def test_inv_shift_identity_agreement(rng):
    A = cgauss(rng, 4, 3)
    B = cgauss(rng, 3, 4)
    B = 0.5 * B / (np.linalg.norm(A) * np.linalg.norm(B))
    d, s = mi.inv_shift_identity(A, B)
    assert np.linalg.norm(d - s) / np.linalg.norm(d) < 1e-10


def test_inv_shift_identity_singular():
    A = np.eye(3)
    with pytest.raises(mi.Singular):
        mi.inv_shift_identity(A, np.eye(3))
