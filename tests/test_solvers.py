"""Tests for the matrix-equation and rank-equation machinery."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import minkinv as mi
from minkinv import fixtures
from conftest import cgauss, existent, isotropic, lapack_counts

A55 = fixtures.existent_5x5()
AM55 = fixtures.existent_5x5_minkinv()


# ---------------------------------------------------------------------------
# AXB = D
# ---------------------------------------------------------------------------

def test_axbd_identity_sides(rng):
    D = cgauss(rng, 3, 3)
    sol = mi.solve_axb_d(np.eye(3), np.eye(3), D)
    assert_allclose(sol.particular, D, atol=1e-13)
    assert_allclose(sol.produce(), D, atol=1e-13)


def test_axbd_inconsistent(rng):
    A = cgauss(rng, 5, 2) @ cgauss(rng, 2, 3)   # rank 2, R(A) is a proper subspace
    B = cgauss(rng, 4, 4)
    D = cgauss(rng, 5, 4)                        # generic D leaves R(A)
    assert mi.rank_of(np.hstack([A, D])) > mi.rank_of(A)
    with pytest.raises(mi.Inconsistent):
        mi.solve_axb_d(A, B, D)


def test_axbd_general_solution_sweep(rng):
    A = cgauss(rng, 4, 2) @ cgauss(rng, 2, 5)
    B = cgauss(rng, 6, 2) @ cgauss(rng, 2, 7)
    X0 = cgauss(rng, 5, 6)
    D = A @ X0 @ B
    WA = cgauss(rng, 5, 4)
    WB = cgauss(rng, 7, 6)
    sol = mi.solve_axb_d(A, B, D, WA, WB)
    for _ in range(50):
        X = sol.produce(cgauss(rng, 5, 6), cgauss(rng, 5, 6))
        assert np.linalg.norm(A @ X @ B - D) < 1e-9 * max(1, np.linalg.norm(D))


def test_axbd_deterministic_particular(rng):
    A = cgauss(rng, 4, 3)
    B = cgauss(rng, 2, 5)
    D = A @ cgauss(rng, 3, 2) @ B
    WA = cgauss(rng, 3, 4)
    WB = cgauss(rng, 5, 2)
    s1 = mi.solve_axb_d(A, B, D, WA, WB)
    s2 = mi.solve_axb_d(A, B, D, WA, WB)
    assert np.array_equal(s1.particular, s2.particular)


# ---------------------------------------------------------------------------
# XAY = B
# ---------------------------------------------------------------------------

def test_xayb_identity():
    X, Y = mi.solve_xay_b(np.eye(3), np.eye(3), np.eye(3))
    assert np.linalg.norm(X @ Y - np.eye(3)) < 1e-12


def test_xayb_same_matrix(rng):
    A = cgauss(rng, 4, 2) @ cgauss(rng, 2, 4)
    X, Y = mi.solve_xay_b(A, A, np.eye(2))
    assert np.linalg.norm(X @ A @ Y - A) < 1e-9 * np.linalg.norm(A)


def test_xayb_random_instance(rng):
    A = cgauss(rng, 4, 2) @ cgauss(rng, 2, 5)
    B = cgauss(rng, 3, 2) @ cgauss(rng, 2, 6)
    X1 = cgauss(rng, 2, 2)
    X, Y = mi.solve_xay_b(A, B, X1,
                          X2=cgauss(rng, 2, 2), X4=cgauss(rng, 1, 2),
                          Y3=cgauss(rng, 3, 2), Y4=cgauss(rng, 3, 4))
    assert np.linalg.norm(X @ A @ Y - B) < 1e-9 * np.linalg.norm(B)


def test_xayb_lapack_counts(monkeypatch, rng):
    # rank(A), rank(B), rank(X1) and the two equivalence SVDs, which reuse the ranks;
    # X1^-1, P^-1 and Q^-1
    A = cgauss(rng, 4, 2) @ cgauss(rng, 2, 5)
    B = cgauss(rng, 3, 2) @ cgauss(rng, 2, 6)
    X1 = cgauss(rng, 2, 2)
    assert lapack_counts(monkeypatch, lambda A: mi.solve_xay_b(A, B, X1), A) == {
        "svd": 5, "inv": 3, "solve": 0, "eigvalsh": 0, "qr": 0}


def test_xayb_rank_mismatch(rng):
    A = cgauss(rng, 4, 2) @ cgauss(rng, 2, 5)
    B = cgauss(rng, 3, 6)
    with pytest.raises(mi.RankMismatch):
        mi.solve_xay_b(A, B, np.eye(2))


def test_xayb_singular_param(rng):
    A = cgauss(rng, 4, 2) @ cgauss(rng, 2, 5)
    B = cgauss(rng, 3, 2) @ cgauss(rng, 2, 6)
    with pytest.raises(mi.SingularParam):
        mi.solve_xay_b(A, B, np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# bordered rank equation
# ---------------------------------------------------------------------------

def test_rank_equation_square_self(rng):
    A = cgauss(rng, 4, 4)
    inst = mi.RankEquationInstance(A=A, B=A, C=A)
    X = mi.rank_equation_solve(inst)
    assert np.linalg.norm(X - A) < 1e-10 * np.linalg.norm(A)


def test_rank_equation_infeasible(rng):
    A = cgauss(rng, 4, 2) @ cgauss(rng, 2, 4)
    B = cgauss(rng, 4, 4)      # generic: R(B) not inside R(A)
    C = cgauss(rng, 4, 4) @ A  # rowspace(C) inside rowspace(A), feasible side
    with pytest.raises(mi.Infeasible):
        mi.rank_equation_solve(mi.RankEquationInstance(A=A, B=B, C=C))


def test_rank_equation_characterization_instance():
    Am = mi.mink_inverse(A55)
    X = np.eye(5) - Am @ A55
    Y = np.eye(5) - A55 @ Am
    inst = mi.RankEquationInstance(A=A55, B=np.eye(5) - Y, C=np.eye(5) - X)
    Z = mi.rank_equation_solve(inst)
    assert np.max(np.abs(Z - AM55)) < 1e-10


def test_rank_equation_shape_validation(rng):
    A = cgauss(rng, 3, 4)
    with pytest.raises(mi.ShapeMismatch):
        mi.RankEquationInstance(A=A, B=cgauss(rng, 4, 4), C=cgauss(rng, 4, 4))


# ---------------------------------------------------------------------------
# Minkowski rank characterization and the (B, C) construction
# ---------------------------------------------------------------------------

def test_characterization_identity():
    X, Y, Z = mi.mink_rank_characterization(np.eye(4))
    assert_allclose(X, np.zeros((4, 4)), atol=1e-12)
    assert_allclose(Y, np.zeros((4, 4)), atol=1e-12)
    assert_allclose(Z, np.eye(4), atol=1e-12)


def test_characterization_metric():
    G = np.diag(mi.metric_signs(3)).astype(complex)
    X, Y, Z = mi.mink_rank_characterization(G)
    assert_allclose(X, np.zeros((3, 3)), atol=1e-12)
    assert_allclose(Z, G, atol=1e-12)


def test_characterization_regression():
    X, Y, Z = mi.mink_rank_characterization(A55)
    assert np.max(np.abs(Z - AM55)) < 1e-10
    bordered = np.block([[A55, np.eye(5) - Y], [np.eye(5) - X, Z]])
    tol = mi.DEFAULT_TOL
    floor = tol.eq_bound(mi.fro(bordered))
    assert mi.rank_of(bordered, floor=floor) == 3
    assert bordered.shape == (10, 10)


def test_characterization_idempotent_witnesses():
    A = existent(6, 4, 2, seed=21)
    X, Y, Z = mi.mink_rank_characterization(A)
    assert np.linalg.norm(X @ X - X) < 1e-9
    assert np.linalg.norm(mi.mink_adjoint(X) - X) < 1e-9
    assert np.linalg.norm(Y @ Y - Y) < 1e-9
    assert np.linalg.norm(mi.mink_adjoint(Y) - Y) < 1e-9
    assert np.linalg.norm(A @ X) < 1e-9 * np.linalg.norm(A)
    assert np.linalg.norm(Y @ A) < 1e-9 * np.linalg.norm(A)


def test_characterization_perturbation_raises_rank(rng):
    A = existent(6, 6, 3, seed=22)
    X, Y, Z = mi.mink_rank_characterization(A)
    bordered = np.block([[A, np.eye(6) - Y], [np.eye(6) - X, Z]])
    tol = mi.DEFAULT_TOL
    floor = tol.eq_bound(mi.fro(bordered))
    base_rank = mi.rank_of(bordered, floor=floor)
    E = cgauss(rng, 6, 6)
    E *= 10 * floor / np.linalg.norm(E)
    perturbed = np.block([[A, np.eye(6) - Y], [np.eye(6) - X, Z + E]])
    assert mi.rank_of(perturbed, floor=floor) > base_rank


def test_characterization_requires_existence():
    with pytest.raises(mi.NotExistent):
        mi.mink_rank_characterization(fixtures.nonexistent_5x4())


def test_solvers_gate_on_one_factorization(monkeypatch):
    # one SVD gates and gives A^m in closed form, and three rank tests
    # verify the idempotents and the bordered matrix
    assert lapack_counts(monkeypatch, mi.mink_rank_characterization, A55) == {
        "svd": 4, "inv": 0, "solve": 0, "eigvalsh": 0, "qr": 0}


def test_bc_parameterization_requires_existence():
    with pytest.raises(mi.NotExistent, match="the construction requires"):
        mi.bc_parameterization(isotropic(4, 4, seed=5))


def test_bc_parameterization_identity():
    B, C = mi.bc_parameterization(np.eye(4))
    X = mi.rank_equation_solve(mi.RankEquationInstance(A=np.eye(4), B=B, C=C))
    assert_allclose(X, np.eye(4), atol=1e-11)


def test_bc_parameterization_regression():
    B, C = mi.bc_parameterization(A55)
    X = mi.rank_equation_solve(mi.RankEquationInstance(A=A55, B=B, C=C))
    assert np.max(np.abs(X - AM55)) < 1e-9


def test_bc_parameterization_invariance(rng):
    A = existent(6, 6, 3, seed=13)
    ref = mi.mink_inverse(A)
    for _ in range(4):
        X1f = cgauss(rng, 3, 3)
        Y1 = cgauss(rng, 6, 3)
        Y2 = cgauss(rng, 6, 3)
        B, C = mi.bc_parameterization(A, X1f, Y1, Y2)
        X = mi.rank_equation_solve(mi.RankEquationInstance(A=A, B=B, C=C))
        assert np.linalg.norm(X - ref) / np.linalg.norm(ref) < 1e-8


def test_bc_parameterization_uniqueness(rng):
    A = existent(5, 5, 2, seed=14)
    ref = mi.mink_inverse(A)
    B, C = mi.bc_parameterization(A)
    bordered = np.block([[A, B], [C, ref]])
    tol = mi.DEFAULT_TOL
    floor = tol.eq_bound(mi.fro(bordered))
    rA = mi.rank_of(A)
    assert mi.rank_of(bordered, floor=floor) == rA
    E = cgauss(rng, 5, 5)
    E /= np.linalg.norm(E)
    worse = np.block([[A, B], [C, ref + 1e-3 * E]])
    assert mi.rank_of(worse, floor=floor) > rA


def test_bc_parameterization_requires_square():
    with pytest.raises(mi.NotSquare):
        mi.bc_parameterization(existent(5, 4, 2, seed=1))
