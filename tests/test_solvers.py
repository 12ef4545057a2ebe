"""Tests for the matrix-equation and rank-equation machinery."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import minkinv as mi
from minkinv import fixtures
from minkinv.dense_core import scale_pow2
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


@pytest.mark.parametrize("k", [0, 100, 150, 154, 155, 200])
def test_axbd_inconsistent_at_every_scale(k):
    # ||D|| overflowed from about 1e154 on, and the bound with it, so the equation passed
    D = cgauss(np.random.default_rng(5), 5, 5)   # rank 5, while A A(1) D B(1) B has rank 3
    A = 10.0 ** k * A55
    with pytest.raises(mi.Inconsistent, match="no solution exists$"):
        mi.solve_axb_d(A, A, 10.0 ** k * D)


def test_axbd_particular_beyond_the_double_range():
    # consistent, but A(1) D B(1) = 1e350 I-sized: raised, not returned as inf
    A = 1e-200 * np.eye(3)
    with pytest.raises(mi.MinkinvError, match="lies outside the double range$"):
        mi.solve_axb_d(A, A, 1e-50 * np.ones((3, 3)))


def test_axbd_subnormal_d_without_absolute_tolerance():
    # |D| <= 1 is compared unscaled, so eq_atol = 0 meets no 2^-d that overflows
    D = 1e-310 * np.ones((3, 3))
    sol = mi.solve_axb_d(np.eye(3), np.eye(3), D, tol=mi.Tolerance(eq_atol=0.0))
    assert sol.particular.tobytes() == D.astype(np.complex128).tobytes()


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
    # the equivalence SVDs of A and B, which also give their ranks, P^-1 and Q^-1,
    # and rank(X1); X1^-1
    A = cgauss(rng, 4, 2) @ cgauss(rng, 2, 5)
    B = cgauss(rng, 3, 2) @ cgauss(rng, 2, 6)
    X1 = cgauss(rng, 2, 2)
    assert lapack_counts(monkeypatch, lambda A: mi.solve_xay_b(A, B, X1), A) == {
        "svd": 3, "inv": 1, "solve": 0, "eigvalsh": 0, "qr": 0}


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


@pytest.mark.parametrize("k", [-200, -154, 153, 154, 200])
def test_rank_equation_solve_beyond_the_products_range(k):
    # the raw bordered matrix's norm overflows from 1e154 and underflows from 1e-154,
    # so its rank floor must be taken on blocks normalized by their own powers of two
    A = 10.0 ** k * A55
    B, C = mi.bc_parameterization(A)
    X = mi.rank_equation_solve(mi.RankEquationInstance(A=A, B=B, C=C))
    assert _rel_err(X, mi.mink_inverse(A)) <= 1e-12


@pytest.mark.parametrize("j", [-600, -27, 27, 600])
def test_rank_equation_solve_power_of_two_covariant(j):
    # 2^j A normalizes to the same 2^-e A, so its solution C (2^j A)+ B is 2^-j X bit for bit
    B, C = mi.bc_parameterization(A55)
    X = mi.rank_equation_solve(mi.RankEquationInstance(A=A55, B=B, C=C))
    Xj = mi.rank_equation_solve(mi.RankEquationInstance(A=2.0 ** j * A55, B=B, C=C))
    assert Xj.tobytes() == scale_pow2(X, -j).tobytes()


def test_rank_equation_lapack_counts(monkeypatch):
    # the gate's SVD of A, which gives rank(A) and A+, and the ranks of [A B], [A; C]
    # and the bordered matrix; right after bc_parameterization(A) the gate's SVD is remembered
    B, C = mi.bc_parameterization(A55)

    def solve(A):
        return mi.rank_equation_solve(mi.RankEquationInstance(A=A, B=B, C=C))

    assert lapack_counts(monkeypatch, solve, A55) == {
        "svd": 4, "inv": 0, "solve": 0, "eigvalsh": 0, "qr": 0}
    bc = lapack_counts(monkeypatch, mi.bc_parameterization, A55)
    both = lapack_counts(monkeypatch, lambda A: (mi.bc_parameterization(A), solve(A)), A55)
    assert {name: both[name] - bc[name] for name in both} == {
        "svd": 3, "inv": 0, "solve": 0, "eigvalsh": 0, "qr": 0}


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
    with pytest.raises(mi.NotExistent, match="Minkowski inverse does not exist"):
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


def _rel_err(W, ref):
    """||W - ref|| / ||ref||, taken on W / max|ref| so that no norm overflows."""
    s = np.abs(ref).max()
    return np.linalg.norm((W - ref) / s) / np.linalg.norm(ref / s)


@pytest.mark.parametrize("k", [-200, -154, 154, 200])
def test_characterization_and_bc_beyond_the_products_range(k):
    # both run on 2^-e A: the raw bordered matrix's norm overflows from 1e154 and
    # underflows from 1e-155, and the raw construction's B overflowed there
    A = 10.0 ** k * A55
    ref = mi.mink_inverse(A)
    X0, Y0, _ = mi.mink_rank_characterization(A55)
    X, Y, Z = mi.mink_rank_characterization(A)
    assert _rel_err(Z, ref) <= 1e-12
    assert _rel_err(X, X0) <= 1e-12 and _rel_err(Y, Y0) <= 1e-12
    B, C = mi.bc_parameterization(A)
    assert np.all(np.isfinite(B)) and np.all(np.isfinite(C))
    X = (C @ mi.moore_penrose(A)) @ B       # the unique solution C A+ B of the rank equation
    assert _rel_err(X, ref) <= 1e-8


@pytest.mark.parametrize("k", [-160, -200, -300])
def test_bc_parameterization_with_underflowing_free_parameters(k):
    # the construction takes 2^2e Y1 and 2^2e Y2, which underflow here for Y1 and Y2 of unit size;
    # their share of B is about |A|^2 relative, so B and C are those of Y1 = Y2 = 0
    A = 10.0 ** k * A55
    B0, C0 = mi.bc_parameterization(A)
    B, C = mi.bc_parameterization(A, None, np.full((5, 3), 0.3), np.full((5, 2), 0.3))
    assert C.tobytes() == C0.tobytes()
    assert _rel_err(B, B0) <= 1e-15
    X = (C @ mi.moore_penrose(A)) @ B
    assert _rel_err(X, mi.mink_inverse(A)) <= 1e-8


def test_bc_parameterization_requires_square():
    with pytest.raises(mi.NotSquare):
        mi.bc_parameterization(existent(5, 4, 2, seed=1))
