"""Tests for the adjoint, diagnostics, and the inverse algorithms."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

import minkinv as mi
from minkinv import fixtures
from minkinv.dense_core import scale_pow2
from conftest import cgauss, existent, block_existent, isotropic, lapack_counts, light_cone

A55 = fixtures.existent_5x5()
AM55 = fixtures.existent_5x5_minkinv()
A52 = fixtures.nonexistent_5x4()
X55 = fixtures.pseudo_candidate_5x5()


def metric(n):
    return np.diag(mi.metric_signs(n)).astype(complex)


# ---------------------------------------------------------------------------
# adjoint and metric
# ---------------------------------------------------------------------------

def test_adjoint_swap_matrix():
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert_allclose(mi.mink_adjoint(A), [[0, -1], [-1, 0]])


def test_metric_order_must_be_positive():
    with pytest.raises(ValueError, match="metric order must be positive"):
        mi.metric_signs(0)


def test_adjoint_of_metric():
    G = metric(3)
    assert_allclose(mi.mink_adjoint(G), G)


def test_adjoint_involution_exact(rng):
    A = cgauss(rng, 5, 3)
    assert np.array_equal(mi.mink_adjoint(mi.mink_adjoint(A)), A)


def test_adjoint_product_rule(rng):
    A = cgauss(rng, 4, 3)
    B = cgauss(rng, 3, 5)
    lhs = mi.mink_adjoint(A @ B)
    rhs = mi.mink_adjoint(B) @ mi.mink_adjoint(A)
    assert np.linalg.norm(lhs - rhs) < 1e-13


def test_adjoint_matches_dense_metric(rng):
    A = cgauss(rng, 4, 3)
    dense = metric(3) @ A.conj().T @ metric(4)
    assert np.array_equal(mi.mink_adjoint(A), dense)


def test_metric_application_bit_equivalent(rng):
    M = cgauss(rng, 5, 4)
    assert np.array_equal(mi.minkowski.apply_metric_left(M), metric(5) @ M)
    assert np.array_equal(mi.minkowski.apply_metric_right(M), M @ metric(4))


@pytest.mark.parametrize("j", [1022, -1022, 600, -600])
def test_defining_residuals_at_the_range_ends(j):
    # the norms of the raw pair overflowed: eq1 read NaN at 2^1022 and eq2 at 2^-600
    res = mi.defining_residuals(2.0 ** j * A55, 2.0 ** -j * X55)
    ref = mi.defining_residuals(A55, X55)
    assert np.all(np.isfinite(res))
    assert_allclose(res, ref, rtol=1e-14, atol=1e-15)
    if j != 1022:                 # 2^-j X stays normal: the normalized pair is the unscaled one
        assert res == ref


def test_defining_residuals_of_an_overflowing_candidate():
    # 2^e X overflows for X near the largest double, and every residual reads inf
    assert mi.defining_residuals(A55, 1e308 / np.abs(X55).max() * X55) == (np.inf,) * 4


# ---------------------------------------------------------------------------
# existence diagnostics
# ---------------------------------------------------------------------------

def test_diagnose_nonexistent_regression():
    d = mi.diagnose_existence(A52)
    assert not d.exists
    assert d.rank_A == 2
    assert d.rank_AsA == 1
    assert d.rank_AAs == 1
    assert d.rank_AsAAs == 1
    assert d.ind_AsA == 1
    assert d.ind_AAs == 1
    assert d.criteria_agree
    assert not d.resolvent_nonsingular


def test_diagnose_existent_regression():
    d = mi.diagnose_existence(A55)
    assert d.exists
    assert d.rank_A == 3
    assert d.rank_AsAAs == 3
    assert d.criteria_agree


def test_diagnose_identity():
    d = mi.diagnose_existence(np.eye(4))
    assert d.exists
    assert d.rank_A == d.rank_AAs == d.rank_AsA == 4


def test_diagnose_isotropic():
    A = isotropic(4, 3, seed=2)
    d = mi.diagnose_existence(A)
    assert not d.exists
    assert d.rank_A == 1
    assert d.rank_AsA == 0
    assert d.criteria_agree


@pytest.mark.parametrize("m, n, seed", [(2, 1, 80_088), (5, 1, 80_138), (4, 1, 80_174),
                                        (11, 2, 80_045), (5, 1, 80_307),
                                        (9, 2, 80_641), (5, 3, 80_993)])
def test_resolvent_criterion_agrees_on_light_cone_draws(m, n, seed):
    # rounding in a formed A+ A made A~A + I - A+ A look nonsingular on these
    # draws; on the last two, so did a resolvent cutoff of width n, not max(m, n)
    A = isotropic(m, n, seed)
    assert mi.diagnose_existence(A).criteria_agree
    assert mi.cross_check(A).diagnosis.criteria_agree


@pytest.mark.parametrize("k", (-300, -100, -8, 8, 100, 300))
def test_diagnose_at_every_scale(k):
    # the criteria run on 2^-e A, so no product over- or underflows and the
    # resolvent's shift I keeps the scale of A~A
    d = mi.diagnose_existence(10.0 ** k * fixtures.existent_5x5())
    assert d.exists and d.criteria_agree
    assert d.ranks() == mi.diagnose_existence(fixtures.existent_5x5()).ranks()
    d = mi.diagnose_existence(10.0 ** k * fixtures.nonexistent_5x4())
    assert not d.exists and d.criteria_agree


# ---------------------------------------------------------------------------
# the inverse algorithms on the paper regression matrix
# ---------------------------------------------------------------------------

def _assert_is_am55(X, atol=1e-8):
    assert np.max(np.abs(X - AM55)) < atol


def test_frf_regression():
    comp = mi.mink_inverse_frf(A55)
    _assert_is_am55(comp.result, atol=1e-10)
    assert max(comp.residuals) < 1e-12


def test_frf_metric():
    G = metric(4)
    assert_allclose(mi.mink_inverse_frf(G).result, G, atol=1e-13)


def test_frf_generated():
    A = existent(7, 5, 3, seed=1)
    comp = mi.mink_inverse_frf(A)
    assert max(comp.residuals) < 1e-10


def test_hs_regression():
    comp = mi.mink_inverse_hs(A55)
    _assert_is_am55(comp.result, atol=1e-10)


def test_hs_identity():
    assert_allclose(mi.mink_inverse_hs(np.eye(4)).result, np.eye(4), atol=1e-13)


def test_hs_agrees_with_frf():
    A = existent(6, 6, 3, seed=2)
    X1 = mi.mink_inverse_hs(A).result
    X2 = mi.mink_inverse_frf(A).result
    assert np.linalg.norm(X1 - X2) / np.linalg.norm(X2) < 1e-9


def test_hs_zero_matrix():
    # the zero matrix has no HS form, but its inverse is 0, which the route returns
    for force in (False, True):
        assert np.array_equal(mi.mink_inverse_hs(np.zeros((3, 3)), force=force).result,
                              np.zeros((3, 3)))


def test_hs_not_square():
    with pytest.raises(mi.NotSquare):
        mi.mink_inverse_hs(np.ones((3, 2)))


@pytest.mark.parametrize("call", [mi.mink_inverse_zlobec, mi.mink_inverse_zlobec2])
@pytest.mark.parametrize("k, l", [(-1, 0), (0, -1)])
def test_zlobec_rejects_negative_exponents(call, k, l):
    with pytest.raises(ValueError, match="exponents must be nonnegative"):
        call(A55, k=k, l=l)


def test_zlobec_regression_grid():
    for k in range(3):
        for l in range(3):
            comp = mi.mink_inverse_zlobec(A55, k, l)
            _assert_is_am55(comp.result)


def test_zlobec_identity():
    assert_allclose(mi.mink_inverse_zlobec(np.eye(3)).result, np.eye(3), atol=1e-13)


def test_zlobec_parameter_invariance(rng):
    # W sweeps an affine family; scale it to the inverted product so the
    # exact cancellation of the W terms survives double precision
    A = existent(7, 5, 3, seed=92)
    sA = mi.sigma_max(A)
    ref = mi.mink_inverse_zlobec(A, 0, 0).result
    for k, l in [(1, 0), (2, 1), (1, 2)]:
        W = cgauss(rng, A.shape[0], A.shape[1]) / sA ** (2 * (k + l + 1) + 1)
        X = mi.mink_inverse_zlobec(A, k, l, W).result
        assert np.linalg.norm(X - ref) / np.linalg.norm(ref) < 1e-8


def test_zlobec2_recovers_split_form(rng):
    A = existent(6, 4, 2, seed=5)
    As = mi.mink_adjoint(A)
    X = mi.mink_inverse_zlobec2(A, 0, 0).result
    direct = As @ mi.moore_penrose(A @ As, scale=mi.sigma_max(A) ** 2) @ A \
        @ mi.moore_penrose(As @ A, scale=mi.sigma_max(A) ** 2) @ As
    assert np.linalg.norm(X - direct) < 1e-10 * np.linalg.norm(X)


def test_zlobec2_metric():
    G = metric(5)
    for k, l in [(0, 0), (1, 2)]:
        assert_allclose(mi.mink_inverse_zlobec2(G, k, l).result, G, atol=1e-12)


def test_zlobec2_cross_algorithm(rng):
    A = existent(7, 5, 3, seed=91)
    sA = mi.sigma_max(A)
    ref = mi.mink_inverse_frf(A).result
    W1 = cgauss(rng, 7, 7) / sA ** 4
    W2 = cgauss(rng, 5, 5) / sA ** 6
    X = mi.mink_inverse_zlobec2(A, 1, 2, W1, W2).result
    assert np.linalg.norm(X - ref) / np.linalg.norm(ref) < 1e-8


def test_group_diagonal():
    A = np.diag([2.0, 3.0])
    assert_allclose(mi.mink_inverse_group(A).result, np.diag([0.5, 1 / 3]), atol=1e-13)


def test_group_regression():
    comp = mi.mink_inverse_group(A55)
    _assert_is_am55(comp.result, atol=1e-10)


def test_group_matches_mink_inverse():
    A = existent(6, 5, 4, seed=4)
    X, ref = mi.mink_inverse_group(A).result, mi.mink_inverse(A)
    assert np.linalg.norm(X - ref) <= 1e-9 * np.linalg.norm(ref)


def test_group_refuses_by_its_dual_form_near_the_light_cone():
    # A~ (AA~)# is the route's only test of the index of AA~: without it,
    # (A~A)# A~ alone returns an X that fails the defining equations here
    with pytest.raises(mi.MinkinvError, match="^internal inconsistency: dual group forms differ by "):
        mi.mink_inverse_group(mi.mink_adjoint(light_cone(1e-7)))
    with pytest.raises(mi.IndexNotOne):
        mi.mink_inverse_group(mi.mink_adjoint(light_cone(1e-8)))


def test_resolvent_identity():
    assert_allclose(mi.mink_inverse_resolvent(np.eye(4)).result, np.eye(4), atol=1e-13)


def test_resolvent_regression():
    comp = mi.mink_inverse_resolvent(A55)
    _assert_is_am55(comp.result, atol=1e-10)


def test_resolvent_w_invariance(rng):
    A = existent(6, 4, 2, seed=5)
    ref = mi.mink_inverse_frf(A).result
    for _ in range(5):
        W = cgauss(rng, 4, 6)
        X = mi.mink_inverse_resolvent(A, W).result
        assert np.linalg.norm(X - ref) / np.linalg.norm(ref) < 1e-8


def test_block_nonsingular(rng):
    A = cgauss(rng, 4, 4) + 2 * np.eye(4)
    X = mi.mink_inverse_block(A, 4).result
    assert np.linalg.norm(X - np.linalg.inv(A)) / np.linalg.norm(X) < 1e-10


def test_block_generated():
    A = block_existent(6, 5, 3, seed=6)
    X = mi.mink_inverse_block(A, 3).result
    ref = mi.mink_inverse_frf(A).result
    assert np.linalg.norm(X - ref) / np.linalg.norm(ref) < 1e-9


def test_block_ones_two_by_two():
    A = np.ones((2, 2), dtype=complex)
    d = mi.diagnose_existence(A)
    if d.exists:
        X = mi.mink_inverse_block(A, 1).result
        ref = mi.mink_inverse_frf(A).result
        assert np.linalg.norm(X - ref) < 1e-10
    else:
        with pytest.raises(mi.NotExistent):
            mi.mink_inverse_block(A, 1)


def test_block_errors():
    A = block_existent(6, 5, 3, seed=6)
    with pytest.raises(mi.RankMismatch):
        mi.mink_inverse_block(A, 2)
    for r in (0, 6):
        with pytest.raises(mi.RankMismatch, match=f"r must be within 1..5, got {r}"):
            mi.mink_inverse_block(A, r)
    B = np.zeros((3, 3), dtype=complex)  # rank 2 with singular leading 2x2
    B[0, 2] = 1.0
    B[2, 0] = 1.0
    with pytest.raises(mi.BlockSingular):
        mi.mink_inverse_block(B, 2)


def test_all_algorithms_refuse_nonexistent():
    for thunk in [
        lambda: mi.mink_inverse_frf(A52),
        lambda: mi.mink_inverse_zlobec(A52),
        lambda: mi.mink_inverse_zlobec2(A52),
        lambda: mi.mink_inverse_group(A52),
        lambda: mi.mink_inverse_resolvent(A52),
    ]:
        with pytest.raises(mi.NotExistent):
            thunk()


def test_forced_frf_fails_checks():
    comp = mi.mink_inverse_frf(A52, force=True)
    assert max(comp.residuals) > 1e-3
    assert not mi.check_candidate(A52, comp.result).verdict


# ---------------------------------------------------------------------------
# {1,3m} / {1,4m} families
# ---------------------------------------------------------------------------

def test_one_three_m_identity():
    assert_allclose(mi.one_three_m(np.eye(3)), np.eye(3), atol=1e-13)


def test_one_three_m_projector_property():
    X = mi.one_three_m(A55)
    Am = mi.mink_inverse(A55)
    assert np.linalg.norm(A55 @ X - A55 @ Am) < 1e-10


def test_one_three_m_family_residuals(rng):
    A = existent(6, 4, 2, seed=7)
    As = mi.mink_adjoint(A)
    Y = cgauss(rng, 4, 6)
    X = mi.one_three_m(A, Y)
    assert np.linalg.norm(A @ X @ A - A) < 1e-10
    AX = A @ X
    assert np.linalg.norm(mi.mink_adjoint(AX) - AX) < 1e-9
    assert np.linalg.norm(As @ A @ X - As) < 1e-9
    # generic members violate equation (4m)
    XA = X @ A
    assert np.linalg.norm(mi.mink_adjoint(XA) - XA) > 1e-3


def test_one_four_m_trivials():
    assert_allclose(mi.one_four_m(np.eye(3)), np.eye(3), atol=1e-13)
    G = metric(4)
    assert_allclose(mi.one_four_m(G), G, atol=1e-13)


def test_one_four_m_residuals(rng):
    A = existent(5, 6, 3, seed=8)
    As = mi.mink_adjoint(A)
    Z = cgauss(rng, 6, 5)
    X = mi.one_four_m(A, Z)
    assert np.linalg.norm(A @ X @ A - A) < 1e-10
    assert np.linalg.norm(X @ A @ As - As) < 1e-9
    XA = X @ A
    assert np.linalg.norm(mi.mink_adjoint(XA) - XA) < 1e-9


def test_family_nonexistence_errors():
    A = isotropic(4, 3, seed=9)
    with pytest.raises(mi.NotExistent13m):
        mi.one_three_m(A)
    As = mi.mink_adjoint(A)  # AA~ = 0 for the adjoint of an isotropic matrix
    with pytest.raises(mi.NotExistent14m):
        mi.one_four_m(As)


def test_compose_trivials():
    Am = mi.mink_inverse(A55)
    assert np.linalg.norm(mi.compose_13m_14m(A55, Am, Am) - Am) < 1e-10
    assert_allclose(mi.compose_13m_14m(np.eye(3), np.eye(3), np.eye(3)), np.eye(3), atol=1e-14)


def test_compose_random_members(rng):
    A = existent(6, 6, 3, seed=9)
    ref = mi.mink_inverse_frf(A).result
    Y = cgauss(rng, 6, 6)
    Z = cgauss(rng, 6, 6)
    X = mi.compose_13m_14m(A, mi.one_three_m(A, Y), mi.one_four_m(A, Z))
    assert np.linalg.norm(X - ref) / np.linalg.norm(ref) < 1e-8


def test_compose_rejects_bad_witness(rng):
    A = existent(5, 4, 2, seed=10)
    bad = cgauss(rng, 4, 5)
    with pytest.raises(mi.InvalidWitness):
        mi.compose_13m_14m(A, bad, mi.one_four_m(A))


@pytest.mark.parametrize("which", ["X13", "X14"])
def test_compose_rejects_a_witness_of_the_wrong_shape(which):
    A = existent(5, 4, 2, seed=10)
    witnesses = {"X13": mi.one_three_m(A), "X14": mi.one_four_m(A)}
    witnesses[which] = witnesses[which][:, :-1]
    with pytest.raises(mi.ShapeMismatch, match=f"^{which} must be 4x5, got \\(4, 4\\)$"):
        mi.compose_13m_14m(A, witnesses["X13"], witnesses["X14"])


# ---------------------------------------------------------------------------
# witness constructions
# ---------------------------------------------------------------------------

def test_factorization_witnesses_trivials():
    X, Y = mi.factorization_witnesses(np.eye(3))
    assert_allclose(X, np.eye(3), atol=1e-13)
    assert_allclose(Y, np.eye(3), atol=1e-13)
    G = metric(4)
    X, Y = mi.factorization_witnesses(G)
    assert_allclose(mi.mink_adjoint(X @ G), G, atol=1e-13)


def test_factorization_witnesses_generated():
    A = existent(6, 5, 3, seed=10)
    ref = mi.mink_inverse_frf(A).result
    X, Y = mi.factorization_witnesses(A)
    As = mi.mink_adjoint(A)
    assert np.linalg.norm(X @ A @ As @ A - A) < 1e-9
    assert np.linalg.norm(A @ As @ A @ Y - A) < 1e-9
    assert np.linalg.norm(mi.mink_adjoint(X @ A) - ref) / np.linalg.norm(ref) < 1e-8
    assert np.linalg.norm(mi.mink_adjoint(A @ Y) - ref) / np.linalg.norm(ref) < 1e-8


@pytest.mark.parametrize("j", [-332, -27, 27, 332])
def test_factorization_witnesses_power_of_two_covariant(j):
    # built on the normalized 2^-e A and scaled back by 2^-2e, so both scale by 2^-2j exactly
    X0, Y0 = mi.factorization_witnesses(A55)
    X, Y = mi.factorization_witnesses(2.0 ** j * A55)
    assert X.tobytes() == scale_pow2(X0, -2 * j).tobytes()
    assert Y.tobytes() == scale_pow2(Y0, -2 * j).tobytes()


@pytest.mark.parametrize("k", [-150, -110, 110, 150])
def test_factorization_witnesses_at_every_scale(k):
    # AA~A of the raw A under- or overflows at these scales; that of 2^-e A does not
    A = 10.0 ** k * A55
    X, Y = mi.factorization_witnesses(A)
    ref = mi.mink_inverse(A)
    for W in (X @ A, A @ Y):
        assert np.linalg.norm(mi.mink_adjoint(W) - ref) <= 1e-12 * np.linalg.norm(ref)


def test_sylvester_witnesses_identity():
    X, Y = mi.sylvester_witnesses(np.eye(4))
    assert_allclose(X, np.eye(4), atol=1e-13)
    assert_allclose(Y, np.zeros((4, 4)), atol=1e-13)


def test_sylvester_witnesses_metric():
    G = metric(3)
    X, Y = mi.sylvester_witnesses(G)
    assert_allclose(mi.mink_adjoint(G) @ X, G, atol=1e-13)


def test_sylvester_witnesses_identities():
    A = existent(6, 4, 2, seed=11)
    As = mi.mink_adjoint(A)
    X, Y = mi.sylvester_witnesses(A)
    m = A.shape[0]
    assert np.linalg.norm(X @ A @ As - Y @ X - np.eye(m)) < 1e-9
    assert np.linalg.norm(A @ As @ X - X @ A @ As) < 1e-9
    assert np.linalg.norm(A @ As @ Y) < 1e-9
    assert np.linalg.norm(Y @ Y - Y) < 1e-9
    ref = mi.mink_inverse_frf(A).result
    assert np.linalg.norm(As @ X - ref) / np.linalg.norm(ref) < 1e-8


def test_sylvester_witnesses_lapack_counts(monkeypatch):
    # the gate's SVD, which also gives A^m, and the rank of Q'; Q'^-1
    assert lapack_counts(monkeypatch, mi.sylvester_witnesses, A55) == {
        "svd": 2, "inv": 1, "solve": 0, "eigvalsh": 0, "qr": 0}


def _sylvester_parts(A):
    """(e, P Q'^-1, Y) of sylvester_witnesses on the normalized 2^-e A."""
    f = mi.minkowski._factor(A, mi.DEFAULT_TOL)
    Z, Y = mi.minkowski._sylvester(f, mi.minkowski._inverse_of(f))
    return f.exp, Z, Y


@pytest.mark.parametrize("j", [-332, -27, 27, 332])
def test_sylvester_witnesses_power_of_two_covariant(j):
    # X = 2^-2e P Q'^-1 - Y: the |A|^-2 part scales by 2^-2j exactly and Y not at all;
    # for j > 0 rounding takes that part away, and the check of A~X = A^m names X
    if j > 0:
        with pytest.raises(mi.MinkinvError, match="witness X"):
            mi.sylvester_witnesses(2.0 ** j * A55)
        return
    e, Z, Y0 = _sylvester_parts(A55)
    X, Y = mi.sylvester_witnesses(2.0 ** j * A55)
    assert Y.tobytes() == Y0.tobytes()
    assert X.tobytes() == (scale_pow2(Z, -2 * (e + j)) - Y0).tobytes()


@pytest.mark.parametrize("k", [-100, -8, 8, 100])
def test_sylvester_witnesses_at_every_scale(k):
    # Q = AA~ + I - AA^m mixes |A|^2 with 1; it used to be ranked unnormalized and raise Singular.
    # For |A| > 1, X = 2^-2e P Q'^-1 - Y rounds its |A|^-2 part away, so it is refused
    A = 10.0 ** k * A55
    if k > 0:
        with pytest.raises(mi.MinkinvError, match="witness X"):
            mi.sylvester_witnesses(A)
        return
    X, Y = mi.sylvester_witnesses(A)
    e, Z, Yn = _sylvester_parts(A)
    assert Y.tobytes() == Yn.tobytes()
    assert X.tobytes() == (scale_pow2(Z, -2 * e) - Y).tobytes()
    # X itself rounds one of its two parts away; the identities hold on the normalized pair
    An = scale_pow2(A, -e)
    Xn = Z - Y
    AAs = An @ mi.mink_adjoint(An)
    g = max(1.0, np.linalg.norm(Xn))
    assert np.linalg.norm(Xn @ AAs - Y @ Xn - np.eye(5)) < 1e-9 * g
    assert np.linalg.norm(AAs @ Xn - Xn @ AAs) < 1e-9 * g
    assert np.linalg.norm(AAs @ Y) < 1e-9
    assert np.linalg.norm(Y @ Y - Y) < 1e-9
    ref = mi.mink_inverse(An)
    assert np.linalg.norm(mi.mink_adjoint(An) @ Xn - ref) < 1e-9 * np.linalg.norm(ref)


@pytest.mark.parametrize("k", [-200, -160, -110, -104, 104, 110, 160, 200])
def test_witnesses_are_right_or_refused_beyond_the_double_range(k):
    # the witnesses scale as |A|^-2 (D as |A|^-3): where they leave the double
    # range, MinkinvError names them instead of returning zeros, infs or NaNs
    A = 10.0 ** k * A55
    As = mi.mink_adjoint(A)
    ref = mi.mink_inverse(A)
    identities = {
        mi.bjerhammar_witnesses: lambda B, C, D: [As @ B, C @ As, As @ D @ As],
        mi.factorization_witnesses: lambda X, Y: [mi.mink_adjoint(X @ A), mi.mink_adjoint(A @ Y)],
        mi.sylvester_witnesses: lambda X, Y: [As @ X],
    }
    for call, recovered in identities.items():
        with np.errstate(all="ignore"):
            try:
                witnesses = call(A)
            except mi.MinkinvError:
                continue
        assert all(np.all(np.isfinite(W)) for W in witnesses), call.__name__
        for W in recovered(*witnesses):
            assert np.linalg.norm(W - ref) <= 1e-12 * np.linalg.norm(ref), call.__name__


# ---------------------------------------------------------------------------
# decision procedure and Bjerhammar witnesses
# ---------------------------------------------------------------------------

def test_moore_style_accepts_inverse():
    assert mi.moore_style_check(A55, AM55).is_inverse


def test_moore_style_rejects_counterexample():
    rep = mi.moore_style_check(A55, X55)
    assert not rep.is_inverse
    assert not rep.range_within_adjoint_range
    assert rep.annihilates_adjoint_nullspace


def test_moore_style_rejects_moore_penrose():
    A = existent(6, 4, 2, seed=12)
    Am = mi.mink_inverse(A)
    Ad = mi.moore_penrose(A)
    assert np.linalg.norm(Am - Ad) > 1e-3  # genuinely different on this instance
    assert not mi.moore_style_check(A, Ad).is_inverse
    assert mi.moore_style_check(A, Am).is_inverse


def test_bjerhammar_trivial():
    B, C, D = mi.bjerhammar_witnesses(np.eye(3))
    for W in (B, C, D):
        assert_allclose(W, np.eye(3), atol=1e-13)


def test_bjerhammar_regression():
    B, C, D = mi.bjerhammar_witnesses(A55)
    As = mi.mink_adjoint(A55)
    assert np.max(np.abs(As @ B - AM55)) < 1e-10
    assert np.max(np.abs(C @ As - AM55)) < 1e-10
    assert np.max(np.abs(As @ D @ As - AM55)) < 1e-10


def test_bjerhammar_parameter_invariance(rng):
    A = existent(5, 4, 2, seed=12)
    As = mi.mink_adjoint(A)
    ref = mi.mink_inverse(A)
    for _ in range(3):
        Y = cgauss(rng, 5, 5)
        Z = cgauss(rng, 4, 4)
        B, C, D = mi.bjerhammar_witnesses(A, Y, Z)
        assert np.linalg.norm(As @ B - ref) < 1e-9 * max(1, np.linalg.norm(ref))
        assert np.linalg.norm(C @ As - ref) < 1e-9 * max(1, np.linalg.norm(ref))
        assert np.linalg.norm(As @ D @ As - ref) < 1e-9 * max(1, np.linalg.norm(ref))


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------

def test_scaling_covariance():
    A = existent(6, 5, 3, seed=13)
    Am = mi.mink_inverse(A)
    for c in (2.0, -1.0, 1j, 1e3, 1e-3):
        X = mi.mink_inverse(c * A)
        assert np.linalg.norm(X - Am / c) / np.linalg.norm(Am / c) < 1e-9


@pytest.mark.parametrize("k", (-100, -8, 8, 100))
def test_direct_algorithms_scale_covariance(k):
    # every algorithm runs on the matrix its gate normalized, so direct calls
    # far from unit scale neither overflow nor misjudge a rank
    c = 10.0 ** k * np.exp(0.37j * k)
    A = c * A55
    want = AM55 / c
    results = {
        "frf": mi.mink_inverse_frf(A).result,
        "hs": mi.mink_inverse_hs(A).result,
        "zlobec": mi.mink_inverse_zlobec(A).result,
        "zlobec2": mi.mink_inverse_zlobec2(A).result,
        "group": mi.mink_inverse_group(A).result,
        "resolvent": mi.mink_inverse_resolvent(A).result,
        "block": mi.mink_inverse_block(A, 3).result,
        "compose": mi.compose_13m_14m(A, mi.one_three_m(A), mi.one_four_m(A)),
    }
    for name, X in results.items():
        assert np.linalg.norm(X - want) <= 1e-8 * np.linalg.norm(want), f"{name} at k={k}"


@pytest.mark.parametrize("k", (-100, -8, 0, 8, 100))
def test_closed_form_inverse_matches_frf(k):
    # mink_inverse inverts the two Grams in closed form, the frf route
    # forms and inverts them: two evaluations of one formula
    for seed in range(12):
        m, n = 3 + seed % 5, 2 + seed % 7
        A = existent(m, n, 1 + seed % min(m, n), seed=90_000 + seed, scale=10.0 ** k)
        X = mi.mink_inverse(A)
        assert np.linalg.norm(X - mi.mink_inverse_frf(A).result) <= 1e-8 * np.linalg.norm(X)


def test_adjoint_commutation():
    A = existent(6, 5, 3, seed=14)
    lhs = mi.mink_inverse(mi.mink_adjoint(A))
    rhs = mi.mink_adjoint(mi.mink_inverse(A))
    assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-9


def test_index_facts_on_existent():
    A = existent(7, 6, 4, seed=15)
    s2 = mi.sigma_max(A) ** 2
    As = mi.mink_adjoint(A)
    assert mi.index_of(A @ As, scale=s2) <= 1
    assert mi.index_of(As @ A, scale=s2) <= 1


def _arrays_held(value):
    """The ndarrays a frame local holds directly or as dataclass fields."""
    if isinstance(value, np.ndarray):
        return [value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return [a for a in (getattr(value, f.name) for f in dataclasses.fields(value))
                if isinstance(a, np.ndarray)]
    return []


def test_refusal_traceback_pins_no_large_arrays():
    # a caller that keeps the refusal keeps every frame of its traceback alive
    A = isotropic(64, 64, seed=3)
    with pytest.raises(mi.NotExistent) as info:
        mi.mink_inverse(A)
    pinned = 0
    tb = info.value.__traceback__
    while tb is not None:
        for value in tb.tb_frame.f_locals.values():
            pinned += sum(a.nbytes for a in _arrays_held(value) if a is not A)
        tb = tb.tb_next
    assert pinned < A.nbytes / 4


@pytest.mark.parametrize("A", [
    existent(9, 5, 3, seed=21),                     # tall, rank-deficient
    existent(4, 9, 4, seed=22),                     # wide, full row rank
    existent(8, 8, 5, seed=23, scale=1e-100),       # square, rank-deficient
    cgauss(np.random.default_rng(24), 7, 3),        # tall, full column rank
    isotropic(6, 4, seed=25),                       # rank 1, no inverse
])
def test_factor_pseudoinverses_match_moore_penrose(A):
    # A+ = C* Sigma^-2 B*, B+ = Sigma^-2 B* and C+ = C* of 2^-e A = B C, and A+ A = C* C
    f = mi.minkowski._factor(mi.as_matrix(A), mi.DEFAULT_TOL)
    An = scale_pow2(A, -f.exp)
    for closed, ref in [(f.pinv_A, mi.moore_penrose(An)), (f.pinv_B, mi.moore_penrose(f.B)),
                        (f.C.conj().T, mi.moore_penrose(f.C)),
                        (f.C.conj().T @ f.C, mi.moore_penrose(An) @ An)]:
        assert mi.fro(closed - ref) <= mi.DEFAULT_TOL.eq_bound(mi.fro(ref))


def test_zero_matrix_inverse():
    Z = np.zeros((3, 4), dtype=complex)
    assert mi.diagnose_existence(Z).exists
    assert_allclose(mi.mink_inverse(Z), np.zeros((4, 3)))


ZERO_SHAPES = [(1, 1), (3, 4), (4, 3), (4, 4)]


def _zero_results(A):
    """(call, X) of every public route to A^m on the zero matrix A, plain and forced."""
    routes = {"frf": mi.mink_inverse_frf, "zlobec": mi.mink_inverse_zlobec,
              "zlobec2": mi.mink_inverse_zlobec2, "group": mi.mink_inverse_group,
              "resolvent": mi.mink_inverse_resolvent}
    if A.shape[0] == A.shape[1]:
        routes["hs"] = mi.mink_inverse_hs
    for name, call in routes.items():
        for force in (False, True):
            yield f"{name} force={force}", call(A, force=force).result
    yield "mink_inverse", mi.mink_inverse(A)
    yield "compose", mi.compose_13m_14m(A, mi.one_three_m(A), mi.one_four_m(A))


@pytest.mark.parametrize("shape", ZERO_SHAPES)
def test_rank_0_inverse_is_zero_on_every_route(shape):
    # the zero matrix's inverse is 0, and every route returns it without running its core
    A = np.zeros(shape)
    for name, X in _zero_results(A):
        assert X.shape == shape[::-1] and not np.any(X), name
        assert mi.check_candidate(A, X).verdict, name


@pytest.mark.parametrize("call, name", [
    (mi.mink_inverse_zlobec, "W"), (mi.mink_inverse_zlobec2, "W1"),
    (mi.mink_inverse_zlobec2, "W2"), (mi.mink_inverse_resolvent, "W"),
])
def test_rank_0_still_checks_the_free_parameters(call, name):
    # no core reads them at rank 0, but a misshapen one is refused at every rank
    for A in (np.zeros((3, 4)), A55):
        with pytest.raises(mi.ShapeMismatch, match=f"^{name} must be"):
            call(A, **{name: np.ones((2, 2))})


@pytest.mark.parametrize("shape", ZERO_SHAPES)
def test_rank_0_members_are_their_parameters(shape):
    # rank(A~A) = rank(A) = 0 holds: the base members are 0, and X = 0 + (I - 0 A) Y = Y
    A = np.zeros(shape)
    rng = np.random.default_rng(shape[0] * 10 + shape[1])
    Y, Z = cgauss(rng, *shape[::-1]), cgauss(rng, *shape[::-1])
    assert not np.any(mi.one_three_m(A)) and not np.any(mi.one_four_m(A))
    assert np.array_equal(mi.one_three_m(A, Y), Y)
    assert np.array_equal(mi.one_four_m(A, Z), Z)


@pytest.mark.parametrize("shape", ZERO_SHAPES)
def test_rank_0_factorizations_and_block_still_refuse(shape):
    A = np.zeros(shape)
    with pytest.raises(mi.ZeroMatrix):
        mi.full_rank_factorization(A)
    if shape[0] == shape[1]:
        with pytest.raises(mi.ZeroMatrix):
            mi.hs_decomposition(A)
    with pytest.raises(mi.RankMismatch, match="r must be within"):
        mi.mink_inverse_block(A, 0)
    with pytest.raises(mi.RankMismatch, match="does not match the requested r=1"):
        mi.mink_inverse_block(A, 1)


def test_projector_adjoint_swap(rng):
    # ~-adjoint of the oblique projector equals the swapped-argument projector
    for _ in range(10):
        n = int(rng.integers(3, 8))
        r = int(rng.integers(1, n))
        A = cgauss(rng, n, r)
        B = cgauss(rng, r, n)
        if mi.rank_of(B @ A) != r:
            continue
        P = mi.projector_onto_along(A, B)
        Q = mi.projector_onto_along(mi.mink_adjoint(B), mi.mink_adjoint(A))
        assert np.linalg.norm(mi.mink_adjoint(P) - Q) < 1e-9 * max(1, np.linalg.norm(Q))
