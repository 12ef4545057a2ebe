"""Products ranked and inverted on their r-by-r cores, against formed products and full SVDs."""

import numpy as np
import pytest

import minkinv as mi
from minkinv import fixtures, minkowski
from minkinv.dense_core import _core_svd, _group_of_svd, as_matrix, fro, scale_pow2

from conftest import existent, isotropic
from reference_diagnosis import reference_diagnosis
from test_gate import _isotropic_2x2s, gate_corpus

TOL = mi.DEFAULT_TOL


def diagnosis_corpus(rng, reps):
    """The gate's corpus, plus exactly isotropic 6x2 inputs and zero matrices."""
    yield from gate_corpus(rng, reps)
    for M in _isotropic_2x2s():
        yield np.vstack([M, np.zeros((4, 2))])       # the columns of M, padded, stay null
    for seed in (51_112, 51_113, 51_114):             # criterion 05's instance 51112 and neighbours
        yield isotropic(6, 2, seed)
    for shape in ((1, 1), (3, 2), (2, 5)):
        yield np.zeros(shape)


def test_core_diagnosis_matches_formed_products():
    # As in the gate's test, a product rank whose deciding singular value lies
    # within a factor 4 of its cutoff is a tie: the formed product and its
    # core round the same O(eps) quantity differently.  Elsewhere the
    # criteria, the ranks and criteria_agree must be equal.
    rng = np.random.default_rng(40_404)
    checked, ties = 0, []
    for A in diagnosis_corpus(rng, reps=120):
        d = mi.diagnose_existence(A)
        ref, clearance = reference_diagnosis(A)
        if d != ref:
            assert clearance < 4.0, (A, d, ref)
            ties.append(clearance)
        checked += 1
    assert checked >= 1000
    assert len(ties) <= checked // 500, ties


def _products(A):
    """(name, M, L, R, anchor) for the products that the routes rank or invert on their cores."""
    f = minkowski._factor(as_matrix(A), TOL)
    A = scale_pow2(as_matrix(A), -f.exp)
    As = mi.mink_adjoint(A)
    Ur, Vr, s1 = f.Ur, f.Vr, f.s1
    GUr, GVr = minkowski.apply_metric_left(Ur), minkowski.apply_metric_left(Vr)
    AsA, AAs = As @ A, A @ As
    return [("A~A", AsA, GVr, Vr, s1 ** 2), ("AA~", AAs, Ur, GUr, s1 ** 2),
            ("(A~A)^2 A~", AsA @ AsA @ As, GVr, GUr, s1 ** 5),
            ("A~AA~", As @ A @ As, GVr, GUr, s1 ** 3), ("AA~A", A @ As @ A, Ur, Vr, s1 ** 3)]


@pytest.mark.parametrize("A", [fixtures.existent_5x5(), fixtures.nonexistent_5x4(),
                               existent(9, 6, 4, seed=3), existent(5, 8, 3, seed=4),
                               np.eye(4)], ids=["A55", "A52", "9x6", "5x8", "I4"])
def test_core_inverses_match_formed_products(A):
    for name, M, L, R, anchor in _products(A):
        rep, U, Vh = _core_svd(M, L, R, TOL, anchor)
        assert rep.rank == mi.rank_of(M, scale=anchor), name
        assert _core_svd(M, L, R, TOL, anchor, compute_uv=False).rank == rep.rank, name
        P = minkowski._core_pinv(M, L, R, TOL, anchor)
        Q = mi.moore_penrose(M, scale=anchor)
        assert fro(P - Q) <= 1e-10 * max(1.0, fro(Q)), name
        if M.shape[0] == M.shape[1] and name in ("A~A", "AA~"):
            X = _group_of_svd(U, rep.singular_values[:rep.rank], Vh, M.shape, TOL, anchor)
            Y = mi.group_inverse(M, scale=anchor)
            assert fro(X - Y) <= 1e-10 * max(1.0, fro(Y)), name


def test_index_two_core_raises_unless_forced():
    # group_inverse itself is pinned in test_dense_core.test_group_inverse_rejects_index_two
    N = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
    U, s, Vh = np.linalg.svd(N)
    with pytest.raises(mi.IndexNotOne):
        _group_of_svd(U[:, :1], s[:1], Vh[:1], N.shape, TOL)
    X = _group_of_svd(U[:, :1], s[:1], Vh[:1], N.shape, TOL, force=True)
    assert np.array_equal(X, np.zeros((2, 2)))      # pinv of the zero (GF)^2
