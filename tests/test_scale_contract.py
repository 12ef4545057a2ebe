"""Right or raise at every scale, for every export that returns matrices.

Each row recovers A^m from what its export returns on A, by the export's own
identity.  On ``existent_5x5() * 10^k`` and on its Minkowski adjoint, over the
whole double range, every recovered matrix must equal ``mink_inverse(A)``
within 1e-8 relative, or the export must raise MinkinvError; at unit scale it
must not raise.  At the ends of the range, on ``existent_5x5() * 2^j``, the
reference is the exact ``2^-j mink_inverse(existent_5x5())``, and where A^m
lies more than a factor of two beyond the largest double every export must
raise.  The names come
from ``__all__``, so a new export fails this module until it gets a row here
or a commented entry in ``EXEMPT``.

The exports of ``dense_core`` do not return A^m.  Each of their rows in
``COVARIANT`` states how its values scale with its input, and at every scale
they must equal the unit-scale values scaled alike, or raise MinkinvError
itself: a subclass there (IndexNotOne, RankMismatch, Inconsistent, ...) is a
false verdict on a matrix that has the property.
"""

import numpy as np
import pytest

import minkinv as mi
from minkinv import dense_core, errors, fixtures, minkowski, solvers
from minkinv.dense_core import pow2_exponent, scale_pow2
from conftest import existent

A55 = fixtures.existent_5x5()
SCALES = [0, 4, -4, 8, -8, 16, -16, 100, -100, 154, -154, 200, -200]
POW2 = [1000, -1000, 1023, -1023, -1070]     # 2^-1070 A is subnormal


def _frf_inverse(A, Am):
    """C~ (CC~)^-1 (B~B)^-1 B~ of the returned A = B C, with B normalized by its power of two."""
    F = mi.full_rank_factorization(A)
    b = pow2_exponent(F.B)
    B = scale_pow2(F.B, -b)
    Bs, Cs = mi.mink_adjoint(B), mi.mink_adjoint(F.C)
    X = Cs @ np.linalg.inv(F.C @ Cs) @ np.linalg.inv(Bs @ B) @ Bs
    return [scale_pow2(X, -b)]


def _hs_inverse(A, Am):
    """G U [[K* (G1 Sigma Delta)^-1, 0], [L* (G1 Sigma Delta)^-1, 0]] U* G of the returned HS form."""
    H = mi.hs_decomposition(A)
    r, U = H.r, H.U
    UGU = U.conj().T @ minkowski.apply_metric_left(U)
    KL = np.hstack([H.K, H.L])
    core = np.linalg.inv(UGU[:r, :r] @ np.diag(H.sigma) @ KL @ UGU @ KL.conj().T)
    blk = np.zeros(U.shape, dtype=np.complex128)
    blk[:, :r] = KL.conj().T @ core
    return [minkowski.apply_metric_left(U) @ blk @ minkowski.apply_metric_right(U.conj().T)]


def _pinv(A):
    """moore_penrose(A) taken on 2^-e A, so that no singular value of A overflows."""
    e = pow2_exponent(A)
    return scale_pow2(mi.moore_penrose(scale_pow2(A, -e)), -e)


def _witnesses(call, recover):
    return lambda A, Am: recover(A, *call(A))


_adj = mi.mink_adjoint


# export -> recover(A, Am): the matrices that must equal Am = mink_inverse(A)
RECOVER = {
    "mink_inverse": lambda A, Am: [mi.mink_inverse(A)],
    "mink_inverse_frf": lambda A, Am: [mi.mink_inverse_frf(A).result],
    "mink_inverse_hs": lambda A, Am: [mi.mink_inverse_hs(A).result],
    "mink_inverse_zlobec": lambda A, Am: [mi.mink_inverse_zlobec(A).result],
    "mink_inverse_zlobec2": lambda A, Am: [mi.mink_inverse_zlobec2(A).result],
    "mink_inverse_group": lambda A, Am: [mi.mink_inverse_group(A).result],
    "mink_inverse_resolvent": lambda A, Am: [mi.mink_inverse_resolvent(A).result],
    "mink_inverse_block": lambda A, Am: [mi.mink_inverse_block(A, 3).result],
    # A X13 and X14 A are the projectors A A^m and A^m A for every family member
    "one_three_m": lambda A, Am: [Am @ (A @ mi.one_three_m(A))],
    "one_four_m": lambda A, Am: [(mi.one_four_m(A) @ A) @ Am],
    "compose_13m_14m": lambda A, Am: [mi.compose_13m_14m(A, mi.one_three_m(A), mi.one_four_m(A))],
    "factorization_witnesses": _witnesses(mi.factorization_witnesses,
                                          lambda A, X, Y: [_adj(X @ A), _adj(A @ Y)]),
    "sylvester_witnesses": _witnesses(mi.sylvester_witnesses, lambda A, X, Y: [_adj(A) @ X]),
    "bjerhammar_witnesses": _witnesses(
        mi.bjerhammar_witnesses, lambda A, B, C, D: [_adj(A) @ B, C @ _adj(A), _adj(A) @ D @ _adj(A)]),
    "full_rank_factorization": _frf_inverse,
    "hs_decomposition": _hs_inverse,
    # A^m is a {1}-inverse, so WA = WB = A^m samples A1 = B1 = A^m, and A1 A B1 = A^m;
    # it is taken from mink_inverse, which raises where A^m leaves the double range
    "solve_axb_d": lambda A, Am: [mi.solve_axb_d(A, A, A, WA=mi.mink_inverse(A),
                                                 WB=mi.mink_inverse(A)).particular],
    "solve_xay_b": _witnesses(lambda A: mi.solve_xay_b(A, mi.mink_inverse(A), np.eye(3)),
                              lambda A, X, Y: [(X @ A) @ Y]),
    "rank_equation_solve": lambda A, Am: [mi.rank_equation_solve(
        mi.RankEquationInstance(A, *mi.bc_parameterization(A)))],
    "mink_rank_characterization": lambda A, Am: [mi.mink_rank_characterization(A)[2]],
    # the unique solution C A+ B of the rank equation, in an order whose products stay in range
    "bc_parameterization": _witnesses(mi.bc_parameterization,
                                      lambda A, B, C: [(C @ _pinv(A)) @ B]),
}

# exports without a row, and why
EXEMPT = {
    # sign flips of the input: exact at every scale (test_minkowski)
    "metric_signs", "apply_metric_left", "apply_metric_right", "mink_adjoint",
    # verdicts and residuals, not matrices; their scale tests live with their modules
    "diagnose_existence", "moore_style_check", "defining_residuals",
    # result and input types
    "ExistenceDiagnosis", "InverseComputation", "MooreStyleReport",
    "RankEquationInstance", "GeneralSolution",
}


def _rel_err(W, ref):
    """||W - ref|| / ||ref||, taken on W / max|ref| so that no norm overflows."""
    s = np.abs(ref).max()
    return np.linalg.norm((W - ref) / s) / np.linalg.norm(ref / s)


def _core_exports():
    """The names of the ``minkinv`` namespace that ``dense_core`` defines."""
    return {name for name, v in vars(mi).items()
            if not name.startswith("_") and vars(dense_core).get(name) is v} - set(vars(errors))


def test_every_export_has_a_row_or_an_exemption():
    exports = set(minkowski.__all__) | set(solvers.__all__)
    assert exports == set(RECOVER) | EXEMPT
    assert not set(RECOVER) & EXEMPT
    assert FORMS_AM <= set(RECOVER)
    core = _core_exports()
    assert core == set(COVARIANT) - exports | CORE_EXEMPT
    assert not set(COVARIANT) & CORE_EXEMPT


@pytest.mark.parametrize("name", sorted(RECOVER))
def test_right_or_raise_at_every_scale(name):
    wrong = []
    for base, label in ((A55, "A"), (mi.mink_adjoint(A55), "A~")):
        for k in SCALES:
            A = 10.0 ** k * base
            Am = mi.mink_inverse(A)
            with np.errstate(all="ignore"):
                try:
                    recovered = RECOVER[name](A, Am)
                except mi.MinkinvError:
                    if k == 0:
                        raise
                    continue
                errs = [_rel_err(W, Am) for W in recovered]
            if not all(e <= 1e-8 for e in errs):
                wrong.append((label, k, max(errs)))
    assert not wrong, wrong


# rows that form A^m themselves, from the matrices their export returns
FORMS_AM = {"one_three_m", "one_four_m", "factorization_witnesses", "sylvester_witnesses",
            "bjerhammar_witnesses", "full_rank_factorization", "hs_decomposition",
            "solve_xay_b", "bc_parameterization"}


@pytest.mark.parametrize("name", sorted(RECOVER))
def test_right_or_raise_at_the_range_ends(name):
    # Each recovered W is compared as 2^j W with A0^m = mink_inverse(base).  At j = -1023 the
    # largest entry of A^m = 2^1023 A0^m is 2^1024, one rounding past the largest double: an
    # export may still return in-range results there while a row of FORMS_AM overflows in
    # forming A^m, so where A^m overflows by less than a factor of two such a row's non-finite
    # recovery is not compared.  Every other row recovers what its export returns, which must
    # be finite and right there.  Beyond that factor every row must raise.
    wrong = []
    for base, label in ((A55, "A"), (mi.mink_adjoint(A55), "A~")):
        A0m = mi.mink_inverse(base)
        for j in POW2:
            A = 2.0 ** j * base
            with np.errstate(all="ignore"):
                Am = scale_pow2(A0m, -j)
                edge = not np.isfinite(Am).all() and np.isfinite(scale_pow2(A0m, -j - 1)).all()
                try:
                    recovered = RECOVER[name](A, Am)
                except mi.MinkinvError:
                    continue
                errs = [_rel_err(scale_pow2(W, j), A0m) for W in recovered
                        if np.isfinite(W).all() or not (edge and name in FORMS_AM)]
            if not all(e <= 1e-8 for e in errs):
                wrong.append((label, j, max(errs)))
    assert not wrong, wrong


_ROUTES = {
    "mink_inverse": mi.mink_inverse,
    "mink_inverse_frf": mi.mink_inverse_frf,
    "mink_inverse_hs": mi.mink_inverse_hs,
    "mink_inverse_zlobec": mi.mink_inverse_zlobec,
    "mink_inverse_zlobec2": mi.mink_inverse_zlobec2,
    "mink_inverse_group": mi.mink_inverse_group,
    "mink_inverse_resolvent": mi.mink_inverse_resolvent,
    "mink_inverse_block": lambda A: mi.mink_inverse_block(A, 3),
    "one_three_m": mi.one_three_m,
    "one_four_m": mi.one_four_m,
}


@pytest.mark.parametrize("name", sorted(_ROUTES))
def test_subnormal_input_raises_naming_the_result(name):
    # A^m of existent_5x5() * 2^-1070 is about 2^1070: it used to come back as inf
    with pytest.raises(mi.MinkinvError, match="lies outside the double range at this scale of A$"):
        _ROUTES[name](2.0 ** -1070 * A55)


@pytest.mark.parametrize("j", [0, *POW2])
def test_cross_check_never_passes_a_non_finite_result(j):
    for base in (A55, mi.mink_adjoint(A55)):
        report = mi.cross_check(2.0 ** j * base)
        finite = all(np.isfinite(o.result).all() for o in report.outcomes if o.result is not None)
        assert finite or not report.verdict
        if j == -1070:                # every result overflows: each route fails, naming it
            assert not report.verdict
            assert {o.status for o in report.outcomes} == {"failed"}


# export -> (d, values(M, W)): values(c M, W / c) = c^d values(M, W) for every c > 0.  M is a
# square index-one matrix and W a parameter that scales like an inverse of M.
COVARIANT = {
    "numerical_rank": (0, lambda M, W: [mi.numerical_rank(M).rank]),
    "rank_of": (0, lambda M, W: [mi.rank_of(M)]),
    "index_of": (0, lambda M, W: [mi.index_of(M)]),
    "moore_penrose": (-1, lambda M, W: [mi.moore_penrose(M)]),
    "one_inverse_sample": (-1, lambda M, W: [mi.one_inverse_sample(M), mi.one_inverse_sample(M, W)]),
    "group_inverse": (-1, lambda M, W: [mi.group_inverse(M)]),
    "projector_onto_along": (0, lambda M, W: [mi.projector_onto_along(M, mi.mink_adjoint(M))]),
    # with the default WA = WB = None the particular solution of M X M = M is M+
    "solve_axb_d": (-1, lambda M, W: [mi.solve_axb_d(M, M, M).particular]),
}

# dense_core names without a row, and why
CORE_EXEMPT = {
    # constants and result types
    "EPS", "DEFAULT_TOL", "Tolerance", "RankReport", "FullRankFactorization", "HSDecomposition",
    # the input validator: returns its input
    "as_matrix",
    # scalars and a verdict on the caller's matrices, taken without normalizing them
    "fro", "sigma_max", "mats_close",
}

G55 = mi.mink_adjoint(A55) @ A55
G55 = scale_pow2(G55, -pow2_exponent(G55))     # largest entry in [1/2, 1), so 2^1023 G55 is finite
W55 = np.full(G55.shape, 2.0 ** -8)             # 2^1060 W55 is finite
CORE_POW2 = [0, 600, -600, 1000, -1000, 1023, -1060]


def _agree(got, ref, back):
    """Whether integers equal their reference, and each matrix back(W) its reference within 1e-8."""
    return all(g == r if np.isscalar(r) else _rel_err(back(g), r) <= 1e-8
               for g, r in zip(got, ref))


@pytest.mark.parametrize("name", sorted(COVARIANT))
def test_core_export_right_or_raise_at_the_range_ends(name):
    # The reference at 2^j M is the unit-scale value times 2^(d j), compared as 2^(-d j) W.
    # sigma_max of 2^1023 A55 overflows, that of 2^1023 G55 does not.
    d, values = COVARIANT[name]
    wrong = []
    for label, M in (("A", A55), ("A~A", G55)):
        ref = values(M, W55)
        for j in CORE_POW2:
            with np.errstate(all="ignore"):
                try:
                    got = values(scale_pow2(M, j), scale_pow2(W55, -j))
                except mi.MinkinvError as e:    # only the range refusal, never a false verdict
                    if j == 0 or type(e) is not mi.MinkinvError:
                        raise
                    continue
                if not _agree(got, ref, lambda W: scale_pow2(W, -d * j)):
                    wrong.append((label, j))
    assert not wrong, wrong


@pytest.mark.parametrize("name", sorted(COVARIANT))
def test_core_export_right_or_raise_on_grams_of_scaled_draws(name):
    # A~A of a draw scaled by 10^k is about c = 10^2k times that of the unit draw
    d, values = COVARIANT[name]
    wrong = []
    for seed in (1, 2, 3):
        A0 = existent(6, 5, 3, seed)
        G0 = mi.mink_adjoint(A0) @ A0
        W0 = np.full(G0.shape, 0.25)
        ref = values(G0, W0)
        for k in (100, -100):
            A = existent(6, 5, 3, seed, scale=10.0 ** k)
            c = 10.0 ** (2 * k)
            with np.errstate(all="ignore"):
                try:
                    got = values(mi.mink_adjoint(A) @ A, W0 / c)
                except mi.MinkinvError as e:
                    if type(e) is not mi.MinkinvError:
                        raise
                    continue
                if not _agree(got, ref, lambda W: W * c ** -d):
                    wrong.append((seed, k))
    assert not wrong, wrong
