"""Tests for the remembered factorization of ``minkowski._factor``.

A call on bit-identical A (same shape, same bits, equal Tolerance) returns
the factorization of the previous call; any other A is factored afresh.  A
warm call must therefore be indistinguishable from a cold one, and no
result may share memory with the remembered factors.
"""

import dataclasses

import numpy as np
import pytest

import minkinv as mi
from minkinv import fixtures, minkowski, verify
from conftest import existent, isotropic, light_cone


def _factor(A, tol=mi.DEFAULT_TOL):
    return minkowski._factor(mi.as_matrix(A), tol)


def _cold_factor(A, tol=mi.DEFAULT_TOL):
    minkowski._forget_factor()
    return _factor(A, tol)


def _kept(f):
    """The arrays a factorization keeps: sv, B, C and, when the gate passed, Wr or Wn or both."""
    return [a for a in (f.sv, f.B, f.C, f.Wr, f.Wn) if a is not None]


def _same_factors(f, g):
    return ((f.exp, f.rank_BsB, f.rank_CCs, f.Wr is None, f.Wn is None)
            == (g.exp, g.rank_BsB, g.rank_CCs, g.Wr is None, g.Wn is None)
            and all(a.shape == b.shape and a.tobytes() == b.tobytes()
                    for a, b in zip(_kept(f), _kept(g))))


def _arrays_in(value):
    """Every ndarray in ``value``, through tuples, lists and dataclass fields."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for v in value:
            yield from _arrays_in(v)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for fld in dataclasses.fields(value):
            yield from _arrays_in(getattr(value, fld.name))


def fingerprint(value):
    """A comparable record of a result, report or exception, arrays by their bytes."""
    if isinstance(value, BaseException):
        return ("raised", type(value).__name__, str(value))
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (tuple, list)):
        return tuple(fingerprint(v) for v in value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,
                tuple(fingerprint(getattr(value, f.name)) for f in dataclasses.fields(value)))
    if isinstance(value, dict):
        return tuple(sorted((k, fingerprint(v)) for k, v in value.items()))
    if isinstance(value, float):
        return ("float", repr(value))
    return value


def entry_points(A):
    """(name, call) of every public entry point that factors A, on fixed free parameters.

    The candidate that the auditors judge and the rank that the block route
    asks for are computed here, outside the calls, so that they do not
    depend on the remembered factorization.
    """
    X = np.linalg.pinv(A)
    r = int(np.linalg.matrix_rank(A))

    def compose(A):
        return mi.compose_13m_14m(A, mi.one_three_m(A), mi.one_four_m(A))

    return [
        ("mink_inverse", mi.mink_inverse),
        ("frf", mi.mink_inverse_frf),
        ("hs", mi.mink_inverse_hs),
        ("zlobec", mi.mink_inverse_zlobec),
        ("zlobec2", mi.mink_inverse_zlobec2),
        ("group", mi.mink_inverse_group),
        ("resolvent", mi.mink_inverse_resolvent),
        ("block", lambda A: mi.mink_inverse_block(A, max(r, 1))),
        ("frf_forced", lambda A: mi.mink_inverse_frf(A, force=True)),
        ("one_three_m", mi.one_three_m),
        ("one_four_m", mi.one_four_m),
        ("compose", compose),
        ("check_candidate", lambda A: mi.check_candidate(A, X)),
        ("moore_style_check", lambda A: mi.moore_style_check(A, X)),
        ("audit_both", lambda A: verify._audit_both(A, X)),
        ("cross_check", mi.cross_check),
        ("factorization_witnesses", mi.factorization_witnesses),
        ("sylvester_witnesses", mi.sylvester_witnesses),
        ("bjerhammar_witnesses", mi.bjerhammar_witnesses),
        ("mink_rank_characterization", mi.mink_rank_characterization),
        ("bc_parameterization", mi.bc_parameterization),
    ]


def _outcome(call, A):
    try:
        return fingerprint(call(A))
    except (mi.MinkinvError, ValueError) as exc:
        return fingerprint(exc)


def cold_warm_mismatches(A):
    """Names of the entry points whose cold and warm outcomes on A differ in any byte.

    Cold runs with no remembered factorization; warm runs right after A
    was factored.
    """
    bad = []
    for name, call in entry_points(A):
        minkowski._forget_factor()
        cold = _outcome(call, A)
        _cold_factor(A)
        if _outcome(call, A) != cold:
            bad.append(name)
    return bad


@pytest.mark.parametrize("A", [
    existent(7, 5, 3, seed=41),
    existent(6, 6, 4, seed=42),
    existent(6, 6, 4, seed=42, scale=1e-100),
    existent(4, 8, 2, seed=43, scale=1e8),
    isotropic(6, 4, seed=44),
    isotropic(5, 5, seed=45),
    light_cone(1e-5),
    light_cone(1e-9),
    np.zeros((3, 4)),
])
def test_warm_calls_equal_cold_calls(A):
    assert cold_warm_mismatches(A) == []


def test_factor_memo_hits_on_identical_bits():
    A = existent(7, 5, 3, seed=31)
    f = _factor(A)
    assert _factor(A.copy()) is f
    assert _factor(A, mi.Tolerance()) is f      # an equal Tolerance
    assert _factor(np.asfortranarray(A)) is f   # same matrix, another memory layout


def test_factor_memo_misses_on_in_place_mutation():
    A = existent(7, 5, 3, seed=32)
    X = mi.mink_inverse(A)
    A[2, 1] *= 1.5
    warm_X = mi.mink_inverse(A)
    warm_report = mi.check_candidate(A, X)
    minkowski._forget_factor()
    assert warm_X.tobytes() == mi.mink_inverse(A).tobytes() != X.tobytes()
    minkowski._forget_factor()
    assert fingerprint(warm_report) == fingerprint(mi.check_candidate(A, X))
    assert not warm_report.verdict


def test_factor_memo_keys_on_bits_tolerance_and_shape():
    A = existent(6, 4, 2, seed=33)
    A[0, 0] = 0.0
    f = _factor(A)
    B = A.copy()
    B[0, 0] = complex(-0.0, 0.0)
    assert np.array_equal(A, B)                 # equal values, different bits
    g = _factor(B)
    assert g is not f and _same_factors(g, _cold_factor(B))
    tol = mi.Tolerance(rank_rtol=2 * mi.EPS)
    h = _factor(B, tol)
    assert h is not _factor(B) and _same_factors(h, _cold_factor(B, tol))
    R = B.reshape(4, 6)                         # the same data under another shape
    _factor(B)
    k = _factor(R)
    assert k.B.shape[0] == 4 and _same_factors(k, _cold_factor(R))


def test_factor_memo_takes_a_transposed_matrix():
    A = existent(5, 7, 3, seed=34).T
    assert not A.flags.c_contiguous
    X = mi.mink_inverse(A)
    f = _factor(A)
    assert _factor(np.ascontiguousarray(A)) is f
    assert mi.check_candidate(A, X).verdict
    minkowski._forget_factor()
    assert mi.mink_inverse(np.ascontiguousarray(A)).tobytes() == X.tobytes()


def test_remembered_factors_are_read_only():
    f = _factor(existent(6, 6, 3, seed=35))
    assert f.Wr is not None and f.Wn is not None
    for a in _kept(f):
        with pytest.raises(ValueError):
            a[0] = 0


@pytest.mark.parametrize("A", [
    isotropic(6, 4, seed=37), isotropic(5, 5, seed=38), fixtures.nonexistent_5x4(),
    light_cone(1e-9), existent(7, 5, 3, seed=39), existent(4, 7, 4, seed=40),
    existent(6, 6, 2, seed=41), np.zeros((3, 4)),
    # low rank: a complement wider than 2r is left to the projection
    existent(30, 30, 5, seed=42), existent(40, 30, 5, seed=43), existent(30, 40, 5, seed=44),
    existent(9, 9, 3, seed=45), existent(10, 10, 3, seed=46),
])
def test_complements_are_kept_where_the_gate_passes_and_the_svd_holds_them(A):
    f = _cold_factor(A)
    m, n = A.shape
    assert (f.Wr is not None) == (f.exists and n <= m and n - f.r <= 2 * f.r)
    assert (f.Wn is not None) == (f.exists and m <= n and m - f.r <= 2 * f.r)
    # orthonormal bases of the complements of G V_r and G U_r
    G_Vr, G_Ur = minkowski.apply_metric_left(f.Vr), minkowski.apply_metric_left(f.Ur)
    Wr_star = None if f.Wr is None else f.Wr.conj().T
    for Q, shape, P in ((Wr_star, (n, n - f.r), G_Vr), (f.Wn, (m, m - f.r), G_Ur)):
        if Q is not None:
            assert Q.shape == shape
            assert np.linalg.norm(Q.conj().T @ Q - np.eye(Q.shape[1])) < 1e-13
            assert np.linalg.norm(Q.conj().T @ P) < 1e-13


def test_public_results_do_not_alias_the_remembered_factors():
    A = existent(6, 6, 3, seed=36)
    assert _factor(A).Wr is not None
    for name, call in entry_points(A) + [("diagnose_existence", mi.diagnose_existence),
                                         ("full_rank_factorization", mi.full_rank_factorization),
                                         ("hs_decomposition", mi.hs_decomposition)]:
        out = call(A)
        f = _factor(A)
        for a in _arrays_in(out):
            assert a.flags.writeable, name
            assert not any(np.shares_memory(a, b) for b in _kept(f)), name
