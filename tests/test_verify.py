"""Tests for the generators and the cross-checking oracle."""

import dataclasses

import numpy as np
import pytest

import minkinv as mi
from minkinv import fixtures, verify
from minkinv.cli import main
from minkinv.dense_core import pow2_exponent, scale_pow2
from conftest import cgauss, existent, block_existent, isotropic, lapack_counts, light_cone
from reference_audit import reference_audit, reference_space_tests

A55 = fixtures.existent_5x5()
AM55 = fixtures.existent_5x5_minkinv()
A52 = fixtures.nonexistent_5x4()


def _audit_both(A, X):
    """(check_candidate, moore_style_check) of (A, X) from the one audit that `minkinv check` runs."""
    return mi.minkowski._audit_pair(A, X, mi.DEFAULT_TOL, identity=True)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_genspec_validation():
    with pytest.raises(ValueError):
        mi.GenSpec(rows=0, cols=3, rank=1, kind=mi.GenKind.EXISTENT, seed=0)
    with pytest.raises(ValueError):
        mi.GenSpec(rows=4, cols=3, rank=4, kind=mi.GenKind.EXISTENT, seed=0)
    with pytest.raises(ValueError):
        mi.GenSpec(rows=4, cols=3, rank=0, kind=mi.GenKind.EXISTENT, seed=0)
    with pytest.raises(ValueError):
        mi.GenSpec(rows=1, cols=3, rank=1, kind=mi.GenKind.ISOTROPIC, seed=0)
    with pytest.raises(ValueError):
        mi.GenSpec(rows=3, cols=3, rank=1, kind=mi.GenKind.EXISTENT, seed=0, scale=0.0)


def test_existent_generator_sound():
    A = existent(5, 4, 2, seed=1)
    d = mi.diagnose_existence(A)
    assert d.exists
    assert d.rank_A == 2


def test_isotropic_generator_sound():
    A = isotropic(4, 3, seed=2)
    d = mi.diagnose_existence(A)
    assert not d.exists
    assert d.rank_A == 1
    assert d.rank_AsA == 0


def test_block_generator_sound():
    A = block_existent(6, 5, 3, seed=3)
    assert mi.rank_of(A[:3, :3]) == 3
    assert mi.diagnose_existence(A).exists


def test_generator_determinism():
    spec = mi.GenSpec(rows=7, cols=5, rank=3, kind=mi.GenKind.EXISTENT, seed=99)
    A1 = mi.generate(spec)
    A2 = mi.generate(spec)
    assert np.array_equal(A1, A2)


def test_generator_scale():
    base = mi.GenSpec(rows=5, cols=4, rank=2, kind=mi.GenKind.EXISTENT, seed=5)
    scaled = mi.GenSpec(rows=5, cols=4, rank=2, kind=mi.GenKind.EXISTENT, seed=5, scale=100.0)
    assert np.array_equal(mi.generate(scaled), 100.0 * mi.generate(base))
    assert mi.diagnose_existence(mi.generate(scaled)).exists


def test_generator_retry_exhausted(monkeypatch):
    monkeypatch.setattr(verify, "_MAX_DRAWS", 0)
    with pytest.raises(mi.RetryExhausted):
        mi.generate(mi.GenSpec(rows=5, cols=4, rank=2, kind=mi.GenKind.EXISTENT, seed=1))


def test_arbitrary_generator():
    A = mi.generate(mi.GenSpec(rows=6, cols=3, rank=1, kind=mi.GenKind.ARBITRARY, seed=7))
    assert A.shape == (6, 3)


# ---------------------------------------------------------------------------
# candidate checking
# ---------------------------------------------------------------------------

def test_check_candidate_accepts_regression():
    rep = mi.check_candidate(A55, AM55)
    assert rep.verdict
    assert max(rep.residuals().values()) < 1e-12
    assert max(rep.residual_range, rep.residual_null) < 1e-14


def test_check_candidate_rejects_counterexample():
    rep = mi.check_candidate(A55, fixtures.pseudo_candidate_5x5())
    assert not rep.verdict
    assert not rep.range_ok
    assert rep.null_ok
    assert rep.eq1 < 1e-12 and rep.eq2 < 1e-12
    assert rep.residual_range > 0.1 and rep.residual_null < 1e-14
    assert rep.eq4m > 1e-3


def test_check_candidate_identity():
    rep = mi.check_candidate(np.eye(3), np.eye(3))
    assert rep.verdict
    assert rep.eq1 == rep.eq2 == rep.eq3m == rep.eq4m == 0.0


def test_check_candidate_soundness_under_noise(rng):
    A = existent(6, 5, 3, seed=8)
    Am = mi.mink_inverse(A)
    E = cgauss(rng, 5, 6)
    E *= 1e-3 / np.linalg.norm(E)
    assert mi.check_candidate(A, Am).verdict
    rep = mi.check_candidate(A, Am + E)
    assert not (rep.verdict or rep.range_ok or rep.null_ok)
    assert min(rep.residual_range, rep.residual_null) > 1e-5


@pytest.mark.parametrize("A, X", [
    (1e10 * A55, 1e300 * np.ones((5, 5))),   # 2^e X overflows
    (A55, 2.0 ** 1020 * np.ones((5, 5))),    # 2^e X is finite, its norm is not
])
def test_auditors_reject_a_candidate_beyond_the_double_range(A, X):
    # both audits must say no, with infinite residuals, and not raise
    rep = mi.check_candidate(A, X)
    assert not rep.verdict and not rep.range_ok and not rep.null_ok
    assert rep.eq1 == rep.eq2 == rep.eq3m == rep.eq4m == float("inf")
    assert rep.residual_range == rep.residual_null == float("inf")
    moore = mi.moore_style_check(A, X)
    assert not moore.is_inverse and moore.exists
    assert not (moore.acts_identity_on_adjoint_range or moore.annihilates_adjoint_nullspace
                or moore.range_within_adjoint_range or moore.satisfies_defining_equations)
    assert moore.residual_identity == moore.residual_nullspace == float("inf")


@pytest.mark.parametrize("k", range(1, 14))
def test_auditors_reach_one_verdict_near_the_light_cone(k):
    # moore_style_check's identity bound grows with ||X|| ~ 1/eps, so the
    # identity test alone passes the mink_inverse X that check_candidate
    # rejects on eq1 at eps = 1e-8..1e-11; the defining equations catch it
    verdicts = set()
    for A in (light_cone(10.0 ** -k), mi.mink_adjoint(light_cone(10.0 ** -k))):
        for scale in (1.0, 1e8, 1e-8):
            for force in (False, True):
                for o in mi.cross_check(scale * A, force=force).outcomes:
                    if o.status == "ok":
                        moore = mi.moore_style_check(scale * A, o.result)
                        assert moore.is_inverse == o.check.verdict, (k, scale, force, o.name)
                        verdicts.add(o.check.verdict)
    if 8 <= k <= 11:
        assert verdicts == {False}


def test_null_space_test_alone_rejects_a_candidate_off_the_null_space():
    # E = w u* (I - AX) with w in R(A~) and u in N(A~): E A = 0 and X A E = E, so eqs (1),
    # (2) and (4m) stay exact and eq (3m) moves least; X + E is 1.25 bounds off N(A~)
    A = existent(10, 10, 7, seed=2)
    A = scale_pow2(A, -pow2_exponent(A))       # the frame the audit runs in
    X = mi.mink_inverse(A)
    U, _, Vh = np.linalg.svd(A)
    Qr = mi.minkowski.apply_metric_left(Vh[:7].conj().T)        # R(A~) = G R(V_r)
    w = Qr @ np.linalg.svd(A @ Qr)[2][-1].conj()                 # where A is least on R(A~)
    u = mi.minkowski.apply_metric_left(U[:, 7:])[:, 0]           # N(A~) = G N(A*)
    E = np.outer(w, u.conj() @ (np.eye(10) - A @ X))
    X = X + E * (1.25 * mi.DEFAULT_TOL.eq_bound(np.linalg.norm(X)) / np.linalg.norm(E @ u))
    check, moore = _audit_both(A, X)
    assert moore.satisfies_defining_equations and check.range_ok
    assert check.residual_null > 1.2e-9
    assert not (check.null_ok or check.verdict or moore.is_inverse)


def test_moore_style_check_is_false_where_the_gate_refuses():
    # at rank_rtol 1e-2 the gate ranks the light-cone Gram of light_cone(1e-3) 0, although
    # mink_inverse's X passes all four tests; is_inverse follows the gate
    A = light_cone(1e-3)
    X = mi.mink_inverse(A)
    moore = mi.moore_style_check(A, X, mi.Tolerance(rank_rtol=1e-2))
    assert (moore.acts_identity_on_adjoint_range and moore.annihilates_adjoint_nullspace
            and moore.range_within_adjoint_range and moore.satisfies_defining_equations)
    assert not (moore.exists or moore.is_inverse)


def test_check_candidate_shape_error():
    with pytest.raises(mi.ShapeMismatch):
        mi.check_candidate(A55, np.eye(4))


# ---------------------------------------------------------------------------
# cross-check
# ---------------------------------------------------------------------------

def test_cross_check_regression():
    rep = mi.cross_check(A55)
    assert rep.exists and rep.verdict
    assert rep.max_gap < 1e-8
    for o in rep.outcomes:
        assert o.status == "ok"
        assert np.max(np.abs(o.result - AM55)) < 1e-8


def test_cross_check_nonexistent_refusal():
    rep = mi.cross_check(A52)
    assert not rep.exists
    assert rep.verdict
    assert all(o.status == "refused" for o in rep.outcomes)


def test_cross_check_forced_breakdown():
    rep = mi.cross_check(A52, force=True)
    assert rep.verdict
    computed = [o for o in rep.outcomes if o.status == "ok"]
    assert computed, "force mode must evaluate at least one formula"
    assert all(not o.check.verdict for o in computed)


def test_cross_check_generated():
    A = existent(7, 7, 3, seed=4)
    rep = mi.cross_check(A)
    assert rep.verdict
    assert rep.max_gap < 1e-8
    names = {o.name for o in rep.outcomes}
    assert {"frf", "hs", "zlobec", "zlobec2", "group", "resolvent", "compose13m14m"} <= names


def test_cross_check_zero_matrix():
    rep = mi.cross_check(np.zeros((3, 3)))
    assert rep.exists and rep.verdict


# ---------------------------------------------------------------------------
# factorization counts (machine-independent, so they gate regressions)
# ---------------------------------------------------------------------------

def test_lapack_counts_on_count_baseline(monkeypatch, tmp_path):
    # the benchmark's count-baseline input: 50x50, rank 30, seed 1
    A = existent(50, 50, 30, seed=1)
    assert lapack_counts(monkeypatch, mi.mink_inverse, A) == {
        "svd": 1, "inv": 0, "solve": 0, "eigvalsh": 0, "qr": 0}
    # the routes' own products and the diagnosis's seven product ranks, and
    # one factorization that also gives A+, A+ A, B+, C+ and the HS unitary;
    # the group, Zlobec and diagnosis products are factored on their 30x30
    # cores, so the work (m n min(m, n) per SVD) is about 60% of 17 full SVDs.
    # Group and zlobec2 share the two Gram cores, FRF and compose the two
    # Gram inverses
    counts = lapack_counts(monkeypatch, mi.cross_check, A)
    assert counts == {"svd": 17, "inv": 8, "solve": 0, "eigvalsh": 0, "qr": 1}
    assert counts.work <= 1_371_000
    counts = lapack_counts(monkeypatch, mi.diagnose_existence, A)
    assert counts == {"svd": 8, "inv": 0, "solve": 0, "eigvalsh": 0, "qr": 0}
    assert counts.work <= 500_000
    X = mi.mink_inverse(A)
    # each auditor takes one factorization of A and no other SVD
    assert lapack_counts(monkeypatch, lambda A: mi.check_candidate(A, X), A) == {
        "svd": 1, "inv": 0, "solve": 0, "eigvalsh": 0, "qr": 0}
    assert lapack_counts(monkeypatch, lambda A: mi.moore_style_check(A, X), A) == {
        "svd": 1, "inv": 0, "solve": 0, "eigvalsh": 0, "qr": 0}
    # `minkinv check` runs both auditors on that one factorization
    a, x = str(tmp_path / "a.json"), str(tmp_path / "x.json")
    mi.write_matrix(a, A)
    mi.write_matrix(x, X)
    assert lapack_counts(monkeypatch, lambda A: main(["check", a, x]), A) == {
        "svd": 1, "inv": 0, "solve": 0, "eigvalsh": 0, "qr": 0}


def test_group_after_zlobec2_takes_only_its_own_work(monkeypatch):
    # the two Gram cores are the factorization's, so group after zlobec2 on
    # the same A adds only its two index SVDs and two inv
    A = existent(50, 50, 30, seed=1)
    cold = {"svd": 5, "inv": 2, "solve": 0, "eigvalsh": 0, "qr": 0}
    assert lapack_counts(monkeypatch, mi.mink_inverse_group, A) == cold
    assert lapack_counts(monkeypatch, mi.mink_inverse_zlobec2, A) == {
        "svd": 3, "inv": 0, "solve": 0, "eigvalsh": 0, "qr": 0}
    assert lapack_counts(monkeypatch, lambda A: (mi.mink_inverse_zlobec2(A),
                                                 mi.mink_inverse_group(A)), A) == cold


def test_compute_then_certify_factors_once(monkeypatch):
    # check_candidate after mink_inverse on the same A reuses its factorization
    A = existent(50, 50, 30, seed=1)
    assert lapack_counts(monkeypatch, lambda A: mi.check_candidate(A, mi.mink_inverse(A)), A) == {
        "svd": 1, "inv": 0, "solve": 0, "eigvalsh": 0, "qr": 0}


def test_factorizations_are_views_of_the_gate(monkeypatch):
    # after mink_inverse on the same A, FRF takes no LAPACK call and HS one QR
    A = existent(50, 50, 30, seed=1)
    assert lapack_counts(monkeypatch, lambda A: (mi.mink_inverse(A), mi.full_rank_factorization(A),
                                                 mi.hs_decomposition(A)), A) == {
        "svd": 1, "inv": 0, "solve": 0, "eigvalsh": 0, "qr": 1}


def test_generate_lapack_counts(monkeypatch):
    # an accepted first draw: sigma(A), and sigma(A~A) and sigma(AA~), whose
    # spectra also give the three ranks
    spec = mi.GenSpec(rows=50, cols=50, rank=30, kind=mi.GenKind.EXISTENT, seed=1)
    assert lapack_counts(monkeypatch, mi.generate, spec) == {
        "svd": 3, "inv": 0, "solve": 0, "eigvalsh": 0, "qr": 0}


def test_witness_lapack_counts(monkeypatch):
    # (A~)+ = (A+)~ and sigma_1(A) come from the gate; factorization_witnesses
    # keeps the pseudoinverse of its own product AA~A, taken on its 30x30 core
    A = existent(50, 50, 30, seed=1)
    assert lapack_counts(monkeypatch, mi.bjerhammar_witnesses, A) == {
        "svd": 1, "inv": 0, "solve": 0, "eigvalsh": 0, "qr": 0}
    counts = lapack_counts(monkeypatch, mi.factorization_witnesses, A)
    assert counts == {"svd": 2, "inv": 0, "solve": 0, "eigvalsh": 0, "qr": 0}
    assert counts.work == 50 ** 3 + 30 ** 3


@pytest.fixture
def factor_calls(monkeypatch):
    """The list that every call of ``minkowski._factor`` appends to."""
    calls = []
    real = mi.minkowski._factor

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(mi.minkowski, "_factor", counted)
    return calls


def test_cross_check_factors_once(factor_calls):
    for A, force in [(existent(50, 50, 30, seed=1), False), (existent(7, 5, 3, seed=5), False),
                     (isotropic(5, 4, seed=3), False), (isotropic(6, 6, seed=4), True)]:
        factor_calls.clear()
        assert mi.cross_check(A, force=force).verdict
        assert len(factor_calls) == 1


def test_cli_compose_factors_once(factor_calls, monkeypatch, tmp_path):
    a, x = str(tmp_path / "a.json"), str(tmp_path / "x.json")
    mi.write_matrix(a, existent(50, 50, 30, seed=1))
    for seed in ([], ["--seed", "3"]):
        factor_calls.clear()
        assert main(["inverse", a, x, "--algo", "compose", *seed]) == 0
        assert len(factor_calls) == 1
    # lapack_counts undoes every patch of this test, so it runs last
    assert lapack_counts(monkeypatch, lambda a: main(["inverse", a, x, "--algo", "compose"]),
                         a) == {"svd": 1, "inv": 2, "solve": 0, "eigvalsh": 0, "qr": 0}


def test_auditors_factor_once(factor_calls):
    for A in [existent(50, 50, 30, seed=1), isotropic(5, 4, seed=3), np.zeros((3, 2))]:
        X = mi.moore_penrose(A)
        for audit in (mi.check_candidate, mi.moore_style_check, _audit_both):
            factor_calls.clear()
            audit(A, X)
            assert len(factor_calls) == 1


def test_audits_project_once(monkeypatch, tmp_path):
    calls = []
    real = mi.minkowski._space_tests

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(mi.minkowski, "_space_tests", counted)
    A = existent(6, 6, 4, seed=2)
    a, x = str(tmp_path / "a.json"), str(tmp_path / "x.json")
    mi.write_matrix(a, A)
    mi.write_matrix(x, mi.mink_inverse(A))
    big = 1e300 * np.ones((5, 5))
    # `minkinv check` projects once for both auditors; an X whose normalized
    # norm overflows is rejected without forming a projection
    for audit, want in [(lambda: main(["check", a, x]), 1),
                        (lambda: mi.check_candidate(A, mi.mink_inverse(A)), 1),
                        (lambda: mi.moore_style_check(A, mi.mink_inverse(A)), 1),
                        (lambda: _audit_both(1e10 * A55, big), 0),
                        (lambda: mi.check_candidate(1e10 * A55, big), 0),
                        (lambda: mi.moore_style_check(1e10 * A55, big), 0)]:
        calls.clear()
        audit()
        assert len(calls) == want


def _public_result(name, A, force):
    """What the public entry point of a cross_check algorithm returns on A."""
    if name == "compose13m14m":
        return mi.compose_13m_14m(A, mi.one_three_m(A), mi.one_four_m(A))
    call = {"frf": mi.mink_inverse_frf, "hs": mi.mink_inverse_hs,
            "zlobec": mi.mink_inverse_zlobec, "zlobec2": mi.mink_inverse_zlobec2,
            "group": mi.mink_inverse_group, "resolvent": mi.mink_inverse_resolvent}[name]
    return call(A, force=force).result


@pytest.mark.parametrize("A, force", [
    (existent(6, 6, 4, seed=2), False),
    (existent(7, 5, 3, seed=5), False),
    (existent(4, 9, 2, seed=6), False),
    (existent(8, 8, 5, seed=7, scale=1e-100), False),
    (existent(8, 8, 5, seed=7, scale=1e-8), False),
    (existent(8, 8, 5, seed=7, scale=1e8), False),
    (existent(8, 8, 5, seed=7, scale=1e100), False),
    (isotropic(5, 4, seed=3), False),
    (isotropic(6, 6, seed=4), True),
])
def test_cross_check_outcomes_match_public_calls(A, force):
    rep = mi.cross_check(A, force=force)
    assert rep.verdict
    for o in rep.outcomes:
        if o.status == "ok":
            assert o.result.tobytes() == _public_result(o.name, A, force).tobytes()
            assert o.check == mi.check_candidate(A, o.result)
        else:
            with pytest.raises(mi.MinkinvError) as exc:
                _public_result(o.name, A, force)
            assert str(exc.value) == o.detail


_A69 = existent(6, 9, 4, seed=8, scale=1e-4)
_ISO = isotropic(5, 4, seed=3)


@pytest.mark.parametrize("A, X", [
    (A55, AM55),
    (A55, mi.moore_penrose(A55)),
    (A55, AM55 + 1e-9),
    (_A69, mi.mink_inverse(_A69)),
    (_A69, mi.mink_inverse(_A69) * (1 + 1e-3)),
    (_ISO, mi.moore_penrose(_ISO)),
    (1e10 * A55, 1e300 * np.ones((5, 5))),
    # where no complement is kept: rank 1 next to the light cone, low rank, rank 0
    (light_cone(1e-3), mi.mink_inverse(light_cone(1e-3))),
    (light_cone(1e-8), mi.mink_inverse(light_cone(1e-8))),
    (mi.mink_adjoint(light_cone(1e-8)), mi.mink_inverse(mi.mink_adjoint(light_cone(1e-8)))),
    (existent(30, 30, 5, seed=79), mi.moore_penrose(existent(30, 30, 5, seed=79))),
    (np.zeros((3, 2)), np.zeros((2, 3))),
])
def test_cli_check_audits_equal_the_two_auditors(A, X):
    assert _audit_both(A, X) == (mi.check_candidate(A, X), mi.moore_style_check(A, X))


def test_check_report_is_defined_once_with_its_fields_in_order():
    # the benchmark fingerprints astuple(report), so the field order is part of the contract
    assert verify.CheckReport is mi.minkowski.CheckReport is mi.CheckReport
    assert [f.name for f in dataclasses.fields(mi.CheckReport)] == [
        "eq1", "eq2", "eq3m", "eq4m", "range_ok", "null_ok", "verdict",
        "residual_range", "residual_null"]


def test_cross_check_diagnoses_once(monkeypatch):
    # cross_check feeds the diagnosis core from its factorization
    calls = []
    real = mi.minkowski._diagnose

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(mi.minkowski, "_diagnose", counted)
    assert mi.cross_check(existent(6, 6, 4, seed=2)).verdict
    assert len(calls) == 1
    assert mi.cross_check(isotropic(5, 4, seed=3)).verdict
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# the projection audit against the rank-based reference
# ---------------------------------------------------------------------------

def _perturbed(rng, X, rel):
    E = cgauss(rng, *X.shape)
    return X + E * (rel * np.linalg.norm(X) / np.linalg.norm(E))


def _candidates(rng, A):
    """The exact inverse (forced past a failing gate), two perturbations of it, and pinv(A)."""
    X = mi.mink_inverse_frf(A, force=True).result
    return [X, _perturbed(rng, X, 1e-9), _perturbed(rng, X, 1e-3), np.linalg.pinv(A)]


def _audit_inputs(family):
    """Unit-scale inputs of one family: random shapes and ranks, isotropic, or light-cone."""
    rng = np.random.default_rng(61)
    if family == "light_cone":
        return [light_cone(10.0 ** -k) for k in range(1, 12)]
    if family == "isotropic":
        return [isotropic(int(rng.integers(2, 12)), int(rng.integers(1, 12)), seed=6200 + i)
                for i in range(12)]
    inputs = []
    for i in range(40):
        m, n = (int(d) for d in rng.integers(1, 16, size=2))
        inputs.append(existent(m, n, int(rng.integers(1, min(m, n) + 1)), seed=6100 + i))
    return inputs


@pytest.mark.parametrize("family", ["existent", "isotropic", "light_cone"])
def test_check_candidate_matches_the_rank_reference(family):
    rng = np.random.default_rng(64)
    for A in (scale * A1 for A1 in _audit_inputs(family) for scale in (1.0, 1e-8, 1e8)):
        for X in _candidates(rng, A):
            assert mi.check_candidate(A, X).verdict == reference_audit(A, X).verdict


@pytest.mark.parametrize("A, force", [
    (existent(9, 7, 4, seed=65), False),
    (existent(8, 8, 5, seed=7, scale=1e-8), False),
    (existent(8, 8, 5, seed=7, scale=1e8), False),
    (isotropic(6, 6, seed=4), True),
    (light_cone(1e-5), False),
    (light_cone(1e-9), False),
    (light_cone(1e-11), True),
])
def test_cross_check_audits_match_the_rank_reference(A, force):
    for o in mi.cross_check(A, force=force).outcomes:
        if o.check is not None:
            assert o.check.verdict == reference_audit(A, o.result).verdict, o.name


def _space_inputs():
    """Square, tall and wide draws, full column and row rank, rank 0, isotropic, light-cone.

    Between them every pair of paths runs: both complements (square), one
    complement and one projection (tall, wide), and both projections
    (refused, or low rank, where each complement is wider than 2r).
    """
    inputs = [existent(8, 8, 5, seed=71), existent(9, 6, 4, seed=72), existent(5, 9, 3, seed=73),
              existent(9, 5, 5, seed=74), existent(5, 9, 5, seed=75), np.zeros((4, 3)),
              isotropic(6, 4, seed=76), isotropic(5, 5, seed=77), A52,
              existent(30, 30, 5, seed=79), existent(40, 30, 5, seed=80),
              existent(30, 40, 5, seed=81)]
    for k in range(1, 10):
        inputs += [light_cone(10.0 ** -k), mi.mink_adjoint(light_cone(10.0 ** -k))]
    return inputs


def test_space_tests_match_the_projection_reference():
    # every path of _space_tests against the projection on the gate's leading bases
    rng = np.random.default_rng(78)
    paths = set()
    for A in (scale * A1 for A1 in _space_inputs() for scale in (1.0, 1e-8, 1e8)):
        for X in (mi.mink_inverse_frf(A, force=True).result if np.any(A) else A.T,
                  mi.moore_penrose(A), cgauss(rng, *A.shape[::-1])):
            report = mi.check_candidate(A, X)
            space = (report.range_ok, report.null_ok, report.residual_range, report.residual_null)
            f, An = mi.minkowski._normalized(A, mi.DEFAULT_TOL)
            X = mi.minkowski._candidate(X, An, f.exp)
            ref = reference_space_tests(f, X, mi.fro(X))
            paths.add((f.Wr is not None, f.Wn is not None))
            assert space[:2] == ref[:2]
            # residuals relative to max(1, ||X||), so this is 1e-12 max(1, ||X||) absolute
            assert abs(space[2] - ref[2]) <= 1e-12 and abs(space[3] - ref[3]) <= 1e-12
    assert paths == {(True, True), (True, False), (False, True), (False, False)}
