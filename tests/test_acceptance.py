"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every sweep is seeded, so the suite is deterministic.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import minkinv as mi
from minkinv import fixtures
from conftest import cgauss, existent, block_existent, isotropic

A55 = fixtures.existent_5x5()
AM55 = fixtures.existent_5x5_minkinv()
A52 = fixtures.nonexistent_5x4()
X55 = fixtures.pseudo_candidate_5x5()

TOL = mi.DEFAULT_TOL


def _report(num, text):
    print(f"ACCEPTANCE {num:2d} PASS  {text}")


def _sizes(rng, square_every=3, lo=2, hi=12):
    i = 0
    while True:
        m = int(rng.integers(lo, hi + 1))
        n = m if i % square_every == 0 else int(rng.integers(lo, hi + 1))
        r = int(rng.integers(1, min(m, n) + 1))
        yield m, n, r
        i += 1


def test_criterion_01_regression_all_algorithms():
    outputs = {
        "frf": mi.mink_inverse_frf(A55).result,
        "hs": mi.mink_inverse_hs(A55).result,
        "group": mi.mink_inverse_group(A55).result,
        "resolvent": mi.mink_inverse_resolvent(A55).result,
        "zlobec2": mi.mink_inverse_zlobec2(A55).result,
        "compose": mi.compose_13m_14m(A55, mi.one_three_m(A55), mi.one_four_m(A55)),
    }
    for k in range(3):
        for l in range(3):
            outputs[f"zlobec({k},{l})"] = mi.mink_inverse_zlobec(A55, k, l).result
    for name, X in outputs.items():
        assert np.max(np.abs(X - AM55)) < 1e-8, f"{name} missed the printed inverse"
    _report(1, f"{len(outputs)} algorithm variants reproduce the printed inverse to 1e-8")


def test_criterion_02_counterexample_rejected():
    rep = mi.check_candidate(A55, X55)
    assert not rep.verdict
    assert not rep.range_ok
    assert rep.eq1 < 1e-12 and rep.eq2 < 1e-12
    moore = mi.moore_style_check(A55, X55)
    assert not moore.is_inverse
    assert not moore.range_within_adjoint_range
    _report(2, "pseudo candidate fails exactly on the range test, eq1/eq2 clean")


def test_criterion_03_nonexistence_diagnosis():
    d = mi.diagnose_existence(A52)
    assert not d.exists
    assert d.rank_A == 2
    assert d.rank_AsA == 1
    assert d.ind_AsA == 1
    assert d.ind_AAs == 1
    assert d.criteria_agree
    _report(3, "rank-2 matrix with rank-1 index-1 Gram products diagnosed non-existent")


def test_criterion_04_hs_decomposition_regression():
    hs = mi.hs_decomposition(A55)
    assert hs.r == 3
    assert_allclose(hs.sigma, fixtures.EXISTENT_5X5_SINGULAR_VALUES, rtol=5e-4)
    UGU = hs.U.conj().T @ mi.minkowski.apply_metric_left(hs.U)
    G1 = UGU[:3, :3]
    KL = np.hstack([hs.K, hs.L])
    Delta = KL @ UGU @ KL.conj().T
    assert mi.rank_of(G1, scale=1.0) == 3
    assert mi.rank_of(Delta, scale=1.0) == 3
    X = mi.mink_inverse_hs(A55).result
    assert np.max(np.abs(X - AM55)) < 1e-8
    _report(4, "decomposition blocks have full rank 3; singular values match to 4 digits")


def _mixed_instances(base, count=500):
    """Criterion 05's sweep: existent, isotropic and arbitrary draws in turn."""
    rng = np.random.default_rng(base)
    sizes = _sizes(rng)
    for i in range(count):
        m, n, r = next(sizes)
        if i % 3 == 0:
            A = existent(m, n, r, seed=base + i)
        elif i % 3 == 1:
            A = isotropic(max(m, 2), n, seed=base + i)
        else:
            A = mi.generate(mi.GenSpec(rows=m, cols=n, rank=min(1, min(m, n)),
                                       kind=mi.GenKind.ARBITRARY, seed=base + i))
        yield i, m, n, A


def test_criterion_05_criteria_equivalence_sweep():
    checked = 0
    for i, m, n, A in _mixed_instances(50_000):
        d = mi.diagnose_existence(A)
        assert d.criteria_agree, (
            f"criteria disagree on instance {i} ({m}x{n}, kind {i % 3}): {d.criteria}")
        checked += 1
    assert checked == 500
    _report(5, "all five existence criteria agree on 500 mixed instances")


def test_criterion_05_factor_gate_matches_diagnosis():
    # mink_inverse decides existence on the r-by-r Grams of one factorization
    checked = 0
    for base in (50_000, 51_000, 52_000):
        for i, m, n, A in _mixed_instances(base):
            try:
                mi.mink_inverse(A)
                gate = True
            except mi.NotExistent:
                gate = False
            assert gate == mi.diagnose_existence(A).exists, (
                f"gate and diagnosis disagree on instance {base + i} ({m}x{n}, kind {i % 3})")
            checked += 1
    assert checked == 1500
    _report(5, "the factor-once gate of mink_inverse matches the diagnosis on 1500 instances")


def test_criterion_06_cross_algorithm_agreement():
    rng = np.random.default_rng(60_000)
    sizes = _sizes(rng)
    worst_gap = 0.0
    worst_res = 0.0
    for i in range(200):
        m, n, r = next(sizes)
        A = existent(m, n, r, seed=60_000 + i)
        rep = mi.cross_check(A)
        assert rep.verdict, f"cross-check failed on instance {i} ({m}x{n} rank {r})"
        worst_gap = max(worst_gap, rep.max_gap)
        for o in rep.outcomes:
            worst_res = max(worst_res, max(o.check.residuals().values()))
    assert worst_gap <= 1e-8
    assert worst_res <= 1e-9
    _report(6, f"200 instances: max pairwise gap {worst_gap:.2e}, max residual {worst_res:.2e}")


def test_criterion_07_projector_suite():
    rng = np.random.default_rng(70_000)
    sizes = _sizes(rng)
    for i in range(100):
        m, n, r = next(sizes)
        A = existent(m, n, r, seed=70_000 + i)
        Am = mi.mink_inverse(A)
        As = mi.mink_adjoint(A)
        P1 = mi.projector_onto_along(A, As)
        P2 = mi.projector_onto_along(As, A)
        assert np.linalg.norm(P1 - A @ Am) <= 1e-9 * max(1, np.linalg.norm(P1))
        assert np.linalg.norm(P2 - Am @ A) <= 1e-9 * max(1, np.linalg.norm(P2))
    swaps = 0
    while swaps < 100:
        n = int(rng.integers(2, 9))
        r = int(rng.integers(1, n + 1))
        A = cgauss(rng, n, r)
        B = cgauss(rng, r, n)
        if mi.rank_of(B @ A) != r:
            continue
        P = mi.projector_onto_along(A, B)
        Q = mi.projector_onto_along(mi.mink_adjoint(B), mi.mink_adjoint(A))
        assert np.linalg.norm(mi.mink_adjoint(P) - Q) <= 1e-9 * max(1, np.linalg.norm(Q))
        swaps += 1
    _report(7, "product projectors and the adjoint-swap identity hold to 1e-9")


def test_criterion_08_family_invariance():
    rng = np.random.default_rng(80_000)
    sizes = _sizes(rng)
    for i in range(50):
        m, n, r = next(sizes)
        A = existent(m, n, r, seed=80_000 + i)
        ref = mi.mink_inverse(A)
        base13 = mi.one_three_m(A)
        base14 = mi.one_four_m(A)
        AX0 = A @ base13
        XA0 = base14 @ A
        for _ in range(20):
            Y = cgauss(rng, n, m)
            Z = cgauss(rng, n, m)
            X13 = mi.one_three_m(A, Y)
            X14 = mi.one_four_m(A, Z)
            assert np.linalg.norm(A @ X13 - AX0) <= 1e-9 * max(1, np.linalg.norm(AX0))
            assert np.linalg.norm(X14 @ A - XA0) <= 1e-9 * max(1, np.linalg.norm(XA0))
            comp = mi.compose_13m_14m(A, X13, X14)
            assert np.linalg.norm(comp - ref) <= 1e-8 * max(1, np.linalg.norm(ref))
    _report(8, "50 instances x 20 draws: AX and XA member-independent, composition exact")


def test_criterion_09_witness_identities():
    rng = np.random.default_rng(90_000)
    sizes = _sizes(rng)
    for i in range(100):
        m, n, r = next(sizes)
        A = existent(m, n, r, seed=90_000 + i)
        As = mi.mink_adjoint(A)
        ref = mi.mink_inverse(A)
        nrm = max(1.0, np.linalg.norm(A))
        X, Y = mi.factorization_witnesses(A)
        assert np.linalg.norm(X @ A @ As @ A - A) <= 1e-9 * nrm
        assert np.linalg.norm(A @ As @ A @ Y - A) <= 1e-9 * nrm
        assert np.linalg.norm(mi.mink_adjoint(X @ A) - ref) <= 1e-9 * max(1, np.linalg.norm(ref))
        assert np.linalg.norm(mi.mink_adjoint(A @ Y) - ref) <= 1e-9 * max(1, np.linalg.norm(ref))
        Xs, Ys = mi.sylvester_witnesses(A)
        g = max(1.0, np.linalg.norm(A) ** 2) * max(1.0, np.linalg.norm(Xs))
        assert np.linalg.norm(Xs @ A @ As - Ys @ Xs - np.eye(m)) <= 1e-9 * g
        assert np.linalg.norm(A @ As @ Xs - Xs @ A @ As) <= 1e-9 * g
        assert np.linalg.norm(A @ As @ Ys) <= 1e-9 * g
        assert np.linalg.norm(Ys @ Ys - Ys) <= 1e-9 * max(1.0, np.linalg.norm(Ys) ** 2)
        assert np.linalg.norm(As @ Xs - ref) <= 1e-9 * max(1, np.linalg.norm(ref))
    _report(9, "factorization and Sylvester witnesses verify on 100 instances")


def test_criterion_10_rank_equation_suite():
    rng = np.random.default_rng(100_000)
    sizes = _sizes(rng)
    for i in range(100):
        m, n, r = next(sizes)
        A = existent(m, n, r, seed=100_000 + i)
        X, Y, Z = mi.mink_rank_characterization(A)
        bordered = np.block([[A, np.eye(m) - Y], [np.eye(n) - X, Z]])
        floor = TOL.eq_bound(mi.fro(bordered))
        assert mi.rank_of(bordered, floor=floor) == r
        E = cgauss(rng, n, m)
        E *= 1e-3 / np.linalg.norm(E)
        noisy = np.block([[A, np.eye(m) - Y], [np.eye(n) - X, Z + E]])
        assert mi.rank_of(noisy, floor=floor) > r
    draws = 0
    for j in range(4):
        A = existent(6, 6, 3, seed=105_000 + j)
        ref = mi.mink_inverse(A)
        for _ in range(5):
            B, C = mi.bc_parameterization(A, cgauss(rng, 3, 3),
                                          cgauss(rng, 6, 3), cgauss(rng, 6, 3))
            Xsol = mi.rank_equation_solve(mi.RankEquationInstance(A=A, B=B, C=C))
            assert np.linalg.norm(Xsol - ref) <= 1e-8 * max(1, np.linalg.norm(ref))
            draws += 1
    assert draws == 20
    _report(10, "bordered ranks exact on 100 instances; 20 (B, C) draws solve to the inverse")


def test_criterion_11_block_formula():
    rng = np.random.default_rng(110_000)
    for i in range(100):
        m = int(rng.integers(2, 10))
        n = int(rng.integers(2, 10))
        r = int(rng.integers(1, min(m, n) + 1))
        A = block_existent(m, n, r, seed=110_000 + i)
        X = mi.mink_inverse_block(A, r).result
        ref = mi.mink_inverse_frf(A).result
        assert np.linalg.norm(X - ref) <= 1e-8 * max(1, np.linalg.norm(ref))
    for j in range(10):
        A = cgauss(rng, 5, 5) + 2 * np.eye(5)
        X = mi.mink_inverse_block(A, 5).result
        ref = np.linalg.inv(A)
        assert np.linalg.norm(X - ref) <= 1e-10 * max(1, np.linalg.norm(ref))
    _report(11, "block formula matches on 100 low-rank and 10 nonsingular instances")


def test_criterion_12_scale_adjoint_covariance():
    rng = np.random.default_rng(120_000)
    sizes = _sizes(rng)
    for i in range(100):
        m, n, r = next(sizes)
        A = existent(m, n, r, seed=120_000 + i)
        Am = mi.mink_inverse(A)
        for c in (2.0, -1.0, 1j, 1e3, 1e-3):
            X = mi.mink_inverse(c * A)
            want = Am / c
            assert np.linalg.norm(X - want) <= 1e-9 * max(1, np.linalg.norm(want))
        lhs = mi.mink_inverse(mi.mink_adjoint(A))
        rhs = mi.mink_adjoint(Am)
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * max(1, np.linalg.norm(rhs))
    _report(12, "scaling and adjoint covariance hold to 1e-9 on 100 instances")


def test_criterion_12_power_of_two_scaling_is_exact():
    A = existent(7, 5, 3, seed=120_500)
    Am = mi.mink_inverse(A)
    for j in range(-400, 401):
        assert np.array_equal(mi.mink_inverse(2.0 ** j * A), Am / 2.0 ** j), f"j={j}"
    _report(12, "mink_inverse(2^j A) == mink_inverse(A) / 2^j bit for bit, j in [-400, 400]")


def test_criterion_12_auditors_across_the_double_range():
    for k in range(-150, 151):
        c = 10.0 ** k * np.exp(0.37j * k)
        A = c * A55
        X = mi.mink_inverse(A)
        assert np.linalg.norm(X - AM55 / c) <= 1e-9 * np.linalg.norm(AM55 / c), f"k={k}"
        assert mi.check_candidate(A, X).verdict, f"check_candidate rejects at k={k}"
        assert mi.moore_style_check(A, X).is_inverse, f"moore_style_check rejects at k={k}"
        assert mi.cross_check(A).verdict, f"cross_check fails at k={k}"
    _report(12, "check_candidate, moore_style_check and cross_check accept at c = 10^k e^(0.37ik), "
                "k in [-150, 150]")
