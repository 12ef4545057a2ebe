"""The O(r) inertia gate of ``minkowski._factor`` against the Gram-product reference."""

import itertools

import numpy as np

from minkinv import minkowski
from minkinv.dense_core import as_matrix

from conftest import cgauss, existent
from reference_gate import reference_gate


def _unitary(rng, n):
    Q, R = np.linalg.qr(cgauss(rng, n, n))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def _degenerate_range(rng, m, r):
    """An m-by-r basis of a degenerate subspace: a null vector x and r - 1 vectors G-orthogonal to it."""
    w = cgauss(rng, m - 1, 1)
    x = np.vstack([[[1.0]], w / np.linalg.norm(w)])
    Gx = minkowski.apply_metric_left(x)
    Y = cgauss(rng, m, r - 1)
    Y -= Gx @ (Gx.conj().T @ Y) / np.vdot(Gx, Gx).real
    return np.hstack([x, Y])


def _isotropic_2x2s():
    """Integer 2x2s whose columns, or rows, are multiples of the null vector (1, +-1)."""
    for a, b, sign in itertools.product(range(-2, 3), range(-2, 3), (1, -1)):
        if a or b:
            M = np.array([[a, b], [sign * a, sign * b]])
            yield M
            yield M.T


def gate_corpus(rng, reps):
    """Inputs on both sides of the gate's decision, ``reps`` seeded draws per family."""
    yield from _isotropic_2x2s()
    for _ in range(reps):
        m, n = rng.integers(1, 5, size=2)
        yield rng.integers(-2, 3, size=(m, n)) + 1j * rng.integers(-1, 2, size=(m, n)) * rng.integers(0, 2)
    # the light-cone sweep: R(A) within eps of a degenerate subspace
    c = np.array([1.0, 0.3, 0.2j, 0.1])
    for k in range(1, 15):
        eps = 10.0 ** -k
        x = np.array([1.0, 1.0 - eps, 0.0, 0.0])
        for M in (np.outer(x, c.conj()), np.outer(x, cgauss(rng, 1, 5))):
            yield M
            yield minkowski.mink_adjoint(M)
        for _ in range(reps // 20):
            m, n = rng.integers(4, 9, size=2)
            r = int(rng.integers(2, min(m - 1, n) + 1))
            xe = np.zeros((m, 1))
            xe[:2, 0] = 1.0, 1.0 - eps
            Y = cgauss(rng, m, r - 1)
            Y[:2] = 0.0                                     # G-orthogonal to the null vector
            for M in (np.hstack([xe, Y]) @ cgauss(rng, r, n),
                      np.hstack([xe, cgauss(rng, m, r - 1)]) @ cgauss(rng, r, n)):
                yield M
                yield minkowski.mink_adjoint(M)
    for _ in range(reps):
        m, n = rng.integers(2, 9, size=2)
        r = int(rng.integers(1, min(m, n) + 1))
        D = _degenerate_range(rng, m, r) @ cgauss(rng, r, n)
        yield D
        yield minkowski.mink_adjoint(D)
        yield existent(m, n, r, seed=int(rng.integers(2 ** 32)))
        yield cgauss(rng, m, n)
    # conditioned draws, kappa = 1e4 .. 1e14
    for k in range(4, 15, 2):
        for _ in range(reps // 10):
            m, n = rng.integers(2, 9, size=2)
            r = int(rng.integers(1, min(m, n) + 1))
            s = np.logspace(0, -k, r)
            yield (_unitary(rng, m)[:, :r] * s) @ _unitary(rng, n)[:r]


def test_inertia_gate_matches_gram_products():
    # A Gram eigenvalue within a factor 4 of the cutoff is a tie: the two
    # gates round the same O(eps) quantity differently.  Degenerate draws
    # land there, as their true eigenvalue is 0 and their computed one is
    # rounding; elsewhere the ranks must be equal.
    rng = np.random.default_rng(30_303)
    checked, ties = 0, []
    for A in gate_corpus(rng, reps=300):
        A = as_matrix(A)
        f = minkowski._factor(A, minkowski.DEFAULT_TOL)
        ref = reference_gate(A)
        if (f.r, f.rank_BsB, f.rank_CCs) != ref[:3]:
            assert ref.clearance < 4.0, (A, ref)
            ties.append(ref.clearance)
        checked += 1
    assert checked > 2500
    assert len(ties) <= checked // 500, ties


def test_exactly_isotropic_inputs_are_refused():
    # a margin taken as 2 ||u||^2 - 1 reads rounding, not 0, on these
    for A in _isotropic_2x2s():
        f = minkowski._factor(as_matrix(A), minkowski.DEFAULT_TOL)
        assert (f.r, f.exists) == (1, False), A
