"""Shared helpers for the test suite."""

import numpy as np
import pytest

from minkinv import GenKind, GenSpec, generate, minkowski


def cgauss(rng, m, n):
    """Standard complex Gaussian matrix."""
    return (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2.0)


def existent(m, n, r, seed, scale=1.0):
    """A seeded matrix whose Minkowski inverse exists with margin."""
    return generate(GenSpec(rows=m, cols=n, rank=r, kind=GenKind.EXISTENT,
                            seed=seed, scale=scale))


def block_existent(m, n, r, seed):
    return generate(GenSpec(rows=m, cols=n, rank=r, kind=GenKind.BLOCK_EXISTENT, seed=seed))


def isotropic(m, n, seed):
    return generate(GenSpec(rows=m, cols=n, rank=1, kind=GenKind.ISOTROPIC, seed=seed))


def light_cone(eps):
    """A = x c* with x = (1, 1 - eps, 0, 0): R(A) approaches the light cone as eps -> 0."""
    x = np.array([1.0, 1.0 - eps, 0.0, 0.0])
    c = np.array([1.0, 0.3, 0.2j, 0.1])
    return np.outer(x, c.conj())


class LapackCounts(dict):
    """Calls per numpy.linalg routine, plus ``work``, the total computed work of those calls.

    The work of one call follows the benchmark's rule: m*n*min(m, n) for an
    m-by-n svd or qr, n^3 for the others.  It compares equal to the plain
    dict of its call counts.
    """

    work = 0


def lapack_counts(monkeypatch, call, A):
    """Calls of numpy's svd, inv, solve, eigvalsh and qr made by a cold ``call(A)``, and their work.

    The remembered factorization is dropped first, so a count does not
    depend on what the test computed before.
    """
    counts = LapackCounts.fromkeys(("svd", "inv", "solve", "eigvalsh", "qr"), 0)
    for name in counts:
        def counted(a, *args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            counts[_name] += 1
            m, n = np.shape(a)[-2:]
            counts.work += m * n * min(m, n) if _name in ("svd", "qr") else n ** 3
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    minkowski._forget_factor()
    call(A)
    monkeypatch.undo()
    return counts


@pytest.fixture(autouse=True)
def cold_factor():
    """Every test starts without a remembered factorization, whatever ran before it."""
    minkowski._forget_factor()


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
