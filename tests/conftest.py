"""Shared helpers for the test suite."""

import numpy as np
import pytest

from minkinv import GenKind, GenSpec, generate


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


def lapack_counts(monkeypatch, call, A):
    """Calls of numpy's svd, inv, solve and eigvalsh made by ``call(A)``."""
    counts = dict.fromkeys(("svd", "inv", "solve", "eigvalsh"), 0)
    for name in counts:
        def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    call(A)
    monkeypatch.undo()
    return counts


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
