"""Instance generators with known ground truth and the cross-checking oracle.

Generation is deterministic: a ``GenSpec`` seeds numpy's PCG64 bit generator,
so the same spec reproduces the same matrix bit for bit on any platform with
the same numpy stream (PCG64 streams are stable across numpy releases).

The existent generators reject draws that are too close to the light cone or
too ill-conditioned; acceptance thresholds at double precision are only
meaningful on instances with some margin, and the rejection rule is part of
the generator's contract (seeded, hence still deterministic).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .dense_core import (
    DEFAULT_TOL,
    Tolerance,
    _rank_from_spectrum,
    fro,
)
from .errors import MinkinvError, NotExistent, RetryExhausted
from . import minkowski as mk
from .minkowski import CheckReport

__all__ = ["GenKind", "GenSpec", "generate", "CheckReport", "check_candidate",
           "AlgorithmOutcome", "CrossCheckReport", "cross_check"]

# rejection thresholds for the existent generators (relative)
_KAPPA_A = 1e-2          # sigma_r(A) >= _KAPPA_A * sigma_1(A)
_GRAM_MARGIN = 1e-4      # sigma_r of AA~ and A~A vs their sigma_1
_BLOCK_COND = 0.05       # sigma_min(A1) >= _BLOCK_COND * sigma_1(A1)
_MAX_DRAWS = 100


class GenKind(enum.Enum):
    """What kind of instance to draw."""

    EXISTENT = "existent"
    ISOTROPIC = "isotropic"
    BLOCK_EXISTENT = "block"
    ARBITRARY = "arbitrary"


@dataclass(frozen=True)
class GenSpec:
    """Deterministic description of a random test matrix.

    ``rank`` is the target rank for EXISTENT and BLOCK_EXISTENT draws (it
    must be >= 1 there); ISOTROPIC always produces rank 1 and ARBITRARY
    ignores the field.  ``scale`` multiplies all entries.
    """

    rows: int
    cols: int
    rank: int
    kind: GenKind
    seed: int
    scale: float = 1.0

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("rows and cols must be positive")
        if not 0 <= self.rank <= min(self.rows, self.cols):
            raise ValueError(f"rank must lie in 0..{min(self.rows, self.cols)}")
        if self.kind in (GenKind.EXISTENT, GenKind.BLOCK_EXISTENT) and self.rank < 1:
            raise ValueError(f"{self.kind.value} generation needs rank >= 1")
        if self.kind is GenKind.ISOTROPIC and self.rows < 2:
            raise ValueError("isotropic generation needs at least 2 rows")
        if not 0 < self.scale < float("inf"):
            raise ValueError("scale must be positive and finite")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")


def _cgauss(rng, m, n):
    """Standard complex Gaussian entries, unit variance."""
    return (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2.0)


def _draw_existent(rng, m, n, r, tol):
    for _ in range(_MAX_DRAWS):
        B = _cgauss(rng, m, r)
        C = _cgauss(rng, r, n)
        A = B @ C
        sa = np.linalg.svd(A, compute_uv=False)
        if sa[r - 1] >= _KAPPA_A * sa[0] and _well_margined(A, sa, r, tol):
            return A
    raise RetryExhausted(f"no well-margined existent draw in {_MAX_DRAWS} tries "
                         f"for {m}x{n} rank {r}")


def _well_margined(A, sa, r, tol):
    """Whether the rank-r draw A, with singular values ``sa``, has its Gram margins.

    A~A and AA~ must keep sigma_r above _GRAM_MARGIN times sigma_1(A)^2,
    and A, A~A and AA~ must all have numerical rank r on those spectra.
    """
    As = mk.mink_adjoint(A)
    s2 = sa[0] * sa[0]
    # margins anchored at sigma_1(A)^2, the natural scale of the products
    s_asa = np.linalg.svd(As @ A, compute_uv=False)
    s_aas = np.linalg.svd(A @ As, compute_uv=False)
    if s_asa[r - 1] < _GRAM_MARGIN * s2 or s_aas[r - 1] < _GRAM_MARGIN * s2:
        return False
    m, n = A.shape
    spectra = ((sa, (m, n), None), (s_asa, (n, n), s2), (s_aas, (m, m), s2))
    return all(_rank_from_spectrum(s, shape, tol, scale).rank == r for s, shape, scale in spectra)


def _draw_isotropic(rng, m, n):
    # x = (1, 1, 0, ..., 0) satisfies x~x = 0, so A = x c* has A~A = 0
    x = np.zeros((m, 1), dtype=np.complex128)
    x[:2] = 1.0
    c = _cgauss(rng, n, 1)
    while fro(c) == 0.0:
        c = _cgauss(rng, n, 1)
    return x @ c.conj().T


def _draw_block_existent(rng, m, n, r, tol):
    for _ in range(_MAX_DRAWS):
        A1 = _cgauss(rng, r, r)
        s1 = np.linalg.svd(A1, compute_uv=False)
        if s1[-1] < _BLOCK_COND * s1[0]:
            continue
        A2 = _cgauss(rng, r, n - r)
        A3 = _cgauss(rng, m - r, r)
        A = np.block([[A1, A2], [A3, A3 @ np.linalg.inv(A1) @ A2]])
        if _well_margined(A, np.linalg.svd(A, compute_uv=False), r, tol):
            return A
    raise RetryExhausted(f"no well-margined block-existent draw in {_MAX_DRAWS} tries "
                         f"for {m}x{n} rank {r}")


def generate(spec: GenSpec, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Draw the matrix described by ``spec`` (deterministic per spec).

    EXISTENT multiplies two seeded Gaussian factors and rejects draws without
    a conditioning margin; the result always passes ``diagnose_existence``.
    ISOTROPIC returns a rank-1 matrix built on a light-cone vector, which
    never passes.  BLOCK_EXISTENT additionally has a nonsingular leading
    rank-by-rank block.  ARBITRARY is an unconstrained Gaussian.
    """
    rng = np.random.default_rng(np.random.PCG64(spec.seed))
    m, n, r = spec.rows, spec.cols, spec.rank
    if spec.kind is GenKind.EXISTENT:
        A = _draw_existent(rng, m, n, r, tol)
    elif spec.kind is GenKind.ISOTROPIC:
        A = _draw_isotropic(rng, m, n)
    elif spec.kind is GenKind.BLOCK_EXISTENT:
        A = _draw_block_existent(rng, m, n, r, tol)
    else:
        A = _cgauss(rng, m, n)
    return A * spec.scale


# ---------------------------------------------------------------------------
# candidate checking
# ---------------------------------------------------------------------------

def check_candidate(A, X, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Full audit of a candidate X against the defining equations of A^m.

    The audit runs on the normalized pair (2^-e A, 2^e X) of one compact SVD
    of 2^-e A (the factor-once gate of :mod:`~minkinv.minkowski`), with 2^e
    the power of two of :func:`~minkinv.dense_core.pow2_exponent`.  X is A^m
    exactly when 2^e X is (2^-e A)^m, and the relative residuals are the
    same, so the verdict does not depend on the scale of A.  That SVD is the
    only one the audit takes: its bases decide the range and null-space
    tests (see ``minkowski._space_tests``), and ``minkowski._audit`` builds
    the report, as it does for :func:`~minkinv.minkowski.moore_style_check`,
    ``cross_check`` and ``minkinv check``.  A candidate with ||2^e X|| of
    2^512 or more, whose square leaves the double range, fails with infinite
    residuals.
    """
    return mk._audit_pair(A, X, tol)


# ---------------------------------------------------------------------------
# cross-algorithm comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlgorithmOutcome:
    """Outcome of one algorithm inside a cross-check run."""

    name: str
    status: str                      # "ok" | "refused" | "failed"
    result: np.ndarray | None = None
    check: CheckReport | None = None
    detail: str = ""


@dataclass(frozen=True)
class CrossCheckReport:
    """Aggregate of every applicable algorithm on one input."""

    exists: bool
    diagnosis: "mk.ExistenceDiagnosis"
    outcomes: list
    max_gap: float | None
    verdict: bool
    forced: bool = False


def cross_check(A, tol: Tolerance = DEFAULT_TOL, force: bool = False) -> CrossCheckReport:
    """Run every applicable algorithm and compare the results pairwise.

    On an existent input the verdict is true when every algorithm's output
    passes :func:`check_candidate` and all pairwise gaps stay within the
    equality tolerance.  On a non-existent input the verdict is true when
    every algorithm refuses with NotExistent; under ``force=True`` the
    formulas are evaluated anyway and the verdict is true when every output
    that could be computed *fails* its check (the breakdown is observable).

    A is normalized and factored once, by the algorithms' gate (see
    :mod:`~minkinv.minkowski`), and that factorization serves every route,
    every audit and the one five-criterion diagnosis.  So is each product
    that several of them use, computed once and kept with it: A~A, AA~ and
    A~AA~ for the diagnosis and four routes, zlobec2's core SVDs for group,
    and FRF's Gram inverses for compose.  The routes are those
    of ``minkowski._ALGORITHMS`` at default parameters, but the block route,
    which needs the rank, and HS only on square A.  Each runs through
    ``minkowski._route``, as its entry point does, so its ``result`` is that
    entry point's bit for bit, and a route whose result leaves the double
    range fails, as the entry point raises.  Gaps are taken on the
    normalized results.
    """
    f = mk._factor(A, tol)
    diag = mk._diagnose(f)
    outcomes = []
    m, n = f.A.shape
    run_forced = force and not diag.exists
    computed = []                    # normalized results of the "ok" outcomes
    for key, algo in mk._ALGORITHMS.items():
        if "r" in algo.options or (algo.square and m != n):
            continue
        try:
            X, result = mk._route(key, f, run_forced)
            outcomes.append(AlgorithmOutcome(name=algo.name, status="ok",
                                             result=result, check=mk._audit(f, X)))
            computed.append(X)
        except NotExistent as exc:
            outcomes.append(AlgorithmOutcome(name=algo.name, status="refused", detail=str(exc)))
        except MinkinvError as exc:
            outcomes.append(AlgorithmOutcome(name=algo.name, status="failed", detail=str(exc)))

    max_gap = None
    if diag.exists:
        max_gap = max((fro(X - Y) / max(1.0, fro(X)) for X, Y in combinations(computed, 2)),
                      default=0.0)
        verdict = (len(computed) == len(outcomes) and all(o.check.verdict for o in outcomes)
                   and max_gap <= tol.eq_bound(1.0))
    elif not force:
        verdict = all(o.status == "refused" for o in outcomes)
    else:                            # every formula that produced output must fail its check
        verdict = all(not o.check.verdict for o in outcomes if o.status == "ok")
    return CrossCheckReport(exists=diag.exists, diagnosis=diag, outcomes=outcomes,
                            max_gap=max_gap, verdict=bool(verdict), forced=force)
