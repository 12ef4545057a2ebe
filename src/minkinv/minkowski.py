"""Minkowski adjoint, existence diagnostics, and Minkowski-inverse algorithms.

The metric is fixed to G = diag(1, -1, ..., -1), signature (1, n-1).  The
Minkowski adjoint of an m-by-n matrix is A~ = G_n A* G_m, and the Minkowski
inverse A^m is the unique X (when it exists) with

    (1) A X A = A   (2) X A X = X   (3m) (A X)~ = A X   (4m) (X A)~ = X A.

Existence is conditional: it fails exactly when R(A) or R(A~) leans into the
light cone, i.e. when rank(AA~) or rank(A~A) drops below rank(A).  Several
independent algorithms for A^m are provided; on any existent input they agree
up to rounding, which is what the verify module cross-checks.

Every algorithm gates on one factorization: a compact SVD of the normalized
matrix 2^-e A, with 2^e the power of two of :func:`pow2_exponent`, gives
A = 2^e B C, and NotExistent is raised unless both r-by-r metric Grams B~B
and CC~ are nonsingular.  That is the rank-triple criterion of
:func:`diagnose_existence`, whose five criteria run only where their
evidence is asked for.  The metric is a rank-one update of -I,
G = 2 e1 e1* - I, so each Gram is Sigma (2 u u* - I) Sigma up to sign flips,
with u the first row of a singular basis: the gate ranks it by an O(r)
inertia count, and :func:`mink_inverse` inverts it by Sherman-Morrison,
so neither forms a Gram.  The algorithm evaluates its formula on 2^-e A,
whose residuals equal those of (A, result), and ``dense_core._rescaled``
scales the result back by 2^-e: exactly while it stays in the normal range,
and else MinkinvError names it (A^m, of size |A|^-1, leaves from about
|A| = 2^1022 up and 2^-1022 down).  Each formula is a private core on the
factorization and 2^-e A, listed once in ``_ALGORITHMS`` and run by
:func:`_route`, which the public ``mink_inverse_*`` functions,
``cross_check`` (factoring A once for all) and ``minkinv inverse`` share.

The products that the diagnosis ranks and the Zlobec and group routes
invert have their column and row spaces among R(U_r), G R(U_r), R(V_r) and
G R(V_r) of that SVD, so each is formed from A and then factored on its
r-by-r core (``dense_core._core_svd``), not by an m-by-m or n-by-n SVD.
What several of them use is computed once per factorization and kept on it,
read-only (``_Factored.store``): A~, A~A, AA~ and A~AA~ of 2^-e A, the core
SVDs of A~A and AA~, and the Gram inverses (B~B)^-1 and (CC~)^-1.  Each is
the value every user would compute again from the same operands, bit for
bit, so the routes stay independent evaluations of their formulas.
Every singular-matrix refusal, and the forced pseudo-inverse that replaces
it, is ``dense_core._nonsingular`` / ``_inverse``; the gate's inertia count
ranks the metric Grams of the FRF route and of the {1,3m}/{1,4m} bases.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .dense_core import (
    DEFAULT_TOL,
    FullRankFactorization,
    HSDecomposition,
    Tolerance,
    _core_svd,
    _group_of_svd,
    _hs_from_svd,
    _inverse,
    _nonsingular,
    _one_inverse,
    _rank_from_spectrum,
    _rescaled,
    _shaped,
    as_matrix,
    fro,
    index_of,
    mats_close,
    moore_penrose,
    pow2_exponent,
    scale_pow2,
)
from .errors import (
    BlockSingular,
    InvalidWitness,
    MinkinvError,
    NotExistent,
    NotExistent13m,
    NotExistent14m,
    NotSquare,
    RankMismatch,
    Singular,
    ZeroMatrix,
)

__all__ = [
    "metric_signs", "apply_metric_left", "apply_metric_right",
    "mink_adjoint", "ExistenceDiagnosis", "diagnose_existence",
    "InverseComputation", "mink_inverse",
    "mink_inverse_frf", "mink_inverse_hs", "mink_inverse_zlobec",
    "mink_inverse_zlobec2", "mink_inverse_group", "mink_inverse_resolvent",
    "mink_inverse_block", "one_three_m", "one_four_m", "compose_13m_14m",
    "factorization_witnesses", "sylvester_witnesses", "MooreStyleReport",
    "moore_style_check", "bjerhammar_witnesses", "defining_residuals",
    "full_rank_factorization", "hs_decomposition",
]


def metric_signs(n: int) -> np.ndarray:
    """The diagonal of the order-n Minkowski metric: (1, -1, ..., -1)."""
    if n < 1:
        raise ValueError("metric order must be positive")
    g = np.ones(n)
    g[1:] = -1.0
    return g


def apply_metric_left(M: np.ndarray) -> np.ndarray:
    """G @ M realized as sign flips of rows 2..m."""
    out = M.copy()
    out[1:, :] *= -1.0
    return out


def apply_metric_right(M: np.ndarray) -> np.ndarray:
    """M @ G realized as sign flips of columns 2..n."""
    out = M.copy()
    out[:, 1:] *= -1.0
    return out


def mink_adjoint(A) -> np.ndarray:
    """Minkowski adjoint A~ = G_n A* G_m of an m-by-n matrix.

    Exact up to sign flips: (A~)~ == A holds bit for bit, and
    (A B)~ = B~ A~ holds up to rounding of the product itself.
    """
    A = as_matrix(A)
    return apply_metric_right(apply_metric_left(A.conj().T))


def defining_residuals(A, X) -> tuple[float, float, float, float]:
    """Relative residuals of the four defining equations for X against A.

    Returns (eq1, eq2, eq3m, eq4m) with
    eq1 = ||AXA - A|| / ||A||, eq2 = ||XAX - X|| / ||X||,
    eq3m = ||(AX)~ - AX|| / max(1, ||AX||) and eq4m analogously,
    all in Frobenius norm, taken on the normalized pair (2^-e A, 2^e X) of
    :func:`pow2_exponent`, whose norms stay in range; ||2^e X|| beyond it reads inf.
    """
    A = as_matrix(A)
    e = pow2_exponent(A)
    X = _candidate(X, A, e)
    return _relative_residuals(*_residual_norms(scale_pow2(A, -e), X)[:2])


def _candidate(X, A, e: int) -> np.ndarray:
    """2^e X of a candidate X for A, unchecked: an X beyond the double range keeps its infs."""
    X = _shaped("candidate", X, A.shape[::-1])
    with np.errstate(over="ignore"):
        return scale_pow2(X, e)


def _residual_norms(A, X):
    """The four defining-equation differences and their reference norms, each product once.

    Returns ((||AXA - A||, ||XAX - X||, ||(AX)~ - AX||, ||(XA)~ - XA||),
    (||A||, ||X||, ||AX||, ||XA||), XA) in Frobenius norm, with the product
    XA for a caller that needs it again; an X whose norm overflows forms no
    product, and reads infinite differences at unit norms and XA = None.
    """
    with np.errstate(over="ignore"):
        nX = fro(X)
    if not np.isfinite(nX):
        return (float("inf"),) * 4, (1.0,) * 4, None
    AX = A @ X
    XA = X @ A
    diffs = (fro(AX @ A - A), fro(XA @ X - X),
             fro(mink_adjoint(AX) - AX), fro(mink_adjoint(XA) - XA))
    return diffs, (fro(A), nX, fro(AX), fro(XA)), XA


def _relative_residuals(diffs, norms) -> tuple[float, float, float, float]:
    """(eq1, eq2, eq3m, eq4m) of :func:`defining_residuals` from :func:`_residual_norms`."""
    (d1, d2, d3, d4), (nA, nX, nAX, nXA) = diffs, norms
    return d1 / (nA or 1.0), d2 / (nX or 1.0), d3 / max(1.0, nAX), d4 / max(1.0, nXA)


# ---------------------------------------------------------------------------
# existence diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExistenceDiagnosis:
    """Verdicts of every implemented existence criterion, with the evidence.

    ``exists`` is the rank-triple test rank(AA~) = rank(A~A) = rank(A); the
    other criteria are provably equivalent, and ``criteria_agree`` records
    that they all returned the same verdict on this input.  ``ind_AAs`` and
    ``ind_AsA`` are true indices (0 for nonsingular products); the index
    criteria test rank(M^2) = rank(M), i.e. index at most one.
    """

    exists: bool
    rank_A: int
    rank_AAs: int
    rank_AsA: int
    rank_AsAAs: int
    ind_AAs: int
    ind_AsA: int
    resolvent_nonsingular: bool
    criteria: dict = field(repr=False)
    criteria_agree: bool = True

    def ranks(self) -> dict:
        return {
            "rank_A": self.rank_A,
            "rank_AAs": self.rank_AAs,
            "rank_AsA": self.rank_AsA,
            "rank_AsAAs": self.rank_AsAAs,
            "ind_AAs": self.ind_AAs,
            "ind_AsA": self.ind_AsA,
        }


def diagnose_existence(A, tol: Tolerance = DEFAULT_TOL) -> ExistenceDiagnosis:
    """Evaluate all five existence criteria for the Minkowski inverse.

    (a) rank(AA~) = rank(A~A) = rank(A);
    (b) rank(A~AA~) = rank(A);
    (c) rank((A~A)^2) = rank(A~A) and rank(A~A) = rank(A);
    (d) rank((AA~)^2) = rank(AA~) and rank([AA~ | A]) = rank(AA~);
    (e) A~A + I - A+ A nonsingular.

    ``exists`` is criterion (a).  The criteria are evaluated on the
    normalized matrix 2^-e A of :func:`pow2_exponent`, whose ranks are those
    of A, so the diagnosis does not depend on the scale of A.  All ranks
    share one cutoff convention, with product cutoffs anchored at the
    appropriate power of sigma_max(A); the resolvent, which mixes |A|^2 with
    1, is cut off at max(1, sigma_max(A)^2) with the width max(m, n) of the
    other product ranks.  Everything comes from one SVD of A, the gate's
    factorization (remembered like every gate's): rank(A), sigma_max(A), the
    projector A+ A = V_r V_r*, and the bases in which each product is
    ranked on its r-by-r core (see :func:`_diagnose`).  The indices come
    from rank(M) and rank(M^2), with :func:`index_of` walking further powers
    only when the index exceeds one.
    """
    return _diagnose(*_normalized(A, tol), tol)


def _diagnose(f: _Factored, A, tol: Tolerance) -> ExistenceDiagnosis:
    """:func:`diagnose_existence` of the normalized A factored by ``f``.

    Each product is formed from A, or read from the factorization's store
    where a route formed it first (:func:`_product`), then ranked on its
    core in the gate's bases (``dense_core._core_svd``): A~A and its square
    on G V_r / V_r, AA~ and its square on U_r / G U_r, A~AA~ on
    G V_r / G U_r, and [AA~ | A] on U_r from the left.  Forming first keeps
    the rounding of the product: a formed A~A that is exactly 0 ranks 0,
    where a core built from the factors can keep a rounding-sized value.  The resolvent is
    ranked on its own SVD, with A+ A = V_r V_r* taken without the rounding
    of forming A+ A, rounding that can make the resolvent of a light-cone
    draw look nonsingular.
    """
    n, rank_A = A.shape[1], f.r
    Ur, Vr = f.Ur, f.Vr
    GUr, GVr = apply_metric_left(Ur), apply_metric_left(Vr)
    AAs, AsA = _product(f, A, "AAs"), _product(f, A, "AsA")
    sA = f.s1
    s2 = sA * sA

    def rank(M, L, R, scale):
        return _core_svd(M, L, R, tol, scale, compute_uv=False).rank

    rank_AAs = rank(AAs, Ur, GUr, s2)
    rank_AsA = rank(AsA, GVr, Vr, s2)
    rank_AsAAs = rank(_product(f, A, "AsAAs"), GVr, GUr, s2 * sA)
    rank2_AsA = rank(AsA @ AsA, GVr, Vr, s2 * s2)
    rank2_AAs = rank(AAs @ AAs, Ur, GUr, s2 * s2)
    ind_AAs = _index(AAs, rank_AAs, rank2_AAs, tol, s2)
    ind_AsA = _index(AsA, rank_AsA, rank2_AsA, tol, s2)

    ind_le1_AsA = rank2_AsA == rank_AsA
    ind_le1_AAs = rank2_AAs == rank_AAs
    range_A_in_AAs = rank(np.hstack([AAs, A]), Ur, None, max(sA, s2)) == rank_AAs

    resolvent = AsA + np.eye(n, dtype=np.complex128) - Vr @ f.C
    resolvent_nonsingular = _rank_from_spectrum(np.linalg.svd(resolvent, compute_uv=False),
                                                A.shape, tol, scale=max(1.0, s2)).rank == n

    criteria = {
        "rank_triple": rank_AAs == rank_AsA == rank_A,
        "rank_sandwich": rank_AsAAs == rank_A,
        "index_AsA": ind_le1_AsA and rank_AsA == rank_A,
        "index_AAs": ind_le1_AAs and range_A_in_AAs,
        "resolvent": resolvent_nonsingular,
    }
    verdicts = set(criteria.values())
    return ExistenceDiagnosis(
        exists=criteria["rank_triple"],
        rank_A=rank_A,
        rank_AAs=rank_AAs,
        rank_AsA=rank_AsA,
        rank_AsAAs=rank_AsAAs,
        ind_AAs=ind_AAs,
        ind_AsA=ind_AsA,
        resolvent_nonsingular=resolvent_nonsingular,
        criteria=criteria,
        criteria_agree=len(verdicts) == 1,
    )


def _index(M, rank1: int, rank2: int, tol: Tolerance, scale: float) -> int:
    """``index_of(M, tol, scale)`` given rank(M) and rank(M^2) at the same cutoffs."""
    if rank1 == M.shape[0]:
        return 0
    if rank2 == rank1:
        return 1
    return index_of(M, tol, scale=scale)


def _core_pinv(M, L, R, tol: Tolerance, scale: float) -> np.ndarray:
    """pinv(M) = R pinv(L* M R) L*, truncated at M's cutoff (see ``dense_core._core_svd``)."""
    rep, U, Vh = _core_svd(M, L, R, tol, scale)
    return _svd_pinv(U, rep.singular_values[:rep.rank], Vh)


def _svd_pinv(U, s, Vh) -> np.ndarray:
    """pinv(M) of M = U diag(s) Vh, a compact SVD truncated at its rank."""
    return (Vh.conj().T / s) @ U.conj().T


# ---------------------------------------------------------------------------
# the factor-once gate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Factored:
    """One compact SVD of the normalized matrix: 2^-exp A = B C.

    ``sv`` is the full singular spectrum of 2^-exp A; ``s1`` is its largest
    value and ``s`` its leading r values, so U_r = B / s.
    B = U_r Sigma_r and C = V_r* are owned copies, so a refusal by the gate
    pins (m + n) r + min(m, n) entries, not the SVD's workspace.  When the
    gate passes, the factorization also keeps the complement bases ``Wr``
    and ``Wn`` on which the audits test candidates, where the rule of
    :func:`_space_tests` keeps them; a refusal raised after the gate passed
    also pins them.  A complement not kept is None.
    B+ = Sigma^-2 B*, C+ = C* and (2^-exp A)+ = C+ B+ follow in closed form.
    ``store`` keeps the values of 2^-exp A that several routes share, each
    computed on first use (see :func:`_stored`), so they are remembered and
    dropped with the SVD.

    The metric is a rank-one update of -I, G = 2 e1 e1* - I, so the
    Hermitian r-by-r Grams B* G B = Sigma (2 u u* - I) Sigma and
    C G C* = 2 v v* - I, with u = U_r* e1 and v = V_r* e1, are known from
    the SVD; they differ from B~B and CC~ by sign flips.  ``d_u`` and ``d_v``
    are their light-cone margins p*Gp / p*p, with p = U_r u (resp. V_r v)
    the projection of e1 on R(U_r) (resp. R(V_r)); in exact arithmetic
    d_u = 2 ||u||^2 - 1.  ``rank_BsB`` and ``rank_CCs`` are the ranks of
    B* G B and Sigma (C G C*) Sigma, which carry the nonzero singular
    values of A~A and AA~ (see :func:`_gram_rank`).
    """

    exp: int
    sv: np.ndarray
    B: np.ndarray
    C: np.ndarray
    d_u: float
    d_v: float
    rank_BsB: int
    rank_CCs: int
    Wr: np.ndarray | None = None
    Wn: np.ndarray | None = None
    store: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def r(self) -> int:
        return self.B.shape[1]

    @property
    def s1(self) -> float:
        return float(self.sv[0])

    @property
    def s(self) -> np.ndarray:
        return self.sv[:self.r]

    @property
    def Ur(self) -> np.ndarray:
        return self.B / self.s

    @property
    def Vr(self) -> np.ndarray:
        return self.C.conj().T

    @property
    def pinv_B(self) -> np.ndarray:
        return (self.B / self.s ** 2).conj().T

    @property
    def pinv_A(self) -> np.ndarray:
        return self.C.conj().T @ self.pinv_B

    @property
    def exists(self) -> bool:
        return self.rank_BsB == self.rank_CCs == self.r


def _cone_margin(Q, w) -> float:
    """p*Gp / p*p of p = Q w, the projection of e1 on R(Q) for w = Q* e1 (-1 when p = 0)."""
    g = np.abs(Q @ w) ** 2
    pp = g.sum()
    return float((g[0] - g[1:].sum()) / pp) if pp else -1.0


def _gram_rank(w, d: float, s2, cut: float) -> int:
    """Rank of Sigma (2 w w* - I) Sigma, Sigma^2 = diag(s2), with margin d = 2 ||w||^2 - 1.

    Counts the eigenvalues outside [-cut, cut] by inertia, in O(r).  With
    D = Sigma^2 + x I nonsingular, Haynsworth inertia additivity on the
    bordered matrix [[-D, Sigma w], [(Sigma w)*, -1/2]] gives

        #{eigenvalues < x} = #{i : s2_i > -x} - 1 + [t(x) < 0],
        #{eigenvalues > x} = #{i : s2_i < -x} + [t(x) > 0],
        t(x) = d / 2 - x sum_i |w_i|^2 / (s2_i + x),

    where the |w_i|^2 are rescaled to sum to (1 + d) / 2, so that the
    margin d, taken G-weighted from the basis, stands in for 2 ||w||^2 - 1
    and an exactly isotropic input keeps its exact 0.  ``cut`` is
    rank_rtol * max(m, n) * sigma_1^2, the size the metric product has
    without cancellation, so the O(eps) rounding of an exactly cancelling
    light-cone Gram ranks 0.  It takes max(m, n), not r, because the r-by-r
    Gram keeps more of that rounding than the full product does (a 6x2
    light-cone draw left 3.3e-16 against an order-2 cutoff of 2.7e-16).
    """
    a = np.abs(w) ** 2
    total = a.sum()
    a = a * ((1.0 + d) / (2.0 * total)) if total else a
    with np.errstate(divide="ignore", invalid="ignore"):
        over = d / 2 - cut * np.sum(a / (s2 + cut)) > 0         # t(cut) > 0
        under = d / 2 + cut * np.sum(a / (s2 - cut)) < 0        # t(-cut) < 0
    return int(over) + int(np.sum(s2 > cut)) - 1 + int(under)


_last = (None, None, None)   # (tol, private copy of A, _Factored) of the last _factor


def _forget_factor() -> None:
    """Drop the remembered factorization, so that the next :func:`_factor` is cold."""
    global _last
    _last = (None, None, None)


def _factor(A, tol: Tolerance) -> _Factored:
    """Normalize A by a power of two, take one compact SVD, rank the two Grams.

    The Grams are not formed: their light-cone margins come from the
    projections of e1 on the singular bases, and their ranks from an O(r)
    inertia count (:func:`_gram_rank`), so the SVD is the only LAPACK call.
    When the gate passes, the trailing singular vectors of the square
    factor, V when n <= m and U when m <= n, give the audits' complement
    bases ``Wr`` and ``Wn``, kept by the rule of :func:`_space_tests`.

    The last result is remembered with ``tol`` and a private copy of A: a
    later call with an equal ``tol`` on A of the same shape and bits (-0.0
    is not 0.0), compared as int64 words, returns the same ``_Factored``,
    with read-only arrays, and takes no LAPACK call.
    """
    global _last
    A = np.ascontiguousarray(A)
    last_tol, last_A, last_f = _last
    if last_tol == tol and last_A.shape == A.shape and np.array_equal(
            last_A.view(np.int64), A.view(np.int64)):
        return last_f
    exp = pow2_exponent(A)
    U, sv, Vh = np.linalg.svd(scale_pow2(A, -exp), full_matrices=False)
    r = _rank_from_spectrum(sv, A.shape, tol).rank
    Ur = U[:, :r]
    B = Ur * sv[:r]
    C = Vh[:r].copy()
    u, v = Ur[0].conj(), C[:, 0]                 # U_r* e1, V_r* e1
    d_u, d_v = (_cone_margin(Ur, u), _cone_margin(C.conj().T, v)) if r else (-1.0, -1.0)
    s2, cut = sv[:r] ** 2, tol.rank_rtol * max(A.shape) * float(sv[0]) ** 2
    ranks = (_gram_rank(u, d_u, s2, cut), _gram_rank(v, d_v, s2, cut)) if r else (0, 0)
    f = _Factored(exp, sv, B, C, d_u, d_v, *ranks)
    if f.exists:
        m, n = A.shape
        f = replace(f, Wr=apply_metric_right(Vh[r:]) if n <= m and n - r <= 2 * r else None,
                    Wn=apply_metric_left(U[:, r:]) if m <= n and m - r <= 2 * r else None)
    for a in (sv, B, C, f.Wr, f.Wn):
        if a is not None:
            a.flags.writeable = False
    _last = (tol, A.copy(), f)
    return f


def _require_existence(f: _Factored, force: bool = False) -> _Factored:
    """``f``, or NotExistent (unless ``force``) when one of its Grams is singular.

    Raised here, after ``_factor`` returned, so the traceback a caller keeps
    holds only the owned factors, not the SVD's full-size arrays.
    """
    if not (f.exists or force):
        raise NotExistent("Minkowski inverse does not exist: "
                          f"rank(A)={f.r}, rank(AA~)={f.rank_CCs}, rank(A~A)={f.rank_BsB}")
    return f


def _normalized(A, tol: Tolerance) -> tuple[_Factored, np.ndarray]:
    """(f, 2^-e A): ``as_matrix`` of A, its factorization f, and the normalized A that f factored.

    The prologue of every entry point that runs on 2^-e A, so that each
    converts and checks its input once.
    """
    A = as_matrix(A)
    f = _factor(A, tol)
    return f, scale_pow2(A, -f.exp)


def _stored(f: _Factored, key, make: Callable):
    """``make()``, an array or a tuple of arrays, kept read-only on ``f`` under ``key``.

    ``key`` names one value of the normalized A that ``f`` factored, with
    every further argument it depends on.  The memo of :func:`_factor` keeps
    one ``f`` per bits of A and tolerance, so a stored value is the one that
    computing it again would give, bit for bit.
    """
    if key not in f.store:
        value = make()
        for a in value if isinstance(value, tuple) else (value,):
            a.flags.writeable = False
        f.store[key] = value
    return f.store[key]


# Each product of the normalized A that several routes and the diagnosis use,
# formed in the one order they all form it in.
_PRODUCTS = {
    "As": lambda f, A: mink_adjoint(A),
    "AsA": lambda f, A: _product(f, A, "As") @ A,
    "AAs": lambda f, A: A @ _product(f, A, "As"),
    "AsAAs": lambda f, A: _product(f, A, "AsA") @ _product(f, A, "As"),
}


def _product(f: _Factored, A, name: str) -> np.ndarray:
    """A~ ("As"), A~A, AA~ or A~AA~ of the normalized A that ``f`` factored, stored."""
    return _stored(f, name, lambda: _PRODUCTS[name](f, A))


def _gram_core(f: _Factored, A, name: str, p: int, tol: Tolerance):
    """(U, s, Vh), the compact SVD of (AA~)^p ("AAs") or (A~A)^p ("AsA"), stored.

    Taken on the r-by-r core of the product (``dense_core._core_svd``), AA~
    on U_r / G U_r and A~A on G V_r / V_r, at the anchor sigma_1^(2p) of
    the normalized A that ``f`` factored; s holds the singular values above
    that cutoff.  The group route and the split Zlobec route share p = 1.
    """
    def make():
        M = np.linalg.matrix_power(_product(f, A, name), p)
        L, R = (f.Ur, apply_metric_left(f.Ur)) if name == "AAs" else (apply_metric_left(f.Vr), f.Vr)
        rep, U, Vh = _core_svd(M, L, R, tol, f.s1 ** (2 * p))
        return U, rep.singular_values[:rep.rank], Vh

    return _stored(f, ("core", name, p), make)


def _gram_inverse(f: _Factored, name: str, tol: Tolerance) -> np.ndarray:
    """(B~B)^-1 ("BsB") or (CC~)^-1 ("CCs") of the normalized factors, stored.

    A Gram that the gate ranks singular is pseudo-inverted, as a forced
    route asks.
    """
    def make():
        M, rank = ((mink_adjoint(f.B) @ f.B, f.rank_BsB) if name == "BsB"
                   else (f.C @ mink_adjoint(f.C), f.rank_CCs))
        return np.linalg.inv(M) if rank == f.r else moore_penrose(M, tol)

    return _stored(f, name, make)


def _frf(f: _Factored, tol: Tolerance) -> np.ndarray:
    """C~ (CC~)^-1 (B~B)^-1 B~ of the normalized factors; singular Grams are pseudo-inverted.

    Raises ZeroMatrix for rank 0.
    """
    if f.r == 0:
        raise ZeroMatrix("cannot factor a numerically zero matrix")
    return (mink_adjoint(f.C) @ _gram_inverse(f, "CCs", tol) @ _gram_inverse(f, "BsB", tol)
            @ mink_adjoint(f.B))


def _inverse_of(f: _Factored) -> np.ndarray:
    """(2^-e A)^m = 2^e A^m from the factorization of an existent A (0 for rank 0).

    The formula of :func:`_frf` with both Gram inverses in closed form.  With
    G = 2 e1 e1* - I, Sherman-Morrison gives (2 u u* - I)^-1 = -I + (2/d_u) u u*
    and likewise for v, so C~ (CC~)^-1 (B~B)^-1 B~ of 2^-e A is

        G (-V_r + (2/d_v) q v*) Sigma^-1 (-U_r* + (2/d_u) u p*) G,

    with p = U_r u and q = V_r v: one n-by-r by r-by-m product, and no Gram
    product or inverse.
    """
    if f.r == 0:
        return np.zeros((f.C.shape[1], f.B.shape[0]), dtype=np.complex128)
    Ur, Vr = f.Ur, f.Vr
    u, v = Ur[0].conj(), f.C[:, 0]
    left = np.outer((2 / f.d_v) * (Vr @ v), v.conj()) - Vr
    right = np.outer((2 / f.d_u) * u, (Ur @ u).conj()) - Ur.conj().T
    return apply_metric_left(left / f.s) @ apply_metric_right(right)


# ---------------------------------------------------------------------------
# auditing a candidate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckReport:
    """Residuals and space identities of a Minkowski-inverse candidate.

    eq1..eq4m are the relative residuals of the defining equations.
    ``range_ok`` decides R(X) = R(A~) and ``null_ok`` decides N(X) = N(A~)
    on the singular bases of one factorization of A; ``residual_range`` and
    ``residual_null`` are the parts of X outside those spaces, relative to
    max(1, ||X||) (see :func:`_space_tests`).  ``verdict`` is the
    conjunction.
    """

    eq1: float
    eq2: float
    eq3m: float
    eq4m: float
    range_ok: bool
    null_ok: bool
    verdict: bool
    residual_range: float
    residual_null: float

    def residuals(self) -> dict:
        return {"eq1": self.eq1, "eq2": self.eq2, "eq3m": self.eq3m, "eq4m": self.eq4m}


@dataclass(frozen=True)
class MooreStyleReport:
    """Verdict of the identity-based decision procedure for X = A^m.

    The three tests realize: X acts as a left inverse on R(A~)
    (XAA~ = A~), X annihilates N(A~), and R(X) is contained in R(A~).
    ``satisfies_defining_equations`` holds when equations (1), (2), (3m)
    and (4m) hold within the bounds of ``check_candidate``.  ``is_inverse``
    is the conjunction of all four tests (false as well when no Minkowski
    inverse exists at all).
    """

    is_inverse: bool
    acts_identity_on_adjoint_range: bool
    annihilates_adjoint_nullspace: bool
    range_within_adjoint_range: bool
    satisfies_defining_equations: bool
    residual_identity: float
    residual_nullspace: float
    exists: bool


def moore_style_check(A, X, tol: Tolerance = DEFAULT_TOL) -> MooreStyleReport:
    """Decide X = A^m by range/null-space identities, without computing A^m.

    Tests XAA~ = A~, X v = 0 for every v in N(A~), and R(X) within R(A~).
    All three hold iff X is the Minkowski inverse.  The identity test's
    bound grows with ||X||, so near the light cone it can pass an X whose
    defining equations fail: the verdict also requires those equations
    within the bounds of ``check_candidate``.  The tests run on the
    normalized pair (2^-e A, 2^e X) of :func:`pow2_exponent`, which has the
    same answer, so the verdict does not depend on the scale of A.
    ``exists`` comes from the factor-once gate's factorization of 2^-e A
    (see the module docstring), the only SVD the check takes; its bases
    decide the two space tests (see :func:`_space_tests`).
    Verdict-producing: never raises on a failing candidate; one with
    ||2^e X|| beyond the double range fails every test with infinite
    residuals.
    """
    return _audit_pair(A, X, tol, identity=True)[1]


def _audit_pair(A, X, tol: Tolerance, identity: bool = False):
    """:func:`_audit` of the normalized pair (2^-e A, 2^e X), with f the factorization of A."""
    f, A = _normalized(A, tol)
    return _audit(f, A, _candidate(X, A, f.exp), tol, identity)


def _audit(f: _Factored, A, X, tol: Tolerance, identity: bool = False):
    """The :class:`CheckReport` of the normalized pair (A, X), with ``f`` the factorization of A.

    One :func:`_residual_norms` and one :func:`_space_tests` serve the
    report.  Equations (1) and (2) make X a {1,2}-inverse of A, so
    rank(X) = rank(A~), and the two space inclusions are then the
    equalities R(X) = R(A~) and N(X) = N(A~).  With ``identity`` it returns
    (check, moore), adding the :class:`MooreStyleReport` of
    :func:`moore_style_check`, whose identity residual ||XAA~ - A~|| is
    formed as (XA) A~ from the XA that the defining equations took; without
    it no identity product is formed.  An X whose norm overflows forms no
    product: every test fails with infinite residuals.
    """
    diffs, norms, XA = _residual_norms(A, X)
    nX = norms[1]
    if XA is None:
        range_ok, null_ok, res_range, res_null = False, False, np.inf, np.inf
    else:
        range_ok, null_ok, res_range, res_null = _space_tests(f, X, nX, tol)
    eqs_ok = all(d <= tol.eq_bound(n) for d, n in zip(diffs, norms))
    eq1, eq2, eq3m, eq4m = _relative_residuals(diffs, norms)
    check = CheckReport(
        eq1=eq1, eq2=eq2, eq3m=eq3m, eq4m=eq4m,
        range_ok=bool(range_ok), null_ok=bool(null_ok),
        verdict=bool(eqs_ok and range_ok and null_ok),
        residual_range=res_range, residual_null=res_null,
    )
    if not identity:
        return check
    As = mink_adjoint(A)
    if XA is None:
        d_id, ok_id = float("inf"), False
    else:
        d_id = fro(XA @ As - As)
        ok_id = d_id <= tol.eq_bound(max(fro(As), nX * fro(A)))
    return check, MooreStyleReport(
        is_inverse=bool(f.exists and ok_id and null_ok and range_ok and eqs_ok),
        acts_identity_on_adjoint_range=bool(ok_id),
        annihilates_adjoint_nullspace=bool(null_ok),
        range_within_adjoint_range=bool(range_ok),
        satisfies_defining_equations=bool(eqs_ok),
        residual_identity=float(d_id / max(1.0, fro(As))),
        residual_nullspace=float(res_null),
        exists=bool(f.exists),
    )


def _space_tests(f: _Factored, X, nX: float, tol: Tolerance):
    """(range_ok, null_ok, residual_range, residual_null) of an n-by-m X with nX = ||X||.

    With 2^-e A = U Sigma V* factored by ``f``, R(A~) = G R(V_r) and
    N(A~) = G N(A*) = G R(U_c), where U_c and V_c are the trailing singular
    vectors.  So X maps into R(A~) iff its part in the complement G R(V_c)
    vanishes, and X kills N(A~) iff X G U_c = 0.  Each test passes when its
    residual is within the equality bound at ||X||; a residual whose
    complement is empty is 0.  The residuals are returned relative to
    max(1, ||X||).

    The complement-or-projection rule.  Where the gate passed, ``f`` keeps
    each complement basis that the compact SVD holds in full and that is no
    wider than 2r, and the test reads one product on it:

    * ``Wr`` = V_c* G, whose rows span R(A~)^perp, when n <= m and
      n - r <= 2r; the residual is ||Wr X||, a product of width n - r;
    * ``Wn`` = G U_c, whose columns span N(A~), when m <= n and
      m - r <= 2r; the residual is ||X Wn||, a product of width m - r.

    Otherwise (a refused gate, as in a forced route's audit or an audit of
    a candidate for A without an inverse, the longer side of a non-square
    A, or a low-rank A whose complement is wider than 2r) the test
    projects: the residual is ||X - Qr Qr* X||, or ||X - X Qn Qn*||, on
    the orthonormal basis Qr = G V_r of R(A~), or Qn = G U_r of
    N(A~)^perp, two products of width r.  A complement no wider than 2r
    costs no more than that projection; a full SVD would hold both
    complements, but on a non-square A forming its extra columns costs
    more than they save.
    """
    m, n = f.B.shape[0], f.C.shape[1]
    d_range = d_null = 0.0
    if f.Wr is not None:
        d_range = fro(f.Wr @ X)
    elif f.r < n:
        Qr = apply_metric_left(f.Vr)
        d_range = fro(X - Qr @ (Qr.conj().T @ X))
    if f.Wn is not None:
        d_null = fro(X @ f.Wn)
    elif f.r < m:
        Qn = apply_metric_left(f.Ur)
        d_null = fro(X - (X @ Qn) @ Qn.conj().T)
    bound = tol.eq_bound(nX)
    scale = max(1.0, nX)
    return d_range <= bound, d_null <= bound, d_range / scale, d_null / scale


# ---------------------------------------------------------------------------
# inverse algorithms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InverseComputation:
    """Output of one inverse algorithm: the result plus its own evidence.

    ``residuals`` holds the relative residuals of the four defining equations
    (see :func:`defining_residuals`); ``gap`` records the relative distance
    between two internal routes when the algorithm computes both.
    """

    algorithm: str
    result: np.ndarray
    residuals: tuple[float, float, float, float]
    gap: float | None = None


def _dual_gap(X, X2, tol: Tolerance, force: bool, what: str):
    """(X, gap) with gap = ||X2 - X|| / max(1, ||X||), X2 a route's second form of X.

    Unless ``force``, a gap beyond the equality bound at ||X|| raises
    MinkinvError as an internal inconsistency, "<what> by <gap>".
    """
    d, nX = fro(X2 - X), fro(X)
    gap = d / max(1.0, nX)
    if not (force or d <= tol.eq_bound(nX)):
        raise MinkinvError(f"internal inconsistency: {what} by {gap:.3e}")
    return X, gap


def _run(key: str, A, tol: Tolerance, force: bool, **params) -> InverseComputation:
    """Route ``key`` of :data:`_ALGORITHMS` on A, for its entry point and ``minkinv inverse``.

    Rejects negative exponents, factors A once and runs :func:`_route` on
    2^-e A.  The residuals are those of the normalized pair, which equal
    the residuals of (A, result).
    """
    if params.get("k", 0) < 0 or params.get("l", 0) < 0:
        raise ValueError("exponents must be nonnegative")
    f, A = _normalized(A, tol)
    X, result, gap = _route(key, f, A, tol, force, **params)
    algo = _ALGORITHMS[key]
    options = ",".join(f"{o}={params[o]}" for o in algo.options)
    return InverseComputation(algorithm=f"{algo.name}({options})" if options else algo.name,
                              result=result, gap=gap,
                              residuals=_relative_residuals(*_residual_norms(A, X)[:2]))


def _route(key: str, f: _Factored, A, tol: Tolerance, force: bool, **params):
    """(X, result, gap) of route ``key`` on the normalized A that ``f`` factored.

    The route's preconditions, its gate when ``gated``, its core for X and the result
    2^-e X by :func:`_rescaled`, for ``_run`` and ``verify.cross_check``.
    """
    algo = _ALGORITHMS[key]
    m, n = A.shape
    if algo.square and m != n:
        raise NotSquare(f"this route needs a square matrix, got {A.shape}")
    if "r" in algo.options:      # the caller's rank, with a nonsingular leading block
        r = params["r"]
        if not 1 <= r <= min(m, n):
            raise RankMismatch(f"r must be within 1..{min(m, n)}, got {r}")
        if f.r != r:
            raise RankMismatch(f"rank(A)={f.r} does not match the requested r={r}")
        _nonsingular(A[:r, :r], f"leading {r}x{r} block", BlockSingular, tol)
    if algo.gated:
        _require_existence(f, force)
    X, gap = algo.core(f, A, tol, force, **params)
    return X, _rescaled(f"{algo.name} result", X, -f.exp), gap


def mink_inverse_frf(A, tol: Tolerance = DEFAULT_TOL, force: bool = False) -> InverseComputation:
    """Minkowski inverse via a full-rank factorization A = B C.

    Evaluates C~ (C C~)^-1 (B~ B)^-1 B~ on the factors of one compact SVD of
    the normalized matrix 2^-e A (see :func:`pow2_exponent`), then scales the
    result by 2^-e (see :func:`_rescaled`), so it is bit-for-bit covariant
    under powers of two.  The same factorization is the existence gate:
    NotExistent unless both r-by-r Grams B~B and CC~ are nonsingular, which
    is the rank-triple criterion of :func:`diagnose_existence`.  ``force``
    evaluates the formula anyway, pseudo-inverting the singular Grams, to
    demonstrate the breakdown.  Raises ZeroMatrix when the numerical rank is 0.
    """
    return _run("frf", A, tol, force)


def mink_inverse_hs(A, tol: Tolerance = DEFAULT_TOL, force: bool = False) -> InverseComputation:
    """Minkowski inverse of a square matrix from its Hartwig-Spindelbock form.

    With U* G U partitioned into blocks G1..G4 against the rank split and
    Delta = [K L] U* G U [K L]*, the inverse is

        G U [[K* (G1 Sigma Delta)^-1, 0], [L* (G1 Sigma Delta)^-1, 0]] U* G.

    Nonsingularity of G1 and Delta is the existence condition, which the
    gate decides; a singular G1 Sigma Delta raises NotExistent.  The result
    is cross-checked against the equivalent expanded block form; the
    agreement gap is recorded.  Gated and run on 2^-e A like every algorithm.
    """
    return _run("hs", A, tol, force)


def _hs(f: _Factored, A, tol: Tolerance, force: bool):
    """(X, gap) of :func:`mink_inverse_hs` on the normalized square A."""
    n = A.shape[0]
    hs, UGU, G1, KL, Delta, Sigma = _hs_blocks(f)
    r, U = hs.r, hs.U
    G2 = UGU[:r, r:]
    G3 = UGU[r:, :r]
    G4 = UGU[r:, r:]
    core_inv = _inverse(G1 @ Sigma @ Delta, "G1 Sigma Delta", NotExistent, tol,
                        hs.sigma[0], force)
    blk = np.zeros((n, n), dtype=np.complex128)
    blk[:r, :r] = hs.K.conj().T @ core_inv
    blk[r:, :r] = hs.L.conj().T @ core_inv
    X = apply_metric_left(U) @ blk @ apply_metric_right(U.conj().T)

    # expanded form over the same block split
    t_top = G1 @ hs.K.conj().T + G2 @ hs.L.conj().T
    t_bot = G3 @ hs.K.conj().T + G4 @ hs.L.conj().T
    sd_inv = _inverse(Sigma @ Delta, "Sigma Delta", NotExistent, tol, hs.sigma[0], force)
    expanded = np.zeros((n, n), dtype=np.complex128)
    expanded[:r, :r] = t_top @ sd_inv
    expanded[:r, r:] = t_top @ core_inv @ G2
    expanded[r:, :r] = t_bot @ sd_inv
    expanded[r:, r:] = t_bot @ core_inv @ G2
    return _dual_gap(X, U @ expanded @ U.conj().T, tol, force, "expanded form differs")


def _hs_blocks(f: _Factored):
    """(hs, U*GU, its r-by-r block G1, [K L], Delta, Sigma) of the HS form of the normalized A."""
    hs = _hs_from_svd(f.Ur, f.s, f.C)
    UGU = hs.U.conj().T @ apply_metric_left(hs.U)
    KL = np.hstack([hs.K, hs.L])
    Delta = KL @ UGU @ KL.conj().T
    return hs, UGU, UGU[:hs.r, :hs.r], KL, Delta, np.diag(hs.sigma).astype(np.complex128)


def mink_inverse_zlobec(A, k: int = 0, l: int = 0, W=None,
                        tol: Tolerance = DEFAULT_TOL, force: bool = False) -> InverseComputation:
    """Generalized Zlobec formula with free exponents and a free {1}-inverse.

    Evaluates (A~A)^k A~ [ (A~A)^(k+l+1) A~ ]^(1) (A~A)^l A~, where the inner
    {1}-inverse is sampled as by ``one_inverse_sample``, with parameter ``W``
    (``W=None`` takes the pseudoinverse).  The result is independent of k, l
    and W in exact arithmetic; k = l = 0 is the classic A~ (A~AA~)^(1) A~.
    In floating point the W terms cancel only up to eps times the condition
    of the inverted power, so keep ``W`` comparable in magnitude to that
    product's pseudoinverse scale when k + l > 0.  Gated and run on 2^-e A
    like every algorithm (see the module docstring); ``W`` parameterizes the
    {1}-inverse of that normalized product.
    """
    return _run("zlobec", A, tol, force, k=k, l=l, W=W)


def _zlobec(f: _Factored, A, tol: Tolerance, force: bool, k: int = 0, l: int = 0, W=None):
    """(X, None) of :func:`mink_inverse_zlobec` on the normalized A factored by ``f``."""
    power = np.linalg.matrix_power
    As, AsA = _product(f, A, "As"), _product(f, A, "AsA")
    mid = _product(f, A, "AsAAs") if k + l == 0 else power(AsA, k + l + 1) @ As
    GUr, GVr = apply_metric_left(f.Ur), apply_metric_left(f.Vr)
    inner = _one_inverse(mid, _core_pinv(mid, GVr, GUr, tol, f.s1 ** (2 * (k + l + 1) + 1)), W)
    X = (power(AsA, k) @ As if k else As) @ inner
    return (X @ power(AsA, l) if l else X) @ As, None


def mink_inverse_zlobec2(A, k: int = 0, l: int = 0, W1=None, W2=None,
                         tol: Tolerance = DEFAULT_TOL, force: bool = False) -> InverseComputation:
    """Split Zlobec-style formula using two independent {1}-inverses.

    Evaluates
    (A~A)^k A~ [ (AA~)^(k+1) ]^(1) A [ (A~A)^(l+1) ]^(1) (A~A)^l A~ with the
    two inner {1}-inverses sampled independently via W1 and W2.  At
    k = l = 0 this is A~ (AA~)^(1) A (A~A)^(1) A~.  Gated and run on 2^-e A
    like every algorithm (see the module docstring).
    """
    return _run("zlobec2", A, tol, force, k=k, l=l, W1=W1, W2=W2)


def _zlobec2(f: _Factored, A, tol: Tolerance, force: bool, k: int = 0, l: int = 0,
             W1=None, W2=None):
    """(X, None) of :func:`mink_inverse_zlobec2` on the normalized A factored by ``f``."""
    power = np.linalg.matrix_power
    As, AsA = _product(f, A, "As"), _product(f, A, "AsA")

    def inner(name, p, W):               # [(Gram)^p]^(1) of the parameter W
        Mp = _svd_pinv(*_gram_core(f, A, name, p, tol))
        return Mp if W is None else _one_inverse(power(_product(f, A, name), p), Mp, W)

    X = (power(AsA, k) @ As if k else As) @ inner("AAs", k + 1, W1) @ A @ inner("AsA", l + 1, W2)
    return (X @ power(AsA, l) if l else X) @ As, None


def mink_inverse_group(A, tol: Tolerance = DEFAULT_TOL, force: bool = False) -> InverseComputation:
    """Minkowski inverse through group inverses of the metric Gram products.

    Computes both (A~A)# A~ and A~ (AA~)#; existence makes both products
    index-one and the two expressions equal.  Returns the first with the
    agreement gap recorded.  Gated and run on 2^-e A like every algorithm
    (see the module docstring).
    """
    return _run("group", A, tol, force)


def _group(f: _Factored, A, tol: Tolerance, force: bool):
    """(X, gap) of :func:`mink_inverse_group` on the normalized A factored by ``f``.

    Each Gram product is formed, then factored on its r-by-r core (A~A on
    G V_r / V_r, AA~ on U_r / G U_r) for ``dense_core._group_of_svd``.
    """
    As, s2 = _product(f, A, "As"), f.s1 ** 2

    def grp(name, n):
        return _group_of_svd(*_gram_core(f, A, name, 1, tol), (n, n), tol, s2, force)

    X1 = grp("AsA", A.shape[1]) @ As
    X2 = As @ grp("AAs", A.shape[0])
    return _dual_gap(X1, X2, tol, force, "dual group forms differ")


def mink_inverse_resolvent(A, W=None, tol: Tolerance = DEFAULT_TOL,
                           force: bool = False) -> InverseComputation:
    """Minkowski inverse via the shifted-Gram resolvent.

    Builds the {1}-inverse A1 = A+ + W - A+ A W A A+ and returns
    (A (A~A + I - A1 A)^-1)~, cross-checked against the dual form
    ((AA~ + I - A A1)^-1 A)~.  Nonsingularity of the shifted matrix is
    equivalent to existence; a singular resolvent after a passing gate
    raises Singular as an internal inconsistency.  Gated and run on 2^-e A
    like every algorithm (see the module docstring), which keeps the shift I
    at the scale of A~A; A+ comes from the gate's factorization.
    """
    return _run("resolvent", A, tol, force, W=W)


def _resolvent(f: _Factored, A, tol: Tolerance, force: bool, W=None):
    """(X, gap) of :func:`mink_inverse_resolvent` on the normalized A factored by ``f``."""
    m, n = A.shape
    A1 = _one_inverse(A, f.pinv_A, W)
    anchor = max(1.0, f.s1 ** 2)
    left = _inverse(_product(f, A, "AsA") + np.eye(n, dtype=np.complex128) - A1 @ A,
                    "resolvent", Singular, tol, anchor, force)
    right = _inverse(_product(f, A, "AAs") + np.eye(m, dtype=np.complex128) - A @ A1,
                     "dual resolvent", Singular, tol, anchor, force)
    return _dual_gap(mink_adjoint(A @ left), mink_adjoint(right @ A), tol, force,
                     "dual resolvent forms differ")


def mink_inverse_block(A, r: int, tol: Tolerance = DEFAULT_TOL,
                       force: bool = False) -> InverseComputation:
    """Minkowski inverse from the bordered blocks of a rank-r matrix.

    For A of rank r whose leading r-by-r block A1 is nonsingular (so
    A4 = A3 A1^-1 A2), evaluates

        (A1 A2)~ [ (A1; A3)~ A (A1 A2)~ ]^-1 (A1; A3)~

    using the first r rows and first r columns of A.  For nonsingular A
    (r = m = n) this collapses to A~ (A~AA~)^-1 A~ = A^-1.  Gated and run on
    2^-e A like every algorithm (see the module docstring); the rank of the
    gate's factorization must equal ``r``.
    """
    return _run("block", A, tol, force, r=r)


def _block(f: _Factored, A, tol: Tolerance, force: bool, r: int):
    """(X, None) of :func:`mink_inverse_block` on the normalized A factored by ``f``."""
    P = mink_adjoint(A[:r, :])   # n x r
    S = mink_adjoint(A[:, :r])   # r x m
    mid_inv = _inverse(S @ A @ P, "bordered core", Singular, tol, f.s1 ** 3, force)
    return P @ mid_inv @ S, None


def mink_inverse(A, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """The Minkowski inverse A^m, or NotExistent.

    Canonical entry point used by the rest of the package.  It factors A
    once: one compact SVD of the normalized matrix 2^-e A gives A = 2^e B C,
    the rank-r Grams B~B and CC~ decide existence (the rank-triple criterion
    of :func:`diagnose_existence`, without its other four criteria), and
    A^m = 2^-e C~ (CC~)^-1 (B~B)^-1 B~.  The Grams are ranked by an inertia
    count and inverted by Sherman-Morrison from the SVD alone, so the SVD is
    its only LAPACK call; ``mink_inverse_frf`` evaluates the same formula
    with formed and inverted Grams.  Scaling by 2^e is exact, so
    ``mink_inverse(2**j * A) == mink_inverse(A) / 2**j`` bit for bit while
    A^m stays in the normal range; beyond it MinkinvError names A^m (see
    :func:`_rescaled`).  The zero matrix maps to the zero matrix (every
    defining equation holds trivially for X = 0).
    """
    f = _require_existence(_factor(as_matrix(A), tol))
    return _rescaled("A^m", _inverse_of(f), -f.exp)


def full_rank_factorization(A, tol: Tolerance = DEFAULT_TOL) -> FullRankFactorization:
    """A = B C with B = 2^e U_r Sigma_r and C = V_r* from the gate's SVD of 2^-e A.

    Raises ZeroMatrix when the numerical rank is 0, and MinkinvError naming
    B where B leaves the double range.
    """
    f = _factor(as_matrix(A), tol)
    if f.r == 0:
        raise ZeroMatrix("cannot factor a numerically zero matrix")
    return FullRankFactorization(B=_rescaled("B", f.B, f.exp), C=f.C.copy(), r=f.r)


def hs_decomposition(A, tol: Tolerance = DEFAULT_TOL) -> HSDecomposition:
    """Hartwig-Spindelbock form of a square A, from the gate's SVD of 2^-e A.

    Raises NotSquare for rectangular input, ZeroMatrix for rank 0, and
    MinkinvError naming sigma where 2^e sigma leaves the double range.
    """
    A = as_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise NotSquare(f"decomposition is defined for square matrices, got {A.shape}")
    f = _factor(A, tol)
    return _hs_from_svd(f.Ur, _rescaled("sigma", f.s, f.exp), f.C)


# ---------------------------------------------------------------------------
# {1,3m} / {1,4m} families and composition
# ---------------------------------------------------------------------------

def one_three_m(A, Y=None, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """A member of A{1,3m}, i.e. X with AXA = A and (AX)~ = AX.

    Such X exist iff rank(A~A) = rank(A) >= 1 (NotExistent13m otherwise).
    The base member is C+ (B~B)^-1 B~ from a full-rank factorization A = BC,
    and the full family is swept by X = base + (I - base A) Y.  Every member
    satisfies A~AX = A~, and AX is the same oblique projector onto R(A)
    along N(A~) for all members.

    Existence and scale come from the factorization of the algorithms' gate
    (see the module docstring): rank(A) is its rank r and rank(A~A) the rank
    of its Gram B~B, the member is evaluated on the factors B, C of 2^-e A,
    with 2^e Y in place of Y, and scaled back by 2^-e; MinkinvError names Y
    or X where either scaling leaves the double range.  Once the Y term
    outweighs the base, its rounding can break eqs (1) and (3m), so a member
    that Y selects is checked against them on 2^-e A, and InvalidWitness
    names X where it fails (for unit-size Y, from |A| of about 1e6 on).
    """
    f, A = _normalized(A, tol)
    X = _member_13m(f, A, tol, Y)
    return _rescaled("X", X if Y is None else _witness("X", A, X, 2, tol), -f.exp)


def _member_13m(f: _Factored, A, tol: Tolerance, Y=None) -> np.ndarray:
    """The member of (2^-e A){1,3m} that 2^e Y selects (the base C+ (B~B)^-1 B~ for Y=None).

    A nonsingular Gram at the gate's cutoff is also nonsingular at the
    looser cutoff of :func:`numerical_rank`, so B~B is inverted directly,
    once per factorization with the FRF route (:func:`_gram_inverse`).
    """
    if f.r == 0 or f.rank_BsB != f.r:
        raise NotExistent13m(f"rank(A~A)={f.rank_BsB} != rank(A)={f.r} (or rank 0)")
    X = f.C.conj().T @ _gram_inverse(f, "BsB", tol) @ mink_adjoint(f.B)
    if Y is None:
        return X
    Y = _rescaled("Y", _shaped("Y", Y, X.shape), f.exp, param=True)
    return X + (np.eye(X.shape[0], dtype=np.complex128) - X @ A) @ Y


def one_four_m(A, Z=None, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """A member of A{1,4m}, i.e. X with AXA = A and (XA)~ = XA.

    Dual of :func:`one_three_m`: exists iff rank(AA~) = rank(A) >= 1
    (NotExistent14m otherwise), base member C~ (CC~)^-1 B+, family swept by
    X = base + Z (I - A base).  Every member satisfies XAA~ = A~, and XA is
    the projector onto R(A~) along N(A) for all members.  Existence and
    scale come from the gate's factorization, and a member that Z selects
    is checked against eqs (1) and (4m), as in :func:`one_three_m`, with
    rank(AA~) the rank of its Gram CC~.
    """
    f, A = _normalized(A, tol)
    X = _member_14m(f, A, tol, Z)
    return _rescaled("X", X if Z is None else _witness("X", A, X, 3, tol), -f.exp)


def _member_14m(f: _Factored, A, tol: Tolerance, Z=None) -> np.ndarray:
    """The member of (2^-e A){1,4m} that 2^e Z selects (the base C~ (CC~)^-1 B+ for Z=None).

    The gate's Gram is Sigma CC~ Sigma up to sign flips, so CC~ is
    nonsingular when it is, and is inverted directly, as in :func:`_member_13m`.
    """
    if f.r == 0 or f.rank_CCs != f.r:
        raise NotExistent14m(f"rank(AA~)={f.rank_CCs} != rank(A)={f.r} (or rank 0)")
    X = mink_adjoint(f.C) @ _gram_inverse(f, "CCs", tol) @ f.pinv_B
    if Z is None:
        return X
    Z = _rescaled("Z", _shaped("Z", Z, X.shape), f.exp, param=True)
    return X + Z @ (np.eye(X.shape[1], dtype=np.complex128) - A @ X)


def compose_13m_14m(A, X13, X14, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """A^m = X14 A X13 from any {1,3m}- and {1,4m}-inverse witnesses.

    Validates the witnesses by their defining residuals (InvalidWitness on
    failure) and requires existence; the product is A^m no matter which
    family members were supplied.  Gated like every algorithm (see the
    module docstring); the witnesses are validated and multiplied as the
    normalized pair (2^-e A, 2^e X13, 2^e X14), and the product is scaled
    back by 2^-e; MinkinvError names the matrix whose scaling leaves the
    double range.
    """
    f, A = _normalized(A, tol)
    X13 = as_matrix(X13)
    X14 = as_matrix(X14)
    _require_existence(f)
    X = _compose(A, _rescaled("X13", X13, f.exp), _rescaled("X14", X14, f.exp), tol)
    return _rescaled("A^m", X, -f.exp)


def _witness(name: str, A, X, k: int, tol: Tolerance) -> np.ndarray:
    """X, a {1,3m}- (k = 2) or {1,4m}-inverse (k = 3) of the normalized A, or InvalidWitness.

    X must have the shape of A* (ShapeMismatch names ``name`` otherwise)
    and satisfy eq (1) and eq (3m) or (4m) within the equality bound at unit
    scale, in the relative residuals of :func:`defining_residuals`;
    InvalidWitness names ``name`` otherwise.
    """
    X = _shaped(name, X, A.shape[::-1])
    e = _relative_residuals(*_residual_norms(A, X)[:2])
    if e[0] > tol.eq_bound(1.0) or e[k] > tol.eq_bound(1.0):
        raise InvalidWitness(f"{name} violates eqs (1)/({k + 1}m): residuals {e[0]:.2e}, {e[k]:.2e}")
    return X


def _compose(A, X13, X14, tol: Tolerance) -> np.ndarray:
    """X14 A X13 of the normalized A and witnesses, after validating X13, then X14."""
    X13 = _witness("X13", A, X13, 2, tol)
    return _witness("X14", A, X14, 3, tol) @ A @ X13


def _compose_core(f: _Factored, A, tol: Tolerance, force: bool, Y=None, Z=None):
    """(X, None) of compose on the members Y and Z select, on the normalized A (no ``force``)."""
    return _compose(A, _member_13m(f, A, tol, Y), _member_14m(f, A, tol, Z), tol), None


# ---------------------------------------------------------------------------
# the algorithm table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Algorithm:
    """One independent route to A^m.

    ``core(f, A, tol, force, **params) -> (X, gap)`` runs on the normalized A
    that ``f`` factored, and :func:`_route` runs it.  ``name`` labels the
    results.  ``options`` are the route's integer options ("r" is the rank,
    which cross_check does not know); ``free(m, n)`` maps its free
    parameters to their shapes, in the order the CLI seeds them.  A
    ``gated`` route refuses at the gate, before its core runs, unless
    forced; compose is not gated, so :func:`_route` leaves its refusal,
    forced or not, to its {1,3m}/{1,4m} members.
    """

    name: str
    core: Callable
    square: bool = False
    options: tuple[str, ...] = ()
    free: Callable[[int, int], dict] = lambda m, n: {}
    gated: bool = True


# Keyed by the CLI's --algo name, which ``_run`` takes, in the order of its
# choices.  Each route evaluates its own formula, so that cross_check compares
# independent computations.  They share the gate's factorization and bases and
# what ``_Factored.store`` keeps: A~, A~A, AA~, A~AA~, the core SVDs of A~A and
# AA~ (zlobec2 at k or l = 0, and group) and the Gram inverses (frf, compose).
# A shared value is what each route would recompute from the same operands, bit
# for bit, so sharing it costs no independence.
_ALGORITHMS = {
    "frf": _Algorithm("frf", lambda f, A, tol, force: (_frf(f, tol), None)),
    "hs": _Algorithm("hs", _hs, square=True),
    "zlobec": _Algorithm("zlobec", _zlobec, options=("k", "l"),
                         free=lambda m, n: {"W": (m, n)}),
    "zlobec2": _Algorithm("zlobec2", _zlobec2, options=("k", "l"),
                          free=lambda m, n: {"W1": (m, m), "W2": (n, n)}),
    "group": _Algorithm("group", _group),
    "resolvent": _Algorithm("resolvent", _resolvent, free=lambda m, n: {"W": (n, m)}),
    "block": _Algorithm("block", _block, options=("r",)),
    "compose": _Algorithm("compose13m14m", _compose_core, gated=False,
                          free=lambda m, n: {"Y": (n, m), "Z": (n, m)}),
}


# ---------------------------------------------------------------------------
# witness constructions and decision procedures
# ---------------------------------------------------------------------------

def factorization_witnesses(A, tol: Tolerance = DEFAULT_TOL):
    """Witnesses (X, Y) with A = X AA~A = AA~A Y and A^m = (XA)~ = (AY)~.

    Fixes X = A (AA~A)^(1) and Y = (AA~A)^(1) A with the pseudoinverse as the
    {1}-inverse; existence makes rank(AA~A) = rank(A), which is exactly what
    the recovery identities need.  Both are built and verified on the gate's
    normalized 2^-e A, whose witnesses are 2^2e X and 2^2e Y, and scaled
    back by 2^-2e; beyond the double range, from about |A| = 1e154 or
    1e-154 on, MinkinvError names the witness.
    """
    f, A = _normalized(A, tol)
    _require_existence(f)
    M = _product(f, A, "AAs") @ A
    Mp = _core_pinv(M, f.Ur, f.Vr, tol, f.s1 ** 3)
    X = A @ Mp
    Y = Mp @ A
    scale = fro(A)
    if not mats_close(X @ M, A, tol, scale=scale) or not mats_close(M @ Y, A, tol, scale=scale):
        raise MinkinvError("internal inconsistency: factorization witnesses failed to verify")
    return _rescaled("witness X", X, -2 * f.exp), _rescaled("witness Y", Y, -2 * f.exp)


def sylvester_witnesses(A, tol: Tolerance = DEFAULT_TOL):
    """Witnesses (X, Y) of the Sylvester-style characterization.

    Constructs Q = AA~ + I - AA^m, Y = I - AA^m and X = AA^m Q^-1 - Y, so
    that X AA~ - Y X = I, AA~ X = X AA~, AA~ Y = 0, Y^2 = Y, and A~ X = A^m.
    Q mixes |A|^2 with 1, so it is formed as Q' on the gate's normalized
    2^-e A: Q is AA~ on R(A) and I on N(A~), so AA^m Q^-1 = 2^-2e AA^m Q'^-1.
    Q' is provably nonsingular when the inverse exists; Singular is raised
    as an internal inconsistency otherwise.  A^m comes from the gate's
    factorization in closed form, as in :func:`mink_inverse`.

    X adds the |A|^-2 part to the O(1) part -Y, so for |A| > 1 rounding
    takes the |A|^-2 part away, and for |A| from about 1e-154 down that
    part leaves the double range.  So A~X = A^m is checked on the returned
    X, at the equality bound of ``check_candidate`` on the normalized
    scale, and MinkinvError names X where it fails: from |A| of about 1e3
    to 1e4 up on generic input, and from about 1e-154 down.
    """
    f, A = _normalized(A, tol)
    _require_existence(f)
    Am = _inverse_of(f)
    Z, Y = _sylvester(f, A, Am, tol)
    X = _rescaled("witness X", Z, -2 * f.exp) - Y
    try:                                 # 2^e A~X vs 2^e A^m
        with np.errstate(over="ignore"):
            right = mats_close(_rescaled("A~X", mink_adjoint(A) @ X, 2 * f.exp), Am, tol)
    except MinkinvError:                 # 2^e A~X overflows: X lost its |A|^-2 part
        right = False
    if not right:
        raise MinkinvError("witness X loses its |A|^-2 part to rounding at this scale of A")
    return X, Y


def _sylvester(f: _Factored, A, Am, tol: Tolerance):
    """(P Q'^-1, I - P) of :func:`sylvester_witnesses` on the normalized A, P = A Am."""
    m = A.shape[0]
    eye = np.eye(m, dtype=np.complex128)
    P = A @ Am
    Q = _product(f, A, "AAs") + eye - P
    return P @ _inverse(Q, "shifted Gram Q", Singular, tol, max(1.0, f.s1 ** 2)), eye - P


def bjerhammar_witnesses(A, Y=None, Z=None, tol: Tolerance = DEFAULT_TOL):
    """Witnesses (B, C, D) with A~ B = C A~ = A~ D A~ = A^m.

    Realizes the Bjerhammar-style characterization: with P = (A~)+,

        B = P A^m + (I - P A~) Y,
        C = A^m P + Z (I - A~ P),
        D = P A^m P + (I - P A~) Y P + P Z (I - A~ P),

    for free Y (m-by-m) and Z (n-by-n); the products A~B, CA~ and A~DA~ are
    invariant under Y and Z.  The m-by-n free parameters of D are derived
    from the same Y and Z so a single signature drives all three witnesses.
    Built and verified on the gate's 2^-e A with 2^2e Y and 2^2e Z, then
    scaled back, B and C by 2^-2e and D by 2^-3e; MinkinvError names a witness
    beyond the double range (D from about |A| = 1e102 or 1e-102 on).
    """
    f, A = _normalized(A, tol)
    _require_existence(f)
    Am = _inverse_of(f)
    m, n = A.shape
    As = _product(f, A, "As")
    P = mink_adjoint(f.pinv_A)           # (A~)+ = (A+)~ from the gate, m x n
    eye_m = np.eye(m, dtype=np.complex128)
    eye_n = np.eye(n, dtype=np.complex128)
    k = -2 * f.exp                       # B and C scale back by 2^k, D by 2^(k - e)
    Y = _rescaled("Y", _shaped("Y", np.zeros((m, m)) if Y is None else Y, (m, m)), -k, True)
    Z = _rescaled("Z", _shaped("Z", np.zeros((n, n)) if Z is None else Z, (n, n)), -k, True)
    left_ann = eye_m - P @ As            # annihilated by A~ on the left
    right_ann = eye_n - As @ P           # annihilates A~ on the right
    B = P @ Am + left_ann @ Y
    C = Am @ P + Z @ right_ann
    D = P @ Am @ P + left_ann @ Y @ P + P @ Z @ right_ann
    scale = fro(Am)
    if not (mats_close(As @ B, Am, tol, scale=scale)
            and mats_close(C @ As, Am, tol, scale=scale)
            and mats_close(As @ D @ As, Am, tol, scale=scale)):
        raise MinkinvError("internal inconsistency: Bjerhammar witnesses failed to verify")
    return (_rescaled("witness B", B, k), _rescaled("witness C", C, k),
            _rescaled("witness D", D, k - f.exp))
