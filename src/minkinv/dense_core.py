"""Dense complex linear algebra: rank machinery, factorizations, basic inverses.

All matrices are 2-D ``complex128`` numpy arrays.  Every rank decision in the
package takes the cutoff of :func:`numerical_rank` (a factorization that
already holds the spectrum applies it through ``_rank_from_spectrum``) so
that predicates built on rank comparisons can never disagree because of
differing cutoff conventions.

Two cutoff refinements matter for matrices that are *derived* from other
matrices (products, residual projectors):

* ``scale`` anchors the cutoff to the magnitude the product would have if no
  cancellation occurred.  BLAS matrix products leave O(eps * scale) noise even
  in entries that cancel exactly in real arithmetic, and a matrix consisting
  of nothing but that noise must report rank 0, not full rank.
* ``floor`` is an absolute cutoff floor used when a rank test verifies an
  algebraic identity at equality tolerance: singular values below the
  verification tolerance are indistinguishable from zero.

A product whose column and row spaces lie in known r-dimensional subspaces
is ranked, pseudo-inverted or group-inverted from the SVD of its r-by-r core
(``_core_svd``, ``_group_of_svd``), with the cutoff of the product itself.

Every module refuses a numerically singular matrix through ``_nonsingular``
(or inverts through ``_inverse`` on it) and scales by a power of two through
the checked ``_rescaled``.  The exports are right or raise MinkinvError at
every scale of the double range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IndexNotOne, MinkinvError, RankMismatch, ShapeMismatch, ZeroMatrix

EPS = float(np.finfo(np.float64).eps)


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a 2-D complex128 array, rejecting NaN/Inf entries."""
    M = np.asarray(a, dtype=np.complex128)
    if M.ndim != 2:
        raise ShapeMismatch(f"expected a 2-D matrix, got ndim={M.ndim}")
    if M.shape[0] < 1 or M.shape[1] < 1:
        raise ShapeMismatch(f"matrix dimensions must be positive, got {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite")
    return M


def _shaped(name: str, a, shape) -> np.ndarray:
    """``as_matrix(a)``, or ShapeMismatch naming ``name`` unless its shape is ``shape``."""
    M = as_matrix(a)
    if M.shape != shape:
        raise ShapeMismatch(f"{name} must be {shape[0]}x{shape[1]}, got {M.shape}")
    return M


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds shared by every rank test and residual check.

    ``rank_rtol`` scales the singular-value cutoff used for rank decisions
    (cutoff = rank_rtol * max(m, n) * sigma_max, the usual pseudoinverse
    convention).  ``eq_atol`` and ``eq_rtol`` bound Frobenius-norm equality
    residuals: M equals N when ||M - N||_F <= eq_atol + eq_rtol * scale.
    """

    rank_rtol: float = EPS
    eq_atol: float = 1e-12
    eq_rtol: float = 1e-9

    def __post_init__(self):
        if min(self.rank_rtol, self.eq_atol, self.eq_rtol) < 0:
            raise ValueError("tolerance fields must be nonnegative")

    def eq_bound(self, scale: float = 1.0) -> float:
        """Absolute residual bound for an equality at the given scale."""
        return self.eq_atol + self.eq_rtol * max(1.0, scale)


DEFAULT_TOL = Tolerance()


_FRO_MIN = 2.0 ** -480    # below this, squares lost to underflow can matter to a plain norm


def fro(M) -> float:
    """Frobenius norm, also where the squares of the entries leave the double range.

    Where ``np.linalg.norm`` reads inf, or less than 2^-480 (squares below
    2^-1022 lose bits), the norm is taken on 2^-e M of :func:`pow2_exponent`
    and scaled back by 2^e; elsewhere it is ``np.linalg.norm`` bit for bit.
    It is inf only where the norm lies beyond the double range.  The plain
    norm runs first, unguarded, so where it overflows numpy's RuntimeWarning
    reaches a caller that has not silenced it with ``np.errstate``.
    """
    n = float(np.linalg.norm(M))
    if _FRO_MIN <= n < np.inf or not (n or np.any(M)):
        return n
    e = pow2_exponent(M)
    with np.errstate(over="ignore"):
        return float(np.ldexp(np.linalg.norm(scale_pow2(np.asarray(M), -e)), e))


def sigma_max(M) -> float:
    """Largest singular value (0 for an empty matrix), from the SVD of 2^-e M scaled back by 2^e.

    e is that of :func:`pow2_exponent`, so the SVD sees entries below 1, and
    the result is inf only where sigma_max lies beyond the double range.
    """
    if min(M.shape) == 0:
        return 0.0
    e = pow2_exponent(M)
    with np.errstate(over="ignore"):
        return float(np.ldexp(np.linalg.svd(scale_pow2(M, -e), compute_uv=False)[0], e))


def mats_close(M, N, tol: Tolerance = DEFAULT_TOL, scale: float | None = None) -> bool:
    """Frobenius-norm equality test ||M - N|| <= eq_atol + eq_rtol * scale.

    ``scale`` defaults to ||N||; pass it explicitly when N is zero or when the
    natural magnitude of the comparison differs from ||N|| (for example when
    checking that a product of large matrices vanishes).
    """
    ref = fro(N) if scale is None else scale
    return fro(np.asarray(M) - np.asarray(N)) <= tol.eq_bound(ref)


def pow2_exponent(A) -> int:
    """The exponent e of the power of two 2**e just above max |a_ij| (0 for zero A).

    Dividing by 2**e maps the largest entry into [1/2, 1) and changes no
    mantissa, so a result computed from the normalized matrix and scaled back
    is bit-for-bit covariant under scaling A by any power of two.
    """
    return int(np.frexp(np.abs(A).max())[1])


def scale_pow2(M, k: int) -> np.ndarray:
    """M * 2**k, exact for every entry that stays in the normal range.

    Works for any integer k, also where 2**k itself is not a finite double,
    and for real as well as complex M.
    """
    if not np.iscomplexobj(M):
        return np.ldexp(M, k)
    out = np.empty_like(M)
    out.real = np.ldexp(M.real, k)
    out.imag = np.ldexp(M.imag, k)
    return out


def _rescaled(name: str, W, k: int, param: bool = False) -> np.ndarray:
    """2^k W, or MinkinvError naming ``name`` when 2^k W leaves the double range.

    The one scaling of a result out of, or of a caller's matrix into, the
    frame of 2^-e A.  2^k W has left the range when it is not finite, or
    when scaling it back misses W by more than eps ||W||.  A caller's free
    parameter (``param``) only has to stay finite: where it underflows, its
    share of the result is below about 2^-1022 relative.
    """
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        out = scale_pow2(W, k)
        ok = np.isfinite(out).all()
        if ok and not param:
            back = scale_pow2(out, -k)
            back -= W
            ok = fro(back) <= EPS * fro(W)
    if not ok:
        raise MinkinvError(f"{name} lies outside the double range at this scale of A")
    return out


@dataclass(frozen=True)
class RankReport:
    """Numerical rank plus the evidence used to decide it.

    ``rank`` counts the singular values strictly above ``cutoff``;
    ``singular_values`` is the full nonincreasing spectrum.
    """

    rank: int
    singular_values: np.ndarray
    cutoff: float


def numerical_rank(A, tol: Tolerance = DEFAULT_TOL, scale: float | None = None,
                   floor: float = 0.0) -> RankReport:
    """Numerical rank of ``A`` with an auditable cutoff.

    Parameters
    ----------
    A : array_like
        Matrix to rank.
    tol : Tolerance
        Supplies ``rank_rtol``.
    scale : float, optional
        Anchor for the cutoff of derived products: the cutoff uses
        ``max(sigma_max(A), scale)`` so a cancellation-noise matrix whose own
        sigma_max is O(eps * scale) still reports rank 0.
    floor : float, optional
        Absolute lower bound on the cutoff, for identity-verification rank
        tests performed at equality tolerance.
    """
    A = as_matrix(A)
    return _rank_from_spectrum(np.linalg.svd(A, compute_uv=False), A.shape, tol, scale, floor)


def _rank_from_spectrum(s, shape, tol: Tolerance, scale: float | None = None,
                        floor: float = 0.0) -> RankReport:
    """The rank report of a matrix of ``shape`` whose singular values are ``s``.

    The one cutoff convention of :func:`numerical_rank`, for callers that
    already hold the spectrum from a factorization they need anyway.
    MinkinvError when sigma_max is not finite: the spectrum of a matrix that
    large cannot be ranked.
    """
    smax = float(s[0]) if s.size else 0.0
    if not np.isfinite(smax):
        raise MinkinvError("the singular values lie outside the double range at this scale")
    anchor = max(smax, scale if scale is not None else 0.0)
    cutoff = tol.rank_rtol * max(shape) * anchor
    cutoff = max(cutoff, floor)
    rank = int(np.sum(s > cutoff)) if cutoff > 0 else int(np.sum(s > 0))
    return RankReport(rank=rank, singular_values=s, cutoff=cutoff)


def rank_of(A, tol: Tolerance = DEFAULT_TOL, scale: float | None = None,
            floor: float = 0.0) -> int:
    """Shorthand for ``numerical_rank(...).rank``."""
    return numerical_rank(A, tol, scale=scale, floor=floor).rank


def moore_penrose(A, tol: Tolerance = DEFAULT_TOL, scale: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD with the shared rank cutoff.

    Unlike ``numpy.linalg.pinv`` this truncates with the same cutoff as
    :func:`numerical_rank`, including the optional ``scale`` anchor; that
    keeps pseudo-inverses of cancellation-prone products (A~AA~ and friends)
    from inverting noise directions.  MinkinvError where 1/sigma_r is not
    finite, since the pseudoinverse then leaves the double range.
    """
    A = as_matrix(A)
    U, s, Vh = np.linalg.svd(A, full_matrices=False)
    r = _rank_from_spectrum(s, A.shape, tol, scale).rank
    inv = np.zeros_like(s)
    with np.errstate(over="ignore"):
        inv[:r] = 1.0 / s[:r]
    if r and not np.isfinite(inv[r - 1]):
        raise MinkinvError("the pseudoinverse lies outside the double range at this scale")
    return (Vh.conj().T * inv) @ U.conj().T


def _nonsingular(M, what: str, err, tol: Tolerance = DEFAULT_TOL,
                 scale: float | None = None, force: bool = False) -> bool:
    """Whether the square M has full rank at the cutoff of :func:`numerical_rank`.

    The package's one refusal of a numerically singular matrix: a rank-deficient
    M raises ``err`` with "<what> is numerically singular (rank k of n, cond~c)",
    unless ``force``, under which it returns False.  ``scale`` is the caller's
    anchor of :func:`numerical_rank`.
    """
    rep = numerical_rank(M, tol, scale=scale)
    n = M.shape[0]
    if rep.rank < n and not force:
        s = rep.singular_values
        cond = float("inf") if s[-1] == 0 else float(s[0] / s[-1])
        raise err(f"{what} is numerically singular (rank {rep.rank} of {n}, cond~{cond:.2e})")
    return rep.rank == n


def _inverse(M, what: str, err, tol: Tolerance = DEFAULT_TOL,
             scale: float | None = None, force: bool = False) -> np.ndarray:
    """M^-1 after :func:`_nonsingular`; a singular M under ``force`` is pseudo-inverted.

    Forcing keeps a breakdown observable in the result instead of refusing it.
    """
    if _nonsingular(M, what, err, tol, scale, force):
        return np.linalg.inv(M)
    return moore_penrose(M, tol, scale=scale)


def one_inverse_sample(A, W=None, tol: Tolerance = DEFAULT_TOL,
                       scale: float | None = None) -> np.ndarray:
    """A member of A{1} parameterized by an arbitrary matrix W.

    Returns ``G = A+ + W - A+ A W A A+`` where ``A+`` is the pseudoinverse.
    For every W this satisfies A G A = A, and sweeping W sweeps the whole
    {1}-inverse family.  ``W=None`` gives the base point ``A+``.
    """
    A = as_matrix(A)
    return _one_inverse(A, moore_penrose(A, tol, scale=scale), W)


def _one_inverse(A, Ap, W) -> np.ndarray:
    """:func:`one_inverse_sample` of A given its pseudoinverse ``Ap``."""
    if W is None:
        return Ap
    W = _shaped("W", W, Ap.shape)
    return Ap + W - Ap @ A @ W @ A @ Ap


def _normalized_square(M, scale: float | None):
    """(2^-e M, 2^-e scale, e) of a square M, with 2^e the power of two of :func:`pow2_exponent`."""
    M = as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise ShapeMismatch(f"square matrix required, got {M.shape}")
    e = pow2_exponent(M)
    return scale_pow2(M, -e), None if scale is None else float(np.ldexp(scale, -e)), e


def index_of(M, tol: Tolerance = DEFAULT_TOL, scale: float | None = None) -> int:
    """Index of a square matrix: smallest t with rank(M^(t+1)) = rank(M^t).

    Computed by successive powers with rank stabilization; the result is at
    most n.  ``scale`` anchors the rank cutoff of M and is raised to the
    matching power for each M^t.  The powers are taken of 2^-e M, with 2^e
    the power of two of :func:`pow2_exponent` and the anchor scaled alike,
    which has the same index and whose powers stay in range.

    A caller who ranks a product of a factor, such as M = A~A, must pass
    ``scale=`` (sigma_max(A)^2 there): the rounding in the cancelled
    directions of a formed product does not follow sigma_max(M), so without
    that anchor the index of a rank-deficient product decides on rounding.
    """
    M, scale, _ = _normalized_square(M, scale)
    n = M.shape[0]
    prev = n  # rank(M^0) = rank(I)
    P = np.eye(n, dtype=np.complex128)
    for t in range(n + 1):
        P = P @ M
        anchor = None if scale is None else scale ** (t + 1)
        rk = rank_of(P, tol, scale=anchor)
        if rk == prev:
            return t
        prev = rk
    return n


@dataclass(frozen=True)
class FullRankFactorization:
    """A = B @ C with B of full column rank r and C of full row rank r."""

    B: np.ndarray
    C: np.ndarray
    r: int


def group_inverse(M, tol: Tolerance = DEFAULT_TOL, scale: float | None = None) -> np.ndarray:
    """Group inverse of an index-one square matrix.

    Uses the full-rank-factorization form M# = F (GF)^-2 G with M = F G, the
    factors of one compact SVD (see :func:`_group_of_svd`).  The
    precondition rank(M^2) = rank(M) is checked on the r-by-r core of that
    SVD and IndexNotOne raised otherwise.  The zero matrix returns the zero
    matrix.  It is computed on 2^-e M as :func:`index_of` is, and
    (2^-e M)# = 2^e M# is scaled back by :func:`_rescaled`, which raises
    MinkinvError where M# leaves the double range.  As for
    :func:`index_of`, a caller who group-inverts a product of a factor must
    pass ``scale=``, or the rank of a rank-deficient product decides on
    rounding.
    """
    M, scale, e = _normalized_square(M, scale)
    U, s, Vh = np.linalg.svd(M, full_matrices=False)
    r = _rank_from_spectrum(s, M.shape, tol, scale).rank
    return _rescaled("M#", _group_of_svd(U[:, :r], s[:r], Vh[:r], M.shape, tol, scale), -e)


def _group_of_svd(U, s, Vh, shape, tol: Tolerance, scale: float | None = None,
                  force: bool = False) -> np.ndarray:
    """F (GF)^-2 G of the square M = F G of ``shape``, F = U diag(s) and G = Vh.

    U diag(s) Vh is a compact SVD of M truncated at its rank k = s.size.
    Then M^2 = U (s GF) Vh, so rank(M^2) is the rank of the k-by-k s GF at
    the cutoff of M^2 (anchor ``scale``^2), and M^2 is never formed.
    IndexNotOne unless that rank is k; ``force`` pseudo-inverts (GF)^2
    instead, so that the breakdown stays observable.
    """
    k = s.size
    F = U * s
    GF = Vh @ F
    scale2 = None if scale is None else scale * scale
    r2 = _rank_from_spectrum(np.linalg.svd(s[:, None] * GF, compute_uv=False),
                             shape, tol, scale2).rank
    if r2 != k and not force:
        raise IndexNotOne(f"rank(M^2)={r2} != rank(M)={k}; index exceeds one")
    GF2 = GF @ GF
    return F @ (np.linalg.inv(GF2) if r2 == k else moore_penrose(GF2, tol)) @ Vh


def _core_svd(M, L, R=None, tol: Tolerance = DEFAULT_TOL, scale: float | None = None,
              compute_uv: bool = True):
    """The rank report of M from the SVD of its core L* M R, and with ``compute_uv`` its SVD.

    L and R have orthonormal columns with R(M) within R(L) and R(M*) within
    R(R); R=None stands for the identity.  Then M = L K R* with K = L* M R,
    the singular values of M are those of K plus zeros, and
    pinv(M) = R pinv(K) L*.  When L and R have fewer columns than M has
    rows and columns, K is the smaller matrix to factor.  The rank takes the
    cutoff of M itself, with the width max(M.shape) and the anchor ``scale``
    of :func:`numerical_rank`.  With ``compute_uv`` the result is
    ``(report, U, Vh)``, where M = U diag(s) Vh is truncated at the rank:
    U = L U_K and Vh = Vh_K R* are the core's singular bases lifted back.
    """
    K = L.conj().T @ M
    if R is not None:
        K = K @ R
    if not compute_uv:
        return _rank_from_spectrum(np.linalg.svd(K, compute_uv=False), M.shape, tol, scale)
    U, s, Vh = np.linalg.svd(K, full_matrices=False)
    rep = _rank_from_spectrum(s, M.shape, tol, scale)
    U, Vh = L @ U[:, :rep.rank], Vh[:rep.rank]
    return rep, U, Vh if R is None else Vh @ R.conj().T


@dataclass(frozen=True)
class HSDecomposition:
    """Hartwig-Spindelbock form A = U [[Sigma K, Sigma L], [0, 0]] U*.

    U is n-by-n unitary, ``sigma`` holds the r positive singular values, and
    the r-by-r block K and r-by-(n-r) block L satisfy K K* + L L* = I_r.
    """

    U: np.ndarray
    sigma: np.ndarray
    K: np.ndarray
    L: np.ndarray
    r: int

    def core(self) -> np.ndarray:
        """The n-by-n middle factor [[Sigma K, Sigma L], [0, 0]]."""
        n = self.U.shape[0]
        out = np.zeros((n, n), dtype=np.complex128)
        out[:self.r, :self.r] = self.sigma[:, None] * self.K
        out[:self.r, self.r:] = self.sigma[:, None] * self.L
        return out


def _hs_from_svd(Ur, s, Vh_r) -> HSDecomposition:
    """The HS form of the square A = Ur diag(s) Vh_r, with Ur and Vh_r* orthonormal.

    U = [Ur, Q], Q the complement of R(Ur) from one Householder QR of Ur, and
    [K L] = Vh_r U, which forces K K* + L L* = I_r up to rounding.
    """
    r = s.size
    if r == 0:
        raise ZeroMatrix("decomposition needs rank >= 1")
    U = np.hstack([Ur, np.linalg.qr(Ur, mode="complete")[0][:, r:]])
    KL = Vh_r @ U
    return HSDecomposition(U=U, sigma=s, K=KL[:, :r], L=KL[:, r:], r=r)


def projector_onto_along(A, B, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Oblique projector with range R(A) and null space N(B).

    Computes P = A (B A)+ B, valid when rank(BA) = rank(A) = rank(B) (which
    guarantees R(A) and N(B) are complementary); raises RankMismatch
    otherwise.  With B = A* this is the orthogonal projector onto R(A).
    P does not change when A or B is scaled, so it is computed from A and B
    each divided by its power of two (:func:`pow2_exponent`).
    """
    A = as_matrix(A)
    B = as_matrix(B)
    if B.shape[1] != A.shape[0]:
        raise ShapeMismatch(f"need B cols == A rows, got {B.shape} and {A.shape}")
    A, B = scale_pow2(A, -pow2_exponent(A)), scale_pow2(B, -pow2_exponent(B))
    anchor = sigma_max(B) * sigma_max(A)
    rA = rank_of(A, tol)
    rB = rank_of(B, tol)
    rBA = rank_of(B @ A, tol, scale=anchor)
    if not (rBA == rA == rB):
        raise RankMismatch(f"rank(BA)={rBA}, rank(A)={rA}, rank(B)={rB} must all agree")
    return A @ moore_penrose(B @ A, tol, scale=anchor) @ B
