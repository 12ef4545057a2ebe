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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IndexNotOne, RankMismatch, ShapeMismatch, Singular, ZeroMatrix

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


def fro(M) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(M))


def sigma_max(M) -> float:
    """Largest singular value (0 for an empty matrix)."""
    if min(M.shape) == 0:
        return 0.0
    return float(np.linalg.svd(M, compute_uv=False)[0])


def mats_close(M, N, tol: Tolerance = DEFAULT_TOL, scale: float | None = None) -> bool:
    """Frobenius-norm equality test ||M - N|| <= eq_atol + eq_rtol * scale.

    ``scale`` defaults to ||N||; pass it explicitly when N is zero or when the
    natural magnitude of the comparison differs from ||N|| (for example when
    checking that a product of large matrices vanishes).
    """
    ref = fro(N) if scale is None else scale
    return fro(np.asarray(M) - np.asarray(N)) <= tol.eq_bound(ref)


def rel_residual(M, ref) -> float:
    """||M - ref||_F / max(1, ||ref||_F)."""
    return fro(np.asarray(M) - np.asarray(ref)) / max(1.0, fro(ref))


def pow2_exponent(A) -> int:
    """The exponent e of the power of two 2**e just above max |a_ij| (0 for zero A).

    Dividing by 2**e maps the largest entry into [1/2, 1) and changes no
    mantissa, so a result computed from the normalized matrix and scaled back
    is bit-for-bit covariant under scaling A by any power of two.
    """
    return int(np.frexp(np.abs(A).max())[1])


def scale_pow2(M, k: int) -> np.ndarray:
    """M * 2**k, exact for every entry that stays in the normal range.

    Works for any integer k, also where 2**k itself is not a finite double.
    """
    out = np.empty_like(M)
    out.real = np.ldexp(M.real, k)
    out.imag = np.ldexp(M.imag, k)
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
    """
    smax = float(s[0]) if s.size else 0.0
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
    from inverting noise directions.
    """
    A = as_matrix(A)
    U, s, Vh = np.linalg.svd(A, full_matrices=False)
    r = _rank_from_spectrum(s, A.shape, tol, scale).rank
    inv = np.zeros_like(s)
    inv[:r] = 1.0 / s[:r]
    return (Vh.conj().T * inv) @ U.conj().T


def one_inverse_sample(A, W=None, tol: Tolerance = DEFAULT_TOL,
                       scale: float | None = None) -> np.ndarray:
    """A member of A{1} parameterized by an arbitrary matrix W.

    Returns ``G = A+ + W - A+ A W A A+`` where ``A+`` is the pseudoinverse.
    For every W this satisfies A G A = A, and sweeping W sweeps the whole
    {1}-inverse family.  ``W=None`` gives the base point ``A+``.
    """
    A = as_matrix(A)
    Ap = moore_penrose(A, tol, scale=scale)
    if W is None:
        return Ap
    W = as_matrix(W)
    if W.shape != Ap.shape:
        raise ShapeMismatch(f"W must be {Ap.shape}, got {W.shape}")
    return Ap + W - Ap @ A @ W @ A @ Ap


def _require_square(M):
    if M.shape[0] != M.shape[1]:
        raise ShapeMismatch(f"square matrix required, got {M.shape}")


def index_of(M, tol: Tolerance = DEFAULT_TOL, scale: float | None = None) -> int:
    """Index of a square matrix: smallest t with rank(M^(t+1)) = rank(M^t).

    Computed by successive powers with rank stabilization; the result is at
    most n.  ``scale`` anchors the rank cutoff of M and is raised to the
    matching power for each M^t.
    """
    M = as_matrix(M)
    _require_square(M)
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


def full_rank_factorization(A, tol: Tolerance = DEFAULT_TOL,
                            scale: float | None = None) -> FullRankFactorization:
    """Full-rank factorization A = B C from the compact SVD.

    B = U_r Sigma_r and C = V_r* give the best-conditioned factors among the
    valid choices.  ``scale`` anchors the rank cutoff exactly as in
    :func:`numerical_rank`.  Raises ZeroMatrix when the numerical rank is 0.
    """
    A = as_matrix(A)
    U, s, Vh = np.linalg.svd(A, full_matrices=False)
    r = _rank_from_spectrum(s, A.shape, tol, scale).rank
    if r == 0:
        raise ZeroMatrix("cannot factor a numerically zero matrix")
    return FullRankFactorization(B=U[:, :r] * s[:r], C=Vh[:r, :], r=r)


def group_inverse(M, tol: Tolerance = DEFAULT_TOL, scale: float | None = None) -> np.ndarray:
    """Group inverse of an index-one square matrix.

    Uses the full-rank-factorization form M# = F (GF)^-2 G with M = F G.
    The precondition rank(M^2) = rank(M) is checked and IndexNotOne raised
    otherwise.  The zero matrix returns the zero matrix.
    """
    M = as_matrix(M)
    _require_square(M)
    U, s, Vh = np.linalg.svd(M, full_matrices=False)
    r = _rank_from_spectrum(s, M.shape, tol, scale).rank
    scale2 = None if scale is None else scale * scale
    r2 = rank_of(M @ M, tol, scale=scale2)
    if r2 != r:
        raise IndexNotOne(f"rank(M^2)={r2} != rank(M)={r}; index exceeds one")
    if r == 0:
        return np.zeros_like(M)
    F = U[:, :r] * s[:r]         # M = F G, the full-rank factorization of the same SVD
    G = Vh[:r, :]
    GF = G @ F
    return F @ np.linalg.inv(GF @ GF) @ G


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


def hs_decomposition(A, tol: Tolerance = DEFAULT_TOL) -> HSDecomposition:
    """Hartwig-Spindelbock decomposition of a square matrix.

    Built from the full SVD A = W Sigma V*: U = W and [K L] is the top r rows
    of V* W, which forces K K* + L L* = I_r up to rounding.  Raises NotSquare
    for rectangular input and ZeroMatrix for rank 0.
    """
    A = as_matrix(A)
    if A.shape[0] != A.shape[1]:
        from .errors import NotSquare
        raise NotSquare(f"decomposition is defined for square matrices, got {A.shape}")
    W, s, Vh = np.linalg.svd(A)
    r = _rank_from_spectrum(s, A.shape, tol).rank
    if r == 0:
        raise ZeroMatrix("decomposition needs rank >= 1")
    KL = (Vh @ W)[:r, :]
    return HSDecomposition(U=W, sigma=s[:r].copy(), K=KL[:, :r], L=KL[:, r:], r=r)


def projector_onto_along(A, B, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Oblique projector with range R(A) and null space N(B).

    Computes P = A (B A)+ B, valid when rank(BA) = rank(A) = rank(B) (which
    guarantees R(A) and N(B) are complementary); raises RankMismatch
    otherwise.  With B = A* this is the orthogonal projector onto R(A).
    """
    A = as_matrix(A)
    B = as_matrix(B)
    if B.shape[1] != A.shape[0]:
        raise ShapeMismatch(f"need B cols == A rows, got {B.shape} and {A.shape}")
    anchor = sigma_max(B) * sigma_max(A)
    rA = rank_of(A, tol)
    rB = rank_of(B, tol)
    rBA = rank_of(B @ A, tol, scale=anchor)
    if not (rBA == rA == rB):
        raise RankMismatch(f"rank(BA)={rBA}, rank(A)={rA}, rank(B)={rB} must all agree")
    return A @ moore_penrose(B @ A, tol, scale=anchor) @ B


def inv_shift_identity(A, B, tol: Tolerance = DEFAULT_TOL):
    """(I - AB)^-1 computed directly and via the push-through identity.

    Returns the pair ``(direct, shifted)`` where ``direct = inv(I_m - A B)``
    and ``shifted = I_m + A inv(I_n - B A) B``; the two agree up to rounding
    whenever I - BA is well conditioned.  Raises Singular when I - BA is
    numerically singular.
    """
    A = as_matrix(A)
    B = as_matrix(B)
    m, n = A.shape
    if B.shape != (n, m):
        raise ShapeMismatch(f"B must be {n}x{m}, got {B.shape}")
    anchor = max(1.0, sigma_max(A) * sigma_max(B))
    inner = np.eye(n, dtype=np.complex128) - B @ A
    if rank_of(inner, tol, scale=anchor) < n:
        raise Singular("I - BA is numerically singular")
    direct = np.linalg.inv(np.eye(m, dtype=np.complex128) - A @ B)
    shifted = np.eye(m, dtype=np.complex128) + A @ np.linalg.inv(inner) @ B
    return direct, shifted
