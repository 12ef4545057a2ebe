"""Matrix-equation machinery: AXB = D, XAY = B, and bordered rank equations.

The bordered rank equation asks for X making

    rank([[A, B], [C, X]]) = rank(A),

which is solvable iff R(B) is inside R(A) and R(C*) inside R(A*), and then
has the single solution X = C A+ B.  Choosing B and C appropriately turns
that unique solution into the Minkowski inverse, which is what
:func:`bc_parameterization` and :func:`mink_rank_characterization` exercise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dense_core import (
    DEFAULT_TOL,
    Tolerance,
    _inverse,
    _nonsingular,
    _rank_from_spectrum,
    _rescaled,
    _shaped,
    as_matrix,
    fro,
    mats_close,
    moore_penrose,
    one_inverse_sample,
    pow2_exponent,
    rank_of,
    scale_pow2,
)
from .errors import (
    Inconsistent,
    Infeasible,
    MinkinvError,
    NotSquare,
    RankMismatch,
    SingularParam,
    ZeroMatrix,
)
from .minkowski import (
    _factor,
    _hs_blocks,
    _inverse_of,
    _require_existence,
    apply_metric_left,
    apply_metric_right,
    mink_adjoint,
)

__all__ = [
    "RankEquationInstance", "GeneralSolution", "solve_axb_d", "solve_xay_b",
    "rank_equation_solve", "mink_rank_characterization", "bc_parameterization",
]


@dataclass(frozen=True)
class RankEquationInstance:
    """Data (A, B, C) of the bordered rank equation rank([[A,B],[C,X]]) = rank(A).

    Shapes: A is m-by-n, B is m-by-m, C is n-by-n, so the unknown X is
    n-by-m.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        A = as_matrix(self.A)
        m, n = A.shape
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", _shaped("B", self.B, (m, m)))
        object.__setattr__(self, "C", _shaped("C", self.C, (n, n)))


@dataclass(frozen=True)
class GeneralSolution:
    """General solution of A X B = D: particular plus two-sided null sweep.

    ``produce(Y, Z)`` returns particular + (I - A1 A) Y + Z (I - B B1) for
    free parameters of shape n-by-p; every produced matrix solves the
    equation.  The particular solution is deterministic given the
    {1}-inverse parameters the solver was called with.
    """

    particular: np.ndarray
    _A: np.ndarray = field(repr=False)
    _A1: np.ndarray = field(repr=False)
    _B: np.ndarray = field(repr=False)
    _B1: np.ndarray = field(repr=False)

    def produce(self, Y=None, Z=None) -> np.ndarray:
        n, p = self.particular.shape
        X = self.particular.copy()
        if Y is not None:
            X = X + (np.eye(n, dtype=np.complex128) - self._A1 @ self._A) @ _shaped("Y", Y, (n, p))
        if Z is not None:
            X = X + _shaped("Z", Z, (n, p)) @ (np.eye(p, dtype=np.complex128) - self._B @ self._B1)
        return X


def solve_axb_d(A, B, D, WA=None, WB=None, tol: Tolerance = DEFAULT_TOL) -> GeneralSolution:
    """Solve A X B = D, returning the general solution or raising Inconsistent.

    {1}-inverses of A and B are sampled via ``one_inverse_sample`` with the
    free parameters WA and WB (None takes the pseudoinverses).  The equation
    is consistent iff A A1 D B1 B = D, in which case the particular solution
    is A1 D B1.  That equality, at max(1, ||D||), is decided divided by the
    power of two 2^d of D (:func:`pow2_exponent`, d >= 0), so no norm
    overflows; a particular solution beyond the double range raises
    MinkinvError.
    """
    A = as_matrix(A)
    B = as_matrix(B)
    D = _shaped("D", D, (A.shape[0], B.shape[1]))
    A1 = one_inverse_sample(A, WA, tol)
    B1 = one_inverse_sample(B, WB, tol)
    recon = A @ A1 @ D @ B1 @ B
    d = max(pow2_exponent(D), 0)
    with np.errstate(over="ignore", invalid="ignore"):      # recon and X are checked here
        diff, unit = fro(scale_pow2(recon - D, -d)), np.ldexp(1.0, -d)
        if not diff <= unit * tol.eq_atol + tol.eq_rtol * max(unit, fro(scale_pow2(D, -d))):
            raise Inconsistent(f"A A(1) D B(1) B differs from D by {np.ldexp(diff, d):.3e}; "
                               "no solution exists")
        X = A1 @ D @ B1
    if not np.isfinite(X).all():
        raise MinkinvError("particular solution A(1) D B(1) lies outside the double range")
    return GeneralSolution(particular=X, _A=A, _A1=A1, _B=B, _B1=B1)


def _equivalence_decomposition(A, tol: Tolerance):
    """(r, U, d, Vh): r = rank(A) and A = P [[I_r, 0], [0, 0]] Q with P = U diag(d), Q = Vh.

    From one SVD A = U diag(s) Vh: d holds the r leading singular values,
    then ones, so P^-1 = (U / d)* and Q^-1 = Q* need no inversion.
    """
    U, s, Vh = np.linalg.svd(A)
    r = _rank_from_spectrum(s, A.shape, tol).rank
    d = np.ones(A.shape[0], dtype=np.complex128)
    d[:r] = s[:r]
    return r, U, d, Vh


def solve_xay_b(A, B, X1, X2=None, X4=None, Y3=None, Y4=None,
                tol: Tolerance = DEFAULT_TOL):
    """Produce (X, Y) with X A Y = B when rank(A) = rank(B) = r.

    Uses equivalence decompositions A = P [[I,0],[0,0]] Q and
    B = P1 [[I,0],[0,0]] Q1 built from SVDs, then

        X = P1 [[X1, X2], [0, X4]] P^-1,
        Y = Q^-1 [[X1^-1, 0], [Y3, Y4]] Q1,

    for a caller-supplied nonsingular r-by-r block X1 and optional free
    blocks X2 (r x m-r), X4 (l-r x m-r), Y3 (n-r x r), Y4 (n-r x h-r),
    defaulting to zero.  P^-1 and Q^-1 come from the SVD of A, so X1 is the
    only matrix inverted.  X adds parts of size |B| / |A| (from X1), |B|
    (X2) and 1 (X4), so X A Y = B is checked on the returned pair,
    normalized by the powers of two of A and B, and MinkinvError is raised
    where it fails: where X leaves the double range, or rounding takes one
    of its parts away.
    """
    A = as_matrix(A)
    B = as_matrix(B)
    m, n = A.shape
    l, h = B.shape
    r, U, d, Vh = _equivalence_decomposition(A, tol)
    r1, U1, d1, Vh1 = _equivalence_decomposition(B, tol)
    if r != r1:
        raise RankMismatch(f"rank(A)={r} and rank(B)={r1} must be equal")
    if r == 0:
        raise ZeroMatrix("equivalence construction needs rank >= 1")
    X1 = _shaped("X1", X1, (r, r))
    X1inv = _inverse(X1, "X1", SingularParam, tol)

    def blk(shape, given, name):
        if given is None or min(shape) == 0:
            return np.zeros(shape, dtype=np.complex128)
        return _shaped(name, given, shape)

    Xblk = np.zeros((l, m), dtype=np.complex128)
    Xblk[:r, :r] = X1
    Xblk[:r, r:] = blk((r, m - r), X2, "X2")
    Xblk[r:, r:] = blk((l - r, m - r), X4, "X4")
    Yblk = np.zeros((n, h), dtype=np.complex128)
    Yblk[:r, :r] = X1inv
    Yblk[r:, :r] = blk((n - r, r), Y3, "Y3")
    Yblk[r:, r:] = blk((n - r, h - r), Y4, "Y4")

    a, b = pow2_exponent(A), pow2_exponent(B)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):    # X is checked here
        X = (U1 * d1) @ Xblk @ (U / d).conj().T
        Y = Vh.conj().T @ Yblk @ Vh1
        right = mats_close(scale_pow2(X, a - b) @ scale_pow2(A, -a) @ Y, scale_pow2(B, -b), tol)
    if not right:
        raise MinkinvError("X A Y differs from B: X leaves the double range or rounds a part away")
    return X, Y


def _require_bordered_rank(A, B, C, X, r: int, tol: Tolerance) -> None:
    """MinkinvError unless rank([[A, B], [C, X]]) = r, cut off at the equality bound of its norm."""
    bordered = np.block([[A, B], [C, X]])
    if rank_of(bordered, tol, floor=tol.eq_bound(fro(bordered))) != r:
        raise MinkinvError("internal inconsistency: bordered rank differs from rank(A)")


def rank_equation_solve(inst: RankEquationInstance, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Solve the bordered rank equation, raising Infeasible when unsolvable.

    Feasibility is R(B) within R(A) and R(C*) within R(A*), decided by rank
    tests; the unique solution is X = C A+ B, and the assembled bordered
    matrix is verified to have numerical rank equal to rank(A).

    Each block is normalized by its own power of two (:func:`pow2_exponent`):
    A by the gate's 2^e, whose factorization gives rank(A) and A+, B by 2^b
    and C by 2^c.  The bordered matrix of (2^-e A, 2^-b B, 2^-c C) is a
    power-of-two row and column scaling of the raw one, with the solution
    2^(e-b-c) X, so its rank in exact arithmetic is that of the raw one, and
    no norm of it overflows or underflows.  X is scaled back by 2^(b+c-e),
    and MinkinvError names it where it leaves the double range.
    """
    f = _factor(inst.A, tol)
    b, c = pow2_exponent(inst.B), pow2_exponent(inst.C)
    B, C = scale_pow2(inst.B, -b), scale_pow2(inst.C, -c)
    if rank_of(np.hstack([f.A, B]), tol) != f.r:
        raise Infeasible("R(B) is not contained in R(A)")
    if rank_of(np.vstack([f.A, C]), tol) != f.r:
        raise Infeasible("R(C*) is not contained in R(A*)")
    X = C @ f.pinv_A @ B
    _require_bordered_rank(f.A, B, C, X, f.r, tol)
    return _rescaled("witness X", X, b + c - f.exp)


def mink_rank_characterization(A, tol: Tolerance = DEFAULT_TOL):
    """The unique (X, Y, Z) of the bordered rank characterization of A^m.

    X = I - A^m A and Y = I - A A^m are the ~-self-adjoint idempotents
    annihilated by A with ranks n - r and m - r, and Z = A^m is the unique
    matrix making rank([[A, I-Y], [I-X, Z]]) = rank(A).  All stated
    conditions are verified before returning, on 2^-e A, whose Z is scaled
    back by 2^-e, or MinkinvError names Z.  Existence and A^m come from the
    gate's one factorization, as in :func:`~minkinv.minkowski.mink_inverse`.
    """
    f = _require_existence(_factor(A, tol))
    A, (m, n), r = f.A, f.A.shape, f.r
    Am = _inverse_of(f)
    X = np.eye(n, dtype=np.complex128) - Am @ A
    Y = np.eye(m, dtype=np.complex128) - A @ Am

    nrmA = fro(A)
    for P, MP, want, side in ((X, A @ X, n - r, "X"), (Y, Y @ A, m - r, "Y")):
        if not mats_close(MP, np.zeros_like(MP), tol, scale=nrmA * max(1.0, fro(P))):
            raise MinkinvError(f"internal inconsistency: A-annihilation failed for {side}")
        if not mats_close(mink_adjoint(P), P, tol, scale=max(1.0, fro(P))):
            raise MinkinvError(f"internal inconsistency: {side} is not ~-self-adjoint")
        if not mats_close(P @ P, P, tol, scale=max(1.0, fro(P) ** 2)):
            raise MinkinvError(f"internal inconsistency: {side} is not idempotent")
        if rank_of(P, tol, floor=tol.eq_bound(max(1.0, fro(P)))) != want:
            raise MinkinvError(f"internal inconsistency: rank({side}) != expected")

    _require_bordered_rank(A, np.eye(m) - Y, np.eye(n) - X, Am, r, tol)
    return X, Y, _rescaled("Z", Am, -f.exp)


def bc_parameterization(A, X1free=None, Y1=None, Y2=None, tol: Tolerance = DEFAULT_TOL):
    """Border matrices (B, C) whose rank equation is solved uniquely by A^m.

    Works on a square existent A through its Hartwig-Spindelbock form.  With
    [K L] the mixing block, Sigma the singular values, G1 and Delta the
    existence blocks, the construction is

        J = [K L]* X1free,            T = J Sigma [K L],
        M = [K L]* (G1 Sigma Delta)^-1,
        B1 = Sigma [K L] (T+ M + (I - T+ T) Y1),
        B2 = Sigma [K L] (I - T+ T) Y2,
        B  = U [[B1, B2], [0, 0]] U* G,   C = G U T U*.

    X1free (nonsingular r-by-r, default I) sweeps the valid choices of J
    while keeping N(T*) = N([K L]); Y1 (n-by-r) and Y2 (n-by-(n-r)) sweep the
    stated free parameters.  For every choice, ``rank_equation_solve`` on
    (A, B, C) returns A^m.  Existence is decided by the one-SVD gate of
    :func:`~minkinv.minkowski.mink_inverse`, whose SVD of 2^-e A gives the HS
    form; on it, 2^2e Y1 and 2^2e Y2 give 2^e B and 2^-e C, scaled back.
    MinkinvError names the matrix whose scaling leaves the double range, and
    names B, with the relative miss, where C A+ B misses A^m on that
    normalized form: near the light cone, where A^m is beyond double
    precision (from light_cone(1e-7) on), and where rounding of the Y terms,
    of size |A|^2 |Y|, swamps the A^m part of B (for unit-size Y1 and Y2,
    from |A| of about 1e4 on).
    """
    A = as_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise NotSquare(f"the construction needs a square matrix, got {A.shape}")
    f = _require_existence(_factor(A, tol))
    n = A.shape[0]
    hs, G1, KL, Delta, Sigma = _hs_blocks(f)
    r, U = hs.r, hs.U

    if X1free is None:
        J = KL.conj().T
    else:
        X1free = _shaped("X1free", X1free, (r, r))
        _nonsingular(X1free, "X1free", SingularParam, tol)
        J = KL.conj().T @ X1free

    given = [name for name, Y in (("Y1", Y1), ("Y2", Y2)) if Y is not None]

    def free(name, Y, shape):        # 2^2e Y, the parameter of the normalized construction
        Y = np.zeros(shape, dtype=np.complex128) if Y is None else _shaped(name, Y, shape)
        return _rescaled(name, Y, 2 * f.exp, param=True)

    Y1, Y2 = free("Y1", Y1, (n, r)), free("Y2", Y2, (n, n - r))

    T = J @ Sigma @ KL
    Tp = moore_penrose(T, tol)
    M = KL.conj().T @ np.linalg.inv(G1 @ Sigma @ Delta)
    SKL = Sigma @ KL
    proj = np.eye(n, dtype=np.complex128) - Tp @ T
    B1 = SKL @ (Tp @ M + proj @ Y1)
    B2 = SKL @ (proj @ Y2)
    Bfull = np.zeros((n, n), dtype=np.complex128)
    Bfull[:r, :r] = B1
    Bfull[:r, r:] = B2
    B = U @ Bfull @ apply_metric_right(U.conj().T)
    C = apply_metric_left(U) @ T @ U.conj().T
    Am = _inverse_of(f)
    miss = fro(C @ f.pinv_A @ B - Am)
    if not miss <= tol.eq_bound(fro(Am)):
        raise MinkinvError(f"B fails: C A+ B misses A^m by {miss / fro(Am):.2e} relative"
                           + (f"; rounding of {', '.join(given)} at this scale of A can cause that"
                              if given else ""))
    return _rescaled("B", B, -f.exp), _rescaled("C", C, f.exp)
