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
    _shaped,
    as_matrix,
    fro,
    mats_close,
    moore_penrose,
    one_inverse_sample,
    rank_of,
)
from .errors import (
    Inconsistent,
    Infeasible,
    MinkinvError,
    NotExistent,
    NotSquare,
    RankMismatch,
    SingularParam,
    ZeroMatrix,
)
from .minkowski import (
    _factor,
    _hs_blocks,
    _inverse_of,
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
    is A1 D B1.
    """
    A = as_matrix(A)
    B = as_matrix(B)
    D = _shaped("D", D, (A.shape[0], B.shape[1]))
    A1 = one_inverse_sample(A, WA, tol)
    B1 = one_inverse_sample(B, WB, tol)
    recon = A @ A1 @ D @ B1 @ B
    if not mats_close(recon, D, tol, scale=max(fro(D), 1.0)):
        raise Inconsistent(
            f"A A(1) D B(1) B differs from D by {fro(recon - D):.3e}; no solution exists"
        )
    return GeneralSolution(particular=A1 @ D @ B1, _A=A, _A1=A1, _B=B, _B1=B1)


def _equivalence_decomposition(A, r: int):
    """Nonsingular P, Q with A = P [[I_r, 0], [0, 0]] Q for A of rank r, from the SVD."""
    U, s, Vh = np.linalg.svd(A)
    d = np.ones(A.shape[0], dtype=np.complex128)
    d[:r] = s[:r]
    return U * d, Vh   # U @ diag(d)


def solve_xay_b(A, B, X1, X2=None, X4=None, Y3=None, Y4=None,
                tol: Tolerance = DEFAULT_TOL):
    """Produce (X, Y) with X A Y = B when rank(A) = rank(B) = r.

    Uses equivalence decompositions A = P [[I,0],[0,0]] Q and
    B = P1 [[I,0],[0,0]] Q1 built from SVDs, then

        X = P1 [[X1, X2], [0, X4]] P^-1,
        Y = Q^-1 [[X1^-1, 0], [Y3, Y4]] Q1,

    for a caller-supplied nonsingular r-by-r block X1 and optional free
    blocks X2 (r x m-r), X4 (l-r x m-r), Y3 (n-r x r), Y4 (n-r x h-r),
    defaulting to zero.
    """
    A = as_matrix(A)
    B = as_matrix(B)
    m, n = A.shape
    l, h = B.shape
    r = rank_of(A, tol)
    r1 = rank_of(B, tol)
    if r != r1:
        raise RankMismatch(f"rank(A)={r} and rank(B)={r1} must be equal")
    if r == 0:
        raise ZeroMatrix("equivalence construction needs rank >= 1")
    X1 = _shaped("X1", X1, (r, r))
    if rank_of(X1, tol) < r:
        raise SingularParam("X1 is numerically singular")

    P, Q = _equivalence_decomposition(A, r)
    P1, Q1 = _equivalence_decomposition(B, r)

    def blk(shape, given, name):
        if given is None or min(shape) == 0:
            return np.zeros(shape, dtype=np.complex128)
        return _shaped(name, given, shape)

    Xblk = np.zeros((l, m), dtype=np.complex128)
    Xblk[:r, :r] = X1
    Xblk[:r, r:] = blk((r, m - r), X2, "X2")
    Xblk[r:, r:] = blk((l - r, m - r), X4, "X4")
    Yblk = np.zeros((n, h), dtype=np.complex128)
    Yblk[:r, :r] = np.linalg.inv(X1)
    Yblk[r:, :r] = blk((n - r, r), Y3, "Y3")
    Yblk[r:, r:] = blk((n - r, h - r), Y4, "Y4")

    X = P1 @ Xblk @ np.linalg.inv(P)
    Y = np.linalg.inv(Q) @ Yblk @ Q1
    return X, Y


def rank_equation_solve(inst: RankEquationInstance, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Solve the bordered rank equation, raising Infeasible when unsolvable.

    Feasibility is R(B) within R(A) and R(C*) within R(A*), decided by rank
    tests; the unique solution is X = C A+ B, and the assembled bordered
    matrix is verified to have numerical rank equal to rank(A).
    """
    A, B, C = inst.A, inst.B, inst.C
    rA = rank_of(A, tol)
    if rank_of(np.hstack([A, B]), tol) != rA:
        raise Infeasible("R(B) is not contained in R(A)")
    if rank_of(np.vstack([A, C]), tol) != rA:
        raise Infeasible("R(C*) is not contained in R(A*)")
    X = C @ moore_penrose(A, tol) @ B
    bordered = np.block([[A, B], [C, X]])
    floor = tol.eq_bound(fro(bordered))
    if rank_of(bordered, tol, floor=floor) != rA:
        raise MinkinvError("internal inconsistency: bordered rank differs from rank(A)")
    return X


def mink_rank_characterization(A, tol: Tolerance = DEFAULT_TOL):
    """The unique (X, Y, Z) of the bordered rank characterization of A^m.

    X = I - A^m A and Y = I - A A^m are the ~-self-adjoint idempotents
    annihilated by A with ranks n - r and m - r, and Z = A^m is the unique
    matrix making rank([[A, I-Y], [I-X, Z]]) = rank(A).  All stated
    conditions are verified before returning.  Existence and A^m come from
    the one factorization of the Minkowski-inverse gate, as in
    :func:`~minkinv.minkowski.mink_inverse`.
    """
    A = as_matrix(A)
    m, n = A.shape
    f = _factor(A, tol)
    if not f.exists:
        raise NotExistent("the characterization requires an existent Minkowski inverse")
    r = f.r
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

    bordered = np.block([[A, np.eye(m) - Y], [np.eye(n) - X, Am]])
    if rank_of(bordered, tol, floor=tol.eq_bound(fro(bordered))) != r:
        raise MinkinvError("internal inconsistency: bordered rank differs from rank(A)")
    return X, Y, Am


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
    :func:`~minkinv.minkowski.mink_inverse`, whose SVD also gives the HS form.
    """
    A = as_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise NotSquare(f"the construction needs a square matrix, got {A.shape}")
    f = _factor(A, tol)
    if not f.exists:
        raise NotExistent("the construction requires an existent Minkowski inverse")
    n = A.shape[0]
    hs, _, G1, KL, Delta, Sigma = _hs_blocks(f.B / f.s, np.ldexp(f.s, f.exp), f.C)  # A = 2^e B C
    r = hs.r
    U = hs.U

    if X1free is None:
        J = KL.conj().T
    else:
        X1free = _shaped("X1free", X1free, (r, r))
        if rank_of(X1free, tol) < r:
            raise SingularParam("X1free is numerically singular")
        J = KL.conj().T @ X1free
    Y1 = np.zeros((n, r), dtype=np.complex128) if Y1 is None else _shaped("Y1", Y1, (n, r))
    Y2 = np.zeros((n, n - r), dtype=np.complex128) if Y2 is None else _shaped("Y2", Y2, (n, n - r))

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
    return B, C
