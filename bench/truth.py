"""Ground truth for the benchmark, computed with plain numpy.

Existence is known from how each instance was generated: ``EXISTENT`` draws
have a Minkowski inverse, ``ISOTROPIC`` draws (rank one on a light-cone
vector) have none.  A returned ``X`` is the Minkowski inverse exactly when it
satisfies the four defining equations, which determine it uniquely.  It is
judged here by their scale-invariant relative residuals

    ||AXA - A|| / ||A||,      ||XAX - X|| / ||X||,
    ||(AX)~ - AX|| / ||AX||,  ||(XA)~ - XA|| / ||XA||

(Frobenius norms) against the fixed bound ``RESIDUAL_BOUND``.  Nothing here
calls into the package under test, so the package's own auditor
(``check_candidate``), ``cross_check`` and the CLI exit codes are all judged
against this one reference.
"""

from __future__ import annotations

import math

import numpy as np

# Correct inverses of the generated instances reach ~1e-13 at every scale
# (measured over the benchmark's shapes); moore_penrose(A) on an existent
# instance reaches ~1e-1.  The bound sits far from both.
RESIDUAL_BOUND = 1e-8

# Failure kinds.  Each failed request is counted once, under the first
# problem found; exceptions are counted as "exception:<type name>".
WRONG_ANSWER = "wrong_answer"              # returned X is not A^m
WRONG_ACCEPTANCE = "wrong_acceptance"      # returned an X although A^m does not exist
WRONG_REFUSAL = "wrong_refusal"            # refused although A^m exists
WRONG_EXISTENCE = "wrong_existence"        # existence verdict contradicts the generator
ALGORITHM_FAILED = "algorithm_failed"      # a cross_check algorithm reported a failure
AUDIT_FALSE_REJECT = "audit_false_reject"  # the auditor rejected a correct X
AUDIT_FALSE_ACCEPT = "audit_false_accept"  # the auditor accepted a wrong X
WRONG_VERDICT = "wrong_verdict"            # overall cross_check verdict is wrong


def exception_kind(type_name: str) -> str:
    return f"exception:{type_name}"


def mink_adjoint(M: np.ndarray) -> np.ndarray:
    """G_n M* G_m for an m-by-n matrix M, G = diag(1, -1, ..., -1)."""
    out = M.conj().T.copy()
    out[1:, :] *= -1.0
    out[:, 1:] *= -1.0
    return out


def _rel(num: float, den: float) -> float:
    if den > 0.0:
        return num / den
    return 0.0 if num == 0.0 else math.inf


def residuals(A: np.ndarray, X: np.ndarray) -> tuple[float, float, float, float]:
    """The four relative residuals of the defining equations."""
    norm = np.linalg.norm
    AX = A @ X
    XA = X @ A
    return (
        _rel(float(norm(AX @ A - A)), float(norm(A))),
        _rel(float(norm(XA @ X - X)), float(norm(X))),
        _rel(float(norm(mink_adjoint(AX) - AX)), float(norm(AX))),
        _rel(float(norm(mink_adjoint(XA) - XA)), float(norm(XA))),
    )


def is_minkowski_inverse(A: np.ndarray, X) -> bool:
    """True when X is A^m to within RESIDUAL_BOUND on every equation."""
    X = np.asarray(X)
    if X.shape != (A.shape[1], A.shape[0]) or not np.all(np.isfinite(X)):
        return False
    return max(residuals(A, X)) <= RESIDUAL_BOUND
