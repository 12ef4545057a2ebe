"""Exception hierarchy shared by every minkinv module."""


class MinkinvError(Exception):
    """Base class for all library-specific failures."""


class ShapeMismatch(MinkinvError):
    """Operands have incompatible dimensions."""


class ZeroMatrix(MinkinvError):
    """The operation needs rank >= 1 but the input is numerically zero."""


class NotSquare(MinkinvError):
    """A square matrix was required."""


class RankMismatch(MinkinvError):
    """A rank precondition such as rank(BA) = rank(A) = rank(B) failed."""


class IndexNotOne(MinkinvError):
    """rank(M^2) != rank(M), so M has no group inverse."""


class Singular(MinkinvError):
    """A matrix that must be inverted is numerically singular."""


class BlockSingular(Singular):
    """The leading r-by-r block is numerically singular."""


class SingularParam(Singular):
    """A free parameter that must be nonsingular is numerically singular."""


class NotExistent(MinkinvError):
    """The Minkowski inverse of the input does not exist."""


class NotExistent13m(NotExistent):
    """No {1,3m}-inverse exists because rank(A~A) != rank(A)."""


class NotExistent14m(NotExistent):
    """No {1,4m}-inverse exists because rank(AA~) != rank(A)."""


class InvalidWitness(MinkinvError):
    """A supplied witness matrix fails its defining residual checks."""


class Inconsistent(MinkinvError):
    """The linear matrix equation has no solution."""


class Infeasible(MinkinvError):
    """The bordered rank equation has no solution."""


class RetryExhausted(MinkinvError):
    """The instance generator gave up after its retry budget."""


class FormatError(MinkinvError):
    """A matrix file does not follow the JSON schema."""
