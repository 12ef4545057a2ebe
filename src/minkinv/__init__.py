"""Minkowski inverses of dense complex matrices.

The Minkowski inverse generalizes the Moore-Penrose pseudoinverse to the
indefinite inner product <x, Gy> with G = diag(1, -1, ..., -1).  Unlike the
Euclidean case it does not always exist; this package bundles existence
diagnostics, several independent algorithms that compute it, the related
{1,3m}/{1,4m} inverse families, rank-equation characterizations, seeded
instance generators, and a cross-checking oracle plus CLI.
"""

from .dense_core import (
    EPS,
    DEFAULT_TOL,
    FullRankFactorization,
    HSDecomposition,
    RankReport,
    Tolerance,
    as_matrix,
    fro,
    group_inverse,
    index_of,
    mats_close,
    moore_penrose,
    numerical_rank,
    one_inverse_sample,
    projector_onto_along,
    rank_of,
    sigma_max,
)
from .errors import (
    BlockSingular,
    FormatError,
    Inconsistent,
    IndexNotOne,
    Infeasible,
    InvalidWitness,
    MinkinvError,
    NotExistent,
    NotExistent13m,
    NotExistent14m,
    NotSquare,
    RankMismatch,
    RetryExhausted,
    ShapeMismatch,
    Singular,
    SingularParam,
    ZeroMatrix,
)
from .minkowski import (
    ExistenceDiagnosis,
    InverseComputation,
    MooreStyleReport,
    bjerhammar_witnesses,
    compose_13m_14m,
    defining_residuals,
    diagnose_existence,
    factorization_witnesses,
    full_rank_factorization,
    hs_decomposition,
    metric_signs,
    mink_adjoint,
    mink_inverse,
    mink_inverse_block,
    mink_inverse_frf,
    mink_inverse_group,
    mink_inverse_hs,
    mink_inverse_resolvent,
    mink_inverse_zlobec,
    mink_inverse_zlobec2,
    moore_style_check,
    one_four_m,
    one_three_m,
    sylvester_witnesses,
)
from .solvers import (
    GeneralSolution,
    RankEquationInstance,
    bc_parameterization,
    mink_rank_characterization,
    rank_equation_solve,
    solve_axb_d,
    solve_xay_b,
)
from .verify import (
    AlgorithmOutcome,
    CheckReport,
    CrossCheckReport,
    GenKind,
    GenSpec,
    check_candidate,
    cross_check,
    generate,
)
from .matio import matrix_from_payload, matrix_to_payload, read_matrix, write_matrix

__version__ = "0.1.0"
