"""Bivariate Bernstein-Szasz-Stancu positive linear operators.

Numerical toolkit for a family of bivariate positive linear operators built
from Bernstein weights in x and Poisson (Szasz) weights in y at shifted
nodes, together with estimators and checkers for their approximation-rate
bounds on compact rectangles and in polynomially weighted spaces.
"""

__version__ = "0.1.0"

from .basis import (
    DEFAULT_POLICY,
    DomainError,
    TruncationError,
    TruncationPolicy,
)
from .operators import (
    CompactRegion,
    Function2D,
    KernelFamily,
    MomentSet,
    Point2D,
    StancuParams,
    apply,
    apply_on_grid,
    blocked_bands,
    moments_closed_form,
    sample_lattice,
    second_central_moment,
    second_central_moment_grid,
    square_gap_grid,
)
from .moduli import lattice_moduli
from .bounds import (
    DeltaTriple,
    check_theorem_3_3,
    deltas,
    sup_distance_power_operator,
    theorem_4_1_bound,
)
from .reporting import BoundReport
from .taylor import (
    LipschitzWitness,
    PartialDerivativeSet,
    apply_rth,
    f_rth_lipschitz_estimate,
    finite_difference_derivs,
)
from .weighted import (
    check_theorem_5_2,
    check_theorem_5_3,
    operator_rho_norm_bound,
)
from .corpus import CorpusEntry, CorpusLookupError, corpus_lookup, corpus_names
