"""Markov triples, their rational indexing, and the stable norm they induce.

The package exposes four layers: exact triple arithmetic on the solution
tree of x^2 + y^2 + z^2 = 3xyz, the correspondence between triples and
rationals in [0, 1] (computed two independent ways), the stable norm on the
plane with certified interval evaluation, and exhaustive verification of
the monotonicity statements plus counting asymptotics.
"""

from .conjectures import (
    FAMILIES,
    CheckResult,
    VerificationReport,
    check_fixed_denominator,
    check_fixed_numerator,
    check_fixed_sum,
    frobenius_scan,
    markov_numbers_up_to,
    theorem1_check_real,
    verify_family,
    verify_theorem1_random,
)
from .counting import CountPoint, count_lattice, count_triples, fit_constant
from .errors import (
    AccuracyLimitError,
    InternalInconsistencyError,
    NotMarkovError,
    OutOfRangeError,
    PreconditionViolatedError,
)
from .indexing import (
    GENERATORS,
    Slope,
    as_slope,
    christoffel_matrix,
    christoffel_word,
    markov_of_slope,
    markov_of_slope_via_trace,
    markov_table,
    mat_det,
    mat_mul,
    mat_trace,
    parse_slope,
    stern_brocot_path,
    word_matrix,
)
from .norm import (
    SYMMETRY_GROUP,
    NormInterval,
    apply_symmetry,
    ball_boundary_sample,
    canonicalize,
    norm_real,
    stable_norm,
    stable_norm_interval,
)
from .triples import (
    BINARY_ROOT,
    ROOT,
    SPINE,
    OrderedTriple,
    as_ordered,
    children,
    cubic_defect,
    enumerate_tree,
    is_markov,
    reduce_to_root,
    reduction_chain,
    vieta_flip,
)

__version__ = "0.1.0"
