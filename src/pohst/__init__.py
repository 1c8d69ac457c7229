"""Certified verification of Pohst's product inequality.

f_n(v) = prod_{1<=i<=j<=n} (1 - x_i...x_j) <= 2^floor((n+1)/2) on
[-1,1]^n, established constructively: for every sign pattern a *good
partition* of the non-canonical term set certifies block-wise
domination by the mirrored vector -|v|.  The package builds those
partitions, validates them independently, searches for
counterexamples, and applies the inequality to the regulator-
discriminant bound for number fields.
"""

from .numbertheory import (
    BoundResult,
    compare_bounds,
    hermite_constant,
    improved_bound,
    remak_bound,
)
from .partition import (
    BuildStep,
    CheckResult,
    Configuration,
    ConstructionFailure,
    GoodPartition,
    PartitionBlock,
    audit_build,
    build_good_partition,
    certificate_from_json,
    certificate_to_json,
    check_impossible_configurations,
    classify,
    domination_check,
    horizontal_list,
    ideal_case_factorization,
    parity_counts,
    prec_less,
    sign_rectangle_relation,
    validate_partition,
    vertical_list,
)
from .search import (
    MaximizeResult,
    SweepReport,
    enumerate_maximizers,
    eval_f_batch,
    maximize_f,
    sample_blockwise_domination,
    sample_domination,
    sweep_patterns,
    verify_pattern,
)
from .triangle import (
    NonCanonicalSet,
    SignedTerm,
    TermIndex,
    eval_f,
    eval_term,
    negate_abs,
    noncanonical_set,
    pohst_bound,
    product_sign,
    sign_pattern_of,
    split_at_zeros,
    term_indices,
)

__version__ = "0.1.0"
