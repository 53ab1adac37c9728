"""Colored permutation groups, their statistics, bijective encodings, and
exact verification of the associated generating-function identities."""

from .group import (
    BudgetExceededError,
    ColoredInteger,
    ColoredPermutation,
    ParseError,
    StatRecord,
    compare_colored,
    enumerate_group,
    format_window,
    group_order,
    identity_element,
    inverse,
    multiply,
    parse_window,
    project_to_signed,
    skew_inverse,
    statistics,
)
from .encoding import (
    ColoredSequence,
    Partition,
    SequenceStats,
    enumerate_sequences,
    format_sequence,
    is_compatible,
    lambda_gamma,
    lambda_of,
    parse_partition,
    parse_sequence,
    partitions_in_box,
    pi_of,
    seq_statistics,
    sequence_from,
)
from .parabolic import DescentClass, decompose, quotient_set
from .biwords import (
    Biword,
    Triple,
    enumerate_biwords,
    from_triple,
    is_biword,
    to_triple,
)
from .qseries import (
    ExponentOverflowError,
    MultiPoly,
    SeriesContext,
    hat_multinomial,
    pochhammer,
)
from .identities import (
    CATALOG,
    VerificationReport,
    dist_polynomial,
    selftest_localization,
    verify_identity,
)

__version__ = "0.1.0"
