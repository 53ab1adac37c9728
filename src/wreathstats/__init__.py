"""Colored permutation groups, their statistics, bijective encodings, and
exact verification of the associated generating-function identities."""

from importlib import import_module as _import_module

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
# The ring and the identity catalog are needed only to verify, so they load
# on first use of one of their names (PEP 562), not with the package.
_LAZY = {
    "ExponentOverflowError": "qseries",
    "MultiPoly": "qseries",
    "SeriesContext": "qseries",
    "hat_multinomial": "qseries",
    "pochhammer": "qseries",
    "CATALOG": "identities",
    "VerificationReport": "identities",
    "dist_polynomial": "identities",
    "selftest_localization": "identities",
    "verify_identity": "identities",
}

__all__ = [
    "group", "encoding", "parabolic", "biwords", "qseries", "identities",
    "BudgetExceededError", "ColoredInteger", "ColoredPermutation",
    "ParseError", "StatRecord", "compare_colored", "enumerate_group",
    "format_window", "group_order", "identity_element", "inverse", "multiply",
    "parse_window", "project_to_signed", "skew_inverse", "statistics",
    "ColoredSequence", "Partition", "SequenceStats", "enumerate_sequences",
    "format_sequence", "is_compatible", "lambda_gamma", "lambda_of",
    "parse_partition", "parse_sequence", "partitions_in_box", "pi_of",
    "seq_statistics", "sequence_from",
    "DescentClass", "decompose", "quotient_set",
    "Biword", "Triple", "enumerate_biwords", "from_triple", "is_biword",
    "to_triple",
    *_LAZY,
]

__version__ = "0.1.0"


def __getattr__(name):
    if name in ("qseries", "identities"):
        value = _import_module(f"{__name__}.{name}")
    elif name in _LAZY:
        value = getattr(_import_module(f"{__name__}.{_LAZY[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
