"""Counting reduced words in free quasigroups.

P(s, n) counts the n-letter words on s generators, over multiplication
and the two divisions, that no quasigroup identity can shorten.  The
package computes these exactly (closed form and independent recursion),
verifies them against brute-force tree enumeration, and tracks their
growth in log space up to the scales where the asymptotic regularities
show up.
"""

from .asymptotics import (
    LogTable,
    RationalFitResult,
    RegressionResult,
    RhoMemo,
    cancelation_defect,
    defect_series,
    linear_regression,
    log_peri_table,
    quotient,
    rational_fit,
)
from .enumeration import (
    PeriTable,
    aux_bivariate,
    build_table,
    catalan,
    peri_catalan,
    peri_catalan_recursive,
    word_count_bound,
)
from .errors import (
    CacheError,
    CacheIntegrityError,
    DomainError,
    ResourceGuardError,
    StabilityError,
    WordSyntaxError,
)
from .euclid import EuclidTrace, euclid_trace
from .freewords import (
    ALL_OPS,
    BASIC_OPS,
    LDIV,
    MUL,
    OMUL,
    OLDIV,
    ORDIV,
    RDIV,
    OpSymbol,
    count_reduced,
    count_reduced_rooted,
    enumerate_basic_trees,
    format_word,
    is_reduced,
    is_reduced_triality,
    nodal_class,
    normalize_full,
    parse_word,
)

__version__ = "0.1.0"
