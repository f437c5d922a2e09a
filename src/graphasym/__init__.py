"""Exact and asymptotic enumeration of sparse connected labelled graphs.

The package counts connected labelled graphs by excess k = m - n exactly,
expresses the counts through tree polynomials and Ramanujan's Q-function,
and derives symbolic asymptotic expansions for the counts, for binomial
totals, and for the probability that a random graph is connected.
"""
from .assembly import (
    CrosscheckReport,
    Decomposition,
    Normalization,
    asym_c,
    asym_g,
    asym_p,
    decompose,
    exact_count_via_t,
    exact_total,
    expansion,
    fss_crosscheck,
    normalization,
)
from .errors import (
    ConstantTermError,
    CrosscheckFailure,
    GraphAsymError,
    IllConditioned,
    InsufficientPoints,
    OrderMismatch,
    OutsideRing,
    VerificationFailure,
)
from .fitting import FitResult, lsq_fit, reconstruct_symbolic, two_window_symbols
from .graphs import CountTable, connected_counts, recover_ak
from .ramanujan import (
    d_asym,
    d_coefficients,
    delta_log_series,
    q_asym,
    q_exact,
)
from .series import Series, egf_coefficient, tree_function
from .symbolic import AsymSeries, SymConst, bernoulli, stirling_series
from .treepoly import (
    TreePolyNormalForm,
    t_normal_form,
    t_value,
)

__version__ = "0.1.0"
