"""Tail risk measures (VaR, CTE, MoT) of FGM-coupled bivariate losses.

Exponential and Pareto marginals joined by the FGM copula; closed forms
and bracketed root solves for the minimum, maximum and sum of the two
risks, cross-checked by a seeded Monte Carlo oracle.
"""

from .aggregate import (
    AggregateExpPortfolio,
    aggregate_cdf,
    aggregate_cte,
    aggregate_mot,
    aggregate_pdf,
    aggregate_report,
    aggregate_var,
)
from .copula import FgmCopula
from .errors import (
    BracketInvalid,
    CopulaRiskError,
    DivergentTail,
    DomainError,
    LowTailCount,
    NoBracket,
    NoConvergence,
)
from .extremes import (
    BivariatePortfolio,
    ExtremeSelector,
    extreme_cdf,
    extreme_cte,
    extreme_mot,
    extreme_pdf,
    extreme_report,
    extreme_var,
)
from .marginals import (
    Alpha,
    ExponentialMarginal,
    Method,
    ParetoMarginal,
    RiskReport,
    cte,
    mot,
    report,
    var,
)
from .mc_oracle import (
    EstimateWithError,
    SampleBatch,
    empirical_cte,
    empirical_mot,
    empirical_var,
    sample_pairs,
    scalar_sample,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateExpPortfolio",
    "Alpha",
    "BivariatePortfolio",
    "BracketInvalid",
    "CopulaRiskError",
    "DivergentTail",
    "DomainError",
    "EstimateWithError",
    "ExponentialMarginal",
    "ExtremeSelector",
    "FgmCopula",
    "LowTailCount",
    "Method",
    "NoBracket",
    "NoConvergence",
    "ParetoMarginal",
    "RiskReport",
    "SampleBatch",
    "aggregate_cdf",
    "aggregate_cte",
    "aggregate_mot",
    "aggregate_pdf",
    "aggregate_report",
    "aggregate_var",
    "cte",
    "empirical_cte",
    "empirical_mot",
    "empirical_var",
    "extreme_cdf",
    "extreme_cte",
    "extreme_mot",
    "extreme_pdf",
    "extreme_report",
    "extreme_var",
    "mot",
    "report",
    "sample_pairs",
    "scalar_sample",
    "var",
]
