"""Lower confidence bounds on the mean of discrete bounded distributions,
consistent with total orders and preorders on samples."""

from .closedform import (
    Bracket,
    lexi_high_homogeneous_bracket,
    lexi_low_homogeneous,
    optimal_pointwise_homogeneous,
)
from .dist import Distribution, SupportSet, augment, mean, prob_upper_set, sample_prob
from .oracle import (
    InfeasibleError,
    OracleConfig,
    OracleResult,
    pessimal_bound_oracle,
    pointwise_bound_oracle,
    refined_support,
)
from .orders import (
    CustomTable,
    LexiLow,
    LexiHigh,
    Omega,
    Pointwise,
    Quantile,
    UpperSet,
    enumerate_omega,
    monotone_linear_extensions,
    upper_set,
)
from .quantile import QuantileBoundResult, quantile_bound, tail_prob
from .support import Sample, SupportGrid, homogeneous_sample, make_sample

__version__ = "0.1.0"

__all__ = [
    "Bracket",
    "CustomTable",
    "Distribution",
    "InfeasibleError",
    "LexiHigh",
    "LexiLow",
    "Omega",
    "OracleConfig",
    "OracleResult",
    "Pointwise",
    "Quantile",
    "QuantileBoundResult",
    "Sample",
    "SupportGrid",
    "SupportSet",
    "UpperSet",
    "augment",
    "enumerate_omega",
    "homogeneous_sample",
    "lexi_high_homogeneous_bracket",
    "lexi_low_homogeneous",
    "make_sample",
    "mean",
    "monotone_linear_extensions",
    "optimal_pointwise_homogeneous",
    "pessimal_bound_oracle",
    "pointwise_bound_oracle",
    "prob_upper_set",
    "quantile_bound",
    "refined_support",
    "sample_prob",
    "tail_prob",
    "upper_set",
]
