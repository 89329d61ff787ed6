"""Distribution-free prediction sets for multi-environment data."""

from mecp.quantiles import (
    DiscreteDistribution,
    left_quantile,
    quant_minus,
    quant_plus,
)

__version__ = "0.1.0"

__all__ = [
    "DiscreteDistribution",
    "left_quantile",
    "quant_minus",
    "quant_plus",
]
