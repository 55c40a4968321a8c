"""Exact branch-and-price solver for the minimum weighted list coloring problem."""

from .core import (
    ColoringError,
    EmptyListError,
    Graph,
    Instance,
    ListColoring,
    build_instance,
    list_coloring,
    partition_colors,
    validate_coloring,
)
from .bnp import INFEASIBLE, NUMERICAL_FAILURE, OPTIMAL, TIME_LIMIT, SolveReport, solve
from .instgen import GenConfig, generate
from .oracle import OracleResult, oracle_solve

__all__ = [
    "ColoringError",
    "EmptyListError",
    "GenConfig",
    "Graph",
    "INFEASIBLE",
    "Instance",
    "ListColoring",
    "NUMERICAL_FAILURE",
    "OPTIMAL",
    "OracleResult",
    "SolveReport",
    "TIME_LIMIT",
    "build_instance",
    "generate",
    "list_coloring",
    "oracle_solve",
    "partition_colors",
    "solve",
    "validate_coloring",
]

__version__ = "0.1.0"
