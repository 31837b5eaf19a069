"""Exact power sums of quotients, remainders, floors and fractional parts
of i*b/a in time logarithmic in max(a, b), via reciprocity recursions."""

from .errors import (
    FloorSumsError,
    InternalInvariantError,
    InvalidArgumentError,
    OutOfDomainError,
)
from .cross_sum import full_report, t2, t2_reciprocity_rhs, t3, t3_alt
from .floor_sum import floor_sum, remainder_sum
from .frobenius import four_var_count, nonrep_count, nonrep_sum
from .models import Instance, SumReport
from .numeric import sum_first, sum_squares
from .oracle import oracle_four_var, oracle_nonrep, oracle_report
from .square_sum import (
    ReciprocityTerms,
    reciprocity_terms,
    remainder_square_sum,
    s_value,
    t1,
)
from .trace import Trace, TraceStep, euclid_steps

__version__ = "0.1.0"

__all__ = [
    "FloorSumsError",
    "Instance",
    "InternalInvariantError",
    "InvalidArgumentError",
    "OutOfDomainError",
    "ReciprocityTerms",
    "SumReport",
    "Trace",
    "TraceStep",
    "euclid_steps",
    "floor_sum",
    "four_var_count",
    "full_report",
    "nonrep_count",
    "nonrep_sum",
    "oracle_four_var",
    "oracle_nonrep",
    "oracle_report",
    "reciprocity_terms",
    "remainder_square_sum",
    "remainder_sum",
    "s_value",
    "sum_first",
    "sum_squares",
    "t1",
    "t2",
    "t2_reciprocity_rhs",
    "t3",
    "t3_alt",
]
