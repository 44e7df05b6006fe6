"""Hypothesis checks for finiteness of discrete overgroups of cocompact
lattices in products of two regular trees.

The package decides, from finite combinatorial input (one-vertex VH
square-complex data, or raw permutation generator sets), whether the local
actions are quasi-primitive of constant almost simple type with
non-discreteness evidence, and evaluates the section obstruction and the
index-chain arithmetic that drive the finiteness criterion.
"""

from .errors import TreelatError
from .permcore import (
    PermGroup,
    compose,
    inverse,
    perm_group,
)
from .vhcomplex import VhDatum, dual, parse_datum, serialize_datum, validate
from .localaction import tower, discreteness_verdict
from .pipeline import (
    AnalysisCaps,
    WangReport,
    analyze_datum,
    analyze_pair,
    wang_index_bound,
)
from .survey import enumerate_complete_data, survey_level_growth

__version__ = "0.1.0"

__all__ = [
    "AnalysisCaps",
    "PermGroup",
    "TreelatError",
    "VhDatum",
    "WangReport",
    "analyze_datum",
    "analyze_pair",
    "compose",
    "discreteness_verdict",
    "dual",
    "enumerate_complete_data",
    "inverse",
    "parse_datum",
    "perm_group",
    "serialize_datum",
    "survey_level_growth",
    "tower",
    "validate",
    "wang_index_bound",
    "__version__",
]
