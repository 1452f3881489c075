"""Solution sets of word equations in finite groups: exact fractions,
translate-cover invariants, and brute-force checks of theorem-level facts."""

from .catalog import catalog, catalog_upto, parse_group_list
from .group import (
    Group,
    ProductGroup,
    Subset,
    TableGroup,
    center,
    centralizer,
    conjugacy_classes,
    derived_subgroup,
    direct_product,
    exponent,
    is_abelian,
    nilpotency_class,
    power,
    quotient,
)
from .largeness import (
    INFINITE,
    UNBOUNDED,
    LargenessReport,
    cover_number,
    is_k_generic,
    is_k_large,
    largeness_number,
    largeness_report,
    naive_is_k_large,
)
from .linearize import linearize, linearize_product
from .probability import (
    AcReport,
    SolutionSet,
    autocommutativity_degree,
    commuting_probability,
    equation_largeness,
    probability,
    solution_set,
    solution_sets_by_value,
)
from .verifier import CHECKS, QUESTIONS, run_check, run_search, run_suite
from .words import Equation, parse_equation, parse_word, to_text

__version__ = "0.1.0"
