"""Exact-arithmetic workbench for densities of regular languages and
regular approximations of non-regular ones."""

from .core import (
    Alphabet,
    BudgetExceededError,
    DEFAULT_ENUMERATION_BUDGET,
    LengthCensus,
    Stepper,
    census_by_enumeration,
    enumerate_words,
    ratio_and_cesaro,
)
from .automata import (
    Dfa,
    Nfa,
    dfa_from_json,
    equivalent,
    find_difference_witness,
    has_forbidden_word,
    is_subset,
    mod_counter_dfa,
    random_dfa,
    shortlex_least_member,
)
from .density import (
    DensityReport,
    density,
    is_dense,
    is_null,
    natural_density,
    solve_exact,
)
from .languages import (
    DiagonalLanguage,
    LanguageOracle,
    Morphism,
    coprefix,
    count_eq,
    diagonal,
    goldstine,
    infix_extension,
    is_primitive,
    kemp,
    kemp_base,
    majority,
    o3,
    o4,
    palindromes,
    prefix_extension,
    primitive,
    semi_dyck,
    suffix_extension,
)
from .monoid import (
    GreenClasses,
    Monoid,
    green_classes,
    nonprimitive_witness,
    transition_monoid,
)
from .approximations import (
    ApproxFamily,
    GapReport,
    GapRow,
    family,
    gap_report,
    infix_extension_family,
    majority_escape_witness,
    prefix_extension_family,
    suffix_extension_family,
    verify_containment,
)

__all__ = [name for name in dir() if not name.startswith("_")]
