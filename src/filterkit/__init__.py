"""Combinatorial filters: representation, simulation checking, minimization.

A filter consumes observation strings and reports a set of colors. This
package provides the data structure, an output-simulation decision
procedure, exact minimization under both nondeterministic and deterministic
targets, hardness-reduction generators, and some instructive filter
families, plus a CLI wrapping all of it.
"""

from .errors import (
    CapExceeded,
    EmptyColorSet,
    FilterError,
    NfaError,
    NoAcceptingState,
    NoInitialState,
    UnknownState,
    UnknownSymbol,
)
from .filters import DETERMINIZE_CAP, Filter, TraceResult
from .nfa import INCLUSION_CAP, Nfa, is_included, is_universal
from .simulation import (
    LANGUAGE_GAP,
    OUTPUT_VIOLATION,
    SimulationVerdict,
    output_simulates,
)
from .minimize import (
    BUDGET_EXHAUSTED,
    NO,
    YES,
    MinimizationResult,
    SearchBudget,
    SizeDecision,
    decide_size_k,
    minimize_det,
    minimize_nondet,
)
from .reductions import ReductionInstance, from_dfa_union, from_nfa_universality, verify_reduction
from .families import (
    donut_world,
    fig3_input,
    fig3_minimizer,
    prime_family,
    prime_family_minimizer,
)
from .textio import (
    emit_filter,
    emit_nfa,
    filter_to_dot,
    format_string,
    parse_filter,
    parse_nfa,
    parse_string,
)

__version__ = "0.1.0"

__all__ = [
    "BUDGET_EXHAUSTED",
    "CapExceeded",
    "DETERMINIZE_CAP",
    "EmptyColorSet",
    "Filter",
    "FilterError",
    "INCLUSION_CAP",
    "LANGUAGE_GAP",
    "MinimizationResult",
    "NO",
    "Nfa",
    "NfaError",
    "NoAcceptingState",
    "NoInitialState",
    "OUTPUT_VIOLATION",
    "ReductionInstance",
    "SearchBudget",
    "SimulationVerdict",
    "SizeDecision",
    "TraceResult",
    "UnknownState",
    "UnknownSymbol",
    "YES",
    "decide_size_k",
    "donut_world",
    "emit_filter",
    "emit_nfa",
    "fig3_input",
    "fig3_minimizer",
    "filter_to_dot",
    "format_string",
    "from_dfa_union",
    "from_nfa_universality",
    "is_included",
    "is_universal",
    "minimize_det",
    "minimize_nondet",
    "output_simulates",
    "parse_filter",
    "parse_nfa",
    "parse_string",
    "prime_family",
    "prime_family_minimizer",
    "verify_reduction",
]
