"""Instance generators that embed automata questions into filter minimization.

from_nfa_universality builds a filter whose minimal output-simulating filter
has exactly one state iff the source NFA accepts every string.
from_dfa_union does the same for deterministic minimizers and the union
language of a DFA family.  verify_reduction re-decides the automaton-side
question independently and compares it with the minimization-side answer.
"""

from .errors import NfaError, NoAcceptingState
from .filters import Filter, _fresh_name, _reachable
from .minimize import SearchBudget, YES, decide_size_k
from .nfa import complete_dfa, is_universal, union


class ReductionInstance:
    """A generated filter plus enough bookkeeping to audit it."""

    __slots__ = ("kind", "filter", "source", "fresh_symbol", "details")

    def __init__(self, kind, filter, source, fresh_symbol, details):
        self.kind = kind
        self.filter = filter
        self.source = source
        self.fresh_symbol = fresh_symbol
        self.details = details

    def __repr__(self):
        return f"ReductionInstance({self.kind}, {len(self.filter.states)} states)"


def from_nfa_universality(a):
    """Embed "is L(a) = Σ*?" into 1-state minimizer existence.

    The filter copies a, adds a hub state that survives every Σ-symbol, and
    two fresh states behind a fresh symbol z: a blue probe reached from the
    hub by every string sz, and a green flag reached only when s is accepted
    by a.  A single green state with a full self-loop output-simulates the
    result iff a is universal.
    """
    z = _fresh_name("z", set(a.alphabet), "")
    taken = set(a.states)
    hub, probe, flag = (_fresh_name(base, taken, "") for base in ("hub", "probe", "flag"))

    n = len(a.states)  # hub, probe and flag follow a's states
    succ = [table + [(n,), (), ()] for table in a._succ]
    succ.append([(n + 2,) if a._accept >> i & 1 else () for i in range(n)] + [(n + 1,), (), ()])
    color = [1] * (n + 3)  # green, but a blue probe
    color[n + 1] = 2
    f = Filter._from_tables(a.states + (hub, probe, flag), a.alphabet + (z,),
                            ("green", "blue"), a._init + (n,), succ, color)
    return ReductionInstance(
        "nfa-universality", f, a, z,
        {"hub": hub, "probe": probe, "flag": flag},
    )


def from_dfa_union(dfas):
    """Embed "is the union of the DFA languages Σ*?" into deterministic
    1-state minimizer existence.

    Every DFA is totalized over the united alphabet and the copies run in
    parallel (so no Σ-string ever crashes); accepting copies are green, the
    rest red.  A fresh symbol z leads from the first reachable accepting
    copy to a fresh green state, which pins the candidate's color to green.
    Raises NoAcceptingState when the union language is empty.
    """
    dfas = list(dfas)
    if not dfas:
        raise NfaError("union reduction needs at least one automaton")
    for d in dfas:
        if not d.is_deterministic():
            raise NfaError("union reduction needs deterministic automata")
    sigma = tuple(dict.fromkeys(y for d in dfas for y in d.alphabet))
    combined = union(complete_dfa(d, sigma) for d in dfas)

    accept = combined._accept
    source = min((i for i in _reachable(combined._init, combined._succ) if accept >> i & 1),
                 default=None)
    if source is None:
        raise NoAcceptingState("no automaton in the family accepts anything")

    z = _fresh_name("z", set(combined.alphabet), "")
    mark = _fresh_name("mark", set(combined.states), "")
    n = len(combined.states)  # mark follows the copies
    succ = [table + [()] for table in combined._succ]
    succ.append([()] * (n + 1))
    succ[-1][source] = (n,)
    color = [1 if accept >> i & 1 else 2 for i in range(n)] + [1]  # green or red
    f = Filter._from_tables(combined.states + (mark,), combined.alphabet + (z,),
                            ("green", "red"), combined._init, succ, color)
    return ReductionInstance(
        "dfa-union-universality", f, tuple(dfas), z,
        {"mark": mark, "z_source": combined.states[source]},
    )


def verify_reduction(instance, budget=None):
    """Re-decide the source question and compare with the filter answer.

    Returns True when the automaton-side decision (via the language checks)
    agrees with 1-state minimizer existence on the generated filter.
    """
    if budget is None:
        budget = SearchBudget()
    if instance.kind == "nfa-universality":
        automaton_answer = is_universal(instance.source)[0]
    elif instance.kind == "dfa-union-universality":
        sigma = instance.filter.observations[:-1]
        family = union(complete_dfa(d, sigma) for d in instance.source)
        automaton_answer = is_universal(family)[0]
    else:
        raise ValueError(f"unknown reduction kind {instance.kind!r}")
    filter_answer = decide_size_k(instance.filter, 1, budget).outcome == YES
    return automaton_answer == filter_answer
