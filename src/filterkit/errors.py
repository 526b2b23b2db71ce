"""Exception types shared across the toolkit."""


class FilterError(ValueError):
    """A filter description violates a structural invariant."""


class NoInitialState(FilterError):
    pass


class UnknownState(FilterError):
    pass


class UnknownSymbol(FilterError):
    pass


class EmptyColorSet(FilterError):
    def __init__(self, state):
        super().__init__(f"state {state!r} has an empty color set")
        self.state = state


class NfaError(ValueError):
    """An automaton description violates a structural invariant."""


class CapExceeded(RuntimeError):
    """A work cap was hit: more subsets than the cap in a subset
    construction, more reached-set pairs in the output-simulation walk, or
    more (state, subset) pairs in an NFA inclusion check.  A time cap too,
    of kind "time", when it passes during minimize_det's subset
    construction, before any simulator exists to return."""

    def __init__(self, cap, context="", kind="state"):
        msg = f"{kind} cap {cap} exceeded"
        if context:
            msg += f" while {context}"
        super().__init__(msg)
        self.cap = cap


class NoAcceptingState(ValueError):
    """The DFA family accepts nothing, so the union reduction refuses."""
