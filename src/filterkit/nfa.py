"""Nondeterministic finite automata and the language checks built on them.

Nfa is built on the table class of filterkit.filters: succ[k][i] is the
ascending tuple of the states alphabet[k] leads state i to and the initial
states are an ascending tuple, with the same storage, string walk, edge
list and determinism check as a Filter.  In place of colors, the accepting
states are one bitmask.  The name-keyed views `initial`, `accepting` and
`transitions` are built on first use.
"""

import functools

from .errors import CapExceeded, NfaError, UnknownSymbol
from .filters import _fresh_name, _mask, _names, _path, _Tables

INCLUSION_CAP = 2 ** 20


def _symbols(alphabet):
    """alphabet as a tuple; raises NfaError if a symbol repeats."""
    alphabet = tuple(alphabet)
    if len(set(alphabet)) != len(alphabet):
        raise NfaError("duplicate alphabet symbols")
    return alphabet


class Nfa(_Tables):
    """Immutable NFA; accepting states mark language membership.

    transitions maps (source, symbol) pairs to the set of states the symbol
    leads the source to.
    """

    def __init__(self, states, initial, alphabet, transitions, accepting):
        states = tuple(states)
        index = {s: i for i, s in enumerate(states)}
        if len(index) != len(states):
            raise NfaError("duplicate state ids")
        alphabet = _symbols(alphabet)
        initial, accepting = set(initial), set(accepting)
        if not initial:
            raise NfaError("automaton has no initial state")
        for s in initial | accepting:
            if s not in index:
                raise NfaError(f"state {s!r} is not declared")
        self._store(states, alphabet, tuple(sorted(map(index.__getitem__, initial))),
                    [[()] * len(states) for _ in alphabet], _mask(map(index.__getitem__, accepting)))
        for (src, y), targets in dict(transitions).items():
            i = index.get(src)
            if i is None:
                raise NfaError(f"transition source {src!r} is not declared")
            k = self._symbol_index.get(y)
            if k is None:
                raise NfaError(f"transition symbol {y!r} is not declared")
            targets = frozenset(targets)
            for t in targets:
                if t not in index:
                    raise NfaError(f"transition target {t!r} is not declared")
            self._succ[k][i] = tuple(sorted(map(index.__getitem__, targets)))

    def _store(self, states, alphabet, initial, succ, accept):
        super()._store(states, alphabet, initial, succ)
        self.alphabet = alphabet
        self._accept = accept

    @functools.cached_property
    def accepting(self):
        return frozenset(_names(self._accept, self.states))

    @functools.cached_property
    def transitions(self):
        states = self.states
        return {(states[i], y): frozenset(states[j] for j in cell)
                for y, table in zip(self.alphabet, self._succ)
                for i, cell in enumerate(table) if cell}

    def accepts(self, string):
        """True iff the automaton accepts string; a symbol outside the
        alphabet crashes every run."""
        try:
            reached = self._reach(string)
        except UnknownSymbol:
            return False
        return bool(_mask(reached) & self._accept)

    def __repr__(self):
        return f"<Nfa {len(self.states)} states, {len(self.alphabet)} symbols>"


def complete_dfa(d, alphabet=None):
    """Totalize a DFA with a fresh non-accepting trap state.  The symbols of
    alphabet that d lacks follow d's own."""
    if not d.is_deterministic():
        raise NfaError("complete_dfa needs a deterministic automaton")
    extra = _symbols(y for y in alphabet or () if y not in d._symbol_index)
    if not extra and all(map(all, d._succ)):
        return d
    trap = (len(d.states),)
    succ = [[cell or trap for cell in table] + [trap] for table in d._succ]
    succ += [[trap] * (len(d.states) + 1) for _ in extra]
    return Nfa._from_tables(d.states + (_fresh_name("trap", set(d.states)),),
                            d.alphabet + extra, d._init, succ, d._accept)


def union(automata):
    """Disjoint union; accepts the union of the operand languages.  State s
    of the i-th operand is named i:s, and the alphabet is the operands'
    symbols in order of first appearance."""
    automata = list(automata)
    if not automata:
        raise NfaError("union of no automata")
    alphabet = tuple(dict.fromkeys(y for n in automata for y in n.alphabet))
    states, initial, accept = [], [], 0
    succ = [[] for _ in alphabet]
    for i, n in enumerate(automata):
        offset = len(states)
        states += [f"{i}:{s}" for s in n.states]
        initial += [offset + j for j in n._init]
        accept |= n._accept << offset
        for y, row in zip(alphabet, succ):
            k = n._symbol_index.get(y)
            table = [()] * len(n.states) if k is None else n._succ[k]
            row += [tuple(offset + j for j in cell) for cell in table]
    return Nfa._from_tables(tuple(states), alphabet, tuple(initial), succ, accept)


def is_included(a, b, cap=INCLUSION_CAP):
    """Decide L(a) ⊆ L(b); on failure also return a shortest witness.

    Walks breadth-first over pairs (one state of a, mask of the reached
    states of b), so b is determinized on the fly and a not at all; symbols
    are expanded in a's alphabet order.  A pair is one int, state *
    2 ** len(b.states) + mask, and its parent is previous pair *
    len(a.alphabet) + symbol index.  The witness is a shortest gap string.
    When a is deterministic, as sigma_star in is_universal is, it is also
    the first gap string in that order; when a is nondeterministic, a later
    string of the same length may be returned.  Raises CapExceeded once more
    than cap pairs, the initial ones included, would be reached, and
    ValueError for a cap below 1 or NaN.  Output simulation between filters
    does not use this: see filterkit.simulation.
    """
    if not cap >= 1:
        raise ValueError("cap must be positive")
    # steps[k][i]: the mask of the states of b that a's k-th symbol leads i to
    steps = b._masks_over(a.alphabet)
    a_accept, b_accept = a._accept, b._accept
    stride, width = 1 << len(b.states), len(a.alphabet)
    start = _mask(b._init)
    parent = {}
    queue = []
    for x in a._init:
        if len(parent) >= cap:
            raise CapExceeded(cap, "checking language inclusion")
        node = x * stride + start
        parent[node] = None
        if a_accept >> x & 1 and not start & b_accept:
            return False, ()
        queue.append(node)
    for node in queue:
        x, reached = divmod(node, stride)
        base = node * width
        for k, table in enumerate(a._succ):
            targets = table[x]
            if not targets:
                continue
            step = steps[k]
            nxt_reached = 0
            m = reached
            while m:
                bit = m & -m
                nxt_reached |= step[bit.bit_length() - 1]
                m ^= bit
            for x2 in targets:
                nxt = x2 * stride + nxt_reached
                if nxt in parent:
                    continue
                if len(parent) >= cap:
                    raise CapExceeded(cap, "checking language inclusion")
                parent[nxt] = base + k
                if a_accept >> x2 & 1 and not nxt_reached & b_accept:
                    return False, _path(parent, nxt, a.alphabet)
                queue.append(nxt)
    return True, None


def sigma_star(alphabet):
    """One accepting state looping on every symbol."""
    alphabet = _symbols(alphabet)
    return Nfa._from_tables(("*",), alphabet, (0,), [[(0,)] for _ in alphabet], 1)


def is_universal(a, cap=INCLUSION_CAP):
    """Decide L(a) = Σ* over a's own alphabet; witness on failure."""
    return is_included(sigma_star(a.alphabet), a, cap)
