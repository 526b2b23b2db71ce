"""Nondeterministic finite automata and the language checks built on them."""

from collections import deque

from .errors import CapExceeded, NfaError
from .filters import _fresh_name

INCLUSION_CAP = 2 ** 20


class Nfa:
    """Immutable NFA; accepting states mark language membership."""

    def __init__(self, states, initial, alphabet, transitions, accepting):
        self.states = tuple(states)
        if len(set(self.states)) != len(self.states):
            raise NfaError("duplicate state ids")
        state_set = set(self.states)
        self.alphabet = tuple(alphabet)
        if len(set(self.alphabet)) != len(self.alphabet):
            raise NfaError("duplicate alphabet symbols")
        sym_set = set(self.alphabet)
        if not set(initial):
            raise NfaError("automaton has no initial state")
        for s in set(initial) | set(accepting):
            if s not in state_set:
                raise NfaError(f"state {s!r} is not declared")
        self._index = {s: i for i, s in enumerate(self.states)}
        self.initial = frozenset(initial)
        self.accepting = frozenset(accepting)
        self.transitions = {}
        for (src, y), targets in dict(transitions).items():
            if src not in state_set:
                raise NfaError(f"transition source {src!r} is not declared")
            if y not in sym_set:
                raise NfaError(f"transition symbol {y!r} is not declared")
            targets = frozenset(targets)
            for t in targets:
                if t not in state_set:
                    raise NfaError(f"transition target {t!r} is not declared")
            if targets:
                self.transitions[(src, y)] = targets

    def step(self, subset, symbol):
        nxt = set()
        for s in subset:
            nxt.update(self.transitions.get((s, symbol), ()))
        return frozenset(nxt)

    def accepts(self, string):
        reached = frozenset(self.initial)
        for y in string:
            reached = self.step(reached, y)
            if not reached:
                return False
        return bool(reached & self.accepting)

    def is_deterministic(self):
        return len(self.initial) == 1 and all(
            len(t) == 1 for t in self.transitions.values()
        )

    def is_complete(self):
        return all(
            (s, y) in self.transitions for s in self.states for y in self.alphabet
        )

    def __repr__(self):
        return f"<Nfa {len(self.states)} states, {len(self.alphabet)} symbols>"


def subset_construct(n, cap=INCLUSION_CAP):
    """Determinize an NFA.  The result is complete (the empty subset is the
    explicit dead state) and accepts exactly the same language."""
    start = frozenset(n.initial)
    order = [start]
    seen = {start}
    edges = {}
    qi = 0
    while qi < len(order):
        subset = order[qi]
        qi += 1
        for y in n.alphabet:
            nxt = n.step(subset, y)
            edges[(subset, y)] = nxt
            if nxt not in seen:
                if len(seen) >= cap:
                    raise CapExceeded(cap, "subset-constructing")
                seen.add(nxt)
                order.append(nxt)
    taken = set()
    names = {s: _fresh_name("{" + ",".join(sorted(s)) + "}", taken) for s in order}
    transitions = {
        (names[subset], y): {names[nxt]} for (subset, y), nxt in edges.items()
    }
    accepting = [names[s] for s in order if s & n.accepting]
    return Nfa([names[s] for s in order], [names[start]], n.alphabet,
               transitions, accepting)


def complete_dfa(d, alphabet=None):
    """Totalize a DFA with a fresh non-accepting trap state."""
    if not d.is_deterministic():
        raise NfaError("complete_dfa needs a deterministic automaton")
    if alphabet is None:
        alphabet = d.alphabet
    else:
        extra = [y for y in alphabet if y not in set(d.alphabet)]
        alphabet = tuple(d.alphabet) + tuple(extra)
    missing = [
        (s, y) for s in d.states for y in alphabet if (s, y) not in d.transitions
    ]
    if not missing and alphabet == d.alphabet:
        return d
    trap = _fresh_name("trap", set(d.states))
    transitions = dict(d.transitions)
    for s, y in missing:
        transitions[(s, y)] = {trap}
    for y in alphabet:
        transitions[(trap, y)] = {trap}
    return Nfa(tuple(d.states) + (trap,), d.initial, alphabet, transitions,
               d.accepting)


def _union_alphabet(a, b):
    return tuple(a.alphabet) + tuple(y for y in b.alphabet if y not in set(a.alphabet))


def union(automata):
    """Disjoint union; accepts the union of the operand languages."""
    automata = list(automata)
    if not automata:
        raise NfaError("union of no automata")
    alphabet = []
    for n in automata:
        for y in n.alphabet:
            if y not in alphabet:
                alphabet.append(y)
    states, initial, accepting, transitions = [], [], [], {}
    for i, n in enumerate(automata):
        tag = lambda s: f"{i}:{s}"
        states.extend(tag(s) for s in n.states)
        initial.extend(tag(s) for s in n.initial)
        accepting.extend(tag(s) for s in n.accepting)
        for (src, y), targets in n.transitions.items():
            transitions[(tag(src), y)] = {tag(t) for t in targets}
    return Nfa(states, initial, alphabet, transitions, accepting)


def complement(d):
    """Flip acceptance of a complete DFA."""
    if not d.is_deterministic() or not d.is_complete():
        raise NfaError("complement needs a complete DFA")
    return Nfa(d.states, d.initial, d.alphabet,
               d.transitions, set(d.states) - d.accepting)


def is_included(a, b, cap=INCLUSION_CAP):
    """Decide L(a) ⊆ L(b); on failure also return a shortest witness.

    Walks breadth-first over pairs (one state of a, reached subset of b),
    so b is determinized on the fly and a not at all; symbols are expanded
    in a's alphabet order, then b's other symbols.  The witness is a
    shortest gap string.  When a is deterministic, as sigma_star in
    is_universal is, it is also the first gap string in that order; when a
    is nondeterministic, a later string of the same length may be returned.
    Output simulation between filters does not use this: see the
    reached-set pair walk in filterkit.simulation.
    """
    alphabet = _union_alphabet(a, b)
    b_start = frozenset(b.initial)

    def bad(a_state, b_subset):
        return a_state in a.accepting and not (b_subset & b.accepting)

    parent = {}
    queue = deque()
    for a0 in sorted(a.initial, key=a._index.__getitem__):
        node = (a0, b_start)
        if node not in parent:
            parent[node] = None
            if bad(*node):
                return False, ()
            queue.append(node)
    while queue:
        node = queue.popleft()
        a_state, b_subset = node
        b_next = {}
        for y in alphabet:
            targets = a.transitions.get((a_state, y))
            if not targets:
                continue
            if y not in b_next:
                b_next[y] = b.step(b_subset, y)
            for a_next in sorted(targets, key=a._index.__getitem__):
                nxt = (a_next, b_next[y])
                if nxt in parent:
                    continue
                if len(parent) >= cap:
                    raise CapExceeded(cap, "checking language inclusion")
                parent[nxt] = (node, y)
                if bad(*nxt):
                    witness = []
                    cur = nxt
                    while parent[cur] is not None:
                        cur, sym = parent[cur]
                        witness.append(sym)
                    return False, tuple(reversed(witness))
                queue.append(nxt)
    return True, None


def is_equivalent(a, b, cap=INCLUSION_CAP):
    """Decide L(a) = L(b)."""
    return is_included(a, b, cap)[0] and is_included(b, a, cap)[0]


def sigma_star(alphabet):
    """One accepting state looping on every symbol."""
    return Nfa(["*"], ["*"], alphabet, {("*", y): {"*"} for y in alphabet}, ["*"])


def is_universal(a, cap=INCLUSION_CAP):
    """Decide L(a) = Σ* over a's own alphabet; witness on failure."""
    return is_included(sigma_star(a.alphabet), a, cap)
