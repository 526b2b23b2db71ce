"""Independent reference implementations used only by the tests.

Nothing here shares code with the package's decision procedures.  The
simulation oracle decides output simulation by a direct breadth-first walk
over pairs of reached state sets, and the brute-force minimizer enumerates
whole candidate filters and asks the oracle.  A second simulation oracle
works differently: it builds the tensor product of the two filters and
reduces simulation to NFA language inclusions.  canonical_search checks the
candidates of one search level one at a time, in the canonical order the
package's search counts them in.  compatibility_graph_oracle builds the
compatibility graph from a reverse map over every pair of states.
fooling_set_error re-checks a claimed fooling set by walking every string
it names.  named_quotient merges the classes of a partition through state
names and sets.  NamedFilter is the filter core kept on names: dicts keyed by
state names, one frozenset per edge label and color set; NamedNfa and the
named_* functions are the automaton core and the reductions kept the same
way; subset_dfa builds a complete DFA through named_subset_construct.
reference_from_dict and reference_filter are the filter document reader
and constructor as they were in two passes, with name-keyed dicts between
the document and the tables.  reference_emit_nfa and reference_filter_to_dot
are the automaton and DOT writers as they were, with nested layouts and
their edges read off the name-keyed views, and named_prime_family_minimizer
builds the primorial family through names.  All are written for
obviousness, not speed.
"""

import itertools
import json
import random
from collections import deque

from filterkit import Filter, Nfa
from filterkit.errors import (
    EmptyColorSet, FilterError, NoInitialState, UnknownState, UnknownSymbol)


def step_set(f, current, symbol):
    """All states reachable from any state in `current` by one symbol."""
    out = set()
    for (src, dst), syms in f.transitions.items():
        if src in current and symbol in syms:
            out.add(dst)
    return frozenset(out)


def colors_of(f, states):
    joined = set()
    for s in states:
        joined |= set(f.coloring[s])
    return frozenset(joined)


def walk(f, string):
    """Reached state set after a string, from the initial states."""
    current = frozenset(f.initial)
    for symbol in string:
        current = step_set(f, current, symbol)
    return current


def simulates_oracle(candidate, reference):
    """Decide output simulation by exploring reached-set pairs.

    Every observation string drives both filters to a pair of state sets;
    two strings landing on the same pair impose the same requirement, so a
    BFS over the finitely many pairs decides the property.  Returns (holds,
    witness) with a shortest failing string when it does not hold.
    """
    alphabet = sorted(set(reference.observations) | set(candidate.observations))
    start = (frozenset(reference.initial), frozenset(candidate.initial))
    seen = {start}
    queue = deque([(start, ())])
    while queue:
        (ref_set, cand_set), string = queue.popleft()
        if ref_set:
            if not cand_set:
                return False, string
            if not colors_of(candidate, cand_set) <= colors_of(reference, ref_set):
                return False, string
        for symbol in alphabet:
            nxt = (
                step_set(reference, ref_set, symbol),
                step_set(candidate, cand_set, symbol),
            )
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, string + (symbol,)))
    return True, None


def language_gap_oracle(candidate, reference):
    """Shortest string alive in `reference` but dead in `candidate`, or None."""
    alphabet = sorted(set(reference.observations) | set(candidate.observations))
    start = (frozenset(reference.initial), frozenset(candidate.initial))
    seen = {start}
    queue = deque([(start, ())])
    while queue:
        (ref_set, cand_set), string = queue.popleft()
        if ref_set and not cand_set:
            return string
        for symbol in alphabet:
            nxt = (
                step_set(reference, ref_set, symbol),
                step_set(candidate, cand_set, symbol),
            )
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, string + (symbol,)))
    return None


def all_filters(size, observations, colors):
    """Every filter with exactly `size` states, with no symmetry reduction.

    States are named t0..t{size-1}; all nonempty initial sets, all nonempty
    colorings, all transition labelings are produced.  Purely a small-case
    enumeration, so keep size*len(observations) tiny.
    """
    states = [f"t{i}" for i in range(size)]
    color_choices = [
        frozenset(c)
        for k in range(1, len(colors) + 1)
        for c in itertools.combinations(colors, k)
    ]
    symbol_sets = [
        frozenset(s)
        for k in range(len(observations) + 1)
        for s in itertools.combinations(observations, k)
    ]
    arcs = [(a, b) for a in states for b in states]
    for init_size in range(1, size + 1):
        for initial in itertools.combinations(states, init_size):
            for coloring in itertools.product(color_choices, repeat=size):
                for labels in itertools.product(symbol_sets, repeat=len(arcs)):
                    transitions = {
                        arc: set(syms)
                        for arc, syms in zip(arcs, labels)
                        if syms
                    }
                    yield Filter(
                        states,
                        list(initial),
                        observations,
                        transitions,
                        colors,
                        dict(zip(states, coloring)),
                    )


def brute_force_min_size(reference):
    """Smallest filter size that output-simulates `reference`, by exhaustion.

    Tries every candidate of size 1, then 2, and so on below the trimmed
    reference size; the trimmed reference itself always works, so that size
    is the fallback answer.
    """
    trimmed = reference.trim()
    for size in range(1, len(trimmed.states)):
        for candidate in all_filters(size, reference.observations, reference.colors):
            holds, _ = simulates_oracle(candidate, reference)
            if holds:
                return size
    return len(trimmed.states)


# -- the per-level candidate search, one candidate at a time -------------
#
# A copy of the package's candidate order as two plain itertools.product
# loops, with no backjumping: every candidate is built and checked.  The
# reference handed in is the trimmed filter the search compares against.


def canonical_candidates(reference, n, det):
    """The n-state candidates the search accounts for, in canonical order.

    Yields (initial states, coloring, successors) over states 0..n-1, with
    successors mapping (state, symbol) to a set of states.  Initial sets go
    by ascending bitmask, colorings by color bitmask with state 0 most
    significant, and transition tables last: nondeterministically one symbol
    bitmask per (state, target), deterministically one target + 1 (0 for
    none) per (state, symbol), state 0 most significant either way.  A
    deterministic candidate starts from state 0 alone.  Colorings whose
    initial states show a color the reference's initial states do not are
    left out, as the search never counts them.
    """
    obs = reference.observations
    color_sets = [
        frozenset(c for j, c in enumerate(reference.colors) if code >> j & 1)
        for code in range(1, 1 << len(reference.colors))
    ]
    initial_colors = colors_of(reference, reference.initial)
    if det:
        inits = [(0,)]
    else:
        inits = [tuple(i for i in range(n) if mask >> i & 1) for mask in range(1, 1 << n)]
    for init in inits:
        for coloring in itertools.product(color_sets, repeat=n):
            if not set().union(*(coloring[i] for i in init)) <= initial_colors:
                continue
            if det:
                for targets in itertools.product(range(n + 1), repeat=n * len(obs)):
                    succ = {(u, y): set() for u in range(n) for y in obs}
                    for slot, t in enumerate(targets):
                        if t:
                            succ[slot // len(obs), obs[slot % len(obs)]].add(t - 1)
                    yield init, coloring, succ
            else:
                for trans in itertools.product(range(1 << len(obs)), repeat=n * n):
                    succ = {(u, y): set() for u in range(n) for y in obs}
                    for cell, code in enumerate(trans):
                        for j, y in enumerate(obs):
                            if code >> j & 1:
                                succ[cell // n, y].add(cell % n)
                    yield init, coloring, succ


def candidate_accepted(reference, n, init, coloring, succ):
    """Is the candidate trim, and does it output-simulate the reference?

    A direct breadth-first walk over pairs (reference states, candidate
    states) reached by one string.
    """
    reached = set(init)
    frontier = list(init)
    while frontier:
        u = frontier.pop()
        for y in reference.observations:
            for v in succ[u, y] - reached:
                reached.add(v)
                frontier.append(v)
    if len(reached) < n:
        return False
    start = (frozenset(reference.initial), frozenset(init))
    seen = {start}
    queue = deque([start])
    while queue:
        ref_set, cand_set = queue.popleft()
        if not cand_set:
            return False
        shown = set().union(*(coloring[u] for u in cand_set))
        if not shown <= colors_of(reference, ref_set):
            return False
        for y in reference.observations:
            nxt = (
                step_set(reference, ref_set, y),
                frozenset(v for u in cand_set for v in succ[u, y]),
            )
            if nxt[0] and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return True


def canonical_search(reference, n, det, spent=0, cap=None):
    """Check the n-state candidates one by one, in canonical order.

    spent is the count of candidates already accounted for; cap, if given,
    is the last one that may be checked.  Returns (status, witness, spent)
    with status "found", "exhausted" or "capped", and the witness built the
    way the package names it (states s0..s{n-1}).
    """
    for init, coloring, succ in canonical_candidates(reference, n, det):
        spent += 1
        if cap is not None and spent > cap:
            return "capped", None, spent
        if candidate_accepted(reference, n, init, coloring, succ):
            states = [f"s{i}" for i in range(n)]
            transitions = {}
            for (u, y), targets in succ.items():
                for v in targets:
                    transitions.setdefault((states[u], states[v]), set()).add(y)
            witness = Filter(
                states,
                [states[i] for i in init],
                reference.observations,
                transitions,
                reference.colors,
                {states[i]: coloring[i] for i in range(n)},
            )
            return "found", witness, spent
    return "exhausted", None, spent


def compatibility_graph_oracle(d):
    """The compatibility graph of a deterministic filter, by a reverse map
    over all pairs: the color-disjoint pairs are incompatible, and so,
    transitively, is every pair one symbol leads to an incompatible pair."""
    states = d.states
    idx = {s: i for i, s in enumerate(states)}

    def succ(s, y):
        targets = d.successors(s, y)
        return targets[0] if targets else None

    bad = set()
    rev = {}
    pairs = []
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            u, v = states[i], states[j]
            pair = (u, v)
            pairs.append(pair)
            if not (d.coloring[u] & d.coloring[v]):
                bad.add(pair)
                continue
            for y in d.out_symbols(u) & d.out_symbols(v):
                a, b = succ(u, y), succ(v, y)
                if a == b:
                    continue
                if idx[a] > idx[b]:
                    a, b = b, a
                rev.setdefault((a, b), []).append(pair)
    queue = deque(bad)
    while queue:
        pair = queue.popleft()
        for pred in rev.get(pair, ()):
            if pred not in bad:
                bad.add(pred)
                queue.append(pred)
    adj = {s: set() for s in states}
    for (u, v) in pairs:
        if (u, v) not in bad:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def fooling_set_error(reference, pairs):
    """Why the (x, y) string pairs are not a fooling set of reference, or
    None if they are.

    Each x y must be survived, and for every two pairs i, j the reference
    must survive x_j y_i with colors disjoint from its colors on x_i y_i, or
    the same with i and j swapped.  Then no two pairs can share a simulator
    state, so a simulator has at least len(pairs) states.
    """
    def output(string):
        reached = walk(reference, string)
        return colors_of(reference, reached) if reached else None

    for x, y in pairs:
        if output(x + y) is None:
            return f"the reference crashes on {x + y!r}"
    for (xi, yi), (xj, yj) in itertools.combinations(pairs, 2):
        cross, back = output(xj + yi), output(xi + yj)
        if not ((cross is not None and not cross & output(xi + yi))
                or (back is not None and not back & output(xj + yj))):
            return f"pairs {(xi, yi)!r} and {(xj, yj)!r} can share a state"
    return None


def bisimulation_faults(f, block):
    """The conditions of a forward bisimulation that block, a block number
    per state of f, breaks: a subset of {"colors", "edges"}.

    Two states in one block must have the same colors and, under every
    symbol, successors in the same set of blocks.
    """
    number = dict(zip(f.states, block))

    def ends(s, symbol):
        return {number[t] for t in f.successors(s, symbol)}

    faults = set()
    for s, t in itertools.combinations(f.states, 2):
        if number[s] != number[t]:
            continue
        if f.coloring[s] != f.coloring[t]:
            faults.add("colors")
        if any(ends(s, y) != ends(t, y) for y in f.observations):
            faults.add("edges")
    return faults


def named_quotient(f, partition):
    """The quotient of f by partition, a list of lists of state indexes,
    through names and sets, or None if some class shares no color.

    A class is named by its members' names joined with + (suffixed ~2, ~3,
    ... where two print alike), is initial if it holds an initial state,
    carries the colors that every member carries, and has an edge labelled
    y to each class holding a y-successor of one of its members.
    """
    names = []
    for members in partition:
        names.append(_bump("+".join(f.states[i] for i in members), names, "~"))
    class_of = {f.states[i]: name for name, members in zip(names, partition) for i in members}
    coloring = {}
    for name, members in zip(names, partition):
        coloring[name] = frozenset.intersection(*(f.coloring[f.states[i]] for i in members))
        if not coloring[name]:
            return None
    transitions = {}
    for (u, v), symbols in f.transitions.items():
        transitions.setdefault((class_of[u], class_of[v]), set()).update(symbols)
    initial = {class_of[s] for s in f.initial}
    return Filter(names, initial, f.observations, transitions, f.colors, coloring)


def random_filter(rng, max_states=4, max_symbols=3, max_colors=3, edge_bias=0.5):
    """A seeded random filter; may be nondeterministic and non-trim."""
    return Filter(*random_description(rng, max_states, max_symbols, max_colors, edge_bias))


def random_description(rng, max_states=4, max_symbols=3, max_colors=3, edge_bias=0.5):
    """The arguments of Filter for random_filter, drawn in the same order."""
    n = rng.randint(1, max_states)
    states = [f"s{i}" for i in range(n)]
    observations = tuple("abc"[: rng.randint(1, max_symbols)])
    colors = tuple("xyz"[: rng.randint(1, max_colors)])
    transitions = {}
    for src in states:
        for dst in states:
            syms = {y for y in observations if rng.random() < edge_bias / n}
            if syms:
                transitions[(src, dst)] = syms
    coloring = {
        s: {rng.choice(colors)} | {c for c in colors if rng.random() < 0.2}
        for s in states
    }
    k = rng.randint(1, n)
    initial = rng.sample(states, k)
    return states, initial, observations, transitions, colors, coloring


def random_string(rng, observations, max_len=6):
    return tuple(rng.choice(observations) for _ in range(rng.randint(0, max_len)))


# -- a second oracle: the tensor product and NFA language inclusion -------
#
# An automaton here is a tuple (initial, delta, accepting): a tuple of
# initial states, a dict (state, symbol) -> tuple of targets, and a set of
# accepting states.  Nothing below walks pairs of reached sets.


def filter_automaton(f, accepting):
    """Filter f read as an automaton with the given accepting states."""
    delta = {}
    for (src, dst), syms in f.transitions.items():
        for y in syms:
            delta.setdefault((src, y), []).append(dst)
    return (
        tuple(s for s in f.states if s in f.initial),
        {key: tuple(targets) for key, targets in delta.items()},
        set(accepting),
    )


def intersect_automata(a, b, alphabet):
    """Product automaton accepting L(a) ∩ L(b); states are pairs."""
    initial = tuple((x, y) for x in a[0] for y in b[0])
    delta = {}
    seen = set(initial)
    queue = deque(initial)
    while queue:
        x, y = pair = queue.popleft()
        for sym in alphabet:
            targets = tuple(
                (nx, ny) for nx in a[1].get((x, sym), ()) for ny in b[1].get((y, sym), ())
            )
            if targets:
                delta[(pair, sym)] = targets
            for t in targets:
                if t not in seen:
                    seen.add(t)
                    queue.append(t)
    accepting = {p for p in seen if p[0] in a[2] and p[1] in b[2]}
    return initial, delta, accepting


def automaton_included(a, b, alphabet):
    """Shortest string in L(a) but not in L(b), or None if L(a) ⊆ L(b).

    Breadth-first over pairs (one state of a, subset of b): b is
    determinized on the fly, a is not.
    """

    def gap(node):
        return node[0] in a[2] and not node[1] & b[2]

    b_start = frozenset(b[0])
    queue = deque()
    seen = set()
    for x in a[0]:
        node = (x, b_start)
        if node not in seen:
            if gap(node):
                return ()
            seen.add(node)
            queue.append((node, ()))
    while queue:
        (x, subset), string = queue.popleft()
        for sym in alphabet:
            b_next = frozenset(t for s in subset for t in b[1].get((s, sym), ()))
            for nx in a[1].get((x, sym), ()):
                node = (nx, b_next)
                if node in seen:
                    continue
                if gap(node):
                    return string + (sym,)
                seen.add(node)
                queue.append((node, string + (sym,)))
    return None


def tensor_product(f1, f2):
    """Reachable tensor product of two filters.

    Vertices are pairs (v, w) of single states, with w = None once f2's run
    crashed while f1's run survives.  Returns (vertices, initial, delta),
    delta mapping (vertex, symbol) to a tuple of vertices.
    """
    initial = tuple((v, w) for v in f1.states if v in f1.initial
                    for w in f2.states if w in f2.initial)
    vertices = list(initial)
    seen = set(initial)
    delta = {}
    qi = 0
    while qi < len(vertices):
        v, w = pair = vertices[qi]
        qi += 1
        for y in f1.observations:
            targets1 = f1.successors(v, y)
            targets2 = f2.successors(w, y) if w is not None else ()
            targets = tuple((v2, w2) for v2 in targets1 for w2 in targets2 or (None,))
            if targets:
                delta[(pair, y)] = targets
            for t in targets:
                if t not in seen:
                    seen.add(t)
                    vertices.append(t)
    return vertices, initial, delta


def tensor_simulation_oracle(candidate, reference):
    """Decide output simulation on the tensor product, by NFA inclusions.

    Language: let A accept the product strings that reach a crash vertex and
    B all of candidate's strings; L(reference) ⊆ L(candidate) iff
    L(A) ⊆ L(A ∩ B).  Output, once the language holds: for every product
    vertex (v, w) and every color o of w missing at v, each string reaching
    (v, w) must also reach an o-colored state of the reference.  Returns
    (holds, kind, witness, color); the witness is a shortest one of its
    kind, not necessarily the first in any particular order.
    """
    alphabet = reference.observations
    vertices, initial, delta = tensor_product(reference, candidate)
    crash = {p for p in vertices if p[1] is None}
    if crash:
        a = (initial, delta, crash)
        both = intersect_automata(a, filter_automaton(candidate, candidate.states), alphabet)
        witness = automaton_included(a, both, alphabet)
        if witness is not None:
            return False, "language-gap", witness, None
    live_delta = {}
    for (p, y), targets in delta.items():
        live = tuple(t for t in targets if t[1] is not None)
        if p[1] is not None and live:
            live_delta[(p, y)] = live
    failures = []
    for p in vertices:
        if p[1] is None:
            continue
        v, w = p
        for color in candidate.colors:
            if color not in candidate.coloring[w] or color in reference.coloring[v]:
                continue
            carriers = [u for u in reference.states if color in reference.coloring[u]]
            witness = automaton_included(
                (initial, live_delta, {p}), filter_automaton(reference, carriers), alphabet
            )
            if witness is not None:
                failures.append((len(witness), witness, color))
    if failures:
        _, witness, color = min(failures)
        return False, "output-violation", witness, color
    return True, None, None, None


# -- the filter core on names ---------------------------------------------


class NamedFilter:
    """A filter kept on names, from the same (valid) arguments as Filter.

    transitions maps (source, target) to a frozenset of symbols and coloring
    each state to a frozenset of colors; every query walks those dicts.
    """

    def __init__(self, states, initial, observations, transitions, colors, coloring):
        self.states = tuple(states)
        self.observations = tuple(observations)
        self.colors = tuple(colors)
        self.initial = frozenset(initial)
        self.transitions = {}
        for edge, syms in dict(transitions).items():
            if syms:
                self.transitions[edge] = self.transitions.get(edge, frozenset()) | set(syms)
        self.coloring = {s: frozenset(cs) for s, cs in dict(coloring).items()}

    def successors(self, state, symbol):
        return tuple(t for t in self.states
                     if symbol in self.transitions.get((state, t), ()))

    def out_symbols(self, state):
        return frozenset(y for y in self.observations if self.successors(state, y))

    def is_deterministic(self):
        return len(self.initial) == 1 and all(
            len(self.successors(s, y)) <= 1 for s in self.states for y in self.observations)

    def trace(self, string):
        """The reached set of names, or None if a symbol is not declared
        before the run crashes."""
        reached = self.initial
        for y in string:
            if y not in self.observations:
                return None
            reached = frozenset(t for s in reached for t in self.successors(s, y))
            if not reached:
                break
        return reached

    def output(self, string):
        reached = self.trace(string)
        if not reached:
            return None
        return frozenset().union(*(self.coloring[s] for s in reached))

    def trim(self):
        seen = set(self.initial)
        frontier = list(seen)
        while frontier:
            s = frontier.pop()
            for (src, dst) in self.transitions:
                if src == s and dst not in seen:
                    seen.add(dst)
                    frontier.append(dst)
        if len(seen) == len(self.states):
            return self
        return NamedFilter(
            [s for s in self.states if s in seen], self.initial, self.observations,
            {e: ys for e, ys in self.transitions.items() if e[0] in seen},
            self.colors, {s: self.coloring[s] for s in seen})

    def determinize(self):
        """(deterministic NamedFilter, mapping): subsets named {a,b,...} by
        sorted member names, suffixed ~2, ~3, ... where two print alike, in
        breadth-first order over the declared observations."""
        order = [self.initial]
        edges = {}
        for subset in order:
            for y in self.observations:
                nxt = frozenset(t for s in subset for t in self.successors(s, y))
                if nxt:
                    edges[(subset, y)] = nxt
                    if nxt not in order:
                        order.append(nxt)
        names = {}
        for subset in order:
            base = "{" + ",".join(sorted(subset)) + "}"
            name, bump = base, 2
            while name in names.values():
                name, bump = f"{base}~{bump}", bump + 1
            names[subset] = name
        transitions = {}
        for (subset, y), nxt in edges.items():
            transitions.setdefault((names[subset], names[nxt]), set()).add(y)
        coloring = {names[s]: frozenset().union(*(self.coloring[v] for v in s)) for s in order}
        det = NamedFilter([names[s] for s in order], [names[order[0]]], self.observations,
                          transitions, self.colors, coloring)
        return det, {names[s]: s for s in order}

    def key(self):
        """What two equal filters share."""
        return (self.states, self.initial, self.observations,
                frozenset(self.transitions.items()), self.colors,
                frozenset(self.coloring.items()))

    def to_dict(self):
        rank = {s: i for i, s in enumerate(self.states)}
        return {
            "observations": list(self.observations),
            "colors": list(self.colors),
            "states": [{"id": s, "colors": [c for c in self.colors if c in self.coloring[s]]}
                       for s in self.states],
            "initial": [s for s in self.states if s in self.initial],
            "transitions": [
                {"from": src, "to": dst,
                 "symbols": [y for y in self.observations if y in self.transitions[(src, dst)]]}
                for (src, dst) in sorted(self.transitions,
                                         key=lambda e: (rank[e[0]], rank[e[1]]))
            ],
        }

    def document(self):
        return json.dumps(self.to_dict(), indent=2) + "\n"


# -- the writers and the primorial family as they were --------------------


def _ref_array(items, depth):
    if not items:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "]"


def _ref_object(fields, depth):
    return "{" + _ref_array([f"{json.dumps(key)}: {value}" for key, value in fields],
                            depth)[1:-1] + "}"


def _ref_strings(values, depth):
    return _ref_array([json.dumps(v) for v in values], depth)


def _ref_edges(states, symbols, successors):
    """(source index, target index, symbols in declared order) of every
    edge, by source index, then target name; successors(state, symbol)
    gives the targets by name."""
    rank = {s: i for i, s in enumerate(states)}
    edges = []
    for i, s in enumerate(states):
        labels = {}
        for y in symbols:
            for t in successors(s, y):
                labels.setdefault(t, []).append(y)
        edges += [(i, rank[t], labels[t]) for t in sorted(labels)]
    return edges


def reference_emit_nfa(n):
    """The automaton document as emit_nfa wrote it with nested layouts,
    its edges read off the name-keyed `transitions` view."""
    names = n.states
    quoted = [json.dumps(s) for s in names]
    before, between, labeled, after = _ref_object(
        (("from", "%s"), ("to", "%s"), ("symbols", "%s")), 2).split("%s")
    edges = _ref_edges(names, n.alphabet, lambda s, y: n.transitions.get((s, y), ()))
    return _ref_object((
        ("alphabet", _ref_strings(n.alphabet, 1)),
        ("states", _ref_strings(names, 1)),
        ("initial", _ref_strings(sorted(n.initial), 1)),
        ("accepting", _ref_strings(sorted(n.accepting), 1)),
        ("transitions", _ref_array([before + quoted[i] + between + quoted[j] + labeled
                                    + _ref_strings(ys, 3) + after for i, j, ys in edges], 1)),
    ), 0) + "\n"


_REF_DOT_NATIVE = {
    "black", "blue", "brown", "cyan", "gold", "gray", "green", "magenta",
    "orange", "pink", "purple", "red", "violet", "white", "yellow",
}
_REF_DOT_PALETTE = (
    "#a6cee3", "#b2df8a", "#fb9a99", "#fdbf6f", "#cab2d6",
    "#ffff99", "#1f78b4", "#33a02c", "#e31a1c", "#ff7f00",
)
_REF_DOT_DARK = {"black", "blue", "purple", "red", "brown", "#1f78b4", "#33a02c", "#e31a1c"}


def reference_filter_to_dot(f):
    """Graphviz DOT of f as filter_to_dot wrote it, its edges read off
    `successors`."""
    escape = lambda text: text.replace("\\", "\\\\").replace('"', '\\"')
    lines = ["digraph filter {", "  rankdir=LR;", '  node [shape=circle, style=filled];']
    node = ['"' + escape(state) + '"' for state in f.states]
    assigned = {}
    for i, state in enumerate(f.states):
        colors = sorted(f.coloring[state])
        if len(colors) == 1 and colors[0] in _REF_DOT_NATIVE:
            fill = colors[0]
        else:
            key = tuple(colors)
            if key not in assigned:
                assigned[key] = _REF_DOT_PALETTE[len(assigned) % len(_REF_DOT_PALETTE)]
            fill = assigned[key]
        font = ", fontcolor=white" if fill in _REF_DOT_DARK else ""
        label = escape(state)
        if len(colors) > 1:
            label += "\\n" + escape(",".join(colors))
        lines.append(f'  {node[i]} [label="{label}", fillcolor="{fill}"{font}];')
    taken = set(f.states)
    for index, s in enumerate(s for s in f.states if s in f.initial):
        start = '"' + _bump(f"__start{index}", taken, "~") + '"'
        taken.add(start[1:-1])
        lines.append(f"  {start} [shape=point, style=solid];")
        lines.append(f'  {start} -> "{escape(s)}";')
    for i, j, ys in _ref_edges(f.states, f.observations, f.successors):
        lines.append(f'  {node[i]} -> {node[j]} [label="{escape(",".join(ys))}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def named_prime_family_minimizer(r):
    """prime_family_minimizer(r) built through names and the checking
    constructor."""
    primes = []
    candidate = 2
    while len(primes) < r:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    product = 1
    for p in primes:
        product *= p
    observations = ("a",) + tuple(f"x{i}" for i in range(1, r + 1))
    colors = ("black", "white") + tuple(f"o{j}" for j in range(1, max(primes) + 1))
    states = ["start"] + [f"r{j}" for j in range(1, product + 1)]
    sinks = [f"sink{m}" for m in range(1, max(primes) + 1)]
    states += sinks
    coloring = {"start": {"black"}}
    transitions = {("start", "r1"): {"a"}}
    for j in range(1, product + 1):
        coloring[f"r{j}"] = {"white"}
        transitions[(f"r{j}", f"r{j % product + 1}")] = {"a"}
        for i, p in enumerate(primes, start=1):
            m = (j - 1) % p + 1
            transitions.setdefault((f"r{j}", f"sink{m}"), set()).add(f"x{i}")
    for m in range(1, max(primes) + 1):
        coloring[f"sink{m}"] = {f"o{m}"}
    return Filter(states, ["start"], observations, transitions, colors, coloring)


# -- the filter document reader in two passes -----------------------------


def _ref_check_strings(values, what):
    if not isinstance(values, list):
        raise FilterError(f"{what} must be a list")
    for v in values:
        if not isinstance(v, str):
            raise FilterError(f"{what} must be strings, not {v!r}")
    return values


def _ref_all_of_type(values, kind):
    return set(map(type, values)) <= {kind}


def _ref_check_entries(entries, rows):
    for entry in entries:
        if not isinstance(entry, dict) or "id" not in entry:
            raise FilterError("each state needs an 'id'")
        _ref_check_strings([entry["id"]], "state ids")
        _ref_check_strings(entry.get("colors", []), "state colors")
    for entry in rows:
        if not isinstance(entry, dict) or not {"from", "to", "symbols"} <= set(entry):
            raise FilterError("each transition needs 'from', 'to' and 'symbols'")
        _ref_check_strings([entry["from"], entry["to"]], "transition ends")
        _ref_check_strings(entry["symbols"], "transition symbols")


def reference_filter(states, initial, observations, transitions, colors, coloring):
    """Filter(...) as it was before one table builder served both it and
    from_dict; the same checks in the same order."""
    states, observations, colors = tuple(states), tuple(observations), tuple(colors)
    index = {s: i for i, s in enumerate(states)}
    obs_index = {y: k for k, y in enumerate(observations)}
    color_bit = {c: 1 << j for j, c in enumerate(colors)}
    if len(index) != len(states):
        raise FilterError("duplicate state ids")
    if not observations:
        raise FilterError("observation alphabet is empty")
    if len(obs_index) != len(observations):
        raise FilterError("duplicate observation symbols")
    if len(color_bit) != len(colors):
        raise FilterError("duplicate color names")

    for s in initial:
        if s not in index:
            raise UnknownState(f"initial state {s!r} is not declared")
    init = tuple(sorted({index[s] for s in initial}))
    if not init:
        raise NoInitialState("filter has no initial state")

    n = len(states)
    single = [(j,) for j in range(n)]
    succ = [[()] * n for _ in observations]
    shared = []
    for (src, dst), syms in dict(transitions).items():
        i = index.get(src)
        if i is None:
            raise UnknownState(f"transition source {src!r} is not declared")
        j = index.get(dst)
        if j is None:
            raise UnknownState(f"transition target {dst!r} is not declared")
        one = single[j]
        for y in syms:
            k = obs_index.get(y)
            if k is None:
                raise UnknownSymbol(f"transition symbol {y!r} is not declared")
            table = succ[k]
            cell = table[i]
            if not cell:
                table[i] = one
            elif cell.__class__ is list:
                cell.append(j)
            elif cell is not one:
                table[i] = [cell[0], j]
                shared.append((table, i))
    for table, i in shared:
        table[i] = tuple(sorted(set(table[i])))

    coloring = dict(coloring)
    color = [0] * n
    for s, cs in coloring.items():
        i = index.get(s)
        if i is None:
            raise UnknownState(f"colored state {s!r} is not declared")
        mask = 0
        for c in cs:
            mask |= color_bit.get(c, -1)
        color[i] = mask
    if min(color) <= 0:
        for i, s in enumerate(states):
            if color[i] < 0:
                c = next(c for c in coloring[s] if c not in color_bit)
                raise FilterError(f"state {s!r} uses undeclared color {c!r}")
            if not color[i]:
                raise EmptyColorSet(s)
    return Filter._from_tables(states, observations, colors, init, succ, color)


def reference_from_dict(data):
    """Filter.from_dict as it was: the entries collected into lists, checked
    for type in bulk, and walked into the name-keyed dicts that
    reference_filter takes; an edge listed twice gets a set union of its
    symbols."""
    if not isinstance(data, dict):
        raise FilterError("filter description must be a mapping")
    for key in ("observations", "colors", "states", "initial", "transitions"):
        if key not in data:
            raise FilterError(f"missing key {key!r}")
        if not isinstance(data[key], list):
            raise FilterError(f"{key!r} must be a list")
    for key in ("observations", "colors", "initial"):
        _ref_check_strings(data[key], repr(key))
    entries, rows = data["states"], data["transitions"]
    try:
        states = [entry["id"] for entry in entries]
        color_lists = [entry.get("colors", []) for entry in entries]
        ends = [(entry["from"], entry["to"]) for entry in rows]
        symbol_lists = [entry["symbols"] for entry in rows]
        flat = itertools.chain.from_iterable
        plain = (
            _ref_all_of_type(itertools.chain(entries, rows), dict)
            and _ref_all_of_type(itertools.chain(color_lists, symbol_lists), list)
            and _ref_all_of_type(itertools.chain(
                states, flat(ends), flat(color_lists), flat(symbol_lists)), str)
        )
    except (KeyError, TypeError, AttributeError):
        plain = False
    if not plain:
        _ref_check_entries(entries, rows)
    transitions = dict(zip(ends, symbol_lists))
    if len(transitions) < len(ends):
        transitions = {}
        for key, symbols in zip(ends, symbol_lists):
            transitions.setdefault(key, set()).update(symbols)
    return reference_filter(states, data["initial"], data["observations"], transitions,
                            data["colors"], dict(zip(states, color_lists)))


# -- the automaton core on names ------------------------------------------


def _bump(base, taken, sep):
    """The first of base, base<sep>2, base<sep>3, ... not in taken."""
    name, bump = base, 2
    while name in taken:
        name, bump = f"{base}{sep}{bump}", bump + 1
    return name


class NamedNfa:
    """An NFA kept on names, from the same arguments as Nfa: transitions
    maps (source, symbol) to a frozenset of targets, and every step walks
    that dict."""

    def __init__(self, states, initial, alphabet, transitions, accepting):
        self.states = tuple(states)
        self.alphabet = tuple(alphabet)
        self.initial = frozenset(initial)
        self.accepting = frozenset(accepting)
        self.transitions = {key: frozenset(ts) for key, ts in dict(transitions).items() if ts}

    def step(self, subset, symbol):
        return frozenset(t for s in subset for t in self.transitions.get((s, symbol), ()))

    def accepts(self, string):
        reached = self.initial
        for y in string:
            reached = self.step(reached, y)
        return bool(reached & self.accepting)

    def is_deterministic(self):
        return len(self.initial) == 1 and all(len(t) == 1 for t in self.transitions.values())

    def automaton(self):
        """The (initial, delta, accepting) form of automaton_included."""
        return (tuple(s for s in self.states if s in self.initial),
                {key: tuple(s for s in self.states if s in ts)
                 for key, ts in self.transitions.items()},
                set(self.accepting))

    def to_dict(self):
        """The automaton document, as emit_nfa lays it out."""
        rows = []
        for src in self.states:
            for dst in sorted({t for y in self.alphabet for t in self.transitions.get((src, y), ())}):
                rows.append({"from": src, "to": dst, "symbols": [
                    y for y in self.alphabet if dst in self.transitions.get((src, y), ())]})
        return {"alphabet": list(self.alphabet), "states": list(self.states),
                "initial": sorted(self.initial), "accepting": sorted(self.accepting),
                "transitions": rows}


def named_subset_construct(n):
    """Complete determinization; the empty subset is the dead state {}."""
    order = [n.initial]
    edges = {}
    for subset in order:
        for y in n.alphabet:
            edges[(subset, y)] = nxt = n.step(subset, y)
            if nxt not in order:
                order.append(nxt)
    names = {}
    for subset in order:
        names[subset] = _bump("{" + ",".join(sorted(subset)) + "}", names.values(), "~")
    return NamedNfa([names[s] for s in order], [names[order[0]]], n.alphabet,
                    {(names[s], y): {names[t]} for (s, y), t in edges.items()},
                    [names[s] for s in order if s & n.accepting])


def subset_dfa(n):
    """named_subset_construct of an Nfa, built back into an Nfa."""
    d = named_subset_construct(NamedNfa(n.states, n.initial, n.alphabet, n.transitions,
                                        n.accepting))
    return Nfa(d.states, d.initial, d.alphabet, d.transitions, d.accepting)


def named_complete_dfa(d, alphabet=None):
    """d with the symbols of alphabet it lacks appended, every missing move
    led to a fresh non-accepting trap; d itself if nothing is missing."""
    alphabet = d.alphabet + tuple(y for y in alphabet or () if y not in d.alphabet)
    missing = [(s, y) for s in d.states for y in alphabet if (s, y) not in d.transitions]
    if not missing and alphabet == d.alphabet:
        return d
    trap = _bump("trap", d.states, "~")
    transitions = dict(d.transitions)
    transitions.update({key: {trap} for key in missing})
    transitions.update({(trap, y): {trap} for y in alphabet})
    return NamedNfa(d.states + (trap,), d.initial, alphabet, transitions, d.accepting)


def named_union(automata):
    """Disjoint union, state s of the i-th operand named i:s."""
    alphabet = []
    for n in automata:
        alphabet += [y for y in n.alphabet if y not in alphabet]
    states, initial, accepting, transitions = [], [], [], {}
    for i, n in enumerate(automata):
        states += [f"{i}:{s}" for s in n.states]
        initial += [f"{i}:{s}" for s in n.initial]
        accepting += [f"{i}:{s}" for s in n.accepting]
        transitions.update({(f"{i}:{s}", y): {f"{i}:{t}" for t in ts}
                            for (s, y), ts in n.transitions.items()})
    return NamedNfa(states, initial, alphabet, transitions, accepting)


def _edges_of(n):
    """n's transitions as Filter edges: (source, target) -> symbols."""
    edges = {}
    for (src, y), targets in n.transitions.items():
        for dst in targets:
            edges.setdefault((src, dst), set()).add(y)
    return edges


def named_nfa_universality_filter(a):
    """The filter of from_nfa_universality(a), built through names."""
    z = _bump("z", a.alphabet, "")
    hub = _bump("hub", a.states, "")
    probe = _bump("probe", a.states + (hub,), "")
    flag = _bump("flag", a.states + (hub, probe), "")
    edges = _edges_of(a)
    edges[(hub, hub)] = set(a.alphabet)
    edges[(hub, probe)] = {z}
    edges.update({(s, flag): {z} for s in a.accepting})
    coloring = {s: {"green"} for s in a.states + (hub, flag)}
    coloring[probe] = {"blue"}
    return Filter(a.states + (hub, probe, flag), a.initial | {hub}, a.alphabet + (z,), edges,
                  ("green", "blue"), coloring)


def named_dfa_union_filter(dfas):
    """The filter of from_dfa_union(dfas), built through names; None when
    no reachable state accepts."""
    sigma = []
    for d in dfas:
        sigma += [y for y in d.alphabet if y not in sigma]
    combined = named_union([named_complete_dfa(d, sigma) for d in dfas])
    reached = set(combined.initial)
    for _ in combined.states:
        reached |= {t for s in reached for y in sigma for t in combined.transitions.get((s, y), ())}
    goals = [s for s in combined.states if s in reached and s in combined.accepting]
    if not goals:
        return None
    z = _bump("z", sigma, "")
    edges = _edges_of(combined)
    edges[(goals[0], "mark")] = {z}
    coloring = {s: {"green"} if s in combined.accepting else {"red"} for s in combined.states}
    coloring["mark"] = {"green"}
    return Filter(combined.states + ("mark",), combined.initial, tuple(sigma) + (z,), edges,
                  ("green", "red"), coloring)
