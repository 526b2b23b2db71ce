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
it names.  All are written for obviousness, not speed.
"""

import itertools
import random
from collections import deque

from filterkit import Filter


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


def random_filter(rng, max_states=4, max_symbols=3, max_colors=3, edge_bias=0.5):
    """A seeded random filter; may be nondeterministic and non-trim."""
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
    return Filter(states, initial, observations, transitions, colors, coloring)


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
