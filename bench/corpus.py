"""Seeded input generators for the benchmark.

Everything here is plain Python over the standard library and depends on the
seed alone: the same seed gives the same filters, mutants, NFAs and DFA
families, in the same order.  The structural measures used to keep random
inputs inside a size band (reachable subsets, reachable triples) are
computed here directly from the transition relation, never by the package
under test, so a change to the package cannot change which inputs are drawn.

A drawn filter is described as a plain dict (``states``, ``initial``,
``observations``, ``colors``, ``transitions`` as {(src, dst): set(symbols)},
``coloring``); ``make_filter`` turns it into a ``filterkit.Filter``.
"""

import itertools

SYMBOLS = "abcdefgh"
ALPHABET = ("a", "b")


def make_filter(fk, spec):
    return fk.Filter(spec["states"], spec["initial"], spec["observations"],
                     spec["transitions"], spec["colors"], spec["coloring"])


def _step_table(spec):
    step = {}
    for (src, dst), syms in spec["transitions"].items():
        for y in syms:
            step.setdefault((src, y), set()).add(dst)
    return step


def subset_count(spec, limit=None):
    """Number of nonempty subsets reachable by subset construction.

    With a limit, stops counting as soon as the count passes it.
    """
    step = _step_table(spec)
    start = frozenset(spec["initial"])
    seen = {start}
    stack = [start]
    while stack and (limit is None or len(seen) <= limit):
        subset = stack.pop()
        for y in spec["observations"]:
            nxt = frozenset(t for s in subset for t in step.get((s, y), ()))
            if nxt and nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen)


def self_triples(spec):
    """Reachable triples (v, w, S) of the filter run against itself.

    v and w are states one string reaches in two copies of the filter, and S
    is every state that string reaches.  Checking output simulation between
    the filter and a near copy walks these triples, so their count tracks the
    cost of that check far better than the filter's size does.
    """
    step = _step_table(spec)
    start = frozenset(spec["initial"])
    seen = {(a, b, start) for a in start for b in start}
    stack = list(seen)
    while stack:
        a, b, subset = stack.pop()
        for y in spec["observations"]:
            nxt = frozenset(t for s in subset for t in step.get((s, y), ()))
            for a2 in step.get((a, y), ()):
                for b2 in step.get((b, y), ()):
                    if (a2, b2, nxt) not in seen:
                        seen.add((a2, b2, nxt))
                        stack.append((a2, b2, nxt))
    return len(seen)


def random_filter(rng, n, n_symbols, n_colors, branches, p_edge=0.8):
    """A trim random filter on n states with one initial state.

    A random spanning tree from s0 makes every state reachable.  Each
    remaining (state, symbol) slot gets one target with probability p_edge,
    which gives a mostly deterministic skeleton; then ``branches`` slots get a
    second target, which is where nondeterminism comes from.  Each state shows
    one color, and a second one with probability 0.15.
    """
    states = [f"s{i}" for i in range(n)]
    observations = tuple(SYMBOLS[:n_symbols])
    colors = tuple(f"k{i}" for i in range(n_colors))
    targets = {}
    for i in range(1, n):
        while True:
            slot = (rng.randrange(i), rng.choice(observations))
            if slot not in targets:
                break
        targets[slot] = [i]
    for s in range(n):
        for y in observations:
            if (s, y) not in targets and rng.random() < p_edge:
                targets[(s, y)] = [rng.randrange(n)]
    slots = sorted(targets)
    for slot in rng.sample(slots, min(branches, len(slots))):
        t = rng.randrange(n)
        if t not in targets[slot]:
            targets[slot].append(t)
    transitions = {}
    for (s, y), ts in sorted(targets.items()):
        for t in ts:
            transitions.setdefault((states[s], states[t]), set()).add(y)
    coloring = {}
    for s in states:
        cs = {rng.choice(colors)}
        if rng.random() < 0.15:
            cs.add(rng.choice(colors))
        coloring[s] = cs
    return {"states": states, "initial": [states[0]], "observations": observations,
            "colors": colors, "transitions": transitions, "coloring": coloring}


def banded_filter(rng, n, n_symbols, n_colors, branches, p_edge, subsets, triples=None):
    """Draw random filters until their size measures fall in band.

    ``subsets`` is a (low, high) band for subset_count and ``triples``, when
    given, one for self_triples.  The bands keep the cost of each input
    within a narrow range, so that the mix of job sizes, and with it every
    timing, varies little from seed to seed.
    """
    while True:
        spec = random_filter(rng, n, n_symbols, n_colors, branches, p_edge)
        if not subsets[0] <= subset_count(spec, subsets[1]) <= subsets[1]:
            continue
        if triples is None or triples[0] <= self_triples(spec) <= triples[1]:
            return spec


def simulable_in(spec, k):
    """Does some filter of k states output-simulate spec?

    Such a filter g must survive every string spec survives, and show on it
    only colors spec shows.  A state q of g may show any nonempty set of the
    colors that spec shows on every string reaching q, so only g's initial
    states and transitions are enumerated: for each choice, the pairs (subset
    of spec, subset of g) that one string reaches are walked once.
    """
    step = _step_table(spec)
    observations = spec["observations"]
    g_subsets = [frozenset(c) for r in range(k + 1)
                 for c in itertools.combinations(range(k), r)]
    slots = [(q, y) for q in range(k) for y in observations]
    start = frozenset(spec["initial"])
    for initial in g_subsets[1:]:
        for targets in itertools.product(g_subsets, repeat=len(slots)):
            delta = dict(zip(slots, targets))
            allowed = {q: set(spec["colors"]) for q in range(k)}
            seen = {(start, initial)}
            stack = [(start, initial)]
            while stack:
                subset, g_subset = stack.pop()
                shown = {c for s in subset for c in spec["coloring"][s]}
                if not g_subset:
                    break
                for q in g_subset:
                    allowed[q] &= shown
                if not all(allowed[q] for q in g_subset):
                    break
                for y in observations:
                    nxt = frozenset(t for s in subset for t in step.get((s, y), ()))
                    g_nxt = frozenset(t for q in g_subset for t in delta[(q, y)])
                    if nxt and (nxt, g_nxt) not in seen:
                        seen.add((nxt, g_nxt))
                        stack.append((nxt, g_nxt))
            else:
                return True
    return False


def drop_edge_mutant(rng, spec):
    """Copy of spec with one symbol removed from one spanning-tree-like edge.

    Prefers an edge that is the only way into its target, which makes a
    language gap likely; the oracle decides what the answer actually is.
    """
    incoming = {}
    for (src, dst), syms in spec["transitions"].items():
        incoming[dst] = incoming.get(dst, 0) + len(syms)
    edges = sorted(
        (src, dst, y)
        for (src, dst), syms in spec["transitions"].items()
        for y in syms
    )
    sole = [e for e in edges if incoming[e[1]] == 1 and e[1] not in spec["initial"]]
    src, dst, y = rng.choice(sole or edges)
    transitions = {k: set(v) for k, v in spec["transitions"].items()}
    transitions[(src, dst)].discard(y)
    return dict(spec, transitions=transitions)


def add_color_mutant(rng, spec):
    """Copy of spec where one state shows one extra color."""
    choices = [
        (s, c) for s in spec["states"] for c in spec["colors"]
        if c not in spec["coloring"][s]
    ]
    s, c = rng.choice(choices)
    coloring = {k: set(v) for k, v in spec["coloring"].items()}
    coloring[s].add(c)
    return dict(spec, coloring=coloring)


def random_nfa(rng, n):
    """A random NFA over {a, b} as a plain dict (states, initial, alphabet,
    delta, accepting)."""
    states = [f"n{i}" for i in range(n)]
    delta = {}
    for s in states:
        for y in ALPHABET:
            ts = set()
            if rng.random() < 0.85:
                ts.add(rng.choice(states))
                if rng.random() < 0.35:
                    ts.add(rng.choice(states))
            if ts:
                delta[(s, y)] = ts
    accepting = [s for s in states if rng.random() < 0.6]
    return {"states": states, "initial": [states[0]], "alphabet": ALPHABET,
            "delta": delta, "accepting": accepting}


def random_dfa(rng, n, prefix):
    """A random partial DFA over {a, b}, in the same plain dict shape as
    random_nfa."""
    states = [f"{prefix}{i}" for i in range(n)]
    delta = {}
    for s in states:
        for y in ALPHABET:
            if rng.random() < 0.85:
                delta[(s, y)] = {rng.choice(states)}
    accepting = [s for s in states if rng.random() < 0.5]
    return {"states": states, "initial": [states[0]], "alphabet": ALPHABET,
            "delta": delta, "accepting": accepting}


def make_nfa(fk, spec):
    return fk.Nfa(spec["states"], spec["initial"], spec["alphabet"],
                  spec["delta"], spec["accepting"])


def nfa_document(spec):
    """The NFA in the CLI's JSON document format."""
    rows = []
    for (src, y), ts in sorted(spec["delta"].items()):
        for t in sorted(ts):
            rows.append({"from": src, "to": t, "symbols": [y]})
    return {"alphabet": list(spec["alphabet"]), "states": list(spec["states"]),
            "initial": list(spec["initial"]), "accepting": sorted(spec["accepting"]),
            "transitions": rows}


def spec_fingerprint(spec):
    """A canonical, order-independent text form of a spec, for self-tests."""
    items = []
    for key in sorted(spec):
        value = spec[key]
        if isinstance(value, dict):
            value = sorted((repr(k), sorted(v)) for k, v in value.items())
        items.append((key, repr(value)))
    return repr(items)
