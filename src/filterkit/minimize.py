"""Exact filter minimization by bounded candidate search.

decide_size_k enumerates candidate filters over the input's alphabet and
colors in a fixed canonical order (initial sets by ascending bitmask, state
colorings by declared color order, transition symbol-sets by symbol order)
and tests them against the input.  A candidate is tested on its mask tables
by the reached-set pair walk of the simulation module, which stops at the
first failing pair of either kind.  A failure rules out the block of later
candidates that agree on the transition rows it read, and that block is
counted without being walked.  So the `candidates` count (and the candidate
cap) covers every candidate in canonical order up to where the search
stopped, walked or ruled out in a block; stats report the walked ones as
`walked`.  A candidate that passes is built as a Filter and walked again
from that Filter, so a fault in building it raises instead of returning a
filter that does not simulate the input.

minimize_det works on the determinization: the minimum clique cover of its
compatibility graph is a sound lower bound on any deterministic minimizer,
quotients and verified greedy merges supply upper bounds, and a complete
per-level search closes any remaining gap while the budget lasts.
"""

import functools
import itertools
import operator
import time

from .filters import DETERMINIZE_CAP, Filter
from .simulation import _bits, _RefTables, _walk

YES = "yes"
NO = "no"
BUDGET_EXHAUSTED = "budget-exhausted"

_FOUND, _EXHAUSTED, _CAPPED = "found", "exhausted", "capped"


class SearchBudget:
    """Caps for the candidate search: deepest size, candidate count, seconds."""

    def __init__(self, max_k=None, candidate_cap=250_000, time_cap=None):
        if max_k is not None and max_k < 1:
            raise ValueError("max_k must be positive")
        if candidate_cap is not None and candidate_cap < 1:
            raise ValueError("candidate_cap must be positive")
        if time_cap is not None and time_cap <= 0:
            raise ValueError("time_cap must be positive")
        self.max_k = max_k
        self.candidate_cap = candidate_cap
        self.time_cap = time_cap


class SizeDecision:
    """Answer of decide_size_k: outcome YES/NO/BUDGET_EXHAUSTED plus witness."""

    __slots__ = ("outcome", "witness", "candidates")

    def __init__(self, outcome, witness, candidates):
        self.outcome = outcome
        self.witness = witness
        self.candidates = candidates

    def __repr__(self):
        return f"SizeDecision({self.outcome}, candidates={self.candidates})"


class MinimizationResult:
    __slots__ = ("minimizer", "proven_optimal", "stats")

    def __init__(self, minimizer, proven_optimal, stats):
        self.minimizer = minimizer
        self.proven_optimal = proven_optimal
        self.stats = stats

    def size(self):
        return len(self.minimizer.states)

    def __repr__(self):
        tag = "optimal" if self.proven_optimal else "best-known"
        return f"MinimizationResult({self.size()} states, {tag})"


class _Clock:
    """Candidates accounted for in canonical order, and how many of them a
    check actually examined (walked); the rest were ruled out as a block."""

    def __init__(self, budget):
        self.budget = budget if budget is not None else SearchBudget()
        self.candidates = 0
        self.walked = 0
        self.refused = False
        self._deadline = None
        if self.budget.time_cap is not None:
            self._deadline = time.monotonic() + self.budget.time_cap

    def spend(self, k=1):
        """Account for k candidates; False once the budget is gone.

        Stops the count exactly where k calls that each account for one
        candidate would: at the first candidate past the cap, or at the
        first multiple of 512 found past the deadline.  `refused` records
        that a refusal happened.
        """
        old = self.candidates
        cap = self.budget.candidate_cap
        last_checked = old + k if cap is None else min(old + k, cap)
        if self._deadline is not None and last_checked >> 9 > old >> 9:
            if time.monotonic() > self._deadline:
                self.candidates = ((old >> 9) + 1) << 9
                self.refused = True
                return False
        if cap is not None and old + k > cap:
            self.candidates = max(old + 1, cap + 1)
            self.refused = True
            return False
        self.candidates = old + k
        return True


def _candidate_filter(ref, n, init_mask, cand_colors, cand_step):
    states = [f"s{i}" for i in range(n)]
    transitions = {}
    for y in ref.obs:
        table = cand_step[y]
        for u in range(n):
            for v in _bits(table[u]):
                transitions.setdefault((states[u], states[v]), set()).add(y)
    coloring = {
        states[i]: {ref.colors[j] for j in _bits(cand_colors[i])} for i in range(n)
    }
    initial = [states[i] for i in _bits(init_mask)]
    return Filter(states, initial, ref.obs, transitions, ref.colors, coloring)


def _confirm(ref, candidate):
    """Re-check a filter the search accepted, through its built Filter form."""
    if _walk(ref, *ref.encode(candidate)) is not None:
        raise RuntimeError("the search accepted a filter that fails output simulation")
    return candidate


def _search_size(ref, n, clock, det):
    """Exhaust the n-state candidates in canonical order.

    Deterministic candidates have s0 as their only initial state and at most
    one target per (state, symbol).
    """
    color_count = len(ref.colors)
    for init_mask in (1,) if det else range(1, 1 << n):
        for colors in itertools.product(range(1, 1 << color_count), repeat=n):
            eps = 0
            for i in _bits(init_mask):
                eps |= colors[i]
            if eps & ~ref.eps_colors:
                continue
            status, witness = _search_tables(ref, n, init_mask, colors, clock, det)
            if status != _EXHAUSTED:
                return status, witness
    return _EXHAUSTED, None


def _search_tables(ref, n, init_mask, colors, clock, det):
    """Exhaust the transition tables of n-state candidates with a fixed
    initial mask and coloring, in canonical order.

    The tables are an odometer of digits grouped by source state, state 0
    most significant: a nondeterministic row holds one symbol-set bitmask
    per target state, a deterministic row one target per symbol (0 for
    none, else target + 1).  A candidate that fails depends only on the rows
    of the states its check read: the reached states when it is not trim,
    else the candidate states of every pair the walk expanded.  Every
    candidate that agrees with it up to the highest of those rows fails in
    the same way, so the rest of that block is charged to the clock without
    being checked.  The count and the first witness are those of checking
    every candidate in turn.
    """
    obs = ref.obs
    if det:
        width, radix = len(obs), n + 1
    else:
        width, radix = n, 1 << len(obs)
    size = n * width
    digits = [0] * size
    step = {y: [0] * n for y in obs}
    tables = list(step.values())
    # targets[u]: mask of the states that row u reaches under any symbol
    targets = [0] * n
    full = (1 << n) - 1

    def set_digit(pos, value):
        u, k = divmod(pos, width)
        old = digits[pos]
        digits[pos] = value
        if det:
            tables[k][u] = 1 << (value - 1) if value else 0
            reach = 0
            for table in tables:
                reach |= table[u]
            targets[u] = reach
        else:
            bit = 1 << k
            for j in _bits(old ^ value):
                tables[j][u] ^= bit
            if not old or not value:
                targets[u] ^= bit

    while True:
        if not clock.spend():
            return _CAPPED, None
        clock.walked += 1
        reach = frontier = init_mask
        while frontier and reach != full:
            nxt = 0
            for i in _bits(frontier):
                nxt |= targets[i]
            frontier = nxt & ~reach
            reach |= nxt
        if reach == full:
            failure = _walk(ref, init_mask, colors, step)
            if failure is None:
                found = _candidate_filter(ref, n, init_mask, colors, step)
                return _FOUND, _confirm(ref, found)
            _, node, parent = failure
            read = 0
            if parent[node] is not None:
                last_expanded = parent[node][0]
                for pair in parent:
                    read |= pair[1]
                    if pair == last_expanded:
                        break
        else:
            read = reach
        # digits from `free` on belong to rows the failure does not depend on
        free = read.bit_length() * width
        skipped = 0
        for pos in range(free, size):
            skipped = skipped * radix + radix - 1 - digits[pos]
            if digits[pos]:
                set_digit(pos, 0)
        if skipped and not clock.spend(skipped):
            return _CAPPED, None
        pos = free - 1
        while pos >= 0 and digits[pos] == radix - 1:
            set_digit(pos, 0)
            pos -= 1
        if pos < 0:
            return _EXHAUSTED, None
        set_digit(pos, digits[pos] + 1)


def decide_size_k(f, k, budget=None):
    """Is there a filter with at most k states that output-simulates f?

    Returns a SizeDecision; a YES carries the canonically-first witness.  At
    level |trim(f)| the trimmed filter itself settles the question, so
    enumeration only ever runs below it.
    """
    if k < 1:
        raise ValueError("k must be positive")
    ft = f.trim()
    if k >= len(ft.states):
        # the trimmed filter is its own witness; no enumeration needed
        return SizeDecision(YES, ft, 0)
    ref = _RefTables(ft)
    clock = _Clock(budget)
    limit = k
    capped_levels = False
    if budget is not None and budget.max_k is not None and budget.max_k < k:
        limit = budget.max_k
        capped_levels = True
    for n in range(1, limit + 1):
        status, witness = _search_size(ref, n, clock, det=False)
        if status == _FOUND:
            return SizeDecision(YES, witness, clock.candidates)
        if status == _CAPPED:
            return SizeDecision(BUDGET_EXHAUSTED, None, clock.candidates)
    if capped_levels:
        return SizeDecision(BUDGET_EXHAUSTED, None, clock.candidates)
    return SizeDecision(NO, None, clock.candidates)


def minimize_nondet(f, budget=None):
    """Exact minimization over all filters, by iterative deepening."""
    start = time.monotonic()
    ft = f.trim()
    ref = _RefTables(ft)
    clock = _Clock(budget)
    best = ft
    proven = True
    for n in range(1, len(ft.states)):
        if budget is not None and budget.max_k is not None and n > budget.max_k:
            proven = False
            break
        status, witness = _search_size(ref, n, clock, det=False)
        if status == _FOUND:
            best = witness
            break
        if status == _CAPPED:
            proven = False
            break
    stats = {
        "candidates": clock.candidates,
        "walked": clock.walked,
        "wall_time_s": time.monotonic() - start,
        "trim_size": len(ft.states),
    }
    return MinimizationResult(best, proven, stats)


# -- deterministic minimization ------------------------------------------


_ZERO_ONE = bytes.maketrans(b"01", b"\x00\x01")


def _flags(mask):
    """One byte per bit of mask, lowest first: 1 where the bit is set."""
    return bin(mask)[:1:-1].encode().translate(_ZERO_ONE)


def compatibility_graph(d):
    """Undirected graph over a deterministic filter's states.

    Two states are adjacent (compatible) iff their color sets intersect and
    every extension alive from both leads again to color-intersecting
    states.  Any deterministic filter simulating d maps each d-state to the
    single state its access string reaches, and states sharing an image are
    necessarily compatible, so the image partition is a clique cover of this
    graph.  The minimum clique cover size is therefore a lower bound on any
    deterministic simulator, though not always attainable: cliques need not
    merge into a consistent transition function.

    Incompatibility is held as one bitmask row per state.  It is seeded with
    the color-disjoint pairs, one row per distinct color set, and propagated
    backwards by a worklist: when a and b are incompatible, so is every pair
    of states that one symbol leads to a and b.  The worklist holds the
    states whose rows gained bits that have not been propagated yet.
    """
    if not d.is_deterministic():
        raise ValueError("compatibility graph needs a deterministic filter")
    states = d.states
    n = len(states)
    index = d._index
    color_bit = {c: 1 << k for k, c in enumerate(d.colors)}
    palette = [sum(color_bit[c] for c in d.coloring[s]) for s in states]
    holders = [0] * len(d.colors)  # holders[k]: the states that carry color k
    for i, colors in enumerate(palette):
        for k in _bits(colors):
            holders[k] |= 1 << i
    full = (1 << n) - 1
    disjoint = {}
    for colors in set(palette):
        sharing = 0
        for k in _bits(colors):
            sharing |= holders[k]
        disjoint[colors] = full & ~sharing
    bad = [disjoint[colors] for colors in palette]
    # per symbol y: into[b] is the mask, sources[b] the list, of the states
    # that y leads to b
    preds = {y: ([0] * n, [[] for _ in range(n)]) for y in d.observations}
    for (src, dst), syms in d.transitions.items():
        i, b = index[src], index[dst]
        for y in syms:
            into, sources = preds[y]
            into[b] |= 1 << i
            sources[b].append(i)
    pending = list(bad)
    work = [i for i in range(n) if bad[i]]
    while work:
        a = work.pop()
        flags = _flags(pending[a])
        pending[a] = 0
        for into, sources in preds.values():
            if not sources[a]:
                continue
            behind = functools.reduce(operator.or_, itertools.compress(into, flags), 0)
            for i in sources[a]:
                new = behind & ~bad[i]
                if new:
                    bad[i] |= new
                    if not pending[i]:
                        work.append(i)
                    pending[i] |= new
    return {
        s: set(itertools.compress(states, _flags(full & ~bad[i] & ~(1 << i))))
        for i, s in enumerate(states)
    }


class _CoverCapHit(Exception):
    pass


def _feasible_coloring(inc, precolored, t, node_cap):
    """Color the incompatibility graph with t colors, or prove impossible.

    A depth-first search over the uncolored vertices, most incompatible
    first, trying the colors in order.  It counts every node it enters and
    raises _CoverCapHit past node_cap.  The stack holds, for each vertex
    colored so far, its color and the number of colors in use before it.
    """
    class_masks = [0] * t
    for c, v in enumerate(precolored):
        class_masks[c] |= 1 << v
    fixed = set(precolored)
    rest = [v for v in range(len(inc)) if v not in fixed]
    rest.sort(key=lambda v: -bin(inc[v]).count("1"))
    stack = []
    used = len(precolored)
    nodes = 0
    while True:
        # enter the node that colors rest[len(stack)]
        nodes += 1
        if nodes > node_cap:
            raise _CoverCapHit
        if len(stack) == len(rest):
            return class_masks
        c = 0
        while True:
            v = rest[len(stack)]
            limit = min(used + 1, t)
            while c < limit and class_masks[c] & inc[v]:
                c += 1
            if c < limit:
                class_masks[c] |= 1 << v
                stack.append((c, used))
                used = max(used, c + 1)
                break
            if not stack:
                return None
            c, used = stack.pop()
            class_masks[c] &= ~(1 << rest[len(stack)])
            c += 1


def _min_clique_cover(states, adj, node_cap=500_000):
    """Exact minimum clique cover of the compatibility graph.

    Returns (partition, lower_bound, exact).  When the branch-and-bound caps
    out, the partition is the greedy one and lower_bound falls back to the
    best proven value (at worst the greedy incompatible-clique size), still
    sound as a bound on the optimum.
    """
    n = len(states)
    bit = {s: 1 << i for i, s in enumerate(states)}
    full = (1 << n) - 1
    inc = []
    for s in states:
        row = 0
        for t in adj[s]:
            row |= bit[t]
        inc.append(full & ~row & ~bit[s])
    order = sorted(range(n), key=lambda i: -bin(inc[i]).count("1"))
    clique = []
    member_mask = 0
    for v in order:
        if inc[v] & member_mask == member_mask:
            clique.append(v)
            member_mask |= 1 << v
    classes = []
    for v in order:
        for k in range(len(classes)):
            if not classes[k] & inc[v]:
                classes[k] |= 1 << v
                break
        else:
            classes.append(1 << v)
    lower = len(clique)
    exact = lower == len(classes)
    if not exact:
        for t in range(lower, len(classes)):
            try:
                found = _feasible_coloring(inc, clique, t, node_cap)
            except _CoverCapHit:
                break
            if found is None:
                lower = t + 1
                continue
            classes = [m for m in found if m]
            exact = True
            break
        else:
            exact = True
        if exact:
            lower = len(classes)
    partition = [sorted(_bits(mask)) for mask in classes]
    partition.sort(key=lambda part: part[0])
    return [[states[i] for i in part] for part in partition], lower, exact


def _quotient_filter(d, partition):
    """Collapse each partition class to one state; None if ill-defined."""
    part_of = {}
    for k, members in enumerate(partition):
        for s in members:
            part_of[s] = k
    rank = d._index
    names = ["+".join(sorted(members, key=rank.__getitem__)) for members in partition]
    colorings = []
    for members in partition:
        shared = frozenset.intersection(*(d.coloring[s] for s in members))
        if not shared:
            return None
        colorings.append(shared)
    edges = {}
    for k, members in enumerate(partition):
        for y in d.observations:
            targets = {
                part_of[d.successors(s, y)[0]] for s in members if d.successors(s, y)
            }
            if len(targets) > 1:
                return None
            if targets:
                edges.setdefault((k, targets.pop()), set()).add(y)
    (init,) = d.initial
    transitions = {(names[a], names[b]): syms for (a, b), syms in edges.items()}
    return Filter(
        names,
        [names[part_of[init]]],
        d.observations,
        transitions,
        d.colors,
        {names[k]: colorings[k] for k in range(len(partition))},
    )


def _merge_pair(d, u, v):
    """Merge two states of a deterministic filter; None if it breaks."""
    shared = d.coloring[u] & d.coloring[v]
    if not shared:
        return None
    rank = d._index
    merged = "+".join(sorted([u, v], key=rank.__getitem__))
    taken = set(d.states) - {u, v}
    while merged in taken:
        merged += "'"

    def rename(s):
        return merged if s in (u, v) else s

    transitions = {}
    for (src, dst), syms in d.transitions.items():
        key = (rename(src), rename(dst))
        transitions[key] = transitions.get(key, frozenset()) | syms
    # determinism: no symbol may now leave a state toward two targets
    seen = {}
    for (src, dst), syms in transitions.items():
        for y in syms:
            if (src, y) in seen and seen[(src, y)] != dst:
                return None
            seen[(src, y)] = dst
    states = [rename(s) for s in d.states if s != v]
    coloring = {rename(s): d.coloring[s] for s in d.states}
    coloring[merged] = shared
    initial = {rename(s) for s in d.initial}
    return Filter(states, initial, d.observations, transitions, d.colors, coloring)


def _verified(ref, candidate, clock):
    if not clock.spend():
        return False
    clock.walked += 1
    return _walk(ref, *ref.encode(candidate)) is None


def _greedy_merge(d, ref, clock):
    """Upper-bound pass: keep merging verified compatible pairs, until no
    pair merges or the clock refuses."""
    cur = d
    while True:
        adj = compatibility_graph(cur)
        merged = None
        for i, u in enumerate(cur.states):
            for v in cur.states[i + 1:]:
                if v not in adj[u]:
                    continue
                cand = _merge_pair(cur, u, v)
                if cand is not None and _verified(ref, cand, clock):
                    merged = cand
                    break
                if clock.refused:
                    return cur
            if merged is not None:
                break
        if merged is None:
            return cur
        cur = merged


def minimize_det(f, budget=None, determinize_cap=DETERMINIZE_CAP):
    """Exact minimization over deterministic filters only.

    Determinizes first, bounds the optimum from below by the minimum clique
    cover of the compatibility graph, then closes in from above with a
    quotient of the optimal partition, a verified greedy merge pass, and (if
    a gap is left) a complete per-level candidate search under the budget.
    """
    start = time.monotonic()
    ft = f.trim()
    d, _ = ft.determinize(determinize_cap)
    ref = _RefTables(ft)
    clock = _Clock(budget)
    compat = compatibility_graph(d)
    partition, lower, cover_exact = _min_clique_cover(d.states, compat)
    best = d
    if len(best.states) > lower:
        quotient = _quotient_filter(d, partition)
        if quotient is not None and len(quotient.states) < len(best.states):
            if _verified(ref, quotient, clock):
                best = quotient
    if len(best.states) > lower:
        smaller = _greedy_merge(best, ref, clock)
        if len(smaller.states) < len(best.states):
            best = smaller
    proven = len(best.states) == lower
    if not proven and not clock.refused:
        searched_all = True
        for n in range(lower, len(best.states)):
            if budget is not None and budget.max_k is not None and n > budget.max_k:
                searched_all = False
                break
            status, witness = _search_size(ref, n, clock, det=True)
            if status == _CAPPED:
                searched_all = False
                break
            if status == _FOUND:
                best = witness
                searched_all = True
                break
        proven = searched_all
    _confirm(ref, best)
    stats = {
        "candidates": clock.candidates,
        "walked": clock.walked,
        "wall_time_s": time.monotonic() - start,
        "determinized_size": len(d.states),
        "lower_bound": lower,
        "cover_exact": cover_exact,
    }
    return MinimizationResult(best, proven, stats)
