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

minimize_nondet searches level 1, then bounds the optimum before it
enumerates anything more.  Upper bounds come from the trimmed filter, its
forward and backward bisimulation quotients and the deterministic pipeline
below; the lower bound is a fooling set, a family of string pairs that no
two simulator states can serve together.  Where the bounds meet, the upper
bound is the answer, proven; otherwise only the levels between them are
searched.  Every bound phase has a fixed work cap and checks the time cap.

minimize_det works on the determinization: the minimum clique cover of its
compatibility graph is a sound lower bound on any deterministic minimizer,
quotients and verified greedy merges supply upper bounds, and a complete
per-level search closes any remaining gap while the budget lasts.
"""

import functools
import itertools
import operator
import time

from .errors import CapExceeded
from .filters import DETERMINIZE_CAP, Filter, _fresh_name
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

    def expired(self):
        """True once the time cap has passed."""
        return self._deadline is not None and time.monotonic() > self._deadline

    def sub(self, candidate_cap):
        """A fresh clock with its own candidate cap and this clock's deadline."""
        clock = _Clock(SearchBudget(candidate_cap=candidate_cap))
        clock._deadline = self._deadline
        return clock


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
    """Exact minimization over all filters: bounds first, then a search of
    the levels between them.

    Level 1 is searched first.  If it fails, sound bounds come next: upper
    bounds from the trimmed filter, its forward and backward bisimulation
    quotients and the deterministic pipeline, each checked by the pair walk,
    and a fooling-set lower bound, at least 2.  When the lower bound meets
    the best upper bound, that filter is returned as proven optimal without
    a search; otherwise the levels from the lower bound up to one below the
    best upper bound are searched in turn, and the first level with a
    simulator gives the canonically-first one.  The bounds are computed only
    when max_k allows level 2.
    """
    start = time.monotonic()
    ft = f.trim()
    ref = _RefTables(ft)
    clock = _Clock(budget)
    max_k = clock.budget.max_k
    best, source, lower, lower_exact = ft, "trim", 1, True
    status = _EXHAUSTED
    if len(ft.states) > 1:
        status, witness = _search_size(ref, 1, clock, det=False)
        if status == _FOUND:
            best, source = witness, "search"
    if status == _EXHAUSTED and len(ft.states) > 1:
        lower = 2
        if max_k is None or max_k > 1:
            best, source = _upper_bound(ft, ref, clock, lower)
            if lower < len(best.states):
                pairs, lower_exact = _fooling_set(ref, len(best.states), clock)
                lower = max(lower, len(pairs))
        for n in range(lower, len(best.states)):
            if max_k is not None and n > max_k:
                status = _CAPPED
                break
            status, witness = _search_size(ref, n, clock, det=False)
            if status == _FOUND:
                best, source = witness, "search"
                break
            if status == _CAPPED:
                break
    stats = {
        "candidates": clock.candidates,
        "walked": clock.walked,
        "wall_time_s": time.monotonic() - start,
        "trim_size": len(ft.states),
        "lower_bound": lower,
        "lower_bound_exact": lower_exact,
        "upper_bound_source": source,
    }
    return MinimizationResult(best, status != _CAPPED, stats)


# -- bounds for nondeterministic minimization ------------------------------

# Work caps of the bound phases.  They are fixed, so every bound, and with it
# every answer under a candidate cap, repeats exactly from run to run.
_BOUND_SUBSETS = 1_000      # the deterministic bound is skipped past this many subsets
_BOUND_CANDIDATES = 50      # verified merges the deterministic bound may try
_BOUND_MERGES = 5_000       # state pairs its greedy merge pass may try in all
_BOUND_COVER_NODES = 20_000  # clique-cover search nodes of the deterministic bound
_BISIMULATION_WORK = 100_000  # state signatures one bisimulation quotient may compute
_FOOLING_SETS = 64          # reached sets that fooling pairs start from
_FOOLING_WORK = 50_000      # (reached set, tail) pairs the fooling-set bound walks
_FOOLING_NODES = 5_000      # clique-search nodes of the fooling-set bound


def _upper_bound(ft, ref, clock, lower):
    """The smallest simulator among the trimmed filter, its two bisimulation
    quotients and the deterministic pipeline's result, with the name of its
    source.  Each one that is smaller than the best so far is walked against
    the reference through _confirm, which raises if it fails.  Stops once
    one has `lower` states, below which the search has ruled everything
    out."""
    best, source = ft, "trim"
    for name in ("forward-bisimulation", "backward-bisimulation", "deterministic"):
        if len(best.states) <= lower or clock.expired():
            break
        if name == "deterministic":
            bound = _det_bound(ft, ref, clock, len(best.states))
        else:
            bound = _bisimulation_quotient(ft, ref, clock, name == "backward-bisimulation")
        if bound is not None and len(bound.states) < len(best.states):
            best, source = _confirm(ref, bound), name
    return best, source


def _det_bound(ft, ref, clock, beat):
    """The deterministic pipeline's simulator under the bound caps, or None
    when the determinization passes _BOUND_SUBSETS subsets."""
    try:
        return _det_pipeline(ft, ref, clock.sub(_BOUND_CANDIDATES), _BOUND_SUBSETS,
                             _BOUND_COVER_NODES, _BOUND_MERGES, beat)[1]
    except CapExceeded:
        return None


def _bisimulation_quotient(ft, ref, clock, backward):
    """The quotient of ft by its coarsest color-respecting forward (or
    backward) bisimulation, or None if every block is a single state.

    Forward-bisimilar states have the same colors and, under every symbol,
    successors in the same blocks; backward-bisimilar ones the same colors,
    the same initial status and predecessors in the same blocks.  Either way
    the quotient reaches, on every string, exactly the blocks of the states
    ft reaches, so it keeps the survival and output of every string.  The
    partition is refined from the color classes until no block splits; a
    round signs every state, and None is also the answer when that takes
    more than _BISIMULATION_WORK signatures, or past the deadline.
    """
    n = len(ft.states)
    if backward:
        edges = []
        for table in ref.step.values():
            into = [0] * n
            for i, targets in enumerate(table):
                for j in _bits(targets):
                    into[j] |= 1 << i
            edges.append(into)
        keys = [(ref.color_of[i], ref.init_mask >> i & 1) for i in range(n)]
    else:
        edges = list(ref.step.values())
        keys = list(ref.color_of)
    count = 0
    for _ in range(max(1, _BISIMULATION_WORK // n)):
        ids = {}
        block = [ids.setdefault(key, len(ids)) for key in keys]
        if len(ids) == count:
            break
        if len(ids) == n or clock.expired():
            return None
        count = len(ids)
        keys = []
        for i in range(n):
            key = [block[i]]
            for table in edges:
                blocks = 0
                for j in _bits(table[i]):
                    blocks |= 1 << block[j]
                key.append(blocks)
            keys.append(tuple(key))
    else:
        return None
    partition = [[] for _ in range(count)]
    for i, s in enumerate(ft.states):
        partition[block[i]].append(s)
    return _quotient_filter(ft, partition)


def _fooling_set(ref, target, clock):
    """A fooling set of the reference: (pairs, exact).

    Pairs (x_i, y_i) such that the reference survives every x_i y_i and, for
    i != j, it survives x_j y_i with colors disjoint from its colors on
    x_i y_i, or the same with i and j swapped.  Any simulator then needs a
    distinct state for each pair: a state s_i reached on x_i that leads to
    a state whose colors lie in ref(x_i y_i) under y_i, for if s_i = s_j
    that state is also reached on x_j y_i, and its nonempty colors would lie
    in two disjoint sets.  So the size of the set is a lower bound.

    A pair depends only on the reference's reached set A after x and on y:
    the x_i are access strings of the first _FOOLING_SETS reached sets in
    breadth-first order, the y_i strings of length at most 2 in shortlex
    order, as many as _FOOLING_WORK allows but at least those of length at
    most 1.  A pair kills the reached sets B from which y leads to colors
    disjoint from its own, and two pairs fit together when either kills the
    other's set.  Two pairs with the same set never fit, so a fooling set
    has at most _FOOLING_SETS pairs; of the pairs with one set, only those
    whose killed sets are maximal are kept.  The largest fitting family is a
    maximum clique, searched up to `target` pairs with at most
    _FOOLING_NODES nodes; exact is False when that cap or the deadline cut
    the search short.
    """
    obs, succ, colors_of = ref.obs, ref.succ, ref.colors_of
    pool, access = [ref.init_mask], {ref.init_mask: ()}
    for A in pool:
        for y in obs:
            B = succ(A, y)
            if B and B not in access and len(pool) < _FOOLING_SETS:
                access[B] = access[A] + (y,)
                pool.append(B)
    tails = itertools.chain([()], ((y,) for y in obs), ((y, z) for y in obs for z in obs))
    found = {}  # (pool index, killed mask) -> the first tail giving it
    for tail in itertools.islice(tails, max(1 + len(obs), _FOOLING_WORK // len(pool))):
        if clock.expired():
            return [], False
        holders = {}  # colors reached on the tail -> mask of the pool sets reaching them
        for k, A in enumerate(pool):
            for y in tail:
                A = succ(A, y)
            colors = colors_of(A)
            if colors:
                holders[colors] = holders.get(colors, 0) | 1 << k
        for own, at in holders.items():
            killed = 0
            for other, there in holders.items():
                if not other & own:
                    killed |= there
            for k in _bits(at):
                found.setdefault((k, killed), tail)
    by_set = {}
    for k, killed in found:
        by_set.setdefault(k, []).append(killed)
    nodes = []
    for k, kills in by_set.items():
        kept = []
        for killed in sorted(kills, key=lambda mask: -bin(mask).count("1")):
            if not any(killed & other == killed for other in kept):
                kept.append(killed)
                nodes.append((k, killed))
    members = [0] * len(pool)
    killers = [0] * len(pool)
    for v, (k, killed) in enumerate(nodes):
        members[k] |= 1 << v
        for j in _bits(killed):
            killers[j] |= 1 << v
    rows = []
    for k, killed in nodes:
        row = killers[k]
        for j in _bits(killed):
            row |= members[j]
        rows.append(row)
    clique, exact = _max_clique(rows, target, _FOOLING_NODES, clock)
    return [(access[pool[nodes[v][0]]], found[nodes[v]]) for v in clique], exact


class _NodeCapHit(Exception):
    pass


class _CliqueDone(Exception):
    pass


def _max_clique(rows, target, node_cap, clock):
    """A largest clique of the graph with adjacency bitmask rows, found by
    branch and bound with greedy-coloring bounds (Tomita & Seki 2003).

    Returns (clique, exact).  The search stops at the first clique it finds
    with at least `target` vertices.  exact is False when it stopped at
    node_cap nodes or at the deadline, with the largest clique found so far.
    The recursion goes one level deeper per clique vertex.
    """
    order = sorted(range(len(rows)), key=lambda v: -bin(rows[v]).count("1"))
    rank = {v: i for i, v in enumerate(order)}
    # renumber so that low bits are the vertices of highest degree
    ranked = []
    for v in order:
        row = 0
        for u in _bits(rows[v]):
            row |= 1 << rank[u]
        ranked.append(row)
    best = []
    nodes = 0

    def expand(clique, cands):
        nonlocal best, nodes
        colored = []  # (vertex, color bound), in coloring order
        color = 0
        rest = cands
        while rest:
            color += 1
            avail = rest
            while avail:
                v = (avail & -avail).bit_length() - 1
                avail &= ~ranked[v] & ~(1 << v)
                rest &= ~(1 << v)
                colored.append((v, color))
        for v, bound in reversed(colored):
            if len(clique) + bound <= len(best):
                return
            nodes += 1
            if nodes > node_cap or (nodes & 255 == 0 and clock.expired()):
                raise _NodeCapHit
            clique.append(v)
            inner = cands & ranked[v]
            if inner:
                expand(clique, inner)
            elif len(clique) > len(best):
                best = list(clique)
                if len(best) >= target:
                    raise _CliqueDone
            clique.pop()
            cands &= ~(1 << v)

    exact = True
    try:
        expand([], (1 << len(rows)) - 1)
    except _CliqueDone:
        pass
    except _NodeCapHit:
        exact = False
    return [order[v] for v in best], exact


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


def _feasible_coloring(inc, precolored, t, node_cap):
    """Color the incompatibility graph with t colors, or prove impossible.

    A depth-first search over the uncolored vertices, most incompatible
    first, trying the colors in order.  It counts every node it enters and
    raises _NodeCapHit past node_cap.  The stack holds, for each vertex
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
            raise _NodeCapHit
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
            except _NodeCapHit:
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


def _quotient_filter(f, partition):
    """Collapse each partition class to one state, colored by the colors its
    members share and with the union of their edges; None if a class shares
    no color."""
    part_of = {}
    for k, members in enumerate(partition):
        for s in members:
            part_of[s] = k
    rank = f._index
    taken = set()
    names = [
        _fresh_name("+".join(sorted(members, key=rank.__getitem__)), taken)
        for members in partition
    ]
    colorings = {}
    for name, members in zip(names, partition):
        shared = frozenset.intersection(*(f.coloring[s] for s in members))
        if not shared:
            return None
        colorings[name] = shared
    transitions = {}
    for (src, dst), syms in f.transitions.items():
        key = (names[part_of[src]], names[part_of[dst]])
        transitions[key] = transitions.get(key, frozenset()) | syms
    initial = {names[part_of[s]] for s in f.initial}
    return Filter(names, initial, f.observations, transitions, f.colors, colorings)


def _merge_pair(d, u, v):
    """Merge two states of a deterministic filter; None if it breaks."""
    shared = d.coloring[u] & d.coloring[v]
    if not shared:
        return None
    # only the merged state's own edges can now leave toward two targets
    for y in d.out_symbols(u) & d.out_symbols(v):
        (a,), (b,) = d.successors(u, y), d.successors(v, y)
        if a != b and not {a, b} <= {u, v}:
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


def _greedy_merge(d, ref, clock, merge_cap=None):
    """Upper-bound pass: keep merging verified compatible pairs, until no
    pair merges, the clock refuses, or merge_cap pairs have been tried."""
    cur = d
    tries = 0
    while True:
        adj = compatibility_graph(cur)
        merged = None
        for i, u in enumerate(cur.states):
            for v in cur.states[i + 1:]:
                if v not in adj[u]:
                    continue
                tries += 1
                if merge_cap is not None and tries > merge_cap:
                    return cur
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


def _det_pipeline(ft, ref, clock, determinize_cap, node_cap=500_000, merge_cap=None,
                  beat=None):
    """The deterministic pipeline: determinize, cover, quotient, greedy merge.

    Returns (determinization, best verified deterministic simulator, cover
    lower bound, cover exact).  node_cap caps the cover search, merge_cap
    the pairs the greedy merge pass tries.  The quotient of the cover's
    partition and the merge pass run only while the simulator is above the
    lower bound, and not once the clock's deadline has passed.  When beat is
    given, each runs only if it can still bring the simulator below beat
    states.
    Raises CapExceeded past determinize_cap subsets.
    """
    d, _ = ft.determinize(determinize_cap)
    best = d
    partition, lower, cover_exact = _min_clique_cover(d.states, compatibility_graph(d), node_cap)
    if beat is not None and lower >= beat:
        return d, best, lower, cover_exact
    if len(best.states) > lower and not clock.expired():
        quotient = _quotient_filter(d, partition)
        if (quotient is not None and quotient.is_deterministic()
                and len(quotient.states) < len(best.states)):
            if _verified(ref, quotient, clock):
                best = quotient
    # each verified merge spends a candidate and removes one state
    cap = clock.budget.candidate_cap
    if beat is not None and cap is not None and len(best.states) - (cap - clock.candidates) >= beat:
        return d, best, lower, cover_exact
    if len(best.states) > lower and not clock.expired():
        smaller = _greedy_merge(best, ref, clock, merge_cap)
        if len(smaller.states) < len(best.states):
            best = smaller
    return d, best, lower, cover_exact


def minimize_det(f, budget=None, determinize_cap=DETERMINIZE_CAP):
    """Exact minimization over deterministic filters only.

    Determinizes first, bounds the optimum from below by the minimum clique
    cover of the compatibility graph, then closes in from above with a
    quotient of the optimal partition, a verified greedy merge pass, and (if
    a gap is left) a complete per-level candidate search under the budget.
    """
    start = time.monotonic()
    ft = f.trim()
    ref = _RefTables(ft)
    clock = _Clock(budget)
    d, best, lower, cover_exact = _det_pipeline(ft, ref, clock, determinize_cap)
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
