"""Exact filter minimization by bounded candidate search.

decide_size_k enumerates candidate filters over the input's alphabet and
colors in a fixed canonical order (initial sets by ascending bitmask, state
colorings by declared color order, transition symbol-sets by symbol order)
and tests each against the input.  Each candidate is tested on its mask
tables by the reached-set pair walk of the simulation module, which stops at
the first failing pair of either kind.  A candidate that passes is built as
a Filter and walked again from that Filter, so a fault in building it raises
instead of returning a filter that does not simulate the input.

minimize_det works on the determinization: the minimum clique cover of its
compatibility graph is a sound lower bound on any deterministic minimizer,
quotients and verified greedy merges supply upper bounds, and a complete
per-level search closes any remaining gap while the budget lasts.
"""

import itertools
import time
from collections import deque

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
    def __init__(self, budget):
        self.budget = budget if budget is not None else SearchBudget()
        self.candidates = 0
        self._deadline = None
        if self.budget.time_cap is not None:
            self._deadline = time.monotonic() + self.budget.time_cap

    def spend(self):
        """Account for one candidate; False once the budget is gone."""
        self.candidates += 1
        cap = self.budget.candidate_cap
        if cap is not None and self.candidates > cap:
            return False
        if self._deadline is not None and (self.candidates & 0x1FF) == 0:
            if time.monotonic() > self._deadline:
                return False
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


def _is_trim_mask(n, init_mask, step_tables):
    reach = init_mask
    frontier = init_mask
    full = (1 << n) - 1
    while frontier and reach != full:
        nxt = 0
        for i in _bits(frontier):
            for table in step_tables:
                nxt |= table[i]
        frontier = nxt & ~reach
        reach |= nxt
    return reach == full


def _confirm(ref, candidate):
    """Re-check a filter the search accepted, through its built Filter form."""
    if _walk(ref, *ref.encode(candidate)) is not None:
        raise RuntimeError("the search accepted a filter that fails output simulation")
    return candidate


def _search_size_nondet(ref, n, clock):
    """Exhaust all n-state candidates in canonical order."""
    y_count = len(ref.obs)
    color_count = len(ref.colors)
    table_size = 1 << y_count
    syms_of = [tuple(j for j in range(y_count) if t >> j & 1) for t in range(table_size)]
    obs = ref.obs
    for init_mask in range(1, 1 << n):
        for colors in itertools.product(range(1, 1 << color_count), repeat=n):
            eps = 0
            for i in _bits(init_mask):
                eps |= colors[i]
            if eps & ~ref.eps_colors:
                continue
            for trans in itertools.product(range(table_size), repeat=n * n):
                if not clock.spend():
                    return _CAPPED, None
                step = {y: [0] * n for y in obs}
                cell = 0
                for u in range(n):
                    for v in range(n):
                        for j in syms_of[trans[cell]]:
                            step[obs[j]][u] |= 1 << v
                        cell += 1
                if not _is_trim_mask(n, init_mask, list(step.values())):
                    continue
                if _walk(ref, init_mask, colors, step) is None:
                    found = _candidate_filter(ref, n, init_mask, colors, step)
                    return _FOUND, _confirm(ref, found)
    return _EXHAUSTED, None


def _search_size_det(ref, n, clock):
    """Exhaust deterministic n-state candidates (initial state fixed to s0)."""
    y_count = len(ref.obs)
    color_count = len(ref.colors)
    obs = ref.obs
    for colors in itertools.product(range(1, 1 << color_count), repeat=n):
        if colors[0] & ~ref.eps_colors:
            continue
        for targets in itertools.product(range(n + 1), repeat=n * y_count):
            if not clock.spend():
                return _CAPPED, None
            step = {y: [0] * n for y in obs}
            slot = 0
            for u in range(n):
                for j in range(y_count):
                    t = targets[slot]
                    slot += 1
                    if t:
                        step[obs[j]][u] |= 1 << (t - 1)
            if not _is_trim_mask(n, 1, list(step.values())):
                continue
            if _walk(ref, 1, colors, step) is None:
                found = _candidate_filter(ref, n, 1, colors, step)
                return _FOUND, _confirm(ref, found)
    return _EXHAUSTED, None


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
        status, witness = _search_size_nondet(ref, n, clock)
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
        status, witness = _search_size_nondet(ref, n, clock)
        if status == _FOUND:
            best = witness
            break
        if status == _CAPPED:
            proven = False
            break
    stats = {
        "candidates": clock.candidates,
        "wall_time_s": time.monotonic() - start,
        "trim_size": len(ft.states),
    }
    return MinimizationResult(best, proven, stats)


# -- deterministic minimization ------------------------------------------


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
    """
    if not d.is_deterministic():
        raise ValueError("compatibility graph needs a deterministic filter")
    states = d.states
    idx = d._index

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


class _CoverCapHit(Exception):
    pass


def _feasible_coloring(inc, precolored, t, node_cap):
    """Color the incompatibility graph with t colors, or prove impossible."""
    n = len(inc)
    color = [-1] * n
    class_masks = [0] * t
    for c, v in enumerate(precolored):
        color[v] = c
        class_masks[c] |= 1 << v
    rest = [v for v in range(n) if color[v] < 0]
    rest.sort(key=lambda v: -bin(inc[v]).count("1"))
    nodes = 0

    def assign(pos, used):
        nonlocal nodes
        nodes += 1
        if nodes > node_cap:
            raise _CoverCapHit
        if pos == len(rest):
            return True
        v = rest[pos]
        for c in range(min(used + 1, t)):
            if class_masks[c] & inc[v]:
                continue
            color[v] = c
            class_masks[c] |= 1 << v
            if assign(pos + 1, max(used, c + 1)):
                return True
            class_masks[c] &= ~(1 << v)
            color[v] = -1
        return False

    if assign(0, len(precolored)):
        return class_masks
    return None


def _min_clique_cover(states, adj, node_cap=500_000):
    """Exact minimum clique cover of the compatibility graph.

    Returns (partition, lower_bound, exact).  When the branch-and-bound caps
    out, the partition is the greedy one and lower_bound falls back to the
    best proven value (at worst the greedy incompatible-clique size), still
    sound as a bound on the optimum.
    """
    n = len(states)
    inc = [0] * n
    for i in range(n):
        row = adj[states[i]]
        for j in range(n):
            if i != j and states[j] not in row:
                inc[i] |= 1 << j
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


def _quotient_filter(d, partition, ref):
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
    while merged in set(d.states) - {u, v}:
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
    return clock.spend() and _walk(ref, *ref.encode(candidate)) is None


def _greedy_merge(d, ref, clock):
    """Upper-bound pass: keep merging verified compatible pairs."""
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
        quotient = _quotient_filter(d, partition, ref)
        if quotient is not None and len(quotient.states) < len(best.states):
            if _verified(ref, quotient, clock):
                best = quotient
    if len(best.states) > lower:
        smaller = _greedy_merge(best, ref, clock)
        if len(smaller.states) < len(best.states):
            best = smaller
    proven = len(best.states) == lower
    if not proven:
        searched_all = True
        for n in range(lower, len(best.states)):
            if budget is not None and budget.max_k is not None and n > budget.max_k:
                searched_all = False
                break
            status, witness = _search_size_det(ref, n, clock)
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
        "wall_time_s": time.monotonic() - start,
        "determinized_size": len(d.states),
        "lower_bound": lower,
        "cover_exact": cover_exact,
    }
    return MinimizationResult(best, proven, stats)
