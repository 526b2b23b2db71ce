"""Exact filter minimization by bounded candidate search.

decide_size_k enumerates candidate filters over the input's alphabet and
colors in a fixed canonical order (initial sets by ascending bitmask, state
colorings by declared color order, transition symbol-sets by symbol order)
and tests them by the reached-set pair walk of the simulation module, which
stops at the first failing pair of either kind.  A failure rules out the
block of later candidates that agree on the transition rows it read, counted
without being walked.  So the `candidates` count (and the cap) covers every
candidate of the sizes searched in canonical order up to where the search
stopped, walked or ruled out in a block, as if each were checked in turn;
stats count the walks as `walked`, so walked <= candidates.  Size 1
enumerates nothing: one pass over the input's reached sets decides it, and
counts in neither.  A search returns the mask tables of the simulator it
finds, and _search_levels builds them as a Filter (_build) and walks that
again (_confirm), so a fault raises instead of returning a filter that does
not simulate the input.

One budget rule holds in both minimizers: max_k and the candidate cap limit
only the sizes searched, never size 1 or the bounds.  The time cap and
DETERMINIZE_CAP stop size 1's pass and the subset construction, and the
time cap every bound phase.  The walks of the sizes searched fill the sets
they reach with no subset cap and meet the deadline only between
candidates, and the walks that check a found simulator are not timed.  All
three entry points search through one level driver, _search_levels, given
the search of one size.

minimize_nondet searches level 1, then bounds the optimum before it
enumerates anything more.  Upper bounds come from the trimmed filter, its
forward bisimulation quotient and the deterministic pipeline below; the
lower bound is a fooling set, a family of string pairs that no two
simulator states can serve together.  Where the bounds meet, the upper
bound is the answer, proven; otherwise only the levels between them are
searched.  Each bound phase runs on a sub-clock of the search's _Clock:
the same deadline, and a fixed work cap of its own, in search nodes or in
states signed.  The bounds stay tables, compared by size, and only the
winner is built as a Filter, names included.  Both quotients, the forward
one and the cover's below, are one _quotient of mask tables by a
partition, and _build makes the Filter of every quotient and search
witness.  The forward quotient is certified by a linear check and not
walked; the cover's quotient is walked as tables inside the pipeline and,
if it wins, again by _confirm once built.

minimize_det works on the determinization, read off the reference's
reached-set table: the minimum clique cover of its compatibility graph is
a sound lower bound on any deterministic minimizer, the cover's quotient
an upper bound, and a search for closed covers (_closed_cover) decides the
levels between them while the budget lasts; there `candidates` counts the
choices tried, and none is walked.  The compatibility graph checks the
deadline too, and past it the determinization is the answer, unproven;
past it in the subset construction, before any simulator exists,
CapExceeded is raised.  Both minimizers build their result, and the stats
they share, in _result.
"""

import functools
import itertools
import operator
import time

from .errors import CapExceeded
from .filters import DETERMINIZE_CAP, Filter, _bits, _flags, _fresh_name, _Reached, _subset_names
from .simulation import _walk

YES = "yes"
NO = "no"
BUDGET_EXHAUSTED = "budget-exhausted"

_FOUND, _EXHAUSTED, _CAPPED = "found", "exhausted", "capped"


class SearchBudget:
    """Caps for the candidate search: deepest size, candidate count, seconds."""

    def __init__(self, max_k=None, candidate_cap=250_000, time_cap=None):
        for name, value in (("max_k", max_k), ("candidate_cap", candidate_cap)):
            if value is not None and (type(value) is not int or value < 1):  # not a bool
                raise ValueError(f"{name} must be a positive integer")
        if time_cap is not None and (type(time_cap) not in (int, float)  # not a bool
                                     or not time_cap > 0):  # NaN fails too
            raise ValueError("time_cap must be a positive number of seconds")
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
    """Candidates accounted for in canonical order, and the walks that checked
    them (walked): one per candidate not ruled out in a block.  In the
    closed-cover search a candidate is one choice tried, and none is walked.
    A sub-clock meters a bound phase in its own unit: one clique or coloring
    search node, or one state signed in a refinement round.  The phases
    without a unit of their own test the deadline alone (expired): size 1's
    pass and the subset construction every 1,024 sets, the compatibility
    graph, and the fooling set's tails."""

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
        """A fresh clock with its own candidate cap and this clock's time cap
        and deadline."""
        clock = _Clock(_capped(candidate_cap, self.budget.time_cap))
        clock._deadline = self._deadline
        return clock


@functools.cache
def _capped(candidate_cap, time_cap):
    """The budget of a sub-clock, checked once per pair of caps; shared, as
    no clock changes its budget."""
    return SearchBudget(candidate_cap=candidate_cap, time_cap=time_cap)


def _build(ref, tables, names=None):
    """The Filter of mask tables (initial mask, color mask per state, step,
    as _walk takes them) over ref's observations and colors, its states
    named names or else s0, s1, ..."""
    init, colors, step = tables
    if names is None:
        names = tuple(f"s{i}" for i in range(len(colors)))
    succ = [[() if not t else (t.bit_length() - 1,) if not t & (t - 1) else tuple(_bits(t))
             for t in table] for table in step]
    return Filter._from_tables(names, ref.obs, ref.color_names, tuple(_bits(init)), succ,
                               list(colors))


def _joined(names, partition):
    """The names of partition's classes, lists of state indexes: their
    members' names joined with +, made unique by _fresh_name."""
    taken = set()
    return tuple(_fresh_name("+".join(map(names.__getitem__, members)), taken)
                 for members in partition)


def _quotient(tables, partition):
    """The mask tables of the quotient of tables (initial mask, color mask
    per state, step) by partition, a list of lists of state indexes; None if
    a class shares no color.  A class is colored by the colors its members
    share and has the union of their edges."""
    init, colors, step = tables
    into = [0] * len(colors)  # into[i]: the bit of state i's class
    shared = []
    for k, members in enumerate(partition):
        common = -1
        for i in members:
            into[i] = 1 << k
            common &= colors[i]
        if not common:
            return None
        shared.append(common)
    start = functools.reduce(operator.or_, map(into.__getitem__, _bits(init)), 0)
    quotient = []
    for table in step:
        out = []
        for members in partition:
            ends = 0
            for i in members:
                targets = table[i]
                while targets:
                    bit = targets & -targets
                    ends |= into[bit.bit_length() - 1]
                    targets ^= bit
            out.append(ends)
        quotient.append(out)
    return start, shared, quotient


def _confirm(ref, candidate):
    """Re-check a filter the search or the deterministic pipeline found,
    through its built Filter form; RuntimeError if it fails simulation."""
    if _walk(ref, *ref.encode(candidate)) is not None:
        raise RuntimeError("the search accepted a filter that fails output simulation")
    return candidate


def _search_size(ref, n, clock):
    """Exhaust the n-state candidates in canonical order: (status, the mask
    tables of the first simulator, or None)."""
    if n == 1:
        return _level_one(ref, clock)
    color_count = len(ref.color_names)
    for init_mask in range(1, 1 << n):
        for colors in itertools.product(range(1, 1 << color_count), repeat=n):
            eps = 0
            for i in _bits(init_mask):
                eps |= colors[i]
            if eps & ~ref.colors[0]:
                continue
            status, witness = _search_tables(ref, n, init_mask, colors, clock)
            if status != _EXHAUSTED:
                return status, witness
    return _EXHAUSTED, None


def _level_one(ref, clock):
    """Level 1 of _search_size, decided by one pass over ref's reached sets
    in order, which enumerates nothing and so spends no candidate.

    A one-state candidate with color mask c and self-loop mask d simulates
    the reference iff c lies in `common`, the colors that every reached set
    shows, and d holds `survive`, the symbols some reached set survives; the
    first in canonical order takes the lowest color of common.  The pass
    ends once common is empty, and is capped when the deadline or
    DETERMINIZE_CAP sets stop the fill of ref's rows before that.
    """
    colors, r = ref.colors, 0
    common = colors[0]
    try:
        while common and r < len(colors):  # the sets numbered so far share a color: fill their rows
            common = functools.reduce(operator.and_, colors[r:], common)
            r = len(colors)
            if common and ref.fill(r - 1, DETERMINIZE_CAP, clock.expired) < r:
                return _CAPPED, None
    except CapExceeded:
        return _CAPPED, None
    if not common:
        return _EXHAUSTED, None
    survive = sum(1 << k for k, row in enumerate(ref.after) if max(row, default=-1) >= 0)
    return _FOUND, (1, [common & -common], [[survive >> k & 1] for k in range(len(ref.obs))])


def _search_tables(ref, n, init_mask, colors, clock):
    """Exhaust the transition tables of n-state candidates with a fixed
    initial mask and coloring, in canonical order, once every smaller size
    is ruled out.

    A table is one int: field u*n + k, b bits wide (b observations) and
    field 0 most significant, is the mask of the symbols that lead state u
    to state k, so row u is the u-th digit in base 2^(b*n), and the order
    counts up from 0.  The walk alone judges a candidate: one with a state
    no string reaches would shrink to a smaller simulator, so it fails.

    A failure depends only on the rows of the candidate states in the pairs
    its walk expanded, up to row j say, and the rows after j are zero: so
    it rules out the next 2^low - 1 tables, low = b*n*(n-1-j), charged to
    the clock without a walk, and the next candidate is table + 2^low.
    Those rows are zero, as the jump adds one at the lowest bit of row j:
    some row c <= j goes up, rows c+1..j wrap to 0, and the next walk
    agrees with this one until it first expands a pair holding a state
    >= c, which this one did, as it read row j; so the next failure reads
    a row >= c.  RuntimeError if a jump finds otherwise.  The count and the
    first witness are those of checking every candidate in turn.
    """
    b = len(ref.obs)
    width, top = b * n, n * n - 1  # the bits of a row, the number of the last field
    step = [[0] * n for _ in ref.obs]  # the candidate's step, as _walk takes it
    table = 0
    while True:
        if not clock.spend():
            return _CAPPED, None
        clock.walked += 1
        failure = _walk(ref, init_mask, colors, step)
        if failure is None:
            return _FOUND, (init_mask, colors, step)
        _, node, parent, stride = failure
        read = 0
        if parent[node] is not None:
            last_expanded = parent[node] // b
            for pair in parent:
                read |= pair % stride
                if pair == last_expanded:
                    break
        low = width * (n - read.bit_length())  # the bits of the rows after the last read
        if table & ((1 << low) - 1):
            raise RuntimeError("the candidate search would skip tables it has not ruled out")
        if low and not clock.spend((1 << low) - 1):
            return _CAPPED, None
        nxt = table + (1 << low)
        if nxt >> (width * n):
            return _EXHAUSTED, None
        for p in _bits(table ^ nxt):
            u, k = divmod(top - p // b, n)
            step[p % b][u] ^= 1 << k
        table = nxt


def _search_levels(ref, levels, clock, search):
    """Search the sizes of the range levels in turn, each by search(size,
    clock) -> (status, tables found or None): (status, witness, level).

    Stops at the first size that finds a simulator or is capped, or _CAPPED
    at the first size above max_k or reached after the clock refused; else
    returns (_EXHAUSTED, None, levels.stop).  The tables found are built as
    the witness, a Filter over ref's observations and colors, and walked
    again by _confirm.
    """
    max_k = clock.budget.max_k
    for level in levels:
        if (max_k is not None and level > max_k) or clock.refused:
            return _CAPPED, None, level
        status, found = search(level, clock)
        if status != _EXHAUSTED:  # only a found simulator comes with tables
            return status, found and _confirm(ref, _build(ref, found)), level
    return _EXHAUSTED, None, levels.stop


def _result(best, status, level, clock, start, **stats):
    """The MinimizationResult of either minimizer: the stats both give
    (candidates, walked, level, wall_time_s), then its own; proven unless
    the search was capped."""
    shared = {"candidates": clock.candidates, "walked": clock.walked, "level": level,
              "wall_time_s": time.monotonic() - start}
    return MinimizationResult(best, status != _CAPPED, {**shared, **stats})


def decide_size_k(f, k, budget=None):
    """Is there a filter with at most k states that output-simulates f?

    Returns a SizeDecision; a YES carries the canonically-first witness.  At
    level |trim(f)| the trimmed filter itself settles the question, so
    enumeration only ever runs below it, and above size 1, which one pass
    over f's reached sets settles.  The budget is the minimizers' (see the
    module docstring).
    """
    if type(k) is not int or k < 1:  # not a bool either
        raise ValueError("k must be a positive integer")
    ft = f.trim()
    if k >= len(ft.states):
        # the trimmed filter is its own witness; no enumeration needed
        return SizeDecision(YES, ft, 0)
    clock = _Clock(budget)
    ref = _Reached(ft)
    status, witness, _ = _search_levels(ref, range(1, k + 1), clock,
                                        functools.partial(_search_size, ref))
    outcome = {_FOUND: YES, _CAPPED: BUDGET_EXHAUSTED, _EXHAUSTED: NO}[status]
    return SizeDecision(outcome, witness, clock.candidates)


def minimize_nondet(f, budget=None):
    """Exact minimization over all filters: bounds first, then a search of
    the levels between them.

    Level 1 is searched first.  If it fails, sound bounds come next: upper
    bounds from the trimmed filter, its certified forward bisimulation
    quotient and the deterministic pipeline, which walks its own result,
    and a fooling-set lower bound, at least 2.  When the lower bound meets
    the best upper bound, that filter is returned as proven optimal
    without a search; otherwise the levels from the lower bound up to one
    below the best upper bound are searched in turn, and the first level
    with a simulator gives the canonically-first one.  max_k and the
    candidate cap limit only that search; past the time cap or
    DETERMINIZE_CAP sets in level 1, the trimmed filter is returned unproven.
    """
    start = time.monotonic()
    ft = f.trim()
    ref = _Reached(ft)
    clock = _Clock(budget)
    best, source, lower, lower_exact = ft, "trim", 1, True
    search = functools.partial(_search_size, ref)
    status, witness, level = _search_levels(ref, range(1, min(2, len(ft.states))), clock, search)
    if status == _EXHAUSTED and len(ft.states) > 1:
        lower = 2
        best, source = _upper_bound(ft, ref, clock, lower)
        if lower < len(best.states):
            pairs, lower_exact = _fooling_set(ref, len(best.states), clock)
            lower = max(lower, len(pairs))
        status, witness, level = _search_levels(ref, range(lower, len(best.states)), clock, search)
    if status == _FOUND:
        best, source = witness, "search"
    return _result(best, status, level, clock, start, trim_size=len(ft.states),
                   lower_bound=lower, lower_bound_exact=lower_exact, upper_bound_source=source)


# -- bounds for nondeterministic minimization ------------------------------

# Work caps of the bound phases and of minimize_det's cover.  They are fixed, so
# every bound, and with it every answer under a candidate cap, repeats exactly.
_BOUND_SUBSETS = 1_000      # the deterministic bound is skipped past this many subsets
_BOUND_CANDIDATES = 250     # closed-cover choices the deterministic bound may try
_BOUND_COVER_NODES = 20_000  # clique-cover search nodes of the deterministic bound
_COVER_NODES = 500_000      # clique-cover search nodes of minimize_det
_NARROW = 32                # _incompatible reads a pending row this sparse bit by bit
_BISIMULATION_WORK = 100_000  # state signatures one bisimulation quotient may compute
_FOOLING_SETS = 64          # reached sets that fooling pairs start from
_FOOLING_WORK = 50_000      # (reached set, tail) pairs the fooling-set bound walks
_FOOLING_NODES = 5_000      # clique-search nodes of the fooling-set bound


def _upper_bound(ft, ref, clock, lower):
    """The smallest simulator among the trimmed filter, its certified
    forward bisimulation quotient and the deterministic pipeline's result,
    tried in that order, with the name of its source.  Stops once one has
    `lower` states, below which the search has ruled everything out, or
    once the deadline has passed.

    Each bound is a size and a build() that gives its Filter: the sizes are
    compared, and only the winner is built, names included.  The forward
    quotient, certified instead of walked, is named by joining its members'
    names; a deterministic winner is built by _det_pipeline's build()."""
    size, source, build = len(ft.states), "trim", None
    if size > lower and not clock.expired():
        partition = _bisimulation_partition(ref, clock.sub(_BISIMULATION_WORK))
        if partition is not None:  # fewer classes than states
            tables = (ref.members[0], ref.color_of, ref.step)
            size, source = len(partition), "forward-bisimulation"
            build = lambda: _build(ref, _quotient(tables, partition), _joined(ft.states, partition))
    if size > lower and not clock.expired():
        bound = _det_bound(ft, ref, clock, size)
        if bound and bound[0] < size:
            (size, build), source = bound, "deterministic"
    return (ft if build is None else build()), source


def _det_bound(ft, ref, clock, beat):
    """The deterministic pipeline's (size, build) under the bound caps, or
    None when the determinization passes _BOUND_SUBSETS subsets."""
    try:
        return _det_pipeline(ft, ref, clock.sub(_BOUND_CANDIDATES), _BOUND_SUBSETS,
                             _BOUND_COVER_NODES, beat)[1]
    except CapExceeded:
        return None


def _bisimulation_partition(ref, clock):
    """The classes of the coarsest forward bisimulation of ref's filter (see
    _is_bisimulation), as ascending lists of state indexes ordered by their
    first, or None if every class is a single state.  The partition is
    refined from the color classes until no block splits.  A round signs
    every state and spends one unit of clock per state first; None is also
    the answer once the clock refuses.  RuntimeError if the partition found
    fails the certificate."""
    n = len(ref.color_of)
    keys = list(ref.color_of)
    count = 0
    while clock.spend(n):
        ids = {}
        block = [ids.setdefault(key, len(ids)) for key in keys]
        if len(ids) == count:
            break
        if len(ids) == n:
            return None
        count = len(ids)
        keys = []
        into = [1 << b for b in block]  # into[j]: the bit of state j's block
        for i in range(n):
            key = [block[i]]
            for table in ref.step:
                blocks, targets = 0, table[i]
                while targets:
                    bit = targets & -targets
                    blocks |= into[bit.bit_length() - 1]
                    targets ^= bit
                key.append(blocks)
            keys.append(tuple(key))
    else:
        return None
    partition = [[] for _ in range(count)]
    for i in range(n):
        partition[block[i]].append(i)
    if not _is_bisimulation(ref, block):
        raise RuntimeError("the bisimulation refinement returned a partition that is not one")
    return partition


def _is_bisimulation(ref, block):
    """Whether block, the block index of each of ref's states, joins only
    states with the same colors and, under every symbol, the same blocks
    holding their successors: the certificate of a bisimulation quotient,
    apart from the refinement.

    Then the quotient reaches on every string w the blocks of R(w), the
    filter's reached set, so it survives w iff the filter does, with the
    same colors.  By induction on w: a block's y-successors are those of
    any one member, and a block reached on w has one in R(w).  The check
    reads each edge once.
    """
    ends = [[0] * len(block) for _ in ref.step]  # per symbol and state: a mask of blocks
    for table, out in zip(ref.step, ends):
        for i, targets in enumerate(table):
            for j in _bits(targets):
                out[i] |= 1 << block[j]
    keys = {(block[i], ref.color_of[i], *(out[i] for out in ends)) for i in range(len(block))}
    return len(keys) == len(set(block))


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
    the x_i are access strings of the sets numbered below _FOOLING_SETS in
    ref's table, read off its rows, and the y_i strings of length at most 2
    in shortlex order, as many as _FOOLING_WORK allows but at least those of
    length at most 1; a tail's image of a set is one read of a row.  A pair
    kills the reached sets B from which y leads to colors disjoint from its
    own, and two pairs fit together when either kills the other's set.  Two
    pairs with the same set never fit, so a fooling set has at most
    _FOOLING_SETS pairs; of the pairs with one set, only those whose killed
    sets are maximal are kept.  The largest fitting family is a maximum
    clique, searched up to `target` pairs with at most _FOOLING_NODES nodes;
    exact is False when that cap or the deadline cut the search short.

    The tails are numbered in that order from () as 0, so that tail t > 0
    is the tail numbered parent(t) and one symbol more, and its image is
    read off its parent's.
    """
    obs, after, colors = ref.obs, ref.after, ref.colors
    m = len(obs)
    ref.fill(_FOOLING_SETS - 1)
    pool = min(len(colors), _FOOLING_SETS)  # the sets numbered below it
    access = [()] + [None] * (pool - 1)  # strings as observation indexes
    for r in range(pool):
        for y, row in enumerate(after):
            q = row[r]
            if 0 <= q < pool and access[q] is None:
                access[q] = access[r] + (y,)
    images = [list(range(pool))]  # images[t]: the set tail t leads each pool set to, or -1
    tops = [pool - 1]  # the highest set number in each of images
    kills = [{} for _ in range(pool)]  # kills[k]: killed mask -> the first tail giving it
    for t in range(min(1 + m + m * m, max(1 + m, _FOOLING_WORK // pool))):
        if clock.expired():
            return [], False
        if t == 0:
            image = images[0]
        elif t <= m:  # the pool sets' own rows, filled
            image = after[t - 1][:pool]
            images.append(image)
            tops.append(max(image))
        else:
            parent, y = divmod(t - 1, m)
            if tops[parent] >= ref.done:
                ref.fill(tops[parent])
            row = after[y]
            image = [row[A] if A >= 0 else -1 for A in images[parent]]
        holders = {}  # colors reached on the tail -> mask of the pool sets reaching them
        for k, B in enumerate(image):
            if B >= 0:
                c = colors[B]
                holders[c] = holders.get(c, 0) | 1 << k
        for own, at in holders.items():
            killed = 0
            for other, there in holders.items():
                if not other & own:
                    killed |= there
            while at:
                bit = at & -at
                kills[bit.bit_length() - 1].setdefault(killed, t)
                at ^= bit
    # the pool sets in the order tail () first gave them a killed mask: by
    # color, the colors in order of first use
    first = {}
    for k in range(pool):
        first.setdefault(colors[k], k)
    nodes = []
    for k in sorted(range(pool), key=lambda k: (first[colors[k]], k)):
        kept = []
        for killed in sorted(kills[k], key=int.bit_count, reverse=True):  # a stable sort
            for other in kept:
                if killed & other == killed:
                    break
            else:
                kept.append(killed)
                nodes.append((k, killed))
    members = [0] * pool
    killers = [0] * pool
    for v, (k, killed) in enumerate(nodes):
        members[k] |= 1 << v
        while killed:
            bit = killed & -killed
            killers[bit.bit_length() - 1] |= 1 << v
            killed ^= bit
    rows = []
    for k, killed in nodes:
        row = killers[k]
        while killed:
            bit = killed & -killed
            row |= members[bit.bit_length() - 1]
            killed ^= bit
        rows.append(row)
    clique, exact = _max_clique(rows, target, clock.sub(_FOOLING_NODES))
    pairs = []
    for k, killed in map(nodes.__getitem__, clique):
        t = kills[k][killed]
        tail = () if t == 0 else (t - 1,) if t <= m else divmod(t - 1 - m, m)
        pairs.append((tuple(map(obs.__getitem__, access[k])), tuple(map(obs.__getitem__, tail))))
    return pairs, exact


class _Stop(Exception):
    """A graph search ends early: its clock refused, or its target was met."""


def _max_clique(rows, target, clock):
    """A largest clique of the graph with adjacency bitmask rows, found by
    branch and bound with greedy-coloring bounds (Tomita & Seki 2003).

    Returns (clique, exact).  The search stops at the first clique it finds
    with at least `target` vertices.  Each node spends one unit of clock;
    exact is False when the clock refused one, with the largest clique
    found so far.  The recursion goes one level deeper per clique vertex.
    """
    order = sorted(range(len(rows)), key=[-row.bit_count() for row in rows].__getitem__)
    moved = [0] * len(rows)  # moved[v]: the bit that stands for vertex v
    for i, v in enumerate(order):
        moved[v] = 1 << i
    # renumber so that low bits are the vertices of highest degree
    ranked = []
    for v in order:
        row, old = 0, rows[v]
        while old:
            bit = old & -old
            row |= moved[bit.bit_length() - 1]
            old ^= bit
        ranked.append(row)
    best = []

    def expand(clique, cands):
        nonlocal best
        colored = []  # (vertex, color bound), in coloring order
        color = 0
        rest = cands
        while rest:
            color += 1
            avail = rest
            while avail:
                bit = avail & -avail
                v = bit.bit_length() - 1
                avail &= ~(ranked[v] | bit)
                rest ^= bit
                colored.append((v, color))
        for v, bound in reversed(colored):
            if len(clique) + bound <= len(best):
                return
            if not clock.spend():
                raise _Stop
            clique.append(v)
            inner = cands & ranked[v]
            if inner:
                expand(clique, inner)
            elif len(clique) > len(best):
                best = list(clique)
                if len(best) >= target:
                    raise _Stop
            clique.pop()
            cands &= ~(1 << v)

    try:
        expand([], (1 << len(rows)) - 1)
    except _Stop:
        pass
    return [order[v] for v in best], not clock.refused


# -- deterministic minimization ------------------------------------------


def _incompatible(after, colors, clock):
    """The complement of the compatibility graph of a deterministic filter
    given by its rows, as (rows, complete): one bitmask row per state, no
    row with its own state's bit.  after[k][p] is the state that the k-th
    observation leads state p to, or -1 for none, and colors[p] is state
    p's color mask, as in a filled _Reached.

    Two states are compatible iff their color sets intersect and every
    extension alive from both leads again to color-intersecting states.  The
    states of the filter that a deterministic simulator maps to one state are
    pairwise compatible, so the minimum clique cover of the compatibility
    graph is a lower bound on any deterministic simulator, though not always
    attainable: cliques need not merge into a consistent transition function.

    The rows are seeded with the color-disjoint pairs, one row per distinct
    color set, and propagated backwards by a worklist: when a and b are
    incompatible, so is every pair of states that one symbol leads to a and
    b.  The worklist holds the states whose rows gained bits that have not
    been propagated yet; a row of at most _NARROW pending bits is read bit
    by bit, a wider one through a byte mask.  The deadline is checked every
    256 pops and before every wide row, which can cost milliseconds on
    thousands of states, and once it has passed the rows are returned as
    they stand with complete False: every bit in them is a proven
    incompatibility, but some are missing.
    """
    n = len(colors)
    holders = {}  # color bit -> mask of the states that carry it
    for i, c in enumerate(colors):
        while c:
            bit = c & -c
            holders[bit] = holders.get(bit, 0) | 1 << i
            c ^= bit
    full = (1 << n) - 1
    disjoint = {}
    for c in set(colors):
        sharing = 0
        for bit, there in holders.items():
            if bit & c:
                sharing |= there
        disjoint[c] = full & ~sharing
    bad = [disjoint[c] for c in colors]
    # per symbol: into[b] is the mask, sources[b] the list, of the states
    # that it leads to b
    preds = []
    for row in after:
        into, sources = [0] * n, [[] for _ in range(n)]
        for i, b in enumerate(row):
            if b >= 0:
                into[b] |= 1 << i
                sources[b].append(i)
        preds.append((into, sources))
    pending = list(bad)
    work = [i for i in range(n) if bad[i]]
    pops = 0
    while work:
        a = work.pop()
        row = pending[a]
        wide = row.bit_count() > _NARROW
        pops += 1
        if (wide or not pops & 255) and clock.expired():
            return bad, False
        pending[a] = 0
        flags = _flags(row) if wide else None
        for into, sources in preds:
            if not sources[a]:
                continue
            if flags is None:
                behind, rest = 0, row
                while rest:
                    bit = rest & -rest
                    behind |= into[bit.bit_length() - 1]
                    rest ^= bit
            else:
                behind = functools.reduce(operator.or_, itertools.compress(into, flags), 0)
            for i in sources[a]:
                new = behind & ~bad[i]
                if new:
                    bad[i] |= new
                    if not pending[i]:
                        work.append(i)
                    pending[i] |= new
    return bad, True


def _feasible_coloring(inc, precolored, t, clock):
    """Color the incompatibility graph with t colors, or prove impossible.

    A depth-first search over the uncolored vertices, most incompatible
    first, trying the colors in order.  Every node it enters spends one
    unit of clock, and _Stop is raised once the clock refuses.  The
    stack holds, for each vertex colored so far, its color and the number
    of colors in use before it.
    """
    class_masks = [0] * t
    for c, v in enumerate(precolored):
        class_masks[c] |= 1 << v
    fixed = set(precolored)
    rest = [v for v in range(len(inc)) if v not in fixed]
    rest.sort(key=lambda v: -inc[v].bit_count())
    stack = []
    used = len(precolored)
    while True:
        # enter the node that colors rest[len(stack)]
        if not clock.spend():
            raise _Stop
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


def _greedy_clique(inc):
    """(order, clique): the vertices of the graph with bitmask rows inc, most
    adjacent first, and the clique taken greedily in that order."""
    order = sorted(range(len(inc)), key=lambda i: -inc[i].bit_count())
    clique = []
    member_mask = 0
    for v in order:
        if inc[v] & member_mask == member_mask:
            clique.append(v)
            member_mask |= 1 << v
    return order, clique


def _min_clique_cover(inc, clock):
    """Exact minimum clique cover of a graph given by the bitmask rows inc
    of its complement (see _incompatible).

    Returns (partition, lower_bound, exact), the partition as ascending
    lists of vertex indexes ordered by their first.  The colorings for
    every color count t spend one clock, one unit per node.  When it
    refuses, the partition is the greedy one and lower_bound falls back to
    the best proven value (at worst the greedy incompatible-clique size),
    still sound as a bound on the optimum.
    """
    order, clique = _greedy_clique(inc)
    classes = []
    for v in order:
        for k in range(len(classes)):
            if not classes[k] & inc[v]:
                classes[k] |= 1 << v
                break
        else:
            classes.append(1 << v)
    lower, exact = len(clique), True
    try:  # color with lower colors, the fewest not ruled out, until it fits
        while lower < len(classes):
            found = _feasible_coloring(inc, clique, lower, clock)
            if found is None:
                lower += 1
            else:
                classes = [m for m in found if m]
    except _Stop:
        exact = False
    partition = [list(_bits(mask)) for mask in classes]
    partition.sort(key=lambda part: part[0])
    return partition, lower, exact


def _closed_cover(ref, inc, n, clock):
    """Search the deterministic simulators of at most n states: (status,
    the mask tables of the first found, or None).  ref's table is filled,
    and inc holds the complete rows that _incompatible gives for it: state
    p of the determinization is ref's reached set p.

    A deterministic simulator reaches one state on each string the
    reference survives, so the pairs (reached set, state) it reaches are a
    closed cover: the sets on one state are pairwise compatible and share a
    color, and a symbol y leads those on state q to sets on state δ(q, y).
    The search walks the pairs breadth-first from (0, 0) and chooses δ(q, y)
    when a pair first needs it: a state in use, lowest first, then the next
    new one, so states are numbered by first use.  A pair fails when its set
    is incompatible with a set already on its state, or shares no color with
    them; the search then backs up to the last choice with an option left,
    on an explicit stack.  Each option tried spends one candidate.  The
    simulator found colors each state by the lowest color its sets share
    and has an edge only where a pair needs one.
    """
    after, colors = ref.after, ref.colors
    sets = [1] + [0] * (n - 1)  # sets[q]: mask of the reached sets on state q
    shared = [colors[0]] + [-1] * (n - 1)  # the colors they share; all while unused
    delta = [[-1] * n for _ in after]  # delta[k][q]: the state chosen, or -1
    # (set, state, k) per pair reached and symbol k that leads it on, in order
    needs = [(row[0], 0, k) for k, row in enumerate(after) if row[0] >= 0]
    added = []  # (set, state, its shared colors before) per pair after (0, 0)
    choices = []  # (pos, len(needs), len(added), used) per open choice
    pos, used, ok = 0, 1, True
    while True:
        if ok:
            if pos == len(needs):
                break
            r, q, k = needs[pos]
            t = delta[k][q]
            if t < 0:
                choices.append((pos, len(needs), len(added), used))
                t = delta[k][q] = 0
                if not clock.spend():
                    return _CAPPED, None
        else:
            if not choices:
                return _EXHAUSTED, None
            pos, count, size, used = choices[-1]
            del needs[count:]
            while len(added) > size:
                r, t, shared[t] = added.pop()
                sets[t] ^= 1 << r
            r, q, k = needs[pos]
            t = delta[k][q] + 1
            if t > min(used, n - 1):
                delta[k][q] = -1
                choices.pop()
                continue
            delta[k][q] = t
            if not clock.spend():
                return _CAPPED, None
        ok = sets[t] >> r & 1 or not inc[r] & sets[t] and shared[t] & colors[r]
        if ok and not sets[t] >> r & 1:
            added.append((r, t, shared[t]))
            sets[t] |= 1 << r
            shared[t] &= colors[r]
            used = max(used, t + 1)
            needs.extend((row[r], t, k) for k, row in enumerate(after) if row[r] >= 0)
        pos += 1
    step = [[1 << t if t >= 0 else 0 for t in row[:used]] for row in delta]
    return _FOUND, (1, [c & -c for c in shared[:used]], step)


def _det_pipeline(ft, ref, clock, determinize_cap, node_cap=_COVER_NODES, beat=None):
    """The deterministic pipeline on the determinization d of ft, read off
    ref, the reference's own table: the clique cover of d's compatibility
    graph, the cover's quotient, then a closed-cover search of the levels
    between them.  Raises CapExceeded past determinize_cap subsets, or once
    the deadline passes in the subset construction, which checks it every
    1,024 subsets.

    Returns (d's size, (size, build), cover lower bound, cover exact,
    search status, level), where build() gives the best simulator as a
    Filter, so that a caller comparing sizes builds only the one it keeps:
    d, named by _determinize; the cover's quotient, the _quotient of d's
    tables by the cover, its classes named by their sets' names joined,
    walked again by _confirm once built; or the closed cover that
    _search_levels built and walked.  node_cap caps the cover search.  The
    quotient is kept if no cell of its tables has two targets and it is
    smaller than d; it is skipped when the lower bound is not below both d
    and beat, and once the deadline has passed.  The levels searched run
    from the lower bound up to one below the best simulator, or below beat
    if that is lower.

    Such a quotient always simulates, so its walks are checks against
    faults, and spend no candidate.  Its classes share a color, and on every
    string w that d survives it reaches the class of d's state p(w), with
    colors inside those of p(w), the colors of the reference's reached set.
    By induction on w: the initial class holds p(()), and as the quotient
    is deterministic, the y-edges of the class of p(w) lead to one class,
    which holds p(wy), the y-successor of p(w).

    Once the deadline passes inside _incompatible, its rows lack some
    incompatible pairs, and a cover of them could join sets that no state
    can serve together: the cover, the quotient and the search are skipped,
    and d is the result, unproven unless a clique of the rows reaches its
    size.  That clique is a sound lower bound, as the rows only ever gain
    proven incompatibilities.
    """
    n = ref.fill(cap=determinize_cap, expired=clock.expired)
    if n < len(ref.members):  # the deadline came first, and no simulator exists yet
        raise CapExceeded(clock.budget.time_cap, "determinizing", "time")

    def determinization():
        return ft._determinize(determinize_cap, ref)[0]

    best = (n, determinization)
    inc, complete = _incompatible(ref.after, ref.colors, clock)
    if not complete:
        lower = len(_greedy_clique(inc)[1])
        return n, best, lower, False, _CAPPED if lower < n else _EXHAUSTED, lower
    partition, lower, cover_exact = _min_clique_cover(inc, clock.sub(node_cap))
    top = n if beat is None else min(n, beat)
    if lower < top and len(partition) < n and not clock.expired():
        cells = [1 << r for r in range(n)] + [0]  # cells[-1] is the empty set's
        step = [list(map(cells.__getitem__, row)) for row in ref.after]
        tables = _quotient((1, ref.colors, step), partition)
        if tables is not None and not any(t & (t - 1) for row in tables[2] for t in row):
            if _walk(ref, *tables) is not None:
                raise RuntimeError("the cover's quotient fails output simulation")
            best = len(partition), lambda: _confirm(ref, _build(
                ref, tables, _joined(_subset_names(ft.states, ref.members), partition)))
    levels = range(lower, min(top, best[0]))
    search = functools.partial(_closed_cover, ref, inc)
    status, witness, level = _search_levels(ref, levels, clock, search)
    if witness is not None:
        best = (len(witness.states), lambda: witness)
    return n, best, lower, cover_exact, status, level


def minimize_det(f, budget=None):
    """Exact minimization over deterministic filters only.

    Determinizes first, bounds the optimum from below by the minimum clique
    cover of the compatibility graph and from above by the quotient of that
    cover, then searches the levels left between them for closed covers
    (see _closed_cover) under the budget.  A level the budget cuts short
    leaves the quotient, or the determinization, unproven; so does a
    deadline that passes while the compatibility graph is computed.  Raises
    CapExceeded past DETERMINIZE_CAP subsets, or when the deadline passes
    during the subset construction.
    """
    start = time.monotonic()
    ft = f.trim()
    clock = _Clock(budget)
    size, (_, build), lower, cover_exact, status, level = _det_pipeline(
        ft, _Reached(ft), clock, DETERMINIZE_CAP)
    return _result(build(), status, level, clock, start, determinized_size=size,
                   lower_bound=lower, cover_exact=cover_exact)
