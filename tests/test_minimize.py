import functools
import itertools
import random
import sys
import time

import pytest

from filterkit import (
    BUDGET_EXHAUSTED,
    NO,
    YES,
    Filter,
    SearchBudget,
    decide_size_k,
    donut_world,
    fig3_input,
    fig3_minimizer,
    minimize_det,
    minimize_nondet,
    output_simulates,
    prime_family,
    prime_family_minimizer,
)
from filterkit.filters import _flags, _Reached

from oracles import (
    all_filters,
    bisimulation_faults,
    brute_force_min_size,
    canonical_search,
    compatibility_graph_oracle,
    fooling_set_error,
    named_quotient,
    random_filter,
    simulates_oracle,
)


def mergeable_pair():
    """Both branches behave identically, so two states collapse to one."""
    return Filter(
        ["root", "left", "right"],
        ["root"],
        ("y",),
        {("root", "left"): {"y"}, ("root", "right"): {"y"}},
        ("white", "gray"),
        {"root": {"gray"}, "left": {"white"}, "right": {"white"}},
    )


def test_decide_size_k_yes_and_no():
    f = mergeable_pair()
    yes = decide_size_k(f, 2)
    assert yes.outcome == YES
    assert len(yes.witness.states) <= 2
    assert output_simulates(yes.witness, f).holds
    no = decide_size_k(f, 1)
    assert no.outcome == NO
    assert no.witness is None


def test_decide_size_k_at_trim_size_needs_no_search():
    f = fig3_input()  # far too big to enumerate, answered by the filter itself
    decision = decide_size_k(f, 10)
    assert decision.outcome == YES
    assert decision.witness.size() == 10
    assert decision.candidates == 0


def test_decide_size_budget():
    f = mergeable_pair()
    capped = decide_size_k(f, 2, SearchBudget(candidate_cap=1))
    assert capped.outcome == BUDGET_EXHAUSTED


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(max_k=0)
    with pytest.raises(ValueError):
        SearchBudget(candidate_cap=0)
    with pytest.raises(ValueError):
        SearchBudget(time_cap=0)


@pytest.mark.parametrize("caps", [
    {"max_k": float("nan")}, {"max_k": 2.0}, {"max_k": True},
    {"candidate_cap": float("nan")}, {"candidate_cap": 2.5}, {"candidate_cap": True},
    {"time_cap": float("nan")}, {"time_cap": True}, {"time_cap": "5"},
])
def test_budget_refuses_caps_that_nan_or_a_float_would_lift(caps):
    # NaN compares false with everything, so a cap checked as `value < 1`
    # would admit it and never stop; a float count stops at a fraction
    with pytest.raises(ValueError):
        SearchBudget(**caps)


@pytest.mark.parametrize("k", [0, 1.5, float("nan"), True])
def test_decide_size_k_refuses_a_size_that_is_not_a_positive_int(k):
    with pytest.raises(ValueError):
        decide_size_k(mergeable_pair(), k)


def test_minimize_nondet_collapses_pair():
    result = minimize_nondet(mergeable_pair())
    assert result.proven_optimal
    assert result.size() == 2


def test_minimize_nondet_respects_candidate_cap():
    result = minimize_nondet(fig3_input(), SearchBudget(candidate_cap=200))
    assert not result.proven_optimal
    assert result.size() == 10  # falls back to the trimmed input
    assert output_simulates(result.minimizer, fig3_input()).holds


def test_minimize_nondet_max_k():
    # max_k caps the sizes searched, not the bounds: they meet at 2 states
    result = minimize_nondet(mergeable_pair(), SearchBudget(max_k=1))
    assert (result.size(), result.proven_optimal, result.stats["level"]) == (2, True, 2)
    assert result.stats["candidates"] == 0


def test_decide_size_k_stops_at_max_k():
    # the levels above max_k are not searched: below the answer the decision
    # is BUDGET_EXHAUSTED, with the candidates of levels 2..max_k counted as
    # if each were checked in turn; level 1 counts none
    rng = random.Random(707)
    stopped = 0
    for _ in range(60):
        f = one_color_filter(rng, rng.randint(3, 5), 2)
        ft = f.trim()
        for max_k in (1, 2):
            status, witness, spent = reference_levels(ft, range(1, max_k + 1), None)
            for k in range(max_k + 1, ft.size()):
                decision = decide_size_k(f, k, SearchBudget(max_k=max_k))
                outcome = YES if status == "found" else BUDGET_EXHAUSTED
                assert (decision.outcome, as_dict(decision.witness), decision.candidates) == (
                    outcome, as_dict(witness), spent)
                stopped += status == "exhausted"
    assert stopped >= 20


def color_lasso(rng, n):
    """A seeded n-state chain on one symbol, colored x, y or both, whose
    last state may lead back into it, like color_chain: its cover bound
    often lies below its deterministic optimum."""
    states = [f"a{i}" for i in range(n)]
    edges = {(u, v): {"s"} for u, v in zip(states, states[1:])}
    if rng.random() < 0.5:
        edges[(states[-1], rng.choice(states))] = {"s"}
    coloring = {s: set(rng.choice(("x", "y", "xy", "x", "y"))) for s in states}
    return Filter(states, ["a0"], ("s",), edges, ("x", "y"), coloring)


def test_max_k_stops_minimize_det_between_its_bounds():
    # minimize_det searches the levels from its cover's lower bound up to
    # one below its upper bound, the verified quotient of the cover or the
    # determinization; max_k cuts that range, not the bounds, so the answer
    # stays proven when the levels up to max_k find a simulator or leave no
    # level above them.  A max_k below the lower bound searches no level,
    # which reads the upper bound.  Every draw is proven uncapped
    rng = random.Random(2)
    apart = 0
    for _ in range(150):
        f = color_lasso(rng, rng.randint(4, 8))
        full = minimize_det(f)
        assert full.proven_optimal
        lower = full.stats["lower_bound"]
        if lower == 1:  # pairwise compatible x/y sets share a color: one state
            assert full.size() == 1
            continue
        best = minimize_det(f, SearchBudget(max_k=lower - 1)).minimizer
        for max_k in range(1, best.size()):
            result = minimize_det(f, SearchBudget(max_k=max_k))
            assert result.stats["lower_bound"] == lower
            assert result.stats["candidates"] <= full.stats["candidates"]
            assert output_simulates(result.minimizer, f).holds
            if full.size() <= max_k or best.size() <= max(lower, max_k + 1):
                assert (as_dict(result.minimizer), result.proven_optimal) == (
                    as_dict(full.minimizer), True)
                assert result.stats["level"] == full.size()
            else:
                apart += max_k >= lower
                assert not result.proven_optimal
                assert result.stats["level"] == max(lower, max_k + 1)
                assert as_dict(result.minimizer) == as_dict(best)
    assert apart >= 5


def test_max_k_caps_the_search_not_the_bounds():
    # donut's bounds meet at 4 in both modes, so no level is searched and
    # max_k=1 changes nothing: level 1 is decided, and the bounds still run.
    # Neither level 1 nor the check of the cover's quotient counts
    for minimize in (minimize_det, minimize_nondet):
        for budget in (None, SearchBudget(max_k=1)):
            result = minimize(donut_world(), budget)
            assert (result.size(), result.proven_optimal, result.stats["level"]) == (4, True, 4)
            assert (result.stats["candidates"], result.stats["walked"]) == (0, 0)


def test_minimize_nondet_matches_brute_force():
    rng = random.Random(60601)
    for _ in range(20):
        f = random_filter(rng, max_states=3, max_symbols=2, max_colors=2)
        expected = brute_force_min_size(f)
        result = minimize_nondet(f)
        assert result.proven_optimal, f
        assert result.size() == expected, f
        assert output_simulates(result.minimizer, f).holds


def compatible(d, rows=None):
    """The compatibility graph of a deterministic filter by state names,
    read off the rows of _incompatible for rows (after, colors) of d's
    states: by default, d's own tables."""
    from filterkit.minimize import _Clock, _incompatible

    if rows is None:
        rows = [[cell[0] if cell else -1 for cell in table] for table in d._succ], d._color
    inc, complete = _incompatible(*rows, _Clock(None))
    assert complete
    return {s: {t for j, t in enumerate(d.states) if j != i and not row >> j & 1}
            for i, (s, row) in enumerate(zip(d.states, inc))}


def table_rows(f):
    """The rows of f's reached-set table, filled: those of f's
    determinization, whose state p is reached set p."""
    ref = _Reached(f)
    ref.fill()
    return ref.after, ref.colors


def test_compatibility_graph_shape():
    adj = compatible(fig3_input())
    assert all(not neighbors for neighbors in adj.values())  # pairwise hostile
    donut_det, _ = donut_world().determinize()
    adj = compatible(donut_det)
    reds = [s for s in donut_det.states if donut_det.coloring[s] == frozenset({"red"})]
    cyans = [s for s in donut_det.states if s not in reds]
    assert len(reds) == 4 and len(cyans) == 3
    for r in reds:
        assert adj[r] == set(reds) - {r}
    for c in cyans:
        assert adj[c] == set()


def test_compatibility_graph_of_a_nondeterministic_filter_is_its_determinizations():
    # _incompatible reads the rows of a reached-set table, which are
    # deterministic by construction: a nondeterministic filter's table gives
    # the graph of its determinization
    f = donut_world()
    assert not f.is_deterministic()
    d = f.determinize()[0]
    assert compatible(d, table_rows(f)) == compatible(d) == compatibility_graph_oracle(d)


def test_compatibility_graph_prime_cycle_is_edgeless():
    # distinct residues mod some prime eventually force distinct sink colors,
    # so no two cycle positions are mergeable
    m = prime_family_minimizer(2)
    adj = compatible(m)
    cycle = [s for s in m.states if s.startswith("r")]
    assert len(cycle) == 6
    for u in cycle:
        assert not (adj[u] & set(cycle)), u


def test_minimize_det_on_known_instances():
    result = minimize_det(fig3_input())
    assert result.proven_optimal and result.size() == 10
    assert result.stats["lower_bound"] == 10

    result = minimize_det(fig3_minimizer())
    assert result.proven_optimal and result.size() == 10
    assert result.stats["determinized_size"] == 10

    result = minimize_det(donut_world())
    assert result.proven_optimal and result.size() == 4
    assert result.minimizer.is_deterministic()
    assert output_simulates(result.minimizer, donut_world()).holds


def test_minimize_det_output_always_simulates():
    rng = random.Random(7171)
    for _ in range(40):
        f = random_filter(rng, max_states=4, max_symbols=2, max_colors=3)
        result = minimize_det(f)
        assert result.minimizer.is_deterministic()
        assert result.size() >= result.stats["lower_bound"]
        holds, _ = simulates_oracle(result.minimizer, f)
        assert holds, f


def test_minimize_det_proves_the_seeded_corpus():
    # the closed-cover search under the default budget proves all but one
    # of these draws (draw #175 spends its cap), and every result simulates
    rng = random.Random(5)
    proven = 0
    for _ in range(300):
        f = random_filter(rng, max_states=7, max_symbols=3, max_colors=3)
        result = minimize_det(f)
        assert output_simulates(result.minimizer, f).holds, f
        proven += result.proven_optimal
    assert proven >= 299


def test_minimize_det_matches_det_brute_force():
    # exhaustive check against the oracle over deterministic candidates
    rng = random.Random(20107)
    checked = 0
    for _ in range(60):
        f = random_filter(rng, max_states=3, max_symbols=2, max_colors=2)
        det, _ = f.trim().determinize()
        if det.size() > 3:
            continue
        best = None
        for size in range(1, det.size()):
            for cand in all_filters(size, f.observations, f.colors):
                if not cand.is_deterministic():
                    continue
                holds, _ = simulates_oracle(cand, f)
                if holds:
                    best = size
                    break
            if best is not None:
                break
        expected = best if best is not None else det.size()
        result = minimize_det(f)
        assert result.proven_optimal, f
        assert result.size() == expected, f
        checked += 1
    assert checked >= 30


def color_chain():
    """Four-state chain colored x, xy, y, x; its optimum is a 3-cycle."""
    return Filter(
        ["a0", "a1", "a2", "a3"],
        ["a0"],
        ("s",),
        {("a0", "a1"): {"s"}, ("a1", "a2"): {"s"}, ("a2", "a3"): {"s"}},
        ("x", "y"),
        {"a0": {"x"}, "a1": {"x", "y"}, "a2": {"y"}, "a3": {"x"}},
    )


def test_minimize_det_folds_chain_to_cycle():
    result = minimize_det(color_chain())
    assert result.proven_optimal
    assert result.size() == 3
    assert result.stats["lower_bound"] == 3
    assert output_simulates(result.minimizer, color_chain()).holds


def test_nondet_minimum_never_exceeds_det_minimum():
    # deterministic candidates are a subset of all candidates
    rng = random.Random(3434)
    compared = 0
    for _ in range(25):
        f = random_filter(rng, max_states=3, max_symbols=2, max_colors=2)
        loose = minimize_nondet(f)
        strict = minimize_det(f)
        if not (loose.proven_optimal and strict.proven_optimal):
            continue
        compared += 1
        assert loose.size() <= strict.size(), f
    assert compared >= 20


def test_decide_size_k_is_monotone_in_k():
    rng = random.Random(660)
    for _ in range(12):
        f = random_filter(rng, max_states=3, max_symbols=2, max_colors=2)
        outcomes = [
            decide_size_k(f, k).outcome for k in range(1, f.trim().size() + 1)
        ]
        assert outcomes[-1] == YES  # the trimmed filter always fits
        first_yes = outcomes.index(YES)
        assert all(o == YES for o in outcomes[first_yes:])
        assert all(o == NO for o in outcomes[:first_yes])


def closed_cover_search(ft):
    """The closed-cover search of ft's levels, as search(n, clock) ->
    (status, witness): on ft's reached-set table, filled, with the tables
    it finds built as the witness."""
    from filterkit.minimize import _build, _closed_cover, _Clock, _incompatible

    ref = _Reached(ft)
    ref.fill()
    inc = _incompatible(ref.after, ref.colors, _Clock(None))[0]

    def search(n, clock):
        status, found = _closed_cover(ref, inc, n, clock)
        return status, found and _build(ref, found)
    return search


def test_det_level_search_semantics():
    # the closed-cover search itself, apart from the bounds around it
    from filterkit.minimize import _CAPPED, _EXHAUSTED, _FOUND, _Clock

    search = closed_cover_search(color_chain())
    status, witness = search(3, _Clock(None))
    assert status == _FOUND
    assert witness.is_deterministic() and witness.size() == 3
    assert simulates_oracle(witness, color_chain())[0]
    # no two-state deterministic filter can produce x, xy, y, x in order:
    # any walk of length four repeats a state under an impossible color
    status, witness = search(2, _Clock(None))
    assert status == _EXHAUSTED and witness is None
    clock = _Clock(SearchBudget(candidate_cap=1))
    assert search(2, clock) == (_CAPPED, None)
    assert clock.candidates == 2


def charged_blocks(ft, levels):
    """(candidates before, size) of every block of more than one candidate
    that an uncapped search of the given levels charges at once, and the
    count at the end of that search."""
    from filterkit.minimize import _EXHAUSTED, _Clock, _search_size

    blocks = []

    class RecordingClock(_Clock):
        def spend(self, k=1):
            if k > 1:
                blocks.append((self.candidates, k))
            return super().spend(k)

    ref = _Reached(ft)
    clock = RecordingClock(SearchBudget(candidate_cap=None))
    for n in levels:
        if _search_size(ref, n, clock)[0] != _EXHAUSTED:
            break
    return blocks, clock.candidates


def search_caps(rng, ft, levels, limit):
    """A seeded cap below limit, two caps that fall inside charged blocks,
    and no cap (None) when the whole search stays below 8,000 candidates.
    Returns None when the search charges no block below limit."""
    blocks, total = charged_blocks(ft, levels)
    blocks = [(before, k) for before, k in blocks if before + k <= limit]
    if not blocks:
        return None
    picked = rng.sample(blocks, min(2, len(blocks)))
    inside = [before + rng.randint(1, k - 1) for before, k in picked]
    return [rng.randint(1, limit)] + inside + [None] * (total <= 8000)


def reference_levels(ft, levels, cap):
    """canonical_search over the levels in turn: (status, witness, spent).
    Level 1 is searched uncapped and not counted, as one pass over the
    reached sets decides it without enumerating."""
    spent = 0
    for n in levels:
        if n == 1:
            status, witness, _ = canonical_search(ft, 1, False)
        else:
            status, witness, spent = canonical_search(ft, n, False, spent, cap)
        if status != "exhausted":
            return status, witness, spent
    return "exhausted", None, spent


def as_dict(f):
    return None if f is None else f.to_dict()


def test_nondet_search_matches_one_by_one_reference():
    # backjumping must not change the answer, the witness or the count,
    # also when the cap falls inside a block charged without a walk; the
    # bounds of minimize_nondet may only shrink its answer or prove it.
    # Level 1 is decided uncounted, so the caps fall in level 2: filters are
    # drawn until every status has occurred, at most 2,000
    rng = random.Random(9090)
    statuses = []
    for _ in range(2000):
        if len(statuses) >= 40 and set(statuses) == {"found", "capped", "exhausted"}:
            break
        f = random_filter(rng, max_states=4, max_symbols=2, max_colors=2)
        ft = f.trim()
        smallest = None
        caps = ft.size() == 3 and search_caps(rng, ft, (1, 2), limit=1500)
        for cap in caps or ():
            status, witness, spent = reference_levels(ft, (1, 2), cap)
            statuses.append(status)
            outcome = {"found": YES, "capped": BUDGET_EXHAUSTED, "exhausted": NO}[status]
            decision = decide_size_k(f, 2, SearchBudget(candidate_cap=cap))
            assert (decision.outcome, as_dict(decision.witness), decision.candidates) == (
                outcome, as_dict(witness), spent)
            # before the bounds, minimize_nondet answered with these levels
            result = minimize_nondet(f, SearchBudget(candidate_cap=cap))
            assert result.size() <= (witness or ft).size()
            assert result.proven_optimal or status == "capped"
            if result.proven_optimal:
                smallest = smallest or brute_force_min_size(f)
                assert result.size() == smallest
            assert simulates_oracle(result.minimizer, f)[0]
            assert result.stats["candidates"] <= spent
            assert result.stats["walked"] <= result.stats["candidates"]
            assert_level(result)
    assert set(statuses) == {"found", "capped", "exhausted"}


def small_det_references(rng, count):
    """Seeded trimmed filters with at most 4 reached sets: one-color
    filters, color lassos and random filters in turn."""
    found = []
    while len(found) < count:
        kind = rng.randrange(3)
        if kind == 0:
            f = one_color_filter(rng, rng.randint(2, 5), rng.randint(1, 2))
        elif kind == 1:
            f = color_lasso(rng, rng.randint(2, 4))
        else:
            f = random_filter(rng, max_states=4, max_symbols=2, max_colors=3)
        ft = f.trim()
        if ft.determinize()[0].size() <= 4:
            found.append(ft)
    return found


def test_det_search_matches_one_by_one_reference():
    # at each level the closed-cover search finds a simulator iff one of at
    # most that many states exists: the one-by-one search of the trim
    # deterministic candidates finds one at that level or below.  Each
    # witness is deterministic, fits the level and simulates
    from filterkit.minimize import _FOUND, _Clock

    # a chain colored ab, bc, ac: its sets are pairwise compatible, yet no
    # color is on all three, so one state cannot hold them
    chain = Filter(["p", "q", "r"], ["p"], ("s",), {("p", "q"): {"s"}, ("q", "r"): {"s"}},
                   ("a", "b", "c"), {"p": {"a", "b"}, "q": {"b", "c"}, "r": {"a", "c"}})
    rng = random.Random(4242)
    statuses = []
    for ft in [chain] + small_det_references(rng, 300):
        search = closed_cover_search(ft)
        exists = False
        for n in range(1, ft.determinize()[0].size() + 1):
            exists = exists or canonical_search(ft, n, True)[0] == "found"
            status, witness = search(n, _Clock(None))
            assert (status == _FOUND) == exists, (ft, n)
            statuses.append((n, status))
            if exists:
                assert witness.is_deterministic() and witness.size() <= n, (ft, n)
                assert simulates_oracle(witness, ft)[0], (ft, n)
    for n in (1, 2, 3):
        assert {status for level, status in statuses if level == n} == {"found", "exhausted"}


def test_closed_cover_stops_at_the_cap():
    # each option tried is one candidate: under a cap below the uncapped
    # count, minimize_det stops at cap + 1 and returns its upper bound
    # unproven.  Filters that one candidate proves are skipped
    rng = random.Random(3)
    capped = 0
    for i in range(300):
        if i % 2:
            f = random_filter(rng, max_states=6, max_symbols=3, max_colors=3)
        else:
            f = color_lasso(rng, rng.randint(4, 8))
        if minimize_det(f, SearchBudget(candidate_cap=1)).proven_optimal:
            continue
        full = minimize_det(f)
        assert full.proven_optimal
        cap = rng.randrange(1, full.stats["candidates"])
        result = minimize_det(f, SearchBudget(candidate_cap=cap))
        assert result.stats["candidates"] == cap + 1
        assert not result.proven_optimal
        assert result.size() >= full.size()
        assert_level(result)
        assert simulates_oracle(result.minimizer, f)[0]
        capped += 1
    assert capped >= 20


def test_closed_cover_deeper_than_the_recursion_limit_returns():
    # a chain colored x, ..., x, y: any two of its reached sets are told
    # apart by the string leading the later one to y, so each pair needs
    # a new state, one choice nested in the last
    from filterkit.minimize import _FOUND, _Clock

    n = sys.getrecursionlimit() + 50
    states = [f"a{i}" for i in range(n)]
    chain = Filter(states, ["a0"], ("s",), {(u, v): {"s"} for u, v in zip(states, states[1:])},
                   ("x", "y"), {s: {"y" if s == states[-1] else "x"} for s in states})
    status, witness = closed_cover_search(chain)(n, _Clock(SearchBudget(candidate_cap=None)))
    assert status == _FOUND and witness.size() == n


def test_level_one_matches_one_by_one_reference():
    # level 1 is decided by one pass over the reached sets: the status and
    # the witness are those of checking every candidate in turn, under
    # every candidate cap, and it spends and walks no candidate
    from filterkit.minimize import _CAPPED, _EXHAUSTED, _build, _Clock, _search_size

    def level_one(ref, budget):
        clock = _Clock(budget)
        status, found = _search_size(ref, 1, clock)
        witness = found and _build(ref, found)
        return status, as_dict(witness), clock.candidates, clock.walked

    rng = random.Random(1701)
    filters = [random_filter(rng, max_states=4) for _ in range(300)]
    statuses = set()
    for f in filters + [donut_world()]:
        ft = f.trim()
        if not ft.states:
            continue
        ref = _Reached(ft)
        status, witness, _ = canonical_search(ft, 1, False)
        statuses.add(status)
        for cap in (1, 2, None):
            assert level_one(ref, SearchBudget(candidate_cap=cap)) == (
                status, as_dict(witness), 0, 0)
    assert statuses == {"found", "exhausted"}
    # fig3's level 1 has 32,768 candidates and no simulator, under any cap
    for f in (fig3_input(), fig3_minimizer()):
        ft = f.trim()
        status, witness, spent = canonical_search(ft, 1, False)
        assert (status, spent) == ("exhausted", 32768)
        for cap in (1, 800, None):
            assert level_one(_Reached(ft), SearchBudget(candidate_cap=cap)) == (
                _EXHAUSTED, None, 0, 0)
    # past the deadline the fill of the table refuses the pass before its
    # first row, and the level driver caps the level
    from filterkit import DETERMINIZE_CAP, CapExceeded
    from filterkit.minimize import _search_levels

    late = _Clock(SearchBudget(candidate_cap=None, time_cap=1e-9))
    time.sleep(0.001)
    ref = _Reached(fig3_input(), DETERMINIZE_CAP, late)
    with pytest.raises(CapExceeded, match="^time cap 1e-09 exceeded while determinizing$"):
        _search_size(ref, 1, late)
    assert ref.done == 0
    search = functools.partial(_search_size, ref)
    assert _search_levels(ref, range(1, 2), late, search) == (_CAPPED, None, 1)
    assert (late.candidates, late.walked) == (0, 0)


def test_clock_charges_a_block_as_one_at_a_time():
    from filterkit.minimize import _Clock

    rng = random.Random(512)
    for cap in (None, 1, 7, 600, 2000):
        clock = _Clock(SearchBudget(candidate_cap=cap))
        count = 0
        for _ in range(40):
            k = rng.choice((1, 2, rng.randint(1, 900)))
            ok = clock.spend(k)
            # one candidate at a time, stopping at the first past the cap;
            # callers may go on spending after a refusal
            for _ in range(k):
                count += 1
                if cap is not None and count > cap:
                    break
            assert (ok, clock.candidates) == (cap is None or count <= cap, count)
    # past the deadline, the count stops at the first multiple of 512
    for blocks in ((511, 2), (512,), (1500,), (100, 2000)):
        late = _Clock(SearchBudget(candidate_cap=None, time_cap=1e-9))
        time.sleep(0.001)
        assert [late.spend(k) for k in blocks] == [True] * (len(blocks) - 1) + [False]
        assert late.candidates == 512


def last_symbols_chain(n):
    """States q0..qn: q0 loops on a and b and goes to q1 on a, each qi goes
    to qi+1 on a and b, and every state is colored x.  Its reached sets are
    the 2^n that hold q0, all colored x, so level 1 reads every one of them
    before it finds its one-state simulator."""
    states = [f"q{i}" for i in range(n + 1)]
    edges = {("q0", "q0"): {"a", "b"}, ("q0", "q1"): {"a"}}
    edges.update(((u, v), {"a", "b"}) for u, v in zip(states[1:], states[2:]))
    return Filter(states, ["q0"], ("a", "b"), edges, ("x",), {s: {"x"} for s in states})


def test_candidate_cap_keeps_the_bounds():
    # the cap limits only the levels searched: level 1 counts nothing, the
    # bounds of both fig3 filters give 7, and level 7 stops one past the cap
    for f in (fig3_input(), fig3_minimizer()):
        result = minimize_nondet(f, SearchBudget(candidate_cap=800))
        stats = result.stats
        assert not result.proven_optimal
        assert (stats["lower_bound"], stats["level"], stats["candidates"]) == (7, 7, 801)
        assert_level(result)


def test_level_one_stops_at_the_time_cap():
    # the chain's 262,144 reached sets take level 1 over a second to read;
    # the pass checks the deadline every 1,024 sets
    f = last_symbols_chain(18)
    budget = SearchBudget(time_cap=0.05)
    start = time.monotonic()
    assert decide_size_k(f, 1, budget).outcome == BUDGET_EXHAUSTED
    assert time.monotonic() - start < 0.3
    start = time.monotonic()
    result = minimize_nondet(f, budget)
    assert time.monotonic() - start < 0.3
    assert not result.proven_optimal
    assert (result.size(), result.stats["level"], result.stats["candidates"]) == (19, 1, 0)


def test_level_one_stops_at_the_subset_cap(monkeypatch):
    from filterkit import minimize

    f = last_symbols_chain(10)  # 1,024 reached sets
    assert decide_size_k(f, 1).outcome == YES
    monkeypatch.setattr(minimize, "DETERMINIZE_CAP", 100)
    assert decide_size_k(f, 1).outcome == BUDGET_EXHAUSTED
    result = minimize_nondet(f)
    assert not result.proven_optimal
    assert (result.size(), result.stats["level"]) == (11, 1)


def exit_chain(n):
    """last_symbols_chain(n), and a state z colored y that q0 goes to on c.
    Level 1 fails at once, as no color is on every reached set, but its one
    2-state simulator (loop on a and b, colored x, and c to z) is walked
    through all 2^n reached sets that hold q0 before it is accepted."""
    states = [f"q{i}" for i in range(n + 1)] + ["z"]
    edges = {("q0", "q0"): {"a", "b"}, ("q0", "q1"): {"a"}, ("q0", "z"): {"c"}}
    edges.update(((u, v), {"a", "b"}) for u, v in zip(states[1:n], states[2:n + 1]))
    coloring = {s: {"x"} for s in states}
    coloring["z"] = {"y"}
    return Filter(states, ["q0"], ("a", "b", "c"), edges, ("x", "y"), coloring)


def test_level_walks_stop_at_the_time_cap():
    # the walks of level 2 fill the reached-set table as they go, and it
    # refuses past the deadline: the level is capped within the time cap
    f = exit_chain(16)
    budget = SearchBudget(time_cap=0.05)
    start = time.monotonic()
    result = minimize_nondet(f, budget)
    assert time.monotonic() - start < 0.5
    assert not result.proven_optimal
    assert (result.size(), result.stats["level"]) == (18, 2)
    start = time.monotonic()
    assert decide_size_k(f, 2, budget).outcome == BUDGET_EXHAUSTED
    assert time.monotonic() - start < 0.5
    # uncapped, the walk of the simulator reads every reached set
    result = minimize_nondet(f)
    assert (result.size(), result.proven_optimal) == (2, True)
    assert decide_size_k(f, 2).outcome == YES


def test_level_walks_stop_at_the_subset_cap(monkeypatch):
    # the table refuses every fill once it numbers more than DETERMINIZE_CAP
    # sets, so the walks of level 2 cannot grow it past the cap by more than
    # one row's sets
    from filterkit import minimize

    f = exit_chain(10)  # 1,025 reached sets
    sizes = []
    fill = _Reached.fill

    def recorded_fill(table, *last):
        try:
            return fill(table, *last)
        finally:
            sizes.append(len(table.members))

    monkeypatch.setattr(_Reached, "fill", recorded_fill)
    monkeypatch.setattr(minimize, "DETERMINIZE_CAP", 100)
    assert decide_size_k(f, 2).outcome == BUDGET_EXHAUSTED
    result = minimize_nondet(f)
    assert not result.proven_optimal
    assert (result.size(), result.stats["level"]) == (12, 2)
    assert 100 < max(sizes) <= 100 + len(f.observations)


def test_walk_of_a_filled_table_meets_its_deadline():
    # a walk that fills no row still tests the table's deadline, every
    # _CHECKPOINT pairs: past it, the first test refuses
    from filterkit import CapExceeded
    from filterkit.minimize import _Clock
    from filterkit.simulation import _CHECKPOINT, _walk

    tests = []

    class LateClock(_Clock):
        def expired(self):
            tests.append(True)
            return True

    f = last_symbols_chain(13)  # 8,192 reached sets, one pair each
    ref = _Reached(f)
    ref.fill()
    assert _walk(ref, 1, [1], [[1], [1]]) is None
    ref.clock = LateClock(SearchBudget(time_cap=60))
    with pytest.raises(CapExceeded, match="^time cap 60 exceeded while checking output"):
        _walk(ref, 1, [1], [[1], [1]])
    assert len(tests) == 1 and len(ref.members) > _CHECKPOINT
    # the pair cap is tested at the same count, first
    with pytest.raises(CapExceeded, match="^state cap 10 exceeded"):
        _walk(ref, 1, [1], [[1], [1]], cap=10)
    assert len(tests) == 1


def test_refusals_in_the_bounds_and_the_confirm_walk_cap_the_search(monkeypatch):
    # refusals past the table's budget never raise out of the minimizers: a
    # fill refused in the fooling set leaves the lower bound inexact, and a
    # refused walk that confirms a found simulator caps the search, which
    # returns the best bound found so far
    from filterkit import CapExceeded, minimize

    f = exit_chain(13)
    fill, fooling_set = _Reached.fill, minimize._fooling_set
    refusing = []

    def refusing_fill(table, *last):
        if refusing:
            raise CapExceeded(60, "determinizing", "time")
        return fill(table, *last)

    def refusing_fooling_set(ref, target, clock):
        refusing.append(True)
        try:
            return fooling_set(ref, target, clock)
        finally:
            refusing.pop()

    with monkeypatch.context() as patch:
        patch.setattr(_Reached, "fill", refusing_fill)
        patch.setattr(minimize, "_fooling_set", refusing_fooling_set)
        result = minimize_nondet(f)
    assert (result.size(), result.proven_optimal) == (2, True)
    assert (result.stats["lower_bound"], result.stats["lower_bound_exact"]) == (2, False)

    # the confirm walk of a simulator of 2 states over 8,193 reached sets
    # passes a deadline test at 4,096 pairs
    confirm = minimize._confirm

    def expire_then_confirm(ref, candidate):
        ref.clock._deadline = time.monotonic() - 1
        return confirm(ref, candidate)

    monkeypatch.setattr(minimize, "_confirm", expire_then_confirm)
    budget = SearchBudget(time_cap=60)
    result = minimize_nondet(f, budget)
    assert not result.proven_optimal
    assert (result.stats["level"], result.stats["upper_bound_source"]) == (2, "trim")
    assert decide_size_k(f, 2, budget).outcome == BUDGET_EXHAUSTED
    result = minimize_det(f, budget)
    assert not result.proven_optimal
    assert result.minimizer == f.trim().determinize()[0]


def test_time_cap_stops_search_unproven():
    result = minimize_nondet(fig3_input(), SearchBudget(candidate_cap=None, time_cap=0.05))
    assert not result.proven_optimal
    assert result.size() == 10
    assert output_simulates(result.minimizer, fig3_input()).holds


def test_stats_count_walked_candidates():
    # level 2 of the donut fails on the rows of state 0 alone, so most of
    # its candidates are charged in blocks without a walk
    from filterkit.minimize import _CAPPED, _EXHAUSTED, _Clock, _search_size

    ref = _Reached(donut_world())
    clock = _Clock(SearchBudget(candidate_cap=800))
    assert _search_size(ref, 1, clock) == (_EXHAUSTED, None)
    assert (clock.candidates, clock.walked) == (0, 0)
    assert _search_size(ref, 2, clock) == (_CAPPED, None)
    assert clock.candidates == 801
    assert 0 < clock.walked < 80
    # minimize_nondet searches no level past level 1, which counts nothing:
    # the bounds meet at 4 states.  The closed-cover search counts choices
    # and walks none
    result = minimize_nondet(donut_world(), SearchBudget(candidate_cap=800))
    assert (result.stats["candidates"], result.stats["walked"]) == (0, 0)
    rng = random.Random(3)
    det = [minimize_det(color_lasso(rng, rng.randint(4, 8))).stats for _ in range(40)]
    assert all(stats["walked"] == 0 for stats in det)
    assert any(stats["candidates"] for stats in det)


def test_clique_cover_of_deep_graph_returns():
    # incompatibility K700,700 + C5: the exact coloring search goes about
    # 1,400 vertices deep, past the interpreter's recursion limit
    from filterkit.minimize import _Clock, _min_clique_cover

    left, right, ring = range(700), range(700, 1400), range(1400, 1405)
    hostile = {u: set(right) for u in left}
    hostile.update((v, set(left)) for v in right)
    hostile.update((u, {ring[i - 1], ring[(i + 1) % 5]}) for i, u in enumerate(ring))
    inc = [sum(1 << v for v in hostile[u]) for u in range(1405)]
    partition, lower, exact = _min_clique_cover(inc, _Clock(None).sub(500_000))
    assert (len(partition), lower, exact) == (3, 3, True)
    assert sorted(v for part in partition for v in part) == list(range(1405))
    for part in partition:
        assert all(v not in hostile[u] for u in part for v in part)


def mycielski(k):
    """Adjacency bitmask rows of the Mycielski graph M_k (k >= 2): clique
    number 2, chromatic number k; M5 has 23 vertices, M6 47."""
    rows = [0b10, 0b01]
    for _ in range(k - 2):
        n = len(rows)  # vertex v gets a shadow n + v on its neighbours, all joined to 2n
        rows = ([r | r << n for r in rows] + [r | 1 << 2 * n for r in rows]
                + [((1 << n) - 1) << n])
    return rows


def assert_clique_cover(partition, inc):
    assert sorted(v for part in partition for v in part) == list(range(len(inc)))
    for part in partition:
        assert all(not inc[u] >> v & 1 for u in part for v in part)


def test_clique_cover_coloring_stops_at_the_deadline():
    # M5 as incompatibility rows: the greedy cover has 5 cliques, its
    # greedy incompatible clique 2 vertices, and the coloring search proves
    # 5 in 32,320 nodes.  Past the deadline the clock refuses at node 512
    from filterkit.minimize import _Clock, _min_clique_cover

    inc = mycielski(5)
    clock = _Clock(SearchBudget(candidate_cap=None))
    partition, lower, exact = _min_clique_cover(inc, clock)
    assert (len(partition), lower, exact, clock.candidates) == (5, 5, True, 32_320)
    assert_clique_cover(partition, inc)
    late = _Clock(SearchBudget(candidate_cap=None, time_cap=1e-9))
    time.sleep(0.001)
    partition, lower, exact = _min_clique_cover(inc, late)
    assert not exact and late.candidates <= 512 and 2 <= lower <= 5
    assert_clique_cover(partition, inc)


def test_clique_cover_node_cap_is_one_total():
    # the colorings of every color count spend one clock: on M6 a cap of
    # 10,000 nodes stops the cover after 10,001, the one refused included
    from filterkit.minimize import _Clock, _min_clique_cover

    inc = mycielski(6)
    clock = _Clock(SearchBudget(candidate_cap=10_000))
    partition, lower, exact = _min_clique_cover(inc, clock)
    assert not exact and clock.candidates <= 10_001 and 2 <= lower <= 6
    assert_clique_cover(partition, inc)


def test_compatibility_graph_stops_at_the_deadline():
    # prime r=5 determinizes to 2,339 states, whose compatibility graph takes
    # most of a second; past the deadline its rows are partial, so the cover
    # and the quotient are skipped and the determinization comes back
    # unproven, with a clique of the partial rows as its lower bound
    f = prime_family(5)
    start = time.monotonic()
    result = minimize_det(f, SearchBudget(time_cap=0.05))
    assert time.monotonic() - start < 0.3
    stats = result.stats
    assert not result.proven_optimal and not stats["cover_exact"]
    assert result.size() == stats["determinized_size"] == 2339
    assert 2 <= stats["lower_bound"] == stats["level"] <= 2322
    assert stats["candidates"] == stats["walked"] == 0
    assert simulates_oracle(result.minimizer, f)[0]


def test_subset_construction_stops_at_the_deadline():
    # prime r=6 has 30,072 reached sets, about a third of a second of subset
    # construction; it checks the deadline every 1,024 sets, and as no
    # simulator exists before it ends, minimize_det raises CapExceeded
    from filterkit import CapExceeded

    start = time.monotonic()
    with pytest.raises(CapExceeded, match="^time cap 0.05 exceeded while determinizing$"):
        minimize_det(prime_family(6), SearchBudget(time_cap=0.05))
    assert time.monotonic() - start < 0.3


def test_minimize_det_cover_stops_at_the_deadline():
    # a root leads, each on its own symbol, to one state per vertex of M6,
    # colored by the vertex's non-edges: two vertex states are compatible
    # iff their vertices are not adjacent, so proving the cover means
    # coloring M6, far past the time cap
    inc = mycielski(6)
    n = len(inc)
    apart = [(u, v) for u in range(n) for v in range(u + 1, n) if not inc[u] >> v & 1]
    colors = [f"c{u}_{v}" for u, v in apart]
    coloring = {"root": set(colors)}
    coloring.update((f"v{i}", {f"c{u}_{v}" for u, v in apart if i in (u, v)}) for i in range(n))
    f = Filter(["root"] + [f"v{i}" for i in range(n)], ["root"], [f"y{i}" for i in range(n)],
               {("root", f"v{i}"): {f"y{i}"} for i in range(n)}, colors, coloring)
    start = time.monotonic()
    result = minimize_det(f, SearchBudget(time_cap=0.2))
    assert time.monotonic() - start < 0.6
    assert not result.proven_optimal and not result.stats["cover_exact"]
    assert simulates_oracle(result.minimizer, f)[0]


def test_cover_quotient_failing_its_walk_raises(monkeypatch):
    # a deterministic quotient of the cover always simulates (see
    # _det_pipeline), so a walk of its tables that fails is a fault, not a
    # bound to skip: one state with every color and no edge
    import filterkit.minimize as minimize

    f = donut_world()
    wrong = (1, [(1 << len(f.colors)) - 1], [[0] for _ in f.observations])
    monkeypatch.setattr(minimize, "_quotient", lambda tables, partition: wrong)
    with pytest.raises(RuntimeError):
        minimize_det(f)


def test_winning_deterministic_bound_built_wrong_raises(monkeypatch):
    # the deterministic bound is compared by size and built only when it
    # wins; its tables walk, and a fault in building its Filter is caught by
    # _confirm, in minimize_nondet as in minimize_det
    import filterkit.minimize as minimize

    f = donut_world()
    assert minimize_nondet(f).stats["upper_bound_source"] == "deterministic"
    wrong = Filter(["q"], ["q"], f.observations, {}, f.colors, {"q": set(f.colors)})
    monkeypatch.setattr(minimize, "_build", lambda ref, tables, names=None: wrong)
    for minimize_f in (minimize_nondet, minimize_det):
        with pytest.raises(RuntimeError):
            minimize_f(f)


def test_compatibility_graph_matches_rev_map_reference(monkeypatch):
    # from a deterministic filter's own tables and from a filled reached-set
    # table alike; a pending row wider than _NARROW bits is read through
    # _flags, a narrower one bit by bit, and prime r=4 (228 subsets) has
    # both kinds, the random filters (at most 64 subsets) mostly narrow ones
    import filterkit.minimize as minimize

    filters = [prime_family(r) for r in range(1, 5)]
    filters += [donut_world(), fig3_input(), fig3_minimizer()]
    rng = random.Random(2718)
    filters += [random_filter(rng, max_states=6, max_symbols=3, max_colors=3)
                for _ in range(300)]
    wide = []
    monkeypatch.setattr(minimize, "_flags", lambda mask: wide.append(mask) or _flags(mask))
    for f in filters:
        d = f.determinize()[0]
        before = len(wide)
        expected = compatibility_graph_oracle(d)
        assert compatible(d) == expected
        assert compatible(d, table_rows(f)) == expected
        assert len(wide) == before or d.size() > minimize._NARROW
    assert wide and min(map(int.bit_count, wide)) > minimize._NARROW


def test_incompatible_checks_the_clock_before_every_wide_row(monkeypatch):
    # a row read through _flags can take milliseconds on thousands of
    # reached sets, so the deadline is checked before each one as well as
    # every 256 pops; the rows are still the compatibility graph's
    import filterkit.minimize as minimize
    from filterkit.minimize import _Clock, _incompatible

    log = []
    expired = _Clock.expired
    monkeypatch.setattr(minimize, "_flags", lambda mask: log.append("flags") or _flags(mask))
    monkeypatch.setattr(_Clock, "expired", lambda clock: log.append("clock") or expired(clock))
    f = prime_family(4)
    d = f.determinize()[0]
    rows, complete = _incompatible(*table_rows(f), _Clock(SearchBudget(time_cap=60)))
    assert complete and log.count("flags") > 1
    assert log[0] == "clock" and ("flags", "flags") not in zip(log, log[1:])
    graph = {s: {t for j, t in enumerate(d.states) if j != i and not row >> j & 1}
             for i, (s, row) in enumerate(zip(d.states, rows))}
    assert graph == compatibility_graph_oracle(d)


def test_capped_minimize_det_proves_only_at_the_lower_bound():
    rng = random.Random(31)
    for _ in range(60):
        f = random_filter(rng, max_states=6, max_symbols=3, max_colors=3)
        cap = rng.choice((1, 2, 3, 5, 8, 20))
        result = minimize_det(f, SearchBudget(candidate_cap=cap))
        assert result.stats["candidates"] <= cap + 1
        if result.stats["candidates"] > cap:
            assert result.proven_optimal == (result.size() == result.stats["lower_bound"])
        assert_level(result)


def assert_level(result):
    """The stats' level is the size proven, else one at or above the lower
    bound and below the size returned; and walked <= candidates."""
    stats = result.stats
    assert stats["walked"] <= stats["candidates"]
    if result.proven_optimal:
        assert stats["level"] == result.size()
    else:
        assert stats["lower_bound"] <= stats["level"] < result.size()


def one_color_filter(rng, n, symbols):
    """A seeded n-state filter whose states carry one of two colors each:
    such filters often need more than one state."""
    states = [f"s{i}" for i in range(n)]
    observations = ("a", "b")[:symbols]
    transitions = {}
    for u in states:
        for v in states:
            syms = {y for y in observations if rng.random() < 0.4}
            if syms:
                transitions[(u, v)] = syms
    coloring = {s: {rng.choice("xy")} for s in states}
    initial = rng.sample(states, rng.randint(1, 2))
    return Filter(states, initial, observations, transitions, ("x", "y"), coloring)


def test_fooling_pairs_hold_by_direct_trace():
    from filterkit.minimize import _Clock, _fooling_set

    filters = [prime_family(r) for r in (1, 2, 3)]
    filters += [donut_world(), fig3_input(), fig3_minimizer()]
    rng = random.Random(5150)
    filters += [one_color_filter(rng, rng.randint(2, 6), 1 + i % 2) for i in range(100)]
    sizes = []
    for f in filters:
        ft = f.trim()
        pairs, exact = _fooling_set(_Reached(ft), ft.size(), _Clock(None))
        assert fooling_set_error(ft, pairs) is None, f
        sizes.append(len(pairs))
    assert sizes[:6] == [5, 9, 16, 4, 7, 7]


def test_bounds_bracket_the_brute_force_size():
    rng = random.Random(7337)
    gaps = 0
    for i in range(300):
        f = one_color_filter(rng, 3, 1 + i % 2)
        result = minimize_nondet(f)
        smallest = brute_force_min_size(f)
        assert result.stats["lower_bound"] <= smallest <= result.size(), f
        assert result.proven_optimal and result.size() == smallest, f
        assert simulates_oracle(result.minimizer, f)[0]
        gaps += result.stats["lower_bound"] < smallest
    assert gaps < 10


def built_quotient(f, partition):
    """The quotient of f by partition, lists of state indexes, as the
    minimizers build it: the _quotient of f's own mask tables, or None,
    built with a class named by its members' names joined with +."""
    from filterkit.minimize import _build, _joined, _quotient

    ref = _Reached(f)
    tables = _quotient((ref.members[0], ref.color_of, ref.step), partition)
    return tables and _build(ref, tables, _joined(f.states, partition))


def test_bisimulation_quotients_simulate_both_ways():
    from filterkit.minimize import (
        _BISIMULATION_WORK, _bisimulation_partition, _Clock, _is_bisimulation)

    filters = [prime_family(r) for r in (1, 2, 3, 4)] + [donut_world(), mergeable_pair()]
    rng = random.Random(818)
    filters += [random_filter(rng, max_states=6, max_symbols=2, max_colors=2)
                for _ in range(150)]
    shrunk = 0
    for f in filters:
        ft = f.trim()
        assert not any("+" in s for s in ft.states)
        ref = _Reached(ft)
        partition = _bisimulation_partition(ref, _Clock(None).sub(_BISIMULATION_WORK))
        if partition is None:
            continue
        quotient = built_quotient(ft, partition)
        shrunk += 1
        assert quotient.size() < ft.size()
        assert simulates_oracle(quotient, ft)[0], f
        assert simulates_oracle(ft, quotient)[0], f
        # a quotient state is named by its members joined with +
        number = {s: b for b, name in enumerate(quotient.states) for s in name.split("+")}
        block = [number[s] for s in ft.states]
        assert _is_bisimulation(ref, block), f
        assert bisimulation_faults(ft, block) == set(), f
    assert shrunk >= 10
    forward = _bisimulation_partition(_Reached(prime_family(2)),
                                      _Clock(None).sub(_BISIMULATION_WORK))
    assert len(forward) == 9


def test_bisimulation_refinement_stops_when_its_clock_refuses(monkeypatch):
    # a round spends one unit per state before it signs them: the mergeable
    # pair's color classes are stable after one round, and a second round
    # finds that out, so a clock worth one round gives no partition
    import filterkit.minimize as minimize
    from filterkit.minimize import _bisimulation_partition, _Clock

    ref = _Reached(mergeable_pair().trim())
    n = len(ref.color_of)
    assert _bisimulation_partition(ref, _Clock(None).sub(n)) is None
    assert _bisimulation_partition(ref, _Clock(None).sub(2 * n)) == [[0], [1, 2]]
    # with the refinement refused, minimize_nondet takes its bound elsewhere
    f = prime_family(3)
    assert minimize_nondet(f).stats["upper_bound_source"] == "forward-bisimulation"
    monkeypatch.setattr(minimize, "_BISIMULATION_WORK", 1)
    result = minimize_nondet(f)
    assert result.stats["upper_bound_source"] != "forward-bisimulation"
    assert simulates_oracle(result.minimizer, f)[0]


def random_partition(rng, n):
    """A seeded partition of range(n) into ascending lists, ordered by their
    first."""
    classes = {}
    for i in range(n):
        classes.setdefault(rng.randrange(rng.randint(1, n)) if i else 0, []).append(i)
    return sorted(classes.values())


def test_quotient_matches_the_named_reference():
    # the one quotient of mask tables, built with its classes' joined names,
    # is the quotient that names and sets give: on the forward partitions of
    # the filters of the bisimulation test, on the cover partitions of their
    # determinizations, and on seeded random partitions of both, where a
    # class may share no color and the quotient is then None
    from filterkit.minimize import (
        _BISIMULATION_WORK, _COVER_NODES, _bisimulation_partition, _Clock, _incompatible,
        _min_clique_cover)

    def quotient(f, partition):
        built = built_quotient(f, partition)
        assert built == named_quotient(f, partition), (f, partition)
        return built

    filters = [prime_family(r) for r in (1, 2, 3, 4)] + [donut_world(), mergeable_pair()]
    rng = random.Random(818)
    filters += [random_filter(rng, max_states=6, max_symbols=2, max_colors=2)
                for _ in range(150)]
    forward = covers = shareless = 0
    for f in filters:
        ft = f.trim()
        partition = _bisimulation_partition(_Reached(ft), _Clock(None).sub(_BISIMULATION_WORK))
        if partition is not None:
            forward += quotient(ft, partition) is not None
        # the cover's quotient reads d's tables off the reference's table,
        # as the deterministic pipeline does: d's state p is reached set p
        ref = _Reached(ft)
        d = ft._determinize(ref)
        dref = _Reached(d)
        step = [[1 << q if q >= 0 else 0 for q in row] for row in ref.after]
        assert (1, ref.colors, step) == (dref.members[0], dref.color_of, dref.step)
        inc = _incompatible(ref.after, ref.colors, _Clock(None))[0]
        covers += quotient(d, _min_clique_cover(inc, _Clock(None).sub(_COVER_NODES))[0]) is not None
        for g in (ft, d):
            shareless += quotient(g, random_partition(rng, len(g.states))) is None
    assert forward >= 10 and covers >= 100 and shareless >= 20


def test_bisimulation_certificate_rejects_each_broken_condition():
    from filterkit.minimize import _is_bisimulation

    x, y, xy = {"x"}, {"y"}, {"x", "y"}
    # (filter, block per state, the one condition broken): each partition
    # keeps the other condition, and its quotient and the filter do not
    # simulate each other
    cases = [
        # p and q share their colors, but a leads p into r's block and q into s's
        (Filter(["p", "q", "r", "s"], ["p"], ("a", "b"),
                {("p", "r"): {"a"}, ("q", "s"): {"a"}, ("r", "q"): {"b"}},
                ("x", "y"), {"p": x, "q": x, "r": x, "s": y}),
         [0, 0, 1, 2], "edges"),
        # p and q share the blocks of their successors, but not their colors
        (Filter(["p", "q"], ["p", "q"], ("a",), {("p", "q"): {"a"}, ("q", "p"): {"a"}},
                ("x", "y"), {"p": x, "q": xy}),
         [0, 0], "colors"),
    ]
    for f, block, broken in cases:
        assert bisimulation_faults(f, block) == {broken}, broken
        assert not _is_bisimulation(_Reached(f), block), broken
        quotient = built_quotient(f, [[i for i, b in enumerate(block) if b == k]
                                      for k in range(max(block) + 1)])
        assert not (simulates_oracle(quotient, f)[0] and simulates_oracle(f, quotient)[0])
        # the partition into single states always passes
        assert _is_bisimulation(_Reached(f), list(range(f.size())))
    # and on random partitions the certificate says what the named check says
    rng = random.Random(3131)
    passed = 0
    for _ in range(600):
        f = random_filter(rng, max_states=5, max_symbols=2, max_colors=2)
        block = [rng.randrange(3) for _ in f.states]
        certified = _is_bisimulation(_Reached(f), block)
        assert certified == (not bisimulation_faults(f, block)), (f, block)
        passed += certified
    assert passed >= 20


def test_prime_family_nondet_minimum_is_proven_fast():
    # the paper's gap: the deterministic minimizers have 5, 10, 36 and 218
    # states; the nondeterministic minimum is found and proven
    for r, size in ((1, 5), (2, 9), (3, 16), (4, 25)):
        start = time.monotonic()
        result = minimize_nondet(prime_family(r))
        elapsed = time.monotonic() - start
        assert (result.size(), result.proven_optimal) == (size, True)
        assert result.stats["lower_bound"] == size
        assert result.stats["candidates"] == 0  # level 1 and the bounds count none
        if r <= 2:
            assert elapsed < 1.0
        assert output_simulates(result.minimizer, prime_family(r)).holds


def test_fig3_stays_best_known_above_the_fooling_bound():
    result = minimize_nondet(fig3_input())
    assert (result.size(), result.proven_optimal) == (10, False)
    assert result.stats["lower_bound"] >= 7
    assert result.stats["upper_bound_source"] == "trim"


def test_donut_nondet_is_proven_by_the_bounds():
    result = minimize_nondet(donut_world())
    assert (result.size(), result.proven_optimal) == (4, True)
    assert result.stats["lower_bound"] == 4
    assert result.stats["lower_bound_exact"] is True
    assert result.stats["upper_bound_source"] == "deterministic"
    assert output_simulates(result.minimizer, donut_world()).holds


def test_nondet_bounds_stay_on_the_clock(monkeypatch):
    from filterkit import CapExceeded, minimize
    from filterkit.minimize import _BOUND_SUBSETS

    # the deterministic bound is skipped from prime r=5 on: its subset
    # construction passes the bound's subset cap
    with pytest.raises(CapExceeded):
        prime_family(5).determinize(_BOUND_SUBSETS)
    start = time.monotonic()
    result = minimize_nondet(prime_family(6), SearchBudget(time_cap=5))
    assert time.monotonic() - start < 15
    assert not result.proven_optimal
    assert result.stats["upper_bound_source"] == "forward-bisimulation"
    # every level below the lower bound is ruled out, and the search stops
    # in the first one it enters
    assert 2 <= result.stats["level"] == result.stats["lower_bound"] < result.size()
    # a deadline that has passed before level 1 stops it at its first
    # reached set, having counted nothing
    start = time.monotonic()
    result = minimize_nondet(prime_family(6), SearchBudget(candidate_cap=None, time_cap=1e-9))
    assert time.monotonic() - start < 5
    assert (result.size(), result.proven_optimal) == (83, False)
    assert (result.stats["level"], result.stats["candidates"]) == (1, 0)

    # a deadline that passes once level 1 is ruled out skips every bound;
    # the search stops in level 2, at the first multiple of 512 it counts
    def level_one_then_expire(ref):
        outcome = level_one(ref)
        ref.clock._deadline = time.monotonic() - 1
        return outcome

    level_one = minimize._level_one
    monkeypatch.setattr(minimize, "_level_one", level_one_then_expire)
    start = time.monotonic()
    result = minimize_nondet(prime_family(6), SearchBudget(candidate_cap=None, time_cap=60))
    assert time.monotonic() - start < 5
    assert (result.size(), result.proven_optimal) == (83, False)
    assert (result.stats["level"], result.stats["candidates"]) == (2, 512)
    assert (result.stats["lower_bound"], result.stats["upper_bound_source"]) == (2, "trim")


def test_fooling_set_runs_before_the_confirm_walk():
    # the forward quotient of prime r=6 is certified by a linear check of its
    # partition, not walked against the 30,072 reached sets, so the fooling
    # set, which needs milliseconds, finds its one-second deadline ahead
    result = minimize_nondet(prime_family(6), SearchBudget(time_cap=1.0, candidate_cap=None))
    assert (result.stats["lower_bound"], result.stats["lower_bound_exact"]) == (36, True)
    assert not result.proven_optimal


def test_confirm_walk_stays_on_the_clock():
    # the forward quotient is certified rather than walked, so a short time
    # cap keeps it: 55 states against 83 for the trimmed filter
    start = time.monotonic()
    result = minimize_nondet(prime_family(6), SearchBudget(time_cap=0.3, candidate_cap=None))
    assert time.monotonic() - start < 0.6
    assert (result.size(), result.proven_optimal) == (55, False)
    assert result.stats["upper_bound_source"] == "forward-bisimulation"
    assert result.stats["lower_bound"] == 36


def test_max_clique_matches_brute_force():
    from filterkit.minimize import _Clock, _max_clique

    rng = random.Random(404)
    stopped_early = 0
    for _ in range(200):
        n = rng.randint(1, 14)
        density = rng.random()
        rows = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < density:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
        # is_clique[mask] for every vertex set, from the set without its lowest vertex
        is_clique = [True] * (1 << n)
        for mask in range(1, 1 << n):
            v = (mask & -mask).bit_length() - 1
            rest = mask & (mask - 1)
            is_clique[mask] = is_clique[rest] and rows[v] & rest == rest
        largest = max(mask.bit_count() for mask in range(1 << n) if is_clique[mask])
        clock = _Clock(None).sub(10_000)
        clique, exact = _max_clique(rows, n, clock)
        assert exact and len(clique) == largest
        assert all(rows[u] >> v & 1 for u, v in itertools.combinations(clique, 2))
        # the search stops at the first clique that reaches a target below
        # the maximum, and a clock that refuses a node leaves it inexact
        target = rng.randint(1, max(1, largest - 1))
        early = _Clock(None).sub(10_000)
        clique, exact = _max_clique(rows, target, early)
        assert exact and len(clique) >= target
        assert all(rows[u] >> v & 1 for u, v in itertools.combinations(clique, 2))
        assert early.candidates <= clock.candidates
        stopped_early += early.candidates < clock.candidates
        if largest > 1:
            assert _max_clique(rows, n, _Clock(None).sub(1))[1] is False
    assert stopped_early >= 5


def test_det_bound_skips_only_what_cannot_win():
    # with beat set, the pipeline may stop early, but only when its result
    # could not have fewer than beat states
    from filterkit.minimize import _Clock, _det_pipeline

    rng = random.Random(2626)
    skipped = 0
    for _ in range(150):
        f = random_filter(rng, max_states=6, max_symbols=2, max_colors=2)
        ft = f.trim()
        ref = _Reached(ft)
        cap = rng.choice((2, 4, 20))
        size, build = _det_pipeline(ft, ref, _Clock(SearchBudget(candidate_cap=cap)))[1]
        full = build()
        assert full.size() == size
        for beat in range(1, ft.size() + 2):
            size, build = _det_pipeline(ft, ref, _Clock(SearchBudget(candidate_cap=cap)),
                                        beat=beat)[1]
            quick = build()
            assert quick.size() == size
            if full.size() < beat:
                assert quick == full, (f, beat)
            skipped += quick.size() > full.size()
    assert skipped >= 20


def test_det_bound_walks_within_the_subset_cap():
    # the deterministic bound's result was walked inside the pipeline and is
    # not walked again: a quotient of the cover reaches one pair per reached
    # set of the reference, a closed cover at most one per reached set and
    # state, and the bound gives up past _BOUND_SUBSETS reached sets
    from filterkit.minimize import _BOUND_SUBSETS, _Clock, _det_bound
    from filterkit.simulation import _walk

    filters = [donut_world(), fig3_input(), fig3_minimizer()]
    filters += [prime_family(r) for r in (1, 2, 3, 4)]
    rng = random.Random(6060)
    filters += [random_filter(rng, max_states=6, max_symbols=3, max_colors=3)
                for _ in range(150)]
    bounds = merged = 0
    for f in filters:
        ft = f.trim()
        ref = _Reached(ft)
        reached_sets = ft.determinize()[0].size()
        for beat in (None, ft.size()):
            bound = _det_bound(ft, ref, _Clock(None), beat)
            if bound is None:
                continue
            size, build = bound
            bound = build()
            assert bound.size() == size
            bounds += 1
            merged += bound.size() < reached_sets
            assert reached_sets <= _BOUND_SUBSETS
            assert _walk(ref, *ref.encode(bound), cap=reached_sets * bound.size()) is None, f
    assert bounds >= 300 and merged >= 50


def test_determinization_reads_the_shared_table():
    # the deterministic bound determinizes the reference through the table
    # that level 1 or a failing walk has partly filled: the result, state
    # names included, is that of a fresh subset construction.  The table
    # owns its cap: every fill past it raises, the partial fill included,
    # and the rows filled by then are those of a fresh table
    from filterkit import CapExceeded
    from filterkit.minimize import _level_one
    from filterkit.simulation import _walk

    rng = random.Random(5151)
    filters = [random_filter(rng, max_states=5, max_symbols=3, max_colors=3)
               for _ in range(150)]
    filters += [prime_family(r) for r in (1, 2, 3, 4)]
    partial = 0
    for i, f in enumerate(filters):
        ft = f.trim()
        det = ft.determinize()[0]
        with pytest.raises(CapExceeded):
            ft.determinize(det.size() - 1)
        fresh = _Reached(ft)
        fresh.fill()
        for cap in (det.size(), det.size() - 1):
            ref = _Reached(ft, cap)
            try:
                if i % 3 == 0:
                    _level_one(ref)
                else:
                    # one state with the initial colors, and a self-loop on
                    # every symbol (i % 3 == 1) or no edge: it fails unless
                    # every reached set shows those colors
                    edges = [[1 if i % 3 == 1 else 0] for _ in ft.observations]
                    _walk(ref, 1, [ref.colors[0]], edges)
            except CapExceeded:
                assert cap < det.size()
            partial += ref.done < det.size()
            if cap < det.size():
                for _ in range(2):
                    with pytest.raises(CapExceeded, match="^state cap"):
                        ft._determinize(ref)
                assert ref.done < len(ref.members) <= cap + len(ft.observations)
                assert ref.members == fresh.members[:len(ref.members)]
                assert ref.colors == fresh.colors[:len(ref.members)]
                assert [row[:ref.done] for row in fresh.after] == ref.after
            else:
                assert ft._determinize(ref) == det
                assert ref.done == len(ref.members) == det.size()
    assert partial >= 80
