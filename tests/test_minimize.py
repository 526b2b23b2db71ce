import itertools
import random
import time

import pytest

from filterkit import (
    BUDGET_EXHAUSTED,
    NO,
    YES,
    Filter,
    SearchBudget,
    compatibility_graph,
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

from oracles import (
    all_filters,
    brute_force_min_size,
    canonical_search,
    compatibility_graph_oracle,
    fooling_set_error,
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
    result = minimize_nondet(mergeable_pair(), SearchBudget(max_k=1))
    assert not result.proven_optimal
    assert result.size() == 3


def test_minimize_nondet_matches_brute_force():
    rng = random.Random(60601)
    for _ in range(20):
        f = random_filter(rng, max_states=3, max_symbols=2, max_colors=2)
        expected = brute_force_min_size(f)
        result = minimize_nondet(f)
        assert result.proven_optimal, f
        assert result.size() == expected, f
        assert output_simulates(result.minimizer, f).holds


def test_compatibility_graph_shape():
    adj = compatibility_graph(fig3_input())
    assert all(not neighbors for neighbors in adj.values())  # pairwise hostile
    donut_det, _ = donut_world().determinize()
    adj = compatibility_graph(donut_det)
    reds = [s for s in donut_det.states if donut_det.coloring[s] == frozenset({"red"})]
    cyans = [s for s in donut_det.states if s not in reds]
    assert len(reds) == 4 and len(cyans) == 3
    for r in reds:
        assert adj[r] == set(reds) - {r}
    for c in cyans:
        assert adj[c] == set()


def test_compatibility_graph_needs_determinism():
    with pytest.raises(ValueError):
        compatibility_graph(donut_world())


def test_compatibility_graph_prime_cycle_is_edgeless():
    # distinct residues mod some prime eventually force distinct sink colors,
    # so no two cycle positions are mergeable
    m = prime_family_minimizer(2)
    adj = compatibility_graph(m)
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


def test_det_level_search_semantics():
    # the enumerative search itself, independent of the merge heuristics
    from filterkit.minimize import (
        _CAPPED,
        _EXHAUSTED,
        _FOUND,
        _Clock,
        _RefTables,
        _search_size,
    )

    ref = _RefTables(color_chain())
    status, witness = _search_size(ref, 3, _Clock(None), det=True)
    assert status == _FOUND
    assert witness.is_deterministic() and witness.size() == 3
    assert output_simulates(witness, color_chain()).holds
    # no two-state deterministic filter can produce x, xy, y, x in order:
    # any walk of length four repeats a state under an impossible color
    status, witness = _search_size(ref, 2, _Clock(None), det=True)
    assert status == _EXHAUSTED and witness is None
    status, witness = _search_size(ref, 2, _Clock(SearchBudget(candidate_cap=1)), det=True)
    assert status == _CAPPED


def charged_blocks(ft, levels, det):
    """(candidates before, size) of every block of more than one candidate
    that an uncapped search of the given levels charges at once, and the
    count at the end of that search."""
    from filterkit.minimize import _EXHAUSTED, _Clock, _RefTables, _search_size

    blocks = []

    class RecordingClock(_Clock):
        def spend(self, k=1):
            if k > 1:
                blocks.append((self.candidates, k))
            return super().spend(k)

    ref = _RefTables(ft)
    clock = RecordingClock(SearchBudget(candidate_cap=None))
    for n in levels:
        if _search_size(ref, n, clock, det)[0] != _EXHAUSTED:
            break
    return blocks, clock.candidates


def search_caps(rng, ft, levels, det, limit):
    """A seeded cap below limit, two caps that fall inside charged blocks,
    and no cap (None) when the whole search stays below 8,000 candidates.
    Returns None when the search charges no block below limit."""
    blocks, total = charged_blocks(ft, levels, det)
    blocks = [(before, k) for before, k in blocks if before + k <= limit]
    if not blocks:
        return None
    picked = rng.sample(blocks, min(2, len(blocks)))
    inside = [before + rng.randint(1, k - 1) for before, k in picked]
    return [rng.randint(1, limit)] + inside + [None] * (total <= 8000)


def reference_levels(ft, levels, det, cap):
    """canonical_search over the levels in turn: (status, witness, spent)."""
    spent = 0
    for n in levels:
        status, witness, spent = canonical_search(ft, n, det, spent, cap)
        if status != "exhausted":
            return status, witness, spent
    return "exhausted", None, spent


def as_dict(f):
    return None if f is None else f.to_dict()


def test_nondet_search_matches_one_by_one_reference():
    # backjumping must not change the answer, the witness or the count,
    # also when the cap falls inside a block charged without a walk; the
    # bounds of minimize_nondet may only shrink its answer or prove it
    rng = random.Random(9090)
    statuses = []
    while len(statuses) < 40:
        f = random_filter(rng, max_states=4, max_symbols=2, max_colors=2)
        ft = f.trim()
        smallest = None
        caps = ft.size() == 3 and search_caps(rng, ft, (1, 2), det=False, limit=1500)
        for cap in caps or ():
            status, witness, spent = reference_levels(ft, (1, 2), False, cap)
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
    assert set(statuses) == {"found", "capped", "exhausted"}


def test_det_search_matches_one_by_one_reference():
    from filterkit.minimize import _Clock, _RefTables, _search_size

    rng = random.Random(4242)
    statuses = []
    while len(statuses) < 60:
        f = random_filter(rng, max_states=4, max_symbols=2, max_colors=2)
        ft = f.trim()
        levels = tuple(range(1, ft.size()))
        caps = ft.size() >= 3 and search_caps(rng, ft, levels, det=True, limit=1500)
        for cap in caps or ():
            ref = _RefTables(ft)
            clock = _Clock(SearchBudget(candidate_cap=cap))
            spent = 0
            for n in levels:
                status, witness, spent = canonical_search(ft, n, True, spent, cap)
                statuses.append(status)
                found_status, found = _search_size(ref, n, clock, det=True)
                assert (found_status, as_dict(found), clock.candidates) == (
                    status, as_dict(witness), spent)
                assert clock.walked <= clock.candidates
                if status != "exhausted":
                    break
    assert set(statuses) == {"found", "capped", "exhausted"}


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


def test_time_cap_stops_search_unproven():
    result = minimize_nondet(fig3_input(), SearchBudget(candidate_cap=None, time_cap=0.05))
    assert not result.proven_optimal
    assert result.size() == 10
    assert output_simulates(result.minimizer, fig3_input()).holds


def test_stats_count_walked_candidates():
    # level 2 of the donut fails on the rows of state 0 alone, so most of
    # its candidates are charged in blocks without a walk
    from filterkit.minimize import _CAPPED, _EXHAUSTED, _Clock, _RefTables, _search_size

    ref = _RefTables(donut_world())
    clock = _Clock(SearchBudget(candidate_cap=800))
    assert _search_size(ref, 1, clock, det=False) == (_EXHAUSTED, None)
    assert _search_size(ref, 2, clock, det=False) == (_CAPPED, None)
    assert clock.candidates == 801
    assert 0 < clock.walked < 80
    # minimize_nondet searches level 1 only: the bounds meet at 4 states
    result = minimize_nondet(donut_world(), SearchBudget(candidate_cap=800))
    assert (result.stats["candidates"], result.stats["walked"]) == (8, 8)
    det = minimize_det(color_chain())
    assert 0 < det.stats["walked"] <= det.stats["candidates"]


def test_clique_cover_of_deep_graph_returns():
    # incompatibility K700,700 + C5: the exact coloring search goes about
    # 1,400 vertices deep, past the interpreter's recursion limit
    from filterkit.minimize import _min_clique_cover

    left = [f"a{i}" for i in range(700)]
    right = [f"b{i}" for i in range(700)]
    ring = [f"c{i}" for i in range(5)]
    states = left + right + ring
    hostile = {u: set(right) for u in left}
    hostile.update((v, set(left)) for v in right)
    hostile.update((u, {ring[i - 1], ring[(i + 1) % 5]}) for i, u in enumerate(ring))
    everyone = set(states)
    adj = {s: everyone - hostile[s] - {s} for s in states}
    partition, lower, exact = _min_clique_cover(states, adj)
    assert (len(partition), lower, exact) == (3, 3, True)
    assert sorted(s for part in partition for s in part) == sorted(states)
    for part in partition:
        assert all(v in adj[u] for u in part for v in part if u != v)


def test_compatibility_graph_matches_rev_map_reference():
    dets = [prime_family(r).determinize()[0] for r in range(1, 5)]
    dets += [f.determinize()[0] for f in (donut_world(), fig3_input(), fig3_minimizer())]
    rng = random.Random(2718)
    for _ in range(300):
        f = random_filter(rng, max_states=6, max_symbols=3, max_colors=3)
        dets.append(f.determinize()[0])
    for d in dets:
        assert compatibility_graph(d) == compatibility_graph_oracle(d)


def test_greedy_merge_stops_at_the_cap():
    rng = random.Random(3)
    for _ in range(9):
        f = random_filter(rng, max_states=6, max_symbols=3, max_colors=3)
    for cap in (1, 2):
        result = minimize_det(f, SearchBudget(candidate_cap=cap))
        assert result.stats["candidates"] == cap + 1
        assert result.stats["walked"] == cap
        assert not result.proven_optimal
        assert result.size() > result.stats["lower_bound"]
        assert output_simulates(result.minimizer, f).holds


def test_capped_minimize_det_proves_only_at_the_lower_bound():
    rng = random.Random(31)
    for _ in range(60):
        f = random_filter(rng, max_states=6, max_symbols=3, max_colors=3)
        cap = rng.choice((1, 2, 3, 5, 8, 20))
        result = minimize_det(f, SearchBudget(candidate_cap=cap))
        assert result.stats["candidates"] <= cap + 1
        if result.stats["candidates"] > cap:
            assert result.proven_optimal == (result.size() == result.stats["lower_bound"])


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
    from filterkit.minimize import _Clock, _fooling_set, _RefTables

    filters = [prime_family(r) for r in (1, 2, 3)]
    filters += [donut_world(), fig3_input(), fig3_minimizer()]
    rng = random.Random(5150)
    filters += [one_color_filter(rng, rng.randint(2, 6), 1 + i % 2) for i in range(100)]
    sizes = []
    for f in filters:
        ft = f.trim()
        pairs, exact = _fooling_set(_RefTables(ft), ft.size(), _Clock(None))
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


def test_bisimulation_quotients_simulate_both_ways():
    from filterkit.minimize import _bisimulation_quotient, _Clock, _RefTables

    filters = [prime_family(r) for r in (1, 2, 3, 4)] + [donut_world(), mergeable_pair()]
    rng = random.Random(818)
    filters += [random_filter(rng, max_states=6, max_symbols=2, max_colors=2)
                for _ in range(150)]
    shrunk = {False: 0, True: 0}
    for f in filters:
        ft = f.trim()
        for backward in (False, True):
            quotient = _bisimulation_quotient(ft, _RefTables(ft), _Clock(None), backward)
            if quotient is None:
                continue
            shrunk[backward] += 1
            assert quotient.size() < ft.size()
            assert simulates_oracle(quotient, ft)[0], (f, backward)
            assert simulates_oracle(ft, quotient)[0], (f, backward)
    assert min(shrunk.values()) >= 10
    forward = _bisimulation_quotient(prime_family(2), _RefTables(prime_family(2)),
                                     _Clock(None), False)
    assert forward.size() == 9


def test_prime_family_nondet_minimum_is_proven_fast():
    # the paper's gap: the deterministic minimizers have 5, 10, 36 and 218
    # states; the nondeterministic minimum is found and proven
    for r, size in ((1, 5), (2, 9), (3, 16), (4, 25)):
        start = time.monotonic()
        result = minimize_nondet(prime_family(r))
        elapsed = time.monotonic() - start
        assert (result.size(), result.proven_optimal) == (size, True)
        assert result.stats["lower_bound"] == size
        assert result.stats["candidates"] == 2 ** (r + 1)  # level 1 alone
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


def test_nondet_bounds_stay_on_the_clock():
    from filterkit import CapExceeded
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
    # a deadline that has passed before the bounds skips every one of them
    start = time.monotonic()
    result = minimize_nondet(prime_family(6), SearchBudget(candidate_cap=None, time_cap=1e-9))
    assert time.monotonic() - start < 5
    assert (result.size(), result.proven_optimal) == (83, False)


def test_max_clique_matches_brute_force():
    from filterkit.minimize import _Clock, _max_clique

    rng = random.Random(404)
    for _ in range(200):
        n = rng.randint(1, 11)
        density = rng.random()
        rows = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < density:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
        largest = max(
            len(group) for size in range(1, n + 1)
            for group in itertools.combinations(range(n), size)
            if all(rows[u] >> v & 1 for u, v in itertools.combinations(group, 2))
        )
        clique, exact = _max_clique(rows, n, 10_000, _Clock(None))
        assert exact and len(clique) == largest
        assert all(rows[u] >> v & 1 for u, v in itertools.combinations(clique, 2))
        # the search stops at the first clique that reaches the target, and
        # a node cap leaves it inexact
        target = rng.randint(1, largest)
        assert len(_max_clique(rows, target, 10_000, _Clock(None))[0]) >= target
        if largest > 1:
            assert _max_clique(rows, n, 1, _Clock(None))[1] is False


def test_merge_pair_refuses_exactly_the_nondeterministic_merges():
    from filterkit.minimize import _merge_pair

    rng = random.Random(1212)
    merged = refused = 0
    for _ in range(80):
        f = random_filter(rng, max_states=4, max_symbols=2, max_colors=2)
        d, _ = f.determinize()
        for u, v in itertools.combinations(d.states, 2):
            if not d.coloring[u] & d.coloring[v]:
                continue
            ends = {}
            for (src, dst), syms in d.transitions.items():
                src, dst = ("m" if s in (u, v) else s for s in (src, dst))
                for y in syms:
                    ends.setdefault((src, y), set()).add(dst)
            deterministic = all(len(targets) == 1 for targets in ends.values())
            result = _merge_pair(d, u, v)
            assert (result is not None) == deterministic, (d, u, v)
            if result is not None:
                assert result.is_deterministic() and result.size() == d.size() - 1
            merged += deterministic
            refused += not deterministic
    assert merged >= 20 and refused >= 20


def test_det_bound_skips_only_what_cannot_win():
    # with beat set, the pipeline may stop early, but only when its result
    # could not have fewer than beat states
    from filterkit.minimize import _Clock, _det_pipeline, _RefTables

    rng = random.Random(2626)
    skipped = 0
    for _ in range(150):
        f = random_filter(rng, max_states=6, max_symbols=2, max_colors=2)
        ft = f.trim()
        ref = _RefTables(ft)
        cap = rng.choice((2, 4, 20))
        full = _det_pipeline(ft, ref, _Clock(SearchBudget(candidate_cap=cap)), 1000)[1]
        for beat in range(1, ft.size() + 2):
            quick = _det_pipeline(ft, ref, _Clock(SearchBudget(candidate_cap=cap)), 1000,
                                  beat=beat)[1]
            if full.size() < beat:
                assert quick == full, (f, beat)
            skipped += quick.size() > full.size()
    assert skipped >= 20
