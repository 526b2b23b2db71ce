import copy
import itertools
import random

import pytest

from filterkit import (
    LANGUAGE_GAP,
    OUTPUT_VIOLATION,
    CapExceeded,
    Filter,
    fig3_input,
    fig3_minimizer,
    Nfa,
    is_included,
    is_universal,
    output_simulates,
    prime_family,
    prime_family_minimizer,
)

from oracles import (
    language_gap_oracle,
    random_filter,
    simulates_oracle,
    step_set,
    tensor_product,
    tensor_simulation_oracle,
)


def chain(colors_by_state, observations=("y",)):
    """Linear filter a0 -y-> a1 -y-> ... with the given color sets."""
    states = [f"a{i}" for i in range(len(colors_by_state))]
    transitions = {
        (states[i], states[i + 1]): {observations[0]} for i in range(len(states) - 1)
    }
    palette = tuple(sorted({c for cs in colors_by_state for c in cs}))
    return Filter(
        states,
        [states[0]],
        observations,
        transitions,
        palette,
        {s: set(cs) for s, cs in zip(states, colors_by_state)},
    )


def test_reflexive():
    f = chain([{"red"}, {"blue"}])
    assert output_simulates(f, f).holds


def test_language_gap_detected():
    longer = chain([{"red"}, {"red"}, {"red"}])
    shorter = chain([{"red"}, {"red"}])
    verdict = output_simulates(shorter, longer)
    assert not verdict.holds
    assert verdict.kind == LANGUAGE_GAP
    assert verdict.witness == ("y", "y")
    assert verdict.color is None
    # the reference's language may be a strict subset, that direction is fine
    assert output_simulates(longer, shorter).holds


def test_output_violation_detected():
    loose = chain([{"red"}, {"red", "blue"}])
    tight = chain([{"red"}, {"red"}])
    verdict = output_simulates(loose, tight)
    assert not verdict.holds
    assert verdict.kind == OUTPUT_VIOLATION
    assert verdict.witness == ("y",)
    assert verdict.color == "blue"
    # the other containment direction holds: {red} is inside {red, blue}
    assert output_simulates(tight, loose).holds


def test_verdict_is_truthy():
    f = chain([{"red"}])
    assert output_simulates(f, f)
    g = chain([{"red"}, {"blue"}])
    h = chain([{"red"}, {"red"}])
    assert not output_simulates(g, h)


def test_shortest_witness_prefers_lexicographic():
    # both "b" and "a" break the simulation; the report must pick "a"
    ref = Filter(
        ["r", "ra", "rb"],
        ["r"],
        ("a", "b"),
        {("r", "ra"): {"a"}, ("r", "rb"): {"b"}},
        ("white", "spot"),
        {"r": {"white"}, "ra": {"white"}, "rb": {"white"}},
    )
    cand = Filter(
        ["c", "ca", "cb"],
        ["c"],
        ("a", "b"),
        {("c", "ca"): {"a"}, ("c", "cb"): {"b"}},
        ("white", "spot"),
        {"c": {"white"}, "ca": {"white", "spot"}, "cb": {"white", "spot"}},
    )
    verdict = output_simulates(cand, ref)
    assert not verdict.holds
    assert verdict.witness == ("a",)
    assert verdict.color == "spot"


def test_tensor_product_tracks_crash_candidate():
    longer = chain([{"red"}, {"red"}, {"red"}])
    shorter = chain([{"red"}, {"red"}])
    # reference first: the second coordinate goes to None when the candidate
    # crashes on a string the reference survives
    vertices, _, _ = tensor_product(longer, shorter)
    seconds = {pair[1] for pair in vertices}
    assert None in seconds


def test_language_inclusion_piece():
    longer = chain([{"red"}, {"red"}, {"red"}])
    shorter = chain([{"red"}, {"red"}])
    assert tensor_simulation_oracle(shorter, longer) == (
        False, LANGUAGE_GAP, ("y", "y"), None
    )
    assert tensor_simulation_oracle(longer, shorter) == (True, None, None, None)


def test_output_consistency_piece():
    loose = chain([{"red"}, {"red", "blue"}])
    tight = chain([{"red"}, {"red"}])
    assert tensor_simulation_oracle(loose, tight) == (
        False, OUTPUT_VIOLATION, ("y",), "blue"
    )


def test_disjoint_alphabets():
    f = chain([{"red"}, {"red"}], observations=("y",))
    g = chain([{"red"}, {"red"}], observations=("z",))
    verdict = output_simulates(g, f)
    assert not verdict.holds
    assert verdict.kind == LANGUAGE_GAP
    assert verdict.witness == ("y",)


def test_fig3_pair_simulates_both_ways():
    big = fig3_input()
    small = fig3_minimizer()
    assert output_simulates(small, big).holds
    assert output_simulates(big, small).holds


def test_fig3_perturbation_is_caught():
    big = fig3_input()
    small = fig3_minimizer()
    broken = small.to_dict()
    for row in broken["transitions"]:
        if row["from"] == "p3" and row["to"] == "minus":
            row["symbols"] = ["a", "d"]  # d belongs under plus via p4, not here
    verdict = output_simulates(Filter.from_dict(broken), big)
    assert not verdict.holds
    assert verdict.kind == OUTPUT_VIOLATION
    assert verdict.witness in (("2", "d"), ("3", "d"))


def test_matches_oracle_on_seeded_pairs():
    rng = random.Random(424242)
    disagreements = []
    for trial in range(60):
        ref = random_filter(rng, max_states=4)
        cand = random_filter(rng, max_states=4)
        verdict = output_simulates(cand, ref)
        expected, oracle_witness = simulates_oracle(cand, ref)
        if verdict.holds != expected:
            disagreements.append((trial, ref, cand))
        elif not verdict.holds:
            # the witness is shortest within the reported kind: language gaps
            # are reported first, and the output check only runs once
            # inclusion holds, so an output witness is globally shortest
            gap = language_gap_oracle(cand, ref)
            if verdict.kind == LANGUAGE_GAP:
                assert gap is not None, trial
                assert len(verdict.witness) == len(gap), trial
            else:
                assert gap is None, trial
                assert len(verdict.witness) == len(oracle_witness), trial
    assert not disagreements


def test_fig3_edge_deletion_breaks_language_inclusion():
    big, small = fig3_input(), fig3_minimizer()
    doc = small.to_dict()
    doc["transitions"] = [
        row
        for row in doc["transitions"]
        if not (row["from"] == "p1" and row["to"] == "plus")
    ]
    verdict = output_simulates(Filter.from_dict(doc), big)
    assert not verdict.holds
    assert verdict.kind == LANGUAGE_GAP
    assert verdict.witness == ("1", "a")


def test_determinization_simulates_both_ways():
    rng = random.Random(87)
    for _ in range(10):
        f = random_filter(rng, max_states=4)
        det, _ = f.trim().determinize()
        assert output_simulates(det, f).holds
        assert output_simulates(f, det).holds


def test_deleting_candidate_edges_never_fixes_language_gap():
    # shrinking the candidate's language can only widen a language gap
    rng = random.Random(5252)
    probed = 0
    for _ in range(40):
        ref = random_filter(rng, max_states=3)
        cand = random_filter(rng, max_states=3)
        verdict = output_simulates(cand, ref)
        if verdict.holds or verdict.kind != LANGUAGE_GAP:
            continue
        probed += 1
        doc = cand.to_dict()
        for i, row in enumerate(doc["transitions"]):
            for symbol in row["symbols"]:
                pruned = copy.deepcopy(doc)
                if len(pruned["transitions"][i]["symbols"]) == 1:
                    del pruned["transitions"][i]
                else:
                    pruned["transitions"][i]["symbols"].remove(symbol)
                again = output_simulates(Filter.from_dict(pruned), ref)
                assert not again.holds
                assert again.kind == LANGUAGE_GAP
    assert probed >= 5


def test_failing_witness_is_genuine():
    rng = random.Random(11)
    seen_failures = 0

    def alive(f, s):
        # a string using symbols outside f's alphabet is never in L(f)
        if any(y not in f.observations for y in s):
            return False
        return f.in_language(s)

    for _ in range(80):
        ref = random_filter(rng, max_states=3)
        cand = random_filter(rng, max_states=3)
        verdict = output_simulates(cand, ref)
        if verdict.holds:
            continue
        seen_failures += 1
        s = verdict.witness
        assert alive(ref, s)
        if verdict.kind == LANGUAGE_GAP:
            assert not alive(cand, s)
        else:
            assert verdict.color in cand.output(s)
            assert verdict.color not in ref.output(s)
    assert seen_failures > 10  # the sweep actually exercised failures


def reordered(f, rng):
    """f with its observations and colors declared in a shuffled order."""
    observations = list(f.observations)
    colors = list(f.colors)
    rng.shuffle(observations)
    rng.shuffle(colors)
    return Filter(f.states, f.initial, observations, f.transitions, colors, f.coloring)


def fails_as(kind, cand, ref, string):
    """Does string break the simulation of ref by cand with this kind?"""
    if any(y not in ref.observations for y in string) or not ref.in_language(string):
        return False
    cand_out = None
    if all(y in cand.observations for y in string):
        cand_out = cand.output(string)
    if kind == LANGUAGE_GAP:
        return cand_out is None
    return cand_out is not None and not cand_out <= ref.output(string)


def seeded_pairs(seed, count, max_states):
    rng = random.Random(seed)
    for _ in range(count):
        ref = reordered(random_filter(rng, max_states=max_states), rng)
        cand = reordered(random_filter(rng, max_states=max_states), rng)
        yield cand, ref


def test_kernel_agrees_with_both_oracles():
    failures = 0
    for trial, (cand, ref) in enumerate(seeded_pairs(2024, 2000, 8)):
        verdict = output_simulates(cand, ref)
        holds, oracle_witness = simulates_oracle(cand, ref)
        gap = language_gap_oracle(cand, ref)
        t_holds, t_kind, t_witness, _ = tensor_simulation_oracle(cand, ref)
        assert verdict.holds == holds == t_holds, trial
        if holds:
            continue
        failures += 1
        assert verdict.kind == t_kind, trial
        assert len(verdict.witness) == len(t_witness), trial
        if verdict.kind == LANGUAGE_GAP:
            assert gap is not None and len(verdict.witness) == len(gap), trial
        else:
            assert gap is None and len(verdict.witness) == len(oracle_witness), trial
    assert failures > 500  # the sweep exercised both outcomes


def test_witness_is_first_in_declared_order():
    kinds = set()
    for trial, (cand, ref) in enumerate(seeded_pairs(77, 600, 6)):
        verdict = output_simulates(cand, ref)
        if verdict.holds:
            continue
        kinds.add(verdict.kind)
        first = next(
            s
            for s in itertools.product(ref.observations, repeat=len(verdict.witness))
            if fails_as(verdict.kind, cand, ref, s)
        )
        assert verdict.witness == first, trial
        if verdict.kind == OUTPUT_VIOLATION:
            extra = cand.output(first) - ref.output(first)
            assert verdict.color == next(c for c in cand.colors if c in extra), trial
    assert kinds == {LANGUAGE_GAP, OUTPUT_VIOLATION}


def test_gap_reported_before_shorter_violation():
    # "y" is an output violation, "yy" a language gap: the gap wins
    ref = chain([{"red"}, {"red"}, {"red"}])
    cand = chain([{"red"}, {"red", "blue"}])
    verdict = output_simulates(cand, ref)
    assert verdict.kind == LANGUAGE_GAP
    assert verdict.witness == ("y", "y")


def test_prime_family_minimizer_simulates_both_ways():
    f, m = prime_family(5), prime_family_minimizer(5)
    assert output_simulates(m, f).holds
    assert output_simulates(f, m).holds



def reached_pairs(candidate, reference):
    """The reached-set pairs of the strings over the reference's observations
    that the reference survives, from the pair of initial sets."""
    start = (frozenset(reference.initial), frozenset(candidate.initial))
    seen, queue = {start}, [start]
    for ref_set, cand_set in queue:
        for symbol in reference.observations:
            nxt = (step_set(reference, ref_set, symbol), step_set(candidate, cand_set, symbol))
            if nxt[0] and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return len(seen)


def test_cap_counts_every_reached_pair():
    # the walk of a pair that holds reaches every pair: a cap of exactly that
    # many gives the uncapped verdict, one less stops it
    rng = random.Random(9191)
    pairs = [(fig3_minimizer(), fig3_input()), (fig3_input(), fig3_minimizer()),
             (prime_family_minimizer(3), prime_family(3))]
    for _ in range(40):
        f = random_filter(rng, max_states=5)
        det = f.trim().determinize()[0]
        pairs += [(f, f), (det, f), (f, det)]
    capped = 0
    for candidate, reference in pairs:
        assert output_simulates(candidate, reference).holds
        count = reached_pairs(candidate, reference)
        assert output_simulates(candidate, reference, cap=count).holds
        # the initial pair counts against the cap, and a cap below 1 is
        # refused (test_caps_below_one_are_refused), so count - 1 needs count > 1
        if count > 1:
            with pytest.raises(CapExceeded):
                output_simulates(candidate, reference, cap=count - 1)
            capped += 1
    assert capped >= 60


def test_caps_below_one_are_refused():
    # a one-state filter reaches one pair, which no cap below 1 admits
    one = Filter(["s"], ["s"], ["a"], {}, ["x"], {"s": ["x"]})
    assert output_simulates(one, one, cap=1).holds
    for cap in (0, -5):
        with pytest.raises(ValueError):
            output_simulates(one, one, cap=cap)


@pytest.mark.parametrize("check", [
    lambda f, a, cap: output_simulates(f, f, cap=cap),
    lambda f, a, cap: is_included(a, a, cap=cap),
    lambda f, a, cap: is_universal(a, cap=cap),
    lambda f, a, cap: f.determinize(cap=cap),
], ids=["output_simulates", "is_included", "is_universal", "determinize"])
def test_nan_caps_are_refused(check):
    # NaN fails every comparison, so a cap checked only by `len > cap`
    # would never stop the walk
    f = Filter(["s"], ["s"], ["a"], {}, ["x"], {"s": ["x"]})
    a = Nfa(["p"], ["p"], ["a"], {}, ["p"])
    check(f, a, 10)
    with pytest.raises(ValueError):
        check(f, a, float("nan"))
