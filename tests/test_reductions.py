import random

import pytest

from filterkit import (
    NO,
    YES,
    Nfa,
    NfaError,
    NoAcceptingState,
    decide_size_k,
    from_dfa_union,
    from_nfa_universality,
    is_universal,
    verify_reduction,
)
from filterkit.nfa import sigma_star
from filterkit.reductions import ReductionInstance

from oracles import subset_dfa


def nfa_missing_bb():
    """Accepts everything except strings containing bb."""
    return Nfa(
        ["ok", "b1"],
        ["ok"],
        ("a", "b"),
        {
            ("ok", "a"): frozenset({"ok"}),
            ("ok", "b"): frozenset({"b1"}),
            ("b1", "a"): frozenset({"ok"}),
        },
        {"ok", "b1"},
    )


def random_nfa(rng, max_states=4):
    n = rng.randint(1, max_states)
    states = [f"n{i}" for i in range(n)]
    alphabet = tuple("ab"[: rng.randint(1, 2)])
    transitions = {}
    for s in states:
        for y in alphabet:
            targets = frozenset(t for t in states if rng.random() < 0.5)
            if targets:
                transitions[(s, y)] = targets
    initial = [s for s in states if rng.random() < 0.4] or [states[0]]
    accepting = {s for s in states if rng.random() < 0.5}
    return Nfa(states, initial, alphabet, transitions, accepting)


def random_dfa(rng, max_states=4):
    n = rng.randint(1, max_states)
    states = [f"d{i}" for i in range(n)]
    alphabet = tuple("ab"[: rng.randint(1, 2)])
    transitions = {}
    for s in states:
        for y in alphabet:
            if rng.random() < 0.85:
                transitions[(s, y)] = frozenset({rng.choice(states)})
    accepting = {s for s in states if rng.random() < 0.45}
    return Nfa(states, [states[0]], alphabet, transitions, accepting)


def test_universal_nfa_gives_one_state_minimizer():
    instance = from_nfa_universality(sigma_star(("a", "b")))
    assert instance.kind == "nfa-universality"
    decision = decide_size_k(instance.filter, 1)
    assert decision.outcome == YES
    assert verify_reduction(instance)
    # the only viable one-state shape: a green state looping on every symbol
    w = decision.witness
    (lone,) = w.states
    assert w.coloring[lone] == frozenset({"green"})
    for symbol in w.observations:
        assert set(w.successors(lone, symbol)) == {lone}


def test_non_universal_nfa_blocks_one_state():
    instance = from_nfa_universality(nfa_missing_bb())
    decision = decide_size_k(instance.filter, 1)
    assert decision.outcome == NO
    assert verify_reduction(instance)


def test_reduction_filter_shape():
    a = nfa_missing_bb()
    instance = from_nfa_universality(a)
    f = instance.filter
    assert instance.fresh_symbol == "z"
    assert set(f.observations) == {"a", "b", "z"}
    assert set(f.colors) == {"green", "blue"}
    # every string over the original alphabet stays alive via the hub
    assert f.in_language(("b", "b", "b", "a"))
    # z flags: blue is always reachable, green only after accepted prefixes
    assert "blue" in f.output(("b", "b", "z"))
    assert "green" not in f.output(("b", "b", "z"))
    assert f.output(("a", "z")) >= frozenset({"green", "blue"})


def test_reduction_language_and_output_law():
    # every string over the source alphabet stays alive, appending the fresh
    # symbol reveals acceptance through the color pair, and nothing survives
    # past that point
    rng = random.Random(2468)
    cases = [nfa_missing_bb(), sigma_star(("a", "b")), random_nfa(rng), random_nfa(rng)]
    for a in cases:
        instance = from_nfa_universality(a)
        f = instance.filter
        z = instance.fresh_symbol
        for _ in range(15):
            s = tuple(rng.choice(a.alphabet) for _ in range(rng.randint(0, 5)))
            assert f.in_language(s)
            flagged = s + (z,)
            assert f.in_language(flagged)
            expected = {"green", "blue"} if a.accepts(s) else {"blue"}
            assert f.output(flagged) == frozenset(expected), (s, a)
            assert not f.in_language(flagged + (rng.choice(f.observations),))


def test_fresh_symbol_avoids_collision():
    taken = Nfa(
        ["s"],
        ["s"],
        ("z", "z2"),
        {("s", "z"): frozenset({"s"}), ("s", "z2"): frozenset({"s"})},
        {"s"},
    )
    instance = from_nfa_universality(taken)
    assert instance.fresh_symbol not in ("z", "z2")


def test_nfa_reduction_agrees_on_random_instances():
    rng = random.Random(1333)
    for _ in range(40):
        a = random_nfa(rng)
        assert verify_reduction(from_nfa_universality(a))


def test_dfa_union_requires_deterministic_inputs():
    nd = Nfa(
        ["s", "t"],
        ["s"],
        ("a",),
        {("s", "a"): frozenset({"s", "t"})},
        {"t"},
    )
    with pytest.raises(NfaError):
        from_dfa_union([nd])


def unknown_kind():
    instance = from_nfa_universality(sigma_star(("a",)))
    return verify_reduction(ReductionInstance("other", instance.filter, instance.source,
                                              instance.fresh_symbol, instance.details))


@pytest.mark.parametrize("build, error, message", [
    (lambda: from_dfa_union([]), NfaError, "union reduction needs at least one automaton"),
    (unknown_kind, ValueError, "unknown reduction kind 'other'"),
])
def test_reduction_error_messages(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert type(raised.value) is error and str(raised.value) == message


def test_dfa_union_universal_pair():
    evens = subset_dfa(
        Nfa(
            ["e", "o"],
            ["e"],
            ("a",),
            {("e", "a"): frozenset({"o"}), ("o", "a"): frozenset({"e"})},
            {"e"},
        )
    )
    odds = subset_dfa(
        Nfa(
            ["e", "o"],
            ["e"],
            ("a",),
            {("e", "a"): frozenset({"o"}), ("o", "a"): frozenset({"e"})},
            {"o"},
        )
    )
    instance = from_dfa_union([evens, odds])
    assert instance.kind == "dfa-union-universality"
    decision = decide_size_k(instance.filter, 1)
    assert decision.outcome == YES
    assert verify_reduction(instance)
    alone = from_dfa_union([evens])
    assert decide_size_k(alone.filter, 1).outcome == NO
    assert verify_reduction(alone)


def test_dfa_union_empty_language_is_rejected():
    rejecting = subset_dfa(Nfa(["s"], ["s"], ("a",), {}, set()))
    with pytest.raises(NoAcceptingState):
        from_dfa_union([rejecting, rejecting])


def test_dfa_union_mixed_alphabets():
    only_a = subset_dfa(sigma_star(("a",)))
    only_b = subset_dfa(sigma_star(("b",)))
    instance = from_dfa_union([only_a, only_b])
    # "ab" is in neither language, so the union is not universal
    assert decide_size_k(instance.filter, 1).outcome == NO
    assert verify_reduction(instance)


def test_dfa_reduction_agrees_on_random_instances():
    rng = random.Random(90210)
    produced = 0
    for _ in range(40):
        dfas = [random_dfa(rng) for _ in range(rng.randint(1, 3))]
        try:
            instance = from_dfa_union(dfas)
        except NoAcceptingState:
            continue
        produced += 1
        assert verify_reduction(instance)
    assert produced >= 25


def test_reduction_verdict_matches_is_universal():
    # spot-check the two sides of verify_reduction separately
    a = nfa_missing_bb()
    universal, witness = is_universal(subset_dfa(a))
    assert not universal and witness == ("b", "b")
    instance = from_nfa_universality(a)
    assert decide_size_k(instance.filter, 1).outcome == NO
