import itertools
import random

import pytest

from filterkit import CapExceeded, Filter, Nfa, NfaError, is_included, is_universal
from filterkit.nfa import (
    complement,
    complete_dfa,
    is_equivalent,
    sigma_star,
    subset_construct,
    union,
)

from oracles import intersect_automata, random_filter, random_string


def filter_to_nfa(f, accepting):
    """A filter read as an NFA with the given accepting states."""
    transitions = {}
    for (src, dst), syms in f.transitions.items():
        for y in syms:
            transitions.setdefault((src, y), set()).add(dst)
    return Nfa(f.states, f.initial, f.observations, transitions, accepting)


def as_automaton(n):
    """An Nfa in the oracles' (initial, delta, accepting) form."""
    return tuple(n.initial), {k: tuple(v) for k, v in n.transitions.items()}, set(n.accepting)


def evens():
    """DFA for strings over {a} of even length."""
    return Nfa(
        ["e", "o"],
        ["e"],
        ("a",),
        {("e", "a"): frozenset({"o"}), ("o", "a"): frozenset({"e"})},
        {"e"},
    )


def contains_b():
    return Nfa(
        ["n", "y"],
        ["n"],
        ("a", "b"),
        {
            ("n", "a"): frozenset({"n"}),
            ("n", "b"): frozenset({"y"}),
            ("y", "a"): frozenset({"y"}),
            ("y", "b"): frozenset({"y"}),
        },
        {"y"},
    )


def test_shape_validation():
    with pytest.raises(NfaError):
        Nfa([], [], ("a",), {}, set())
    with pytest.raises(NfaError):
        Nfa(["s"], [], ("a",), {}, set())  # no initial state
    with pytest.raises(NfaError):
        Nfa(["s"], ["t"], ("a",), {}, set())
    with pytest.raises(NfaError):
        Nfa(["s"], ["s"], ("a",), {("s", "b"): frozenset({"s"})}, set())


def test_accepts():
    m = evens()
    assert m.accepts(())
    assert not m.accepts(("a",))
    assert m.accepts(("a", "a"))
    assert m.is_deterministic()
    assert m.is_complete()


def test_subset_construct_is_complete():
    rng = random.Random(31)
    for _ in range(40):
        f = random_filter(rng)
        n = filter_to_nfa(f, accepting=set(f.states))
        d = subset_construct(n)
        assert d.is_deterministic()
        assert d.is_complete()
        for _ in range(6):
            s = random_string(rng, f.observations)
            assert n.accepts(s) == d.accepts(s)


def test_subset_construct_cap():
    rng = random.Random(8)
    f = random_filter(rng, max_states=4, edge_bias=2.5)
    n = filter_to_nfa(f, accepting=set(f.states))
    with pytest.raises(CapExceeded):
        subset_construct(n, cap=1)


def test_subset_construct_suffixes_subsets_that_print_alike():
    # the subset {a, b} and the singleton {"a,b"} both print as {a,b}
    n = Nfa(["a", "b", "a,b"], ["a", "b"], ("y",), {("a", "y"): {"a,b"}}, {"a,b"})
    d = subset_construct(n)
    assert d.states == ("{a,b}", "{a,b}~2", "{}")
    assert d.accepting == {"{a,b}~2"}


def test_complement_and_intersection():
    m = contains_b()
    d = subset_construct(m)
    co = complement(d)
    for s in [(), ("a",), ("b",), ("a", "b"), ("a", "a")]:
        assert co.accepts(s) != m.accepts(s)
    _, _, accepting = intersect_automata(as_automaton(d), as_automaton(co), d.alphabet)
    assert not accepting  # no reachable pair accepts: the intersection is empty


def test_union_prefixes_state_names():
    u = union([evens(), evens()])
    assert u.accepts(("a", "a"))
    assert not u.accepts(("a",))
    assert len(u.states) == 4


def test_complement_requires_complete_dfa():
    partial = Nfa(["s"], ["s"], ("a",), {}, {"s"})
    with pytest.raises(NfaError):
        complement(partial)
    full = complete_dfa(partial)
    assert full.is_complete()
    assert not complement(full).accepts(())
    assert complement(full).accepts(("a",))


def test_inclusion_witness_is_shortest():
    # evens ⊆ contains_b fails; shortest counterexample is the empty string
    ok, witness = is_included(evens(), contains_b())
    assert not ok
    assert witness == ()
    # strings with a b ⊆ all strings holds
    ok, witness = is_included(contains_b(), sigma_star(("a", "b")))
    assert ok and witness is None


def test_inclusion_witness_nontrivial():
    # only-even-length ⊄ length-divisible-by-three; shortest gap is "aa"
    by_three = Nfa(
        ["0", "1", "2"],
        ["0"],
        ("a",),
        {
            ("0", "a"): frozenset({"1"}),
            ("1", "a"): frozenset({"2"}),
            ("2", "a"): frozenset({"0"}),
        },
        {"0"},
    )
    ok, witness = is_included(evens(), by_three)
    assert not ok
    assert witness == ("a", "a")


def test_inclusion_cap():
    rng = random.Random(77)
    f = random_filter(rng, max_states=4, edge_bias=2.0)
    n = filter_to_nfa(f, accepting=set(f.states))
    with pytest.raises(CapExceeded):
        is_included(n, n, cap=1)


def test_equivalence():
    assert is_equivalent(evens(), evens())
    assert not is_equivalent(evens(), sigma_star(("a",)))
    d = subset_construct(contains_b())
    assert is_equivalent(d, contains_b())


def test_universality():
    full, witness = is_universal(sigma_star(("a", "b")))
    assert full and witness is None
    notfull, witness = is_universal(contains_b())
    assert not notfull
    assert witness == ()  # empty string has no b


def test_mixed_alphabet_binary_ops():
    only_a = sigma_star(("a",))
    only_b = sigma_star(("b",))
    u = union([only_a, only_b])
    assert set(u.alphabet) == {"a", "b"}
    assert u.accepts(("a",)) and u.accepts(("b",))
    assert not u.accepts(("a", "b"))


def test_universality_agrees_with_enumeration():
    # for a 3-state automaton a shortest counterexample, if any, has length
    # under 2^3, so scanning every string up to that horizon is exhaustive
    rng = random.Random(5150)
    said_yes = said_no = 0
    for trial in range(40):
        f = random_filter(rng, max_states=3, max_symbols=2, edge_bias=1.5)
        accepting = {s for s in f.states if rng.random() < 0.8} or set(f.states)
        n = filter_to_nfa(f, accepting=accepting)
        full, witness = is_universal(n)
        horizon = 2 ** len(n.states)
        gap = None
        for length in range(horizon + 1):
            for s in itertools.product(n.alphabet, repeat=length):
                if not n.accepts(s):
                    gap = s
                    break
            if gap is not None:
                break
        assert full == (gap is None), trial
        if full:
            said_yes += 1
        else:
            said_no += 1
            assert len(witness) == len(gap)
            assert not n.accepts(witness)
    assert said_yes and said_no  # the sweep exercised both answers


def test_mutual_inclusion_is_equivalence():
    rng = random.Random(909)
    for _ in range(40):
        f1 = random_filter(rng, max_states=3, max_symbols=2)
        f2 = random_filter(rng, max_states=3, max_symbols=2)
        a = filter_to_nfa(f1, accepting={s for s in f1.states if rng.random() < 0.6})
        b = filter_to_nfa(f2, accepting={s for s in f2.states if rng.random() < 0.6})
        forward, _ = is_included(a, b)
        backward, _ = is_included(b, a)
        assert is_equivalent(a, b) == (forward and backward)
    # and one pair where equivalence actually holds
    assert is_equivalent(evens(), subset_construct(evens()))
