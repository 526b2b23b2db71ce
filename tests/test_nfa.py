import itertools
import json
import random

import pytest

from filterkit import (
    CapExceeded,
    Nfa,
    NfaError,
    NoAcceptingState,
    emit_filter,
    emit_nfa,
    from_dfa_union,
    from_nfa_universality,
    is_included,
    is_universal,
    parse_nfa,
)
from filterkit.nfa import complete_dfa, sigma_star, union

from oracles import (
    NamedNfa,
    automaton_included,
    named_complete_dfa,
    named_dfa_union_filter,
    named_nfa_universality_filter,
    named_union,
    random_filter,
    random_string,
    subset_dfa,
)


def filter_to_nfa(f, accepting):
    """A filter read as an NFA with the given accepting states."""
    transitions = {}
    for (src, dst), syms in f.transitions.items():
        for y in syms:
            transitions.setdefault((src, y), set()).add(dst)
    return Nfa(f.states, f.initial, f.observations, transitions, accepting)


def is_complete(n):
    """True iff every state has a move on every symbol."""
    return all((s, y) in n.transitions for s in n.states for y in n.alphabet)


def equivalent(a, b):
    return is_included(a, b)[0] and is_included(b, a)[0]


def random_args(rng, deterministic=False, max_states=4):
    """The arguments of a seeded random Nfa over a prefix of abc.  The
    states are declared out of name order, and one may be named like a
    subset."""
    n = rng.randint(1, max_states)
    states = rng.sample([f"q{i}" for i in range(n)] + ["{q0}"], n)
    alphabet = tuple("abc"[: rng.randint(1, 3)])
    transitions = {}
    for s in states:
        for y in alphabet:
            if deterministic:
                if rng.random() < 0.8:
                    transitions[(s, y)] = {rng.choice(states)}
            else:
                transitions[(s, y)] = {t for t in states if rng.random() < 0.4}
    initial = [states[0]] if deterministic else [s for s in states if rng.random() < 0.4]
    accepting = [s for s in states if rng.random() < 0.5]
    return states, initial or states[:1], alphabet, transitions, accepting


def same_automaton(n, named):
    assert (n.states, n.alphabet, n.initial, n.accepting, n.transitions) == (
        named.states, named.alphabet, named.initial, named.accepting, named.transitions)
    assert n.is_deterministic() == named.is_deterministic()
    assert emit_nfa(n) == json.dumps(named.to_dict(), indent=2) + "\n"


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


@pytest.mark.parametrize("build, message", [
    (lambda: Nfa(["s"], ["s"], ("a", "a"), {}, set()), "duplicate alphabet symbols"),
    (lambda: Nfa(["s"], ["s"], ("a",), {("s", "a"): frozenset({"t"})}, set()),
     "transition target 't' is not declared"),
    (lambda: union([]), "union of no automata"),
])
def test_shape_error_messages(build, message):
    with pytest.raises(NfaError) as raised:
        build()
    assert type(raised.value) is NfaError and str(raised.value) == message


def test_accepts():
    m = evens()
    assert m.accepts(())
    assert not m.accepts(("a",))
    assert m.accepts(("a", "a"))
    assert m.is_deterministic()
    assert is_complete(m)


def test_automaton_with_an_empty_alphabet():
    # the empty string is the only string over no symbols, and no cell
    # exists for the determinism check to read
    n = Nfa(["s"], ["s"], (), {}, {"s"})
    assert n.is_deterministic()
    assert n.accepts(())
    assert not n.accepts(("a",))
    assert is_universal(n) == (True, None)
    text = emit_nfa(n)
    back = parse_nfa(text)
    assert (back.states, back.alphabet, back.transitions) == (("s",), (), {})
    assert back.initial == back.accepting == {"s"}
    assert emit_nfa(back) == text


def test_subset_construct_is_complete():
    # the tests build their DFAs through subset_dfa: each is complete and
    # deterministic, and accepts the language of the automaton it came from
    rng = random.Random(31)
    for _ in range(40):
        f = random_filter(rng)
        n = filter_to_nfa(f, accepting=set(f.states))
        d = subset_dfa(n)
        assert d.is_deterministic()
        assert is_complete(d)
        for _ in range(6):
            s = random_string(rng, f.observations)
            assert n.accepts(s) == d.accepts(s)


def test_subset_construct_suffixes_subsets_that_print_alike():
    # the subset {a, b} and the singleton {"a,b"} both print as {a,b}
    n = Nfa(["a", "b", "a,b"], ["a", "b"], ("y",), {("a", "y"): {"a,b"}}, {"a,b"})
    d = subset_dfa(n)
    assert d.states == ("{a,b}", "{a,b}~2", "{}")
    assert d.accepting == {"{a,b}~2"}


def test_union_prefixes_state_names():
    u = union([evens(), evens()])
    assert u.accepts(("a", "a"))
    assert not u.accepts(("a",))
    assert len(u.states) == 4


def test_complete_dfa_adds_a_trap_state():
    partial = Nfa(["s"], ["s"], ("a",), {}, {"s"})
    full = complete_dfa(partial)
    assert is_complete(full)
    assert full.accepts(())
    assert not full.accepts(("a",))
    with pytest.raises(NfaError):
        complete_dfa(union([partial, partial]))  # two initial states


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


def test_caps_below_one_are_refused():
    # a one-state automaton reaches one pair, which no cap below 1 admits
    one = Nfa(["p"], ["p"], ["a"], {}, ["p"])
    assert is_included(one, one, cap=1) == (True, None)
    for cap in (0, -5):
        with pytest.raises(ValueError):
            is_included(one, one, cap=cap)
        with pytest.raises(ValueError):
            is_universal(one, cap=cap)


def reached_inclusion_pairs(a, b):
    """The pairs (state of a, set of b's states) reached on the strings over
    a's alphabet, from each initial state of a with b's initial set."""
    start = frozenset(b.initial)
    queue = [(x, start) for x in sorted(a.initial)]
    seen = set(queue)
    for x, reached in queue:
        for y in a.alphabet:
            after = frozenset(t for s in reached for t in b.transitions.get((s, y), ()))
            for pair in ((x2, after) for x2 in a.transitions.get((x, y), ())):
                if pair not in seen:
                    seen.add(pair)
                    queue.append(pair)
    return len(seen)


def test_inclusion_cap_counts_every_reached_pair():
    # an inclusion that holds reaches every pair, the initial ones included:
    # a cap of exactly that many holds, one less raises
    rng = random.Random(3131)
    capped = 0
    for _ in range(200):
        a = Nfa(*random_args(rng, deterministic=rng.random() < 0.3))
        b = rng.choice((a, subset_dfa(a), sigma_star(a.alphabet),
                        union([a, Nfa(*random_args(rng))])))
        count = reached_inclusion_pairs(a, b)
        assert is_included(a, b, cap=count) == (True, None)
        if count > 1:
            with pytest.raises(CapExceeded):
                is_included(a, b, cap=count - 1)
            capped += 1
    assert capped >= 100
    # two initial states and no edges: the two initial pairs exceed a cap of 1
    two = Nfa(["p", "q"], ["p", "q"], ["a"], {}, [])
    assert is_included(two, two, cap=2) == (True, None)
    with pytest.raises(CapExceeded):
        is_included(two, two, cap=1)


def test_equivalence():
    assert equivalent(evens(), evens())
    assert not equivalent(evens(), sigma_star(("a",)))
    d = subset_dfa(contains_b())
    assert equivalent(d, contains_b())
    assert equivalent(evens(), subset_dfa(evens()))


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


def test_inclusion_matches_the_automaton_oracle():
    rng = random.Random(4242)
    gaps = deterministic_gaps = 0
    for trial in range(400):
        a_args = random_args(rng, deterministic=rng.random() < 0.4)
        b_args = random_args(rng, deterministic=rng.random() < 0.3)
        a, b = Nfa(*a_args), Nfa(*b_args)
        named_a, named_b = NamedNfa(*a_args), NamedNfa(*b_args)
        alphabet = a.alphabet + tuple(y for y in b.alphabet if y not in a.alphabet)
        gap = automaton_included(named_a.automaton(), named_b.automaton(), alphabet)
        star = ((0,), {(0, y): (0,) for y in b.alphabet}, {0})
        for (held, witness), want, deterministic, left in (
                (is_included(a, b), gap, a.is_deterministic(), named_a),
                (is_universal(b), automaton_included(star, named_b.automaton(), b.alphabet),
                 True, None)):
            assert held == (want is None), trial
            if held:
                assert witness is None
                continue
            gaps += 1
            assert len(witness) == len(want), trial
            assert left is None or left.accepts(witness)
            assert not named_b.accepts(witness)
            if deterministic:
                deterministic_gaps += 1
                assert witness == want, trial
    assert gaps >= 200 and deterministic_gaps >= 100


def test_automata_core_matches_named_reference():
    rng = random.Random(777)
    for trial in range(150):
        args = random_args(rng)
        n, named = Nfa(*args), NamedNfa(*args)
        same_automaton(n, named)
        for _ in range(8):
            string = random_string(rng, "abcd", max_len=5)
            assert n.accepts(string) == named.accepts(string), (trial, string)
        assert emit_filter(from_nfa_universality(n).filter) == emit_filter(
            named_nfa_universality_filter(named)), trial

        dfa_args = [random_args(rng, deterministic=True, max_states=3)
                    for _ in range(rng.randint(1, 3))]
        dfas = [Nfa(*d) for d in dfa_args]
        named_dfas = [NamedNfa(*d) for d in dfa_args]
        for d, named_d in zip(dfas, named_dfas):
            same_automaton(complete_dfa(d), named_complete_dfa(named_d))
            same_automaton(complete_dfa(d, "dcb"), named_complete_dfa(named_d, "dcb"))
        same_automaton(union(dfas + [n]), named_union(named_dfas + [named]))
        want = named_dfa_union_filter(named_dfas)
        if want is None:
            with pytest.raises(NoAcceptingState):
                from_dfa_union(dfas)
        else:
            assert emit_filter(from_dfa_union(dfas).filter) == emit_filter(want), trial
