import json
import random
from unittest import mock

import pytest

from filterkit import (
    CapExceeded,
    EmptyColorSet,
    Filter,
    FilterError,
    NoInitialState,
    UnknownState,
    UnknownSymbol,
    donut_world,
    emit_filter,
    families,
    fig3_input,
    fig3_minimizer,
    prime_family,
)

from filterkit.filters import _Reached

from oracles import (
    NamedFilter,
    colors_of,
    random_description,
    random_filter,
    random_string,
    step_set,
    walk,
)


def two_lamp():
    """Tiny nondeterministic fixture: one observation, uncertain target."""
    return Filter(
        states=["off", "dim", "lit"],
        initial=["off"],
        observations=("tick",),
        transitions={("off", "dim"): {"tick"}, ("off", "lit"): {"tick"}},
        colors=("dark", "bright"),
        coloring={"off": {"dark"}, "dim": {"dark"}, "lit": {"bright"}},
    )


def test_basic_shape():
    f = two_lamp()
    assert f.size() == 3
    assert f.observations == ("tick",)
    assert not f.is_deterministic()
    assert f.out_symbols("off") == {"tick"}
    assert f.successors("off", "tick") == ("dim", "lit")
    assert f.successors("lit", "tick") == ()


def test_trace_and_output():
    f = two_lamp()
    assert f.output(()) == frozenset({"dark"})
    assert f.output(("tick",)) == frozenset({"dark", "bright"})
    # second tick crashes: neither dim nor lit has outgoing edges
    result = f.trace(("tick", "tick"))
    assert result.crashed
    assert f.output(("tick", "tick")) is None
    assert f.in_language(("tick",))
    assert not f.in_language(("tick", "tick"))


def test_trace_rejects_unknown_symbol():
    with pytest.raises(UnknownSymbol):
        two_lamp().trace(("tock",))


def test_every_argument_may_be_a_one_shot_iterator():
    # each argument is read once, so iterators build the filter that lists do
    args = (["s0", "s1"], ["s1", "s0"], ["a"], {("s0", "s1"): {"a"}}, ["c"],
            {"s0": ["c"], "s1": ["c"]})
    f = Filter(*(iter(arg) if isinstance(arg, list) else arg for arg in args))
    assert f.to_dict() == Filter(*args).to_dict()
    assert Filter(["s0"], iter(["s0"]), ["a"], {}, ["c"], {"s0": ["c"]}).initial == {"s0"}
    with pytest.raises(UnknownState, match="initial state 's1' is not declared"):
        Filter(["s0"], iter(["s1"]), ["a"], {}, ["c"], {"s0": ["c"]})
    with pytest.raises(NoInitialState, match="filter has no initial state"):
        Filter(["s0"], iter([]), ["a"], {}, ["c"], {"s0": ["c"]})


def test_validation_errors():
    with pytest.raises(NoInitialState):
        Filter(["a"], [], ("y",), {}, ("c",), {"a": {"c"}})
    with pytest.raises(EmptyColorSet):
        Filter(["a"], ["a"], ("y",), {}, ("c",), {"a": set()})
    with pytest.raises(UnknownState):
        Filter(["a"], ["b"], ("y",), {}, ("c",), {"a": {"c"}})
    with pytest.raises(UnknownState):
        Filter(["a"], ["a"], ("y",), {("a", "b"): {"y"}}, ("c",), {"a": {"c"}})
    with pytest.raises(UnknownSymbol):
        Filter(["a"], ["a"], ("y",), {("a", "a"): {"w"}}, ("c",), {"a": {"c"}})
    with pytest.raises(FilterError):
        # undeclared color
        Filter(["a"], ["a"], ("y",), {}, ("c",), {"a": {"d"}})
    with pytest.raises(FilterError):
        # duplicate state id
        Filter(["a", "a"], ["a"], ("y",), {}, ("c",), {"a": {"c"}})
    with pytest.raises(FilterError):
        # empty alphabet
        Filter(["a"], ["a"], (), {}, ("c",), {"a": {"c"}})


@pytest.mark.parametrize("build, error, message", [
    # a coloring may name only declared states; a document colors its
    # states in their own entries, so only the constructor can err here
    (lambda: Filter(["a"], ["a"], ("y",), {}, ("c",), {"a": {"c"}, "b": {"c"}}),
     UnknownState, "colored state 'b' is not declared"),
    (lambda: Filter.from_dict([]), FilterError, "filter description must be a mapping"),
])
def test_validation_error_messages(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert type(raised.value) is error and str(raised.value) == message


def test_determinism_flag():
    det = Filter(
        ["a", "b"], ["a"], ("y",), {("a", "b"): {"y"}}, ("c",), {"a": {"c"}, "b": {"c"}}
    )
    assert det.is_deterministic()
    multi_init = Filter(
        ["a", "b"], ["a", "b"], ("y",), {}, ("c",), {"a": {"c"}, "b": {"c"}}
    )
    assert not multi_init.is_deterministic()


def test_trim_drops_unreachable():
    f = Filter(
        ["a", "b", "orphan"],
        ["a"],
        ("y",),
        {("a", "b"): {"y"}, ("orphan", "a"): {"y"}},
        ("c",),
        {"a": {"c"}, "b": {"c"}, "orphan": {"c"}},
    )
    t = f.trim()
    assert [s for s in t.states] == ["a", "b"]
    # already-trim filters come back unchanged
    assert t.trim() is t


def test_determinize_two_lamp():
    f = two_lamp()
    det, mapping = f.determinize()
    assert det.is_deterministic()
    assert det.size() == 2
    (start,) = det.initial
    assert mapping[start] == frozenset({"off"})
    merged = [s for s in det.states if mapping[s] == frozenset({"dim", "lit"})]
    assert len(merged) == 1
    assert det.coloring[merged[0]] == frozenset({"dark", "bright"})


def test_determinize_matches_naive_walk():
    rng = random.Random(2024)
    for _ in range(60):
        f = random_filter(rng)
        det, _ = f.determinize()
        assert det.is_deterministic()
        for _ in range(8):
            s = random_string(rng, f.observations)
            assert f.output(s) == det.output(s), (f, s)


def test_determinize_cap():
    rng = random.Random(5)
    f = random_filter(rng, max_states=4, max_symbols=3, edge_bias=2.5)
    with pytest.raises(CapExceeded):
        f.determinize(cap=1)


def test_determinize_name_collision():
    # a state whose id contains a comma collides with a genuine subset name
    f = Filter(
        ["x,y", "x", "y"],
        ["x,y", "x"],
        ("a",),
        {("x,y", "x,y"): {"a"}, ("x", "x"): {"a"}, ("x", "y"): {"a"}},
        ("c",),
        {"x,y": {"c"}, "x": {"c"}, "y": {"c"}},
    )
    det, mapping = f.determinize()
    assert det.is_deterministic()
    assert len(set(det.states)) == len(det.states)
    for name, subset in mapping.items():
        assert subset  # never the empty subset
    for s in ["a", "aa"]:
        assert det.output(tuple(s)) == f.output(tuple(s))


def test_determinize_suffixes_subsets_that_print_alike():
    # the subset {a, b} and the singleton {"a,b"} both print as {a,b}
    f = Filter(
        ["a", "b", "a,b"],
        ["a", "b"],
        ("y",),
        {("a", "a,b"): {"y"}},
        ("c",),
        {"a": {"c"}, "b": {"c"}, "a,b": {"c"}},
    )
    det, mapping = f.determinize()
    assert det.states == ("{a,b}", "{a,b}~2")
    assert mapping == {"{a,b}": frozenset({"a", "b"}), "{a,b}~2": frozenset({"a,b"})}


def reached_sets_oracle(f):
    """f's nonempty reached sets as frozensets of names, breadth-first from
    the initial set with the observations in declared order: (sets, their
    colors, per set and observation the position of its successor or -1)."""
    order = [frozenset(f.initial)]
    position = {order[0]: 0}
    after = []
    for current in order:
        row = []
        for y in f.observations:
            nxt = step_set(f, current, y)
            if nxt and nxt not in position:
                position[nxt] = len(order)
                order.append(nxt)
            row.append(position[nxt] if nxt else -1)
        after.append(row)
    return order, [colors_of(f, states) for states in order], after


def named(mask, names):
    return frozenset(name for j, name in enumerate(names) if mask >> j & 1)


def test_reached_table_matches_a_frozenset_walk():
    # the full table lists the oracle's sets in its order, with the same
    # successors and colors; one filled only up to row r, as a walk leaves
    # it, agrees with the full table on every row and set it holds
    rng = random.Random(2323)
    filters = [random_filter(rng, max_states=5) for _ in range(200)]
    filters += [prime_family(r) for r in (1, 2, 3, 4)]
    filters += [donut_world(), fig3_input(), fig3_minimizer()]
    partial = 0
    for f in filters:
        order, colors, after = reached_sets_oracle(f)
        full = _Reached(f)
        assert full.fill() == len(order)
        assert [named(mask, f.states) for mask in full.members] == order
        assert [named(mask, f.colors) for mask in full.colors] == colors
        assert [list(row) for row in zip(*full.after)] == after
        for r in sorted(rng.sample(range(len(order)), min(4, len(order)))):
            part = _Reached(f)
            part.fill(r // 2)
            assert part.fill(r) == part.done == r + 1
            numbered = len(part.members)
            partial += numbered < len(order)
            assert part.members == full.members[:numbered]
            assert part.colors == full.colors[:numbered]
            assert part.after == [row[:r + 1] for row in full.after]
    assert partial >= 100


def test_roundtrip_dict():
    f = two_lamp()
    again = Filter.from_dict(f.to_dict())
    assert again == f
    assert hash(again) == hash(f)
    assert again.to_dict() == f.to_dict()


def test_equality_is_structural():
    assert two_lamp() == two_lamp()
    other = two_lamp().trim()
    assert other == two_lamp()  # already trim, so identical
    det, _ = two_lamp().determinize()
    assert det != two_lamp()


def test_output_agrees_with_oracle_walk():
    rng = random.Random(99)
    for _ in range(40):
        f = random_filter(rng)
        s = random_string(rng, f.observations)
        reached = walk(f, s)
        if reached:
            expect = frozenset().union(*(f.coloring[v] for v in reached))
            assert f.output(s) == expect
        else:
            assert f.output(s) is None


def test_all_initial_filter_builds_in_linear_time():
    names = [f"s{i}" for i in range(50_000)]
    f = Filter(names, names, ("y",), {}, ("c",), {s: {"c"} for s in names})
    assert f.initial == frozenset(names)


def test_from_dict_accepts_subclasses_and_merges_repeated_edges():
    from collections import OrderedDict

    class Name(str):
        pass

    data = {
        "observations": ["a", "b"],
        "colors": ["c"],
        "states": [OrderedDict(id=Name("p"), colors=["c"]), {"id": "q", "colors": [Name("c")]}],
        "initial": ["p"],
        "transitions": [
            {"from": "p", "to": "q", "symbols": ["a"]},
            OrderedDict([("from", "p"), ("to", "q"), ("symbols", ["b"])]),
        ],
    }
    f = Filter.from_dict(data)
    assert f.transitions == {("p", "q"): frozenset({"a", "b"})}
    assert f.states == ("p", "q")
    data["transitions"].append({"from": "q", "to": 7, "symbols": ["a"]})
    with pytest.raises(FilterError, match="transition ends must be strings, not 7"):
        Filter.from_dict(data)


def core_descriptions():
    """The arguments of Filter for about 300 seeded random filters, donut,
    the fig3 pair and prime r=1..4; the families' arguments are captured
    before any Filter is built from them."""
    rng = random.Random(8080)
    described = []
    for _ in range(300):
        states, initial, observations, transitions, colors, coloring = \
            random_description(rng, max_states=5)
        # names that sort in another order than they are declared in
        name = dict(zip(states, rng.sample([f"t{i}" for i in range(len(states))], len(states))))
        described.append((
            [name[s] for s in states], [name[s] for s in initial], observations,
            {(name[a], name[b]): ys for (a, b), ys in transitions.items()},
            colors, {name[s]: cs for s, cs in coloring.items()},
        ))
    makers = [donut_world, fig3_input, fig3_minimizer]
    makers += [lambda r=r: prime_family(r) for r in range(1, 5)]
    with mock.patch.object(families, "Filter", lambda *args: args):
        described += [maker() for maker in makers]
    return described


def test_core_matches_the_named_oracle():
    rng = random.Random(4242)
    built = []  # (filter, oracle) pairs
    for args in core_descriptions():
        f, o = Filter(*args), NamedFilter(*args)
        assert emit_filter(f) == o.document()
        assert (f.initial, f.transitions, f.coloring) == (o.initial, o.transitions, o.coloring)
        assert f.is_deterministic() == o.is_deterministic()
        for s in f.states:
            assert f.out_symbols(s) == o.out_symbols(s)
            for y in f.observations:
                assert f.successors(s, y) == o.successors(s, y)
        for _ in range(12):
            string = random_string(rng, f.observations + ("?",), max_len=8)
            if o.trace(string) is None:
                with pytest.raises(UnknownSymbol):
                    f.trace(string)
                continue
            assert f.trace(string).reached == o.trace(string)
            assert f.output(string) == o.output(string)
        t, ot = f.trim(), o.trim()
        assert emit_filter(t) == ot.document()
        d, mapping = f.determinize()
        od, omapping = o.determinize()
        assert emit_filter(d) == od.document()
        assert mapping == omapping
        assert d.is_deterministic() == od.is_deterministic()
        for s in d.states:
            assert d.out_symbols(s) == od.out_symbols(s)
        built += [(f, o), (t, ot), (d, od)]
    for (f, o), (g, p) in zip(built, built[1:]):
        assert (f == g) == (o.key() == p.key())
    for f, o in built:
        again = Filter.from_dict(json.loads(emit_filter(f)))
        # the same description, listed in another order
        shuffled = Filter(f.states, sorted(f.initial, reverse=True), f.observations,
                          dict(reversed(list(f.transitions.items()))), f.colors,
                          dict(reversed(list(f.coloring.items()))))
        reordered = Filter(f.states[::-1], f.initial, f.observations, f.transitions,
                           f.colors, f.coloring)
        assert again == f == shuffled and hash(again) == hash(f) == hash(shuffled)
        assert (reordered == f) == (len(f.states) == 1)
        if f.transitions:
            fewer = (f.states, f.initial, f.observations, dict(list(f.transitions.items())[1:]),
                     f.colors, f.coloring)
            assert Filter(*fewer) != f and NamedFilter(*fewer).key() != o.key()
