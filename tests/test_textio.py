import functools
import json
import random
import re

import pytest

from filterkit import (
    Filter,
    FilterError,
    Nfa,
    NfaError,
    UnknownSymbol,
    donut_world,
    emit_filter,
    emit_nfa,
    fig3_input,
    filter_to_dot,
    format_string,
    parse_filter,
    parse_nfa,
    parse_string,
    prime_family,
    prime_family_minimizer,
)

from oracles import random_filter


def test_filter_roundtrip_exact_bytes():
    f = donut_world()
    text = emit_filter(f)
    again = parse_filter(text)
    assert again == f
    assert emit_filter(again) == text


def test_filter_roundtrip_random():
    rng = random.Random(314)
    for _ in range(30):
        f = random_filter(rng)
        assert parse_filter(emit_filter(f)) == f


def test_comment_lines_are_ignored():
    text = emit_filter(fig3_input())
    commented = "# a remark\n" + text.replace('"states"', '  # indented too\n  "states"', 1)
    assert parse_filter(commented) == fig3_input()


def test_comment_lines_keep_file_positions():
    text = '# remark\n{\n  # indented remark\n  "observations": ]\n}\n'
    with pytest.raises(FilterError, match=r"line 4 column 19 \(char 49\)"):
        parse_filter(text)


def test_line_separators_inside_strings_are_not_line_breaks():
    names = ["s\u2028t", "\u2029", "u\x85v"]
    f = Filter(names, names[:1], ("a",), {(names[0], names[1]): {"a"}}, ("c",),
               {s: {"c"} for s in names})
    raw = json.dumps(f.to_dict(), indent=2, ensure_ascii=False)
    assert "\u2028" in raw and "\x85" in raw
    assert parse_filter(raw) == f
    assert parse_filter("# comment \u2028 line\n" + raw) == f


def test_form_feed_between_tokens_is_not_json():
    text = emit_filter(fig3_input())
    for blank in ("\x0c", "\x0b"):
        with pytest.raises(FilterError, match="not valid JSON"):
            parse_filter(text.replace(",\n", "," + blank + "\n", 1))


def dumps_reference(f):
    return json.dumps(f.to_dict(), indent=2) + "\n"


def test_emit_filter_is_json_dumps_of_to_dict():
    filters = [donut_world(), fig3_input()]
    for r in range(1, 6):
        filters.append(prime_family(r))
        filters.append(prime_family_minimizer(min(r, 4)))
    filters.append(prime_family(5).determinize()[0])
    rng = random.Random(1618)
    for _ in range(100):
        f = random_filter(rng, max_states=6)
        filters += [f, f.determinize()[0]]
    # no transitions at all
    filters.append(Filter(["only"], ["only"], ("a",), {}, ("c",), {"only": {"c"}}))
    # names that need escaping: quotes, backslashes, control characters,
    # non-ASCII, astral characters and line separators
    odd = ['q"uote', "back\\slash", "tab\tnl\nnul\x00", "caf\u00e9", "\U0001f600",
           "ls\u2028ps\u2029nel\x85", "", "/", "\x7f"]
    symbols = ("\u00e9", 'y"', "\U0001d11e")
    colors = ("gr\u00fcn", "\\c", "\u2028")
    filters.append(Filter(
        odd, odd[::3], symbols,
        {(u, v): set(symbols[: 1 + (i + j) % 3])
         for i, u in enumerate(odd) for j, v in enumerate(odd) if (i * j) % 4 == 1},
        colors, {s: set(colors[: 1 + i % 3]) for i, s in enumerate(odd)}))
    for f in filters:
        assert emit_filter(f) == dumps_reference(f)


def test_emit_nfa_is_json_dumps_layout():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(1, 5)
        states = [f"q\u00e9{i}" for i in range(n)]
        alphabet = ("a", '"b', "\U0001f600")[: rng.randint(1, 3)]
        transitions = {}
        for s in states:
            for y in alphabet:
                targets = frozenset(t for t in states if rng.random() < 0.4)
                if targets:
                    transitions[(s, y)] = targets
        accepting = [s for s in states if rng.random() < 0.5]
        nfa = Nfa(states, states[:1], alphabet, transitions, accepting)
        rows = []
        for state in nfa.states:
            buckets = {}
            for symbol in nfa.alphabet:
                for target in sorted(nfa.transitions.get((state, symbol), ())):
                    buckets.setdefault(target, []).append(symbol)
            for target in sorted(buckets):
                rows.append({"from": state, "to": target, "symbols": buckets[target]})
        data = {
            "alphabet": list(nfa.alphabet),
            "states": list(nfa.states),
            "initial": sorted(nfa.initial),
            "accepting": sorted(nfa.accepting),
            "transitions": rows,
        }
        assert emit_nfa(nfa) == json.dumps(data, indent=2) + "\n"


def test_parse_filter_rejects_garbage():
    with pytest.raises(FilterError):
        parse_filter("not json at all")
    with pytest.raises(FilterError):
        parse_filter("[1, 2, 3]")
    with pytest.raises(FilterError):
        parse_filter('{"observations": ["a"]}')  # missing the other keys


def test_nfa_roundtrip():
    n = Nfa(
        ["s", "t"],
        ["s"],
        ("a", "b"),
        {("s", "a"): frozenset({"s", "t"}), ("t", "b"): frozenset({"s"})},
        {"t"},
    )
    text = emit_nfa(n)
    again = parse_nfa(text)
    assert again.states == n.states
    assert again.initial == n.initial
    assert again.alphabet == n.alphabet
    assert again.accepting == n.accepting
    assert again.transitions == n.transitions
    assert emit_nfa(again) == text


def test_parse_nfa_rejects_garbage():
    with pytest.raises(NfaError):
        parse_nfa("{]")
    with pytest.raises(NfaError):
        parse_nfa('{"alphabet": ["a"], "states": ["s"]}')


def test_dot_output_is_deterministic_and_well_formed():
    f = donut_world()
    dot = filter_to_dot(f)
    assert dot == filter_to_dot(donut_world())
    assert dot.startswith("digraph filter {")
    assert dot.rstrip().endswith("}")
    assert '"00" [label="00", fillcolor="red"' in dot
    assert '"01" [label="01", fillcolor="cyan"' in dot
    assert '"00" -> "01" [label="a"];' in dot
    # the initial state is fed by an arrow from an unlabeled point node
    assert '"__start0" [shape=point' in dot
    assert '"__start0" -> "00";' in dot


def test_dot_palette_for_unknown_colors():
    f = Filter(
        ["s", "t"],
        ["s"],
        ("y",),
        {("s", "t"): {"y"}},
        ("verdigris", "smalt"),
        {"s": {"verdigris"}, "t": {"verdigris", "smalt"}},
    )
    dot = filter_to_dot(f)
    assert 'fillcolor="#' in dot
    # multi-colored states list their colors in the label
    assert "smalt,verdigris" in dot


_DOT_QUOTED = r'"((?:[^"\\]|\\.)*)"'
_DOT_STATEMENT = re.compile(rf"  {_DOT_QUOTED}(?: -> {_DOT_QUOTED})?(?: \[(.*?)\])?;\n", re.DOTALL)
_DOT_HEAD = "digraph filter {\n  rankdir=LR;\n  node [shape=circle, style=filled];\n"


def dot_statements(dot):
    """(node, target or None, attribute values) of each statement of a DOT
    graph written by filter_to_dot, with the quoted strings unescaped.
    Fails unless every statement is one quoted node, or two joined by an
    arrow, with an optional bracketed attribute list."""
    assert dot.startswith(_DOT_HEAD) and dot.endswith("}\n")
    body = dot[len(_DOT_HEAD):-2]
    assert re.fullmatch(f"(?:{_DOT_STATEMENT.pattern})*", body, re.DOTALL)
    # \n in a label is Graphviz's line break; any other escaped character
    # stands for itself
    unescape = functools.partial(
        re.sub, r"\\(.)", lambda m: "\n" if m.group(1) == "n" else m.group(1), flags=re.DOTALL)
    return [
        (unescape(node), unescape(target) if target else None,
         [unescape(value) for value in re.findall(_DOT_QUOTED, attrs)])
        for node, target, attrs in _DOT_STATEMENT.findall(body)
    ]


def test_dot_quotes_names_and_keeps_start_nodes_apart():
    names = ['p"q', "back\\slash", "ends\\", "__start0", "two\nlines"]
    f = Filter(names, names[:2], ('say "a"', "b\\"),
               {(names[0], names[3]): {'say "a"'}, (names[3], names[2]): {"b\\"},
                (names[1], names[4]): {'say "a"', "b\\"}},
               ("red", "sea green"),
               {n: {"red"} if i % 2 else {"red", "sea green"} for i, n in enumerate(names)})
    statements = dot_statements(filter_to_dot(f))
    nodes = [node for node, target, _ in statements if target is None]
    starts = nodes[len(names):]
    assert nodes[:len(names)] == names
    assert len(starts) == 2 and not set(starts) & set(names)
    assert [(n, t) for n, t, _ in statements if n in starts and t] == [
        (starts[0], names[0]), (starts[1], names[1])]
    assert statements[0][2] == ['p"q\nred,sea green', "#a6cee3"]
    assert statements[1][2] == ["back\\slash", "red"]
    edges = {(n, t): attrs for n, t, attrs in statements if t and n not in starts}
    assert edges == {(names[0], names[3]): ['say "a"'], (names[3], names[2]): ["b\\"],
                     (names[1], names[4]): ['say "a",b\\']}
    # plain names print as before
    plain = filter_to_dot(donut_world())
    assert '"__start0" -> "00";' in plain and "\\" not in plain


def test_parse_string_forms():
    obs = ("a", "b", "c")
    assert parse_string("", obs) == ()
    assert parse_string("ε", obs) == ()
    assert parse_string("abc", obs) == ("a", "b", "c")
    assert parse_string("a b c", obs) == ("a", "b", "c")
    assert parse_string("a,b,c", obs) == ("a", "b", "c")
    assert parse_string(" a , b ", obs) == ("a", "b")
    long_obs = ("tick", "tock")
    assert parse_string("tick", long_obs) == ("tick",)
    assert parse_string("tick tock", long_obs) == ("tick", "tock")
    with pytest.raises(UnknownSymbol):
        parse_string("d", obs)
    with pytest.raises(UnknownSymbol):
        parse_string("ticktock", long_obs)
    with pytest.raises(UnknownSymbol):
        parse_string("tick tack", long_obs)


def test_format_string_inverse():
    assert format_string(()) == "ε"
    assert format_string(("a", "b")) == "ab"
    assert format_string(("tick", "tock")) == "tick tock"
    obs = ("a", "b")
    for s in [(), ("a",), ("a", "b", "a")]:
        assert parse_string(format_string(s), obs) == s
