"""Seeded fuzzing of every CLI command that reads a file.

Filter and automaton documents are mutated both as text (cut, spliced,
truncated, stray bytes) and as parsed JSON (a value swapped for one of
another type, a key dropped, an entry repeated), then fed to the commands
with small caps.  Every run must end in an exit code of the contract
(0, 1, 2 or 3) with no exception escaping ``main``.  The same mutations,
with edges listed twice, undeclared names and subclassed containers
besides, check ``Filter.from_dict`` against the two-pass reader kept in
``oracles``: the same filter, or the same exception and message.
"""

import contextlib
import copy
import io
import json
import random

from filterkit import Filter, donut_world, emit_filter, emit_nfa, fig3_input, prime_family
from filterkit.cli import main
from filterkit.errors import UnknownState, UnknownSymbol
from filterkit.nfa import Nfa

from oracles import random_filter, reference_from_dict

ODD_VALUES = [None, 0, -1, 2.5, True, "", "a", "s0", [], [1], ["a", 1], {}, {"id": "x"},
              [[["a"]]], " ", "#", "x" * 50]
SPLICE = ['"', "{", "}", "[", "]", ",", ":", "#", "\n", "\\", "\x00", " ", "\x0c", "é",
          "null", "1e999", '"a"', "[" * 40]


def small_nfa(rng):
    states = [f"q{i}" for i in range(rng.randint(1, 3))]
    alphabet = ("a", "b")
    transitions = {}
    for s in states:
        for y in alphabet:
            if rng.random() < 0.8:
                transitions[(s, y)] = frozenset({rng.choice(states)})
    accepting = [s for s in states if rng.random() < 0.5]
    return Nfa(states, states[:1], alphabet, transitions, accepting)


def strings_in(data):
    if isinstance(data, str):
        return [data]
    values = data.values() if isinstance(data, dict) else data if isinstance(data, list) else ()
    return [s for value in values for s in strings_in(value)]


def mutate_value(rng, data):
    """Swap one value deep inside data for an odd one or for another string
    of the document, or drop or repeat it."""
    data = copy.deepcopy(data)
    names = strings_in(data)
    node = data
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            return data
        key = rng.choice(keys)
        child = node[key]
        if isinstance(child, (dict, list)) and child and rng.random() < 0.6:
            node = child
            continue
        action = rng.random()
        if action < 0.3:
            node[key] = copy.deepcopy(rng.choice(ODD_VALUES))
        elif action < 0.6:
            node[key] = rng.choice(names)
        elif action < 0.8:
            del node[key]
        elif isinstance(node, list):
            node.append(copy.deepcopy(child))
        else:
            node[key] = [child, child]
        return data


def mutate_text(rng, text):
    action = rng.randrange(4)
    i = rng.randrange(len(text) + 1)
    j = min(len(text), i + rng.randint(1, 40))
    if action == 0:
        return text[:i] + text[j:]
    if action == 1:
        return text[:i] + rng.choice(SPLICE) + text[i:]
    if action == 2:
        return text[:i]
    return text[:i] + text[i:j] + text[i:]


def documents(rng, base_texts, count):
    for _ in range(count):
        text = rng.choice(base_texts)
        if rng.random() < 0.5:
            yield json.dumps(mutate_value(rng, json.loads(text)), indent=rng.choice((None, 2)))
        else:
            yield mutate_text(rng, text)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def check(argv, docs):
    code, err = run_cli(argv)
    assert code in (0, 1, 2, 3), (argv, code, docs)
    assert "Traceback" not in err, (argv, err, docs)


def test_cli_survives_mutated_documents(tmp_path):
    rng = random.Random(20261018)
    filters = [fig3_input(), donut_world(), prime_family(2)]
    filters += [random_filter(rng, max_states=4) for _ in range(3)]
    filter_texts = [emit_filter(f) for f in filters]
    nfa_texts = [emit_nfa(small_nfa(rng)) for _ in range(3)]
    good = tmp_path / "good.json"
    good.write_text(filter_texts[0], encoding="utf-8")
    bad = tmp_path / "bad.json"

    deep = '{"observations": ' + "[" * 100_000 + "]" * 100_000 + "}"
    for text in [deep, *documents(rng, filter_texts, 70)]:
        if rng.random() < 0.1:
            bad.write_bytes(text.encode("utf-8", "surrogatepass")[:-1] + b"\xff\xfe")
        else:
            bad.write_text(text, encoding="utf-8", errors="surrogatepass")
        path = str(bad)
        for argv in (
            ["validate", path],
            ["trace", rng.choice(["", "ε", "a", "ab", "a b", "zz", "a,c"]), path],
            ["trim", path],
            ["determinize", "--cap", str(rng.randint(1, 12)), path],
            ["check-sim", "--cap", str(rng.randint(1, 60)), path, str(good)],
            ["check-sim", "--cap", str(rng.randint(1, 60)), str(good), path],
            ["minimize", "--mode", rng.choice(["det", "nondet"]),
             "--candidate-cap", str(rng.randint(1, 30)), path],
            ["export-dot", path],
        ):
            check(argv, [text])

    for text in documents(rng, nfa_texts, 40):
        bad.write_text(text, encoding="utf-8", errors="surrogatepass")
        other = tmp_path / "other.json"
        other.write_text(rng.choice(nfa_texts), encoding="utf-8")
        check(["reduce", "nfa-universality", str(bad)], [text])
        check(["reduce", "dfa-union", str(other), str(bad)], [text])


class Mapping(dict):
    pass


class Strings(list):
    pass


class Name(str):
    pass


def subclassed(data, rng):
    """data with some of its dicts, lists and strings made subclass values."""
    if isinstance(data, dict):
        items = {key: subclassed(value, rng) for key, value in data.items()}
        return Mapping(items) if rng.random() < 0.3 else items
    if isinstance(data, list):
        items = [subclassed(value, rng) for value in data]
        return Strings(items) if rng.random() < 0.3 else items
    if isinstance(data, str) and rng.random() < 0.3:
        return Name(data)
    return data


def split_edges(data, rng):
    """data with some edges listed twice or more, each listing carrying
    some of the edge's symbols, or a symbol foreign to the filter."""
    rows = []
    for row in data["transitions"]:
        copies = rng.randint(1, 3)
        for _ in range(copies):
            symbols = [y for y in row["symbols"] if rng.random() < 0.6]
            if rng.random() < 0.1:
                symbols.insert(rng.randint(0, len(symbols)), rng.choice(["zz", "yy"]))
            rows.insert(rng.randint(0, len(rows)), dict(row, symbols=symbols))
    return dict(data, transitions=rows)


def rename(data, rng):
    """data with one state, symbol or color name swapped for a new one in
    one place, so that it is undeclared there (or declared twice), or with
    the colors of one state left out."""
    data = copy.deepcopy(data)
    if rng.random() < 0.2:
        entry = rng.choice(data["states"])
        if rng.random() < 0.5:
            entry["colors"] = []
        else:
            del entry["colors"]
        return data
    places = [(row, key) for row in data["transitions"] for key in ("from", "to")]
    places += [(entry, "id") for entry in data["states"]]
    places += [(row["symbols"], k) for row in data["transitions"]
               for k in range(len(row["symbols"]))]
    places += [(entry["colors"], k) for entry in data["states"]
               for k in range(len(entry["colors"]))]
    places += [(data[key], k) for key in ("initial", "observations", "colors")
               for k in range(len(data[key]))]
    node, key = rng.choice(places)
    node[key] = rng.choice(["s0", "s1", "a", "b", "x", "zz", "q9"])
    return data


def retype(data, rng):
    """data with one state id replaced, wherever it appears, by a value of
    another JSON type, so that the document is consistent but for that."""
    data = copy.deepcopy(data)
    old, new = rng.choice(data["states"])["id"], rng.choice([7, 2.5, None, True])
    for entry in data["states"]:
        entry["id"] = new if entry["id"] == old else entry["id"]
    for row in data["transitions"]:
        row["from"] = new if row["from"] == old else row["from"]
        row["to"] = new if row["to"] == old else row["to"]
    data["initial"] = [new if s == old else s for s in data["initial"]]
    return data


def outcome(read, data):
    try:
        f = read(data)
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)
    return f, emit_filter(f)


def first_undeclared_in_edges(data):
    """The error of the first transition entry, in document order, that
    names an undeclared state or symbol."""
    states, observations = {e["id"] for e in data["states"]}, set(data["observations"])
    for row in data["transitions"]:
        for end, name in (("source", row["from"]), ("target", row["to"])):
            if name not in states:
                return UnknownState, f"transition {end} {name!r} is not declared"
        for y in row["symbols"]:
            if y not in observations:
                return UnknownSymbol, f"transition symbol {y!r} is not declared"
    return None


def test_from_dict_matches_the_two_pass_reader():
    """Filter.from_dict raises what the two-pass reader raises, or builds
    the same filter.  One difference is meant: where an edge is listed more
    than once, the two-pass reader merged its symbols into a set first, so
    it reported an undeclared name at the edge's first listing, and chose
    among two undeclared symbols by the set's hash order; one pass reports
    the first entry, in document order, that names one."""
    rng = random.Random(20261019)
    bases = [json.loads(emit_filter(f)) for f in (fig3_input(), donut_world(), prime_family(2))]
    bases += [json.loads(emit_filter(random_filter(rng, max_states=5))) for _ in range(60)]
    kinds = {"valid": 0, "failed": 0, "edge listed twice": 0}
    for n in range(2400):
        data = rng.choice(bases)
        if rng.random() < 0.4:
            data = split_edges(data, rng)
        if rng.random() < 0.3:
            data = rename(data, rng)
        if rng.random() < 0.05:
            data = retype(data, rng)
        for _ in range(rng.choice((0, 0, 1, 2))):
            data = mutate_value(rng, data)
        if rng.random() < 0.3:
            data = subclassed(data, rng)
        expected = outcome(reference_from_dict, data)
        if expected[0] in (UnknownState, UnknownSymbol) and expected[1].startswith("transition"):
            ends = [(row["from"], row["to"]) for row in data["transitions"]]
            if len(set(ends)) < len(ends):
                expected = first_undeclared_in_edges(data)
                kinds["edge listed twice"] += 1
        got = outcome(Filter.from_dict, data)
        assert got == expected, (n, data)
        kinds["valid" if isinstance(expected[0], Filter) else "failed"] += 1
    assert kinds["valid"] >= 500 and kinds["failed"] >= 500, kinds
