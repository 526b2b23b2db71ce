"""Seeded fuzzing of every CLI command that reads a file.

Filter and automaton documents are mutated both as text (cut, spliced,
truncated, stray bytes) and as parsed JSON (a value swapped for one of
another type, a key dropped, an entry repeated), then fed to the commands
with small caps.  Every run must end in an exit code of the contract
(0, 1, 2 or 3) with no exception escaping ``main``.
"""

import contextlib
import copy
import io
import json
import random

from filterkit import donut_world, emit_filter, emit_nfa, fig3_input, prime_family
from filterkit.cli import main
from filterkit.nfa import Nfa

from oracles import random_filter

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
