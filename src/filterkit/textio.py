"""Reading and writing filters, automata, observation strings, and DOT.

The on-disk format is JSON with one relaxation: a line whose first
non-blank character is ``#`` is a comment.  Lines end at ``\n`` only, so a
raw U+2028, U+2029 or U+0085 inside a string is part of that string, and a
comment line is blanked in place rather than dropped, so a "not valid JSON"
error gives the line and column of the file itself.

Emitters are deterministic, so identical inputs always serialize to
identical bytes.  ``emit_filter(f)`` is byte for byte
``json.dumps(f.to_dict(), indent=2) + "\n"``, and ``emit_nfa`` keeps the
same layout; both write it directly, quoting each name once.
"""

import json
import re

from .errors import FilterError, NfaError, UnknownSymbol
from .filters import Filter, _check_strings
from .nfa import Nfa

_COMMENT_LINE = re.compile(r"^[^\S\n]*#.*", re.MULTILINE)
_quote = json.encoder.encode_basestring_ascii


def _strip_comments(text):
    if "#" not in text:
        return text
    return _COMMENT_LINE.sub(lambda line: " " * len(line.group()), text)


def _load_json(text, error_cls):
    try:
        data = json.loads(_strip_comments(text))
    except json.JSONDecodeError as exc:
        raise error_cls(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise error_cls("not valid JSON: nested too deeply") from None
    if not isinstance(data, dict):
        raise error_cls("top-level JSON value must be an object")
    return data


def parse_filter(text):
    data = _load_json(text, FilterError)
    try:
        return Filter.from_dict(data)
    except (KeyError, TypeError, AttributeError) as exc:
        raise FilterError(f"malformed filter document: {exc!r}") from None


def _array(items, depth):
    """Encoded JSON values as json.dumps(..., indent=2) lays out an array
    that opens at nesting depth `depth`."""
    if not items:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "]"


def _object(fields, depth):
    """(key, encoded value) pairs laid out as a JSON object, like _array."""
    return "{" + _array([f"{_quote(key)}: {value}" for key, value in fields], depth)[1:-1] + "}"


def _strings(values, depth):
    return _array([_quote(v) for v in values], depth)


def emit_filter(f):
    """The filter document of f, equal to json.dumps(f.to_dict(), indent=2)
    followed by a newline.  Each name is quoted once, and each distinct
    color set and symbol set is laid out once."""
    color_rank = {c: i for i, c in enumerate(f.colors)}
    obs_rank = {y: i for i, y in enumerate(f.observations)}
    name = {s: _quote(s) for s in f.states}
    color_sets = {
        cs: _strings(sorted(cs, key=color_rank.__getitem__), 3)
        for cs in set(f.coloring.values())
    }
    symbol_sets = {
        ys: _strings(sorted(ys, key=obs_rank.__getitem__), 3)
        for ys in set(f.transitions.values())
    }
    index = f._index
    edges = sorted(f.transitions.items(), key=lambda e: (index[e[0][0]], index[e[0][1]]))
    # one layout per entry kind, filled in with %
    state_form = _object((("id", "%s"), ("colors", "%s")), 2)
    edge_form = _object((("from", "%s"), ("to", "%s"), ("symbols", "%s")), 2)
    states = [state_form % (name[s], color_sets[f.coloring[s]]) for s in f.states]
    transitions = [
        edge_form % (name[src], name[dst], symbol_sets[ys]) for (src, dst), ys in edges
    ]
    return _object((
        ("observations", _strings(f.observations, 1)),
        ("colors", _strings(f.colors, 1)),
        ("states", _array(states, 1)),
        ("initial", _array([name[s] for s in f.states if s in f.initial], 1)),
        ("transitions", _array(transitions, 1)),
    ), 0) + "\n"


def parse_nfa(text):
    """Parse an NFA document: like a filter, but with ``accepting`` states
    in place of colors."""
    data = _load_json(text, NfaError)

    def strings(values, what):
        return _check_strings(values, what, NfaError)

    try:
        alphabet = strings(data["alphabet"], "'alphabet'")
        states = strings(data["states"], "'states'")
        initial = strings(data["initial"], "'initial'")
        accepting = strings(data["accepting"], "'accepting'")
        transitions = {}
        rows = data.get("transitions", [])
        if not isinstance(rows, list):
            raise NfaError("'transitions' must be a list")
        for row in rows:
            src, dst = strings([row["from"], row["to"]], "transition ends")
            for symbol in strings(row["symbols"], "transition symbols"):
                key = (src, symbol)
                transitions[key] = transitions.get(key, frozenset()) | {dst}
    except (KeyError, TypeError, AttributeError) as exc:
        raise NfaError(f"malformed automaton document: {exc!r}") from None
    return Nfa(states, initial, alphabet, transitions, accepting)


def emit_nfa(n):
    rows = []
    for state in n.states:
        buckets = {}
        for symbol in n.alphabet:
            for target in sorted(n.transitions.get((state, symbol), ())):
                buckets.setdefault(target, []).append(symbol)
        for target in sorted(buckets):
            rows.append(_object((
                ("from", _quote(state)),
                ("to", _quote(target)),
                ("symbols", _strings(buckets[target], 3)),
            ), 2))
    return _object((
        ("alphabet", _strings(n.alphabet, 1)),
        ("states", _strings(n.states, 1)),
        ("initial", _strings(sorted(n.initial), 1)),
        ("accepting", _strings(sorted(n.accepting), 1)),
        ("transitions", _array(rows, 1)),
    ), 0) + "\n"


# Color names Graphviz understands directly; anything else falls back to a
# rotating pastel palette keyed by the order color sets first appear.
_DOT_NATIVE = {
    "black", "blue", "brown", "cyan", "gold", "gray", "green", "magenta",
    "orange", "pink", "purple", "red", "violet", "white", "yellow",
}
_DOT_PALETTE = (
    "#a6cee3", "#b2df8a", "#fb9a99", "#fdbf6f", "#cab2d6",
    "#ffff99", "#1f78b4", "#33a02c", "#e31a1c", "#ff7f00",
)
_DOT_DARK = {"black", "blue", "purple", "red", "brown", "#1f78b4", "#33a02c", "#e31a1c"}


def filter_to_dot(f):
    lines = ["digraph filter {", "  rankdir=LR;", '  node [shape=circle, style=filled];']
    assigned = {}
    for state in f.states:
        colors = sorted(f.coloring[state])
        if len(colors) == 1 and colors[0] in _DOT_NATIVE:
            fill = colors[0]
        else:
            key = tuple(colors)
            if key not in assigned:
                assigned[key] = _DOT_PALETTE[len(assigned) % len(_DOT_PALETTE)]
            fill = assigned[key]
        font = ", fontcolor=white" if fill in _DOT_DARK else ""
        label = state if len(colors) == 1 else f"{state}\\n{','.join(colors)}"
        lines.append(f'  "{state}" [label="{label}", fillcolor="{fill}"{font}];')
    # Initial states get an incoming arrow from an unlabeled point node.
    for index, state in enumerate(s for s in f.states if s in f.initial):
        lines.append(f'  "__start{index}" [shape=point, style=solid];')
        lines.append(f'  "__start{index}" -> "{state}";')
    for state in f.states:
        buckets = {}
        for symbol in f.observations:
            for target in f.successors(state, symbol):
                buckets.setdefault(target, []).append(symbol)
        for target in sorted(buckets):
            label = ",".join(buckets[target])
            lines.append(f'  "{state}" -> "{target}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse_string(text, observations):
    """Turn command-line text into a tuple of observation symbols.

    The empty string and ``ε`` denote the empty observation sequence.  Text
    containing whitespace or commas is split on them; otherwise it must be a
    single declared symbol, or, when every declared symbol is one character
    long, a run of such characters.
    """
    text = text.strip()
    if text in ("", "ε"):
        return ()
    obs = set(observations)
    if any(ch.isspace() or ch == "," for ch in text):
        tokens = [t for t in text.replace(",", " ").split() if t]
    elif text in obs:
        tokens = [text]
    elif all(len(symbol) == 1 for symbol in obs):
        tokens = list(text)
    else:
        raise UnknownSymbol(f"cannot read {text!r} as a sequence of observations")
    for token in tokens:
        if token not in obs:
            raise UnknownSymbol(f"unknown observation {token!r}")
    return tuple(tokens)


def format_string(symbols):
    symbols = tuple(symbols)
    if not symbols:
        return "ε"
    if all(len(symbol) == 1 for symbol in symbols):
        return "".join(symbols)
    return " ".join(symbols)
