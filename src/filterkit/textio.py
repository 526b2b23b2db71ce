"""Reading and writing filters, automata, observation strings, and DOT.

The on-disk format is JSON with one relaxation: lines whose first non-blank
character is ``#`` are treated as comments and dropped before parsing.
Emitters are deterministic, so identical inputs always serialize to
identical bytes.
"""

import json

from .errors import FilterError, NfaError, UnknownSymbol
from .filters import Filter, _check_strings
from .nfa import Nfa


def _strip_comments(text):
    kept = [line for line in text.splitlines() if not line.lstrip().startswith("#")]
    return "\n".join(kept)


def _load_json(text, error_cls):
    try:
        data = json.loads(_strip_comments(text))
    except json.JSONDecodeError as exc:
        raise error_cls(f"not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise error_cls("top-level JSON value must be an object")
    return data


def parse_filter(text):
    data = _load_json(text, FilterError)
    try:
        return Filter.from_dict(data)
    except (KeyError, TypeError, AttributeError) as exc:
        raise FilterError(f"malformed filter document: {exc!r}") from None


def emit_filter(f):
    return json.dumps(f.to_dict(), indent=2) + "\n"


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
            rows.append({"from": state, "to": target, "symbols": buckets[target]})
    data = {
        "alphabet": list(n.alphabet),
        "states": list(n.states),
        "initial": sorted(n.initial),
        "accepting": sorted(n.accepting),
        "transitions": rows,
    }
    return json.dumps(data, indent=2) + "\n"


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
