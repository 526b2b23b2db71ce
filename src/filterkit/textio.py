"""Reading and writing filters, automata, observation strings, and DOT.

The on-disk format is JSON with one relaxation: a line whose first
non-blank character is ``#`` is a comment.  Lines end at ``\n`` only, so a
raw U+2028, U+2029 or U+0085 inside a string is part of that string, and a
comment line is blanked in place rather than dropped, so a "not valid JSON"
error gives the line and column of the file itself.

Emitters are deterministic, so identical inputs always serialize to
identical bytes.  ``emit_filter(f)`` is byte for byte
``json.dumps(f.to_dict(), indent=2) + "\n"``, and ``emit_nfa`` keeps the
same layout.  Every writer reads the one sorted edge list of the tables,
and a document is one list of pieces, joined once: each name is quoted
once, and each source's prefix and symbol set's suffix laid out once.
"""

import json
import re

from .errors import FilterError, NfaError, UnknownSymbol
from .filters import Filter, _check_strings, _fresh_name, _names
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


def _field(values):
    """The JSON array of the strings values, never empty, as a field value."""
    return "[\n        " + ",\n        ".join(map(_quote, values)) + "\n      ]"


# As json.dumps(..., indent=2) lays them out, each entry of a top-level
# array opens with _ENTRY, and an object entry opens with _OBJECT,
# separates its fields with _FIELD and closes with _CLOSE.
_ENTRY = ",\n    "
_OBJECT, _FIELD, _CLOSE = _ENTRY + "{\n      ", ",\n      ", "\n    }"


def _lines(values):
    return [_ENTRY + _quote(v) for v in values]


def _document(fields):
    """The object of fields, (key, entries) pairs of arrays, as json.dumps(...,
    indent=2) lays it out with a final newline, joined once; entries are the
    pieces of the entries of an array, each entry opening with _ENTRY."""
    out = []
    for key, entries in fields:
        out.append(",\n  " + _quote(key) + (": [" if entries else ": []"))
        if entries:
            entries[0] = entries[0][1:]  # the first entry has no comma
            out += entries + ["\n  ]"]
    out[0] = "{\n" + out[0][2:]
    return "".join(out + ["\n}\n"])


def _edge_entries(name, target, symbols, edges):
    """The pieces of the "transitions" entries of edges, a _Tables._edges
    list whose sources and targets have the quoted names name and target:
    per edge, its source's prefix, its target's name and its mask's suffix."""
    sources, targets, masks = edges
    source = [_OBJECT + '"from": ' + s + _FIELD + '"to": ' for s in name]
    label = {m: _FIELD + '"symbols": ' + _field(_names(m, symbols)) + _CLOSE
             for m in set(masks)}
    out = [None] * (3 * len(masks))
    out[0::3] = map(source.__getitem__, sources)
    out[1::3] = map(target.__getitem__, targets)
    out[2::3] = map(label.__getitem__, masks)
    return out


def emit_filter(f):
    """The filter document of f, equal to json.dumps(f.to_dict(), indent=2)
    followed by a newline."""
    name = [_quote(s) for s in f.states]
    colored = {m: _FIELD + '"colors": ' + _field(_names(m, f.colors)) + _CLOSE
               for m in set(f._color)}
    return _document((
        ("observations", _lines(f.observations)),
        ("colors", _lines(f.colors)),
        ("states", [_OBJECT + '"id": ' + s + colored[m] for s, m in zip(name, f._color)]),
        ("initial", [_ENTRY + name[i] for i in f._init]),
        ("transitions", _edge_entries(name, name, f.observations, f._edges())),
    ))


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
        transitions = {}  # (source, symbol) -> its targets, frozen by Nfa
        rows = data.get("transitions", [])
        if not isinstance(rows, list):
            raise NfaError("'transitions' must be a list")
        for row in rows:
            src, dst = strings([row["from"], row["to"]], "transition ends")
            for symbol in strings(row["symbols"], "transition symbols"):
                transitions.setdefault((src, symbol), set()).add(dst)
    except (KeyError, TypeError, AttributeError) as exc:
        raise NfaError(f"malformed automaton document: {exc!r}") from None
    return Nfa(states, initial, alphabet, transitions, accepting)


def emit_nfa(n):
    """The automaton document of n: the layout of emit_filter, with each
    source's edges ordered by target name and the initial and accepting
    states sorted by name."""
    names = n.states
    name = [_quote(s) for s in names]
    order = sorted(range(len(names)), key=names.__getitem__)
    return _document((
        ("alphabet", _lines(n.alphabet)),
        ("states", [_ENTRY + s for s in name]),
        ("initial", _lines(sorted(names[i] for i in n._init))),
        ("accepting", _lines(sorted(_names(n._accept, names)))),
        ("transitions", _edge_entries(name, [name[i] for i in order], n.alphabet,
                                      n._edges(order))),
    ))


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


def _dot_escape(text):
    """text for the inside of a double-quoted DOT string."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def filter_to_dot(f):
    """Graphviz DOT of f.  Names and labels are quoted with backslash and
    double quote escaped, and the point nodes that mark the initial states
    are named __start0, __start1, ... unless a state already has that
    name, in which case the name gets a ~2, ~3, ... suffix."""
    lines = ["digraph filter {", "  rankdir=LR;", '  node [shape=circle, style=filled];']
    node = ['"' + _dot_escape(state) + '"' for state in f.states]
    assigned = {}
    shown = {mask: sorted(_names(mask, f.colors)) for mask in set(f._color)}
    for i, state in enumerate(f.states):
        colors = shown[f._color[i]]
        if len(colors) == 1 and colors[0] in _DOT_NATIVE:
            fill = colors[0]
        else:
            key = tuple(colors)
            if key not in assigned:
                assigned[key] = _DOT_PALETTE[len(assigned) % len(_DOT_PALETTE)]
            fill = assigned[key]
        font = ", fontcolor=white" if fill in _DOT_DARK else ""
        label = _dot_escape(state)
        if len(colors) > 1:
            label += "\\n" + _dot_escape(",".join(colors))
        lines.append(f'  {node[i]} [label="{label}", fillcolor="{fill}"{font}];')
    # Initial states get an incoming arrow from an unlabeled point node.
    taken = set(f.states)
    for index, i in enumerate(f._init):
        start = '"' + _fresh_name(f"__start{index}", taken) + '"'
        lines += [f"  {start} [shape=point, style=solid];", f"  {start} -> {node[i]};"]
    # each source's edges, by target name
    order = sorted(range(len(node)), key=f.states.__getitem__)
    sources, targets, masks = f._edges(order)
    labels = {m: _dot_escape(",".join(_names(m, f.observations))) for m in set(masks)}
    lines += [f'  {node[i]} -> {node[order[p]]} [label="{labels[m]}"];'
              for i, p, m in zip(sources, targets, masks)]
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
