"""Core filter type: a nondeterministic transition system with colored states.

A filter has a finite state set, a nonempty set of initial states, a finite
observation alphabet, edges labeled with sets of observations, and a nonempty
set of colors on every state.  Tracing a string of observations yields the set
of states reachable under it; an empty reached set is a crash, and the string
is outside the filter's interaction language.  The output of a surviving
string is the union of the colors of its reached states.
"""

import itertools
from collections import deque

from .errors import (
    CapExceeded,
    EmptyColorSet,
    FilterError,
    NoInitialState,
    UnknownState,
    UnknownSymbol,
)

DETERMINIZE_CAP = 2 ** 20


def _check_strings(values, what, error=FilterError):
    """Return values if it is a list of strings; raise error otherwise."""
    if not isinstance(values, list):
        raise error(f"{what} must be a list")
    for v in values:
        if not isinstance(v, str):
            raise error(f"{what} must be strings, not {v!r}")
    return values


def _all_of_type(values, kind):
    """True if every value is exactly of type kind.  A subclass makes it
    False, so such values go on to the per-value checks, which accept it."""
    return set(map(type, values)) <= {kind}


def _check_entries(entries, rows):
    """The per-entry checks of the state and transition entries of a filter
    document; raises the error that the first malformed entry earns."""
    for entry in entries:
        if not isinstance(entry, dict) or "id" not in entry:
            raise FilterError("each state needs an 'id'")
        _check_strings([entry["id"]], "state ids")
        _check_strings(entry.get("colors", []), "state colors")
    for entry in rows:
        if not isinstance(entry, dict) or not {"from", "to", "symbols"} <= set(entry):
            raise FilterError("each transition needs 'from', 'to' and 'symbols'")
        _check_strings([entry["from"], entry["to"]], "transition ends")
        _check_strings(entry["symbols"], "transition symbols")


def _fresh_name(base, taken):
    """The first of base, base~2, base~3, ... not in taken; adds it there."""
    name = base
    bump = 2
    while name in taken:
        name = f"{base}~{bump}"
        bump += 1
    taken.add(name)
    return name


class TraceResult:
    """Outcome of tracing a string: the reached state set (empty = crash)."""

    __slots__ = ("reached",)

    def __init__(self, reached):
        self.reached = frozenset(reached)

    @property
    def crashed(self):
        return not self.reached

    def __eq__(self, other):
        return isinstance(other, TraceResult) and self.reached == other.reached

    def __repr__(self):
        if self.crashed:
            return "TraceResult(crashed)"
        return f"TraceResult({{{', '.join(sorted(self.reached))}}})"


class Filter:
    """Immutable filter value; validates its description on construction.

    transitions maps (source, target) pairs to the set of observations that
    label the edge.  coloring maps every state to its nonempty color set.
    """

    def __init__(self, states, initial, observations, transitions, colors, coloring):
        self.states = tuple(states)
        if len(set(self.states)) != len(self.states):
            raise FilterError("duplicate state ids")
        state_set = set(self.states)

        self.observations = tuple(observations)
        if not self.observations:
            raise FilterError("observation alphabet is empty")
        if len(set(self.observations)) != len(self.observations):
            raise FilterError("duplicate observation symbols")
        obs_set = set(self.observations)

        self.colors = tuple(colors)
        if len(set(self.colors)) != len(self.colors):
            raise FilterError("duplicate color names")
        color_set = set(self.colors)

        initial_set = set(initial)
        if not initial_set <= state_set:
            for s in initial:
                if s not in state_set:
                    raise UnknownState(f"initial state {s!r} is not declared")
        init = [s for s in self.states if s in initial_set]
        if not init:
            raise NoInitialState("filter has no initial state")
        self.initial = frozenset(init)

        trans = {}
        for (src, dst), syms in dict(transitions).items():
            if src not in state_set:
                raise UnknownState(f"transition source {src!r} is not declared")
            if dst not in state_set:
                raise UnknownState(f"transition target {dst!r} is not declared")
            symset = frozenset(syms)
            if not symset <= obs_set:
                for y in symset:
                    if y not in obs_set:
                        raise UnknownSymbol(f"transition symbol {y!r} is not declared")
            if symset:
                trans[(src, dst)] = symset
        self.transitions = trans

        self.coloring = {}
        for s, cs in dict(coloring).items():
            if s not in state_set:
                raise UnknownState(f"colored state {s!r} is not declared")
            self.coloring[s] = frozenset(cs)
        for s in self.states:
            cs = self.coloring.get(s, frozenset())
            if not cs:
                raise EmptyColorSet(s)
            if not cs <= color_set:
                for c in cs:
                    if c not in color_set:
                        raise FilterError(f"state {s!r} uses undeclared color {c!r}")

        self._index = {s: i for i, s in enumerate(self.states)}
        self._obs_set = obs_set
        # state -> symbol -> ordered tuple of targets
        step = {s: {} for s in self.states}
        shared = []  # (by_sym, y) of the entries with more than one target
        for (src, dst), syms in self.transitions.items():
            by_sym = step[src]
            for y in syms:
                targets = by_sym.get(y)
                if targets is None:
                    by_sym[y] = (dst,)
                elif len(targets) == 1:
                    by_sym[y] = [targets[0], dst]
                    shared.append((by_sym, y))
                else:
                    targets.append(dst)
        rank = self._index.__getitem__
        for by_sym, y in shared:
            by_sym[y] = tuple(sorted(by_sym[y], key=rank))
        self._step = step
        self._deterministic = len(self.initial) == 1 and not shared

    # -- queries ---------------------------------------------------------

    def size(self):
        return len(self.states)

    def out_symbols(self, state):
        """Observations with at least one outgoing edge from state."""
        return frozenset(self._step[state])

    def successors(self, state, symbol):
        return self._step[state].get(symbol, ())

    def is_deterministic(self):
        """True iff one initial state and no symbol leaves a state twice."""
        return self._deterministic

    def trace(self, string):
        """Trace a sequence of observations; returns a TraceResult."""
        reached = set(self.initial)
        for y in string:
            if y not in self._obs_set:
                raise UnknownSymbol(f"symbol {y!r} is not in the alphabet")
            nxt = set()
            for s in reached:
                nxt.update(self._step[s].get(y, ()))
            reached = nxt
            if not reached:
                break
        return TraceResult(reached)

    def output(self, string):
        """Union of colors over the reached states, or None on crash."""
        result = self.trace(string)
        if result.crashed:
            return None
        out = set()
        for s in result.reached:
            out.update(self.coloring[s])
        return frozenset(out)

    def in_language(self, string):
        return not self.trace(string).crashed

    # -- transformations -------------------------------------------------

    def trim(self):
        """Restrict to states reachable from the initial set."""
        seen = set(self.initial)
        queue = deque(sorted(self.initial, key=self._index.__getitem__))
        while queue:
            s = queue.popleft()
            for targets in self._step[s].values():
                for t in targets:
                    if t not in seen:
                        seen.add(t)
                        queue.append(t)
        if len(seen) == len(self.states):
            return self
        states = tuple(s for s in self.states if s in seen)
        transitions = {
            (src, dst): syms
            for (src, dst), syms in self.transitions.items()
            if src in seen and dst in seen
        }
        coloring = {s: self.coloring[s] for s in states}
        return Filter(states, self.initial, self.observations, transitions,
                      self.colors, coloring)

    def determinize(self, cap=DETERMINIZE_CAP):
        """Subset construction.

        Returns (D, mapping) where D is deterministic, reaches the same
        outputs on every string, and mapping sends each subset-state id to
        the frozenset of original states it stands for.  Raises CapExceeded
        if more than cap subset states appear.
        """
        start = frozenset(self.initial)
        order = [start]
        seen = {start}
        edges = {}  # (subset, symbol) -> subset
        qi = 0
        while qi < len(order):
            subset = order[qi]
            qi += 1
            for y in self.observations:
                nxt = set()
                for s in subset:
                    nxt.update(self._step[s].get(y, ()))
                if not nxt:
                    continue
                nxt = frozenset(nxt)
                edges[(subset, y)] = nxt
                if nxt not in seen:
                    if len(seen) >= cap:
                        raise CapExceeded(cap, "determinizing")
                    seen.add(nxt)
                    order.append(nxt)

        taken = set()
        names = {s: _fresh_name("{" + ",".join(sorted(s)) + "}", taken) for s in order}
        states = tuple(names.values())
        transitions = {}
        for (subset, y), nxt in edges.items():
            key = (names[subset], names[nxt])
            transitions.setdefault(key, set()).add(y)
        coloring = {}
        for subset in order:
            out = set()
            for s in subset:
                out.update(self.coloring[s])
            coloring[names[subset]] = frozenset(out)
        det = Filter(states, [names[start]], self.observations, transitions,
                     self.colors, coloring)
        mapping = {names[s]: s for s in order}
        return det, mapping

    # -- serialization ---------------------------------------------------

    def to_dict(self):
        obs_rank = {y: i for i, y in enumerate(self.observations)}
        color_rank = {c: i for i, c in enumerate(self.colors)}
        return {
            "observations": list(self.observations),
            "colors": list(self.colors),
            "states": [
                {"id": s, "colors": sorted(self.coloring[s], key=color_rank.__getitem__)}
                for s in self.states
            ],
            "initial": [s for s in self.states if s in self.initial],
            "transitions": [
                {
                    "from": src,
                    "to": dst,
                    "symbols": sorted(self.transitions[(src, dst)], key=obs_rank.__getitem__),
                }
                for (src, dst) in sorted(
                    self.transitions,
                    key=lambda e: (self._index[e[0]], self._index[e[1]]),
                )
            ],
        }

    @classmethod
    def from_dict(cls, data):
        """Validate a raw description (parsed mapping) into a Filter."""
        if not isinstance(data, dict):
            raise FilterError("filter description must be a mapping")
        for key in ("observations", "colors", "states", "initial", "transitions"):
            if key not in data:
                raise FilterError(f"missing key {key!r}")
            if not isinstance(data[key], list):
                raise FilterError(f"{key!r} must be a list")
        for key in ("observations", "colors", "initial"):
            _check_strings(data[key], repr(key))
        entries, rows = data["states"], data["transitions"]
        # The common case is checked in bulk; otherwise the per-entry checks
        # find the first malformed entry and raise its usual error.
        try:
            states = [entry["id"] for entry in entries]
            color_lists = [entry.get("colors", []) for entry in entries]
            ends = [(entry["from"], entry["to"]) for entry in rows]
            symbol_lists = [entry["symbols"] for entry in rows]
            flat = itertools.chain.from_iterable
            plain = (
                _all_of_type(itertools.chain(entries, rows), dict)
                and _all_of_type(itertools.chain(color_lists, symbol_lists), list)
                and _all_of_type(itertools.chain(
                    states, flat(ends), flat(color_lists), flat(symbol_lists)), str)
            )
        except (KeyError, TypeError, AttributeError):
            plain = False
        if not plain:
            _check_entries(entries, rows)
        transitions = dict(zip(ends, symbol_lists))
        if len(transitions) < len(ends):
            # an edge listed more than once carries the union of its symbols
            transitions = {}
            for key, symbols in zip(ends, symbol_lists):
                transitions.setdefault(key, set()).update(symbols)
        return cls(states, data["initial"], data["observations"], transitions,
                   data["colors"], dict(zip(states, color_lists)))

    # -- value semantics --------------------------------------------------

    def _key(self):
        return (self.states, self.initial, self.observations,
                frozenset(self.transitions.items()), self.colors,
                frozenset(self.coloring.items()))

    def __eq__(self, other):
        return isinstance(other, Filter) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        kind = "deterministic" if self._deterministic else "nondeterministic"
        return f"<Filter {len(self.states)} states ({kind}), {len(self.observations)} observations>"
