"""Core filter type: a nondeterministic transition system with colored states.

A filter has a finite state set, a nonempty set of initial states, a finite
observation alphabet, edges labeled with sets of observations, and a nonempty
set of colors on every state.  Tracing a string of observations yields the set
of states reachable under it; an empty reached set is a crash, and the string
is outside the filter's interaction language.  The output of a surviving
string is the union of the colors of its reached states.

A filter is held as integer tables over the state indexes 0..n-1:
succ[k][i] is the ascending tuple of the states observation k leads state i
to, color[i] the bitmask of the colors of state i (bit j for colors[j]), and
the initial states an ascending tuple.  Names are read when a filter is
built and written when it is emitted; the name-keyed views `initial`,
`transitions` and `coloring` are built on first use.

The tables other than the colors, and the code that reads only them, are
held by the private base class _Tables, which filterkit.nfa's automata share.
A filter's subset construction is the private class _Reached, its reached
sets numbered breadth-first and filled only as far as its readers need:
determinize reads all of it, the simulation walk and the minimizers one
table per reference, which also encodes their candidates over its
observations and colors.
"""

import functools
import itertools
import math
import operator

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


def _fresh_name(base, taken, sep="~"):
    """The first of base, base~2, base~3, ... (with sep in place of ~) not
    in taken; adds it there."""
    name = base
    bump = 2
    while name in taken:
        name = f"{base}{sep}{bump}"
        bump += 1
    taken.add(name)
    return name


def _subset_names(names, masks):
    """The name of the subset of names that each bitmask of masks picks:
    {a,b,...} by sorted member names, suffixed ~2, ~3, ... where two print
    alike."""
    taken = set()
    return tuple(_fresh_name("{" + ",".join(sorted(itertools.compress(names, _flags(mask)))) + "}",
                             taken) for mask in masks)


def _names(mask, names):
    """The names whose bits are set in mask, in declared order."""
    return [name for j, name in enumerate(names) if mask >> j & 1]


def _bits(mask):
    """The indexes of the bits set in mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask(indexes):
    return sum(map((1).__lshift__, indexes))


_ZERO_ONE = bytes.maketrans(b"01", b"\x00\x01")


def _flags(mask):
    """One byte per bit of mask, lowest first: 1 where the bit is set."""
    return bin(mask)[:1:-1].encode().translate(_ZERO_ONE)


def _reachable(initial, succ):
    """The set of the state indexes that the tables succ lead to from initial."""
    seen = set(initial)
    stack = list(seen)
    while stack:
        i = stack.pop()
        for table in succ:
            for j in table[i]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
    return seen


def _path(parent, node, symbols):
    """The symbols on the way to node in a breadth-first walk over int
    nodes, where parent maps each node to previous node * len(symbols) +
    symbol index, or None at the start."""
    ks = []
    while parent[node] is not None:
        node, k = divmod(parent[node], len(symbols))
        ks.append(k)
    return tuple(symbols[k] for k in reversed(ks))


_ENDS = operator.itemgetter("from", "to")


def _tables(states, initial, observations, colors, edges, coloring):
    """The index tables of a filter given by names, as _store takes them.

    edges yields ((source, target), symbols) pairs, and an edge given twice
    carries the union of its symbols; coloring yields (state, colors) pairs.
    Raises the FilterError of the first fault found: in the names declared,
    the initial states, the edges in order, then the colors, state by state.
    """
    states, observations, colors = tuple(states), tuple(observations), tuple(colors)
    index = {s: i for i, s in enumerate(states)}
    obs_index = {y: k for k, y in enumerate(observations)}
    color_bit = {c: 1 << j for j, c in enumerate(colors)}
    if len(index) != len(states):
        raise FilterError("duplicate state ids")
    if not observations:
        raise FilterError("observation alphabet is empty")
    if len(obs_index) != len(observations):
        raise FilterError("duplicate observation symbols")
    if len(color_bit) != len(colors):
        raise FilterError("duplicate color names")

    init = set()
    for s in initial:
        i = index.get(s)
        if i is None:
            raise UnknownState(f"initial state {s!r} is not declared")
        init.add(i)
    init = tuple(sorted(init))
    if not init:
        raise NoInitialState("filter has no initial state")

    n = len(states)
    single = [(j,) for j in range(n)]
    succ = [[()] * n for _ in observations]
    shared = []  # (table, source) of the cells given more than one target
    for (src, dst), syms in edges:
        i = index.get(src)
        if i is None:
            raise UnknownState(f"transition source {src!r} is not declared")
        j = index.get(dst)
        if j is None:
            raise UnknownState(f"transition target {dst!r} is not declared")
        one = single[j]
        for y in syms:
            k = obs_index.get(y)
            if k is None:
                raise UnknownSymbol(f"transition symbol {y!r} is not declared")
            table = succ[k]
            cell = table[i]
            if not cell:
                table[i] = one
            elif cell.__class__ is list:
                cell.append(j)
            elif cell is not one:  # a cell of j alone needs nothing
                table[i] = [cell[0], j]
                shared.append((table, i))
    for table, i in shared:
        table[i] = tuple(sorted(set(table[i])))

    color = [0] * n  # -1 where a color is not declared
    given = [()] * n
    for s, cs in coloring:
        i = index.get(s)
        if i is None:
            raise UnknownState(f"colored state {s!r} is not declared")
        mask = 0
        for c in cs:
            mask |= color_bit.get(c, -1)
        color[i] = mask
        given[i] = cs
    if min(color) <= 0:
        for i, s in enumerate(states):
            if color[i] < 0:
                c = next(c for c in given[i] if c not in color_bit)
                raise FilterError(f"state {s!r} uses undeclared color {c!r}")
            if not color[i]:
                raise EmptyColorSet(s)
    return states, observations, colors, init, succ, color


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


class _Tables:
    """The tables Filter and Nfa share, and the code that reads only them:
    state names, initial state indexes, and succ[k][i], the ascending tuple
    of the states that symbol k leads state i to.  A subclass adds its
    alphabet attribute and what it puts on states."""

    def _store(self, states, symbols, initial, succ):
        self.states = states
        self._init = initial
        self._succ = succ
        self._symbol_index = {y: k for k, y in enumerate(symbols)}

    @classmethod
    def _from_tables(cls, *tables):
        """A value on tables already known to be valid, built without checks:
        names unique, cells ascending, initial states and color masks nonempty."""
        t = cls.__new__(cls)
        t._store(*tables)
        return t

    @functools.cached_property
    def initial(self):
        return frozenset(self.states[i] for i in self._init)

    def is_deterministic(self):
        """True iff one initial state and no symbol leads a state to two."""
        cells = itertools.chain.from_iterable(self._succ)
        return len(self._init) == 1 and max(map(len, cells), default=0) < 2

    def _edges(self, order=None):
        """The edges as parallel lists of sources, targets and symbol masks
        (bit k for the k-th symbol), by source, then target.  Given order, a
        list of all the states, a target is its place in order and sorts so."""
        n = len(self.states)
        place = list(range(n))
        for p, j in enumerate(order or ()):
            place[j] = p
        pairs = {}  # source * n + target -> symbol mask
        for k, table in enumerate(self._succ):
            bit = 1 << k
            for key in [i * n + place[j] for i, cell in enumerate(table) for j in cell]:
                pairs[key] = pairs.get(key, 0) | bit
        keys = sorted(pairs)
        return [k // n for k in keys], [k % n for k in keys], list(map(pairs.__getitem__, keys))

    def _reach(self, string):
        """The ascending index tuple of the states reached on string."""
        symbol_index = self._symbol_index
        reached = self._init
        for y in string:
            k = symbol_index.get(y)
            if k is None:
                raise UnknownSymbol(f"symbol {y!r} is not in the alphabet")
            reached = tuple(sorted(set().union(*map(self._succ[k].__getitem__, reached))))
            if not reached:
                break
        return reached

    def _masks_over(self, symbols):
        """For each of symbols, the bitmask of the states it leads each state
        to, as one list per symbol; a symbol these tables lack leads nowhere."""
        nowhere = [0] * len(self.states)
        index = self._symbol_index
        bit = (1).__lshift__
        return [[sum(map(bit, cell)) for cell in self._succ[index[y]]] if y in index else nowhere
                for y in symbols]


class _Reached:
    """A filter's reached sets, numbered breadth-first from the initial set 0.

    members[r] is the state mask of set r, colors[r] its color mask, and
    after[k][r] the number of the set that observation k leads it to, or -1
    for the empty set, which has no number.  Rows are filled in order and on
    demand: the first `done` are, and every set they lead to is numbered.
    step[k][i] is the mask of the states observation k leads state i to.
    color_names are the colors that encode writes candidates over.
    """

    def __init__(self, f):
        self.obs = f.observations
        self.color_names = f.colors
        self.step = f._masks_over(f.observations)
        self.color_of = f._color
        self.members = [_mask(f._init)]
        self.colors = [functools.reduce(operator.or_, map(f._color.__getitem__, f._init))]
        self.after = [[] for _ in self.step]
        self.done = 0
        self._number = {self.members[0]: 0}
        self._rows = list(zip(self.step, self.after))

    def fill(self, last=None, cap=math.inf, expired=None):
        """Fill the rows in order up to row last, or all of them; returns
        `done`.  Raises CapExceeded once more than cap sets have numbers.
        expired, a deadline test, is called every 1,024 rows when given, and
        the fill stops early once it returns True."""
        members, colors, color_of, rows = self.members, self.colors, self.color_of, self._rows
        number = self._number
        r = self.done
        for mask in itertools.islice(members, r, None if last is None else last + 1):
            if len(members) > cap or expired is not None and not r & 1023 and expired():
                break
            have = []
            while mask:
                bit = mask & -mask
                have.append(bit.bit_length() - 1)
                mask ^= bit
            for table, row in rows:
                nxt = 0
                for i in have:
                    nxt |= table[i]
                if nxt:
                    q = number.get(nxt)
                    if q is None:
                        q = number[nxt] = len(members)
                        members.append(nxt)
                        shown = 0
                        while nxt:
                            bit = nxt & -nxt
                            shown |= color_of[bit.bit_length() - 1]
                            nxt ^= bit
                        colors.append(shown)
                    row.append(q)
                else:
                    row.append(-1)
            r += 1
        self.done = r
        if r == len(members):
            self._number = None  # every set has its row, so none is looked up again
        if len(members) > cap:
            raise CapExceeded(cap, "determinizing")
        return r

    def encode(self, f):
        """Mask tables (initial mask, color mask per state, step) of a
        candidate filter over this table's observations and colors.
        step[k][i] is the mask of the targets of state i under the k-th of
        the observations; a symbol f does not declare has none, and a color
        the reference lacks gets a bit of its own."""
        step = f._masks_over(self.obs)
        colors = f._color
        if f.colors != self.color_names:
            color_bit = {c: 1 << i for i, c in enumerate(self.color_names)}
            bits = [color_bit.setdefault(c, 1 << len(color_bit)) for c in f.colors]
            colors = [sum(bit for j, bit in enumerate(bits) if mask >> j & 1) for mask in colors]
        return _mask(f._init), colors, step


class Filter(_Tables):
    """Immutable filter value; validates its description on construction.

    transitions maps (source, target) pairs to the set of observations that
    label the edge.  coloring maps every state to its nonempty color set.
    """

    def __init__(self, states, initial, observations, transitions, colors, coloring):
        self._store(*_tables(states, initial, observations, colors,
                             dict(transitions).items(), dict(coloring).items()))

    def _store(self, states, observations, colors, initial, succ, color):
        super()._store(states, observations, initial, succ)
        self.observations = observations
        self.colors = colors
        self._color = color

    # -- name-keyed views ------------------------------------------------

    @functools.cached_property
    def _index(self):
        return {s: i for i, s in enumerate(self.states)}

    @functools.cached_property
    def coloring(self):
        sets = {mask: frozenset(_names(mask, self.colors)) for mask in set(self._color)}
        return {s: sets[mask] for s, mask in zip(self.states, self._color)}

    @functools.cached_property
    def transitions(self):
        states, obs = self.states, self.observations
        sources, targets, masks = self._edges()
        labels = {m: frozenset(_names(m, obs)) for m in set(masks)}  # one per symbol set
        return {(states[i], states[j]): labels[m] for i, j, m in zip(sources, targets, masks)}

    # -- queries ---------------------------------------------------------

    def size(self):
        return len(self.states)

    def out_symbols(self, state):
        """Observations with at least one outgoing edge from state."""
        i = self._index[state]
        return frozenset(y for y, table in zip(self.observations, self._succ) if table[i])

    def successors(self, state, symbol):
        i = self._index[state]
        cell = self._succ[self._symbol_index[symbol]][i] if symbol in self._symbol_index else ()
        return tuple(self.states[j] for j in cell)

    def trace(self, string):
        """Trace a sequence of observations; returns a TraceResult."""
        return TraceResult(self.states[i] for i in self._reach(string))

    def output(self, string):
        """Union of colors over the reached states, or None on crash."""
        reached = self._reach(string)
        if not reached:
            return None
        mask = functools.reduce(operator.or_, map(self._color.__getitem__, reached))
        return frozenset(_names(mask, self.colors))

    def in_language(self, string):
        return bool(self._reach(string))

    # -- transformations -------------------------------------------------

    def trim(self):
        """Restrict to states reachable from the initial set."""
        seen = _reachable(self._init, self._succ)
        if len(seen) == len(self.states):
            return self
        keep = sorted(seen)
        new = {i: p for p, i in enumerate(keep)}
        return Filter._from_tables(
            tuple(self.states[i] for i in keep), self.observations, self.colors,
            tuple(new[i] for i in self._init),
            [[tuple(new[j] for j in table[i]) for i in keep] for table in self._succ],
            [self._color[i] for i in keep])

    def determinize(self, cap=DETERMINIZE_CAP):
        """Subset construction.

        Returns (D, mapping) where D is deterministic, reaches the same
        outputs on every string, and mapping sends each subset-state id to
        the frozenset of original states it stands for.  Raises CapExceeded
        if more than cap subset states appear, and ValueError for a NaN cap.
        """
        if math.isnan(cap):
            raise ValueError("cap must be a number")
        det, members = self._determinize(cap)
        names = self.states
        mapping = {name: frozenset(itertools.compress(names, _flags(mask)))
                   for name, mask in zip(det.states, members)}
        return det, mapping

    def _determinize(self, cap, reached=None):
        """(D, members) for determinize, where members[p] is the bitmask of
        the states that D's state p stands for.  D is read off reached, this
        filter's _Reached, or a new one, which is filled here."""
        table = _Reached(self) if reached is None else reached
        table.fill(cap=cap)
        members = table.members
        cells = [(q,) for q in range(len(members))] + [()]  # cells[-1] is the empty set's
        succ = [list(map(cells.__getitem__, row)) for row in table.after]
        # a filled table never changes, so D may share its colors
        det = Filter._from_tables(_subset_names(self.states, members), self.observations,
                                  self.colors, (0,), succ, table.colors)
        return det, members

    # -- serialization ---------------------------------------------------

    def to_dict(self):
        """The filter as a plain document.  Every list in it is new, as a
        caller may change it, so none is shared between entries."""
        states, obs, colors = self.states, self.observations, self.colors
        return {
            "observations": list(obs),
            "colors": list(colors),
            "states": [{"id": s, "colors": _names(m, colors)} for s, m in zip(states, self._color)],
            "initial": [states[i] for i in self._init],
            "transitions": [{"from": states[i], "to": states[j], "symbols": _names(m, obs)}
                            for i, j, m in zip(*self._edges())],
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
        # One pass builds the tables.  A name it resolves equals a declared
        # string, so only the ids and the containers are type-checked after,
        # in bulk.  Where that fails, or the pass raised, the per-entry checks
        # find the first malformed entry, whose error comes first.
        error = None
        try:
            states = [entry["id"] for entry in entries]
            color_lists = [entry.get("colors", []) for entry in entries]
            symbol_lists = [entry["symbols"] for entry in rows]
            tables = _tables(states, data["initial"], data["observations"], data["colors"],
                             zip(map(_ENDS, rows), symbol_lists), zip(states, color_lists))
        except (FilterError, KeyError, TypeError, AttributeError) as exc:
            error = exc
        if error is not None or not (
                _all_of_type(itertools.chain(entries, rows), dict)
                and _all_of_type(itertools.chain(color_lists, symbol_lists), list)
                and _all_of_type(states, str)):
            _check_entries(entries, rows)
            if error is not None:
                raise error
        return cls._from_tables(*tables)

    # -- value semantics --------------------------------------------------

    def _key(self):
        return (self.states, self._init, self.observations, self.colors,
                tuple(self._color), tuple(map(tuple, self._succ)))

    def __eq__(self, other):
        return isinstance(other, Filter) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        kind = "deterministic" if self.is_deterministic() else "nondeterministic"
        return f"<Filter {len(self.states)} states ({kind}), {len(self.observations)} observations>"
