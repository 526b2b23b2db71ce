"""Output-simulation checking.

A candidate filter output-simulates a reference filter when (i) every string
the reference survives is also survived by the candidate and (ii) on each such
string the candidate's output colors are a subset of the reference's.

Every observation string drives the two filters to a pair of reached state
sets, and two strings that reach the same pair impose the same requirement.
Both conditions are therefore decided by one breadth-first walk over the
reachable pairs (reference set, candidate set), held as bitmasks.  A pair
whose reference set is empty is never entered: the reference makes no demand
there.  A pair fails with a language gap when its candidate set is empty and
with an output violation when the candidate set carries a color the
reference set does not.

The walk expands the reference's observations in their declared order and
checks each pair when it is first reached, so the first failing pair found
is reached by the shortest failing string, and among those by the first in
declared order.  A language gap takes precedence over an output violation:
when the first failure is a violation, a second walk with all-zero
candidate colors, which check none, looks for a gap before it is reported.

The mask tables, their caches and the walk's parent pointers are indexed by
observation position; names are read only when a witness string or an
offending color is reported.
"""

from .errors import CapExceeded
from .filters import _bits, _mask, _names, _path
from .nfa import INCLUSION_CAP

LANGUAGE_GAP = "language-gap"
OUTPUT_VIOLATION = "output-violation"


class SimulationVerdict:
    """Result of an output-simulation check.

    holds is the verdict; on failure kind is LANGUAGE_GAP or
    OUTPUT_VIOLATION, witness is the shortest failing string of that kind
    (a tuple of observation symbols), first in the reference's declared
    observation order, and color is, for output violations, the first
    offending color in the candidate's declared color order.
    """

    __slots__ = ("holds", "kind", "witness", "color")

    def __init__(self, holds, kind=None, witness=None, color=None):
        self.holds = holds
        self.kind = kind
        self.witness = witness
        self.color = color

    def __bool__(self):
        return self.holds

    def __repr__(self):
        if self.holds:
            return "SimulationVerdict(holds)"
        detail = f"kind={self.kind}, witness={self.witness!r}"
        if self.color is not None:
            detail += f", color={self.color!r}"
        return f"SimulationVerdict(fails, {detail})"


class _RefTables:
    """Bitmask view of a reference filter, with cached successor and color
    masks of its reached sets."""

    def __init__(self, f):
        self.obs = f.observations
        self.colors = f.colors
        self._color_bit = {c: 1 << i for i, c in enumerate(f.colors)}
        self.init_mask, self.color_of, self.step = self.encode(f)
        self._succ_cache = {}
        self._color_cache = {}
        self.eps_colors = self.colors_of(self.init_mask)

    def encode(self, f):
        """Mask tables (initial mask, color mask per state, step) of a
        candidate filter over this reference's observations and colors.
        step[k][i] is the mask of the targets of state i under the k-th of
        the reference's observations; a symbol f does not declare has none,
        and a color the reference lacks gets a bit of its own."""
        step = f._masks_over(self.obs)
        colors = f._color
        if f.colors != self.colors:
            color_bit = dict(self._color_bit)
            bits = [color_bit.setdefault(c, 1 << len(color_bit)) for c in f.colors]
            colors = [sum(bit for j, bit in enumerate(bits) if mask >> j & 1) for mask in colors]
        return _mask(f._init), colors, step

    def succ(self, mask, k):
        """The reached set of the k-th observation from the set mask."""
        key = (mask, k)
        out = self._succ_cache.get(key)
        if out is None:
            table = self.step[k]
            out = 0
            for i in _bits(mask):
                out |= table[i]
            self._succ_cache[key] = out
        return out

    def colors_of(self, mask):
        out = self._color_cache.get(mask)
        if out is None:
            out = 0
            for i in _bits(mask):
                out |= self.color_of[i]
            self._color_cache[mask] = out
        return out


def _walk(ref, init, colors, step, cap=None):
    """Breadth-first walk over reached-set pairs (reference mask, candidate
    mask), from the initial pair, expanding ref.obs in declared order.

    The candidate is given as mask tables (see _RefTables.encode).  Returns
    None when no reached pair fails, else (kind, pair, parent) for the first
    failing pair in discovery order, where parent maps each reached pair to
    (previous pair, observation index), or None for the initial pair.
    Candidate colors that are all zero check none, so such a walk looks for
    language gaps only.  Raises CapExceeded once more than cap pairs would
    be reached.
    """
    # The candidate search runs this walk once per candidate, mostly to a
    # quick failure, so the pair check is written out twice (for the initial
    # pair and for each pair reached later) rather than called.
    succ, colors_of = ref.succ, ref.colors_of
    rm, cm = start = (ref.init_mask, init)
    parent = {start: None}
    if not cm:
        return LANGUAGE_GAP, start, parent
    ccol = 0
    for i in _bits(cm):
        ccol |= colors[i]
    if ccol & ~colors_of(rm):
        return OUTPUT_VIOLATION, start, parent
    queue = [start]
    for node in queue:
        rm, cm = node
        for k, table in enumerate(step):
            rm2 = succ(rm, k)
            if not rm2:
                continue
            cm2 = 0
            for i in _bits(cm):
                cm2 |= table[i]
            nxt = (rm2, cm2)
            if nxt in parent:
                continue
            if cap is not None and len(parent) >= cap:
                raise CapExceeded(cap, "checking output simulation")
            parent[nxt] = (node, k)
            if not cm2:
                return LANGUAGE_GAP, nxt, parent
            ccol = 0
            for i in _bits(cm2):
                ccol |= colors[i]
            if ccol & ~colors_of(rm2):
                return OUTPUT_VIOLATION, nxt, parent
            queue.append(nxt)
    return None


def output_simulates(candidate, reference, cap=INCLUSION_CAP):
    """Decide whether candidate output-simulates reference.

    A language gap is reported whenever one exists, even if a shorter output
    violation does; otherwise the first output violation is.  Either way
    the witness is the shortest failing string of the reported kind, first
    in the reference's declared observation order, and the color of a
    violation is the first offending one in the candidate's declared color
    order (colors are matched by name; one the reference lacks always
    offends).  Raises CapExceeded when more than cap reached-set pairs are
    needed.
    """
    ref = _RefTables(reference)
    init, colors, step = ref.encode(candidate)
    failure = _walk(ref, init, colors, step, cap)
    if failure is None:
        return SimulationVerdict(True)
    if failure[0] == OUTPUT_VIOLATION:
        failure = _walk(ref, init, [0] * len(colors), step, cap) or failure
    kind, node, parent = failure
    witness = _path(parent, node, ref.obs)
    if kind == LANGUAGE_GAP:
        return SimulationVerdict(False, kind, witness)
    ref_mask, cand_mask = node
    allowed = set(_names(ref.colors_of(ref_mask), reference.colors))
    shown = 0
    for i in _bits(cand_mask):
        shown |= candidate._color[i]
    color = next(c for c in _names(shown, candidate.colors) if c not in allowed)
    return SimulationVerdict(False, kind, witness, color)
