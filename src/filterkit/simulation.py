"""Output-simulation checking.

A candidate filter output-simulates a reference filter when (i) every string
the reference survives is also survived by the candidate and (ii) on each such
string the candidate's output colors are a subset of the reference's.

Every observation string drives the two filters to a pair of reached state
sets, and two strings that reach the same pair impose the same requirement.
Both conditions are therefore decided by one breadth-first walk over the
reachable pairs (reference set, candidate set).  The reference set is a
number in the reference's reached-set table (filterkit.filters._Reached),
which the walk fills as it reads it and which encodes the candidate as
mask tables, and the candidate set a bitmask of candidate states.  The
empty reference set has no number and is never entered: the reference makes
no demand there.  A pair fails with a language gap when its candidate set
is empty and with an output violation when the candidate set carries a
color the reference set does not.

The walk expands the reference's observations in their declared order and
checks each pair when it is first reached, so the first failing pair found
is reached by the shortest failing string, and among those by the first in
declared order.  A language gap takes precedence over an output violation:
when the first failure is a violation, a second walk with all-zero
candidate colors, which check none, looks for a gap before it is reported.

A pair is one int, and so is its parent pointer; the tables are indexed by
observation position.  Names are read only when a witness string or an
offending color is reported.
"""

from .errors import CapExceeded
from .filters import _bits, _names, _path, _Reached
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


def _walk(ref, init, colors, step, cap=None):
    """Breadth-first walk over reached-set pairs (reference set, candidate
    mask), from the initial pair, expanding ref.obs in declared order.

    The candidate is given as mask tables (see _Reached.encode).  A pair is
    one int, r * stride + m for reference set r and candidate mask m, where
    stride is 2 ** len(colors).  Returns None when no reached pair
    fails, else (kind, pair, parent, stride) for the first failing pair in
    discovery order, where parent maps each reached pair to previous pair *
    len(step) + observation index, or None for the initial pair.  Candidate
    colors that are all zero check none, so such a walk looks for language
    gaps only.  Raises CapExceeded once more than cap pairs, the initial one
    included, would be reached; a cap is None or at least 1.
    """
    # The candidate search runs this walk once per candidate, mostly to a
    # quick failure, so the pair check is written out twice (for the initial
    # pair and for each pair reached later) and bits are iterated inline.
    after, ref_colors = ref.after, ref.colors
    shift = len(colors)
    stride = 1 << shift
    low = stride - 1
    width = len(step)
    parent = {init: None}  # the initial pair: set 0 and the initial mask
    if not init:
        return LANGUAGE_GAP, init, parent, stride
    ccol = 0
    m = init
    while m:
        bit = m & -m
        ccol |= colors[bit.bit_length() - 1]
        m ^= bit
    if ccol & ~ref_colors[0]:
        return OUTPUT_VIOLATION, init, parent, stride
    done = ref.done
    queue = [init]
    for node in queue:
        r = node >> shift
        if r >= done:
            done = ref.fill(r)
        cm = node & low
        base = node * width
        for k, table in enumerate(step):
            r2 = after[k][r]
            if r2 < 0:
                continue
            cm2 = 0
            m = cm
            while m:
                bit = m & -m
                cm2 |= table[bit.bit_length() - 1]
                m ^= bit
            nxt = r2 << shift | cm2
            if nxt in parent:
                continue
            if cap is not None and len(parent) >= cap:
                raise CapExceeded(cap, "checking output simulation")
            parent[nxt] = base + k
            if not cm2:
                return LANGUAGE_GAP, nxt, parent, stride
            ccol = 0
            m = cm2
            while m:
                bit = m & -m
                ccol |= colors[bit.bit_length() - 1]
                m ^= bit
            if ccol & ~ref_colors[r2]:
                return OUTPUT_VIOLATION, nxt, parent, stride
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
    needed, and ValueError for a cap below 1 or NaN.
    """
    if cap is not None and not cap >= 1:
        raise ValueError("cap must be positive")
    ref = _Reached(reference)
    init, colors, step = ref.encode(candidate)
    failure = _walk(ref, init, colors, step, cap)
    if failure is None:
        return SimulationVerdict(True)
    if failure[0] == OUTPUT_VIOLATION:
        failure = _walk(ref, init, [0] * len(colors), step, cap) or failure
    kind, node, parent, stride = failure
    witness = _path(parent, node, ref.obs)
    if kind == LANGUAGE_GAP:
        return SimulationVerdict(False, kind, witness)
    ref_set, cand_mask = divmod(node, stride)
    allowed = set(_names(ref.colors[ref_set], reference.colors))
    shown = 0
    for i in _bits(cand_mask):
        shown |= candidate._color[i]
    color = next(c for c in _names(shown, candidate.colors) if c not in allowed)
    return SimulationVerdict(False, kind, witness, color)
