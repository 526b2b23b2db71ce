"""Built-in filter families used as worked examples and stress inputs.

prime_family(r) grows linearly with r while its exact deterministic
minimizer, prime_family_minimizer(r), grows like the primorial: the white
cycles of coprime lengths force a determinized cycle of length p_1*...*p_r.
The minimizer is built on index tables directly, with no names in between.
fig3_input/fig3_minimizer are a fixed ten-state deterministic filter and a
nine-state nondeterministic filter that output-simulates it; donut_world
models two indistinguishable agents on a circular track split into three
regions by three beams.
"""

import math

from .errors import FilterError
from .filters import DETERMINIZE_CAP, Filter


def _rows(r):
    """The first r primes, their product, and the observations and colors
    of the r-row family; raises FilterError for rows out of range."""
    if isinstance(r, bool) or not isinstance(r, int) or r < 1:
        raise FilterError("rows must be a positive integer")
    primes, candidate = [], 2
    while len(primes) < r:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    product = math.prod(primes)
    if product > DETERMINIZE_CAP:
        raise FilterError(f"rows={r} puts the determinized cycle ({product}) over the cap")
    colors = ("black", "white") + tuple(f"o{m}" for m in range(1, primes[-1] + 1))
    return primes, product, ("a",) + tuple(f"x{i}" for i in range(1, r + 1)), colors


def prime_family(r):
    """Filter with 1 + 2*(p_1+...+p_r) states.

    A black start state feeds r white cycles under symbol a, one cycle per
    prime length.  Every cycle state q_{i,j} also has an edge under x_i to
    its own child, colored o_j; reading a^m x_i therefore reveals m mod p_i
    through the child color.
    """
    primes, _, observations, colors = _rows(r)
    states = ["start"]
    transitions = {}
    coloring = {"start": {"black"}}
    for i, p in enumerate(primes, start=1):
        transitions[("start", f"q{i}_1")] = {"a"}
        for j in range(1, p + 1):
            loop_state, child = f"q{i}_{j}", f"c{i}_{j}"
            states += [loop_state, child]
            coloring.update({loop_state: {"white"}, child: {f"o{j}"}})
            transitions[(loop_state, f"q{i}_{j % p + 1}")] = {"a"}
            transitions[(loop_state, child)] = {f"x{i}"}
    return Filter(states, ["start"], observations, transitions, colors, coloring)


def prime_family_minimizer(r):
    """Deterministic minimizer of prime_family(r): 1 + p_1*...*p_r + p_r states.

    One white cycle of primorial length replaces the r coprime cycles; from
    cycle position j, symbol x_i leads to the sink colored o_{((j-1) mod
    p_i)+1}, so every child color of the input family is reproduced exactly.
    """
    primes, product, observations, colors = _rows(r)
    top = primes[-1]  # start is state 0, r_j state j and sink_m state product + m
    states = (("start",) + tuple(f"r{j}" for j in range(1, product + 1))
              + tuple(f"sink{m}" for m in range(1, top + 1)))
    cells = [(q,) for q in range(len(states))]
    none = [()] * top  # the sinks have no edges
    succ = [[cells[1]] + cells[2:product + 1] + [cells[1]] + none]
    succ += [[()] + cells[product + 1:product + 1 + p] * (product // p) + none for p in primes]
    color = [1] + [2] * product + [1 << (m + 1) for m in range(1, top + 1)]
    return Filter._from_tables(states, observations, colors, (0,), succ, color)


def fig3_input():
    """Ten-state deterministic filter with no smaller deterministic minimizer.

    Its states are pairwise incompatible, yet a nine-state nondeterministic
    filter (fig3_minimizer) output-simulates it.
    """
    observations = tuple("1234567") + tuple("abcdefgh")
    colors = ("blue", "white", "pink", "green")
    states = ["q0", "q1", "q2", "q3", "q4", "q5", "q6", "q7", "plus", "minus"]
    coloring = {"q0": {"blue"}, "plus": {"pink"}, "minus": {"green"}}
    for s in states[1:8]:
        coloring[s] = {"white"}
    transitions = {("q0", f"q{d}"): {str(d)} for d in range(1, 8)}  # d leads q0 to q_d
    transitions.update({
        ("q1", "plus"): set("abcde"),
        ("q2", "plus"): set("def"),
        ("q2", "minus"): set("a"),
        ("q3", "plus"): set("fgh"),
        ("q3", "minus"): set("ad"),
        ("q4", "plus"): set("abcgh"),
        ("q4", "minus"): set("d"),
        ("q5", "plus"): set("de"),
        ("q5", "minus"): set("bfg"),
        ("q6", "minus"): set("bcefgh"),
        ("q7", "plus"): set("f"),
        ("q7", "minus"): set("aceh"),
    })
    return Filter(states, ["q0"], observations, transitions, colors, coloring)


def fig3_minimizer():
    """Nine-state nondeterministic filter that output-simulates fig3_input.

    Determinizing it gives a filter isomorphic to fig3_input, so its exact
    deterministic minimizer is one state larger than the filter itself.
    """
    observations = tuple("1234567") + tuple("abcdefgh")
    colors = ("blue", "white", "pink", "green")
    states = ["p0", "p1", "p2", "p3", "p4", "p5", "p6", "plus", "minus"]
    coloring = {"p0": {"blue"}, "plus": {"pink"}, "minus": {"green"}}
    for s in states[1:7]:
        coloring[s] = {"white"}
    transitions = {
        ("p0", "p1"): {"1", "4"},
        ("p0", "p2"): {"1", "2", "5"},
        ("p0", "p3"): {"2", "3", "7"},
        ("p0", "p4"): {"3", "4"},
        ("p0", "p5"): {"5", "6"},
        ("p0", "p6"): {"6", "7"},
        ("p1", "plus"): set("abc"),
        ("p2", "plus"): set("de"),
        ("p3", "plus"): set("f"),
        ("p3", "minus"): set("a"),
        ("p4", "plus"): set("gh"),
        ("p4", "minus"): set("d"),
        ("p5", "minus"): set("bfg"),
        ("p6", "minus"): set("ceh"),
    }
    return Filter(states, ["p0"], observations, transitions, colors, coloring)


_BEAMS = {"a": (0, 1), "b": (1, 2), "c": (0, 2)}


def donut_world():
    """Two indistinguishable agents on a ring of three regions.

    A state is the unordered pair of occupied regions.  Each observation is a
    beam between two adjacent regions; it fires when one agent (unknown
    which) crosses it, which makes the filter nondeterministic.  Red means
    the agents share a region, cyan that they are apart.  Both agents start
    together in region 0.
    """
    pairs = [(x, y) for x in range(3) for y in range(x, 3)]
    name = lambda pair: f"{pair[0]}{pair[1]}"
    transitions = {}
    for pair in pairs:
        for beam, (u, v) in _BEAMS.items():
            for agent in (0, 1):
                spot = pair[agent]
                if spot not in (u, v):
                    continue
                moved = list(pair)
                moved[agent] = u + v - spot
                target = tuple(sorted(moved))
                transitions.setdefault((name(pair), name(target)), set()).add(beam)
    coloring = {
        name(pair): {"red"} if pair[0] == pair[1] else {"cyan"} for pair in pairs
    }
    return Filter(
        [name(p) for p in pairs],
        ["00"],
        tuple(_BEAMS),
        transitions,
        ("red", "cyan"),
        coloring,
    )
