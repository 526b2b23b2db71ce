"""Expected answers, computed without the package's decision procedures.

Simulation verdicts and witness lengths come from the reference
implementations in the repository's ``tests/oracles.py``; automaton answers
come from the small subset walks below; the paper's families use their
closed forms.  Nothing here is timed.
"""

import importlib.util

LANGUAGE_GAP = "language-gap"
OUTPUT_VIOLATION = "output-violation"
# Largest exhaustive search for a small simulator: 6,912 two-state filters
# over two observations and two colors fit, the donut's 110,592 do not.
SMALL_FILTERS = 10_000


def load_reference(root):
    """Import tests/oracles.py from the checkout at root."""
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("bench_reference_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def first_primes(r):
    primes = []
    candidate = 2
    while len(primes) < r:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def _product(values):
    out = 1
    for v in values:
        out *= v
    return out


def prime_size(r):
    """States of prime_family(r): a start state plus two per cycle position."""
    return 1 + 2 * sum(first_primes(r))


def prime_minimizer_size(r):
    """Paper's closed form for the deterministic minimizer: 1 + p_1...p_r + p_r."""
    primes = first_primes(r)
    return 1 + _product(primes) + primes[-1]


def prime_det_size(r):
    """Subsets built by determinizing prime_family(r).

    {start}, one subset per position of the joint cycle (p_1...p_r of them),
    and one singleton per child state (p_1 + ... + p_r).
    """
    primes = first_primes(r)
    return 1 + _product(primes) + sum(primes)


DONUT_DET_MIN = 4
FIG3_DET_MIN = 10


class Oracle:
    """Answers about specs and filters; ``ref`` is tests/oracles.py."""

    def __init__(self, ref):
        self.ref = ref

    def simulation(self, candidate, reference):
        """Expected ("holds",) or ("fails", kind, witness length)."""
        gap = self.ref.language_gap_oracle(candidate, reference)
        if gap is not None:
            return ("fails", LANGUAGE_GAP, len(gap))
        holds, witness = self.ref.simulates_oracle(candidate, reference)
        if holds:
            return ("holds",)
        return ("fails", OUTPUT_VIOLATION, len(witness))

    def simulates(self, candidate, reference):
        return self.ref.simulates_oracle(candidate, reference)[0]

    def witness_is_real(self, candidate, reference, kind, witness, color):
        """Does the reported witness really break simulation as claimed?"""
        ref_reached = self.ref.walk(reference, witness)
        cand_reached = self.ref.walk(candidate, witness)
        if not ref_reached:
            return False
        if kind == LANGUAGE_GAP:
            return not cand_reached
        return (bool(cand_reached)
                and color in self.ref.colors_of(candidate, cand_reached)
                and color not in self.ref.colors_of(reference, ref_reached))

    def smallest_simulator(self, f):
        """(tried, size): every filter of at most ``tried`` states was tried
        against f, and ``size`` is the smallest of them that output-simulates
        f, or None.  A size is tried only while ``all_filters`` yields at most
        SMALL_FILTERS filters of it."""
        for size in (1, 2):
            count = ((2 ** size - 1) * (2 ** len(f.colors) - 1) ** size
                     * 2 ** (len(f.observations) * size * size))
            if count > SMALL_FILTERS:
                return size - 1, None
            if any(self.ref.simulates_oracle(c, f)[0]
                   for c in self.ref.all_filters(size, f.observations, f.colors)):
                return size, size
        return 2, None


def is_deterministic(f):
    """One initial state and at most one target per (state, symbol)."""
    if len(f.initial) != 1:
        return False
    seen = set()
    for (src, _dst), syms in f.transitions.items():
        for y in syms:
            if (src, y) in seen:
                return False
            seen.add((src, y))
    return True


def reachable_count(f):
    """States reachable from the initial ones."""
    succ = {}
    for (src, dst) in f.transitions:
        succ.setdefault(src, []).append(dst)
    seen = set(f.initial)
    stack = list(seen)
    while stack:
        for t in succ.get(stack.pop(), ()):
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return len(seen)


def nfa_universal(spec):
    """Is every string over the alphabet accepted?  Subset walk."""
    delta, accepting = spec["delta"], set(spec["accepting"])
    start = frozenset(spec["initial"])
    seen = {start}
    stack = [start]
    while stack:
        subset = stack.pop()
        if not subset & accepting:
            return False
        for y in spec["alphabet"]:
            nxt = frozenset(t for s in subset for t in delta.get((s, y), ()))
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return True


def union_answers(dfa_specs):
    """(union is universal, union is nonempty) for a family of partial DFAs.

    Walks tuples of current states, None once a DFA has crashed.
    """
    alphabet = []
    for d in dfa_specs:
        for y in d["alphabet"]:
            if y not in alphabet:
                alphabet.append(y)

    def accepts(node):
        return any(s is not None and s in d["accepting"]
                   for s, d in zip(node, dfa_specs))

    start = tuple(d["initial"][0] for d in dfa_specs)
    seen = {start}
    stack = [start]
    universal, nonempty = True, False
    while stack:
        node = stack.pop()
        if accepts(node):
            nonempty = True
        else:
            universal = False
        for y in alphabet:
            nxt = []
            for s, d in zip(node, dfa_specs):
                ts = d["delta"].get((s, y)) if s is not None else None
                nxt.append(next(iter(ts)) if ts else None)
            nxt = tuple(nxt)
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return universal, nonempty
