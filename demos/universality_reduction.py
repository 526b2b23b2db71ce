"""Deciding "can this filter shrink to one state?" is as hard as NFA
universality.  This script builds the reduction both ways round: a universal
automaton becomes a one-state-minimizable filter, a non-universal one does
not.

Run:  python demos/universality_reduction.py
"""

from filterkit import Nfa, decide_size_k, from_nfa_universality
from filterkit.nfa import is_universal, sigma_star

# accepts everything except strings containing "bb"
picky = Nfa(
    ["ok", "b1"],
    ["ok"],
    ("a", "b"),
    {
        ("ok", "a"): frozenset({"ok"}),
        ("ok", "b"): frozenset({"b1"}),
        ("b1", "a"): frozenset({"ok"}),
    },
    {"ok", "b1"},
)

for name, automaton in (("sigma-star", sigma_star(("a", "b"))), ("no-bb", picky)):
    universal, witness = is_universal(automaton)
    instance = from_nfa_universality(automaton)
    decision = decide_size_k(instance.filter, 1)
    print(f"{name}:")
    print(f"  universal:              {universal}" + (f"  (missing {witness})" if witness is not None else ""))
    print(f"  reduction filter size:  {instance.filter.size()} states")
    print(f"  one-state minimizable:  {decision.outcome}")
    print()

print("the two answers always agree, which is the point: a fast exact")
print("minimizer for filters would decide universality for free.")
