"""How much larger can a filter's exact deterministic minimizer be than the
filter itself, and than its exact nondeterministic minimizer?  The prime
family answers: the input and its nondeterministic minimizer grow linearly
in r, the deterministic minimizer like the product of the first r primes.

Run:  python demos/growth_table.py
"""

from filterkit import (
    minimize_det,
    minimize_nondet,
    output_simulates,
    prime_family,
    prime_family_minimizer,
)

print(f"{'r':>3} {'input n':>8} {'minimizer z':>12} {'z/n':>10}")
for r in range(1, 6):
    n = prime_family(r).size()
    z = prime_family_minimizer(r).size()
    print(f"{r:>3} {n:>8} {z:>12} {z / n:>10.2f}")

print()
print("claimed minimizers really do simulate their inputs:")
for r in range(1, 4):
    verdict = output_simulates(prime_family_minimizer(r), prime_family(r))
    print(f"  r={r}: {verdict.holds}")

print()
print("exact search confirms nothing smaller works (r <= 3), and a")
print("nondeterministic filter does far better; its size is proven by bounds:")
print(f"{'r':>3} {'det minimum':>12} {'nondet minimum':>15} {'proven':>7} {'nondet bound from':>22}")
for r in range(1, 4):
    det = minimize_det(prime_family(r))
    nondet = minimize_nondet(prime_family(r))
    proven = "yes" if det.proven_optimal and nondet.proven_optimal else "no"
    source = nondet.stats["upper_bound_source"]
    print(f"{r:>3} {det.size():>12} {nondet.size():>15} {proven:>7} {source:>22}")
