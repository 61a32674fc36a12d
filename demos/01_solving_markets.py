"""Solving a small task market three ways.

Two managers and a contractor compete for four jobs of different value.
The exact solver maximizes the total value of assigned jobs no matter
how it traverses the graph, but breadth-first and depth-first search
hand out the jobs differently.  The greedy variant never reassigns a
job and can leave value on the table, although never more than half.
"""

from bmatch import (
    Instance,
    Traversal,
    agent_utility,
    brute_force_mvbm,
    matched_pairs,
    matching_weight,
    solve_ap,
    solve_mvbm,
)

market = Instance(
    capacities=[2, 1, 1],
    values=[4.0, 3.0, 2.5, 1.0],
    edges=[(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (2, 1), (2, 3)],
)

print("jobs by value:", [market.values[t] for t in market.task_order])

for traversal in Traversal:
    mu = solve_mvbm(market, traversal)
    print(f"\nexact solve, {traversal.name.lower().replace('_', '-')}:")
    print("  assignment:", matched_pairs(mu))
    print("  total value:", matching_weight(market, mu))
    for a in range(market.n):
        print(f"  agent {a} earns {agent_utility(market, mu, a):.2f}")

greedy = solve_ap(market)
print("\ngreedy single-pass solve:")
print("  assignment:", matched_pairs(greedy))
print("  total value:", matching_weight(market, greedy))

certificate = brute_force_mvbm(market)
print("\nbrute-force certificate:")
print("  optimal value:", certificate.weight)
print("  assignments enumerated:", certificate.enumerated)
