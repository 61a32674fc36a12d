"""Why reporting every connection can hurt, and who profits from hiding.

The first-processed agent can always lock in its best feasible bundle by
reporting only its top tasks.  This demo builds the classic two-agent
market where truth-telling costs the first agent almost half its
utility, then audits every bounded report of every agent to list each
profitable lie.
"""

from bmatch import (
    MechanismKind,
    agent_utility,
    audit_agent_truthfulness,
    best_response_exhaustive,
    first_agent_best_report,
    matched_pairs,
    run_mechanism,
    truthful_profile,
)
from bmatch.fixtures import epsilon_gap_instance

market = epsilon_gap_instance(eps=0.5)
print("task values:", market.values)
print("adjacency per agent:", market.agent_adj)

truthful = truthful_profile(market)
mu = run_mechanism(MechanismKind.MBFS, truthful)
print("\ntruthful breadth-first outcome:", matched_pairs(mu))
for a in range(market.n):
    print(f"  agent {a} earns {agent_utility(market, mu, a):.2f}")

print("\nfirst agent's dominant report:",
      first_agent_best_report(market))
report, best = best_response_exhaustive(market, MechanismKind.MBFS, 0)
print(f"best response search agrees: report {report.edges} earning {best:.2f}")

print("\nfull audit of the exact mechanism:")
for deviation in audit_agent_truthfulness(market, MechanismKind.MBFS):
    print(f"  agent {deviation.entity} reports {deviation.report.edges}: "
          f"{deviation.baseline_utility:.2f} -> {deviation.deviant_utility:.2f}")

print("\nfull audit of the greedy mechanism:",
      audit_agent_truthfulness(market, MechanismKind.MAP) or "clean")
