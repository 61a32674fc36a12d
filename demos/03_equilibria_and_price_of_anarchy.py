"""First-come-first-served claims, worst equilibria, and efficiency loss.

Walking the agents in priority order and letting each claim its best
remaining tasks yields a profile of reports that is simultaneously a
pure Nash equilibrium of both exact mechanisms, a fixed point of those
mechanisms, and the exact outcome of the greedy mechanism.  The welfare
that equilibrium loses is the price of anarchy, at most a factor two.
"""

from bmatch import (
    MechanismKind,
    brute_force_mvbm,
    enumerate_pure_nash,
    fcfs_policies,
    poa_pos_on_instance,
    run_mechanism,
    solve_ap,
    verify_nash,
    worst_ne_profile,
)
from bmatch.fixtures import epsilon_gap_instance, geometric_cascade_instance

market = geometric_cascade_instance()
claims = fcfs_policies(market)
print("per-agent first-come-first-served claims:", claims.policies)
print("greedy outcome equals the claim union:",
      solve_ap(market) == claims.owner())

profile, welfare = worst_ne_profile(market)
print(f"\nworst-equilibrium welfare: {welfare:.4f} "
      f"(optimum {brute_force_mvbm(market).weight:.4f})")
certified, _ = verify_nash(profile, MechanismKind.MBFS)
print("no agent has a profitable deviation:", certified)
print("running the mechanism returns the claims unchanged:",
      run_mechanism(MechanismKind.MBFS, profile) == claims.owner())

tight = epsilon_gap_instance(eps=1e-3)
equilibria = enumerate_pure_nash(tight, MechanismKind.MBFS)
print(f"\ntight two-agent market: {len(equilibria)} pure equilibrium")
poa, pos = poa_pos_on_instance(tight, MechanismKind.MBFS)
print(f"anarchy/stability ratios: {poa:.4f} / {pos:.4f} (bound: 2)")
