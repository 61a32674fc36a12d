"""Vertex-weighted bipartite b-matching: solvers, mechanisms, and
manipulation experiments."""

from .core import (
    InfeasibleMatchingError,
    Instance,
    InvalidInstanceError,
    SizeCapExceededError,
    WEIGHT_TOL,
    agent_utility,
    dump_instance,
    is_feasible_matching,
    load_instance,
    matched_pairs,
    matching_weight,
    task_utility,
)
from .gen import GenConfig, generate_batch, generate_instance
from .mechanisms import (
    AgentReport,
    FcfsPolicySet,
    MechanismKind,
    Profile,
    TaskReport,
    build_effective_instance,
    fcfs_policies,
    first_agent_best_report,
    profile_from_json_dict,
    profile_to_json_dict,
    run_mechanism,
    run_randomized_bfs,
    sample_agent_order,
    truthful_profile,
    worst_ne_profile,
)
from .oracle import (
    OptimumCertificate,
    audit_agent_truthfulness,
    audit_task_truthfulness,
    brute_force_mvbm,
    enumerate_pure_nash,
    find_agent_coalition,
    find_task_coalition,
    poa_pos_on_instance,
)
from .solver import (
    AugmentingPath,
    Traversal,
    find_augmenting_path,
    solve_ap,
    solve_mvbm,
)
from .strategies import (
    ExplicitReport,
    GainReport,
    KOrder,
    ProfitableDeviation,
    TLevel,
    TopB,
    apply_manipulation,
    best_response_exhaustive,
    mpug,
    pma,
    pmi,
    utility_gain_ratio,
    verify_nash,
)

__version__ = "0.1.0"
