"""Simulation and analysis of perceived social power in influence networks.

Agents repeatedly discuss issues, anchor part of each opinion to their own
starting view, and size up how much sway everyone holds from what they can
observe locally.  This package provides the network model, the update maps
(both centralized matrix form and message-passing form), equilibrium and
invariant-region analysis, and a scenario runner with a CLI.
"""
from .errors import (
    ConfigParseError,
    ConfigValidationError,
    CycleBudgetExceededError,
    FJPowerError,
    InvalidStructureError,
    NoConvergenceError,
    SingularSystemError,
    ViewViolationError,
    WrongTopologyError,
)
from .network import (
    GENERAL,
    STAR_FULL_CENTER,
    STAR_PARTIAL_CENTER,
    InfluenceNetwork,
    TopologyClass,
    ValidationReport,
    classify_topology,
    enumerate_stubborn_cycles,
    validate_arrays,
)
from .fj_core import (
    compute_social_power,
    final_opinions,
    influence_matrix,
    influence_resolvent,
    resolvent_diag_from_cycles,
    step_fj_opinions,
    step_power_evolution,
    step_power_evolution_single,
)
from .perception import (
    CONVERGED,
    DIVERGED,
    ISSUE,
    MAX_ITER,
    NONFINITE,
    STEP,
    LocalView,
    Trajectory,
    build_local_views,
    homogeneous_susceptibility,
    run_stack_to_convergence,
    run_to_convergence,
    step_pagerank_ra,
    step_perception_no_ra,
    step_perception_ra,
)
from .analysis import (
    CONDITION_IDS,
    Box,
    ConditionReport,
    EquilibriumReport,
    InvarianceReport,
    check_condition,
    check_dominance_necessary,
    contraction_diagnostic,
    incoming_influence_load,
    incoming_volatility_load,
    nonneg_box,
    one_step_invariance_test,
    perception_jacobian,
    solve_equilibrium,
    star_equilibrium_closed_form,
    star_invariant_box,
    two_sided_box,
)
from .simkit import (
    Agent,
    advance,
    deliver,
    make_agents,
    run_batch,
    run_distributed,
    run_round,
)
from .scenario import (
    MODES,
    OutputRequest,
    Scenario,
    ScenarioResult,
    load_scenario,
    run_reports,
    run_scenario,
    write_trajectory_csv,
)

__version__ = "0.1.0"
