"""Continuous-time quantum search with weighted partial-information sets.

Simulation and analysis toolkit for searching an unsorted item space when
the searcher holds weighted hints (information sets) about where the targets
sit.  The package prepares weighted initial states, evolves them exactly on
the two-dimensional invariant subspace (with a matrix-free N-dimensional
cross-check), estimates the state-target overlap by phase-register sampling,
counts targets, and analyzes when partial information helps or hurts.
"""

from .analysis import (
    BoundKind,
    BoundReport,
    ComparisonReport,
    MisplacedStructure,
    ScenarioMode,
    basic_confidence_bound,
    check_scenario_bounds,
    compare_structured_unstructured,
    disjoint_bound,
    misplaced_confidence_curve,
    misplaced_scenario,
    misplaced_structure,
    nu_squared_lower,
    random_scenario_suite,
    weight_power_sum,
)
from .dynamics import (
    ReducedState,
    SuccessDistribution,
    Trajectory,
    eigensystem,
    evolution_matrix,
    evolve_state,
    optimal_time,
    reduced_hamiltonian,
    success_distribution,
    trajectory,
)
from .fullsim import (
    invariant_subspace_residual,
    plane_projection_on_grid,
    reduced_basis,
)
from .phase_estimation import (
    EIGHT_OVER_PI_SQ,
    CountResult,
    PhaseEstimate,
    RegisterDistribution,
    TailBound,
    TailBoundReport,
    branch_distribution,
    circle_distance,
    concentration_probability,
    counting_scenario,
    disambiguate,
    disjointify,
    estimate_count,
    estimate_y,
    measurement_distribution,
    next_power_of_two,
    run_counting,
    run_phase_estimation,
    sample_phase_register,
    tail_bound_report,
    walk_operator,
)
from .rng import derive_key, make_rng
from .scenario import (
    Confidence,
    ConfidenceReport,
    InformationSet,
    ScenarioError,
    SearchScenario,
    classify_confidence,
    covers,
    load_scenario,
    oracle_eval,
    scenario_from_dict,
    scenario_to_dict,
    sets_pairwise_disjoint,
)
from .stateprep import StatePrep, uniform_superposition, weighted_superposition

__version__ = "0.1.0"
