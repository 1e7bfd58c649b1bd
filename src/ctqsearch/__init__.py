"""Continuous-time quantum search with weighted partial-information sets.

Simulation and analysis toolkit for searching an unsorted item space when
the searcher holds weighted hints (information sets) about where the targets
sit.  The package prepares weighted initial states, evolves them exactly on
the two-dimensional invariant subspace (with a full-space cross-check on the
state's symmetry classes), estimates the state-target overlap by
phase-register sampling, counts targets, and analyzes when partial
information helps or hurts.
"""

from .analysis import (
    BoundReport,
    ComparisonReport,
    MisplacedStructure,
    basic_confidence_bound,
    check_scenario_bounds,
    compare_structured_unstructured,
    misplaced_confidence_curve,
    misplaced_structure,
)
from .dynamics import (
    Trajectory,
    optimal_time,
    success_distribution,
    trajectory,
)
from .fullsim import (
    plane_projection_on_grid,
    reduced_basis,
)
from .phase_estimation import (
    PhaseEstimate,
    RegisterDistribution,
    counting_scenario,
    disambiguate,
    estimate_count,
    estimate_y,
    measurement_distribution,
    next_power_of_two,
    run_counting,
    run_phase_estimation,
    sample_phase_register,
)
from .rng import make_rng
from .scenario import (
    InformationSet,
    ScenarioError,
    SearchScenario,
    load_scenario,
    scenario_from_dict,
)
from .stateprep import StatePrep, uniform_superposition, weighted_superposition

__version__ = "0.1.0"
