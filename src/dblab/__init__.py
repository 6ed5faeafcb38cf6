"""Deadline-bounded doing-vs-thinking schedule laboratory.

An agent with a deadline splits time between attempting a problem
directly ("doing", which only pays off if the problem is solvable) and
building reusable capability ("thinking", whose progress converts into a
solution at a known rate).  This package computes the optimal
doing/thinking/doing schedule in closed form, cross-checks it against a
discrete-time dynamic program, and scores schedules by success
probability, route, and expected effort.
"""

from types import ModuleType as _ModuleType

from .model import (
    CheckResult,
    ModelParams,
    ModelValidationError,
    NoShirkResult,
    PayoffStream,
    ProgressModel,
    RiskyArm,
    SafeArm,
    Tabulated,
    TimeVarying,
    ValidationReport,
    doing_time_to_reach,
    no_shirk_check,
    posterior,
    progress_model_from_dict,
    progress_value_array,
    validate_model,
)
from .policy import (
    INFINITE,
    SearchCeilingError,
    SwitchingDiagnostics,
    do_throughout_value,
    hail_mary_belief,
    hail_mary_belief_raw,
    hail_mary_time,
    initial_doing_span,
    known_arm_value,
    preference_integral,
    preference_slope,
    search_ceiling,
    switching_profile,
    thinking_span,
)
from .solver import (
    DO_ONLY,
    DO_THINK_DO,
    DO_THROUGHOUT,
    THINK_DO,
    InfiniteHorizonPlan,
    PolicySchedule,
    SolverError,
    Thresholds,
    belief_thresholds,
    solve,
    solve_infinite_horizon,
    solve_no_cost,
)
from .dp import (
    CoarseGridError,
    DPSolution,
    Grid,
    agreement,
    dp_no_feedback,
    dp_reduced,
    dp_two_stage,
    extract_schedule,
    majority_intervals,
)
from .nofeedback import (
    NoFeedbackModel,
    doing_density,
    no_solution_prob,
    progress_given_no_solution,
    solution_density,
)
from .outcomes import (
    OutcomeSummary,
    SimConfig,
    SimResult,
    backload,
    expected_work_time,
    route_probabilities,
    simulate,
    sweep,
    trajectory_probabilities,
)

__version__ = "0.1.0"

# every name imported above (the submodules aside), and the version
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, _ModuleType)) + ["__version__"]
