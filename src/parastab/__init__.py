"""Sampled-data boundary feedback for 1-D reaction-diffusion equations.

Synthesis of an explicit finite-dimensional zero-order-hold boundary
feedback from the unstable spectrum of the linearization, plus simulation
and verification tooling for the resulting closed loops.
"""

from .model import (
    GammaOrderingViolation,
    GridTooCoarse,
    NonFiniteCoefficient,
    NonPositivePeriod,
    NonlinearitySpec,
    ParastabError,
    ProblemSpec,
    ValidatedProblem,
    cubic_reaction,
    fisher_reaction,
    linear_reaction,
    linearized_coefficient,
    polynomial_reaction,
    reaction,
    validate_spec,
)
from .spectral import (
    EigenSolverFailure,
    RhoOnEigenvalue,
    Spectrum,
    TridiagonalOperator,
    assemble_operator,
    boundary_flux,
    compute_spectrum,
    eigendecompose,
    l2_norm,
    laplacian_spectrum,
    linearized_spectrum,
    project,
    select_unstable,
    sobolev_norm,
)
from .synthesis import (
    DimensionMismatch,
    GainSet,
    SingularBSum,
    apply_feedback,
    build_gains,
    component_feedback,
    continuous_limit,
    default_gammas,
    gains_to_json,
)
from .lifting import (
    SingularLiftSystem,
    dirichlet_lift,
)
from .simulate import (
    HoldSchedule,
    MissingSampleSnapshots,
    TooFewSubsteps,
    Trajectory,
    UnstableStep,
    ZDecomposition,
    decompose_z,
    run_linear_closed_loop,
    run_open_loop,
    run_semilinear_closed_loop,
    scale_to_norm,
    seeded_initial_state,
    trajectory_to_csv,
)
from .analysis import (
    BasinReport,
    BasinRow,
    CheckResult,
    DegenerateFit,
    RateFit,
    RecursionCheck,
    SweepResult,
    SweepRow,
    VerificationReport,
    check_contraction,
    check_half_identity,
    check_lift_identity,
    check_modal_recursion,
    check_resolution,
    estimate_basin,
    fit_decay_rate,
    gain_limit_distance,
    lognorm_svg,
    orthonormality_residual,
    run_verification,
    sweep_gammas,
    sweep_sampling_period,
)

__version__ = "0.1.0"
