"""Finite-volume simulation and diagnostics for semilinear
reaction-diffusion-advection systems with merely bounded, possibly
discontinuous coefficients, built around weighted multinomial energy
functionals and a bounded regularization of the reactions."""

__version__ = "0.1.0"

from .energy import (
    EnergySpec,
    assemble_coupling_matrix,
    energy_density,
    energy_functional,
    energy_time_derivative,
    ibp_identity_sides,
    min_eigenvalue,
    select_weights,
)
from .grid import (
    BoundarySpec,
    CoefficientField,
    Dirichlet,
    NoFluxWithDrift,
    Robin,
    StructuredGrid,
    assemble_transport,
    discrete_norm,
    face_diffusivity,
)
from .reactions import (
    ReactionSystem,
    SampleReport,
    builtin_linear_decay,
    builtin_reversible_reaction,
    check_intermediate_sum,
    check_mass_control,
    check_polynomial_growth,
    check_quasi_positivity,
    system_from_expressions,
    truncate,
)
from .integrator import (
    Problem,
    SimState,
    SolverConfig,
    StepReport,
    dump_state,
    epsilon_refinement_study,
    load_state,
    run,
    step,
)
from .diagnostics import (
    Trajectory,
    energy_trace,
    mass_budget,
    norm_series,
    windowed_sup,
)
from .epidemic import (
    EpiParams,
    EpiReport,
    EpiSteps,
    build_epi_coefficients,
    build_epi_system,
    conservation_residual,
    decay_report,
    s_infinity,
    validate_params,
)
