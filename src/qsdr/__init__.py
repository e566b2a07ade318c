"""Binary quantum-state discrimination receivers.

Closed-form bounds (Helstrom, single and multiple copies), the locally
adaptive multi-copy measurement that attains them, and the photon-counting
receiver family for binary coherent signals: Kennedy, optimized-displacement
Kennedy, the continuously controlled Dolinar receiver (ODE and Monte Carlo),
and its constant-envelope simplification.
"""

from .statemath import (
    AngleSchedule,
    CoherentBinary,
    Priors,
    QubitPair,
    angle_schedule,
    coherent_overlap,
    helstrom_bound,
    improved_kennedy_pc,
    kennedy_pc,
    multicopy_bound,
    simplified_dolinar_pc,
)
from .multicopy import (
    MAX_VECTOR_COPIES,
    McEstimate,
    OutcomeSequence,
    ProductVector,
    exact_adaptive_pc,
    local_outcome_probs,
    measurement_vectors,
    posterior_update,
    simulate_adaptive,
)
from .rootfind import (
    Bracket,
    BracketError,
    ConvergenceError,
    golden_max,
    ik_displacement_residual,
    optimal_beta_ik,
    optimal_beta_sd,
    sd_displacement_residual,
    solve_bracketed,
)
from .dolinar import (
    ControlLaw,
    EvolveResult,
    IntegrationError,
    MajorantError,
    PcState,
    RatePair,
    SingularControlError,
    TelegraphResult,
    TelegraphTrajectory,
    evolve_pc,
    evolve_pc_general,
    feedback_amplitude,
    helstrom_trajectory,
    rates,
    segmented_pc,
    simulate_telegraph,
    verify_control_identity,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # statemath
    "Priors",
    "QubitPair",
    "CoherentBinary",
    "AngleSchedule",
    "helstrom_bound",
    "coherent_overlap",
    "multicopy_bound",
    "angle_schedule",
    "kennedy_pc",
    "improved_kennedy_pc",
    "simplified_dolinar_pc",
    # multicopy
    "MAX_VECTOR_COPIES",
    "OutcomeSequence",
    "ProductVector",
    "McEstimate",
    "local_outcome_probs",
    "exact_adaptive_pc",
    "simulate_adaptive",
    "measurement_vectors",
    "posterior_update",
    # rootfind
    "Bracket",
    "BracketError",
    "ConvergenceError",
    "solve_bracketed",
    "golden_max",
    "optimal_beta_ik",
    "ik_displacement_residual",
    "optimal_beta_sd",
    "sd_displacement_residual",
    # dolinar
    "SingularControlError",
    "IntegrationError",
    "MajorantError",
    "RatePair",
    "ControlLaw",
    "PcState",
    "EvolveResult",
    "TelegraphTrajectory",
    "TelegraphResult",
    "feedback_amplitude",
    "rates",
    "helstrom_trajectory",
    "evolve_pc",
    "evolve_pc_general",
    "segmented_pc",
    "simulate_telegraph",
    "verify_control_identity",
]
