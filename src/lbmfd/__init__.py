"""D1Q3 MRT lattice Boltzmann diffusion model and its four-level
finite-difference form, with high-order calibration, stability analysis and
convergence verification."""

from .calibration import (
    CalibrationResult,
    ModelParams,
    Relaxations,
    Weights,
    calibrate_fourth,
    calibrate_sixth,
    calibration_sweep,
    epsilon_max,
    residual_fourth,
    residual_second,
    second_order_reference,
)
from .errors import (
    DomainError,
    LengthMismatch,
    NoRealRoot,
    StateError,
    UnsupportedBoundary,
)
from .lbm import (
    DistributionField,
    LatticeMatrices,
    equilibrium,
    evolve,
    evolve_matrix_form,
    fd_equivalence_deviation,
    initialize,
    lattice_matrices,
    macro_phi,
)
from .scheme import (
    BoundarySpec,
    FdCoefficients,
    Grid1D,
    PhiHistory,
    coefficients,
    run,
    snapshot_csv_lines,
    step,
)
from .stability import (
    CharPoly,
    StabilityReport,
    char_poly,
    companion_amplification,
    cubic_roots,
    margin_decomposition,
    population_amplification,
    routh_hurwitz_values,
    spectral_radius_scan,
)
from .verification import (
    BenchmarkCase,
    ConvergenceReport,
    SolutionProfile,
    analytic_phi,
    convergence_rate,
    profile_solution,
    reproduce_table,
    rmse,
    run_benchmark,
)

__version__ = "0.1.0"
