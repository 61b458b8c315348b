"""Normal modes and driven spectra of ion chains in tapered traps.

The package models a chain of ions in a trap whose radial confinement
stiffens linearly along the axis, computes equilibrium positions and
radial/axial normal modes, tracks the modes across axial-confinement
sweeps, simulates driven-damped dynamics to synthesize measurable
amplitude/phase spectra, and runs the analysis chain (Lorentzian fits,
eigenvector reconstruction, fluorescence-profile fits) that turns such
spectra back into mode parameters. :mod:`tapermode.pipeline` closes the
loop end to end; :mod:`tapermode.cli` exposes everything as a command-line
tool.
"""

from .analysis import (
    FixedCenterFit,
    LorentzianFit,
    ModeVectorEstimate,
    ProfileFit,
    SpectrumAnalysis,
    analyze_spectrum,
    blurred_arcsine,
    fit_fixed_centers,
    fit_lorentzian_sum,
    fit_profile,
    lorentzian_sum,
    reconstruct_eigenvectors,
)
from .core import (
    TrapConfig,
    gradient,
    hessian,
    potential_energy,
)
from .dynamics import (
    BeamSpec,
    DriveScan,
    RingDown,
    SpectrumResult,
    beam_weights,
    linear_response_spectrum,
    ring_down,
    simulate_spectrum,
    synthesize_spectra,
    total_energy,
    wrap_phase,
)
from .equilibrium import chain_positions_dimensionless, equilibrium_positions
from .errors import (
    AnalysisError,
    ConfigError,
    SimulationError,
    SolverError,
    TapermodeError,
)
from .modes import (
    Mode,
    ModeTable,
    compute_modes,
    coupling_matrix,
    linear_reference,
    participation_ratio,
    site_frequencies,
)
from .pipeline import (
    AxialComCheck,
    ExperimentPlan,
    PointResult,
    ReproductionReport,
    axial_com_check,
    run_experiment,
    select_beam,
)
from .sweep import SweepPoint, SweepResult, TrackedMode, match_columns, run_sweep

__version__ = "0.1.0"

__all__ = [
    "AnalysisError",
    "AxialComCheck",
    "BeamSpec",
    "ConfigError",
    "DriveScan",
    "ExperimentPlan",
    "FixedCenterFit",
    "LorentzianFit",
    "Mode",
    "ModeTable",
    "ModeVectorEstimate",
    "PointResult",
    "ProfileFit",
    "ReproductionReport",
    "RingDown",
    "SimulationError",
    "SolverError",
    "SpectrumAnalysis",
    "SpectrumResult",
    "SweepPoint",
    "SweepResult",
    "TapermodeError",
    "TrackedMode",
    "TrapConfig",
    "analyze_spectrum",
    "axial_com_check",
    "beam_weights",
    "blurred_arcsine",
    "chain_positions_dimensionless",
    "compute_modes",
    "coupling_matrix",
    "equilibrium_positions",
    "fit_fixed_centers",
    "fit_lorentzian_sum",
    "fit_profile",
    "gradient",
    "hessian",
    "linear_reference",
    "linear_response_spectrum",
    "lorentzian_sum",
    "match_columns",
    "participation_ratio",
    "potential_energy",
    "reconstruct_eigenvectors",
    "ring_down",
    "run_experiment",
    "run_sweep",
    "select_beam",
    "simulate_spectrum",
    "site_frequencies",
    "synthesize_spectra",
    "total_energy",
    "wrap_phase",
    "__version__",
]
