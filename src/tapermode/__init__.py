"""Normal modes and driven spectra of ion chains in tapered traps.

The package models a chain of ions in a trap whose radial confinement
stiffens linearly along the axis, computes equilibrium positions and
radial/axial normal modes, tracks the modes across axial-confinement
sweeps, simulates driven-damped dynamics to synthesize measurable
amplitude/phase spectra, and runs the analysis chain (modal fits,
eigenvector reconstruction, fluorescence-profile fits) that turns such
spectra back into mode parameters. :mod:`tapermode.pipeline` closes the
loop end to end; :mod:`tapermode.cli` exposes everything as a command-line
tool.
"""

from .analysis import (
    LorentzianFit,
    ModalFit,
    ModeVectorEstimate,
    ProfileFit,
    SpectrumAnalysis,
    analyze_spectrum,
    blurred_arcsine,
    fit_lorentzian_sum,
    fit_modal_sum,
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
    SpectrumResult,
    beam_weights,
    linear_response_spectrum,
    simulate_spectrum,
    synthesize_spectra,
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
    ModeTable,
    compute_modes,
    coupling_matrix,
    participation_ratio,
    site_frequencies,
)
from .pipeline import (
    ExperimentPlan,
    PointResult,
    ReproductionReport,
    run_experiment,
    select_beam,
)
from .sweep import SweepResult, match_columns, run_sweep

__version__ = "0.1.0"

__all__ = [
    "AnalysisError",
    "BeamSpec",
    "ConfigError",
    "DriveScan",
    "ExperimentPlan",
    "LorentzianFit",
    "ModalFit",
    "ModeTable",
    "ModeVectorEstimate",
    "PointResult",
    "ProfileFit",
    "ReproductionReport",
    "SimulationError",
    "SolverError",
    "SpectrumAnalysis",
    "SpectrumResult",
    "SweepResult",
    "TapermodeError",
    "TrapConfig",
    "analyze_spectrum",
    "beam_weights",
    "blurred_arcsine",
    "chain_positions_dimensionless",
    "compute_modes",
    "coupling_matrix",
    "equilibrium_positions",
    "fit_lorentzian_sum",
    "fit_modal_sum",
    "fit_profile",
    "gradient",
    "hessian",
    "linear_response_spectrum",
    "lorentzian_sum",
    "match_columns",
    "participation_ratio",
    "potential_energy",
    "reconstruct_eigenvectors",
    "run_experiment",
    "run_sweep",
    "select_beam",
    "simulate_spectrum",
    "site_frequencies",
    "synthesize_spectra",
    "wrap_phase",
    "__version__",
]
