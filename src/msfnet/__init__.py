"""Stability analysis and minimal-norm feedback design for networks of
identical LTI plants.

The workflow: describe one plant (:func:`build_plant_model`), pick a plant
network (:func:`make_network`), inspect the per-mode stability function
(:func:`sigma`, :func:`stable_interval`), synthesize a feedback network
(:func:`design_weighted`, :func:`design_binary`, :func:`design_matching`)
and verify it against the full closed-loop spectrum (:mod:`msfnet.verify`).
"""

__version__ = "0.1.0"

from . import errors
from .design import DesignResult, SweepRow, design_binary, design_matching, design_weighted, norm_sweep
from .errors import (
    BadParameter,
    DimensionMismatch,
    Infeasible,
    MsfnetError,
    NonNormalNetwork,
    NoStableInterval,
    NumericalFailure,
    TimedOut,
)
from .graphs import (
    Network,
    SpectralDecomposition,
    adjacency_csv_text,
    custom_network,
    make_network,
    network_from_spec,
    read_adjacency_csv,
    spectrum,
)
from .model import PlantModel, build_plant_model, load_model_config, matching_defect, matching_gain
from .msf import StableInterval, sigma, sigma_grid, stable_interval
from .verify import (
    ClosedLoopSystem,
    SimulationResult,
    StabilityProbability,
    Verdict,
    build_closed_loop,
    simulate,
    spectral_verdict,
    spectrum_union_check,
    stability_probability,
)

__all__ = [
    "__version__",
    "errors",
    "MsfnetError",
    "DimensionMismatch",
    "BadParameter",
    "NumericalFailure",
    "NoStableInterval",
    "Infeasible",
    "NonNormalNetwork",
    "TimedOut",
    "PlantModel",
    "build_plant_model",
    "matching_defect",
    "matching_gain",
    "load_model_config",
    "Network",
    "SpectralDecomposition",
    "make_network",
    "custom_network",
    "network_from_spec",
    "read_adjacency_csv",
    "adjacency_csv_text",
    "spectrum",
    "StableInterval",
    "sigma",
    "sigma_grid",
    "stable_interval",
    "DesignResult",
    "SweepRow",
    "design_weighted",
    "design_binary",
    "design_matching",
    "norm_sweep",
    "ClosedLoopSystem",
    "SimulationResult",
    "Verdict",
    "StabilityProbability",
    "build_closed_loop",
    "spectral_verdict",
    "spectrum_union_check",
    "simulate",
    "stability_probability",
]
