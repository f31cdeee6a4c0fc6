"""peelkit: peeling-process toolkit for Boltzmann planar maps.

Turns a face-weight sequence into its peeling description: spectral
constants and admissibility class, the two-sided random-walk step law,
Doob-transformed perimeter/volume simulators for finite and infinite maps,
exact enumeration oracles, and Monte Carlo scaling diagnostics.
"""

from .criticality import (
    CriticalData,
    classify,
    full_report,
    miermont_check,
    solve_boltzmann,
    tune_critical,
)
from .hfun import HCache, h_asymptote
from .oracle import brute_force_maps, enumerate_dp, g_series, volume_tables
from .peeling import (
    PeelTrace,
    sample_xi,
    simulate,
    simulate_ensemble,
    step_finite,
    step_ibpm,
)
from .scaling import (
    collapse_test,
    cplus_slope_test,
    ecf_test,
    exponent_regression,
    rescale,
)
from .walk import (
    StepLaw,
    complete_nu,
    disk_coefficient,
    expected_volume,
    kernel_R,
    symmetric_family,
)
from .weights import (
    WeightSequence,
    nu_from_q,
    pointed_disk,
    preset,
    preset_by_alias,
    q_from_nu,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "CriticalData",
    "HCache",
    "PeelTrace",
    "StepLaw",
    "WeightSequence",
    "brute_force_maps",
    "classify",
    "collapse_test",
    "complete_nu",
    "cplus_slope_test",
    "disk_coefficient",
    "ecf_test",
    "enumerate_dp",
    "expected_volume",
    "exponent_regression",
    "full_report",
    "g_series",
    "h_asymptote",
    "kernel_R",
    "miermont_check",
    "nu_from_q",
    "pointed_disk",
    "preset",
    "preset_by_alias",
    "q_from_nu",
    "rescale",
    "sample_xi",
    "simulate",
    "simulate_ensemble",
    "solve_boltzmann",
    "step_finite",
    "step_ibpm",
    "symmetric_family",
    "tune_critical",
    "validate",
    "volume_tables",
]
